//! Differential test layer: `FastCodec` must be byte-identical to
//! `ScalarCodec` on every public codec operation.
//!
//! The scalar path is the trusted reference (it is exercised directly
//! against the field axioms in `proptests.rs`); these tests pin the
//! optimized split-nibble kernels to it across:
//!
//! * random `(n, k)` with `n` in `2..=16`,
//! * random shard lengths including 0, 1, odd, and non-multiple-of-8,
//! * every missing-shard combination up to `m = n − k` losses (enumerated
//!   exhaustively when the pattern count is small, deterministically
//!   sampled otherwise).

use fusion_ec::codec::CodecKind;
use fusion_ec::ErasureCode;
use proptest::prelude::*;

/// Number of loss patterns per generated stripe before we switch from
/// exhaustive enumeration to deterministic sampling.
const MAX_PATTERNS: u64 = 256;

/// All bitmasks over `n` shards with `1..=m` bits set — exhaustive when
/// there are at most [`MAX_PATTERNS`], otherwise a deterministic
/// splitmix64-driven sample of the same size.
fn loss_masks(n: usize, m: usize, seed: u64) -> Vec<u32> {
    let all: Vec<u32> = (1u32..1 << n)
        .filter(|mask| (1..=m as u32).contains(&mask.count_ones()))
        .collect();
    if all.len() as u64 <= MAX_PATTERNS {
        return all;
    }
    let mut state = seed | 1;
    let mut picked = std::collections::BTreeSet::new();
    while (picked.len() as u64) < MAX_PATTERNS {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        picked.insert(all[(z % all.len() as u64) as usize]);
    }
    picked.into_iter().collect()
}

/// Applies one loss mask and reconstructs under the given codec.
fn reconstruct_under(
    rs: &ErasureCode,
    full: &[Vec<u8>],
    width: usize,
    mask: u32,
) -> Vec<Option<Vec<u8>>> {
    let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
    for (i, s) in shards.iter_mut().enumerate() {
        if mask & (1 << i) != 0 {
            *s = None;
        }
    }
    rs.reconstruct(&mut shards, width).unwrap();
    shards
}

/// Shard lengths biased toward the edge cases the kernels care about:
/// empty, single byte, odd, non-multiple-of-8, and SIMD-width straddlers.
fn shard_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(7usize),
        Just(8usize),
        Just(9usize),
        Just(31usize),
        Just(33usize),
        3usize..48,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Encode agreement: parity from both codecs is byte-identical for
    /// random (n, k) and variable-length stripes.
    #[test]
    fn encode_is_byte_identical(
        nk in (2usize..=16).prop_flat_map(|n| (Just(n), 1usize..n)),
        seed: u64,
        lens in prop::collection::vec(shard_len(), 16),
    ) {
        let (n, k) = nk;
        let data: Vec<Vec<u8>> = lens[..k]
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                (0..l)
                    .map(|j| (seed as usize + i * 131 + j * 29) as u8)
                    .collect()
            })
            .collect();
        let scalar = ErasureCode::with_codec(n, k, 0, CodecKind::Scalar).unwrap();
        let fast = ErasureCode::with_codec(n, k, 0, CodecKind::Fast).unwrap();
        let ps = scalar.encode(&data);
        let pf = fast.encode(&data);
        prop_assert_eq!(&ps, &pf);

        // encode_into must agree with encode, including when reusing a
        // dirty buffer from a previous (differently sized) stripe.
        let mut reused = vec![vec![0xFFu8; 200]; 7];
        fast.encode_into(&data, &mut reused);
        prop_assert_eq!(&reused, &pf);
    }

    /// Reconstruct agreement: for every loss pattern up to m losses, both
    /// codecs recover the identical stripe.
    #[test]
    fn reconstruct_is_byte_identical(
        nk in (2usize..=16).prop_flat_map(|n| (Just(n), 1usize..n)),
        seed: u64,
        lens in prop::collection::vec(shard_len(), 16),
    ) {
        let (n, k) = nk;
        let data: Vec<Vec<u8>> = lens[..k]
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                (0..l)
                    .map(|j| (seed as usize ^ (i * 251 + j * 17)) as u8)
                    .collect()
            })
            .collect();
        let width = data.iter().map(Vec::len).max().unwrap_or(0);

        let scalar = ErasureCode::with_codec(n, k, 0, CodecKind::Scalar).unwrap();
        let fast = ErasureCode::with_codec(n, k, 0, CodecKind::Fast).unwrap();
        let parity = scalar.encode(&data);
        prop_assert_eq!(&parity, &fast.encode(&data));

        // Reference stripe, padded to full width.
        let full: Vec<Vec<u8>> = data
            .iter()
            .map(|d| {
                let mut d = d.clone();
                d.resize(width, 0);
                d
            })
            .chain(parity)
            .collect();

        for mask in loss_masks(n, n - k, seed) {
            let rs_s = reconstruct_under(&scalar, &full, width, mask);
            let rs_f = reconstruct_under(&fast, &full, width, mask);
            prop_assert_eq!(&rs_s, &rs_f, "mask {:#b}", mask);
            for (i, s) in rs_f.iter().enumerate() {
                prop_assert_eq!(
                    s.as_deref(),
                    Some(&full[i][..]),
                    "shard {} mask {:#b}",
                    i,
                    mask
                );
            }
        }
    }
}

/// Deterministic backstop: RS(9, 6) — the paper's default code — with a
/// variable-length stripe, every one of the 129 loss patterns of size
/// 1..=3 enumerated exhaustively under both codecs.
#[test]
fn rs96_all_loss_patterns_exhaustive() {
    let lens = [40usize, 0, 1, 7, 33, 40];
    let data: Vec<Vec<u8>> = lens
        .iter()
        .enumerate()
        .map(|(i, &l)| (0..l).map(|j| (i * 83 + j * 7) as u8).collect())
        .collect();
    let width = 40;

    let scalar = ErasureCode::with_codec(9, 6, 0, CodecKind::Scalar).unwrap();
    let fast = ErasureCode::with_codec(9, 6, 0, CodecKind::Fast).unwrap();
    let parity = scalar.encode(&data);
    assert_eq!(parity, fast.encode(&data));

    let full: Vec<Vec<u8>> = data
        .iter()
        .map(|d| {
            let mut d = d.clone();
            d.resize(width, 0);
            d
        })
        .chain(parity)
        .collect();

    let masks = loss_masks(9, 3, 0);
    assert_eq!(masks.len(), 9 + 36 + 84, "enumeration must be exhaustive");
    for mask in masks {
        let rs_s = reconstruct_under(&scalar, &full, width, mask);
        let rs_f = reconstruct_under(&fast, &full, width, mask);
        assert_eq!(rs_s, rs_f, "mask {mask:#b}");
        for (i, s) in rs_f.iter().enumerate() {
            assert_eq!(s.as_deref(), Some(&full[i][..]), "shard {i} mask {mask:#b}");
        }
    }
}

/// Zero-width stripes must be handled identically too.
#[test]
fn zero_width_stripe_agrees() {
    for kind in [CodecKind::Scalar, CodecKind::Fast] {
        let rs = ErasureCode::with_codec(4, 2, 0, kind).unwrap();
        let parity = rs.encode(&[Vec::new(), Vec::new()]);
        assert!(parity.iter().all(Vec::is_empty), "{kind}");
        let mut shards: Vec<Option<Vec<u8>>> = vec![None, Some(vec![]), Some(vec![]), Some(vec![])];
        rs.reconstruct(&mut shards, 0).unwrap();
        assert_eq!(shards[0].as_deref(), Some(&[][..]), "{kind}");
    }
}
