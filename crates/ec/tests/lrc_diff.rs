//! Differential suite for the erasure code across its shapes — the
//! locally-repairable ones and Reed-Solomon (`l = 0`): every shape is
//! pinned against `ScalarCodec`-backed runs and against ground truth
//! across sampled loss masks — including masks that exceed local
//! repairability and must fall back to global reconstruction.
//!
//! Three layers of comparison:
//!
//! * **kernel differential** — fast vs scalar GF(2^8) paths produce
//!   byte-identical parity and byte-identical recovery for the same mask;
//! * **ground-truth recovery** — every within-tolerance mask restores the
//!   exact original bytes (zero-padded to stripe width), never a
//!   plausible-but-wrong stripe;
//! * **repair-source soundness** — whatever `repair_sources` proposes is
//!   sufficient: handing exactly those shards to `repair_one` rebuilds
//!   the lost shard; local-group sources are used iff the family is
//!   intact.

use fusion_ec::codec::CodecKind;
use fusion_ec::rs::ReconstructError;
use fusion_ec::ErasureCode;
use proptest::prelude::*;

/// The shapes under test: (n, k, l), Reed-Solomon at l = 0. Every shape
/// tolerates the up-to-three losses the strategies below erase.
const SHAPES: [(usize, usize, usize); 5] =
    [(10, 6, 2), (10, 6, 3), (14, 10, 2), (9, 6, 0), (14, 10, 0)];

fn stripe_for(lrc: &ErasureCode, data: &[Vec<u8>], width: usize) -> Vec<Vec<u8>> {
    let parity = lrc.encode(data);
    data.iter()
        .map(|d| {
            let mut d = d.clone();
            d.resize(width, 0);
            d
        })
        .chain(parity)
        .collect()
}

proptest! {
    /// Fast and scalar kernels produce identical parity, and identical
    /// recovered bytes for the same loss mask.
    #[test]
    fn fast_and_scalar_recover_identically(
        shape in 0usize..SHAPES.len(),
        data_seed: u8,
        widths in prop::collection::vec(0usize..180, 10),
        erase in prop::collection::btree_set(0usize..14, 1..=3),
    ) {
        let (n, k, l) = SHAPES[shape];
        let fast = ErasureCode::with_codec(n, k, l, CodecKind::Fast).unwrap();
        let scalar = ErasureCode::with_codec(n, k, l, CodecKind::Scalar).unwrap();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..widths[i % widths.len()])
                    .map(|j| (data_seed as usize * 37 + i * 131 + j * 7) as u8)
                    .collect()
            })
            .collect();
        prop_assert_eq!(fast.encode(&data), scalar.encode(&data));

        let width = data.iter().map(Vec::len).max().unwrap_or(0);
        let stripe = stripe_for(&fast, &data, width);
        let erase: Vec<usize> = erase.into_iter().filter(|&e| e < n).collect();
        let mut a: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
        let mut b = a.clone();
        for &e in &erase {
            a[e] = None;
            b[e] = None;
        }
        let ra = fast.reconstruct(&mut a, width);
        let rb = scalar.reconstruct(&mut b, width);
        prop_assert_eq!(&ra, &rb);
        if ra.is_ok() {
            prop_assert_eq!(a, b);
        }
    }

    /// Every within-tolerance mask recovers the exact original bytes.
    #[test]
    fn recovery_is_ground_truth(
        shape in 0usize..SHAPES.len(),
        data in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..120), 10),
        erase in prop::collection::btree_set(0usize..14, 1..=3),
    ) {
        let (n, k, l) = SHAPES[shape];
        let lrc = ErasureCode::new(n, k, l).unwrap();
        let data = &data[..k];
        let width = data.iter().map(Vec::len).max().unwrap_or(0);
        let stripe = stripe_for(&lrc, data, width);
        let erase: Vec<usize> = erase.into_iter().filter(|&e| e < n).collect();
        let mut shards: Vec<Option<Vec<u8>>> = stripe.iter().cloned().map(Some).collect();
        for &e in &erase {
            shards[e] = None;
        }
        lrc.reconstruct(&mut shards, width).unwrap();
        for (i, s) in shards.iter().enumerate() {
            prop_assert_eq!(s.as_deref(), Some(&stripe[i][..]), "shard {}", i);
        }
    }

    /// `repair_sources` is sound and minimal-path-aware: the proposed
    /// sources alone rebuild the shard, the local family is proposed iff
    /// intact, and masks that break the family fall back to a ≥ k global
    /// set (still byte-exact).
    #[test]
    fn repair_sources_sufficient_including_global_fallback(
        shape in 0usize..SHAPES.len(),
        data in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..100), 10),
        down in prop::collection::btree_set(0usize..14, 1..=3),
    ) {
        let (n, k, l) = SHAPES[shape];
        let lrc = ErasureCode::new(n, k, l).unwrap();
        let data = &data[..k];
        let width = data.iter().map(Vec::len).max().unwrap_or(0);
        let stripe = stripe_for(&lrc, data, width);
        let down: Vec<usize> = down.into_iter().filter(|&e| e < n).collect();
        if down.is_empty() {
            return Ok(());
        }
        let lost = down[0];
        let avail: Vec<bool> = (0..n).map(|i| !down.contains(&i)).collect();

        let Some(sources) = lrc.repair_sources(lost, &avail) else {
            // Within tolerance this never happens; larger masks may be
            // genuinely unrecoverable, which reconstruct must agree with.
            let mut shards: Vec<Option<Vec<u8>>> =
                stripe.iter().cloned().map(Some).collect();
            for &e in &down {
                shards[e] = None;
            }
            let err = lrc.reconstruct(&mut shards, width).unwrap_err();
            prop_assert!(matches!(
                err,
                ReconstructError::NotRecoverable | ReconstructError::TooFewBlocks { .. }
            ));
            return Ok(());
        };
        prop_assert!(sources.iter().all(|&s| avail[s]), "sources must be available");
        prop_assert!(!sources.contains(&lost));

        // Local family proposed iff intact; otherwise global fallback
        // reads at least k shards.
        if let Some(g) = lrc.group_of(lost) {
            let family: Vec<usize> =
                lrc.group_members(g).into_iter().filter(|&i| i != lost).collect();
            if family.iter().all(|&i| avail[i]) {
                prop_assert_eq!(&sources, &family, "intact family must be preferred");
                prop_assert!(sources.len() < k, "local repair must beat RS's k reads");
            } else {
                prop_assert!(sources.len() >= k, "broken family falls back to global");
            }
        }

        // Soundness: exactly those sources rebuild the lost shard.
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; n];
        for &s in &sources {
            shards[s] = Some(stripe[s].clone());
        }
        lrc.repair_one(&mut shards, lost, width).unwrap();
        prop_assert_eq!(shards[lost].as_deref(), Some(&stripe[lost][..]));
    }
}
