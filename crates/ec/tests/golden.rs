//! Golden digests for the erasure code: the parity bytes of one fixed
//! stripe, the repair plan of every loss mask within tolerance, and the
//! bytes every such mask decodes to from an inconsistent stripe are
//! pinned to constants. The round-trip and fast-vs-scalar suites would
//! all still pass under a different generator matrix, a different
//! repair-source choice or a different choice of decode rows; these
//! tests would not.
//!
//! Digests are 64-bit FNV-1a. Each parity shard is digested on its own;
//! the repair plans, and the decoded bytes, of one code fold into a
//! single digest each.

use fusion_ec::codec::CodecKind;
use fusion_ec::ErasureCode;

/// One pinned code: `(n, k, l)`, the digest of each parity shard of
/// [`stripe`], the digest of every repair plan, and the digest of every
/// decode of the tampered stripe.
struct Golden {
    n: usize,
    k: usize,
    l: usize,
    parity: &'static [u64],
    plans: u64,
    decodes: u64,
}

const GOLDEN: [Golden; 5] = [
    Golden {
        n: 9,
        k: 6,
        l: 0,
        parity: &[0xa0d20b3b2bd0fa99, 0x2475af38f7786a76, 0xe1a43f07b174626c],
        plans: 0xab1b5f532bc1144d,
        decodes: 0x0309524825d7517a,
    },
    Golden {
        n: 14,
        k: 10,
        l: 0,
        parity: &[
            0x3eba665f1eaccafd,
            0x171118945471c24f,
            0x27b9712a55d5a617,
            0xf68a91982218a250,
        ],
        plans: 0xb8623cf4fdb9e6d3,
        decodes: 0x2d654b2d7469671d,
    },
    Golden {
        n: 10,
        k: 6,
        l: 2,
        parity: &[
            0xb40de38baa67da58,
            0x24baf7f90467529a,
            0x2475af38f7786a76,
            0xe1a43f07b174626c,
        ],
        plans: 0x386405314498c877,
        decodes: 0x6338537870c9222b,
    },
    Golden {
        n: 10,
        k: 6,
        l: 3,
        parity: &[
            0x135faf0e7bc36184,
            0x0396cac49ada8d1e,
            0xa62080f465c61003,
            0x2475af38f7786a76,
        ],
        plans: 0x0e8d056fada3c6c2,
        decodes: 0xef5dbde728b25d8e,
    },
    Golden {
        n: 14,
        k: 10,
        l: 2,
        parity: &[
            0x1310b8a18f491626,
            0x3f4e7354356e6760,
            0x171118945471c24f,
            0x27b9712a55d5a617,
        ],
        plans: 0xfb72a6ce30235b23,
        decodes: 0x161ab4f31536aae9,
    },
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn build(n: usize, k: usize, l: usize, kind: CodecKind) -> ErasureCode {
    ErasureCode::with_codec(n, k, l, kind).unwrap()
}

/// The fixed stripe: `k` data shards of unequal lengths (1..=97 bytes),
/// shard 1 empty.
fn stripe(k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            let len = if i == 1 { 0 } else { 1 + (i * 53 + 17) % 97 };
            (0..len).map(|j| (i * 131 + j * 29 + 7) as u8).collect()
        })
        .collect()
}

#[test]
fn parity_digests_are_pinned() {
    for g in &GOLDEN {
        for kind in [CodecKind::Fast, CodecKind::Scalar] {
            let code = build(g.n, g.k, g.l, kind);
            let mut parity = Vec::new();
            code.encode_into(&stripe(g.k), &mut parity);
            let got: Vec<u64> = parity.iter().map(|p| fnv1a(FNV_OFFSET, p)).collect();
            assert_eq!(got, g.parity, "({}, {}, {}) under {kind}", g.n, g.k, g.l);
        }
    }
}

#[test]
fn repair_plan_digests_are_pinned() {
    for g in &GOLDEN {
        let code = build(g.n, g.k, g.l, CodecKind::Fast);
        let mut h = FNV_OFFSET;
        for mask in 1u32..1 << g.n {
            if mask.count_ones() as usize > code.tolerance() {
                continue;
            }
            let available: Vec<bool> = (0..g.n).map(|i| mask & (1 << i) == 0).collect();
            for lost in (0..g.n).filter(|&i| mask & (1 << i) != 0) {
                h = fnv1a(h, &mask.to_le_bytes());
                h = fnv1a(h, &[lost as u8]);
                match code.repair_sources(lost, &available) {
                    Some(sources) => {
                        h = fnv1a(h, &[sources.len() as u8]);
                        for s in sources {
                            h = fnv1a(h, &[s as u8]);
                        }
                    }
                    None => h = fnv1a(h, &[0xFF]),
                }
            }
        }
        assert_eq!(h, g.plans, "({}, {}, {})", g.n, g.k, g.l);
    }
}

/// Decodes a stripe whose data shard 0 had one byte flipped after
/// encoding — what a tampered block reads — under every loss mask within
/// tolerance. With inconsistent shards the bytes a decode returns depend
/// on which surviving rows it solves over, so this pins that choice.
#[test]
fn inconsistent_decode_digests_are_pinned() {
    for g in &GOLDEN {
        for kind in [CodecKind::Fast, CodecKind::Scalar] {
            let code = build(g.n, g.k, g.l, kind);
            let data = stripe(g.k);
            let width = data.iter().map(Vec::len).max().unwrap();
            let mut full: Vec<Vec<u8>> = data.iter().cloned().chain(code.encode(&data)).collect();
            full[0][0] ^= 0x5A;
            let mut h = FNV_OFFSET;
            for mask in 1u32..1 << g.n {
                if mask.count_ones() as usize > code.tolerance() {
                    continue;
                }
                let mut shards: Vec<Option<Vec<u8>>> = full
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (mask & (1 << i) == 0).then(|| s.clone()))
                    .collect();
                code.reconstruct(&mut shards, width).unwrap();
                for i in (0..g.n).filter(|&i| mask & (1 << i) != 0) {
                    h = fnv1a(h, shards[i].as_ref().unwrap());
                }
            }
            assert_eq!(h, g.decodes, "({}, {}, {}) under {kind}", g.n, g.k, g.l);
        }
    }
}
