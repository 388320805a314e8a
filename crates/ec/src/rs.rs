//! Systematic Reed-Solomon erasure codes over GF(2^8): the errors of
//! [`ErasureCode`](crate::ErasureCode), and the tests of its Reed-Solomon
//! case (`l = 0`).
//!
//! An `(n, k)` code turns `k` data blocks into `n - k` parity blocks such
//! that the stripe survives the loss of any `n - k` of its `n` blocks.
//! Because the code is *systematic*, the data blocks are stored verbatim —
//! the property Fusion relies on to run computations directly on storage
//! nodes without decoding.
//!
//! Unlike textbook implementations,
//! [`ErasureCode::encode`](crate::ErasureCode::encode) accepts data
//! blocks of **different lengths**: shorter blocks are treated as if they
//! were zero-padded to the length of the longest block in the stripe, and
//! the parity blocks have that maximum length. This matches the stripe
//! semantics of the paper (§2, Figure 2): the parity size — and therefore
//! the storage overhead — of a stripe is dictated solely by its largest
//! data block.

/// Errors from constructing an [`ErasureCode`](crate::ErasureCode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeParamsError {
    /// `k` was zero.
    ZeroDataBlocks,
    /// `n <= k`, leaving no parity.
    NoParityBlocks,
    /// `n > 256`: GF(2^8) supports at most 256 blocks per stripe.
    TooManyBlocks,
    /// Locally-repairable code with a group count that does not divide
    /// `k` or leaves no global parity (see
    /// [`ErasureCode::with_codec`](crate::ErasureCode::with_codec)).
    InvalidLocalGroups,
}

impl std::fmt::Display for CodeParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodeParamsError::ZeroDataBlocks => write!(f, "k must be at least 1"),
            CodeParamsError::NoParityBlocks => write!(f, "n must exceed k"),
            CodeParamsError::TooManyBlocks => write!(f, "n must be at most 256"),
            CodeParamsError::InvalidLocalGroups => write!(
                f,
                "local group count must divide k and leave at least one global parity"
            ),
        }
    }
}

impl std::error::Error for CodeParamsError {}

/// Errors from [`ErasureCode::reconstruct`](crate::ErasureCode::reconstruct)
/// and [`ErasureCode::repair_one`](crate::ErasureCode::repair_one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconstructError {
    /// Fewer than `k` blocks survive; the stripe is unrecoverable.
    TooFewBlocks {
        /// How many blocks were present.
        present: usize,
        /// How many are required (`k`).
        required: usize,
    },
    /// The shard vector length does not equal `n`.
    WrongShardCount {
        /// Provided length.
        got: usize,
        /// Expected `n`.
        expected: usize,
    },
    /// A present shard is longer than the declared stripe width.
    ShardTooLong,
    /// Enough shards are present by count, but their generator rows do
    /// not determine the erased blocks (only possible for a
    /// locally-repairable code, `l > 0`, where which shards survive
    /// matters, not just how many).
    NotRecoverable,
}

impl std::fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconstructError::TooFewBlocks { present, required } => write!(
                f,
                "unrecoverable stripe: {present} blocks present, {required} required"
            ),
            ReconstructError::WrongShardCount { got, expected } => {
                write!(f, "expected {expected} shard slots, got {got}")
            }
            ReconstructError::ShardTooLong => {
                write!(f, "a shard exceeds the declared stripe width")
            }
            ReconstructError::NotRecoverable => {
                write!(f, "surviving shards do not determine the erased blocks")
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecKind;
    use crate::lrc::ErasureCode;

    fn sample_data(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| (j as u8).wrapping_mul(31).wrapping_add(i as u8 ^ seed))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bad_params_rejected() {
        assert_eq!(
            ErasureCode::new(9, 0, 0).unwrap_err(),
            CodeParamsError::ZeroDataBlocks
        );
        assert_eq!(
            ErasureCode::new(6, 6, 0).unwrap_err(),
            CodeParamsError::NoParityBlocks
        );
        assert_eq!(
            ErasureCode::new(5, 6, 0).unwrap_err(),
            CodeParamsError::NoParityBlocks
        );
        assert_eq!(
            ErasureCode::new(257, 6, 0).unwrap_err(),
            CodeParamsError::TooManyBlocks
        );
        assert!(ErasureCode::new(9, 6, 0).is_ok());
    }

    #[test]
    fn encode_produces_expected_counts() {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let data = sample_data(6, 100, 1);
        let parity = rs.encode(&data);
        assert_eq!(parity.len(), 3);
        assert!(parity.iter().all(|p| p.len() == 100));
        assert_eq!(rs.optimal_overhead(), 0.5);
    }

    #[test]
    fn verify_accepts_encoded_stripe() {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let data = sample_data(6, 64, 7);
        let parity = rs.encode(&data);
        let shards: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
        assert!(rs.verify(&shards));
    }

    #[test]
    fn verify_rejects_corruption() {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let data = sample_data(6, 64, 7);
        let parity = rs.encode(&data);
        let mut shards: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
        shards[3][10] ^= 0x01;
        assert!(!rs.verify(&shards));
    }

    #[test]
    fn reconstruct_any_three_losses() {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let data = sample_data(6, 48, 3);
        let parity = rs.encode(&data);
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        // Exhaust all 3-subsets of 9.
        for a in 0..9 {
            for b in (a + 1)..9 {
                for c in (b + 1)..9 {
                    let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                    shards[a] = None;
                    shards[b] = None;
                    shards[c] = None;
                    rs.reconstruct(&mut shards, 48).unwrap();
                    for (i, s) in shards.iter().enumerate() {
                        assert_eq!(s.as_deref(), Some(&full[i][..]), "shard {i} ({a},{b},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn reconstruct_fails_with_too_few() {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let data = sample_data(6, 16, 0);
        let parity = rs.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        for s in shards.iter_mut().take(4) {
            *s = None;
        }
        assert!(matches!(
            rs.reconstruct(&mut shards, 16),
            Err(ReconstructError::TooFewBlocks {
                present: 5,
                required: 6
            })
        ));
    }

    #[test]
    fn variable_length_stripe_roundtrip() {
        // The core Fusion property: blocks of unequal size, parity sized to
        // the largest, short blocks recovered after truncation.
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let lens = [100usize, 7, 64, 0, 99, 100];
        let data: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| (0..l).map(|j| (i * 37 + j * 11) as u8).collect())
            .collect();
        let parity = rs.encode(&data);
        assert!(parity.iter().all(|p| p.len() == 100));

        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        // Lose two short data blocks and one parity.
        shards[1] = None;
        shards[3] = None;
        shards[8] = None;
        rs.reconstruct(&mut shards, 100).unwrap();
        for (i, &l) in lens.iter().enumerate() {
            let got = shards[i].as_ref().unwrap();
            assert_eq!(&got[..l], &data[i][..], "data block {i}");
            assert!(got[l..].iter().all(|&b| b == 0), "padding of block {i}");
        }
    }

    #[test]
    fn reconstruct_noop_when_complete() {
        let rs = ErasureCode::new(5, 3, 0).unwrap();
        let data = sample_data(3, 10, 9);
        let parity = rs.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .clone()
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        let before = shards.clone();
        rs.reconstruct(&mut shards, 10).unwrap();
        assert_eq!(shards, before);
    }

    #[test]
    fn wrong_shard_count_detected() {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = vec![Some(vec![0; 4]); 8];
        assert!(matches!(
            rs.reconstruct(&mut shards, 4),
            Err(ReconstructError::WrongShardCount {
                got: 8,
                expected: 9
            })
        ));
    }

    #[test]
    fn shard_longer_than_width_detected() {
        let rs = ErasureCode::new(5, 3, 0).unwrap();
        let data = sample_data(3, 10, 2);
        let parity = rs.encode(&data);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[4] = None;
        assert_eq!(
            rs.reconstruct(&mut shards, 5),
            Err(ReconstructError::ShardTooLong)
        );
    }

    #[test]
    fn rs_14_10_roundtrip() {
        let rs = ErasureCode::new(14, 10, 0).unwrap();
        let data = sample_data(10, 33, 5);
        let parity = rs.encode(&data);
        let full: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
        let mut shards: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
        for i in [0, 4, 9, 12] {
            shards[i] = None;
        }
        rs.reconstruct(&mut shards, 33).unwrap();
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.as_deref(), Some(&full[i][..]), "shard {i}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(ErasureCode::new(9, 6, 0).unwrap().to_string(), "RS(9, 6)");
    }

    #[test]
    fn zero_width_stripe() {
        let rs = ErasureCode::new(4, 2, 0).unwrap();
        let parity = rs.encode(&[vec![], vec![]]);
        assert!(parity.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn default_codec_is_fast_and_scalar_selectable() {
        assert_eq!(
            ErasureCode::new(9, 6, 0).unwrap().codec_kind(),
            CodecKind::Fast
        );
        let rs = ErasureCode::with_codec(9, 6, 0, CodecKind::Scalar).unwrap();
        assert_eq!(rs.codec_kind(), CodecKind::Scalar);
        // Cloning shares the codec instance (and its table cache).
        assert_eq!(rs.clone().codec_kind(), CodecKind::Scalar);
    }

    #[test]
    fn encode_into_agrees_with_encode() {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let data = sample_data(6, 100, 4);
        let fresh = rs.encode(&data);

        let mut reused = Vec::new();
        rs.encode_into(&data, &mut reused);
        assert_eq!(reused, fresh);

        // Reuse with dirty, wrongly-sized buffers: a longer previous stripe
        // (stale bytes must be cleared) and too many vectors.
        let data2 = sample_data(6, 33, 9);
        reused.push(vec![0xFF; 500]);
        for p in reused.iter_mut() {
            p.resize(200, 0xEE);
        }
        rs.encode_into(&data2, &mut reused);
        assert_eq!(reused, rs.encode(&data2));

        // And growing again after a shorter stripe.
        rs.encode_into(&data, &mut reused);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn encode_into_reuses_capacity() {
        let rs = ErasureCode::new(9, 6, 0).unwrap();
        let mut parity = Vec::new();
        rs.encode_into(&sample_data(6, 256, 1), &mut parity);
        let ptrs: Vec<*const u8> = parity.iter().map(|p| p.as_ptr()).collect();
        rs.encode_into(&sample_data(6, 100, 2), &mut parity);
        let after: Vec<*const u8> = parity.iter().map(|p| p.as_ptr()).collect();
        assert_eq!(ptrs, after, "smaller stripe must not reallocate parity");
    }

    #[test]
    fn scalar_and_fast_agree_end_to_end() {
        let data = sample_data(6, 97, 8);
        let scalar = ErasureCode::with_codec(9, 6, 0, CodecKind::Scalar).unwrap();
        let fast = ErasureCode::with_codec(9, 6, 0, CodecKind::Fast).unwrap();
        assert_eq!(scalar.encode(&data), fast.encode(&data));
    }
}
