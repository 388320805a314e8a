//! Pluggable GF(2^8) bulk-multiplication codecs.
//!
//! The erasure code's inner loop is `acc[i] ^= c · data[i]` over whole
//! shards. Two implementations are provided:
//!
//! * [`ScalarCodec`] — the original log/exp path ([`crate::gf`]), kept as
//!   the reference implementation for differential testing.
//! * [`FastCodec`] — split-nibble kernels ([`crate::kernel`]) with all 256
//!   coefficient tables precomputed at construction. The full cache is
//!   8 KiB (256 × 32 B), stays L1-resident, and is shared by every encode
//!   row and every decode coefficient of an [`crate::ErasureCode`]
//!   instance — tables are never rebuilt on the hot path.
//!
//! Both codecs implement identical semantics: `mul_acc` touches only the
//! common prefix of `acc` and `data` (the implicit zero-padding rule for
//! variable-length stripes).

use std::sync::Arc;

use crate::gf::{self, Gf256};
use crate::kernel::{xor_acc, NibbleTable};

/// Which codec implementation an [`crate::ErasureCode`] should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// Log/exp scalar reference path.
    Scalar,
    /// Split-nibble kernels with a per-instance coefficient table cache.
    #[default]
    Fast,
}

impl CodecKind {
    /// Stable lowercase name, used in bench labels and result files.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::Scalar => "scalar",
            CodecKind::Fast => "fast",
        }
    }

    /// Instantiates the codec.
    pub fn build(self) -> Arc<dyn Codec> {
        match self {
            CodecKind::Scalar => Arc::new(ScalarCodec),
            CodecKind::Fast => Arc::new(FastCodec::new()),
        }
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Bulk GF(2^8) multiply-accumulate over byte slices.
///
/// Implementations must be `Send + Sync`: one codec instance is shared
/// across the worker threads that encode stripes in parallel.
pub trait Codec: std::fmt::Debug + Send + Sync {
    /// Which [`CodecKind`] this codec implements.
    fn kind(&self) -> CodecKind;

    /// `acc[i] ^= c · data[i]` over the common prefix of the slices; any
    /// tail of the longer slice is left untouched.
    fn mul_acc(&self, acc: &mut [u8], data: &[u8], c: Gf256);
}

/// Reference codec: per-call 256-entry product table, one lookup per byte.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarCodec;

impl Codec for ScalarCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Scalar
    }

    fn mul_acc(&self, acc: &mut [u8], data: &[u8], c: Gf256) {
        let n = acc.len().min(data.len());
        gf::mul_acc(&mut acc[..n], &data[..n], c);
    }
}

/// Optimized codec: split-nibble SIMD/block kernels, every coefficient's
/// table pair built once at construction.
#[derive(Clone)]
pub struct FastCodec {
    /// `tables[c]` = split-nibble tables for coefficient `c`. Boxed so the
    /// codec itself stays pointer-sized inside `Arc<dyn Codec>` clones.
    tables: Box<[NibbleTable; 256]>,
}

impl FastCodec {
    /// Builds all 256 coefficient tables (8 KiB total).
    pub fn new() -> FastCodec {
        let tables: Vec<NibbleTable> = (0..=255u8).map(|c| NibbleTable::new(Gf256(c))).collect();
        FastCodec {
            tables: tables.try_into().expect("exactly 256 coefficient tables"),
        }
    }

    /// The cached table pair for coefficient `c`.
    #[inline]
    pub fn table(&self, c: Gf256) -> &NibbleTable {
        &self.tables[c.value() as usize]
    }
}

impl Default for FastCodec {
    fn default() -> FastCodec {
        FastCodec::new()
    }
}

impl std::fmt::Debug for FastCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // 256 tables of raw bytes are noise; identify the codec only.
        f.debug_struct("FastCodec").finish_non_exhaustive()
    }
}

impl Codec for FastCodec {
    fn kind(&self) -> CodecKind {
        CodecKind::Fast
    }

    fn mul_acc(&self, acc: &mut [u8], data: &[u8], c: Gf256) {
        if c.is_zero() {
            return;
        }
        if c == Gf256::ONE {
            xor_acc(acc, data);
            return;
        }
        self.table(c).mul_acc(acc, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(113).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn kinds_and_names() {
        assert_eq!(CodecKind::default(), CodecKind::Fast);
        assert_eq!(CodecKind::Scalar.name(), "scalar");
        assert_eq!(CodecKind::Fast.to_string(), "fast");
        assert_eq!(CodecKind::Scalar.build().kind(), CodecKind::Scalar);
        assert_eq!(CodecKind::Fast.build().kind(), CodecKind::Fast);
    }

    #[test]
    fn codecs_agree_on_mul_acc() {
        let fast = FastCodec::new();
        let scalar = ScalarCodec;
        for c in 0..=255u8 {
            for &len in &[0usize, 1, 7, 8, 9, 40, 65] {
                let data = pattern(len, c);
                let mut a = pattern(len, 0x3C);
                let mut b = a.clone();
                fast.mul_acc(&mut a, &data, Gf256(c));
                scalar.mul_acc(&mut b, &data, Gf256(c));
                assert_eq!(a, b, "c={c} len={len}");
            }
        }
    }

    #[test]
    fn mul_acc_respects_length_mismatch() {
        // acc longer than data: tail untouched. data longer: extra ignored.
        let fast = FastCodec::new();
        let mut acc = vec![0xEEu8; 10];
        fast.mul_acc(&mut acc, &[1, 2, 3], Gf256(2));
        assert!(acc[3..].iter().all(|&b| b == 0xEE));
        let mut short = vec![0u8; 2];
        fast.mul_acc(&mut short, &[9, 9, 9, 9], Gf256(3));
        let mut expect = vec![0u8; 2];
        ScalarCodec.mul_acc(&mut expect, &[9, 9, 9, 9], Gf256(3));
        assert_eq!(short, expect);
    }
}
