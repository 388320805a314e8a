//! Split-nibble GF(2^8) multiplication kernels.
//!
//! The scalar reference path ([`crate::gf::mul_acc`]) multiplies through a
//! 256-entry product table built per call — one dependent load per byte.
//! The kernels here use the ISA-L table layout instead: each coefficient
//! `c` gets **two 16-entry tables**, one holding `c · low_nibble` products
//! and one holding `c · (high_nibble << 4)` products, so that
//!
//! ```text
//! c · b  =  lo[b & 0x0F]  ^  hi[b >> 4]
//! ```
//!
//! The 16-entry tables fit in a single SIMD register, which turns the
//! per-byte table lookup into a 32-lane byte shuffle on AVX2 (16-lane on
//! SSSE3). The portable fallback processes 8-byte blocks with unrolled
//! lookups and a single 64-bit XOR accumulation per block.
//!
//! Kernels are verified byte-for-byte against the log/exp scalar path for
//! all 256×256 (coefficient, byte) pairs and for unaligned tails — see the
//! tests below and `tests/codec_diff.rs`.

use crate::gf::Gf256;

/// Split-nibble product tables for one fixed coefficient.
///
/// 32 bytes per coefficient; building one costs 32 field
/// multiplications, amortized over entire shards by the codec layer
/// ([`crate::codec::FastCodec`] caches all 256 of them — 8 KiB, L1-resident).
#[derive(Debug, Clone, Copy)]
pub struct NibbleTable {
    /// `lo[i] = c · i` for `i` in `0..16`.
    lo: [u8; 16],
    /// `hi[i] = c · (i << 4)` for `i` in `0..16`.
    hi: [u8; 16],
}

impl NibbleTable {
    /// Builds the two 16-entry tables for coefficient `c`.
    pub fn new(c: Gf256) -> NibbleTable {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for i in 0..16u8 {
            lo[i as usize] = (c * Gf256(i)).value();
            hi[i as usize] = (c * Gf256(i << 4)).value();
        }
        NibbleTable { lo, hi }
    }

    /// Multiplies a single byte by the table's coefficient.
    #[inline(always)]
    pub fn mul(&self, b: u8) -> u8 {
        self.lo[(b & 0x0F) as usize] ^ self.hi[(b >> 4) as usize]
    }

    /// `acc[i] ^= c · data[i]` over the common prefix of the two slices
    /// (the tail of the longer slice is untouched, matching the implicit
    /// zero-padding semantics of variable-length stripes).
    pub fn mul_acc(&self, acc: &mut [u8], data: &[u8]) {
        let n = acc.len().min(data.len());
        let (acc, data) = (&mut acc[..n], &data[..n]);
        #[cfg(target_arch = "x86_64")]
        if n >= 32 && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { self.mul_acc_avx2(acc, data) };
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if n >= 16 && std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: SSSE3 support was just verified at runtime.
            unsafe { self.mul_acc_ssse3(acc, data) };
            return;
        }
        self.mul_acc_blocks(acc, data);
    }

    /// Portable kernel: 8-byte blocks, unrolled lookups, one 64-bit XOR
    /// store per block. Slices must be equal length.
    fn mul_acc_blocks(&self, acc: &mut [u8], data: &[u8]) {
        debug_assert_eq!(acc.len(), data.len());
        let mut ac = acc.chunks_exact_mut(8);
        let mut dc = data.chunks_exact(8);
        for (a, d) in ac.by_ref().zip(dc.by_ref()) {
            let prod = [
                self.mul(d[0]),
                self.mul(d[1]),
                self.mul(d[2]),
                self.mul(d[3]),
                self.mul(d[4]),
                self.mul(d[5]),
                self.mul(d[6]),
                self.mul(d[7]),
            ];
            let a8: &mut [u8; 8] = a.try_into().expect("exact 8-byte chunk");
            let x = u64::from_ne_bytes(*a8) ^ u64::from_ne_bytes(prod);
            *a8 = x.to_ne_bytes();
        }
        for (a, d) in ac.into_remainder().iter_mut().zip(dc.remainder()) {
            *a ^= self.mul(*d);
        }
    }

    /// AVX2 kernel: 32 bytes per iteration via two `vpshufb` lookups.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available and `acc.len() == data.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn mul_acc_avx2(&self, acc: &mut [u8], data: &[u8]) {
        use std::arch::x86_64::*;
        debug_assert_eq!(acc.len(), data.len());
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(self.lo.as_ptr() as *const __m128i));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(self.hi.as_ptr() as *const __m128i));
        let mask = _mm256_set1_epi8(0x0F);
        let n = acc.len();
        let mut i = 0;
        while i + 32 <= n {
            let d = _mm256_loadu_si256(data.as_ptr().add(i) as *const __m256i);
            let a = _mm256_loadu_si256(acc.as_ptr().add(i) as *const __m256i);
            // Per-byte `>> 4` = 64-bit shift then byte mask (shifted-in
            // neighbor bits are cleared by the mask).
            let dl = _mm256_and_si256(d, mask);
            let dh = _mm256_and_si256(_mm256_srli_epi64::<4>(d), mask);
            let p = _mm256_xor_si256(_mm256_shuffle_epi8(lo, dl), _mm256_shuffle_epi8(hi, dh));
            _mm256_storeu_si256(
                acc.as_mut_ptr().add(i) as *mut __m256i,
                _mm256_xor_si256(a, p),
            );
            i += 32;
        }
        self.mul_acc_blocks(&mut acc[i..], &data[i..]);
    }

    /// SSSE3 kernel: 16 bytes per iteration via two `pshufb` lookups.
    ///
    /// # Safety
    ///
    /// Caller must ensure SSSE3 is available and `acc.len() == data.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_acc_ssse3(&self, acc: &mut [u8], data: &[u8]) {
        use std::arch::x86_64::*;
        debug_assert_eq!(acc.len(), data.len());
        let lo = _mm_loadu_si128(self.lo.as_ptr() as *const __m128i);
        let hi = _mm_loadu_si128(self.hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let n = acc.len();
        let mut i = 0;
        while i + 16 <= n {
            let d = _mm_loadu_si128(data.as_ptr().add(i) as *const __m128i);
            let a = _mm_loadu_si128(acc.as_ptr().add(i) as *const __m128i);
            let dl = _mm_and_si128(d, mask);
            let dh = _mm_and_si128(_mm_srli_epi64::<4>(d), mask);
            let p = _mm_xor_si128(_mm_shuffle_epi8(lo, dl), _mm_shuffle_epi8(hi, dh));
            _mm_storeu_si128(acc.as_mut_ptr().add(i) as *mut __m128i, _mm_xor_si128(a, p));
            i += 16;
        }
        self.mul_acc_blocks(&mut acc[i..], &data[i..]);
    }
}

/// `acc[i] ^= data[i]` over the common prefix — the coefficient-one fast
/// path. Processes 8-byte blocks with 64-bit XORs; the compiler
/// autovectorizes this shape well, so no hand SIMD is needed.
pub fn xor_acc(acc: &mut [u8], data: &[u8]) {
    let n = acc.len().min(data.len());
    let (acc, data) = (&mut acc[..n], &data[..n]);
    let mut ac = acc.chunks_exact_mut(8);
    let mut dc = data.chunks_exact(8);
    for (a, d) in ac.by_ref().zip(dc.by_ref()) {
        let a8: &mut [u8; 8] = a.try_into().expect("exact 8-byte chunk");
        let d8: &[u8; 8] = d.try_into().expect("exact 8-byte chunk");
        *a8 = (u64::from_ne_bytes(*a8) ^ u64::from_ne_bytes(*d8)).to_ne_bytes();
    }
    for (a, d) in ac.into_remainder().iter_mut().zip(dc.remainder()) {
        *a ^= d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf;

    /// Satellite: every (coefficient, byte) pair agrees with the log/exp
    /// scalar multiplication — 256×256 exhaustive.
    #[test]
    fn all_pairs_match_log_exp() {
        for c in 0..=255u8 {
            let t = NibbleTable::new(Gf256(c));
            for b in 0..=255u8 {
                assert_eq!(
                    t.mul(b),
                    (Gf256(c) * Gf256(b)).value(),
                    "c={c:#04x} b={b:#04x}"
                );
            }
        }
    }

    /// Lengths straddling every kernel boundary: empty, sub-block tails,
    /// exact SIMD widths, and off-by-one around them.
    const LENS: [usize; 16] = [0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 257];

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn mul_acc_matches_scalar_all_lengths() {
        for c in [0u8, 1, 2, 3, 0x1D, 0x53, 0x80, 0xFF] {
            let t = NibbleTable::new(Gf256(c));
            for &len in &LENS {
                let data = pattern(len, c);
                let mut fast = pattern(len, 0xA5);
                let mut scalar = fast.clone();
                t.mul_acc(&mut fast, &data);
                gf::mul_acc(&mut scalar, &data, Gf256(c));
                assert_eq!(fast, scalar, "c={c} len={len}");
            }
        }
    }

    /// Unaligned starts: slices offset from the allocation base exercise
    /// the unaligned SIMD loads and the sub-block tail handling together.
    #[test]
    fn unaligned_slices_and_short_tails() {
        let t = NibbleTable::new(Gf256(0x6B));
        for off in 0..9 {
            for &len in &[0usize, 1, 5, 16, 33, 100] {
                let data = pattern(off + len, 3);
                let mut fast = pattern(off + len, 0x5A);
                let mut scalar = fast.clone();
                t.mul_acc(&mut fast[off..], &data[off..]);
                gf::mul_acc(&mut scalar[off..], &data[off..], Gf256(0x6B));
                assert_eq!(fast, scalar, "off={off} len={len}");
            }
        }
    }

    /// `acc` longer than `data`: the tail past `data.len()` is untouched
    /// (implicit zero padding semantics).
    #[test]
    fn longer_acc_tail_untouched() {
        let t = NibbleTable::new(Gf256(7));
        let data = pattern(40, 1);
        let mut acc = vec![0x11u8; 100];
        t.mul_acc(&mut acc, &data);
        assert!(acc[40..].iter().all(|&b| b == 0x11));
        let mut expect = vec![0x11u8; 40];
        gf::mul_acc(&mut expect, &data, Gf256(7));
        assert_eq!(&acc[..40], &expect[..]);
    }

    #[test]
    fn xor_acc_is_coefficient_one() {
        for &len in &LENS {
            let data = pattern(len, 2);
            let mut a = pattern(len, 0x77);
            let mut b = a.clone();
            xor_acc(&mut a, &data);
            gf::mul_acc(&mut b, &data, Gf256(1));
            assert_eq!(a, b, "len={len}");
        }
    }
}
