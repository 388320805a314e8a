//! The filter kernel's literal loop: a dictionary predicate's results,
//! held as a bit table over every code the view's code width can hold,
//! applied to literal codes one 64-row bitmap word at a time.
//!
//! u8 codes take an AVX2 path when the CPU has it (detected at run time,
//! as `fusion-ec`'s GF kernels and `fusion-format`'s CRC fold are): each
//! group of 8 codes picks its table word with `vpermd` and its bit with
//! `vpsrlvd`, and `movemask` packs the group's 8 bits, so a batch of 64
//! codes is 8 such steps and one word. The portable table loop is the
//! fallback and the oracle the vector path is tested against; u16 codes
//! always take it.

use crate::bitmap::or_bits;
use fusion_format::encoding::bitpack::Code;

/// The loop [`crate::eval::eval_filter_encoded_with`] runs over u8
/// literal codes. A value that selects the AVX2 path exists only on a
/// CPU that has AVX2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiteralPath {
    avx2: bool,
}

impl LiteralPath {
    /// The portable table loop.
    pub const PORTABLE: LiteralPath = LiteralPath { avx2: false };

    /// The AVX2 path, or `None` when this CPU lacks AVX2.
    pub fn avx2() -> Option<LiteralPath> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(LiteralPath { avx2: true });
        }
        None
    }

    /// The fastest path this CPU runs: AVX2 when it has it.
    pub fn detect() -> LiteralPath {
        LiteralPath::avx2().unwrap_or(LiteralPath::PORTABLE)
    }
}

/// A predicate's result for every code below `64 · N`, one bit per code:
/// bit `c` is set when dictionary entry `c` matches, and codes past the
/// dictionary never do. `N = 4` covers every u8 code and `N = 1024`
/// every u16 code, so a code of that width indexes it unchecked.
pub(crate) struct MatchTable<const N: usize>([u64; N]);

impl<const N: usize> MatchTable<N> {
    /// The table that starts with `dict_bits`, the words of a bitmap over
    /// the dictionary's entries.
    ///
    /// # Panics
    ///
    /// Panics if `dict_bits` has more than `N` words.
    pub(crate) fn new(dict_bits: &[u64]) -> MatchTable<N> {
        let mut table = [0; N];
        table[..dict_bits.len()].copy_from_slice(dict_bits);
        MatchTable(table)
    }

    /// Whether code `code` matches.
    #[inline(always)]
    pub(crate) fn matches(&self, code: usize) -> bool {
        self.0[code / 64] >> (code % 64) & 1 == 1
    }

    /// ORs the match bit of each of `codes` into `words`, the first at
    /// bit `pos`: each batch of 64 codes lands as one word. The portable
    /// path, and the oracle of [`MatchTable::or_literal_u8`].
    pub(crate) fn or_literal<C: Code>(&self, codes: &[C], words: &mut [u64], pos: usize) {
        for (k, batch) in codes.chunks(64).enumerate() {
            let mut acc = 0u64;
            for (bit, &c) in batch.iter().enumerate() {
                acc |= u64::from(self.matches(c.index())) << bit;
            }
            or_bits(words, pos + 64 * k, acc, batch.len());
        }
    }
}

impl MatchTable<4> {
    /// [`MatchTable::or_literal`] over u8 codes, on `path`.
    pub(crate) fn or_literal_u8(
        &self,
        path: LiteralPath,
        codes: &[u8],
        words: &mut [u64],
        pos: usize,
    ) {
        #[cfg(target_arch = "x86_64")]
        if path.avx2 {
            // SAFETY: only `LiteralPath::avx2` sets `avx2`, after run-time
            // detection found AVX2 on this CPU.
            unsafe { self.or_literal_u8_avx2(codes, words, pos) };
            return;
        }
        self.or_literal(codes, words, pos);
    }

    /// The AVX2 body of [`MatchTable::or_literal_u8`]: whole batches of
    /// 64 codes in vector registers, the last `len % 64` codes through
    /// the portable loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn or_literal_u8_avx2(&self, codes: &[u8], words: &mut [u64], pos: usize) {
        use std::arch::x86_64::*;
        // The table transposed: lane `c % 8` holds code `c`'s bit at bit
        // `c / 8`. `vpermd` reads only the low 3 bits of each 32-bit code,
        // so it picks the lane from the code itself, and `vpsrlvd` by
        // `c / 8` brings the bit to bit 0.
        let mut lanes = [0u32; 8];
        for c in 0..256 {
            lanes[c % 8] |= u32::from(self.matches(c)) << (c / 8);
        }
        // `lanes` is exactly the 32 bytes the unaligned load reads.
        let table = _mm256_loadu_si256(lanes.as_ptr().cast());
        let mut batches = codes.chunks_exact(64);
        for (k, batch) in batches.by_ref().enumerate() {
            let mut acc = 0u64;
            for (g, group) in batch.chunks_exact(8).enumerate() {
                // `group` holds exactly the 8 bytes `_mm_loadl_epi64` reads.
                let c = _mm256_cvtepu8_epi32(_mm_loadl_epi64(group.as_ptr().cast()));
                let word = _mm256_permutevar8x32_epi32(table, c);
                let bit = _mm256_srlv_epi32(word, _mm256_srli_epi32::<3>(c));
                let sign = _mm256_castsi256_ps(_mm256_slli_epi32::<31>(bit));
                acc |= u64::from(_mm256_movemask_ps(sign) as u8) << (8 * g);
            }
            or_bits(words, pos + 64 * k, acc, 64);
        }
        let done = codes.len() - batches.remainder().len();
        self.or_literal(batches.remainder(), words, pos + done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (splitmix64).
    fn bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// `codes`' match bits ORed into 5 words pre-filled with a pattern,
    /// the first bit at `pos`.
    fn scan(codes: &[u8], pos: usize, or: impl Fn(&[u8], &mut [u64], usize)) -> Vec<u64> {
        let mut words = vec![0x0100_0000_0000_0010; 5];
        or(codes, &mut words, pos);
        words
    }

    #[test]
    fn u8_paths_match_per_code_lookups_on_every_span_and_offset() {
        let avx2 = LiteralPath::avx2();
        if avx2.is_none() {
            eprintln!("no AVX2 on this CPU: checking the portable path alone");
        }
        for (t, dict_bits) in [
            [0u64; 4],
            [u64::MAX; 4],
            [0x8000_0000_0000_0001, 0, 0, 1 << 63],
            [
                0xDEAD_BEEF_F00D_CAFE,
                0x0123_4567_89AB_CDEF,
                7,
                0xFFFF_0000_FFFF_0000,
            ],
        ]
        .iter()
        .enumerate()
        {
            let table = MatchTable::<4>::new(dict_bits);
            for len in 1..=200 {
                let codes = bytes(len as u64 * 31 + t as u64, len);
                for pos in 0..64 {
                    let mut want = scan(&codes, pos, |_, _, _| {});
                    for (i, &c) in codes.iter().enumerate() {
                        if dict_bits[c as usize / 64] >> (c % 64) & 1 == 1 {
                            want[(pos + i) / 64] |= 1 << ((pos + i) % 64);
                        }
                    }
                    let portable = scan(&codes, pos, |c, w, p| {
                        table.or_literal_u8(LiteralPath::PORTABLE, c, w, p)
                    });
                    assert_eq!(portable, want, "table {t}, {len} codes at bit {pos}");
                    if let Some(avx2) = avx2 {
                        let vector =
                            scan(&codes, pos, |c, w, p| table.or_literal_u8(avx2, c, w, p));
                        assert_eq!(vector, want, "AVX2, table {t}, {len} codes at bit {pos}");
                    }
                }
            }
        }
    }

    #[test]
    fn u16_tables_cover_every_code() {
        let mut dict_bits = vec![0u64; 1024];
        dict_bits[1023] = 1 << 63;
        dict_bits[0] = 1;
        let table = MatchTable::<1024>::new(&dict_bits);
        let codes = [0u16, 1, u16::MAX, 64, u16::MAX - 1];
        let mut words = vec![0u64; 1];
        table.or_literal(&codes, &mut words, 3);
        assert_eq!(words[0], 0b101 << 3);
    }
}
