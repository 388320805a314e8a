//! Small shared utilities: CRC-32 checksums and a checked byte cursor.

use crate::error::{FormatError, Result};

/// CRC-32 (IEEE 802.3 polynomial, reflected). Bit-identical to
/// [`crc32_reference`].
///
/// Inputs of 128 bytes or more take a carry-less-multiply fold when the
/// CPU has PCLMULQDQ and SSE4.1 (checked at run time); everything else,
/// and the fold's last `len % 16` bytes, runs slicing-by-16
/// ([`crc32_slicing`]), the portable path.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 128
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: PCLMULQDQ and SSE4.1 support was just verified at run
        // time, and `data` holds at least the 64 bytes the fold loads first.
        return !unsafe { fold_clmul(data) };
    }
    crc32_slicing(data)
}

/// CRC-32 by slicing-by-16 alone: each step folds 16 input bytes through
/// 16 lookup tables, so the loop carries one table-lookup dependency per
/// 16 bytes instead of one per byte. The portable path of [`crc32`].
pub fn crc32_slicing(data: &[u8]) -> u32 {
    !slice16(!0, data)
}

/// Advances the raw (uninverted) CRC state `c` over `data`, 16 bytes per
/// step, then bytewise over the last `len % 16`.
fn slice16(mut c: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let mut w: [u8; 16] = block.try_into().expect("chunks_exact(16) yields 16 bytes");
        for (b, s) in w.iter_mut().zip(c.to_le_bytes()) {
            *b ^= s;
        }
        c = 0;
        for (i, &b) in w.iter().enumerate() {
            c ^= SLICES[15 - i][b as usize];
        }
    }
    for &b in blocks.remainder() {
        c = SLICES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The raw CRC state after `data` (≥ 64 bytes) by carry-less-multiply
/// folding (Gopal et al., "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ Instruction", Intel 2009, bit-reflected form). Four
/// 128-bit lanes fold 64 bytes per step with `x^(512±64) mod P`
/// (K1, K2), merge into one lane that folds 16 bytes per step with
/// `x^(128±64) mod P` (K3, K4), shrink to 64 bits (K4, K5) and finish
/// with a Barrett reduction by `P` and `μ = ⌊x^64 / P⌋`. The last
/// `len % 16` bytes go through [`slice16`].
///
/// # Safety
///
/// The CPU must support PCLMULQDQ and SSE4.1, and `data.len() >= 64`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
unsafe fn fold_clmul(data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;
    debug_assert!(data.len() >= 64);
    let load = |i: usize| _mm_loadu_si128(data[i..i + 16].as_ptr() as *const __m128i);
    // `x · (hi, lo) ⊕ y`: carry-less products of both halves of `x` with
    // the fold constants, folded onto the next 16 bytes.
    let fold = |x: __m128i, y: __m128i, k: __m128i| {
        _mm_xor_si128(
            _mm_xor_si128(y, _mm_clmulepi64_si128::<0x00>(x, k)),
            _mm_clmulepi64_si128::<0x11>(x, k),
        )
    };
    let low32 = _mm_set_epi32(0, 0, 0, -1);

    let mut x = [load(0), load(16), load(32), load(48)];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(-1));
    let mut at = 64;
    let k1k2 = _mm_set_epi64x(K2, K1);
    while data.len() - at >= 64 {
        for (lane, x) in x.iter_mut().enumerate() {
            *x = fold(*x, load(at + 16 * lane), k1k2);
        }
        at += 64;
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut r = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
    while data.len() - at >= 16 {
        r = fold(r, load(at), k3k4);
        at += 16;
    }

    // 128 → 96 → 64 bits.
    let r = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(r, k3k4),
        _mm_srli_si128::<8>(r),
    );
    let r = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(r, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(r),
    );
    // Barrett: T1 = (R mod x^32) · μ, T2 = (T1 mod x^32) · P, and the
    // state is the upper half of R ⊕ T2 (bit-reflected).
    let pmu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(r, low32), pmu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
    let c = _mm_extract_epi32::<1>(_mm_xor_si128(r, t2)) as u32;
    slice16(c, &data[at..])
}

/// `SLICES[0]` is the bytewise CRC table; `SLICES[k][i]` is the CRC state
/// of byte `i` followed by `k` zero bytes, so byte `j` of a 16-byte block
/// (followed by `15 - j` more) indexes `SLICES[15 - j]`.
static SLICES: [[u32; 256]; 16] = slice_tables();

const fn slice_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The bytewise CRC-32: one table lookup per byte over a 256-entry table
/// built on first use. The oracle [`crc32`] is tested against.
pub fn crc32_reference(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A bounds-checked forward reader over a byte slice. All reads return
/// [`FormatError::Truncated`] instead of panicking when data runs out.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Current offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(FormatError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a varint (see [`fusion_snappy::varint`]).
    pub fn uvarint(&mut self) -> Result<u64> {
        let (v, n) = fusion_snappy::varint::read_uvarint(&self.buf[self.pos..])
            .ok_or(FormatError::Truncated)?;
        self.pos += n;
        Ok(v)
    }

    /// Reads a varint count of items that each take at least `min_bytes`
    /// of what follows, so a caller can reserve the count: a count the
    /// remaining bytes cannot back is [`FormatError::Truncated`].
    pub fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.uvarint()?;
        match usize::try_from(n) {
            Ok(n) if n.saturating_mul(min_bytes) <= self.remaining() => Ok(n),
            _ => Err(FormatError::Truncated),
        }
    }

    /// Reads a length-prefixed UTF-8 string (u32 length).
    pub fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let b = self.bytes(n)?;
        String::from_utf8(b.to_vec())
            .map_err(|_| FormatError::Corrupt("invalid utf-8 in string".into()))
    }
}

/// Write helpers mirroring [`Cursor`] reads.
pub mod put {
    /// Appends a little-endian `u32`.
    pub fn u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    pub fn u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i64`.
    pub fn i64(out: &mut Vec<u8>, v: i64) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `f64` (bit pattern).
    pub fn f64(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    /// Appends a varint.
    pub fn uvarint(out: &mut Vec<u8>, v: u64) {
        fusion_snappy::varint::write_uvarint(out, v);
    }
    /// Appends a u32-length-prefixed UTF-8 string.
    pub fn string(out: &mut Vec<u8>, s: &str) {
        u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        for f in [crc32, crc32_slicing, crc32_reference] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
        }
    }

    /// Every length up to 1 KiB at every alignment of the slice start:
    /// each split of a 16-byte block into body and tail, the fold's
    /// 128-byte threshold, 64-byte lane steps with every 16-byte and
    /// sub-16-byte remainder after them.
    fn buf() -> Vec<u8> {
        (0..1040u32)
            .map(|i| ((i * 167 + 13) ^ (i >> 3)) as u8)
            .collect()
    }

    #[test]
    fn crc32_matches_reference_at_every_short_length_and_offset() {
        let buf = buf();
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
            }
        }
    }

    /// The portable path on its own, so it stays covered on CPUs where
    /// [`crc32`] folds every long input.
    #[test]
    fn crc32_slicing_matches_reference_at_every_length_and_offset() {
        let buf = buf();
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(
                    crc32_slicing(s),
                    crc32_reference(s),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn cursor_reads_sequentially() {
        let mut buf = Vec::new();
        put::u32(&mut buf, 7);
        put::i64(&mut buf, -42);
        put::f64(&mut buf, 1.5);
        put::uvarint(&mut buf, 300);
        put::string(&mut buf, "hello");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.i64().unwrap(), -42);
        assert_eq!(c.f64().unwrap(), 1.5);
        assert_eq!(c.uvarint().unwrap(), 300);
        assert_eq!(c.string().unwrap(), "hello");
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn cursor_truncation_is_error() {
        let mut c = Cursor::new(&[1, 2]);
        assert_eq!(c.u32().unwrap_err(), FormatError::Truncated);
        // Failed read must not consume.
        assert_eq!(c.position(), 0);
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_behind_them() {
        let mut buf = Vec::new();
        put::uvarint(&mut buf, 3);
        buf.extend_from_slice(&[0; 6]);
        assert_eq!(Cursor::new(&buf).count(2).unwrap(), 3);
        assert_eq!(
            Cursor::new(&buf).count(3).unwrap_err(),
            FormatError::Truncated
        );
        let mut huge = Vec::new();
        put::uvarint(&mut huge, u64::MAX);
        assert_eq!(Cursor::new(&huge).count(0).unwrap(), usize::MAX);
        assert_eq!(
            Cursor::new(&huge).count(1).unwrap_err(),
            FormatError::Truncated
        );
    }

    #[test]
    fn cursor_bad_utf8() {
        let mut buf = Vec::new();
        put::u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut c = Cursor::new(&buf);
        assert!(matches!(c.string().unwrap_err(), FormatError::Corrupt(_)));
    }
}
