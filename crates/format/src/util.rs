//! Small shared utilities: CRC-32 checksums and a checked byte cursor.

use crate::error::{FormatError, Result};

/// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-16: each step
/// folds 16 input bytes through 16 lookup tables, so the loop carries one
/// table-lookup dependency per 16 bytes instead of one per byte.
/// Bit-identical to [`crc32_reference`].
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
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
    !c
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
        for f in [crc32, crc32_reference] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
        }
    }

    #[test]
    fn crc32_matches_reference_at_every_short_length_and_offset() {
        // Every split of a 16-byte block into body and tail, at every
        // alignment of the slice start.
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 167 + 13) as u8).collect();
        for start in 0..16 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start} len {len}");
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
