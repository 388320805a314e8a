#![warn(missing_docs)]

//! # fusion-snappy
//!
//! A from-scratch implementation of the [Snappy] raw block format — the
//! compression codec Parquet applies to column-chunk pages and the codec
//! Fusion uses to compress filter bitmaps before shipping them to the
//! coordinator (paper §5).
//!
//! Snappy is an LZ77-family byte-oriented codec that trades ratio for
//! speed: a stream is a varint-encoded uncompressed length followed by a
//! sequence of *literal* and *copy* elements.
//!
//! Two codecs share the wire format:
//!
//! * the default **fast** codec ([`compress`], [`decompress`],
//!   [`decompress_into`]) — a persistent-hash-table compressor with
//!   64-bit match probing and a decompressor whose element loop loads
//!   the next tag before it decodes the current element and moves short
//!   literals and copies 16 bytes at a time (see
//!   [`compress`][mod@crate::compress] and
//!   [`decompress`][mod@crate::decompress] module docs);
//! * the [`reference`] codec — the original safe-but-scalar
//!   byte-at-a-time implementation, preserved as the differential oracle
//!   the fast kernels are tested against.
//!
//! Both produce streams the other decodes, and both decoders reject the
//! same malformed inputs.
//!
//! [Snappy]: https://github.com/google/snappy/blob/main/format_description.txt
//!
//! ## Quickstart
//!
//! ```
//! let input = b"an analytics object store optimized for query pushdown ".repeat(8);
//! let compressed = fusion_snappy::compress(&input);
//! assert!(compressed.len() < input.len());
//! assert_eq!(fusion_snappy::decompress(&compressed)?, input);
//!
//! // Zero-alloc pipeline: decode into a caller-owned scratch buffer.
//! let mut scratch = Vec::new();
//! fusion_snappy::decompress_into(&compressed, &mut scratch)?;
//! assert_eq!(scratch, input);
//! # Ok::<(), fusion_snappy::DecompressError>(())
//! ```

pub mod compress;
pub mod decompress;
pub mod reference;
pub mod varint;

pub use compress::Encoder;
pub use decompress::{decompress, decompress_into, decompress_len};

use varint::read_uvarint;

/// Elements within a block are emitted per ≤64 KiB fragment, matching the
/// reference implementation's working-set bound.
pub(crate) const FRAGMENT: usize = 65536;

/// Tag low bits.
pub(crate) const TAG_LITERAL: u8 = 0b00;
pub(crate) const TAG_COPY1: u8 = 0b01;
pub(crate) const TAG_COPY2: u8 = 0b10;
pub(crate) const TAG_COPY4: u8 = 0b11;

/// Errors produced by [`decompress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// The stream ended before the declared uncompressed length was produced.
    Truncated,
    /// The length header is not a valid varint or exceeds 2^32−1.
    BadHeader,
    /// The declared uncompressed length exceeds what the remaining input
    /// bytes could possibly expand to (the densest element, a 3-byte
    /// copy, produces at most 64 output bytes), so the header is hostile
    /// or corrupt. Rejected before any allocation.
    ImplausibleLength,
    /// A copy element referenced bytes before the start of the output.
    OffsetTooFar,
    /// A copy element had offset zero.
    ZeroOffset,
    /// The stream decoded to more bytes than the header declared.
    TooLong,
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            DecompressError::Truncated => "compressed stream is truncated",
            DecompressError::BadHeader => "invalid length header",
            DecompressError::ImplausibleLength => {
                "declared length exceeds any possible expansion of the input"
            }
            DecompressError::OffsetTooFar => "copy offset precedes start of output",
            DecompressError::ZeroOffset => "copy offset of zero",
            DecompressError::TooLong => "stream decodes past its declared length",
        };
        write!(f, "{msg}")
    }
}

impl std::error::Error for DecompressError {}

/// Returns an upper bound on the compressed size of `len` input bytes,
/// useful for pre-allocating output buffers.
///
/// Mirrors the reference formula: `32 + len + len/6`.
pub fn max_compressed_len(len: usize) -> usize {
    32 + len + len / 6
}

/// Parses and validates the stream header, returning
/// `(uncompressed_len, header_len)`.
///
/// Beyond varint validity, the declared length is checked against the
/// maximum expansion the remaining bytes could produce — a 3-byte copy
/// element emits at most 64 bytes, so `body_len / 3 × 64 + 11` bounds any
/// valid stream. A hostile ≤5-byte input declaring a 4 GiB length is
/// rejected here, before the decoder allocates anything.
pub(crate) fn parse_len(input: &[u8]) -> Result<(usize, usize), DecompressError> {
    let (expected, header) = read_uvarint(input).ok_or(DecompressError::BadHeader)?;
    if expected > u32::MAX as u64 {
        return Err(DecompressError::BadHeader);
    }
    let expected = expected as usize;
    let body = input.len() - header;
    let plausible = body / 3 * 64 + 11;
    if expected > plausible {
        return Err(DecompressError::ImplausibleLength);
    }
    Ok((expected, header))
}

/// Emits a literal element (tag + raw bytes).
pub(crate) fn emit_literal(lit: &[u8], out: &mut Vec<u8>) {
    if lit.is_empty() {
        return;
    }
    let n = lit.len() - 1;
    if n < 60 {
        out.push(((n as u8) << 2) | TAG_LITERAL);
    } else if n < (1 << 8) {
        out.push((60 << 2) | TAG_LITERAL);
        out.push(n as u8);
    } else if n < (1 << 16) {
        out.push((61 << 2) | TAG_LITERAL);
        out.extend_from_slice(&(n as u16).to_le_bytes());
    } else if n < (1 << 24) {
        out.push((62 << 2) | TAG_LITERAL);
        out.extend_from_slice(&(n as u32).to_le_bytes()[..3]);
    } else {
        out.push((63 << 2) | TAG_LITERAL);
        out.extend_from_slice(&(n as u32).to_le_bytes());
    }
    out.extend_from_slice(lit);
}

/// Emits a copy element, splitting long copies into ≤64-byte pieces as the
/// format requires.
pub(crate) fn emit_copy(offset: usize, mut len: usize, out: &mut Vec<u8>) {
    debug_assert!(offset > 0);
    // Long matches: emit 64-byte pieces while more than 68 remain so the
    // final two pieces both stay within the 4..=64 range.
    while len >= 68 {
        emit_copy_piece(offset, 64, out);
        len -= 64;
    }
    if len > 64 {
        emit_copy_piece(offset, 60, out);
        len -= 60;
    }
    emit_copy_piece(offset, len, out);
}

fn emit_copy_piece(offset: usize, len: usize, out: &mut Vec<u8>) {
    debug_assert!((4..=64).contains(&len));
    if len <= 11 && offset < 2048 {
        // Copy with 1-byte offset: 3-bit length (len-4), 11-bit offset.
        out.push(TAG_COPY1 | (((len - 4) as u8) << 2) | ((((offset >> 8) as u8) & 0b111) << 5));
        out.push(offset as u8);
    } else if offset < (1 << 16) {
        out.push(TAG_COPY2 | (((len - 1) as u8) << 2));
        out.extend_from_slice(&(offset as u16).to_le_bytes());
    } else {
        out.push(TAG_COPY4 | (((len - 1) as u8) << 2));
        out.extend_from_slice(&(offset as u32).to_le_bytes());
    }
}

thread_local! {
    static ENCODER: std::cell::RefCell<Encoder> = std::cell::RefCell::new(Encoder::new());
}

/// Compresses `input` into a fresh buffer using the Snappy block format.
///
/// Uses the fast compressor with a thread-local [`Encoder`], so the hash
/// table's memory persists across calls; entries left by earlier calls
/// read as empty, so the output depends only on `input`. Incompressible
/// input degrades gracefully to literal runs (bounded expansion, see
/// [`max_compressed_len`]).
///
/// # Examples
///
/// ```
/// let c = fusion_snappy::compress(b"hello hello hello hello");
/// assert_eq!(fusion_snappy::decompress(&c).unwrap(), b"hello hello hello hello");
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    ENCODER.with(|e| e.borrow_mut().compress(input))
}

/// Convenience: the compression ratio achieved on `input`
/// (`uncompressed / compressed`). Returns 1.0 for empty input.
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    input.len() as f64 / compress(input).len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use varint::write_uvarint;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert!(
            c.len() <= max_compressed_len(data.len()),
            "exceeded max_compressed_len"
        );
        assert_eq!(decompress(&c).expect("decompress"), data);
        // The reference decoder accepts the fast compressor's streams...
        assert_eq!(reference::decompress(&c).expect("reference"), data);
        // ...and the fast decoder accepts the reference compressor's.
        let rc = reference::compress(data);
        assert_eq!(decompress(&rc).expect("fast on reference"), data);
    }

    #[test]
    fn empty_input() {
        let c = compress(b"");
        assert_eq!(c, vec![0u8]); // varint 0, no elements
        assert_eq!(decompress(&c).unwrap(), b"");
    }

    #[test]
    fn tiny_inputs() {
        for n in 1..16usize {
            roundtrip(&vec![0xAAu8; n]);
            let distinct: Vec<u8> = (0..n as u8).collect();
            roundtrip(&distinct);
        }
    }

    #[test]
    fn repetitive_compresses_well() {
        let data = vec![b'x'; 100_000];
        let c = compress(&data);
        assert!(c.len() < data.len() / 15, "ratio too low: {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn text_compresses() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog."
            .to_vec();
        let c = compress(&data);
        assert!(c.len() < data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_bounded_expansion() {
        // Pseudo-random bytes: xorshift.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn crosses_fragment_boundary() {
        let mut data = Vec::new();
        for i in 0..50_000u32 {
            data.extend_from_slice(&(i % 977).to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn literal_length_encodings() {
        // Lengths that exercise the 1-, 2-, and 3-byte literal headers.
        for n in [59usize, 60, 61, 255, 256, 65535, 65536, 70_000] {
            let mut x = 7u32;
            let data: Vec<u8> = (0..n)
                .map(|_| {
                    x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (x >> 24) as u8
                })
                .collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn known_decode_vector() {
        // Hand-assembled stream: len=10, literal "ab", copy offset=2 len=8.
        // "ab" then 8 bytes copied from 2 back -> "ababababab".
        let stream = vec![
            10u8,         // uvarint length 10
            (2 - 1) << 2, // literal, len 2
            b'a',
            b'b',
            TAG_COPY1 | ((8 - 4) << 2), // copy1, len 8, offset high bits 0
            2,                          // offset low byte
        ];
        assert_eq!(decompress(&stream).unwrap(), b"ababababab");
        assert_eq!(reference::decompress(&stream).unwrap(), b"ababababab");
    }

    #[test]
    fn known_encode_of_run() {
        // A long run must produce a tiny stream beginning with the varint.
        let c = compress(&[b'z'; 1000]);
        let (len, _) = varint::read_uvarint(&c).unwrap();
        assert_eq!(len, 1000);
        assert!(c.len() < 80);
    }

    #[test]
    fn error_truncated_literal() {
        let stream = vec![5u8, (4 - 1) << 2, b'a']; // claims 4 literal bytes, has 1
        assert_eq!(decompress(&stream), Err(DecompressError::Truncated));
    }

    #[test]
    fn error_zero_offset() {
        let stream = vec![8u8, (2 - 1) << 2, b'a', b'b', TAG_COPY1 | ((6 - 4) << 2), 0];
        assert_eq!(decompress(&stream), Err(DecompressError::ZeroOffset));
    }

    #[test]
    fn error_offset_too_far() {
        let stream = vec![8u8, (2 - 1) << 2, b'a', b'b', TAG_COPY1 | ((6 - 4) << 2), 9];
        assert_eq!(decompress(&stream), Err(DecompressError::OffsetTooFar));
    }

    #[test]
    fn error_bad_header() {
        assert_eq!(decompress(&[]), Err(DecompressError::BadHeader));
        // varint larger than u32::MAX
        assert_eq!(
            decompress(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]),
            Err(DecompressError::BadHeader)
        );
    }

    #[test]
    fn error_implausible_length() {
        // A 5-byte input declaring ~4 GiB: the old decoder allocated the
        // full declared capacity before reading a single element; now the
        // header is rejected outright, for both codecs.
        let hostile = [0xFE, 0xFF, 0xFF, 0xFF, 0x0F];
        assert_eq!(
            decompress(&hostile),
            Err(DecompressError::ImplausibleLength)
        );
        assert_eq!(
            reference::decompress(&hostile),
            Err(DecompressError::ImplausibleLength)
        );
        assert_eq!(
            decompress_len(&hostile),
            Err(DecompressError::ImplausibleLength)
        );
        // The bound tracks the body size: 3 body bytes can emit 64 bytes
        // (one copy-2 element) but never 65+.
        let mut plausible = vec![];
        write_uvarint(&mut plausible, 64);
        plausible.extend_from_slice(&[0, 0, 0]);
        assert!(decompress_len(&plausible).is_ok());
        let mut implausible = vec![];
        write_uvarint(&mut implausible, 76);
        implausible.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            decompress_len(&implausible),
            Err(DecompressError::ImplausibleLength)
        );
    }

    #[test]
    fn error_declared_length_mismatch() {
        let c = compress(b"hello world hello world");
        // Tamper: declare one more byte than the stream produces.
        let (len, n) = varint::read_uvarint(&c).unwrap();
        let mut fixed = Vec::new();
        write_uvarint(&mut fixed, len + 1);
        fixed.extend_from_slice(&c[n..]);
        assert_eq!(decompress(&fixed), Err(DecompressError::Truncated));
    }

    #[test]
    fn error_too_long() {
        // Declare 1 byte, provide a 2-byte literal.
        let stream = vec![1u8, (2 - 1) << 2, b'a', b'b'];
        assert_eq!(decompress(&stream), Err(DecompressError::TooLong));
    }

    #[test]
    fn overlapping_copy_rle_semantics() {
        // literal 'q', copy offset=1 len=7 -> "qqqqqqqq"
        let stream = vec![8u8, 0 << 2, b'q', TAG_COPY1 | ((7 - 4) << 2), 1];
        assert_eq!(decompress(&stream).unwrap(), b"qqqqqqqq");
        assert_eq!(reference::decompress(&stream).unwrap(), b"qqqqqqqq");
    }

    #[test]
    fn ratio_helper() {
        assert!(ratio(&vec![0u8; 10_000]) > 15.0);
        assert_eq!(ratio(b""), 1.0);
    }

    #[test]
    fn decompress_into_reuses_scratch() {
        let a = compress(b"first page first page first page");
        let b = compress(&vec![7u8; 4096]);
        let mut scratch = Vec::new();
        assert_eq!(decompress_into(&a, &mut scratch).unwrap(), 32);
        assert_eq!(scratch, b"first page first page first page");
        let cap = scratch.capacity();
        assert_eq!(decompress_into(&b, &mut scratch).unwrap(), 4096);
        assert_eq!(scratch, vec![7u8; 4096]);
        // Shrinking back to a smaller page must not reallocate.
        assert_eq!(decompress_into(&a, &mut scratch).unwrap(), 32);
        assert!(scratch.capacity() >= cap.min(4096));
    }

    #[test]
    fn decompress_len_matches_output() {
        for data in [&b""[..], b"abc", &[5u8; 100_000]] {
            let c = compress(data);
            assert_eq!(decompress_len(&c).unwrap(), data.len());
        }
    }

    #[test]
    fn display_messages_nonempty() {
        for e in [
            DecompressError::Truncated,
            DecompressError::BadHeader,
            DecompressError::ImplausibleLength,
            DecompressError::OffsetTooFar,
            DecompressError::ZeroOffset,
            DecompressError::TooLong,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
