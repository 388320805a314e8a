//! Hybrid run-length / bit-packed encoding of `u32` streams, modeled on
//! Parquet's RLE/bit-packing hybrid. Used for dictionary indices, where long
//! runs of the same code (sorted or low-cardinality data) compress to a few
//! bytes.
//!
//! Stream layout: `[width: u8]` then a sequence of runs, each headed by a
//! varint `h`:
//! * `h & 1 == 0`: an **RLE run** — `h >> 1` repetitions of one value,
//!   stored in `ceil(width/8)` bytes.
//! * `h & 1 == 1`: a **literal run** — `h >> 1` values, bit-packed at
//!   `width` bits.

use super::bitpack;
use crate::error::{FormatError, Result};
use crate::util::{put, Cursor};

/// Minimum repetition count worth switching from literal to RLE mode.
const MIN_RLE_RUN: usize = 8;

/// Encodes `values` (each < 2^width for the chosen width) into `out`.
/// The width is derived from the maximum value and written as the first
/// byte.
pub fn encode(values: &[u32], out: &mut Vec<u8>) {
    let width = bitpack::bit_width(values.iter().copied().max().unwrap_or(0));
    out.push(width as u8);
    let value_bytes = width.div_ceil(8) as usize;

    let mut i = 0;
    let mut lit_start = 0;
    while i < values.len() {
        // Measure the run of equal values starting at i.
        let v = values[i];
        let mut j = i + 1;
        while j < values.len() && values[j] == v {
            j += 1;
        }
        let run = j - i;
        if run >= MIN_RLE_RUN {
            flush_literals(&values[lit_start..i], width, out);
            put::uvarint(out, (run as u64) << 1);
            out.extend_from_slice(&v.to_le_bytes()[..value_bytes]);
            lit_start = j;
        }
        i = j;
    }
    flush_literals(&values[lit_start..], width, out);
}

fn flush_literals(lits: &[u32], width: u32, out: &mut Vec<u8>) {
    if lits.is_empty() {
        return;
    }
    put::uvarint(out, ((lits.len() as u64) << 1) | 1);
    bitpack::pack(lits, width, out);
}

/// One run of the hybrid stream, preserved instead of flattened — the
/// structure the encoded-domain scan kernels exploit: an RLE run is one
/// predicate evaluation plus one bitmap span fill, however long it is.
/// A literal run is a span of its stream's flat code buffer
/// ([`Runs::codes`]), so a run is a `Copy` descriptor with no allocation
/// of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// `len` repetitions of `value`.
    Rle {
        /// The repeated value.
        value: u32,
        /// Repetition count.
        len: usize,
    },
    /// `len` bit-packed literal values, unpacked to
    /// `codes[start..start + len]` of the stream's code buffer.
    Literal {
        /// Offset of the first value in the code buffer.
        start: usize,
        /// Number of values.
        len: usize,
    },
}

impl Run {
    /// Number of values this run covers.
    pub fn len(&self) -> usize {
        match *self {
            Run::Rle { len, .. } | Run::Literal { len, .. } => len,
        }
    }

    /// True when the run covers no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An index stream parsed once: its runs, plus one flat buffer holding
/// every literal run's values back to back in stream order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Runs {
    /// The runs, in stream order.
    pub runs: Vec<Run>,
    /// The literal values; each [`Run::Literal`] indexes a span of it.
    pub codes: Vec<u32>,
}

impl Runs {
    /// The stream's values in order: RLE runs repeated, literal spans
    /// copied.
    ///
    /// # Panics
    ///
    /// Panics if a literal span lies outside [`Runs::codes`] (never for
    /// [`decode_runs`] output).
    pub fn expand(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.runs.iter().map(Run::len).sum());
        for &run in &self.runs {
            match run {
                Run::Rle { value, len } => out.extend(std::iter::repeat_n(value, len)),
                Run::Literal { start, len } => {
                    out.extend_from_slice(&self.codes[start..start + len]);
                }
            }
        }
        out
    }
}

/// Decodes exactly `count` values from `input`, preserving the run
/// structure: literal runs unpack with the width-specialized
/// [`bitpack::unpack_into`] straight from `input` (whose later bytes are
/// its slack) into one code buffer, which grows only after a run's
/// packed bytes are known to be present. Flattening the result
/// ([`Runs::expand`]) is [`decode`].
///
/// # Errors
///
/// Fails on truncation or if the stream holds a different number of values.
pub fn decode_runs(input: &[u8], count: usize) -> Result<Runs> {
    let mut c = Cursor::new(input);
    let width = c.u8()? as u32;
    if width > 32 {
        return Err(FormatError::Corrupt(format!("rle width {width} > 32")));
    }
    let value_bytes = width.div_ceil(8) as usize;
    let mut out = Runs::default();
    let mut covered = 0usize;
    while covered < count {
        let h = c.uvarint()?;
        let n = (h >> 1) as usize;
        if h & 1 == 0 {
            let raw = c.bytes(value_bytes)?;
            let mut le = [0u8; 4];
            le[..value_bytes].copy_from_slice(raw);
            let value = u32::from_le_bytes(le);
            if n > count - covered {
                return Err(FormatError::Corrupt("rle run overflows value count".into()));
            }
            out.runs.push(Run::Rle { value, len: n });
        } else {
            if n > count - covered {
                return Err(FormatError::Corrupt(
                    "literal run overflows value count".into(),
                ));
            }
            // Every value of a width-0 stream is 0, so the writer emits a
            // literal run there only for a stream too short to repeat
            // (`MIN_RLE_RUN`); a longer one would grow the code buffer with
            // no bytes behind it.
            if width == 0 && n >= MIN_RLE_RUN {
                return Err(FormatError::Corrupt(format!(
                    "width-0 literal run of {n} values"
                )));
            }
            let start = out.codes.len();
            bitpack::unpack_into(input, c.position(), width, n, &mut out.codes)?;
            c.bytes(bitpack::packed_len(width, n))?;
            out.runs.push(Run::Literal { start, len: n });
        }
        covered += n;
    }
    Ok(out)
}

/// Decodes exactly `count` values from `input`: the expansion of
/// [`decode_runs`], so nothing is reserved before the stream has shown
/// that it holds `count` values.
///
/// # Errors
///
/// Fails on truncation or if the stream holds a different number of values.
pub fn decode(input: &[u8], count: usize) -> Result<Vec<u32>> {
    Ok(decode_runs(input, count)?.expand())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32]) -> usize {
        let mut buf = Vec::new();
        encode(values, &mut buf);
        assert_eq!(decode(&buf, values.len()).unwrap(), values);
        buf.len()
    }

    #[test]
    fn empty_stream() {
        assert_eq!(roundtrip(&[]), 1); // just the width byte
    }

    #[test]
    fn constant_stream_is_tiny() {
        let values = vec![5u32; 10_000];
        let size = roundtrip(&values);
        assert!(size < 10, "constant stream took {size} bytes");
    }

    #[test]
    fn alternating_values_stay_literal() {
        let values: Vec<u32> = (0..1000).map(|i| i % 2).collect();
        let size = roundtrip(&values);
        // 1 bit each + headers; must be well under a byte per value.
        assert!(size < 200, "alternating stream took {size} bytes");
    }

    #[test]
    fn mixed_runs_and_literals() {
        let mut values = Vec::new();
        values.extend(std::iter::repeat_n(7u32, 100));
        values.extend(0..50u32);
        values.extend(std::iter::repeat_n(3u32, 9));
        values.extend([1, 2, 1, 2, 1].iter());
        roundtrip(&values);
    }

    #[test]
    fn short_runs_not_rle() {
        // Runs below MIN_RLE_RUN should still roundtrip via literals.
        let values = [9, 9, 9, 1, 1, 2, 2, 2, 2];
        roundtrip(&values);
    }

    #[test]
    fn large_values() {
        let values: Vec<u32> = (0..100).map(|i| u32::MAX - i).collect();
        roundtrip(&values);
    }

    #[test]
    fn wrong_count_is_error() {
        let mut buf = Vec::new();
        encode(&[1, 2, 3], &mut buf);
        // Asking for more values than the stream has must error, not hang.
        assert!(decode(&buf, 10).is_err());
    }

    #[test]
    fn truncated_is_error() {
        let mut buf = Vec::new();
        encode(&(0..100u32).collect::<Vec<_>>(), &mut buf);
        assert!(decode(&buf[..buf.len() / 2], 100).is_err());
    }

    #[test]
    fn corrupt_width_is_error() {
        assert!(decode(&[60, 2, 0], 1).is_err());
    }

    #[test]
    fn decode_runs_matches_decode() {
        let mut values = Vec::new();
        values.extend(std::iter::repeat_n(7u32, 100));
        values.extend(0..50u32);
        values.extend(std::iter::repeat_n(3u32, 9));
        values.extend([1, 2, 1, 2, 1].iter());
        let mut buf = Vec::new();
        encode(&values, &mut buf);
        let runs = decode_runs(&buf, values.len()).unwrap();
        assert_eq!(runs.expand(), values);
        // The long repetitions must survive as RLE runs, not literals,
        // and the literal spans tile the code buffer in order.
        assert!(runs.runs.contains(&Run::Rle { value: 7, len: 100 }));
        let mut next = 0;
        for run in &runs.runs {
            if let Run::Literal { start, len } = *run {
                assert_eq!(start, next);
                next += len;
            }
        }
        assert_eq!(next, runs.codes.len());
    }

    #[test]
    fn decode_runs_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        encode(&(0..100u32).collect::<Vec<_>>(), &mut buf);
        assert!(decode_runs(&buf[..buf.len() / 2], 100).is_err());
        assert!(decode_runs(&buf, 10).is_err(), "runs overflow small count");
        assert!(decode_runs(&[60, 2, 0], 1).is_err(), "width > 32");
    }

    #[test]
    fn run_len_helpers() {
        assert_eq!(Run::Rle { value: 1, len: 4 }.len(), 4);
        assert_eq!(Run::Literal { start: 3, len: 2 }.len(), 2);
        assert!(Run::Literal { start: 0, len: 0 }.is_empty());
    }
}
