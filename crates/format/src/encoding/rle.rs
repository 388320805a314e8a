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

use super::bitpack::{self, Code};
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

/// RLE runs shorter than this many values, one 64-row bitmap word, are
/// folded into the literal buffer by [`decode_runs`]: a scan kernel pays
/// a dispatch per run, and a run that fills no word saves it nothing.
pub const FOLD_BELOW: usize = 64;

/// One run of a parsed index stream — the structure the encoded-domain
/// scan kernels exploit: an RLE run is one predicate evaluation plus one
/// bitmap span fill, however long it is. A literal run is a span of its
/// stream's flat code buffer ([`Runs::codes`]), so a run is a `Copy`
/// descriptor with no allocation of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run {
    /// `len` repetitions of `value`.
    Rle {
        /// The repeated value.
        value: u32,
        /// Repetition count.
        len: usize,
    },
    /// `len` values at `codes[start..start + len]` of the stream's code
    /// buffer.
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

/// An index stream parsed once: RLE runs of at least [`FOLD_BELOW`]
/// values, and literal spans of one flat buffer holding every other
/// value back to back in stream order, at the buffer's own width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Runs<C> {
    /// The runs, in stream order; no two literal spans are adjacent.
    pub runs: Vec<Run>,
    /// The literal values; each [`Run::Literal`] indexes a span of it.
    pub codes: Vec<C>,
    /// Runs the stream itself holds, before folding.
    pub stream_runs: usize,
    /// Bit-packed values the stream itself holds, before folding.
    pub stream_literals: usize,
}

impl<C: Code> Runs<C> {
    /// The stream's values in order: RLE runs repeated, literal spans
    /// copied.
    ///
    /// # Panics
    ///
    /// Panics if a literal span lies outside [`Runs::codes`] (never for
    /// [`decode_runs`] output).
    pub fn expand(&self) -> Vec<C> {
        let mut out = Vec::with_capacity(self.runs.iter().map(Run::len).sum());
        for &run in &self.runs {
            match run {
                Run::Rle { value, len } => {
                    out.extend(std::iter::repeat_n(C::truncate(value.into()), len))
                }
                Run::Literal { start, len } => {
                    out.extend_from_slice(&self.codes[start..start + len]);
                }
            }
        }
        out
    }

    /// Records that the last `n` values of the code buffer are literal:
    /// they extend the previous run when it is a literal span (which
    /// then ends where they start), else start a new one.
    fn push_literal(&mut self, n: usize) {
        match self.runs.last_mut() {
            _ if n == 0 => {}
            Some(Run::Literal { len, .. }) => *len += n,
            _ => self.runs.push(Run::Literal {
                start: self.codes.len() - n,
                len: n,
            }),
        }
    }
}

/// Decodes exactly `count` values from `input` into runs of `C` codes.
/// An RLE run of [`FOLD_BELOW`] values or more stays a run; a shorter one
/// is written into the code buffer and merged with its literal
/// neighbours. Literal runs unpack with the width-specialized
/// [`bitpack::unpack_into`] straight from `input` (whose later bytes are
/// its slack) into the buffer, which grows only after a run's packed
/// bytes are known to be present. Flattening the result
/// ([`Runs::expand`]) is [`decode`].
///
/// # Errors
///
/// Fails on truncation, if the stream holds a different number of
/// values, if its width exceeds `max_width`, or if an RLE value does not
/// fit that width.
///
/// # Panics
///
/// Panics if `max_width > C::BITS`.
pub fn decode_runs<C: Code>(input: &[u8], count: usize, max_width: u32) -> Result<Runs<C>> {
    assert!(max_width <= C::BITS, "{max_width}-bit codes do not fit");
    let mut c = Cursor::new(input);
    let width = c.u8()? as u32;
    if width > max_width {
        return Err(FormatError::Corrupt(format!(
            "rle width {width} > {max_width}"
        )));
    }
    let value_bytes = width.div_ceil(8) as usize;
    let mut out = Runs::default();
    let mut covered = 0usize;
    while covered < count {
        let h = c.uvarint()?;
        let n = (h >> 1) as usize;
        if n > count - covered {
            return Err(FormatError::Corrupt("run overflows value count".into()));
        }
        if h & 1 == 0 {
            let raw = c.bytes(value_bytes)?;
            let mut le = [0u8; 8];
            le[..value_bytes].copy_from_slice(raw);
            let value = u64::from_le_bytes(le);
            if value >> width != 0 {
                return Err(FormatError::Corrupt(format!(
                    "rle value {value} wider than {width} bits"
                )));
            }
            if n >= FOLD_BELOW {
                out.runs.push(Run::Rle {
                    value: value as u32,
                    len: n,
                });
            } else {
                out.codes.resize(out.codes.len() + n, C::truncate(value));
                out.push_literal(n);
            }
        } else {
            // Every value of a width-0 stream is 0, so the writer emits a
            // literal run there only for a stream too short to repeat
            // (`MIN_RLE_RUN`); a longer one would grow the code buffer with
            // no bytes behind it.
            if width == 0 && n >= MIN_RLE_RUN {
                return Err(FormatError::Corrupt(format!(
                    "width-0 literal run of {n} values"
                )));
            }
            bitpack::unpack_into(input, c.position(), width, n, &mut out.codes)?;
            c.bytes(bitpack::packed_len(width, n))?;
            out.push_literal(n);
            out.stream_literals += n;
        }
        out.stream_runs += 1;
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
    Ok(decode_runs::<u32>(input, count, 32)?.expand())
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
        let runs = decode_runs::<u32>(&buf, values.len(), 32).unwrap();
        assert_eq!(runs.expand(), values);
        // The long repetition survives as an RLE run; the 9-value one,
        // shorter than a bitmap word, joins its literal neighbours; the
        // literal spans tile the code buffer in order.
        assert_eq!(
            runs.runs,
            vec![
                Run::Rle { value: 7, len: 100 },
                Run::Literal { start: 0, len: 64 },
            ]
        );
        assert_eq!((runs.stream_runs, runs.stream_literals), (4, 55));
        // The same stream at u8 width.
        let narrow = decode_runs::<u8>(&buf, values.len(), 8).unwrap();
        assert_eq!(narrow.runs, runs.runs);
        assert!(narrow.codes.iter().map(|&c| u32::from(c)).eq(runs.codes));
    }

    #[test]
    fn decode_runs_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        encode(&(0..100u32).collect::<Vec<_>>(), &mut buf);
        assert!(decode_runs::<u32>(&buf[..buf.len() / 2], 100, 32).is_err());
        assert!(
            decode_runs::<u32>(&buf, 10, 32).is_err(),
            "runs overflow small count"
        );
        assert!(
            decode_runs::<u32>(&[60, 2, 0], 1, 32).is_err(),
            "width > 32"
        );
        // Width 7 streams are refused where at most 6 bits are expected.
        assert!(matches!(
            decode_runs::<u8>(&buf, 100, 6),
            Err(FormatError::Corrupt(_))
        ));
        assert!(decode_runs::<u8>(&buf, 100, 7).is_ok());
        // An RLE value wider than the stream's width.
        let mut wide = vec![2];
        put::uvarint(&mut wide, 70 << 1);
        wide.push(4);
        assert!(matches!(
            decode_runs::<u8>(&wide, 70, 8),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn run_len_helpers() {
        assert_eq!(Run::Rle { value: 1, len: 4 }.len(), 4);
        assert_eq!(Run::Literal { start: 3, len: 2 }.len(), 2);
        assert!(Run::Literal { start: 0, len: 0 }.is_empty());
    }
}
