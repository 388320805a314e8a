//! Predicate and aggregate evaluation over decoded column chunks — the
//! code that actually runs *in situ* on a storage node during pushdown.
//! Every aggregate answers in one state type,
//! [`crate::partial::PartialAgg`]: the decoded GROUP BY kernel hands it
//! rows as `(value, count)` pairs, the encoded one fills it from typed
//! per-code accumulators, and [`eval_aggregate`] is the ungrouped oracle
//! both are tested against.

use crate::ast::AggFunc;
use crate::bitmap::{or_span, Bitmap};
use crate::error::{Result, SqlError};
use crate::kernel::{LiteralPath, MatchTable};
use crate::partial::{mismatch, overflow, GroupKey, GroupedAggs, PartialAgg};
use crate::plan::{AggregateSpec, BoolTree, FilterLeaf};
use fusion_format::chunk::{Codes, EncodedChunk};
use fusion_format::encoding::bitpack::Code;
use fusion_format::encoding::rle::Run;
use fusion_format::schema::LogicalType;
use fusion_format::value::{ColumnData, Value};

/// Builds a bitmap from a typed slice one 64-row word at a time: the
/// predicate results of each 64-row batch are accumulated into a register
/// and stored with a single write, instead of a read-modify-write per bit.
fn scan_words<T, F: Fn(&T) -> bool>(v: &[T], pred: F) -> Bitmap {
    let mut words = vec![0u64; v.len().div_ceil(64)];
    for (w, batch) in words.iter_mut().zip(v.chunks(64)) {
        let mut acc = 0u64;
        for (bit, x) in batch.iter().enumerate() {
            acc |= (pred(x) as u64) << bit;
        }
        *w = acc;
    }
    Bitmap::from_words(v.len(), words)
}

/// Evaluates a single comparison over a decoded chunk, producing one bit
/// per row.
///
/// # Errors
///
/// Type mismatches between the chunk and the (already coerced) constant.
pub fn eval_filter(leaf: &FilterLeaf, col: &ColumnData) -> Result<Bitmap> {
    let op = leaf.op;
    Ok(match (col, &leaf.constant) {
        (ColumnData::Int64(v), Value::Int(c)) => scan_words(v, |x| op.matches(x.cmp(c))),
        (ColumnData::Int64(v), Value::Float(c)) => scan_words(v, |x| {
            (*x as f64)
                .partial_cmp(c)
                .is_some_and(|ord| op.matches(ord))
        }),
        (ColumnData::Float64(v), Value::Float(c)) => {
            scan_words(v, |x| x.partial_cmp(c).is_some_and(|ord| op.matches(ord)))
        }
        (ColumnData::Float64(v), Value::Int(c)) => {
            let c = *c as f64;
            scan_words(v, |x| x.partial_cmp(&c).is_some_and(|ord| op.matches(ord)))
        }
        (ColumnData::Utf8(v), Value::Str(c)) => {
            scan_words(v, |x| op.matches(x.as_str().cmp(c.as_str())))
        }
        (col, c) => {
            return Err(SqlError::TypeError(format!(
                "cannot evaluate {} against {} column",
                c.kind(),
                col.physical_name()
            )))
        }
    })
}

/// Evaluates a comparison in the encoded domain, bit-identical to
/// `decode()`-then-[`eval_filter`] but without materializing rows:
///
/// * **Dictionary** chunks: the predicate runs once per dictionary entry
///   (the dictionary is tiny — at most `MAX_DICT_DISTINCT` values), and
///   its results become a bit table over every code the view's width
///   can hold. Codes are checked against the dictionary once per call,
///   so no per-code lookup is bounds-checked or fallible.
/// * **RLE runs** of codes (each fills at least one bitmap word): one
///   table lookup sets the whole span word-wise.
/// * **Literal spans**: each batch of 64 codes becomes one bitmap word.
///   u8 codes take the AVX2 path when the CPU has it (detected at run
///   time, [`LiteralPath::detect`]), u16 codes the portable table loop.
/// * **Plain** chunks fall back to the word-batched [`eval_filter`].
///
/// # Errors
///
/// Type mismatches, or a code out of range for the dictionary (impossible
/// for views from `read_encoded_chunk`, which validates codes up front).
pub fn eval_filter_encoded(leaf: &FilterLeaf, chunk: &EncodedChunk) -> Result<Bitmap> {
    eval_filter_encoded_with(leaf, chunk, LiteralPath::detect())
}

/// [`eval_filter_encoded`] with u8 literal codes scanned on `path`. Every
/// path gives the same bitmap; the portable one is the oracle.
///
/// # Errors
///
/// The errors of [`eval_filter_encoded`].
pub fn eval_filter_encoded_with(
    leaf: &FilterLeaf,
    chunk: &EncodedChunk,
    path: LiteralPath,
) -> Result<Bitmap> {
    let (dictionary, codes, runs, rows) = match chunk {
        EncodedChunk::Plain(col) => return eval_filter(leaf, col),
        EncodedChunk::Dictionary {
            dictionary,
            codes,
            runs,
            rows,
            ..
        } => (dictionary, codes, runs, *rows),
    };
    let dict_bits = eval_filter(leaf, dictionary)?;
    let mut words = vec![0u64; rows.div_ceil(64)];
    match codes {
        Codes::U8(codes) => {
            check_view(codes, runs, dictionary.len())?;
            let table = MatchTable::<4>::new(dict_bits.words());
            filter_spans(&table, codes, runs, rows, &mut words, |c, w, pos| {
                table.or_literal_u8(path, c, w, pos)
            })?;
        }
        Codes::U16(codes) => {
            check_view(codes, runs, dictionary.len())?;
            let table = MatchTable::<1024>::new(dict_bits.words());
            filter_spans(&table, codes, runs, rows, &mut words, |c, w, pos| {
                table.or_literal(c, w, pos)
            })?;
        }
    }
    Ok(Bitmap::from_words(rows, words))
}

/// The filter kernel's walk of a checked view: an RLE run ORs its span
/// when its code matches, a literal span goes through `or_literal`.
fn filter_spans<C: Code, const N: usize>(
    table: &MatchTable<N>,
    codes: &[C],
    runs: &[Run],
    rows: usize,
    words: &mut [u64],
    or_literal: impl Fn(&[C], &mut [u64], usize),
) -> Result<()> {
    for_each_span(runs, codes, rows, |pos, span| {
        match span {
            Span::Rle(code, len) => {
                if table.matches(code) {
                    or_span(words, pos, len);
                }
            }
            Span::Literal(codes) => or_literal(codes, words, pos),
        }
        Ok(())
    })
}

/// One run of a dictionary view with its literal codes resolved.
#[derive(Clone, Copy)]
enum Span<'a, C> {
    /// `len` rows of one code.
    Rle(usize, usize),
    /// One code per row.
    Literal(&'a [C]),
}

impl<'a, C> Span<'a, C> {
    /// Rows the span covers.
    fn len(&self) -> usize {
        match self {
            Span::Rle(_, len) => *len,
            Span::Literal(codes) => codes.len(),
        }
    }

    /// The `len` rows from the span's row `start` on.
    fn cut(self, start: usize, len: usize) -> Span<'a, C> {
        match self {
            Span::Rle(code, _) => Span::Rle(code, len),
            Span::Literal(codes) => Span::Literal(&codes[start..start + len]),
        }
    }
}

/// Walks a dictionary view's runs in row order, calling `f(first_row,
/// span)` for each, after checking the structure a hand-built view can
/// get wrong: runs that overflow or fall short of `rows`, and literal
/// spans outside `codes`. Codes are checked by [`check_view`].
fn for_each_span<'a, C>(
    runs: &[Run],
    codes: &'a [C],
    rows: usize,
    mut f: impl FnMut(usize, Span<'a, C>) -> Result<()>,
) -> Result<()> {
    let mut pos = 0usize;
    for &run in runs {
        if run.len() > rows - pos {
            return Err(SqlError::Invalid("run structure overflows chunk".into()));
        }
        let span = match run {
            Run::Rle { value, len } => Span::Rle(value as usize, len),
            Run::Literal { start, len } => {
                let span = codes.get(start..).and_then(|c| c.get(..len));
                Span::Literal(span.ok_or_else(|| {
                    SqlError::Invalid("literal span outside the code buffer".into())
                })?)
            }
        };
        f(pos, span)?;
        pos += run.len();
    }
    if pos != rows {
        return Err(SqlError::Invalid(format!(
            "run structure covers {pos} of {rows} rows"
        )));
    }
    Ok(())
}

/// Checks, once per kernel call, that every code of a dictionary view
/// indexes its `dict_len`-entry dictionary — the maximum of the literal
/// buffer (`max` vectorizes) and of the RLE runs' values — and that the
/// dictionary fits the codes' width, so a code indexes a [`MatchTable`]
/// of that width.
fn check_view<C: Code>(codes: &[C], runs: &[Run], dict_len: usize) -> Result<()> {
    if dict_len > 1 << C::BITS {
        return Err(SqlError::Invalid(format!(
            "{dict_len}-entry dictionary for {}-bit codes",
            C::BITS
        )));
    }
    let literal = codes.iter().copied().max().map(C::index);
    let rle = runs
        .iter()
        .filter_map(|run| match *run {
            Run::Rle { value, .. } => Some(value as usize),
            Run::Literal { .. } => None,
        })
        .max();
    match literal.max(rle) {
        Some(code) if code >= dict_len => Err(code_out_of_range(code, dict_len)),
        _ => Ok(()),
    }
}

fn code_out_of_range(code: usize, dict_len: usize) -> SqlError {
    SqlError::Invalid(format!(
        "dictionary code {code} out of range ({dict_len} entries)"
    ))
}

/// Combines per-leaf bitmaps according to the boolean tree. All bitmaps
/// must have equal length (rows of one row group or one object).
///
/// # Errors
///
/// A leaf id with no bitmap.
pub fn combine(tree: &BoolTree, leaves: &[Bitmap]) -> Result<Bitmap> {
    Ok(match tree {
        BoolTree::Leaf(id) => leaves
            .get(*id)
            .cloned()
            .ok_or_else(|| SqlError::Invalid(format!("missing bitmap for leaf {id}")))?,
        BoolTree::And(a, b) => {
            let mut x = combine(a, leaves)?;
            x.and_assign(&combine(b, leaves)?);
            x
        }
        BoolTree::Or(a, b) => {
            let mut x = combine(a, leaves)?;
            x.or_assign(&combine(b, leaves)?);
            x
        }
        BoolTree::Not(e) => {
            let mut x = combine(e, leaves)?;
            x.not_assign();
            x
        }
    })
}

/// Uses chunk min/max statistics to decide whether a comparison can match
/// *any* row of the chunk. Returns `false` only when the chunk provably
/// contains no matching rows — the coordinator then skips it entirely
/// (footer-based pruning, paper §5).
pub fn stats_may_match(leaf: &FilterLeaf, min: Option<&Value>, max: Option<&Value>) -> bool {
    use crate::ast::CmpOp::*;
    let (min, max) = match (min, max) {
        (Some(a), Some(b)) => (a, b),
        _ => return true, // no stats: cannot prune
    };
    let cmp_min = min.partial_cmp_value(&leaf.constant);
    let cmp_max = max.partial_cmp_value(&leaf.constant);
    let (cmp_min, cmp_max) = match (cmp_min, cmp_max) {
        (Some(a), Some(b)) => (a, b),
        _ => return true, // incomparable types: be safe
    };
    use std::cmp::Ordering::*;
    match leaf.op {
        Eq => cmp_min != Greater && cmp_max != Less,
        Ne => !(cmp_min == Equal && cmp_max == Equal),
        Lt => cmp_min == Less,
        Le => cmp_min != Greater,
        Gt => cmp_max == Greater,
        Ge => cmp_max != Less,
    }
}

/// The dual of [`stats_may_match`]: returns `true` only when min/max
/// statistics prove that *every* row of the chunk matches, so the scan can
/// return [`Bitmap::ones_with_len`] without touching the data.
///
/// Float statistics never prove all-match: `f64` min/max aggregation skips
/// NaN rows, but a NaN row fails every comparison — so a chunk whose stats
/// bracket the constant may still contain non-matching NaN rows.
pub fn stats_all_match(leaf: &FilterLeaf, min: Option<&Value>, max: Option<&Value>) -> bool {
    use crate::ast::CmpOp::*;
    let (min, max) = match (min, max) {
        (Some(a), Some(b)) => (a, b),
        _ => return false, // no stats: cannot prove anything
    };
    if matches!(min, Value::Float(_)) || matches!(max, Value::Float(_)) {
        return false;
    }
    let (cmp_min, cmp_max) = match (
        min.partial_cmp_value(&leaf.constant),
        max.partial_cmp_value(&leaf.constant),
    ) {
        (Some(a), Some(b)) => (a, b),
        _ => return false, // incomparable types: be safe
    };
    use std::cmp::Ordering::*;
    match leaf.op {
        Eq => cmp_min == Equal && cmp_max == Equal,
        Ne => cmp_max == Less || cmp_min == Greater,
        Lt => cmp_max == Less,
        Le => cmp_max != Greater,
        Gt => cmp_min == Greater,
        Ge => cmp_min != Less,
    }
}

/// Computes one aggregate over already-filtered projection data.
///
/// `filtered_rows` is the match count (for `COUNT(*)`); `column` is the
/// filtered column data when the aggregate has an argument.
///
/// # Errors
///
/// Missing column data or non-numeric input for SUM/AVG.
pub fn eval_aggregate(
    spec: &AggregateSpec,
    filtered_rows: usize,
    column: Option<&ColumnData>,
) -> Result<Value> {
    match (spec.func, column) {
        (AggFunc::Count, None) => Ok(Value::Int(filtered_rows as i64)),
        (AggFunc::Count, Some(c)) => Ok(Value::Int(c.len() as i64)),
        (_, None) => Err(SqlError::Invalid(format!(
            "aggregate {} requires column data",
            spec.func
        ))),
        (func, Some(c)) => match c {
            ColumnData::Int64(v) => Ok(match func {
                AggFunc::Sum => Value::Int(
                    v.iter()
                        .try_fold(0i64, |acc, &x| acc.checked_add(x))
                        .ok_or_else(|| overflow("aggregate"))?,
                ),
                AggFunc::Avg => {
                    if v.is_empty() {
                        Value::Float(f64::NAN)
                    } else {
                        // i128 cannot overflow here; for every sum that
                        // fits i64 it gives the same bits as an i64 sum.
                        let sum: i128 = v.iter().map(|&x| x as i128).sum();
                        Value::Float(sum as f64 / v.len() as f64)
                    }
                }
                AggFunc::Min => Value::Int(v.iter().copied().min().unwrap_or(0)),
                AggFunc::Max => Value::Int(v.iter().copied().max().unwrap_or(0)),
                AggFunc::Count => unreachable!("handled above"),
            }),
            ColumnData::Float64(v) => Ok(match func {
                AggFunc::Sum => Value::Float(v.iter().sum()),
                AggFunc::Avg => {
                    if v.is_empty() {
                        Value::Float(f64::NAN)
                    } else {
                        Value::Float(v.iter().sum::<f64>() / v.len() as f64)
                    }
                }
                AggFunc::Min => Value::Float(v.iter().copied().fold(f64::INFINITY, min_f64)),
                AggFunc::Max => Value::Float(v.iter().copied().fold(f64::NEG_INFINITY, max_f64)),
                AggFunc::Count => unreachable!("handled above"),
            }),
            ColumnData::Utf8(v) => match func {
                AggFunc::Min => Ok(Value::Str(v.iter().min().cloned().unwrap_or_default())),
                AggFunc::Max => Ok(Value::Str(v.iter().max().cloned().unwrap_or_default())),
                other => Err(string_agg_error(other)),
            },
        },
    }
}

pub(crate) fn string_agg_error(func: AggFunc) -> SqlError {
    SqlError::TypeError(format!("{func} is not defined for string columns"))
}

/// `f64::min` with the `-0.0`/`+0.0` tie resolved to the running value.
/// `f64::min` may return either operand of an equal pair (LLVM is free
/// to commute it or to vectorize a fold of it), so two folds over the
/// same rows could otherwise disagree in the sign of a zero minimum.
pub(crate) fn min_f64(acc: f64, x: f64) -> f64 {
    if x < acc || acc.is_nan() {
        x
    } else {
        acc
    }
}

/// The `f64::max` counterpart of [`min_f64`].
pub(crate) fn max_f64(acc: f64, x: f64) -> f64 {
    if x > acc || acc.is_nan() {
        x
    } else {
        acc
    }
}

/// The values a chunk's rows index into: the column itself for a plain
/// chunk, the dictionary for a dictionary chunk.
pub(crate) fn chunk_values(chunk: &EncodedChunk) -> &ColumnData {
    match chunk {
        EncodedChunk::Plain(col) => col,
        EncodedChunk::Dictionary { dictionary, .. } => dictionary,
    }
}

fn check_filter_len(chunk: &EncodedChunk, filter: &Bitmap) -> Result<()> {
    if chunk.rows() == filter.len() {
        Ok(())
    } else {
        Err(SqlError::Invalid(format!(
            "chunk has {} rows but filter has {}",
            chunk.rows(),
            filter.len()
        )))
    }
}

/// Visits the rows of `chunk` that `filter` selects, in row order, as
/// `(i, n)` pairs meaning "`chunk_values(chunk)[i]`, `n` times": an RLE
/// run (at least one 64-row word long in a parsed view) contributes its
/// code once with its selected-row count ([`Bitmap::count_range`]); a
/// literal span of u8 or u16 codes, or a plain chunk, contributes one
/// pair per selected row, walked a word at a time
/// ([`Bitmap::for_each_one`]: a fully selected 64-row word is a plain
/// loop, any other word steps from set bit to set bit). Codes are
/// checked against the dictionary once per call.
///
/// # Errors
///
/// A filter whose length is not the chunk's row count, malformed run
/// structure, or a code out of range for the dictionary (impossible for
/// views from `read_encoded_chunk`, which validates codes up front).
pub(crate) fn for_each_selected(
    chunk: &EncodedChunk,
    filter: &Bitmap,
    mut f: impl FnMut(usize, usize),
) -> Result<()> {
    check_filter_len(chunk, filter)?;
    match chunk {
        EncodedChunk::Plain(_) => {
            filter.for_each_one(0, filter.len(), |row| f(row, 1));
            Ok(())
        }
        EncodedChunk::Dictionary {
            dictionary,
            codes: Codes::U8(codes),
            runs,
            rows,
            ..
        } => selected_spans(codes, runs, *rows, dictionary.len(), filter, f),
        EncodedChunk::Dictionary {
            dictionary,
            codes: Codes::U16(codes),
            runs,
            rows,
            ..
        } => selected_spans(codes, runs, *rows, dictionary.len(), filter, f),
    }
}

/// [`for_each_selected`] over a dictionary view's runs.
fn selected_spans<C: Code>(
    codes: &[C],
    runs: &[Run],
    rows: usize,
    dict_len: usize,
    filter: &Bitmap,
    mut f: impl FnMut(usize, usize),
) -> Result<()> {
    check_view(codes, runs, dict_len)?;
    for_each_span(runs, codes, rows, |pos, span| {
        match span {
            Span::Rle(code, len) => {
                let n = filter.count_range(pos, len);
                if n > 0 {
                    f(code, n);
                }
            }
            Span::Literal(codes) => {
                filter.for_each_one(pos, codes.len(), |row| f(codes[row - pos].index(), 1))
            }
        }
        Ok(())
    })
}

/// Appends the rows of `chunk` that `filter` selects to `out`, in row
/// order, straight from the encoded view — the same values as
/// `chunk.decode()?.take(&selected_rows)`, without materializing the
/// chunk or a row-index vector: a dictionary code resolves to its value,
/// an RLE run repeats its value once per selected row, and a plain chunk
/// copies the selected elements.
///
/// # Errors
///
/// `out` of another physical type than the chunk, or the structural
/// errors of a malformed view (see [`eval_filter_encoded`]).
pub fn select_encoded(chunk: &EncodedChunk, filter: &Bitmap, out: &mut ColumnData) -> Result<()> {
    match (chunk_values(chunk), out) {
        (ColumnData::Int64(v), ColumnData::Int64(o)) => {
            for_each_selected(chunk, filter, |i, n| push_n(o, v[i], n))
        }
        (ColumnData::Float64(v), ColumnData::Float64(o)) => {
            for_each_selected(chunk, filter, |i, n| push_n(o, v[i], n))
        }
        (ColumnData::Utf8(v), ColumnData::Utf8(o)) => {
            for_each_selected(chunk, filter, |i, n| push_n(o, v[i].clone(), n))
        }
        (v, o) => Err(SqlError::TypeError(format!(
            "cannot select {} rows into a {} column",
            v.physical_name(),
            o.physical_name()
        ))),
    }
}

/// Appends `n` copies of `x`. Most calls append one selected row, which
/// a `push` takes without `extend`'s per-call reservation.
fn push_n<T: Clone>(out: &mut Vec<T>, x: T, n: usize) {
    if n == 1 {
        out.push(x);
    } else {
        out.extend(std::iter::repeat_n(x, n));
    }
}

/// Plain-encoding size of the rows of `chunk` that `filter` selects —
/// what [`select_encoded`]'s output would measure with
/// `ColumnData::plain_size`, computed without building it: 8 bytes per
/// numeric row, `4 + len` per string.
///
/// # Errors
///
/// The structural errors of [`select_encoded`].
pub fn selected_plain_size(chunk: &EncodedChunk, filter: &Bitmap) -> Result<u64> {
    match chunk_values(chunk) {
        ColumnData::Utf8(v) => {
            let mut bytes = 0u64;
            for_each_selected(chunk, filter, |i, n| {
                bytes += n as u64 * (4 + v[i].len() as u64)
            })?;
            Ok(bytes)
        }
        _ => {
            check_filter_len(chunk, filter)?;
            Ok(8 * filter.count_ones() as u64)
        }
    }
}

/// The argument of one aggregate in a grouped computation over a single
/// group-key column.
#[derive(Debug, Clone, Copy)]
pub enum AggInput<'a> {
    /// `COUNT(*)` — no argument column.
    Star,
    /// The argument *is* the group-key column (e.g. `SELECT k, min(k)`),
    /// so the encoded kernel can read it straight from the dictionary.
    Key,
    /// A separate argument column's whole chunk view, one row per key
    /// row, under the same filter. The kernel counts (key code, argument
    /// code) pairs when it can ([`group_aggregate_encoded`]) and gathers
    /// the selected rows ([`select_encoded`]) when it must.
    View(&'a EncodedChunk),
}

impl<'a> AggInput<'a> {
    /// The argument's values, given the key's (`None`: `COUNT(*)`): a
    /// view's dictionary or plain column.
    fn values(self, key: &'a ColumnData) -> Option<&'a ColumnData> {
        match self {
            AggInput::Star => None,
            AggInput::Key => Some(key),
            AggInput::View(v) => Some(chunk_values(v)),
        }
    }
}

/// The empty state of `func` over `values` (`None`: `COUNT(*)`). A
/// decoded column's physical type stands for its logical one: dates
/// aggregate as integers.
fn state_over(func: AggFunc, values: Option<&ColumnData>) -> Result<PartialAgg> {
    let ty = match values {
        Some(ColumnData::Float64(_)) => LogicalType::Float64,
        Some(ColumnData::Utf8(_)) => LogicalType::Utf8,
        Some(ColumnData::Int64(_)) | None => LogicalType::Int64,
    };
    PartialAgg::new(func, ty)
}

/// Row-at-a-time grouped aggregation over decoded columns — the oracle
/// the encoded kernel is differentially tested against, and the fallback
/// for plain encodings and multi-column keys.
///
/// All columns are full chunk length; `filter` selects the rows that
/// participate. Rows are visited in ascending order and each is one
/// [`PartialAgg::add`], so a group's state sees its rows in row order —
/// the order [`eval_aggregate`] and [`PartialAgg::fold`] see them in, and
/// the order [`group_aggregate_encoded`] reproduces: a group's answer is
/// bit-identical to theirs over the same rows, not merely close.
///
/// A `None` aggregate argument means `COUNT(*)`; since the format has no
/// NULLs this is interchangeable with `COUNT(col)` (see `partial.rs`),
/// and both count exactly the filtered rows of the group.
///
/// # Errors
///
/// Length mismatches, type mismatches, or SUM overflow.
pub fn group_aggregate_decoded(
    keys: &[&ColumnData],
    aggs: &[(AggFunc, Option<&ColumnData>)],
    filter: &Bitmap,
) -> Result<GroupedAggs> {
    if keys.is_empty() {
        return Err(SqlError::Invalid(
            "grouped aggregation requires at least one key column".into(),
        ));
    }
    for col in keys
        .iter()
        .copied()
        .chain(aggs.iter().filter_map(|(_, c)| *c))
    {
        if col.len() != filter.len() {
            return Err(SqlError::Invalid(format!(
                "grouped column length {} does not match filter length {}",
                col.len(),
                filter.len()
            )));
        }
    }
    let templates = aggs
        .iter()
        .map(|&(func, col)| state_over(func, col))
        .collect::<Result<_>>()?;
    let mut out = GroupedAggs::new(templates);
    for row in filter.ones() {
        let key = GroupKey(keys.iter().map(|k| k.value(row)).collect());
        let slots = out.slots(key);
        for (slot, (_, col)) in slots.iter_mut().zip(aggs) {
            // COUNT(*) ignores the value; lend it the key column.
            slot.add(col.unwrap_or(keys[0]), row, 1)?;
        }
    }
    Ok(out)
}

/// Grouped aggregation in the encoded domain over a single group-key
/// chunk — the node-side kernel of GROUP BY pushdown. Argument columns
/// come as whole chunk views under the key's filter ([`AggInput::View`]).
///
/// * **Dictionary** keys group by code, never by hashing a value. Each
///   aggregate has one dense accumulator indexed by code, picked once by
///   its state and argument type, so no row pays a state dispatch or a
///   `Result`:
///   * `COUNT` and every aggregate of the key take their state from the
///     code's selected-row count, as one [`PartialAgg::add`]`(dictionary,
///     code, n)`: a group's rows all hold its key value, so this is the
///     state that run-by-run adds leave (a float sum still loops its `n`
///     adds);
///   * an aggregate whose answer does not depend on row order — integer
///     SUM and AVG, integer and string MIN and MAX — over a dictionary
///     `View` takes its state from **pair counts**: one walk of the filter
///     over both views' spans (RLE runs and literal spans, u8 or u16
///     codes) counts the selected rows of every (key code, argument code)
///     pair, and each group's state follows from its counts and the
///     argument's dictionary. Only when the pair table is no larger than
///     the selected rows (key entries × argument entries ≤ selected rows;
///     wider tables gather). An integer SUM is exact from counts when a
///     group's positive terms sum to at most `i64::MAX` and its negative
///     ones to at least `i64::MIN`, as then no prefix of the row-order sum
///     leaves `i64`; otherwise that aggregate takes the row-order fold,
///     which decides the overflow as sequential checked adds do;
///   * every other aggregate folds the argument's selected rows in row
///     order (a `View` is gathered first): integer SUM/AVG sum in `i128`,
///     and SUM checks every prefix of every group's sum against `i64`
///     (the [`SqlError::Overflow`] of sequential checked adds); float
///     SUM/AVG add in row order; MIN/MAX fold with `min`/`max`, floats
///     with `min_f64`/`max_f64`; a string extreme takes one `add` per row.
///     The key's walk ([`for_each_selected`]) notes each selected row's
///     code for them.
///
///   Codes resolve to key [`Value`]s once, at the end; only codes with
///   selected rows form a group.
/// * **Plain** keys group their selected rows with
///   [`group_aggregate_decoded`].
///
/// Bit-identical to [`group_aggregate_decoded`] over the decoded key and
/// full-length arguments under the same filter: every group state is the
/// one its rows leave in row order.
///
/// # Errors
///
/// Length/type mismatches, malformed run structure, codes out of range,
/// or SUM overflow.
pub fn group_aggregate_encoded(
    key: &EncodedChunk,
    aggs: &[(AggFunc, AggInput<'_>)],
    filter: &Bitmap,
) -> Result<GroupedAggs> {
    check_filter_len(key, filter)?;
    let selected = filter.count_ones();
    for (_, input) in aggs {
        if let AggInput::View(v) = input {
            check_filter_len(v, filter)?;
        }
    }
    let mut gathered = Gathered(Vec::new());
    let dictionary = match key {
        EncodedChunk::Plain(col) => {
            // The key's selected rows line up with the arguments'.
            let mut keys = col.slice(0..0);
            select_encoded(key, filter, &mut keys)?;
            let mut slots = Vec::with_capacity(aggs.len());
            for &(_, arg) in aggs {
                slots.push(match arg {
                    AggInput::View(v) => Some(gathered.gather(v, filter, selected)?),
                    _ => None,
                });
            }
            let decoded: Vec<_> = aggs
                .iter()
                .zip(&slots)
                .map(|(&(f, arg), slot)| match slot {
                    Some(i) => (f, Some(&gathered.0[*i].1)),
                    None => (f, arg.values(&keys)),
                })
                .collect();
            return group_aggregate_decoded(&[&keys], &decoded, &Bitmap::ones_with_len(selected));
        }
        EncodedChunk::Dictionary { dictionary, .. } => dictionary,
    };
    let templates: Vec<PartialAgg> = aggs
        .iter()
        .map(|&(func, arg)| state_over(func, arg.values(dictionary)))
        .collect::<Result<_>>()?;

    // Pair counts, one table per argument view that some aggregate
    // counts; `None` marks an aggregate that folds rows instead.
    let mut tables: Vec<(&EncodedChunk, PairCounts)> = Vec::new();
    let mut dense = Vec::with_capacity(aggs.len());
    for (&(_, arg), template) in aggs.iter().zip(&templates) {
        let acc = match arg {
            AggInput::Star | AggInput::Key => Some(Dense::Counted),
            _ if matches!(template, PartialAgg::Count(_)) => Some(Dense::Counted),
            AggInput::View(view) if counts_pairs(template, dictionary, view, selected) => {
                let i = match tables.iter().position(|(v, _)| std::ptr::eq(*v, view)) {
                    Some(i) => i,
                    None => {
                        tables.push((view, count_pairs(key, view, filter)?));
                        tables.len() - 1
                    }
                };
                Dense::from_pairs(template, chunk_values(view), &tables[i].1)
            }
            AggInput::View(_) => None,
        };
        dense.push(acc);
    }

    // One walk of the key, unless a pair table already holds its counts:
    // selected rows per code, and the code of every selected row when an
    // argument folds rows.
    let fold_rows = dense.iter().any(Option::is_none);
    let mut row_codes: Vec<u32> = Vec::new();
    let counts = match &tables[..] {
        [(_, pairs), ..] if !fold_rows => pairs.key_counts(),
        _ => {
            let mut counts = vec![0usize; dictionary.len()];
            row_codes.reserve(if fold_rows { selected } else { 0 });
            for_each_selected(key, filter, |code, n| {
                counts[code] += n;
                if fold_rows {
                    push_n(&mut row_codes, code as u32, n);
                }
            })?;
            counts
        }
    };
    let mut accs = Vec::with_capacity(aggs.len());
    for ((&(_, arg), template), acc) in aggs.iter().zip(&templates).zip(dense) {
        accs.push(match (acc, arg) {
            (Some(acc), _) => acc,
            (None, AggInput::View(view)) => {
                let i = gathered.gather(view, filter, selected)?;
                Dense::fold(template, &gathered.0[i].1, &row_codes, dictionary.len())?
            }
            (None, AggInput::Star | AggInput::Key) => {
                unreachable!("COUNT(*) and aggregates of the key are counted")
            }
        });
    }

    let mut out = GroupedAggs::new(templates.clone());
    for (code, &n) in counts.iter().enumerate().filter(|&(_, &n)| n > 0) {
        let parts = templates
            .iter()
            .zip(&accs)
            .map(|(template, acc)| acc.state(template, dictionary, code, n))
            .collect::<Result<Vec<_>>>()?;
        let key = GroupKey(vec![dictionary.value(code)]);
        // Dictionaries dedupe by bit pattern so codes map 1:1 to keys,
        // but merge defensively rather than overwrite.
        match out.groups.get_mut(&key) {
            None => {
                out.groups.insert(key, parts);
            }
            Some(existing) => {
                for (a, b) in existing.iter_mut().zip(&parts) {
                    a.merge(b)?;
                }
            }
        }
    }
    Ok(out)
}

/// The selected rows of [`AggInput::View`] arguments that fold rows,
/// gathered once per view.
struct Gathered<'v>(Vec<(&'v EncodedChunk, ColumnData)>);

impl<'v> Gathered<'v> {
    /// The index of `view`'s `selected` rows under `filter`, gathered on
    /// first use.
    fn gather(
        &mut self,
        view: &'v EncodedChunk,
        filter: &Bitmap,
        selected: usize,
    ) -> Result<usize> {
        if let Some(i) = self.0.iter().position(|(v, _)| std::ptr::eq(*v, view)) {
            return Ok(i);
        }
        let mut rows = match chunk_values(view) {
            ColumnData::Int64(_) => ColumnData::Int64(Vec::with_capacity(selected)),
            ColumnData::Float64(_) => ColumnData::Float64(Vec::with_capacity(selected)),
            ColumnData::Utf8(_) => ColumnData::Utf8(Vec::with_capacity(selected)),
        };
        select_encoded(view, filter, &mut rows)?;
        self.0.push((view, rows));
        Ok(self.0.len() - 1)
    }
}

/// Whether the aggregate of `template` over the argument `view` takes its
/// groups' states from pair counts: the view is a dictionary, the state's
/// answer does not depend on row order, and the pair table of `key`'s
/// and the view's dictionaries is no larger than the `selected` rows.
fn counts_pairs(
    template: &PartialAgg,
    key: &ColumnData,
    view: &EncodedChunk,
    selected: usize,
) -> bool {
    use PartialAgg::*;
    let EncodedChunk::Dictionary { dictionary, .. } = view else {
        return false;
    };
    matches!(
        template,
        SumInt(_) | AvgInt(..) | MinInt(_) | MaxInt(_) | MinStr(_) | MaxStr(_)
    ) && key
        .len()
        .checked_mul(dictionary.len())
        .is_some_and(|cells| cells <= selected)
}

/// Selected rows per (key code, argument code) pair of one row group:
/// `n[key * args + arg]`.
struct PairCounts {
    args: usize,
    n: Vec<usize>,
}

impl PairCounts {
    /// Selected rows per key code.
    fn key_counts(&self) -> Vec<usize> {
        self.n
            .chunks(self.args.max(1))
            .map(|row| row.iter().sum())
            .collect()
    }

    /// The argument codes of key `code`'s rows, each with its count.
    fn of_key(&self, code: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.n[code * self.args..(code + 1) * self.args]
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(arg, &n)| (arg, n))
    }
}

/// Counts the selected rows of every (key code, argument code) pair of
/// two dictionary views of one row group ([`pair_spans`]).
fn count_pairs(key: &EncodedChunk, arg: &EncodedChunk, filter: &Bitmap) -> Result<PairCounts> {
    let (
        EncodedChunk::Dictionary {
            dictionary: kd,
            codes: kc,
            runs: kr,
            rows,
            ..
        },
        EncodedChunk::Dictionary {
            dictionary: ad,
            codes: ac,
            runs: ar,
            ..
        },
    ) = (key, arg)
    else {
        return Err(SqlError::Invalid(
            "pair counts need two dictionary views".into(),
        ));
    };
    let key = (kr.as_slice(), kd.len());
    let arg = (ar.as_slice(), ad.len());
    match (kc, ac) {
        (Codes::U8(k), Codes::U8(a)) => pair_spans(k, key, a, arg, *rows, filter),
        (Codes::U8(k), Codes::U16(a)) => pair_spans(k, key, a, arg, *rows, filter),
        (Codes::U16(k), Codes::U8(a)) => pair_spans(k, key, a, arg, *rows, filter),
        (Codes::U16(k), Codes::U16(a)) => pair_spans(k, key, a, arg, *rows, filter),
    }
}

/// [`count_pairs`] over checked views given as `(runs, dictionary
/// entries)`: both views' spans are cut where either changes, and each
/// piece counts its selected rows in the one shape both sides allow —
/// two runs add one `count_range`, a run beside a literal span counts
/// into one row of the table, two literal spans index it per row.
fn pair_spans<K: Code, A: Code>(
    key_codes: &[K],
    (key_runs, key_len): (&[Run], usize),
    arg_codes: &[A],
    (arg_runs, arg_len): (&[Run], usize),
    rows: usize,
    filter: &Bitmap,
) -> Result<PairCounts> {
    check_view(key_codes, key_runs, key_len)?;
    check_view(arg_codes, arg_runs, arg_len)?;
    let keys = spans(key_runs, key_codes, rows)?;
    let args = spans(arg_runs, arg_codes, rows)?;
    let mut n = vec![0usize; key_len * arg_len];
    let (mut ki, mut ai, mut pos) = (0, 0, 0);
    while pos < rows {
        let ((kp, k), (ap, a)) = (keys[ki], args[ai]);
        let end = (kp + k.len()).min(ap + a.len());
        let len = end - pos;
        match (k.cut(pos - kp, len), a.cut(pos - ap, len)) {
            (Span::Rle(k, _), Span::Rle(a, _)) => {
                n[k * arg_len + a] += filter.count_range(pos, len)
            }
            (Span::Rle(k, _), Span::Literal(a)) => {
                let row = &mut n[k * arg_len..(k + 1) * arg_len];
                filter.for_each_one(pos, len, |r| row[a[r - pos].index()] += 1);
            }
            (Span::Literal(k), Span::Rle(a, _)) => {
                filter.for_each_one(pos, len, |r| n[k[r - pos].index() * arg_len + a] += 1);
            }
            (Span::Literal(k), Span::Literal(a)) => filter.for_each_one(pos, len, |r| {
                n[k[r - pos].index() * arg_len + a[r - pos].index()] += 1
            }),
        }
        pos = end;
        ki += usize::from(kp + k.len() == end);
        ai += usize::from(ap + a.len() == end);
    }
    Ok(PairCounts { args: arg_len, n })
}

/// A view's spans in row order, each with its first row, after the
/// structural checks of [`for_each_span`].
fn spans<'a, C>(runs: &[Run], codes: &'a [C], rows: usize) -> Result<Vec<(usize, Span<'a, C>)>> {
    let mut out = Vec::with_capacity(runs.len());
    for_each_span(runs, codes, rows, |pos, span| {
        out.push((pos, span));
        Ok(())
    })?;
    Ok(out)
}

/// One aggregate's accumulator in [`group_aggregate_encoded`]: one slot
/// per dictionary code.
enum Dense {
    /// The state follows from the code's selected-row count: `COUNT`,
    /// and every aggregate of the key itself.
    Counted,
    /// Integer SUM/AVG: exact sums.
    Int(Vec<i128>),
    /// Integer MIN/MAX.
    Extreme(Vec<i64>),
    /// Float SUM/AVG (row-order sums) and MIN/MAX.
    Float(Vec<f64>),
    /// String MIN/MAX, one [`PartialAgg::add`] per row.
    States(Vec<PartialAgg>),
}

impl Dense {
    /// Folds the selected rows of `values` (the `k`-th row's code is
    /// `codes[k]`) into per-code slots shaped by `template`.
    fn fold(
        template: &PartialAgg,
        values: &ColumnData,
        codes: &[u32],
        slots: usize,
    ) -> Result<Dense> {
        use PartialAgg::*;
        Ok(match (template, values) {
            (Count(_), _) => Dense::Counted,
            (SumInt(_), ColumnData::Int64(v)) => {
                let mut fits = true;
                let sums = per_code(codes, v, slots, 0i128, |s, x| {
                    let s = s + x as i128;
                    fits &= i64::try_from(s).is_ok();
                    s
                });
                if !fits {
                    return Err(overflow("aggregate"));
                }
                Dense::Int(sums)
            }
            (AvgInt(..), ColumnData::Int64(v)) => {
                Dense::Int(per_code(codes, v, slots, 0i128, |s, x| s + x as i128))
            }
            (MinInt(_), ColumnData::Int64(v)) => {
                Dense::Extreme(per_code(codes, v, slots, i64::MAX, i64::min))
            }
            (MaxInt(_), ColumnData::Int64(v)) => {
                Dense::Extreme(per_code(codes, v, slots, i64::MIN, i64::max))
            }
            (SumFloat(zero) | AvgFloat(zero, _), ColumnData::Float64(v)) => {
                Dense::Float(per_code(codes, v, slots, *zero, |s, x| s + x))
            }
            (MinFloat(inf), ColumnData::Float64(v)) => {
                Dense::Float(per_code(codes, v, slots, *inf, min_f64))
            }
            (MaxFloat(inf), ColumnData::Float64(v)) => {
                Dense::Float(per_code(codes, v, slots, *inf, max_f64))
            }
            (MinStr(_) | MaxStr(_), ColumnData::Utf8(_)) => {
                let mut states = vec![template.clone(); slots];
                for (k, &code) in codes.iter().enumerate() {
                    states[code as usize].add(values, k, 1)?;
                }
                Dense::States(states)
            }
            (state, values) => return Err(mismatch(state, values)),
        })
    }

    /// The per-code accumulator of an order-free aggregate from pair
    /// counts over the argument's dictionary `values` (see
    /// [`counts_pairs`]), or `None` when an integer SUM must take the
    /// row-order fold: some group's positive terms sum past `i64::MAX` or
    /// its negative ones past `i64::MIN`, so only the row order decides
    /// whether a prefix overflows.
    fn from_pairs(template: &PartialAgg, values: &ColumnData, pairs: &PairCounts) -> Option<Dense> {
        use PartialAgg::*;
        let keys = 0..pairs.n.len() / pairs.args.max(1);
        Some(match (template, values) {
            (SumInt(_), ColumnData::Int64(v)) => {
                let mut sums = Vec::with_capacity(keys.len());
                for code in keys {
                    let (mut pos, mut neg) = (0i128, 0i128);
                    for (arg, n) in pairs.of_key(code) {
                        let term = v[arg] as i128 * n as i128;
                        if term > 0 {
                            pos += term;
                        } else {
                            neg += term;
                        }
                    }
                    if pos > i64::MAX as i128 || neg < i64::MIN as i128 {
                        return None;
                    }
                    sums.push(pos + neg);
                }
                Dense::Int(sums)
            }
            (AvgInt(..), ColumnData::Int64(v)) => Dense::Int(
                keys.map(|code| {
                    pairs
                        .of_key(code)
                        .map(|(arg, n)| v[arg] as i128 * n as i128)
                        .sum()
                })
                .collect(),
            ),
            (MinInt(_), ColumnData::Int64(v)) => Dense::Extreme(
                keys.map(|code| {
                    pairs
                        .of_key(code)
                        .map(|(arg, _)| v[arg])
                        .min()
                        .unwrap_or(i64::MAX)
                })
                .collect(),
            ),
            (MaxInt(_), ColumnData::Int64(v)) => Dense::Extreme(
                keys.map(|code| {
                    pairs
                        .of_key(code)
                        .map(|(arg, _)| v[arg])
                        .max()
                        .unwrap_or(i64::MIN)
                })
                .collect(),
            ),
            (MinStr(_) | MaxStr(_), ColumnData::Utf8(_)) => {
                let mut states = vec![template.clone(); keys.len()];
                for (code, state) in states.iter_mut().enumerate() {
                    for (arg, _) in pairs.of_key(code) {
                        state.add(values, arg, 1).ok()?;
                    }
                }
                Dense::States(states)
            }
            _ => return None,
        })
    }

    /// The state of the group of `code`, which has `n` selected rows.
    fn state(
        &self,
        template: &PartialAgg,
        dictionary: &ColumnData,
        code: usize,
        n: usize,
    ) -> Result<PartialAgg> {
        use PartialAgg::*;
        let mut state = template.clone();
        match (self, &mut state) {
            (Dense::Counted, state) => state.add(dictionary, code, n)?,
            // In range: `fold` checked every prefix.
            (Dense::Int(s), SumInt(acc)) => *acc = s[code] as i64,
            (Dense::Int(s), AvgInt(acc, cnt)) => (*acc, *cnt) = (s[code], n as i64),
            (Dense::Extreme(x), MinInt(m) | MaxInt(m)) => *m = Some(x[code]),
            (Dense::Float(x), SumFloat(acc) | MinFloat(acc) | MaxFloat(acc)) => *acc = x[code],
            (Dense::Float(x), AvgFloat(acc, cnt)) => (*acc, *cnt) = (x[code], n as i64),
            (Dense::States(s), state) => *state = s[code].clone(),
            (_, state) => {
                return Err(SqlError::Invalid(format!(
                    "grouped accumulator does not fit {state:?}"
                )))
            }
        }
        Ok(state)
    }
}

/// Folds `values[k]` into the slot of `codes[k]`, for every `k` in
/// order, each slot starting from `init`.
fn per_code<T: Copy, V: Copy>(
    codes: &[u32],
    values: &[V],
    slots: usize,
    init: T,
    mut f: impl FnMut(T, V) -> T,
) -> Vec<T> {
    let mut acc = vec![init; slots];
    for (&code, &x) in codes.iter().zip(values) {
        let slot = &mut acc[code as usize];
        *slot = f(*slot, x);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use crate::partial::Selection;

    fn leaf(op: CmpOp, constant: Value) -> FilterLeaf {
        FilterLeaf {
            id: 0,
            column: 0,
            column_name: "c".into(),
            op,
            constant,
        }
    }

    #[test]
    fn int_filters() {
        let col = ColumnData::Int64(vec![1, 5, 10, 5]);
        let bm = eval_filter(&leaf(CmpOp::Eq, Value::Int(5)), &col).unwrap();
        assert_eq!(bm.ones().collect::<Vec<_>>(), vec![1, 3]);
        let bm = eval_filter(&leaf(CmpOp::Lt, Value::Int(5)), &col).unwrap();
        assert_eq!(bm.ones().collect::<Vec<_>>(), vec![0]);
        let bm = eval_filter(&leaf(CmpOp::Ge, Value::Int(5)), &col).unwrap();
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn float_and_cross_type_filters() {
        let col = ColumnData::Float64(vec![0.5, 1.5, 2.5]);
        let bm = eval_filter(&leaf(CmpOp::Gt, Value::Int(1)), &col).unwrap();
        assert_eq!(bm.count_ones(), 2);
        let icol = ColumnData::Int64(vec![1, 2, 3]);
        let bm = eval_filter(&leaf(CmpOp::Le, Value::Float(2.5)), &icol).unwrap();
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn string_filters() {
        let col = ColumnData::Utf8(vec!["Alice".into(), "Bob".into(), "Carol".into()]);
        let bm = eval_filter(&leaf(CmpOp::Eq, Value::Str("Bob".into())), &col).unwrap();
        assert_eq!(bm.ones().collect::<Vec<_>>(), vec![1]);
        let bm = eval_filter(&leaf(CmpOp::Ne, Value::Str("Bob".into())), &col).unwrap();
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    fn type_mismatch_is_error() {
        let col = ColumnData::Utf8(vec!["a".into()]);
        assert!(eval_filter(&leaf(CmpOp::Eq, Value::Int(1)), &col).is_err());
    }

    #[test]
    fn combine_trees() {
        let a: Bitmap = [true, true, false, false].into_iter().collect();
        let b: Bitmap = [true, false, true, false].into_iter().collect();
        let leaves = vec![a, b];
        let t = BoolTree::And(Box::new(BoolTree::Leaf(0)), Box::new(BoolTree::Leaf(1)));
        assert_eq!(combine(&t, &leaves).unwrap().count_ones(), 1);
        let t = BoolTree::Or(
            Box::new(BoolTree::Leaf(0)),
            Box::new(BoolTree::Not(Box::new(BoolTree::Leaf(1)))),
        );
        assert_eq!(combine(&t, &leaves).unwrap().count_ones(), 3);
        assert!(combine(&BoolTree::Leaf(9), &leaves).is_err());
    }

    #[test]
    fn stats_pruning() {
        let l = leaf(CmpOp::Eq, Value::Int(50));
        assert!(stats_may_match(
            &l,
            Some(&Value::Int(0)),
            Some(&Value::Int(100))
        ));
        assert!(!stats_may_match(
            &l,
            Some(&Value::Int(60)),
            Some(&Value::Int(100))
        ));
        assert!(!stats_may_match(
            &l,
            Some(&Value::Int(0)),
            Some(&Value::Int(40))
        ));

        let l = leaf(CmpOp::Lt, Value::Int(10));
        assert!(!stats_may_match(
            &l,
            Some(&Value::Int(10)),
            Some(&Value::Int(20))
        ));
        assert!(stats_may_match(
            &l,
            Some(&Value::Int(9)),
            Some(&Value::Int(20))
        ));

        let l = leaf(CmpOp::Ne, Value::Int(5));
        assert!(!stats_may_match(
            &l,
            Some(&Value::Int(5)),
            Some(&Value::Int(5))
        ));
        assert!(stats_may_match(
            &l,
            Some(&Value::Int(5)),
            Some(&Value::Int(6))
        ));

        // No stats -> never prune.
        assert!(stats_may_match(&l, None, None));
    }

    #[test]
    fn stats_all_match_proofs() {
        let l = leaf(CmpOp::Lt, Value::Int(100));
        assert!(stats_all_match(
            &l,
            Some(&Value::Int(0)),
            Some(&Value::Int(99))
        ));
        assert!(!stats_all_match(
            &l,
            Some(&Value::Int(0)),
            Some(&Value::Int(100))
        ));
        let l = leaf(CmpOp::Le, Value::Int(100));
        assert!(stats_all_match(
            &l,
            Some(&Value::Int(0)),
            Some(&Value::Int(100))
        ));
        let l = leaf(CmpOp::Eq, Value::Int(5));
        assert!(stats_all_match(
            &l,
            Some(&Value::Int(5)),
            Some(&Value::Int(5))
        ));
        assert!(!stats_all_match(
            &l,
            Some(&Value::Int(5)),
            Some(&Value::Int(6))
        ));
        let l = leaf(CmpOp::Ne, Value::Int(5));
        assert!(stats_all_match(
            &l,
            Some(&Value::Int(6)),
            Some(&Value::Int(9))
        ));
        let l = leaf(CmpOp::Ge, Value::Int(5));
        assert!(stats_all_match(
            &l,
            Some(&Value::Int(5)),
            Some(&Value::Int(9))
        ));
        let l = leaf(CmpOp::Gt, Value::Int(5));
        assert!(!stats_all_match(
            &l,
            Some(&Value::Int(5)),
            Some(&Value::Int(9))
        ));
        // No stats, or float stats (NaN hazard): never prove all-match.
        let l = leaf(CmpOp::Lt, Value::Int(100));
        assert!(!stats_all_match(&l, None, None));
        let l = leaf(CmpOp::Lt, Value::Float(100.0));
        assert!(!stats_all_match(
            &l,
            Some(&Value::Float(0.0)),
            Some(&Value::Float(1.0))
        ));
    }

    fn encoded(col: &ColumnData) -> EncodedChunk {
        let (bytes, _) = fusion_format::chunk::encode_column_chunk(col);
        fusion_format::chunk::read_encoded_chunk(
            &bytes,
            match col {
                ColumnData::Int64(_) => fusion_format::schema::LogicalType::Int64,
                ColumnData::Float64(_) => fusion_format::schema::LogicalType::Float64,
                ColumnData::Utf8(_) => fusion_format::schema::LogicalType::Utf8,
            },
        )
        .unwrap()
    }

    #[test]
    fn encoded_filter_matches_decoded() {
        // Dictionary with long runs + literal tail, crossing word borders.
        let mut vals: Vec<i64> = std::iter::repeat_n(3i64, 200).collect();
        vals.extend((0..77).map(|i| i % 5));
        vals.extend(std::iter::repeat_n(1i64, 100));
        let col = ColumnData::Int64(vals);
        let chunk = encoded(&col);
        assert!(matches!(chunk, EncodedChunk::Dictionary { .. }));
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let l = leaf(op, Value::Int(3));
            let fast = eval_filter_encoded(&l, &chunk).unwrap();
            let slow = eval_filter(&l, &col).unwrap();
            assert_eq!(fast, slow, "op {op:?}");
        }
        // Plain chunk falls through to the word-batched scan.
        let col = ColumnData::Int64((0..300).map(|i| i * 7919 % 1000).collect());
        let chunk = encoded(&col);
        assert!(matches!(chunk, EncodedChunk::Plain(_)));
        let l = leaf(CmpOp::Lt, Value::Int(500));
        assert_eq!(
            eval_filter_encoded(&l, &chunk).unwrap(),
            eval_filter(&l, &col).unwrap()
        );
    }

    #[test]
    fn encoded_filter_rejects_bad_views() {
        // Hand-built views with out-of-range codes or short run coverage.
        let dict = ColumnData::Int64(vec![10, 20]);
        let l = leaf(CmpOp::Eq, Value::Int(10));
        let view = |codes: Vec<u8>, runs: Vec<Run>, rows| EncodedChunk::Dictionary {
            dictionary: dict.clone(),
            codes: Codes::U8(codes),
            runs,
            rows,
            stream_weight: 0,
            used: Default::default(),
        };
        let bad_code = view(vec![], vec![Run::Rle { value: 9, len: 4 }], 4);
        assert!(eval_filter_encoded(&l, &bad_code).is_err());
        let bad_literal = view(vec![0, 7], vec![Run::Literal { start: 0, len: 2 }], 2);
        assert!(eval_filter_encoded(&l, &bad_literal).is_err());
        let outside = view(vec![0, 1], vec![Run::Literal { start: 1, len: 2 }], 2);
        assert!(eval_filter_encoded(&l, &outside).is_err());
        let short = view(vec![], vec![Run::Rle { value: 0, len: 2 }], 5);
        assert!(eval_filter_encoded(&l, &short).is_err());
        let long = view(vec![], vec![Run::Rle { value: 0, len: 9 }], 5);
        assert!(eval_filter_encoded(&l, &long).is_err());
        // A dictionary too large for its code width is refused, not
        // looked up past its table, by every kernel.
        let wide = EncodedChunk::Dictionary {
            dictionary: ColumnData::Int64((0..300).collect()),
            codes: Codes::U8(vec![0]),
            runs: vec![
                Run::Rle {
                    value: 299,
                    len: 64,
                },
                Run::Literal { start: 0, len: 1 },
            ],
            rows: 65,
            stream_weight: 0,
            used: Default::default(),
        };
        assert!(eval_filter_encoded(&l, &wide).is_err());
        let all = Bitmap::ones_with_len(65);
        assert!(select_encoded(&wide, &all, &mut ColumnData::Int64(vec![])).is_err());
        assert!(group_aggregate_encoded(&wide, &[(AggFunc::Count, AggInput::Star)], &all).is_err());
    }

    // Finalized rows, with the value vector wrapped in GroupKey so floats
    // compare by bit pattern (NaN == NaN) rather than IEEE equality.
    fn finalized(g: GroupedAggs) -> Vec<(GroupKey, GroupKey)> {
        g.into_sorted()
            .into_iter()
            .map(|(k, parts)| {
                (
                    k,
                    GroupKey(parts.iter().map(PartialAgg::finalize).collect()),
                )
            })
            .collect()
    }

    #[test]
    fn grouped_encoded_matches_decoded_oracle() {
        // Dictionary key with long RLE runs and a literal tail, plus a
        // plain float argument column — the full kernel surface.
        let mut keys: Vec<i64> = std::iter::repeat_n(3i64, 150).collect();
        keys.extend((0..80).map(|i| i % 5));
        keys.extend(std::iter::repeat_n(1i64, 90));
        let n = keys.len();
        let key_col = ColumnData::Int64(keys);
        let arg = ColumnData::Float64((0..n).map(|i| (i as f64) * 0.31 - 17.0).collect());
        let chunk = encoded(&key_col);
        assert!(matches!(chunk, EncodedChunk::Dictionary { .. }));

        let filter: Bitmap = (0..n).map(|i| i % 3 != 0).collect();
        // The encoded kernel takes the argument's selected rows only.
        let arg_view = encoded(&arg);
        let aggs_enc = [
            (AggFunc::Count, AggInput::Star),
            (AggFunc::Sum, AggInput::Key),
            (AggFunc::Avg, AggInput::View(&arg_view)),
            (AggFunc::Min, AggInput::View(&arg_view)),
            (AggFunc::Max, AggInput::Key),
        ];
        let aggs_dec = [
            (AggFunc::Count, None),
            (AggFunc::Sum, Some(&key_col)),
            (AggFunc::Avg, Some(&arg)),
            (AggFunc::Min, Some(&arg)),
            (AggFunc::Max, Some(&key_col)),
        ];
        let fast = group_aggregate_encoded(&chunk, &aggs_enc, &filter).unwrap();
        let slow = group_aggregate_decoded(&[&key_col], &aggs_dec, &filter).unwrap();
        // Bit-exact, including float sums (same association order).
        assert_eq!(finalized(fast), finalized(slow));
    }

    #[test]
    fn grouped_plain_key_falls_back() {
        let key_col = ColumnData::Int64((0..300).map(|i| i * 7919 % 1000).collect());
        let chunk = encoded(&key_col);
        assert!(matches!(chunk, EncodedChunk::Plain(_)));
        let filter = Bitmap::ones_with_len(300);
        let fast =
            group_aggregate_encoded(&chunk, &[(AggFunc::Count, AggInput::Star)], &filter).unwrap();
        let slow =
            group_aggregate_decoded(&[&key_col], &[(AggFunc::Count, None)], &filter).unwrap();
        assert_eq!(finalized(fast), finalized(slow));
    }

    #[test]
    fn grouped_selectivity_edges() {
        let key_col = ColumnData::Utf8((0..100).map(|i| format!("g{}", i % 4)).collect());
        let chunk = encoded(&key_col);
        // 0%: no groups materialize at all.
        let none = Bitmap::with_len(100);
        let g =
            group_aggregate_encoded(&chunk, &[(AggFunc::Count, AggInput::Star)], &none).unwrap();
        assert!(g.is_empty());
        // 100%: every key appears, counts sum to the row count.
        let all = Bitmap::ones_with_len(100);
        let g = group_aggregate_encoded(&chunk, &[(AggFunc::Count, AggInput::Star)], &all).unwrap();
        assert_eq!(g.len(), 4);
        let total: i64 = g
            .into_sorted()
            .iter()
            .map(|(_, p)| match p[0].finalize() {
                Value::Int(n) => n,
                other => panic!("count finalized to {other:?}"),
            })
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn grouped_count_col_equals_count_star() {
        // COUNT(col) and COUNT(*) per group are pinned equal: no NULLs.
        let key_col = ColumnData::Int64((0..64).map(|i| i % 3).collect());
        let chunk = encoded(&key_col);
        let filter: Bitmap = (0..64).map(|i| i % 2 == 0).collect();
        let g = group_aggregate_encoded(
            &chunk,
            &[
                (AggFunc::Count, AggInput::Star),
                (AggFunc::Count, AggInput::Key),
            ],
            &filter,
        )
        .unwrap();
        for (key, parts) in g.into_sorted() {
            assert_eq!(parts[0], parts[1], "COUNT(*) != COUNT(col) for {key:?}");
        }
    }

    #[test]
    fn grouped_nan_min_max_matches_oracle() {
        // NaN argument values: MIN/MAX skip incomparable values in merge
        // order, so the encoded path must see rows in oracle order.
        let key_col = ColumnData::Int64(std::iter::repeat_n(7i64, 96).collect());
        let arg = ColumnData::Float64(
            (0..96)
                .map(|i| if i % 5 == 0 { f64::NAN } else { i as f64 })
                .collect(),
        );
        let chunk = encoded(&key_col);
        let filter = Bitmap::ones_with_len(96);
        let arg_view = encoded(&arg);
        let aggs_enc = [
            (AggFunc::Min, AggInput::View(&arg_view)),
            (AggFunc::Max, AggInput::View(&arg_view)),
        ];
        let aggs_dec = [(AggFunc::Min, Some(&arg)), (AggFunc::Max, Some(&arg))];
        let fast = group_aggregate_encoded(&chunk, &aggs_enc, &filter).unwrap();
        let slow = group_aggregate_decoded(&[&key_col], &aggs_dec, &filter).unwrap();
        assert_eq!(finalized(fast), finalized(slow));
    }

    #[test]
    fn grouped_rejects_bad_shapes() {
        let key_col = ColumnData::Int64(vec![1, 2, 3]);
        let short_filter = Bitmap::with_len(2);
        assert!(
            group_aggregate_decoded(&[&key_col], &[(AggFunc::Count, None)], &short_filter).is_err()
        );
        assert!(group_aggregate_decoded(&[], &[(AggFunc::Count, None)], &short_filter).is_err());
        let chunk = EncodedChunk::Dictionary {
            dictionary: ColumnData::Int64(vec![10, 20]),
            codes: Codes::U8(vec![]),
            runs: vec![Run::Rle { value: 9, len: 3 }],
            rows: 3,
            stream_weight: 0,
            used: Default::default(),
        };
        assert!(group_aggregate_encoded(
            &chunk,
            &[(AggFunc::Count, AggInput::Star)],
            &Bitmap::ones_with_len(3)
        )
        .is_err());
        // An argument view covers the key's rows: a shorter one is
        // refused.
        let key = encoded(&ColumnData::Int64(vec![1, 1, 2]));
        let some: Bitmap = [true, false, true].into_iter().collect();
        let short = encoded(&ColumnData::Int64(vec![5, 6]));
        assert!(
            group_aggregate_encoded(&key, &[(AggFunc::Sum, AggInput::View(&short))], &some)
                .is_err()
        );
        // A group's integer SUM overflows when any prefix of it leaves
        // i64, even if later rows bring it back.
        let args = ColumnData::Int64(vec![i64::MAX, 1, -5]);
        let all = Bitmap::ones_with_len(3);
        let key = encoded(&ColumnData::Int64(vec![4, 4, 4]));
        assert!(matches!(
            group_aggregate_encoded(
                &key,
                &[(AggFunc::Sum, AggInput::View(&encoded(&args)))],
                &all
            ),
            Err(SqlError::Overflow(_))
        ));
    }

    #[test]
    fn select_and_fold_from_encoded_views() {
        // RLE run, literal run, and a tail that is not a multiple of 64.
        let mut vals: Vec<i64> = std::iter::repeat_n(7i64, 100).collect();
        vals.extend((0..37).map(|i| i % 3));
        let col = ColumnData::Int64(vals);
        let chunk = encoded(&col);
        assert!(matches!(chunk, EncodedChunk::Dictionary { .. }));
        let filter: Bitmap = (0..col.len()).map(|i| i % 5 != 1).collect();
        let ones: Vec<usize> = filter.ones().collect();
        let mut out = ColumnData::Int64(vec![-1]);
        select_encoded(&chunk, &filter, &mut out).unwrap();
        let mut want = vec![-1];
        want.extend(col.take(&ones).as_int64().unwrap());
        assert_eq!(out, ColumnData::Int64(want));
        assert_eq!(
            selected_plain_size(&chunk, &filter).unwrap(),
            8 * ones.len() as u64
        );
        let mut sum = PartialAgg::new(AggFunc::Sum, LogicalType::Int64).unwrap();
        let rows = Selection::new(&chunk, &filter);
        sum.fold(&rows).unwrap();
        sum.fold(&rows).unwrap();
        let once: i64 = col.take(&ones).as_int64().unwrap().iter().sum();
        assert_eq!(sum.finalize(), Value::Int(2 * once));
    }

    #[test]
    fn empty_folds_finish_like_the_oracle() {
        let spec = |func| AggregateSpec {
            func,
            column: Some(0),
            column_name: Some("c".into()),
        };
        for (ty, empty) in [
            (LogicalType::Int64, ColumnData::Int64(vec![])),
            (LogicalType::Float64, ColumnData::Float64(vec![])),
            (LogicalType::Utf8, ColumnData::Utf8(vec![])),
        ] {
            for func in [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ] {
                let got = PartialAgg::new(func, ty).map(|p| p.finalize());
                let want = eval_aggregate(&spec(func), 0, Some(&empty));
                match (got, want) {
                    (Ok(Value::Float(a)), Ok(Value::Float(b))) => {
                        assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
                    }
                    (got, want) => assert_eq!(got, want, "{func} over {ty}"),
                }
            }
        }
        // Float SUM of nothing is -0.0, as `Iterator::sum` leaves it.
        let sum = PartialAgg::new(AggFunc::Sum, LogicalType::Float64).unwrap();
        assert!(matches!(sum.finalize(), Value::Float(x) if x.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn select_and_fold_reject_bad_shapes() {
        let chunk = encoded(&ColumnData::Int64(vec![1, 2, 3]));
        let short = Bitmap::ones_with_len(2);
        let mut out = ColumnData::Int64(vec![]);
        assert!(select_encoded(&chunk, &short, &mut out).is_err());
        assert!(selected_plain_size(&chunk, &short).is_err());
        let all = Bitmap::ones_with_len(3);
        let mut strings = ColumnData::Utf8(vec![]);
        assert!(select_encoded(&chunk, &all, &mut strings).is_err());
        let mut float_sum = PartialAgg::new(AggFunc::Sum, LogicalType::Float64).unwrap();
        assert!(float_sum.fold(&Selection::new(&chunk, &all)).is_err());
        let bad_code = EncodedChunk::Dictionary {
            dictionary: ColumnData::Int64(vec![10, 20]),
            codes: Codes::U16(vec![0, 5, 1]),
            runs: vec![Run::Literal { start: 0, len: 3 }],
            rows: 3,
            stream_weight: 0,
            used: Default::default(),
        };
        assert!(select_encoded(&bad_code, &all, &mut out).is_err());
        let mut max = PartialAgg::new(AggFunc::Max, LogicalType::Int64).unwrap();
        assert!(max.fold(&Selection::new(&bad_code, &all)).is_err());
        // SUM overflow is a typed error, even when later rows would
        // bring the total back into range.
        let big = encoded(&ColumnData::Int64(vec![i64::MAX, 1, -5]));
        let mut sum = PartialAgg::new(AggFunc::Sum, LogicalType::Int64).unwrap();
        assert!(matches!(
            sum.fold(&Selection::new(&big, &all)),
            Err(SqlError::Overflow(_))
        ));
    }

    #[test]
    fn aggregates() {
        let spec = |func, with_col: bool| AggregateSpec {
            func,
            column: with_col.then_some(0),
            column_name: with_col.then(|| "c".to_string()),
        };
        assert_eq!(
            eval_aggregate(&spec(AggFunc::Count, false), 7, None).unwrap(),
            Value::Int(7)
        );
        let col = ColumnData::Int64(vec![1, 2, 3]);
        assert_eq!(
            eval_aggregate(&spec(AggFunc::Sum, true), 3, Some(&col)).unwrap(),
            Value::Int(6)
        );
        assert_eq!(
            eval_aggregate(&spec(AggFunc::Avg, true), 3, Some(&col)).unwrap(),
            Value::Float(2.0)
        );
        let fcol = ColumnData::Float64(vec![2.0, 4.0]);
        assert_eq!(
            eval_aggregate(&spec(AggFunc::Min, true), 2, Some(&fcol)).unwrap(),
            Value::Float(2.0)
        );
        let scol = ColumnData::Utf8(vec!["b".into(), "a".into()]);
        assert_eq!(
            eval_aggregate(&spec(AggFunc::Max, true), 2, Some(&scol)).unwrap(),
            Value::Str("b".into())
        );
        assert!(eval_aggregate(&spec(AggFunc::Sum, true), 2, Some(&scol)).is_err());
        assert!(eval_aggregate(&spec(AggFunc::Sum, true), 2, None).is_err());
        // Integer SUM past i64 is a typed error; AVG of the same rows is
        // exact because its sum is taken in i128.
        let big = ColumnData::Int64(vec![i64::MAX, i64::MAX]);
        assert!(matches!(
            eval_aggregate(&spec(AggFunc::Sum, true), 2, Some(&big)),
            Err(SqlError::Overflow(_))
        ));
        assert_eq!(
            eval_aggregate(&spec(AggFunc::Avg, true), 2, Some(&big)).unwrap(),
            Value::Float(i64::MAX as f64)
        );
    }
}
