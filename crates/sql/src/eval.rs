//! Predicate and aggregate evaluation over decoded column chunks — the
//! code that actually runs *in situ* on a storage node during pushdown.
//! Every aggregate answers in one state type,
//! [`crate::partial::PartialAgg`]: the decoded GROUP BY kernel hands it
//! rows as `(value, count)` pairs, the encoded one fills it from typed
//! per-code accumulators, and [`eval_aggregate`] is the ungrouped oracle
//! both are tested against.

use crate::ast::AggFunc;
use crate::bitmap::{or_bits, or_span, Bitmap};
use crate::error::{Result, SqlError};
use crate::partial::{mismatch, overflow, GroupKey, GroupedAggs, PartialAgg};
use crate::plan::{AggregateSpec, BoolTree, FilterLeaf};
use fusion_format::chunk::EncodedChunk;
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
///   (the dictionary is tiny — at most `MAX_DICT_DISTINCT` values), then
///   codes translate to bits through the resulting mask.
/// * **RLE runs** of codes: one mask lookup sets the whole span word-wise.
/// * **Literal runs**: mask lookups accumulate into 64-bit words.
/// * **Plain** chunks fall back to the word-batched [`eval_filter`].
///
/// # Errors
///
/// Type mismatches, or a code out of range for the dictionary (impossible
/// for views from `read_encoded_chunk`, which validates codes up front).
pub fn eval_filter_encoded(leaf: &FilterLeaf, chunk: &EncodedChunk) -> Result<Bitmap> {
    let (dictionary, codes, runs, rows) = match chunk {
        EncodedChunk::Plain(col) => return eval_filter(leaf, col),
        EncodedChunk::Dictionary {
            dictionary,
            codes,
            runs,
            rows,
        } => (dictionary, codes, runs, *rows),
    };
    let dict_bits = eval_filter(leaf, dictionary)?;
    let mask: Vec<bool> = (0..dictionary.len()).map(|i| dict_bits.get(i)).collect();
    let code_match = |code: u32| -> Result<bool> {
        mask.get(code as usize)
            .copied()
            .ok_or_else(|| code_out_of_range(code, mask.len()))
    };
    let mut words = vec![0u64; rows.div_ceil(64)];
    for_each_span(runs, codes, rows, |pos, span| {
        match span {
            Span::Rle(code, len) => {
                if code_match(code)? {
                    or_span(&mut words, pos, len);
                }
            }
            Span::Literal(codes) => {
                for (k, batch) in codes.chunks(64).enumerate() {
                    let mut acc = 0u64;
                    for (bit, &code) in batch.iter().enumerate() {
                        acc |= (code_match(code)? as u64) << bit;
                    }
                    or_bits(&mut words, pos + 64 * k, acc, batch.len());
                }
            }
        }
        Ok(())
    })?;
    Ok(Bitmap::from_words(rows, words))
}

/// One run of a dictionary view with its literal codes resolved.
#[derive(Clone, Copy)]
enum Span<'a> {
    /// `len` rows of one code.
    Rle(u32, usize),
    /// One code per row.
    Literal(&'a [u32]),
}

/// Walks a dictionary view's runs in row order, calling `f(first_row,
/// span)` for each, after checking the structure a hand-built view can
/// get wrong: runs that overflow or fall short of `rows`, and literal
/// spans outside `codes`. Each kernel checks codes against the
/// dictionary in the way its loop affords.
fn for_each_span<'a>(
    runs: &[Run],
    codes: &'a [u32],
    rows: usize,
    mut f: impl FnMut(usize, Span<'a>) -> Result<()>,
) -> Result<()> {
    let mut pos = 0usize;
    for &run in runs {
        if run.len() > rows - pos {
            return Err(SqlError::Invalid("run structure overflows chunk".into()));
        }
        let span = match run {
            Run::Rle { value, len } => Span::Rle(value, len),
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

fn code_out_of_range(code: u32, dict_len: usize) -> SqlError {
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
/// run contributes its code once with its selected-row count
/// ([`Bitmap::count_range`]); a literal run or a plain chunk contributes
/// one pair per selected row, walked a word at a time
/// ([`Bitmap::for_each_one`]: a fully selected 64-row word is a plain
/// loop, any other word steps from set bit to set bit).
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
    let (dictionary, codes, runs, rows) = match chunk {
        EncodedChunk::Plain(_) => {
            filter.for_each_one(0, filter.len(), |row| f(row, 1));
            return Ok(());
        }
        EncodedChunk::Dictionary {
            dictionary,
            codes,
            runs,
            rows,
        } => (dictionary, codes, runs, *rows),
    };
    // Codes are checked a run at a time (`max` vectorizes), so the
    // per-row loops below stay tight.
    let check = |max_code: Option<u32>| match max_code {
        Some(c) if c as usize >= dictionary.len() => Err(code_out_of_range(c, dictionary.len())),
        _ => Ok(()),
    };
    for_each_span(runs, codes, rows, |pos, span| {
        match span {
            Span::Rle(code, len) => {
                check(Some(code))?;
                let n = filter.count_range(pos, len);
                if n > 0 {
                    f(code as usize, n);
                }
            }
            Span::Literal(codes) => {
                check(codes.iter().copied().max())?;
                filter.for_each_one(pos, codes.len(), |row| f(codes[row - pos] as usize, 1));
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
    /// A separate argument column holding only the rows the filter
    /// selects, in row order — what [`select_encoded`] appends: its `k`-th
    /// value is the `k`-th selected row's, and its length is the filter's
    /// `count_ones`.
    Col(&'a ColumnData),
}

impl<'a> AggInput<'a> {
    /// The argument's values, given the key's (`None`: `COUNT(*)`).
    fn values(self, key: &'a ColumnData) -> Option<&'a ColumnData> {
        match self {
            AggInput::Star => None,
            AggInput::Key => Some(key),
            AggInput::Col(c) => Some(c),
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
/// chunk — the node-side kernel of GROUP BY pushdown. `Col` arguments
/// hold the selected rows only ([`AggInput::Col`]).
///
/// * **Dictionary** keys group by code, never by hashing a value. One
///   walk of the key's runs ([`for_each_selected`]) counts each code's
///   selected rows and, when an argument column is folded, notes each
///   selected row's code. Each aggregate then has one dense accumulator
///   indexed by code, picked once by its state and argument type, so no
///   row pays a state dispatch or a `Result`:
///   * `COUNT` and every aggregate of the key take their state from the
///     count, as one [`PartialAgg::add`]`(dictionary, code, n)`: a
///     group's rows all hold its key value, so this is the state that
///     run-by-run adds leave (a float sum still loops its `n` adds);
///   * integer SUM/AVG sum in `i128`, and SUM checks every prefix of
///     every group's sum against `i64` (the [`SqlError::Overflow`] of
///     sequential checked adds); float SUM/AVG add in row order; MIN/MAX
///     fold with `min`/`max`, floats with `min_f64`/`max_f64`; a string
///     extreme takes one `add` per row.
///
///   Codes resolve to key [`Value`]s once, at the end; only codes with
///   selected rows form a group.
/// * **Plain** keys group their selected rows with
///   [`group_aggregate_decoded`].
///
/// Bit-identical to [`group_aggregate_decoded`] over the decoded key and
/// full-length arguments under the same filter: every group state sees
/// its rows in row order.
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
        if let AggInput::Col(c) = input {
            if c.len() != selected {
                return Err(SqlError::Invalid(format!(
                    "aggregate column has {} rows but the filter selects {selected}",
                    c.len()
                )));
            }
        }
    }
    let dictionary = match key {
        EncodedChunk::Plain(col) => {
            // The key's selected rows line up with the arguments'.
            let mut keys = col.slice(0..0);
            select_encoded(key, filter, &mut keys)?;
            let decoded: Vec<_> = aggs
                .iter()
                .map(|&(f, arg)| (f, arg.values(&keys)))
                .collect();
            return group_aggregate_decoded(&[&keys], &decoded, &Bitmap::ones_with_len(selected));
        }
        EncodedChunk::Dictionary { dictionary, .. } => dictionary,
    };
    let templates: Vec<PartialAgg> = aggs
        .iter()
        .map(|&(func, arg)| state_over(func, arg.values(dictionary)))
        .collect::<Result<_>>()?;

    // One walk of the key: selected rows per code, and the code of every
    // selected row when an argument column is folded.
    let fold_rows = aggs.iter().any(|(_, arg)| matches!(arg, AggInput::Col(_)));
    let mut counts = vec![0usize; dictionary.len()];
    let mut row_codes: Vec<u32> = Vec::with_capacity(if fold_rows { selected } else { 0 });
    for_each_selected(key, filter, |code, n| {
        counts[code] += n;
        if fold_rows {
            push_n(&mut row_codes, code as u32, n);
        }
    })?;
    let dense = aggs
        .iter()
        .zip(&templates)
        .map(|(&(_, arg), template)| match arg {
            AggInput::Col(values) => Dense::fold(template, values, &row_codes, dictionary.len()),
            AggInput::Star | AggInput::Key => Ok(Dense::Counted),
        })
        .collect::<Result<Vec<_>>>()?;

    let mut out = GroupedAggs::new(templates.clone());
    for (code, &n) in counts.iter().enumerate().filter(|&(_, &n)| n > 0) {
        let parts = templates
            .iter()
            .zip(&dense)
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
        let view = |codes: Vec<u32>, runs: Vec<Run>, rows| EncodedChunk::Dictionary {
            dictionary: dict.clone(),
            codes,
            runs,
            rows,
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
        let arg_sel = arg.take(&filter.ones().collect::<Vec<_>>());
        let aggs_enc = [
            (AggFunc::Count, AggInput::Star),
            (AggFunc::Sum, AggInput::Key),
            (AggFunc::Avg, AggInput::Col(&arg_sel)),
            (AggFunc::Min, AggInput::Col(&arg_sel)),
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
        let aggs_enc = [
            (AggFunc::Min, AggInput::Col(&arg)),
            (AggFunc::Max, AggInput::Col(&arg)),
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
            codes: vec![],
            runs: vec![Run::Rle { value: 9, len: 3 }],
            rows: 3,
        };
        assert!(group_aggregate_encoded(
            &chunk,
            &[(AggFunc::Count, AggInput::Star)],
            &Bitmap::ones_with_len(3)
        )
        .is_err());
        // An argument column holds the selected rows only: a full-length
        // one under a filter that drops rows is refused.
        let key = encoded(&ColumnData::Int64(vec![1, 1, 2]));
        let some: Bitmap = [true, false, true].into_iter().collect();
        let full = ColumnData::Int64(vec![5, 6, 7]);
        assert!(
            group_aggregate_encoded(&key, &[(AggFunc::Sum, AggInput::Col(&full))], &some).is_err()
        );
        // A group's integer SUM overflows when any prefix of it leaves
        // i64, even if later rows bring it back.
        let args = ColumnData::Int64(vec![i64::MAX, 1, -5]);
        let all = Bitmap::ones_with_len(3);
        let key = encoded(&ColumnData::Int64(vec![4, 4, 4]));
        assert!(matches!(
            group_aggregate_encoded(&key, &[(AggFunc::Sum, AggInput::Col(&args))], &all),
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
            codes: vec![0, 5, 1],
            runs: vec![Run::Literal { start: 0, len: 3 }],
            rows: 3,
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
