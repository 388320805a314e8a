//! Partial (distributable) aggregate states: the one accumulator behind
//! every aggregate answer, and the machinery of aggregate pushdown, which
//! the paper lists as future work (§5, "SQL Support": "It currently lacks
//! support for aggregate pushdown such as SUM and AVG, which we aim to
//! implement in the future").
//!
//! A [`PartialAgg`] takes rows three ways, all with the semantics of the
//! ungrouped oracle [`crate::eval::eval_aggregate`]: [`PartialAgg::fold`]
//! folds an encoded chunk's selected rows (the ungrouped projection
//! stage), [`PartialAgg::add`] one value `n` times (the decoded GROUP BY
//! kernel's rows; the encoded kernel's counted states and string
//! extremes), and [`PartialAgg::merge`] another partial (the
//! coordinator).
//! [`PartialAgg::wire_bytes`] prices every pushed partial.
//!
//! A storage node builds a [`GroupedAggs`] map from [`GroupKey`] to one
//! state per aggregate over the matched rows of its chunk; the
//! coordinator merges maps key-wise in row-group order and finalizes.
//! Within a row group a group's state sees its rows in row order, so its
//! answer is the ungrouped answer over those rows, bit for bit. Across
//! row groups COUNT, MIN, MAX and integer AVG (an `i128` sum) merge
//! exactly; a float SUM/AVG adds per-row-group sums, whose last bits can
//! differ from one row-order fold; and integer SUM checks every add and
//! merge ([`SqlError::Overflow`]), so a sum whose running total leaves
//! `i64` in one order but not the other fails on one path only.
//!
//! # COUNT semantics
//!
//! `COUNT(col)` and `COUNT(*)` are equivalent in this engine: the storage
//! format has no NULLs, so both count exactly the rows that survive the
//! filter. A `Count` state counts every row handed in whatever its value,
//! so `COUNT(col)` and `COUNT(*)` build the same state; the
//! `count_col_equals_count_star` test pins the equivalence.

use crate::ast::AggFunc;
use crate::bitmap::Bitmap;
use crate::error::{Result, SqlError};
use crate::eval::{chunk_values, for_each_selected, max_f64, min_f64, string_agg_error};
use fusion_format::chunk::EncodedChunk;
use fusion_format::schema::LogicalType;
use fusion_format::value::{ColumnData, Value};
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

pub(crate) fn overflow(ctx: &str) -> SqlError {
    SqlError::Overflow(format!("SUM exceeds i64 range ({ctx})"))
}

/// A mergeable aggregate state, typed by its function and argument. Its
/// identities are the oracle's, so an empty state finishes as the oracle
/// does over no rows: integer SUM and MIN/MAX 0, float SUM `-0.0`
/// (`Iterator::sum` starts there), float MIN/MAX `±inf`, string MIN/MAX
/// `""`, AVG NaN.
#[derive(Debug, Clone, PartialEq)]
pub enum PartialAgg {
    /// Row count.
    Count(i64),
    /// Int64/Date sum.
    SumInt(i64),
    /// Int64/Date average: an exact `(sum, count)`.
    AvgInt(i128, i64),
    /// Int64/Date minimum (`None` before any row).
    MinInt(Option<i64>),
    /// Int64/Date maximum.
    MaxInt(Option<i64>),
    /// Float64 sum.
    SumFloat(f64),
    /// Float64 average: `(sum, count)`.
    AvgFloat(f64, i64),
    /// Float64 minimum; a NaN row never wins (`min_f64`).
    MinFloat(f64),
    /// Float64 maximum (`max_f64`).
    MaxFloat(f64),
    /// Utf8 minimum (`None` before any row).
    MinStr(Option<String>),
    /// Utf8 maximum.
    MaxStr(Option<String>),
}

impl PartialAgg {
    /// The empty state of `func` over a column of logical type `ty`
    /// (`COUNT` ignores `ty`).
    ///
    /// # Errors
    ///
    /// [`SqlError::TypeError`] for SUM/AVG of strings, as the oracle.
    pub fn new(func: AggFunc, ty: LogicalType) -> Result<PartialAgg> {
        use LogicalType::*;
        Ok(match (func, ty) {
            (AggFunc::Count, _) => PartialAgg::Count(0),
            (AggFunc::Sum, Int64 | Date) => PartialAgg::SumInt(0),
            (AggFunc::Avg, Int64 | Date) => PartialAgg::AvgInt(0, 0),
            (AggFunc::Min, Int64 | Date) => PartialAgg::MinInt(None),
            (AggFunc::Max, Int64 | Date) => PartialAgg::MaxInt(None),
            (AggFunc::Sum, Float64) => PartialAgg::SumFloat(-0.0),
            (AggFunc::Avg, Float64) => PartialAgg::AvgFloat(-0.0, 0),
            (AggFunc::Min, Float64) => PartialAgg::MinFloat(f64::INFINITY),
            (AggFunc::Max, Float64) => PartialAgg::MaxFloat(f64::NEG_INFINITY),
            (AggFunc::Min, Utf8) => PartialAgg::MinStr(None),
            (AggFunc::Max, Utf8) => PartialAgg::MaxStr(None),
            (func @ (AggFunc::Sum | AggFunc::Avg), Utf8) => return Err(string_agg_error(func)),
        })
    }

    /// Folds in the selected rows of `rows`, in row order — bit-identical
    /// to [`crate::eval::eval_aggregate`] over those rows appended to the
    /// ones already folded, without materializing them. (The one
    /// exception is the sign and payload of a NaN that a float sum
    /// produces, which Rust leaves unspecified.) Float sums add an RLE
    /// run's value once per selected row (repeated addition rounds
    /// differently from a product); float MIN/MAX fold a run in once.
    /// Integer and string MIN/MAX fold the dictionary entries the rows
    /// use, each once ([`Selection`]): their answer does not depend on
    /// the order or number of rows holding a value.
    ///
    /// # Errors
    ///
    /// A chunk of another physical type than the state, the structural
    /// errors of [`crate::eval::select_encoded`], or
    /// [`SqlError::Overflow`] when an integer SUM leaves `i64`.
    pub fn fold(&mut self, rows: &Selection<'_>) -> Result<()> {
        use PartialAgg::*;
        let (chunk, filter) = (rows.chunk, rows.filter);
        // Each arm folds into locals and stores them back once: state
        // behind `&mut self` would be reloaded on every row.
        match (&mut *self, chunk_values(chunk)) {
            (Count(c), _) => {
                let mut count = *c;
                for_each_selected(chunk, filter, |_, n| count += n as i64)?;
                *c = count;
                Ok(())
            }
            (SumInt(acc), ColumnData::Int64(v)) => {
                // A running i128 total cannot overflow, and it leaves the
                // i64 range exactly when sequential checked i64 adds
                // would fail: acc + k·x is monotonic in k, so a run's
                // last prefix is its extreme one.
                let (mut sum, mut fits) = (*acc as i128, true);
                for_each_selected(chunk, filter, |i, n| {
                    sum += v[i] as i128 * n as i128;
                    fits &= i64::try_from(sum).is_ok();
                })?;
                match i64::try_from(sum) {
                    Ok(sum) if fits => *acc = sum,
                    _ => return Err(overflow("aggregate")),
                }
                Ok(())
            }
            (AvgInt(acc, cnt), ColumnData::Int64(v)) => {
                let (mut sum, mut count) = (*acc, *cnt);
                for_each_selected(chunk, filter, |i, n| {
                    sum += v[i] as i128 * n as i128;
                    count += n as i64;
                })?;
                (*acc, *cnt) = (sum, count);
                Ok(())
            }
            (MinInt(m), ColumnData::Int64(v)) => {
                if let Some(lo) = rows.int_extreme(v, i64::MAX, i64::min)? {
                    *m = Some(m.map_or(lo, |m| m.min(lo)));
                }
                Ok(())
            }
            (MaxInt(m), ColumnData::Int64(v)) => {
                if let Some(hi) = rows.int_extreme(v, i64::MIN, i64::max)? {
                    *m = Some(m.map_or(hi, |m| m.max(hi)));
                }
                Ok(())
            }
            (SumFloat(acc), ColumnData::Float64(v)) => {
                let mut sum = *acc;
                for_each_selected(chunk, filter, |i, n| {
                    for _ in 0..n {
                        sum += v[i];
                    }
                })?;
                *acc = sum;
                Ok(())
            }
            (AvgFloat(acc, cnt), ColumnData::Float64(v)) => {
                let (mut sum, mut count) = (*acc, *cnt);
                for_each_selected(chunk, filter, |i, n| {
                    for _ in 0..n {
                        sum += v[i];
                    }
                    count += n as i64;
                })?;
                (*acc, *cnt) = (sum, count);
                Ok(())
            }
            (MinFloat(m), ColumnData::Float64(v)) => {
                let mut lo = *m;
                for_each_selected(chunk, filter, |i, _| lo = min_f64(lo, v[i]))?;
                *m = lo;
                Ok(())
            }
            (MaxFloat(m), ColumnData::Float64(v)) => {
                let mut hi = *m;
                for_each_selected(chunk, filter, |i, _| hi = max_f64(hi, v[i]))?;
                *m = hi;
                Ok(())
            }
            (MinStr(m), ColumnData::Utf8(v)) => {
                let mut lo: Option<usize> = None;
                rows.for_each_used(|i| {
                    if lo.is_none_or(|lo| v[i] < v[lo]) {
                        lo = Some(i);
                    }
                })?;
                lo.into_iter().for_each(|i| keep(m, &v[i], Ordering::Less));
                Ok(())
            }
            (MaxStr(m), ColumnData::Utf8(v)) => {
                let mut hi: Option<usize> = None;
                rows.for_each_used(|i| {
                    if hi.is_none_or(|hi| v[i] > v[hi]) {
                        hi = Some(i);
                    }
                })?;
                hi.into_iter()
                    .for_each(|i| keep(m, &v[i], Ordering::Greater));
                Ok(())
            }
            (state, values) => Err(mismatch(state, values)),
        }
    }

    /// Folds `values[i]` in `n` times, as `n` rows in a row: the `(i, n)`
    /// shape of an RLE run or a single row. `COUNT`, integer SUM and AVG
    /// take the run in O(1) (integer SUM overflows exactly when `n`
    /// sequential checked adds would); float sums loop `n` adds, as
    /// [`PartialAgg::fold`] does.
    ///
    /// # Errors
    ///
    /// A value of another physical type than the state, or
    /// [`SqlError::Overflow`] when an integer SUM leaves `i64`.
    pub fn add(&mut self, values: &ColumnData, i: usize, n: usize) -> Result<()> {
        use PartialAgg::*;
        match (&mut *self, values) {
            _ if n == 0 => {}
            (Count(c), _) => *c += n as i64,
            (SumInt(acc), ColumnData::Int64(v)) => {
                let sum = *acc as i128 + v[i] as i128 * n as i128;
                *acc = i64::try_from(sum).map_err(|_| overflow("aggregate"))?;
            }
            (AvgInt(acc, cnt), ColumnData::Int64(v)) => {
                *acc += v[i] as i128 * n as i128;
                *cnt += n as i64;
            }
            (MinInt(m), ColumnData::Int64(v)) => keep(m, &v[i], Ordering::Less),
            (MaxInt(m), ColumnData::Int64(v)) => keep(m, &v[i], Ordering::Greater),
            (SumFloat(acc), ColumnData::Float64(v)) => {
                for _ in 0..n {
                    *acc += v[i];
                }
            }
            (AvgFloat(acc, cnt), ColumnData::Float64(v)) => {
                for _ in 0..n {
                    *acc += v[i];
                }
                *cnt += n as i64;
            }
            (MinFloat(m), ColumnData::Float64(v)) => *m = min_f64(*m, v[i]),
            (MaxFloat(m), ColumnData::Float64(v)) => *m = max_f64(*m, v[i]),
            (MinStr(m), ColumnData::Utf8(v)) => keep(m, &v[i], Ordering::Less),
            (MaxStr(m), ColumnData::Utf8(v)) => keep(m, &v[i], Ordering::Greater),
            (state, values) => return Err(mismatch(state, values)),
        }
        Ok(())
    }

    /// Merges another partial of the same shape into `self`, as if its
    /// rows came after this state's.
    ///
    /// # Errors
    ///
    /// Shape mismatch (indicates a planner bug); [`SqlError::Overflow`]
    /// when merging integer SUMs overflows `i64`.
    pub fn merge(&mut self, other: &PartialAgg) -> Result<()> {
        use PartialAgg::*;
        match (&mut *self, other) {
            (Count(a), Count(b)) => *a += b,
            (SumInt(a), SumInt(b)) => *a = a.checked_add(*b).ok_or_else(|| overflow("merge"))?,
            (AvgInt(s, n), AvgInt(s2, n2)) => (*s, *n) = (*s + s2, *n + n2),
            (MinInt(a), MinInt(b)) => b.iter().for_each(|b| keep(a, b, Ordering::Less)),
            (MaxInt(a), MaxInt(b)) => b.iter().for_each(|b| keep(a, b, Ordering::Greater)),
            (SumFloat(a), SumFloat(b)) => *a += b,
            (AvgFloat(s, n), AvgFloat(s2, n2)) => (*s, *n) = (*s + s2, *n + n2),
            (MinFloat(a), MinFloat(b)) => *a = min_f64(*a, *b),
            (MaxFloat(a), MaxFloat(b)) => *a = max_f64(*a, *b),
            (MinStr(a), MinStr(b)) => b.iter().for_each(|b| keep(a, b, Ordering::Less)),
            (MaxStr(a), MaxStr(b)) => b.iter().for_each(|b| keep(a, b, Ordering::Greater)),
            (a, b) => {
                return Err(SqlError::Invalid(format!(
                    "cannot merge partial aggregates {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Finalizes into the result value; its type is
    /// [`PartialAgg::output_type`].
    pub fn finalize(&self) -> Value {
        use PartialAgg::*;
        let avg = |sum: f64, n: i64| Value::Float(if n == 0 { f64::NAN } else { sum / n as f64 });
        match self {
            Count(n) | SumInt(n) => Value::Int(*n),
            AvgInt(s, n) => avg(*s as f64, *n),
            MinInt(m) | MaxInt(m) => Value::Int(m.unwrap_or(0)),
            SumFloat(x) | MinFloat(x) | MaxFloat(x) => Value::Float(*x),
            AvgFloat(s, n) => avg(*s, *n),
            MinStr(m) | MaxStr(m) => Value::Str(m.clone().unwrap_or_default()),
        }
    }

    /// The logical type of the finalized value: the type of the state's
    /// output column.
    pub fn output_type(&self) -> LogicalType {
        use PartialAgg::*;
        match self {
            Count(_) | SumInt(_) | MinInt(_) | MaxInt(_) => LogicalType::Int64,
            AvgInt(..) | SumFloat(_) | AvgFloat(..) | MinFloat(_) | MaxFloat(_) => {
                LogicalType::Float64
            }
            MinStr(_) | MaxStr(_) => LogicalType::Utf8,
        }
    }

    /// Wire size of a partial (for the latency model): a tagged scalar,
    /// AVG's `(sum, count)` pair, or a string extreme with its bytes.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            PartialAgg::MinStr(Some(s)) | PartialAgg::MaxStr(Some(s)) => 16 + s.len() as u64,
            PartialAgg::AvgInt(..) | PartialAgg::AvgFloat(..) => 24,
            _ => 16,
        }
    }
}

/// The rows of one chunk that one filter selects, as
/// [`PartialAgg::fold`] reads them. The dictionary codes those rows use
/// are marked once, by the first integer or string extreme folded over
/// the selection, and shared with the next: `min(c), max(c)` walk the
/// chunk's rows once. A filter that selects every row reads the view's
/// own memo of its used entries instead ([`UsedEntries`]), which one
/// walk fills for the view's life: an all-rows extreme over a cached
/// view walks no rows.
///
/// [`UsedEntries`]: fusion_format::chunk::UsedEntries
#[derive(Debug)]
pub struct Selection<'a> {
    chunk: &'a EncodedChunk,
    filter: &'a Bitmap,
    used: OnceCell<Vec<bool>>,
}

impl<'a> Selection<'a> {
    /// The rows of `chunk` that `filter` selects.
    pub fn new(chunk: &'a EncodedChunk, filter: &'a Bitmap) -> Selection<'a> {
        Selection {
            chunk,
            filter,
            used: OnceCell::new(),
        }
    }

    /// Visits the entries of `chunk_values(chunk)` the selected rows
    /// use: a dictionary chunk's used codes, each once, in code order; a
    /// plain chunk's selected rows in row order. Float extremes do not
    /// use this: codes follow first occurrence, so a fold in code order
    /// could pick the other signed zero.
    fn for_each_used(&self, mut f: impl FnMut(usize)) -> Result<()> {
        match self.used()? {
            Some(used) => (0..used.len()).filter(|&i| used[i]).for_each(f),
            None => for_each_selected(self.chunk, self.filter, |i, _| f(i))?,
        }
        Ok(())
    }

    /// The `pick` (`min` or `max`, identity `init`) of the integer values
    /// `v` the selected rows use, `None` when no row is selected. Over a
    /// dictionary's used entries this is one branch-free pass, which the
    /// compiler vectorizes.
    fn int_extreme(
        &self,
        v: &[i64],
        init: i64,
        pick: impl Fn(i64, i64) -> i64,
    ) -> Result<Option<i64>> {
        let Some(used) = self.used()? else {
            let (mut acc, mut seen) = (init, false);
            for_each_selected(self.chunk, self.filter, |i, _| {
                acc = pick(acc, v[i]);
                seen = true;
            })?;
            return Ok(seen.then_some(acc));
        };
        let acc = v
            .iter()
            .zip(used)
            .fold(init, |acc, (&x, &u)| pick(acc, if u { x } else { init }));
        Ok(used.contains(&true).then_some(acc))
    }

    /// `used[i]` for each dictionary entry `i` the selected rows use, or
    /// `None` for a plain chunk: the view's memo when the filter selects
    /// every row, else this selection's own walk, made once.
    fn used(&self) -> Result<Option<&[bool]>> {
        let EncodedChunk::Dictionary {
            dictionary,
            used: memo,
            ..
        } = self.chunk
        else {
            return Ok(None);
        };
        let walk = || {
            let mut used = vec![false; dictionary.len()];
            for_each_selected(self.chunk, self.filter, |i, _| used[i] = true)?;
            Ok(used)
        };
        let used: &[bool] = if self.selects_every_row() {
            memo.get_or_walk(walk)?
        } else {
            match self.used.get() {
                Some(used) => used,
                None => {
                    let used = walk()?;
                    self.used.get_or_init(|| used)
                }
            }
        };
        Ok(Some(used))
    }

    /// Whether the filter is the chunk's length and selects every row,
    /// so the rows use exactly the entries the view's memo records.
    fn selects_every_row(&self) -> bool {
        self.filter.len() == self.chunk.rows() && self.filter.count_ones() == self.filter.len()
    }
}

/// Replaces the extreme `acc` by `x` when there is none yet or `x`
/// compares `want` to it.
fn keep<T: Ord + Clone>(acc: &mut Option<T>, x: &T, want: Ordering) {
    if acc.as_ref().is_none_or(|a| x.cmp(a) == want) {
        *acc = Some(x.clone());
    }
}

pub(crate) fn mismatch(state: &PartialAgg, values: &ColumnData) -> SqlError {
    SqlError::TypeError(format!(
        "cannot fold {} column into {state:?}",
        values.physical_name()
    ))
}

/// A group identity: the `GROUP BY` key values for one output row.
///
/// Wraps `Vec<Value>` to give floats *bit-pattern* equality/hashing (so a
/// NaN key forms one group instead of infinitely many) and a total order
/// (`f64::total_cmp`) so grouped results can be emitted in a canonical,
/// executor-independent sort order.
#[derive(Debug, Clone)]
pub struct GroupKey(pub Vec<Value>);

fn value_total_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use Value::*;
    fn rank(v: &Value) -> u8 {
        match v {
            Int(_) => 0,
            Float(_) => 1,
            Str(_) => 2,
        }
    }
    match (a, b) {
        (Int(x), Int(y)) => x.cmp(y),
        (Float(x), Float(y)) => x.total_cmp(y),
        (Str(x), Str(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

impl PartialEq for GroupKey {
    fn eq(&self, other: &GroupKey) -> bool {
        self.0.len() == other.0.len()
            && self
                .0
                .iter()
                .zip(&other.0)
                .all(|(a, b)| value_total_cmp(a, b) == std::cmp::Ordering::Equal)
    }
}

impl Eq for GroupKey {}

impl Hash for GroupKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in &self.0 {
            match v {
                Value::Int(x) => {
                    0u8.hash(state);
                    x.hash(state);
                }
                Value::Float(x) => {
                    1u8.hash(state);
                    x.to_bits().hash(state);
                }
                Value::Str(s) => {
                    2u8.hash(state);
                    s.hash(state);
                }
            }
        }
    }
}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &GroupKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupKey {
    fn cmp(&self, other: &GroupKey) -> std::cmp::Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            let ord = value_total_cmp(a, b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl GroupKey {
    /// Wire size of the key (same tagged-scalar convention as
    /// [`PartialAgg::wire_bytes`]).
    pub fn wire_bytes(&self) -> u64 {
        self.0
            .iter()
            .map(|v| match v {
                Value::Str(s) => 16 + s.len() as u64,
                _ => 16,
            })
            .sum()
    }
}

/// Keyed partial-aggregate state: one `Vec<PartialAgg>` (one slot per
/// aggregate in SELECT order) per group. This is what a storage node
/// ships back for a grouped query instead of projected rows, and what the
/// coordinator merges across chunks.
///
/// Only groups with at least one matching row exist — empty groups are
/// never materialized, so a query matching nothing returns zero rows.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedAggs {
    /// Identity states cloned for each newly seen group.
    templates: Vec<PartialAgg>,
    /// Group → one state per aggregate.
    pub groups: HashMap<GroupKey, Vec<PartialAgg>>,
}

impl GroupedAggs {
    /// Creates an empty map whose new groups start from `templates`
    /// (built with [`PartialAgg::new`] per aggregate).
    pub fn new(templates: Vec<PartialAgg>) -> GroupedAggs {
        GroupedAggs {
            templates,
            groups: HashMap::new(),
        }
    }

    /// The per-aggregate states for `key`, created from the empty
    /// templates on first sight.
    pub fn slots(&mut self, key: GroupKey) -> &mut Vec<PartialAgg> {
        self.groups
            .entry(key)
            .or_insert_with(|| self.templates.clone())
    }

    /// Merges another node's map into this one, key-wise. Groups only in
    /// `other` are adopted as-is; shared groups merge slot by slot.
    /// Distinct keys are independent, so the iteration order of `other`
    /// cannot affect the result — but callers *must* merge chunk maps in
    /// a fixed chunk order for float sums to stay deterministic.
    ///
    /// # Errors
    ///
    /// Slot-count or shape mismatch (planner bug), or SUM overflow.
    pub fn merge(&mut self, other: &GroupedAggs) -> Result<()> {
        for (key, parts) in &other.groups {
            match self.groups.get_mut(key) {
                None => {
                    self.groups.insert(key.clone(), parts.clone());
                }
                Some(mine) => {
                    if mine.len() != parts.len() {
                        return Err(SqlError::Invalid(format!(
                            "grouped aggregate arity mismatch: {} vs {}",
                            mine.len(),
                            parts.len()
                        )));
                    }
                    for (a, b) in mine.iter_mut().zip(parts) {
                        a.merge(b)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no group has been seen.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total wire size of the keyed state — what a node actually ships
    /// instead of projected rows.
    pub fn wire_bytes(&self) -> u64 {
        self.groups
            .iter()
            .map(|(k, parts)| {
                k.wire_bytes() + parts.iter().map(PartialAgg::wire_bytes).sum::<u64>()
            })
            .sum()
    }

    /// Consumes the map into `(key, states)` pairs sorted by key — the
    /// canonical output order of a grouped query.
    pub fn into_sorted(self) -> Vec<(GroupKey, Vec<PartialAgg>)> {
        let mut out: Vec<_> = self.groups.into_iter().collect();
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The partial of `func` over every row of `col`.
    fn partial(func: AggFunc, col: &ColumnData) -> Result<PartialAgg> {
        let ty = match col {
            ColumnData::Int64(_) => LogicalType::Int64,
            ColumnData::Float64(_) => LogicalType::Float64,
            ColumnData::Utf8(_) => LogicalType::Utf8,
        };
        let mut p = PartialAgg::new(func, ty)?;
        for row in 0..col.len() {
            p.add(col, row, 1)?;
        }
        Ok(p)
    }

    #[test]
    fn count_merges() {
        let mut a = partial(AggFunc::Count, &ColumnData::Int64(vec![1, 2])).unwrap();
        let b = partial(AggFunc::Count, &ColumnData::Int64(vec![3])).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finalize(), Value::Int(3));
    }

    #[test]
    fn sums_merge_exactly_for_ints() {
        let mut a = partial(AggFunc::Sum, &ColumnData::Int64(vec![1, 2])).unwrap();
        let b = partial(AggFunc::Sum, &ColumnData::Int64(vec![10])).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finalize(), Value::Int(13));
    }

    #[test]
    fn avg_carries_sum_and_count() {
        let mut a = partial(AggFunc::Avg, &ColumnData::Float64(vec![1.0, 3.0])).unwrap();
        let b = partial(AggFunc::Avg, &ColumnData::Float64(vec![8.0])).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finalize(), Value::Float(4.0));
        // Empty average is NaN, not a crash.
        let empty = PartialAgg::new(AggFunc::Avg, LogicalType::Float64).unwrap();
        match empty.finalize() {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected NaN float, got {other:?}"),
        }
    }

    #[test]
    fn min_max_across_partials() {
        let mut mn = partial(
            AggFunc::Min,
            &ColumnData::Utf8(vec!["m".into(), "z".into()]),
        )
        .unwrap();
        let other = partial(AggFunc::Min, &ColumnData::Utf8(vec!["c".into()])).unwrap();
        mn.merge(&other).unwrap();
        assert_eq!(mn.finalize(), Value::Str("c".into()));

        let mut mx = PartialAgg::new(AggFunc::Max, LogicalType::Date).unwrap();
        mx.merge(&partial(AggFunc::Max, &ColumnData::Int64(vec![7])).unwrap())
            .unwrap();
        mx.merge(&PartialAgg::MaxInt(None)).unwrap();
        assert_eq!(mx.finalize(), Value::Int(7));
    }

    #[test]
    fn shape_mismatch_is_error() {
        let mut a = PartialAgg::Count(1);
        assert!(a.merge(&PartialAgg::SumInt(2)).is_err());
        let mut f = PartialAgg::SumFloat(0.0);
        assert!(f.add(&ColumnData::Int64(vec![1]), 0, 1).is_err());
    }

    #[test]
    fn sum_over_strings_is_error() {
        assert!(PartialAgg::new(AggFunc::Sum, LogicalType::Utf8).is_err());
        assert!(PartialAgg::new(AggFunc::Avg, LogicalType::Utf8).is_err());
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(PartialAgg::Count(5).wire_bytes(), 16);
        assert_eq!(PartialAgg::AvgFloat(1.0, 2).wire_bytes(), 24);
        assert_eq!(PartialAgg::AvgInt(1, 2).wire_bytes(), 24);
        assert_eq!(PartialAgg::MinStr(Some("abcd".into())).wire_bytes(), 20);
        assert_eq!(PartialAgg::MaxStr(None).wire_bytes(), 16);
    }

    #[test]
    fn count_col_equals_count_star() {
        // The format has no NULLs, so COUNT(col) over the filtered column
        // must equal COUNT(*) over the filtered row count — pin it.
        let filtered = ColumnData::Float64(vec![1.0, f64::NAN, 3.0]);
        let count_col = partial(AggFunc::Count, &filtered).unwrap();
        let count_star = PartialAgg::Count(filtered.len() as i64);
        assert_eq!(count_col, count_star);
        assert_eq!(count_col.finalize(), Value::Int(3));
    }

    #[test]
    fn sum_overflow_is_typed_error() {
        // a column's rows in turn
        let big = ColumnData::Int64(vec![i64::MAX, 1]);
        assert!(matches!(
            partial(AggFunc::Sum, &big),
            Err(SqlError::Overflow(_))
        ));
        // merge
        let mut a = PartialAgg::SumInt(i64::MAX);
        assert!(matches!(
            a.merge(&PartialAgg::SumInt(1)),
            Err(SqlError::Overflow(_))
        ));
        // run-multiplied add: 2 × (i64::MAX/2 + 1) wraps i64 but not
        // i128 — the product must be checked, not truncated.
        let mut c = PartialAgg::SumInt(0);
        let run = ColumnData::Int64(vec![i64::MAX / 2 + 1]);
        assert!(matches!(c.add(&run, 0, 2), Err(SqlError::Overflow(_))));
        // AVG sums in i128, so it is exact past i64.
        let avg = partial(AggFunc::Avg, &big).unwrap();
        assert_eq!(avg, PartialAgg::AvgInt(i64::MAX as i128 + 1, 2));
        assert_eq!(avg.finalize(), Value::Float((i64::MAX as f64 + 1.0) / 2.0));
        // Negative values may cancel: MAX then MIN is fine.
        let mut d = PartialAgg::SumInt(i64::MAX);
        d.merge(&PartialAgg::SumInt(i64::MIN)).unwrap();
        assert_eq!(d.finalize(), Value::Int(-1));
    }

    #[test]
    fn add_run_matches_sequential() {
        let col = ColumnData::Float64(vec![0.1]);
        let mut fast = PartialAgg::SumFloat(-0.0);
        fast.add(&col, 0, 7).unwrap();
        let mut slow = PartialAgg::SumFloat(-0.0);
        for _ in 0..7 {
            slow.add(&col, 0, 1).unwrap();
        }
        // Bit-identical, not merely close: a run loops adds.
        assert_eq!(fast, slow);

        let ints = ColumnData::Int64(vec![-3]);
        let mut fast = PartialAgg::SumInt(0);
        fast.add(&ints, 0, 5).unwrap();
        assert_eq!(fast.finalize(), Value::Int(-15));

        let mut mn = PartialAgg::MinInt(None);
        mn.add(&ints, 0, 5).unwrap();
        assert_eq!(mn.finalize(), Value::Int(-3));

        let mut zero = PartialAgg::Count(0);
        zero.add(&ints, 0, 0).unwrap();
        assert_eq!(zero.finalize(), Value::Int(0));
    }

    #[test]
    fn float_states_take_the_oracle_semantics() {
        // NaN rows never win a float extreme, and an empty one is ±inf.
        let f = ColumnData::Float64(vec![f64::NAN, 1.0, 2.0]);
        assert_eq!(
            partial(AggFunc::Min, &f).unwrap().finalize(),
            Value::Float(1.0)
        );
        assert_eq!(
            partial(AggFunc::Max, &f).unwrap().finalize(),
            Value::Float(2.0)
        );
        let empty = PartialAgg::new(AggFunc::Min, LogicalType::Float64).unwrap();
        assert_eq!(empty.finalize(), Value::Float(f64::INFINITY));
        // A sum of negative zeros stays -0.0, across a merge too.
        let z = ColumnData::Float64(vec![-0.0; 3]);
        let mut sum = partial(AggFunc::Sum, &z).unwrap();
        sum.merge(&partial(AggFunc::Sum, &z).unwrap()).unwrap();
        assert!(matches!(sum.finalize(), Value::Float(x) if x.to_bits() == (-0.0f64).to_bits()));
        // A tie between zeros keeps the earlier one, as a row-order fold.
        let mut lo = partial(AggFunc::Min, &z).unwrap();
        lo.merge(&partial(AggFunc::Min, &ColumnData::Float64(vec![0.0])).unwrap())
            .unwrap();
        assert!(matches!(lo.finalize(), Value::Float(x) if x.to_bits() == (-0.0f64).to_bits()));
        // Integer AVG is exact: 2^60 + 1 - 2^60 averages to 1/3.
        let i = ColumnData::Int64(vec![1 << 60, 1, -(1 << 60)]);
        assert_eq!(
            partial(AggFunc::Avg, &i).unwrap().finalize(),
            Value::Float(1.0 / 3.0)
        );
    }

    #[test]
    fn group_key_float_semantics() {
        use std::collections::hash_map::DefaultHasher;
        let nan1 = GroupKey(vec![Value::Float(f64::NAN)]);
        let nan2 = GroupKey(vec![Value::Float(f64::NAN)]);
        assert_eq!(nan1, nan2, "NaN keys must form a single group");
        let h = |k: &GroupKey| {
            let mut s = DefaultHasher::new();
            k.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&nan1), h(&nan2));
        // Total order: -0.0 < 0.0 < 1.0 < NaN under total_cmp.
        let mut keys = [
            nan1.clone(),
            GroupKey(vec![Value::Float(1.0)]),
            GroupKey(vec![Value::Float(0.0)]),
            GroupKey(vec![Value::Float(-0.0)]),
        ];
        keys.sort();
        assert_eq!(keys[0], GroupKey(vec![Value::Float(-0.0)]));
        assert_eq!(keys[3], nan1);
    }

    #[test]
    fn grouped_merge_key_wise() {
        let templates = vec![PartialAgg::Count(0), PartialAgg::SumInt(0)];
        let col = ColumnData::Int64(vec![10, 20, 30]);
        let mut a = GroupedAggs::new(templates.clone());
        for row in [0usize, 1] {
            let slots = a.slots(GroupKey(vec![Value::Str("x".into())]));
            for s in slots.iter_mut() {
                s.add(&col, row, 1).unwrap();
            }
        }
        let mut b = GroupedAggs::new(templates);
        for (key, row) in [("x", 2usize), ("y", 0)] {
            let slots = b.slots(GroupKey(vec![Value::Str(key.into())]));
            for s in slots.iter_mut() {
                s.add(&col, row, 1).unwrap();
            }
        }
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 2);
        let sorted = a.into_sorted();
        assert_eq!(sorted[0].0, GroupKey(vec![Value::Str("x".into())]));
        assert_eq!(sorted[0].1[0].finalize(), Value::Int(3)); // count
        assert_eq!(sorted[0].1[1].finalize(), Value::Int(60)); // sum
        assert_eq!(sorted[1].1[0].finalize(), Value::Int(1));
        assert_eq!(sorted[1].1[1].finalize(), Value::Int(10));
    }

    #[test]
    fn grouped_wire_bytes_count_keys_and_states() {
        let mut g = GroupedAggs::new(vec![PartialAgg::Count(0)]);
        g.slots(GroupKey(vec![Value::Str("ab".into())]));
        // key 16+2, one Count state 16.
        assert_eq!(g.wire_bytes(), 34);
        assert!(!g.is_empty());
    }

    /// A hand-built view over `dictionary` whose rows use `codes`, in
    /// one literal span.
    fn view(dictionary: ColumnData, codes: Vec<u8>) -> EncodedChunk {
        let rows = codes.len();
        EncodedChunk::Dictionary {
            dictionary,
            codes: fusion_format::chunk::Codes::U8(codes),
            runs: vec![fusion_format::encoding::rle::Run::Literal {
                start: 0,
                len: rows,
            }],
            rows,
            stream_weight: 0,
            used: Default::default(),
        }
    }

    fn fold_all(func: AggFunc, ty: LogicalType, chunk: &EncodedChunk) -> Result<Value> {
        let mut state = PartialAgg::new(func, ty)?;
        let all = Bitmap::ones_with_len(chunk.rows());
        state.fold(&Selection::new(chunk, &all))?;
        Ok(state.finalize())
    }

    #[test]
    fn all_rows_extremes_read_only_the_used_entries() {
        // Entries 0 and 4 sit below and above every used one, unused.
        let ints = view(
            ColumnData::Int64(vec![1, 5, 10, 20, 30]),
            vec![2, 1, 3, 2, 1],
        );
        let strs = view(
            ColumnData::Utf8(["a", "m", "k", "q", "z"].map(String::from).to_vec()),
            vec![1, 3, 2, 2],
        );
        for _ in 0..2 {
            // The first fold fills the memo, the second reads it.
            assert_eq!(
                fold_all(AggFunc::Min, LogicalType::Int64, &ints).unwrap(),
                Value::Int(5)
            );
            assert_eq!(
                fold_all(AggFunc::Max, LogicalType::Date, &ints).unwrap(),
                Value::Int(20)
            );
            assert_eq!(
                fold_all(AggFunc::Min, LogicalType::Utf8, &strs).unwrap(),
                Value::from("k")
            );
            assert_eq!(
                fold_all(AggFunc::Max, LogicalType::Utf8, &strs).unwrap(),
                Value::from("q")
            );
        }
        let EncodedChunk::Dictionary { used, .. } = &ints else {
            unreachable!("a dictionary view")
        };
        assert_eq!(used.get(), Some(&[false, true, true, true, false][..]));
        // Derived data: a filled memo leaves equality alone.
        let fresh = view(
            ColumnData::Int64(vec![1, 5, 10, 20, 30]),
            vec![2, 1, 3, 2, 1],
        );
        assert_eq!(ints, fresh);
        // A partial filter walks its own rows, not the memo.
        let mut max = PartialAgg::new(AggFunc::Max, LogicalType::Int64).unwrap();
        let first_two: Bitmap = [true, true, false, false, false].into_iter().collect();
        max.fold(&Selection::new(&ints, &first_two)).unwrap();
        assert_eq!(max.finalize(), Value::Int(10));
    }

    #[test]
    fn threads_share_one_memo() {
        // 2,519 entries (u16 codes) in a scattered order, so the writer
        // keeps the dictionary.
        let draws = (0..15_000u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 2_519);
        let col = ColumnData::Int64(
            (0..2_519)
                .chain(draws)
                .map(|k| (k as i64 + 1).wrapping_mul(0x5851_F42D_4C95_7F2D))
                .collect(),
        );
        let (bytes, _) = fusion_format::chunk::encode_column_chunk(&col);
        let chunk = std::sync::Arc::new(
            fusion_format::chunk::read_encoded_chunk(&bytes, LogicalType::Date).unwrap(),
        );
        let want = col.min_max().unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let chunk = std::sync::Arc::clone(&chunk);
                std::thread::spawn(move || {
                    (
                        fold_all(AggFunc::Min, LogicalType::Date, &chunk).unwrap(),
                        fold_all(AggFunc::Max, LogicalType::Date, &chunk).unwrap(),
                    )
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), want);
        }
        let EncodedChunk::Dictionary { used, .. } = &*chunk else {
            panic!("expected a dictionary view")
        };
        assert!(used.get().is_some_and(|used| used.iter().all(|&u| u)));
    }

    #[test]
    fn malformed_views_fail_every_time() {
        // Code 7 indexes no entry of a 2-entry dictionary.
        let bad = view(ColumnData::Int64(vec![10, 20]), vec![0, 7, 1]);
        let first = fold_all(AggFunc::Min, LogicalType::Int64, &bad).unwrap_err();
        let second = fold_all(AggFunc::Min, LogicalType::Int64, &bad).unwrap_err();
        assert!(matches!(first, SqlError::Invalid(_)));
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        let EncodedChunk::Dictionary { used, .. } = &bad else {
            unreachable!("a dictionary view")
        };
        assert!(used.get().is_none(), "a failed walk stores nothing");
    }

    #[test]
    fn merged_equals_whole_for_exact_aggregates() {
        // Partition-then-merge must equal whole-column computation for the
        // aggregates that merge exactly, integer AVG included.
        let whole = ColumnData::Int64((0..1000).map(|i| i * 3 - 500).collect());
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            let direct = partial(func, &whole).unwrap().finalize();
            let mut acc = PartialAgg::new(func, LogicalType::Int64).unwrap();
            for part in [0..100usize, 100..101, 101..1000] {
                let sub = whole.slice(part);
                acc.merge(&partial(func, &sub).unwrap()).unwrap();
            }
            assert_eq!(acc.finalize(), direct, "{func}");
        }
    }
}
