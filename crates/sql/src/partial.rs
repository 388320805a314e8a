//! Partial (distributable) aggregates — the machinery behind aggregate
//! pushdown, the extension the paper lists as future work (§5, "SQL
//! Support": "It currently lacks support for aggregate pushdown such as
//! SUM and AVG, which we aim to implement in the future").
//!
//! A storage node computes a [`PartialAgg`] over the matched rows of its
//! chunk; the coordinator merges partials across chunks and finalizes.
//! COUNT/SUM/MIN/MAX merge exactly; AVG carries (sum, count).
//!
//! For `GROUP BY`, the same states are kept *per group*: a node builds a
//! [`GroupedAggs`] map from [`GroupKey`] to one state per aggregate, and
//! the coordinator merges maps key-wise. Integer `SUM` uses checked
//! arithmetic throughout ([`SqlError::Overflow`]) so run-length-multiplied
//! accumulation cannot silently wrap.
//!
//! # COUNT semantics
//!
//! `COUNT(col)` and `COUNT(*)` are equivalent in this engine: the storage
//! format has no NULLs, so both count exactly the rows that survive the
//! filter. [`PartialAgg::compute`] receives the already-filtered column
//! for `COUNT(col)` and the executors pass the filtered row count for
//! `COUNT(*)`; the `count_col_equals_count_star` test pins the
//! equivalence.

use crate::ast::AggFunc;
use crate::error::{Result, SqlError};
use fusion_format::value::{ColumnData, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

pub(crate) fn overflow(ctx: &str) -> SqlError {
    SqlError::Overflow(format!("SUM exceeds i64 range ({ctx})"))
}

/// A mergeable partial aggregate state.
#[derive(Debug, Clone, PartialEq)]
pub enum PartialAgg {
    /// Row count.
    Count(i64),
    /// Integer sum.
    SumInt(i64),
    /// Float sum.
    SumFloat(f64),
    /// Running minimum (`None` when no rows seen).
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
    /// Average: (sum, count).
    Avg(f64, i64),
}

impl PartialAgg {
    /// The identity element for `func` over a column of this physical
    /// type (`col` may be `None` for `COUNT(*)`).
    pub fn identity(func: AggFunc, col: Option<&ColumnData>) -> PartialAgg {
        match func {
            AggFunc::Count => PartialAgg::Count(0),
            AggFunc::Sum => match col {
                Some(ColumnData::Float64(_)) => PartialAgg::SumFloat(0.0),
                _ => PartialAgg::SumInt(0),
            },
            AggFunc::Avg => PartialAgg::Avg(0.0, 0),
            AggFunc::Min => PartialAgg::Min(None),
            AggFunc::Max => PartialAgg::Max(None),
        }
    }

    /// Computes the partial for `func` over (already filtered) values.
    ///
    /// `COUNT` here is `COUNT(col)`: it counts the filtered rows handed
    /// in, which (NULLs not existing in the format) is exactly what
    /// `COUNT(*)` reports too.
    ///
    /// # Errors
    ///
    /// Type errors (e.g. SUM over strings); [`SqlError::Overflow`] when
    /// an integer SUM exceeds `i64`.
    pub fn compute(func: AggFunc, col: &ColumnData) -> Result<PartialAgg> {
        Ok(match (func, col) {
            (AggFunc::Count, c) => PartialAgg::Count(c.len() as i64),
            (AggFunc::Sum, ColumnData::Int64(v)) => PartialAgg::SumInt(
                v.iter()
                    .try_fold(0i64, |acc, &x| acc.checked_add(x))
                    .ok_or_else(|| overflow("compute"))?,
            ),
            (AggFunc::Sum, ColumnData::Float64(v)) => PartialAgg::SumFloat(v.iter().sum()),
            // Accumulated in i128, which cannot overflow; for every sum
            // that fits i64 this is the same float as an i64 sum.
            (AggFunc::Avg, ColumnData::Int64(v)) => PartialAgg::Avg(
                v.iter().map(|&x| x as i128).sum::<i128>() as f64,
                v.len() as i64,
            ),
            (AggFunc::Avg, ColumnData::Float64(v)) => {
                PartialAgg::Avg(v.iter().sum::<f64>(), v.len() as i64)
            }
            (AggFunc::Min, c) => PartialAgg::Min(min_max_of(c, true)),
            (AggFunc::Max, c) => PartialAgg::Max(min_max_of(c, false)),
            (func, c) => {
                return Err(SqlError::TypeError(format!(
                    "{func} is not defined for {} columns",
                    c.physical_name()
                )))
            }
        })
    }

    /// Merges another partial of the same shape into `self`.
    ///
    /// # Errors
    ///
    /// Shape mismatch (indicates a planner bug); [`SqlError::Overflow`]
    /// when merging integer SUMs overflows `i64`.
    pub fn merge(&mut self, other: &PartialAgg) -> Result<()> {
        use PartialAgg::*;
        match (self, other) {
            (Count(a), Count(b)) => *a += b,
            (SumInt(a), SumInt(b)) => *a = a.checked_add(*b).ok_or_else(|| overflow("merge"))?,
            (SumFloat(a), SumFloat(b)) => *a += b,
            (Avg(s, n), Avg(s2, n2)) => {
                *s += s2;
                *n += n2;
            }
            (Min(a), Min(b)) => merge_extreme(a, b, true),
            (Max(a), Max(b)) => merge_extreme(a, b, false),
            (a, b) => {
                return Err(SqlError::Invalid(format!(
                    "cannot merge partial aggregates {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Folds one row of `col` into this state — the per-row building
    /// block of grouped aggregation. `Count` ignores the value (the row
    /// exists, so it counts; see the module notes on `COUNT(col)` vs
    /// `COUNT(*)`).
    ///
    /// # Errors
    ///
    /// Type mismatch between the state and the column;
    /// [`SqlError::Overflow`] on integer SUM overflow.
    pub fn accumulate(&mut self, col: &ColumnData, row: usize) -> Result<()> {
        use PartialAgg::*;
        match (&mut *self, col) {
            (Count(c), _) => *c += 1,
            (SumInt(a), ColumnData::Int64(v)) => {
                *a = a
                    .checked_add(v[row])
                    .ok_or_else(|| overflow("accumulate"))?;
            }
            (SumFloat(a), ColumnData::Float64(v)) => *a += v[row],
            (Avg(s, n), ColumnData::Int64(v)) => {
                *s += v[row] as f64;
                *n += 1;
            }
            (Avg(s, n), ColumnData::Float64(v)) => {
                *s += v[row];
                *n += 1;
            }
            (Min(m), c) => merge_extreme(m, &Some(c.value(row)), true),
            (Max(m), c) => merge_extreme(m, &Some(c.value(row)), false),
            (state, c) => {
                return Err(SqlError::TypeError(format!(
                    "cannot accumulate {} column into {state:?}",
                    c.physical_name()
                )))
            }
        }
        Ok(())
    }

    /// Folds row `row` of `col` in `n` times — the run-at-a-time entry
    /// used when an RLE run of identical values survives the filter as a
    /// whole span. `COUNT += n` and integer `SUM += n × v` are O(1)
    /// (the product is taken in `i128` and checked back into `i64`, which
    /// overflows exactly when `n` sequential checked adds would).
    ///
    /// Float sums (`SumFloat`, `Avg`) deliberately loop `n` scalar adds
    /// instead of multiplying: repeated addition and `n × v` round
    /// differently, and the grouped kernels must stay bit-identical to
    /// the row-at-a-time oracle.
    ///
    /// # Errors
    ///
    /// Same as [`PartialAgg::accumulate`].
    pub fn accumulate_repeat(&mut self, col: &ColumnData, row: usize, n: usize) -> Result<()> {
        use PartialAgg::*;
        match (&mut *self, col) {
            (_, _) if n == 0 => {}
            (Count(c), _) => *c += n as i64,
            (SumInt(a), ColumnData::Int64(v)) => {
                // a + i·v is monotonic in i, so the n sequential adds
                // overflow iff the i128 total leaves i64 — exactly the
                // semantics of the row-at-a-time path.
                let total = *a as i128 + v[row] as i128 * n as i128;
                *a = i64::try_from(total).map_err(|_| overflow("run accumulate"))?;
            }
            (SumFloat(a), ColumnData::Float64(v)) => {
                for _ in 0..n {
                    *a += v[row];
                }
            }
            (Avg(s, cnt), ColumnData::Int64(v)) => {
                for _ in 0..n {
                    *s += v[row] as f64;
                }
                *cnt += n as i64;
            }
            (Avg(s, cnt), ColumnData::Float64(v)) => {
                for _ in 0..n {
                    *s += v[row];
                }
                *cnt += n as i64;
            }
            (Min(m), c) => merge_extreme(m, &Some(c.value(row)), true),
            (Max(m), c) => merge_extreme(m, &Some(c.value(row)), false),
            (state, c) => {
                return Err(SqlError::TypeError(format!(
                    "cannot accumulate {} column into {state:?}",
                    c.physical_name()
                )))
            }
        }
        Ok(())
    }

    /// Finalizes into the result value.
    pub fn finalize(&self) -> Value {
        match self {
            PartialAgg::Count(n) => Value::Int(*n),
            PartialAgg::SumInt(s) => Value::Int(*s),
            PartialAgg::SumFloat(s) => Value::Float(*s),
            PartialAgg::Avg(s, n) => {
                if *n == 0 {
                    Value::Float(f64::NAN)
                } else {
                    Value::Float(s / *n as f64)
                }
            }
            PartialAgg::Min(v) | PartialAgg::Max(v) => match v {
                Some(v) => v.clone(),
                None => Value::Int(0),
            },
        }
    }

    /// Wire size of a partial (for the latency model): a tagged scalar.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            PartialAgg::Min(Some(Value::Str(s))) | PartialAgg::Max(Some(Value::Str(s))) => {
                16 + s.len() as u64
            }
            PartialAgg::Avg(..) => 24,
            _ => 16,
        }
    }
}

fn min_max_of(col: &ColumnData, want_min: bool) -> Option<Value> {
    col.min_max().map(|(mn, mx)| if want_min { mn } else { mx })
}

fn merge_extreme(acc: &mut Option<Value>, other: &Option<Value>, want_min: bool) {
    let Some(o) = other else { return };
    match acc {
        None => *acc = Some(o.clone()),
        Some(a) => {
            if let Some(ord) = o.partial_cmp_value(a) {
                let replace = if want_min {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if replace {
                    *acc = Some(o.clone());
                }
            }
        }
    }
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
    /// (built with [`PartialAgg::identity`] per aggregate).
    pub fn new(templates: Vec<PartialAgg>) -> GroupedAggs {
        GroupedAggs {
            templates,
            groups: HashMap::new(),
        }
    }

    /// The per-aggregate states for `key`, created from the identity
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

    #[test]
    fn count_merges() {
        let mut a = PartialAgg::compute(AggFunc::Count, &ColumnData::Int64(vec![1, 2])).unwrap();
        let b = PartialAgg::compute(AggFunc::Count, &ColumnData::Int64(vec![3])).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finalize(), Value::Int(3));
    }

    #[test]
    fn sums_merge_exactly_for_ints() {
        let mut a = PartialAgg::compute(AggFunc::Sum, &ColumnData::Int64(vec![1, 2])).unwrap();
        let b = PartialAgg::compute(AggFunc::Sum, &ColumnData::Int64(vec![10])).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finalize(), Value::Int(13));
    }

    #[test]
    fn avg_carries_sum_and_count() {
        let mut a =
            PartialAgg::compute(AggFunc::Avg, &ColumnData::Float64(vec![1.0, 3.0])).unwrap();
        let b = PartialAgg::compute(AggFunc::Avg, &ColumnData::Float64(vec![8.0])).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.finalize(), Value::Float(4.0));
        // Empty average is NaN, not a crash.
        let empty = PartialAgg::identity(AggFunc::Avg, None);
        match empty.finalize() {
            Value::Float(x) => assert!(x.is_nan()),
            other => panic!("expected NaN float, got {other:?}"),
        }
    }

    #[test]
    fn min_max_across_partials() {
        let mut mn = PartialAgg::compute(
            AggFunc::Min,
            &ColumnData::Utf8(vec!["m".into(), "z".into()]),
        )
        .unwrap();
        let other = PartialAgg::compute(AggFunc::Min, &ColumnData::Utf8(vec!["c".into()])).unwrap();
        mn.merge(&other).unwrap();
        assert_eq!(mn.finalize(), Value::Str("c".into()));

        let mut mx = PartialAgg::identity(AggFunc::Max, Some(&ColumnData::Int64(vec![])));
        mx.merge(&PartialAgg::compute(AggFunc::Max, &ColumnData::Int64(vec![7])).unwrap())
            .unwrap();
        mx.merge(&PartialAgg::Max(None)).unwrap();
        assert_eq!(mx.finalize(), Value::Int(7));
    }

    #[test]
    fn shape_mismatch_is_error() {
        let mut a = PartialAgg::Count(1);
        assert!(a.merge(&PartialAgg::SumInt(2)).is_err());
    }

    #[test]
    fn sum_over_strings_is_error() {
        assert!(PartialAgg::compute(AggFunc::Sum, &ColumnData::Utf8(vec!["x".into()])).is_err());
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(PartialAgg::Count(5).wire_bytes(), 16);
        assert_eq!(PartialAgg::Avg(1.0, 2).wire_bytes(), 24);
        assert_eq!(
            PartialAgg::Min(Some(Value::Str("abcd".into()))).wire_bytes(),
            20
        );
    }

    #[test]
    fn count_col_equals_count_star() {
        // The format has no NULLs, so COUNT(col) over the filtered column
        // must equal COUNT(*) over the filtered row count — pin it.
        let filtered = ColumnData::Float64(vec![1.0, f64::NAN, 3.0]);
        let count_col = PartialAgg::compute(AggFunc::Count, &filtered).unwrap();
        let count_star = PartialAgg::Count(filtered.len() as i64);
        assert_eq!(count_col, count_star);
        assert_eq!(count_col.finalize(), Value::Int(3));
    }

    #[test]
    fn sum_overflow_is_typed_error() {
        // compute
        let big = ColumnData::Int64(vec![i64::MAX, 1]);
        assert!(matches!(
            PartialAgg::compute(AggFunc::Sum, &big),
            Err(SqlError::Overflow(_))
        ));
        // merge
        let mut a = PartialAgg::SumInt(i64::MAX);
        assert!(matches!(
            a.merge(&PartialAgg::SumInt(1)),
            Err(SqlError::Overflow(_))
        ));
        // per-row accumulate
        let mut b = PartialAgg::SumInt(i64::MAX - 1);
        let col = ColumnData::Int64(vec![2]);
        assert!(matches!(b.accumulate(&col, 0), Err(SqlError::Overflow(_))));
        // run-multiplied accumulate: 2 × (i64::MAX/2 + 1) wraps i64 but
        // not i128 — the product must be checked, not truncated.
        let mut c = PartialAgg::SumInt(0);
        let run = ColumnData::Int64(vec![i64::MAX / 2 + 1]);
        assert!(matches!(
            c.accumulate_repeat(&run, 0, 2),
            Err(SqlError::Overflow(_))
        ));
        // AVG's sum is taken in i128, so it cannot wrap.
        match PartialAgg::compute(AggFunc::Avg, &big).unwrap() {
            PartialAgg::Avg(s, 2) => assert_eq!(s, i64::MAX as f64 + 1.0),
            other => panic!("unexpected AVG partial {other:?}"),
        }
        // Negative values may cancel: MAX then MIN is fine.
        let mut d = PartialAgg::SumInt(i64::MAX);
        d.merge(&PartialAgg::SumInt(i64::MIN)).unwrap();
        assert_eq!(d.finalize(), Value::Int(-1));
    }

    #[test]
    fn accumulate_repeat_matches_sequential() {
        let col = ColumnData::Float64(vec![0.1]);
        let mut fast = PartialAgg::SumFloat(0.0);
        fast.accumulate_repeat(&col, 0, 7).unwrap();
        let mut slow = PartialAgg::SumFloat(0.0);
        for _ in 0..7 {
            slow.accumulate(&col, 0).unwrap();
        }
        // Bit-identical, not merely close: the repeat path loops adds.
        assert_eq!(fast, slow);

        let ints = ColumnData::Int64(vec![-3]);
        let mut fast = PartialAgg::SumInt(0);
        fast.accumulate_repeat(&ints, 0, 5).unwrap();
        assert_eq!(fast.finalize(), Value::Int(-15));

        let mut mn = PartialAgg::Min(None);
        mn.accumulate_repeat(&ints, 0, 5).unwrap();
        assert_eq!(mn.finalize(), Value::Int(-3));

        let mut zero = PartialAgg::Count(0);
        zero.accumulate_repeat(&ints, 0, 0).unwrap();
        assert_eq!(zero.finalize(), Value::Int(0));
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
                s.accumulate(&col, row).unwrap();
            }
        }
        let mut b = GroupedAggs::new(templates);
        for (key, row) in [("x", 2usize), ("y", 0)] {
            let slots = b.slots(GroupKey(vec![Value::Str(key.into())]));
            for s in slots.iter_mut() {
                s.accumulate(&col, row).unwrap();
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

    #[test]
    fn merged_equals_whole_for_exact_aggregates() {
        // Partition-then-merge must equal whole-column computation for the
        // associative aggregates.
        let whole = ColumnData::Int64((0..1000).map(|i| i * 3 - 500).collect());
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            let direct = PartialAgg::compute(func, &whole).unwrap().finalize();
            let mut acc = PartialAgg::identity(func, Some(&whole));
            for part in [0..100usize, 100..101, 101..1000] {
                let sub = whole.slice(part);
                acc.merge(&PartialAgg::compute(func, &sub).unwrap())
                    .unwrap();
            }
            assert_eq!(acc.finalize(), direct, "{func}");
        }
    }
}
