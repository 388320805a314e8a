//! Differential property tests for the encoded selection and fold
//! kernels the pushdown executor computes its answers with:
//!
//! * `select_encoded` over an [`EncodedChunk`] view appends exactly
//!   `decode()?.take(&selected_rows)`, and `selected_plain_size` is that
//!   column's plain size;
//! * a `PartialAgg` folded over several row groups' views finalizes to
//!   `eval_aggregate` over the concatenated selections — bitwise (floats
//!   by `to_bits`, so `-0.0` is not `0.0`; see `value_bits` for NaN), or
//!   fails with the same error (SUM/AVG of strings when the state is
//!   built, integer SUM overflow while it folds).
//!
//! Inputs: plain and dictionary chunks (RLE and literal runs) of Int64,
//! Date, Float64 and Utf8, with u8 and u16 dictionary codes (255- to
//! about 3,000-entry dictionaries); one to four row groups in sequence; empty,
//! full and random filters whose lengths are rarely a multiple of 64;
//! floats with NaN, both zeros and both infinities; integer SUMs at the
//! edge of `i64`.

use fusion_format::chunk::{encode_column_chunk, read_encoded_chunk};
use fusion_format::schema::LogicalType;
use fusion_format::value::{ColumnData, Value};
use fusion_sql::ast::AggFunc;
use fusion_sql::eval::{eval_aggregate, select_encoded, selected_plain_size};
use fusion_sql::partial::{PartialAgg, Selection};
use fusion_sql::plan::AggregateSpec;
use proptest::prelude::*;

mod common;
use common::*;

/// High-cardinality floats the writer keeps plain, with the special
/// values mixed in.
fn arb_plain_float() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            (-1.0e6f64..1.0e6).boxed(),
            (-1.0e6f64..1.0e6).boxed(),
            (-1.0e6f64..1.0e6).boxed(),
            Just(f64::NAN).boxed(),
            Just(f64::NEG_INFINITY).boxed(),
            Just(-0.0f64).boxed(),
            Just(0.0f64).boxed(),
        ],
        0..200,
    )
}

/// Runs of floats drawn from `value`, for generators whose point is the
/// values themselves.
fn float_runs(value: impl Strategy<Value = f64>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((value, 1usize..60), 0..25).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()
    })
}

/// Finite float runs: sums stay finite, so a fold that rounds in another
/// order than the oracle (say, `value × run length`) shows.
fn arb_finite_runs_float() -> impl Strategy<Value = Vec<f64>> {
    float_runs(prop_oneof![
        (-2.0f64..3.0).boxed(),
        (-2.0f64..3.0).boxed(),
        Just(0.1f64).boxed(),
        Just(-0.0f64).boxed(),
        Just(0.0f64).boxed(),
    ])
}

/// Runs of nothing but signed zeros and NaN: every MIN/MAX is a tie
/// between `-0.0` and `+0.0`, and a SUM's sign depends on its start.
fn arb_zero_runs_float() -> impl Strategy<Value = Vec<f64>> {
    float_runs(prop_oneof![
        Just(-0.0f64).boxed(),
        Just(0.0f64).boxed(),
        Just(f64::NAN).boxed(),
    ])
}

/// Distinct-heavy strings the writer keeps plain.
fn arb_plain_utf8() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-z]{0,12}", 0..150)
}

/// Short runs of values within a few units of `i64::MAX`/`i64::MIN`, so
/// a running SUM crosses the boundary — and comes back — in mid-chunk.
fn arb_edge_int() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        (
            prop_oneof![
                (i64::MAX - 2..=i64::MAX).boxed(),
                (i64::MIN..=i64::MIN + 2).boxed(),
                (-2i64..3).boxed(),
            ],
            1usize..4,
        ),
        0..40,
    )
    .prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()
    })
}

/// One to four row groups, each a column with its filter.
fn row_groups<T: std::fmt::Debug + Clone>(
    data: impl Strategy<Value = Vec<T>>,
) -> impl Strategy<Value = Vec<(Vec<T>, Vec<bool>)>> {
    prop::collection::vec(with_filter(data), 1..5)
}

/// A column's values in a form whose `==` is bitwise.
#[derive(Debug, PartialEq)]
enum Bits {
    Int(Vec<i64>),
    Float(Vec<u64>),
    Str(Vec<String>),
}

fn bits(col: &ColumnData) -> Bits {
    match col {
        ColumnData::Int64(v) => Bits::Int(v.clone()),
        ColumnData::Float64(v) => Bits::Float(v.iter().map(|x| x.to_bits()).collect()),
        ColumnData::Utf8(v) => Bits::Str(v.clone()),
    }
}

/// An aggregate value in a form whose `==` is bitwise, except that every
/// NaN is one value: Rust leaves the sign and payload of a NaN that
/// arithmetic produces (`inf + -inf`, `NaN + x`) unspecified — the
/// compiler may commute an addition — so only NaN-ness is comparable.
/// Selected values are copies and compare with their NaN bits intact.
fn value_bits(v: Value) -> Bits {
    match v {
        Value::Int(x) => Bits::Int(vec![x]),
        Value::Float(x) if x.is_nan() => Bits::Float(vec![f64::NAN.to_bits()]),
        Value::Float(x) => Bits::Float(vec![x.to_bits()]),
        Value::Str(s) => Bits::Str(vec![s]),
    }
}

fn append(acc: &mut ColumnData, part: ColumnData) {
    match (acc, part) {
        (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend(b),
        (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend(b),
        (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.extend(b),
        _ => panic!("row groups of one column share a type"),
    }
}

const FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];

/// Runs the selection and fold kernels over `groups` (one encoded chunk
/// and filter per row group) against decode-then-take and
/// `eval_aggregate` over the concatenation.
fn agree(ty: LogicalType, groups: Vec<(ColumnData, Vec<bool>)>) -> Result<(), TestCaseError> {
    let mut selected = ColumnData::with_capacity(ty, 0);
    let mut oracle = ColumnData::with_capacity(ty, 0);
    let mut folds: Vec<_> = FUNCS.iter().map(|&f| PartialAgg::new(f, ty)).collect();
    for (col, filter) in groups {
        let (bytes, _) = encode_column_chunk(&col);
        let view = read_encoded_chunk(&bytes, ty).unwrap();
        let filter = bitmap(&filter);
        let ones: Vec<usize> = filter.ones().collect();
        let taken = view.decode().unwrap().take(&ones);

        let mut part = ColumnData::with_capacity(ty, 0);
        select_encoded(&view, &filter, &mut part).unwrap();
        prop_assert_eq!(bits(&part), bits(&taken), "{:?} chunk", view.encoding());
        prop_assert_eq!(
            selected_plain_size(&view, &filter).unwrap(),
            taken.plain_size() as u64
        );

        select_encoded(&view, &filter, &mut selected).unwrap();
        // All five states fold one selection, so MIN and MAX share its
        // marking of used codes.
        let rows = Selection::new(&view, &filter);
        for fold in &mut folds {
            if let Ok(state) = fold {
                if let Err(e) = state.fold(&rows) {
                    *fold = Err(e);
                }
            }
        }
        append(&mut oracle, taken);
    }
    prop_assert_eq!(bits(&selected), bits(&oracle));
    for (&func, fold) in FUNCS.iter().zip(folds) {
        let spec = AggregateSpec {
            func,
            column: Some(0),
            column_name: Some("c".into()),
        };
        let want = eval_aggregate(&spec, oracle.len(), Some(&oracle)).map(value_bits);
        let got = fold.map(|state| value_bits(state.finalize()));
        prop_assert_eq!(got, want, "{}", func);
    }
    Ok(())
}

fn ints(groups: Vec<(Vec<i64>, Vec<bool>)>) -> Vec<(ColumnData, Vec<bool>)> {
    groups
        .into_iter()
        .map(|(v, f)| (ColumnData::Int64(v), f))
        .collect()
}

fn floats(groups: Vec<(Vec<f64>, Vec<bool>)>) -> Vec<(ColumnData, Vec<bool>)> {
    groups
        .into_iter()
        .map(|(v, f)| (ColumnData::Float64(v), f))
        .collect()
}

fn strings(groups: Vec<(Vec<String>, Vec<bool>)>) -> Vec<(ColumnData, Vec<bool>)> {
    groups
        .into_iter()
        .map(|(v, f)| (ColumnData::Utf8(v), f))
        .collect()
}

proptest! {
    #[test]
    fn int_runs_match_oracle(groups in row_groups(arb_runs_int())) {
        agree(LogicalType::Int64, ints(groups))?;
    }

    #[test]
    fn int_plain_match_oracle(groups in row_groups(arb_plain_int())) {
        agree(LogicalType::Int64, ints(groups))?;
    }

    #[test]
    fn wide_dictionaries_match_oracle(groups in row_groups(arb_wide_dict_int())) {
        agree(LogicalType::Int64, ints(groups))?;
    }

    #[test]
    fn int_sums_at_the_edge_match_oracle(groups in row_groups(arb_edge_int())) {
        agree(LogicalType::Int64, ints(groups))?;
    }

    #[test]
    fn dates_match_oracle(
        runs in row_groups(arb_runs_int()),
        plain in row_groups(arb_plain_int()),
    ) {
        agree(LogicalType::Date, ints(runs))?;
        agree(LogicalType::Date, ints(plain))?;
    }

    #[test]
    fn float_runs_match_oracle(groups in row_groups(arb_runs_float())) {
        agree(LogicalType::Float64, floats(groups))?;
    }

    #[test]
    fn float_finite_runs_match_oracle(groups in row_groups(arb_finite_runs_float())) {
        agree(LogicalType::Float64, floats(groups))?;
    }

    #[test]
    fn float_signed_zeros_match_oracle(groups in row_groups(arb_zero_runs_float())) {
        agree(LogicalType::Float64, floats(groups))?;
    }

    #[test]
    fn float_plain_match_oracle(groups in row_groups(arb_plain_float())) {
        agree(LogicalType::Float64, floats(groups))?;
    }

    #[test]
    fn utf8_runs_match_oracle(groups in row_groups(arb_runs_utf8())) {
        agree(LogicalType::Utf8, strings(groups))?;
    }

    #[test]
    fn utf8_plain_match_oracle(groups in row_groups(arb_plain_utf8())) {
        agree(LogicalType::Utf8, strings(groups))?;
    }
}
