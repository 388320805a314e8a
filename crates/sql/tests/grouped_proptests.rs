//! Differential property tests for encoded-domain grouped aggregation:
//! `group_aggregate_encoded` over an [`EncodedChunk`] view must be
//! *bit-identical* to decode-then-`group_aggregate_decoded` for every
//! encoding the writer chooses (dictionary/RLE/plain, u8 and u16 codes),
//! every key type,
//! NaN MIN/MAX ordering, empty filters, and 0%/100% selectivity — and
//! must fail identically (SUM overflow) when the oracle fails.
//!
//! A second family checks the distributed shape: splitting a column into
//! chunks, aggregating each chunk with the encoded kernel, and merging
//! keyed states in chunk order equals doing the same with the decoded
//! oracle — the coordinator-side contract of GROUP BY pushdown.
//!
//! A third checks grouped against ungrouped: one row group's rows grouped
//! under a constant key answer every aggregate as `eval_aggregate` does
//! over the same rows, bit for bit, or with the same error.

use fusion_format::chunk::{decode_column_chunk, encode_column_chunk, read_encoded_chunk};
use fusion_format::schema::LogicalType;
use fusion_format::value::{ColumnData, Value};
use fusion_sql::ast::AggFunc;
use fusion_sql::bitmap::Bitmap;
use fusion_sql::error::SqlError;
use fusion_sql::eval::{
    eval_aggregate, group_aggregate_decoded, group_aggregate_encoded, AggInput,
};
use fusion_sql::partial::{GroupKey, GroupedAggs, PartialAgg};
use fusion_sql::plan::AggregateSpec;
use proptest::prelude::*;

mod common;
use common::*;

/// A deterministic float argument column (some NaN rows) so AVG/MIN/MAX
/// over a non-key column is exercised everywhere.
fn float_arg(n: usize) -> ColumnData {
    ColumnData::Float64(
        (0..n)
            .map(|i| {
                if i % 11 == 7 {
                    f64::NAN
                } else {
                    (i as f64) * 0.37 - 20.0
                }
            })
            .collect(),
    )
}

/// The rows of `col` that `filter` selects, in row order: the argument
/// column [`AggInput::Col`] takes.
fn selected(col: &ColumnData, filter: &Bitmap) -> ColumnData {
    col.take(&filter.ones().collect::<Vec<_>>())
}

/// Finalized rows with values wrapped in [`GroupKey`] so floats compare
/// by bit pattern — `assert_eq!` on these is a *bitwise* differential.
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

/// Runs both kernels and demands identical outcomes: bit-equal grouped
/// rows, or the same typed overflow error.
fn assert_grouped_agree(
    key: &ColumnData,
    ty: LogicalType,
    aggs_enc: &[(AggFunc, AggInput<'_>)],
    aggs_dec: &[(AggFunc, Option<&ColumnData>)],
    filter: &Bitmap,
) -> Result<(), TestCaseError> {
    let (bytes, _) = encode_column_chunk(key);
    let chunk = read_encoded_chunk(&bytes, ty).unwrap();
    let decoded = decode_column_chunk(&bytes, ty).unwrap();
    let fast = group_aggregate_encoded(&chunk, aggs_enc, filter);
    let slow = group_aggregate_decoded(&[&decoded], aggs_dec, filter);
    match (fast, slow) {
        (Ok(fast), Ok(slow)) => {
            prop_assert_eq!(finalized(fast), finalized(slow));
        }
        (Err(SqlError::Overflow(_)), Err(SqlError::Overflow(_))) => {}
        (fast, slow) => {
            return Err(TestCaseError::fail(format!(
                "kernels disagree: encoded={fast:?} decoded={slow:?}"
            )))
        }
    }
    Ok(())
}

fn int_key_case(key: Vec<i64>, filter: Vec<bool>) -> Result<(), TestCaseError> {
    let n = key.len();
    let key = ColumnData::Int64(key);
    let filter = bitmap(&filter);
    let arg = float_arg(n);
    let arg_sel = selected(&arg, &filter);
    // SUM of a key holding i64 extremes overflows in most cases, which
    // would leave the other aggregates uncompared: it runs on its own.
    assert_grouped_agree(
        &key,
        LogicalType::Int64,
        &[(AggFunc::Sum, AggInput::Key)],
        &[(AggFunc::Sum, Some(&key))],
        &filter,
    )?;
    let aggs_enc = [
        (AggFunc::Count, AggInput::Star),
        (AggFunc::Count, AggInput::Key),
        (AggFunc::Avg, AggInput::Key),
        (AggFunc::Min, AggInput::Key),
        (AggFunc::Max, AggInput::Key),
        (AggFunc::Avg, AggInput::Col(&arg_sel)),
        (AggFunc::Sum, AggInput::Col(&arg_sel)),
        (AggFunc::Min, AggInput::Col(&arg_sel)),
        (AggFunc::Max, AggInput::Col(&arg_sel)),
    ];
    let aggs_dec = [
        (AggFunc::Count, None),
        (AggFunc::Count, Some(&key)),
        (AggFunc::Avg, Some(&key)),
        (AggFunc::Min, Some(&key)),
        (AggFunc::Max, Some(&key)),
        (AggFunc::Avg, Some(&arg)),
        (AggFunc::Sum, Some(&arg)),
        (AggFunc::Min, Some(&arg)),
        (AggFunc::Max, Some(&arg)),
    ];
    assert_grouped_agree(&key, LogicalType::Int64, &aggs_enc, &aggs_dec, &filter)?;
    // Integer arguments: every integer accumulator and COUNT(col).
    let ints = ColumnData::Int64((0..n as i64).map(|i| i * 7919 % 2001 - 1000).collect());
    let ints_sel = selected(&ints, &filter);
    let aggs_enc = [
        (AggFunc::Sum, AggInput::Col(&ints_sel)),
        (AggFunc::Avg, AggInput::Col(&ints_sel)),
        (AggFunc::Min, AggInput::Col(&ints_sel)),
        (AggFunc::Max, AggInput::Col(&ints_sel)),
        (AggFunc::Count, AggInput::Col(&ints_sel)),
    ];
    let aggs_dec = [
        (AggFunc::Sum, Some(&ints)),
        (AggFunc::Avg, Some(&ints)),
        (AggFunc::Min, Some(&ints)),
        (AggFunc::Max, Some(&ints)),
        (AggFunc::Count, Some(&ints)),
    ];
    assert_grouped_agree(&key, LogicalType::Int64, &aggs_enc, &aggs_dec, &filter)
}

fn plain_int_key_case(key: Vec<i64>, filter: Vec<bool>) -> Result<(), TestCaseError> {
    let n = key.len();
    let key = ColumnData::Int64(key);
    let filter = bitmap(&filter);
    let arg = float_arg(n);
    let arg_sel = selected(&arg, &filter);
    let aggs_enc = [
        (AggFunc::Count, AggInput::Star),
        (AggFunc::Sum, AggInput::Key),
        (AggFunc::Avg, AggInput::Col(&arg_sel)),
    ];
    let aggs_dec = [
        (AggFunc::Count, None),
        (AggFunc::Sum, Some(&key)),
        (AggFunc::Avg, Some(&arg)),
    ];
    assert_grouped_agree(&key, LogicalType::Int64, &aggs_enc, &aggs_dec, &filter)
}

// NaN / -0.0 keys: GroupKey's bit-pattern identity must group them
// identically on both paths.
fn float_key_case(key: Vec<f64>, filter: Vec<bool>) -> Result<(), TestCaseError> {
    let key = ColumnData::Float64(key);
    let aggs_enc = [
        (AggFunc::Count, AggInput::Star),
        (AggFunc::Sum, AggInput::Key),
        (AggFunc::Avg, AggInput::Key),
        (AggFunc::Min, AggInput::Key),
        (AggFunc::Max, AggInput::Key),
    ];
    let aggs_dec = [
        (AggFunc::Count, None),
        (AggFunc::Sum, Some(&key)),
        (AggFunc::Avg, Some(&key)),
        (AggFunc::Min, Some(&key)),
        (AggFunc::Max, Some(&key)),
    ];
    assert_grouped_agree(
        &key,
        LogicalType::Float64,
        &aggs_enc,
        &aggs_dec,
        &bitmap(&filter),
    )
}

fn utf8_key_case(key: Vec<String>, filter: Vec<bool>) -> Result<(), TestCaseError> {
    let n = key.len();
    let key = ColumnData::Utf8(key);
    let filter = bitmap(&filter);
    let arg = float_arg(n);
    // String arguments: the key's own strings, reversed.
    let strs = match &key {
        ColumnData::Utf8(v) => ColumnData::Utf8(v.iter().rev().cloned().collect()),
        _ => unreachable!(),
    };
    let (arg_sel, strs_sel) = (selected(&arg, &filter), selected(&strs, &filter));
    let aggs_enc = [
        (AggFunc::Count, AggInput::Star),
        (AggFunc::Min, AggInput::Key),
        (AggFunc::Max, AggInput::Key),
        (AggFunc::Avg, AggInput::Col(&arg_sel)),
        (AggFunc::Min, AggInput::Col(&arg_sel)),
        (AggFunc::Min, AggInput::Col(&strs_sel)),
        (AggFunc::Max, AggInput::Col(&strs_sel)),
    ];
    let aggs_dec = [
        (AggFunc::Count, None),
        (AggFunc::Min, Some(&key)),
        (AggFunc::Max, Some(&key)),
        (AggFunc::Avg, Some(&arg)),
        (AggFunc::Min, Some(&arg)),
        (AggFunc::Min, Some(&strs)),
        (AggFunc::Max, Some(&strs)),
    ];
    assert_grouped_agree(&key, LogicalType::Utf8, &aggs_enc, &aggs_dec, &filter)
}

// The distributed shape: per-chunk encoded kernels merged in chunk order
// vs per-chunk decoded oracles merged in the same order. Both sides
// accumulate and merge identically, so even float sums are bit-equal —
// and SUM overflow must strike both sides or neither.
//
// The key's aggregate is `key_agg`: SUM, which overflows in most cases
// (the key holds i64 extremes) and then leaves nothing to compare, or
// AVG, which cannot, so the merged states are compared.
fn chunked_merge_case(
    key: Vec<i64>,
    filter: Vec<bool>,
    chunk_rows: usize,
    key_agg: AggFunc,
) -> Result<(), TestCaseError> {
    let n = key.len();
    let arg = float_arg(n);
    let mut enc_acc: Option<GroupedAggs> = None;
    let mut dec_acc: Option<GroupedAggs> = None;
    let mut failed = (false, false);
    for start in (0..n).step_by(chunk_rows) {
        let end = (start + chunk_rows).min(n);
        let key_chunk = ColumnData::Int64(key[start..end].to_vec());
        let arg_chunk = match &arg {
            ColumnData::Float64(v) => ColumnData::Float64(v[start..end].to_vec()),
            _ => unreachable!(),
        };
        let fchunk = bitmap(&filter[start..end]);
        let arg_sel = selected(&arg_chunk, &fchunk);
        let (bytes, _) = encode_column_chunk(&key_chunk);
        let view = read_encoded_chunk(&bytes, LogicalType::Int64).unwrap();
        let aggs_enc = [
            (AggFunc::Count, AggInput::Star),
            (key_agg, AggInput::Key),
            (AggFunc::Avg, AggInput::Col(&arg_sel)),
            (AggFunc::Min, AggInput::Col(&arg_sel)),
        ];
        let aggs_dec = [
            (AggFunc::Count, None),
            (key_agg, Some(&key_chunk)),
            (AggFunc::Avg, Some(&arg_chunk)),
            (AggFunc::Min, Some(&arg_chunk)),
        ];
        let templates = vec![
            PartialAgg::new(AggFunc::Count, LogicalType::Int64).unwrap(),
            PartialAgg::new(key_agg, LogicalType::Int64).unwrap(),
            PartialAgg::new(AggFunc::Avg, LogicalType::Float64).unwrap(),
            PartialAgg::new(AggFunc::Min, LogicalType::Float64).unwrap(),
        ];
        match group_aggregate_encoded(&view, &aggs_enc, &fchunk) {
            Ok(g) => {
                let acc = enc_acc.get_or_insert_with(|| GroupedAggs::new(templates.clone()));
                if acc.merge(&g).is_err() {
                    failed.0 = true;
                }
            }
            Err(SqlError::Overflow(_)) => failed.0 = true,
            Err(e) => return Err(TestCaseError::fail(format!("encoded kernel: {e}"))),
        }
        match group_aggregate_decoded(&[&key_chunk], &aggs_dec, &fchunk) {
            Ok(g) => {
                let acc = dec_acc.get_or_insert_with(|| GroupedAggs::new(templates));
                if acc.merge(&g).is_err() {
                    failed.1 = true;
                }
            }
            Err(SqlError::Overflow(_)) => failed.1 = true,
            Err(e) => return Err(TestCaseError::fail(format!("decoded kernel: {e}"))),
        }
    }
    prop_assert_eq!(failed.0, failed.1, "overflow outcome diverged");
    if !failed.0 {
        let enc = enc_acc.unwrap_or_else(|| GroupedAggs::new(vec![]));
        let dec = dec_acc.unwrap_or_else(|| GroupedAggs::new(vec![]));
        prop_assert_eq!(finalized(enc), finalized(dec));
    }
    Ok(())
}

/// An aggregate answer whose `==` is bitwise, except that every NaN is
/// one value (Rust leaves the sign and payload of a NaN that a float sum
/// produces unspecified).
fn answer_bits(v: Value) -> GroupKey {
    match v {
        Value::Float(x) if x.is_nan() => GroupKey(vec![Value::Float(f64::NAN)]),
        v => GroupKey(vec![v]),
    }
}

// Grouped vs ungrouped: one row group's rows under a constant key form
// one group (none when the filter selects nothing), whose every
// aggregate is `eval_aggregate` over the selected rows — or both fail
// with the same error (SUM/AVG of strings, integer SUM overflow). Both
// kernels are checked, the encoded one through a dictionary key.
fn constant_key_case(values: ColumnData, filter: Vec<bool>) -> Result<(), TestCaseError> {
    let n = values.len();
    let key = ColumnData::Int64(vec![7; n]);
    let (bytes, _) = encode_column_chunk(&key);
    let key_view = read_encoded_chunk(&bytes, LogicalType::Int64).unwrap();
    let filter = bitmap(&filter);
    let ones: Vec<usize> = filter.ones().collect();
    let selected = values.take(&ones);
    for func in [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ] {
        let spec = AggregateSpec {
            func,
            column: Some(0),
            column_name: Some("c".into()),
        };
        let want = eval_aggregate(&spec, ones.len(), Some(&selected)).map(|v| {
            if ones.is_empty() {
                vec![]
            } else {
                vec![answer_bits(v)]
            }
        });
        for grouped in [
            group_aggregate_encoded(&key_view, &[(func, AggInput::Col(&selected))], &filter),
            group_aggregate_decoded(&[&key], &[(func, Some(&values))], &filter),
        ] {
            let got = grouped.map(|g| {
                g.into_sorted()
                    .into_iter()
                    .map(|(_, parts)| answer_bits(parts[0].finalize()))
                    .collect::<Vec<_>>()
            });
            prop_assert_eq!(got, want.clone(), "{}", func);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn constant_key_groups_answer_like_the_ungrouped_oracle(
        ints in with_filter(arb_runs_int()),
        floats in with_filter(arb_runs_float()),
        strings in with_filter(arb_runs_utf8()),
    ) {
        constant_key_case(ColumnData::Int64(ints.0), ints.1)?;
        constant_key_case(ColumnData::Float64(floats.0), floats.1)?;
        constant_key_case(ColumnData::Utf8(strings.0), strings.1)?;
    }

    #[test]
    fn int_key_encoded_matches_oracle(case in with_filter(arb_runs_int())) {
        int_key_case(case.0, case.1)?;
    }

    #[test]
    fn wide_dictionary_key_encoded_matches_oracle(case in with_filter(arb_wide_dict_int())) {
        int_key_case(case.0, case.1)?;
    }

    #[test]
    fn plain_int_key_encoded_matches_oracle(case in with_filter(arb_plain_int())) {
        plain_int_key_case(case.0, case.1)?;
    }

    #[test]
    fn float_key_encoded_matches_oracle(case in with_filter(arb_runs_float())) {
        float_key_case(case.0, case.1)?;
    }

    #[test]
    fn utf8_key_encoded_matches_oracle(case in with_filter(arb_runs_utf8())) {
        utf8_key_case(case.0, case.1)?;
    }

    #[test]
    fn chunked_merge_matches_chunked_oracle(
        case in with_filter(arb_runs_int()),
        chunk_rows in 1usize..97,
    ) {
        chunked_merge_case(case.0.clone(), case.1.clone(), chunk_rows, AggFunc::Sum)?;
        chunked_merge_case(case.0, case.1, chunk_rows, AggFunc::Avg)?;
    }
}
