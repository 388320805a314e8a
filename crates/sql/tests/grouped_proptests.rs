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

use fusion_format::chunk::{
    decode_column_chunk, encode_column_chunk, read_encoded_chunk, EncodedChunk,
};
use fusion_format::encoding::rle::Run;
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

/// The chunk view of an argument column, as [`AggInput::View`] takes it.
fn view_of(col: &ColumnData) -> EncodedChunk {
    let ty = match col {
        ColumnData::Int64(_) => LogicalType::Int64,
        ColumnData::Float64(_) => LogicalType::Float64,
        ColumnData::Utf8(_) => LogicalType::Utf8,
    };
    let (bytes, _) = encode_column_chunk(col);
    read_encoded_chunk(&bytes, ty).unwrap()
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
    let arg_view = view_of(&arg);
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
        (AggFunc::Avg, AggInput::View(&arg_view)),
        (AggFunc::Sum, AggInput::View(&arg_view)),
        (AggFunc::Min, AggInput::View(&arg_view)),
        (AggFunc::Max, AggInput::View(&arg_view)),
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
    let ints_view = view_of(&ints);
    let aggs_enc = [
        (AggFunc::Sum, AggInput::View(&ints_view)),
        (AggFunc::Avg, AggInput::View(&ints_view)),
        (AggFunc::Min, AggInput::View(&ints_view)),
        (AggFunc::Max, AggInput::View(&ints_view)),
        (AggFunc::Count, AggInput::View(&ints_view)),
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
    let arg_view = view_of(&arg);
    let aggs_enc = [
        (AggFunc::Count, AggInput::Star),
        (AggFunc::Sum, AggInput::Key),
        (AggFunc::Avg, AggInput::View(&arg_view)),
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
    let (arg_view, strs_view) = (view_of(&arg), view_of(&strs));
    let aggs_enc = [
        (AggFunc::Count, AggInput::Star),
        (AggFunc::Min, AggInput::Key),
        (AggFunc::Max, AggInput::Key),
        (AggFunc::Avg, AggInput::View(&arg_view)),
        (AggFunc::Min, AggInput::View(&arg_view)),
        (AggFunc::Min, AggInput::View(&strs_view)),
        (AggFunc::Max, AggInput::View(&strs_view)),
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
        let arg_view = view_of(&arg_chunk);
        let (bytes, _) = encode_column_chunk(&key_chunk);
        let view = read_encoded_chunk(&bytes, LogicalType::Int64).unwrap();
        let aggs_enc = [
            (AggFunc::Count, AggInput::Star),
            (key_agg, AggInput::Key),
            (AggFunc::Avg, AggInput::View(&arg_view)),
            (AggFunc::Min, AggInput::View(&arg_view)),
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
    let values_view = view_of(&values);
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
            group_aggregate_encoded(&key_view, &[(func, AggInput::View(&values_view))], &filter),
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

/// Runs each aggregate of a dictionary-keyed group over the argument
/// column `arg` handed over as its view ([`AggInput::View`]: pair counts
/// when the function and table size allow, the row walk otherwise),
/// alone and all together, against the decoded oracle.
fn pair_case(
    key: &ColumnData,
    arg: &ColumnData,
    arg_ty: LogicalType,
    filter: &Bitmap,
) -> Result<(), TestCaseError> {
    pair_case_over(key, arg, &view_of(arg), arg_ty, filter)
}

/// [`pair_case`] with `arg` handed over as `arg_view`.
fn pair_case_over(
    key: &ColumnData,
    arg: &ColumnData,
    arg_view: &EncodedChunk,
    arg_ty: LogicalType,
    filter: &Bitmap,
) -> Result<(), TestCaseError> {
    let key_view = view_of(key);
    let funcs: &[AggFunc] = match arg_ty {
        LogicalType::Utf8 => &[AggFunc::Count, AggFunc::Min, AggFunc::Max],
        _ => &[
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ],
    };
    let mut runs: Vec<Vec<AggFunc>> = funcs.iter().map(|&f| vec![f]).collect();
    runs.push(funcs.to_vec());
    for run in runs {
        let enc: Vec<_> = run.iter().map(|&f| (f, AggInput::View(arg_view))).collect();
        let dec: Vec<_> = run.iter().map(|&f| (f, Some(arg))).collect();
        let fast = group_aggregate_encoded(&key_view, &enc, filter);
        let slow = group_aggregate_decoded(&[key], &dec, filter);
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => prop_assert_eq!(finalized(fast), finalized(slow), "{:?}", run),
            (Err(SqlError::Overflow(_)), Err(SqlError::Overflow(_))) => {}
            (fast, slow) => {
                return Err(TestCaseError::fail(format!(
                    "{run:?}: encoded={fast:?} decoded={slow:?}"
                )))
            }
        }
    }
    Ok(())
}

/// A 3-entry key with a 128-row run, literal codes, then a 100-row run.
fn runs_and_literals_key(n: usize) -> ColumnData {
    ColumnData::Int64(
        (0..n)
            .map(|i| match i {
                i if i < 128 => 0,
                i if i + 100 >= n => 2,
                i => (i * 7 % 3) as i64,
            })
            .collect(),
    )
}

#[test]
fn pair_counts_match_the_oracle_over_u8_and_u16_arguments() {
    let n = 4000;
    let key = runs_and_literals_key(n);
    // u8 codes: 50 entries (negative ones too), with a 200-row run that
    // straddles the key's literal span.
    let small = ColumnData::Int64(
        (0..n)
            .map(|i| match i {
                300..500 => 77,
                i => (i * 31 % 50) as i64 * 3 - 40,
            })
            .collect(),
    );
    // u16 codes: 300 entries, so 3 × 300 = 900 cells — on the pair side
    // of the table-size rule under a dense filter, the gather side under
    // a sparse one.
    let wide = ColumnData::Int64((0..n).map(|i| wide_dict_value(i * 7 % 300)).collect());
    let strings = ColumnData::Utf8((0..n).map(|i| format!("s{:03}", i * 13 % 40)).collect());
    let dense: Bitmap = (0..n).map(|i| i % 7 != 3).collect();
    let sparse: Bitmap = (0..n).map(|i| i % 16 == 5).collect();
    let runs: Bitmap = (0..n).map(|i| (i / 64) % 3 != 1).collect();
    for filter in [&dense, &sparse, &runs, &Bitmap::ones_with_len(n)] {
        pair_case(&key, &small, LogicalType::Int64, filter).unwrap();
        pair_case(&key, &wide, LogicalType::Int64, filter).unwrap();
        pair_case(&key, &strings, LogicalType::Utf8, filter).unwrap();
    }
    for (col, u16_codes) in [(&small, false), (&wide, true)] {
        let (bytes, _) = encode_column_chunk(col);
        let view = read_encoded_chunk(&bytes, LogicalType::Int64).unwrap();
        let fusion_format::chunk::EncodedChunk::Dictionary { codes, .. } = view else {
            panic!("expected a dictionary view");
        };
        assert_eq!(
            matches!(codes, fusion_format::chunk::Codes::U16(_)),
            u16_codes
        );
    }
}

#[test]
fn pair_counted_sum_defers_to_row_order_when_only_a_prefix_can_overflow() {
    // One group, 256 rows: the first three hold the terms below, the rest
    // 0. (MAX, 1, -1) overflows on its second row although the total fits;
    // (-1, MAX, 1) never leaves i64. Both exceed the pair bound, so both
    // are decided by the row walk, as the oracle decides them. A plain
    // argument view always takes the row walk.
    let key = ColumnData::Int64(vec![7; 256]);
    let all = Bitmap::ones_with_len(256);
    for head in [[i64::MAX, 1, -1], [-1, i64::MAX, 1], [i64::MIN, -1, 1]] {
        let mut vals = head.to_vec();
        vals.resize(256, 0);
        let arg = ColumnData::Int64(vals);
        pair_case(&key, &arg, LogicalType::Int64, &all).unwrap();
        let plain = EncodedChunk::Plain(arg.clone());
        pair_case_over(&key, &arg, &plain, LogicalType::Int64, &all).unwrap();
    }
}

#[test]
fn float_arguments_keep_the_row_order_fold() {
    // n × 0.1 and n additions of 0.1 round differently: a float SUM or
    // AVG from pair counts would not be bit-identical to the oracle.
    let n = 3000;
    let key = runs_and_literals_key(n);
    let all = Bitmap::ones_with_len(n);
    let arg = ColumnData::Float64((0..n).map(|i| [0.1, 0.2, 0.3][i % 3]).collect());
    pair_case(&key, &arg, LogicalType::Float64, &all).unwrap();
    // A 200-row run of one value covers the key's 128-row run and goes on
    // into its literal span: the row walk adds the run-against-run piece
    // as one `add` of 128 rows, then the rest of the run row by row.
    let arg = ColumnData::Float64(
        (0..n)
            .map(|i| if i < 200 { 0.7 } else { [0.1, 0.2, 0.3][i % 3] })
            .collect(),
    );
    let EncodedChunk::Dictionary { runs, .. } = view_of(&arg) else {
        panic!("expected a dictionary view");
    };
    assert!(
        matches!(runs[0], Run::Rle { len, .. } if len >= 200),
        "{:?}",
        runs[0]
    );
    pair_case(&key, &arg, LogicalType::Float64, &all).unwrap();
}

proptest! {
    #[test]
    fn pair_counts_match_oracle(
        key in arb_runs_int(),
        arg in arb_runs_int(),
        dense in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let n = key.len().min(arg.len());
        let (key, arg) = (ColumnData::Int64(key[..n].to_vec()), ColumnData::Int64(arg[..n].to_vec()));
        let filter: Bitmap = (0..n)
            .map(|i| (seed.rotate_left(i as u32 % 64) & if dense { 3 } else { 1 }) != 0)
            .collect();
        pair_case(&key, &arg, LogicalType::Int64, &filter)?;
    }
}
