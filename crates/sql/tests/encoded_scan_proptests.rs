//! Differential property tests for the encoded-domain scan kernels:
//! `eval_filter_encoded` over an [`EncodedChunk`] view must be
//! bit-identical to the decode-then-`eval_filter` path for every
//! encoding the writer chooses, every comparison operator, and every
//! edge value (extremes, NaN, empty strings), over u8 and u16 code
//! widths.

use fusion_format::chunk::{
    decode_column_chunk, encode_column_chunk, read_encoded_chunk, Codes, EncodedChunk,
};
use fusion_format::schema::LogicalType;
use fusion_format::value::{ColumnData, Value};
use fusion_sql::ast::CmpOp;
use fusion_sql::eval::{eval_filter, eval_filter_encoded};
use fusion_sql::plan::FilterLeaf;
use proptest::prelude::*;

// The filter kernels take no filter input: only the column generators
// are used here.
#[allow(dead_code)]
mod common;

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Integers drawn from a small alphabet (dictionary + RLE friendly) with
/// extremes mixed in; long runs come from the `(value, repeat)` shape.
fn arb_runs_int() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        (
            prop_oneof![
                (-3i64..4).boxed(),
                Just(i64::MIN).boxed(),
                Just(i64::MAX).boxed(),
            ],
            1usize..80,
        ),
        0..40,
    )
    .prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()
    })
}

/// High-cardinality integers the writer will keep plain.
fn arb_plain_int() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(any::<i64>(), 0..300)
}

/// `PartialEq` equality, except floats compare by bit pattern so a
/// roundtripped NaN counts as equal to itself.
fn cols_bitwise_eq(a: &ColumnData, b: &ColumnData) -> bool {
    match (a, b) {
        (ColumnData::Float64(x), ColumnData::Float64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

fn assert_paths_agree(
    col: &ColumnData,
    ty: LogicalType,
    leaf: &FilterLeaf,
) -> Result<(), TestCaseError> {
    let (bytes, _) = encode_column_chunk(col);
    let chunk = read_encoded_chunk(&bytes, ty).unwrap();
    let decoded = decode_column_chunk(&bytes, ty).unwrap();
    prop_assert!(
        cols_bitwise_eq(&decoded, &chunk.decode().unwrap()),
        "view decode mismatch"
    );
    let fast = eval_filter_encoded(leaf, &chunk).unwrap();
    let slow = eval_filter(leaf, &decoded).unwrap();
    prop_assert_eq!(fast.len(), slow.len());
    // Word-for-word equality also proves tail-bit hygiene on both paths.
    prop_assert_eq!(fast.words(), slow.words());
    Ok(())
}

fn leaf(op: CmpOp, constant: Value) -> FilterLeaf {
    FilterLeaf {
        id: 0,
        column: 0,
        column_name: "x".into(),
        op,
        constant,
    }
}

proptest! {
    #[test]
    fn int_runs_encoded_matches_decoded(
        data in arb_runs_int(),
        c in prop_oneof![(-4i64..5).boxed(), Just(i64::MIN).boxed(), Just(i64::MAX).boxed()],
        op in arb_op(),
    ) {
        let col = ColumnData::Int64(data);
        assert_paths_agree(&col, LogicalType::Int64, &leaf(op, Value::Int(c)))?;
    }

    #[test]
    fn int_plain_encoded_matches_decoded(
        data in arb_plain_int(),
        c in any::<i64>(),
        op in arb_op(),
    ) {
        let col = ColumnData::Int64(data);
        assert_paths_agree(&col, LogicalType::Int64, &leaf(op, Value::Int(c)))?;
    }

    #[test]
    fn int_vs_float_constant_encoded_matches_decoded(
        data in arb_runs_int(),
        c in prop_oneof![
            (-4.0f64..5.0).boxed(),
            Just(f64::NAN).boxed(),
            Just(f64::INFINITY).boxed(),
            Just(f64::NEG_INFINITY).boxed(),
        ],
        op in arb_op(),
    ) {
        let col = ColumnData::Int64(data);
        assert_paths_agree(&col, LogicalType::Int64, &leaf(op, Value::Float(c)))?;
    }

    #[test]
    fn float_encoded_matches_decoded(
        runs in prop::collection::vec(
            (
                prop_oneof![
                    (-2.0f64..3.0).boxed(),
                    Just(f64::NAN).boxed(),
                    Just(f64::INFINITY).boxed(),
                    Just(-0.0f64).boxed(),
                ],
                1usize..60,
            ),
            0..30,
        ),
        c in prop_oneof![(-3.0f64..4.0).boxed(), Just(f64::NAN).boxed()],
        op in arb_op(),
    ) {
        let data: Vec<f64> = runs
            .into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let col = ColumnData::Float64(data);
        assert_paths_agree(&col, LogicalType::Float64, &leaf(op, Value::Float(c)))?;
    }

    #[test]
    fn utf8_encoded_matches_decoded(
        runs in prop::collection::vec(("[a-c]{0,3}", 1usize..70), 0..40),
        c in "[a-c]{0,3}",
        op in arb_op(),
    ) {
        let data: Vec<String> = runs
            .into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let col = ColumnData::Utf8(data);
        assert_paths_agree(&col, LogicalType::Utf8, &leaf(op, Value::Str(c)))?;
    }

    #[test]
    fn date_encoded_matches_decoded(
        runs in prop::collection::vec((0i64..6, 1usize..90), 0..30),
        c in 0i64..7,
        op in arb_op(),
    ) {
        let data: Vec<i64> = runs
            .into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect();
        let col = ColumnData::Int64(data);
        // Date shares Int64's physical representation and kernels.
        assert_paths_agree(&col, LogicalType::Date, &leaf(op, Value::Int(c)))?;
    }

    #[test]
    fn wide_dictionaries_encoded_match_decoded(
        data in common::arb_wide_dict_int(),
        k in 0usize..3200,
        op in arb_op(),
    ) {
        let col = ColumnData::Int64(data);
        // 256 entries or fewer take u8 codes, more take u16.
        let distinct = col.as_int64().unwrap().iter().collect::<std::collections::HashSet<_>>().len();
        let (bytes, _) = encode_column_chunk(&col);
        match read_encoded_chunk(&bytes, LogicalType::Int64).unwrap() {
            EncodedChunk::Dictionary { codes, .. } => {
                prop_assert_eq!(matches!(codes, Codes::U16(_)), distinct > 256);
            }
            EncodedChunk::Plain(_) => prop_assert!(false, "{distinct} entries stayed plain"),
        }
        let c = common::wide_dict_value(k);
        assert_paths_agree(&col, LogicalType::Int64, &leaf(op, Value::Int(c)))?;
    }
}
