//! Property tests: any table must roundtrip through file bytes, and chunk
//! metadata must be internally consistent.

use fusion_format::prelude::*;
use fusion_format::util::{crc32, crc32_reference};
use proptest::prelude::*;

/// Strategy producing an arbitrary small table.
fn arb_table() -> impl Strategy<Value = Table> {
    // Column type choices per column, then row data.
    (1usize..5, 0usize..300).prop_flat_map(|(ncols, nrows)| {
        let cols = prop::collection::vec(0u8..3, ncols);
        cols.prop_flat_map(move |kinds| {
            let mut fields = Vec::new();
            let mut strategies: Vec<BoxedStrategy<ColumnData>> = Vec::new();
            for (i, k) in kinds.iter().enumerate() {
                match k {
                    0 => {
                        fields.push(Field::new(format!("c{i}"), LogicalType::Int64));
                        strategies.push(
                            prop::collection::vec(-1000i64..1000, nrows)
                                .prop_map(ColumnData::Int64)
                                .boxed(),
                        );
                    }
                    1 => {
                        fields.push(Field::new(format!("c{i}"), LogicalType::Float64));
                        strategies.push(
                            prop::collection::vec(-1e6f64..1e6, nrows)
                                .prop_map(ColumnData::Float64)
                                .boxed(),
                        );
                    }
                    _ => {
                        fields.push(Field::new(format!("c{i}"), LogicalType::Utf8));
                        strategies.push(
                            prop::collection::vec("[a-z]{0,12}", nrows)
                                .prop_map(ColumnData::Utf8)
                                .boxed(),
                        );
                    }
                }
            }
            let schema = Schema::new(fields);
            strategies.prop_map(move |columns| Table::new(schema.clone(), columns).unwrap())
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn table_roundtrip(table in arb_table(), per_group in 1usize..128) {
        let bytes = write_table(&table, WriteOptions { rows_per_group: per_group }).unwrap();
        let reader = FileReader::open(&bytes).unwrap();
        prop_assert_eq!(reader.read_table().unwrap(), table);
    }

    #[test]
    fn chunk_meta_consistent(table in arb_table()) {
        let bytes = write_table(&table, WriteOptions { rows_per_group: 64 }).unwrap();
        let meta = parse_footer(&bytes).unwrap();
        // Value counts per row group must equal the row count.
        for rg in &meta.row_groups {
            for c in &rg.chunks {
                prop_assert_eq!(c.value_count, rg.row_count);
            }
        }
        // Extents are contiguous, non-overlapping, and inside the file.
        let mut offset = 0u64;
        for (_, _, c) in meta.chunks() {
            prop_assert_eq!(c.offset, offset);
            offset += c.len;
        }
        prop_assert!(offset <= bytes.len() as u64);
        prop_assert_eq!(meta.num_rows() as usize, table.num_rows());
    }

    #[test]
    fn min_max_bound_all_values(col in prop::collection::vec(-500i64..500, 1..200)) {
        let schema = Schema::new(vec![Field::new("v", LogicalType::Int64)]);
        let table = Table::new(schema, vec![ColumnData::Int64(col.clone())]).unwrap();
        let bytes = write_table(&table, WriteOptions { rows_per_group: 50 }).unwrap();
        let meta = parse_footer(&bytes).unwrap();
        let mut row = 0;
        for rg in &meta.row_groups {
            let c = &rg.chunks[0];
            let (lo, hi) = match (&c.min, &c.max) {
                (Some(Value::Int(a)), Some(Value::Int(b))) => (*a, *b),
                other => return Err(TestCaseError::fail(format!("bad stats {other:?}"))),
            };
            for _ in 0..rg.row_count {
                prop_assert!(col[row] >= lo && col[row] <= hi);
                row += 1;
            }
        }
    }

    #[test]
    fn open_never_panics_on_junk(junk in prop::collection::vec(any::<u8>(), 0..600)) {
        let _ = FileReader::open(&junk);
    }

    #[test]
    fn crc32_matches_reference(
        data in prop::collection::vec(any::<u8>(), 0..=65536),
        start in 0usize..16,
    ) {
        let s = &data[start.min(data.len())..];
        prop_assert_eq!(crc32(s), crc32_reference(s));
    }
}

mod rle_runs {
    //! Differential: the run-structured RLE view must flatten to exactly
    //! what the scalar decoder produces, for any code stream the encoder
    //! can emit (mixed RLE runs and bit-packed literals, any width).

    use fusion_format::encoding::rle::{self, Run};
    use proptest::prelude::*;

    fn arb_codes() -> impl Strategy<Value = Vec<u32>> {
        prop::collection::vec(
            (
                prop_oneof![
                    (0u32..4).boxed(),
                    (0u32..100_000).boxed(),
                    Just(u32::MAX).boxed(),
                ],
                1usize..50,
            ),
            0..30,
        )
        .prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(v, n)| std::iter::repeat_n(v, n))
                .collect()
        })
    }

    proptest! {
        #[test]
        fn decode_runs_flattens_to_decode(codes in arb_codes()) {
            let mut bytes = Vec::new();
            rle::encode(&codes, &mut bytes);
            let flat = rle::decode(&bytes, codes.len()).unwrap();
            prop_assert_eq!(&flat, &codes);
            let runs = rle::decode_runs::<u32>(&bytes, codes.len(), 32).unwrap();
            let expanded: Vec<u32> = runs
                .runs
                .iter()
                .flat_map(|&r| match r {
                    Run::Rle { value, len } => vec![value; len],
                    Run::Literal { start, len } => runs.codes[start..start + len].to_vec(),
                })
                .collect();
            prop_assert_eq!(expanded, codes);
            prop_assert_eq!(runs.runs.iter().map(Run::len).sum::<usize>(), flat.len());
        }
    }
}
