//! `scan` criterion group: the warm-path scan kernels on the real chunk
//! views of the 10 × 15k-row lineitem object (seed 1) that the perfbench
//! mix queries, one case per kernel call of that mix. Each iteration
//! runs its kernel over every row group's view in turn, as a query does,
//! so divide its ns/iter by 10 for one row group:
//!
//! * `parse/<column>`: `read_encoded_chunk` of `quantity`, `returnflag`,
//!   `shipmode` (u8 codes) and `shipdate` (u16 codes), the chunk-miss
//!   side of the view layout the other cases scan;
//! * `filter/<column>`: `eval_filter_encoded` with the mix's predicates
//!   on `quantity`, `discount`, `returnflag` and `shipmode`;
//! * `fold/min_max_shipdate`: `PartialAgg::fold` of MIN and MAX of
//!   `shipdate` under an all-ones filter, sharing each row group's
//!   `Selection` as the projection stage does: the memoized fold, which
//!   reads each view's used-entry memo (filled by the oracle check
//!   before timing) instead of walking its rows;
//! * `fold/sum_extendedprice`: SUM of `extendedprice` where
//!   `quantity <= 10`;
//! * `group/returnflag`: `count(*), sum(quantity)` by `returnflag` where
//!   `discount < 0.03`, as the grouped stage runs it: `quantity` goes in
//!   as its view, so `group_aggregate_encoded` counts (key code,
//!   argument code) pairs in one walk of both views;
//! * `group/returnflag_rows`: `count(*), sum(extendedprice),
//!   avg(discount), max(discount)` by `returnflag` under the same
//!   filter: float arguments, so each aggregate takes the row walk, over
//!   a plain view (`extendedprice`) and a dictionary view (`discount`);
//! * `select/<column>`: `select_encoded` of `extendedprice` (where
//!   `quantity < 5`) and `orderkey` (where `returnflag = 'A' AND
//!   shipmode = 'AIR'`).
//!
//! Every case checks its answer against the decoded oracle before it is
//! timed. Run with `cargo bench -p fusion-bench --bench scan`.

use criterion::{criterion_group, criterion_main, Criterion};
use fusion_format::chunk::{read_encoded_chunk, EncodedChunk};
use fusion_format::footer::parse_footer;
use fusion_format::schema::LogicalType;
use fusion_format::value::{ColumnData, Value};
use fusion_sql::ast::{AggFunc, CmpOp};
use fusion_sql::bitmap::Bitmap;
use fusion_sql::eval::{
    eval_aggregate, eval_filter, eval_filter_encoded, group_aggregate_decoded,
    group_aggregate_encoded, select_encoded, AggInput,
};
use fusion_sql::partial::{PartialAgg, Selection};
use fusion_sql::plan::{AggregateSpec, FilterLeaf};
use fusion_workloads::tpch::{lineitem_file, TpchConfig};

/// One lineitem column's chunk bytes and parsed views, one per row group.
struct Column {
    ty: LogicalType,
    chunks: Vec<Vec<u8>>,
    views: Vec<EncodedChunk>,
}

impl Column {
    fn decoded(&self, rg: usize) -> ColumnData {
        self.views[rg].decode().expect("valid view")
    }
}

fn lineitem_columns(names: &[&str]) -> Vec<Column> {
    let file = lineitem_file(TpchConfig {
        rows_per_group: 15_000,
        row_groups: 10,
        seed: 1,
    });
    let meta = parse_footer(&file).expect("valid footer");
    names
        .iter()
        .map(|name| {
            let col = meta.schema.index_of(name).expect("lineitem column");
            let ty = meta.schema.fields()[col].ty;
            let chunks: Vec<Vec<u8>> = meta
                .row_groups
                .iter()
                .map(|rg| {
                    let cm = &rg.chunks[col];
                    file[cm.offset as usize..(cm.offset + cm.len) as usize].to_vec()
                })
                .collect();
            let views = chunks
                .iter()
                .map(|bytes| read_encoded_chunk(bytes, ty).expect("valid chunk"))
                .collect();
            Column { ty, chunks, views }
        })
        .collect()
}

fn leaf(op: CmpOp, constant: Value) -> FilterLeaf {
    FilterLeaf {
        id: 0,
        column: 0,
        column_name: "c".into(),
        op,
        constant,
    }
}

/// Each row group's bitmap of `leaf` over `col`.
fn filters(col: &Column, leaf: &FilterLeaf) -> Vec<Bitmap> {
    col.views
        .iter()
        .map(|v| eval_filter_encoded(leaf, v).expect("filter"))
        .collect()
}

fn selected(col: &ColumnData, filter: &Bitmap) -> ColumnData {
    col.take(&filter.ones().collect::<Vec<_>>())
}

fn bench_scan(c: &mut Criterion) {
    let cols = lineitem_columns(&[
        "quantity",
        "discount",
        "returnflag",
        "shipmode",
        "shipdate",
        "extendedprice",
        "orderkey",
    ]);
    let [quantity, discount, returnflag, shipmode, shipdate, extendedprice, orderkey] = &cols[..]
    else {
        unreachable!("seven columns")
    };
    let mut g = c.benchmark_group("scan");
    g.sample_size(200);

    for (name, col) in [
        ("quantity", quantity),
        ("returnflag", returnflag),
        ("shipmode", shipmode),
        ("shipdate", shipdate),
    ] {
        g.bench_function(format!("parse/{name}"), |b| {
            b.iter(|| {
                for bytes in &col.chunks {
                    std::hint::black_box(read_encoded_chunk(bytes, col.ty).expect("valid chunk"));
                }
            })
        });
    }

    let leaves = [
        ("quantity", quantity, leaf(CmpOp::Le, Value::Int(10))),
        ("discount", discount, leaf(CmpOp::Lt, Value::Float(0.03))),
        ("returnflag", returnflag, leaf(CmpOp::Eq, Value::from("A"))),
        ("shipmode", shipmode, leaf(CmpOp::Eq, Value::from("AIR"))),
    ];
    for (name, col, leaf) in &leaves {
        for (rg, view) in col.views.iter().enumerate() {
            assert_eq!(
                eval_filter_encoded(leaf, view).expect("filter"),
                eval_filter(leaf, &col.decoded(rg)).expect("oracle"),
                "filter/{name}"
            );
        }
        g.bench_function(format!("filter/{name}"), |b| {
            b.iter(|| {
                for view in &col.views {
                    std::hint::black_box(eval_filter_encoded(leaf, view).expect("filter"));
                }
            })
        });
    }

    // One state per aggregate, each row group's selection shared by them.
    let fold_case = |funcs: &[AggFunc], col: &Column, filters: &[Bitmap]| {
        let mut states: Vec<PartialAgg> = funcs
            .iter()
            .map(|&f| PartialAgg::new(f, col.ty).expect("state"))
            .collect();
        for (view, filter) in col.views.iter().zip(filters) {
            let rows = Selection::new(view, filter);
            for state in &mut states {
                state.fold(&rows).expect("fold");
            }
        }
        states
    };
    let check_fold = |func: AggFunc, col: &Column, filters: &[Bitmap]| {
        let mut rows = ColumnData::with_capacity(col.ty, 0);
        for (view, filter) in col.views.iter().zip(filters) {
            select_encoded(view, filter, &mut rows).expect("select");
        }
        let spec = AggregateSpec {
            func,
            column: Some(0),
            column_name: Some("c".into()),
        };
        assert_eq!(
            fold_case(&[func], col, filters)[0].finalize(),
            eval_aggregate(&spec, rows.len(), Some(&rows)).expect("oracle"),
            "fold {func}"
        );
    };

    let all: Vec<Bitmap> = shipdate
        .views
        .iter()
        .map(|v| Bitmap::ones_with_len(v.rows()))
        .collect();
    check_fold(AggFunc::Min, shipdate, &all);
    check_fold(AggFunc::Max, shipdate, &all);
    g.bench_function("fold/min_max_shipdate", |b| {
        b.iter(|| fold_case(&[AggFunc::Min, AggFunc::Max], shipdate, &all))
    });

    let qty_le_10 = filters(quantity, &leaves[0].2);
    check_fold(AggFunc::Sum, extendedprice, &qty_le_10);
    g.bench_function("fold/sum_extendedprice", |b| {
        b.iter(|| fold_case(&[AggFunc::Sum], extendedprice, &qty_le_10))
    });

    // GROUP BY returnflag where discount < 0.03, each case's aggregates as
    // (function, argument column or `None` for `*`), arguments as views.
    let disc_lt_3 = filters(discount, &leaves[1].2);
    let count = (AggFunc::Count, None);
    for (name, aggs) in [
        ("returnflag", vec![count, (AggFunc::Sum, Some(quantity))]),
        (
            "returnflag_rows",
            vec![
                count,
                (AggFunc::Sum, Some(extendedprice)),
                (AggFunc::Avg, Some(discount)),
                (AggFunc::Max, Some(discount)),
            ],
        ),
    ] {
        let inputs: Vec<Vec<(AggFunc, AggInput)>> = (0..returnflag.views.len())
            .map(|rg| {
                aggs.iter()
                    .map(|&(f, col)| {
                        (
                            f,
                            col.map_or(AggInput::Star, |c| AggInput::View(&c.views[rg])),
                        )
                    })
                    .collect()
            })
            .collect();
        let group = |rg: usize| {
            group_aggregate_encoded(&returnflag.views[rg], &inputs[rg], &disc_lt_3[rg])
                .expect("group")
        };
        for (rg, filter) in disc_lt_3.iter().enumerate() {
            let key = returnflag.decoded(rg);
            let args: Vec<Option<ColumnData>> = aggs
                .iter()
                .map(|(_, col)| col.map(|c| c.decoded(rg)))
                .collect();
            let decoded: Vec<_> = aggs
                .iter()
                .zip(&args)
                .map(|(&(f, _), arg)| (f, arg.as_ref()))
                .collect();
            let oracle = group_aggregate_decoded(&[&key], &decoded, filter).expect("oracle");
            assert_eq!(group(rg), oracle, "group/{name}");
        }
        g.bench_function(format!("group/{name}"), |b| {
            b.iter(|| {
                for rg in 0..returnflag.views.len() {
                    std::hint::black_box(group(rg));
                }
            })
        });
    }

    let qty_lt_5 = filters(quantity, &leaf(CmpOp::Lt, Value::Int(5)));
    let air_a: Vec<Bitmap> = filters(returnflag, &leaves[2].2)
        .into_iter()
        .zip(filters(shipmode, &leaves[3].2))
        .map(|(mut a, b)| {
            a.and_assign(&b);
            a
        })
        .collect();
    for (name, col, filters) in [
        ("extendedprice", extendedprice, &qty_lt_5),
        ("orderkey", orderkey, &air_a),
    ] {
        for (rg, filter) in filters.iter().enumerate() {
            let mut out = ColumnData::with_capacity(col.ty, 0);
            select_encoded(&col.views[rg], filter, &mut out).expect("select");
            assert_eq!(out, selected(&col.decoded(rg), filter), "select/{name}");
        }
        g.bench_function(format!("select/{name}"), |b| {
            b.iter(|| {
                let mut out = ColumnData::with_capacity(col.ty, 0);
                for (view, filter) in col.views.iter().zip(filters) {
                    select_encoded(view, filter, &mut out).expect("select");
                }
                out
            })
        });
    }
    g.finish();
}

criterion_group!(scan, bench_scan);
criterion_main!(scan);
