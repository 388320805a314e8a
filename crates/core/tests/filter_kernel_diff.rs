//! The filter kernel's literal paths on the real views: on every
//! dictionary chunk of the seed-1 lineitem object, every comparison
//! operator against a low, a middle and a high dictionary entry gives
//! the same bitmap on the AVX2 path (when the CPU has it) as on the
//! portable table loop, and the portable loop gives decode-then-filter's
//! bitmap.

use fusion_format::chunk::{read_encoded_chunk, Codes, EncodedChunk};
use fusion_format::footer::parse_footer;
use fusion_sql::ast::CmpOp;
use fusion_sql::eval::{eval_filter, eval_filter_encoded_with};
use fusion_sql::kernel::LiteralPath;
use fusion_sql::plan::FilterLeaf;
use fusion_workloads::tpch::{lineitem_file, TpchConfig};

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

#[test]
fn avx2_and_portable_filters_agree_on_every_lineitem_dictionary_chunk() {
    let file = lineitem_file(TpchConfig {
        rows_per_group: 15_000,
        row_groups: 10,
        seed: 1,
    });
    let meta = parse_footer(&file).unwrap();
    let avx2 = LiteralPath::avx2();
    if avx2.is_none() {
        eprintln!("no AVX2 on this CPU: checking the portable path alone");
    }
    let (mut u8_views, mut u16_views) = (0, 0);
    for (rg, col, cm) in meta.chunks() {
        let field = &meta.schema.fields()[col];
        let bytes = &file[cm.offset as usize..(cm.offset + cm.len) as usize];
        let view = read_encoded_chunk(bytes, field.ty).unwrap();
        let EncodedChunk::Dictionary {
            dictionary, codes, ..
        } = &view
        else {
            continue;
        };
        match codes {
            Codes::U8(_) => u8_views += 1,
            Codes::U16(_) => u16_views += 1,
        }
        let decoded = view.decode().unwrap();
        for at in [0, dictionary.len() / 2, dictionary.len() - 1] {
            for op in OPS {
                let leaf = FilterLeaf {
                    id: 0,
                    column: col,
                    column_name: field.name.clone(),
                    op,
                    constant: dictionary.value(at),
                };
                let what = format!("row group {rg}, {} {op:?} entry {at}", field.name);
                let portable =
                    eval_filter_encoded_with(&leaf, &view, LiteralPath::PORTABLE).unwrap();
                assert_eq!(portable, eval_filter(&leaf, &decoded).unwrap(), "{what}");
                if let Some(avx2) = avx2 {
                    let vector = eval_filter_encoded_with(&leaf, &view, avx2).unwrap();
                    assert_eq!(vector, portable, "AVX2, {what}");
                }
            }
        }
    }
    // Both code widths occur: flags and small domains take u8 codes,
    // dates u16.
    assert!(
        u8_views > 0 && u16_views > 0,
        "{u8_views} u8 and {u16_views} u16 views"
    );
}
