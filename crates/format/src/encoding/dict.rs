//! Dictionary encoding: distinct values go to a dictionary page; the data
//! page stores RLE/bit-packed indices into it. This is what gives columns
//! like `linestatus` or `shipmode` their 10–100× compression ratios.

use super::{plain, rle};
use crate::value::ColumnData;

/// A built dictionary: distinct values in first-appearance order plus the
/// per-row code stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DictEncoded {
    /// Distinct values, indexed by code.
    pub dictionary: ColumnData,
    /// One code per row.
    pub indices: Vec<u32>,
}

/// Builds a dictionary for `col`, or returns `None` when dictionary
/// encoding is a bad fit (too many distinct values).
///
/// The cutoff mirrors Parquet's behaviour of abandoning the dictionary once
/// it grows past a bound: here, when distinct values exceed
/// `max_distinct` or the column is empty.
pub fn build(col: &ColumnData, max_distinct: usize) -> Option<DictEncoded> {
    if col.is_empty() {
        return None;
    }
    match col {
        ColumnData::Int64(v) => {
            let mut map = std::collections::HashMap::new();
            let mut dict = Vec::new();
            let mut idx = Vec::with_capacity(v.len());
            for &x in v {
                let next = map.len() as u32;
                let code = *map.entry(x).or_insert_with(|| {
                    dict.push(x);
                    next
                });
                if map.len() > max_distinct {
                    return None;
                }
                idx.push(code);
            }
            Some(DictEncoded {
                dictionary: ColumnData::Int64(dict),
                indices: idx,
            })
        }
        ColumnData::Float64(v) => {
            let mut map = std::collections::HashMap::new();
            let mut dict = Vec::new();
            let mut idx = Vec::with_capacity(v.len());
            for &x in v {
                let key = x.to_bits();
                let next = map.len() as u32;
                let code = *map.entry(key).or_insert_with(|| {
                    dict.push(x);
                    next
                });
                if map.len() > max_distinct {
                    return None;
                }
                idx.push(code);
            }
            Some(DictEncoded {
                dictionary: ColumnData::Float64(dict),
                indices: idx,
            })
        }
        ColumnData::Utf8(v) => {
            let mut map: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
            let mut dict: Vec<String> = Vec::new();
            let mut idx = Vec::with_capacity(v.len());
            for s in v {
                let code = match map.get(s.as_str()) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        dict.push(s.clone());
                        map.insert(s.clone(), c);
                        if dict.len() > max_distinct {
                            return None;
                        }
                        c
                    }
                };
                idx.push(code);
            }
            Some(DictEncoded {
                dictionary: ColumnData::Utf8(dict),
                indices: idx,
            })
        }
    }
}

/// Serializes the index stream (RLE/bit-packed).
pub fn encode_indices(enc: &DictEncoded, out: &mut Vec<u8>) {
    rle::encode(&enc.indices, out);
}

/// Serializes the dictionary page itself (plain encoding of distinct
/// values).
pub fn encode_dictionary(enc: &DictEncoded, out: &mut Vec<u8>) {
    plain::encode(&enc.dictionary, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The column a dictionary and its encoded index stream describe.
    fn decode(dictionary: &ColumnData, idx_bytes: &[u8], count: usize) -> ColumnData {
        let rows: Vec<usize> = rle::decode(idx_bytes, count)
            .unwrap()
            .into_iter()
            .map(|c| c as usize)
            .collect();
        dictionary.take(&rows)
    }

    #[test]
    fn low_cardinality_roundtrip() {
        let col = ColumnData::Utf8(
            ["N", "O", "F", "O", "N", "N", "O", "F", "F", "O"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        let enc = build(&col, 1000).expect("dictionary fits");
        assert_eq!(enc.dictionary.len(), 3);
        let mut idx_bytes = Vec::new();
        encode_indices(&enc, &mut idx_bytes);
        let decoded = decode(&enc.dictionary, &idx_bytes, col.len());
        assert_eq!(decoded, col);
    }

    #[test]
    fn first_appearance_order() {
        let col = ColumnData::Int64(vec![30, 10, 30, 20]);
        let enc = build(&col, 10).unwrap();
        assert_eq!(enc.dictionary, ColumnData::Int64(vec![30, 10, 20]));
        assert_eq!(enc.indices, vec![0, 1, 0, 2]);
    }

    #[test]
    fn too_many_distinct_bails() {
        let col = ColumnData::Int64((0..100).collect());
        assert!(build(&col, 50).is_none());
        assert!(build(&col, 100).is_some());
    }

    #[test]
    fn float_dictionary() {
        let col = ColumnData::Float64(vec![0.5, 0.25, 0.5, 0.5]);
        let enc = build(&col, 10).unwrap();
        assert_eq!(enc.dictionary.len(), 2);
        let mut idx = Vec::new();
        encode_indices(&enc, &mut idx);
        assert_eq!(decode(&enc.dictionary, &idx, 4), col);
    }

    #[test]
    fn empty_column_has_no_dictionary() {
        assert!(build(&ColumnData::Int64(vec![]), 10).is_none());
    }

    #[test]
    fn single_value_column_is_one_code() {
        let col = ColumnData::Utf8(vec!["same".into(); 5000]);
        let enc = build(&col, 10).unwrap();
        let mut idx = Vec::new();
        encode_indices(&enc, &mut idx);
        assert!(idx.len() < 12, "constant column should RLE to ~nothing");
        assert_eq!(decode(&enc.dictionary, &idx, 5000), col);
    }
}
