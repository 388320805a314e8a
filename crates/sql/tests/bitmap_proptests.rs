//! Word-level property tests for [`Bitmap`] against a naive `Vec<bool>`
//! model: boolean algebra, concatenation, span/bit batch fills, the
//! selected-row walk over run-shaped bitmaps, and — critically —
//! tail-bit hygiene at non-multiple-of-64 lengths (a set
//! bit past `len` would corrupt `count_ones`, `not`, and concat).

use fusion_sql::bitmap::{or_bits, or_span, Bitmap};
use proptest::prelude::*;

#[allow(dead_code)]
mod common;
use common::arb_run_filter;

fn from_model(bits: &[bool]) -> Bitmap {
    bits.iter().copied().collect()
}

/// Every bit at index >= len inside the physical words must be zero.
fn assert_tail_clean(bm: &Bitmap) -> Result<(), TestCaseError> {
    let n = bm.len();
    if !n.is_multiple_of(64) {
        if let Some(&last) = bm.words().last() {
            prop_assert_eq!(last & !((1u64 << (n % 64)) - 1), 0, "dirty tail bits");
        }
    }
    prop_assert_eq!(bm.words().len(), n.div_ceil(64));
    Ok(())
}

proptest! {
    #[test]
    fn and_or_not_match_bool_model(
        a in prop::collection::vec(any::<bool>(), 0..300),
        seed in any::<u64>(),
    ) {
        let b: Vec<bool> = (0..a.len()).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let (ba, bb) = (from_model(&a), from_model(&b));

        let mut and = ba.clone();
        and.and_assign(&bb);
        let mut or = ba.clone();
        or.or_assign(&bb);
        let mut not = ba.clone();
        not.not_assign();

        for i in 0..a.len() {
            prop_assert_eq!(and.get(i), a[i] && b[i]);
            prop_assert_eq!(or.get(i), a[i] || b[i]);
            prop_assert_eq!(not.get(i), !a[i]);
        }
        prop_assert_eq!(and.count_ones(), a.iter().zip(&b).filter(|(x, y)| **x && **y).count());
        prop_assert_eq!(not.count_ones(), a.iter().filter(|x| !**x).count());
        assert_tail_clean(&and)?;
        assert_tail_clean(&or)?;
        assert_tail_clean(&not)?;
    }

    #[test]
    fn concat_matches_bool_model(
        parts in prop::collection::vec(prop::collection::vec(any::<bool>(), 0..150), 0..5),
    ) {
        let model: Vec<bool> = parts.iter().flatten().copied().collect();
        let bitmaps: Vec<Bitmap> = parts.iter().map(|p| from_model(p)).collect();
        let got = Bitmap::concat(&bitmaps);
        prop_assert_eq!(got.len(), model.len());
        for (i, &b) in model.iter().enumerate() {
            prop_assert_eq!(got.get(i), b, "bit {}", i);
        }
        assert_tail_clean(&got)?;
    }

    #[test]
    fn set_span_matches_bool_model(
        len in 0usize..300,
        spans in prop::collection::vec((0usize..300, 0usize..100), 0..6),
    ) {
        let mut model = vec![false; len];
        let mut bm = Bitmap::with_len(len);
        for (start, count) in spans {
            // Clamp to stay in range, crossing word boundaries freely.
            let start = start.min(len);
            let count = count.min(len - start);
            bm.set_span(start, count);
            for m in &mut model[start..start + count] {
                *m = true;
            }
        }
        for (i, &b) in model.iter().enumerate() {
            prop_assert_eq!(bm.get(i), b);
        }
        assert_tail_clean(&bm)?;
    }

    #[test]
    fn or_span_and_or_bits_match_bool_model(
        len in 1usize..300,
        spans in prop::collection::vec((0usize..300, 0usize..80), 0..4),
        batches in prop::collection::vec((0usize..300, any::<u64>(), 0usize..=64), 0..4),
    ) {
        let mut model = vec![false; len];
        let mut words = vec![0u64; len.div_ceil(64)];
        for (start, count) in spans {
            let start = start.min(len);
            let count = count.min(len - start);
            or_span(&mut words, start, count);
            for m in &mut model[start..start + count] {
                *m = true;
            }
        }
        for (start, bits, count) in batches {
            let start = start.min(len);
            let count = count.min(len - start);
            or_bits(&mut words, start, bits, count);
            for i in 0..count {
                model[start + i] |= (bits >> i) & 1 == 1;
            }
        }
        let bm = Bitmap::from_words(len, words);
        for (i, &b) in model.iter().enumerate() {
            prop_assert_eq!(bm.get(i), b);
        }
    }

    #[test]
    fn for_each_one_matches_per_bit_get_on_runs(
        bits in (0usize..700).prop_flat_map(arb_run_filter),
        windows in prop::collection::vec((any::<u64>(), any::<u64>()), 1..9),
    ) {
        // Random windows over run-shaped bitmaps: whole words of ones,
        // partial words, and window edges in mid-word.
        let bm = from_model(&bits);
        let n = bits.len();
        let whole = (0u64, n as u64);
        for (a, b) in windows.into_iter().chain([whole]) {
            let start = (a % (n as u64 + 1)) as usize;
            let len = (b % ((n - start) as u64 + 1)) as usize;
            let want: Vec<usize> = (start..start + len).filter(|&i| bm.get(i)).collect();
            let mut got = Vec::new();
            bm.for_each_one(start, len, |i| got.push(i));
            prop_assert_eq!(got, want, "window ({}, {}) of {} bits", start, len, n);
        }
    }

    #[test]
    fn ones_with_len_is_all_ones_and_clean(len in 0usize..300) {
        let bm = Bitmap::ones_with_len(len);
        prop_assert_eq!(bm.len(), len);
        prop_assert_eq!(bm.count_ones(), len);
        let mut inv = bm.clone();
        inv.not_assign();
        prop_assert_eq!(inv.count_ones(), 0);
        assert_tail_clean(&bm)?;
    }
}
