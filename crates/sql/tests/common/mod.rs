//! Column and filter generators shared by the differential proptests.

use fusion_sql::bitmap::Bitmap;
use proptest::prelude::*;

/// Run-shaped integers (dictionary + RLE friendly) with i64 extremes
/// mixed in so SUM overflow paths get exercised.
pub fn arb_runs_int() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        (
            prop_oneof![
                (-3i64..4).boxed(),
                Just(i64::MIN).boxed(),
                Just(i64::MAX).boxed(),
            ],
            1usize..80,
        ),
        0..30,
    )
    .prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()
    })
}

/// Run-shaped floats with NaN, both infinities, and both zeros.
pub fn arb_runs_float() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        (
            prop_oneof![
                (-2.0f64..3.0).boxed(),
                Just(f64::NAN).boxed(),
                Just(f64::INFINITY).boxed(),
                Just(f64::NEG_INFINITY).boxed(),
                Just(-0.0f64).boxed(),
                Just(0.0f64).boxed(),
            ],
            1usize..71,
        ),
        0..25,
    )
    .prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()
    })
}

/// Run-shaped strings from a tiny alphabet.
pub fn arb_runs_utf8() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(("[a-c]{0,3}", 1usize..71), 0..25).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()
    })
}

/// Entry `k` of an [`arb_wide_dict_int`] dictionary: spread over all 64
/// bits, so a plain page of them barely compresses.
pub fn wide_dict_value(k: usize) -> i64 {
    (k as i64 + 1).wrapping_mul(0x5851_F42D_4C95_7F2D)
}

/// Integers over a dictionary of 255, 256, 257 or about 3,000 entries:
/// both sides of the u8/u16 code width, and a wide u16 one. Every entry
/// appears four times in a scattered order, so the writer keeps the
/// dictionary, and RLE runs of 8–70 rows of one entry are spliced in:
/// at parse a run shorter than a 64-row word folds into the literal
/// codes around it, a longer one stays a run.
pub fn arb_wide_dict_int() -> impl Strategy<Value = Vec<i64>> {
    (
        prop_oneof![
            Just(255usize).boxed(),
            Just(256usize).boxed(),
            Just(257usize).boxed(),
            (2900usize..3100).boxed(),
        ],
        0usize..1000,
        prop::collection::vec((0usize..1 << 16, 8usize..71, 0usize..1 << 16), 0..8),
    )
        .prop_map(|(entries, step, runs)| {
            // Each pass visits every entry once, in the order of an odd
            // step coprime to `entries`, a different step per pass.
            let gcd = |mut a: usize, mut b: usize| {
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                a
            };
            let mut step = 2 * step + 1;
            let mut col = Vec::with_capacity(4 * entries);
            for _ in 0..4 {
                while gcd(step, entries) != 1 {
                    step += 2;
                }
                col.extend((0..entries).map(|i| wide_dict_value(i * step % entries)));
                step += 2;
            }
            for (entry, len, at) in runs {
                let at = at % (col.len() + 1);
                let run = std::iter::repeat_n(wide_dict_value(entry % entries), len);
                col.splice(at..at, run);
            }
            col
        })
}

/// High-cardinality integers the writer keeps plain.
pub fn arb_plain_int() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(-1000i64..1000, 0..250)
}

/// A filter over `n` rows: random bits, all ones, all zeros (the 0%
/// and 100% selectivity edges), or runs of ones and zeros
/// ([`arb_run_filter`]).
pub fn arb_filter(n: usize) -> BoxedStrategy<Vec<bool>> {
    prop_oneof![
        prop::collection::vec(any::<bool>(), n..=n).boxed(),
        Just(vec![true; n]).boxed(),
        Just(vec![false; n]).boxed(),
        arb_run_filter(n).boxed(),
    ]
    .boxed()
}

/// A filter over `n` rows made of alternating runs of ones and zeros,
/// 1–200 rows each (the run lengths repeat until `n` rows are covered):
/// whole 64-row words of ones beside partial ones, and runs that start
/// and end mid-word — the shapes a range predicate selects.
pub fn arb_run_filter(n: usize) -> impl Strategy<Value = Vec<bool>> {
    (any::<bool>(), prop::collection::vec(1usize..201, 1..16)).prop_map(move |(first, runs)| {
        let mut bits = Vec::with_capacity(n);
        let mut on = first;
        for &len in runs.iter().cycle() {
            if bits.len() == n {
                break;
            }
            bits.extend(std::iter::repeat_n(on, len.min(n - bits.len())));
            on = !on;
        }
        bits
    })
}

/// Pairs a generated column with a matching-length filter.
pub fn with_filter<T: std::fmt::Debug + Clone>(
    data: impl Strategy<Value = Vec<T>>,
) -> impl Strategy<Value = (Vec<T>, Vec<bool>)> {
    data.prop_flat_map(|d| {
        let n = d.len();
        (Just(d), arb_filter(n))
    })
}

/// The bitmap with one bit per entry of `bits`.
pub fn bitmap(bits: &[bool]) -> Bitmap {
    bits.iter().copied().collect()
}
