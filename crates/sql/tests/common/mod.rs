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
            1usize..60,
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
    prop::collection::vec(("[a-c]{0,3}", 1usize..60), 0..25).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v, n))
            .collect()
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
