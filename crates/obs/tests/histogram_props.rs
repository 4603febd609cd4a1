//! Property tests for the log-linear histogram: percentile estimates agree
//! with exact sorted-sample order statistics to within one bucket width,
//! merging is exact, and concurrent recorders never lose or tear samples.

#![allow(
    clippy::disallowed_methods,
    reason = "tests fork bare threads to race the code under test"
)]

use proptest::prelude::*;
use saber_obs::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot};
use std::sync::Arc;

/// Deterministically derives a sample set from drawn integers: `n` values
/// spanning the magnitude range `0 .. 2^spread`.
fn samples_from(n: usize, spread: u32, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xD1B5_4A32_D192_ED03);
            let raw = state >> 11;
            raw % (1u64 << (spread % 50 + 8))
        })
        .collect()
}

/// The exact nearest-rank order statistic the histogram estimates.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantiles_match_exact_order_statistics_within_bucket_width(
        n in 1usize..2_000,
        spread in 0u32..64,
        seed in 0u64..u64::MAX,
    ) {
        let samples = samples_from(n, spread, seed);
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);
        prop_assert_eq!(snap.sum(), samples.iter().copied().sum::<u64>());

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.max(), *sorted.last().unwrap());

        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_quantile(&sorted, q);
            let estimate = snap.quantile(q);
            // The estimate is the upper bound of the exact value's bucket
            // (clamped to the observed max): never below the exact order
            // statistic's bucket lower bound, never above its bucket upper
            // bound — i.e. within one bucket width.
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            prop_assert!(
                estimate >= lo && estimate <= hi.min(snap.max()),
                "q={} exact={} (bucket [{}, {}]) estimate={}",
                q, exact, lo, hi, estimate
            );
        }
    }

    #[test]
    fn merging_shards_equals_one_histogram(
        n in 1usize..800,
        spread in 0u32..64,
        seed in 0u64..u64::MAX,
        shards in 1usize..6,
    ) {
        let samples = samples_from(n, spread, seed);
        let union = Histogram::new();
        let parts: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
        for (i, &v) in samples.iter().enumerate() {
            union.record(v);
            parts[i % shards].record(v);
        }
        let mut merged = HistogramSnapshot::empty();
        for p in &parts {
            merged.merge(&p.snapshot());
        }
        prop_assert_eq!(merged, union.snapshot());
    }
}

/// Satellite stress test: many concurrent recorders, one concurrent
/// snapshotter; every sample lands in exactly one bucket, totals are exact
/// once the recorders join, and mid-flight snapshots are never "ahead" of
/// the recorded totals.
#[test]
fn concurrent_recorders_stress() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 200_000;
    let h = Arc::new(Histogram::new());
    let recorders: Vec<_> = (0..THREADS as u64)
        .map(|t| {
            let h = h.clone();
            std::thread::spawn(move || {
                let mut state = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut sum = 0u64;
                for _ in 0..PER_THREAD {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let v = state >> (state % 48);
                    h.record(v);
                    sum = sum.wrapping_add(v);
                }
                sum
            })
        })
        .collect();
    // Snapshot while the recorders are running: counts only grow.
    let mut last_count = 0u64;
    while last_count < THREADS as u64 * PER_THREAD / 2 {
        let snap = h.snapshot();
        assert!(snap.count() >= last_count, "count went backwards");
        last_count = snap.count();
        std::thread::yield_now();
    }
    let expected_sum = recorders
        .into_iter()
        .map(|r| r.join().unwrap())
        .fold(0u64, u64::wrapping_add);
    let snap = h.snapshot();
    assert_eq!(snap.count(), THREADS as u64 * PER_THREAD);
    assert_eq!(snap.sum(), expected_sum);
    assert_eq!(
        snap.buckets().iter().sum::<u64>(),
        THREADS as u64 * PER_THREAD
    );
}
