//! Property tests for the log-bucketed histogram: recording must give
//! the same histogram over any sharding and order of the sample
//! multiset, and quantiles must track a naive sorted-vector oracle to
//! within one sub-bucket of relative error.

use proptest::prelude::*;
use spice_obs::LogHistogram;

/// Positive samples spanning ~18 decades, the registry's working range
/// (sub-millisecond ticks up to campaign CPU-hour totals).
fn arb_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-9.0f64..9.0).prop_map(|e| 10f64.powf(e)), 1..200)
}

/// Deterministic in-place Fisher-Yates from a splitmix-style stream, so
/// the permutation is a pure function of the generated seed.
fn shuffle(xs: &mut [f64], mut seed: u64) {
    for i in (1..xs.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let j = ((z ^ (z >> 31)) % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

fn record_all(xs: &[f64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &x in xs {
        h.record(x);
    }
    h
}

/// Nearest-rank quantile over the raw samples: `sorted[ceil(q·n) - 1]`,
/// the definition `LogHistogram::quantile` approximates bucket-wise.
fn oracle_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One sub-bucket spans a ratio of 2^(1/8), so the midpoint estimate is
/// within (2^(1/8) - 1)/2 ≈ 4.6% of any sample in the bucket.
const BUCKET_REL_TOL: f64 = 0.05;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any sharding of the samples, the shards recorded one after
    /// another in a permuted order (as `spice-trace summary` records its
    /// inputs), folds to the exact same histogram as one pass over the
    /// original sequence.
    #[test]
    fn recording_is_permutation_and_sharding_invariant(
        xs in arb_samples(),
        seed in 0u64..u64::MAX,
        n_shards in 1usize..8,
    ) {
        let reference = record_all(&xs);

        let mut permuted = xs.clone();
        shuffle(&mut permuted, seed);
        let chunk = permuted.len().div_ceil(n_shards);
        let mut shards: Vec<&[f64]> = permuted.chunks(chunk).collect();
        shuffle_shards(&mut shards, seed ^ 0xABCD);

        let folded = record_all(&shards.concat());
        prop_assert_eq!(&folded, &reference);
        prop_assert_eq!(folded.summary(), reference.summary());
    }

    /// Histogram quantiles track the sorted-vector nearest-rank oracle:
    /// p0/p100 exactly (the extremes are stored), interior quantiles to
    /// within one sub-bucket of relative error.
    #[test]
    fn quantiles_match_sorted_oracle(xs in arb_samples()) {
        let h = record_all(&xs);
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);

        prop_assert_eq!(h.quantile(0.0), sorted[0]);
        prop_assert_eq!(h.quantile(1.0), sorted[sorted.len() - 1]);
        prop_assert_eq!(h.min(), sorted[0]);
        prop_assert_eq!(h.max(), sorted[sorted.len() - 1]);

        for &q in &[0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let got = h.quantile(q);
            let want = oracle_quantile(&sorted, q);
            let err = (got - want).abs();
            prop_assert!(
                err <= BUCKET_REL_TOL * want,
                "q={} got={} want={} rel_err={}",
                q, got, want, err / want
            );
        }
    }
}

/// Shard-order shuffle (separate fn: the slice shuffle above is for
/// f64).
fn shuffle_shards(xs: &mut [&[f64]], mut seed: u64) {
    for i in (1..xs.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let j = ((z ^ (z >> 31)) % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}
