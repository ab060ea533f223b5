//! Property tests for live-telemetry interval derivation (DESIGN.md §18):
//! the delta/rate math in `mpgraph_core::livetel::derive_interval` must
//! hold for *any* monotone counter history, not just the ones the service
//! happens to produce —
//!
//! * every per-interval delta is non-negative;
//! * chaining intervals over a counter history telescopes: the deltas sum
//!   to the final cumulative snapshot, so an NDJSON consumer can checksum
//!   the stream;
//! * every derived rate is finite (and a well-defined 0) for zero-length
//!   intervals, empty intervals, and zero-GHz-adjacent clock configs.
//!
//! The last property checks the same for every declared serve counter,
//! per-stream rows included, through the declaration's visitor.

mod common;

use mpgraph_core::livetel::derive_interval;
use mpgraph_core::metric::Kind;
use mpgraph_core::{ServeMetrics, StreamServeMetrics};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds a cumulative `ServeMetrics` history from per-step increments:
/// each step adds its increments onto the running totals, so every
/// counter is monotonically non-decreasing by construction — exactly the
/// contract the service's real counters obey.
fn history(steps: &[(u64, u64, u64, u64, u64, u64)]) -> Vec<ServeMetrics> {
    let mut cur = ServeMetrics {
        per_stream: vec![StreamServeMetrics {
            id: 0,
            ..StreamServeMetrics::default()
        }],
        ..ServeMetrics::default()
    };
    let mut out = vec![cur.clone()];
    for &(ing, ml, fb, shed, obs, miss) in steps {
        // Sheds are a subset of ingested accesses in the real service, so
        // the history counts them into `ingested` too — keeping derived
        // fractions in [0, 1] meaningful.
        cur.ingested += ing + shed;
        cur.ml_processed += ml;
        cur.fallback_processed += fb;
        cur.shed_queue_full += shed;
        cur.per_stream[0].ml_served += ml;
        cur.per_stream[0].fallback_served += fb;
        cur.per_stream[0].shed += shed;
        cur.per_stream[0].deadline_observations += obs;
        cur.per_stream[0].deadline_misses += miss.min(obs);
        out.push(cur.clone());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Deltas are non-negative and each interval's totals echo the
    /// cumulative snapshot it closed on.
    #[test]
    fn deltas_are_non_negative_for_any_monotone_history(
        steps in prop::collection::vec(
            (0u64..50, 0u64..50, 0u64..50, 0u64..50, 0u64..50, 0u64..50),
            1..20,
        ),
        span in 0u64..10_000,
    ) {
        let hist = history(&steps);
        for (i, pair) in hist.windows(2).enumerate() {
            let start = i as u64 * span;
            let iv = derive_interval(i as u64, &pair[0], &pair[1], start, start + span, 2.0);
            prop_assert!(iv.delta_ingested <= iv.total_ingested);
            prop_assert_eq!(iv.total_ingested, pair[1].ingested);
            prop_assert_eq!(iv.delta_ingested, pair[1].ingested - pair[0].ingested);
            prop_assert_eq!(
                iv.delta_ml_processed,
                pair[1].ml_processed - pair[0].ml_processed
            );
            prop_assert_eq!(iv.cycles, span);
            for s in &iv.per_stream {
                prop_assert!(s.delta_ml_served <= pair[1].per_stream[0].ml_served);
            }
        }
    }

    /// Telescoping: summing every interval's deltas reproduces the final
    /// cumulative snapshot exactly. This is the invariant the CI smoke
    /// job checks on real NDJSON output; here it holds for any history.
    #[test]
    fn interval_deltas_sum_to_the_final_cumulative_snapshot(
        steps in prop::collection::vec(
            (0u64..100, 0u64..100, 0u64..100, 0u64..100, 0u64..100, 0u64..100),
            1..25,
        ),
    ) {
        let hist = history(&steps);
        let mut sum_ingested = 0u64;
        let mut sum_ml = 0u64;
        let mut sum_fb = 0u64;
        let mut sum_shed = 0u64;
        let mut sum_obs = 0u64;
        let mut sum_miss = 0u64;
        for (i, pair) in hist.windows(2).enumerate() {
            let iv = derive_interval(
                i as u64,
                &pair[0],
                &pair[1],
                i as u64 * 100,
                (i as u64 + 1) * 100,
                2.0,
            );
            sum_ingested += iv.delta_ingested;
            sum_ml += iv.delta_ml_processed;
            sum_fb += iv.delta_fallback_processed;
            sum_shed += iv.delta_shed;
            sum_obs += iv.delta_deadline_observations;
            sum_miss += iv.delta_deadline_misses;
        }
        let last = hist.last().expect("non-empty history");
        prop_assert_eq!(sum_ingested, last.ingested);
        prop_assert_eq!(sum_ml, last.ml_processed);
        prop_assert_eq!(sum_fb, last.fallback_processed);
        prop_assert_eq!(
            sum_shed,
            last.shed_speculative + last.shed_queue_full + last.timeout_deferred
        );
        prop_assert_eq!(sum_obs, last.per_stream[0].deadline_observations);
        prop_assert_eq!(sum_miss, last.per_stream[0].deadline_misses);
    }

    /// Rates stay finite whatever the interval geometry: zero-length
    /// cycle spans, empty deltas, and tiny clock frequencies must all
    /// produce well-defined numbers, never NaN or infinity.
    #[test]
    fn rates_are_finite_even_at_zero_length_intervals(
        steps in prop::collection::vec(
            (0u64..50, 0u64..50, 0u64..50, 0u64..50, 0u64..50, 0u64..50),
            1..10,
        ),
        span in prop::sample::select(vec![0u64, 1, 100]),
        ghz_milli in 1u64..5_000,
    ) {
        let hist = history(&steps);
        let ghz = ghz_milli as f64 / 1000.0;
        for (i, pair) in hist.windows(2).enumerate() {
            let start = i as u64 * span;
            let iv = derive_interval(i as u64, &pair[0], &pair[1], start, start + span, ghz);
            for (name, rate) in [
                ("accesses_per_sec", iv.accesses_per_sec),
                ("shed_fraction", iv.shed_fraction),
                ("deadline_miss_fraction", iv.deadline_miss_fraction),
                ("ml_fraction", iv.ml_fraction),
            ] {
                prop_assert!(rate.is_finite(), "{} not finite: {}", name, rate);
                prop_assert!(rate >= 0.0, "{} negative: {}", name, rate);
            }
            if span == 0 {
                prop_assert_eq!(iv.accesses_per_sec, 0.0);
            }
            prop_assert!(iv.shed_fraction <= 1.0 || iv.delta_ingested == 0);
            prop_assert!(iv.deadline_miss_fraction <= 1.0);
            prop_assert!(iv.ml_fraction <= 1.0);
        }
    }

    /// Snapshots arriving out of order (a consumer replaying a truncated
    /// stream, or a reset service) must saturate to zero deltas rather
    /// than wrap.
    #[test]
    fn reversed_snapshots_saturate_instead_of_wrapping(
        steps in prop::collection::vec(
            (1u64..50, 0u64..50, 0u64..50, 0u64..50, 0u64..50, 0u64..50),
            1..10,
        ),
    ) {
        let hist = history(&steps);
        let first = hist.first().expect("non-empty");
        let last = hist.last().expect("non-empty");
        let iv = derive_interval(0, last, first, 100, 50, 2.0);
        prop_assert_eq!(iv.delta_ingested, 0);
        prop_assert_eq!(iv.delta_ml_processed, 0);
        prop_assert_eq!(iv.delta_shed, 0);
        prop_assert_eq!(iv.cycles, 0);
        prop_assert_eq!(iv.accesses_per_sec, 0.0);
    }

    /// Over a history built by merging random increments into every
    /// declared serve counter, each interval's declared `delta` is
    /// non-negative and telescopes back to the final cumulative counters
    /// (rows that appear mid-run count from zero), and every interval
    /// rate is finite.
    #[test]
    fn every_declared_serve_counter_telescopes(
        seeds in prop::collection::vec(1u64..u64::MAX, 1..12),
    ) {
        let mut cur = ServeMetrics::default();
        let mut hist = vec![cur.clone()];
        for &seed in &seeds {
            cur.merge_at(&common::random_serve(seed), 0);
            hist.push(cur.clone());
        }
        let mut summed: BTreeMap<String, f64> = BTreeMap::new();
        for pair in hist.windows(2) {
            let d = pair[1].delta(&pair[0]);
            for (k, v) in common::sums(|f| d.visit(f), &[Kind::Counter]) {
                prop_assert!(v >= 0.0, "{} = {}", k, v);
                *summed.entry(k).or_insert(0.0) += v;
            }
            for (path, rate) in common::sums(|f| d.visit(f), &[Kind::Rate]) {
                prop_assert!(rate.is_finite() && rate >= 0.0, "{} = {}", path, rate);
            }
        }
        let last = hist.last().expect("non-empty history");
        let totals = common::sums(|f| last.visit(f), &[Kind::Counter]);
        prop_assert!(totals.keys().any(|k| k.starts_with("per_stream.")));
        prop_assert!(totals.keys().any(|k| k.starts_with("slo.")));
        prop_assert_eq!(summed, totals);
    }
}
