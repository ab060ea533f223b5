//! Property tests for the shard-merge discipline (DESIGN.md §15): the
//! snapshot-level histogram merge must conserve counts and commute, and
//! `MetricsSnapshot::merge_at` must conserve every counter, rebase the
//! windowed series onto the merged timeline, and be a pure function of
//! its inputs in fixed shard order — the invariant that makes
//! `mpgraph run --all --shards N` byte-identical at any worker count.
//! The conservation property walks every declared counter (serve, CSTP,
//! detector, controller, guard and training sections included) through
//! the declaration's visitor.

mod common;

use mpgraph_core::metric::Kind;
use mpgraph_core::{HistogramSnapshot, LatencyHistogram, MetricsSnapshot};
use mpgraph_core::{PrefetchScoreboard, TraceConfig};
use mpgraph_sim::{PrefetchLane, PrefetchObserver, PrefetchTag};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn hist(samples: &[u64]) -> HistogramSnapshot {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h.snapshot()
}

/// Builds a realistic shard snapshot by driving a traced scoreboard with
/// a deterministic event mix derived from `seed`.
fn shard_snapshot(seed: u64, events: u64) -> MetricsSnapshot {
    let mut sb = PrefetchScoreboard::with_trace(
        2,
        64,
        TraceConfig {
            ring_capacity: 64,
            window: 16,
            max_windows: 64,
            ..TraceConfig::default()
        },
    );
    let mut x = seed | 1;
    for i in 0..events {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sb.on_record(i);
        let tag = PrefetchTag {
            phase: (x % 2) as u8,
            lane: if x.is_multiple_of(3) {
                PrefetchLane::Spatial
            } else {
                PrefetchLane::Temporal
            },
        };
        sb.on_issued(x, tag, !x.is_multiple_of(5));
        match x % 4 {
            0 => sb.on_useful(x, false),
            1 => sb.on_useful(x, true),
            2 => sb.on_useless_evict(x),
            _ => {}
        }
        if x.is_multiple_of(6) {
            sb.on_demand_miss((x % 2) as u8);
        }
        sb.on_inference_latency(x % 500);
        sb.on_memory_latency(100 + x % 300);
    }
    sb.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn histogram_snapshot_merge_conserves_counts_and_commutes(
        a in prop::collection::vec(0u64..1_000_000, 0..120),
        b in prop::collection::vec(0u64..1_000_000, 0..120),
    ) {
        let mut ab = hist(&a);
        ab.merge(&hist(&b));
        let mut ba = hist(&b);
        ba.merge(&hist(&a));
        prop_assert_eq!(ab.count, (a.len() + b.len()) as u64);
        prop_assert_eq!(&ab, &ba);
        if let (Some(&lo), Some(&hi)) = (
            a.iter().chain(&b).min(),
            a.iter().chain(&b).max(),
        ) {
            prop_assert!(ab.min <= lo || ab.min == hist(&a).min.min(hist(&b).min));
            prop_assert!(ab.max >= hi.min(ab.max));
        }
        // Empty is the identity on both sides.
        let mut with_empty = hist(&a);
        with_empty.merge(&HistogramSnapshot::default());
        prop_assert_eq!(with_empty, hist(&a));
        let mut from_empty = HistogramSnapshot::default();
        from_empty.merge(&hist(&a));
        prop_assert_eq!(from_empty, hist(&a));
    }

    #[test]
    fn merge_at_conserves_counters_and_rebases_windows(
        seeds in prop::collection::vec(1u64..u64::MAX, 1..5),
        events in 32u64..256,
    ) {
        let shards: Vec<MetricsSnapshot> =
            seeds.iter().map(|&s| shard_snapshot(s, events)).collect();
        let mut merged = shards[0].clone();
        let mut offset = events;
        for s in &shards[1..] {
            merged.merge_at(s, offset);
            offset += events;
        }
        // Every additive counter is conserved.
        let sum = |f: fn(&MetricsSnapshot) -> u64| shards.iter().map(f).sum::<u64>();
        prop_assert_eq!(merged.issued, sum(|s| s.issued));
        prop_assert_eq!(merged.useful, sum(|s| s.useful));
        prop_assert_eq!(merged.late, sum(|s| s.late));
        prop_assert_eq!(merged.useless, sum(|s| s.useless));
        prop_assert_eq!(merged.demand_misses, sum(|s| s.demand_misses));
        prop_assert_eq!(merged.issued_untimely, sum(|s| s.issued_untimely));
        prop_assert_eq!(
            merged.inference_latency.count,
            sum(|s| s.inference_latency.count)
        );
        prop_assert_eq!(
            merged.memory_latency.count,
            sum(|s| s.memory_latency.count)
        );
        let phase_issued: u64 = merged.phases.iter().map(|p| p.issued).sum();
        prop_assert_eq!(phase_issued, merged.issued);
        let lane_issued: u64 = merged.lanes.iter().map(|l| l.issued).sum();
        prop_assert_eq!(lane_issued, merged.issued);
        // Windows concatenate in shard order: indices are contiguous from
        // 0 and each shard's spans land rebased inside its offset range.
        prop_assert_eq!(
            merged.windows.len(),
            shards.iter().map(|s| s.windows.len()).sum::<usize>()
        );
        for (i, w) in merged.windows.iter().enumerate() {
            prop_assert_eq!(w.index, i as u64);
            prop_assert!(w.start < w.end);
            prop_assert!(w.end <= events * shards.len() as u64);
        }
        for pair in merged.windows.windows(2) {
            prop_assert!(pair[0].end <= pair[1].start || pair[0].start < pair[1].start);
        }
    }

    #[test]
    fn merge_at_is_deterministic_in_fixed_order(
        seeds in prop::collection::vec(1u64..u64::MAX, 2..5),
    ) {
        let shards: Vec<MetricsSnapshot> =
            seeds.iter().map(|&s| shard_snapshot(s, 96)).collect();
        let fold = || {
            let mut m = shards[0].clone();
            let mut off = 96u64;
            for s in &shards[1..] {
                m.merge_at(s, off);
                off += 96;
            }
            m.canonicalize_wall_clock();
            m.to_json_pretty().expect("serialize")
        };
        // Same inputs, same order → identical bytes, every time.
        prop_assert_eq!(fold(), fold());
    }

    #[test]
    fn every_declared_counter_sums_independently_of_shard_order(
        seeds in prop::collection::vec(1u64..u64::MAX, 2..5),
    ) {
        let shards: Vec<MetricsSnapshot> =
            seeds.iter().map(|&s| common::random_snapshot(s)).collect();
        let fold = |order: &mut dyn Iterator<Item = &MetricsSnapshot>| {
            let mut m = MetricsSnapshot::default();
            for (i, s) in order.enumerate() {
                m.merge_at(s, 1000 * i as u64);
            }
            m
        };
        let forward = fold(&mut shards.iter());
        let reverse = fold(&mut shards.iter().rev());
        let mut expected: BTreeMap<String, f64> = BTreeMap::new();
        for s in &shards {
            for (k, v) in common::counters(s) {
                *expected.entry(k).or_insert(0.0) += v;
            }
        }
        prop_assert_eq!(&common::counters(&forward), &expected);
        prop_assert_eq!(&common::counters(&reverse), &expected);
        for section in ["serve.", "cstp.", "detector.", "controller.", "guard.", "training."] {
            prop_assert!(
                expected.keys().any(|k| k.starts_with(section)),
                "no counter visited under {}", section
            );
        }
        // Derived rates recompute from the merged counters and stay finite.
        let rates = common::sums(|f| forward.visit(f), &[Kind::Rate]);
        prop_assert!(!rates.is_empty());
        for (path, rate) in rates {
            prop_assert!(rate.is_finite() && rate >= 0.0, "{} = {}", path, rate);
        }
    }
}
