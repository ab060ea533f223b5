//! Shared helpers for the metric property tests: snapshots whose every
//! declared field carries data, built from the declaration itself rather
//! than a hand-kept list, so a newly declared counter is covered the
//! moment it exists.

#![allow(dead_code)] // each test binary uses its own subset

use mpgraph_core::metric::Kind;
use mpgraph_core::{
    LaneMetrics, LiveIntervalSummary, MetricsSnapshot, PhaseMetrics, ServeMetrics,
    StreamServeMetrics, TrainMetrics, TrainRollbackMetrics, WindowMetrics, WindowPhaseMetrics,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Replaces every number in `v` with a pseudo-random one. Integers stay
/// below 8, so row keys (phase, stream id) collide across shards and
/// exercise the keyed merge.
fn randomize(v: Value, x: &mut u64) -> Value {
    match v {
        Value::U64(_) => Value::U64(next(x) % 8),
        Value::F64(_) => Value::F64((next(x) % 1000) as f64 / 1000.0),
        Value::Array(items) => Value::Array(items.into_iter().map(|e| randomize(e, x)).collect()),
        Value::Object(fields) => Value::Object(
            fields
                .into_iter()
                .map(|(k, e)| (k, randomize(e, x)))
                .collect(),
        ),
        other => other,
    }
}

fn random<T: Serialize + Deserialize>(template: &T, seed: u64) -> T {
    let mut x = seed | 1;
    let v = randomize(template.to_value(), &mut x);
    T::from_value(&v).expect("randomized tree keeps the declared shape")
}

/// A serve section with two per-stream rows and one live interval, every
/// number pseudo-random.
pub fn random_serve(seed: u64) -> ServeMetrics {
    let template = ServeMetrics {
        per_stream: vec![StreamServeMetrics::default(); 2],
        live: vec![LiveIntervalSummary::default()],
        ..ServeMetrics::default()
    };
    random(&template, seed)
}

/// A whole snapshot — scoreboard, CSTP, detector, controller, guard,
/// training and serve sections — every number pseudo-random.
pub fn random_snapshot(seed: u64) -> MetricsSnapshot {
    let lane = |name: &str| LaneMetrics {
        lane: name.to_string(),
        ..LaneMetrics::default()
    };
    let template = MetricsSnapshot {
        phases: vec![PhaseMetrics::default(); 2],
        lanes: vec![lane("spatial"), lane("temporal")],
        training: TrainMetrics {
            rollback_events: vec![TrainRollbackMetrics::default()],
            ..TrainMetrics::default()
        },
        serve: random_serve(seed ^ 0x9e37_79b9),
        windows: vec![WindowMetrics {
            phases: vec![WindowPhaseMetrics::default()],
            ..WindowMetrics::default()
        }],
        ..MetricsSnapshot::default()
    };
    random(&template, seed)
}

/// Declared samples of `kinds`, summed per (path, row labels).
pub fn sums(
    visit: impl FnOnce(&mut dyn FnMut(&mpgraph_core::metric::Sample<'_>)),
    kinds: &[Kind],
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    visit(&mut |s| {
        if kinds.contains(&s.kind) {
            *out.entry(format!("{}{:?}", s.path.join("."), s.labels))
                .or_insert(0.0) += s.value;
        }
    });
    out
}

/// Every declared counter, plus each histogram's sample count.
pub fn counters(s: &MetricsSnapshot) -> BTreeMap<String, f64> {
    let mut out = sums(|f| s.visit(f), &[Kind::Counter]);
    let counts = sums(|f| s.visit(f), &[Kind::Histogram]);
    out.extend(counts.into_iter().filter(|(k, _)| k.contains(".count[")));
    out
}
