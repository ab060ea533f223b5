//! End-to-end acceptance tests for the flight recorder + windowed
//! telemetry pipeline on the `pagerank_like` carrier workload: tracing
//! must not perturb the simulation, the windowed time series must be live,
//! the Chrome-trace export must be Perfetto-loadable with phase slices
//! matching confirmed transitions, and snapdiff must catch regressions.

use mpgraph_bench::runners::prefetching::sim_config;
use mpgraph_bench::snapdiff::{diff_snapshots, Tolerances};
use mpgraph_bench::workload::SynthConfig;
use mpgraph_bench::ExpScale;
use mpgraph_core::{
    train_mpgraph, MetricsSnapshot, MpGraphConfig, MpGraphPrefetcher, PrefetchScoreboard,
    TraceConfig,
};
use mpgraph_frameworks::MemRecord;
use mpgraph_sim::{simulate, simulate_observed, PrefetchObserver, SimResult, TraceEvent};

fn carrier() -> (Vec<MemRecord>, Vec<MemRecord>, usize) {
    let w = SynthConfig::pagerank_like().generate();
    (w.train, w.test, w.num_phases)
}

fn trained(train: &[MemRecord], num_phases: usize) -> MpGraphPrefetcher {
    train_mpgraph(
        train,
        num_phases,
        MpGraphConfig::default(),
        &ExpScale::quick().train,
    )
}

fn fingerprint(r: &SimResult) -> String {
    format!("{r:?}")
}

/// One traced carrier run shared by the assertions below (training is the
/// expensive part, so the traced artifacts are produced once).
fn traced_run() -> (SimResult, PrefetchScoreboard, MetricsSnapshot) {
    let (train, test, num_phases) = carrier();
    let mut mp = trained(&train, num_phases);
    let mut sb = PrefetchScoreboard::with_trace(
        num_phases,
        4096,
        TraceConfig {
            ring_capacity: 4096,
            window: 512,
            max_windows: 4096,
            ..TraceConfig::default()
        },
    );
    let cfg = sim_config();
    let r = simulate_observed(
        &test,
        &mut mp,
        &cfg,
        None,
        Some(&mut sb as &mut dyn PrefetchObserver),
    );
    let mut snap = sb.snapshot();
    mp.enrich_snapshot(&mut snap);
    (r, sb, snap)
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let (train, test, num_phases) = carrier();
    let cfg = sim_config();

    let mut mp = trained(&train, num_phases);
    let plain = simulate(&test, &mut mp, &cfg);

    let mut mp = trained(&train, num_phases);
    let mut sb = PrefetchScoreboard::new(num_phases, 4096);
    let observed = simulate_observed(
        &test,
        &mut mp,
        &cfg,
        None,
        Some(&mut sb as &mut dyn PrefetchObserver),
    );

    let mut mp = trained(&train, num_phases);
    let mut traced = PrefetchScoreboard::with_trace(num_phases, 4096, TraceConfig::default());
    let with_trace = simulate_observed(
        &test,
        &mut mp,
        &cfg,
        None,
        Some(&mut traced as &mut dyn PrefetchObserver),
    );

    assert_eq!(
        fingerprint(&plain),
        fingerprint(&observed),
        "observer perturbed the run"
    );
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&with_trace),
        "flight recorder perturbed the run"
    );
    assert!(
        !traced.trace_events().is_empty(),
        "recorder captured nothing"
    );
}

#[test]
fn traced_carrier_produces_live_telemetry_and_perfetto_trace() {
    let (_, sb, snap) = traced_run();

    // Steady-state allocation probe: the ring never outgrew its configured
    // capacity even though the run far exceeded it.
    let (ring_len, ring_cap, overwritten, _, _) =
        sb.trace_alloc_stats().expect("tracing was attached");
    assert_eq!(ring_cap, 4096, "ring reallocated beyond its capacity");
    assert!(ring_len <= ring_cap);
    let _ = overwritten; // carrier may or may not wrap; capacity is the contract

    // Windowed telemetry: at least two windows whose per-phase accuracy
    // actually moves over time.
    assert_eq!(snap.window_size, 512);
    assert!(
        snap.windows.len() >= 2,
        "expected >= 2 telemetry windows, got {}",
        snap.windows.len()
    );
    let mut per_phase: Vec<Vec<f64>> = Vec::new();
    for w in &snap.windows {
        for p in &w.phases {
            if per_phase.len() <= p.phase {
                per_phase.resize(p.phase + 1, Vec::new());
            }
            per_phase[p.phase].push(p.accuracy);
        }
    }
    let moving = per_phase
        .iter()
        .any(|series| series.iter().any(|a| (a - series[0]).abs() > 1e-12));
    assert!(moving, "per-phase accuracy is flat across every window");

    // Phase slices in the export match confirmed transitions: one slice
    // per confirmation boundary plus the final open slice.
    let confirmed = sb
        .trace_events()
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::PhaseConfirmed { .. }))
        .count();
    assert!(confirmed >= 1, "carrier never confirmed a phase transition");

    let chrome = sb.chrome_trace().expect("tracing was attached");
    let text = serde_json::to_string(&chrome).expect("serializable");
    let parsed = serde_json::parse_value(&text).expect("export must be valid JSON");
    let events = match parsed.get("traceEvents") {
        Some(serde::Value::Array(evs)) => evs,
        other => panic!("traceEvents missing or not an array: {other:?}"),
    };
    assert!(!events.is_empty());

    let field_str = |v: &serde::Value, k: &str| -> Option<String> {
        match v.get(k) {
            Some(serde::Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    };
    let field_u64 = |v: &serde::Value, k: &str| -> Option<u64> {
        match v.get(k) {
            Some(serde::Value::U64(n)) => Some(*n),
            _ => None,
        }
    };
    let phase_slices = events
        .iter()
        .filter(|e| {
            field_str(e, "ph").as_deref() == Some("X")
                && field_u64(e, "tid") == Some(1)
                && field_str(e, "name").is_some_and(|n| n.starts_with("phase "))
        })
        .count();
    assert_eq!(
        phase_slices,
        confirmed + 1,
        "phase slices must be confirmed transitions + the final open slice"
    );

    // Per-track timestamps are monotone (metadata events carry no ts).
    let mut last_ts: std::collections::HashMap<(u64, u64), u64> = std::collections::HashMap::new();
    for e in events {
        if field_str(e, "ph").as_deref() == Some("M") {
            continue;
        }
        let key = (
            field_u64(e, "pid").expect("pid"),
            field_u64(e, "tid").expect("tid"),
        );
        let ts = field_u64(e, "ts").expect("ts");
        if let Some(prev) = last_ts.get(&key) {
            assert!(ts >= *prev, "track {key:?} went backwards: {prev} -> {ts}");
        }
        last_ts.insert(key, ts);
    }

    // Snapshot JSON round-trips through the shim serde, windows included.
    let json = snap.to_json_pretty().expect("serializable");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back.windows.len(), snap.windows.len());
    assert_eq!(back.issued_untimely, snap.issued_untimely);

    // snapdiff: self-diff passes; degraded accuracy beyond tolerance fails.
    let diff = |b: &MetricsSnapshot, c: &MetricsSnapshot| {
        diff_snapshots(b, c, &Tolerances::default()).expect("every gated path present")
    };
    assert!(!diff(&snap, &snap.clone()).has_regressions());
    let mut degraded = snap.clone();
    degraded.accuracy = (snap.accuracy - 0.2).max(0.0);
    assert!(
        diff(&snap, &degraded).has_regressions(),
        "snapdiff missed a 0.2 accuracy drop"
    );
}
