//! The `matrix-quick` workload. Each pass takes the 12 framework × app
//! cells at `ExpScale::quick()`, in canonical matrix order, through the
//! steps of `mpgraph_bench::shard::run_combo`: set-up (graph, trace, LLC
//! filter, training), then replays of none, BO and an observed MPGraph,
//! whose calls are timed. A run makes whole passes only: its seconds over
//! the nominal pass time, rounded, and at least one. The count depends on
//! the seconds alone, so every run does the same work however fast the
//! host is.

use crate::inputs::{self, Graphs, Inputs, SetupStats};
use crate::metrics::{Meter, Samples};
use crate::tracer::{Layer, Tracer};
use crate::{Knobs, Measured};
use mpgraph_bench::report::pct;
use mpgraph_bench::runners::prefetching::sim_config;
use mpgraph_bench::shard::{full_matrix, SEGMENT_LEN};
use mpgraph_core::trace::TraceConfig as TelemetryConfig;
use mpgraph_core::{MetricsSnapshot, MpGraphPrefetcher, PrefetchScoreboard};
use mpgraph_prefetchers::{BestOffset, BoConfig};
use mpgraph_sim::{
    simulate, LlcAccess, NullPrefetcher, PrefetchObserver, PrefetchTag, Prefetcher, SimResult,
    SimSession, TraceEvent,
};
use std::time::{Duration, Instant};

/// Where a [`Timed`] prefetcher's call times go.
pub trait CallSink {
    /// One `on_access` that began at `began` and took `call`.
    fn record_call(&mut self, began: Instant, call: Duration);
    /// The replay ended.
    fn end_replay(&mut self) {}
}

impl CallSink for Meter {
    fn record_call(&mut self, began: Instant, call: Duration) {
        self.record(began, call, 1);
    }

    fn end_replay(&mut self) {
        self.end_segment();
    }
}

impl CallSink for Samples {
    fn record_call(&mut self, _began: Instant, call: Duration) {
        self.record(call);
    }
}

/// A prefetcher under test, timed call by call. Every other trait method
/// forwards, so the engine sees the wrapped prefetcher unchanged. Dropping
/// it ends the replay for its sink, so no block spans two replays.
pub struct Timed<'a> {
    inner: &'a mut dyn Prefetcher,
    sink: &'a mut dyn CallSink,
    tracer: &'a mut Tracer,
    pub calls: u64,
    pub busy: Duration,
}

impl<'a> Timed<'a> {
    pub fn new(
        inner: &'a mut dyn Prefetcher,
        sink: &'a mut dyn CallSink,
        tracer: &'a mut Tracer,
    ) -> Self {
        Timed {
            inner,
            sink,
            tracer,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl Prefetcher for Timed<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_access(&mut self, access: &LlcAccess, out: &mut Vec<u64>) {
        let start = Instant::now();
        self.inner.on_access(access, out);
        let d = start.elapsed();
        self.calls += 1;
        self.busy += d;
        self.tracer.leaf(Layer::OnAccess, start, d);
        self.sink.record_call(start, d);
    }

    fn latency(&self) -> u64 {
        self.inner.latency()
    }

    fn effective_latency(&mut self, injected_stall: u64) -> u64 {
        self.inner.effective_latency(injected_stall)
    }

    fn last_batch_tags(&self) -> &[PrefetchTag] {
        self.inner.last_batch_tags()
    }

    fn current_phase_id(&self) -> u8 {
        self.inner.current_phase_id()
    }

    fn enable_trace_events(&mut self, on: bool) {
        self.inner.enable_trace_events(on);
    }

    fn pending_trace_events(&self) -> &[TraceEvent] {
        self.inner.pending_trace_events()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}

impl Drop for Timed<'_> {
    fn drop(&mut self) {
        self.sink.end_replay();
    }
}

/// What a replay produced that must repeat exactly, pass after pass.
pub type SimKey = (u64, u64, u64, u64, u64);

pub fn key(r: &SimResult) -> SimKey {
    (
        r.instructions,
        r.cycles,
        r.prefetches_issued,
        r.prefetches_useful,
        r.llc_demand_misses,
    )
}

/// Records replayed, and the timed calls of the prefetcher under test.
struct Acc {
    records: u64,
    meter: Meter,
}

fn replay(
    acc: &mut Acc,
    tracer: &mut Tracer,
    label: &'static str,
    records: usize,
    run: impl FnOnce(&mut Meter, &mut Tracer) -> SimResult,
) -> SimResult {
    let span = tracer.begin_labeled(Layer::Replay, || label.to_string());
    let r = run(&mut acc.meter, tracer);
    acc.records += records as u64;
    tracer.end(span);
    r
}

/// One combo's replays: the results that must repeat, the observed
/// snapshot that feeds the merged accuracy, and what its checks found.
struct ComboOut {
    keys: Vec<SimKey>,
    snapshot: MetricsSnapshot,
    snapshot_records: u64,
    observe_errors: u64,
    problems: Vec<String>,
    note: String,
}

/// Checks every observed replay must pass: the scoreboard saw exactly the
/// prefetches the engine issued, and tracked every one it saw complete.
fn observer_problems(label: &str, snap: &MetricsSnapshot, r: &SimResult) -> Vec<String> {
    let mut p = Vec::new();
    if snap.issued != r.prefetches_issued {
        p.push(format!(
            "{label}: scoreboard issued {} != engine issued {}",
            snap.issued, r.prefetches_issued
        ));
    }
    if snap.untracked_completions != 0 {
        p.push(format!(
            "{label}: {} untracked completions",
            snap.untracked_completions
        ));
    }
    p
}

fn replay_mpgraph(
    inputs: &Inputs,
    mut mp: MpGraphPrefetcher,
    acc: &mut Acc,
    tracer: &mut Tracer,
) -> ComboOut {
    let cfg = sim_config();
    let test = &inputs.test;
    let base = replay(acc, tracer, "none", test.len(), |_, _| {
        simulate(test, &mut NullPrefetcher, &cfg)
    });
    let bo = replay(acc, tracer, "BO", test.len(), |_, _| {
        simulate(test, &mut BestOffset::new(BoConfig::default()), &cfg)
    });
    let mut sb =
        PrefetchScoreboard::with_trace(inputs.num_phases.max(1), 4096, TelemetryConfig::default());
    let mpr = replay(acc, tracer, "MPGraph", test.len(), |meter, tr| {
        let mut timed = Timed::new(&mut mp, meter, tr);
        let mut session = SimSession::new(&cfg);
        for segment in test.chunks(SEGMENT_LEN) {
            session.run_segment(
                segment,
                &mut timed,
                None,
                Some(&mut sb as &mut dyn PrefetchObserver),
            );
        }
        session.finish(&timed, None)
    });
    let span = tracer.begin(Layer::Snapshot);
    let mut snapshot = sb.snapshot();
    mp.enrich_snapshot(&mut snapshot);
    tracer.end(span);
    let label = inputs.combo.label();
    ComboOut {
        keys: vec![key(&base), key(&bo), key(&mpr)],
        problems: observer_problems(&label, &snapshot, &mpr),
        note: format!(
            "{label:<24} records {:>7}  BO {:+8.2}%  MPGraph {:+8.2}%  acc {}  cov {}",
            test.len(),
            bo.ipc_improvement(&base),
            mpr.ipc_improvement(&base),
            pct(mpr.accuracy()),
            pct(mpr.coverage()),
        ),
        snapshot_records: sb.trace_records(),
        snapshot,
        observe_errors: mp.observe_errors,
    }
}

pub fn measure(knobs: &Knobs, seed: u64, seconds: f64, tracer: &mut Tracer) -> Measured {
    let scale = &knobs.quick;
    let combos = full_matrix(scale);
    let carrier_combo = inputs::carrier(scale);
    let mut acc = Acc {
        records: 0,
        meter: Meter::default(),
    };
    let mut setups = Vec::new();
    let mut stats = SetupStats::default();
    let mut first_keys: Vec<Vec<SimKey>> = Vec::new();
    let mut merged: Option<MetricsSnapshot> = None;
    let mut merged_records = 0u64;
    let mut carrier = None;
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut notes = Vec::new();

    let passes = (seconds / knobs.matrix_pass_s).round().max(1.0) as usize;
    for pass in 0..passes {
        let pass_span = tracer.begin(Layer::Pass);
        let mut graphs = Graphs::default();
        for (i, &combo) in combos.iter().enumerate() {
            let span = tracer.begin_labeled(Layer::Combo, || combo.label());
            let setup = tracer.begin(Layer::Setup);
            let t = Instant::now();
            let inputs = inputs::build(combo, scale, seed, &mut graphs, &mut stats, tracer);
            let mp = inputs::train(&inputs, scale, tracer);
            setups.push(t.elapsed());
            tracer.end(setup);
            let records_before = acc.records;
            let out = replay_mpgraph(&inputs, mp, &mut acc, tracer);
            let mut combo_problems = out.problems;
            if pass == 0 {
                first_keys.push(out.keys);
                notes.push(out.note);
                match merged.as_mut() {
                    None => merged = Some(out.snapshot),
                    Some(m) => m.merge_at(&out.snapshot, merged_records),
                }
                merged_records += out.snapshot_records;
            } else if first_keys[i] != out.keys {
                combo_problems.push(format!(
                    "{}: pass {pass} simulated results differ from pass 0",
                    combo.label()
                ));
            }
            failed += out.observe_errors;
            if !combo_problems.is_empty() {
                failed += acc.records - records_before;
                problems.extend(combo_problems);
            }
            if tracer.is_on() && combo == carrier_combo && carrier.is_none() {
                carrier = Some(inputs);
            }
            tracer.end(span);
        }
        tracer.end(pass_span);
    }

    let merged = merged.unwrap_or_default();
    notes.push(format!(
        "merged: {} combos  issued {}  useful {}  acc {}  cov {}",
        combos.len(),
        merged.issued,
        merged.useful,
        pct(merged.accuracy),
        pct(merged.coverage)
    ));
    if seed == 0 {
        if let Some((acc_line, cov_line)) = knobs.fidelity {
            if pct(merged.accuracy) != acc_line || pct(merged.coverage) != cov_line {
                problems.push(format!(
                    "seed 0 must reproduce `mpgraph run --all --quick` (acc {acc_line} cov {cov_line}), got acc {} cov {}",
                    pct(merged.accuracy),
                    pct(merged.coverage)
                ));
                failed = acc.records;
            }
        }
    }
    Measured {
        setups,
        setup_stats: stats,
        accesses: acc.records,
        meter: acc.meter,
        accuracy: merged.accuracy,
        coverage: merged.coverage,
        failed,
        problems,
        notes,
        carrier,
        serve: None,
    }
}
