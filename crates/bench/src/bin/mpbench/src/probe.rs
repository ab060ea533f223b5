//! Per-layer measurements of a traced run. Each one times calls into a
//! layer's public functions from outside, on inputs captured from the
//! workload itself: the carrier combo's LLC stream and evaluation trace.
//! Counts come from the program's own public counters. Every workload
//! measures every layer, so a traced run always reports the full list.

use crate::inputs::Inputs;
use crate::metrics::{mean_ms, Report, Samples};
use crate::replay::{key, Timed};
use crate::serve::{self, access_of, Arrival, Arrivals, Drive, ServeLayer};
use crate::tracer::{Layer, Tracer};
use crate::{Knobs, Measured};
use mpgraph_bench::runners::prefetching::{mpgraph_cfg, sim_config};
use mpgraph_bench::serve_load::saturation_rate;
use mpgraph_core::trace::TraceConfig as TelemetryConfig;
use mpgraph_core::{
    build_detector, chain_prefetch, chain_prefetch_in, CstpStats, DeltaPredictor, PagePredictor,
    Pbot, PrefetchScoreboard, ServeConfig,
};
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::{BestOffset, BoConfig, Isb, IsbConfig};
use mpgraph_sim::{simulate, simulate_observed, NullPrefetcher, PrefetchObserver};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The matmul shapes one inference of the default models runs: history
/// 9, attention 32, fusion 64, four heads of 16, FFN 128, the delta head
/// over 126 labels and the tied-vocabulary page head `z·Eᵀ`.
const KERNELS: &[(&str, usize, usize, usize, bool)] = &[
    ("ml.matmul_into.9x32x32.gflops", 9, 32, 32, false),
    ("ml.matmul_into.9x64x64.gflops", 9, 64, 64, false),
    ("ml.matmul_into.9x64x128.gflops", 9, 64, 128, false),
    ("ml.matmul_into.9x128x64.gflops", 9, 128, 64, false),
    ("ml.matmul_into.1x64x126.gflops", 1, 64, 126, false),
    ("ml.matmul_bt_into.9x32x9.gflops", 9, 32, 9, true),
    ("ml.matmul_bt_into.9x64x9.gflops", 9, 64, 9, true),
    ("ml.matmul_bt_into.9x16x9.gflops", 9, 16, 9, true),
    ("ml.matmul_bt_into.1x16x1024.gflops", 1, 16, 1024, true),
];

/// Replays per rate measurement; the median is reported.
const REPEATS: usize = 3;

fn section(tracer: &mut Tracer, name: &'static str) -> crate::tracer::Span {
    tracer.begin_labeled(Layer::Probe, || name.to_string())
}

fn kernels(report: &mut Report) {
    let mut r = rng(0x9E_5F);
    for &(name, m, k, n, bt) in KERNELS {
        let a = Matrix::xavier(m, k, &mut r);
        let b = if bt {
            Matrix::xavier(n, k, &mut r)
        } else {
            Matrix::xavier(k, n, &mut r)
        };
        let mut out = Matrix::zeros(m, n);
        let mut call = || {
            if bt {
                black_box(&a).matmul_bt_into(black_box(&b), &mut out);
            } else {
                black_box(&a).matmul_into(black_box(&b), &mut out);
            }
            black_box(&out);
        };
        const INNER: u64 = 16;
        for _ in 0..INNER {
            call();
        }
        let mut s = Samples::new(1);
        for _ in 0..300 {
            let t = Instant::now();
            for _ in 0..INNER {
                call();
            }
            s.record_mean(t.elapsed(), INNER);
        }
        let flops = 2.0 * (m * k * n) as f64;
        report.set(name, flops / s.quantile_ns(0.5));
    }
}

/// Block and page-token histories of the carrier's LLC stream, one per
/// access once `history` accesses have been seen.
struct Histories {
    blocks: Vec<Vec<(u64, u64)>>,
    pages: Vec<Vec<(usize, u64)>>,
    phases: Vec<usize>,
}

fn histories(
    llc: &[MemRecord],
    page: &PagePredictor,
    history: usize,
    num_phases: usize,
    n: usize,
) -> Histories {
    let windows = llc.windows(history).take(n);
    let mut h = Histories {
        blocks: Vec::new(),
        pages: Vec::new(),
        phases: Vec::new(),
    };
    for w in windows {
        h.blocks.push(w.iter().map(|r| (r.block(), r.pc)).collect());
        h.pages.push(
            w.iter()
                .map(|r| (page.vocab.token_of(r.page()), r.pc))
                .collect(),
        );
        h.phases
            .push(w[history - 1].phase as usize % num_phases.max(1));
    }
    h
}

fn time_calls(n: usize, mut f: impl FnMut(usize)) -> Samples {
    let mut s = Samples::new(1);
    for i in 0..n.min(8) {
        f(i);
    }
    for i in 0..n {
        let t = Instant::now();
        f(i);
        s.record(t.elapsed());
    }
    s
}

fn predictors(
    delta: &DeltaPredictor,
    page: &PagePredictor,
    h: &Histories,
    spatial_degree: usize,
    report: &mut Report,
) {
    let n = h.blocks.len();
    let mut arena = ScratchArena::new();
    // The calibration kernel of the perf runner, interleaved sample by
    // sample with the delta predictor so both see the same machine load.
    let mut cr = rng(0xCA_11B);
    let ca = Matrix::xavier(64, 64, &mut cr);
    let cb = Matrix::xavier(64, 64, &mut cr);
    let mut calibration = Samples::new(1);
    let mut d = time_calls(n, |i| {
        black_box(delta.predict_deltas_in(&h.blocks[i], h.phases[i], spatial_degree, &mut arena));
        let t = Instant::now();
        black_box(black_box(&ca).matmul_ref(black_box(&cb)));
        calibration.record(t.elapsed());
    });
    report.set("core.delta.predict_us_p50", d.quantile_us(0.5));
    report.set("core.delta.predict_us_p99", d.quantile_us(0.99));
    report.set("bench.calibration_ns", calibration.quantile_ns(0.5));
    let mut p = time_calls(n, |i| {
        black_box(page.predict_pages_in(&h.pages[i], h.phases[i], 1, &mut arena));
    });
    report.set("core.page.predict_us_p50", p.quantile_us(0.5));
    report.set("core.page.predict_us_p99", p.quantile_us(0.99));

    let mut dq = delta.clone();
    dq.quantize();
    let mut pq = page.clone();
    pq.quantize();
    let mut d8 = time_calls(n, |i| {
        black_box(dq.predict_deltas_in(&h.blocks[i], h.phases[i], spatial_degree, &mut arena));
    });
    let mut p8 = time_calls(n, |i| {
        black_box(pq.predict_pages_in(&h.pages[i], h.phases[i], 1, &mut arena));
    });
    report.set("core.delta.predict_int8_us_p50", d8.quantile_us(0.5));
    report.set("core.page.predict_int8_us_p50", p8.quantile_us(0.5));
}

/// The CSTP chain on the carrier's stream, with the PBOT updated access
/// by access as the prefetcher updates it. The parallel and the serial
/// chain must agree bit for bit. The phase is the record's own label, not
/// the one a controller would have selected.
fn cstp(
    delta: &DeltaPredictor,
    page: &PagePredictor,
    carrier: &Inputs,
    history: usize,
    chains: usize,
    report: &mut Report,
    problems: &mut Vec<String>,
) {
    let cfg = mpgraph_cfg();
    let mut pbot = Pbot::new(cfg.pbot_capacity);
    let mut stats = CstpStats::default();
    let mut serial_stats = CstpStats::default();
    let (mut spatial, mut temporal) = (ScratchArena::new(), ScratchArena::new());
    let mut lanes = Vec::new();
    let mut parallel = Samples::new(1);
    let mut serial = Samples::new(1);
    let llc = &carrier.test_llc;
    let np = carrier.num_phases.max(1);
    // The chains run on the last accesses of the stream, so the PBOT holds
    // what a replay would have recorded by then.
    let first = llc.len().saturating_sub(chains).max(history - 1);
    for (i, r) in llc.iter().enumerate() {
        let a = access_of(r);
        pbot.update(a.page(), a.offset(), a.pc);
        if i < first {
            continue;
        }
        let w = &llc[i + 1 - history..=i];
        let bh: Vec<(u64, u64)> = w.iter().map(|r| (r.block(), r.pc)).collect();
        let ph: Vec<(usize, u64)> = w
            .iter()
            .map(|r| (page.vocab.token_of(r.page()), r.pc))
            .collect();
        let phase = r.phase as usize % np;
        let t = Instant::now();
        let a_out = chain_prefetch_in(
            delta,
            page,
            &pbot,
            &bh,
            &ph,
            phase,
            &cfg.cstp,
            &mut spatial,
            &mut temporal,
            &mut lanes,
            &mut stats,
        );
        parallel.record(t.elapsed());
        let t = Instant::now();
        let b_out = chain_prefetch(
            delta,
            page,
            &pbot,
            &bh,
            &ph,
            phase,
            &cfg.cstp,
            &mut serial_stats,
        );
        serial.record(t.elapsed());
        if a_out != b_out {
            problems.push(format!(
                "chain_prefetch_in and chain_prefetch disagree at LLC access {i}"
            ));
        }
    }
    report.set("core.cstp.chain_us_p50", parallel.quantile_us(0.5));
    report.set("core.cstp.chain_us_p99", parallel.quantile_us(0.99));
    report.set("core.cstp.serial_chain_us_p50", serial.quantile_us(0.5));
    // One spatial forward per batch, one page forward per chain step
    // tried, one delta forward per step whose page the PBOT held.
    let forwards = stats.batches + 2 * stats.pbot_hits + stats.pbot_misses;
    report.set(
        "core.cstp.forwards_per_access",
        forwards as f64 / stats.batches.max(1) as f64,
    );
    report.set("core.cstp.pbot_hit_rate", stats.pbot_hit_rate());
    report.set("core.cstp.avg_chain_len", stats.avg_chain_len());
}

fn serve_layer(layer: &mut ServeLayer, report: &mut Report) {
    let m = &layer.metrics;
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    report.set("core.serve.ingest_ns_p50", layer.ingest.quantile_ns(0.5));
    report.set(
        "core.serve.forwards_per_ml_item",
        ratio(m.fused_forwards, m.fused_items),
    );
    report.set(
        "core.serve.batch_fill",
        ratio(m.ml_processed, m.batches * layer.batch_size as u64),
    );
    report.set("core.serve.max_queue_depth", m.max_queue_depth as f64);
    report.set(
        "core.serve.deferred_fraction",
        ratio(m.deferred_fallback_processed, m.ingested),
    );
    report.set("core.serve.escalations", m.escalations as f64);
    report.set("core.serve.quarantines", m.quarantines as f64);
    report.set("core.serve.snapshot_ms", layer.snapshot_ms);
    report.set("core.serve.shed_fraction", m.shed_fraction);
    report.set("core.serve.ml_fraction", ratio(m.ml_processed, m.ingested));
    report.set(
        "core.serve.latency_cycles_p99",
        m.prediction_latency.p99 as f64,
    );
}

/// A service over the carrier's stream for workloads that serve nothing
/// themselves: Zipf arrivals at 2× saturation, so the ladder works too.
fn probe_service(
    delta: &DeltaPredictor,
    page: &PagePredictor,
    carrier: &Inputs,
    knobs: &Knobs,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> ServeLayer {
    let cfg = ServeConfig::default();
    let history = knobs.quick.train.history;
    let mut svc = serve::service(delta, page, carrier, history, cfg, knobs.streams);
    let rate = 2 * saturation_rate(&cfg);
    let llc = &carrier.test_llc;
    let mut arrivals = Arrivals::new(Arrival::Zipf, knobs.streams, rate, llc.len(), 0);
    let plan = Drive {
        budget: Duration::MAX,
        max_ticks: knobs.probe_ticks,
        quality_ticks: 0,
        identity_ticks: 0,
    };
    let d = serve::drive(&mut svc, &mut arrivals, llc, &plan, tracer);
    if d.offered != d.delivered {
        problems.push("probe service lost predictions".into());
    }
    let (snapshot_ms, _) = mean_ms(16, || svc.snapshot());
    ServeLayer {
        metrics: svc.metrics(),
        batch_size: cfg.batch_size,
        ingest: d.ingest,
        snapshot_ms,
    }
}

/// Median wall time of `REPEATS` runs of `f`, and the last result.
fn repeat<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed());
    }
    (
        crate::metrics::median_s(&times),
        last.expect("REPEATS is positive"),
    )
}

fn replays(carrier: &Inputs, tracer: &mut Tracer, report: &mut Report, problems: &mut Vec<String>) {
    let cfg = sim_config();
    let test = &carrier.test;
    let records = test.len() as f64;
    let (none_s, none) = repeat(|| simulate(test, &mut NullPrefetcher, &cfg));
    let (bo_s, bo) = repeat(|| simulate(test, &mut BestOffset::new(BoConfig::default()), &cfg));
    let (isb_s, _) = repeat(|| simulate(test, &mut Isb::new(IsbConfig::default()), &cfg));
    report.set("sim.replay_none_records_per_s", records / none_s);
    report.set("prefetchers.bo.replay_records_per_s", records / bo_s);
    report.set("prefetchers.isb.replay_records_per_s", records / isb_s);
    report.set(
        "prefetchers.bo.ipc_improvement_pct",
        bo.ipc_improvement(&none),
    );

    let np = carrier.num_phases.max(1);
    let (observed_s, (observed, sb)) = repeat(|| {
        let mut sb = PrefetchScoreboard::with_trace(np, 4096, TelemetryConfig::default());
        let r = simulate_observed(
            test,
            &mut BestOffset::new(BoConfig::default()),
            &cfg,
            None,
            Some(&mut sb as &mut dyn PrefetchObserver),
        );
        (r, sb)
    });
    report.set("core.obs.observer_overhead", observed_s / bo_s);
    let (snapshot_ms, snapshot) = mean_ms(16, || sb.snapshot());
    report.set("core.obs.snapshot_ms", snapshot_ms);
    let json = snapshot.to_json_compact().expect("snapshot serializes");
    report.set("core.obs.snapshot_json_bytes", json.len() as f64);
    let (chrome_ms, chrome) = mean_ms(4, || {
        let trace = sb
            .chrome_trace()
            .expect("scoreboard was built with tracing");
        serde_json::to_string(&trace).expect("trace serializes")
    });
    report.set("core.obs.chrome_trace_ms", chrome_ms);
    report.set("core.obs.chrome_trace_bytes", chrome.len() as f64);
    if key(&observed) != key(&bo) || snapshot.issued != observed.prefetches_issued {
        problems.push("probe: the observed BO replay disagrees with the unobserved one".into());
    }

    // Means of 16 calls: a BO call takes tens of nanoseconds.
    let mut calls = Samples::new(16);
    let t = Instant::now();
    let mut pf = BestOffset::new(BoConfig::default());
    let mut timed = Timed::new(&mut pf, &mut calls, tracer);
    let r = simulate(test, &mut timed, &cfg);
    let wall = t.elapsed();
    let (n_calls, busy) = (timed.calls, timed.busy);
    drop(timed);
    report.set("sim.engine_self_s", (wall - busy).as_secs_f64());
    report.set("sim.llc_accesses", n_calls as f64);
    report.set("sim.prefetches_issued", r.prefetches_issued as f64);
    report.set("prefetchers.bo.on_access_ns_p50", calls.quantile_ns(0.5));
}

/// Runs every per-layer measurement. Returns the problems its output
/// checks found.
pub fn run(
    carrier: &Inputs,
    measured: &mut Measured,
    knobs: &Knobs,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<String> {
    let mut problems = Vec::new();
    let cfg = mpgraph_cfg();
    let tc = knobs.quick.train;
    let np = carrier.num_phases.max(1);

    let s = section(tracer, "ml");
    kernels(report);
    tracer.end(s);

    let s = section(tracer, "core.train");
    let t = Instant::now();
    let delta = DeltaPredictor::train(&carrier.train_llc, np, cfg.variant, cfg.delta, &tc);
    let delta_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let page = PagePredictor::train(&carrier.train_llc, np, cfg.variant, cfg.page, &tc);
    let page_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut detector = build_detector(&carrier.train_llc, np, cfg.detector);
    report.set("core.train.detector_s", t.elapsed().as_secs_f64());
    report.set("core.train.delta_s", delta_s);
    report.set("core.train.page_s", page_s);
    let samples = tc
        .max_samples
        .min(carrier.train_llc.len().saturating_sub(tc.history));
    let tokens = 2 * samples * tc.history * tc.epochs;
    report.set(
        "core.train.tokens_per_s",
        tokens as f64 / (delta_s + page_s),
    );
    tracer.end(s);

    let s = section(tracer, "core.delta+core.page");
    let h = histories(
        &carrier.test_llc,
        &page,
        tc.history,
        np,
        knobs.probe_samples,
    );
    predictors(&delta, &page, &h, cfg.cstp.spatial_degree, report);
    tracer.end(s);

    let s = section(tracer, "core.cstp");
    cstp(
        &delta,
        &page,
        carrier,
        tc.history,
        knobs.probe_chains,
        report,
        &mut problems,
    );
    tracer.end(s);

    let s = section(tracer, "phase");
    let mut updates = Samples::new(1);
    for block in carrier.test_llc.chunks(64) {
        let t = Instant::now();
        for r in block {
            black_box(detector.update(r.pc));
        }
        updates.record_mean(t.elapsed(), block.len() as u64);
    }
    report.set("phase.detector_update_ns_p50", updates.quantile_ns(0.5));
    report.set("phase.confirmations", detector.stats().detections as f64);
    tracer.end(s);

    let s = section(tracer, "core.serve");
    let mut own;
    let layer = match measured.serve.as_mut() {
        Some(layer) => layer,
        None => {
            own = probe_service(&delta, &page, carrier, knobs, tracer, &mut problems);
            &mut own
        }
    };
    serve_layer(layer, report);
    tracer.end(s);

    let s = section(tracer, "sim+prefetchers+core.obs");
    replays(carrier, tracer, report, &mut problems);
    tracer.end(s);

    let st = measured.setup_stats;
    let per_setup = |ns: u64| ns as f64 / 1e9 / st.setups.max(1) as f64;
    report.set(
        "graph.build_s",
        st.graph_ns as f64 / 1e9 / st.graphs.max(1) as f64,
    );
    report.set("frameworks.trace_s", per_setup(st.trace_ns));
    report.set(
        "frameworks.trace_records_per_s",
        st.trace_records as f64 / (st.trace_ns as f64 / 1e9),
    );
    report.set("sim.llc_filter_s", per_setup(st.filter_ns));
    problems
}
