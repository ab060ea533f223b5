//! Open-loop load generation for the multi-stream prefetch service
//! (`mpgraph_core::serve`): drive N concurrent streams at a fixed offered
//! rate — independent of the service's completion rate, as real demand is
//! — and measure throughput, prediction-latency percentiles, and shed
//! fraction across a load sweep. A chaos mode drives the existing
//! fault-injection machinery through individual streams to prove that
//! quarantine isolates a faulty stream from its siblings.
//!
//! The service itself stays deterministic (its clock is simulated
//! cycles); only the reported `accesses_per_sec` uses host wall time,
//! the same compromise as the scoreboard's `inference_wall_ns`.

use crate::runners::perf::percentile;
use crate::scale::ExpScale;
use crate::workload::SynthConfig;
use mpgraph_core::{
    build_detector, train_mpgraph, LiveTelemetry, LiveTelemetryConfig, MetricsSnapshot,
    MpGraphConfig, MpGraphPrefetcher, Prediction, PrefetchScoreboard, PrefetchService, ServeConfig,
    SloConfig, TraceConfig,
};
use mpgraph_frameworks::MemRecord;
use mpgraph_sim::{FaultConfig, FaultInjector, FaultKind, LlcAccess, Prefetcher, TraceEvent};
use serde::Serialize;

/// Trained predictor stack shared by every generated stream. Each stream
/// gets its *own* prefetcher (cloned predictors + a fresh detector), so a
/// stream's phase state and quarantine cannot leak into a sibling.
pub struct LoadgenSetup {
    pub num_phases: usize,
    train: Vec<MemRecord>,
    test: Vec<MemRecord>,
    trained: MpGraphPrefetcher,
    history: usize,
}

impl LoadgenSetup {
    /// Trains the shared stack once on the synthetic PageRank carrier
    /// (the same carrier `--metrics-out` uses everywhere else).
    pub fn prepare(scale: &ExpScale) -> Self {
        let w = SynthConfig::pagerank_like().generate();
        let trained = train_mpgraph(
            &w.train,
            w.num_phases,
            MpGraphConfig::default(),
            &scale.train,
        );
        LoadgenSetup {
            num_phases: w.num_phases,
            train: w.train,
            test: w.test,
            trained,
            history: scale.train.history,
        }
    }

    /// Swaps the serve-path model for the distilled, int8-stored student,
    /// the same pipeline as `mpgraph serve --quant`: distill both
    /// predictors from the trained teachers, then round the student
    /// weights onto their int8 grid. Every stream cloned afterwards serves
    /// those rounded weights through the f32 path (§6.1: int8 is the
    /// storage format). Returns `(student_params, int8_weight_bytes)`.
    pub fn quantize(&mut self, scale: &ExpScale) -> (usize, usize) {
        use mpgraph_core::compress::{quantize_delta, quantize_page};
        use mpgraph_core::{distill_delta, distill_page, DistillCfg};
        let dc = DistillCfg::default();
        let mut sd = distill_delta(&self.trained.delta, &self.train, &dc, &scale.train);
        let mut sp = distill_page(&self.trained.page, &self.train, &dc, &scale.train);
        let (_, delta_bytes) = quantize_delta(&mut sd);
        let (_, page_bytes) = quantize_page(&mut sp);
        let params = sd.num_params() + sp.num_params();
        self.trained.delta = sd;
        self.trained.page = sp;
        (params, delta_bytes + page_bytes)
    }

    /// A fresh per-stream prefetcher: shared trained weights, private
    /// detector/controller/history state.
    pub fn stream_prefetcher(&self) -> Box<dyn Prefetcher + Send> {
        let cfg = MpGraphConfig::default();
        Box::new(MpGraphPrefetcher::from_parts(
            self.trained.delta.clone(),
            self.trained.page.clone(),
            build_detector(&self.train, self.num_phases, cfg.detector),
            cfg,
            self.num_phases,
            self.history,
        ))
    }

    /// The replayed access stream (test split of the carrier).
    pub fn accesses(&self) -> &[MemRecord] {
        &self.test
    }
}

fn access_of(r: &MemRecord) -> LlcAccess {
    LlcAccess {
        pc: r.pc,
        block: r.block(),
        core: r.core,
        is_write: r.is_write,
        hit: false,
        cycle: 0,
    }
}

/// Items per pump the service can push through ML inference: the batch
/// size capped by how many `ml_item_cost` items fit the batch deadline.
pub fn saturation_rate(cfg: &ServeConfig) -> usize {
    let by_deadline = (cfg.batch_deadline / cfg.ml_item_cost.max(1)).max(1) as usize;
    cfg.batch_size.min(by_deadline).max(1)
}

/// Why a `serve --stdin` line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StdinLineError {
    /// Fewer than the three fields `stream pc vaddr`.
    MissingField,
    /// A field that is not a decimal or `0x`-hex `u64`.
    BadNumber(String),
    /// A stream id above `u32::MAX`.
    StreamOutOfRange(u64),
}

impl std::fmt::Display for StdinLineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StdinLineError::MissingField => write!(f, "want `stream pc vaddr [w]`"),
            StdinLineError::BadNumber(field) => {
                write!(f, "{field:?} is not a decimal or 0x-hex number")
            }
            StdinLineError::StreamOutOfRange(id) => {
                write!(f, "stream id {id} does not fit in 32 bits")
            }
        }
    }
}

impl std::error::Error for StdinLineError {}

/// Parses a decimal or `0x`-prefixed hex `u64`.
fn parse_num(field: &str) -> Result<u64, StdinLineError> {
    match field
        .strip_prefix("0x")
        .or_else(|| field.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => field.parse(),
    }
    .map_err(|_| StdinLineError::BadNumber(field.to_string()))
}

/// Parses one line of `mpgraph serve --stdin` input: `stream pc vaddr
/// [w]`, each number decimal or `0x`-hex, with a trailing `w` marking a
/// write. Blank lines and `#` comments give `Ok(None)`. The access's
/// `core` is 0; the caller maps streams onto cores.
pub fn parse_stdin_line(line: &str) -> Result<Option<(u32, LlcAccess)>, StdinLineError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let mut next = || fields.next().ok_or(StdinLineError::MissingField);
    let (stream, pc, vaddr) = (next()?, next()?, next()?);
    let (stream, pc, vaddr) = (parse_num(stream)?, parse_num(pc)?, parse_num(vaddr)?);
    let stream = u32::try_from(stream).map_err(|_| StdinLineError::StreamOutOfRange(stream))?;
    let access = LlcAccess {
        pc,
        block: vaddr >> 6,
        core: 0,
        is_write: fields.next() == Some("w"),
        hit: false,
        cycle: 0,
    };
    Ok(Some((stream, access)))
}

/// Zipf(s = 1) arrival weights across `streams`, normalized to sum to 1:
/// stream `s` receives a `1/(s+1)` share. Graph-analytics front-ends are
/// not uniform — a hot traversal stream dominates while cold streams
/// trickle — and the serve path must hold its latency under that skew.
pub fn zipf_weights(streams: usize) -> Vec<f64> {
    let mut w: Vec<f64> = (0..streams).map(|s| 1.0 / (s as f64 + 1.0)).collect();
    let sum: f64 = w.iter().sum();
    for x in &mut w {
        *x /= sum.max(f64::MIN_POSITIVE);
    }
    w
}

/// Per-stream latency spread of one sweep point: with heterogeneous
/// arrivals the aggregate p99 can hide a starving cold stream, so each
/// stream's percentiles are reported alongside it.
#[derive(Debug, Clone, Serialize)]
pub struct StreamLatency {
    pub stream: u32,
    pub predictions: u64,
    pub p50_latency_cycles: u64,
    pub p99_latency_cycles: u64,
}

/// Groups served predictions by stream and summarizes each stream's
/// admission→completion latency distribution.
pub fn per_stream_latencies(out: &[Prediction]) -> Vec<StreamLatency> {
    let mut by: std::collections::BTreeMap<u32, Vec<u64>> = std::collections::BTreeMap::new();
    for p in out {
        by.entry(p.stream).or_default().push(p.latency);
    }
    by.into_iter()
        .map(|(stream, mut lat)| {
            lat.sort_unstable();
            StreamLatency {
                stream,
                predictions: lat.len() as u64,
                p50_latency_cycles: percentile(&lat, 0.50),
                p99_latency_cycles: percentile(&lat, 0.99),
            }
        })
        .collect()
}

/// One measured point of the load sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LoadPoint {
    /// Offered load as a multiple of the service's saturation rate.
    pub load_factor: f64,
    /// Accesses ingested per pump tick.
    pub offered_per_tick: usize,
    pub ticks: u64,
    pub accesses: u64,
    /// Predictions returned (must equal `accesses` — the service answers
    /// everything, by ML or by fallback).
    pub predictions: u64,
    /// Host-wall-clock throughput of the generator loop.
    pub accesses_per_sec: f64,
    /// Service-cycle prediction-latency percentiles (admission -> result).
    pub p50_latency_cycles: u64,
    pub p99_latency_cycles: u64,
    pub shed_fraction: f64,
    pub ml_processed: u64,
    pub fallback_processed: u64,
    pub escalations: u64,
    pub final_overload_level: u64,
    pub quarantines: u64,
    pub max_queue_depth: u64,
    /// Fused-forward accounting for this point (zero when `fuse` is off
    /// or no stream pair ever shared a batch-compatible wave).
    pub fused_batches: u64,
    pub fused_items: u64,
    pub fused_forwards: u64,
    /// Per-stream latency spread; one entry per stream that completed at
    /// least one prediction, ordered by stream id.
    pub per_stream: Vec<StreamLatency>,
}

/// The sweep result: one point per load factor, plus the full metrics
/// snapshot (serve section included) and optional Chrome trace of the
/// *highest*-load point — the one whose shed/ladder events matter.
pub struct SweepOutcome {
    pub points: Vec<LoadPoint>,
    pub snapshot: MetricsSnapshot,
    pub chrome_trace: Option<serde::Value>,
}

/// Builds a service with `streams` registered streams.
fn build_service(
    setup: &LoadgenSetup,
    cfg: ServeConfig,
    streams: usize,
    trace: Option<TraceConfig>,
) -> PrefetchService {
    let mut svc = match trace {
        Some(tc) => PrefetchService::with_scoreboard(
            cfg,
            PrefetchScoreboard::with_trace(setup.num_phases, 4096, tc),
        ),
        None => PrefetchService::new(cfg),
    };
    for s in 0..streams {
        svc.register_stream(s as u32, setup.stream_prefetcher());
    }
    svc
}

/// How each tick's offered accesses spread over the streams (the
/// arrivals of [`run_load_sweep`]; [`run_fused_comparison`] replays in
/// lockstep and [`run_chaos`] round-robin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Round-robin, one access per stream per round, each stream replaying
    /// the records from its own offset so concurrent streams are not in
    /// lockstep on identical addresses.
    RoundRobin,
    /// Round-robin with every stream replaying from record 0, so each
    /// round offers every stream the same record.
    Lockstep,
    /// Zipf(1) weights across streams (see [`zipf_weights`]) from the
    /// round-robin offsets: each stream accrues fractional credit
    /// `rate·wₛ` per tick and ingests one access per whole credit, so
    /// skewed arrival rates stay exact over the run without any
    /// randomness.
    Zipf,
}

/// Drives `svc` open-loop for `ticks` pump rounds at `rate` accesses per
/// round, spread over `streams` by `arrival`; with no streams nothing is
/// offered. `stall_for` supplies the injected inference stall per
/// (stream, access) — the chaos hook. Predictions accumulate into `out`.
#[allow(clippy::too_many_arguments)]
fn drive(
    svc: &mut PrefetchService,
    setup: &LoadgenSetup,
    streams: usize,
    ticks: u64,
    rate: usize,
    arrival: Arrival,
    mut stall_for: impl FnMut(u32) -> u64,
    out: &mut Vec<Prediction>,
) -> (u64, u64, f64) {
    let records = setup.accesses();
    let mut cursors: Vec<usize> = (0..streams)
        .map(|s| match arrival {
            Arrival::Lockstep => 0,
            Arrival::RoundRobin | Arrival::Zipf => {
                (s * records.len() / streams) % records.len().max(1)
            }
        })
        .collect();
    let weights = zipf_weights(streams);
    let mut credit = vec![0.0f64; streams];
    let mut offered = 0u64;
    let mut offer = |svc: &mut PrefetchService, s: usize| {
        let r = &records[cursors[s]];
        cursors[s] = (cursors[s] + 1) % records.len();
        let stall = stall_for(s as u32);
        svc.ingest(s as u32, &access_of(r), stall);
        offered += 1;
    };
    let mut next_stream = 0usize;
    let before = out.len();
    let started = std::time::Instant::now();
    for _ in 0..ticks {
        match arrival {
            Arrival::RoundRobin | Arrival::Lockstep => {
                for _ in 0..rate {
                    let Some(s) = next_stream.checked_rem(streams) else {
                        break;
                    };
                    offer(svc, s);
                    next_stream += 1;
                }
            }
            Arrival::Zipf => {
                for s in 0..streams {
                    credit[s] += rate as f64 * weights[s];
                    while credit[s] >= 1.0 {
                        credit[s] -= 1.0;
                        offer(svc, s);
                    }
                }
            }
        }
        svc.pump(out);
    }
    svc.flush(out);
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    (
        offered,
        (out.len() - before) as u64,
        offered as f64 / elapsed,
    )
}

/// Runs the sweep: one fresh service per load factor (points are
/// independent measurements, not a continuation), each driven with
/// `arrival`. `live` attaches a
/// [`LiveTelemetry`] pump to the *traced* (highest-load) point only —
/// the same point whose snapshot and Chrome trace the sweep keeps — so
/// its NDJSON/exposition sinks, pump-stage histograms, and SLO verdict
/// describe the run that actually sheds.
#[allow(clippy::too_many_arguments)]
pub fn run_load_sweep(
    setup: &LoadgenSetup,
    cfg: ServeConfig,
    streams: usize,
    ticks: u64,
    factors: &[f64],
    arrival: Arrival,
    trace: Option<TraceConfig>,
    live: Option<LiveTelemetry>,
) -> SweepOutcome {
    let saturation = saturation_rate(&cfg);
    let mut points = Vec::new();
    let mut snapshot = MetricsSnapshot::default();
    let mut chrome = None;
    let mut live = live;
    let max_factor = factors.iter().cloned().fold(f64::MIN, f64::max);
    for &factor in factors {
        let rate = ((factor * saturation as f64).round() as usize).max(1);
        // Only the highest-load point carries the trace/metrics backend:
        // that run is the one with shed and ladder events worth keeping.
        let traced = (factor - max_factor).abs() < f64::EPSILON;
        let mut svc = build_service(setup, cfg, streams, if traced { trace } else { None });
        if traced {
            if let Some(tel) = live.take() {
                svc.enable_live_telemetry(tel);
            }
        }
        let mut out = Vec::new();
        let (offered, predictions, per_sec) = drive(
            &mut svc,
            setup,
            streams,
            ticks,
            rate,
            arrival,
            |_| 0,
            &mut out,
        );
        if traced {
            // Close the trailing partial interval and flush the NDJSON
            // sink before the snapshot is taken, so the live rollups in
            // `snapshot.serve` cover the whole run.
            svc.finish_live_telemetry();
        }
        let m = svc.metrics();
        points.push(LoadPoint {
            load_factor: factor,
            offered_per_tick: rate,
            ticks,
            accesses: offered,
            predictions,
            accesses_per_sec: per_sec,
            p50_latency_cycles: m.prediction_latency.p50,
            p99_latency_cycles: m.prediction_latency.p99,
            shed_fraction: m.shed_fraction,
            ml_processed: m.ml_processed,
            fallback_processed: m.fallback_processed,
            escalations: m.escalations,
            final_overload_level: m.overload_level,
            quarantines: m.quarantines,
            max_queue_depth: m.max_queue_depth,
            fused_batches: m.fused_batches,
            fused_items: m.fused_items,
            fused_forwards: m.fused_forwards,
            per_stream: per_stream_latencies(&out),
        });
        if traced {
            // The service-level export (not the scoreboard's) so the
            // live-telemetry counter tracks ride along when attached.
            chrome = svc.chrome_trace();
            snapshot = svc.snapshot();
        }
    }
    SweepOutcome {
        points,
        snapshot,
        chrome_trace: chrome,
    }
}

/// Fused-vs-per-item pump comparison at a fixed load.
#[derive(Debug, Clone, Serialize)]
pub struct FusedComparison {
    pub streams: usize,
    pub ticks: u64,
    pub offered_per_tick: usize,
    pub accesses: u64,
    pub fused_accesses_per_sec: f64,
    pub per_item_accesses_per_sec: f64,
    /// Wall-clock throughput ratio, fused over per-item.
    pub speedup: f64,
    /// Every prediction (stream, candidates, phase, latency, fallback
    /// flag) identical between the two services.
    pub bit_identical: bool,
    pub fused_batches: u64,
    pub fused_items: u64,
    pub fused_forwards: u64,
}

/// Drives two otherwise-identical services — one with the fused (B×T×d)
/// pump, one issuing per-item forwards — over the same lockstep workload
/// at 1× saturation, and checks the fused path is a pure optimization:
/// bit-identical output, fewer forwards, higher wall-clock throughput.
///
/// The streams replay the *same* record sequence ([`Arrival::Lockstep`]):
/// graph-analytics front-ends fan one traversal out to parallel workers,
/// so concurrent streams sit in the same phase — exactly the condition
/// under which batch-compatible waves form.
pub fn run_fused_comparison(
    setup: &LoadgenSetup,
    cfg: ServeConfig,
    streams: usize,
    ticks: u64,
) -> FusedComparison {
    let rate = saturation_rate(&cfg);
    let run = |fuse: bool, ticks: u64| -> (Vec<Prediction>, f64, u64, (u64, u64, u64)) {
        let mut c = cfg;
        c.fuse = fuse;
        let mut svc = build_service(setup, c, streams, None);
        let mut out = Vec::new();
        let (offered, _, per_sec) = drive(
            &mut svc,
            setup,
            streams,
            ticks,
            rate,
            Arrival::Lockstep,
            |_| 0,
            &mut out,
        );
        let m = svc.metrics();
        (
            out,
            per_sec,
            offered,
            (m.fused_batches, m.fused_items, m.fused_forwards),
        )
    };

    // A short throwaway drive first: the whole process is cold on the
    // first service (allocator, page tables, branch predictors), and the
    // comparison must not charge that warmup to whichever side runs
    // first.
    let _ = run(true, (ticks / 4).max(10));
    let (solo_out, solo_per_sec, _, _) = run(false, ticks);
    let (fused_out, fused_per_sec, accesses, (fb, fi, ff)) = run(true, ticks);

    let key = |p: &Prediction| {
        (
            p.stream,
            p.candidates.clone(),
            p.latency,
            p.via_fallback,
            p.phase,
        )
    };
    let bit_identical = fused_out.len() == solo_out.len()
        && fused_out
            .iter()
            .zip(solo_out.iter())
            .all(|(a, b)| key(a) == key(b));

    FusedComparison {
        streams,
        ticks,
        offered_per_tick: rate,
        accesses,
        fused_accesses_per_sec: fused_per_sec,
        per_item_accesses_per_sec: solo_per_sec,
        speedup: fused_per_sec / solo_per_sec.max(1e-9),
        bit_identical,
        fused_batches: fb,
        fused_items: fi,
        fused_forwards: ff,
    }
}

/// Chaos-mode result: fault-injected victim streams vs their siblings.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosOutcome {
    pub victims: Vec<u32>,
    pub quarantined: Vec<u32>,
    pub stalls_injected: u64,
    /// Every victim quarantined, no healthy stream quarantined.
    pub isolation_held: bool,
    /// Of the healthy streams' predictions, the fraction served by the
    /// fallback (transient batch-timeout deferrals only; should be small).
    pub healthy_fallback_fraction: f64,
    /// Record index at which the live SLO monitor first escalated its
    /// verdict (`SloEscalate` in the trace), if it ever did.
    pub slo_escalated_at: Option<u64>,
    /// Record index of the first per-stream quarantine trip, if any.
    pub first_quarantine_at: Option<u64>,
    /// The burn-rate monitor saw the fault before the first deadline-miss
    /// window filled and tripped quarantine — the early-warning property
    /// the live telemetry exists to provide.
    pub slo_fired_first: bool,
}

/// Runs the chaos experiment: the first quarter of the streams (at least
/// one) ingest through a [`FaultInjector`] wedged on `StallInference`,
/// the rest run clean, all at half the saturation rate so the overload
/// ladder stays out of the picture and any degradation is attributable
/// to per-stream isolation alone.
///
/// The service runs with a tracing scoreboard plus a passive
/// [`LiveTelemetry`] attachment (`wire_ladder: false` — wiring the SLO
/// verdict into the ladder here would shed ML work and starve the
/// deadline-observation stream the quarantine path needs, turning the
/// detection-latency comparison into a measurement artifact). The trace
/// then yields the timestamps of the first `SloEscalate` vs the first
/// `StreamQuarantine`, i.e. how much earlier the interval burn-rate
/// monitor fires than the per-stream miss window.
pub fn run_chaos(
    setup: &LoadgenSetup,
    cfg: ServeConfig,
    streams: usize,
    ticks: u64,
    seed: u64,
) -> ChaosOutcome {
    let streams = streams.max(2);
    let victims: Vec<u32> = (0..(streams as u32 / 4).max(1)).collect();
    let mut svc = build_service(setup, cfg, streams, Some(TraceConfig::with_adaptive()));
    let lcfg = LiveTelemetryConfig {
        interval_pumps: 4,
        slo: SloConfig {
            fast_burn: 2.0,
            window_intervals: 2,
            wire_ladder: false,
            ..SloConfig::default()
        },
        ..LiveTelemetryConfig::default()
    };
    if let Ok(c) = lcfg.try_new() {
        svc.enable_live_telemetry(LiveTelemetry::new(c));
    }
    let mut inj = FaultInjector::new(FaultConfig::only(FaultKind::StallInference, 0.8, seed));
    let rate = (saturation_rate(&cfg) / 2).max(1);
    let mut out = Vec::new();
    let victim_stall = |s: u32| {
        if victims.contains(&s) {
            inj.inference_stall()
        } else {
            0
        }
    };
    drive(
        &mut svc,
        setup,
        streams,
        ticks,
        rate,
        Arrival::RoundRobin,
        victim_stall,
        &mut out,
    );
    svc.finish_live_telemetry();

    let quarantined: Vec<u32> = (0..streams as u32)
        .filter(|&s| svc.is_quarantined(s))
        .collect();
    let victims_contained = victims.iter().all(|v| quarantined.contains(v));
    let healthy_clean = quarantined.iter().all(|q| victims.contains(q));
    let healthy_preds: Vec<&mpgraph_core::Prediction> = out
        .iter()
        .filter(|p| !victims.contains(&p.stream))
        .collect();
    let healthy_fallback = healthy_preds.iter().filter(|p| p.via_fallback).count();
    // Both detection events are alarms, so the adaptive flight recorder
    // keeps their windows even when the ring wraps.
    let events = svc
        .scoreboard()
        .map(PrefetchScoreboard::trace_events)
        .unwrap_or_default();
    let slo_escalated_at = events
        .iter()
        .find(|(_, e)| matches!(e, TraceEvent::SloEscalate { .. }))
        .map(|(ts, _)| *ts);
    let first_quarantine_at = events
        .iter()
        .find(|(_, e)| matches!(e, TraceEvent::StreamQuarantine { .. }))
        .map(|(ts, _)| *ts);
    let slo_fired_first = match (slo_escalated_at, first_quarantine_at) {
        (Some(slo), Some(quar)) => slo <= quar,
        _ => false,
    };
    ChaosOutcome {
        victims,
        quarantined,
        stalls_injected: inj.stats.inference_stalls,
        isolation_held: victims_contained && healthy_clean,
        healthy_fallback_fraction: if healthy_preds.is_empty() {
            0.0
        } else {
            healthy_fallback as f64 / healthy_preds.len() as f64
        },
        slo_escalated_at,
        first_quarantine_at,
        slo_fired_first,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ServeConfig {
        ServeConfig::default()
    }

    #[test]
    fn sweep_reports_every_point_and_sheds_at_overload() {
        let scale = ExpScale::quick();
        let setup = LoadgenSetup::prepare(&scale);
        let outcome = run_load_sweep(
            &setup,
            quick_cfg(),
            4,
            120,
            &[0.5, 1.0, 2.0],
            Arrival::RoundRobin,
            Some(TraceConfig::with_adaptive()),
            None,
        );
        assert_eq!(outcome.points.len(), 3);
        for p in &outcome.points {
            // The access path never blocks and nothing is lost: every
            // offered access yields exactly one prediction.
            assert_eq!(p.accesses, p.predictions, "at {}x", p.load_factor);
            assert!(p.accesses_per_sec > 0.0);
            assert!(p.p99_latency_cycles >= p.p50_latency_cycles);
            // The spread accounts for every prediction, stream by stream.
            let spread: u64 = p.per_stream.iter().map(|s| s.predictions).sum();
            assert_eq!(spread, p.predictions, "at {}x", p.load_factor);
        }
        let under = &outcome.points[0];
        let over = &outcome.points[2];
        assert!(
            over.shed_fraction > under.shed_fraction,
            "2x load must shed more than 0.5x ({} vs {})",
            over.shed_fraction,
            under.shed_fraction
        );
        assert!(over.shed_fraction > 0.0, "2x saturation never shed");
        // p99 stays bounded by the service's own cost model: far below
        // what an unbounded queue would accumulate over the run.
        assert!(over.p99_latency_cycles > 0);
        assert!(over.p99_latency_cycles < svc_cycle_bound(over));
        // The overloaded point's snapshot carries the serve section.
        assert_eq!(outcome.snapshot.serve.ingested, over.accesses);
        assert!(outcome.snapshot.serve.shed_fraction > 0.0);
        assert!(outcome.chrome_trace.is_some(), "trace missing");
    }

    /// Loose structural bound on end-to-end latency: total service cycles
    /// the whole run can possibly accumulate, divided by nothing — any
    /// latency below this proves the histogram is not integrating
    /// unbounded queue growth.
    fn svc_cycle_bound(p: &LoadPoint) -> u64 {
        p.accesses * 2 + p.ml_processed * 1000 + p.fallback_processed * 16
    }

    #[test]
    fn zipf_drive_skews_arrivals_and_reports_per_stream_spread() {
        let w = zipf_weights(4);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1] && w[1] > w[2] && w[2] > w[3]);

        let scale = ExpScale::quick();
        let setup = LoadgenSetup::prepare(&scale);
        let outcome = run_load_sweep(
            &setup,
            quick_cfg(),
            4,
            120,
            &[1.0],
            Arrival::Zipf,
            None,
            None,
        );
        let p = &outcome.points[0];
        assert_eq!(p.accesses, p.predictions);
        // The hot stream sees Zipf-many more completions than the cold
        // one, and every stream still completes something.
        assert_eq!(p.per_stream.len(), 4);
        let hot = &p.per_stream[0];
        let cold = &p.per_stream[3];
        assert_eq!(hot.stream, 0);
        assert_eq!(cold.stream, 3);
        assert!(
            hot.predictions > 2 * cold.predictions,
            "hot {} vs cold {}",
            hot.predictions,
            cold.predictions
        );
        assert!(cold.predictions > 0);
        for s in &p.per_stream {
            assert!(s.p99_latency_cycles >= s.p50_latency_cycles);
        }
    }

    #[test]
    fn fused_pump_is_bit_identical_and_batches_lockstep_streams() {
        let scale = ExpScale::quick();
        let setup = LoadgenSetup::prepare(&scale);
        let cmp = run_fused_comparison(&setup, quick_cfg(), 4, 150);
        assert!(cmp.accesses > 0);
        assert!(
            cmp.bit_identical,
            "fused pump diverged from per-item pump ({} accesses)",
            cmp.accesses
        );
        // Lockstep same-phase streams form real multi-lane groups, and
        // fusing them saves forwards: strictly fewer forwards than items.
        assert!(cmp.fused_batches > 0, "no fused batches formed");
        assert!(
            cmp.fused_items > cmp.fused_batches,
            "no wave ever held more than one lane ({} items / {} batches)",
            cmp.fused_items,
            cmp.fused_batches
        );
        assert!(cmp.fused_forwards > 0);
        // The deterministic fact the speedup stands for: a group costs at
        // most the 1 + 2·Dt forwards of one chain walk however many lanes
        // ride it, where per-item service pays that per item. The
        // wall-clock speedup is gated on the release loadgen artifact in
        // CI (>= 1.5x).
        let per_walk = 1 + 2 * MpGraphConfig::default().cstp.temporal_degree as u64;
        assert!(
            cmp.fused_forwards <= cmp.fused_batches * per_walk,
            "a group took more forwards than one walk ({} forwards / {} groups)",
            cmp.fused_forwards,
            cmp.fused_batches
        );
    }

    #[test]
    fn fused_pump_issues_one_spatial_forward_per_group() {
        // With the temporal walk disabled, a fused group costs exactly
        // one forward regardless of how many lanes ride it — the whole
        // point of stacking the pump batch into one (B×T×d) input.
        let scale = ExpScale::quick();
        let setup = LoadgenSetup::prepare(&scale);
        let streams = 4usize;
        let cfg = ServeConfig::default();
        let mut svc = PrefetchService::new(cfg);
        for s in 0..streams {
            let mut mcfg = MpGraphConfig::default();
            mcfg.cstp.temporal_degree = 0;
            svc.register_stream(
                s as u32,
                Box::new(MpGraphPrefetcher::from_parts(
                    setup.trained.delta.clone(),
                    setup.trained.page.clone(),
                    build_detector(&setup.train, setup.num_phases, mcfg.detector),
                    mcfg,
                    setup.num_phases,
                    setup.history,
                )),
            );
        }
        let mut out = Vec::new();
        let n = 200.min(setup.accesses().len());
        for r in &setup.accesses()[..n] {
            // Identical records to every stream: identical histories,
            // phases, and signatures, so each pump wave is one group.
            for s in 0..streams {
                svc.ingest(s as u32, &access_of(r), 0);
            }
            svc.pump(&mut out);
        }
        let m = svc.metrics();
        assert!(m.fused_batches > 0, "no fused batches formed");
        assert_eq!(
            m.fused_items,
            streams as u64 * m.fused_batches,
            "a wave split into multiple groups despite identical streams"
        );
        assert_eq!(
            m.fused_forwards, m.fused_batches,
            "spatial-only group took more than one forward"
        );
    }

    #[test]
    fn zero_streams_offer_nothing() {
        let scale = ExpScale::quick();
        let setup = LoadgenSetup::prepare(&scale);
        for arrival in [Arrival::RoundRobin, Arrival::Lockstep, Arrival::Zipf] {
            let outcome = run_load_sweep(
                &setup,
                quick_cfg(),
                0,
                20,
                &[1.0],
                arrival,
                Some(TraceConfig::default()),
                None,
            );
            let p = &outcome.points[0];
            assert_eq!((p.accesses, p.predictions), (0, 0), "{arrival:?}");
            assert!(p.per_stream.is_empty());
        }
        let cmp = run_fused_comparison(&setup, quick_cfg(), 0, 20);
        assert_eq!(cmp.accesses, 0);
        assert!(cmp.bit_identical);
    }

    #[test]
    fn chaos_quarantines_victims_and_spares_siblings() {
        let scale = ExpScale::quick();
        let setup = LoadgenSetup::prepare(&scale);
        let outcome = run_chaos(&setup, quick_cfg(), 8, 300, 7);
        assert!(outcome.stalls_injected > 0, "no faults injected");
        assert!(
            outcome.isolation_held,
            "victims {:?} quarantined {:?}",
            outcome.victims, outcome.quarantined
        );
        assert!(
            outcome.healthy_fallback_fraction < 0.5,
            "healthy streams mostly degraded: {}",
            outcome.healthy_fallback_fraction
        );
        // Acceptance criterion: the interval burn-rate monitor fires
        // before the per-stream deadline-miss window can possibly fill —
        // the SLO escalation is the early warning, quarantine the cure.
        assert!(
            outcome.slo_escalated_at.is_some(),
            "SLO monitor never escalated under injected stalls"
        );
        assert!(
            outcome.first_quarantine_at.is_some(),
            "no quarantine event in the trace"
        );
        assert!(
            outcome.slo_fired_first,
            "SLO escalation at {:?} did not precede first quarantine at {:?}",
            outcome.slo_escalated_at, outcome.first_quarantine_at
        );
    }

    #[test]
    fn sweep_live_telemetry_covers_the_traced_point() {
        let scale = ExpScale::quick();
        let setup = LoadgenSetup::prepare(&scale);
        let dir = std::env::temp_dir();
        let ndjson = dir.join("mpgraph_loadgen_live_test.ndjson");
        let expose = dir.join("mpgraph_loadgen_live_test.prom");
        let lcfg = LiveTelemetryConfig {
            interval_pumps: 8,
            ..LiveTelemetryConfig::default()
        }
        .try_new()
        .expect("valid live config");
        let tel = LiveTelemetry::new(lcfg)
            .with_sink(&ndjson.display().to_string())
            .expect("ndjson sink")
            .with_expose(&expose);
        let outcome = run_load_sweep(
            &setup,
            quick_cfg(),
            4,
            120,
            &[0.5, 2.0],
            Arrival::RoundRobin,
            Some(TraceConfig::with_adaptive()),
            Some(tel),
        );
        // Telemetry rode the traced (highest-load) point: the snapshot's
        // serve section carries closed intervals with monotonic sequence
        // numbers and populated pump-stage spans.
        let serve = &outcome.snapshot.serve;
        assert!(
            serve.live.len() >= 2,
            "expected several intervals, got {}",
            serve.live.len()
        );
        for (i, iv) in serve.live.iter().enumerate() {
            assert_eq!(iv.seq, i as u64, "interval seq not monotonic");
        }
        let sum_ingested: u64 = serve.live.iter().map(|iv| iv.delta_ingested).sum();
        assert_eq!(
            sum_ingested, serve.ingested,
            "interval deltas do not telescope to the cumulative counter"
        );
        assert!(
            serve.pump_stages.forward_f32_ns.count > 0,
            "no forward spans recorded"
        );
        // Overhead is host time: here only its bookkeeping is checked; CI
        // gates the < 2% budget on the release loadgen artifact.
        assert!(
            serve.pump_stages.pump_wall_ns > 0,
            "pump wall time not recorded"
        );
        assert!(
            serve.pump_stages.self_overhead_fraction.is_finite(),
            "telemetry overhead not finite: {}",
            serve.pump_stages.self_overhead_fraction
        );
        // The sinks were written: at least one NDJSON line, and an
        // exposition dump in Prometheus text format.
        let lines = std::fs::read_to_string(&ndjson).expect("ndjson written");
        assert!(
            lines
                .lines()
                .filter(|l| l.contains("\"delta_ingested\""))
                .count()
                >= 2,
            "NDJSON sink missing interval records"
        );
        let prom = std::fs::read_to_string(&expose).expect("exposition written");
        assert!(prom.contains("# TYPE"), "not Prometheus text format");
        assert!(prom.contains("mpgraph_serve_ingested_total"));
        // The Chrome export is the service-level one: livetel counter
        // tracks are present alongside the scoreboard's.
        let trace = outcome.chrome_trace.expect("trace missing");
        let text = serde_json::to_string(&trace).expect("trace serializes");
        assert!(text.contains("slo_burn_rate"), "livetel counters absent");
        let _ = std::fs::remove_file(&ndjson);
        let _ = std::fs::remove_file(&expose);
    }

    #[test]
    fn single_stream_service_replay_matches_direct_path_bit_exactly() {
        // Acceptance criterion: with one stream and no overload, the
        // service is a transparent wrapper — candidates and phase ids are
        // bit-identical to calling the prefetcher directly.
        let scale = ExpScale::quick();
        let setup = LoadgenSetup::prepare(&scale);
        let n = 400.min(setup.accesses().len());

        let mut direct = setup.stream_prefetcher();
        let mut direct_out: Vec<(Vec<u64>, u8)> = Vec::new();
        let mut buf = Vec::new();
        for r in &setup.accesses()[..n] {
            buf.clear();
            direct.on_access(&access_of(r), &mut buf);
            let _ = direct.effective_latency(0);
            direct_out.push((buf.clone(), direct.current_phase_id()));
        }

        let mut svc = PrefetchService::new(ServeConfig::default());
        svc.register_stream(0, setup.stream_prefetcher());
        let mut preds = Vec::new();
        for r in &setup.accesses()[..n] {
            svc.ingest(0, &access_of(r), 0);
            svc.pump(&mut preds);
        }
        assert_eq!(preds.len(), n);
        let served: Vec<(Vec<u64>, u8)> = preds
            .iter()
            .map(|p| (p.candidates.clone(), p.phase))
            .collect();
        assert_eq!(served, direct_out, "service replay diverged");
        assert!(preds.iter().all(|p| !p.via_fallback));
        assert_eq!(svc.metrics().shed_fraction, 0.0);
    }
}
