//! The serving workloads: eight streams replay the GPOP/PR/rmat quick LLC
//! stream through one `PrefetchService`, open loop in simulated ticks —
//! each tick offers a fixed number of accesses whatever the service
//! completed, then pumps once. `serve-lockstep` feeds every stream the
//! same record at 1× saturation, so fused pumps deduplicate identical
//! windows; `serve-zipf` gives stream s a 1/(s+1) share of 2× saturation
//! from phase-offset cursors, so nothing deduplicates and the overload
//! ladder sheds and defers.

use crate::inputs::{self, Graphs, Inputs, SetupStats};
use crate::metrics::{mean_ms, Meter, Samples};
use crate::tracer::{Layer, Tracer};
use crate::{Knobs, Measured};
use mpgraph_bench::runners::prefetching::mpgraph_cfg;
use mpgraph_bench::serve_load::{saturation_rate, zipf_weights};
use mpgraph_core::{
    build_detector, DeltaPredictor, MpGraphPrefetcher, PagePredictor, Prediction, PrefetchService,
    ServeConfig, ServeMetrics,
};
use mpgraph_frameworks::MemRecord;
use mpgraph_sim::LlcAccess;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    Lockstep,
    Zipf,
}

/// Which stream receives which record, tick by tick. Deterministic: the
/// seed only moves where the cursors start.
pub struct Arrivals {
    kind: Arrival,
    rate: usize,
    len: usize,
    weights: Vec<f64>,
    credit: Vec<f64>,
    cursors: Vec<usize>,
    next_stream: usize,
}

impl Arrivals {
    pub fn new(kind: Arrival, streams: usize, rate: usize, len: usize, seed: u64) -> Self {
        let len = len.max(1);
        let offset = |base: usize| (base ^ seed as usize) % len;
        let cursors = match kind {
            // One shared cursor, advanced once every stream has seen it.
            Arrival::Lockstep => vec![offset(0)],
            Arrival::Zipf => (0..streams).map(|s| offset(s * len / streams)).collect(),
        };
        Arrivals {
            kind,
            rate,
            len,
            weights: zipf_weights(streams),
            credit: vec![0.0; streams],
            cursors,
            next_stream: 0,
        }
    }

    fn streams(&self) -> usize {
        self.credit.len()
    }

    /// The (stream, record index) pairs offered this tick, in order.
    pub fn tick(&mut self, out: &mut Vec<(u32, usize)>) {
        out.clear();
        let streams = self.streams();
        match self.kind {
            Arrival::Lockstep => {
                for _ in 0..self.rate {
                    let s = self.next_stream % streams;
                    self.next_stream += 1;
                    out.push((s as u32, self.cursors[0]));
                    if s == streams - 1 {
                        self.cursors[0] = (self.cursors[0] + 1) % self.len;
                    }
                }
            }
            Arrival::Zipf => {
                for s in 0..streams {
                    self.credit[s] += self.rate as f64 * self.weights[s];
                    while self.credit[s] >= 1.0 {
                        self.credit[s] -= 1.0;
                        out.push((s as u32, self.cursors[s]));
                        self.cursors[s] = (self.cursors[s] + 1) % self.len;
                    }
                }
            }
        }
    }
}

pub fn access_of(r: &MemRecord) -> LlcAccess {
    LlcAccess {
        pc: r.pc,
        block: r.block(),
        core: r.core,
        is_write: r.is_write,
        hit: false,
        cycle: 0,
    }
}

/// A service with `streams` MPGraph streams sharing one trained stack,
/// each with its own detector and histories (as `loadgen` builds them).
pub fn service(
    delta: &DeltaPredictor,
    page: &PagePredictor,
    inputs: &Inputs,
    history: usize,
    cfg: ServeConfig,
    streams: usize,
) -> PrefetchService {
    let mut svc = PrefetchService::new(cfg);
    let mcfg = mpgraph_cfg();
    for s in 0..streams {
        svc.register_stream(
            s as u32,
            Box::new(MpGraphPrefetcher::from_parts(
                delta.clone(),
                page.clone(),
                build_detector(&inputs.train_llc, inputs.num_phases, mcfg.detector),
                mcfg,
                inputs.num_phases,
                history,
            )),
        );
    }
    svc
}

/// Everything about one prediction the fused and per-item pumps must
/// agree on — the key `serve_load::run_fused_comparison` compares.
type PredKey = (u32, Vec<u64>, u64, bool, u8);

fn key(p: &Prediction) -> PredKey {
    (
        p.stream,
        p.candidates.clone(),
        p.latency,
        p.via_fallback,
        p.phase,
    )
}

/// The service-layer numbers the per-layer probes report.
pub struct ServeLayer {
    pub metrics: ServeMetrics,
    pub batch_size: usize,
    pub ingest: Samples,
    pub snapshot_ms: f64,
}

/// How long to drive and what to keep while driving.
pub struct Drive {
    pub budget: Duration,
    pub max_ticks: u64,
    /// Ticks whose accesses and predictions feed the quality metrics.
    pub quality_ticks: u64,
    /// Ticks whose predictions the fused/per-item identity check keeps.
    pub identity_ticks: u64,
}

pub struct Driven {
    pub ticks: u64,
    pub offered: Vec<u64>,
    pub delivered: Vec<u64>,
    /// Host time per `pump`, and accesses offered per second of the tick
    /// loop.
    pub meter: Meter,
    pub ingest: Samples,
    /// Per stream: demanded blocks, and the candidates served, in order.
    pub demand: Vec<Vec<u64>>,
    pub served: Vec<Vec<Vec<u64>>>,
    pub identity: Vec<PredKey>,
}

/// Drives `svc` until the budget or the tick cap runs out (at least one
/// tick), then flushes it so every offered access is answered.
pub fn drive(
    svc: &mut PrefetchService,
    arrivals: &mut Arrivals,
    records: &[MemRecord],
    plan: &Drive,
    tracer: &mut Tracer,
) -> Driven {
    let streams = arrivals.streams();
    let mut d = Driven {
        ticks: 0,
        offered: vec![0; streams],
        delivered: vec![0; streams],
        meter: Meter::default(),
        ingest: Samples::new(1),
        demand: vec![Vec::new(); streams],
        served: vec![Vec::new(); streams],
        identity: Vec::new(),
    };
    let mut items = Vec::new();
    let mut out: Vec<Prediction> = Vec::new();
    let start = Instant::now();
    while d.ticks == 0 || (d.ticks < plan.max_ticks && start.elapsed() < plan.budget) {
        let span = tracer.begin(Layer::Tick);
        let tick = Instant::now();
        arrivals.tick(&mut items);
        let t = Instant::now();
        for &(s, i) in &items {
            svc.ingest(s, &access_of(&records[i]), 0);
        }
        let spent = t.elapsed();
        d.ingest.record_mean(spent, items.len() as u64);
        tracer.leaf(Layer::Ingest, t, spent);
        let quality = d.ticks < plan.quality_ticks;
        for &(s, i) in &items {
            d.offered[s as usize] += 1;
            if quality {
                d.demand[s as usize].push(records[i].block());
            }
        }
        let t = Instant::now();
        svc.pump(&mut out);
        let spent = t.elapsed();
        tracer.leaf(Layer::Pump, t, spent);
        d.meter.record(tick, spent, items.len() as u64);
        let identity = d.ticks < plan.identity_ticks;
        for p in out.drain(..) {
            d.delivered[p.stream as usize] += 1;
            if identity {
                d.identity.push(key(&p));
            }
            if quality {
                d.served[p.stream as usize].push(p.candidates);
            }
        }
        d.ticks += 1;
        tracer.end(span);
    }
    d.meter.end_segment();
    let span = tracer.begin(Layer::Flush);
    svc.flush(&mut out);
    tracer.end(span);
    for p in out.drain(..) {
        d.delivered[p.stream as usize] += 1;
    }
    d
}

/// Window-matched quality of the served predictions: the j-th prediction
/// a stream receives belongs to its j-th access. Accuracy is the share of
/// candidates the stream demands within its next `window` accesses;
/// coverage is the share of accesses some candidate served in the
/// previous `window` predictions named.
pub fn window_quality(demand: &[Vec<u64>], served: &[Vec<Vec<u64>>], window: usize) -> (f64, f64) {
    let (mut issued, mut useful, mut accesses, mut covered) = (0u64, 0u64, 0u64, 0u64);
    for (demand, served) in demand.iter().zip(served) {
        let n = demand.len().min(served.len());
        for j in 0..n {
            let ahead = &demand[j + 1..n.min(j + 1 + window)];
            for c in &served[j] {
                issued += 1;
                useful += u64::from(ahead.contains(c));
            }
            let behind = &served[j.saturating_sub(window)..j];
            accesses += 1;
            covered += u64::from(behind.iter().any(|cands| cands.contains(&demand[j])));
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    (ratio(useful, issued), ratio(covered, accesses))
}

/// Predictions matched against the next 64 accesses of their stream.
const QUALITY_WINDOW: usize = 64;

pub fn measure(
    arrival: Arrival,
    knobs: &Knobs,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Measured {
    let scale = &knobs.quick;
    let combo = inputs::carrier(scale);
    let cfg = ServeConfig::default();
    let history = scale.train.history;
    let mut setups = Vec::new();
    let mut stats = SetupStats::default();
    let mut built = None;
    for _ in 0..knobs.serve_setups {
        let span = tracer.begin(Layer::Setup);
        let t = Instant::now();
        let inputs = inputs::build(
            combo,
            scale,
            seed,
            &mut Graphs::default(),
            &mut stats,
            tracer,
        );
        let trained = inputs::train(&inputs, scale, tracer);
        let svc = service(
            &trained.delta,
            &trained.page,
            &inputs,
            history,
            cfg,
            knobs.streams,
        );
        setups.push(t.elapsed());
        tracer.end(span);
        built = Some((inputs, trained, svc));
    }
    let (inputs, trained, mut svc) = built.expect("serve_setups is at least 1");
    let rate = match arrival {
        Arrival::Lockstep => saturation_rate(&cfg),
        Arrival::Zipf => 2 * saturation_rate(&cfg),
    };
    let records = &inputs.test_llc;
    let plan = Drive {
        budget: Duration::from_secs_f64(seconds),
        max_ticks: u64::MAX,
        quality_ticks: knobs.quality_ticks,
        identity_ticks: if arrival == Arrival::Lockstep {
            knobs.identity_ticks
        } else {
            0
        },
    };
    let mut arrivals = Arrivals::new(arrival, knobs.streams, rate, records.len(), seed);
    let d = drive(&mut svc, &mut arrivals, records, &plan, tracer);

    let check = tracer.begin(Layer::Check);
    let offered: u64 = d.offered.iter().sum();
    let mut problems = Vec::new();
    let mut failed = 0u64;
    for (s, (&o, &got)) in d.offered.iter().zip(&d.delivered).enumerate() {
        if o != got {
            problems.push(format!(
                "stream {s}: {o} accesses offered, {got} predictions returned"
            ));
            failed += o.abs_diff(got);
        }
    }
    if plan.identity_ticks > 0 {
        // Re-drive the first ticks through the per-item pump: the fused
        // pump must have produced the same predictions, bit for bit.
        let mut per_item_cfg = cfg;
        per_item_cfg.fuse = false;
        let mut reference = service(
            &trained.delta,
            &trained.page,
            &inputs,
            history,
            per_item_cfg,
            knobs.streams,
        );
        let ticks = plan.identity_ticks.min(d.ticks);
        let replay_plan = Drive {
            budget: Duration::MAX,
            max_ticks: ticks,
            quality_ticks: 0,
            identity_ticks: ticks,
        };
        let mut again = Arrivals::new(arrival, knobs.streams, rate, records.len(), seed);
        let r = drive(
            &mut reference,
            &mut again,
            records,
            &replay_plan,
            &mut Tracer::new(false),
        );
        if let Some(i) = (0..d.identity.len().max(r.identity.len()))
            .find(|&i| d.identity.get(i) != r.identity.get(i))
        {
            problems.push(format!(
                "fused pump diverged from the per-item pump at prediction {i} of the first {ticks} ticks"
            ));
            failed = offered;
        }
    }
    tracer.end(check);

    let (accuracy, coverage) = window_quality(&d.demand, &d.served, QUALITY_WINDOW);
    let m = svc.metrics();
    let (snapshot_ms, _) = mean_ms(16, || svc.snapshot());
    let notes = vec![format!(
        "{:?}: {} streams, {rate}/tick, {} ticks, {offered} accesses, ml {} fallback {}, shed {:.4}, p99 {} cycles, fused forwards {} for {} items",
        arrival,
        knobs.streams,
        d.ticks,
        m.ml_processed,
        m.fallback_processed,
        m.shed_fraction,
        m.prediction_latency.p99,
        m.fused_forwards,
        m.fused_items,
    )];
    Measured {
        setups,
        setup_stats: stats,
        accesses: offered,
        meter: d.meter,
        accuracy,
        coverage,
        failed,
        problems,
        notes,
        carrier: tracer.is_on().then_some(inputs),
        serve: Some(ServeLayer {
            metrics: m,
            batch_size: cfg.batch_size,
            ingest: d.ingest,
            snapshot_ms,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lockstep_streams_share_each_record() {
        let mut a = Arrivals::new(Arrival::Lockstep, 4, 8, 100, 0);
        let mut items = Vec::new();
        a.tick(&mut items);
        assert_eq!(
            items,
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (3, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (3, 1)
            ]
        );
    }

    #[test]
    fn zipf_skews_arrivals_and_the_seed_moves_cursors() {
        let mut a = Arrivals::new(Arrival::Zipf, 4, 32, 1000, 0);
        let mut items = Vec::new();
        let mut per_stream = [0usize; 4];
        for _ in 0..100 {
            a.tick(&mut items);
            for &(s, _) in &items {
                per_stream[s as usize] += 1;
            }
        }
        assert!(per_stream[0] > per_stream[1] && per_stream[1] > per_stream[3]);
        assert_eq!(per_stream.iter().sum::<usize>(), 3200);
        let mut b = Arrivals::new(Arrival::Zipf, 4, 32, 1000, 5);
        b.tick(&mut items);
        assert_eq!(items[0], (0, 5));
    }

    #[test]
    fn window_quality_matches_by_position() {
        let demand = vec![vec![1, 2, 3, 4]];
        // Access 0 predicts 2 (demanded next) and 9 (never); access 1
        // predicts 4 (two ahead); the rest predict nothing.
        let served = vec![vec![vec![2, 9], vec![4], vec![], vec![]]];
        let (acc, cov) = window_quality(&demand, &served, 64);
        assert_eq!(acc, 2.0 / 3.0);
        assert_eq!(cov, 2.0 / 4.0);
        let (acc, _) = window_quality(&demand, &served, 1);
        assert_eq!(acc, 1.0 / 3.0);
    }
}
