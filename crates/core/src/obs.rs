//! Pipeline-wide observability: the [`PrefetchScoreboard`] (an engine
//! [`PrefetchObserver`] that classifies every prefetch as useful / late /
//! useless / dropped and keeps per-phase, per-lane accuracy, coverage, and
//! timeliness), fixed-size log-bucketed [`LatencyHistogram`]s for inference
//! and simulated memory latency, and the [`MetricsSnapshot`] the bench
//! runners and CLI serialize to JSON (`--metrics-out`).
//!
//! Everything on the record path is allocation-free at steady state: the
//! histograms are fixed arrays, the per-phase/per-lane counters are sized
//! at construction, and the in-flight attribution map is pre-reserved and
//! never grown (overflow is *counted*, not allocated) — verified the same
//! way as the `ScratchArena` paths, by asserting the capacity stays put.

use crate::cstp::CstpStats;
use crate::metric::ratio;
use crate::trace::{
    chrome_trace_json_sharded, FlightRecorder, ShardTrace, TraceConfig, WindowMetrics,
};
use mpgraph_sim::{DropReason, PrefetchLane, PrefetchObserver, PrefetchTag, TraceEvent};
use serde::{Deserialize, Serialize};

/// Sub-bucket resolution bits: 32 sub-buckets per power of two, bounding
/// the relative quantization error at `2^-(SUB_BITS+1)` ≈ 1.6%.
const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
/// Values below `SUBS` get exact singleton buckets; above, each power of
/// two `[2^m, 2^(m+1))` for `m in 5..=63` splits into 32 sub-buckets.
const NUM_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize - 1) * SUBS;

/// Streaming log-bucketed latency histogram (HdrHistogram-style): `record`
/// touches one array slot and four scalars — no allocation, no sorting.
/// Replaces the ad-hoc sorted-`Vec` percentile paths.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket_index(v: u64) -> usize {
        if v < SUBS as u64 {
            v as usize
        } else {
            let m = 63 - v.leading_zeros() as usize;
            let sub = ((v >> (m - SUB_BITS as usize)) & (SUBS as u64 - 1)) as usize;
            SUBS * (m - SUB_BITS as usize + 1) + sub
        }
    }

    /// Midpoint of the bucket's value range (exact below `SUBS`).
    fn representative(idx: usize) -> u64 {
        if idx < SUBS {
            idx as u64
        } else {
            let m = idx / SUBS + SUB_BITS as usize - 1;
            let sub = (idx % SUBS) as u64;
            let lo = (1u64 << m) + (sub << (m - SUB_BITS as usize));
            lo + (1u64 << (m - SUB_BITS as usize)) / 2
        }
    }

    /// Records one sample. Allocation-free.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Ceil-based nearest-rank percentile (`p` in `[0, 1]`): the value at
    /// rank `max(1, ceil(p·n))` — the same convention as the perf gate.
    /// Exact for values below `SUBS`; within ±1.6% above.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::representative(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }
}

/// Serializable summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Deterministic shard-merge estimator: counts add, min/max combine,
    /// the mean is count-weighted, and each percentile is the
    /// count-weighted average of the shard percentiles (the full bucket
    /// arrays are gone by snapshot time, so the exact merged percentile is
    /// unrecoverable — what matters for the sharded driver is that the
    /// estimate is a pure function of the inputs in fixed shard order, so
    /// any worker count produces the identical merged artifact).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let (a, b) = (self.count as f64, other.count as f64);
        let total = a + b;
        self.mean = (self.mean * a + other.mean * b) / total;
        let weighted =
            |x: u64, y: u64| -> u64 { ((x as f64 * a + y as f64 * b) / total).round() as u64 };
        self.p50 = weighted(self.p50, other.p50);
        self.p90 = weighted(self.p90, other.p90);
        self.p99 = weighted(self.p99, other.p99);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }
}

const LANES: usize = 3;

/// Fixed-capacity block → tag map: open addressing with linear probing and
/// backward-shift deletion. The slot array is sized once at construction
/// and never moves, so the record path is allocation-free by construction.
/// (A pre-reserved `HashMap` cannot promise that: under insert/remove
/// churn its tombstone pressure can force a resize even when `len` stays
/// below the initial reserve.)
struct InflightTable {
    slots: Vec<(u64, PrefetchTag)>,
    used: Vec<bool>,
    len: usize,
    /// Max live entries — at most half the slots, keeping probe chains short.
    cap: usize,
}

impl InflightTable {
    fn new(cap: usize) -> Self {
        let cap = cap.max(16);
        let slots = (cap * 2).next_power_of_two();
        InflightTable {
            slots: vec![(0, PrefetchTag::default()); slots],
            used: vec![false; slots],
            len: 0,
            cap,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn raw_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Fibonacci multiplicative hash onto the power-of-two slot count.
    #[inline]
    fn ideal(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.slots.len() - 1)
    }

    /// Stores (or refreshes) `key`; returns `false` when the table is full
    /// so the caller can count the overflow instead of growing.
    fn insert(&mut self, key: u64, tag: PrefetchTag) -> bool {
        if self.len >= self.cap {
            return false;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.ideal(key);
        while self.used[i] {
            if self.slots[i].0 == key {
                self.slots[i].1 = tag;
                return true;
            }
            i = (i + 1) & mask;
        }
        self.slots[i] = (key, tag);
        self.used[i] = true;
        self.len += 1;
        true
    }

    fn remove(&mut self, key: u64) -> Option<PrefetchTag> {
        let mask = self.slots.len() - 1;
        let mut i = self.ideal(key);
        loop {
            if !self.used[i] {
                return None;
            }
            if self.slots[i].0 == key {
                break;
            }
            i = (i + 1) & mask;
        }
        let tag = self.slots[i].1;
        // Backward-shift deletion: close the probe chain left behind the
        // removed entry so no tombstones accumulate. An entry at `j` may
        // fill the hole only if its probe walk started at or before the
        // hole (cyclic-distance test).
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            if !self.used[j] {
                break;
            }
            let k = self.ideal(self.slots[j].0);
            if (j.wrapping_sub(k) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.used[hole] = false;
        self.len -= 1;
        Some(tag)
    }
}

#[inline]
fn lane_index(l: PrefetchLane) -> usize {
    match l {
        PrefetchLane::Spatial => 0,
        PrefetchLane::Temporal => 1,
        PrefetchLane::Other => 2,
    }
}

fn lane_name(i: usize) -> &'static str {
    ["spatial", "temporal", "other"][i]
}

/// Phase `p`'s lane cells summed into one; `usize::MAX` sums every phase.
fn phase_cell(cells: &[LaneMetrics], p: usize) -> LaneMetrics {
    let mut t = LaneMetrics::default();
    let in_phase = |c: &&LaneMetrics| p == usize::MAX || c.phase as usize == p;
    cells.iter().filter(in_phase).for_each(|c| t.merge_at(c, 0));
    t
}

/// Flight-recorder + windowed-telemetry state carried by a scoreboard
/// with tracing attached. All buffers are sized at attach time; the
/// per-record path (clock tick, ring write, counter delta) allocates
/// nothing. Closing a window builds a cumulative [`WindowMetrics`] and its
/// delta (their per-phase `Vec`s are the periodic allocations, every
/// `window` accesses — documented in DESIGN.md §13); when `max_windows` is
/// reached further windows are counted in `windows_dropped`, not grown.
struct TraceState {
    recorder: FlightRecorder,
    window: u64,
    max_windows: usize,
    /// Adaptive window sizing (see [`TraceConfig::adaptive`]): alarms
    /// halve `window` toward `min_window`; `calm_windows` consecutive
    /// alarm-free windows double it toward `max_window`.
    adaptive: bool,
    min_window: u64,
    max_window: u64,
    calm_windows: u32,
    /// Consecutive closed windows without an alarm event.
    calm_streak: u32,
    /// Whether an alarm event landed inside the currently open window.
    alarm_in_window: bool,
    /// First access index of the currently open window.
    window_start: u64,
    /// Last access index seen ([`PrefetchObserver::on_record`]).
    now: u64,
    /// Total records seen (== `now + 1` once the replay has started).
    records: u64,
    /// Cumulative counters at the last window boundary: a window is the
    /// declared `delta` of two cumulative records.
    prev: WindowMetrics,
    /// PBOT traffic so far, accumulated from [`TraceEvent::CstpChain`]
    /// events (the scoreboard has no other view of CSTP internals).
    pbot_hits: u64,
    pbot_misses: u64,
    windows: Vec<WindowMetrics>,
    windows_dropped: u64,
}

/// The scoreboard's counters so far as one cumulative window record, and
/// the window closing at `end`: the declared `delta` since the last
/// boundary. Free function (not a method) so callers can split borrows
/// between the trace state and the scoreboard's counter arrays.
fn window_at(
    ts: &TraceState,
    cells: &[LaneMetrics],
    demand: &[u64],
    end: u64,
) -> (WindowMetrics, WindowMetrics) {
    let t = phase_cell(cells, usize::MAX);
    let mut cur = WindowMetrics {
        issued: t.issued,
        useful: t.useful,
        late: t.late,
        useless: t.useless,
        demand_misses: demand.iter().sum(),
        pbot_hits: ts.pbot_hits,
        pbot_misses: ts.pbot_misses,
        ..WindowMetrics::default()
    };
    for (phase, &demand_misses) in demand.iter().enumerate() {
        let c = phase_cell(cells, phase);
        cur.phases.push(crate::trace::WindowPhaseMetrics {
            phase,
            issued: c.issued,
            useful: c.useful + c.late,
            demand_misses,
            accuracy: 0.0,
        });
    }
    let mut w = cur.delta(&ts.prev);
    w.index = ts.windows.len() as u64 + ts.windows_dropped;
    w.start = ts.window_start;
    w.end = end;
    (cur, w)
}

/// Closes the open window at boundary `end` and resets the delta state.
fn close_window(ts: &mut TraceState, cells: &[LaneMetrics], demand: &[u64], end: u64) {
    let (cur, w) = window_at(ts, cells, demand, end);
    if ts.windows.len() < ts.max_windows {
        ts.windows.push(w);
    } else {
        ts.windows_dropped += 1;
    }
    ts.window_start = end;
    ts.prev = cur;
    if ts.adaptive {
        // Stretch through steady state: after `calm_windows` consecutive
        // alarm-free windows, double the window length (the shrink half
        // lives in `on_trace_event`, where the alarm is first seen).
        if ts.alarm_in_window {
            ts.calm_streak = 0;
        } else {
            ts.calm_streak += 1;
            if ts.calm_streak >= ts.calm_windows {
                ts.window = (ts.window * 2).min(ts.max_window);
                ts.calm_streak = 0;
            }
        }
        ts.alarm_in_window = false;
    }
}

/// Tracks every in-flight prefetch through the simulated cache and
/// classifies its fate — *useful* (served a demand on time), *late*
/// (demand arrived before the fill, or the issue was already untimely),
/// *useless* (evicted unused), or *dropped* (never issued, with a reason)
/// — attributed to the phase model and CSTP lane that produced it.
///
/// Plugs into [`mpgraph_sim::simulate_observed`] as the
/// [`PrefetchObserver`]. The record path performs no heap allocation at
/// steady state: outcome cells are sized at construction and the
/// in-flight attribution map is pre-reserved; when it is full, new
/// entries are counted in `inflight_overflow` instead of grown.
pub struct PrefetchScoreboard {
    num_phases: usize,
    /// Per-(phase, lane) outcome counters, `num_phases * LANES` of them.
    cells: Vec<LaneMetrics>,
    demand_misses: Vec<u64>,
    dropped: DroppedCounts,
    inflight: InflightTable,
    inflight_overflow: u64,
    /// Completions (hit/evict) for blocks the map was not tracking —
    /// either overflowed at issue or prefetched before attach.
    untracked_completions: u64,
    pub inference_latency: LatencyHistogram,
    /// Host wall-clock nanoseconds per `on_access` call, as measured by
    /// the engine. Complements `inference_latency`: sub-cycle models show
    /// 0 simulated cycles but real wall time.
    pub inference_wall_ns: LatencyHistogram,
    pub memory_latency: LatencyHistogram,
    /// Flight recorder + windowed telemetry; `None` (the default) keeps
    /// the scoreboard exactly as cheap as before tracing existed.
    trace: Option<Box<TraceState>>,
}

impl PrefetchScoreboard {
    /// `num_phases` sizes the attribution tables; `inflight_capacity`
    /// bounds the block→tag map (the engine itself sweeps its own
    /// in-flight set above 4096 entries, so that is a natural ceiling).
    pub fn new(num_phases: usize, inflight_capacity: usize) -> Self {
        let phases = num_phases.max(1);
        PrefetchScoreboard {
            num_phases: phases,
            cells: (0..phases * LANES)
                .map(|i| LaneMetrics {
                    phase: (i / LANES) as u32,
                    lane: lane_name(i % LANES).to_string(),
                    ..LaneMetrics::default()
                })
                .collect(),
            demand_misses: vec![0; phases],
            dropped: DroppedCounts::default(),
            inflight: InflightTable::new(inflight_capacity),
            inflight_overflow: 0,
            untracked_completions: 0,
            inference_latency: LatencyHistogram::new(),
            inference_wall_ns: LatencyHistogram::new(),
            memory_latency: LatencyHistogram::new(),
            trace: None,
        }
    }

    /// [`PrefetchScoreboard::new`] with tracing attached from the start.
    pub fn with_trace(num_phases: usize, inflight_capacity: usize, cfg: TraceConfig) -> Self {
        let mut sb = Self::new(num_phases, inflight_capacity);
        sb.attach_trace(cfg);
        sb
    }

    /// Attaches a flight recorder + windowed telemetry. The engine sees
    /// this through [`PrefetchObserver::wants_trace_events`] and starts
    /// feeding the record clock and structured events.
    pub fn attach_trace(&mut self, cfg: TraceConfig) {
        let min_window = cfg.min_window.max(1);
        self.trace = Some(Box::new(TraceState {
            recorder: FlightRecorder::new(cfg.ring_capacity),
            window: if cfg.adaptive {
                cfg.window.clamp(min_window, cfg.max_window.max(min_window))
            } else {
                cfg.window.max(1)
            },
            max_windows: cfg.max_windows,
            adaptive: cfg.adaptive,
            min_window,
            max_window: cfg.max_window.max(min_window),
            calm_windows: cfg.calm_windows.max(1),
            calm_streak: 0,
            alarm_in_window: false,
            window_start: 0,
            now: 0,
            records: 0,
            prev: WindowMetrics::default(),
            pbot_hits: 0,
            pbot_misses: 0,
            windows: Vec::with_capacity(cfg.max_windows.min(4096)),
            windows_dropped: 0,
        }));
    }

    /// Whether a trace sink is attached.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Flight-recorder capacity probe: `(retained events, ring capacity,
    /// events overwritten, retained windows, windows dropped)`. `None`
    /// without tracing attached.
    pub fn trace_alloc_stats(&self) -> Option<(usize, usize, u64, usize, u64)> {
        self.trace.as_ref().map(|ts| {
            let (len, cap, over) = ts.recorder.alloc_stats();
            (len, cap, over, ts.windows.len(), ts.windows_dropped)
        })
    }

    /// Total records seen by the record clock (0 without tracing).
    pub fn trace_records(&self) -> u64 {
        self.trace.as_ref().map_or(0, |ts| ts.records)
    }

    /// The recorded events, oldest first. Empty without tracing.
    pub fn trace_events(&self) -> Vec<(u64, TraceEvent)> {
        self.trace
            .as_ref()
            .map(|ts| ts.recorder.events().collect())
            .unwrap_or_default()
    }

    /// Closed windows plus the trailing partial one (non-destructively).
    pub fn windows(&self) -> Vec<WindowMetrics> {
        let Some(ts) = self.trace.as_ref() else {
            return Vec::new();
        };
        let mut out = ts.windows.clone();
        if ts.records > ts.window_start {
            out.push(window_at(ts, &self.cells, &self.demand_misses, ts.records).1);
        }
        out
    }

    /// Chrome-trace / Perfetto JSON of the recorded run: its
    /// [`PrefetchScoreboard::shard_trace`] as the one process `mpgraph`
    /// (see [`chrome_trace_json_sharded`]). `None` without tracing
    /// attached.
    pub fn chrome_trace(&self) -> Option<serde::Value> {
        let shard = self.shard_trace("mpgraph")?;
        Some(chrome_trace_json_sharded(std::slice::from_ref(&shard)))
    }

    /// The recorded run packaged as a [`ShardTrace`], the one way a
    /// scoreboard's run reaches the Perfetto export (no live-interval
    /// series — callers that have one, like `PrefetchService`, fill it
    /// in). `None` without tracing attached.
    pub fn shard_trace(&self, label: &str) -> Option<ShardTrace> {
        let ts = self.trace.as_ref()?;
        Some(ShardTrace {
            label: label.to_string(),
            recorder: ts.recorder.clone(),
            windows: self.windows(),
            end: ts.records,
            live: Vec::new(),
        })
    }

    #[inline]
    fn cell(&mut self, tag: PrefetchTag) -> &mut LaneMetrics {
        let p = (tag.phase as usize).min(self.num_phases - 1);
        &mut self.cells[p * LANES + lane_index(tag.lane)]
    }

    /// (reserved entries, live entries, raw map capacity, overflow count)
    /// — the ScratchArena-style stability probe: after warmup the raw
    /// capacity must not move and overflow stays zero.
    pub fn alloc_stats(&self) -> (usize, usize, usize, u64) {
        (
            self.inflight.cap,
            self.inflight.len(),
            self.inflight.raw_capacity(),
            self.inflight_overflow,
        )
    }

    /// Per-phase rollup (accuracy / coverage / timeliness per phase model).
    pub fn phase_metrics(&self) -> Vec<PhaseMetrics> {
        (0..self.num_phases)
            .map(|p| {
                let c = phase_cell(&self.cells, p);
                let mut row = PhaseMetrics {
                    phase: p as u32,
                    issued: c.issued,
                    issued_untimely: c.issued_untimely,
                    useful: c.useful,
                    late: c.late,
                    useless: c.useless,
                    dropped: c.dropped,
                    demand_misses: self.demand_misses[p],
                    ..PhaseMetrics::default()
                };
                row.update_rates();
                row
            })
            .collect()
    }

    /// Per-(phase, lane) rows; all-zero rows are skipped.
    pub fn lane_metrics(&self) -> Vec<LaneMetrics> {
        let live = self.cells.iter().filter(|c| c.issued + c.dropped > 0);
        let mut rows: Vec<LaneMetrics> = live.cloned().collect();
        rows.iter_mut().for_each(LaneMetrics::update_rates);
        rows
    }

    pub fn dropped_counts(&self) -> DroppedCounts {
        self.dropped.clone()
    }

    /// Prefetch-side portion of a [`MetricsSnapshot`]; callers fold in the
    /// component counters (CSTP, detector, guard, training) they own.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let t = phase_cell(&self.cells, usize::MAX);
        let mut snap = MetricsSnapshot {
            issued: t.issued,
            issued_untimely: t.issued_untimely,
            useful: t.useful,
            late: t.late,
            useless: t.useless,
            demand_misses: self.demand_misses.iter().sum(),
            phases: self.phase_metrics(),
            lanes: self.lane_metrics(),
            dropped: self.dropped_counts(),
            inflight_overflow: self.inflight_overflow,
            untracked_completions: self.untracked_completions,
            inference_latency: self.inference_latency.snapshot(),
            inference_wall_ns: self.inference_wall_ns.snapshot(),
            memory_latency: self.memory_latency.snapshot(),
            window_size: self.trace.as_ref().map_or(0, |ts| ts.window),
            windows: self.windows(),
            windows_dropped: self.trace.as_ref().map_or(0, |ts| ts.windows_dropped),
            ..MetricsSnapshot::default()
        };
        snap.update_rates();
        snap
    }
}

impl PrefetchObserver for PrefetchScoreboard {
    fn on_issued(&mut self, block: u64, tag: PrefetchTag, timely: bool) {
        let c = self.cell(tag);
        c.issued += 1;
        if !timely {
            c.issued_untimely += 1;
        }
        if !self.inflight.insert(block, tag) {
            // Never grow the table on the record path; lose the
            // attribution, keep the count honest.
            self.inflight_overflow += 1;
            if let Some(ts) = self.trace.as_mut() {
                let now = ts.now;
                ts.recorder.record(now, TraceEvent::InflightOverflow);
            }
        }
    }

    fn on_dropped(&mut self, _block: u64, tag: PrefetchTag, reason: DropReason) {
        self.cell(tag).dropped += 1;
        match reason {
            DropReason::SelfBlock => self.dropped.self_block += 1,
            DropReason::InCache => self.dropped.in_cache += 1,
            DropReason::InFlight => self.dropped.in_flight += 1,
            DropReason::DegreeCap => self.dropped.degree_cap += 1,
        }
    }

    fn on_useful(&mut self, block: u64, late: bool) {
        let tag = match self.inflight.remove(block) {
            Some(t) => t,
            None => {
                self.untracked_completions += 1;
                PrefetchTag::default()
            }
        };
        let c = self.cell(tag);
        if late {
            c.late += 1;
        } else {
            c.useful += 1;
        }
    }

    fn on_useless_evict(&mut self, block: u64) {
        let tag = match self.inflight.remove(block) {
            Some(t) => t,
            None => {
                self.untracked_completions += 1;
                PrefetchTag::default()
            }
        };
        self.cell(tag).useless += 1;
    }

    fn on_demand_miss(&mut self, phase: u8) {
        let p = (phase as usize).min(self.num_phases - 1);
        self.demand_misses[p] += 1;
    }

    fn on_inference_latency(&mut self, cycles: u64) {
        self.inference_latency.record(cycles);
    }

    fn on_inference_wall_ns(&mut self, ns: u64) {
        self.inference_wall_ns.record(ns);
    }

    fn on_memory_latency(&mut self, cycles: u64) {
        self.memory_latency.record(cycles);
    }

    fn wants_trace_events(&self) -> bool {
        self.trace.is_some()
    }

    fn on_record(&mut self, index: u64) {
        if let Some(ts) = self.trace.as_mut() {
            ts.now = index;
            ts.records = index + 1;
            // `on_record` fires before this record's counters land, so a
            // window [s, s+w) closes at the first index >= s+w: by then
            // every counter delta belonging to it has been applied.
            while index >= ts.window_start + ts.window {
                let end = ts.window_start + ts.window;
                close_window(ts, &self.cells, &self.demand_misses, end);
            }
        }
    }

    fn on_trace_event(&mut self, at: u64, event: TraceEvent) {
        if let Some(ts) = self.trace.as_mut() {
            ts.recorder.record(at, event);
            if let TraceEvent::CstpChain {
                pbot_hits,
                pbot_misses,
                ..
            } = event
            {
                ts.pbot_hits += pbot_hits as u64;
                ts.pbot_misses += pbot_misses as u64;
            }
            if ts.adaptive && event.is_alarm() {
                // Zoom in around the incident: halve the window toward
                // the floor so the surrounding telemetry is fine-grained.
                ts.alarm_in_window = true;
                ts.calm_streak = 0;
                ts.window = (ts.window / 2).max(ts.min_window);
            }
        }
    }
}
metrics! {
    /// Per-phase prefetch outcome rollup.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct PhaseMetrics {
        label phase: u32,
        counter issued: u64,
        /// Of `issued`, how many were already untimely at issue (inference
        /// slower than an uncontended DRAM round trip).
        counter issued_untimely: u64,
        counter useful: u64,
        counter late: u64,
        counter useless: u64,
        counter dropped: u64,
        counter demand_misses: u64,
        rate accuracy: f64,
        rate coverage: f64,
        rate timeliness: f64,
    }
    rates |p| {
        let hits = p.useful + p.late;
        p.accuracy = ratio(hits, p.issued);
        p.coverage = ratio(hits, hits + p.demand_misses);
        p.timeliness = ratio(p.useful, hits);
    }
    key |p| -> u32 { p.phase }

    /// Per-(phase, lane) prefetch outcome row.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct LaneMetrics {
        label phase: u32,
        label lane: String,
        counter issued: u64,
        /// Untimely-at-issue subset of `issued` (see [`PhaseMetrics`]).
        counter issued_untimely: u64,
        counter useful: u64,
        counter late: u64,
        counter useless: u64,
        counter dropped: u64,
        rate accuracy: f64,
        rate timeliness: f64,
    }
    rates |l| {
        let hits = l.useful + l.late;
        l.accuracy = ratio(hits, l.issued);
        l.timeliness = ratio(l.useful, hits);
    }
    // Lanes sort in the scoreboard's (phase, spatial/temporal/other) order.
    key |l| -> (u32, usize) { (l.phase, (0..LANES).find(|&i| lane_name(i) == l.lane).unwrap_or(LANES)) }

    /// Candidates discarded before issue, by engine reason.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct DroppedCounts {
        counter self_block: u64,
        counter in_cache: u64,
        counter in_flight: u64,
        counter degree_cap: u64,
    }

    /// Phase-transition detector counters.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct DetectorMetrics {
        label name: String,
        counter updates: u64,
        counter detections: u64,
        counter soft_arms: u64,
        counter resets: u64,
        /// Arm→confirm latency samples (one per confirmed detection).
        counter confirm_latency_samples: u64,
        /// Sum of arm→confirm latencies in stream samples; zero for hard
        /// detectors, bounded by the confirmation window for soft ones.
        counter confirm_latency_sum: u64,
        /// Largest single arm→confirm latency observed.
        max confirm_latency_max: u64,
        /// Mean arm→confirm latency in stream samples.
        rate confirm_latency_mean: f64,
    }
    rates |d| {
        d.confirm_latency_mean = ratio(d.confirm_latency_sum, d.confirm_latency_samples);
    }

    /// Probe-window controller counters.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct ControllerMetrics {
        counter transitions_handled: u64,
        counter observations: u64,
        counter observe_errors: u64,
    }

    /// Degradation-guard counters, incremented in place by
    /// [`crate::DegradationGuard`].
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct GuardMetrics {
        counter trips: u64,
        counter recoveries: u64,
        counter deadline_misses: u64,
        counter accesses_degraded: u64,
    }

    /// Predictor training counters.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct TrainMetrics {
        counter steps: u64,
        counter rollbacks: u64,
        /// One event per `TrainGuard` rollback, in (predictor, model,
        /// step) order; each predictor carries its own.
        series rollback_events: Vec<TrainRollbackMetrics>,
    }

    /// One training-time checkpoint rollback (model index, optimizer
    /// step, and the halved learning rate it restarted with).
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct TrainRollbackMetrics {
        /// Which predictor emitted the event (`"delta"` / `"page"`).
        label predictor: String,
        /// Phase-model index within the predictor.
        label model: u64,
        /// Optimizer step count at which the rollback fired.
        label step: u64,
        /// Learning rate after the rollback halved it (0 when the guard
        /// exhausted its budget and training stopped instead).
        max new_lr: f64,
        /// Whether this was the final, budget-exhausting event.
        label exhausted: bool,
    }

    /// Multi-stream serving-layer counters (`core::serve`): admission /
    /// shedding decisions, per-stream quarantines, batch deadline behavior
    /// and end-to-end prediction latency. The service increments its
    /// counters in place and fills the gauges, histograms and rows at
    /// snapshot time.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct ServeMetrics {
        /// Streams ever registered or auto-created.
        counter streams: u64,
        /// Accesses ingested (every one is admitted somewhere; the access
        /// path never blocks).
        counter ingested: u64,
        /// Accesses served by full ML inference off the batch queue.
        counter ml_processed: u64,
        /// Accesses served by the cheap Best-Offset fallback (shed, degraded,
        /// quarantined, or deadline-deferred).
        counter fallback_processed: u64,
        /// Speculative ML work shed at admission (overload level >= 1).
        counter shed_speculative: u64,
        /// Accesses diverted to the fallback because their shard queue was
        /// full at admission.
        counter shed_queue_full: u64,
        /// Accesses processed while their stream was degraded or quarantined.
        counter degraded_accesses: u64,
        /// Inference batches pumped.
        counter batches: u64,
        /// Batches that hit their deadline and deferred the remainder.
        counter batch_timeouts: u64,
        /// Items deferred to the fallback by batch timeouts.
        counter timeout_deferred: u64,
        /// Per-stream guard trips (quarantine entries).
        counter quarantines: u64,
        /// Streams returned to the ML path after hysteretic recovery.
        counter stream_recoveries: u64,
        /// Overload-ladder escalations (level went up).
        counter escalations: u64,
        /// Overload-ladder de-escalations (level came back down).
        counter deescalations: u64,
        /// Overload level at snapshot time (0 = normal).
        max overload_level: u64,
        /// Streams currently degraded or quarantined at snapshot time.
        max degraded_streams: u64,
        /// High-water mark of total queued items across all shards.
        max max_queue_depth: u64,
        /// (shed_speculative + shed_queue_full + timeout_deferred) / ingested.
        rate shed_fraction: f64,
        /// End-to-end prediction latency in service cycles (enqueue → result),
        /// across both the ML and fallback paths.
        hist prediction_latency: HistogramSnapshot,
        /// Deadline-deferred items served by the fallback — the subset of
        /// `fallback_processed` that was admitted to the ML queue first and
        /// squeezed out by its batch's deadline.
        counter deferred_fallback_processed: u64,
        /// End-to-end latency of those deferred fallbacks (queue wait
        /// included) — the tail the aggregate histogram used to hide when
        /// deferrals were stamped with the bare fallback cost.
        hist deferred_latency: HistogramSnapshot,
        /// Pumps that served at least one fused (multi-stream batched) group.
        counter fused_batches: u64,
        /// Batched model forward passes issued by fused groups.
        counter fused_forwards: u64,
        /// Queue items served through a fused group.
        counter fused_items: u64,
        /// Per-stream admission / service / guard counters, in registration
        /// order (auto-created fallback-only streams included).
        rows per_stream: Vec<StreamServeMetrics>,
        /// Per-stage pump span timing (`core::livetel`); all-default unless
        /// live telemetry was attached to the service.
        nested pump_stages: PumpStageMetrics,
        /// SLO monitor state (`core::livetel`); all-default unless live
        /// telemetry was attached.
        nested slo: SloServeMetrics,
        /// Closed live-telemetry intervals, for the Perfetto counter export;
        /// empty unless live telemetry was attached.
        series live: Vec<LiveIntervalSummary>,
    }
    rates |m| {
        m.shed_fraction = ratio(m.shed_total(), m.ingested);
    }

    /// Span timing of the pump's internal stages, recorded only while live
    /// telemetry is attached (the bit-identical-when-off discipline extends to
    /// the live path: without a `LiveTelemetry` none of these are touched).
    /// Queue wait is measured on the deterministic cycle clock; the other
    /// stages are host wall time, so [`MetricsSnapshot::canonicalize_wall_clock`]
    /// zeroes them in merged artifacts.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct PumpStageMetrics {
        /// Admission -> drain wait per queued item, in service cycles.
        hist queue_wait_cycles: HistogramSnapshot,
        /// Batch assembly per pump (drain + wave/deadline split), wall ns.
        wall assembly_ns: HistogramSnapshot,
        /// Fused/solo forward stage per pump on the f32 path (the only one:
        /// int8 is a storage format), wall ns.
        wall forward_f32_ns: HistogramSnapshot,
        /// Deferred-fallback stage per pump (deadline remainder), wall ns.
        wall deferred_fallback_ns: HistogramSnapshot,
        /// Total wall time spent inside `pump` while telemetry was attached.
        wall pump_wall_ns: u64,
        /// Wall time spent on telemetry itself (interval derivation, sinks).
        wall telemetry_wall_ns: u64,
        /// telemetry_wall_ns / pump_wall_ns — the live path's self-overhead.
        rate self_overhead_fraction: f64,
    }
    rates |p| {
        p.self_overhead_fraction = ratio(p.telemetry_wall_ns, p.pump_wall_ns);
    }

    /// SLO monitor rollup (`core::livetel::SloMonitor`, which keeps its
    /// counters here): target, error-budget burn state, and verdict
    /// transitions.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct SloServeMetrics {
        /// Prediction-latency p99 target in service cycles.
        max target_p99_cycles: u64,
        /// Allowed deadline-miss fraction (the error budget).
        max budget_miss_fraction: f64,
        /// Telemetry intervals observed.
        counter intervals: u64,
        /// Verdict raises (Ok -> Warn, Warn -> Breach, Ok -> Breach).
        counter escalations: u64,
        /// Verdict drops back toward Ok.
        counter recoveries: u64,
        /// Intervals spent at Breach.
        counter breach_intervals: u64,
        /// Worst windowed burn rate seen.
        max worst_burn_rate: f64,
        /// Windowed burn rate at snapshot time.
        max current_burn_rate: f64,
        /// Verdict at snapshot time: 0 Ok, 1 Warn, 2 Breach.
        max verdict_level: u64,
    }

    /// One closed live-telemetry interval, kept for the Perfetto counter
    /// export and the snapshot artifact (the full NDJSON record goes to the
    /// `--live-metrics` sink; this is the compact monotonic summary).
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct LiveIntervalSummary {
        /// 0-based interval ordinal.
        seq seq: u64,
        /// Record-clock timestamp the interval closed at (trace timeline).
        at at_record: u64,
        /// Service clock at the close, in cycles.
        max end_cycle: u64,
        counter delta_ingested: u64,
        counter delta_shed: u64,
        counter delta_deadline_observations: u64,
        counter delta_deadline_misses: u64,
        rate shed_fraction: f64,
        rate deadline_miss_fraction: f64,
        /// Windowed error-budget burn rate after this interval.
        max burn_rate: f64,
        /// SLO verdict after this interval: 0 Ok, 1 Warn, 2 Breach.
        max verdict_level: u64,
        /// Queue-wait p99 over the whole run so far, in cycles.
        max queue_wait_p99_cycles: u64,
        /// Forward-stage p99 over the whole run so far, wall ns.
        max forward_p99_ns: u64,
    }
    rates |s| {
        s.shed_fraction = ratio(s.delta_shed, s.delta_ingested);
        s.deadline_miss_fraction = ratio(s.delta_deadline_misses, s.delta_deadline_observations);
    }

    /// One stream's share of the serving-layer counters (admission decisions,
    /// service-path split, deadline behavior). Lives in
    /// [`ServeMetrics::per_stream`]; the service increments one in place per
    /// stream.
    #[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
    pub struct StreamServeMetrics {
        /// Stream id as registered / auto-created.
        label id: u64,
        /// Accesses admitted to the ML batch queue.
        counter admitted: u64,
        /// Accesses served by full ML inference.
        counter ml_served: u64,
        /// Accesses served by the fallback (shed, degraded, or deferred).
        counter fallback_served: u64,
        /// Admission-time sheds charged to this stream (ladder + queue-full).
        counter shed: u64,
        /// Deadline-guard quarantine entries.
        counter quarantines: u64,
        /// Deadline observations fed into the stream's trip window.
        counter deadline_observations: u64,
        /// Observations that missed the per-item deadline.
        counter deadline_misses: u64,
        /// Cooldown accesses still owed before an off-ML-path stream can be
        /// considered for recovery (0 for healthy or fallback-only streams) —
        /// live output shows quarantine *recovery progress*, not just entry.
        max cooldown_remaining: u64,
    }
    key |s| -> u64 { s.id }

    /// The pipeline-wide metrics record the bench runners and the CLI
    /// (`--metrics-out`) serialize to JSON, and `HealthReport` folds into its
    /// display. Produced by [`PrefetchScoreboard::snapshot`] and then enriched
    /// with the component counters the caller owns.
    #[derive(Debug, Clone, Default, Serialize, Deserialize)]
    pub struct MetricsSnapshot {
        counter issued: u64,
        /// Untimely-at-issue subset of `issued` (see [`PhaseMetrics`]).
        counter issued_untimely: u64,
        counter useful: u64,
        counter late: u64,
        counter useless: u64,
        counter demand_misses: u64,
        rate accuracy: f64,
        rate coverage: f64,
        rate timeliness: f64,
        rows phases: Vec<PhaseMetrics>,
        rows lanes: Vec<LaneMetrics>,
        nested dropped: DroppedCounts,
        counter inflight_overflow: u64,
        counter untracked_completions: u64,
        nested cstp: CstpStats,
        nested detector: DetectorMetrics,
        nested controller: ControllerMetrics,
        nested guard: GuardMetrics,
        nested training: TrainMetrics,
        /// Multi-stream serving-layer counters; all-default when the run did
        /// not go through `core::serve`.
        nested serve: ServeMetrics,
        hist inference_latency: HistogramSnapshot,
        /// Host wall-clock nanoseconds per prefetcher invocation — nonzero
        /// even for models whose simulated latency rounds to 0 cycles.
        wall inference_wall_ns: HistogramSnapshot,
        hist memory_latency: HistogramSnapshot,
        /// Telemetry window length in accesses; 0 when tracing was off.
        max window_size: u64,
        /// Windowed metric deltas (the accuracy / coverage / PBOT time
        /// series), including the trailing partial window. Empty when
        /// tracing was off.
        series(windows_dropped) windows: Vec<WindowMetrics>,
        /// Windows discarded after `max_windows` was reached.
        counter windows_dropped: u64,
    }
    rates |s| {
        let hits = s.useful + s.late;
        s.accuracy = ratio(hits, s.issued);
        s.coverage = ratio(hits, hits + s.demand_misses);
        s.timeliness = ratio(s.useful, hits);
    }
}

impl DetectorMetrics {
    /// Folds a detector's lifetime counters under its display name.
    pub fn from_stats(name: &str, s: &mpgraph_phase::DetectorStats) -> Self {
        let mut d = DetectorMetrics {
            name: name.to_string(),
            updates: s.updates,
            detections: s.detections,
            soft_arms: s.soft_arms,
            resets: s.resets,
            confirm_latency_samples: s.confirm_latency_samples,
            confirm_latency_sum: s.confirm_latency_sum,
            confirm_latency_max: s.confirm_latency_max,
            confirm_latency_mean: 0.0,
        };
        d.update_rates();
        d
    }
}

impl ServeMetrics {
    /// Total shed work (speculative + queue-full + deadline-deferred).
    pub fn shed_total(&self) -> u64 {
        self.shed_speculative + self.shed_queue_full + self.timeout_deferred
    }

    /// (deadline observations, deadline misses) summed over the streams.
    pub fn deadline_totals(&self) -> (u64, u64) {
        self.per_stream.iter().fold((0, 0), |(obs, miss), s| {
            (obs + s.deadline_observations, miss + s.deadline_misses)
        })
    }
}

impl StreamServeMetrics {
    /// Deadline misses over observations (0 when nothing was observed).
    pub fn deadline_miss_fraction(&self) -> f64 {
        ratio(self.deadline_misses, self.deadline_observations)
    }
}

impl MetricsSnapshot {
    /// Pretty JSON for `--metrics-out` files and CI artifacts. Errors
    /// propagate: a snapshot that cannot serialize must fail the caller
    /// loudly, not pass CI as `"{}"`.
    pub fn to_json_pretty(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Single-line JSON for bulky artifacts where pretty-printed diffs
    /// would churn thousands of lines.
    pub fn to_json_compact(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(phase: u8, lane: PrefetchLane) -> PrefetchTag {
        PrefetchTag { phase, lane }
    }

    #[test]
    fn histogram_exact_below_subs() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.percentile(0.0), 0);
        // rank = ceil(0.5 * 32) = 16 → 16th smallest = value 15.
        assert_eq!(h.percentile(0.5), 15);
        assert_eq!(h.percentile(1.0), 31);
    }

    #[test]
    fn histogram_matches_sorted_vec_percentiles() {
        // Pseudo-random-ish latencies spanning several decades, against the
        // exact sorted-Vec ceil-based nearest-rank.
        let mut vals: Vec<u64> = Vec::new();
        let mut x = 0x2545f4914f6cdd1du64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            vals.push(x % 100_000);
        }
        let mut h = LatencyHistogram::new();
        for &v in &vals {
            h.record(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for p in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = h.percentile(p);
            let tol = (exact as f64 * 0.05).max(1.0);
            assert!(
                (approx as f64 - exact as f64).abs() <= tol,
                "p{p}: approx {approx} vs exact {exact}"
            );
        }
        assert_eq!(h.count(), 5000);
        let mean_exact = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
        assert!((h.mean() - mean_exact).abs() < 1e-6);
    }

    #[test]
    fn histogram_bucket_roundtrip_error_bounded() {
        for v in [0u64, 1, 31, 32, 63, 64, 1000, 123_456, u64::MAX / 2] {
            let rep = LatencyHistogram::representative(LatencyHistogram::bucket_index(v));
            let err = (rep as f64 - v as f64).abs();
            assert!(
                err <= (v as f64 / 64.0).max(0.5),
                "v={v} rep={rep} err={err}"
            );
        }
    }

    #[test]
    fn histogram_merge_adds() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.snapshot().min, 10);
        assert!(a.snapshot().max >= 1000);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn scoreboard_state_machine_classifies_outcomes() {
        let mut sb = PrefetchScoreboard::new(2, 64);
        let sp = tag(0, PrefetchLane::Spatial);
        let tp = tag(1, PrefetchLane::Temporal);
        // Phase 0 spatial: issue 3 — one on-time hit, one late, one useless.
        sb.on_issued(100, sp, true);
        sb.on_issued(101, sp, true);
        sb.on_issued(102, sp, true);
        sb.on_useful(100, false);
        sb.on_useful(101, true);
        sb.on_useless_evict(102);
        // Phase 1 temporal: issue 1 useful, 1 untimely (late hit), drop 2.
        sb.on_issued(200, tp, true);
        sb.on_useful(200, false);
        sb.on_issued(203, tp, false);
        sb.on_useful(203, true);
        sb.on_dropped(201, tp, DropReason::InCache);
        sb.on_dropped(202, tp, DropReason::DegreeCap);
        // Demand misses: 2 in phase 0, 1 in phase 1.
        sb.on_demand_miss(0);
        sb.on_demand_miss(0);
        sb.on_demand_miss(1);

        let phases = sb.phase_metrics();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].issued, 3);
        assert_eq!(phases[0].useful, 1);
        assert_eq!(phases[0].late, 1);
        assert_eq!(phases[0].useless, 1);
        assert_eq!(phases[0].demand_misses, 2);
        // accuracy = (1+1)/3; coverage = 2/(2+2); timeliness = 1/2.
        assert!((phases[0].accuracy - 2.0 / 3.0).abs() < 1e-12);
        assert!((phases[0].coverage - 0.5).abs() < 1e-12);
        assert!((phases[0].timeliness - 0.5).abs() < 1e-12);
        assert_eq!(phases[1].issued, 2);
        assert_eq!(phases[1].dropped, 2);
        assert!((phases[1].accuracy - 1.0).abs() < 1e-12);
        // The untimely-at-issue counter surfaces per phase…
        assert_eq!(phases[0].issued_untimely, 0);
        assert_eq!(phases[1].issued_untimely, 1);

        let lanes = sb.lane_metrics();
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[0].lane, "spatial");
        assert_eq!(lanes[1].lane, "temporal");
        assert_eq!(lanes[1].dropped, 2);
        // …per lane…
        assert_eq!(lanes[0].issued_untimely, 0);
        assert_eq!(lanes[1].issued_untimely, 1);
        // …and in the top-level snapshot, through serde.
        let snap = sb.snapshot();
        assert_eq!(snap.issued_untimely, 1);
        let js = serde_json::to_string(&snap).expect("serialize");
        assert!(js.contains("\"issued_untimely\":1"));

        let d = sb.dropped_counts();
        assert_eq!(d.in_cache, 1);
        assert_eq!(d.degree_cap, 1);
        assert_eq!(d.self_block + d.in_flight, 0);

        // All tracked completions consumed their map entries.
        let (_, live, _, overflow) = sb.alloc_stats();
        assert_eq!(live, 0);
        assert_eq!(overflow, 0);
        assert_eq!(sb.untracked_completions, 0);
    }

    #[test]
    fn scoreboard_counts_untracked_completions() {
        let mut sb = PrefetchScoreboard::new(1, 16);
        // A hit on a block the scoreboard never saw issued (e.g. attached
        // mid-run) is attributed to the default cell and counted.
        sb.on_useful(999, false);
        sb.on_useless_evict(998);
        assert_eq!(sb.untracked_completions, 2);
        let t = sb.snapshot();
        assert_eq!(t.useful, 1);
        assert_eq!(t.useless, 1);
    }

    #[test]
    fn inflight_table_survives_collision_churn() {
        // Overlapping insert/remove waves exercise the backward-shift
        // deletion across probe chains; every removal must hand back the
        // tag stored for exactly that key.
        let mut t = InflightTable::new(64);
        let key = |i: u64| i.wrapping_mul(0x517c_c1b7_2722_0a95);
        for wave in 0..50u64 {
            for i in 0..40 {
                assert!(t.insert(
                    key(wave * 40 + i),
                    tag((i % 7) as u8, PrefetchLane::Spatial)
                ));
            }
            // Remove from the middle of the wave, out of insertion order.
            for i in (0..40).rev() {
                let got = t.remove(key(wave * 40 + i)).expect("key present");
                assert_eq!(got.phase, (i % 7) as u8, "wave {wave} key {i}");
            }
            assert_eq!(t.len(), 0);
            assert!(t.remove(key(wave * 40)).is_none());
        }
        // Full table refuses new keys instead of growing.
        for i in 0..64 {
            assert!(t.insert(key(10_000 + i), PrefetchTag::default()));
        }
        assert!(!t.insert(key(99_999), PrefetchTag::default()));
        assert_eq!(t.raw_capacity(), 128);
    }

    #[test]
    fn scoreboard_record_path_never_grows_the_inflight_map() {
        let mut sb = PrefetchScoreboard::new(4, 256);
        let (_, _, cap0, _) = sb.alloc_stats();
        // Hammer far more traffic than the reserve, with deliberately
        // leaky issues (not all complete) to push toward overflow.
        for i in 0..10_000u64 {
            let t = tag((i % 4) as u8, PrefetchLane::Spatial);
            sb.on_issued(i, t, true);
            if i % 3 == 0 {
                sb.on_useful(i, false);
            } else if i % 3 == 1 {
                sb.on_useless_evict(i);
            } // every third entry leaks until the map saturates
            sb.on_demand_miss((i % 4) as u8);
            sb.on_inference_latency(i % 977);
            sb.on_memory_latency(100 + i % 400);
        }
        let (reserved, live, cap1, overflow) = sb.alloc_stats();
        // ScratchArena-style verification: the map never reallocated, the
        // live set is bounded by the reserve, and the spill was counted.
        assert_eq!(cap0, cap1, "in-flight map reallocated on the record path");
        assert!(live <= reserved);
        assert!(overflow > 0, "test failed to exercise the overflow path");
        // Outcome accounting stayed consistent.
        let s = sb.snapshot();
        assert_eq!(s.issued, 10_000);
        assert_eq!(s.inference_latency.count, 10_000);
        assert_eq!(s.memory_latency.count, 10_000);
    }

    #[test]
    fn scoreboard_reconciles_with_engine_counters() {
        use mpgraph_frameworks::MemRecord;
        use mpgraph_sim::{simulate_observed, LlcAccess, Prefetcher, SimConfig};

        // Zero-latency tagged next-line prefetcher: every issue is timely,
        // so the scoreboard's classification must reconcile exactly with
        // the engine's own SimResult counters.
        struct TaggedNextLine {
            tags: Vec<PrefetchTag>,
        }
        impl Prefetcher for TaggedNextLine {
            fn name(&self) -> String {
                "tagged-next-line".into()
            }
            fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
                out.push(a.block + 1);
                out.push(a.block + 2);
                self.tags.clear();
                self.tags.push(PrefetchTag {
                    phase: 0,
                    lane: PrefetchLane::Spatial,
                });
                self.tags.push(PrefetchTag {
                    phase: 0,
                    lane: PrefetchLane::Temporal,
                });
            }
            fn last_batch_tags(&self) -> &[PrefetchTag] {
                &self.tags
            }
        }

        let trace: Vec<MemRecord> = (0..20_000u64)
            .map(|i| MemRecord {
                pc: 0x400000,
                vaddr: 0x10_0000_0000 + i * 64,
                core: (i % 2) as u8,
                is_write: false,
                phase: 0,
                gap: 3,
                dep: false,
            })
            .collect();
        let mut sb = PrefetchScoreboard::new(1, 4096);
        let cap_before = sb.alloc_stats().2;
        let mut pf = TaggedNextLine { tags: Vec::new() };
        let r = simulate_observed(&trace, &mut pf, &SimConfig::default(), None, Some(&mut sb));

        let s = sb.snapshot();
        assert_eq!(s.issued, r.prefetches_issued);
        assert_eq!(s.useful + s.late, r.prefetches_useful);
        assert_eq!(s.late, r.late_prefetch_merges);
        assert_eq!(s.demand_misses, r.llc_demand_misses);
        assert!(s.issued > 0 && s.useful + s.late > 0);
        assert!(s.accuracy > 0.0 && s.accuracy <= 1.0);
        assert!(s.coverage > 0.0 && s.coverage <= 1.0);
        assert_eq!(s.inference_latency.count, r.llc.accesses());
        assert!(s.memory_latency.count > 0);
        // Both lanes show up in the per-lane rollup.
        assert_eq!(s.lanes.len(), 2);
        // Record path stayed allocation-stable through a real replay.
        let (_, _, cap_after, overflow) = sb.alloc_stats();
        assert_eq!(cap_before, cap_after);
        assert_eq!(overflow, 0);
    }

    #[test]
    fn windowed_telemetry_slices_counters_into_deltas() {
        let mut sb = PrefetchScoreboard::with_trace(
            2,
            64,
            TraceConfig {
                ring_capacity: 256,
                window: 10,
                max_windows: 8,
                ..TraceConfig::default()
            },
        );
        assert!(sb.tracing());
        // Window 0 (records 0..10): 2 issued, 1 useful, PBOT 3/1.
        sb.on_record(0);
        sb.on_issued(1, tag(0, PrefetchLane::Spatial), true);
        sb.on_issued(2, tag(0, PrefetchLane::Spatial), true);
        sb.on_useful(1, false);
        sb.on_trace_event(
            0,
            TraceEvent::CstpChain {
                steps: 2,
                pbot_hits: 3,
                pbot_misses: 1,
            },
        );
        // Window 1 (records 10..20): 1 issued in phase 1, 2 misses.
        sb.on_record(10);
        sb.on_issued(3, tag(1, PrefetchLane::Temporal), true);
        sb.on_useful(3, false);
        sb.on_demand_miss(1);
        sb.on_demand_miss(1);
        sb.on_record(19);

        let windows = sb.windows();
        assert_eq!(windows.len(), 2, "one closed + one trailing partial");
        let w0 = &windows[0];
        assert_eq!((w0.start, w0.end), (0, 10));
        assert_eq!(w0.issued, 2);
        assert_eq!(w0.useful, 1);
        assert_eq!(w0.pbot_hits, 3);
        assert_eq!(w0.pbot_misses, 1);
        assert!((w0.accuracy - 0.5).abs() < 1e-12);
        assert!((w0.pbot_hit_rate - 0.75).abs() < 1e-12);
        let w1 = &windows[1];
        assert_eq!((w1.start, w1.end), (10, 20));
        assert_eq!(w1.issued, 1);
        assert_eq!(w1.demand_misses, 2);
        assert_eq!(w1.pbot_hits, 0, "PBOT accumulator reset per window");
        // Deltas, not running totals: per-phase accuracy differs across
        // windows (phase 0 active only in w0, phase 1 only in w1).
        assert!((w0.phases[0].accuracy - 0.5).abs() < 1e-12);
        assert!((w1.phases[1].accuracy - 1.0).abs() < 1e-12);
        assert!(w0.accuracy != w1.accuracy);

        // The snapshot embeds the same series plus the config.
        let snap = sb.snapshot();
        assert_eq!(snap.window_size, 10);
        assert_eq!(snap.windows.len(), 2);
        assert_eq!(snap.windows_dropped, 0);
        // windows() and chrome_trace() are non-destructive reads.
        assert_eq!(sb.windows().len(), 2);
        let trace = sb.chrome_trace().expect("tracing attached");
        assert!(matches!(
            trace.get("traceEvents"),
            Some(serde::Value::Array(_))
        ));
    }

    #[test]
    fn tracing_steady_state_neither_grows_ring_nor_windows() {
        let mut sb = PrefetchScoreboard::with_trace(
            1,
            64,
            TraceConfig {
                ring_capacity: 32,
                window: 4,
                max_windows: 3,
                ..TraceConfig::default()
            },
        );
        // Prime past ring capacity and the window cap.
        for i in 0..40u64 {
            sb.on_record(i);
            sb.on_trace_event(i, TraceEvent::PhaseArmed);
        }
        let (_, cap0, over0, wlen0, _) = sb.trace_alloc_stats().expect("tracing");
        assert_eq!(wlen0, 3, "window cap not reached in warmup");
        assert!(over0 > 0, "ring wrap not reached in warmup");
        let windows_cap_probe = sb.windows().capacity();
        let _ = windows_cap_probe;
        // Steady state: hammer 10k more records; nothing may grow.
        for i in 40..10_040u64 {
            sb.on_record(i);
            sb.on_trace_event(i, TraceEvent::InflightOverflow);
        }
        let (len, cap1, over1, wlen1, dropped) = sb.trace_alloc_stats().expect("tracing");
        assert_eq!(cap0, cap1, "flight-recorder ring reallocated");
        assert_eq!(len, 32);
        assert!(over1 > over0);
        assert_eq!(wlen1, 3, "window list grew past max_windows");
        assert!(dropped > 0, "overflow windows were not counted");
    }

    #[test]
    fn adaptive_windows_shrink_on_alarms_and_stretch_when_calm() {
        let mut sb = PrefetchScoreboard::with_trace(
            1,
            64,
            TraceConfig {
                ring_capacity: 256,
                window: 16,
                max_windows: 64,
                adaptive: true,
                min_window: 4,
                max_window: 32,
                calm_windows: 2,
            },
        );
        // An alarm early in the first window halves 16 → 8 immediately,
        // so the window containing the incident closes early.
        sb.on_record(0);
        sb.on_trace_event(0, TraceEvent::GuardTrip);
        sb.on_record(8);
        // A second alarm halves 8 → 4 (the floor).
        sb.on_trace_event(8, TraceEvent::OverloadShed { level: 1 });
        sb.on_trace_event(9, TraceEvent::StreamQuarantine { stream: 1 });
        // Then a calm spell: 2 consecutive alarm-free windows double the
        // length each time they complete: 4 → 8 → … capped at 32.
        for i in 9..120u64 {
            sb.on_record(i);
        }
        let windows = sb.windows();
        let lens: Vec<u64> = windows.iter().map(|w| w.end - w.start).collect();
        assert_eq!(lens[0], 8, "first window closed early after the alarm");
        assert_eq!(lens[1], 4, "second alarm pinned the window at the floor");
        assert!(
            lens[2..lens.len() - 1].windows(2).all(|p| p[1] >= p[0]),
            "calm windows must only stretch: {lens:?}"
        );
        assert!(
            lens[2..].iter().any(|&l| l > 4),
            "calm spell never stretched the window: {lens:?}"
        );
        assert!(
            lens.iter().all(|&l| l <= 32),
            "window exceeded max_window: {lens:?}"
        );
        // Non-adaptive runs are untouched: fixed window length throughout.
        let mut fixed = PrefetchScoreboard::with_trace(
            1,
            64,
            TraceConfig {
                ring_capacity: 256,
                window: 16,
                max_windows: 64,
                ..TraceConfig::default()
            },
        );
        fixed.on_record(0);
        fixed.on_trace_event(0, TraceEvent::GuardTrip);
        for i in 1..64u64 {
            fixed.on_record(i);
        }
        assert!(fixed
            .windows()
            .iter()
            .all(|w| w.end - w.start == 16 || w.end == 64));
    }

    #[test]
    fn serve_metrics_round_trip_through_serde() {
        let snap = MetricsSnapshot {
            serve: ServeMetrics {
                streams: 8,
                ingested: 1000,
                ml_processed: 700,
                fallback_processed: 300,
                shed_speculative: 200,
                shed_queue_full: 50,
                timeout_deferred: 10,
                quarantines: 2,
                stream_recoveries: 1,
                escalations: 3,
                deescalations: 2,
                overload_level: 1,
                shed_fraction: 0.26,
                ..ServeMetrics::default()
            },
            ..MetricsSnapshot::default()
        };
        let js = serde_json::to_string(&snap).expect("serialize");
        assert!(js.contains("\"shed_fraction\""));
        let back: MetricsSnapshot = serde_json::from_str(&js).expect("deserialize");
        assert_eq!(back.serve.ingested, 1000);
        assert_eq!(back.serve.quarantines, 2);
        assert_eq!(back.serve.overload_level, 1);
        assert!((back.serve.shed_fraction - 0.26).abs() < 1e-12);
    }

    #[test]
    fn untraced_scoreboard_reports_no_windows() {
        let mut sb = PrefetchScoreboard::new(1, 16);
        assert!(!sb.tracing());
        assert!(!sb.wants_trace_events());
        sb.on_record(5);
        sb.on_trace_event(5, TraceEvent::GuardTrip);
        assert!(sb.trace_events().is_empty());
        assert!(sb.windows().is_empty());
        assert!(sb.chrome_trace().is_none());
        let snap = sb.snapshot();
        assert_eq!(snap.window_size, 0);
        assert!(snap.windows.is_empty());
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let mut sb = PrefetchScoreboard::new(2, 32);
        sb.on_issued(1, tag(0, PrefetchLane::Spatial), true);
        sb.on_useful(1, false);
        sb.on_demand_miss(1);
        sb.on_inference_latency(42);
        let mut snap = sb.snapshot();
        snap.cstp.duplicates_suppressed = 7;
        let js = serde_json::to_string(&snap).expect("serialize");
        assert!(js.contains("\"accuracy\""));
        assert!(js.contains("\"duplicates_suppressed\":7"));
        assert!(js.contains("\"p99\""));
        assert!(js.contains("\"spatial\""));
    }
}
