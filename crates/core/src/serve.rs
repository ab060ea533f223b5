//! Multi-stream prefetch service: a long-lived front-end that multiplexes
//! many concurrent access streams through the prefetcher stack, engineered
//! for overload rather than peak throughput.
//!
//! The paper evaluates one prefetcher against one replayed trace. A
//! deployment sits behind *many* concurrent graph-analytics jobs, each an
//! independent access stream, and the interesting failures are systemic:
//! one stream's faulting inference path must not take its siblings down,
//! and sustained overload must degrade prediction quality — never block
//! the access path. This module provides that serving layer:
//!
//! * **Per-stream isolation** — every stream owns its prefetcher and a
//!   private Best-Offset fallback. A stream whose inference path trips its
//!   deadline guard is *quarantined*: it degrades to the fallback alone,
//!   with the hysteretic recovery of [`crate::DegradationGuard`] (both run
//!   on [`Breaker`]), while sibling streams keep full ML service.
//! * **Bounded queues + backpressure** — admission enqueues into
//!   fixed-capacity per-shard queues ([`BoundedQueue`]). A full queue
//!   sheds that access to the inline fallback and reports backpressure to
//!   the caller; nothing ever blocks and nothing ever grows.
//! * **Graceful overload degradation** — a ladder controller watches queue
//!   fill between batches. Sustained pressure first sheds speculative ML
//!   work (level 1: new accesses take the inline fallback), then pins
//!   whole streams degraded (level 2). Recovery needs a hysteresis run of
//!   calm batches, so the ladder cannot flap.
//! * **Batched inference with a deadline** — the pump drains queued work
//!   round-robin across shards into one inference batch per call; when a
//!   batch exceeds its cycle deadline the remainder is deferred to the
//!   fallback ([`TraceEvent::BatchTimeout`]) instead of stalling.
//!
//! Every shed, quarantine, timeout, and recovery decision emits a
//! [`TraceEvent`] into the attached [`PrefetchScoreboard`] (flight
//! recorder, adaptive windows, Perfetto export) and a counter in
//! [`ServeMetrics`]. The service is fully deterministic: its clock is a
//! simulated cycle count advanced by ingest/processing costs, never wall
//! time.

use crate::cstp::{chain_prefetch_fused, FusedChainItem, FusedChainResult, PageMemo};
use crate::degradation::Breaker;
use crate::error::MpGraphError;
use crate::livetel::LiveTelemetry;
use crate::obs::{MetricsSnapshot, PrefetchScoreboard, ServeMetrics, StreamServeMetrics};
use crate::prefetcher::MpGraphPrefetcher;
use crate::LatencyHistogram;
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::{BestOffset, BoConfig};
use mpgraph_sim::{LlcAccess, Prefetcher, TraceEvent};
use std::collections::HashMap;
use std::collections::VecDeque;

/// Service configuration. [`ServeConfig::default`] is sized for the
/// simulator-scale workloads the bench drives (tens of streams, quick
/// traces); [`ServeConfig::try_new`] validates hand-built configurations.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Independent queue shards; streams hash onto shards by id.
    pub num_shards: usize,
    /// Per-shard queue capacity. Admission beyond this sheds to the
    /// fallback — the queue never grows and never blocks.
    pub queue_capacity: usize,
    /// Max items drained into one inference batch per [`PrefetchService::pump`].
    pub batch_size: usize,
    /// Cycle budget per batch; the remainder of a batch that exceeds it is
    /// deferred to the fallback.
    pub batch_deadline: u64,
    /// Service cycles charged per ML-path item (queueing + model call).
    pub ml_item_cost: u64,
    /// Service cycles charged per fallback-path item.
    pub fallback_item_cost: u64,
    /// Queue-fill fraction at/above which a pump counts as *hot*.
    pub high_watermark: f64,
    /// Queue-fill fraction at/below which a pump counts as *cool*.
    pub low_watermark: f64,
    /// Consecutive hot pumps before the overload ladder escalates.
    pub escalate_pumps: u32,
    /// Consecutive cool pumps before the ladder de-escalates (hysteresis).
    pub hysteresis_pumps: u32,
    /// Per-stream deadline-miss window (ML inferences observed).
    pub stream_miss_window: usize,
    /// Miss fraction over a full window that quarantines the stream.
    pub stream_trip_fraction: f64,
    /// Fallback accesses a degraded stream serves before recovery is
    /// considered (cooldown, as in [`crate::GuardConfig`]).
    pub stream_cooldown: u64,
    /// Consecutive stall-free accesses required on top of the cooldown.
    pub stream_recover_clean: u32,
    /// Per-item inference deadline in cycles; `effective_latency` beyond
    /// this counts as a miss in the stream's trip window.
    pub deadline_cycles: u64,
    /// Fuse compatible streams' inference into one batched forward per
    /// pump (bit-identical to per-item inference; see
    /// [`crate::cstp::chain_prefetch_fused`]). Off = streams register
    /// without a fusion signature, so every item runs solo through its own
    /// prefetcher (a group of one) — the per-item reference, kept for A/B
    /// measurement and bisection.
    pub fuse: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            num_shards: 4,
            queue_capacity: 64,
            batch_size: 16,
            batch_deadline: 2048,
            ml_item_cost: 64,
            fallback_item_cost: 4,
            high_watermark: 0.75,
            low_watermark: 0.25,
            escalate_pumps: 2,
            hysteresis_pumps: 8,
            stream_miss_window: 32,
            stream_trip_fraction: 0.5,
            stream_cooldown: 256,
            stream_recover_clean: 16,
            deadline_cycles: 500,
            fuse: true,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, returning it unchanged when sound.
    pub fn try_new(self) -> Result<Self, MpGraphError> {
        if self.num_shards == 0 {
            return Err(MpGraphError::config("serve", "num_shards must be > 0"));
        }
        if self.queue_capacity == 0 {
            return Err(MpGraphError::config("serve", "queue_capacity must be > 0"));
        }
        if self.batch_size == 0 {
            return Err(MpGraphError::config("serve", "batch_size must be > 0"));
        }
        if self.ml_item_cost == 0 {
            return Err(MpGraphError::config("serve", "ml_item_cost must be > 0"));
        }
        if !(0.0..=1.0).contains(&self.low_watermark)
            || !(0.0..=1.0).contains(&self.high_watermark)
            || self.low_watermark >= self.high_watermark
        {
            return Err(MpGraphError::config(
                "serve",
                format!(
                    "watermarks must satisfy 0 <= low < high <= 1, got low={} high={}",
                    self.low_watermark, self.high_watermark
                ),
            ));
        }
        if self.escalate_pumps == 0 || self.hysteresis_pumps == 0 {
            return Err(MpGraphError::config(
                "serve",
                "escalate_pumps and hysteresis_pumps must be > 0",
            ));
        }
        if self.stream_miss_window == 0 {
            return Err(MpGraphError::config(
                "serve",
                "stream_miss_window must be > 0",
            ));
        }
        if !(0.0..=1.0).contains(&self.stream_trip_fraction) {
            return Err(MpGraphError::config(
                "serve",
                format!(
                    "stream_trip_fraction must be in [0, 1], got {}",
                    self.stream_trip_fraction
                ),
            ));
        }
        Ok(self)
    }
}

/// Fixed-capacity FIFO. `push` reports refusal instead of growing or
/// blocking — the backpressure signal the admission controller consumes.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BoundedQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Enqueues `item`, or hands it back when the queue is at capacity.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            return Err(item);
        }
        self.items.push_back(item);
        Ok(())
    }

    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// What happened to an ingested access at admission. The access path never
/// blocks: every variant other than `Queued` means the prediction was
/// produced inline by the cheap fallback and is already waiting in the
/// service's ready buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueued for batched ML inference.
    Queued,
    /// Overload ladder >= 1: speculative ML work shed, fallback served.
    Shed,
    /// Shard queue full: fallback served, backpressure to the caller.
    QueueFull,
    /// Stream degraded/quarantined (or fallback-only): fallback served.
    Degraded,
}

/// One completed prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    pub stream: u32,
    /// Candidate block addresses, in the prefetcher's emission order.
    pub candidates: Vec<u64>,
    /// End-to-end service latency in cycles (admission -> completion).
    pub latency: u64,
    /// Whether the cheap fallback produced this batch.
    pub via_fallback: bool,
    /// Phase model selected at prediction time (fallback reports 0).
    pub phase: u8,
}

struct StreamSlot {
    id: u32,
    /// Full ML prefetcher; `None` for auto-created fallback-only streams.
    ml: Option<Box<dyn Prefetcher + Send>>,
    fallback: BestOffset,
    /// Open while the stream is off the ML path, by its own deadline
    /// quarantine or by the ladder's level-2 pin. It observes the
    /// stream's ML deadline misses, and its cooldown clock is
    /// `stats.fallback_served`.
    breaker: Breaker,
    /// The open breaker is a level-2 pin, which also waits for the ladder
    /// to return to 0 before it recovers.
    pinned: bool,
    /// Batch-compatibility signature when the prefetcher supports fused
    /// serving ([`MpGraphPrefetcher::batch_signature`]); `None` serves
    /// each of the stream's items solo.
    fuse_sig: Option<u64>,
    /// This stream's counters, incremented in place; `cooldown_remaining`
    /// is filled at snapshot time.
    stats: StreamServeMetrics,
}

impl StreamSlot {
    fn new(id: u32, ml: Option<Box<dyn Prefetcher + Send>>, cfg: &ServeConfig) -> Self {
        StreamSlot {
            id,
            ml,
            fallback: BestOffset::new(BoConfig::default()),
            breaker: Breaker::new(
                cfg.stream_miss_window,
                cfg.stream_trip_fraction,
                cfg.stream_cooldown,
                cfg.stream_recover_clean,
            ),
            pinned: false,
            fuse_sig: None,
            stats: StreamServeMetrics {
                id: u64::from(id),
                ..StreamServeMetrics::default()
            },
        }
    }

    fn quarantined(&self) -> bool {
        self.breaker.is_open() && !self.pinned
    }

    /// Leaves the ML path: a level-2 pin, or a deadline quarantine.
    fn trip(&mut self, pinned: bool) {
        self.breaker.trip(self.stats.fallback_served);
        self.pinned = pinned;
    }
}

struct QueueItem {
    slot: usize,
    access: LlcAccess,
    stall: u64,
    enqueued_at: u64,
}

/// How one admitted item will be served inside a pump wave.
#[derive(Debug, Clone, Copy)]
enum ServePlan {
    /// MPGraph stream on the fused path. `ready` is false while its
    /// histories are still warming up (a solo access would emit no
    /// candidates either).
    Fused { ready: bool, sig: u64, phase: u8 },
    /// A stream without a fusion signature: its prefetcher's own
    /// `on_access`.
    Solo,
}

/// Buffered outcome of one admitted item's inference, committed to the
/// clock / counters / ready buffer in admitted order afterwards.
#[derive(Debug, Default)]
struct ItemOutcome {
    candidates: Vec<u64>,
    events: Vec<TraceEvent>,
    lat: u64,
    phase: u8,
}

/// The in-process prefetch service. See the module docs for the design;
/// the driving loop is `ingest` (per access, never blocks) interleaved
/// with `pump` (one inference batch per call).
pub struct PrefetchService {
    cfg: ServeConfig,
    shards: Vec<BoundedQueue<QueueItem>>,
    slots: Vec<StreamSlot>,
    index: HashMap<u32, usize>,
    /// Deterministic service clock in cycles; advanced by admission and
    /// per-item processing costs, never by wall time.
    clock: u64,
    /// Overload-ladder level: 0 normal, 1 shed speculative, 2 degrade
    /// streams.
    level: u8,
    hot_streak: u32,
    cool_streak: u32,
    /// Queue-full admission seen since the last pump (pressure signal the
    /// fill fraction alone can miss between pumps).
    queue_full_since_pump: bool,
    /// Service counters, incremented in place; the gauges, histograms and
    /// rows are filled at snapshot time ([`Self::base_metrics`]).
    counters: ServeMetrics,
    prediction_latency: LatencyHistogram,
    /// Honest (admission -> completion) latency of deferred-fallback items
    /// — the queue wait the old accounting silently dropped.
    deferred_latency: LatencyHistogram,
    /// Fallback predictions produced inline at admission, drained by the
    /// next `pump`.
    ready: Vec<Prediction>,
    /// Metrics/trace backend; events and the record clock feed its flight
    /// recorder and (adaptive) windows.
    scoreboard: Option<PrefetchScoreboard>,
    /// Scratch candidate buffer (reused; the per-access path allocates
    /// only when a prediction is emitted).
    scratch: Vec<u64>,
    /// Matrix scratch for the fused serve path.
    fused_arena: ScratchArena,
    /// The fused walks' page-window memo, shared by every fused group:
    /// its key holds each group's weights identity and phase.
    page_memo: PageMemo,
    /// Live telemetry attachment (`core::livetel`). `None` keeps the pump
    /// on the exact pre-telemetry instruction path — no timers, no
    /// interval math — preserving the bit-identical-when-off guarantee.
    livetel: Option<Box<LiveTelemetry>>,
}

impl PrefetchService {
    pub fn new(cfg: ServeConfig) -> Self {
        PrefetchService {
            shards: (0..cfg.num_shards.max(1))
                .map(|_| BoundedQueue::new(cfg.queue_capacity))
                .collect(),
            slots: Vec::new(),
            index: HashMap::new(),
            clock: 0,
            level: 0,
            hot_streak: 0,
            cool_streak: 0,
            queue_full_since_pump: false,
            counters: ServeMetrics::default(),
            prediction_latency: LatencyHistogram::new(),
            deferred_latency: LatencyHistogram::new(),
            ready: Vec::new(),
            scoreboard: None,
            scratch: Vec::new(),
            fused_arena: ScratchArena::new(),
            page_memo: PageMemo::new(),
            livetel: None,
            cfg,
        }
    }

    /// [`PrefetchService::new`] with a metrics/trace backend attached.
    /// Service events then land in the scoreboard's flight recorder, and
    /// with [`crate::TraceConfig::adaptive`] the shed/quarantine alarms
    /// shrink its telemetry windows around the incident.
    pub fn with_scoreboard(cfg: ServeConfig, scoreboard: PrefetchScoreboard) -> Self {
        let mut s = Self::new(cfg);
        s.scoreboard = Some(scoreboard);
        s
    }

    /// Attaches live telemetry (`core::livetel`): periodic interval
    /// deltas to its sinks, pump-stage span timing, and the SLO monitor
    /// (which, when wired, feeds the overload ladder).
    pub fn enable_live_telemetry(&mut self, tel: LiveTelemetry) {
        self.livetel = Some(Box::new(tel));
    }

    /// Closes the trailing partial telemetry interval and flushes the
    /// NDJSON sink. Call after the final `flush` so the last accesses of
    /// a live session land in the interval stream.
    pub fn finish_live_telemetry(&mut self) {
        if let Some(mut tel) = self.livetel.take() {
            let m = self.base_metrics();
            let events = tel.finish(self.trace_now(), self.clock, &m);
            for e in events {
                self.emit(e);
            }
            self.livetel = Some(tel);
        }
    }

    /// Registers stream `id` with its own full prefetcher. Re-registering
    /// an id replaces the prefetcher and resets the stream's state.
    pub fn register_stream(&mut self, id: u32, mut prefetcher: Box<dyn Prefetcher + Send>) {
        let tracing = self
            .scoreboard
            .as_ref()
            .is_some_and(PrefetchScoreboard::tracing);
        // Mirror the engine: prefetchers buffer structured events only
        // when a trace sink wants them.
        prefetcher.enable_trace_events(tracing);
        // Fused serving needs the concrete MPGraph prefetcher (its chain
        // loop is what gets batched); other prefetchers stay per-item.
        let fuse_sig = if self.cfg.fuse {
            prefetcher
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<MpGraphPrefetcher>())
                .map(|p| p.batch_signature())
        } else {
            None
        };
        let i = self.slot_for(id);
        self.slots[i] = StreamSlot::new(id, Some(prefetcher), &self.cfg);
        self.slots[i].fuse_sig = fuse_sig;
    }

    /// Stream `id`'s slot. An unknown stream is served fallback-only; its
    /// slot keeps its counters attributable.
    fn slot_for(&mut self, id: u32) -> usize {
        if let Some(&i) = self.index.get(&id) {
            return i;
        }
        self.index.insert(id, self.slots.len());
        self.slots.push(StreamSlot::new(id, None, &self.cfg));
        self.counters.streams += 1;
        self.slots.len() - 1
    }

    /// Timestamp for trace events: the current record index, matching the
    /// engine's convention of stamping events at the triggering access.
    fn trace_now(&self) -> u64 {
        self.counters.ingested.saturating_sub(1)
    }

    fn emit(&mut self, event: TraceEvent) {
        let now = self.trace_now();
        if let Some(sb) = self.scoreboard.as_mut() {
            use mpgraph_sim::PrefetchObserver;
            sb.on_trace_event(now, event);
        }
    }

    /// Runs `access` through `slot`'s fallback and buffers the prediction.
    /// An inline fallback (`enqueued_at: None`) was never queued, so its
    /// cost *is* its latency. A queued item deferred by the batch deadline
    /// already waited in a shard queue: its honest latency is admission ->
    /// completion, recorded into both the aggregate histogram and a
    /// dedicated deferred histogram (stamping it with the bare fallback
    /// cost would drop the queue wait from the tail).
    fn serve_fallback(
        &mut self,
        slot: usize,
        access: &LlcAccess,
        stall: u64,
        enqueued_at: Option<u64>,
    ) {
        self.clock += self.cfg.fallback_item_cost;
        self.scratch.clear();
        let s = &mut self.slots[slot];
        s.fallback.on_access(access, &mut self.scratch);
        if s.breaker.is_open() {
            self.counters.degraded_accesses += 1;
        }
        s.stats.fallback_served += 1;
        self.counters.fallback_processed += 1;
        let latency = match enqueued_at {
            None => self.cfg.fallback_item_cost,
            Some(at) => {
                self.counters.deferred_fallback_processed += 1;
                self.deferred_latency.record(self.clock - at);
                self.clock - at
            }
        };
        self.prediction_latency.record(latency);
        self.ready.push(Prediction {
            stream: s.id,
            candidates: self.scratch.clone(),
            latency,
            via_fallback: true,
            phase: 0,
        });
        self.note_recovery_progress(slot, stall);
    }

    /// Hysteretic recovery for a stream off the ML path: a cooldown's
    /// worth of fallback service plus a clean (stall-free) run, and — for
    /// overload-pinned streams — a calm ladder.
    fn note_recovery_progress(&mut self, slot: usize, stall: u64) {
        let s = &mut self.slots[slot];
        if !s.breaker.is_open() {
            return;
        }
        let recovered = s.breaker.probe(s.stats.fallback_served, stall == 0);
        if recovered && (!s.pinned || self.level == 0) {
            s.breaker.close();
            s.pinned = false;
            let id = s.id;
            self.counters.stream_recoveries += 1;
            self.emit(TraceEvent::StreamRecover { stream: id });
        }
    }

    /// Admits one access. Never blocks: the result is either `Queued` (ML
    /// batch will serve it) or an inline fallback prediction, already in
    /// the ready buffer. `stall` is the extra inference latency this
    /// access would suffer (the fault-injection harness's signal), paid
    /// only on the ML path.
    pub fn ingest(&mut self, stream: u32, access: &LlcAccess, stall: u64) -> Admission {
        self.clock += 1;
        self.counters.ingested += 1;
        if let Some(sb) = self.scoreboard.as_mut() {
            use mpgraph_sim::PrefetchObserver;
            sb.on_record(self.counters.ingested - 1);
        }
        let slot = self.slot_for(stream);

        // Off the ML path: fallback-only, quarantined or pinned.
        if self.slots[slot].ml.is_none() || self.slots[slot].breaker.is_open() {
            self.serve_fallback(slot, access, stall, None);
            return Admission::Degraded;
        }
        if self.level >= 1 {
            // Shed speculative ML work first — cheapest rung of the ladder.
            self.counters.shed_speculative += 1;
            self.slots[slot].stats.shed += 1;
            if self.level >= 2 {
                // Level 2: pin the stream degraded (sticky until the
                // ladder calms *and* the stream passes its cooldown).
                self.slots[slot].trip(true);
            }
            self.serve_fallback(slot, access, stall, None);
            return Admission::Shed;
        }

        let shard = slot % self.shards.len();
        let item = QueueItem {
            slot,
            access: *access,
            stall,
            enqueued_at: self.clock,
        };
        match self.shards[shard].push(item) {
            Ok(()) => {
                self.slots[slot].stats.admitted += 1;
                let depth: usize = self.shards.iter().map(BoundedQueue::len).sum();
                self.counters.max_queue_depth = self.counters.max_queue_depth.max(depth as u64);
                Admission::Queued
            }
            Err(item) => {
                self.counters.shed_queue_full += 1;
                self.slots[slot].stats.shed += 1;
                self.queue_full_since_pump = true;
                self.serve_fallback(slot, &item.access, item.stall, None);
                Admission::QueueFull
            }
        }
    }

    /// Serves the admitted prefix of a pump batch. The batch is
    /// partitioned into *waves* (a stream appears at most once per wave,
    /// in admitted order), and within a wave all MPGraph streams sharing a
    /// batch-compatibility signature and phase run their chain inference
    /// as **one** batched (B×T×d) forward via [`chain_prefetch_fused`] —
    /// bit-identical to serving them one by one, because equal signatures
    /// imply identical model shapes and the fused kernels compute each
    /// sequence's rows independently. Streams without a signature (other
    /// prefetchers, or every stream when `fuse` is off) run solo.
    ///
    /// Clock, counters, latency, trace events, and deadline observations
    /// are committed in admitted order after inference, item by item
    /// (inference itself never reads the service clock).
    fn serve_admitted(&mut self, admitted: Vec<QueueItem>) {
        if admitted.is_empty() {
            return;
        }

        // Wave assignment: the w-th occurrence of a stream lands in wave
        // w, so per-stream sequential semantics hold (wave w is fully
        // applied before wave w+1 begins inference).
        let mut occurrence: HashMap<usize, usize> = HashMap::new();
        let mut wave_of: Vec<usize> = Vec::with_capacity(admitted.len());
        let mut num_waves = 0usize;
        for item in &admitted {
            let w = occurrence.entry(item.slot).or_insert(0);
            wave_of.push(*w);
            num_waves = num_waves.max(*w + 1);
            *w += 1;
        }

        let mut outcomes: Vec<Option<ItemOutcome>> = Vec::new();
        outcomes.resize_with(admitted.len(), || None);

        for wave in 0..num_waves {
            let indices: Vec<usize> = (0..admitted.len())
                .filter(|&i| wave_of[i] == wave)
                .collect();

            // Stage 1: begin each access (phase detection, history/PBOT
            // updates) and plan its serving path.
            let mut plans: Vec<ServePlan> = Vec::with_capacity(indices.len());
            for &i in &indices {
                let item = &admitted[i];
                let plan = match self.slots[item.slot].fuse_sig {
                    Some(sig) => {
                        match self.slots[item.slot]
                            .ml
                            .as_deref_mut()
                            .and_then(|m| m.as_any_mut())
                            .and_then(|a| a.downcast_mut::<MpGraphPrefetcher>())
                        {
                            Some(pf) => {
                                let ready = pf.begin_access(&item.access);
                                let phase = pf.current_phase_id();
                                ServePlan::Fused { ready, sig, phase }
                            }
                            // Signature without a downcast cannot happen
                            // (the signature came from the downcast at
                            // registration); degrade rather than panic.
                            None => ServePlan::Solo,
                        }
                    }
                    None => ServePlan::Solo,
                };
                plans.push(plan);
            }

            // Group ready fused items by (signature, phase) in
            // first-occurrence order — equal keys guarantee identical
            // model shapes, so any member's models run the fused forward.
            let mut groups: Vec<((u64, u8), Vec<usize>)> = Vec::new();
            for (&i, plan) in indices.iter().zip(&plans) {
                if let ServePlan::Fused {
                    ready: true,
                    sig,
                    phase,
                } = *plan
                {
                    match groups.iter_mut().find(|(k, _)| *k == (sig, phase)) {
                        Some((_, members)) => members.push(i),
                        None => groups.push(((sig, phase), vec![i])),
                    }
                }
            }

            // Stage 2: one fused chain per group.
            let mut chained: HashMap<usize, FusedChainResult> = HashMap::new();
            let mut fwd = 0u64;
            let mut fused_items = 0u64;
            let mut fused_batches = 0u64;
            {
                let slots = &self.slots;
                let arena = &mut self.fused_arena;
                let memo = &mut self.page_memo;
                for (_, members) in &groups {
                    let views: Vec<_> = members
                        .iter()
                        .filter_map(|&i| {
                            let item = &admitted[i];
                            slots[item.slot]
                                .ml
                                .as_deref()
                                .and_then(|m| m.as_any())
                                .and_then(|a| a.downcast_ref::<MpGraphPrefetcher>())
                                .map(|pf| pf.fused_view(item.access.core))
                        })
                        .collect();
                    if views.len() != members.len() {
                        continue;
                    }
                    let chain_items: Vec<FusedChainItem<'_>> = views
                        .iter()
                        .map(|v| FusedChainItem {
                            pbot: v.pbot,
                            block_hist: v.block_hist,
                            page_hist: v.page_hist,
                        })
                        .collect();
                    let results = chain_prefetch_fused(
                        views[0].delta,
                        views[0].page,
                        &chain_items,
                        views[0].phase,
                        &views[0].cstp,
                        arena,
                        memo,
                        &mut fwd,
                    );
                    for (&i, r) in members.iter().zip(results) {
                        chained.insert(i, r);
                    }
                    fused_items += members.len() as u64;
                    fused_batches += 1;
                }
            }
            self.counters.fused_forwards += fwd;
            self.counters.fused_items += fused_items;
            self.counters.fused_batches += fused_batches;

            // Stage 3: apply each item's chain result (candidate batch,
            // stats, lane tags) and buffer its outcome.
            for (&i, plan) in indices.iter().zip(&plans) {
                let item = &admitted[i];
                self.scratch.clear();
                let (lat, phase, events) = match *plan {
                    ServePlan::Fused { ready, .. } => {
                        if ready {
                            if let Some(pf) = self.slots[item.slot]
                                .ml
                                .as_deref_mut()
                                .and_then(|m| m.as_any_mut())
                                .and_then(|a| a.downcast_mut::<MpGraphPrefetcher>())
                            {
                                let res = chained.remove(&i).unwrap_or_default();
                                pf.apply_fused_chain(&item.access, res, &mut self.scratch);
                            }
                        }
                        match self.slots[item.slot].ml.as_mut() {
                            Some(ml) => (
                                ml.effective_latency(item.stall),
                                ml.current_phase_id(),
                                ml.pending_trace_events().to_vec(),
                            ),
                            None => (0, 0, Vec::new()),
                        }
                    }
                    ServePlan::Solo => match self.slots[item.slot].ml.as_mut() {
                        Some(ml) => {
                            ml.on_access(&item.access, &mut self.scratch);
                            (
                                ml.effective_latency(item.stall),
                                ml.current_phase_id(),
                                ml.pending_trace_events().to_vec(),
                            )
                        }
                        None => {
                            let s = &mut self.slots[item.slot];
                            s.fallback.on_access(&item.access, &mut self.scratch);
                            (0, 0, Vec::new())
                        }
                    },
                };
                outcomes[i] = Some(ItemOutcome {
                    candidates: self.scratch.clone(),
                    events,
                    lat,
                    phase,
                });
            }
        }

        // Commit in admitted order, each item's observable sequence being:
        // events → inference-latency observer → counters → latency
        // histogram → ready buffer → deadline observation.
        for (i, item) in admitted.into_iter().enumerate() {
            let outcome = outcomes[i].take().unwrap_or_default();
            self.clock += self.cfg.ml_item_cost + item.stall;
            for e in outcome.events {
                self.emit(e);
            }
            if let Some(sb) = self.scoreboard.as_mut() {
                use mpgraph_sim::PrefetchObserver;
                sb.on_inference_latency(outcome.lat);
            }
            self.counters.ml_processed += 1;
            self.slots[item.slot].stats.ml_served += 1;
            let latency = self.clock - item.enqueued_at;
            self.prediction_latency.record(latency);
            let id = self.slots[item.slot].id;
            self.ready.push(Prediction {
                stream: id,
                candidates: outcome.candidates,
                latency,
                via_fallback: false,
                phase: outcome.phase,
            });
            self.note_deadline_observation(item.slot, outcome.lat > self.cfg.deadline_cycles);
        }
    }

    /// Feeds one deadline observation into a stream's miss window and
    /// trips its quarantine when the miss fraction crosses the threshold.
    /// Observations come from two places: ML inferences the batch actually
    /// ran, and deferred items whose *own* stall already exceeded the
    /// per-item deadline (without the latter, a faulty stream whose every
    /// stalled item busts the batch deadline would be deferred to fallback
    /// forever and never accumulate evidence against itself).
    /// Already-quarantined streams are left alone; a pinned stream still
    /// observes, and its quarantine restarts the spell.
    fn note_deadline_observation(&mut self, slot: usize, missed: bool) {
        let s = &mut self.slots[slot];
        if s.quarantined() {
            return;
        }
        s.stats.deadline_observations += 1;
        s.stats.deadline_misses += u64::from(missed);
        if s.breaker.observe(missed) {
            s.trip(false);
            s.stats.quarantines += 1;
            let id = s.id;
            self.counters.quarantines += 1;
            self.emit(TraceEvent::StreamQuarantine { stream: id });
        }
    }

    /// Drains up to one batch of queued work through ML inference and
    /// appends every completed prediction (inline fallbacks included) to
    /// `out`. Returns the number of predictions appended.
    pub fn pump(&mut self, out: &mut Vec<Prediction>) -> usize {
        // Live telemetry is taken out for the duration of the pump so the
        // borrow checker lets it observe `self`; all timers are gated on
        // it being attached — without it this function runs the exact
        // pre-telemetry instruction sequence.
        let mut tel = self.livetel.take();
        let pump_started = tel.as_ref().map(|_| std::time::Instant::now());

        // Collect the batch round-robin across shards so one hot stream
        // cannot starve its siblings of batch slots.
        let mut batch: Vec<QueueItem> = Vec::with_capacity(self.cfg.batch_size);
        'fill: loop {
            let mut drained_any = false;
            for shard in self.shards.iter_mut() {
                if batch.len() >= self.cfg.batch_size {
                    break 'fill;
                }
                if let Some(item) = shard.pop() {
                    batch.push(item);
                    drained_any = true;
                }
            }
            if !drained_any {
                break;
            }
        }
        if let Some(t) = tel.as_mut() {
            // Queue wait on the deterministic cycle clock: admission ->
            // drain, per item.
            for item in &batch {
                t.stages
                    .queue_wait
                    .record(self.clock.saturating_sub(item.enqueued_at));
            }
        }

        if !batch.is_empty() {
            self.counters.batches += 1;
            // Per-batch deadline: spend the cycle budget on ML items in
            // order; once it is exhausted the rest of the batch times out
            // to the fallback rather than stalling the service. The split
            // is decided up front (identically to charging items one by
            // one) so the admitted prefix can be served as one fused
            // batch.
            let mut spent = 0u64;
            let mut admitted: Vec<QueueItem> = Vec::with_capacity(batch.len());
            let mut deferred: Vec<QueueItem> = Vec::new();
            for item in batch {
                let cost = self.cfg.ml_item_cost + item.stall;
                if !deferred.is_empty() || (spent + cost > self.cfg.batch_deadline && spent > 0) {
                    deferred.push(item);
                } else {
                    spent += cost;
                    admitted.push(item);
                }
            }
            if let (Some(t), Some(started)) = (tel.as_mut(), pump_started) {
                // Assembly = shard drain + deadline split, i.e. everything
                // in this pump before the forward stage.
                t.stages
                    .assembly
                    .record(started.elapsed().as_nanos() as u64);
            }
            let forward_started = tel.as_ref().map(|_| std::time::Instant::now());
            self.serve_admitted(admitted);
            if let (Some(t), Some(started)) = (tel.as_mut(), forward_started) {
                t.stages
                    .forward_f32
                    .record(started.elapsed().as_nanos() as u64);
            }
            if !deferred.is_empty() {
                self.counters.batch_timeouts += 1;
                self.counters.timeout_deferred += deferred.len() as u64;
                self.emit(TraceEvent::BatchTimeout {
                    deferred: u32::try_from(deferred.len()).unwrap_or(u32::MAX),
                });
                let deferred_started = tel.as_ref().map(|_| std::time::Instant::now());
                for item in deferred {
                    // A deferral caused by the item's own stall is this
                    // stream's deadline miss; a clean item squeezed out by
                    // a slow sibling records nothing against its stream.
                    if item.stall > self.cfg.deadline_cycles {
                        self.note_deadline_observation(item.slot, true);
                    }
                    let at = Some(item.enqueued_at);
                    self.serve_fallback(item.slot, &item.access, item.stall, at);
                }
                if let (Some(t), Some(started)) = (tel.as_mut(), deferred_started) {
                    t.stages
                        .deferred
                        .record(started.elapsed().as_nanos() as u64);
                }
            }
        }

        // Close the telemetry interval *before* the ladder runs so a
        // fresh SLO verdict escalates on this same pump, not the next one.
        let mut slo_hot = false;
        if let Some(t) = tel.as_mut() {
            if t.interval_due() {
                let m = self.base_metrics();
                let events = t.close_interval(self.trace_now(), self.clock, &m);
                for e in events {
                    self.emit(e);
                }
            }
            slo_hot = t.ladder_hot();
        }
        self.run_ladder(slo_hot);
        if let (Some(t), Some(started)) = (tel.as_mut(), pump_started) {
            t.stages.totals.pump_wall_ns += started.elapsed().as_nanos() as u64;
        }
        self.livetel = tel;
        let produced = self.ready.len();
        out.append(&mut self.ready);
        produced
    }

    /// Overload-ladder controller, evaluated once per pump. `slo_hot`
    /// is the SLO monitor's contribution: a Breach verdict (with
    /// `wire_ladder` on) counts as a hot pump even when the queues look
    /// calm, so a burning error budget escalates through the same
    /// hysteretic streaks as queue pressure does.
    fn run_ladder(&mut self, slo_hot: bool) {
        let queued: usize = self.shards.iter().map(BoundedQueue::len).sum();
        let capacity: usize = self.shards.iter().map(BoundedQueue::capacity).sum();
        let fill = queued as f64 / capacity.max(1) as f64;
        let hot = fill >= self.cfg.high_watermark || self.queue_full_since_pump || slo_hot;
        self.queue_full_since_pump = false;
        if hot {
            self.cool_streak = 0;
            self.hot_streak += 1;
            if self.hot_streak >= self.cfg.escalate_pumps && self.level < 2 {
                self.level += 1;
                self.hot_streak = 0;
                self.counters.escalations += 1;
                self.emit(TraceEvent::OverloadShed { level: self.level });
            }
        } else if fill <= self.cfg.low_watermark {
            self.hot_streak = 0;
            self.cool_streak += 1;
            if self.cool_streak >= self.cfg.hysteresis_pumps && self.level > 0 {
                self.level -= 1;
                self.cool_streak = 0;
                self.counters.deescalations += 1;
                self.emit(TraceEvent::OverloadRecover { level: self.level });
            }
        } else {
            // Between the watermarks: neither streak accumulates, so both
            // transitions require an unbroken run in their own band.
            self.hot_streak = 0;
            self.cool_streak = 0;
        }
    }

    /// Pumps until every queue is empty, appending predictions to `out`.
    pub fn flush(&mut self, out: &mut Vec<Prediction>) {
        while self.queued() > 0 || !self.ready.is_empty() {
            self.pump(out);
        }
    }

    /// Total items currently queued across all shards.
    pub fn queued(&self) -> usize {
        self.shards.iter().map(BoundedQueue::len).sum()
    }

    /// Current overload-ladder level (0 = normal).
    pub fn overload_level(&self) -> u8 {
        self.level
    }

    /// Whether `stream` is currently quarantined by its deadline guard.
    pub fn is_quarantined(&self, stream: u32) -> bool {
        self.index
            .get(&stream)
            .map(|&i| self.slots[i].quarantined())
            .unwrap_or(false)
    }

    /// Deterministic service clock (cycles).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The attached metrics/trace backend, if any.
    pub fn scoreboard(&self) -> Option<&PrefetchScoreboard> {
        self.scoreboard.as_ref()
    }

    /// Serving-layer counters with the live-telemetry rollups (stage
    /// spans, SLO state, interval series) folded in when attached.
    pub fn metrics(&self) -> ServeMetrics {
        let mut m = self.base_metrics();
        if let Some(tel) = self.livetel.as_deref() {
            tel.overlay(&mut m);
        }
        m
    }

    /// The raw serving-layer counters, without the live-telemetry
    /// overlay. This is what interval derivation diffs against — it must
    /// not depend on telemetry state, or the delta math would feed back
    /// into itself.
    fn base_metrics(&self) -> ServeMetrics {
        let mut m = ServeMetrics {
            overload_level: u64::from(self.level),
            degraded_streams: self.slots.iter().filter(|s| s.breaker.is_open()).count() as u64,
            prediction_latency: self.prediction_latency.snapshot(),
            deferred_latency: self.deferred_latency.snapshot(),
            per_stream: self
                .slots
                .iter()
                .map(|s| StreamServeMetrics {
                    // Recovery progress for a stream off the ML path: the
                    // cooldown accesses still owed (clean-streak and
                    // ladder conditions come on top, so 0 here does not
                    // by itself mean "recovering next access").
                    cooldown_remaining: s.breaker.cooldown_remaining(s.stats.fallback_served),
                    ..s.stats.clone()
                })
                .collect(),
            ..self.counters.clone()
        };
        m.update_rates();
        m
    }

    /// Full pipeline snapshot: the scoreboard's view (windows, trace
    /// stats) with the serving-layer counters and every ML stream's CSTP,
    /// detector and controller counters, merged in slot order, folded in.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self
            .scoreboard
            .as_ref()
            .map(PrefetchScoreboard::snapshot)
            .unwrap_or_default();
        snap.serve = self.metrics();
        for slot in &self.slots {
            let ml = slot.ml.as_deref().and_then(|m| m.as_any());
            if let Some(pf) = ml.and_then(|a| a.downcast_ref::<MpGraphPrefetcher>()) {
                snap.cstp.merge_at(&pf.cstp_stats, 0);
                snap.detector.merge_at(&pf.detector_metrics(), 0);
                snap.controller.merge_at(&pf.controller_metrics(), 0);
            }
        }
        snap
    }

    /// The Perfetto export for this service, including the live-telemetry
    /// counter tracks (interval rates, burn rate, verdict) when telemetry
    /// is attached. `None` without a tracing scoreboard.
    pub fn chrome_trace(&self) -> Option<serde::Value> {
        let sb = self.scoreboard.as_ref()?;
        let mut shard = sb.shard_trace("mpgraph")?;
        if let Some(tel) = self.livetel.as_deref() {
            shard.live = tel.summaries().to_vec();
        }
        Some(crate::trace::chrome_trace_json_sharded(
            std::slice::from_ref(&shard),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgraph_sim::{PrefetchTag, TraceEvent};

    /// Deterministic test double: fixed candidates, configurable latency.
    struct FakeMl {
        latency: u64,
        phase: u8,
        trace_on: bool,
        events: Vec<TraceEvent>,
    }

    impl FakeMl {
        fn new(latency: u64) -> Self {
            FakeMl {
                latency,
                phase: 1,
                trace_on: false,
                events: Vec::new(),
            }
        }
    }

    impl Prefetcher for FakeMl {
        fn name(&self) -> String {
            "fake-ml".into()
        }
        fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
            if self.trace_on {
                self.events.clear();
                self.events.push(TraceEvent::PhaseArmed);
            }
            out.push(a.block + 1);
            out.push(a.block + 2);
        }
        fn latency(&self) -> u64 {
            self.latency
        }
        fn effective_latency(&mut self, injected_stall: u64) -> u64 {
            self.latency + injected_stall
        }
        fn current_phase_id(&self) -> u8 {
            self.phase
        }
        fn enable_trace_events(&mut self, on: bool) {
            self.trace_on = on;
            self.events.clear();
        }
        fn pending_trace_events(&self) -> &[TraceEvent] {
            &self.events
        }
        fn last_batch_tags(&self) -> &[PrefetchTag] {
            &[]
        }
    }

    fn acc(block: u64) -> LlcAccess {
        LlcAccess {
            pc: 0x400000 + (block % 7) * 4,
            block,
            core: 0,
            is_write: false,
            hit: false,
            cycle: 0,
        }
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            num_shards: 2,
            queue_capacity: 4,
            batch_size: 4,
            batch_deadline: 1024,
            ml_item_cost: 10,
            fallback_item_cost: 1,
            escalate_pumps: 2,
            hysteresis_pumps: 3,
            stream_miss_window: 4,
            stream_trip_fraction: 0.5,
            stream_cooldown: 8,
            stream_recover_clean: 4,
            deadline_cycles: 100,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn bounded_queue_refuses_beyond_capacity() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        assert_eq!(q.push(3), Err(3));
        assert!(q.is_full());
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3).is_ok());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn healthy_stream_round_trips_through_ml_batch() {
        let mut svc = PrefetchService::new(small_cfg());
        svc.register_stream(7, Box::new(FakeMl::new(5)));
        assert_eq!(svc.ingest(7, &acc(100), 0), Admission::Queued);
        let mut out = Vec::new();
        svc.pump(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].stream, 7);
        assert_eq!(out[0].candidates, vec![101, 102]);
        assert!(!out[0].via_fallback);
        assert_eq!(out[0].phase, 1);
        let m = svc.metrics();
        assert_eq!(m.ml_processed, 1);
        assert_eq!(m.fallback_processed, 0);
        assert_eq!(m.shed_fraction, 0.0);
    }

    #[test]
    fn unregistered_stream_gets_fallback_only_service() {
        let mut svc = PrefetchService::new(small_cfg());
        let a = svc.ingest(42, &acc(10), 0);
        assert_eq!(a, Admission::Degraded);
        let mut out = Vec::new();
        svc.pump(&mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].via_fallback);
        let m = svc.metrics();
        assert_eq!(m.fallback_processed, 1);
        // Fallback-only streams are not "degraded" — they never had ML.
        assert_eq!(m.degraded_accesses, 0);
        assert_eq!(m.degraded_streams, 0);
    }

    #[test]
    fn full_queue_sheds_inline_and_reports_backpressure() {
        let cfg = ServeConfig {
            num_shards: 1,
            queue_capacity: 2,
            ..small_cfg()
        };
        let mut svc = PrefetchService::new(cfg);
        svc.register_stream(0, Box::new(FakeMl::new(5)));
        assert_eq!(svc.ingest(0, &acc(1), 0), Admission::Queued);
        assert_eq!(svc.ingest(0, &acc(2), 0), Admission::Queued);
        assert_eq!(svc.ingest(0, &acc(3), 0), Admission::QueueFull);
        let m = svc.metrics();
        assert_eq!(m.shed_queue_full, 1);
        // The shed access still produced a (fallback) prediction.
        assert_eq!(m.fallback_processed, 1);
        assert!(m.shed_fraction > 0.0);
    }

    #[test]
    fn sustained_pressure_climbs_the_ladder_and_recovers() {
        let cfg = ServeConfig {
            num_shards: 1,
            queue_capacity: 2,
            batch_size: 1,
            ..small_cfg()
        };
        let mut svc = PrefetchService::new(cfg);
        svc.register_stream(0, Box::new(FakeMl::new(5)));
        let mut out = Vec::new();
        // Overdrive: 3 ingests per single-item pump keeps the queue full.
        let mut b = 0u64;
        for _ in 0..8 {
            for _ in 0..3 {
                b += 1;
                svc.ingest(0, &acc(b), 0);
            }
            svc.pump(&mut out);
        }
        assert!(svc.overload_level() >= 1, "ladder never escalated");
        let escalations = svc.metrics().escalations;
        assert!(escalations >= 1);
        // Starve it: pumps with no ingest drain the queue and calm the
        // ladder after the hysteresis run.
        for _ in 0..20 {
            svc.pump(&mut out);
        }
        assert_eq!(svc.overload_level(), 0, "ladder never de-escalated");
        assert!(svc.metrics().deescalations >= 1);
    }

    #[test]
    fn level_two_pin_recovers_only_after_calm_ladder_cooldown_and_clean_run() {
        let cfg = ServeConfig {
            num_shards: 1,
            queue_capacity: 16,
            batch_size: 1,
            ..small_cfg()
        };
        let sb = PrefetchScoreboard::with_trace(2, 256, crate::TraceConfig::default());
        let mut svc = PrefetchService::with_scoreboard(cfg, sb);
        svc.register_stream(0, Box::new(FakeMl::new(5)));
        let mut out = Vec::new();
        // A full queue drained one item per pump stays above the high
        // watermark for four pumps: two escalations, to level 2.
        for b in 0..=16u64 {
            svc.ingest(0, &acc(b), 0);
        }
        let mut pumps = 0;
        while svc.overload_level() < 2 {
            svc.pump(&mut out);
            pumps += 1;
            assert!(pumps < 16, "ladder never reached level 2");
        }
        assert_eq!(svc.metrics().degraded_accesses, 0);

        // One access of the stream, then one pump; `n` counts them.
        fn step(
            svc: &mut PrefetchService,
            out: &mut Vec<Prediction>,
            n: &mut u64,
            stall: u64,
        ) -> Admission {
            *n += 1;
            let admission = svc.ingest(0, &acc(100 + *n), stall);
            svc.pump(out);
            admission
        }
        // Level 2 pins the healthy stream on its next access.
        let mut pinned_fallbacks = 0u64;
        let n = &mut pinned_fallbacks;
        assert_eq!(step(&mut svc, &mut out, n, 0), Admission::Shed);
        assert_eq!(svc.metrics().degraded_streams, 1);

        // Clean fallback service while the ladder calms down: the
        // cooldown and the clean run are met long before level 0, yet
        // the pin holds until the ladder is back at 0.
        while svc.overload_level() > 0 {
            assert_eq!(step(&mut svc, &mut out, n, 0), Admission::Degraded);
            assert!(!svc.is_quarantined(0), "a pinned stream is not quarantined");
            assert_eq!(svc.metrics().stream_recoveries, 0);
            assert!(*n < 64, "ladder never calmed");
        }
        let m = svc.metrics();
        assert!(*n > cfg.stream_cooldown + u64::from(cfg.stream_recover_clean));
        assert_eq!(m.per_stream[0].cooldown_remaining, 0);
        assert_eq!(m.degraded_streams, 1);

        // One stalled access restarts the clean run: recovery takes a
        // full clean run from there, and not one access less.
        assert_eq!(step(&mut svc, &mut out, n, 10_000), Admission::Degraded);
        for _ in 1..cfg.stream_recover_clean {
            assert_eq!(step(&mut svc, &mut out, n, 0), Admission::Degraded);
            assert_eq!(svc.metrics().degraded_streams, 1);
        }
        assert_eq!(step(&mut svc, &mut out, n, 0), Admission::Degraded);
        let m = svc.metrics();
        assert_eq!(m.degraded_streams, 0, "stream never recovered");
        assert_eq!(m.stream_recoveries, 1);
        assert_eq!(m.quarantines, 0);
        assert_eq!(m.degraded_accesses, pinned_fallbacks);
        assert_eq!(svc.ingest(0, &acc(999), 0), Admission::Queued);

        let events = svc
            .scoreboard()
            .map(|sb| sb.trace_events())
            .unwrap_or_default();
        let recovers = events
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::StreamRecover { stream: 0 }))
            .count();
        assert_eq!(recovers, 1);
    }

    #[test]
    fn slow_stream_quarantined_without_touching_siblings() {
        let mut svc = PrefetchService::new(small_cfg());
        svc.register_stream(1, Box::new(FakeMl::new(5)));
        svc.register_stream(2, Box::new(FakeMl::new(5)));
        let mut out = Vec::new();
        // Stream 1 suffers injected stalls far past the deadline; stream 2
        // stays clean. Interleave so both see traffic.
        for i in 0..16u64 {
            svc.ingest(1, &acc(i), 500);
            svc.ingest(2, &acc(1000 + i), 0);
            svc.pump(&mut out);
        }
        assert!(svc.is_quarantined(1), "faulty stream not quarantined");
        assert!(!svc.is_quarantined(2), "healthy sibling was quarantined");
        let m = svc.metrics();
        assert_eq!(m.quarantines, 1);
        assert_eq!(m.degraded_streams, 1);
        // Stream 2 keeps full ML service throughout.
        let s2: Vec<&Prediction> = out.iter().filter(|p| p.stream == 2).collect();
        assert!(s2.iter().all(|p| !p.via_fallback));
    }

    #[test]
    fn quarantined_stream_recovers_after_clean_cooldown() {
        let cfg = ServeConfig {
            stream_cooldown: 4,
            stream_recover_clean: 2,
            ..small_cfg()
        };
        let mut svc = PrefetchService::new(cfg);
        svc.register_stream(1, Box::new(FakeMl::new(5)));
        let mut out = Vec::new();
        for i in 0..8u64 {
            svc.ingest(1, &acc(i), 500);
            svc.pump(&mut out);
        }
        assert!(svc.is_quarantined(1));
        // Clean accesses served by the fallback cool the stream down.
        for i in 0..8u64 {
            svc.ingest(1, &acc(100 + i), 0);
            svc.pump(&mut out);
        }
        assert!(!svc.is_quarantined(1), "stream never recovered");
        assert_eq!(svc.metrics().stream_recoveries, 1);
    }

    #[test]
    fn batch_deadline_defers_remainder_to_fallback() {
        let cfg = ServeConfig {
            num_shards: 1,
            queue_capacity: 8,
            batch_size: 8,
            batch_deadline: 25,
            ml_item_cost: 10,
            ..small_cfg()
        };
        let mut svc = PrefetchService::new(cfg);
        svc.register_stream(0, Box::new(FakeMl::new(5)));
        for i in 0..4u64 {
            svc.ingest(0, &acc(i), 0);
        }
        let mut out = Vec::new();
        svc.pump(&mut out);
        // 25-cycle budget fits two 10-cycle items; the other two defer.
        assert_eq!(out.len(), 4);
        let m = svc.metrics();
        assert_eq!(m.ml_processed, 2);
        assert_eq!(m.batch_timeouts, 1);
        assert_eq!(m.timeout_deferred, 2);
        assert_eq!(out.iter().filter(|p| p.via_fallback).count(), 2);
    }

    #[test]
    fn batch_timeout_events_match_deferred_counter() {
        // Satellite of the u16 -> u32 widen: every BatchTimeout event's
        // payload must sum to exactly `timeout_deferred` — the old
        // saturating u16 cast broke this parity on big deferrals.
        let sb = PrefetchScoreboard::with_trace(2, 256, crate::TraceConfig::default());
        let cfg = ServeConfig {
            num_shards: 1,
            queue_capacity: 16,
            batch_size: 8,
            batch_deadline: 25,
            ml_item_cost: 10,
            ..small_cfg()
        };
        let mut svc = PrefetchService::with_scoreboard(cfg, sb);
        svc.register_stream(0, Box::new(FakeMl::new(5)));
        let mut out = Vec::new();
        for round in 0..4u64 {
            for i in 0..6u64 {
                svc.ingest(0, &acc(round * 10 + i), 0);
            }
            svc.pump(&mut out);
        }
        let m = svc.metrics();
        assert!(m.batch_timeouts >= 2, "scenario never hit the deadline");
        let event_sum: u64 = svc
            .scoreboard()
            .map(|sb| sb.trace_events())
            .unwrap_or_default()
            .iter()
            .map(|(_, e)| match e {
                TraceEvent::BatchTimeout { deferred } => u64::from(*deferred),
                _ => 0,
            })
            .sum();
        assert_eq!(event_sum, m.timeout_deferred, "events and counter diverge");
    }

    #[test]
    fn deferred_fallback_latency_includes_queue_wait() {
        let cfg = ServeConfig {
            num_shards: 1,
            queue_capacity: 8,
            batch_size: 8,
            batch_deadline: 25,
            ml_item_cost: 10,
            ..small_cfg()
        };
        let mut svc = PrefetchService::new(cfg);
        svc.register_stream(0, Box::new(FakeMl::new(5)));
        for i in 0..4u64 {
            svc.ingest(0, &acc(i), 0);
        }
        let mut out = Vec::new();
        svc.pump(&mut out);
        let m = svc.metrics();
        assert_eq!(m.timeout_deferred, 2);
        assert_eq!(m.deferred_fallback_processed, 2);
        assert_eq!(m.deferred_latency.count, 2);
        // Regression: deferred items used to be stamped with the bare
        // fallback cost, hiding their queue wait. The honest latency spans
        // admission -> completion, which includes the two ML items served
        // ahead of them — strictly greater than the fallback cost.
        let deferred: Vec<&Prediction> = out.iter().filter(|p| p.via_fallback).collect();
        assert_eq!(deferred.len(), 2);
        for p in &deferred {
            assert!(
                p.latency > cfg.fallback_item_cost,
                "deferred latency {} hides its queue wait",
                p.latency
            );
        }
        assert!(m.deferred_latency.p50 > cfg.fallback_item_cost);
        // Inline fallbacks (never queued) keep their own cheap accounting:
        // none here, so the aggregate fallback count is the deferred pair.
        assert_eq!(m.fallback_processed, 2);
    }

    #[test]
    fn per_stream_metrics_attribute_service_paths() {
        let mut svc = PrefetchService::new(small_cfg());
        svc.register_stream(1, Box::new(FakeMl::new(5)));
        svc.register_stream(2, Box::new(FakeMl::new(5)));
        let mut out = Vec::new();
        for i in 0..16u64 {
            svc.ingest(1, &acc(i), 500);
            svc.ingest(2, &acc(1000 + i), 0);
            svc.pump(&mut out);
        }
        let m = svc.metrics();
        assert_eq!(m.per_stream.len(), 2);
        let s1 = &m.per_stream[0];
        let s2 = &m.per_stream[1];
        assert_eq!((s1.id, s2.id), (1, 2));
        assert_eq!(s1.quarantines, 1, "faulty stream quarantine not attributed");
        assert_eq!(s2.quarantines, 0);
        assert!(s1.deadline_miss_fraction() > 0.0);
        assert_eq!(s2.deadline_misses, 0);
        assert!(
            s1.fallback_served > 0,
            "quarantined stream serves via fallback"
        );
        assert!(s2.ml_served > 0);
        // Per-stream counters reconcile with the aggregates.
        let ml: u64 = m.per_stream.iter().map(|s| s.ml_served).sum();
        let fb: u64 = m.per_stream.iter().map(|s| s.fallback_served).sum();
        assert_eq!(ml, m.ml_processed);
        assert_eq!(fb, m.fallback_processed);
        // Non-MPGraph prefetchers take the solo path: no fused activity.
        assert_eq!(
            (m.fused_items, m.fused_forwards, m.fused_batches),
            (0, 0, 0)
        );
    }

    #[test]
    fn service_events_reach_the_scoreboard_recorder() {
        let sb = PrefetchScoreboard::with_trace(2, 64, crate::TraceConfig::default());
        let mut svc = PrefetchService::with_scoreboard(small_cfg(), sb);
        svc.register_stream(1, Box::new(FakeMl::new(5)));
        let mut out = Vec::new();
        for i in 0..16u64 {
            svc.ingest(1, &acc(i), 500);
            svc.pump(&mut out);
        }
        assert!(svc.is_quarantined(1));
        let events = svc
            .scoreboard()
            .map(|sb| sb.trace_events())
            .unwrap_or_default();
        assert!(
            events
                .iter()
                .any(|(_, e)| matches!(e, TraceEvent::StreamQuarantine { stream: 1 })),
            "no quarantine event recorded: {events:?}"
        );
        let snap = svc.snapshot();
        assert_eq!(snap.serve.quarantines, 1);
        assert_eq!(snap.serve.ingested, 16);
    }

    #[test]
    fn access_path_never_blocks_under_overdrive() {
        // 2x the service's drain rate, no pump starvation: every ingest
        // returns immediately with an admission decision and a prediction
        // eventually lands for every access.
        let cfg = ServeConfig {
            num_shards: 2,
            queue_capacity: 4,
            batch_size: 2,
            ..small_cfg()
        };
        let mut svc = PrefetchService::new(cfg);
        for s in 0..4u32 {
            svc.register_stream(s, Box::new(FakeMl::new(5)));
        }
        let mut out = Vec::new();
        let mut b = 0u64;
        for _ in 0..64 {
            for s in 0..4u32 {
                b += 1;
                svc.ingest(s, &acc(b), 0);
            }
            svc.pump(&mut out);
        }
        svc.flush(&mut out);
        let m = svc.metrics();
        assert_eq!(m.ingested, 256);
        assert_eq!(out.len(), 256, "every access must yield a prediction");
        assert_eq!(m.ml_processed + m.fallback_processed, 256);
        assert!(m.shed_fraction > 0.0, "2x overdrive must shed something");
        let p99 = m.prediction_latency.p99;
        assert!(p99 > 0 && p99 < 10_000, "p99 unbounded: {p99}");
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        assert!(ServeConfig::default().try_new().is_ok());
        for bad in [
            ServeConfig {
                num_shards: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_capacity: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                low_watermark: 0.9,
                high_watermark: 0.5,
                ..ServeConfig::default()
            },
            ServeConfig {
                stream_trip_fraction: 1.5,
                ..ServeConfig::default()
            },
        ] {
            assert!(bad.try_new().is_err());
        }
    }

    #[test]
    fn live_telemetry_attached_is_equivalent_to_plain_run() {
        use crate::livetel::{LiveTelemetry, LiveTelemetryConfig};
        // Same healthy workload through a plain service and one with live
        // telemetry attached (no sinks): the observer discipline requires
        // identical predictions, counters, and clock — telemetry may only
        // watch, never steer, while the verdict stays Ok.
        let run = |live: bool| {
            let mut svc = PrefetchService::new(small_cfg());
            if live {
                svc.enable_live_telemetry(LiveTelemetry::new(LiveTelemetryConfig {
                    interval_pumps: 2,
                    ..LiveTelemetryConfig::default()
                }));
            }
            svc.register_stream(0, Box::new(FakeMl::new(10)));
            svc.register_stream(1, Box::new(FakeMl::new(10)));
            let mut out = Vec::new();
            for i in 0..200u64 {
                svc.ingest((i % 2) as u32, &acc(i), 0);
                if i % 3 == 0 {
                    svc.pump(&mut out);
                }
            }
            svc.flush(&mut out);
            svc.finish_live_telemetry();
            let preds: Vec<(u32, Vec<u64>, u64, bool)> = out
                .into_iter()
                .map(|p| (p.stream, p.candidates, p.latency, p.via_fallback))
                .collect();
            (preds, svc.clock(), svc.base_metrics())
        };
        let (plain_preds, plain_clock, plain_m) = run(false);
        let (live_preds, live_clock, live_m) = run(true);
        assert_eq!(plain_preds, live_preds);
        assert_eq!(plain_clock, live_clock);
        assert_eq!(plain_m.ingested, live_m.ingested);
        assert_eq!(plain_m.ml_processed, live_m.ml_processed);
        assert_eq!(plain_m.fallback_processed, live_m.fallback_processed);
        assert_eq!(plain_m.escalations, live_m.escalations);
        assert_eq!(plain_m.per_stream, live_m.per_stream);
    }

    #[test]
    fn live_run_closes_intervals_and_reports_stage_spans() {
        use crate::livetel::{LiveTelemetry, LiveTelemetryConfig};
        let mut svc = PrefetchService::new(small_cfg());
        svc.enable_live_telemetry(LiveTelemetry::new(LiveTelemetryConfig {
            interval_pumps: 2,
            ..LiveTelemetryConfig::default()
        }));
        svc.register_stream(0, Box::new(FakeMl::new(10)));
        let mut out = Vec::new();
        for i in 0..100u64 {
            svc.ingest(0, &acc(i), 0);
            svc.pump(&mut out);
        }
        svc.flush(&mut out);
        svc.finish_live_telemetry();
        let m = svc.metrics();
        assert!(!m.live.is_empty(), "no telemetry intervals closed");
        // Cumulative deltas reconcile with the final counters.
        let total: u64 = m.live.iter().map(|iv| iv.delta_ingested).sum();
        assert_eq!(total, m.ingested);
        for w in m.live.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
            assert!(w[1].end_cycle >= w[0].end_cycle);
        }
        // Stage spans were recorded: every pump with queued work timed a
        // forward pass, and pump wall time dominates telemetry time.
        assert!(m.pump_stages.forward_f32_ns.count > 0);
        assert!(m.pump_stages.queue_wait_cycles.count > 0);
        assert!(m.pump_stages.pump_wall_ns > 0);
        assert!(m.pump_stages.self_overhead_fraction >= 0.0);
    }

    #[test]
    fn slo_breach_escalates_the_overload_ladder_without_queue_pressure() {
        use crate::livetel::{LiveTelemetry, LiveTelemetryConfig, SloConfig};
        // Every inference stalls past the deadline, but the queues are
        // pumped after every access so the fill fraction never crosses the
        // high watermark: only the SLO monitor's Breach verdict can make
        // pumps hot. stream_miss_window is left large so the per-stream
        // quarantine path stays out of the picture.
        let cfg = ServeConfig {
            stream_miss_window: 10_000,
            ..small_cfg()
        };
        let mut svc = PrefetchService::new(cfg);
        svc.enable_live_telemetry(LiveTelemetry::new(LiveTelemetryConfig {
            interval_pumps: 2,
            slo: SloConfig {
                budget_miss_fraction: 0.05,
                fast_burn: 2.0,
                window_intervals: 1,
                wire_ladder: true,
                ..SloConfig::default()
            },
            ..LiveTelemetryConfig::default()
        }));
        svc.register_stream(0, Box::new(FakeMl::new(10)));
        let mut out = Vec::new();
        for i in 0..120u64 {
            svc.ingest(0, &acc(i), 10_000);
            svc.pump(&mut out);
        }
        // The ladder may have de-escalated again by now (shedding stops
        // the burn, which cools the verdict), so check the cumulative
        // escalation counter, not the instantaneous level.
        let m = svc.metrics();
        assert!(m.escalations > 0, "SLO breach never escalated the ladder");
        assert!(m.slo.escalations > 0);
        assert!(m.slo.worst_burn_rate >= 2.0);

        // Identical run with the SLO unwired: same misses, but calm
        // queues keep the ladder at zero — the escalation above was the
        // monitor's doing, not hidden queue pressure.
        let cfg = ServeConfig {
            stream_miss_window: 10_000,
            ..small_cfg()
        };
        let mut unwired = PrefetchService::new(cfg);
        unwired.enable_live_telemetry(LiveTelemetry::new(LiveTelemetryConfig {
            interval_pumps: 2,
            slo: SloConfig {
                budget_miss_fraction: 0.05,
                fast_burn: 2.0,
                window_intervals: 1,
                wire_ladder: false,
                ..SloConfig::default()
            },
            ..LiveTelemetryConfig::default()
        }));
        unwired.register_stream(0, Box::new(FakeMl::new(10)));
        for i in 0..120u64 {
            unwired.ingest(0, &acc(i), 10_000);
            unwired.pump(&mut out);
        }
        let um = unwired.metrics();
        assert_eq!(um.escalations, 0);
        assert_eq!(unwired.overload_level(), 0);
        assert!(um.slo.escalations > 0);
    }

    #[test]
    fn cooldown_remaining_surfaces_quarantine_recovery_progress() {
        let cfg = small_cfg();
        let cooldown = cfg.stream_cooldown;
        let mut svc = PrefetchService::new(cfg);
        svc.register_stream(0, Box::new(FakeMl::new(10)));
        let mut out = Vec::new();
        // Healthy stream: no cooldown owed.
        svc.ingest(0, &acc(0), 0);
        svc.pump(&mut out);
        assert_eq!(svc.metrics().per_stream[0].cooldown_remaining, 0);
        // Stall every inference until the stream quarantines.
        let mut i = 1u64;
        while !svc.is_quarantined(0) && i < 200 {
            svc.ingest(0, &acc(i), 10_000);
            svc.pump(&mut out);
            i += 1;
        }
        assert!(svc.is_quarantined(0));
        let owed = svc.metrics().per_stream[0].cooldown_remaining;
        assert_eq!(owed, cooldown, "full cooldown owed at quarantine entry");
        // Clean fallback service pays the cooldown down monotonically.
        svc.ingest(0, &acc(500), 0);
        svc.pump(&mut out);
        let after = svc.metrics().per_stream[0].cooldown_remaining;
        assert_eq!(after, cooldown - 1);
        // Run to recovery: the counter returns to zero.
        for j in 0..50u64 {
            svc.ingest(0, &acc(600 + j), 0);
            svc.pump(&mut out);
        }
        assert!(!svc.is_quarantined(0));
        assert_eq!(svc.metrics().per_stream[0].cooldown_remaining, 0);
    }

    /// One memo for every fused group: streams 0 and 1 hold the trained
    /// page predictor and streams 2 and 3 one of the same vocabulary with
    /// other weights, so each wave forms two groups whose windows are
    /// equal. Fed the same recurring records, the fused service serves
    /// every prediction exactly as the same streams served per item.
    #[test]
    fn fused_service_memo_across_two_weight_sets_matches_per_item_service() {
        use crate::prefetcher::tests::{access, quick_cfg, reseeded_page, workload};
        use crate::prefetcher::{build_detector, train_mpgraph};
        let train = workload(1);
        let (cfg, tc) = quick_cfg();
        let trained = train_mpgraph(&train, 2, cfg, &tc);
        let reseeded = reseeded_page(&train);
        let records = workload(2);
        let run = |fuse: bool| {
            let mut svc = PrefetchService::new(ServeConfig {
                fuse,
                ..ServeConfig::default()
            });
            for s in 0..4u32 {
                let page = if s < 2 { &trained.page } else { &reseeded };
                svc.register_stream(
                    s,
                    Box::new(MpGraphPrefetcher::from_parts(
                        trained.delta.clone(),
                        page.clone(),
                        build_detector(&train, 2, cfg.detector),
                        cfg,
                        2,
                        tc.history,
                    )),
                );
            }
            let mut out = Vec::new();
            for r in &records {
                for s in 0..4u32 {
                    svc.ingest(s, &access(r), 0);
                }
                svc.pump(&mut out);
            }
            svc.flush(&mut out);
            (out, svc.snapshot())
        };
        let (fused, snap) = run(true);
        let (solo, solo_snap) = run(false);
        let m = &snap.serve;
        assert!(
            m.ml_processed > 0 && m.fused_items > m.fused_batches,
            "{m:?}"
        );
        assert_eq!(solo_snap.serve.fused_items, 0);
        assert!(
            snap.cstp.page_memo_hits > 0,
            "the fused walks never hit the memo"
        );
        // The snapshot carries the streams' CSTP counters. The fused memo is
        // shared across streams, so only its hit counts may differ.
        assert!(
            snap.cstp.batches > 0 && snap.cstp.pbot_hits > 0,
            "{:?}",
            snap.cstp
        );
        assert_eq!(snap.cstp.sans_memo(), solo_snap.cstp.sans_memo());
        // It carries their detector and controller counters too, summed
        // over the streams, and both pumps feed them the same accesses.
        let d = &snap.detector;
        assert!(!d.name.is_empty() && d.updates > 0, "{d:?}");
        assert!(snap.controller.observations > 0, "{:?}", snap.controller);
        assert_eq!(format!("{d:?}"), format!("{:?}", solo_snap.detector));
        assert_eq!(
            format!("{:?}", snap.controller),
            format!("{:?}", solo_snap.controller)
        );
        let key = |p: &Prediction| {
            (
                p.stream,
                p.candidates.clone(),
                p.latency,
                p.via_fallback,
                p.phase,
            )
        };
        assert_eq!(fused.len(), solo.len());
        for (i, (a, b)) in fused.iter().zip(&solo).enumerate() {
            assert_eq!(key(a), key(b), "prediction {i}");
        }
        // The two weight sets predict differently on these windows, so a
        // memo that mixed them up would show above.
        let by_stream = |s: u32| -> Vec<Vec<u64>> {
            fused
                .iter()
                .filter(|p| p.stream == s && !p.via_fallback)
                .map(|p| p.candidates.clone())
                .collect()
        };
        assert_ne!(by_stream(0), by_stream(2));
    }

    #[test]
    fn service_chrome_trace_includes_livetel_counter_track() {
        use crate::livetel::{LiveTelemetry, LiveTelemetryConfig};
        use crate::trace::TraceConfig;
        let sb = crate::obs::PrefetchScoreboard::with_trace(2, 1024, TraceConfig::default());
        let mut svc = PrefetchService::with_scoreboard(small_cfg(), sb);
        svc.enable_live_telemetry(LiveTelemetry::new(LiveTelemetryConfig {
            interval_pumps: 2,
            ..LiveTelemetryConfig::default()
        }));
        svc.register_stream(0, Box::new(FakeMl::new(10)));
        let mut out = Vec::new();
        for i in 0..40u64 {
            svc.ingest(0, &acc(i), 0);
            svc.pump(&mut out);
        }
        svc.flush(&mut out);
        svc.finish_live_telemetry();
        let trace = svc.chrome_trace().expect("tracing scoreboard attached");
        let text = serde_json::to_string(&trace).expect("serializable");
        assert!(text.contains("telemetry-interval"));
        assert!(text.contains("shed_fraction"));
        assert!(text.contains("slo_burn_rate"));
    }
}
