//! Graceful degradation for the ML prefetching path (§6 practicality,
//! taken to deployment): a [`DegradationGuard`] wraps an ML-backed
//! prefetcher, watches two health signals — inference deadline misses and
//! rolling prediction accuracy — and swaps in the rule-based Best-Offset
//! prefetcher when the ML path goes unhealthy. Recovery is hysteretic:
//! the guard returns to the ML path only after a cooldown *and* a run of
//! consecutive healthy inference observations, so a flapping accelerator
//! cannot thrash the policy.
//!
//! While degraded, the guard keeps feeding accesses to the ML model
//! (shadow mode, predictions discarded) so its histories stay warm and its
//! shadow accuracy remains measurable for the recovery decision.
//!
//! The trip and recovery rules are one primitive, [`Breaker`], which the
//! per-stream quarantine of [`crate::PrefetchService`] runs too.

use crate::health::{ComponentHealth, ComponentStatus};
use crate::obs::GuardMetrics;
use mpgraph_prefetchers::{BestOffset, BoConfig};
use mpgraph_sim::{LlcAccess, PrefetchTag, Prefetcher, TraceEvent};
use std::collections::{HashMap, VecDeque};

/// The last `len` booleans with a running count of the `true`s, so a
/// fraction costs O(1). A `len` of 0 keeps one entry: the window is
/// bounded for every length.
#[derive(Debug, Clone)]
pub struct Window {
    ring: VecDeque<bool>,
    cap: usize,
    count: usize,
}

impl Window {
    pub fn new(len: usize) -> Self {
        let cap = len.max(1);
        Window {
            ring: VecDeque::with_capacity(cap),
            cap,
            count: 0,
        }
    }

    /// Appends `v`, evicting the oldest entry when the window is full.
    pub fn push(&mut self, v: bool) {
        if self.is_full() && self.ring.pop_front() == Some(true) {
            self.count -= 1;
        }
        self.ring.push_back(v);
        self.count += usize::from(v);
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.ring.len() == self.cap
    }

    /// `true`s held.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Share of `true`s among the entries held; 0 when empty.
    pub fn fraction(&self) -> f64 {
        self.count as f64 / self.ring.len().max(1) as f64
    }

    pub fn clear(&mut self) {
        self.ring.clear();
        self.count = 0;
    }
}

/// A trip/recover state machine. It watches a miss [`Window`]; the caller
/// trips it when [`Breaker::observe`] reports a full window at or above
/// the trip fraction, and closes it once [`Breaker::probe`] reports that a
/// cooldown and a run of clean probes have both passed since the trip.
/// The cooldown runs on the caller's clock (`now`): the guard's access
/// count, or a service stream's fallback-served count.
#[derive(Debug, Clone)]
pub struct Breaker {
    misses: Window,
    trip_fraction: f64,
    cooldown: u64,
    clean_run: u32,
    /// Clock reading when the current spell began; `None` while closed.
    tripped_at: Option<u64>,
    /// Consecutive clean probes in the current spell.
    clean: u32,
}

impl Breaker {
    pub fn new(window: usize, trip_fraction: f64, cooldown: u64, clean_run: u32) -> Self {
        Breaker {
            misses: Window::new(window),
            trip_fraction,
            cooldown,
            clean_run,
            tripped_at: None,
            clean: 0,
        }
    }

    /// Records one observation. True when the window is full and its miss
    /// fraction is at or above the trip fraction.
    pub fn observe(&mut self, miss: bool) -> bool {
        self.misses.push(miss);
        self.misses.is_full() && self.misses.fraction() >= self.trip_fraction
    }

    /// Opens the breaker at `now`, or restarts its spell there. The
    /// window is kept.
    pub fn trip(&mut self, now: u64) {
        self.tripped_at = Some(now);
        self.clean = 0;
    }

    /// One probe while open: a clean probe extends the clean run, a faulty
    /// one resets it. True once both the cooldown since the trip and the
    /// clean run are met; a closed breaker never reports recovery.
    pub fn probe(&mut self, now: u64, clean: bool) -> bool {
        self.clean = if clean {
            self.clean.saturating_add(1)
        } else {
            0
        };
        self.clean >= self.clean_run && self.elapsed(now).is_some_and(|e| e >= self.cooldown)
    }

    /// Recovers: closes the breaker and clears its window.
    pub fn close(&mut self) {
        self.tripped_at = None;
        self.misses.clear();
    }

    pub fn is_open(&self) -> bool {
        self.tripped_at.is_some()
    }

    /// Clock ticks since the current spell began; `None` while closed.
    pub fn elapsed(&self, now: u64) -> Option<u64> {
        self.tripped_at.map(|t| now.saturating_sub(t))
    }

    /// Cooldown ticks still owed at `now`; 0 while closed.
    pub fn cooldown_remaining(&self, now: u64) -> u64 {
        self.elapsed(now)
            .map_or(0, |e| self.cooldown.saturating_sub(e))
    }

    /// Miss fraction of the entries in the window.
    pub fn miss_fraction(&self) -> f64 {
        self.misses.fraction()
    }
}

/// Guard thresholds; [`GuardConfig::default`] is what the resilience
/// bench deploys.
#[derive(Debug, Clone, Copy)]
pub struct GuardConfig {
    /// Inference must complete within this many cycles; beyond it the
    /// observation counts as a deadline miss.
    pub deadline_cycles: u64,
    /// Rolling window of inference observations for the miss fraction.
    pub miss_window: usize,
    /// Fraction of misses in a full window that trips degradation.
    pub trip_miss_fraction: f64,
    /// Rolling accuracy floor: below it (with a full window) the ML path
    /// is judged useless and the guard trips.
    pub min_accuracy: f64,
    /// Demand accesses in the rolling accuracy window.
    pub accuracy_window: usize,
    /// Minimum accesses spent degraded before recovery is considered.
    pub cooldown_accesses: u64,
    /// Consecutive healthy inference observations required to recover.
    pub recover_healthy_probes: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            deadline_cycles: 500,
            miss_window: 64,
            trip_miss_fraction: 0.5,
            min_accuracy: 0.01,
            accuracy_window: 2048,
            cooldown_accesses: 512,
            recover_healthy_probes: 64,
        }
    }
}

/// The wrapper. `P` is the guarded ML prefetcher (in practice
/// `MpGraphPrefetcher`); the fallback is always Best-Offset.
pub struct DegradationGuard<P: Prefetcher> {
    ml: P,
    fallback: BestOffset,
    cfg: GuardConfig,
    /// Deadline trips and recovery, on the access-count clock.
    breaker: Breaker,
    accesses: u64,
    // Rolling accuracy: blocks the ML path recently predicted …
    pred_queue: VecDeque<u64>,
    pred_counts: HashMap<u64, u32>,
    // … checked against arriving demand blocks.
    hits: Window,
    scratch: Vec<u64>,
    /// Lifetime counters (introspection, health reports, snapshots).
    pub stats: GuardMetrics,
    // Structured tracing (engine-controlled, off by default). The guard
    // buffers its own trip/recover events and passes the wrapped
    // prefetcher's through, so the engine sees one merged stream.
    trace_on: bool,
    trace_events: Vec<TraceEvent>,
}

impl<P: Prefetcher> DegradationGuard<P> {
    pub fn new(ml: P, cfg: GuardConfig) -> Self {
        DegradationGuard {
            ml,
            fallback: BestOffset::new(BoConfig::default()),
            breaker: Breaker::new(
                cfg.miss_window,
                cfg.trip_miss_fraction,
                cfg.cooldown_accesses,
                cfg.recover_healthy_probes,
            ),
            accesses: 0,
            pred_queue: VecDeque::new(),
            pred_counts: HashMap::new(),
            hits: Window::new(cfg.accuracy_window),
            scratch: Vec::new(),
            stats: GuardMetrics::default(),
            trace_on: false,
            trace_events: Vec::new(),
            cfg,
        }
    }

    /// Whether the ML path is currently active.
    pub fn is_healthy(&self) -> bool {
        !self.breaker.is_open()
    }

    /// Access to the wrapped ML prefetcher.
    pub fn inner(&self) -> &P {
        &self.ml
    }

    /// Current condition for a [`crate::health::HealthReport`].
    pub fn health(&self) -> ComponentHealth {
        let status = if self.is_healthy() {
            ComponentStatus::Healthy
        } else {
            ComponentStatus::Degraded
        };
        ComponentHealth::new(
            "degradation-guard",
            status,
            format!(
                "trips {}, recoveries {}, deadline misses {}, degraded accesses {}, miss frac {:.2}",
                self.stats.trips,
                self.stats.recoveries,
                self.stats.deadline_misses,
                self.stats.accesses_degraded,
                self.breaker.miss_fraction(),
            ),
        )
    }

    /// Leaves the ML path. Callers trip only while healthy.
    fn trip(&mut self) {
        self.stats.trips += 1;
        self.breaker.trip(self.accesses);
        if self.trace_on {
            self.trace_events.push(TraceEvent::GuardTrip);
        }
    }

    fn recover(&mut self) {
        let degraded_accesses = self.breaker.elapsed(self.accesses).unwrap_or(0);
        self.stats.recoveries += 1;
        self.breaker.close();
        self.hits.clear();
        if self.trace_on {
            self.trace_events.push(TraceEvent::GuardRecover);
            self.trace_events.push(TraceEvent::DegradationWindow {
                accesses: degraded_accesses,
            });
        }
    }

    fn note_predictions(&mut self, preds: &[u64]) {
        // Cap the remembered-prediction set at the accuracy window so the
        // membership test reflects *recent* predictions only.
        let cap = self.cfg.accuracy_window;
        for &b in preds {
            self.pred_queue.push_back(b);
            *self.pred_counts.entry(b).or_insert(0) += 1;
            if self.pred_queue.len() > cap {
                if let Some(old) = self.pred_queue.pop_front() {
                    if let Some(c) = self.pred_counts.get_mut(&old) {
                        *c -= 1;
                        if *c == 0 {
                            self.pred_counts.remove(&old);
                        }
                    }
                }
            }
        }
    }
}

impl<P: Prefetcher> Prefetcher for DegradationGuard<P> {
    fn name(&self) -> String {
        format!("Guarded({})", self.ml.name())
    }

    fn latency(&self) -> u64 {
        if self.is_healthy() {
            self.ml.latency()
        } else {
            self.fallback.latency()
        }
    }

    /// The guard's deadline monitor. Every access the engine reports the
    /// stall imposed on the inference path; the guard classifies the
    /// observation, trips on a window full of misses, and — while degraded
    /// — serves Best-Offset latency (the ML path is off the critical path)
    /// while counting consecutive healthy observations toward recovery.
    /// The window keeps filling while degraded: the health line reports
    /// its miss fraction.
    fn effective_latency(&mut self, injected_stall: u64) -> u64 {
        let ml_latency = self.ml.latency() + injected_stall;
        let miss = ml_latency > self.cfg.deadline_cycles;
        self.stats.deadline_misses += u64::from(miss);
        let trips = self.breaker.observe(miss);
        if self.is_healthy() {
            if !trips {
                return ml_latency;
            }
            self.trip();
        } else if self.breaker.probe(self.accesses, !miss) {
            self.recover();
        }
        self.fallback.latency()
    }

    /// While healthy the issued batch is the ML path's, so its attribution
    /// passes through; degraded batches come from Best-Offset, which does
    /// not tag (the engine falls back to unattributed tags).
    fn last_batch_tags(&self) -> &[PrefetchTag] {
        if self.is_healthy() {
            self.ml.last_batch_tags()
        } else {
            &[]
        }
    }

    fn current_phase_id(&self) -> u8 {
        self.ml.current_phase_id()
    }

    fn enable_trace_events(&mut self, on: bool) {
        self.trace_on = on;
        self.trace_events.clear();
        self.ml.enable_trace_events(on);
    }

    fn pending_trace_events(&self) -> &[TraceEvent] {
        &self.trace_events
    }

    fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
        if self.trace_on {
            // Cleared per access, like the wrapped prefetcher's buffer.
            // Deadline trips land later in `effective_latency`, which the
            // engine calls after `on_access` and before draining — so they
            // ride the same access.
            self.trace_events.clear();
        }
        self.accesses += 1;
        self.hits.push(self.pred_counts.contains_key(&a.block));
        if self.is_healthy() {
            self.ml.on_access(a, out);
            if self.trace_on {
                self.trace_events
                    .extend_from_slice(self.ml.pending_trace_events());
            }
            self.note_predictions(out);
            // Accuracy trip: a full window below the floor means the
            // model's predictions are not materializing into hits.
            if self.hits.is_full() && self.hits.fraction() < self.cfg.min_accuracy {
                self.trip();
            }
        } else {
            self.stats.accesses_degraded += 1;
            // Shadow-run the model: state stays warm, predictions are
            // measured for recovery but never issued.
            self.scratch.clear();
            self.ml.on_access(a, &mut self.scratch);
            if self.trace_on {
                // Shadow-mode events still reach the recorder: phase
                // transitions keep happening while degraded.
                self.trace_events
                    .extend_from_slice(self.ml.pending_trace_events());
            }
            let preds = std::mem::take(&mut self.scratch);
            self.note_predictions(&preds);
            self.scratch = preds;
            self.fallback.on_access(a, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgraph_sim::NullPrefetcher;

    /// An ML stand-in whose latency and predictions we script.
    struct FakeMl {
        latency: u64,
        predict_next: bool,
    }
    impl Prefetcher for FakeMl {
        fn name(&self) -> String {
            "fake-ml".into()
        }
        fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
            if self.predict_next {
                out.push(a.block + 1);
            }
        }
        fn latency(&self) -> u64 {
            self.latency
        }
        fn effective_latency(&mut self, stall: u64) -> u64 {
            self.latency + stall
        }
    }

    fn cfg() -> GuardConfig {
        GuardConfig {
            deadline_cycles: 100,
            miss_window: 8,
            trip_miss_fraction: 0.5,
            min_accuracy: 0.01,
            accuracy_window: 64,
            cooldown_accesses: 16,
            recover_healthy_probes: 8,
        }
    }

    fn access(block: u64) -> LlcAccess {
        LlcAccess {
            pc: 0x400000,
            block,
            core: 0,
            is_write: false,
            hit: false,
            cycle: 0,
        }
    }

    #[test]
    fn stays_healthy_without_stalls() {
        let ml = FakeMl {
            latency: 10,
            predict_next: true,
        };
        let mut g = DegradationGuard::new(ml, cfg());
        let mut out = Vec::new();
        for i in 0..200 {
            out.clear();
            g.on_access(&access(i), &mut out);
            assert_eq!(g.effective_latency(0), 10);
        }
        assert!(g.is_healthy());
        assert_eq!(g.stats.trips, 0);
        assert_eq!(g.name(), "Guarded(fake-ml)");
    }

    #[test]
    fn stalls_trip_the_guard_and_switch_to_best_offset() {
        let ml = FakeMl {
            latency: 10,
            predict_next: true,
        };
        let mut g = DegradationGuard::new(ml, cfg());
        let mut out = Vec::new();
        let mut tripped_at = None;
        for i in 0..100u64 {
            out.clear();
            g.on_access(&access(i), &mut out);
            g.effective_latency(10_000); // every inference stalls
            if !g.is_healthy() && tripped_at.is_none() {
                tripped_at = Some(i);
            }
        }
        let tripped_at = tripped_at.expect("guard never tripped");
        // Trips as soon as the miss window fills at 100% misses.
        assert!(tripped_at <= cfg().miss_window as u64 + 1);
        assert_eq!(g.stats.trips, 1);
        assert!(g.stats.deadline_misses > 0);
        assert!(g.stats.accesses_degraded > 0);
        // Degraded latency is the fallback's (0), not the stalled ML path.
        assert_eq!(g.effective_latency(10_000), 0);
        assert_eq!(g.health().status, ComponentStatus::Degraded);
    }

    #[test]
    fn guard_emits_trip_recover_and_window_events_only_when_tracing() {
        let ml = FakeMl {
            latency: 10,
            predict_next: true,
        };
        let c = cfg();
        let mut g = DegradationGuard::new(ml, c);
        g.enable_trace_events(true);
        let mut out = Vec::new();
        let mut seen: Vec<TraceEvent> = Vec::new();
        // Trip (stalls), then recover (stalls cease) — draining the event
        // buffer after effective_latency like the engine does.
        for i in 0..200u64 {
            out.clear();
            g.on_access(&access(i), &mut out);
            g.effective_latency(if i < 20 { 10_000 } else { 0 });
            seen.extend_from_slice(g.pending_trace_events());
        }
        assert_eq!(g.stats.trips, 1);
        assert_eq!(g.stats.recoveries, 1);
        let trips = seen.iter().filter(|e| **e == TraceEvent::GuardTrip).count();
        let recovers = seen
            .iter()
            .filter(|e| **e == TraceEvent::GuardRecover)
            .count();
        assert_eq!(trips, 1);
        assert_eq!(recovers, 1);
        // The recovery carries a window summary matching the degraded span.
        let window = seen
            .iter()
            .find_map(|e| match e {
                TraceEvent::DegradationWindow { accesses } => Some(*accesses),
                _ => None,
            })
            .expect("no degradation-window event");
        assert!(window >= c.cooldown_accesses, "window {window} too short");

        // Same scenario untraced: zero events, identical guard behavior.
        let mut quiet = DegradationGuard::new(
            FakeMl {
                latency: 10,
                predict_next: true,
            },
            c,
        );
        for i in 0..200u64 {
            out.clear();
            quiet.on_access(&access(i), &mut out);
            quiet.effective_latency(if i < 20 { 10_000 } else { 0 });
            assert!(quiet.pending_trace_events().is_empty());
        }
        assert_eq!(quiet.stats.trips, g.stats.trips);
        assert_eq!(quiet.stats.recoveries, g.stats.recoveries);
        assert_eq!(quiet.stats.deadline_misses, g.stats.deadline_misses);
    }

    #[test]
    fn recovery_needs_cooldown_and_consecutive_healthy_probes() {
        let ml = FakeMl {
            latency: 10,
            predict_next: true,
        };
        let c = cfg();
        let mut g = DegradationGuard::new(ml, c);
        let mut out = Vec::new();
        // Trip it.
        for i in 0..20u64 {
            out.clear();
            g.on_access(&access(i), &mut out);
            g.effective_latency(10_000);
        }
        assert!(!g.is_healthy());
        // Stalls cease, but recovery must wait for cooldown + probe run.
        let mut recovered_after = None;
        for i in 0..100u64 {
            out.clear();
            g.on_access(&access(100 + i), &mut out);
            g.effective_latency(0);
            if g.is_healthy() && recovered_after.is_none() {
                recovered_after = Some(i + 1);
            }
        }
        let recovered_after = recovered_after.expect("guard never recovered");
        assert!(
            recovered_after >= c.recover_healthy_probes as u64,
            "recovered after only {recovered_after} healthy probes"
        );
        assert_eq!(g.stats.recoveries, 1);
        assert!(g.is_healthy());
    }

    #[test]
    fn flapping_stalls_reset_the_probe_run() {
        let ml = FakeMl {
            latency: 10,
            predict_next: true,
        };
        let mut g = DegradationGuard::new(ml, cfg());
        let mut out = Vec::new();
        for i in 0..20u64 {
            out.clear();
            g.on_access(&access(i), &mut out);
            g.effective_latency(10_000);
        }
        assert!(!g.is_healthy());
        // Alternate healthy/stalled: never `recover_healthy_probes` in a
        // row, so the guard must stay degraded (hysteresis).
        for i in 0..200u64 {
            out.clear();
            g.on_access(&access(100 + i), &mut out);
            g.effective_latency(if i % 4 == 3 { 10_000 } else { 0 });
        }
        assert!(!g.is_healthy(), "guard recovered under flapping stalls");
        assert_eq!(g.stats.recoveries, 0);
    }

    #[test]
    fn useless_predictions_trip_on_accuracy() {
        // ML path predicts nothing at all → rolling accuracy 0 once the
        // window fills, even with perfect latency.
        let ml = FakeMl {
            latency: 10,
            predict_next: false,
        };
        let c = cfg();
        let mut g = DegradationGuard::new(ml, c);
        let mut out = Vec::new();
        for i in 0..(c.accuracy_window as u64 + 8) {
            out.clear();
            g.on_access(&access(i), &mut out);
            g.effective_latency(0);
        }
        assert!(!g.is_healthy(), "zero-accuracy model not tripped");
    }

    #[test]
    fn guard_over_null_prefetcher_is_harmless() {
        // Wrapping a latency-0, prediction-free prefetcher: the guard may
        // trip on accuracy but must never panic or emit from thin air.
        let mut g = DegradationGuard::new(NullPrefetcher, GuardConfig::default());
        let mut out = Vec::new();
        for i in 0..5000u64 {
            out.clear();
            g.on_access(&access(i % 97), &mut out);
            g.effective_latency(0);
        }
    }
}
