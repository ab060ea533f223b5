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

use crate::error::MpGraphError;
use crate::health::{ComponentHealth, ComponentStatus};
use crate::latency::amma_latency;
use crate::obs::GuardMetrics;
use crate::AmmaConfig;
use mpgraph_prefetchers::{BestOffset, BoConfig};
use mpgraph_sim::{LlcAccess, PrefetchTag, Prefetcher, TraceEvent};
use std::collections::{HashMap, VecDeque};

/// Guard thresholds. Build with [`GuardConfig::try_new`] (validated) or
/// [`GuardConfig::for_deadline`] (defaults around a deadline).
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

impl GuardConfig {
    /// Validated constructor.
    pub fn try_new(
        deadline_cycles: u64,
        miss_window: usize,
        trip_miss_fraction: f64,
        min_accuracy: f64,
        accuracy_window: usize,
        cooldown_accesses: u64,
        recover_healthy_probes: u32,
    ) -> Result<Self, MpGraphError> {
        if deadline_cycles == 0 {
            return Err(MpGraphError::config("guard", "deadline_cycles must be > 0"));
        }
        if miss_window == 0 || accuracy_window == 0 {
            return Err(MpGraphError::config("guard", "windows must be > 0"));
        }
        if !(0.0..=1.0).contains(&trip_miss_fraction) || trip_miss_fraction == 0.0 {
            return Err(MpGraphError::config(
                "guard",
                format!("trip_miss_fraction must be in (0, 1], got {trip_miss_fraction}"),
            ));
        }
        if !(0.0..=1.0).contains(&min_accuracy) {
            return Err(MpGraphError::config(
                "guard",
                format!("min_accuracy must be in [0, 1], got {min_accuracy}"),
            ));
        }
        if recover_healthy_probes == 0 {
            return Err(MpGraphError::config(
                "guard",
                "recover_healthy_probes must be > 0",
            ));
        }
        Ok(GuardConfig {
            deadline_cycles,
            miss_window,
            trip_miss_fraction,
            min_accuracy,
            accuracy_window,
            cooldown_accesses,
            recover_healthy_probes,
        })
    }

    /// Defaults with an explicit deadline.
    pub fn for_deadline(deadline_cycles: u64) -> Self {
        GuardConfig {
            deadline_cycles: deadline_cycles.max(1),
            ..GuardConfig::default()
        }
    }

    /// Derives the deadline from the Eq. 12 latency model of the deployed
    /// AMMA configuration: inference is expected within `slack ×` its
    /// modelled critical path.
    pub fn from_latency_model(amma: &AmmaConfig, slack: f64) -> Result<Self, MpGraphError> {
        if !slack.is_finite() || slack < 1.0 {
            return Err(MpGraphError::config(
                "guard",
                format!("slack must be >= 1, got {slack}"),
            ));
        }
        let modelled = amma_latency(amma).total.max(1);
        Ok(GuardConfig::for_deadline((modelled as f64 * slack) as u64))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardState {
    Healthy,
    Degraded {
        /// Access count at which degradation began.
        since: u64,
        /// Consecutive healthy inference observations while degraded.
        healthy_probes: u32,
    },
}

/// The wrapper. `P` is the guarded ML prefetcher (in practice
/// `MpGraphPrefetcher`); the fallback is always Best-Offset.
pub struct DegradationGuard<P: Prefetcher> {
    ml: P,
    fallback: BestOffset,
    cfg: GuardConfig,
    state: GuardState,
    accesses: u64,
    // Deadline-miss rolling window.
    miss_ring: VecDeque<bool>,
    misses_in_ring: usize,
    // Rolling accuracy: blocks the ML path recently predicted …
    pred_queue: VecDeque<u64>,
    pred_counts: HashMap<u64, u32>,
    // … checked against arriving demand blocks.
    acc_ring: VecDeque<bool>,
    acc_hits: usize,
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
            cfg,
            state: GuardState::Healthy,
            accesses: 0,
            miss_ring: VecDeque::with_capacity(cfg.miss_window),
            misses_in_ring: 0,
            pred_queue: VecDeque::new(),
            pred_counts: HashMap::new(),
            acc_ring: VecDeque::with_capacity(cfg.accuracy_window),
            acc_hits: 0,
            scratch: Vec::new(),
            stats: GuardMetrics::default(),
            trace_on: false,
            trace_events: Vec::new(),
        }
    }

    pub fn config(&self) -> &GuardConfig {
        &self.cfg
    }

    /// Whether the ML path is currently active.
    pub fn is_healthy(&self) -> bool {
        self.state == GuardState::Healthy
    }

    /// Access to the wrapped ML prefetcher.
    pub fn inner(&self) -> &P {
        &self.ml
    }

    /// Rolling accuracy over the last `accuracy_window` demand accesses
    /// (`None` until the window fills).
    pub fn rolling_accuracy(&self) -> Option<f64> {
        (self.acc_ring.len() >= self.cfg.accuracy_window)
            .then(|| self.acc_hits as f64 / self.acc_ring.len() as f64)
    }

    /// Fraction of deadline misses in the rolling inference window.
    pub fn miss_fraction(&self) -> f64 {
        if self.miss_ring.is_empty() {
            0.0
        } else {
            self.misses_in_ring as f64 / self.miss_ring.len() as f64
        }
    }

    /// Lifetime counters for a [`crate::obs::MetricsSnapshot`].
    pub fn metrics(&self) -> GuardMetrics {
        self.stats.clone()
    }

    /// External escalation input from the live SLO monitor
    /// (`core::livetel`): a Breach verdict trips the guard off the ML
    /// path immediately — the error budget is burning faster than the
    /// guard's own rolling windows would catch. Warn and Ok do not force
    /// anything; recovery still goes through the hysteretic
    /// cooldown-plus-probes path, so a flapping monitor cannot thrash
    /// the policy.
    pub fn apply_slo_verdict(&mut self, verdict: crate::livetel::SloVerdict) {
        if verdict == crate::livetel::SloVerdict::Breach && self.state == GuardState::Healthy {
            self.stats.slo_trips += 1;
            self.trip();
        }
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
                self.miss_fraction(),
            ),
        )
    }

    fn trip(&mut self) {
        if self.state == GuardState::Healthy {
            self.stats.trips += 1;
            self.state = GuardState::Degraded {
                since: self.accesses,
                healthy_probes: 0,
            };
            if self.trace_on {
                self.trace_events.push(TraceEvent::GuardTrip);
            }
        }
    }

    /// `degraded_accesses` is the length of the degraded spell that just
    /// ended, for the window summary event.
    fn recover(&mut self, degraded_accesses: u64) {
        self.stats.recoveries += 1;
        self.state = GuardState::Healthy;
        self.miss_ring.clear();
        self.misses_in_ring = 0;
        self.acc_ring.clear();
        self.acc_hits = 0;
        if self.trace_on {
            self.trace_events.push(TraceEvent::GuardRecover);
            self.trace_events.push(TraceEvent::DegradationWindow {
                accesses: degraded_accesses,
            });
        }
    }

    fn push_miss(&mut self, miss: bool) {
        if self.miss_ring.len() == self.cfg.miss_window {
            if let Some(old) = self.miss_ring.pop_front() {
                if old {
                    self.misses_in_ring -= 1;
                }
            }
        }
        self.miss_ring.push_back(miss);
        if miss {
            self.misses_in_ring += 1;
            self.stats.deadline_misses += 1;
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

    fn note_demand(&mut self, block: u64) {
        let hit = self.pred_counts.contains_key(&block);
        if self.acc_ring.len() == self.cfg.accuracy_window {
            if let Some(old) = self.acc_ring.pop_front() {
                if old {
                    self.acc_hits -= 1;
                }
            }
        }
        self.acc_ring.push_back(hit);
        if hit {
            self.acc_hits += 1;
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
    fn effective_latency(&mut self, injected_stall: u64) -> u64 {
        let ml_latency = self.ml.latency() + injected_stall;
        let miss = ml_latency > self.cfg.deadline_cycles;
        self.push_miss(miss);
        match self.state {
            GuardState::Healthy => {
                if self.miss_ring.len() == self.cfg.miss_window
                    && self.miss_fraction() >= self.cfg.trip_miss_fraction
                {
                    self.trip();
                    self.fallback.latency()
                } else {
                    ml_latency
                }
            }
            GuardState::Degraded {
                since,
                healthy_probes,
            } => {
                let healthy_probes = if miss { 0 } else { healthy_probes + 1 };
                self.state = GuardState::Degraded {
                    since,
                    healthy_probes,
                };
                if healthy_probes >= self.cfg.recover_healthy_probes
                    && self.accesses.saturating_sub(since) >= self.cfg.cooldown_accesses
                {
                    self.recover(self.accesses.saturating_sub(since));
                }
                self.fallback.latency()
            }
        }
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
        self.note_demand(a.block);
        match self.state {
            GuardState::Healthy => {
                self.ml.on_access(a, out);
                if self.trace_on {
                    self.trace_events
                        .extend_from_slice(self.ml.pending_trace_events());
                }
                let preds = std::mem::take(&mut self.scratch);
                self.note_predictions(out);
                self.scratch = preds;
                // Accuracy trip: a full window below the floor means the
                // model's predictions are not materializing into hits.
                if let Some(acc) = self.rolling_accuracy() {
                    if acc < self.cfg.min_accuracy {
                        self.trip();
                    }
                }
            }
            GuardState::Degraded { .. } => {
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
    fn config_validation() {
        assert!(GuardConfig::try_new(0, 8, 0.5, 0.1, 64, 16, 8).is_err());
        assert!(GuardConfig::try_new(100, 0, 0.5, 0.1, 64, 16, 8).is_err());
        assert!(GuardConfig::try_new(100, 8, 0.0, 0.1, 64, 16, 8).is_err());
        assert!(GuardConfig::try_new(100, 8, 1.5, 0.1, 64, 16, 8).is_err());
        assert!(GuardConfig::try_new(100, 8, 0.5, 2.0, 64, 16, 8).is_err());
        assert!(GuardConfig::try_new(100, 8, 0.5, 0.1, 64, 16, 0).is_err());
        assert!(GuardConfig::try_new(100, 8, 0.5, 0.1, 64, 16, 8).is_ok());
        assert!(GuardConfig::from_latency_model(&AmmaConfig::default(), 0.5).is_err());
        let g = GuardConfig::from_latency_model(&AmmaConfig::default(), 2.0).expect("valid");
        assert!(g.deadline_cycles > 0);
    }

    #[test]
    fn slo_breach_trips_the_guard_but_warn_and_ok_do_not() {
        use crate::livetel::SloVerdict;
        let ml = FakeMl {
            latency: 10,
            predict_next: true,
        };
        let mut g = DegradationGuard::new(ml, cfg());
        g.apply_slo_verdict(SloVerdict::Ok);
        g.apply_slo_verdict(SloVerdict::Warn);
        assert!(g.is_healthy());
        assert_eq!(g.stats.slo_trips, 0);
        g.apply_slo_verdict(SloVerdict::Breach);
        assert!(!g.is_healthy());
        assert_eq!(g.stats.trips, 1);
        assert_eq!(g.stats.slo_trips, 1);
        assert_eq!(g.metrics().slo_trips, 1);
        // Breach while already degraded is not a second trip.
        g.apply_slo_verdict(SloVerdict::Breach);
        assert_eq!(g.stats.trips, 1);
        assert_eq!(g.stats.slo_trips, 1);
        // Ok does not short-circuit hysteretic recovery.
        g.apply_slo_verdict(SloVerdict::Ok);
        assert!(!g.is_healthy());
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
