//! Aggregated health reporting for a full pipeline run.
//!
//! A [`HealthReport`] collects per-component [`ComponentHealth`] entries
//! (detector, predictors, degradation guard, trainer, ...) plus the fault
//! counts the simulator injected, giving bench runners and the CLI one
//! structure to print or serialize after a resilience run.

use crate::obs::MetricsSnapshot;
use mpgraph_sim::FaultStats;
use std::fmt;

/// Coarse component condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ComponentStatus {
    Healthy,
    /// Operating, but on a fallback/degraded path.
    Degraded,
    /// Not operating; its function is lost for the rest of the run.
    Failed,
}

impl ComponentStatus {
    pub fn name(&self) -> &'static str {
        match self {
            ComponentStatus::Healthy => "healthy",
            ComponentStatus::Degraded => "degraded",
            ComponentStatus::Failed => "failed",
        }
    }
}

/// One component's condition after (or during) a run.
#[derive(Debug, Clone)]
pub struct ComponentHealth {
    pub component: String,
    pub status: ComponentStatus,
    /// Free-form specifics: counters, thresholds crossed, fallback in use.
    pub detail: String,
}

impl ComponentHealth {
    pub fn new(
        component: impl Into<String>,
        status: ComponentStatus,
        detail: impl Into<String>,
    ) -> Self {
        ComponentHealth {
            component: component.into(),
            status,
            detail: detail.into(),
        }
    }

    /// Derives the simulator component's health from an observed run's
    /// metrics. Untracked completions mean the scoreboard's double-entry
    /// bookkeeping lost prefetches (attribution overflow or attach-order
    /// races): the accounting can no longer be trusted end-to-end, so a
    /// nonzero count degrades the component instead of being silently
    /// reported in the snapshot.
    pub fn simulator_from_metrics(metrics: &MetricsSnapshot) -> Self {
        if metrics.untracked_completions > 0 || metrics.inflight_overflow > 0 {
            ComponentHealth::new(
                "simulator",
                ComponentStatus::Degraded,
                format!(
                    "{} untracked completions, {} in-flight overflows — \
                     prefetch attribution incomplete",
                    metrics.untracked_completions, metrics.inflight_overflow
                ),
            )
        } else {
            ComponentHealth::new(
                "simulator",
                ComponentStatus::Healthy,
                format!(
                    "all {} issued prefetches tracked to completion",
                    metrics.issued
                ),
            )
        }
    }

    /// Derives the serving layer's health from its counters plus the live
    /// SLO monitor state (`core::livetel`). The verdict is the leading
    /// signal: a Breach means the error budget is burning at the
    /// fast-burn multiple right now; overload or degraded streams without
    /// a breach are a Degraded-but-coping condition. Without live
    /// telemetry attached, `slo` is all-default (verdict Ok) and only the
    /// ladder/quarantine gauges speak.
    pub fn serve_from_metrics(serve: &crate::obs::ServeMetrics) -> Self {
        let status = if serve.slo.verdict_level >= 2 {
            ComponentStatus::Failed
        } else if serve.slo.verdict_level >= 1
            || serve.overload_level > 0
            || serve.degraded_streams > 0
        {
            ComponentStatus::Degraded
        } else {
            ComponentStatus::Healthy
        };
        ComponentHealth::new(
            "serve",
            status,
            format!(
                "overload level {}, {} degraded streams, shed fraction {:.3}, \
                 slo verdict {} (burn {:.2}, {} escalations)",
                serve.overload_level,
                serve.degraded_streams,
                serve.shed_fraction,
                serve.slo.verdict_level,
                serve.slo.current_burn_rate,
                serve.slo.escalations,
            ),
        )
    }
}

/// Aggregate of component healths and injected-fault counts for one run.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    pub components: Vec<ComponentHealth>,
    pub faults: FaultStats,
    /// Pipeline metrics captured alongside the component healths, when the
    /// run was observed by a [`crate::obs::PrefetchScoreboard`].
    pub metrics: Option<MetricsSnapshot>,
}

impl HealthReport {
    pub fn new() -> Self {
        HealthReport::default()
    }

    pub fn push(&mut self, h: ComponentHealth) {
        self.components.push(h);
    }

    pub fn set_faults(&mut self, faults: FaultStats) {
        self.faults = faults;
    }

    pub fn set_metrics(&mut self, metrics: MetricsSnapshot) {
        self.metrics = Some(metrics);
    }

    /// Worst status across components (`Healthy` when empty).
    pub fn worst(&self) -> ComponentStatus {
        self.components
            .iter()
            .map(|c| c.status)
            .max()
            .unwrap_or(ComponentStatus::Healthy)
    }

    pub fn is_healthy(&self) -> bool {
        self.worst() == ComponentStatus::Healthy
    }

    /// True when the report shows `kind`-class faults were injected.
    pub fn saw_fault(&self, kind: mpgraph_sim::FaultKind) -> bool {
        self.faults.count(kind) > 0
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "health: {}", self.worst().name())?;
        for c in &self.components {
            writeln!(
                f,
                "  [{:<8}] {}: {}",
                c.status.name(),
                c.component,
                c.detail
            )?;
        }
        if self.faults.total() > 0 {
            writeln!(
                f,
                "  faults injected: {} corrupt, {} dropped, {} duplicated, {} misfires, {} stalls ({} cycles)",
                self.faults.records_corrupted,
                self.faults.prefetches_dropped,
                self.faults.prefetches_duplicated,
                self.faults.detector_misfires,
                self.faults.inference_stalls,
                self.faults.stall_cycles_injected,
            )?;
        }
        if let Some(m) = &self.metrics {
            writeln!(
                f,
                "  prefetch: {} issued, accuracy {:.3}, coverage {:.3}, timeliness {:.3}",
                m.issued, m.accuracy, m.coverage, m.timeliness,
            )?;
            writeln!(
                f,
                "  cstp: pbot hit rate {:.3}, avg chain {:.2}, {} duplicates suppressed",
                m.cstp.pbot_hit_rate, m.cstp.avg_chain_len, m.cstp.duplicates_suppressed,
            )?;
            writeln!(
                f,
                "  latency: inference p50/p99 {}/{} cyc, memory p50/p99 {}/{} cyc",
                m.inference_latency.p50,
                m.inference_latency.p99,
                m.memory_latency.p50,
                m.memory_latency.p99,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_orders_statuses() {
        let mut r = HealthReport::new();
        assert!(r.is_healthy());
        r.push(ComponentHealth::new("a", ComponentStatus::Healthy, ""));
        assert_eq!(r.worst(), ComponentStatus::Healthy);
        r.push(ComponentHealth::new(
            "b",
            ComponentStatus::Degraded,
            "fallback",
        ));
        assert_eq!(r.worst(), ComponentStatus::Degraded);
        r.push(ComponentHealth::new("c", ComponentStatus::Failed, "dead"));
        assert_eq!(r.worst(), ComponentStatus::Failed);
        assert!(!r.is_healthy());
    }

    #[test]
    fn display_mentions_components_and_faults() {
        let mut r = HealthReport::new();
        r.push(ComponentHealth::new(
            "guard",
            ComponentStatus::Degraded,
            "2 trips",
        ));
        let faults = FaultStats {
            inference_stalls: 7,
            stall_cycles_injected: 700,
            ..FaultStats::default()
        };
        r.set_faults(faults);
        let text = r.to_string();
        assert!(text.contains("guard"));
        assert!(text.contains("degraded"));
        assert!(text.contains("7 stalls"));
        assert!(r.saw_fault(mpgraph_sim::FaultKind::StallInference));
        assert!(!r.saw_fault(mpgraph_sim::FaultKind::CorruptRecord));
    }

    #[test]
    fn untracked_completions_trip_the_simulator_component() {
        let clean = MetricsSnapshot::default();
        let h = ComponentHealth::simulator_from_metrics(&clean);
        assert_eq!(h.status, ComponentStatus::Healthy);

        let lossy = MetricsSnapshot {
            untracked_completions: 3,
            ..MetricsSnapshot::default()
        };
        let h = ComponentHealth::simulator_from_metrics(&lossy);
        assert_eq!(h.status, ComponentStatus::Degraded);
        assert!(h.detail.contains("3 untracked"));

        let overflowed = MetricsSnapshot {
            inflight_overflow: 1,
            ..MetricsSnapshot::default()
        };
        let h = ComponentHealth::simulator_from_metrics(&overflowed);
        assert_eq!(h.status, ComponentStatus::Degraded);

        let mut r = HealthReport::new();
        r.push(ComponentHealth::simulator_from_metrics(&lossy));
        assert!(!r.is_healthy());
    }

    #[test]
    fn serve_health_tracks_ladder_quarantine_and_slo_verdict() {
        use crate::obs::ServeMetrics;
        let calm = ServeMetrics::default();
        assert_eq!(
            ComponentHealth::serve_from_metrics(&calm).status,
            ComponentStatus::Healthy
        );

        let loaded = ServeMetrics {
            overload_level: 1,
            ..ServeMetrics::default()
        };
        let h = ComponentHealth::serve_from_metrics(&loaded);
        assert_eq!(h.status, ComponentStatus::Degraded);
        assert!(h.detail.contains("overload level 1"));

        let quarantined = ServeMetrics {
            degraded_streams: 2,
            ..ServeMetrics::default()
        };
        assert_eq!(
            ComponentHealth::serve_from_metrics(&quarantined).status,
            ComponentStatus::Degraded
        );

        let mut warn = ServeMetrics::default();
        warn.slo.verdict_level = 1;
        assert_eq!(
            ComponentHealth::serve_from_metrics(&warn).status,
            ComponentStatus::Degraded
        );

        let mut breach = ServeMetrics::default();
        breach.slo.verdict_level = 2;
        breach.slo.current_burn_rate = 6.5;
        let h = ComponentHealth::serve_from_metrics(&breach);
        assert_eq!(h.status, ComponentStatus::Failed);
        assert!(h.detail.contains("slo verdict 2"));
    }

    #[test]
    fn display_folds_metrics_when_present() {
        let mut r = HealthReport::new();
        assert!(!r.to_string().contains("prefetch:"));
        let mut m = MetricsSnapshot {
            issued: 12,
            accuracy: 0.5,
            ..MetricsSnapshot::default()
        };
        m.cstp.duplicates_suppressed = 3;
        m.inference_latency.p99 = 77;
        r.set_metrics(m);
        let text = r.to_string();
        assert!(text.contains("prefetch: 12 issued"));
        assert!(text.contains("3 duplicates suppressed"));
        assert!(text.contains("p50/p99"));
    }
}
