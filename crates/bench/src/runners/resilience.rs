//! Resilience experiment: the degradation demo behind DESIGN.md's
//! "Failure model & degraded modes" section.
//!
//! Injects inference stalls (a hung accelerator / contended inference
//! queue) into the simulated LLC stream and compares three deployments on
//! the same workload:
//!
//! * **unguarded MPGraph** — pays every stall on the prefetch path;
//! * **guarded MPGraph** — a [`DegradationGuard`] trips to Best-Offset
//!   when the stall pattern blows the inference deadline budget;
//! * **pure Best-Offset** — rule-based, immune to inference stalls; the
//!   ceiling the guard should approach while degraded.
//!
//! The runner also assembles the pipeline-wide [`HealthReport`]: guard
//! condition, controller observe-errors, and the injector's fault ledger.
//! With a [`TraceConfig`] the guarded run is also recorded, so its Chrome
//! trace carries the guard's trip and recovery events.

use crate::scale::ExpScale;
use crate::workload::{build_workload, carrier};
use mpgraph_core::{
    train_mpgraph, ComponentHealth, ComponentStatus, DegradationGuard, GuardConfig, HealthReport,
    MetricsSnapshot, MpGraphPrefetcher, PrefetchScoreboard, TraceConfig,
};
use mpgraph_prefetchers::{BestOffset, BoConfig};
use mpgraph_sim::{
    simulate, simulate_observed, simulate_with_faults, FaultConfig, FaultInjector, FaultKind,
    NullPrefetcher, SimResult,
};
use serde::Serialize;

use super::prefetching::{mpgraph_cfg, sim_config};

/// One (configuration, fault regime) measurement.
#[derive(Debug, Clone, Serialize)]
pub struct ResilienceRow {
    pub config: String,
    pub stalled: bool,
    pub accuracy: f64,
    pub coverage: f64,
    pub ipc: f64,
    pub ipc_improvement_pct: f64,
}

/// Flattened [`ComponentHealth`] for the JSON report.
#[derive(Debug, Clone, Serialize)]
pub struct HealthRow {
    pub component: String,
    pub status: String,
    pub detail: String,
}

/// The full resilience report: measurements plus the aggregated health of
/// the guarded run.
#[derive(Debug, Clone, Serialize)]
pub struct ResilienceReport {
    pub rows: Vec<ResilienceRow>,
    pub health: Vec<HealthRow>,
    pub inference_stalls_injected: u64,
    pub guard_tripped: bool,
    /// Pipeline-wide observability snapshot from the guarded run: per-phase
    /// and per-lane prefetch outcomes, CSTP/detector/controller/guard/
    /// training counters, and the latency histograms (`--metrics-out`
    /// serializes exactly this).
    pub metrics: MetricsSnapshot,
}

/// Stall regime for the demo: most inferences hang far past the deadline
/// (and past the engine's timeliness bound, so stalled prefetches count as
/// misses), as a wedged accelerator would.
pub fn stall_faults(seed: u64) -> FaultConfig {
    FaultConfig::only(FaultKind::StallInference, 0.8, seed)
}

fn row(config: &str, stalled: bool, r: &SimResult, base: &SimResult) -> ResilienceRow {
    ResilienceRow {
        config: config.into(),
        stalled,
        accuracy: r.accuracy(),
        coverage: r.coverage(),
        ipc: r.ipc(),
        ipc_improvement_pct: r.ipc_improvement(base),
    }
}

/// Folds every counter the guarded deployment owns into the scoreboard's
/// snapshot: CSTP, detector, controller and training metrics from the
/// wrapped MPGraph prefetcher, plus the guard's own trip ledger.
pub fn guarded_snapshot(
    scoreboard: &PrefetchScoreboard,
    guard: &DegradationGuard<MpGraphPrefetcher>,
) -> MetricsSnapshot {
    let mut snap = scoreboard.snapshot();
    guard.inner().enrich_snapshot(&mut snap);
    snap.guard = guard.stats.clone();
    snap
}

/// Aggregates pipeline health after a guarded run. The simulator
/// component is derived from the observed metrics: untracked completions
/// or in-flight overflow mean the scoreboard's accounting lost prefetches
/// and degrade the component rather than passing silently.
pub fn health_report(
    guard: &DegradationGuard<MpGraphPrefetcher>,
    result: &SimResult,
    metrics: &MetricsSnapshot,
) -> HealthReport {
    let mut report = HealthReport::new();
    report.push(guard.health());
    let mp = guard.inner();
    let controller = if mp.observe_errors == 0 {
        ComponentHealth::new("controller", ComponentStatus::Healthy, "no observe errors")
    } else {
        ComponentHealth::new(
            "controller",
            ComponentStatus::Degraded,
            format!("{} recoverable observe errors", mp.observe_errors),
        )
    };
    report.push(controller);
    let mut sim = ComponentHealth::simulator_from_metrics(metrics);
    sim.detail = format!("{}; {} faults injected", sim.detail, result.faults.total());
    report.push(sim);
    report.set_faults(result.faults);
    report
}

/// Runs the three-way comparison on the GPOP/PR carrier workload. With
/// `trace` set, the guarded run's scoreboard records it and the Chrome
/// trace of that run comes back alongside the report.
pub fn run_resilience(
    scale: &ExpScale,
    trace: Option<TraceConfig>,
) -> (ResilienceReport, Option<serde::Value>) {
    let w = build_workload(
        mpgraph_frameworks::Framework::Gpop,
        mpgraph_frameworks::App::Pr,
        carrier(scale),
        scale,
    );
    let cfg = sim_config();
    let base = simulate(&w.test, &mut NullPrefetcher, &cfg);
    let mut rows = Vec::new();

    // Pure Best-Offset: immune to inference stalls by construction.
    let mut bo = BestOffset::new(BoConfig::default());
    let mut inj = FaultInjector::new(stall_faults(1));
    let r_bo = simulate_with_faults(&w.test, &mut bo, &cfg, Some(&mut inj));
    rows.push(row("BO", true, &r_bo, &base));

    // One trained MPGraph serves all three ML rows, so the comparison
    // isolates the deployment policy rather than training noise.
    let mut mp = train_mpgraph(&w.train_llc, w.num_phases, mpgraph_cfg(), &scale.train);
    let r_clean = simulate(&w.test, &mut mp, &cfg);
    rows.push(row("MPGraph", false, &r_clean, &base));

    let mut inj = FaultInjector::new(stall_faults(1));
    let r_unguarded = simulate_with_faults(&w.test, &mut mp, &cfg, Some(&mut inj));
    rows.push(row("MPGraph unguarded", true, &r_unguarded, &base));

    // The guarded run is the observed one: a scoreboard classifies every
    // prefetch it issues, and its snapshot rides along in the report.
    let mut guarded = DegradationGuard::new(mp, GuardConfig::default());
    let mut inj = FaultInjector::new(stall_faults(1));
    let mut scoreboard = match trace {
        Some(tc) => PrefetchScoreboard::with_trace(w.num_phases, 4096, tc),
        None => PrefetchScoreboard::new(w.num_phases, 4096),
    };
    let r_guarded = simulate_observed(
        &w.test,
        &mut guarded,
        &cfg,
        Some(&mut inj),
        Some(&mut scoreboard),
    );
    rows.push(row("MPGraph guarded", true, &r_guarded, &base));

    let metrics = guarded_snapshot(&scoreboard, &guarded);
    let mut report = health_report(&guarded, &r_guarded, &metrics);
    report.set_metrics(metrics.clone());
    let rep = ResilienceReport {
        health: report
            .components
            .iter()
            .map(|c| HealthRow {
                component: c.component.clone(),
                status: c.status.name().into(),
                detail: c.detail.clone(),
            })
            .collect(),
        inference_stalls_injected: r_guarded.faults.count(FaultKind::StallInference),
        guard_tripped: guarded.stats.trips > 0,
        metrics,
        rows,
    };
    (rep, scoreboard.chrome_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance demo: under injected stalls the guarded deployment
    /// strictly beats the unguarded one and lands within 10% of the pure
    /// Best-Offset IPC ceiling.
    #[test]
    fn guard_rescues_ipc_under_stalls() {
        let scale = ExpScale::quick();
        let (rep, _) = run_resilience(&scale, None);
        assert!(rep.inference_stalls_injected > 0);
        assert!(rep.guard_tripped, "guard never tripped under 80% stalls");

        let find = |config: &str, stalled: bool| {
            rep.rows
                .iter()
                .find(|r| r.config == config && r.stalled == stalled)
                .unwrap_or_else(|| panic!("missing row {config}/{stalled}"))
        };
        let bo = find("BO", true);
        let unguarded = find("MPGraph unguarded", true);
        let guarded = find("MPGraph guarded", true);

        assert!(
            guarded.ipc > unguarded.ipc,
            "guarded IPC {} not above unguarded {}",
            guarded.ipc,
            unguarded.ipc
        );
        assert!(
            guarded.coverage >= unguarded.coverage,
            "guarded coverage {} below unguarded {}",
            guarded.coverage,
            unguarded.coverage
        );
        assert!(
            guarded.ipc >= 0.9 * bo.ipc,
            "guarded IPC {} more than 10% below BO {}",
            guarded.ipc,
            bo.ipc
        );
    }

    #[test]
    fn health_report_names_every_component_and_metrics_ride_along() {
        let scale = ExpScale::quick();
        let (rep, chrome) = run_resilience(&scale, Some(TraceConfig::default()));
        let names: Vec<&str> = rep.health.iter().map(|h| h.component.as_str()).collect();
        for expected in ["degradation-guard", "controller", "simulator"] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }

        // The scoreboard observed the guarded run end to end.
        let m = &rep.metrics;
        assert!(m.issued > 0, "no prefetches observed");
        assert!((0.0..=1.0).contains(&m.accuracy));
        assert!((0.0..=1.0).contains(&m.coverage));
        assert!(!m.phases.is_empty());
        assert!(m.memory_latency.count > 0, "no memory latencies recorded");
        assert!(m.memory_latency.p99 >= m.memory_latency.p50);
        // Prefetcher-side counters were folded in.
        assert!(m.cstp.batches > 0);
        assert!(!m.detector.name.is_empty());
        assert!(m.detector.updates > 0);
        assert!(m.training.steps > 0);
        assert!(m.guard.trips > 0, "guard metrics missing trips");
        // The trace is the guarded run's: one guard-trip instant per trip.
        let chrome = serde_json::to_string(&chrome.expect("traced run")).expect("serializable");
        let trip_instants = chrome.matches("\"guard-trip\"").count() as u64;
        assert_eq!(trip_instants, m.guard.trips, "trace misses guard trips");
        // And the whole thing serializes for --metrics-out / CI artifacts.
        let text = serde_json::to_string(&rep.metrics).expect("metrics serialize");
        for key in [
            "accuracy",
            "coverage",
            "timeliness",
            "pbot_hit_rate",
            "duplicates_suppressed",
            "inference_latency",
        ] {
            assert!(text.contains(key), "metrics JSON missing {key}");
        }
    }
}
