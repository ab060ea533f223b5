//! Universal `--metrics-out` support for the experiment binaries.
//!
//! Every runner accepts `--metrics-out <path>` and, when present, emits a
//! full pipeline [`MetricsSnapshot`] as JSON. The snapshot comes from an
//! instrumented MPGraph run over the synthetic multi-phase carrier
//! workload ([`SynthConfig::pagerank_like`]): a scoreboard observes every
//! prefetch while the deployed prefetcher's own counters (CSTP chain /
//! PBOT, detector arm→confirm latencies, controller, training) are folded
//! in afterwards. The carrier is synthetic on purpose — it is cheap enough
//! to ride along with any experiment, deterministic across runners, and
//! its page-transition chains keep the PBOT primed so the temporal-lane
//! counters in the artifact are live rather than structurally zero.
//!
//! The `resilience` binary is the one exception: its report already
//! embeds the snapshot of its own guarded fault-injection run, so it
//! serializes that run's snapshot and trace instead of the carrier's.

use crate::cli::Args;
use crate::report::{write_json_compact_to, write_json_to};
use crate::scale::ExpScale;
use crate::workload::SynthConfig;
use mpgraph_core::{
    train_mpgraph, MetricsSnapshot, MpGraphConfig, PrefetchScoreboard, TraceConfig,
};
use mpgraph_sim::simulate_observed;

/// Runs the observed carrier once and returns the enriched snapshot plus,
/// when a [`TraceConfig`] was supplied, the Chrome-trace JSON of the run.
pub fn collect_carrier(
    scale: &ExpScale,
    trace: Option<TraceConfig>,
) -> (MetricsSnapshot, Option<serde::Value>) {
    let w = SynthConfig::pagerank_like().generate();
    let mut mp = train_mpgraph(
        &w.train,
        w.num_phases,
        MpGraphConfig::default(),
        &scale.train,
    );
    let mut scoreboard = match trace {
        Some(cfg) => PrefetchScoreboard::with_trace(w.num_phases, 4096, cfg),
        None => PrefetchScoreboard::new(w.num_phases, 4096),
    };
    let cfg = crate::runners::prefetching::sim_config();
    let _ = simulate_observed(&w.test, &mut mp, &cfg, None, Some(&mut scoreboard));
    let chrome = scoreboard.chrome_trace();
    let mut snap = scoreboard.snapshot();
    mp.enrich_snapshot(&mut snap);
    (snap, chrome)
}

/// Runs the observed carrier and returns the enriched snapshot.
pub fn collect_carrier_metrics(scale: &ExpScale) -> MetricsSnapshot {
    collect_carrier(scale, None).0
}

/// Binary entry point: when the parsed command line gives `--metrics-out
/// <path>` and/or `--trace-out <path>`, runs the instrumented carrier once
/// and writes the requested artifacts. A no-op without either flag, so
/// every binary can call this unconditionally.
pub fn emit_if_requested(scale: &ExpScale, args: &Args) {
    let metrics = args.path("metrics-out");
    let trace = args.path("trace-out");
    if metrics.is_none() && trace.is_none() {
        return;
    }
    let (snap, chrome) = collect_carrier(scale, trace.as_ref().map(|_| TraceConfig::default()));
    if let Some(path) = metrics {
        match write_json_to(&path, &snap) {
            Ok(()) => println!("metrics snapshot written to {}", path.display()),
            Err(e) => eprintln!("failed to write metrics to {}: {e}", path.display()),
        }
    }
    if let Some(path) = trace {
        write_trace(&path, chrome);
    }
}

/// Writes a Chrome trace to `path`, reporting the outcome on the console.
pub fn write_trace(path: &std::path::Path, chrome: Option<serde::Value>) {
    match chrome {
        Some(tr) => match write_json_compact_to(path, &tr) {
            Ok(()) => println!("chrome trace written to {}", path.display()),
            Err(e) => eprintln!("failed to write trace to {}: {e}", path.display()),
        },
        None => eprintln!("trace requested but the scoreboard produced none"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance contract for every emitted artifact: prefetches
    /// observed, the temporal lane live (nonzero PBOT traffic on the
    /// multi-page carrier), detector arm→confirm latencies sampled, both
    /// latency clocks populated, and the scoreboard's double-entry
    /// bookkeeping intact.
    #[test]
    fn carrier_metrics_exercise_every_snapshot_section() {
        let snap = collect_carrier_metrics(&ExpScale::quick());
        assert!(snap.issued > 0, "no prefetches issued");
        assert!(snap.cstp.batches > 0);
        assert!(
            snap.cstp.pbot_hits > 0,
            "PBOT never hit on the multi-page carrier: {:?}",
            snap.cstp
        );
        assert!(snap.cstp.pbot_hit_rate > 0.0);
        assert!(snap.detector.updates > 0);
        assert!(
            snap.detector.confirm_latency_samples > 0,
            "no arm→confirm latency samples: {:?}",
            snap.detector
        );
        assert!(snap.detector.confirm_latency_mean >= 0.0);
        assert!(snap.inference_latency.count > 0);
        assert!(
            snap.inference_wall_ns.count > 0,
            "wall-clock inference histogram empty"
        );
        assert_eq!(snap.untracked_completions, 0, "scoreboard lost prefetches");
        // The artifact must carry all of that through serde.
        let text = serde_json::to_string(&snap).expect("serializable");
        for key in [
            "pbot_hit_rate",
            "confirm_latency_samples",
            "inference_wall_ns",
            "untracked_completions",
        ] {
            assert!(text.contains(key), "snapshot JSON missing {key}");
        }
    }
}
