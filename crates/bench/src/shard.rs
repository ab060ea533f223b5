//! Sharded full-matrix replay driver behind `mpgraph run --all`
//! (DESIGN.md §15).
//!
//! The framework × app × dataset matrix is partitioned across worker
//! threads; each combo is traced, trained, and replayed wholly inside one
//! worker, with its own [`PrefetchScoreboard`] and flight recorder, so a
//! combo's result is a pure function of the combo and the scale — never
//! of the worker that happened to run it. Long evaluation streams are
//! replayed in contiguous segments through a resumable
//! [`SimSession`], which carries the full simulator and prefetcher state
//! across segment boundaries (`SimSession::run_segment` hand-off).
//!
//! Merging is deterministic by construction: per-combo snapshots fold in
//! the fixed [`full_matrix`] order via [`MetricsSnapshot::merge_at`]
//! (counter addition, histogram merge, windowed-series concatenation
//! rebased onto the combined record clock), and the merged artifact's
//! host-time histogram is canonicalized away. A sharded run is therefore
//! byte-identical to the serial run on the same seed, at any `--shards`.

use crate::runners::prefetching::{mpgraph_cfg, sim_config};
use crate::scale::ExpScale;
use crate::workload::{all_cells, build_workload};
use mpgraph_core::trace::TraceConfig as TelemetryConfig;
use mpgraph_core::{
    chrome_trace_json_sharded, train_mpgraph, MetricsSnapshot, PrefetchScoreboard, ShardTrace,
};
use mpgraph_frameworks::{App, Framework};
use mpgraph_graph::Dataset;
use mpgraph_prefetchers::{BestOffset, BoConfig};
use mpgraph_sim::{simulate, NullPrefetcher, PrefetchObserver, SimResult, SimSession};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Evaluation-stream records replayed per [`SimSession`] segment. Segment
/// boundaries depend only on this constant — never on the shard count —
/// so segmentation cannot perturb the replay (and the sim crate's
/// equivalence tests guarantee segmented == one-shot regardless).
pub const SEGMENT_LEN: usize = 50_000;

/// One cell of the full evaluation matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Combo {
    pub framework: Framework,
    pub app: App,
    pub dataset: Dataset,
}

impl Combo {
    /// `framework/app/dataset`, e.g. `"GPOP/PR/rmat"` — the shard's
    /// Perfetto process name and the merge-order key shown in reports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.framework.name(),
            self.app.name(),
            self.dataset.name()
        )
    }
}

/// The matrix in its canonical order: `Framework::ALL` × the apps each
/// framework ships (Table 1) × the scale's datasets. Merge order and
/// Perfetto pids both follow this order, independent of worker count.
pub fn full_matrix(scale: &ExpScale) -> Vec<Combo> {
    let mut combos = Vec::new();
    for (framework, app) in all_cells() {
        for &dataset in &scale.datasets {
            combos.push(Combo {
                framework,
                app,
                dataset,
            });
        }
    }
    combos
}

/// One combo's measurements: the reference simulations (no prefetch, BO),
/// the MPGraph replay with its observed snapshot, and the flight-recorder
/// trace that becomes this combo's Perfetto process.
#[derive(Debug)]
pub struct ComboResult {
    pub combo: Combo,
    pub base: SimResult,
    pub bo: SimResult,
    pub mpgraph: SimResult,
    pub snapshot: MetricsSnapshot,
    pub trace: ShardTrace,
    /// Records on this combo's record clock (= evaluated accesses); the
    /// merge offset advances by this much per combo.
    pub records: u64,
}

/// Runs one combo start to finish: trace → LLC-filter → train MPGraph on
/// iteration 0 → replay the evaluation stream in `segment_len` segments
/// through one [`SimSession`] with a single traced scoreboard spanning
/// every segment (so cross-segment prefetch completions stay tracked).
pub fn run_combo(combo: Combo, scale: &ExpScale, segment_len: usize) -> ComboResult {
    run_combo_opts(combo, scale, segment_len, false)
}

/// [`run_combo`] with the model's storage selectable: `quant` rounds the
/// trained predictors' weights onto their int8 grid before evaluation,
/// so the whole run serves the int8-stored model through the same f32
/// path. Diffing a quant snapshot against the f32 one isolates the pure
/// int8 storage accuracy cost (no distillation in the loop).
pub fn run_combo_opts(
    combo: Combo,
    scale: &ExpScale,
    segment_len: usize,
    quant: bool,
) -> ComboResult {
    let w = build_workload(combo.framework, combo.app, combo.dataset, scale);
    let cfg = sim_config();
    let base = simulate(&w.test, &mut NullPrefetcher, &cfg);
    let mut bo_pf = BestOffset::new(BoConfig::default());
    let bo = simulate(&w.test, &mut bo_pf, &cfg);

    let mut mp = train_mpgraph(&w.train_llc, w.num_phases, mpgraph_cfg(), &scale.train);
    if quant {
        mp.quantize();
    }
    let mut sb =
        PrefetchScoreboard::with_trace(w.num_phases.max(1), 4096, TelemetryConfig::default());
    let mut session = SimSession::new(&cfg);
    for segment in w.test.chunks(segment_len.max(1)) {
        session.run_segment(
            segment,
            &mut mp,
            None,
            Some(&mut sb as &mut dyn PrefetchObserver),
        );
    }
    let mpgraph = session.finish(&mp, None);

    let mut snapshot = sb.snapshot();
    mp.enrich_snapshot(&mut snapshot);
    let trace = sb
        .shard_trace(&combo.label())
        .expect("scoreboard was built with tracing attached");
    let records = trace.end;
    ComboResult {
        combo,
        base,
        bo,
        mpgraph,
        snapshot,
        trace,
        records,
    }
}

/// The full matrix run: per-combo results in canonical order plus the
/// deterministically merged snapshot.
#[derive(Debug)]
pub struct MatrixResult {
    pub combos: Vec<ComboResult>,
    pub merged: MetricsSnapshot,
}

impl MatrixResult {
    /// The merged Perfetto export: one process per combo, pid = position
    /// in canonical matrix order + 1.
    pub fn chrome_trace(&self) -> serde::Value {
        let shards: Vec<ShardTrace> = self.combos.iter().map(|c| c.trace.clone()).collect();
        chrome_trace_json_sharded(&shards)
    }
}

/// Runs the full matrix across `shards` worker threads at the default
/// [`SEGMENT_LEN`].
pub fn run_matrix(scale: &ExpScale, shards: usize) -> MatrixResult {
    run_matrix_segmented(scale, shards, SEGMENT_LEN)
}

/// [`run_matrix`] with an explicit segment length (tests shrink it to
/// force many segment hand-offs on quick-scale streams).
pub fn run_matrix_segmented(scale: &ExpScale, shards: usize, segment_len: usize) -> MatrixResult {
    let combos = full_matrix(scale);
    let workers = shards.max(1).min(combos.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ComboResult>>> = combos.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&combo) = combos.get(i) else { break };
                let result = run_combo(combo, scale, segment_len);
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    let results: Vec<ComboResult> = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot")
                .expect("every combo ran")
        })
        .collect();
    merge(results)
}

/// Folds per-combo snapshots in canonical order: counters add, histograms
/// merge, each combo's windows land rebased after the previous combo's
/// record clock. The merged artifact drops the host-time histogram
/// ([`MetricsSnapshot::canonicalize_wall_clock`]) so its bytes are a pure
/// function of the workload and seed.
fn merge(combos: Vec<ComboResult>) -> MatrixResult {
    let mut merged = match combos.first() {
        Some(c) => c.snapshot.clone(),
        None => MetricsSnapshot::default(),
    };
    let mut offset = combos.first().map_or(0, |c| c.records);
    for c in &combos[1.min(combos.len())..] {
        merged.merge_at(&c.snapshot, offset);
        offset += c.records;
    }
    merged.canonicalize_wall_clock();
    MatrixResult { combos, merged }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_order_is_canonical_and_complete() {
        let scale = ExpScale::quick();
        let combos = full_matrix(&scale);
        // 12 (framework, app) cells × 1 quick dataset.
        assert_eq!(combos.len(), 12 * scale.datasets.len());
        let labels: Vec<String> = combos.iter().map(|c| c.label()).collect();
        let mut sorted_dedup = labels.clone();
        sorted_dedup.dedup();
        assert_eq!(labels.len(), sorted_dedup.len(), "duplicate combos");
        assert_eq!(labels.first().map(String::as_str), Some("GPOP/BFS/rmat"));
    }

    #[test]
    fn one_combo_produces_consistent_snapshot_and_trace() {
        let scale = ExpScale::quick();
        let combos = full_matrix(&scale);
        let r = run_combo(combos[0], &scale, 7_000);
        assert!(r.records > 0);
        assert_eq!(r.trace.end, r.records);
        assert_eq!(r.trace.label, combos[0].label());
        assert!(r.mpgraph.ipc() > 0.0);
        assert_eq!(r.snapshot.issued, r.mpgraph.prefetches_issued);
        // One scoreboard spans all segments, so completions that cross a
        // segment boundary must stay tracked.
        assert_eq!(r.snapshot.untracked_completions, 0);
    }
}
