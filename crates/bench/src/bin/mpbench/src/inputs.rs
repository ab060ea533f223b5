//! Workload inputs: the same steps as `mpgraph_bench::workload::build_workload`
//! (stand-in graph, framework trace, train/test split at the first
//! iteration, one LLC-filter pass), with the run's seed XOR-ed into the
//! graph seed. Seed 0 gives the repository's canonical graphs. A graph is
//! built once per dataset and reused by the combos that follow.

use crate::tracer::{Layer, Tracer};
use mpgraph_bench::runners::prefetching::{mpgraph_cfg, sim_config};
use mpgraph_bench::shard::Combo;
use mpgraph_bench::ExpScale;
use mpgraph_core::{train_mpgraph, MpGraphPrefetcher};
use mpgraph_frameworks::{generate_trace, App, Framework, MemRecord, TraceConfig};
use mpgraph_graph::{standin, Csr, Dataset};
use mpgraph_sim::llc_filter_indexed;
use std::time::Instant;

/// One combo's inputs: the evaluation stream the simulator replays and
/// the LLC-level streams the models train on and serve.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub combo: Combo,
    pub num_phases: usize,
    /// Raw records of the evaluation iterations.
    pub test: Vec<MemRecord>,
    /// LLC-level view of the first (training) iteration.
    pub train_llc: Vec<MemRecord>,
    /// LLC-level view of `test`.
    pub test_llc: Vec<MemRecord>,
}

/// Host time and work of the set-up steps, summed over every set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupStats {
    pub setups: u64,
    pub graphs: u64,
    pub graph_ns: u64,
    pub trace_ns: u64,
    pub trace_records: u64,
    pub filter_ns: u64,
}

pub fn graph_seed(dataset: Dataset, seed: u64) -> u64 {
    (0xC0DE ^ dataset.name().len() as u64) ^ seed
}

/// GPOP/PR on the scale's first dataset: the stream the serve workloads
/// replay, and the combo whose inputs the per-layer probes reuse.
pub fn carrier(scale: &ExpScale) -> Combo {
    Combo {
        framework: Framework::Gpop,
        app: App::Pr,
        dataset: scale.datasets[0],
    }
}

/// Stand-in graphs built so far, one per dataset.
#[derive(Default)]
pub struct Graphs(Vec<(Dataset, Csr)>);

/// Runs `f` inside a span of `layer`, adding its host time to `acc`.
fn timed<T>(tracer: &mut Tracer, layer: Layer, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let span = tracer.begin(layer);
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_nanos() as u64;
    tracer.end(span);
    out
}

pub fn build(
    combo: Combo,
    scale: &ExpScale,
    seed: u64,
    graphs: &mut Graphs,
    stats: &mut SetupStats,
    tracer: &mut Tracer,
) -> Inputs {
    stats.setups += 1;
    let cached = graphs.0.iter().position(|(d, _)| *d == combo.dataset);
    let i = cached.unwrap_or_else(|| {
        stats.graphs += 1;
        let g = timed(tracer, Layer::Graph, &mut stats.graph_ns, || {
            standin(
                combo.dataset,
                scale.graph_div,
                graph_seed(combo.dataset, seed),
            )
        });
        graphs.0.push((combo.dataset, g));
        graphs.0.len() - 1
    });
    let graph = &graphs.0[i].1;
    let cfg = TraceConfig {
        iterations: scale.iterations,
        record_limit: scale.record_limit,
        ..TraceConfig::default()
    };
    let trace = timed(tracer, Layer::Trace, &mut stats.trace_ns, || {
        generate_trace(combo.framework, combo.app, graph, &cfg).trace
    });
    stats.trace_records += trace.records.len() as u64;
    let split = trace
        .iteration_starts
        .get(1)
        .copied()
        .unwrap_or(trace.records.len() / 2);
    let test_end = split + (trace.records.len() - split).min(scale.eval_records);
    let filtered = timed(tracer, Layer::Filter, &mut stats.filter_ns, || {
        llc_filter_indexed(&trace.records[..test_end], &sim_config())
    });
    let (train_llc, test_llc): (Vec<_>, Vec<_>) =
        filtered.into_iter().partition(|(i, _)| *i < split);
    Inputs {
        combo,
        num_phases: combo.framework.num_phases() as usize,
        test: trace.records[split..test_end].to_vec(),
        train_llc: train_llc.into_iter().map(|(_, r)| r).collect(),
        test_llc: test_llc.into_iter().map(|(_, r)| r).collect(),
    }
}

/// Trains the MPGraph stack exactly as `shard::run_combo` does.
pub fn train(inputs: &Inputs, scale: &ExpScale, tracer: &mut Tracer) -> MpGraphPrefetcher {
    let span = tracer.begin(Layer::Train);
    let mp = train_mpgraph(
        &inputs.train_llc,
        inputs.num_phases,
        mpgraph_cfg(),
        &scale.train,
    );
    tracer.end(span);
    mp
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgraph_bench::workload::build_workload;

    #[test]
    fn seed_zero_matches_the_repository_workload() {
        let scale = ExpScale {
            record_limit: 24_000,
            eval_records: 8_000,
            ..ExpScale::quick()
        };
        let combo = Combo {
            framework: Framework::Gpop,
            app: App::Pr,
            dataset: Dataset::Rmat,
        };
        let mut stats = SetupStats::default();
        let mut graphs = Graphs::default();
        let mine = build(
            combo,
            &scale,
            0,
            &mut graphs,
            &mut stats,
            &mut Tracer::new(false),
        );
        let theirs = build_workload(combo.framework, combo.app, combo.dataset, &scale);
        assert_eq!(mine.test, theirs.test);
        assert_eq!(mine.train_llc, theirs.train_llc);
        assert_eq!(mine.test_llc, theirs.test_llc);
        assert_eq!((stats.setups, stats.graphs), (1, 1));
        let other = build(
            combo,
            &scale,
            7,
            &mut Graphs::default(),
            &mut stats,
            &mut Tracer::new(false),
        );
        assert_ne!(other.test, mine.test, "the seed must change the graph");
    }
}
