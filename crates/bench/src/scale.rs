//! Experiment scale presets. The paper's runs are hundreds of millions of
//! instructions on real hardware; this reproduction exposes two presets —
//! `quick` for CI-style smoke runs (seconds) and `standard` for the actual
//! table/figure regeneration (minutes) — plus CLI parsing shared by every
//! experiment binary.

use mpgraph_graph::Dataset;
use mpgraph_prefetchers::TrainCfg;

/// Scaling knobs shared by every experiment.
#[derive(Debug, Clone)]
pub struct ExpScale {
    /// Synthetic dataset scale divisor vs the SNAP originals (DESIGN.md §5).
    pub graph_div: usize,
    /// Framework iterations to trace (1 training + N evaluation).
    pub iterations: usize,
    /// Cap on generated trace records.
    pub record_limit: usize,
    /// Cap on test-trace records replayed through the simulator.
    pub eval_records: usize,
    /// Prediction-metric evaluation samples (Tables 6/7).
    pub eval_samples: usize,
    /// Model-training hyper-parameters.
    pub train: TrainCfg,
    /// Datasets included in the sweep.
    pub datasets: Vec<Dataset>,
}

impl ExpScale {
    /// Smoke-test scale: everything completes in a few seconds.
    pub fn quick() -> Self {
        ExpScale {
            graph_div: 4096,
            iterations: 6,
            record_limit: 200_000,
            eval_records: 80_000,
            eval_samples: 300,
            train: TrainCfg {
                history: 9,
                max_samples: 400,
                epochs: 2,
                lr: 3e-3,
                seed: 1234,
            },
            datasets: vec![Dataset::Rmat],
        }
    }

    /// Standard reproduction scale (the default for the binaries). Tuned
    /// for a single-core runner: sparse datasets keep iterations short
    /// while the 64×-scaled cache hierarchy keeps vertex arrays LLC-
    /// overflowing (DESIGN.md §5).
    pub fn standard() -> Self {
        ExpScale {
            graph_div: 64,
            iterations: 6,
            record_limit: 2_000_000,
            eval_records: 450_000,
            eval_samples: 1000,
            train: TrainCfg {
                history: 9,
                max_samples: 1500,
                epochs: 2,
                lr: 2e-3,
                seed: 1234,
            },
            datasets: vec![Dataset::Youtube, Dataset::RoadCa],
        }
    }

    /// Parses `--quick` / `--standard` / `--datasets all` from argv.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(&args)
    }

    /// [`Self::from_args`] over an argument list: `--quick` picks the
    /// quick preset (the standard one otherwise), and `--datasets all` or
    /// `--datasets=all` sweeps every dataset. Other arguments are ignored.
    pub fn parse(args: &[String]) -> Self {
        let mut scale = if args.iter().any(|a| a == "--quick") {
            ExpScale::quick()
        } else {
            ExpScale::standard()
        };
        let all = args.iter().any(|a| a == "--datasets=all")
            || args
                .windows(2)
                .any(|w| w[0] == "--datasets" && w[1] == "all");
        if all {
            scale.datasets = Dataset::ALL.to_vec();
        }
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_standard() {
        let q = ExpScale::quick();
        let s = ExpScale::standard();
        assert!(q.record_limit < s.record_limit);
        assert!(q.train.max_samples < s.train.max_samples);
        assert!(q.graph_div > s.graph_div);
        assert!(!q.datasets.is_empty());
    }

    #[test]
    fn parse_reads_both_spellings_of_datasets_all() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            ExpScale::parse(&args)
        };
        let all = Dataset::ALL.to_vec();
        assert_eq!(parse(&["bin", "--datasets", "all"]).datasets, all);
        assert_eq!(parse(&["bin", "--datasets=all"]).datasets, all);
        assert_eq!(
            parse(&["bin", "--quick", "--datasets", "all"]).datasets,
            all
        );
        let quick = parse(&["bin", "--datasets", "all", "--quick"]);
        assert_eq!(quick.datasets, all);
        assert_eq!(quick.graph_div, ExpScale::quick().graph_div);
        // Without the value, or with another one, the preset's own
        // datasets stay.
        for args in [
            &["bin", "--quick"][..],
            &["bin", "--quick", "--datasets"],
            &["bin", "--quick", "--datasets", "rmat"],
            &["bin", "--quick", "all"],
        ] {
            assert_eq!(parse(args).datasets, ExpScale::quick().datasets, "{args:?}");
        }
        assert_eq!(parse(&["bin"]).datasets, ExpScale::standard().datasets);
        assert_eq!(parse(&["bin"]).graph_div, ExpScale::standard().graph_div);
    }
}
