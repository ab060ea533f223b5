//! Experiment scale presets. The paper's runs are hundreds of millions of
//! instructions on real hardware; this reproduction exposes two presets —
//! `quick` for CI-style smoke runs (seconds) and `standard` for the actual
//! table/figure regeneration (minutes) — and the scale an experiment
//! binary's command line picks.

use crate::cli::{Args, EXPERIMENT};
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

    /// The quick preset when `quick`, the standard one otherwise.
    pub fn preset(quick: bool) -> Self {
        if quick {
            Self::quick()
        } else {
            Self::standard()
        }
    }

    /// An experiment binary's parsed command line, which exits 2 on an error, and its scale.
    pub fn from_command_line(program: &str) -> (Self, Args) {
        let args = EXPERIMENT.parse_or_exit(program);
        (Self::from_cli(&args), args)
    }

    /// The scale an [`EXPERIMENT`] command line picks: [`Self::preset`] by
    /// `--quick`, sweeping every dataset under `--datasets all`.
    pub fn from_cli(args: &Args) -> Self {
        let mut scale = Self::preset(args.switch("quick"));
        if args.text("datasets").is_some() {
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
        let parse = |args: &[&str]| EXPERIMENT.parse(args.iter().map(|a| a.to_string()));
        let scale = |args: &[&str]| ExpScale::from_cli(&parse(args).expect("valid command line"));
        let all = Dataset::ALL.to_vec();
        assert_eq!(scale(&["--datasets", "all"]).datasets, all);
        assert_eq!(scale(&["--datasets=all"]).datasets, all);
        assert_eq!(scale(&["--datasets=ALL"]).datasets, all);
        assert_eq!(scale(&["--quick", "--datasets", "all"]).datasets, all);
        let quick = scale(&["--datasets", "all", "--quick"]);
        assert_eq!(quick.datasets, all);
        assert_eq!(quick.graph_div, ExpScale::quick().graph_div);
        assert_eq!(scale(&["--quick"]).datasets, ExpScale::quick().datasets);
        assert_eq!(scale(&[]).datasets, ExpScale::standard().datasets);
        assert_eq!(scale(&[]).graph_div, ExpScale::standard().graph_div);
        // Without the value, with another one, or with a stray word, the
        // command line is refused rather than run at the preset's datasets.
        for (args, named) in [
            (&["--quick", "--datasets"][..], "--datasets needs a value"),
            (&["--quick", "--datasets", "rmat"], "`rmat`"),
            (&["--quick", "all"], "`all`"),
            (&["--quik"], "`--quik`"),
            (&["--standard"], "`--standard`"),
        ] {
            let err = parse(args).expect_err("accepted").to_string();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }
}
