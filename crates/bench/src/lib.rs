//! # mpgraph-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§5-6). Each artifact has a binary (`cargo run --release -p
//! mpgraph-bench --bin <name>`), all driven by the shared runners in this
//! library so the integration tests can exercise the same code paths at
//! `ExpScale::quick()`.
//!
//! | binary | artifact |
//! |---|---|
//! | `table4` | phase-detection precision/recall/F1 |
//! | `table6` | delta-prediction F1 per variant |
//! | `table7` | page-prediction accuracy@10 per variant |
//! | `table8` | complexity + IPC improvement |
//! | `figure2` | PCA motivation study |
//! | `figure3` | page-jump scatter |
//! | `figure9` | KSWIN vs Soft-KSWIN case study |
//! | `figure10_12` | prefetch accuracy / coverage / IPC sweep |
//! | `figure13` | knowledge-distillation compression sweep |
//! | `figure14` | distance prefetching under latency |
//! | `ablations` | soft-threshold, CSTP degree, modality ablations |
//! | `loadgen` | multi-stream service load sweep + chaos isolation |

pub mod cli;
pub mod metrics;
pub mod report;
pub mod runners;
pub mod scale;
pub mod serve_load;
pub mod shard;
pub mod snapdiff;
pub mod workload;

pub use scale::ExpScale;
