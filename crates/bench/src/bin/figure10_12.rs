//! Regenerates Figures 10-12: prefetch accuracy (Fig 10), prefetch
//! coverage (Fig 11), and IPC improvement (Fig 12) for BO, ISB,
//! Delta-LSTM, Voyager, TransFetch, and MPGraph over the (framework, app)
//! × dataset sweep.
//!
//! Usage: `figure10_12 [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json_compact, f, pct, print_table};
use mpgraph_bench::runners::prefetching::{prefetcher_means, run_figures_10_to_12};
use mpgraph_bench::ExpScale;

fn main() {
    let (scale, args) = ExpScale::from_command_line("figure10_12");
    let rows = run_figures_10_to_12(&scale);

    // Figure 12: per-cell IPC improvement.
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.framework.clone(),
                r.app.clone(),
                r.dataset.clone(),
                r.prefetcher.clone(),
                pct(r.accuracy),
                pct(r.coverage),
                f(r.ipc, 3),
                format!("{:+.2}%", r.ipc_improvement_pct),
            ]
        })
        .collect();
    print_table(
        "Figure 12 detail: per-workload prefetching results",
        &[
            "Framework",
            "App",
            "Dataset",
            "Prefetcher",
            "Acc",
            "Cov",
            "IPC",
            "IPC Impv",
        ],
        &table,
    );

    // Figures 10/11 and the Fig 12 summary: per-prefetcher means.
    let means = prefetcher_means(&rows);
    let summary: Vec<Vec<String>> = means
        .iter()
        .map(|(n, acc, cov, ipc)| vec![n.clone(), pct(*acc), pct(*cov), format!("{ipc:+.2}%")])
        .collect();
    print_table(
        "Figures 10/11/12 summary: means over all workloads",
        &["Prefetcher", "Accuracy", "Coverage", "IPC Impv"],
        &summary,
    );
    if let Ok(p) = dump_json_compact("figure10_12", &rows) {
        println!("\nwrote {}", p.display());
    }
    emit_if_requested(&scale, &args);
}
