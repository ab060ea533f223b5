//! Regenerates Figure 14: effectiveness of distance prefetching (DP) for
//! MPGraph under injected inference latency, for the uncompressed and the
//! compressed models, against the BO reference.
//!
//! Usage: `figure14 [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json_compact, print_table};
use mpgraph_bench::runners::prefetching::run_figure14;
use mpgraph_bench::ExpScale;

fn main() {
    let (scale, args) = ExpScale::from_command_line("figure14");
    let rows = run_figure14(&scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.latency_cycles.to_string(),
                if r.distance_prefetching { "DP" } else { "-" }.into(),
                format!("{:+.2}%", r.ipc_improvement_pct),
            ]
        })
        .collect();
    print_table(
        "Figure 14: distance prefetching under inference latency (GPOP PR)",
        &["Config", "Latency (cyc)", "DP", "IPC Impv"],
        &table,
    );
    if let Ok(p) = dump_json_compact("figure14", &rows) {
        println!("\nwrote {}", p.display());
    }
    emit_if_requested(&scale, &args);
}
