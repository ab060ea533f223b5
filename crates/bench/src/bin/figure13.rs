//! Regenerates Figure 13: MPGraph under knowledge distillation — accuracy,
//! coverage, and IPC improvement versus compression factor, with BO as the
//! uncompressed non-ML reference.
//!
//! Usage: `figure13 [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json_compact, pct, print_table};
use mpgraph_bench::runners::prefetching::run_figure13;
use mpgraph_bench::ExpScale;

fn main() {
    let (scale, args) = ExpScale::from_command_line("figure13");
    let rows = run_figure13(&scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                format!("{:.1}x", r.compression_factor),
                pct(r.accuracy),
                pct(r.coverage),
                format!("{:+.2}%", r.ipc_improvement_pct),
            ]
        })
        .collect();
    print_table(
        "Figure 13: knowledge-distillation compression sweep (GPOP PR)",
        &["Config", "Compression", "Accuracy", "Coverage", "IPC Impv"],
        &table,
    );
    if let Ok(p) = dump_json_compact("figure13", &rows) {
        println!("\nwrote {}", p.display());
    }
    emit_if_requested(&scale, &args);
}
