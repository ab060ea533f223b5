//! Regenerates Table 8: computational complexity (parameters, OPs,
//! critical path) and IPC improvement of MPGraph and the ML baselines.
//!
//! Usage: `table8 [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json, f, print_table};
use mpgraph_bench::runners::prefetching::run_table8;
use mpgraph_bench::ExpScale;

fn main() {
    let (scale, args) = ExpScale::from_command_line("table8");
    let rows = run_table8(&scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                f(r.params_k, 1),
                f(r.ops_m, 2),
                r.critical_path.clone(),
                f(r.ipc_improvement_pct, 2),
            ]
        })
        .collect();
    print_table(
        "Table 8: Computational Complexity",
        &[
            "Model",
            "Param (K)",
            "OPs (M)",
            "Critical Path",
            "IPC Impv (%)",
        ],
        &table,
    );
    if let Ok(p) = dump_json("table8", &rows) {
        println!("\nwrote {}", p.display());
    }
    emit_if_requested(&scale, &args);
}
