//! Regenerates Table 4: phase-transition detection precision/recall/F1 for
//! KSWIN, Soft-KSWIN, DT, and Soft-DT on all three frameworks.
//!
//! Usage: `table4 [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json, f, print_table};
use mpgraph_bench::runners::detection::run_table4;
use mpgraph_bench::ExpScale;

fn main() {
    let (scale, args) = ExpScale::from_command_line("table4");
    let rows = run_table4(&scale);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.framework.clone(),
                r.train_mode.to_string(),
                r.detector.clone(),
                f(r.precision, 4),
                f(r.recall, 4),
                f(r.f1, 4),
            ]
        })
        .collect();
    print_table(
        "Table 4: Phase Detection Evaluation",
        &["Framework", "Train", "Detector", "P", "R", "F1"],
        &table,
    );
    if let Ok(p) = dump_json("table4", &rows) {
        println!("\nwrote {}", p.display());
    }
    emit_if_requested(&scale, &args);
}
