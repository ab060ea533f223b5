//! Regenerates Table 6: F1-score of spatial delta prediction for LSTM,
//! Attention, AMMA, AMMA-PI, AMMA-PS over all 12 (framework, app) cells.
//!
//! Usage: `table6 [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json, f, print_table};
use mpgraph_bench::runners::prediction::{run_table6, variant_means};
use mpgraph_bench::ExpScale;

fn main() {
    let (scale, args) = ExpScale::from_command_line("table6");
    let cells = run_table6(&scale);
    let variants = ["LSTM", "Attention", "AMMA", "AMMA-PI", "AMMA-PS"];
    let mut keys: Vec<(String, String)> = cells
        .iter()
        .map(|c| (c.framework.clone(), c.app.clone()))
        .collect();
    keys.dedup();
    let mut table = Vec::new();
    for v in variants {
        let mut row = vec![v.to_string()];
        for (fw, app) in &keys {
            let m = cells
                .iter()
                .find(|c| &c.framework == fw && &c.app == app && c.variant == v)
                .map(|c| c.metric)
                .unwrap_or(f64::NAN);
            row.push(f(m, 4));
        }
        table.push(row);
    }
    let mut headers: Vec<String> = vec!["Model".into()];
    headers.extend(keys.iter().map(|(fw, app)| format!("{fw}/{app}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(
        "Table 6: F1-Score of Spatial Delta Prediction",
        &header_refs,
        &table,
    );
    println!("\nPer-variant means:");
    for (name, mean) in variant_means(&cells) {
        println!("  {name:10} {mean:.4}");
    }
    if let Ok(p) = dump_json("table6", &cells) {
        println!("\nwrote {}", p.display());
    }
    emit_if_requested(&scale, &args);
}
