//! Regenerates Figure 2: PCA of memory-access windows (a) and PC windows
//! (b) from GPOP CC+PR, labelled by Scatter/Gather phase. Prints the top-3
//! component coordinates per phase centroid and the separation scores.
//!
//! Usage: `figure2 [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json_compact, f, print_table};
use mpgraph_bench::runners::motivation::run_figure2;
use mpgraph_bench::ExpScale;

fn main() {
    let (scale, args) = ExpScale::from_command_line("figure2");
    let data = run_figure2(&scale);
    let summarize = |points: &[mpgraph_bench::runners::motivation::PcaPoint]| -> Vec<Vec<String>> {
        let phases: std::collections::BTreeSet<u8> = points.iter().map(|p| p.phase).collect();
        phases
            .into_iter()
            .map(|ph| {
                let sel: Vec<_> = points.iter().filter(|p| p.phase == ph).collect();
                let mut row = vec![format!("phase {ph}"), sel.len().to_string()];
                for c in 0..3 {
                    let mean: f64 = sel.iter().map(|p| p.components[c] as f64).sum::<f64>()
                        / sel.len().max(1) as f64;
                    row.push(f(mean, 3));
                }
                row
            })
            .collect()
    };
    print_table(
        "Figure 2a: PCA of memory accesses (phase centroids)",
        &["Phase", "N", "Comp1", "Comp2", "Comp3"],
        &summarize(&data.access_points),
    );
    print_table(
        "Figure 2b: PCA of program counters (phase centroids)",
        &["Phase", "N", "Comp1", "Comp2", "Comp3"],
        &summarize(&data.pc_points),
    );
    println!("\nSeparation (between-centroid distance / within-phase spread):");
    println!("  accesses: {:.2}", data.access_separation);
    println!(
        "  PCs:      {:.2}  (>1 ⇒ phases separable, the paper's claim)",
        data.pc_separation
    );
    if let Ok(p) = dump_json_compact("figure2", &data) {
        println!("\nwrote {}", p.display());
    }
    emit_if_requested(&scale, &args);
}
