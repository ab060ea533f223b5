//! Regenerates Figure 3: wide-range memory-access page jumps in GPOP's
//! Scatter and Gather phases. Prints jump statistics and dumps the raw
//! page series for plotting.
//!
//! Usage: `figure3 [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json_compact, pct, print_table};
use mpgraph_bench::runners::motivation::run_figure3;
use mpgraph_bench::ExpScale;

fn main() {
    let (scale, args) = ExpScale::from_command_line("figure3");
    let data = run_figure3(&scale);
    print_table(
        "Figure 3: page-jump statistics (GPOP PR)",
        &[
            "Phase",
            "Accesses",
            "Distinct pages",
            "Wide jumps (>4 pages)",
        ],
        &[
            vec![
                "Scatter".into(),
                data.scatter_pages.len().to_string(),
                data.scatter_distinct_pages.to_string(),
                pct(data.scatter_wide_jump_ratio),
            ],
            vec![
                "Gather".into(),
                data.gather_pages.len().to_string(),
                data.gather_distinct_pages.to_string(),
                pct(data.gather_wide_jump_ratio),
            ],
        ],
    );
    if let Ok(p) = dump_json_compact("figure3", &data) {
        println!("\nwrote {}", p.display());
    }
    emit_if_requested(&scale, &args);
}
