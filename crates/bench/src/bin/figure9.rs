//! Regenerates Figure 9: case study of KSWIN vs Soft-KSWIN on the GPOP
//! PageRank PC stream — K-S statistic timeline, detections, false
//! positives, and Soft-KSWIN's detection lag.
//!
//! Usage: `figure9 [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::dump_json_compact;
use mpgraph_bench::runners::detection::run_figure9;
use mpgraph_bench::ExpScale;

fn main() {
    let (scale, args) = ExpScale::from_command_line("figure9");
    let data = run_figure9(&scale);
    println!("== Figure 9: KSWIN vs Soft-KSWIN case study (GPOP PR) ==");
    println!("K-S threshold (Eq. 5): {:.4}", data.threshold);
    println!("true transitions:      {:?}", data.true_transitions);
    println!(
        "KSWIN detections:      {} ({} false positives)",
        data.kswin_detections.len(),
        data.kswin_false_positives
    );
    println!(
        "Soft-KSWIN detections: {} ({} false positives, mean lag {:.0} accesses)",
        data.soft_detections.len(),
        data.soft_false_positives,
        data.soft_mean_lag
    );
    // ASCII sketch of the K-S statistic around the first true transition.
    if let Some(&t0) = data.true_transitions.first() {
        println!("\nK-S statistic near the first transition (index {t0}):");
        for &(i, d) in data.ks_series.iter().filter(|(i, _)| i.abs_diff(t0) < 600) {
            let bars = (d * 40.0) as usize;
            let marker = if d > data.threshold { '*' } else { ' ' };
            println!("  {i:7} |{}{marker}", "#".repeat(bars));
        }
    }
    if let Ok(p) = dump_json_compact("figure9", &data) {
        println!("\nwrote {}", p.display());
    }
    emit_if_requested(&scale, &args);
}
