//! Degradation demo: MPGraph with and without the DegradationGuard under
//! injected inference stalls, against the pure Best-Offset ceiling, plus
//! the aggregated pipeline HealthReport.
//!
//! Usage: `cargo run --release -p mpgraph-bench --bin resilience
//! [--quick] [--metrics-out <path>] [--trace-out <path>]`
//!
//! `--metrics-out` and `--trace-out` both describe the guarded run: its
//! snapshot, and its Chrome trace with the guard's trip/recover track.

use mpgraph_bench::metrics::write_trace;
use mpgraph_bench::report::{
    dump_json, metrics_out_arg, print_table, trace_out_arg, write_json_to,
};
use mpgraph_bench::runners::resilience::run_resilience;
use mpgraph_bench::ExpScale;
use mpgraph_core::TraceConfig;

fn main() {
    let scale = ExpScale::from_args();
    let trace_out = trace_out_arg();
    let (rep, chrome) = run_resilience(&scale, trace_out.as_ref().map(|_| TraceConfig::default()));
    let table: Vec<Vec<String>> = rep
        .rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                if r.stalled { "80% stalls" } else { "clean" }.into(),
                format!("{:.3}", r.accuracy),
                format!("{:.3}", r.coverage),
                format!("{:.3}", r.ipc),
                format!("{:+.2}%", r.ipc_improvement_pct),
            ]
        })
        .collect();
    print_table(
        "Resilience: graceful degradation under inference stalls (GPOP PR)",
        &[
            "Config", "Faults", "Accuracy", "Coverage", "IPC", "IPC Impv",
        ],
        &table,
    );
    println!(
        "\n{} inference stalls injected; guard tripped: {}",
        rep.inference_stalls_injected, rep.guard_tripped
    );
    let health: Vec<Vec<String>> = rep
        .health
        .iter()
        .map(|h| vec![h.component.clone(), h.status.clone(), h.detail.clone()])
        .collect();
    print_table("Health report", &["Component", "Status", "Detail"], &health);
    let m = &rep.metrics;
    println!(
        "\nguarded-run metrics: {} issued, accuracy {:.3}, coverage {:.3}, timeliness {:.3}",
        m.issued, m.accuracy, m.coverage, m.timeliness
    );
    println!(
        "  cstp: pbot hit rate {:.3}, avg chain {:.2}, {} duplicates suppressed",
        m.cstp.pbot_hit_rate, m.cstp.avg_chain_len, m.cstp.duplicates_suppressed
    );
    println!(
        "  latency: inference p50/p99 {}/{} cyc, memory p50/p99 {}/{} cyc",
        m.inference_latency.p50,
        m.inference_latency.p99,
        m.memory_latency.p50,
        m.memory_latency.p99
    );
    if let Some(path) = metrics_out_arg() {
        match write_json_to(&path, &rep.metrics) {
            Ok(()) => println!("wrote metrics to {}", path.display()),
            Err(e) => eprintln!("failed to write metrics to {}: {e}", path.display()),
        }
    }
    if let Ok(p) = dump_json("resilience", &rep) {
        println!("\nwrote {}", p.display());
    }
    if let Some(path) = trace_out {
        write_trace(&path, chrome);
    }
}
