//! Perf runner: kernel speedups, warm-arena inference latency, and
//! training throughput, with a baseline-comparison mode for CI.
//!
//! Usage:
//!   `perf [--quick] [--metrics-out=PATH] [--trace-out=PATH]`
//!       runs the suite and (re)writes the repo-root `BENCH_kernels.json`
//!       baseline;
//!   `perf --check [--quick] [--metrics-out=PATH] [--trace-out=PATH]`
//!       runs the suite, writes the current numbers to
//!       `results/BENCH_kernels_current.json`, compares calibration-
//!       normalized p50s against the committed baseline, and exits
//!       non-zero on a >15% regression unless `MPGRAPH_PERF_OVERRIDE` is
//!       set in the environment.
//!
//! Any other argument exits 2, naming it, before anything is measured or
//! written: a mistyped `--check` must not run the baseline mode and
//! rewrite the baseline.

use std::process::ExitCode;

use mpgraph_bench::cli::PERF;
use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json, print_table};
use mpgraph_bench::runners::perf::{compare, run_perf, run_perf_envelope, PerfReport, TOLERANCE};
use mpgraph_bench::ExpScale;

const BASELINE: &str = "BENCH_kernels.json";
/// Baseline mode: passes merged into the envelope.
const BASELINE_PASSES: usize = 3;
/// Check mode: measurement attempts before the gate fails. A code-caused
/// regression reproduces on every attempt; a machine-load wave does not.
const CHECK_ATTEMPTS: usize = 3;

fn print_report(rep: &PerfReport) {
    let kernels: Vec<Vec<String>> = rep
        .kernels
        .iter()
        .map(|k| {
            vec![
                k.name.clone(),
                format!("{}", k.tiled_p50_ns),
                format!("{}", k.ref_p50_ns),
                format!("{:.2}x", k.speedup),
            ]
        })
        .collect();
    print_table(
        "Kernel speedups (tiled vs seed reference loops)",
        &["Kernel", "Tiled p50 ns", "Ref p50 ns", "Speedup"],
        &kernels,
    );
    let gated: Vec<Vec<String>> = rep
        .gated
        .iter()
        .map(|e| {
            vec![
                e.name.clone(),
                format!("{}", e.p50_ns),
                format!("{}", e.p99_ns),
                format!("{:.3}", e.normalized_p50),
            ]
        })
        .collect();
    print_table(
        "Gated latencies (median per-pair ratio vs interleaved reference)",
        &["Entry", "p50 ns", "p99 ns", "Normalized p50"],
        &gated,
    );
    println!(
        "\ncalibration p50: {} ns | AMMA-PS train: {:.0} tokens/s | \
         Eq. 12 paper config: {} cycles ({:.0} ns @ 1 GHz)",
        rep.calibration_p50_ns, rep.train_tokens_per_sec, rep.eq12_paper_cycles, rep.eq12_paper_ns
    );
}

fn check(first: PerfReport, quick: bool) -> ExitCode {
    let text = match std::fs::read_to_string(BASELINE) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "perf gate: cannot read {BASELINE}: {e}\n\
                 Generate it with `cargo run --release -p mpgraph-bench --bin perf` \
                 and commit the result."
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline: PerfReport = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perf gate: {BASELINE} does not parse: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rep = first;
    let mut problems = Vec::new();
    for attempt in 1..=CHECK_ATTEMPTS {
        if attempt > 1 {
            eprintln!("perf gate: attempt {attempt}/{CHECK_ATTEMPTS} (re-measuring)");
            rep = run_perf(quick);
        }
        problems = compare(&baseline, &rep, TOLERANCE);
        if problems.is_empty() {
            break;
        }
    }
    if let Ok(p) = dump_json("BENCH_kernels_current", &rep) {
        println!("wrote {}", p.display());
    }
    if problems.is_empty() {
        println!(
            "perf gate: OK — {} gated entries within {:.0}% of the baseline",
            rep.gated.len(),
            TOLERANCE * 100.0
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "perf gate: {} problem(s) vs {BASELINE} (reproduced over {CHECK_ATTEMPTS} attempts):",
        problems.len()
    );
    for p in &problems {
        eprintln!("  - {p}");
    }
    // Empty counts as unset: CI pipes the `perf-override` label through
    // this variable and sets it to "" when the label is absent.
    let override_set = std::env::var("MPGRAPH_PERF_OVERRIDE").is_ok_and(|v| !v.is_empty());
    if override_set {
        eprintln!(
            "perf gate: MPGRAPH_PERF_OVERRIDE set — accepting the regression. \
             Refresh {BASELINE} in this PR to make the new numbers the baseline."
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "perf gate: failing. If the slowdown is an accepted trade-off, rerun the \
         default mode to refresh {BASELINE}, or apply the `perf-override` PR label \
         (sets MPGRAPH_PERF_OVERRIDE) to waive this run."
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = PERF.parse_or_exit("perf");
    let quick = args.switch("quick");
    let scale = ExpScale::preset(quick);
    if args.switch("check") {
        let rep = run_perf(quick);
        print_report(&rep);
        emit_if_requested(&scale, &args);
        return check(rep, quick);
    }
    // Baseline mode: envelope over several passes, so a transiently quiet
    // machine cannot set an unachievably tight bar.
    let rep = run_perf_envelope(quick, BASELINE_PASSES);
    print_report(&rep);
    emit_if_requested(&scale, &args);
    match serde_json::to_string_pretty(&rep) {
        Ok(json) => match std::fs::write(BASELINE, json + "\n") {
            Ok(()) => {
                println!("wrote {BASELINE} (new baseline — commit it)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write {BASELINE}: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("cannot serialize report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgraph_bench::cli::{ArgError, Args};

    fn parse(args: &[&str]) -> Result<Args, ArgError> {
        PERF.parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_accepts_the_documented_flags_in_both_value_forms() {
        let none = parse(&[]).expect("no arguments");
        assert!(!none.switch("quick") && !none.switch("check"));
        let all = parse(&[
            "--quick",
            "--check",
            "--metrics-out",
            "m.json",
            "--trace-out=t.json",
        ])
        .expect("every flag");
        assert!(all.switch("quick") && all.switch("check"));
        assert_eq!(all.text("metrics-out"), Some("m.json"));
        assert_eq!(all.text("trace-out"), Some("t.json"));
        let paths = parse(&["--metrics-out=m.json", "--trace-out", "t.json"]).expect("paths");
        assert!(!paths.switch("quick") && !paths.switch("check"));
        assert_eq!(paths.text("metrics-out"), Some("m.json"));
    }

    #[test]
    fn parse_rejects_unknown_arguments_and_missing_values_by_name() {
        for (args, named) in [
            (&["--quick", "--chek"][..], "`--chek`"),
            (&["--check", "quick"], "`quick`"),
            (&["-q"], "`-q`"),
            (&["--metrics-out"], "--metrics-out needs a value"),
            (&["--trace-out", "--quick"], "--trace-out needs a value"),
            (&["--metrics"], "`--metrics`"),
            (&["--check=1"], "--check takes no value"),
            (&["--check", "--check"], "--check given twice"),
        ] {
            let err = parse(args).expect_err("accepted").to_string();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }
}
