//! Perf runner: kernel speedups, warm-arena inference latency, and
//! training throughput, with a baseline-comparison mode for CI.
//!
//! Usage:
//!   `cargo run --release -p mpgraph-bench --bin perf [--quick] [--metrics-out <path>]`
//!       runs the suite and (re)writes the repo-root `BENCH_kernels.json`
//!       baseline;
//!   `cargo run --release -p mpgraph-bench --bin perf -- --quick --check`
//!       runs the suite, writes the current numbers to
//!       `results/BENCH_kernels_current.json`, compares calibration-
//!       normalized p50s against the committed baseline, and exits
//!       non-zero on a >15% regression unless `MPGRAPH_PERF_OVERRIDE` is
//!       set in the environment.
//!
//! `--trace-out <path>` is accepted too. Any other argument exits 2,
//! naming it, before anything is measured or written: a mistyped
//! `--check` must not run the baseline mode and rewrite the baseline.

use std::process::ExitCode;

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

/// The modes the command line selects.
#[derive(Debug, Default, PartialEq, Eq)]
struct Mode {
    quick: bool,
    check: bool,
}

/// Parses the arguments after the program name: the switches `--quick`
/// and `--check`, and `--metrics-out` / `--trace-out` with a value, as
/// `--flag value` or `--flag=value` (their values are read where the
/// artifacts are written, by `emit_if_requested`). Anything else is an
/// error that names it.
fn parse_mode(args: &[String]) -> Result<Mode, String> {
    let mut mode = Mode::default();
    let mut args = args.iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => mode.quick = true,
            "--check" => mode.check = true,
            "--metrics-out" | "--trace-out" => match args.next() {
                Some(v) if !v.starts_with("--") => {}
                _ => return Err(format!("{a} needs a value")),
            },
            _ if a.starts_with("--metrics-out=") || a.starts_with("--trace-out=") => {}
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(mode)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_mode(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perf [--quick] [--check] [--metrics-out <path>] \
                 [--trace-out <path>]"
            );
            return ExitCode::from(2);
        }
    };
    let quick = mode.quick;
    let scale = if quick {
        ExpScale::quick()
    } else {
        ExpScale::standard()
    };
    if mode.check {
        let rep = run_perf(quick);
        print_report(&rep);
        emit_if_requested(&scale);
        return check(rep, quick);
    }
    // Baseline mode: envelope over several passes, so a transiently quiet
    // machine cannot set an unachievably tight bar.
    let rep = run_perf_envelope(quick, BASELINE_PASSES);
    print_report(&rep);
    emit_if_requested(&scale);
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

    fn parse(args: &[&str]) -> Result<Mode, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_mode(&args)
    }

    #[test]
    fn parse_accepts_the_documented_flags_in_both_value_forms() {
        assert_eq!(parse(&[]), Ok(Mode::default()));
        assert_eq!(
            parse(&[
                "--quick",
                "--check",
                "--metrics-out",
                "m.json",
                "--trace-out=t.json"
            ]),
            Ok(Mode {
                quick: true,
                check: true
            })
        );
        assert_eq!(
            parse(&["--metrics-out=m.json", "--trace-out", "t.json"]),
            Ok(Mode::default())
        );
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
        ] {
            let err = parse(args).expect_err("accepted");
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }
}
