//! Metrics-snapshot regression gate.
//!
//! Usage: `snapdiff BASELINE CURRENT [--tol=X] [--tol-accuracy=X]
//! [--tol-coverage=X] [--tol-timeliness=X] [--tol-pbot=X] [--tol-p50=X]
//! [--tol-p99=X] [--tol-burn=X]`
//!
//! Exit codes: 0 — no regression; 1 — at least one gated metric degraded
//! beyond tolerance; 2 — usage or parse error. `--tol` sets every
//! tolerance at once; the per-metric flags override it, wherever they
//! stand on the command line. Rate tolerances
//! are absolute (lower regresses); `--tol-p50`/`--tol-p99` are relative
//! headroom on the latency-histogram percentiles (higher regresses);
//! `--tol-burn` is relative headroom on the serve-path SLO burn metrics
//! (`serve.slo.worst_burn_rate` / `serve.slo.breach_intervals`, higher
//! regresses, zero baseline never gates). A gated metric missing from
//! either file is a parse error (exit 2) naming the path; fields no gate
//! reads may be absent.

use mpgraph_bench::cli::{Args, SNAPDIFF};
use mpgraph_bench::snapdiff::{diff_snapshots, Tolerances};
use serde::Value;
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
}

/// The tolerances a command line sets: `--tol` first, then each
/// per-metric flag over it.
fn tolerances(args: &Args) -> Tolerances {
    let mut tol = args
        .number("tol")
        .map_or_else(Tolerances::default, Tolerances::uniform);
    for (flag, field) in [
        ("tol-accuracy", &mut tol.accuracy),
        ("tol-coverage", &mut tol.coverage),
        ("tol-timeliness", &mut tol.timeliness),
        ("tol-pbot", &mut tol.pbot_hit_rate),
        ("tol-p50", &mut tol.latency_p50),
        ("tol-p99", &mut tol.latency_p99),
        ("tol-burn", &mut tol.burn),
    ] {
        if let Some(v) = args.number(flag) {
            *field = v;
        }
    }
    tol
}

fn main() -> ExitCode {
    let args = SNAPDIFF.parse_or_exit("snapdiff");
    let tol = tolerances(&args);
    let files = &args.positional;
    let (baseline, current) = match (load(&files[0]), load(&files[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("snapdiff: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match diff_snapshots(&baseline, &current, &tol) {
        Ok(rep) => rep,
        Err(e) => {
            let file = if e.side == "baseline" {
                &files[0]
            } else {
                &files[1]
            };
            eprintln!("snapdiff: {file}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<24} {:>10} {:>10} {:>7}  verdict",
        "metric", "baseline", "current", "tol"
    );
    for d in &rep.deltas {
        println!(
            "{:<24} {:>10.4} {:>10.4} {:>7.3}  {}",
            d.metric,
            d.baseline,
            d.current,
            d.tolerance,
            if d.regressed { "REGRESSED" } else { "ok" }
        );
    }
    if rep.has_regressions() {
        let n = rep.regressions().count();
        eprintln!("snapdiff: {n} metric(s) regressed beyond tolerance");
        ExitCode::from(1)
    } else {
        println!("snapdiff: no regressions");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_metric_tolerances_override_tol_in_either_order() {
        let tol = |v: &[&str]| {
            let args = SNAPDIFF
                .parse(v.iter().map(|a| a.to_string()))
                .expect("valid command line");
            tolerances(&args)
        };
        let expected = Tolerances {
            accuracy: 0.1,
            ..Tolerances::uniform(0.2)
        };
        assert_eq!(
            tol(&["B", "C", "--tol-accuracy", "0.1", "--tol", "0.2"]),
            expected
        );
        assert_eq!(
            tol(&["B", "C", "--tol=0.2", "--tol-accuracy=0.1"]),
            expected
        );
        assert_eq!(tol(&["B", "C"]), Tolerances::default());
        let burn = tol(&["B", "C", "--tol-burn", "0.5"]);
        assert_eq!(
            burn,
            Tolerances {
                burn: 0.5,
                ..Tolerances::default()
            }
        );
    }
}
