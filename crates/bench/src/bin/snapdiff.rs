//! Metrics-snapshot regression gate.
//!
//! Usage: `snapdiff <baseline.json> <current.json> [--tol X]
//! [--tol-accuracy X] [--tol-coverage X] [--tol-timeliness X]
//! [--tol-pbot X] [--tol-p50 X] [--tol-p99 X] [--tol-burn X]`
//!
//! Exit codes: 0 — no regression; 1 — at least one gated metric degraded
//! beyond tolerance; 2 — usage or parse error. `--tol` sets every
//! tolerance at once; the per-metric flags override it. Rate tolerances
//! are absolute (lower regresses); `--tol-p50`/`--tol-p99` are relative
//! headroom on the latency-histogram percentiles (higher regresses);
//! `--tol-burn` is relative headroom on the serve-path SLO burn metrics
//! (`serve.slo.worst_burn_rate` / `serve.slo.breach_intervals`, higher
//! regresses, zero baseline never gates). A gated metric missing from
//! either file is a parse error (exit 2) naming the path; fields no gate
//! reads may be absent.

use mpgraph_bench::snapdiff::{diff_snapshots, Tolerances};
use serde::Value;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: snapdiff <baseline.json> <current.json> [--tol X] \
         [--tol-accuracy X] [--tol-coverage X] [--tol-timeliness X] [--tol-pbot X] \
         [--tol-p50 X] [--tol-p99 X] [--tol-burn X]"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut tol = Tolerances::default();
    type Setter = fn(&mut Tolerances, f64);
    let flags: [(&str, Setter); 8] = [
        ("--tol", |t, v| *t = Tolerances::uniform(v)),
        ("--tol-accuracy", |t, v| t.accuracy = v),
        ("--tol-coverage", |t, v| t.coverage = v),
        ("--tol-timeliness", |t, v| t.timeliness = v),
        ("--tol-pbot", |t, v| t.pbot_hit_rate = v),
        ("--tol-p50", |t, v| t.latency_p50 = v),
        ("--tol-p99", |t, v| t.latency_p99 = v),
        ("--tol-burn", |t, v| t.burn = v),
    ];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            files.push(a.clone());
            continue;
        }
        let flag = flags.iter().find(|(name, _)| name == a);
        match (flag, it.next().and_then(|v| v.parse::<f64>().ok())) {
            (Some(&(_, set)), Some(v)) => set(&mut tol, v),
            _ => return usage(),
        }
    }
    if files.len() != 2 {
        return usage();
    }
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
