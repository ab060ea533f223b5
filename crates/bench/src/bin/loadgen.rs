//! Open-loop load generator for the multi-stream prefetch service.
//!
//! Sweeps offered load at 0.5x / 1x / 2x of the service's saturation
//! rate and reports throughput, prediction-latency percentiles, and shed
//! fraction per point; `--chaos` additionally drives `StallInference`
//! faults through a quarter of the streams and verifies that quarantine
//! contains the blast radius. A fused-vs-per-item comparison at 1x
//! saturation (lockstep streams) always runs and prints the pump-fusion
//! speedup plus a bit-identity verdict.
//!
//! Usage: `loadgen [--quick] [--streams N] [--ticks N] [--chaos]
//! [--zipf] [--quant] [--metrics-out FILE] [--trace-out FILE]
//! [--live-metrics FILE|-] [--expose FILE] [--live-interval N]`
//!
//! Each `N` must be a whole number, and `--streams` at least 1; a bad
//! value exits with status 2 and names the flag.
//!
//! `--zipf` replaces the uniform round-robin arrivals with Zipf(1)
//! weights across streams (hot stream 0 down to the coldest); the
//! per-stream p50/p99 spread is reported either way.
//!
//! `--quant` distills the trained stack into the compressed student and
//! rounds its weights onto their int8 storage grid — the whole sweep then
//! serves the int8-stored model, so diffing a `--quant` metrics snapshot
//! against an f32 one gates the int8 storage accuracy cost.
//!
//! `--metrics-out` writes the full `MetricsSnapshot` (with the `serve`
//! section populated) of the highest-load sweep point; `--trace-out`
//! writes that point's Chrome trace.
//!
//! `--live-metrics` attaches the live-telemetry pump to the traced
//! (highest-load) sweep point and streams one NDJSON interval record per
//! `--live-interval` pumps to the given file (or stdout with `-`);
//! `--expose` additionally rewrites a Prometheus-style text exposition
//! atomically every interval. See DESIGN.md §18.

use mpgraph_bench::report::{
    dump_json, f, flag_value, metrics_out_arg, pct, print_table, trace_out_arg,
    write_json_compact_to, write_json_to,
};
use mpgraph_bench::serve_load::{
    run_chaos, run_fused_comparison, run_load_sweep, Arrival, LoadgenSetup,
};
use mpgraph_bench::ExpScale;
use mpgraph_core::{LiveTelemetry, ServeConfig, TraceConfig};
use serde::Serialize;

/// The value of the numeric flag `flag` in `args`: `default` when the
/// flag is absent, an error naming the flag when its value is missing,
/// not a whole number, or below `min`.
fn count_arg(args: &[String], flag: &str, default: usize, min: usize) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    match value.parse::<usize>() {
        Ok(n) if n >= min => Ok(n),
        Ok(n) => Err(format!("{flag} must be at least {min}, got {n}")),
        Err(_) => Err(format!("{flag} takes a whole number, got {value:?}")),
    }
}

/// [`count_arg`] over the process arguments; exits with status 2 and the
/// message on a bad value.
fn usize_arg(flag: &str, default: usize, min: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    count_arg(&args, flag, default, min).unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(2);
    })
}

#[derive(Serialize)]
struct LoadgenArtifact {
    /// True when the sweep served the distilled, int8-stored student
    /// (`--quant`).
    quantized: bool,
    points: Vec<mpgraph_bench::serve_load::LoadPoint>,
    chaos: Option<mpgraph_bench::serve_load::ChaosOutcome>,
    fused: mpgraph_bench::serve_load::FusedComparison,
}

fn main() {
    let scale = ExpScale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let chaos = args.iter().any(|a| a == "--chaos");
    let quick = args.iter().any(|a| a == "--quick");
    let zipf = args.iter().any(|a| a == "--zipf");
    let streams = usize_arg("--streams", 8, 1);
    let ticks = usize_arg("--ticks", if quick { 200 } else { 2000 }, 0) as u64;
    let live_interval = usize_arg("--live-interval", 16, 0) as u64;

    let quant = args.iter().any(|a| a == "--quant");

    let cfg = ServeConfig::default();
    let mut setup = LoadgenSetup::prepare(&scale);
    if quant {
        let (params, bytes) = setup.quantize(&scale);
        println!(
            "serving distilled int8-stored student: {params} params, {bytes} int8 weight bytes"
        );
    }
    let setup = setup;
    let arrival = if zipf {
        Arrival::Zipf
    } else {
        Arrival::RoundRobin
    };
    let live = LiveTelemetry::from_outputs(
        flag_value("live-metrics").as_deref(),
        flag_value("expose").as_deref(),
        live_interval,
    )
    .unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(2);
    });
    let live_attached = live.is_some();
    let outcome = run_load_sweep(
        &setup,
        cfg,
        streams,
        ticks,
        &[0.5, 1.0, 2.0],
        arrival,
        Some(TraceConfig::with_adaptive()),
        live,
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    for p in &outcome.points {
        rows.push(vec![
            format!("{:.1}x", p.load_factor),
            p.offered_per_tick.to_string(),
            p.accesses.to_string(),
            format!("{:.0}", p.accesses_per_sec),
            p.p50_latency_cycles.to_string(),
            p.p99_latency_cycles.to_string(),
            pct(p.shed_fraction),
            f(p.ml_processed as f64 / p.accesses.max(1) as f64, 3),
            p.final_overload_level.to_string(),
            p.quarantines.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Service load sweep (open-loop, {} arrivals)",
            if zipf { "Zipf" } else { "uniform" }
        ),
        &[
            "load",
            "rate/tick",
            "accesses",
            "acc/s",
            "p50 cyc",
            "p99 cyc",
            "shed",
            "ml frac",
            "level",
            "quar",
        ],
        &rows,
    );

    // Per-stream latency spread of the saturation (1x) point: skewed
    // arrivals must not starve cold streams.
    if let Some(p) = outcome
        .points
        .iter()
        .find(|p| (p.load_factor - 1.0).abs() < f64::EPSILON)
    {
        let rows: Vec<Vec<String>> = p
            .per_stream
            .iter()
            .map(|s| {
                vec![
                    s.stream.to_string(),
                    s.predictions.to_string(),
                    s.p50_latency_cycles.to_string(),
                    s.p99_latency_cycles.to_string(),
                ]
            })
            .collect();
        print_table(
            "Per-stream latency spread at 1x saturation",
            &["stream", "served", "p50 cyc", "p99 cyc"],
            &rows,
        );
    }

    if live_attached {
        let serve = &outcome.snapshot.serve;
        println!(
            "live telemetry: {} intervals closed, slo verdict {} (worst burn {:.2}, \
             {} escalations), telemetry overhead {:.4} of pump wall",
            serve.live.len(),
            serve.slo.verdict_level,
            serve.slo.worst_burn_rate,
            serve.slo.escalations,
            serve.pump_stages.self_overhead_fraction,
        );
    }

    let fused = run_fused_comparison(&setup, cfg, streams, ticks);
    print_table(
        "Fused (BxTxd) pump vs per-item forwards at 1x saturation",
        &[
            "fused acc/s",
            "per-item acc/s",
            "speedup",
            "bit-identical",
            "batches",
            "items",
            "forwards",
        ],
        &[vec![
            format!("{:.0}", fused.fused_accesses_per_sec),
            format!("{:.0}", fused.per_item_accesses_per_sec),
            f(fused.speedup, 2),
            if fused.bit_identical { "YES" } else { "NO" }.to_string(),
            fused.fused_batches.to_string(),
            fused.fused_items.to_string(),
            fused.fused_forwards.to_string(),
        ]],
    );

    let chaos_outcome = if chaos {
        let out = run_chaos(&setup, cfg, streams, ticks, 7);
        let at = |t: Option<u64>| t.map_or("-".to_string(), |v| v.to_string());
        print_table(
            "Chaos: StallInference on victim streams",
            &[
                "victims",
                "quarantined",
                "stalls",
                "isolation",
                "healthy fallback",
                "slo@",
                "quar@",
                "slo first",
            ],
            &[vec![
                format!("{:?}", out.victims),
                format!("{:?}", out.quarantined),
                out.stalls_injected.to_string(),
                if out.isolation_held { "HELD" } else { "BROKEN" }.to_string(),
                pct(out.healthy_fallback_fraction),
                at(out.slo_escalated_at),
                at(out.first_quarantine_at),
                if out.slo_fired_first { "YES" } else { "NO" }.to_string(),
            ]],
        );
        Some(out)
    } else {
        None
    };

    if let Ok(p) = dump_json(
        "loadgen",
        &LoadgenArtifact {
            quantized: quant,
            points: outcome.points.clone(),
            chaos: chaos_outcome,
            fused,
        },
    ) {
        println!("wrote {}", p.display());
    }
    if let Some(path) = metrics_out_arg() {
        match write_json_to(&path, &outcome.snapshot) {
            Ok(()) => println!("metrics snapshot written to {}", path.display()),
            Err(e) => eprintln!("failed to write metrics to {}: {e}", path.display()),
        }
    }
    if let Some(path) = trace_out_arg() {
        match &outcome.chrome_trace {
            Some(tr) => match write_json_compact_to(&path, tr) {
                Ok(()) => println!("chrome trace written to {}", path.display()),
                Err(e) => eprintln!("failed to write trace to {}: {e}", path.display()),
            },
            None => eprintln!("trace requested but the service produced none"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::count_arg;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn count_flags_parse_strictly() {
        let parse = |v: &[&str]| count_arg(&args(v), "--streams", 8, 1);
        assert_eq!(parse(&["loadgen", "--streams", "8"]), Ok(8));
        assert_eq!(parse(&["loadgen", "--quick"]), Ok(8));
        for bad in [
            &["loadgen", "--streams", "0"][..],
            &["loadgen", "--streams", "abc"],
            &["loadgen", "--streams", "-3"],
            &["loadgen", "--streams"],
        ] {
            let err = parse(bad).expect_err("bad value accepted");
            assert!(err.contains("--streams"), "{bad:?}: {err}");
        }
        // A zero tick count is allowed; a malformed one is not.
        let ticks = |v: &str| count_arg(&args(&["loadgen", "--ticks", v]), "--ticks", 200, 0);
        assert_eq!(ticks("0"), Ok(0));
        assert!(ticks("abc").is_err_and(|e| e.contains("--ticks")));
    }
}
