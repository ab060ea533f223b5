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
//! Usage: `loadgen [--quick] [--streams=N>0] [--ticks=N] [--chaos] [--zipf]
//! [--quant] [--metrics-out=PATH] [--trace-out=PATH] [--live-metrics=PATH]
//! [--expose=PATH] [--live-interval=N]`
//!
//! Each `N` is a whole number; `-` as the `--live-metrics` path streams
//! to stdout.
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

use mpgraph_bench::cli::LOADGEN;
use mpgraph_bench::report::{dump_json, f, pct, print_table, write_json_compact_to, write_json_to};
use mpgraph_bench::serve_load::{
    run_chaos, run_fused_comparison, run_load_sweep, Arrival, LoadgenSetup,
};
use mpgraph_bench::ExpScale;
use mpgraph_core::{LiveTelemetry, ServeConfig, TraceConfig};
use serde::Serialize;

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
    // The command line is read, and the live-telemetry outputs opened,
    // before `LoadgenSetup::prepare` trains.
    let args = LOADGEN.parse_or_exit("loadgen");
    let quick = args.switch("quick");
    let scale = ExpScale::preset(quick);
    let streams = args.count("streams").unwrap_or(8) as usize;
    let default_ticks = if quick { 200 } else { 2000 };
    let ticks = args.count("ticks").unwrap_or(default_ticks);
    let live = LiveTelemetry::from_outputs(
        args.text("live-metrics"),
        args.text("expose"),
        args.count("live-interval").unwrap_or(16),
    )
    .unwrap_or_else(|e| {
        eprintln!("loadgen: {e}");
        std::process::exit(2);
    });

    let cfg = ServeConfig::default();
    let mut setup = LoadgenSetup::prepare(&scale);
    if args.switch("quant") {
        let (params, bytes) = setup.quantize(&scale);
        println!(
            "serving distilled int8-stored student: {params} params, {bytes} int8 weight bytes"
        );
    }
    let setup = setup;
    let arrival = if args.switch("zipf") {
        Arrival::Zipf
    } else {
        Arrival::RoundRobin
    };
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
            if args.switch("zipf") {
                "Zipf"
            } else {
                "uniform"
            }
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

    let chaos_outcome = if args.switch("chaos") {
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
            quantized: args.switch("quant"),
            points: outcome.points.clone(),
            chaos: chaos_outcome,
            fused,
        },
    ) {
        println!("wrote {}", p.display());
    }
    if let Some(path) = args.path("metrics-out") {
        match write_json_to(&path, &outcome.snapshot) {
            Ok(()) => println!("metrics snapshot written to {}", path.display()),
            Err(e) => eprintln!("failed to write metrics to {}: {e}", path.display()),
        }
    }
    if let Some(path) = args.path("trace-out") {
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
    use mpgraph_bench::cli::LOADGEN;

    #[test]
    fn count_flags_parse_strictly() {
        let parse = |v: &[&str]| LOADGEN.parse(v.iter().map(|a| a.to_string()));
        let streams = |v: &[&str]| parse(v).map(|args| args.count("streams"));
        assert_eq!(streams(&["--streams", "8"]), Ok(Some(8)));
        assert_eq!(streams(&["--streams=2"]), Ok(Some(2)));
        assert_eq!(streams(&["--quick"]), Ok(None));
        for bad in [
            &["--streams", "0"][..],
            &["--streams", "abc"],
            &["--streams=abc"],
            &["--streams", "-3"],
            &["--streams"],
            &["--streams="],
        ] {
            let err = parse(bad).expect_err("bad value accepted").to_string();
            assert!(err.contains("--streams"), "{bad:?}: {err}");
        }
        // A zero tick count is allowed; a malformed one is not.
        let ticks = |v: &str| parse(&["--ticks", v]).map(|args| args.count("ticks"));
        assert_eq!(ticks("0"), Ok(Some(0)));
        assert!(ticks("abc").is_err_and(|e| e.to_string().contains("--ticks")));
    }
}
