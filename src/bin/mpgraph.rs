//! `mpgraph` — command-line driver for the reproduction pipeline.
//!
//! ```text
//! mpgraph trace    --framework gpop --app pr --dataset rmat --div 64 \
//!                  --iterations 6 --out pr.mpgtrc
//! mpgraph info     pr.mpgtrc
//! mpgraph simulate pr.mpgtrc --prefetcher bo
//! mpgraph run      --framework gpop --app pr --dataset youtube --div 64
//! mpgraph run      --all --shards 4 --quick --metrics-out merged.json
//! mpgraph serve    pr.mpgtrc --streams 8 --load 2.0
//! ```
//!
//! `run` executes the full paper workflow on one workload: trace → LLC
//! filter → train MPGraph on iteration 0 → simulate the remaining
//! iterations against the no-prefetch baseline and BO. With `--quick` the
//! combo runs through the bench harness at `ExpScale::quick()` — the same
//! per-combo path the sharded matrix uses. With `--all` the full
//! framework × app × dataset matrix runs sharded across worker threads
//! and the per-combo snapshots merge deterministically (fixed combo
//! order), so the merged `--metrics-out` artifact is byte-identical at
//! any `--shards` count.

use mpgraph::bench::cli::{self, exit_usage, Args};
use mpgraph::bench::serve_load;
use mpgraph::core::trace::TraceConfig as TelemetryConfig;
use mpgraph::core::{
    build_detector, train_mpgraph, LiveTelemetry, MetricsSnapshot, MpGraphConfig,
    MpGraphPrefetcher, PrefetchScoreboard, PrefetchService, ServeConfig,
};
use mpgraph::frameworks::{generate_trace, io, App, Framework, Trace, TraceConfig};
use mpgraph::graph::{standin, Dataset};
use mpgraph::prefetchers::{BestOffset, BoConfig, Isb, IsbConfig, NextLine, Stride, TrainCfg};
use mpgraph::sim::{
    llc_filter, simulate, simulate_observed, FaultConfig, FaultInjector, FaultKind, LlcAccess,
    NullPrefetcher, PrefetchObserver, Prefetcher, SimResult,
};

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The workload a `trace` or `run` command line names; a framework × app
/// pair Table 1 does not list exits 1.
fn workload(args: &Args) -> (Framework, App, Dataset) {
    let framework = match args.text("framework") {
        Some("gpop") => Framework::Gpop,
        Some("xstream" | "x-stream") => Framework::XStream,
        Some("powergraph") => Framework::PowerGraph,
        other => unreachable!("the required --framework set has no {other:?}"),
    };
    let app = match args.text("app") {
        Some("bfs") => App::Bfs,
        Some("cc") => App::Cc,
        Some("pr" | "pagerank") => App::Pr,
        Some("sssp") => App::Sssp,
        Some("tc") => App::Tc,
        other => unreachable!("the required --app set has no {other:?}"),
    };
    if !framework.apps().contains(&app) {
        die(&format!(
            "{} does not ship {} (Table 1); available: {}",
            framework.name(),
            app.name(),
            framework
                .apps()
                .iter()
                .map(|a| a.name().to_lowercase())
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    let dataset = args.text("dataset").map_or(Dataset::Rmat, |name| {
        Dataset::ALL
            .into_iter()
            .find(|d| d.name() == name)
            .expect("the --dataset set holds the dataset names")
    });
    (framework, app, dataset)
}

/// Builds an injector from `--fault`/`--fault-rate`/`--fault-seed`/
/// `--stall-cycles`, or `None` when no fault was requested.
fn fault_injector(args: &Args) -> Option<FaultInjector> {
    let name = args.text("fault")?;
    let kind = FaultKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .expect("the --fault set holds the fault names");
    let rate = args.number("fault-rate").unwrap_or(0.1);
    let seed = args.count("fault-seed").unwrap_or(0xFA17);
    let mut cfg = FaultConfig::only(kind, rate, seed);
    if let Some(cycles) = args.count("stall-cycles") {
        cfg.stall_cycles = cycles;
    }
    cfg.validate().unwrap_or_else(|e| die(&e));
    Some(FaultInjector::new(cfg))
}

fn build_trace(args: &Args) -> Trace {
    let (fw, app, ds) = workload(args);
    let div = args.count("div").unwrap_or(64) as usize;
    let iterations = args.count("iterations").unwrap_or(6) as usize;
    let limit = args.count("limit").unwrap_or(2_000_000) as usize;
    let g = standin(ds, div, 0xC11);
    eprintln!(
        "tracing {} {} on {}/{} ({} vertices, {} edges)...",
        fw.name(),
        app.name(),
        ds.name(),
        div,
        g.num_vertices(),
        g.num_edges()
    );
    generate_trace(
        fw,
        app,
        &g,
        &TraceConfig {
            iterations,
            record_limit: limit,
            ..TraceConfig::default()
        },
    )
    .trace
}

/// Builds a scoreboard when `--metrics-out` or `--trace-out` was given, so
/// the simulate/run commands pay the observer cost only when the user asked
/// for metrics or a trace. `--trace-out` additionally arms the flight
/// recorder and windowed telemetry.
fn scoreboard_for(args: &Args, num_phases: usize) -> Option<PrefetchScoreboard> {
    let phases = num_phases.max(1);
    if args.text("trace-out").is_some() {
        Some(PrefetchScoreboard::with_trace(
            phases,
            4096,
            TelemetryConfig::default(),
        ))
    } else {
        args.text("metrics-out")
            .map(|_| PrefetchScoreboard::new(phases, 4096))
    }
}

fn write_metrics(args: &Args, snap: &MetricsSnapshot) {
    let Some(path) = args.text("metrics-out") else {
        return;
    };
    let json = snap
        .to_json_pretty()
        .unwrap_or_else(|e| die(&format!("serializing metrics: {e}")));
    std::fs::write(path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    eprintln!("metrics written to {path}");
}

/// Writes a Chrome-trace JSON value when `--trace-out` was given.
fn write_trace(args: &Args, chrome: Option<serde::Value>) {
    let Some(path) = args.text("trace-out") else {
        return;
    };
    let Some(chrome) = chrome else {
        die("trace requested but the scoreboard recorded none");
    };
    let json =
        serde_json::to_string(&chrome).unwrap_or_else(|e| die(&format!("serializing trace: {e}")));
    std::fs::write(path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
    eprintln!("chrome trace written to {path} (load it in ui.perfetto.dev)");
}

fn report(label: &str, r: &SimResult, base: Option<&SimResult>) {
    let impv = base
        .map(|b| format!("{:+8.2}%", r.ipc_improvement(b)))
        .unwrap_or_else(|| "       -".into());
    println!(
        "{label:12} ipc {:6.3}  acc {:6.1}%  cov {:6.1}%  impv {impv}",
        r.ipc(),
        100.0 * r.accuracy(),
        100.0 * r.coverage()
    );
}

fn cmd_trace(args: &Args) {
    let out = args.text("out").expect("parse checks the required --out");
    let trace = build_trace(args);
    io::save(&trace, out).unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "wrote {} ({} records, {} phases, {} transitions)",
        out,
        trace.records.len(),
        trace.num_phases,
        trace.transitions.len()
    );
}

fn cmd_info(args: &Args) {
    let t = io::load(&args.positional[0]).unwrap_or_else(|e| die(&e.to_string()));
    println!("records:     {}", t.records.len());
    println!("phases/iter: {}", t.num_phases);
    println!("iterations:  {}", t.num_iterations());
    println!("transitions: {}", t.transitions.len());
    println!("instructions:{}", t.instruction_count());
    let pages: std::collections::HashSet<u64> = t.records.iter().map(|r| r.page()).collect();
    println!("pages:       {}", pages.len());
    let writes = t.records.iter().filter(|r| r.is_write).count();
    println!(
        "writes:      {} ({:.1}%)",
        writes,
        100.0 * writes as f64 / t.records.len().max(1) as f64
    );
    let deps = t.records.iter().filter(|r| r.dep).count();
    println!(
        "dep loads:   {} ({:.1}%)",
        deps,
        100.0 * deps as f64 / t.records.len().max(1) as f64
    );
}

fn cmd_simulate(args: &Args) {
    let mut inj = fault_injector(args);
    let t = io::load(&args.positional[0]).unwrap_or_else(|e| die(&e.to_string()));
    let cfg = if args.switch("scaled") {
        mpgraph::scaled_sim_config()
    } else {
        mpgraph::sim::SimConfig::default()
    };
    let base = simulate(&t.records, &mut NullPrefetcher, &cfg);
    report("none", &base, None);
    let mut pf: Box<dyn Prefetcher> = match args.text("prefetcher").unwrap_or("bo") {
        "none" => return,
        "next-line" => Box::new(NextLine::new(6)),
        "stride" => Box::new(Stride::new(6)),
        "bo" => Box::new(BestOffset::new(BoConfig::default())),
        "isb" => Box::new(Isb::new(IsbConfig::default())),
        other => unreachable!("the --prefetcher set has no {other}"),
    };
    let mut sb = scoreboard_for(args, t.num_phases as usize);
    let r = simulate_observed(
        &t.records,
        pf.as_mut(),
        &cfg,
        inj.as_mut(),
        sb.as_mut().map(|s| s as &mut dyn PrefetchObserver),
    );
    report(&r.prefetcher.clone(), &r, Some(&base));
    if let Some(sb) = sb.as_ref() {
        write_metrics(args, &sb.snapshot());
        write_trace(args, sb.chrome_trace());
    }
    if inj.is_some() {
        println!("faults injected: {} total", r.faults.total());
        for kind in FaultKind::ALL {
            let n = r.faults.count(kind);
            if n > 0 {
                println!("  {:18} {n}", kind.name());
            }
        }
    }
}

fn cmd_run(args: &Args) {
    let trace = build_trace(args);
    let cfg = mpgraph::scaled_sim_config();
    let split = trace
        .iteration_starts
        .get(1)
        .copied()
        .unwrap_or(trace.records.len() / 2);
    let (train_raw, test) = trace.records.split_at(split);
    let test = &test[..test.len().min(450_000)];
    let train_llc = llc_filter(train_raw, &cfg);
    eprintln!(
        "training MPGraph on {} LLC records; evaluating on {} raw records",
        train_llc.len(),
        test.len()
    );
    let base = simulate(test, &mut NullPrefetcher, &cfg);
    report("none", &base, None);
    let mut bo = BestOffset::new(BoConfig::default());
    let r = simulate(test, &mut bo, &cfg);
    report("BO", &r, Some(&base));
    let mut mp = train_mpgraph(
        &train_llc,
        trace.num_phases as usize,
        MpGraphConfig::default(),
        &TrainCfg::default(),
    );
    if args.switch("quant") {
        mp.quantize();
        eprintln!("serving the trained predictors from int8-rounded weights");
    }
    let mut sb = scoreboard_for(args, trace.num_phases as usize);
    let r = simulate_observed(
        test,
        &mut mp,
        &cfg,
        None,
        sb.as_mut().map(|s| s as &mut dyn PrefetchObserver),
    );
    report("MPGraph", &r, Some(&base));
    if let Some(sb) = sb.as_ref() {
        let mut snap = sb.snapshot();
        mp.enrich_snapshot(&mut snap);
        write_metrics(args, &snap);
        write_trace(args, sb.chrome_trace());
    }
}

/// `run --quick`: one combo through the bench harness at
/// `ExpScale::quick()` — the exact per-combo path `run --all` shards, so
/// a CI matrix leg and the merged run measure the same thing.
fn cmd_run_quick(args: &Args) {
    use mpgraph::bench::shard::{run_combo_opts, Combo, SEGMENT_LEN};
    use mpgraph::bench::ExpScale;

    let (framework, app, dataset) = workload(args);
    let combo = Combo {
        framework,
        app,
        dataset,
    };
    let quant = args.switch("quant");
    eprintln!(
        "quick run: {} at ExpScale::quick(){}",
        combo.label(),
        if quant { " (int8-stored weights)" } else { "" }
    );
    let r = run_combo_opts(combo, &ExpScale::quick(), SEGMENT_LEN, quant);
    report("none", &r.base, None);
    report("BO", &r.bo, Some(&r.base));
    report("MPGraph", &r.mpgraph, Some(&r.base));
    write_metrics(args, &r.snapshot);
    let chrome = mpgraph::core::chrome_trace_json_sharded(std::slice::from_ref(&r.trace));
    write_trace(args, Some(chrome));
}

/// `run --all`: the sharded full-matrix evaluation. Partitions the
/// framework × app × dataset matrix across `--shards` worker threads,
/// merges the per-combo snapshots in fixed matrix order, and writes the
/// merged snapshot (`--metrics-out`), the multi-process Perfetto trace
/// (`--trace-out`, one pid per combo), and `results/matrix_all.json`.
fn cmd_run_all(args: &Args) {
    use mpgraph::bench::runners::matrix;
    use mpgraph::bench::shard::run_matrix;
    use mpgraph::bench::ExpScale;

    let quick = args.switch("quick");
    let scale = ExpScale::preset(quick);
    let default_shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let shards = args.count("shards").map_or(default_shards, |n| n as usize);
    eprintln!(
        "running the full matrix at {} scale across {shards} shard worker(s)",
        if quick { "quick" } else { "standard" }
    );
    let m = run_matrix(&scale, shards);
    matrix::print_summary(&m);
    match matrix::dump_rows(&m) {
        Ok(p) => eprintln!("matrix rows written to {}", p.display()),
        Err(e) => eprintln!("warning: could not write matrix rows: {e}"),
    }
    write_metrics(args, &m.merged);
    write_trace(args, Some(m.chrome_trace()));
}

/// Feeds stdin-driven accesses through the service: one access per line,
/// `stream pc vaddr [w]` (decimal or 0x-hex; trailing `w` marks a write;
/// blank lines and `#` comments skipped; see
/// [`serve_load::parse_stdin_line`]). Returns the access count.
///
/// Never exits the process: malformed lines are skipped with a warning
/// and a read error ends the loop early — either way the caller still
/// flushes the service and writes the `--metrics-out`/`--trace-out`
/// artifacts, so a generator hiccup (or plain EOF) cannot lose a run's
/// telemetry.
fn serve_from_stdin(
    svc: &mut PrefetchService,
    streams: usize,
    rate: usize,
    out: &mut Vec<mpgraph::core::Prediction>,
) -> usize {
    use std::io::BufRead;
    let stdin = std::io::stdin();
    let mut n = 0usize;
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("warning: reading stdin: {e}; finishing with {n} accesses served");
                break;
            }
        };
        let (stream, mut access) = match serve_load::parse_stdin_line(&line) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => continue,
            Err(e) => {
                eprintln!("warning: skipping stdin line {:?}: {e}", line.trim());
                continue;
            }
        };
        let stream = stream % streams as u32;
        access.core = (stream % 8) as u8;
        svc.ingest(stream, &access, 0);
        n += 1;
        if n.is_multiple_of(rate) {
            svc.pump(out);
        }
    }
    n
}

/// Multiplexes a saved trace through the multi-stream prefetch service:
/// trains MPGraph on iteration 0 (like `run`), registers `--streams`
/// independent streams sharing the trained weights, and replays the
/// remaining LLC accesses open-loop at `--load` times the service's
/// saturation rate. Reports throughput, shed fraction, and the
/// prediction-latency percentiles; `--metrics-out` includes the `serve`
/// section of the snapshot. With `--quant` the serve-path model is the
/// §6.1 stack — a distilled student whose weights are rounded onto their
/// int8 storage grid, served through the same fused pump. With `--stdin`
/// the trace file only trains the model and accesses arrive on stdin
/// (`stream pc vaddr [w]` per line), so external generators can drive the
/// service.
fn cmd_serve(args: &Args) {
    let t = io::load(&args.positional[0]).unwrap_or_else(|e| die(&e.to_string()));
    let cfg = mpgraph::scaled_sim_config();
    let split = t
        .iteration_starts
        .get(1)
        .copied()
        .unwrap_or(t.records.len() / 2);
    let (train_raw, test) = t.records.split_at(split);
    let test = &test[..test.len().min(450_000)];
    let train_llc = llc_filter(train_raw, &cfg);
    let test_llc = llc_filter(test, &cfg);
    let num_phases = t.num_phases as usize;
    let tc = TrainCfg::default();
    let mp_cfg = MpGraphConfig::default();
    if args.switch("stdin") {
        eprintln!(
            "training MPGraph on {} LLC records; serving accesses from stdin",
            train_llc.len()
        );
    } else {
        eprintln!(
            "training MPGraph on {} LLC records; serving {} LLC accesses",
            train_llc.len(),
            test_llc.len()
        );
    }
    let mut mp = train_mpgraph(&train_llc, num_phases, mp_cfg, &tc);
    if args.switch("quant") {
        use mpgraph::core::compress::{quantize_delta, quantize_page};
        use mpgraph::core::{distill_delta, distill_page, DistillCfg};
        let teacher_params = mp.delta.num_params() + mp.page.num_params();
        let dc = DistillCfg::default();
        let mut sd = distill_delta(&mp.delta, &train_llc, &dc, &tc);
        let mut sp = distill_page(&mp.page, &train_llc, &dc, &tc);
        let (_, delta_bytes) = quantize_delta(&mut sd);
        let (_, page_bytes) = quantize_page(&mut sp);
        eprintln!(
            "int8-stored student: {} -> {} params, int8 weights {} bytes",
            teacher_params,
            sd.num_params() + sp.num_params(),
            delta_bytes + page_bytes
        );
        mp.delta = sd;
        mp.page = sp;
    }

    let streams = args.count("streams").unwrap_or(4) as usize;
    let load = args.number("load").unwrap_or(2.0);
    let serve_cfg = ServeConfig {
        // `--no-fuse` forces per-item forwards — the reference path the
        // fused (B×T×d) pump is equivalence-tested against.
        fuse: !args.switch("no-fuse"),
        ..ServeConfig::default()
    };
    let rate = ((load * serve_load::saturation_rate(&serve_cfg) as f64).round() as usize).max(1);

    let mut svc = match scoreboard_for(args, num_phases) {
        Some(sb) => PrefetchService::with_scoreboard(serve_cfg, sb),
        None => PrefetchService::new(serve_cfg),
    };
    let live = LiveTelemetry::from_outputs(
        args.text("live-metrics"),
        args.text("expose"),
        args.count("live-interval").unwrap_or(16),
    )
    .unwrap_or_else(|e| die(&e.to_string()));
    let live_attached = match live {
        Some(tel) => {
            svc.enable_live_telemetry(tel);
            true
        }
        None => false,
    };
    for s in 0..streams {
        svc.register_stream(
            s as u32,
            Box::new(MpGraphPrefetcher::from_parts(
                mp.delta.clone(),
                mp.page.clone(),
                build_detector(&train_llc, num_phases, mp_cfg.detector),
                mp_cfg,
                num_phases,
                tc.history,
            )),
        );
    }

    let started = std::time::Instant::now();
    let mut out = Vec::new();
    if args.switch("stdin") {
        let n = serve_from_stdin(&mut svc, streams, rate, &mut out);
        eprintln!("stdin drained after {n} accesses");
    } else {
        for (i, r) in test_llc.iter().enumerate() {
            let access = LlcAccess {
                pc: r.pc,
                block: r.block(),
                core: r.core,
                is_write: r.is_write,
                hit: false,
                cycle: 0,
            };
            svc.ingest((i % streams) as u32, &access, 0);
            if (i + 1) % rate == 0 {
                svc.pump(&mut out);
            }
        }
    }
    svc.flush(&mut out);
    // Closes the trailing partial telemetry interval and flushes the
    // NDJSON sink — runs on every exit path, including a stdin generator
    // hanging up mid-stream.
    svc.finish_live_telemetry();
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);

    let m = svc.metrics();
    println!(
        "streams {streams}  load {load:.1}x ({rate}/tick)  accesses {}  predictions {}",
        m.ingested,
        out.len()
    );
    println!(
        "throughput {:.0} acc/s  ml {}  fallback {}  shed {:.2}%",
        m.ingested as f64 / elapsed,
        m.ml_processed,
        m.fallback_processed,
        100.0 * m.shed_fraction
    );
    println!(
        "latency p50 {} p99 {} cycles  level {}  quarantines {}  escalations {}",
        m.prediction_latency.p50,
        m.prediction_latency.p99,
        m.overload_level,
        m.quarantines,
        m.escalations
    );
    println!(
        "fused batches {}  items {}  forwards {}  deferred-fallback {} (p99 {} cycles)",
        m.fused_batches,
        m.fused_items,
        m.fused_forwards,
        m.deferred_fallback_processed,
        m.deferred_latency.p99
    );
    if live_attached {
        println!(
            "live telemetry: {} intervals, slo verdict {} (worst burn {:.2}, {} escalations), \
             overhead {:.4} of pump wall",
            m.live.len(),
            m.slo.verdict_level,
            m.slo.worst_burn_rate,
            m.slo.escalations,
            m.pump_stages.self_overhead_fraction,
        );
    }
    let mut snap = svc.snapshot();
    // `mp` holds the weights the streams were built from but served
    // nothing itself: the snapshot keeps the streams' CSTP, detector and
    // controller counters and takes only the training record from it.
    snap.training = mp.training_metrics();
    write_metrics(args, &snap);
    // The service-level export, so the live-telemetry counter tracks ride
    // along with the scoreboard's when telemetry is attached.
    write_trace(args, svc.chrome_trace());
}

fn main() {
    let (command, args) = cli::parse_mpgraph(std::env::args().skip(1))
        .unwrap_or_else(|e| exit_usage(&e, &cli::mpgraph_usage()));
    match command {
        "trace" => cmd_trace(&args),
        "info" => cmd_info(&args),
        "simulate" => cmd_simulate(&args),
        "run --all" => cmd_run_all(&args),
        "run --quick" => cmd_run_quick(&args),
        "run" => cmd_run(&args),
        _ => cmd_serve(&args),
    }
}
