//! `mpbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/mpbench/Cargo.toml -- \
//!     --workload <matrix-quick|serve-lockstep|serve-zipf> \
//!     --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]
//! ```
//!
//! One process on one thread, pinned to one CPU, so the program's rayon
//! shim runs its parallel work inline. The run prints its
//! notes, one `name value unit` line per metric, and as its last line a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the workload untraced
//! and then traced, measures every layer, prints the per-layer self-time
//! table, and writes the spans as Chrome-trace JSON to `--trace-out` or,
//! without it, next to the executable in the build directory. It exits 1
//! when an output check fails and 2 on a usage error. See README.md.

mod inputs;
mod metrics;
mod probe;
mod replay;
mod serve;
mod tracer;

use inputs::{Inputs, SetupStats};
use metrics::{median_s, peak_rss_mb, user_sys_s, Meter, Report, END_TO_END, PER_LAYER};
use mpgraph_bench::ExpScale;
use serve::ServeLayer;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tracer::{Layer, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatrixQuick,
    ServeLockstep,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MatrixQuick,
        Workload::ServeLockstep,
        Workload::ServeZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixQuick => "matrix-quick",
            Workload::ServeLockstep => "serve-lockstep",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of everything the workloads run. `full` is the benchmark; the
/// self-tests run the same code at a tiny size.
pub struct Knobs {
    /// matrix-quick and the serve workloads.
    pub quick: ExpScale,
    /// Nominal seconds of one matrix-quick pass; a run makes `--seconds`
    /// over this many passes, rounded, and at least one.
    pub matrix_pass_s: f64,
    /// Set-ups per serve run; `setup_s` is their median.
    pub serve_setups: usize,
    pub streams: usize,
    /// Serve ticks whose predictions feed accuracy and coverage.
    pub quality_ticks: u64,
    /// serve-lockstep ticks re-driven through the per-item pump.
    pub identity_ticks: u64,
    pub probe_samples: usize,
    pub probe_chains: usize,
    pub probe_ticks: u64,
    /// The merged accuracy and coverage `mpgraph run --all --quick`
    /// prints; seed 0 of matrix-quick must reproduce them.
    pub fidelity: Option<(&'static str, &'static str)>,
}

impl Knobs {
    pub fn full() -> Self {
        Knobs {
            quick: ExpScale::quick(),
            // One pass on a 2-vCPU Xeon (KVM guest), pinned.
            matrix_pass_s: 22.0,
            serve_setups: 5,
            streams: 8,
            quality_ticks: 2000,
            identity_ticks: 200,
            probe_samples: 2000,
            probe_chains: 500,
            probe_ticks: 300,
            fidelity: Some(("94.27%", "83.75%")),
        }
    }
}

/// What one measured phase of a workload produced.
pub struct Measured {
    /// Duration of every set-up (graph, trace, LLC filter, training,
    /// stream registration) the phase made.
    pub setups: Vec<Duration>,
    pub setup_stats: SetupStats,
    /// Trace records replayed, or accesses offered to the service: the
    /// operations the result line counts as attempted.
    pub accesses: u64,
    /// Host time per prefetcher call (`on_access` or `pump`), and LLC
    /// accesses handled per second, block by block.
    pub meter: Meter,
    pub accuracy: f64,
    pub coverage: f64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// Inputs the per-layer probes reuse (kept by traced phases only).
    pub carrier: Option<Inputs>,
    pub serve: Option<ServeLayer>,
}

fn measure(w: Workload, knobs: &Knobs, seed: u64, seconds: f64, tracer: &mut Tracer) -> Measured {
    match w {
        Workload::MatrixQuick => replay::measure(knobs, seed, seconds, tracer),
        Workload::ServeLockstep => {
            serve::measure(serve::Arrival::Lockstep, knobs, seed, seconds, tracer)
        }
        Workload::ServeZipf => serve::measure(serve::Arrival::Zipf, knobs, seed, seconds, tracer),
    }
}

fn end_to_end(m: &Measured, report: &mut Report) {
    report.set("setup_s", median_s(&m.setups));
    report.set("accesses_per_s", m.meter.rate());
    report.set("call_us_mean", m.meter.call_us_mean());
    report.set("prefetch_accuracy", m.accuracy);
    report.set("prefetch_coverage", m.coverage);
    report.set("peak_rss_mb", peak_rss_mb());
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

const USAGE: &str = "usage: mpbench --workload <matrix-quick|serve-lockstep|serve-zipf> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-out FILE]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_out,
    })
}

/// A finished run: its checks, metrics and what it prints before them.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    report: Report,
    notes: Vec<String>,
    problems: Vec<String>,
    trace: Option<Tracer>,
}

fn run(args: &Args, knobs: &Knobs) -> Outcome {
    let started = Instant::now();
    let mut report = Report::default();
    if !args.trace {
        let m = measure(
            args.workload,
            knobs,
            args.seed,
            args.seconds,
            &mut Tracer::new(false),
        );
        end_to_end(&m, &mut report);
        return Outcome {
            correct: m.problems.is_empty(),
            attempted: m.accesses,
            failed: m.failed,
            report,
            notes: m.notes,
            problems: m.problems,
            trace: None,
        };
    }
    // The traced run repeats the measured phase, untraced then traced,
    // so the tracing overhead is measured on the same inputs.
    let half = args.seconds / 2.0;
    let reference = measure(
        args.workload,
        knobs,
        args.seed,
        half,
        &mut Tracer::new(false),
    );
    let mut tracer = Tracer::new(true);
    let root = tracer.begin_labeled(Layer::Workload, || args.workload.name().to_string());
    let mut m = measure(args.workload, knobs, args.seed, half, &mut tracer);
    let carrier = m
        .carrier
        .take()
        .expect("a traced phase keeps its carrier inputs");
    let mut problems = probe::run(&carrier, &mut m, knobs, &mut tracer, &mut report);
    tracer.end(root);
    report.set(
        "bench.trace_overhead_fraction",
        reference.meter.rate() / m.meter.rate() - 1.0,
    );
    let (user, sys) = user_sys_s();
    report.set("proc.cpu_s", user + sys);
    report.set("proc.sys_s", sys);
    report.set(
        "proc.cpu_per_wall",
        (user + sys) / started.elapsed().as_secs_f64(),
    );
    problems.extend(reference.problems);
    problems.extend(m.problems);
    Outcome {
        correct: problems.is_empty(),
        attempted: reference.accesses + m.accesses,
        failed: reference.failed + m.failed,
        report,
        notes: m.notes,
        problems,
        trace: Some(tracer),
    }
}

/// Pins the process to the CPU it is running on, before any other thread
/// starts. `available_parallelism` then reports one CPU, so the rayon shim
/// runs `join` and `par_iter` inline instead of spawning a thread per LLC
/// access: on a shared host that thread waits for the scheduler, and the
/// wait, not the program, set the spread of every ML timing. Returns the
/// CPU.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and touches no memory of ours.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // A cpu_set_t: 1024 bits, as glibc defines it.
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond a cpu_set_t"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes through the
    // pointer, which points at a live local of exactly that size; pid 0
    // names the calling thread, which every later thread inherits from.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

/// Fixes glibc's mmap threshold at 32 MiB, the most its dynamic rule
/// raises it to. Left dynamic, the threshold moves as large blocks are
/// freed, so `VmHWM` followed allocation history: one seed of
/// `matrix-quick` peaked at 26 MiB in one run and 31 MiB in another, and
/// within 3% once fixed.
fn fix_mmap_threshold() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets an allocator parameter, and no other
    // thread is running to allocate concurrently.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mpbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to CPU {cpu}"),
        Err(e) => println!("not pinned ({e})"),
    }
    if !fix_mmap_threshold() {
        println!("mmap threshold left dynamic (mallopt refused)");
    }
    println!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = run(&args, &Knobs::full());
    for line in &out.notes {
        println!("{line}");
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    if let Some(tracer) = &out.trace {
        for line in tracer.self_time_table() {
            println!("{line}");
        }
        let path = args.trace_out.clone().unwrap_or_else(|| {
            let exe = std::env::current_exe().expect("path of the running executable");
            exe.with_file_name(format!(
                "mpbench-{}-seed{}.trace.json",
                args.workload.name(),
                args.seed
            ))
        });
        let json = serde_json::to_string(&tracer.chrome_trace()).expect("trace serializes");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("mpbench: writing {}: {e}", path.display());
            std::process::exit(2);
        }
        println!(
            "spans written to {} ({} spans)",
            path.display(),
            tracer.span_count()
        );
    }
    let decls = if args.trace { PER_LAYER } else { END_TO_END };
    let (lines, metrics) = match out.report.render(decls) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("mpbench: {e}");
            std::process::exit(2);
        }
    };
    for line in lines {
        println!("{line}");
    }
    let result = serde::Value::Object(vec![
        ("correct".into(), serde::Value::Bool(out.correct)),
        ("attempted".into(), serde::Value::U64(out.attempted)),
        ("failed".into(), serde::Value::U64(out.failed)),
        ("metrics".into(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    std::process::exit(if out.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::Decl;

    impl Knobs {
        /// The benchmark's code at a size a test can afford.
        fn tiny() -> Self {
            let mut quick = ExpScale {
                record_limit: 24_000,
                eval_records: 8_000,
                ..ExpScale::quick()
            };
            quick.train.max_samples = 40;
            quick.train.epochs = 1;
            Knobs {
                quick,
                matrix_pass_s: 1.0,
                serve_setups: 2,
                streams: 4,
                quality_ticks: 40,
                identity_ticks: 20,
                probe_samples: 50,
                probe_chains: 20,
                probe_ticks: 30,
                fidelity: None,
            }
        }
    }

    fn benchmark_json() -> serde::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(json: &'a serde::Value, key: &str) -> &'a [serde::Value] {
        match json.get(key) {
            Some(serde::Value::Array(items)) => items,
            other => panic!("{key} is not an array: {other:?}"),
        }
    }

    fn text<'a>(v: &'a serde::Value, key: &str) -> &'a str {
        match v.get(key) {
            Some(serde::Value::Str(s)) => s,
            other => panic!("{key} is not a string: {other:?}"),
        }
    }

    #[test]
    fn declarations_match_benchmark_json() {
        let json = benchmark_json();
        let workloads: Vec<&str> = entries(&json, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (key, decls) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = entries(&json, key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect();
            let ours: Vec<(&str, &str)> = decls.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let all: Vec<&Decl> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            let name_ok = d.name.len() <= 64
                && d.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(name_ok, "bad metric name {:?}", d.name);
            let unit_ok = !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(unit_ok, "bad unit {:?} of {}", d.unit, d.name);
            assert_eq!(
                all.iter().filter(|o| o.name == d.name).count(),
                1,
                "{} twice",
                d.name
            );
        }
    }

    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let knobs = Knobs::tiny();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    trace_out: None,
                };
                let out = run(&args, &knobs);
                let label = format!("{} --trace {}", workload.name(), u8::from(trace));
                assert!(out.correct, "{label}: {:?}", out.problems);
                assert!(out.attempted > 0 && out.failed == 0, "{label}");
                let decls = if trace { PER_LAYER } else { END_TO_END };
                let mut emitted = out.report.names();
                emitted.sort_unstable();
                let mut declared: Vec<&str> = decls.iter().map(|d| d.name).collect();
                declared.sort_unstable();
                assert_eq!(emitted, declared, "{label}");
                out.report.render(decls).expect("every value is finite");
                assert_eq!(out.trace.is_some(), trace);
            }
        }
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-zipf --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeZipf, 7, 10.0, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload baselines --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload matrix-quick --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload matrix-quick --seed 1 --seconds -1 --trace 0").is_err());
        assert!(parse("--workload matrix-quick --seed 1 --trace 0").is_err());
        assert!(parse("--workload matrix-quick --seed").is_err());
    }
}
