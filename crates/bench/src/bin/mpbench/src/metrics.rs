//! Metric declarations, timing samples, process counters, and the result
//! line the benchmark prints last.

use mpgraph_bench::runners::perf::percentile;
use std::time::{Duration, Instant};

/// One declared metric: its name and unit, exactly as `BENCHMARK.json`
/// lists them.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// Printed by every untraced run, whatever the workload.
pub const END_TO_END: &[Decl] = &[
    m("setup_s", "s"),
    m("accesses_per_s", "1/s"),
    m("call_us_mean", "us"),
    m("prefetch_accuracy", "ratio"),
    m("prefetch_coverage", "ratio"),
    m("peak_rss_mb", "MiB"),
];

/// Printed by every traced run, whatever the workload.
pub const PER_LAYER: &[Decl] = &[
    m("ml.matmul_into.9x32x32.gflops", "GFLOP/s"),
    m("ml.matmul_into.9x64x64.gflops", "GFLOP/s"),
    m("ml.matmul_into.9x64x128.gflops", "GFLOP/s"),
    m("ml.matmul_into.9x128x64.gflops", "GFLOP/s"),
    m("ml.matmul_into.1x64x126.gflops", "GFLOP/s"),
    m("ml.matmul_bt_into.9x32x9.gflops", "GFLOP/s"),
    m("ml.matmul_bt_into.9x64x9.gflops", "GFLOP/s"),
    m("ml.matmul_bt_into.9x16x9.gflops", "GFLOP/s"),
    m("ml.matmul_bt_into.1x16x1024.gflops", "GFLOP/s"),
    m("core.delta.predict_us_p50", "us"),
    m("core.delta.predict_us_p99", "us"),
    m("core.delta.predict_int8_us_p50", "us"),
    m("core.page.predict_us_p50", "us"),
    m("core.page.predict_us_p99", "us"),
    m("core.page.predict_int8_us_p50", "us"),
    m("core.cstp.chain_us_p50", "us"),
    m("core.cstp.chain_us_p99", "us"),
    m("core.cstp.serial_chain_us_p50", "us"),
    m("core.cstp.forwards_per_access", "count"),
    m("core.cstp.pbot_hit_rate", "ratio"),
    m("core.cstp.avg_chain_len", "count"),
    m("phase.detector_update_ns_p50", "ns"),
    m("phase.confirmations", "count"),
    m("core.train.delta_s", "s"),
    m("core.train.page_s", "s"),
    m("core.train.detector_s", "s"),
    m("core.train.tokens_per_s", "1/s"),
    m("core.serve.ingest_ns_p50", "ns"),
    m("core.serve.forwards_per_ml_item", "count"),
    m("core.serve.batch_fill", "ratio"),
    m("core.serve.max_queue_depth", "count"),
    m("core.serve.deferred_fraction", "ratio"),
    m("core.serve.escalations", "count"),
    m("core.serve.quarantines", "count"),
    m("core.serve.snapshot_ms", "ms"),
    m("core.serve.shed_fraction", "ratio"),
    m("core.serve.ml_fraction", "ratio"),
    m("core.serve.latency_cycles_p99", "cycles"),
    m("core.obs.observer_overhead", "ratio"),
    m("core.obs.snapshot_ms", "ms"),
    m("core.obs.snapshot_json_bytes", "bytes"),
    m("core.obs.chrome_trace_ms", "ms"),
    m("core.obs.chrome_trace_bytes", "bytes"),
    m("graph.build_s", "s"),
    m("frameworks.trace_s", "s"),
    m("frameworks.trace_records_per_s", "1/s"),
    m("sim.llc_filter_s", "s"),
    m("sim.replay_none_records_per_s", "1/s"),
    m("sim.engine_self_s", "s"),
    m("sim.llc_accesses", "count"),
    m("sim.prefetches_issued", "count"),
    m("prefetchers.bo.replay_records_per_s", "1/s"),
    m("prefetchers.isb.replay_records_per_s", "1/s"),
    m("prefetchers.bo.on_access_ns_p50", "ns"),
    m("prefetchers.bo.ipc_improvement_pct", "%"),
    m("proc.cpu_s", "s"),
    m("proc.sys_s", "s"),
    m("proc.cpu_per_wall", "ratio"),
    m("bench.calibration_ns", "ns"),
    m("bench.trace_overhead_fraction", "ratio"),
];

/// Host-time samples of one kind of call, kept in picoseconds so the
/// mean of a group of calls keeps its fraction of a nanosecond.
///
/// `group` consecutive calls form one sample (their mean). Calls of tens
/// of nanoseconds use groups of 16, because a median of single-call
/// nanosecond readings rounds to the same integer run after run.
#[derive(Debug, Clone)]
pub struct Samples {
    group: u64,
    pending_ps: u64,
    pending: u64,
    ps: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new(group: u64) -> Self {
        Samples {
            group: group.max(1),
            pending_ps: 0,
            pending: 0,
            ps: Vec::new(),
            sorted: true,
        }
    }

    pub fn record(&mut self, d: Duration) {
        self.pending_ps += d.as_nanos() as u64 * 1000;
        self.pending += 1;
        if self.pending == self.group {
            self.ps.push(self.pending_ps / self.group);
            self.pending_ps = 0;
            self.pending = 0;
            self.sorted = false;
        }
    }

    /// Records one measured block of `calls` calls as their mean.
    pub fn record_mean(&mut self, d: Duration, calls: u64) {
        if let Some(mean) = (d.as_nanos() as u64 * 1000).checked_div(calls) {
            self.ps.push(mean);
            self.sorted = false;
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.ps.len()
    }

    /// Nearest-rank percentile (`q` in [0, 1]) in picoseconds.
    fn quantile_ps(&mut self, q: f64) -> u64 {
        if !self.sorted {
            self.ps.sort_unstable();
            self.sorted = true;
        }
        percentile(&self.ps, q)
    }

    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        self.quantile_ps(q) as f64 / 1000.0
    }

    pub fn quantile_us(&mut self, q: f64) -> f64 {
        self.quantile_ns(q) / 1000.0
    }
}

/// Nearest-rank percentile (`q` in [0, 1]) of `values`, kept to a
/// thousandth of their unit.
fn quantile(values: impl Iterator<Item = f64>, q: f64) -> f64 {
    let mut milli: Vec<u64> = values.map(|v| (v * 1e3).round() as u64).collect();
    milli.sort_unstable();
    percentile(&milli, q) as f64 / 1e3
}

/// Calls per block of a [`Meter`].
pub const BLOCK: u64 = 100;

/// One closed block of a [`Meter`].
#[derive(Debug, Clone, Copy)]
struct BlockStat {
    mean_ns: f64,
    /// Work per second of the block's wall time.
    rate: f64,
}

/// Host time of one kind of call, measured block by block — `BLOCK`
/// consecutive calls — within segments: one replay of a combo, or one
/// serve run.
///
/// The host is shared. Bursts of a few milliseconds slow a share of the
/// calls, and for stretches of seconds to a minute the same code runs up
/// to twice as slow; a timed reference kernel did not slow in step, so
/// times cannot be scaled by it. Host noise only ever lengthens calls, so
/// a segment reports the 10th percentile of its blocks' mean call times
/// and the 90th of their rates: the blocks the noise missed. Within one
/// segment the blocks do alike work; across combos they do not, so the
/// run reports the median over segments rather than a percentile over the
/// pooled blocks, whose low end would be whichever cheap combo a seed
/// made longest. Means, not p50s: in some combos about half the accesses
/// end their chain early at half the cost, and a block's p50 jumps
/// between the two costs as the seed moves that share across one half. A
/// change that slows the program slows every block.
#[derive(Default)]
pub struct Meter {
    /// When the open block's first call began, if a block is open.
    began: Option<Instant>,
    calls: u64,
    busy_ns: u64,
    work: u64,
    /// Closed blocks of the open segment, and the closed segments.
    segment: Vec<BlockStat>,
    segments: Vec<Vec<BlockStat>>,
}

impl Meter {
    /// Records one call of `call` host time that did `work` units of work,
    /// the whole unit having begun at `began` (a serve tick begins before
    /// its pump). A block's wall time runs from its first unit's `began`
    /// to the end of its last record.
    pub fn record(&mut self, began: Instant, call: Duration, work: u64) {
        self.began.get_or_insert(began);
        self.calls += 1;
        self.busy_ns += call.as_nanos() as u64;
        self.work += work;
        if self.calls == BLOCK {
            self.close();
        }
    }

    fn close(&mut self) {
        let Some(began) = self.began.take() else {
            return;
        };
        let wall = began.elapsed().as_secs_f64().max(1e-9);
        self.segment.push(BlockStat {
            mean_ns: self.busy_ns as f64 / self.calls.max(1) as f64,
            rate: self.work as f64 / wall,
        });
        self.calls = 0;
        self.busy_ns = 0;
        self.work = 0;
    }

    /// Ends a segment. Its open block closes if it holds half a block, or
    /// if no block has closed in the whole run, and is dropped otherwise.
    pub fn end_segment(&mut self) {
        let none_yet = self.segments.is_empty() && self.segment.is_empty();
        if 2 * self.calls >= BLOCK || none_yet {
            self.close();
        }
        self.began = None;
        self.calls = 0;
        self.busy_ns = 0;
        self.work = 0;
        if !self.segment.is_empty() {
            self.segments.push(std::mem::take(&mut self.segment));
        }
    }

    /// The median over segments of `q`-percentiles of one block value.
    fn summary(&self, value: impl Fn(&BlockStat) -> f64, q: f64) -> f64 {
        quantile(
            self.segments
                .iter()
                .map(|s| quantile(s.iter().map(&value), q)),
            0.5,
        )
    }

    /// Mean host time per call, in µs.
    pub fn call_us_mean(&self) -> f64 {
        self.summary(|b| b.mean_ns / 1e3, 0.1)
    }

    /// Work per second.
    pub fn rate(&self) -> f64 {
        self.summary(|b| b.rate, 0.9)
    }

    #[cfg(test)]
    pub fn blocks(&self) -> Vec<usize> {
        self.segments.iter().map(Vec::len).collect()
    }
}

/// Nearest-rank median of durations, in seconds.
pub fn median_s(durations: &[Duration]) -> f64 {
    let mut ns: Vec<u64> = durations.iter().map(|d| d.as_nanos() as u64).collect();
    ns.sort_unstable();
    percentile(&ns, 0.5) as f64 / 1e9
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// (user, system) CPU seconds of the process, to the microsecond, from
/// `getrusage(RUSAGE_SELF)`: every thread, exited ones included.
pub fn user_sys_s() -> (f64, f64) {
    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: getrusage writes one struct rusage through the pointer, which
    // points at a live local of its C layout on 64-bit Linux: two timevals
    // of 64-bit fields, then fourteen longs.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    (secs(&ru.utime), secs(&ru.stime))
}

/// Mean host time of `calls` calls of `f` in milliseconds, and the last
/// result — for calls short enough that one reading is mostly timer.
pub fn mean_ms<T>(calls: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let t = std::time::Instant::now();
    let mut last = f();
    for _ in 1..calls {
        last = f();
    }
    (
        t.elapsed().as_secs_f64() * 1e3 / f64::from(calls.max(1)),
        last,
    )
}

/// Metric values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    #[cfg(test)]
    pub fn names(&self) -> Vec<&'static str> {
        self.values.iter().map(|(n, _)| *n).collect()
    }

    /// One `name value unit` line per declared metric, and the metrics
    /// object of the result line. Fails when a declared metric is missing,
    /// undeclared or not finite.
    pub fn render(&self, decls: &[Decl]) -> Result<(Vec<String>, serde::Value), String> {
        use serde::Value;
        if let Some((extra, _)) = self
            .values
            .iter()
            .find(|(n, _)| !decls.iter().any(|d| d.name == *n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        let mut lines = Vec::new();
        let mut fields = Vec::new();
        for d in decls {
            let Some(&(_, v)) = self.values.iter().find(|(n, _)| *n == d.name) else {
                return Err(format!("metric {} was not measured", d.name));
            };
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", d.name));
            }
            lines.push(format!("{} {} {}", d.name, v, d.unit));
            fields.push((
                d.name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::F64(v)),
                    ("unit".into(), Value::Str(d.unit.into())),
                ]),
            ));
        }
        Ok((lines, Value::Object(fields)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_samples_keep_fractions_of_a_nanosecond() {
        let mut s = Samples::new(4);
        for ns in [40, 41, 41, 41, 50, 50, 50, 51] {
            s.record(Duration::from_nanos(ns));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.quantile_ns(0.0), 40.75);
        assert_eq!(s.quantile_ns(1.0), 50.25);
    }

    #[test]
    fn percentiles_are_the_perf_runners_nearest_rank() {
        let mut s = Samples::new(1);
        let ns: Vec<u64> = (1..=1000).rev().collect();
        for &v in &ns {
            s.record(Duration::from_nanos(v));
        }
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            assert_eq!(s.quantile_ns(q), percentile(&sorted, q) as f64);
        }
    }

    #[test]
    fn segments_report_their_quiet_blocks_and_the_run_their_median() {
        let segment = |mean_us: &[f64]| -> Vec<BlockStat> {
            mean_us
                .iter()
                .map(|&us| BlockStat {
                    mean_ns: us * 1e3,
                    rate: 1e6 / us,
                })
                .collect()
        };
        let m = Meter {
            segments: vec![
                segment(&[
                    100.0, 300.0, 110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0, 180.0,
                ]),
                // A cheap combo: its blocks never set the run's value.
                segment(&[50.0, 50.0]),
                segment(&[200.0, 210.0, 900.0]),
            ],
            ..Meter::default()
        };
        assert_eq!(m.call_us_mean(), 100.0);
        assert_eq!(m.rate(), 9090.909);
    }

    #[test]
    fn a_meter_closes_whole_blocks_and_drops_short_tails() {
        let mut m = Meter::default();
        let call = Duration::from_nanos(500);
        for _ in 0..BLOCK + BLOCK / 4 {
            m.record(Instant::now(), call, 2);
        }
        m.end_segment();
        for _ in 0..BLOCK / 2 {
            m.record(Instant::now(), call, 2);
        }
        m.end_segment();
        m.end_segment();
        assert_eq!(m.blocks(), vec![1, 1]);
        assert_eq!(m.call_us_mean(), 0.5);
        assert!(m.rate() > 0.0);

        // A run too short for half a block still closes one.
        let mut short = Meter::default();
        short.record(Instant::now(), call, 1);
        short.end_segment();
        assert_eq!(short.blocks(), vec![1]);
    }

    #[test]
    fn render_rejects_missing_and_undeclared_metrics() {
        let decls = [m("a_s", "s"), m("b", "count")];
        let mut r = Report::default();
        r.set("a_s", 1.5);
        assert!(r.render(&decls).is_err());
        r.set("b", 2.0);
        let (lines, _) = r.render(&decls).expect("complete");
        assert_eq!(lines, vec!["a_s 1.5 s", "b 2 count"]);
        r.set("c", 3.0);
        assert!(r.render(&decls).is_err());
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let (user, sys) = user_sys_s();
        assert!(user >= 0.0 && sys >= 0.0 && user + sys > 0.0);
    }
}
