//! Live service telemetry: periodic snapshot deltas, pump-stage span
//! timing, and an SLO burn-rate monitor for [`crate::serve::PrefetchService`].
//!
//! Everything shipped before this module is post-mortem — one
//! `MetricsSnapshot` and one Perfetto trace, written at end of run. A
//! long-lived `mpgraph serve` process needs its counters *while it runs*:
//!
//! * **Interval deltas** — every `interval_pumps` pump cycles the service
//!   snapshots its monotonic [`ServeMetrics`] counters and
//!   [`derive_interval`] turns consecutive snapshots into a
//!   [`LiveInterval`]: non-negative per-interval deltas, derived rates
//!   (accesses/s via [`cycles_to_ns`], shed fraction, deadline-miss
//!   fraction, per-stream ML/fallback split), and the cumulative totals so
//!   a consumer can checksum the stream. Intervals go to an NDJSON sink
//!   (`--live-metrics <path|->`) and, re-rendered as a Prometheus-style
//!   text exposition, to `--expose <path>` (written to a temp file and
//!   renamed, so scrapers never see a torn dump).
//! * **Pump-stage spans** — queue wait (deterministic cycles), batch
//!   assembly, fused forward, and deferred fallback
//!   (host wall ns) accumulate into the per-stage histograms of
//!   [`PumpStageMetrics`] and export as Perfetto counter tracks. The time
//!   telemetry itself costs is measured and reported
//!   (`self_overhead_fraction`), and none of this code runs without a
//!   `LiveTelemetry` attached — the observer discipline's
//!   bit-identical-when-off guarantee extends to the live path.
//! * **SLO monitor** — [`SloMonitor`] compares each interval's
//!   deadline-miss fraction against an error budget
//!   ([`SloConfig::budget_miss_fraction`]) and tracks the windowed burn
//!   rate (miss fraction / budget, averaged over
//!   [`SloConfig::window_intervals`] intervals). The resulting
//!   [`SloVerdict`] feeds the service's overload ladder as an extra
//!   escalation input; every verdict change emits a
//!   [`TraceEvent::SloEscalate`] / [`TraceEvent::SloRecover`]. A burn-rate
//!   monitor fires on the *first* bad interval rather than waiting for a
//!   per-stream miss window to fill, which is what makes it the early
//!   warning in front of the quarantine path (measured by the chaos
//!   bench).

use crate::error::MpGraphError;
use crate::latency::cycles_to_ns;
use crate::metric::{ratio, Kind};
use crate::obs::{
    LatencyHistogram, LiveIntervalSummary, PumpStageMetrics, ServeMetrics, SloServeMetrics,
};
use mpgraph_sim::TraceEvent;
use serde::Serialize;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

/// SLO target and error-budget policy for [`SloMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Prediction-latency p99 target in service cycles; a cumulative p99
    /// above it keeps the verdict at least at Warn.
    pub target_p99_cycles: u64,
    /// Allowed deadline-miss fraction — the error budget. A burn rate of
    /// 1.0 means misses arrive exactly at budget.
    pub budget_miss_fraction: f64,
    /// Windowed burn rate at/above which the verdict is Breach.
    pub fast_burn: f64,
    /// Intervals the burn rate is averaged over (the smoothing window).
    pub window_intervals: usize,
    /// Whether a Breach verdict counts as a hot pump for the service's
    /// overload ladder. Off for pure measurement (e.g. the chaos bench
    /// compares SLO detection latency against the quarantine path, which
    /// the ladder's shedding would starve of deadline observations).
    pub wire_ladder: bool,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            target_p99_cycles: 500,
            budget_miss_fraction: 0.05,
            fast_burn: 4.0,
            window_intervals: 4,
            wire_ladder: true,
        }
    }
}

impl SloConfig {
    /// Validates the configuration, returning it unchanged when sound.
    pub fn try_new(self) -> Result<Self, MpGraphError> {
        if !(self.budget_miss_fraction > 0.0 && self.budget_miss_fraction <= 1.0) {
            return Err(MpGraphError::config(
                "livetel",
                "budget_miss_fraction must be in (0, 1]",
            ));
        }
        if self.fast_burn < 1.0 {
            return Err(MpGraphError::config("livetel", "fast_burn must be >= 1"));
        }
        if self.window_intervals == 0 {
            return Err(MpGraphError::config(
                "livetel",
                "window_intervals must be > 0",
            ));
        }
        Ok(self)
    }
}

/// Configuration for [`LiveTelemetry`].
#[derive(Debug, Clone, Copy)]
pub struct LiveTelemetryConfig {
    /// Pump cycles per telemetry interval.
    pub interval_pumps: u64,
    /// Service clock frequency assumed when converting cycle spans to
    /// seconds for the accesses/s rate.
    pub ghz: f64,
    pub slo: SloConfig,
}

impl Default for LiveTelemetryConfig {
    fn default() -> Self {
        LiveTelemetryConfig {
            interval_pumps: 16,
            ghz: 2.0,
            slo: SloConfig::default(),
        }
    }
}

impl LiveTelemetryConfig {
    /// Validates the configuration, returning it unchanged when sound.
    pub fn try_new(self) -> Result<Self, MpGraphError> {
        if self.interval_pumps == 0 {
            return Err(MpGraphError::config(
                "livetel",
                "interval_pumps must be > 0",
            ));
        }
        if self.ghz.is_nan() || self.ghz <= 0.0 {
            return Err(MpGraphError::config("livetel", "ghz must be > 0"));
        }
        self.slo.try_new()?;
        Ok(self)
    }
}

/// SLO verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloVerdict {
    /// Burn rate under budget and latency inside the target.
    Ok,
    /// Budget burning (windowed burn >= 1) or p99 over target.
    Warn,
    /// Windowed burn at/above the fast-burn threshold.
    Breach,
}

impl SloVerdict {
    /// Numeric severity for serialized artifacts (0 / 1 / 2).
    pub fn level(self) -> u64 {
        match self {
            SloVerdict::Ok => 0,
            SloVerdict::Warn => 1,
            SloVerdict::Breach => 2,
        }
    }
}

/// One stream's share of a telemetry interval.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LiveStreamDelta {
    pub id: u64,
    pub delta_ml_served: u64,
    pub delta_fallback_served: u64,
    pub delta_shed: u64,
    /// Cooldown accesses still owed before recovery (0 when healthy).
    pub cooldown_remaining: u64,
}

/// One telemetry interval: cumulative totals (monotonic across the NDJSON
/// stream), per-interval counter deltas, and derived rates. The SLO fields
/// are filled by [`SloMonitor::observe`] after derivation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LiveInterval {
    /// 0-based interval ordinal.
    pub seq: u64,
    /// Service clock at the previous interval close, in cycles.
    pub start_cycle: u64,
    /// Service clock at this close.
    pub end_cycle: u64,
    /// Cycle span of the interval.
    pub cycles: u64,
    // Cumulative counters — each is monotonically non-decreasing across
    // the stream, which is what live consumers checksum.
    pub total_ingested: u64,
    pub total_ml_processed: u64,
    pub total_fallback_processed: u64,
    pub total_shed: u64,
    pub total_deadline_misses: u64,
    // Per-interval deltas (cumulative now minus cumulative at the last
    // interval; non-negative by counter monotonicity).
    pub delta_ingested: u64,
    pub delta_ml_processed: u64,
    pub delta_fallback_processed: u64,
    pub delta_shed: u64,
    pub delta_deferred: u64,
    pub delta_quarantines: u64,
    pub delta_deadline_observations: u64,
    pub delta_deadline_misses: u64,
    // Derived rates, finite even for empty or zero-length intervals.
    pub accesses_per_sec: f64,
    pub shed_fraction: f64,
    pub deadline_miss_fraction: f64,
    pub ml_fraction: f64,
    // Gauges at interval close.
    pub overload_level: u64,
    pub degraded_streams: u64,
    /// Cumulative end-to-end prediction-latency p99, in cycles.
    pub p99_latency_cycles: u64,
    // SLO state (filled by the monitor).
    pub burn_rate: f64,
    pub windowed_burn_rate: f64,
    pub verdict_level: u64,
    /// Per-stream ML/fallback split over the interval.
    pub per_stream: Vec<LiveStreamDelta>,
}

/// Derives one telemetry interval from two cumulative snapshots of the
/// serve counters: the declared [`ServeMetrics::delta`] supplies every
/// difference and interval rate, this function names them for the NDJSON
/// record. Pure: the property tests pin that every delta is non-negative,
/// that chained intervals sum back to the final cumulative snapshot, and
/// that every rate is finite even when `start_cycle == end_cycle` or
/// nothing happened.
pub fn derive_interval(
    seq: u64,
    prev: &ServeMetrics,
    cur: &ServeMetrics,
    start_cycle: u64,
    end_cycle: u64,
    ghz: f64,
) -> LiveInterval {
    let d = cur.delta(prev);
    let (delta_obs, delta_miss) = d.deadline_totals();
    let cycles = end_cycle.saturating_sub(start_cycle);
    let span_secs = cycles_to_ns(cycles, ghz) * 1e-9;
    LiveInterval {
        seq,
        start_cycle,
        end_cycle,
        cycles,
        total_ingested: cur.ingested,
        total_ml_processed: cur.ml_processed,
        total_fallback_processed: cur.fallback_processed,
        total_shed: cur.shed_total(),
        total_deadline_misses: cur.deadline_totals().1,
        delta_ingested: d.ingested,
        delta_ml_processed: d.ml_processed,
        delta_fallback_processed: d.fallback_processed,
        delta_shed: d.shed_total(),
        delta_deferred: d.deferred_fallback_processed,
        delta_quarantines: d.quarantines,
        delta_deadline_observations: delta_obs,
        delta_deadline_misses: delta_miss,
        accesses_per_sec: if span_secs > 0.0 {
            d.ingested as f64 / span_secs
        } else {
            0.0
        },
        shed_fraction: d.shed_fraction,
        deadline_miss_fraction: ratio(delta_miss, delta_obs),
        ml_fraction: ratio(d.ml_processed, d.ml_processed + d.fallback_processed),
        overload_level: d.overload_level,
        degraded_streams: d.degraded_streams,
        p99_latency_cycles: d.prediction_latency.p99,
        burn_rate: 0.0,
        windowed_burn_rate: 0.0,
        verdict_level: 0,
        per_stream: d
            .per_stream
            .iter()
            .map(|s| LiveStreamDelta {
                id: s.id,
                delta_ml_served: s.ml_served,
                delta_fallback_served: s.fallback_served,
                delta_shed: s.shed,
                cooldown_remaining: s.cooldown_remaining,
            })
            .collect(),
    }
}

/// Error-budget burn-rate monitor over the live interval series.
#[derive(Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    burns: VecDeque<f64>,
    verdict: SloVerdict,
    stats: SloServeMetrics,
}

impl SloMonitor {
    pub fn new(cfg: SloConfig) -> Self {
        SloMonitor {
            cfg,
            burns: VecDeque::with_capacity(cfg.window_intervals.max(1)),
            verdict: SloVerdict::Ok,
            stats: SloServeMetrics {
                target_p99_cycles: cfg.target_p99_cycles,
                budget_miss_fraction: cfg.budget_miss_fraction,
                ..SloServeMetrics::default()
            },
        }
    }

    /// Feeds one interval: computes its burn rate, updates the windowed
    /// burn and the verdict, writes the SLO fields back into the interval,
    /// and returns the trace event when the verdict changed.
    pub fn observe(&mut self, interval: &mut LiveInterval) -> Option<TraceEvent> {
        self.stats.intervals += 1;
        let burn = interval.deadline_miss_fraction / self.cfg.budget_miss_fraction;
        self.burns.push_back(burn);
        while self.burns.len() > self.cfg.window_intervals {
            self.burns.pop_front();
        }
        let windowed = self.burns.iter().sum::<f64>() / self.burns.len() as f64;
        self.stats.current_burn_rate = windowed;
        self.stats.worst_burn_rate = self.stats.worst_burn_rate.max(windowed);
        let next = if windowed >= self.cfg.fast_burn {
            SloVerdict::Breach
        } else if windowed >= 1.0 || interval.p99_latency_cycles > self.cfg.target_p99_cycles {
            SloVerdict::Warn
        } else {
            SloVerdict::Ok
        };
        interval.burn_rate = burn;
        interval.windowed_burn_rate = windowed;
        interval.verdict_level = next.level();
        if next == SloVerdict::Breach {
            self.stats.breach_intervals += 1;
        }
        let prev = self.verdict;
        self.verdict = next;
        self.stats.verdict_level = next.level();
        if next > prev {
            self.stats.escalations += 1;
            Some(TraceEvent::SloEscalate {
                level: next.level() as u8,
                burn_x100: (windowed * 100.0).clamp(0.0, f64::from(u16::MAX)) as u16,
            })
        } else if next < prev {
            self.stats.recoveries += 1;
            Some(TraceEvent::SloRecover {
                level: next.level() as u8,
            })
        } else {
            None
        }
    }

    pub fn verdict(&self) -> SloVerdict {
        self.verdict
    }

    pub fn metrics(&self) -> SloServeMetrics {
        self.stats.clone()
    }
}

/// Renders the serve counters as a Prometheus-style text exposition, one
/// family per declared field: `mpgraph_serve_<path>` with `_total` on
/// counters, the field's doc comment as `# HELP`, histograms as their
/// summary figures (`_count`, `_p50`, `_p99`, ...), and row keys as
/// labels (`{id="N"}` on `per_stream`).
pub fn render_exposition(m: &ServeMetrics) -> String {
    use std::fmt::Write as _;
    // (name, text) in first-seen order: a family's rows arrive interleaved
    // with other fields but print together.
    let mut families: Vec<(String, String)> = Vec::new();
    m.visit(&mut |x| {
        // Counters end in `_total`; a histogram's `count` is a counter
        // already named for its unit, as in a Prometheus summary.
        let (suffix, kind) = match (x.kind, x.path.last()) {
            (Kind::Counter, _) => ("_total", "counter"),
            (Kind::Histogram, Some(&"count")) => ("", "counter"),
            _ => ("", "gauge"),
        };
        let name = format!("mpgraph_serve_{}{suffix}", x.path.join("_"));
        if !families.iter().any(|f| f.0 == name) {
            let help = x.help.split_whitespace().collect::<Vec<_>>().join(" ");
            let head = format!("# HELP {name} {help}\n# TYPE {name} {kind}\n");
            families.push((name.clone(), head));
        }
        let labels: Vec<_> = x
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        let labels = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", labels.join(","))
        };
        if let Some((_, text)) = families.iter_mut().find(|f| f.0 == name) {
            let _ = writeln!(text, "{name}{labels} {}", x.value);
        }
    });
    families.into_iter().map(|(_, text)| text).collect()
}

/// Writes `text` to `path` atomically: the bytes land in `<path>.tmp`
/// first and are renamed into place, so a reader polling `path` sees
/// either the previous dump or the new one, never a torn write.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Per-stage pump timing: the histograms accumulate here (the snapshot
/// keeps only their summaries), the wall totals in `totals`.
/// `pump` records into it directly, and only while telemetry is attached.
/// Every forward runs the f32 kernels (int8 is a storage format), so there
/// is one forward histogram.
#[derive(Default)]
pub(crate) struct PumpStages {
    pub(crate) queue_wait: LatencyHistogram,
    pub(crate) assembly: LatencyHistogram,
    pub(crate) forward_f32: LatencyHistogram,
    pub(crate) deferred: LatencyHistogram,
    pub(crate) totals: PumpStageMetrics,
}

impl PumpStages {
    fn metrics(&self) -> PumpStageMetrics {
        let mut m = PumpStageMetrics {
            queue_wait_cycles: self.queue_wait.snapshot(),
            assembly_ns: self.assembly.snapshot(),
            forward_f32_ns: self.forward_f32.snapshot(),
            deferred_fallback_ns: self.deferred.snapshot(),
            ..self.totals.clone()
        };
        m.update_rates();
        m
    }
}

/// The live telemetry attachment for a `PrefetchService`. Owns the
/// interval state, the SLO monitor, the stage timers, and the sinks; the
/// service calls into it from `pump` and folds its rollups into
/// [`ServeMetrics`] via [`LiveTelemetry::overlay`].
pub struct LiveTelemetry {
    cfg: LiveTelemetryConfig,
    slo: SloMonitor,
    sink: Option<Box<dyn Write + Send>>,
    expose: Option<PathBuf>,
    pub(crate) stages: PumpStages,
    /// Serve counters at the last interval close.
    prev: ServeMetrics,
    prev_cycle: u64,
    seq: u64,
    pumps_since_interval: u64,
    summaries: Vec<LiveIntervalSummary>,
    sink_errors: u64,
}

impl LiveTelemetry {
    pub fn new(cfg: LiveTelemetryConfig) -> Self {
        LiveTelemetry {
            slo: SloMonitor::new(cfg.slo),
            cfg,
            sink: None,
            expose: None,
            stages: PumpStages::default(),
            prev: ServeMetrics::default(),
            prev_cycle: 0,
            seq: 0,
            pumps_since_interval: 0,
            summaries: Vec::new(),
            sink_errors: 0,
        }
    }

    /// The live telemetry a command line asks for: the NDJSON `sink`
    /// (`--live-metrics`, see [`LiveTelemetry::with_sink`]) and the
    /// exposition file `expose` (`--expose`), closing an interval every
    /// `interval_pumps` pumps (`--live-interval`). `Ok(None)` when neither
    /// output is requested; an invalid interval or an unwritable sink is
    /// an error.
    pub fn from_outputs(
        sink: Option<&str>,
        expose: Option<&str>,
        interval_pumps: u64,
    ) -> Result<Option<Self>, MpGraphError> {
        if sink.is_none() && expose.is_none() {
            return Ok(None);
        }
        let cfg = LiveTelemetryConfig {
            interval_pumps,
            ..LiveTelemetryConfig::default()
        }
        .try_new()?;
        let mut tel = LiveTelemetry::new(cfg);
        if let Some(spec) = sink {
            tel = tel.with_sink(spec)?;
        }
        if let Some(path) = expose {
            tel = tel.with_expose(path);
        }
        Ok(Some(tel))
    }

    /// Attaches the NDJSON sink: `"-"` streams to stdout, anything else
    /// creates/truncates that file. Fails up front on an unwritable path
    /// rather than silently dropping every interval later.
    pub fn with_sink(mut self, spec: &str) -> Result<Self, MpGraphError> {
        self.sink = Some(if spec == "-" {
            Box::new(std::io::stdout())
        } else {
            let f = std::fs::File::create(spec).map_err(|e| {
                MpGraphError::config(
                    "livetel",
                    format!("cannot open live-metrics sink {spec}: {e}"),
                )
            })?;
            Box::new(std::io::BufWriter::new(f))
        });
        Ok(self)
    }

    /// Attaches the Prometheus-style exposition file, atomically rewritten
    /// at each interval close.
    pub fn with_expose(mut self, path: impl Into<PathBuf>) -> Self {
        self.expose = Some(path.into());
        self
    }

    pub fn config(&self) -> &LiveTelemetryConfig {
        &self.cfg
    }

    /// Whether the SLO verdict should currently count as a hot pump for
    /// the overload ladder.
    pub fn ladder_hot(&self) -> bool {
        self.cfg.slo.wire_ladder && self.slo.verdict() == SloVerdict::Breach
    }

    pub fn verdict(&self) -> SloVerdict {
        self.slo.verdict()
    }

    /// Intervals closed so far.
    pub fn intervals_closed(&self) -> u64 {
        self.seq
    }

    /// NDJSON/exposition write failures (the service keeps running).
    pub fn sink_errors(&self) -> u64 {
        self.sink_errors
    }

    /// Counts one pump; true when this pump closes an interval.
    pub fn interval_due(&mut self) -> bool {
        self.pumps_since_interval += 1;
        self.pumps_since_interval >= self.cfg.interval_pumps
    }

    /// Closes one interval at `at_record` on the trace clock: derives the
    /// delta record from `cur`, runs the SLO monitor, emits NDJSON and the
    /// exposition dump, and returns the trace events to stamp (the
    /// interval marker plus any verdict change). Self-times into
    /// `telemetry_wall_ns`.
    pub fn close_interval(
        &mut self,
        at_record: u64,
        clock: u64,
        cur: &ServeMetrics,
    ) -> Vec<TraceEvent> {
        let started = std::time::Instant::now();
        self.pumps_since_interval = 0;
        let mut interval = derive_interval(
            self.seq,
            &self.prev,
            cur,
            self.prev_cycle,
            clock,
            self.cfg.ghz,
        );
        let slo_event = self.slo.observe(&mut interval);
        let mut events = vec![TraceEvent::TelemetryInterval {
            seq: u32::try_from(self.seq).unwrap_or(u32::MAX),
        }];
        events.extend(slo_event);
        self.summaries.push(LiveIntervalSummary {
            seq: interval.seq,
            at_record,
            end_cycle: interval.end_cycle,
            delta_ingested: interval.delta_ingested,
            delta_shed: interval.delta_shed,
            delta_deadline_observations: interval.delta_deadline_observations,
            delta_deadline_misses: interval.delta_deadline_misses,
            shed_fraction: interval.shed_fraction,
            deadline_miss_fraction: interval.deadline_miss_fraction,
            burn_rate: interval.windowed_burn_rate,
            verdict_level: interval.verdict_level,
            queue_wait_p99_cycles: self.stages.queue_wait.snapshot().p99,
            forward_p99_ns: self.stages.forward_f32.snapshot().p99,
        });
        if let Some(sink) = self.sink.as_mut() {
            // NDJSON is a live feed: land each record so a tailing
            // consumer sees intervals as they close.
            let line = serde_json::to_string(&interval).map_err(std::io::Error::other);
            if line
                .and_then(|line| writeln!(sink, "{line}").and_then(|()| sink.flush()))
                .is_err()
            {
                self.sink_errors += 1;
            }
        }
        if let Some(path) = self.expose.clone() {
            let mut full = cur.clone();
            self.overlay(&mut full);
            if write_atomic(&path, &render_exposition(&full)).is_err() {
                self.sink_errors += 1;
            }
        }
        self.prev = cur.clone();
        self.prev_cycle = clock;
        self.seq += 1;
        self.stages.totals.telemetry_wall_ns += started.elapsed().as_nanos() as u64;
        events
    }

    /// Closes the trailing partial interval (if any counters moved or no
    /// interval was ever written) and flushes the sink — the end-of-run /
    /// EOF path, so a live session's last accesses are never lost.
    pub fn finish(&mut self, at_record: u64, clock: u64, cur: &ServeMetrics) -> Vec<TraceEvent> {
        let moved = cur.ingested != self.prev.ingested || self.seq == 0;
        let events = if moved {
            self.close_interval(at_record, clock, cur)
        } else {
            Vec::new()
        };
        if let Some(w) = self.sink.as_mut() {
            if w.flush().is_err() {
                self.sink_errors += 1;
            }
        }
        events
    }

    /// Folds the live rollups (stage spans, SLO state, interval series)
    /// into a serve-counter snapshot.
    pub fn overlay(&self, m: &mut ServeMetrics) {
        m.pump_stages = self.stages.metrics();
        m.slo = self.slo.metrics();
        m.live = self.summaries.clone();
    }

    /// The closed-interval series (for trace export).
    pub fn summaries(&self) -> &[LiveIntervalSummary] {
        &self.summaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::StreamServeMetrics;

    fn serve_counters(ingested: u64, misses: u64, obs: u64) -> ServeMetrics {
        ServeMetrics {
            ingested,
            ml_processed: ingested / 2,
            fallback_processed: ingested - ingested / 2,
            per_stream: vec![StreamServeMetrics {
                id: 0,
                deadline_observations: obs,
                deadline_misses: misses,
                ..StreamServeMetrics::default()
            }],
            ..ServeMetrics::default()
        }
    }

    #[test]
    fn interval_deltas_and_rates_derive_from_cumulative_snapshots() {
        let prev = serve_counters(100, 2, 40);
        let cur = serve_counters(180, 10, 80);
        let iv = derive_interval(3, &prev, &cur, 1000, 2000, 2.0);
        assert_eq!(iv.seq, 3);
        assert_eq!(iv.cycles, 1000);
        assert_eq!(iv.delta_ingested, 80);
        assert_eq!(iv.total_ingested, 180);
        assert_eq!(iv.delta_deadline_misses, 8);
        assert_eq!(iv.delta_deadline_observations, 40);
        assert!((iv.deadline_miss_fraction - 0.2).abs() < 1e-12);
        // 1000 cycles at 2 GHz = 500 ns; 80 accesses over 500e-9 s.
        assert!((iv.accesses_per_sec - 80.0 / 500e-9).abs() < 1.0);
    }

    #[test]
    fn zero_length_and_empty_intervals_keep_every_rate_finite() {
        let m = serve_counters(50, 0, 0);
        let iv = derive_interval(0, &m, &m, 700, 700, 2.0);
        assert_eq!(iv.delta_ingested, 0);
        for r in [
            iv.accesses_per_sec,
            iv.shed_fraction,
            iv.deadline_miss_fraction,
            iv.ml_fraction,
        ] {
            assert!(r.is_finite(), "rate not finite: {r}");
            assert_eq!(r, 0.0);
        }
    }

    #[test]
    fn slo_monitor_escalates_on_burn_and_recovers_when_budget_stops_burning() {
        let cfg = SloConfig {
            budget_miss_fraction: 0.05,
            fast_burn: 4.0,
            window_intervals: 2,
            wire_ladder: true,
            target_p99_cycles: 10_000,
        };
        let mut mon = SloMonitor::new(cfg);
        let mut calm = LiveInterval {
            deadline_miss_fraction: 0.0,
            ..LiveInterval::default()
        };
        assert_eq!(mon.observe(&mut calm), None);
        assert_eq!(mon.verdict(), SloVerdict::Ok);

        // 50% misses on a 5% budget: burn 10, windowed (0+10)/2 = 5 ≥ 4.
        let mut bad = LiveInterval {
            deadline_miss_fraction: 0.5,
            ..LiveInterval::default()
        };
        let ev = mon.observe(&mut bad);
        assert_eq!(mon.verdict(), SloVerdict::Breach);
        assert!(matches!(ev, Some(TraceEvent::SloEscalate { level: 2, .. })));
        assert_eq!(bad.verdict_level, 2);
        assert!(bad.windowed_burn_rate >= 4.0);

        // Calm intervals flush the window. The first one still averages
        // with the bad interval (windowed (10+0)/2 = 5, still Breach);
        // the second empties the window and the verdict drops to Ok with
        // a recover event.
        let mut after = LiveInterval::default();
        assert_eq!(mon.observe(&mut after), None);
        assert_eq!(mon.verdict(), SloVerdict::Breach);
        let mut after2 = LiveInterval::default();
        let second = mon.observe(&mut after2);
        assert_eq!(mon.verdict(), SloVerdict::Ok);
        assert!(matches!(second, Some(TraceEvent::SloRecover { level: 0 })));
        let m = mon.metrics();
        assert_eq!(m.escalations, 1);
        assert!(m.recoveries >= 1);
        // The bad interval plus the calm one whose window still averaged
        // at Breach.
        assert_eq!(m.breach_intervals, 2);
        assert!(m.worst_burn_rate >= 4.0);
    }

    #[test]
    fn p99_over_target_warns_without_breaching() {
        let mut mon = SloMonitor::new(SloConfig {
            target_p99_cycles: 100,
            ..SloConfig::default()
        });
        let mut iv = LiveInterval {
            p99_latency_cycles: 250,
            ..LiveInterval::default()
        };
        let ev = mon.observe(&mut iv);
        assert_eq!(mon.verdict(), SloVerdict::Warn);
        assert!(matches!(ev, Some(TraceEvent::SloEscalate { level: 1, .. })));
    }

    #[test]
    fn exposition_renders_counters_gauges_and_stream_labels() {
        let mut m = serve_counters(500, 3, 100);
        m.quarantines = 2;
        m.per_stream[0].ml_served = 77;
        m.per_stream[0].cooldown_remaining = 41;
        m.slo.current_burn_rate = 1.5;
        m.slo.verdict_level = 1;
        let text = render_exposition(&m);
        assert!(text.contains("# TYPE mpgraph_serve_ingested_total counter"));
        assert!(text.contains("mpgraph_serve_ingested_total 500"));
        assert!(text.contains("mpgraph_serve_quarantines_total 2"));
        assert!(text.contains("# TYPE mpgraph_serve_slo_current_burn_rate gauge"));
        assert!(text.contains("mpgraph_serve_slo_current_burn_rate 1.5"));
        assert!(text.contains("mpgraph_serve_per_stream_ml_served_total{id=\"0\"} 77"));
        assert!(text.contains("mpgraph_serve_per_stream_cooldown_remaining{id=\"0\"} 41"));
        assert!(text.contains("# TYPE mpgraph_serve_prediction_latency_count counter"));
        // Every declared sample is exposed, and each family is announced
        // exactly once however its rows interleave.
        let mut samples = 0;
        m.visit(&mut |_| samples += 1);
        assert_eq!(
            text.lines().filter(|l| !l.starts_with('#')).count(),
            samples
        );
        let types: Vec<_> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let mut unique = types.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(types.len(), unique.len());
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap_or("");
            assert!(
                value.parse::<f64>().is_ok(),
                "unparsable sample value in {line:?}"
            );
        }
    }

    #[test]
    fn atomic_exposition_rewrite_replaces_the_previous_dump() {
        let dir = std::env::temp_dir().join("mpgraph_livetel_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("metrics.prom");
        write_atomic(&path, "first 1\n").expect("first write");
        write_atomic(&path, "second 2\n").expect("second write");
        let got = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(got, "second 2\n");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn telemetry_closes_intervals_and_counts_monotonic_sequence() {
        let mut tel = LiveTelemetry::new(LiveTelemetryConfig {
            interval_pumps: 2,
            ..LiveTelemetryConfig::default()
        });
        assert!(!tel.interval_due());
        assert!(tel.interval_due());
        let cur = serve_counters(40, 0, 10);
        let events = tel.close_interval(39, 400, &cur);
        assert!(matches!(
            events.as_slice(),
            [TraceEvent::TelemetryInterval { seq: 0 }]
        ));
        let cur2 = serve_counters(90, 0, 20);
        let events = tel.close_interval(89, 900, &cur2);
        assert!(matches!(
            events.as_slice(),
            [TraceEvent::TelemetryInterval { seq: 1 }]
        ));
        assert_eq!(tel.intervals_closed(), 2);
        let s = tel.summaries();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].delta_ingested, 40);
        assert_eq!(s[1].delta_ingested, 50);
        assert_eq!(s[1].at_record, 89);
        // finish() with no counter movement adds nothing new.
        let events = tel.finish(95, 950, &cur2);
        assert!(events.is_empty());
        assert_eq!(tel.intervals_closed(), 2);
    }

    #[test]
    fn from_outputs_attaches_only_what_was_asked_for() {
        assert!(matches!(
            LiveTelemetry::from_outputs(None, None, 0),
            Ok(None)
        ));
        let expose = std::env::temp_dir().join("mpgraph_livetel_from_outputs.prom");
        let expose = expose.to_str().expect("utf-8 temp path");
        let tel = LiveTelemetry::from_outputs(None, Some(expose), 8)
            .expect("valid outputs")
            .expect("an output was asked for");
        assert_eq!(tel.config().interval_pumps, 8);
        let bad_interval = LiveTelemetry::from_outputs(None, Some(expose), 0);
        assert!(bad_interval.is_err_and(|e| e.to_string().contains("interval_pumps")));
        let missing_dir = std::env::temp_dir().join("mpgraph_no_such_dir/live.ndjson");
        let unwritable = LiveTelemetry::from_outputs(missing_dir.to_str(), None, 8);
        assert!(unwritable.is_err_and(|e| e.to_string().contains("live-metrics sink")));
    }
}
