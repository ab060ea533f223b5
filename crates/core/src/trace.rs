//! Flight recorder and trace export: the temporal half of the
//! observability layer.
//!
//! [`FlightRecorder`] is a fixed-capacity ring buffer of
//! `(access index, TraceEvent)` pairs. The ring is allocated once at
//! construction; recording into it is a slot write that never allocates,
//! and when the buffer is full the oldest events are overwritten (counted
//! in [`FlightRecorder::overwritten`]) — flight-recorder semantics: the
//! most recent history is always available, however long the run.
//!
//! [`chrome_trace_json_sharded`] renders recorded runs as Chrome-trace /
//! Perfetto JSON (`{"traceEvents": [...]}`): phase residency as "X"
//! complete slices, every recorded event as an "i" instant on the track
//! one event table gives it, and the windowed and live-interval series
//! as "C" counters. Timestamps are the
//! sim's access index (reported to Perfetto as microseconds — the replay
//! has no wall clock, and the index is the natural timeline).
//!
//! The whole subsystem follows the `PrefetchObserver` discipline: nothing
//! here is reachable from a run without a trace sink attached, and
//! attaching one changes no simulation state (see DESIGN.md §13).

use crate::metric::ratio;
use mpgraph_sim::TraceEvent;
use serde::{Deserialize, Serialize, Value};

/// Configuration for the flight recorder and windowed telemetry.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Ring-buffer capacity in events. The default (64 Ki events ·
    /// 24 bytes/slot = 1.5 MiB) holds every event of the bench carrier
    /// workloads with room to spare; longer runs wrap and keep the tail.
    pub ring_capacity: usize,
    /// Telemetry window length in trace records (accesses). Each window
    /// closes into one [`WindowMetrics`] delta.
    pub window: u64,
    /// Maximum number of retained windows; beyond it, further windows are
    /// dropped (counted) rather than grown, keeping steady state
    /// allocation-free.
    pub max_windows: usize,
    /// Adaptive window length: when set, the telemetry window *halves*
    /// (down to [`TraceConfig::min_window`]) whenever an alarm event
    /// ([`TraceEvent::is_alarm`]) lands — guard trips, shed episodes,
    /// quarantines, batch timeouts — and *doubles* (up to
    /// [`TraceConfig::max_window`]) after
    /// [`TraceConfig::calm_windows`] consecutive alarm-free windows. The
    /// recorder thus keeps fine-grained telemetry around incidents and
    /// cheap coarse telemetry through steady state.
    pub adaptive: bool,
    /// Lower bound for the adaptive window length, in records.
    pub min_window: u64,
    /// Upper bound for the adaptive window length, in records.
    pub max_window: u64,
    /// Consecutive alarm-free windows before the window length doubles.
    pub calm_windows: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 65_536,
            window: 512,
            max_windows: 4096,
            adaptive: false,
            min_window: 64,
            max_window: 4096,
            calm_windows: 4,
        }
    }
}

impl TraceConfig {
    /// The default configuration with adaptive window sizing switched on.
    pub fn with_adaptive() -> Self {
        TraceConfig {
            adaptive: true,
            ..TraceConfig::default()
        }
    }
}

/// Fixed-capacity ring buffer of timestamped trace events.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<(u64, TraceEvent)>,
    /// Overwrite cursor, meaningful once the ring is full: the slot the
    /// *next* event lands in, which is also the oldest retained event.
    head: usize,
    overwritten: u64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Vec::with_capacity(capacity.max(1)),
            head: 0,
            overwritten: 0,
        }
    }

    /// Records `event` at access index `at`. Never allocates: the ring
    /// fills to capacity and then wraps, overwriting the oldest slot.
    #[inline]
    pub fn record(&mut self, at: u64, event: TraceEvent) {
        if self.ring.len() < self.ring.capacity() {
            self.ring.push((at, event));
        } else {
            self.ring[self.head] = (at, event);
            self.head = (self.head + 1) % self.ring.len();
            self.overwritten += 1;
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = (u64, TraceEvent)> + '_ {
        let (wrapped, recent) = if self.ring.len() == self.ring.capacity() {
            self.ring.split_at(self.head.min(self.ring.len()))
        } else {
            (&[][..], &self.ring[..])
        };
        recent.iter().chain(wrapped.iter()).copied()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events lost to ring wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Capacity probe for allocation-freedom tests:
    /// `(retained, raw_capacity, overwritten)`. `raw_capacity` must not
    /// change across steady-state recording.
    pub fn alloc_stats(&self) -> (usize, usize, u64) {
        (self.ring.len(), self.ring.capacity(), self.overwritten)
    }
}

metrics! {
    /// Per-phase slice of one telemetry window.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct WindowPhaseMetrics {
        label phase: usize,
        counter issued: u64,
        counter useful: u64,
        counter demand_misses: u64,
        rate accuracy: f64,
    }
    rates |p| {
        p.accuracy = ratio(p.useful, p.issued);
    }
    key |p| -> usize { p.phase }

    /// One closed telemetry window: scoreboard counter deltas over `window`
    /// consecutive trace records, turned into the paper's rate metrics so
    /// accuracy / coverage / PBOT hit rate become time series.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct WindowMetrics {
        /// 0-based window ordinal.
        seq index: u64,
        /// First access index covered (inclusive).
        at start: u64,
        /// Last access index covered (exclusive).
        at end: u64,
        counter issued: u64,
        counter useful: u64,
        counter late: u64,
        counter useless: u64,
        counter demand_misses: u64,
        rate accuracy: f64,
        rate coverage: f64,
        counter pbot_hits: u64,
        counter pbot_misses: u64,
        rate pbot_hit_rate: f64,
        rows phases: Vec<WindowPhaseMetrics>,
    }
    rates |w| {
        let hits = w.useful + w.late;
        w.accuracy = ratio(hits, w.issued);
        w.coverage = ratio(hits, hits + w.demand_misses);
        w.pbot_hit_rate = ratio(w.pbot_hits, w.pbot_hits + w.pbot_misses);
    }
}

const TID_PHASES: u64 = 1;
const TID_DETECTOR: u64 = 2;
const TID_GUARD: u64 = 3;
const TID_CSTP: u64 = 4;
const TID_TELEMETRY: u64 = 5;
const TID_SERVE: u64 = 6;
const TID_LIVETEL: u64 = 7;

/// Every track of a shard's process, with its `thread_name`.
const TRACKS: [(u64, &str); 7] = [
    (TID_PHASES, "phases"),
    (TID_DETECTOR, "detector"),
    (TID_GUARD, "guard"),
    (TID_CSTP, "cstp"),
    (TID_TELEMETRY, "telemetry"),
    (TID_SERVE, "serve"),
    (TID_LIVETEL, "livetel"),
];

/// The event table: the track each event's instant lands on, and its
/// payload as Chrome-trace args (in display order). Every event is one
/// instant; the slices a few of them also bound are drawn in
/// [`append_shard`].
fn track_and_args(ev: TraceEvent) -> (u64, Vec<(&'static str, Value)>) {
    use TraceEvent::*;
    let n = Value::U64;
    match ev {
        PhaseArmed => (TID_DETECTOR, vec![]),
        PhaseConfirmed { prev_phase } => (TID_DETECTOR, vec![("prev_phase", n(prev_phase.into()))]),
        PhaseSelected { phase } => (TID_DETECTOR, vec![("phase", n(phase.into()))]),
        CstpChain {
            steps,
            pbot_hits,
            pbot_misses,
        } => (
            TID_CSTP,
            vec![
                ("steps", n(steps.into())),
                ("pbot_hits", n(pbot_hits.into())),
                ("pbot_misses", n(pbot_misses.into())),
            ],
        ),
        GuardTrip | GuardRecover | InflightOverflow => (TID_GUARD, vec![]),
        DegradationWindow { accesses } => (TID_GUARD, vec![("accesses", n(accesses))]),
        TrainRollback { count } => (TID_GUARD, vec![("count", n(count))]),
        StreamQuarantine { stream } | StreamRecover { stream } => {
            (TID_SERVE, vec![("stream", n(stream.into()))])
        }
        OverloadShed { level } | OverloadRecover { level } => {
            (TID_SERVE, vec![("level", n(level.into()))])
        }
        BatchTimeout { deferred } => (TID_SERVE, vec![("deferred", n(deferred.into()))]),
        SloEscalate { level, burn_x100 } => (
            TID_LIVETEL,
            vec![
                ("level", n(level.into())),
                ("burn_rate", Value::F64(f64::from(burn_x100) / 100.0)),
            ],
        ),
        SloRecover { level } => (TID_LIVETEL, vec![("level", n(level.into()))]),
        TelemetryInterval { seq } => (TID_LIVETEL, vec![("seq", n(seq.into()))]),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn meta(pid: u64, tid: Option<u64>, name: &str, args: Vec<(&str, Value)>) -> Value {
    let mut fields = vec![
        ("name", Value::Str(name.into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::U64(pid)),
    ];
    fields.extend(tid.map(|t| ("tid", Value::U64(t))));
    fields.push(("args", obj(args)));
    obj(fields)
}

fn instant(pid: u64, tid: u64, ts: u64, name: &str, args: Value) -> (u64, u64, Value) {
    (
        tid,
        ts,
        obj(vec![
            ("name", Value::Str(name.into())),
            ("ph", Value::Str("i".into())),
            ("s", Value::Str("t".into())),
            ("ts", Value::U64(ts)),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
            ("args", args),
        ]),
    )
}

/// A complete slice over `[start, end)`.
fn slice(pid: u64, tid: u64, start: u64, end: u64, name: &str) -> (u64, u64, Value) {
    (
        tid,
        start,
        obj(vec![
            ("name", Value::Str(name.into())),
            ("ph", Value::Str("X".into())),
            ("ts", Value::U64(start)),
            ("dur", Value::U64(end.saturating_sub(start))),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
        ]),
    )
}

fn counter(pid: u64, tid: u64, ts: u64, name: &str, value: f64) -> (u64, u64, Value) {
    (
        tid,
        ts,
        obj(vec![
            ("name", Value::Str(name.into())),
            ("ph", Value::Str("C".into())),
            ("ts", Value::U64(ts)),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
            ("args", obj(vec![(name, Value::F64(value))])),
        ]),
    )
}

/// One shard's recorded run, the one input of the Perfetto export: the
/// flight recorder, the windowed series, the total record count, and a
/// display label. [`crate::PrefetchScoreboard::shard_trace`] packages a
/// scoreboard's run this way.
#[derive(Debug, Clone)]
pub struct ShardTrace {
    /// Perfetto process name for this shard (e.g. `"gpop/pr/rmat"`).
    pub label: String,
    pub recorder: FlightRecorder,
    pub windows: Vec<WindowMetrics>,
    /// Total record count, closing the final phase slice.
    pub end: u64,
    /// Live-telemetry interval series (`core::livetel`), rendered as
    /// counter tracks on the `livetel` thread. Empty when the run had no
    /// live telemetry attached.
    pub live: Vec<crate::obs::LiveIntervalSummary>,
}

/// Appends one shard's events (process meta, thread metas, timed events)
/// under process id `pid` onto `events`.
fn append_shard(events: &mut Vec<Value>, pid: u64, shard: &ShardTrace) {
    // (tid, ts, event) triples, sorted at the end for per-track monotonic ts.
    let mut timed: Vec<(u64, u64, Value)> = Vec::new();

    let mut phase_start: u64 = 0;
    let mut current_phase: u8 = 0;
    let mut trip_at: Option<u64> = None;
    for (at, ev) in shard.recorder.events() {
        match ev {
            TraceEvent::PhaseConfirmed { prev_phase } => {
                // Close the residency slice for the phase that was live.
                let name = format!("phase {prev_phase}");
                timed.push(slice(pid, TID_PHASES, phase_start, at, &name));
                phase_start = at;
            }
            TraceEvent::PhaseSelected { phase } => current_phase = phase,
            TraceEvent::GuardTrip => trip_at = Some(at),
            TraceEvent::GuardRecover => {
                if let Some(start) = trip_at.take() {
                    timed.push(slice(pid, TID_GUARD, start, at, "degraded"));
                }
            }
            _ => {}
        }
        let (tid, args) = track_and_args(ev);
        timed.push(instant(pid, tid, at, ev.name(), obj(args)));
    }
    // Final residency slice: the selected phase runs to the end of trace.
    let name = format!("phase {current_phase}");
    timed.push(slice(pid, TID_PHASES, phase_start, shard.end, &name));
    // A trip that never recovered stays degraded through the end.
    if let Some(start) = trip_at {
        timed.push(slice(pid, TID_GUARD, start, shard.end, "degraded"));
    }

    for w in &shard.windows {
        let series = [
            ("accuracy", w.accuracy),
            ("coverage", w.coverage),
            ("pbot_hit_rate", w.pbot_hit_rate),
        ];
        for (name, value) in series {
            timed.push(counter(pid, TID_TELEMETRY, w.end, name, value));
        }
    }
    // Live-telemetry counter tracks: per-interval serve rates, the SLO
    // burn/verdict series, and the pump-stage p99s, all stamped where the
    // interval closed on the record clock.
    for iv in &shard.live {
        let series = [
            ("shed_fraction", iv.shed_fraction),
            ("deadline_miss_fraction", iv.deadline_miss_fraction),
            ("slo_burn_rate", iv.burn_rate),
            ("slo_verdict", iv.verdict_level as f64),
            ("queue_wait_p99_cycles", iv.queue_wait_p99_cycles as f64),
            ("forward_p99_ns", iv.forward_p99_ns as f64),
        ];
        for (name, value) in series {
            timed.push(counter(pid, TID_LIVETEL, iv.at_record, name, value));
        }
    }

    timed.sort_by_key(|&(tid, ts, _)| (tid, ts));

    let label = Value::Str(shard.label.clone());
    events.push(meta(pid, None, "process_name", vec![("name", label)]));
    let sort_index = vec![("sort_index", Value::U64(pid))];
    events.push(meta(pid, None, "process_sort_index", sort_index));
    for (tid, name) in TRACKS {
        let args = vec![("name", Value::Str(name.into()))];
        events.push(meta(pid, Some(tid), "thread_name", args));
    }
    events.extend(timed.into_iter().map(|(_, _, v)| v));
}

/// Renders recorded runs as Chrome-trace JSON (`{"traceEvents": [...]}`,
/// the format Perfetto and `chrome://tracing` load directly). Each
/// [`ShardTrace`] becomes its own Perfetto process (pid = shard index + 1,
/// process name = shard label), so a sharded `mpgraph run --all` renders
/// the whole framework × app × dataset matrix as parallel swimlanes on
/// one timeline; a single scoreboard or service exports one shard.
///
/// Each process has seven tracks. `phases` (tid 1) carries phase
/// residency as complete slices, one per span between confirmed
/// transitions, so slice count equals confirmed transitions + 1.
/// `detector` (tid 2), `guard` (tid 3), `cstp` (tid 4), `serve` (tid 6)
/// and `livetel` (tid 7) carry each event as an instant, on the track the
/// event table gives it; `guard` also carries a `degraded` slice per
/// trip→recover pair. `telemetry` (tid 5) carries the windowed accuracy /
/// coverage / PBOT-hit-rate counter series and `livetel` the
/// live-interval counter series. Events are sorted by (tid, ts) so `ts`
/// is monotonic per track.
pub fn chrome_trace_json_sharded(shards: &[ShardTrace]) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for (i, shard) in shards.iter().enumerate() {
        append_shard(&mut events, i as u64 + 1, shard);
    }
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fills_then_wraps_keeping_the_most_recent_events() {
        let mut r = FlightRecorder::new(4);
        for i in 0..3u64 {
            r.record(i, TraceEvent::PhaseArmed);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.overwritten(), 0);
        let ts: Vec<u64> = r.events().map(|(at, _)| at).collect();
        assert_eq!(ts, vec![0, 1, 2]);

        for i in 3..10u64 {
            r.record(i, TraceEvent::GuardTrip);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.overwritten(), 6);
        let ts: Vec<u64> = r.events().map(|(at, _)| at).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "oldest events overwritten first");
    }

    #[test]
    fn recording_never_grows_the_ring() {
        let mut r = FlightRecorder::new(128);
        // Prime to capacity, then hammer it: the raw capacity must not move.
        for i in 0..128u64 {
            r.record(i, TraceEvent::PhaseArmed);
        }
        let (_, cap_before, _) = r.alloc_stats();
        for i in 128..10_000u64 {
            r.record(i, TraceEvent::InflightOverflow);
        }
        let (len, cap_after, overwritten) = r.alloc_stats();
        assert_eq!(cap_before, cap_after, "ring reallocated in steady state");
        assert_eq!(len, 128);
        assert_eq!(overwritten, 10_000 - 128);
    }

    #[test]
    fn zero_capacity_is_clamped_not_panicking() {
        let mut r = FlightRecorder::new(0);
        r.record(0, TraceEvent::GuardTrip);
        r.record(1, TraceEvent::GuardRecover);
        assert_eq!(r.len(), 1);
        assert_eq!(r.events().next(), Some((1, TraceEvent::GuardRecover)));
    }

    /// The single-process export of one recorded run.
    fn export(recorder: FlightRecorder, windows: Vec<WindowMetrics>, end: u64) -> Value {
        let shard = ShardTrace {
            label: "mpgraph".into(),
            recorder,
            windows,
            end,
            live: Vec::new(),
        };
        chrome_trace_json_sharded(std::slice::from_ref(&shard))
    }

    fn track_ts(events: &[Value]) -> Vec<(u64, u64)> {
        events
            .iter()
            .filter_map(|e| {
                let ph = match e.get("ph") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => return None,
                };
                if ph == "M" {
                    return None;
                }
                let tid = match e.get("tid") {
                    Some(Value::U64(t)) => *t,
                    _ => return None,
                };
                let ts = match e.get("ts") {
                    Some(Value::U64(t)) => *t,
                    _ => return None,
                };
                Some((tid, ts))
            })
            .collect()
    }

    #[test]
    fn exporter_emits_sorted_slices_and_counters() {
        let mut r = FlightRecorder::new(64);
        r.record(5, TraceEvent::PhaseArmed);
        r.record(10, TraceEvent::PhaseConfirmed { prev_phase: 0 });
        r.record(14, TraceEvent::PhaseSelected { phase: 1 });
        r.record(20, TraceEvent::GuardTrip);
        r.record(30, TraceEvent::GuardRecover);
        r.record(30, TraceEvent::DegradationWindow { accesses: 9 });
        r.record(40, TraceEvent::PhaseConfirmed { prev_phase: 1 });
        r.record(44, TraceEvent::PhaseSelected { phase: 0 });
        let windows = vec![
            WindowMetrics {
                index: 0,
                start: 0,
                end: 32,
                accuracy: 0.5,
                coverage: 0.25,
                pbot_hit_rate: 0.75,
                ..WindowMetrics::default()
            },
            WindowMetrics {
                index: 1,
                start: 32,
                end: 64,
                accuracy: 0.625,
                ..WindowMetrics::default()
            },
        ];
        let v = export(r, windows.clone(), 64);
        let Some(Value::Array(events)) = v.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert!(!events.is_empty());

        // ts monotonic per (tid) track in array order — the CI invariant.
        let mut last: std::collections::HashMap<u64, u64> = Default::default();
        for (tid, ts) in track_ts(events) {
            let prev = last.entry(tid).or_insert(0);
            assert!(ts >= *prev, "track {tid} went backwards: {ts} < {prev}");
            *prev = ts;
        }

        // Two confirmed transitions → three phase slices covering [0, end).
        let slices: Vec<&Value> = events
            .iter()
            .filter(|e| {
                matches!(e.get("ph"), Some(Value::Str(s)) if s == "X")
                    && matches!(e.get("tid"), Some(Value::U64(t)) if *t == TID_PHASES)
            })
            .collect();
        assert_eq!(slices.len(), 3);
        let named: Vec<String> = slices
            .iter()
            .map(|s| match s.get("name") {
                Some(Value::Str(n)) => n.clone(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(named, vec!["phase 0", "phase 1", "phase 0"]);

        // Guard trip→recover becomes a degraded slice of length 10.
        let degraded: Vec<&Value> = events
            .iter()
            .filter(|e| matches!(e.get("name"), Some(Value::Str(n)) if n == "degraded"))
            .collect();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].get("ts"), Some(&Value::U64(20)));
        assert_eq!(degraded[0].get("dur"), Some(&Value::U64(10)));

        // Counter series: one triple per window.
        let counters = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Value::Str(s)) if s == "C"))
            .count();
        assert_eq!(counters, windows.len() * 3);

        // The artifact round-trips through the JSON writer/parser.
        let text = serde_json::to_string(&v).expect("serialize trace");
        let parsed = serde_json::parse_value(&text).expect("parse trace");
        assert!(matches!(parsed.get("traceEvents"), Some(Value::Array(_))));
    }

    #[test]
    fn serve_events_land_on_their_own_track() {
        let mut r = FlightRecorder::new(16);
        r.record(2, TraceEvent::OverloadShed { level: 1 });
        r.record(4, TraceEvent::StreamQuarantine { stream: 7 });
        r.record(6, TraceEvent::BatchTimeout { deferred: 3 });
        r.record(9, TraceEvent::StreamRecover { stream: 7 });
        r.record(12, TraceEvent::OverloadRecover { level: 0 });
        let v = export(r, Vec::new(), 16);
        let Some(Value::Array(events)) = v.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        let serve: Vec<&Value> = events
            .iter()
            .filter(|e| {
                matches!(e.get("tid"), Some(Value::U64(t)) if *t == TID_SERVE)
                    && matches!(e.get("ph"), Some(Value::Str(s)) if s == "i")
            })
            .collect();
        assert_eq!(serve.len(), 5);
        assert_eq!(
            serve[0].get("name"),
            Some(&Value::Str("overload-shed".into()))
        );
        let Some(Value::Object(args)) = serve[1].get("args") else {
            panic!("quarantine instant lost its args");
        };
        assert!(args
            .iter()
            .any(|(k, v)| k == "stream" && *v == Value::U64(7)));
    }

    #[test]
    fn livetel_counters_and_slo_events_land_on_their_own_track() {
        use crate::obs::LiveIntervalSummary;
        let mut r = FlightRecorder::new(16);
        r.record(
            7,
            TraceEvent::SloEscalate {
                level: 2,
                burn_x100: 450,
            },
        );
        r.record(9, TraceEvent::TelemetryInterval { seq: 0 });
        r.record(15, TraceEvent::SloRecover { level: 0 });
        let shard = ShardTrace {
            label: "mpgraph".into(),
            recorder: r,
            windows: Vec::new(),
            end: 16,
            live: vec![LiveIntervalSummary {
                seq: 0,
                at_record: 9,
                shed_fraction: 0.25,
                burn_rate: 4.5,
                verdict_level: 2,
                queue_wait_p99_cycles: 12,
                forward_p99_ns: 800,
                ..LiveIntervalSummary::default()
            }],
        };
        let v = chrome_trace_json_sharded(std::slice::from_ref(&shard));
        let Some(Value::Array(events)) = v.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        let on_track: Vec<&Value> = events
            .iter()
            .filter(|e| {
                matches!(e.get("tid"), Some(Value::U64(t)) if *t == TID_LIVETEL)
                    && !matches!(e.get("ph"), Some(Value::Str(s)) if s == "M")
            })
            .collect();
        // 3 instants + 6 counters, all on the livetel tid.
        assert_eq!(on_track.len(), 9);
        let escalate = on_track
            .iter()
            .find(|e| matches!(e.get("name"), Some(Value::Str(n)) if n == "slo-escalate"))
            .expect("slo-escalate instant");
        let Some(args) = escalate.get("args") else {
            panic!("escalate lost its args");
        };
        assert_eq!(args.get("burn_rate"), Some(&Value::F64(4.5)));
        let burn_counters = on_track
            .iter()
            .filter(|e| matches!(e.get("name"), Some(Value::Str(n)) if n == "slo_burn_rate"))
            .count();
        assert_eq!(burn_counters, 1);
        // The livetel thread meta names the track.
        assert!(events.iter().any(|e| {
            matches!(e.get("ph"), Some(Value::Str(s)) if s == "M")
                && matches!(e.get("tid"), Some(Value::U64(t)) if *t == TID_LIVETEL)
                && matches!(
                    e.get("args").and_then(|a| a.get("name")),
                    Some(Value::Str(n)) if n == "livetel"
                )
        }));
    }

    #[test]
    fn sharded_export_gives_each_shard_its_own_pid() {
        let shard = |label: &str, n: u64| {
            let mut r = FlightRecorder::new(16);
            r.record(2, TraceEvent::PhaseSelected { phase: 1 });
            r.record(5, TraceEvent::GuardTrip);
            ShardTrace {
                label: label.to_string(),
                recorder: r,
                windows: vec![WindowMetrics {
                    end: n,
                    accuracy: 0.5,
                    ..WindowMetrics::default()
                }],
                end: n,
                live: Vec::new(),
            }
        };
        let shards = vec![shard("gpop/pr/rmat", 64), shard("xstream/bfs/rmat", 32)];
        let v = chrome_trace_json_sharded(&shards);
        let Some(Value::Array(events)) = v.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        // One process_name meta per shard, pids 1 and 2, named by combo.
        let procs: Vec<(u64, String)> = events
            .iter()
            .filter(|e| matches!(e.get("name"), Some(Value::Str(n)) if n == "process_name"))
            .map(|e| {
                let pid = match e.get("pid") {
                    Some(Value::U64(p)) => *p,
                    _ => panic!("meta without pid"),
                };
                let name = match e.get("args").and_then(|a| a.get("name")) {
                    Some(Value::Str(n)) => n.clone(),
                    _ => panic!("meta without name"),
                };
                (pid, name)
            })
            .collect();
        assert_eq!(
            procs,
            vec![
                (1, "gpop/pr/rmat".to_string()),
                (2, "xstream/bfs/rmat".to_string())
            ]
        );
        // Every non-meta event carries one of the shard pids, and ts stays
        // monotonic per (pid, tid) — the CI Perfetto invariant.
        let mut last: std::collections::HashMap<(u64, u64), u64> = Default::default();
        for e in events.iter() {
            if matches!(e.get("ph"), Some(Value::Str(s)) if s == "M") {
                continue;
            }
            let (Some(Value::U64(pid)), Some(Value::U64(tid)), Some(Value::U64(ts))) =
                (e.get("pid"), e.get("tid"), e.get("ts"))
            else {
                panic!("timed event missing pid/tid/ts: {e:?}");
            };
            assert!(*pid == 1 || *pid == 2);
            let prev = last.entry((*pid, *tid)).or_insert(0);
            assert!(*ts >= *prev, "track ({pid},{tid}) went backwards");
            *prev = *ts;
        }
        // Both shards contributed timed events.
        assert!(last.keys().any(|&(p, _)| p == 1));
        assert!(last.keys().any(|&(p, _)| p == 2));
        // Single-shard export degenerates to the classic single-pid form.
        let single = chrome_trace_json_sharded(&shards[..1]);
        let Some(Value::Array(evs)) = single.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert!(evs.iter().all(|e| match e.get("pid") {
            Some(Value::U64(p)) => *p == 1,
            _ => true,
        }));
    }

    /// One of each of the 17 event kinds (a guard trip that recovers and
    /// one that runs to the end), two windows and one live interval,
    /// exported and compared byte for byte with the expected JSON, one
    /// trace event per line. Same-`(tid, ts)` ties (the recovery at 30,
    /// the telemetry interval at 40) pin the push order the stable sort
    /// keeps.
    #[test]
    fn golden_export_covers_every_event_kind() {
        use crate::obs::LiveIntervalSummary;
        let mut r = FlightRecorder::new(32);
        r.record(0, TraceEvent::TrainRollback { count: 2 });
        r.record(5, TraceEvent::PhaseArmed);
        r.record(10, TraceEvent::PhaseConfirmed { prev_phase: 0 });
        r.record(14, TraceEvent::PhaseSelected { phase: 1 });
        r.record(
            16,
            TraceEvent::CstpChain {
                steps: 3,
                pbot_hits: 2,
                pbot_misses: 1,
            },
        );
        r.record(20, TraceEvent::GuardTrip);
        r.record(22, TraceEvent::InflightOverflow);
        r.record(30, TraceEvent::GuardRecover);
        r.record(30, TraceEvent::DegradationWindow { accesses: 9 });
        r.record(33, TraceEvent::OverloadShed { level: 1 });
        r.record(34, TraceEvent::StreamQuarantine { stream: 7 });
        r.record(35, TraceEvent::BatchTimeout { deferred: 3 });
        r.record(
            36,
            TraceEvent::SloEscalate {
                level: 2,
                burn_x100: 450,
            },
        );
        r.record(40, TraceEvent::TelemetryInterval { seq: 0 });
        r.record(41, TraceEvent::StreamRecover { stream: 7 });
        r.record(42, TraceEvent::OverloadRecover { level: 0 });
        r.record(43, TraceEvent::SloRecover { level: 0 });
        r.record(50, TraceEvent::GuardTrip);
        let shard = ShardTrace {
            label: "golden".into(),
            recorder: r,
            windows: vec![
                WindowMetrics {
                    end: 32,
                    accuracy: 0.5,
                    coverage: 0.25,
                    pbot_hit_rate: 0.75,
                    ..WindowMetrics::default()
                },
                WindowMetrics {
                    start: 32,
                    end: 64,
                    accuracy: 0.625,
                    ..WindowMetrics::default()
                },
            ],
            end: 64,
            live: vec![LiveIntervalSummary {
                at_record: 40,
                shed_fraction: 0.25,
                deadline_miss_fraction: 0.125,
                burn_rate: 4.5,
                verdict_level: 2,
                queue_wait_p99_cycles: 12,
                forward_p99_ns: 800,
                ..LiveIntervalSummary::default()
            }],
        };
        let v = chrome_trace_json_sharded(std::slice::from_ref(&shard));
        let text = serde_json::to_string(&v).expect("serialize trace");
        let expected: String = GOLDEN_EXPORT.lines().map(str::trim).collect();
        assert_eq!(text, expected);
    }

    const GOLDEN_EXPORT: &str = r#"
        {"traceEvents":[
        {"name":"process_name","ph":"M","pid":1,"args":{"name":"golden"}},
        {"name":"process_sort_index","ph":"M","pid":1,"args":{"sort_index":1}},
        {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"phases"}},
        {"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"detector"}},
        {"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"guard"}},
        {"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"cstp"}},
        {"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"telemetry"}},
        {"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"serve"}},
        {"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"livetel"}},
        {"name":"phase 0","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
        {"name":"phase 1","ph":"X","ts":10,"dur":54,"pid":1,"tid":1},
        {"name":"phase-armed","ph":"i","s":"t","ts":5,"pid":1,"tid":2,"args":{}},
        {"name":"phase-confirmed","ph":"i","s":"t","ts":10,"pid":1,"tid":2,"args":{"prev_phase":0}},
        {"name":"phase-selected","ph":"i","s":"t","ts":14,"pid":1,"tid":2,"args":{"phase":1}},
        {"name":"train-rollback","ph":"i","s":"t","ts":0,"pid":1,"tid":3,"args":{"count":2}},
        {"name":"guard-trip","ph":"i","s":"t","ts":20,"pid":1,"tid":3,"args":{}},
        {"name":"degraded","ph":"X","ts":20,"dur":10,"pid":1,"tid":3},
        {"name":"inflight-overflow","ph":"i","s":"t","ts":22,"pid":1,"tid":3,"args":{}},
        {"name":"guard-recover","ph":"i","s":"t","ts":30,"pid":1,"tid":3,"args":{}},
        {"name":"degradation-window","ph":"i","s":"t","ts":30,"pid":1,"tid":3,"args":{"accesses":9}},
        {"name":"guard-trip","ph":"i","s":"t","ts":50,"pid":1,"tid":3,"args":{}},
        {"name":"degraded","ph":"X","ts":50,"dur":14,"pid":1,"tid":3},
        {"name":"cstp-chain","ph":"i","s":"t","ts":16,"pid":1,"tid":4,"args":{"steps":3,"pbot_hits":2,"pbot_misses":1}},
        {"name":"accuracy","ph":"C","ts":32,"pid":1,"tid":5,"args":{"accuracy":0.5}},
        {"name":"coverage","ph":"C","ts":32,"pid":1,"tid":5,"args":{"coverage":0.25}},
        {"name":"pbot_hit_rate","ph":"C","ts":32,"pid":1,"tid":5,"args":{"pbot_hit_rate":0.75}},
        {"name":"accuracy","ph":"C","ts":64,"pid":1,"tid":5,"args":{"accuracy":0.625}},
        {"name":"coverage","ph":"C","ts":64,"pid":1,"tid":5,"args":{"coverage":0}},
        {"name":"pbot_hit_rate","ph":"C","ts":64,"pid":1,"tid":5,"args":{"pbot_hit_rate":0}},
        {"name":"overload-shed","ph":"i","s":"t","ts":33,"pid":1,"tid":6,"args":{"level":1}},
        {"name":"stream-quarantine","ph":"i","s":"t","ts":34,"pid":1,"tid":6,"args":{"stream":7}},
        {"name":"batch-timeout","ph":"i","s":"t","ts":35,"pid":1,"tid":6,"args":{"deferred":3}},
        {"name":"stream-recover","ph":"i","s":"t","ts":41,"pid":1,"tid":6,"args":{"stream":7}},
        {"name":"overload-recover","ph":"i","s":"t","ts":42,"pid":1,"tid":6,"args":{"level":0}},
        {"name":"slo-escalate","ph":"i","s":"t","ts":36,"pid":1,"tid":7,"args":{"level":2,"burn_rate":4.5}},
        {"name":"telemetry-interval","ph":"i","s":"t","ts":40,"pid":1,"tid":7,"args":{"seq":0}},
        {"name":"shed_fraction","ph":"C","ts":40,"pid":1,"tid":7,"args":{"shed_fraction":0.25}},
        {"name":"deadline_miss_fraction","ph":"C","ts":40,"pid":1,"tid":7,"args":{"deadline_miss_fraction":0.125}},
        {"name":"slo_burn_rate","ph":"C","ts":40,"pid":1,"tid":7,"args":{"slo_burn_rate":4.5}},
        {"name":"slo_verdict","ph":"C","ts":40,"pid":1,"tid":7,"args":{"slo_verdict":2}},
        {"name":"queue_wait_p99_cycles","ph":"C","ts":40,"pid":1,"tid":7,"args":{"queue_wait_p99_cycles":12}},
        {"name":"forward_p99_ns","ph":"C","ts":40,"pid":1,"tid":7,"args":{"forward_p99_ns":800}},
        {"name":"slo-recover","ph":"i","s":"t","ts":43,"pid":1,"tid":7,"args":{"level":0}}
        ],"displayTimeUnit":"ms"}
    "#;

    #[test]
    fn window_metrics_round_trip_through_serde() {
        let w = WindowMetrics {
            index: 3,
            start: 1536,
            end: 2048,
            issued: 10,
            useful: 7,
            late: 1,
            useless: 2,
            demand_misses: 4,
            accuracy: 0.7,
            coverage: 7.0 / 11.0,
            pbot_hits: 5,
            pbot_misses: 1,
            pbot_hit_rate: 5.0 / 6.0,
            phases: vec![WindowPhaseMetrics {
                phase: 1,
                issued: 10,
                useful: 7,
                demand_misses: 4,
                accuracy: 0.7,
            }],
        };
        let text = serde_json::to_string(&w).expect("serialize window");
        let back: WindowMetrics = serde_json::from_str(&text).expect("deserialize window");
        assert_eq!(w, back);
    }
}
