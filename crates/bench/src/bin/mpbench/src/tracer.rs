//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a layer name, a start, an end and the span that was open
//! when it began. Spans stay in memory and are written out once, as
//! Chrome-trace JSON that Perfetto loads. Every span also feeds a
//! per-layer total as it closes: calls, total time, and self time (its
//! duration minus the time its child spans cover). The totals are exact
//! for every span; the stored events are capped so a long run cannot
//! grow the trace file without bound.
//!
//! A disabled tracer records nothing: `begin` and `end` are one branch
//! each, so untraced runs measure the program, not the recorder.

use std::time::{Duration, Instant};

/// The layer boundaries the benchmark records, named after the module or
/// public function on the far side of the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Workload,
    Pass,
    Combo,
    Setup,
    Graph,
    Trace,
    Filter,
    Train,
    Replay,
    OnAccess,
    Snapshot,
    Tick,
    Ingest,
    Pump,
    Flush,
    Check,
    Probe,
}

impl Layer {
    const COUNT: usize = 17;

    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Workload,
        Layer::Pass,
        Layer::Combo,
        Layer::Setup,
        Layer::Graph,
        Layer::Trace,
        Layer::Filter,
        Layer::Train,
        Layer::Replay,
        Layer::OnAccess,
        Layer::Snapshot,
        Layer::Tick,
        Layer::Ingest,
        Layer::Pump,
        Layer::Flush,
        Layer::Check,
        Layer::Probe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Workload => "bench.workload",
            Layer::Pass => "bench.pass",
            Layer::Combo => "bench.combo",
            Layer::Setup => "bench.setup",
            Layer::Graph => "graph.standin",
            Layer::Trace => "frameworks.generate_trace",
            Layer::Filter => "sim.llc_filter_indexed",
            Layer::Train => "core.train_mpgraph",
            Layer::Replay => "sim.replay",
            Layer::OnAccess => "prefetcher.on_access",
            Layer::Snapshot => "core.obs.snapshot",
            Layer::Tick => "bench.tick",
            Layer::Ingest => "core.serve.ingest",
            Layer::Pump => "core.serve.pump",
            Layer::Flush => "core.serve.flush",
            Layer::Check => "bench.check",
            Layer::Probe => "bench.probe",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Layers entered once per access or tick; only these are capped.
    fn is_hot(self) -> bool {
        matches!(
            self,
            Layer::OnAccess | Layer::Tick | Layer::Ingest | Layer::Pump
        )
    }
}

/// Per-access and per-tick spans are stored for the first
/// `HOT_PER_PARENT` under each enclosing span and at most `MAX_HOT_EVENTS`
/// in all (about 20 MB of JSON); the rest, and every span inside one not
/// stored, are counted, not kept. Every coarser span is kept.
const HOT_PER_PARENT: u32 = 1000;
const MAX_HOT_EVENTS: u64 = 200_000;

/// Handle of an open span; `end` checks spans close innermost first.
#[must_use = "a span must be closed with Tracer::end"]
pub struct Span(usize);

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    layer: Layer,
    id: u64,
    start_ns: u64,
    child_ns: u64,
    hot_children: u32,
    keep: bool,
    label: Option<String>,
}

struct Event {
    layer: Layer,
    id: u64,
    parent: u64,
    start_ns: u64,
    dur_ns: u64,
    label: Option<String>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u64,
    stack: Vec<Open>,
    events: Vec<Event>,
    hot_events: u64,
    dropped: u64,
    totals: [Totals; Layer::COUNT],
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            events: Vec::new(),
            hot_events: 0,
            dropped: 0,
            totals: [Totals::default(); Layer::COUNT],
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, layer: Layer) -> Span {
        self.open(layer, None)
    }

    /// A span carrying a label, such as the combo it covers.
    pub fn begin_labeled(&mut self, layer: Layer, label: impl FnOnce() -> String) -> Span {
        let label = self.on.then(label);
        self.open(layer, label)
    }

    fn open(&mut self, layer: Layer, label: Option<String>) -> Span {
        if !self.on {
            return Span(usize::MAX);
        }
        let (id, keep) = self.start_child(layer);
        self.stack.push(Open {
            layer,
            id,
            start_ns: self.now_ns(),
            child_ns: 0,
            hot_children: 0,
            keep,
            label,
        });
        Span(self.stack.len() - 1)
    }

    /// A new span's id, and whether its event is stored.
    fn start_child(&mut self, layer: Layer) -> (u64, bool) {
        let id = self.next_id;
        self.next_id += 1;
        let mut keep = match self.stack.last_mut() {
            Some(parent) => {
                parent.hot_children += u32::from(layer.is_hot());
                parent.keep && parent.hot_children <= HOT_PER_PARENT
            }
            None => true,
        };
        if layer.is_hot() {
            keep &= self.hot_events < MAX_HOT_EVENTS;
            self.hot_events += u64::from(keep);
        }
        (id, keep)
    }

    pub fn end(&mut self, span: Span) {
        if !self.on {
            return;
        }
        assert_eq!(
            span.0 + 1,
            self.stack.len(),
            "spans must close innermost first"
        );
        let now = self.now_ns();
        let open = self.stack.pop().expect("checked non-empty above");
        let dur = now.saturating_sub(open.start_ns);
        let event = open.keep.then_some(Event {
            layer: open.layer,
            id: open.id,
            parent: 0,
            start_ns: open.start_ns,
            dur_ns: dur,
            label: open.label,
        });
        self.close(open.layer, dur, open.child_ns, event);
    }

    /// Records a span with no children whose time the caller measured —
    /// the per-call spans around `on_access`, `ingest` and `pump`.
    pub fn leaf(&mut self, layer: Layer, start: Instant, dur: Duration) {
        if !self.on {
            return;
        }
        let (id, keep) = self.start_child(layer);
        let dur_ns = dur.as_nanos() as u64;
        let event = keep.then(|| Event {
            layer,
            id,
            parent: 0,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns,
            label: None,
        });
        self.close(layer, dur_ns, 0, event);
    }

    /// Folds a closed span into its layer's totals and its parent's child
    /// time, and stores its event when it is kept.
    fn close(&mut self, layer: Layer, dur: u64, child_ns: u64, event: Option<Event>) {
        let t = &mut self.totals[layer.index()];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns);
        let parent = self.stack.last_mut().map_or(0, |p| {
            p.child_ns += dur;
            p.id
        });
        match event {
            Some(e) => self.events.push(Event { parent, ..e }),
            None => self.dropped += 1,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn totals(&self, layer: Layer) -> Totals {
        self.totals[layer.index()]
    }

    /// Spans recorded, stored or not.
    pub fn span_count(&self) -> u64 {
        self.totals.iter().map(|t| t.calls).sum()
    }

    /// The per-layer self-time table, largest self time first.
    pub fn self_time_table(&self) -> Vec<String> {
        let mut rows: Vec<(Layer, Totals)> = Layer::ALL
            .iter()
            .map(|&l| (l, self.totals(l)))
            .filter(|(_, t)| t.calls > 0)
            .collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        let all_self: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
        let mut out = vec![format!(
            "{:<28} {:>10} {:>12} {:>12} {:>7}",
            "layer", "calls", "total_s", "self_s", "self%"
        )];
        for (layer, t) in rows {
            out.push(format!(
                "{:<28} {:>10} {:>12.6} {:>12.6} {:>6.2}%",
                layer.name(),
                t.calls,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9,
                100.0 * t.self_ns as f64 / all_self.max(1) as f64
            ));
        }
        out
    }

    /// Chrome-trace JSON: one complete ("X") event per stored span, with
    /// its id, its parent's id and its label in `args`.
    pub fn chrome_trace(&self) -> serde::Value {
        use serde::Value;
        let mut events: Vec<Value> = Vec::with_capacity(self.events.len() + 1);
        events.push(Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::U64(1)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str("mpbench".into()))]),
            ),
        ]));
        for e in &self.events {
            let mut args = vec![
                ("id".into(), Value::U64(e.id)),
                ("parent".into(), Value::U64(e.parent)),
            ];
            if let Some(label) = &e.label {
                args.push(("label".into(), Value::Str(label.clone())));
            }
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(e.layer.name().into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(e.start_ns as f64 / 1e3)),
                ("dur".into(), Value::F64(e.dur_ns as f64 / 1e3)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(1)),
                ("args".into(), Value::Object(args)),
            ]));
        }
        Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            (
                "otherData".into(),
                Value::Object(vec![("dropped_events".into(), Value::U64(self.dropped))]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin(Layer::Replay);
        let start = Instant::now();
        t.leaf(Layer::OnAccess, start, Duration::from_millis(3));
        t.end(outer);
        let outer = t.totals(Layer::Replay);
        let leaf = t.totals(Layer::OnAccess);
        assert_eq!(leaf.total_ns, 3_000_000);
        assert_eq!(outer.self_ns, outer.total_ns.saturating_sub(3_000_000));
        assert_eq!(t.span_count(), 2);
        let json = serde_json::to_string(&t.chrome_trace()).expect("serializes");
        assert!(json.contains("\"prefetcher.on_access\""));
    }

    #[test]
    fn a_span_not_stored_takes_its_children_with_it() {
        let mut t = Tracer::new(true);
        let root = t.begin(Layer::Workload);
        for _ in 0..HOT_PER_PARENT + 1 {
            let tick = t.begin(Layer::Tick);
            t.leaf(Layer::Pump, Instant::now(), Duration::from_nanos(10));
            t.end(tick);
        }
        t.end(root);
        assert_eq!(t.totals(Layer::Tick).calls, u64::from(HOT_PER_PARENT) + 1);
        assert_eq!(t.events.len(), 1 + 2 * HOT_PER_PARENT as usize);
        assert_eq!(t.dropped, 2);
        let ids: Vec<u64> = t.events.iter().map(|e| e.id).collect();
        assert!(t
            .events
            .iter()
            .all(|e| e.parent == 0 || ids.contains(&e.parent)));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin(Layer::Pass);
        t.leaf(Layer::Pump, Instant::now(), Duration::from_micros(5));
        t.end(s);
        assert_eq!(t.span_count(), 0);
        assert!(t.self_time_table().len() == 1);
    }
}
