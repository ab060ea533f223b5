//! Snapshot regression diffing: compare two metrics-snapshot artifacts (a
//! committed baseline and a freshly emitted one) and flag gated metrics
//! that degraded beyond a tolerance. The gates are a table of JSON paths
//! ([`GATES`]), each with a direction and a tolerance, read from the JSON
//! tree: a snapshot field no gate names can be added or
//! dropped without touching the baseline, and a gated path missing from
//! either file is an error, never a silently skipped gate. Only rates and
//! deterministic cycle counts gate — absolute counts shift with scale
//! knobs, while accuracy / coverage / timeliness / PBOT hit rate should
//! not — plus the simulated-latency percentiles (p50/p99) and the serve
//! SLO burn figures, which gate *upward* with relative tolerances.

use serde::{Serialize, Value};

/// Per-class tolerances. Rate metrics (`accuracy` .. `pbot_hit_rate`)
/// are *absolute*: a current value regresses when it falls below
/// `baseline - tolerance`. Latency percentiles (`latency_p50` /
/// `latency_p99`) are *relative*: a current value regresses when it
/// grows above `baseline * (1 + tolerance)`. Improvements never fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    pub accuracy: f64,
    pub coverage: f64,
    pub timeliness: f64,
    pub pbot_hit_rate: f64,
    /// Relative headroom for p50 latency percentiles (0.25 = +25%).
    pub latency_p50: f64,
    /// Relative headroom for p99 latency percentiles. Tails are noisier
    /// than medians even in a deterministic simulator (one extra slow
    /// probe window shifts the nearest-rank p99), so the default is
    /// looser than p50's.
    pub latency_p99: f64,
    /// Relative headroom on the serve-path SLO burn metrics
    /// (`serve.slo.worst_burn_rate`, `serve.slo.breach_intervals`): a
    /// current value above `baseline * (1 + tol)` regresses, and a zero
    /// baseline never gates (a baseline snapshotted without live
    /// telemetry attached carries all-zero SLO fields).
    pub burn: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            accuracy: 0.05,
            coverage: 0.05,
            timeliness: 0.05,
            pbot_hit_rate: 0.05,
            latency_p50: 0.25,
            latency_p99: 0.50,
            burn: 0.50,
        }
    }
}

impl Tolerances {
    /// Sets every tolerance (absolute rates and relative latencies) to
    /// the same value.
    pub fn uniform(tol: f64) -> Self {
        Tolerances {
            accuracy: tol,
            coverage: tol,
            timeliness: tol,
            pbot_hit_rate: tol,
            latency_p50: tol,
            latency_p99: tol,
            burn: tol,
        }
    }
}

/// Which way a gated metric regresses. `Lower`: a rate, regressing when
/// it falls below `baseline - tol`. `Higher`: a latency or burn figure,
/// regressing when it grows above `baseline * (1 + tol)`; a zero baseline
/// never gates it (an empty histogram snapshots to all-zero percentiles,
/// and `0 * (1 + tol)` would flag any nonzero current).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Worse {
    Lower,
    Higher,
}

impl Worse {
    fn regressed(self, baseline: f64, current: f64, tol: f64) -> bool {
        match self {
            Worse::Lower => current < baseline - tol,
            Worse::Higher => baseline > 0.0 && current > baseline * (1.0 + tol),
        }
    }
}

/// One gate: a dotted path into the snapshot JSON, its direction, and
/// the tolerance it takes.
pub type Gate = (&'static str, Worse, fn(&Tolerances) -> f64);

/// Every gated scalar.
pub const GATES: &[Gate] = &[
    ("accuracy", Worse::Lower, |t| t.accuracy),
    ("coverage", Worse::Lower, |t| t.coverage),
    ("timeliness", Worse::Lower, |t| t.timeliness),
    ("cstp.pbot_hit_rate", Worse::Lower, |t| t.pbot_hit_rate),
    ("inference_latency.p50", Worse::Higher, |t| t.latency_p50),
    ("inference_latency.p99", Worse::Higher, |t| t.latency_p99),
    ("memory_latency.p50", Worse::Higher, |t| t.latency_p50),
    ("memory_latency.p99", Worse::Higher, |t| t.latency_p99),
    ("serve.slo.worst_burn_rate", Worse::Higher, |t| t.burn),
    ("serve.slo.breach_intervals", Worse::Higher, |t| t.burn),
];

/// Per-phase accuracy: rows of `phases` matched by their `phase` key and
/// compared for the phases both files have.
const PHASE_ROWS: &str = "phases";

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
    pub tolerance: f64,
    pub regressed: bool,
}

/// The full comparison: every gated metric plus its verdict.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    pub deltas: Vec<MetricDelta>,
}

impl DiffReport {
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    pub fn has_regressions(&self) -> bool {
        self.deltas.iter().any(|d| d.regressed)
    }
}

/// A gated path that one of the two snapshots lacks (or holds as a
/// non-number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingMetric {
    /// `"baseline"` or `"current"`.
    pub side: &'static str,
    pub path: String,
}

impl std::fmt::Display for MissingMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let MissingMetric { side, path } = self;
        write!(f, "gated metric `{path}` missing from the {side} snapshot")
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(x) => Some(x),
        _ => None,
    }
}

fn gated(root: &Value, side: &'static str, path: &str) -> Result<f64, MissingMetric> {
    let v = path.split('.').try_fold(root, |v, key| v.get(key));
    v.and_then(number).ok_or_else(|| MissingMetric {
        side,
        path: path.to_string(),
    })
}

/// `(phase, accuracy)` for every row of `phases`.
fn phase_rows(root: &Value, side: &'static str) -> Result<Vec<(f64, f64)>, MissingMetric> {
    let missing = |path: String| MissingMetric { side, path };
    let Some(Value::Array(rows)) = root.get(PHASE_ROWS) else {
        return Err(missing(PHASE_ROWS.to_string()));
    };
    let field = |i: usize, row: &Value, k: &str| {
        let path = format!("{PHASE_ROWS}[{i}].{k}");
        row.get(k).and_then(number).ok_or_else(|| missing(path))
    };
    let rows = rows.iter().enumerate();
    rows.map(|(i, row)| Ok((field(i, row, "phase")?, field(i, row, "accuracy")?)))
        .collect()
}

/// Diffs `current` against `baseline` on every [`GATES`] path and on
/// per-phase accuracy for every phase present in both snapshots.
pub fn diff_snapshots<B: Serialize + ?Sized, C: Serialize + ?Sized>(
    baseline: &B,
    current: &C,
    tol: &Tolerances,
) -> Result<DiffReport, MissingMetric> {
    let (b, c) = (baseline.to_value(), current.to_value());
    let mut deltas = Vec::new();
    let mut push = |metric: String, worse: Worse, tolerance: f64, (baseline, current)| {
        let regressed = worse.regressed(baseline, current, tolerance);
        deltas.push(MetricDelta {
            metric,
            baseline,
            current,
            tolerance,
            regressed,
        });
    };
    for &(path, worse, tolerance) in GATES {
        let values = (gated(&b, "baseline", path)?, gated(&c, "current", path)?);
        push(path.to_string(), worse, tolerance(tol), values);
    }
    let current_phases = phase_rows(&c, "current")?;
    for (phase, bv) in phase_rows(&b, "baseline")? {
        if let Some(&(_, cv)) = current_phases.iter().find(|(p, _)| *p == phase) {
            let metric = format!("phase[{phase}].accuracy");
            push(metric, Worse::Lower, tol.accuracy, (bv, cv));
        }
    }
    Ok(DiffReport { deltas })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgraph_core::{MetricsSnapshot, PhaseMetrics};

    fn diff(b: &MetricsSnapshot, c: &MetricsSnapshot, tol: &Tolerances) -> DiffReport {
        diff_snapshots(b, c, tol).expect("typed snapshots carry every gated path")
    }

    fn snap(accuracy: f64, coverage: f64, phase_acc: &[f64]) -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            accuracy,
            coverage,
            timeliness: 0.9,
            phases: phase_acc
                .iter()
                .enumerate()
                .map(|(i, &a)| PhaseMetrics {
                    phase: i as u32,
                    accuracy: a,
                    ..PhaseMetrics::default()
                })
                .collect(),
            ..MetricsSnapshot::default()
        };
        s.cstp.pbot_hit_rate = 0.5;
        s
    }

    #[test]
    fn identical_snapshots_pass() {
        let b = snap(0.8, 0.6, &[0.7, 0.9]);
        let rep = diff(&b, &b.clone(), &Tolerances::default());
        assert!(!rep.has_regressions());
        // accuracy, coverage, timeliness, pbot + 4 latency percentiles
        // + 2 SLO burn gates + 2 phases
        assert_eq!(rep.deltas.len(), 12);
    }

    #[test]
    fn slo_burn_growth_beyond_tolerance_is_flagged() {
        let mut b = snap(0.8, 0.6, &[0.7]);
        b.serve.slo.worst_burn_rate = 2.0;
        b.serve.slo.breach_intervals = 4;
        let mut c = b.clone();
        // +25% burn sits inside the default 50% headroom; 3x breach
        // intervals blow through it.
        c.serve.slo.worst_burn_rate = 2.5;
        c.serve.slo.breach_intervals = 12;
        let rep = diff(&b, &c, &Tolerances::default());
        let bad: Vec<_> = rep.regressions().map(|d| d.metric.clone()).collect();
        assert_eq!(bad, vec!["serve.slo.breach_intervals".to_string()]);
        // Burn improvements never fail, and a zero baseline never gates.
        let calm = snap(0.8, 0.6, &[0.7]);
        let mut hot = calm.clone();
        hot.serve.slo.worst_burn_rate = 9.0;
        hot.serve.slo.breach_intervals = 50;
        assert!(
            !diff(&calm, &hot, &Tolerances::default()).has_regressions(),
            "zero-burn baseline must not gate"
        );
        assert!(!diff(&c, &b, &Tolerances::default()).has_regressions());
    }

    #[test]
    fn latency_growth_beyond_tolerance_is_flagged() {
        let mut b = snap(0.8, 0.6, &[0.7]);
        b.inference_latency.p50 = 100;
        b.inference_latency.p99 = 400;
        let mut c = b.clone();
        // +10% p50 stays inside the default 25% headroom; a 2x p99 blows
        // through the 50% tail headroom.
        c.inference_latency.p50 = 110;
        c.inference_latency.p99 = 800;
        let rep = diff(&b, &c, &Tolerances::default());
        let bad: Vec<_> = rep.regressions().map(|d| d.metric.clone()).collect();
        assert_eq!(bad, vec!["inference_latency.p99".to_string()]);
    }

    #[test]
    fn latency_improvements_never_fail() {
        let mut b = snap(0.8, 0.6, &[0.7]);
        b.inference_latency.p50 = 100;
        b.memory_latency.p99 = 900;
        let mut c = b.clone();
        c.inference_latency.p50 = 10;
        c.memory_latency.p99 = 100;
        assert!(!diff(&b, &c, &Tolerances::default()).has_regressions());
    }

    #[test]
    fn zero_latency_baseline_never_gates() {
        let b = snap(0.8, 0.6, &[0.7]);
        let mut c = b.clone();
        c.inference_latency.p50 = 5_000;
        c.memory_latency.p99 = 5_000;
        assert!(!diff(&b, &c, &Tolerances::default()).has_regressions());
    }

    #[test]
    fn degradation_beyond_tolerance_is_flagged() {
        let b = snap(0.8, 0.6, &[0.7]);
        let c = snap(0.70, 0.6, &[0.7]);
        let rep = diff(&b, &c, &Tolerances::default());
        let bad: Vec<_> = rep.regressions().map(|d| d.metric.clone()).collect();
        assert_eq!(bad, vec!["accuracy".to_string()]);
    }

    #[test]
    fn degradation_within_tolerance_passes() {
        let b = snap(0.8, 0.6, &[0.7]);
        let c = snap(0.76, 0.58, &[0.66]);
        assert!(!diff(&b, &c, &Tolerances::default()).has_regressions());
    }

    #[test]
    fn improvements_never_fail() {
        let b = snap(0.5, 0.4, &[0.3]);
        let c = snap(0.9, 0.9, &[0.9]);
        assert!(!diff(&b, &c, &Tolerances::default()).has_regressions());
    }

    #[test]
    fn per_phase_accuracy_gates_independently() {
        let b = snap(0.8, 0.6, &[0.7, 0.9]);
        let c = snap(0.8, 0.6, &[0.7, 0.5]);
        let rep = diff(&b, &c, &Tolerances::default());
        let bad: Vec<_> = rep.regressions().map(|d| d.metric.clone()).collect();
        assert_eq!(bad, vec!["phase[1].accuracy".to_string()]);
    }

    #[test]
    fn uniform_tolerance_applies_everywhere() {
        let b = snap(0.8, 0.6, &[0.7]);
        let c = snap(0.70, 0.5, &[0.6]);
        assert!(!diff(&b, &c, &Tolerances::uniform(0.2)).has_regressions());
        assert!(diff(&b, &c, &Tolerances::uniform(0.01)).has_regressions());
    }

    /// Removes the dotted `path` from a JSON object tree.
    fn without(mut v: Value, path: &str) -> Value {
        let (parent, leaf) = match path.rsplit_once('.') {
            Some((p, l)) => (Some(p), l),
            None => (None, path),
        };
        let mut node = &mut v;
        for key in parent.into_iter().flat_map(|p| p.split('.')) {
            let Value::Object(fields) = node else {
                panic!("not an object at {key}")
            };
            node = &mut fields.iter_mut().find(|(k, _)| k == key).expect("path").1;
        }
        let Value::Object(fields) = node else {
            panic!("not an object")
        };
        fields.retain(|(k, _)| k != leaf);
        v
    }

    #[test]
    fn a_gated_path_missing_from_either_file_is_an_error_naming_it() {
        let full = snap(0.8, 0.6, &[0.7]).to_value();
        for &(path, ..) in GATES {
            let cut = without(full.clone(), path);
            assert_eq!(
                diff_snapshots(&cut, &full, &Tolerances::default()),
                Err(MissingMetric {
                    side: "baseline",
                    path: path.to_string()
                })
            );
            let err = diff_snapshots(&full, &cut, &Tolerances::default()).unwrap_err();
            assert_eq!((err.side, err.path.as_str()), ("current", path));
        }
        let err = diff_snapshots(
            &full,
            &without(full.clone(), "phases"),
            &Tolerances::default(),
        )
        .unwrap_err();
        assert_eq!(err.path, "phases");
    }

    #[test]
    fn ungated_fields_can_come_and_go() {
        let full = snap(0.8, 0.6, &[0.7]).to_value();
        let lean = without(without(full.clone(), "serve.streams"), "windows");
        let rep = diff_snapshots(&full, &lean, &Tolerances::default()).expect("only ungated cuts");
        assert!(!rep.has_regressions());
        assert_eq!(rep.deltas.len(), GATES.len() + 1);
    }

    #[test]
    fn per_phase_rows_compare_only_shared_phases() {
        let b = snap(0.8, 0.6, &[0.7, 0.9, 0.9]);
        let c = snap(0.8, 0.6, &[0.7]);
        let rep = diff(&b, &c, &Tolerances::default());
        let phases: Vec<_> = rep
            .deltas
            .iter()
            .filter(|d| d.metric.starts_with("phase["))
            .map(|d| d.metric.clone())
            .collect();
        assert_eq!(phases, vec!["phase[0].accuracy".to_string()]);
        assert_eq!(
            diff(&c, &b, &Tolerances::default()).deltas.len(),
            GATES.len() + 1
        );
    }
}
