//! Perf runner behind the CI perf-regression gate (`BENCH_kernels.json`).
//!
//! Measures three things on every run:
//!
//! * **kernel speedups** — the register-tiled matmul kernels against the
//!   `_ref` naive kernels (the seed's loop structure) at the shapes AMMA
//!   inference actually hits;
//! * **inference latency** — p50/p99 nanoseconds per warm-arena
//!   `predict_deltas_in` call for the AMMA, AMMA-PI and AMMA-PS variants,
//!   and per `predict_pages_in` call (page forward and tied head) for
//!   AMMA-PS;
//! * **training throughput** — tokens/second through the parallel
//!   AMMA-PS `DeltaPredictor::train` fan-out.
//!
//! Absolute nanoseconds are machine-dependent, so the gate compares
//! **normalized p50s**: every gated measurement is interleaved, sample by
//! sample, with a reference workload — the same-shape `_ref` kernel for
//! tiled kernels, a fixed calibration kernel (`matmul_ref_into` at
//! 64×64×64, into one output buffer held for the whole run) for
//! inference — and gated on the ratio of the two p50s. Both streams
//! see the same machine-load profile, so a regression in the committed
//! baseline's normalized numbers means the code got slower relative to
//! the machine, not that CI got a slower (or momentarily busier) machine.
//! The gate fails on a >[`TOLERANCE`] normalized-p50 increase;
//! `MPGRAPH_PERF_OVERRIDE=1` (or the `perf-override` PR label, which sets
//! it — see `.github/workflows/ci.yml`) downgrades the failure to a
//! warning for intentional trade-offs.

use std::time::Instant;

use criterion::black_box;
use mpgraph_core::{
    amma_latency, cycles_to_ns, AmmaConfig, DeltaPredictor, DeltaPredictorConfig, PagePredictor,
    PagePredictorConfig, Variant,
};
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::TrainCfg;
use serde::{Deserialize, Serialize};

/// Maximum tolerated relative increase of a normalized p50 vs the baseline.
pub const TOLERANCE: f64 = 0.15;

/// Accelerator clock assumed when converting Eq. 12 cycles to wall time.
pub const ACCEL_GHZ: f64 = 1.0;

/// One gated measurement: a latency plus its reference-normalized p50.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfEntry {
    pub name: String,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// The gated number: the median per-pair ratio of this measurement
    /// against the reference stream interleaved with it (the same-shape
    /// `_ref` kernel for kernel entries, the fixed calibration kernel for
    /// inference entries).
    pub normalized_p50: f64,
}

/// Tiled-vs-reference kernel comparison (informational; the tiled side is
/// also a gated [`PerfEntry`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelSpeedup {
    pub name: String,
    pub tiled_p50_ns: u64,
    pub ref_p50_ns: u64,
    pub speedup: f64,
}

/// The full report, serialized to `BENCH_kernels.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    pub schema_version: u32,
    pub quick: bool,
    /// Median over this run's per-entry calibration blocks.
    pub calibration_p50_ns: u64,
    pub kernels: Vec<KernelSpeedup>,
    /// Entries the CI gate compares (normalized p50, >15% fails).
    pub gated: Vec<PerfEntry>,
    /// AMMA-PS training throughput (informational: too run-to-run noisy
    /// on shared runners to gate).
    pub train_tokens_per_sec: f64,
    /// Eq. 12 critical path of the paper config, in cycles and in ns at
    /// [`ACCEL_GHZ`], for context next to the software latencies.
    pub eq12_paper_cycles: u64,
    pub eq12_paper_ns: f64,
}

/// Interleaved sampling: alternates one sample of `a` with one of `b`, so
/// adjacent samples of the two streams see the same machine-load profile.
/// Returns both streams sorted, plus the **median of per-pair ratios**
/// `a_i / b_i` — the gated statistic. Per-pair ratios are robust where a
/// ratio of medians is not: a load spike inflates one pair's ratio, which
/// the median then discards, instead of shifting a whole stream's p50.
fn sample_interleaved_ns(
    samples: usize,
    inner: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Vec<u64>, Vec<u64>, f64) {
    let mut va = Vec::with_capacity(samples);
    let mut vb = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..inner {
            a();
        }
        va.push((t.elapsed().as_nanos() / inner.max(1) as u128) as u64);
        let t = Instant::now();
        for _ in 0..inner {
            b();
        }
        vb.push((t.elapsed().as_nanos() / inner.max(1) as u128) as u64);
    }
    let mut ratios: Vec<f64> = va
        .iter()
        .zip(vb.iter())
        .map(|(&x, &y)| x as f64 / y.max(1) as f64)
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    let median_ratio = median(&ratios);
    va.sort_unstable();
    vb.sort_unstable();
    (va, vb, median_ratio)
}

/// Median of a sorted slice: the mean of the two middle elements when the
/// length is even (the lower-middle shortcut biases an even-length gate
/// stream low — a real regression can hide in the skipped upper middle).
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Nearest-rank percentile over sorted samples, `p` in [0, 1]: the value
/// at rank `⌈p·n⌉` (1-based, clamped). The previous `.round()` of
/// `(n-1)·p` sat *below* the nearest-rank definition for most `p`/`n`
/// combinations, understating tail latencies.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

fn entry(name: &str, sorted: &[u64], calibration_p50: u64) -> PerfEntry {
    let p50 = percentile(sorted, 0.50);
    PerfEntry {
        name: name.to_string(),
        p50_ns: p50,
        p99_ns: percentile(sorted, 0.99),
        normalized_p50: p50 as f64 / calibration_p50.max(1) as f64,
    }
}

/// Matmul shapes AMMA inference and training actually hit (history×feat
/// × weight matrices at the default and paper dimensions), plus a square
/// shape. `(9, 16, 64)` is a head's `dK·Wkᵀ` in a training backward at
/// the default dimensions, where training spends most of its `matmul_bt`
/// time. `(9, 64, 128)` is the packed K|V product of the fusion layer
/// and of the transformer's attention at the default dimensions.
const SHAPES: &[(usize, usize, usize)] = &[
    (9, 64, 64),
    (9, 16, 64),
    (9, 64, 128),
    (9, 128, 128),
    (9, 128, 256),
    (64, 64, 64),
];

struct Knobs {
    kernel_samples: usize,
    kernel_inner: usize,
    infer_samples: usize,
    train_samples: usize,
    train_epochs: usize,
}

impl Knobs {
    fn new(quick: bool) -> Self {
        if quick {
            Knobs {
                kernel_samples: 150,
                kernel_inner: 4,
                infer_samples: 500,
                train_samples: 150,
                train_epochs: 1,
            }
        } else {
            Knobs {
                kernel_samples: 400,
                kernel_inner: 8,
                infer_samples: 2000,
                train_samples: 400,
                train_epochs: 2,
            }
        }
    }
}

/// Synthetic three-phase trace with the stride/page mix the predictors
/// train on elsewhere in the bench crate; deterministic and cheap.
fn perf_trace() -> Vec<MemRecord> {
    let mut v = Vec::new();
    let rec = |vaddr: u64, pc: u64, phase: u8, core: u8| MemRecord {
        pc,
        vaddr,
        core,
        is_write: false,
        phase,
        gap: 1,
        dep: false,
    };
    for rep in 0..3u64 {
        let mut a = (4 + rep) * 8192;
        for i in 0..300usize {
            v.push(rec(a, 0x400000 + (i as u64 % 3) * 4, 0, (i % 2) as u8));
            a += 64;
        }
        for i in 0..300usize {
            let page = [40u64, 80, 120][i % 3];
            v.push(rec(page * 4096 + (i % 60) as u64 * 64, 0x401000, 1, 0));
        }
        let mut b = 1u64 << 26;
        for i in 0..300usize {
            v.push(rec(b, 0x402000, 2, (i % 2) as u8));
            b += 4 * 64;
        }
    }
    v
}

fn kernel_pair(
    name: &str,
    (m, k, n): (usize, usize, usize),
    knobs: &Knobs,
    bt: bool,
) -> (KernelSpeedup, PerfEntry) {
    let mut r = rng(0x9E_5F);
    let a = Matrix::xavier(m, k, &mut r);
    // matmul_bt multiplies by the transpose, so its operand is (n, k).
    let b = if bt {
        Matrix::xavier(n, k, &mut r)
    } else {
        Matrix::xavier(k, n, &mut r)
    };
    let mut out = Matrix::zeros(m, n);
    // Tiled and reference samples interleave so their ratio — the gated
    // number — is immune to load drift across the measurement.
    let (tiled, reference, ratio) = sample_interleaved_ns(
        knobs.kernel_samples,
        knobs.kernel_inner,
        || {
            if bt {
                black_box(&a).matmul_bt_into(black_box(&b), &mut out);
            } else {
                black_box(&a).matmul_into(black_box(&b), &mut out);
            }
            black_box(&out);
        },
        || {
            let y = if bt {
                black_box(&a).matmul_bt_ref(black_box(&b))
            } else {
                black_box(&a).matmul_ref(black_box(&b))
            };
            black_box(&y);
        },
    );
    let ref_p50 = percentile(&reference, 0.50).max(1);
    let mut e = entry(name, &tiled, ref_p50);
    e.normalized_p50 = ratio;
    let speedup = KernelSpeedup {
        name: name.to_string(),
        tiled_p50_ns: e.p50_ns,
        ref_p50_ns: ref_p50,
        speedup: 1.0 / ratio.max(1e-12),
    };
    (speedup, e)
}

/// Runs the full perf suite at the given scale.
pub fn run_perf(quick: bool) -> PerfReport {
    let knobs = Knobs::new(quick);

    let mut kernels = Vec::new();
    let mut gated = Vec::new();
    for &shape in SHAPES {
        let (m, k, n) = shape;
        let (sp, e) = kernel_pair(&format!("matmul_{m}x{k}x{n}"), shape, &knobs, false);
        kernels.push(sp);
        gated.push(e);
        let (sp, e) = kernel_pair(&format!("matmul_bt_{m}x{k}x{n}"), shape, &knobs, true);
        kernels.push(sp);
        gated.push(e);
    }

    // Warm-arena inference latency per backbone variant.
    let mut cals: Vec<u64> = Vec::new();
    let mut cr = rng(0xCA_11B);
    let ca = Matrix::xavier(64, 64, &mut cr);
    let cb = Matrix::xavier(64, 64, &mut cr);
    // One output buffer for the whole run: a fresh one per call sat
    // wherever the allocator put it, and its placement alone moved the
    // reference by up to 1.4×.
    let mut cal_out = Matrix::zeros(64, 64);
    let mut calibrate = || {
        black_box(&ca).matmul_ref_into(black_box(&cb), &mut cal_out);
        black_box(&cal_out);
    };
    let trace = perf_trace();
    let tc = TrainCfg {
        history: 9,
        max_samples: knobs.train_samples,
        epochs: knobs.train_epochs,
        lr: 3e-3,
        seed: 1234,
    };
    let cfg = DeltaPredictorConfig {
        amma: AmmaConfig::default(),
        ..DeltaPredictorConfig::default()
    };
    for variant in [Variant::Amma, Variant::AmmaPi, Variant::AmmaPs] {
        let dp = DeltaPredictor::train(&trace, 3, variant, cfg, &tc);
        let hist: Vec<(u64, u64)> = trace[..tc.history]
            .iter()
            .map(|rec| (rec.block(), rec.pc))
            .collect();
        let mut arena = ScratchArena::new();
        for _ in 0..4 {
            // Warm the arena free-lists so the timed region is the
            // allocation-free steady state.
            let _ = dp.predict_deltas_in(&hist, 0, 4, &mut arena);
        }
        // Interleave inference samples with the calibration kernel so the
        // gated ratio tracks the same load profile on both sides.
        let mut phase = 0usize;
        let (sorted, cal_stream, ratio) = sample_interleaved_ns(
            knobs.infer_samples,
            1,
            || {
                phase = (phase + 1) % 3;
                let d = dp.predict_deltas_in(black_box(&hist), phase, 4, &mut arena);
                black_box(&d);
            },
            &mut calibrate,
        );
        let cal = percentile(&cal_stream, 0.50).max(1);
        cals.push(cal);
        let mut e = entry(&format!("infer_{}", variant.name()), &sorted, cal);
        e.normalized_p50 = ratio;
        gated.push(e);
    }

    // Warm-arena page inference: the page forward, the tied vocabulary
    // head and top-k, as the CSTP walk calls it, which no delta row
    // times. The window is the three-page section of the trace.
    let variant = Variant::AmmaPs;
    let pp = PagePredictor::train(&trace, 3, variant, PagePredictorConfig::default(), &tc);
    let page_hist: Vec<(usize, u64)> = trace[300..300 + tc.history]
        .iter()
        .map(|rec| (pp.vocab.token_of(rec.page()), rec.pc))
        .collect();
    let mut arena = ScratchArena::new();
    for _ in 0..4 {
        let _ = pp.predict_pages_in(&page_hist, 0, 1, &mut arena);
    }
    let mut phase = 0usize;
    let (sorted, cal_stream, ratio) = sample_interleaved_ns(
        knobs.infer_samples,
        1,
        || {
            phase = (phase + 1) % 3;
            let p = pp.predict_pages_in(black_box(&page_hist), phase, 1, &mut arena);
            black_box(&p);
        },
        &mut calibrate,
    );
    let cal = percentile(&cal_stream, 0.50).max(1);
    cals.push(cal);
    let mut e = entry(&format!("infer_page_{}", variant.name()), &sorted, cal);
    e.normalized_p50 = ratio;
    gated.push(e);

    // Parallel AMMA-PS training throughput: tokens = history window per
    // sample per epoch.
    let t = Instant::now();
    let dp = DeltaPredictor::train(&trace, 3, Variant::AmmaPs, cfg, &tc);
    let secs = t.elapsed().as_secs_f64().max(1e-9);
    black_box(&dp.final_loss);
    let tokens = (tc.max_samples * tc.history * tc.epochs) as f64;

    // Fused (B×T×d) batched inference — the serve-pump kernel. The gated
    // row is normalized by the interleaved calibration kernel, as the
    // other `infer_*` rows are: a reference of B per-item calls moves
    // with any change to per-forward cost, so a pure speedup could fail
    // the gate. The batched/per-item ratio is reported ungated under
    // `kernels` (want well under 1.0).
    const FUSED_BATCH: usize = 16;
    let hists: Vec<Vec<(u64, u64)>> = (0..FUSED_BATCH)
        .map(|b| {
            trace[b..b + tc.history]
                .iter()
                .map(|rec| (rec.block(), rec.pc))
                .collect()
        })
        .collect();
    let refs: Vec<&[(u64, u64)]> = hists.iter().map(Vec::as_slice).collect();
    let mut fused_arena = ScratchArena::new();
    let mut solo_arena = ScratchArena::new();
    for _ in 0..4 {
        let _ = dp.predict_deltas_batch_in(&refs, 0, 4, &mut fused_arena);
        let _ = dp.predict_deltas_in(&hists[0], 0, 4, &mut solo_arena);
    }
    // Each closure advances its own phase counter, once per sample; the
    // per-item one starts where the batched one stands after the first
    // sampling, so the two streams it is compared with see identical
    // phase sequences.
    let mut phase_a = 0usize;
    let mut batched = || {
        phase_a = (phase_a + 1) % 3;
        let d = dp.predict_deltas_batch_in(black_box(&refs), phase_a, 4, &mut fused_arena);
        black_box(&d);
    };
    let fused_samples = (knobs.infer_samples / 4).max(50);
    let (sorted, cal_stream, ratio) =
        sample_interleaved_ns(fused_samples, 1, &mut batched, &mut calibrate);
    let cal = percentile(&cal_stream, 0.50).max(1);
    cals.push(cal);
    let variant = Variant::AmmaPs.name();
    let mut e = entry(
        &format!("infer_batched{FUSED_BATCH}_{variant}"),
        &sorted,
        cal,
    );
    e.normalized_p50 = ratio;
    gated.push(e);
    let mut phase_b = fused_samples % 3;
    let (sorted, per_item_stream, ratio) =
        sample_interleaved_ns(fused_samples, 1, &mut batched, || {
            phase_b = (phase_b + 1) % 3;
            for h in &refs {
                let d = dp.predict_deltas_in(black_box(h), phase_b, 4, &mut solo_arena);
                black_box(&d);
            }
        });
    kernels.push(KernelSpeedup {
        name: format!("infer_batched{FUSED_BATCH}_vs_per_item_{variant}"),
        tiled_p50_ns: percentile(&sorted, 0.50),
        ref_p50_ns: percentile(&per_item_stream, 0.50).max(1),
        speedup: 1.0 / ratio.max(1e-12),
    });

    // Reported calibration: the median over the interleaved streams.
    cals.sort_unstable();
    let calibration_p50 = percentile(&cals, 0.50).max(1);

    let eq12 = amma_latency(&AmmaConfig::paper()).total;
    PerfReport {
        schema_version: 1,
        quick,
        calibration_p50_ns: calibration_p50,
        kernels,
        gated,
        train_tokens_per_sec: tokens / secs,
        eq12_paper_cycles: eq12,
        eq12_paper_ns: cycles_to_ns(eq12, ACCEL_GHZ),
    }
}

/// Runs the suite `passes` times and keeps, per gated entry, the
/// **slowest** normalized p50 (and per kernel the smallest speedup)
/// observed. Baselines are generated this way so a transiently quiet
/// machine cannot produce an unachievably tight envelope for later
/// checks to chase.
pub fn run_perf_envelope(quick: bool, passes: usize) -> PerfReport {
    let mut merged = run_perf(quick);
    for _ in 1..passes.max(1) {
        let next = run_perf(quick);
        for e in &mut merged.gated {
            if let Some(n) = next.gated.iter().find(|n| n.name == e.name) {
                if n.normalized_p50 > e.normalized_p50 {
                    e.normalized_p50 = n.normalized_p50;
                    e.p50_ns = n.p50_ns;
                    e.p99_ns = n.p99_ns;
                }
            }
        }
        for k in &mut merged.kernels {
            if let Some(n) = next.kernels.iter().find(|n| n.name == k.name) {
                if n.speedup < k.speedup {
                    *k = n.clone();
                }
            }
        }
        merged.train_tokens_per_sec = merged.train_tokens_per_sec.min(next.train_tokens_per_sec);
    }
    merged
}

/// Compares a run against the committed baseline: one message per gated
/// entry whose normalized p50 regressed by more than `tolerance`. Entries
/// present on only one side are reported (baseline refresh needed), never
/// silently skipped.
pub fn compare(baseline: &PerfReport, current: &PerfReport, tolerance: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for b in &baseline.gated {
        match current.gated.iter().find(|c| c.name == b.name) {
            None => problems.push(format!(
                "{}: present in baseline but not measured by this run (refresh BENCH_kernels.json)",
                b.name
            )),
            Some(c) => {
                let limit = b.normalized_p50 * (1.0 + tolerance);
                if c.normalized_p50 > limit {
                    problems.push(format!(
                        "{}: normalized p50 {:.3} exceeds baseline {:.3} by more than {:.0}% \
                         (raw {} ns vs baseline {} ns)",
                        c.name,
                        c.normalized_p50,
                        b.normalized_p50,
                        tolerance * 100.0,
                        c.p50_ns,
                        b.p50_ns,
                    ));
                }
            }
        }
    }
    for c in &current.gated {
        if !baseline.gated.iter().any(|b| b.name == c.name) {
            problems.push(format!(
                "{}: measured by this run but missing from the baseline (refresh BENCH_kernels.json)",
                c.name
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(entries: &[(&str, f64)]) -> PerfReport {
        PerfReport {
            schema_version: 1,
            quick: true,
            calibration_p50_ns: 1000,
            kernels: Vec::new(),
            gated: entries
                .iter()
                .map(|(n, norm)| PerfEntry {
                    name: n.to_string(),
                    p50_ns: (norm * 1000.0) as u64,
                    p99_ns: (norm * 2000.0) as u64,
                    normalized_p50: *norm,
                })
                .collect(),
            train_tokens_per_sec: 0.0,
            eq12_paper_cycles: 0,
            eq12_paper_ns: 0.0,
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.50), 50); // rank ⌈0.5·100⌉ = 50
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        // Odd length: p50 is the true middle.
        let odd: Vec<u64> = (1..=5).collect();
        assert_eq!(percentile(&odd, 0.5), 3);
        assert_eq!(percentile(&odd, 0.9), 5);
    }

    #[test]
    fn median_averages_even_middles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn compare_flags_only_real_regressions() {
        let base = report_with(&[("a", 1.0), ("b", 2.0)]);
        let same = report_with(&[("a", 1.10), ("b", 2.0)]);
        assert!(compare(&base, &same, TOLERANCE).is_empty());
        let slow = report_with(&[("a", 1.20), ("b", 2.0)]);
        let problems = compare(&base, &slow, TOLERANCE);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].starts_with("a:"), "{problems:?}");
    }

    #[test]
    fn compare_reports_schema_drift_both_ways() {
        let base = report_with(&[("a", 1.0), ("gone", 1.0)]);
        let cur = report_with(&[("a", 1.0), ("new", 1.0)]);
        let problems = compare(&base, &cur, TOLERANCE);
        assert_eq!(problems.len(), 2, "{problems:?}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let base = report_with(&[("a", 1.25)]);
        let text = serde_json::to_string_pretty(&base).expect("serialize");
        let back: PerfReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back.gated.len(), 1);
        assert_eq!(back.gated[0].name, "a");
        assert_eq!(back.gated[0].p50_ns, base.gated[0].p50_ns);
        assert!((back.gated[0].normalized_p50 - 1.25).abs() < 1e-12);
    }

    /// End-to-end smoke at a tiny scale: the suite runs, every row is
    /// well formed, and a run never regresses against itself. No wall-clock
    /// comparison here — the perf gate's envelope judges speed.
    #[test]
    fn quick_run_is_self_consistent() {
        let rep = run_perf(true);
        assert!(rep.calibration_p50_ns > 0);
        assert_eq!(rep.kernels.len(), 2 * SHAPES.len() + 1);
        assert_eq!(rep.gated.len(), 2 * SHAPES.len() + 5);
        assert!(rep
            .kernels
            .iter()
            .any(|k| k.name.starts_with("infer_batched")));
        assert!(rep.gated.iter().any(|e| e.name == "infer_page_AMMA-PS"));
        assert!(rep.train_tokens_per_sec > 0.0);
        assert!(rep.eq12_paper_cycles > 0);
        for e in &rep.gated {
            assert!(e.p50_ns > 0, "{} has zero p50", e.name);
            assert!(e.p99_ns >= e.p50_ns, "{} p99 below p50", e.name);
            assert!(e.normalized_p50 > 0.0);
        }
        assert!(compare(&rep, &rep, TOLERANCE).is_empty());
    }
}
