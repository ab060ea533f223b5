//! Design-choice ablations called out in DESIGN.md: the Soft-KSWIN soft
//! threshold `th_r`, the CSTP (Ds, Dt) degree split, and the modality
//! ablation (address+PC vs single-modality inputs).
//!
//! Usage: `ablations [--quick] [--datasets=all] [--metrics-out=PATH] [--trace-out=PATH]`

use mpgraph_bench::metrics::emit_if_requested;
use mpgraph_bench::report::{dump_json_compact, f, pct, print_table};
use mpgraph_bench::runners::prediction::run_modality_ablation;
use mpgraph_bench::runners::prefetching::run_degree_ablation;
use mpgraph_bench::workload::{build_workload, carrier};
use mpgraph_bench::ExpScale;
use mpgraph_frameworks::{App, Framework};
use mpgraph_phase::{evaluate_transitions, KswinConfig, SoftKswin, TransitionDetector};
use serde::Serialize;

#[derive(Serialize)]
struct ThrRow {
    th_r: f64,
    precision: f64,
    recall: f64,
    f1: f64,
}

fn soft_threshold_sweep(scale: &ExpScale) -> Vec<ThrRow> {
    let w = build_workload(Framework::Gpop, App::Pr, carrier(scale), scale);
    let pcs: Vec<u64> = w.test_llc.iter().map(|r| r.pc).collect();
    let phases: Vec<u8> = w.test_llc.iter().map(|r| r.phase).collect();
    let truths: Vec<usize> = (1..phases.len())
        .filter(|&i| phases[i] != phases[i - 1])
        .collect();
    let min_gap = truths
        .windows(2)
        .map(|w| w[1] - w[0])
        .min()
        .unwrap_or(1000)
        .max(64);
    [0.1, 0.3, 0.5, 0.7, 0.9]
        .iter()
        .map(|&th| {
            let mut det = SoftKswin::new(KswinConfig::default());
            det.th_r = th;
            let detections: Vec<usize> = pcs
                .iter()
                .enumerate()
                .filter_map(|(i, &pc)| det.update(pc).then_some(i))
                .collect();
            let prf = evaluate_transitions(&detections, &truths, 16, min_gap / 2);
            ThrRow {
                th_r: th,
                precision: prf.precision,
                recall: prf.recall,
                f1: prf.f1,
            }
        })
        .collect()
}

fn main() {
    let (scale, args) = ExpScale::from_command_line("ablations");

    let thr = soft_threshold_sweep(&scale);
    print_table(
        "Ablation A: Soft-KSWIN soft threshold th_r (GPOP PR)",
        &["th_r", "P", "R", "F1"],
        &thr.iter()
            .map(|r| vec![f(r.th_r, 1), f(r.precision, 4), f(r.recall, 4), f(r.f1, 4)])
            .collect::<Vec<_>>(),
    );

    let degrees = run_degree_ablation(&scale);
    print_table(
        "Ablation B: CSTP degree split (Ds, Dt) (GPOP PR)",
        &["Ds", "Dt", "MaxDeg", "Accuracy", "Coverage", "IPC Impv"],
        &degrees
            .iter()
            .map(|r| {
                vec![
                    r.spatial_degree.to_string(),
                    r.temporal_degree.to_string(),
                    r.max_degree.to_string(),
                    pct(r.accuracy),
                    pct(r.coverage),
                    format!("{:+.2}%", r.ipc_improvement_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let modality = run_modality_ablation(&scale);
    print_table(
        "Ablation C: input modalities (delta-prediction F1, GPOP PR)",
        &["Setting", "F1"],
        &modality
            .iter()
            .map(|r| vec![r.setting.clone(), f(r.f1, 4)])
            .collect::<Vec<_>>(),
    );

    dump_json_compact("ablation_thr", &thr).ok();
    dump_json_compact("ablation_degrees", &degrees).ok();
    dump_json_compact("ablation_modality", &modality).ok();
    println!("\nwrote results/ablation_*.json");
    emit_if_requested(&scale, &args);
}
