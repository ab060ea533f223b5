//! The phase-model training fan-out shared by both predictors and both
//! distillers (Figure 6: every model trains offline on the first
//! iteration).
//!
//! A phase-specific variant trains one model per phase (AMMA-PS, §4.3),
//! every other variant one model. A serial data-only walk first assigns
//! each sample to the model that trains on it; then each model trains
//! through [`fit`] — its own optimizer, guard and schedule — on its own
//! worker thread ([`fit_phase_models`]). Each model's update
//! sequence is self-contained, so the weights are bit-identical run to run
//! whatever the thread scheduling, and a model whose guard runs out stops
//! alone.

use crate::obs::{TrainMetrics, TrainRollbackMetrics};
use mpgraph_ml::guard::{fit, FitReport, Trainable};
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::TrainCfg;
use rayon::prelude::*;

/// Deals the walk-ordered `(sample, phase)` pairs to `models` — each to
/// model `phase % models.len()`, the one inference serves that phase with
/// (the only one unless the variant is phase-specific) — and trains each
/// model with [`fit`] over its share on its own worker thread. Returns
/// the final loss — the per-model last-epoch kept-loss sums and counts,
/// each added in model order — and the training counters, with one
/// rollback event labelled `predictor` per guard intervention, in (model,
/// step) order.
pub(crate) fn fit_phase_models<M, S>(
    predictor: &str,
    models: &mut [M],
    walk: impl IntoIterator<Item = (S, usize)>,
    tc: &TrainCfg,
    step: impl Fn(&mut M, &(S, usize), &mut ScratchArena) -> f32 + Sync,
) -> (f32, TrainMetrics)
where
    M: Trainable + Send + Sync,
    S: Send + Sync,
{
    let mut schedules: Vec<Vec<(S, usize)>> = models.iter().map(|_| Vec::new()).collect();
    for (sample, phase) in walk {
        let n = schedules.len();
        schedules[phase % n].push((sample, phase));
    }
    let jobs: Vec<(&mut M, Vec<(S, usize)>)> = models.iter_mut().zip(schedules).collect();
    let reports: Vec<FitReport> = jobs
        .into_par_iter()
        .map(|(model, samples)| fit(model, &samples, tc.epochs, tc.lr, &step))
        .collect();
    let loss_sum: f32 = reports.iter().map(|r| r.loss_sum).sum();
    let count: usize = reports.iter().map(|r| r.count).sum();
    let final_loss = if count > 0 {
        loss_sum / count as f32
    } else {
        f32::NAN
    };
    let rollback_events: Vec<TrainRollbackMetrics> = reports
        .iter()
        .enumerate()
        .flat_map(|(model, r)| {
            r.rollbacks.iter().map(move |rb| TrainRollbackMetrics {
                predictor: predictor.to_string(),
                model: model as u64,
                step: rb.step,
                new_lr: if rb.exhausted { 0.0 } else { rb.new_lr as f64 },
                exhausted: rb.exhausted,
            })
        })
        .collect();
    let training = TrainMetrics {
        steps: reports.iter().map(|r| r.steps).sum(),
        rollbacks: rollback_events.len() as u64,
        rollback_events,
    };
    (final_loss, training)
}
