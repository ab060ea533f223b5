//! Training-loop resilience: weight checkpointing with NaN/divergence
//! rollback.
//!
//! Small-model training is usually stable, but a hostile trace (corrupted
//! records, adversarial address patterns) or an aggressive learning rate
//! can blow a loss up to `inf`/`NaN` mid-run — and one non-finite update
//! poisons every weight it touches. A [`TrainGuard`] snapshots the guarded
//! modules' parameters every `checkpoint_interval` steps; when the caller
//! reports a non-finite (or diverging) loss, the guard restores the last
//! snapshot, halves the learning rate, and lets training continue from
//! known-good weights. After `max_rollbacks` restores the guard reports
//! itself exhausted so the caller can stop wasting epochs.
//!
//! [`fit`] is the one training loop built on it: every model in the
//! workspace — both MPGraph predictors, their distilled students and the
//! three ML baselines — trains through it, so how a model trains (optimizer
//! order, checkpoint cadence, rollback and loss bookkeeping) is decided in
//! one place. It also owns the taping [`ScratchArena`] each step's forward
//! records on and its backward drains, so a model trains through the same
//! forward it serves with.

use crate::arena::ScratchArena;
use crate::layers::Module;
use crate::optim::Adam;

/// Deep copy of one module's parameter state (weights + Adam moments).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    tensors: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)>, // (w, m, v) per Param
}

/// Captures the current parameters of `module`.
pub fn snapshot(module: &mut dyn Module) -> Snapshot {
    let mut tensors = Vec::new();
    module.for_each_param(&mut |p| {
        tensors.push((p.w.data.clone(), p.m.clone(), p.v.clone()));
    });
    Snapshot { tensors }
}

/// Re-captures `module` into an existing snapshot, reusing its buffers when
/// shapes match. Training loops checkpoint every few steps; copying into the
/// previous snapshot's allocations makes that steady state allocation-free.
/// Falls back to a fresh [`snapshot`] if the layout changed.
pub fn snapshot_into(module: &mut dyn Module, snap: &mut Snapshot) {
    let mut i = 0usize;
    let mut ok = true;
    module.for_each_param(&mut |p| {
        match snap.tensors.get_mut(i) {
            Some((w, m, v)) if ok && w.len() == p.w.data.len() => {
                w.copy_from_slice(&p.w.data);
                m.copy_from_slice(&p.m);
                v.copy_from_slice(&p.v);
            }
            _ => ok = false,
        }
        i += 1;
    });
    if !ok || i != snap.tensors.len() {
        *snap = snapshot(module);
    }
}

/// Restores `module`'s parameters from `snap`. Returns `false` (leaving the
/// module untouched beyond already-matching tensors) if the snapshot's
/// shape does not match the module.
pub fn restore(module: &mut dyn Module, snap: &Snapshot) -> bool {
    // Validate first: count and lengths must match.
    let mut lens = Vec::new();
    module.for_each_param(&mut |p| lens.push(p.w.data.len()));
    if lens.len() != snap.tensors.len()
        || lens
            .iter()
            .zip(snap.tensors.iter())
            .any(|(&l, (w, _, _))| l != w.len())
    {
        return false;
    }
    let mut i = 0usize;
    module.for_each_param(&mut |p| {
        let (w, m, v) = &snap.tensors[i];
        p.w.data.copy_from_slice(w);
        p.m.copy_from_slice(m);
        p.v.copy_from_slice(v);
        p.g.data.fill(0.0);
        i += 1;
    });
    true
}

/// What [`TrainGuard::observe`] decided about the step just taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GuardAction {
    /// Loss is sane; training proceeds.
    Continue,
    /// Loss was non-finite or diverging: weights were restored to the last
    /// checkpoint and the learning rate halved to `new_lr`.
    RolledBack { new_lr: f32 },
    /// Rollback budget exhausted; weights were restored one final time but
    /// the caller should stop training this model.
    Exhausted,
}

/// NaN/divergence watchdog for one family of modules trained together.
#[derive(Debug, Clone)]
pub struct TrainGuard {
    /// Steps between checkpoints.
    pub checkpoint_interval: usize,
    /// Rollbacks allowed before the guard declares the run unsalvageable.
    pub max_rollbacks: u32,
    /// A finite loss above this absolute value counts as divergence.
    pub divergence_limit: f32,
    since_checkpoint: usize,
    pub rollbacks: u32,
    snaps: Vec<Snapshot>,
}

impl TrainGuard {
    pub fn new(checkpoint_interval: usize) -> Self {
        TrainGuard {
            checkpoint_interval: checkpoint_interval.max(1),
            max_rollbacks: 8,
            divergence_limit: 1e6,
            since_checkpoint: usize::MAX, // force a checkpoint on first observe
            rollbacks: 0,
            snaps: Vec::new(),
        }
    }

    /// Whether the rollback budget is spent.
    pub fn exhausted(&self) -> bool {
        self.rollbacks >= self.max_rollbacks
    }

    fn checkpoint(&mut self, modules: &mut [&mut dyn Module]) {
        if self.snaps.len() == modules.len() {
            for (m, s) in modules.iter_mut().zip(self.snaps.iter_mut()) {
                snapshot_into(*m, s);
            }
        } else {
            self.snaps = modules.iter_mut().map(|m| snapshot(*m)).collect();
        }
        self.since_checkpoint = 0;
    }

    fn rollback(&mut self, modules: &mut [&mut dyn Module]) {
        for (m, s) in modules.iter_mut().zip(self.snaps.iter()) {
            restore(*m, s);
        }
    }

    /// Reports the loss of the step just applied to `modules`, with `lr` as
    /// the live learning rate (halved in place on rollback). Checkpoints on
    /// schedule when the loss is sane; restores and halves `lr` when it is
    /// not.
    pub fn observe(
        &mut self,
        loss: f32,
        modules: &mut [&mut dyn Module],
        lr: &mut f32,
    ) -> GuardAction {
        let bad = !loss.is_finite() || loss.abs() > self.divergence_limit;
        if bad {
            // A first-step blowup has no checkpoint to restore: it only
            // halves the rate.
            self.rollback(modules);
            *lr *= 0.5;
            self.rollbacks += 1;
            return if self.exhausted() {
                GuardAction::Exhausted
            } else {
                GuardAction::RolledBack { new_lr: *lr }
            };
        }
        self.since_checkpoint = self.since_checkpoint.saturating_add(1);
        if self.since_checkpoint >= self.checkpoint_interval {
            self.checkpoint(modules);
        }
        GuardAction::Continue
    }
}

/// Steps between [`TrainGuard`] weight checkpoints in [`fit`]: frequent
/// enough that a rollback loses little progress, rare enough that cloning
/// the (small, Table 5-sized) weights stays off the profile.
pub const TRAIN_CHECKPOINT_INTERVAL: usize = 32;

/// A model [`fit`] can train.
pub trait Trainable {
    /// The model's modules, in the order the optimizer steps them. `fit`
    /// steps each one separately: [`Adam::step`] advances the timestep on
    /// every call, so the part list (its length and its order) is part of
    /// the training recipe, and changing it changes every weight.
    fn parts(&mut self) -> Vec<&mut dyn Module>;
}

/// One guard intervention during [`fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rollback {
    /// Optimizer step (1-based, counted across epochs) whose loss fired it.
    pub step: u64,
    /// Learning rate after the guard halved it.
    pub new_lr: f32,
    /// Whether the guard's budget ran out here, which ended training.
    pub exhausted: bool,
}

/// What one [`fit`] run did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FitReport {
    /// Loss summed over the kept steps of the last completed epoch.
    pub loss_sum: f32,
    /// Steps of the last completed epoch the guard kept.
    pub count: usize,
    /// Optimizer steps over every epoch, rolled-back ones included.
    pub steps: u64,
    /// One entry per guard intervention, in step order.
    pub rollbacks: Vec<Rollback>,
}

impl FitReport {
    /// Mean kept loss of the last completed epoch (NaN when it kept none).
    pub fn mean_loss(&self) -> f32 {
        if self.count > 0 {
            self.loss_sum / self.count as f32
        } else {
            f32::NAN
        }
    }
}

/// Trains `model` for `epochs` passes over `samples` with Adam at `lr`,
/// guarded by a [`TrainGuard`] checkpointing every
/// [`TRAIN_CHECKPOINT_INTERVAL`] steps. `step` runs one sample's forward
/// on the taping arena it is handed, then the backward that drains the
/// tape, and returns the loss; `fit` then applies one [`Adam::step`] per
/// [`Trainable::parts`] entry, in that order, and lets the guard observe
/// the same parts. One arena serves every step, so once the first step
/// has filled its pool a step takes all its buffers from it. A
/// rolled-back step's loss is dropped; an exhausted guard ends training,
/// leaving the report on the last epoch that completed.
pub fn fit<M: Trainable + ?Sized, S>(
    model: &mut M,
    samples: &[S],
    epochs: usize,
    lr: f32,
    mut step: impl FnMut(&mut M, &S, &mut ScratchArena) -> f32,
) -> FitReport {
    let mut opt = Adam::new(lr);
    let mut guard = TrainGuard::new(TRAIN_CHECKPOINT_INTERVAL);
    let mut report = FitReport::default();
    let mut arena = ScratchArena::with_tape();
    for _ in 0..epochs {
        let (mut loss_sum, mut count) = (0.0f32, 0usize);
        for sample in samples {
            let loss = step(model, sample, &mut arena);
            assert_eq!(arena.tape_len(), 0, "a step's backward must drain its tape");
            let mut parts = model.parts();
            for part in parts.iter_mut() {
                opt.step(&mut **part);
            }
            report.steps += 1;
            let action = guard.observe(loss, &mut parts, &mut opt.lr);
            if action == GuardAction::Continue {
                loss_sum += loss;
                count += 1;
                continue;
            }
            let exhausted = action == GuardAction::Exhausted;
            report.rollbacks.push(Rollback {
                step: report.steps,
                new_lr: opt.lr,
                exhausted,
            });
            if exhausted {
                return report;
            }
        }
        report.loss_sum = loss_sum;
        report.count = count;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::tensor::{rng, Matrix};

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut r = rng(1);
        let mut l = Linear::new(3, 2, &mut r);
        let before = l.w.w.data.clone();
        let snap = snapshot(&mut l);
        for x in l.w.w.data.iter_mut() {
            *x = f32::NAN;
        }
        assert!(restore(&mut l, &snap));
        assert_eq!(l.w.w.data, before);
        assert!(l.w.w.data.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn snapshot_into_matches_fresh_snapshot() {
        let mut r = rng(7);
        let mut l = Linear::new(3, 2, &mut r);
        let mut snap = snapshot(&mut l);
        l.w.w.data[0] = 42.0;
        snapshot_into(&mut l, &mut snap);
        let fresh = snapshot(&mut l);
        assert_eq!(snap.tensors, fresh.tensors);
        // A layout change falls back to rebuilding.
        let mut big = Linear::new(5, 5, &mut r);
        snapshot_into(&mut big, &mut snap);
        assert_eq!(snap.tensors, snapshot(&mut big).tensors);
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let mut r = rng(2);
        let mut small = Linear::new(2, 2, &mut r);
        let mut big = Linear::new(4, 4, &mut r);
        let snap = snapshot(&mut small);
        assert!(!restore(&mut big, &snap));
    }

    #[test]
    fn nan_loss_rolls_back_and_halves_lr() {
        let mut r = rng(3);
        let mut l = Linear::new(2, 2, &mut r);
        let mut guard = TrainGuard::new(1);
        let mut lr = 0.1f32;
        // Healthy step: checkpoints.
        assert_eq!(
            guard.observe(0.5, &mut [&mut l], &mut lr),
            GuardAction::Continue
        );
        let good = l.w.w.data.clone();
        // Poison the weights, then report a NaN loss.
        for x in l.w.w.data.iter_mut() {
            *x = f32::INFINITY;
        }
        let action = guard.observe(f32::NAN, &mut [&mut l], &mut lr);
        assert_eq!(action, GuardAction::RolledBack { new_lr: 0.05 });
        assert_eq!(l.w.w.data, good, "weights not restored");
        assert_eq!(lr, 0.05);
        assert_eq!(guard.rollbacks, 1);
    }

    #[test]
    fn divergence_counts_as_bad() {
        let mut r = rng(4);
        let mut l = Linear::new(2, 2, &mut r);
        let mut guard = TrainGuard::new(1);
        let mut lr = 0.1f32;
        guard.observe(1.0, &mut [&mut l], &mut lr);
        let action = guard.observe(1e9, &mut [&mut l], &mut lr);
        assert!(matches!(action, GuardAction::RolledBack { .. }));
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut r = rng(5);
        let mut l = Linear::new(2, 2, &mut r);
        let mut guard = TrainGuard::new(1);
        guard.max_rollbacks = 3;
        let mut lr = 0.1f32;
        guard.observe(1.0, &mut [&mut l], &mut lr);
        let mut last = GuardAction::Continue;
        for _ in 0..3 {
            last = guard.observe(f32::NAN, &mut [&mut l], &mut lr);
        }
        assert_eq!(last, GuardAction::Exhausted);
        assert!(guard.exhausted());
        // lr halved three times.
        assert!((lr - 0.0125).abs() < 1e-6);
    }

    /// Two dense layers trained as one model.
    #[derive(Clone)]
    struct TwoPart {
        a: Linear,
        b: Linear,
    }

    impl Trainable for TwoPart {
        fn parts(&mut self) -> Vec<&mut dyn Module> {
            vec![&mut self.a, &mut self.b]
        }
    }

    /// One regression step toward y = 2x - 1. On the (1-based) calls
    /// listed in `bad` it reports a NaN loss, as a poisoned batch would.
    fn regress(bad: &'static [u64]) -> impl FnMut(&mut TwoPart, &f32, &mut ScratchArena) -> f32 {
        let mut calls = 0u64;
        move |m, &x, s| {
            calls += 1;
            let h = m.a.infer_in(&Matrix::from_vec(1, 2, vec![x, 1.0 - x]), s);
            let y = m.b.infer_in(&h, s);
            let err = y.data[0] - (2.0 * x - 1.0);
            s.give(h);
            s.give(y);
            let dh = m.b.backward(&Matrix::from_vec(1, 1, vec![err]), s);
            m.a.backward(&dh, s);
            if bad.contains(&calls) {
                f32::NAN
            } else {
                err * err
            }
        }
    }

    /// Weight and Adam-moment bits of every parameter of `m`.
    fn state_bits(m: &mut dyn Module) -> Vec<u32> {
        let mut out = Vec::new();
        m.for_each_param(&mut |p| {
            for buf in [&p.w.data, &p.m, &p.v] {
                out.extend(buf.iter().map(|x| x.to_bits()));
            }
        });
        out
    }

    #[test]
    fn fit_is_the_hand_written_guarded_loop() {
        let mut r = rng(8);
        let model = TwoPart {
            a: Linear::new(2, 3, &mut r),
            b: Linear::new(3, 1, &mut r),
        };
        let samples: Vec<f32> = (0..50).map(|i| i as f32 / 50.0).collect();
        // A NaN after the step-33 checkpoint rolls back once; seven more in
        // a row from step 60 spend the budget of 8 in the second epoch.
        const BAD: &[u64] = &[40, 60, 61, 62, 63, 64, 65, 66];
        let (epochs, lr) = (3, 0.01);

        // The loop `fit` replaced: Adam per part in part order, then the
        // guard over the same parts.
        let mut hand = model.clone();
        let mut step = regress(BAD);
        let mut arena = ScratchArena::with_tape();
        let mut opt = Adam::new(lr);
        let mut guard = TrainGuard::new(TRAIN_CHECKPOINT_INTERVAL);
        let mut want = FitReport::default();
        'epochs: for _ in 0..epochs {
            let (mut loss_sum, mut count) = (0.0f32, 0usize);
            for x in &samples {
                let loss = step(&mut hand, x, &mut arena);
                opt.step(&mut hand.a);
                opt.step(&mut hand.b);
                want.steps += 1;
                match guard.observe(loss, &mut [&mut hand.a, &mut hand.b], &mut opt.lr) {
                    GuardAction::Continue => {
                        loss_sum += loss;
                        count += 1;
                    }
                    action => {
                        let exhausted = action == GuardAction::Exhausted;
                        want.rollbacks.push(Rollback {
                            step: want.steps,
                            new_lr: opt.lr,
                            exhausted,
                        });
                        if exhausted {
                            break 'epochs;
                        }
                    }
                }
            }
            want.loss_sum = loss_sum;
            want.count = count;
        }
        let steps: Vec<u64> = want.rollbacks.iter().map(|r| r.step).collect();
        assert_eq!(steps, BAD, "every bad loss rolls back");
        assert!(want.rollbacks[7].exhausted && !want.rollbacks[6].exhausted);
        assert_eq!((want.steps, want.count), (66, 49), "report keeps epoch 1");

        let mut fitted = model.clone();
        let got = fit(&mut fitted, &samples, epochs, lr, regress(BAD));
        assert_eq!(got, want);
        assert_eq!(got.loss_sum.to_bits(), want.loss_sum.to_bits());
        assert_eq!(got.mean_loss().to_bits(), want.mean_loss().to_bits());
        for (g, w) in got.rollbacks.iter().zip(&want.rollbacks) {
            assert_eq!(g.new_lr.to_bits(), w.new_lr.to_bits());
        }
        assert_eq!(want.rollbacks[7].new_lr.to_bits(), opt.lr.to_bits());
        assert_eq!(state_bits(&mut fitted.a), state_bits(&mut hand.a));
        assert_eq!(state_bits(&mut fitted.b), state_bits(&mut hand.b));
    }

    #[test]
    fn fit_reports_nan_mean_when_no_epoch_completes() {
        let mut r = rng(9);
        let mut m = TwoPart {
            a: Linear::new(2, 3, &mut r),
            b: Linear::new(3, 1, &mut r),
        };
        let report = fit(&mut m, &[0.5f32], 0, 0.01, regress(&[]));
        assert_eq!((report.steps, report.count), (0, 0));
        assert!(report.mean_loss().is_nan());
    }

    /// An embedding, a transformer layer and a dense head: every kind of
    /// tape entry a model records.
    struct Tiny {
        embed: crate::layers::Embedding,
        layer: crate::transformer::TransformerLayer,
        head: Linear,
    }

    impl Trainable for Tiny {
        fn parts(&mut self) -> Vec<&mut dyn Module> {
            vec![&mut self.embed, &mut self.layer, &mut self.head]
        }
    }

    #[test]
    fn arena_misses_stay_flat_after_the_first_fit_step() {
        let mut r = rng(10);
        let mut m = Tiny {
            embed: crate::layers::Embedding::new(6, 8, &mut r),
            layer: crate::transformer::TransformerLayer::new(8, 2, &mut r),
            head: Linear::new(8, 6, &mut r),
        };
        let samples: Vec<[usize; 4]> = (0..12).map(|i| [i % 6, (i + 1) % 6, 2, i % 3]).collect();
        // Misses at the start and at the end of every step.
        let mut misses: Vec<(u64, u64)> = Vec::new();
        let report = fit(&mut m, &samples, 2, 0.01, |m, toks, s| {
            let before = s.stats().1;
            let x = m.embed.infer_in(toks, s);
            let last =
                crate::transformer::readout_batch_in(std::slice::from_ref(&m.layer), x, 1, s);
            let logits = m.head.infer_in(&last, s);
            s.give(last);
            let (loss, d) = crate::loss::softmax_cross_entropy(&logits, &[toks[0]]);
            s.give(logits);
            let d_last = m.head.backward(&d, s);
            let dh = crate::transformer::readout_backward(
                std::slice::from_mut(&mut m.layer),
                &d_last,
                toks.len(),
                s,
            );
            m.embed.backward(&dh, s);
            misses.push((before, s.stats().1));
            loss
        });
        assert_eq!(report.steps, 24);
        let warm = misses[0].1;
        assert!(warm > 0, "the first step fills the pool");
        for (step, &(before, after)) in misses.iter().enumerate().skip(1) {
            assert_eq!((before, after), (warm, warm), "step {step} allocated");
        }
    }

    #[test]
    fn checkpoints_follow_the_interval() {
        let mut r = rng(6);
        let mut l = Linear::new(2, 2, &mut r);
        let mut guard = TrainGuard::new(4);
        let mut lr = 0.1f32;
        // First observe always checkpoints; mutate, then three more sane
        // steps (no checkpoint yet), then a NaN: restore goes to the state
        // at step 1, not the latest.
        guard.observe(1.0, &mut [&mut l], &mut lr);
        let at_checkpoint = l.w.w.data.clone();
        l.w.w.data[0] += 1.0;
        for _ in 0..2 {
            guard.observe(1.0, &mut [&mut l], &mut lr);
        }
        guard.observe(f32::NAN, &mut [&mut l], &mut lr);
        assert_eq!(l.w.w.data, at_checkpoint);
        let _ = Matrix::zeros(1, 1);
    }
}
