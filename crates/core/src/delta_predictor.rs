//! Spatial delta predictor (§4.3.3, Figure 7a): segmented block-address
//! and hashed-PC modalities → backbone (AMMA by default) → MLP head with
//! sigmoid, trained as multi-label classification over the bitmap of
//! future block deltas within one page (BCE loss).

use crate::amma::{AmmaConfig, ModalInput};
use crate::backbone::Backbone;
use crate::obs::TrainMetrics;
use crate::training::fit_phase_models;
use crate::variants::Variant;
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::guard::Trainable;
use mpgraph_ml::layers::{Linear, Module, Sigmoid};
use mpgraph_ml::loss::bce_with_logits;
use mpgraph_ml::metrics::{multilabel_f1, top_k_indices, Prf};
use mpgraph_ml::quant::quantize_module;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;
pub use mpgraph_prefetchers::mlcommon::DeltaRange;
use mpgraph_prefetchers::mlcommon::{dedup_lanes, pc_feature, sample_starts, segment_block};
use mpgraph_prefetchers::TrainCfg;

/// Delta-predictor hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DeltaPredictorConfig {
    pub amma: AmmaConfig,
    /// 4-bit address segments per block address.
    pub segments: usize,
    /// Spatial range: one page = ±63 blocks.
    pub delta_range: i64,
    /// Future accesses scanned for labels (Table 5: F = 256; scaled).
    pub look_forward: usize,
    /// Sigmoid threshold for emitting a positive label.
    pub threshold: f32,
}

impl Default for DeltaPredictorConfig {
    fn default() -> Self {
        DeltaPredictorConfig {
            amma: AmmaConfig::default(),
            segments: 9,
            delta_range: 63,
            // Table 5 uses F = 256; 96 at our ~3× shorter per-iteration
            // LLC streams preserves the look-ahead horizon that makes the
            // predicted deltas timely.
            look_forward: 96,
            threshold: 0.5,
        }
    }
}

impl DeltaPredictorConfig {
    /// The output bitmap's delta↔label mapping.
    pub(crate) fn labels(&self) -> DeltaRange {
        DeltaRange {
            range: self.delta_range,
        }
    }
}

/// One phase model: a backbone and its bitmap head.
#[derive(Clone)]
pub(crate) struct DeltaModel {
    pub(crate) backbone: Backbone,
    pub(crate) head: Linear,
}

impl Trainable for DeltaModel {
    fn parts(&mut self) -> Vec<&mut dyn Module> {
        vec![&mut self.backbone, &mut self.head]
    }
}

impl DeltaModel {
    /// Training forward: head logits for one encoded window.
    pub(crate) fn forward(&mut self, x: &ModalInput, phase: usize) -> Matrix {
        let pooled = self.backbone.forward(x, phase);
        self.head.forward(&pooled)
    }

    /// Backward from the logits' gradient through head and backbone.
    pub(crate) fn backward(&mut self, d_logits: &Matrix) {
        let dp = self.head.backward(d_logits);
        self.backbone.backward(&dp);
    }
}

/// The (block, pc) history of a record window.
pub(crate) fn block_history(window: &[MemRecord]) -> Vec<(u64, u64)> {
    window.iter().map(|rec| (rec.block(), rec.pc)).collect()
}

/// The spatial delta predictor, in any of the five Table 6 variants.
/// `Clone` duplicates the trained weights, so a serving layer can stamp
/// out per-stream prefetchers from one trained instance.
#[derive(Clone)]
pub struct DeltaPredictor {
    pub variant: Variant,
    pub cfg: DeltaPredictorConfig,
    /// One model per phase for AMMA-PS, otherwise length 1.
    pub(crate) models: Vec<DeltaModel>,
    /// Int8 storage bytes, set once [`DeltaPredictor::quantize`] has
    /// rounded the weights onto their int8 grid; `None` for plain f32.
    pub(crate) int8_bytes: Option<usize>,
    pub(crate) num_phases: usize,
    pub final_loss: f32,
    /// Optimizer steps, guard rollbacks and one event per rollback, in
    /// (model, step) order.
    pub training: TrainMetrics,
}

impl DeltaPredictor {
    pub(crate) fn encode(cfg: &DeltaPredictorConfig, hist: &[(u64, u64)]) -> ModalInput {
        let mut addr = Matrix::zeros(hist.len(), cfg.segments);
        let mut pc = Matrix::zeros(hist.len(), 1);
        for (i, &(block, pcv)) in hist.iter().enumerate() {
            addr.row_mut(i)
                .copy_from_slice(&segment_block(block, cfg.segments));
            pc.data[i] = pc_feature(pcv);
        }
        ModalInput { addr, pc }
    }

    /// Freshly initialised phase models (one per phase for the
    /// phase-specific variants), drawn from `rng(seed)` model by model:
    /// backbone, phase embedding (phase-informed variants), head.
    pub(crate) fn untrained(
        num_phases: usize,
        variant: Variant,
        cfg: DeltaPredictorConfig,
        seed: u64,
    ) -> Self {
        let model_count = if variant.is_phase_specific() {
            num_phases
        } else {
            1
        };
        let mut r = rng(seed);
        let models = (0..model_count)
            .map(|_| {
                let mut backbone =
                    Backbone::new(variant.backbone_kind(), cfg.segments, 1, cfg.amma, &mut r);
                if variant.is_phase_informed() {
                    backbone = backbone.with_phase_embedding(num_phases, &mut r);
                }
                let head = Linear::new(backbone.out_dim(), cfg.labels().num_labels(), &mut r);
                DeltaModel { backbone, head }
            })
            .collect();
        DeltaPredictor {
            variant,
            cfg,
            models,
            int8_bytes: None,
            num_phases: num_phases.max(1),
            final_loss: f32::NAN,
            training: TrainMetrics::default(),
        }
    }

    /// The sample walk over `records`: strided window starts (a window of
    /// `tc.history` accesses and its `look_forward` label accesses must
    /// fit), each with its phase.
    pub(crate) fn walk(&self, records: &[MemRecord], tc: &TrainCfg) -> Vec<(usize, usize)> {
        let t = tc.history;
        let reach = t + self.cfg.look_forward;
        let starts = sample_starts(
            records.len(),
            reach,
            records.len().saturating_sub(reach),
            tc.max_samples,
        );
        starts
            .into_iter()
            .map(|i| (i, records[i + t - 1].phase as usize % self.num_phases))
            .collect()
    }

    /// Trains the predictor on `records` (one framework iteration, with
    /// ground-truth phase labels available offline per Figure 6), each
    /// phase model on its own thread.
    pub fn train(
        records: &[MemRecord],
        num_phases: usize,
        variant: Variant,
        cfg: DeltaPredictorConfig,
        tc: &TrainCfg,
    ) -> Self {
        let mut p = Self::untrained(num_phases, variant, cfg, tc.seed ^ 0xDE17A);
        let walk = p.walk(records, tc);
        let t = tc.history;
        let (final_loss, training) =
            fit_phase_models("delta", &mut p.models, walk, tc, |m, &(i, phase)| {
                let x = Self::encode(&cfg, &block_history(&records[i..i + t]));
                let target = cfg
                    .labels()
                    .label_bitmap(records, i + t - 1, cfg.look_forward);
                let (loss, dl) = bce_with_logits(&m.forward(&x, phase), &target);
                m.backward(&dl);
                loss
            });
        p.final_loss = final_loss;
        p.training = training;
        p
    }

    /// The model serving `phase` (the only one unless phase-specific).
    fn model_for(&self, phase: usize) -> &DeltaModel {
        &self.models[phase % self.models.len()]
    }

    /// Rounds every weight of every phase model onto its int8 grid in
    /// place (§6.1: int8 is the storage format). Inference keeps running
    /// the f32 path on the rounded weights, which is exactly what a model
    /// loaded from int8 storage computes. Idempotent (quantization is
    /// fixpoint-stable); call on a trained, typically distilled,
    /// predictor. Returns the int8 storage bytes.
    pub fn quantize(&mut self) -> usize {
        let bytes = self
            .models
            .iter_mut()
            .map(|m| quantize_module(&mut m.backbone) + quantize_module(&mut m.head))
            .sum();
        self.int8_bytes = Some(bytes);
        bytes
    }

    pub fn is_quantized(&self) -> bool {
        self.int8_bytes.is_some()
    }

    /// Int8 storage bytes across all phase models (weights, per-tensor
    /// scales and shapes), once [`Self::quantize`] has run.
    pub fn quant_storage_bytes(&self) -> Option<usize> {
        self.int8_bytes
    }

    /// Raw head logits (pre-sigmoid) `[1, labels]` for one window:
    /// [`Self::predict_logits_batch_in`] at B = 1 on a fresh arena.
    /// Distillation reads the teacher's logits here.
    pub fn predict_logits(&self, hist: &[(u64, u64)], phase: usize) -> Matrix {
        self.predict_logits_batch_in(&[hist], phase, &mut ScratchArena::new())
    }

    /// The one inference forward: raw head logits `[B, labels]` for
    /// `hists.len()` same-length history windows sharing one phase (and
    /// therefore one model). The windows are stacked into a single
    /// `(B·T, ·)` modal input so the backbone and head each run once;
    /// row `b` is bit-identical to the training forward on window `b`,
    /// because every kernel on the path computes each output row from its
    /// own input rows alone. Single windows run at B = 1. The caller
    /// `give`s the result back.
    pub fn predict_logits_batch_in(
        &self,
        hists: &[&[(u64, u64)]],
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        let batch = hists.len();
        let t = hists.first().map_or(0, |h| h.len());
        assert!(
            hists.iter().all(|h| h.len() == t),
            "fused delta batch requires equal-length histories"
        );
        let m = self.model_for(phase);
        let mut addr = s.take(batch * t, self.cfg.segments);
        let mut pc = s.take(batch * t, 1);
        for (b, hist) in hists.iter().enumerate() {
            for (i, &(block, pcv)) in hist.iter().enumerate() {
                addr.row_mut(b * t + i)
                    .copy_from_slice(&segment_block(block, self.cfg.segments));
                pc.data[b * t + i] = pc_feature(pcv);
            }
        }
        let x = ModalInput { addr, pc };
        let pooled = m.backbone.infer_batch_in(&x, batch, phase, s);
        let ModalInput { addr, pc } = x;
        s.give(addr);
        s.give(pc);
        let logits = m.head.infer_in(&pooled, s);
        s.give(pooled);
        logits
    }

    /// [`Self::predict_deltas_batch_in`] for one window (B = 1).
    pub fn predict_deltas_in(
        &self,
        hist: &[(u64, u64)],
        phase: usize,
        k: usize,
        s: &mut ScratchArena,
    ) -> Vec<i64> {
        self.predict_deltas_batch_in(&[hist], phase, k, s)
            .pop()
            .unwrap_or_default()
    }

    /// Top-`k` predicted deltas above the confidence threshold for each of
    /// `hists.len()` same-length windows sharing one phase, from one
    /// [`Self::predict_logits_batch_in`] forward. Row `b` equals
    /// [`Self::predict_deltas_in`] on window `b`.
    pub fn predict_deltas_batch_in(
        &self,
        hists: &[&[(u64, u64)]],
        phase: usize,
        k: usize,
        s: &mut ScratchArena,
    ) -> Vec<Vec<i64>> {
        let batch = hists.len();
        if batch == 0 {
            return Vec::new();
        }
        // Dedup identical windows before stacking: same-phase streams
        // co-traversing one frontier present byte-identical histories,
        // and the prediction is a pure function of (window, phase, k),
        // so one computed lane serves every duplicate bit-exactly.
        let (unique, lane_of) = dedup_lanes(hists);
        if unique.len() < batch {
            let uniq = self.predict_deltas_batch_in(&unique, phase, k, s);
            return lane_of.iter().map(|&i| uniq[i].clone()).collect();
        }
        let dr = self.cfg.labels();
        let mut scores = self.predict_logits_batch_in(hists, phase, s);
        Sigmoid::infer_inplace(&mut scores);
        let out = (0..batch)
            .map(|b| {
                let row = scores.row(b);
                top_k_indices(row, k)
                    .into_iter()
                    .filter(|&i| row[i] >= self.cfg.threshold)
                    .map(|i| dr.delta_of(i))
                    .collect()
            })
            .collect();
        s.give(scores);
        out
    }

    /// Table 6 metric: micro-F1 of the thresholded bitmap against the
    /// ground-truth future-delta bitmap over a test trace.
    pub fn evaluate_f1(&self, records: &[MemRecord], tc: &TrainCfg, max_samples: usize) -> Prf {
        let t = tc.history;
        let reach = t + self.cfg.look_forward;
        let mut preds = Vec::new();
        let mut targs = Vec::new();
        let thr = self.cfg.threshold;
        let mut s = ScratchArena::new();
        for i in sample_starts(
            records.len(),
            reach,
            records.len().saturating_sub(reach),
            max_samples,
        ) {
            let pos = i + t - 1;
            let phase = records[pos].phase as usize % self.num_phases;
            let hist = block_history(&records[i..i + t]);
            let mut scores = self.predict_logits_batch_in(&[&hist], phase, &mut s);
            Sigmoid::infer_inplace(&mut scores);
            let target = self
                .cfg
                .labels()
                .label_bitmap(records, pos, self.cfg.look_forward);
            preds.push(scores.data.iter().map(|&p| p >= thr).collect());
            targs.push(target.data.iter().map(|&v| v > 0.5).collect());
            s.give(scores);
        }
        multilabel_f1(&preds, &targs)
    }

    /// Total trainable parameters across all phase models (Table 8).
    pub fn num_params(&self) -> usize {
        self.models
            .iter()
            .map(|m| m.backbone.num_params() + m.head.num_params())
            .sum()
    }

    /// Little-endian bytes of every trainable weight in traversal order —
    /// the byte-level fingerprint the determinism tests compare.
    pub fn weight_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut push = |p: &mpgraph_ml::layers::Param| {
            for v in &p.w.data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        for m in self.models.iter() {
            m.backbone.for_each_param_ref(&mut push);
            m.head.for_each_param_ref(&mut push);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn rec(vaddr: u64, pc: u64, phase: u8) -> MemRecord {
        MemRecord {
            pc,
            vaddr,
            core: 0,
            is_write: false,
            phase,
            gap: 1,
            dep: false,
        }
    }

    /// Two-phase trace: phase 0 strides +1 block, phase 1 strides +4.
    fn two_phase_trace(n_per_phase: usize, reps: usize) -> Vec<MemRecord> {
        let mut v = Vec::new();
        for _rep in 0..reps {
            let mut a0 = 1u64 << 22;
            for _ in 0..n_per_phase {
                v.push(rec(a0, 0x400000, 0));
                a0 += 64;
            }
            let mut a1 = 1u64 << 26;
            for _ in 0..n_per_phase {
                v.push(rec(a1, 0x401000, 1));
                a1 += 4 * 64;
            }
        }
        v
    }

    fn quick_cfg() -> (DeltaPredictorConfig, TrainCfg) {
        (
            DeltaPredictorConfig {
                amma: AmmaConfig {
                    history: 5,
                    attn_dim: 8,
                    fusion_dim: 16,
                    layers: 1,
                    heads: 2,
                },
                segments: 6,
                delta_range: 15,
                look_forward: 6,
                threshold: 0.5,
            },
            TrainCfg {
                history: 5,
                max_samples: 250,
                epochs: 4,
                lr: 4e-3,
                seed: 11,
            },
        )
    }

    #[test]
    fn delta_range_bijection() {
        let dr = DeltaRange { range: 63 };
        assert_eq!(dr.num_labels(), 126);
        for d in (-63i64..=63).filter(|&d| d != 0) {
            assert_eq!(dr.delta_of(dr.label_of(d).unwrap()), d);
        }
        assert_eq!(dr.label_of(0), None);
        assert_eq!(dr.label_of(64), None);
        assert_eq!(dr.label_of(-64), None);
    }

    #[test]
    fn amma_ps_learns_both_phases() {
        let trace = two_phase_trace(120, 3);
        let (cfg, tc) = quick_cfg();
        let model = DeltaPredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        assert!(model.final_loss < 0.4, "loss {}", model.final_loss);
        let f1 = model.evaluate_f1(&trace, &tc, 200);
        assert!(f1.f1 > 0.5, "f1 {:?}", f1);
        // Phase 0 history → deltas dominated by +1..+look_forward pattern.
        let mut s = ScratchArena::new();
        let hist: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 16) + i, 0x400000)).collect();
        let deltas = model.predict_deltas_in(&hist, 0, 3, &mut s);
        assert!(deltas.contains(&1), "phase-0 deltas {deltas:?}");
        // Phase 1 history → stride 4.
        let hist1: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 18) + 4 * i, 0x401000)).collect();
        let deltas1 = model.predict_deltas_in(&hist1, 1, 3, &mut s);
        assert!(deltas1.contains(&4), "phase-1 deltas {deltas1:?}");
    }

    #[test]
    fn all_variants_train_and_evaluate() {
        let trace = two_phase_trace(80, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 120,
            epochs: 2,
            ..tc
        };
        for v in Variant::ALL {
            let model = DeltaPredictor::train(&trace, 2, v, cfg, &tc);
            assert!(model.final_loss.is_finite(), "{}", v.name());
            let f1 = model.evaluate_f1(&trace, &tc, 60);
            assert!(f1.f1 >= 0.0 && f1.f1 <= 1.0, "{}", v.name());
        }
    }

    #[test]
    fn batched_delta_inference_is_bit_identical() {
        let trace = two_phase_trace(60, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 50,
            epochs: 1,
            ..tc
        };
        for v in Variant::ALL {
            let mut model = DeltaPredictor::train(&trace, 2, v, cfg, &tc);
            let mut s = ScratchArena::new();
            // Distinct equal-length histories, one per batch lane.
            let hists: Vec<Vec<(u64, u64)>> = (0..16u64)
                .map(|b| {
                    (0..5)
                        .map(|i| ((1 << 16) + 97 * b + i * (1 + b % 3), 0x400000 + 4 * b))
                        .collect()
                })
                .collect();
            // The second round serves int8-rounded weights, as `quantize`
            // leaves them, through the same path.
            for rounded in [false, true] {
                if rounded {
                    model.quantize();
                }
                // The reference is the training forward, on clones of the
                // phase models so the served ones keep no cache.
                let mut reference = model.models.clone();
                for batch in [1usize, 2, 5, 16] {
                    let refs: Vec<&[(u64, u64)]> =
                        hists[..batch].iter().map(Vec::as_slice).collect();
                    for phase in 0..2 {
                        let fused = model.predict_deltas_batch_in(&refs, phase, 4, &mut s);
                        assert_eq!(fused.len(), batch);
                        let logits = model.predict_logits_batch_in(&refs, phase, &mut s);
                        let m = &mut reference[phase % model.models.len()];
                        for (b, h) in refs.iter().enumerate() {
                            let what = format!(
                                "{} rounded={rounded} batch={batch} lane={b} phase={phase}",
                                v.name()
                            );
                            let expected = m.forward(&DeltaPredictor::encode(&cfg, h), phase);
                            assert_eq!(bits(logits.row(b)), bits(&expected.data), "{what}");
                            assert_eq!(
                                bits(model.predict_logits(h, phase).row(0)),
                                bits(&expected.data),
                                "{what}"
                            );
                            assert_eq!(
                                fused[b],
                                model.predict_deltas_in(h, phase, 4, &mut s),
                                "{what}"
                            );
                        }
                        s.give(logits);
                    }
                }
            }
        }
    }

    #[test]
    fn pathological_lr_cannot_poison_the_weights() {
        // An absurd learning rate drives the loss toward divergence; the
        // TrainGuard must keep rolling the weights back to a finite
        // checkpoint, so inference after training never emits NaN.
        let trace = two_phase_trace(80, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            lr: 1e4,
            epochs: 3,
            max_samples: 120,
            ..tc
        };
        let model = DeltaPredictor::train(&trace, 2, Variant::Amma, cfg, &tc);
        let hist: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 16) + i, 0x400000)).collect();
        let scores = Sigmoid::infer(&model.predict_logits(&hist, 0)).data;
        assert!(
            scores.iter().all(|s| s.is_finite()),
            "NaN leaked into inference"
        );
    }

    #[test]
    fn arena_prediction_is_allocation_free() {
        let trace = two_phase_trace(60, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 50,
            epochs: 1,
            ..tc
        };
        let model = DeltaPredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        let hist: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 16) + i, 0x400000)).collect();
        let mut s = mpgraph_ml::ScratchArena::new();
        for phase in [0usize, 1] {
            // Warmup, then steady state must not allocate.
            let warm = model.predict_deltas_in(&hist, phase, 3, &mut s);
            let (_, misses_after_warmup) = s.stats();
            for _ in 0..4 {
                assert_eq!(model.predict_deltas_in(&hist, phase, 3, &mut s), warm);
            }
            let (_, misses) = s.stats();
            assert_eq!(misses, misses_after_warmup, "steady state allocated");
        }
    }

    #[test]
    fn quantized_prediction_keeps_the_learned_pattern() {
        let trace = two_phase_trace(120, 3);
        let (cfg, tc) = quick_cfg();
        let mut model = DeltaPredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        let f32_model = model.clone();
        assert!(!model.is_quantized());
        let bytes = model.quantize();
        assert!(model.is_quantized());
        assert_eq!(model.quant_storage_bytes(), Some(bytes));
        // Rounding is fixpoint-stable: a second pass changes nothing.
        let rounded = model.weight_bytes();
        assert_eq!(model.quantize(), bytes);
        assert_eq!(model.weight_bytes(), rounded);
        // Int8 storage is well under a third of f32, even at test-sized
        // dims where per-tensor scales and shapes are a big fraction.
        let fb = model.num_params() * 4;
        assert!(bytes * 3 < fb, "{bytes} int8 bytes vs {fb} f32 bytes");
        let mut s = ScratchArena::new();
        // The learned stride patterns survive quantization.
        let hist: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 16) + i, 0x400000)).collect();
        let deltas = model.predict_deltas_in(&hist, 0, 3, &mut s);
        assert!(deltas.contains(&1), "phase-0 deltas {deltas:?}");
        let hist1: Vec<(u64, u64)> = (0..5).map(|i| ((1 << 18) + 4 * i, 0x401000)).collect();
        let deltas1 = model.predict_deltas_in(&hist1, 1, 3, &mut s);
        assert!(deltas1.contains(&4), "phase-1 deltas {deltas1:?}");
        // And the scores track the f32 model closely.
        for (hist, phase) in [(&hist, 0usize), (&hist1, 1)] {
            let exact = Sigmoid::infer(&f32_model.predict_logits(hist, phase));
            let quant = Sigmoid::infer(&model.predict_logits(hist, phase));
            let diff = exact
                .data
                .iter()
                .zip(quant.data.iter())
                .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            assert!(diff < 0.12, "phase {phase}: sigmoid diff {diff}");
        }
    }

    #[test]
    fn phase_specific_has_n_models() {
        let trace = two_phase_trace(60, 2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 50,
            epochs: 1,
            ..tc
        };
        let ps = DeltaPredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        let single = DeltaPredictor::train(&trace, 2, Variant::Amma, cfg, &tc);
        assert_eq!(ps.models.len(), 2);
        assert_eq!(single.models.len(), 1);
        assert_eq!(ps.num_params(), 2 * single.num_params());
    }
}
