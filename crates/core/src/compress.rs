//! Model compression (§6.1): knowledge distillation of the predictors into
//! smaller students (optionally folding the N phase-specific teachers into
//! a single student for a further N× reduction), plus int8 quantization and
//! storage accounting — the machinery behind Figure 13 and the "87×
//! compressed" headline configuration.

use crate::amma::AmmaConfig;
use crate::delta_predictor::{block_history, DeltaPredictor};
use crate::page_predictor::{PageHead, PagePredictor};
use crate::training::fit_phase_models;
use crate::variants::Variant;
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::layers::Sigmoid;
use mpgraph_ml::loss::{
    bce_with_logits, binary_distillation_loss, distillation_loss, softmax_cross_entropy,
};
use mpgraph_ml::metrics::top_k_indices;
use mpgraph_prefetchers::mlcommon::{sample_starts, PageVocab};
use mpgraph_prefetchers::TrainCfg;

/// Distillation hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct DistillCfg {
    /// Student AMMA dimensions.
    pub student_amma: AmmaConfig,
    /// Softmax temperature for the page head (delta uses the binary KD
    /// loss, which has no temperature).
    pub temperature: f32,
    /// Fold all phase-specific teachers into ONE student (extra N×).
    pub single_student: bool,
    /// Override the student page head (e.g. `PageHead::BinaryEncoded` to
    /// stack binary-encoding compression on top of KD).
    pub student_head: Option<PageHead>,
}

impl Default for DistillCfg {
    fn default() -> Self {
        DistillCfg {
            student_amma: AmmaConfig::student(8),
            temperature: 3.0,
            single_student: false,
            student_head: None,
        }
    }
}

impl DistillCfg {
    /// The student's variant: the teacher's, or plain AMMA when the phase
    /// models fold into one student.
    fn student_variant(&self, teacher: Variant) -> Variant {
        if self.single_student {
            Variant::Amma
        } else {
            teacher
        }
    }
}

/// Distills a trained delta predictor into a smaller student, matching the
/// teacher's per-label probabilities on the training stream. Each student
/// model trains on its own thread over the training walk's windows of its
/// phase, as in [`DeltaPredictor::train`].
pub fn distill_delta(
    teacher: &DeltaPredictor,
    records: &[MemRecord],
    dc: &DistillCfg,
    tc: &TrainCfg,
) -> DeltaPredictor {
    let mut cfg = teacher.cfg;
    cfg.amma = dc.student_amma;
    let variant = dc.student_variant(teacher.variant);
    let mut student = DeltaPredictor::untrained(teacher.num_phases, variant, cfg, tc.seed ^ 0xD157);
    let walk = student.walk(records, tc);
    let t = tc.history;
    let (final_loss, training) =
        fit_phase_models("delta", &mut student.models, walk, tc, |m, &(i, phase)| {
            let hist = block_history(&records[i..i + t]);
            // Teacher's soft targets (phase-appropriate teacher model).
            let teacher_logits = teacher.predict_logits(&hist, phase);
            let logits = m.forward(&DeltaPredictor::encode(&cfg, &hist), phase);
            let (loss, dl) = binary_distillation_loss(&logits, &teacher_logits);
            m.backward(&dl);
            loss
        });
    student.final_loss = final_loss;
    student.training = training;
    student
}

/// Distills a trained page predictor into a smaller student on the global
/// record stream. The student uses the binary-encoded head when the
/// teacher does; KD runs on the temperature-softened token distribution
/// otherwise. Each student model trains on its own thread.
pub fn distill_page(
    teacher: &PagePredictor,
    records: &[MemRecord],
    dc: &DistillCfg,
    tc: &TrainCfg,
) -> PagePredictor {
    let mut cfg = teacher.cfg;
    cfg.amma = dc.student_amma;
    if let Some(h) = dc.student_head {
        cfg.head = h;
    }
    let variant = dc.student_variant(teacher.variant);
    let mut student =
        PagePredictor::untrained(records, teacher.num_phases, variant, cfg, tc.seed ^ 0x9A6E);
    let t = tc.history;
    let starts = sample_starts(
        records.len(),
        t,
        records.len().saturating_sub(t + 1),
        tc.max_samples,
    );
    let walk: Vec<(usize, usize)> = starts
        .into_iter()
        .map(|i| (i, records[i + t - 1].phase as usize % student.num_phases))
        .collect();
    let vocab_len = student.vocab.len().max(1);
    let tokens = |vocab: &PageVocab, i: usize| -> Vec<(usize, u64)> {
        records[i..i + t]
            .iter()
            .map(|rec| (vocab.token_of(rec.page()), rec.pc))
            .collect()
    };
    let (final_loss, training) =
        fit_phase_models("page", &mut student.models, walk, tc, |m, &(i, phase)| {
            // Each side reads the window through its own vocabulary.
            let teacher_logits = teacher.predict_logits(&tokens(&teacher.vocab, i), phase);
            let logits = m.forward(&tokens(&student.vocab, i), phase);
            let (loss, dl) = match (teacher.cfg.head, cfg.head) {
                (PageHead::Softmax, PageHead::Softmax) => {
                    // Softmax student heads are tied: `logits` is the
                    // embedding-space projection, not the vocab-wide
                    // row. Expand through the student's table for the
                    // KD loss and pull the gradient back through the
                    // same (frozen-for-this-product) table.
                    let full = logits.matmul_bt(&m.embed.table.w);
                    let (loss, d_full) = distillation_loss(&full, &teacher_logits, dc.temperature);
                    (loss, d_full.matmul(&m.embed.table.w))
                }
                (PageHead::BinaryEncoded, PageHead::Softmax) => {
                    // Bits-wide teacher vs vocab-wide student: decode
                    // the teacher's token and distill it as a hard
                    // label through the student's tied softmax.
                    let probs = Sigmoid::infer(&teacher_logits);
                    let top = PagePredictor::decode_bits(probs.row(0), vocab_len);
                    let full = logits.matmul_bt(&m.embed.table.w);
                    let (loss, d_full) = softmax_cross_entropy(&full, &[top]);
                    (loss, d_full.matmul(&m.embed.table.w))
                }
                (PageHead::BinaryEncoded, PageHead::BinaryEncoded) => {
                    binary_distillation_loss(&logits, &teacher_logits)
                }
                (PageHead::Softmax, PageHead::BinaryEncoded) => {
                    // Head widths differ: distill the teacher's argmax
                    // token through the student's binary target.
                    let top = top_k_indices(teacher_logits.row(0), 1)[0];
                    bce_with_logits(&logits, &PagePredictor::binary_target(top, logits.cols))
                }
            };
            m.backward(&dl);
            loss
        });
    student.final_loss = final_loss;
    student.training = training;
    student
}

/// In-place int8 quantization of every model in a delta predictor: the
/// weights round onto their int8 grid (§6.1 storage format) and the f32
/// path serves them. Returns (float bytes before, int8 bytes after).
pub fn quantize_delta(p: &mut DeltaPredictor) -> (usize, usize) {
    let before = p.num_params() * 4;
    (before, p.quantize())
}

/// In-place int8 quantization of every model in a page predictor. Same
/// contract as [`quantize_delta`].
pub fn quantize_page(p: &mut PagePredictor) -> (usize, usize) {
    let before = p.num_params() * 4;
    (before, p.quantize())
}

/// Compression factor between a teacher/student pair (by parameter count).
pub fn compression_factor(teacher_params: usize, student_params: usize) -> f64 {
    teacher_params as f64 / student_params.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta_predictor::DeltaPredictorConfig;
    use crate::page_predictor::PagePredictorConfig;
    use mpgraph_frameworks::MemRecord;

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

    fn trace() -> Vec<MemRecord> {
        let mut v = Vec::new();
        for rep in 0..3 {
            let mut a = (4 + rep) * 4096u64;
            for _ in 0..150 {
                v.push(rec(a, 0x400000, 0));
                a += 64;
            }
            for i in 0..150 {
                let page = [40u64, 80, 120][i % 3];
                v.push(rec(page * 4096 + (i % 60) as u64 * 64, 0x401000, 1));
            }
        }
        v
    }

    fn teacher_cfgs() -> (DeltaPredictorConfig, PagePredictorConfig, TrainCfg) {
        let amma = AmmaConfig {
            history: 5,
            attn_dim: 16,
            fusion_dim: 32,
            layers: 1,
            heads: 2,
        };
        (
            DeltaPredictorConfig {
                amma,
                segments: 6,
                delta_range: 15,
                look_forward: 8,
                threshold: 0.5,
            },
            PagePredictorConfig {
                amma,
                page_vocab: 64,
                embed_dim: 8,
                head: PageHead::Softmax,
            },
            TrainCfg {
                history: 5,
                max_samples: 200,
                epochs: 3,
                lr: 4e-3,
                seed: 5,
            },
        )
    }

    #[test]
    fn delta_distillation_shrinks_and_tracks_teacher() {
        let tr = trace();
        let (dcfg, _, tc) = teacher_cfgs();
        let teacher = DeltaPredictor::train(&tr, 2, Variant::AmmaPs, dcfg, &tc);
        let dc = DistillCfg {
            student_amma: AmmaConfig {
                history: 5,
                attn_dim: 4,
                fusion_dim: 8,
                layers: 1,
                heads: 2,
            },
            temperature: 3.0,
            single_student: false,
            student_head: None,
        };
        let student = distill_delta(&teacher, &tr, &dc, &tc);
        let factor = compression_factor(teacher.num_params(), student.num_params());
        assert!(factor > 3.0, "compression only {factor:.1}x");
        // Student should still beat chance on the training distribution.
        let f1_t = teacher.evaluate_f1(&tr, &tc, 100);
        let f1_s = student.evaluate_f1(&tr, &tc, 100);
        assert!(f1_s.f1 > 0.2, "student f1 {:?}", f1_s);
        assert!(
            f1_s.f1 <= f1_t.f1 + 0.2,
            "student unexpectedly above teacher"
        );
    }

    #[test]
    fn amma_pi_delta_students_keep_their_phase_embedding() {
        let tr = trace();
        let (dcfg, _, tc) = teacher_cfgs();
        let tc = TrainCfg {
            max_samples: 60,
            epochs: 1,
            ..tc
        };
        let teacher = DeltaPredictor::train(&tr, 2, Variant::AmmaPi, dcfg, &tc);
        let dc = DistillCfg {
            student_amma: AmmaConfig {
                history: 5,
                attn_dim: 4,
                fusion_dim: 8,
                layers: 1,
                heads: 2,
            },
            ..DistillCfg::default()
        };
        let student = distill_delta(&teacher, &tr, &dc, &tc);
        let scfg = DeltaPredictorConfig {
            amma: dc.student_amma,
            ..dcfg
        };
        let pi = DeltaPredictor::train(&tr, 2, Variant::AmmaPi, scfg, &tc);
        let plain = DeltaPredictor::train(&tr, 2, Variant::Amma, scfg, &tc);
        assert!(pi.num_params() > plain.num_params());
        assert_eq!(student.num_params(), pi.num_params());
    }

    #[test]
    fn single_student_folds_phases() {
        let tr = trace();
        let (dcfg, _, tc) = teacher_cfgs();
        let teacher = DeltaPredictor::train(&tr, 2, Variant::AmmaPs, dcfg, &tc);
        let dc = DistillCfg {
            single_student: true,
            ..DistillCfg::default()
        };
        let student = distill_delta(&teacher, &tr, &dc, &tc);
        assert_eq!(student.models.len(), 1);
        assert_eq!(teacher.models.len(), 2);
    }

    #[test]
    fn page_distillation_runs_and_shrinks() {
        let tr = trace();
        let (_, pcfg, tc) = teacher_cfgs();
        let teacher = PagePredictor::train(&tr, 2, Variant::AmmaPs, pcfg, &tc);
        let dc = DistillCfg {
            student_amma: AmmaConfig {
                history: 5,
                attn_dim: 4,
                fusion_dim: 8,
                layers: 1,
                heads: 2,
            },
            temperature: 2.0,
            single_student: true,
            student_head: Some(PageHead::BinaryEncoded),
        };
        let student = distill_page(&teacher, &tr, &dc, &tc);
        assert!(student.final_loss.is_finite());
        assert!(student.num_params() < teacher.num_params());
        let acc = student.evaluate_accuracy_at(&tr, &tc, 10, 80);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn softmax_teacher_distills_into_binary_student_via_argmax_labels() {
        // Head widths differ (softmax teacher over the vocab, binary
        // student over log2(vocab) bits), so KD cannot match logits
        // directly: the mismatch branch distills the teacher's argmax
        // token through the student's binary target instead.
        let tr = trace();
        let (_, pcfg, tc) = teacher_cfgs();
        let teacher = PagePredictor::train(&tr, 2, Variant::AmmaPs, pcfg, &tc);
        assert!(matches!(teacher.cfg.head, PageHead::Softmax));
        let dc = DistillCfg {
            student_amma: AmmaConfig {
                history: 5,
                attn_dim: 4,
                fusion_dim: 8,
                layers: 1,
                heads: 2,
            },
            temperature: 2.0,
            single_student: false,
            student_head: Some(PageHead::BinaryEncoded),
        };
        let student = distill_page(&teacher, &tr, &dc, &tc);
        assert!(matches!(student.cfg.head, PageHead::BinaryEncoded));
        // The student head is bit-width narrow (log2 of the configured
        // vocab), not vocab-wide like the teacher's softmax.
        let vocab_bits = (student.cfg.page_vocab as f32).log2().ceil() as usize;
        let logits =
            student.predict_logits(&[(0usize, 0x401000u64); 5], 1 % student.num_phases.max(1));
        assert_eq!(logits.cols, vocab_bits.max(1));
        assert!(
            student.final_loss.is_finite(),
            "argmax fallback produced non-finite loss: {}",
            student.final_loss
        );
        // Hard-label KD still transfers the learned behaviour: on the
        // phase-1 page cycle the student reproduces the teacher's top-1.
        let cycle = [40u64, 80, 120, 40, 80];
        let t_hist: Vec<(usize, u64)> = cycle
            .iter()
            .map(|&p| (teacher.vocab.token_of(p), 0x401000))
            .collect();
        let s_hist: Vec<(usize, u64)> = cycle
            .iter()
            .map(|&p| (student.vocab.token_of(p), 0x401000))
            .collect();
        let mut s = mpgraph_ml::ScratchArena::new();
        let t_top = teacher.predict_pages_in(&t_hist, 1, 1, &mut s);
        let s_top = student.predict_pages_in(&s_hist, 1, 1, &mut s);
        assert_eq!(
            s_top, t_top,
            "student diverged from the teacher's argmax on the trained cycle"
        );
    }

    #[test]
    fn quantization_shrinks_4x_and_preserves_behaviour() {
        let tr = trace();
        let (dcfg, _, tc) = teacher_cfgs();
        let mut model = DeltaPredictor::train(&tr, 2, Variant::Amma, dcfg, &tc);
        let f1_before = model.evaluate_f1(&tr, &tc, 80);
        let (before, after) = quantize_delta(&mut model);
        assert!(after * 3 < before, "{after} vs {before}");
        let f1_after = model.evaluate_f1(&tr, &tc, 80);
        assert!(
            (f1_before.f1 - f1_after.f1).abs() < 0.15,
            "quantization changed F1 too much: {} → {}",
            f1_before.f1,
            f1_after.f1
        );
    }
}
