//! Temporal page predictor (§4.3.4, Figure 7b): tokenized page sequence and
//! hashed-PC modalities → backbone → MLP head with softmax over the page
//! vocabulary, trained with categorical cross-entropy on the next future
//! page. Also hosts the binary-encoded compressed output head of §6.1.
//!
//! Histories are *per core* (the LLC knows the requesting CPU): a core's
//! own page stream carries the iterative temporal structure the predictor
//! exploits, while the globally interleaved stream's next-page distribution
//! is close to uniform across the four cores' positions.

use crate::amma::{AmmaConfig, ModalInput};
use crate::backbone::Backbone;
use crate::obs::TrainMetrics;
use crate::training::fit_phase_models;
use crate::variants::Variant;
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::guard::Trainable;
use mpgraph_ml::layers::{Embedding, Linear, Module, Sigmoid};
use mpgraph_ml::loss::{bce_with_logits, softmax_cross_entropy};
use mpgraph_ml::metrics::top_k_indices;
use mpgraph_ml::quant::quantize_module;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;
use mpgraph_prefetchers::mlcommon::{
    dedup_lanes, pc_feature, per_core_streams, round_robin_windows, PageVocab,
};
use mpgraph_prefetchers::TrainCfg;

/// Output head style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageHead {
    /// Softmax over the full vocabulary (the uncompressed design).
    Softmax,
    /// Binary encoding (§6.1): class ids predicted as `ceil(log2 vocab)`
    /// independent bits, shrinking the head from `dim × vocab` to
    /// `dim × log2(vocab)`.
    BinaryEncoded,
}

/// Page-predictor hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct PagePredictorConfig {
    pub amma: AmmaConfig,
    /// Page vocabulary capacity (paper discusses 2^16; scaled default).
    pub page_vocab: usize,
    /// Page-token embedding width (the address modality's feature size).
    pub embed_dim: usize,
    pub head: PageHead,
}

impl Default for PagePredictorConfig {
    fn default() -> Self {
        PagePredictorConfig {
            amma: AmmaConfig::default(),
            page_vocab: 1024,
            embed_dim: 16,
            head: PageHead::Softmax,
        }
    }
}

#[derive(Clone)]
pub(crate) struct PageModel {
    pub(crate) embed: Embedding,
    pub(crate) backbone: Backbone,
    /// Softmax head: projection to the embedding space — logits come from
    /// the dot product with the (tied) embedding table, which makes the
    /// pointer-like "one of the recently seen pages" prediction that page
    /// streams demand easy to express. BinaryEncoded head: a plain linear
    /// layer to `log2(vocab)` bits.
    pub(crate) head: Linear,
    pub(crate) tied: bool,
}

impl Trainable for PageModel {
    fn parts(&mut self) -> Vec<&mut dyn Module> {
        vec![&mut self.embed, &mut self.backbone, &mut self.head]
    }
}

impl PageModel {
    /// The one forward: the head output `[B, out]` for `hists.len()`
    /// same-length (token, pc) windows sharing one phase — the
    /// embedding-space projection `z` for the tied softmax head, the bit
    /// logits for the binary-encoded one. The windows are stacked into a
    /// single `(B·T, ·)` modal input so the embedding, backbone and head
    /// each run once; row `b` is bit-identical to the forward on window
    /// `b` alone. Training runs one window on a taping arena. The caller
    /// `give`s the result back.
    pub(crate) fn head_out_in(
        &self,
        hists: &[&[(usize, u64)]],
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        let batch = hists.len();
        let t = hists.first().map_or(0, |h| h.len());
        assert!(
            hists.iter().all(|h| h.len() == t),
            "fused page batch requires equal-length histories"
        );
        let tokens: Vec<usize> = hists
            .iter()
            .flat_map(|h| h.iter().map(|&(tk, _)| tk))
            .collect();
        let addr = self.embed.infer_in(&tokens, s);
        let mut pc = s.take(batch * t, 1);
        for (b, hist) in hists.iter().enumerate() {
            for (i, &(_, pcv)) in hist.iter().enumerate() {
                pc.data[b * t + i] = pc_feature(pcv);
            }
        }
        let x = ModalInput { addr, pc };
        let pooled = self.backbone.infer_batch_in(&x, batch, phase, s);
        let ModalInput { addr, pc } = x;
        s.give(addr);
        s.give(pc);
        let z = self.head.infer_in(&pooled, s);
        s.give(pooled);
        z
    }

    /// Backward from the head output's gradient through head, backbone and
    /// embedding, over a taped forward of one `seq`-long window.
    pub(crate) fn backward(&mut self, d_out: &Matrix, seq: usize, s: &mut ScratchArena) {
        let dp = self.head.backward(d_out, s);
        let (d_addr, _d_pc) = self.backbone.backward(&dp, seq, s);
        self.embed.backward(&d_addr, s);
    }
}

/// The temporal page predictor, in any of the five Table 7 variants.
/// `Clone` duplicates the trained weights and vocabulary, so a serving
/// layer can stamp out per-stream prefetchers from one trained instance.
#[derive(Clone)]
pub struct PagePredictor {
    pub variant: Variant,
    pub cfg: PagePredictorConfig,
    pub vocab: PageVocab,
    pub(crate) models: Vec<PageModel>,
    /// Int8 storage bytes, set once [`PagePredictor::quantize`] has
    /// rounded the weights onto their int8 grid; `None` for plain f32.
    pub(crate) int8_bytes: Option<usize>,
    pub(crate) num_phases: usize,
    /// Bits used by the binary-encoded head.
    bits: usize,
    pub final_loss: f32,
    /// Optimizer steps, guard rollbacks and one event per rollback, in
    /// (model, step) order.
    pub training: TrainMetrics,
}

impl PagePredictor {
    /// Binary target for token `t` with `bits` bits (LSB first).
    pub(crate) fn binary_target(token: usize, bits: usize) -> Matrix {
        let mut m = Matrix::zeros(1, bits);
        for b in 0..bits {
            m.data[b] = ((token >> b) & 1) as f32;
        }
        m
    }

    /// Decodes thresholded bit probabilities back to a token id, clamped to
    /// the vocabulary.
    pub(crate) fn decode_bits(probs: &[f32], vocab_len: usize) -> usize {
        let mut token = 0usize;
        for (b, &p) in probs.iter().enumerate() {
            if p >= 0.5 {
                token |= 1 << b;
            }
        }
        token.min(vocab_len.saturating_sub(1))
    }

    /// The vocabulary of `records` and freshly initialised phase models
    /// (one per phase for the phase-specific variants), drawn from
    /// `rng(seed)` model by model: embedding, backbone, phase embedding
    /// (phase-informed variants), head.
    pub(crate) fn untrained(
        records: &[MemRecord],
        num_phases: usize,
        variant: Variant,
        cfg: PagePredictorConfig,
        seed: u64,
    ) -> Self {
        let vocab = PageVocab::build(records, cfg.page_vocab);
        let bits = (usize::BITS - (cfg.page_vocab - 1).leading_zeros()) as usize;
        let tied = cfg.head == PageHead::Softmax;
        // The tied head projects to the embedding space; the binary one
        // predicts the bits.
        let out_dim = if tied { cfg.embed_dim } else { bits };
        let model_count = if variant.is_phase_specific() {
            num_phases
        } else {
            1
        };
        let mut r = rng(seed);
        let models = (0..model_count)
            .map(|_| {
                let embed = Embedding::new(cfg.page_vocab, cfg.embed_dim, &mut r);
                let mut backbone =
                    Backbone::new(variant.backbone_kind(), cfg.embed_dim, 1, cfg.amma, &mut r);
                if variant.is_phase_informed() {
                    backbone = backbone.with_phase_embedding(num_phases, &mut r);
                }
                let head = Linear::new(backbone.out_dim(), out_dim, &mut r);
                PageModel {
                    embed,
                    backbone,
                    head,
                    tied,
                }
            })
            .collect();
        PagePredictor {
            variant,
            cfg,
            vocab,
            models,
            int8_bytes: None,
            num_phases: num_phases.max(1),
            bits,
            final_loss: f32::NAN,
            training: TrainMetrics::default(),
        }
    }

    /// Trains on the per-core page streams of `records` (see module docs),
    /// drawn round-robin across cores, each phase model on its own
    /// thread.
    pub fn train(
        records: &[MemRecord],
        num_phases: usize,
        variant: Variant,
        cfg: PagePredictorConfig,
        tc: &TrainCfg,
    ) -> Self {
        let mut p = Self::untrained(records, num_phases, variant, cfg, tc.seed ^ 0x9A6E);
        let t = tc.history;
        let seqs = per_core_streams(records, t, |rec| {
            (p.vocab.token_of(rec.page()), rec.pc, rec.phase)
        });
        let walk: Vec<((usize, usize), usize)> = round_robin_windows(&seqs, t, tc.max_samples)
            .into_iter()
            .map(|(s, i)| ((s, i), seqs[s][i + t - 1].2 as usize % p.num_phases))
            .collect();
        let bits = p.bits;
        let (final_loss, training) =
            fit_phase_models("page", &mut p.models, walk, tc, |m, &((c, i), phase), s| {
                let seq = &seqs[c];
                let hist: Vec<(usize, u64)> = seq[i..i + t]
                    .iter()
                    .map(|&(tok, pc, _)| (tok, pc))
                    .collect();
                let target = seq[i + t].0;
                let z = m.head_out_in(&[&hist], phase, s);
                let (loss, d_z) = if m.tied {
                    // logits = z · E^T (tied with the embedding).
                    let logits = z.matmul_bt(&m.embed.table.w); // [1, vocab]
                    let (loss, dl) = softmax_cross_entropy(&logits, &[target]);
                    // d_z = dl · E ; dE[v] += dl[v] · z.
                    let d_z = dl.matmul(&m.embed.table.w);
                    let e_dim = m.embed.table.w.cols;
                    for v in 0..m.embed.table.w.rows {
                        let g = dl.data[v];
                        if g != 0.0 {
                            let row = &mut m.embed.table.g.data[v * e_dim..(v + 1) * e_dim];
                            for (gv, &zv) in row.iter_mut().zip(z.data.iter()) {
                                *gv += g * zv;
                            }
                        }
                    }
                    (loss, d_z)
                } else {
                    bce_with_logits(&z, &Self::binary_target(target, bits))
                };
                s.give(z);
                m.backward(&d_z, t, s);
                loss
            });
        p.final_loss = final_loss;
        p.training = training;
        p
    }

    /// The model serving `phase` (the only one unless phase-specific).
    fn model_for(&self, phase: usize) -> &PageModel {
        &self.models[phase % self.models.len()]
    }

    /// Rounds every weight of every phase model — token embedding (which
    /// is also the tied output head), backbone and head — onto its int8
    /// grid in place (§6.1: int8 is the storage format). Inference keeps
    /// running the f32 path on the rounded weights, which is exactly what
    /// a model loaded from int8 storage computes. Idempotent; returns the
    /// int8 storage bytes.
    pub fn quantize(&mut self) -> usize {
        let bytes = self
            .models
            .iter_mut()
            .map(|m| {
                quantize_module(&mut m.embed)
                    + quantize_module(&mut m.backbone)
                    + quantize_module(&mut m.head)
            })
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

    /// Raw head logits (pre-softmax / pre-sigmoid) `[1, out]` for one
    /// window, from the head output of the arena forward at B = 1 on a
    /// fresh arena. The tied head's row spans all `page_vocab` slots, not
    /// just the live vocabulary: distillation's KD loss reads every one.
    pub fn predict_logits(&self, hist: &[(usize, u64)], phase: usize) -> Matrix {
        let m = self.model_for(phase);
        let z = m.head_out_in(&[hist], phase, &mut ScratchArena::new());
        if m.tied {
            z.matmul_bt(&m.embed.table.w)
        } else {
            z
        }
    }

    /// The one inference forward: raw head logits `[B, out]` for
    /// `hists.len()` same-length (token, pc) windows sharing one phase,
    /// from that model's one forward (the one training runs too) and one
    /// tied vocabulary product. The tied head computes only the live
    /// vocabulary, the tokens `vocab` maps and top-k reads, so `out` is
    /// `vocab.len()` (at least 1, at most `page_vocab`) and row `b` is
    /// bit-identical to that prefix of training's full-width `z·Eᵀ` on
    /// window `b`; the binary head's row is all of it. Single windows run
    /// at B = 1. The caller `give`s the result back.
    pub fn predict_logits_batch_in(
        &self,
        hists: &[&[(usize, u64)]],
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        let m = self.model_for(phase);
        let z = m.head_out_in(hists, phase, s);
        if !m.tied {
            return z;
        }
        let mut logits = s.take(z.rows, self.live_vocab());
        z.matmul_bt_into(&m.embed.table.w, &mut logits);
        s.give(z);
        logits
    }

    /// [`Self::predict_pages_batch_in`] for one window (B = 1).
    pub fn predict_pages_in(
        &self,
        hist: &[(usize, u64)],
        phase: usize,
        k: usize,
        s: &mut ScratchArena,
    ) -> Vec<u64> {
        self.predict_pages_batch_in(&[hist], phase, k, s)
            .pop()
            .unwrap_or_default()
    }

    /// Top predicted pages for each of `hists.len()` same-length (token,
    /// pc) windows sharing one phase, from one
    /// [`Self::predict_logits_batch_in`] forward. Row `b` equals
    /// [`Self::predict_pages_in`] on window `b`.
    pub fn predict_pages_batch_in(
        &self,
        hists: &[&[(usize, u64)]],
        phase: usize,
        k: usize,
        s: &mut ScratchArena,
    ) -> Vec<Vec<u64>> {
        let batch = hists.len();
        if batch == 0 {
            return Vec::new();
        }
        // Dedup identical windows before stacking (see
        // [`DeltaPredictor::predict_deltas_batch_in`]): one computed lane
        // serves every duplicate bit-exactly.
        let (unique, lane_of) = dedup_lanes(hists);
        if unique.len() < batch {
            let uniq = self.predict_pages_batch_in(&unique, phase, k, s);
            return lane_of.iter().map(|&i| uniq[i].clone()).collect();
        }
        let mut logits = self.predict_logits_batch_in(hists, phase, s);
        let out = match self.cfg.head {
            PageHead::Softmax => (0..batch)
                .map(|b| {
                    top_k_indices(logits.row(b), k + 1)
                        .into_iter()
                        .filter_map(|tk| self.vocab.page_of(tk))
                        .take(k)
                        .collect()
                })
                .collect(),
            PageHead::BinaryEncoded => {
                Sigmoid::infer_inplace(&mut logits);
                (0..batch)
                    .map(|b| {
                        let tok = Self::decode_bits(logits.row(b), self.vocab.len());
                        self.vocab.page_of(tok).into_iter().take(k).collect()
                    })
                    .collect()
            }
        };
        s.give(logits);
        out
    }

    /// How many leading logits of the tied head are live: the tokens the
    /// vocabulary maps, and all that top-k reads. Head capacity is
    /// `page_vocab`, but only `vocab.len()` slots were ever trained. Slots past that are
    /// random-init weights whose logits can win top-k, and since they
    /// resolve to no page they would starve downstream consumers (the CSTP
    /// temporal chain breaks before its PBOT lookup when the predicted
    /// pages come back empty).
    fn live_vocab(&self) -> usize {
        self.vocab.len().min(self.cfg.page_vocab).max(1)
    }

    /// Table 7 metric: accuracy@`k` — the top-1 predicted page counts as
    /// correct if it occurs within the core's next `k` accesses (histories
    /// and windows follow the per-core streams the predictor models).
    pub fn evaluate_accuracy_at(
        &self,
        records: &[MemRecord],
        tc: &TrainCfg,
        k: usize,
        max_samples: usize,
    ) -> f64 {
        let t = tc.history;
        let mut per_core: Vec<Vec<&MemRecord>> = vec![Vec::new(); 8];
        for rec in records {
            per_core[(rec.core as usize) % 8].push(rec);
        }
        let total_len: usize = per_core.iter().map(|s| s.len()).sum();
        let stride = (total_len.saturating_sub(t + k) / max_samples.max(1)).max(1);
        let mut hits = 0usize;
        let mut total = 0usize;
        let mut s = ScratchArena::new();
        for seq in per_core.iter().filter(|s| s.len() > t + k) {
            let mut i = 0usize;
            while i + t + k < seq.len() && total < max_samples {
                let phase = seq[i + t - 1].phase as usize % self.num_phases;
                let hist: Vec<(usize, u64)> = seq[i..i + t]
                    .iter()
                    .map(|rec| (self.vocab.token_of(rec.page()), rec.pc))
                    .collect();
                let preds = self.predict_pages_in(&hist, phase, 1, &mut s);
                if let Some(&p) = preds.first() {
                    if seq[i + t..i + t + k].iter().any(|r| r.page() == p) {
                        hits += 1;
                    }
                }
                total += 1;
                i += stride;
            }
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Number of bits in the binary-encoded head (16 for a 2^16 vocab).
    pub fn encoded_bits(&self) -> usize {
        self.bits
    }

    pub fn num_params(&self) -> usize {
        self.models
            .iter()
            .map(|m| m.embed.num_params() + m.backbone.num_params() + m.head.num_params())
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
            m.embed.for_each_param_ref(&mut push);
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

    fn rec(page: u64, pc: u64, phase: u8) -> MemRecord {
        MemRecord {
            pc,
            vaddr: page * 4096,
            core: 0,
            is_write: false,
            phase,
            gap: 1,
            dep: false,
        }
    }

    /// Phase 0 cycles pages 10→11→12; phase 1 cycles 50→60→70→80.
    fn two_phase_trace(reps: usize) -> Vec<MemRecord> {
        let mut v = Vec::new();
        for _ in 0..reps {
            for _ in 0..30 {
                for p in [10u64, 11, 12] {
                    v.push(rec(p, 0x400000, 0));
                }
            }
            for _ in 0..30 {
                for p in [50u64, 60, 70, 80] {
                    v.push(rec(p, 0x401000, 1));
                }
            }
        }
        v
    }

    fn quick_cfg() -> (PagePredictorConfig, TrainCfg) {
        (
            PagePredictorConfig {
                amma: AmmaConfig {
                    history: 5,
                    attn_dim: 8,
                    fusion_dim: 16,
                    layers: 1,
                    heads: 2,
                },
                page_vocab: 64,
                embed_dim: 8,
                head: PageHead::Softmax,
            },
            TrainCfg {
                history: 5,
                max_samples: 300,
                epochs: 4,
                lr: 4e-3,
                seed: 21,
            },
        )
    }

    #[test]
    fn binary_target_and_decode_roundtrip() {
        for token in [0usize, 1, 5, 13, 63] {
            let t = PagePredictor::binary_target(token, 6);
            let back = PagePredictor::decode_bits(&t.data, 64);
            assert_eq!(back, token);
        }
    }

    #[test]
    fn amma_ps_learns_cyclic_pages_per_phase() {
        let trace = two_phase_trace(3);
        let (cfg, tc) = quick_cfg();
        let model = PagePredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
        assert!(model.final_loss < 1.0, "loss {}", model.final_loss);
        let acc = model.evaluate_accuracy_at(&trace, &tc, 10, 200);
        assert!(acc > 0.8, "accuracy@10 {acc}");
        // Phase-0 history ending at page 12 → next page 10.
        let hist: Vec<(usize, u64)> = [11u64, 12, 10, 11, 12]
            .iter()
            .map(|&p| (model.vocab.token_of(p), 0x400000))
            .collect();
        let pages = model.predict_pages_in(&hist, 0, 1, &mut ScratchArena::new());
        assert_eq!(pages, vec![10]);
    }

    #[test]
    fn binary_encoded_head_shrinks_and_still_learns() {
        let trace = two_phase_trace(3);
        let (mut cfg, tc) = quick_cfg();
        cfg.head = PageHead::BinaryEncoded;
        let bin = PagePredictor::train(&trace, 2, Variant::Amma, cfg, &tc);
        cfg.head = PageHead::Softmax;
        let soft = PagePredictor::train(&trace, 2, Variant::Amma, cfg, &tc);
        assert_eq!(bin.encoded_bits(), 6); // log2(64)
        assert!(bin.num_params() < soft.num_params());
        let acc = bin.evaluate_accuracy_at(&trace, &tc, 10, 150);
        assert!(acc > 0.3, "binary-encoded accuracy {acc}");
    }

    #[test]
    fn batched_page_inference_is_bit_identical() {
        let trace = two_phase_trace(2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 80,
            epochs: 1,
            ..tc
        };
        for head in [PageHead::Softmax, PageHead::BinaryEncoded] {
            let cfg = PagePredictorConfig { head, ..cfg };
            for v in Variant::ALL {
                let mut model = PagePredictor::train(&trace, 2, v, cfg, &tc);
                let mut s = ScratchArena::new();
                // Distinct equal-length token histories over the trained
                // working set, one per batch lane.
                let pages = [10u64, 11, 12, 50, 60, 70, 80];
                let hists: Vec<Vec<(usize, u64)>> = (0..16usize)
                    .map(|b| {
                        (0..5)
                            .map(|i| {
                                let p = pages[(b + 2 * i) % pages.len()];
                                (model.vocab.token_of(p), 0x400000 + 4 * b as u64)
                            })
                            .collect()
                    })
                    .collect();
                // The second round serves int8-rounded weights, as
                // `quantize` leaves them, through the same path.
                for rounded in [false, true] {
                    if rounded {
                        model.quantize();
                    }
                    for batch in [1usize, 2, 5, 16] {
                        let refs: Vec<&[(usize, u64)]> =
                            hists[..batch].iter().map(Vec::as_slice).collect();
                        for phase in 0..2 {
                            let fused = model.predict_pages_batch_in(&refs, phase, 3, &mut s);
                            assert_eq!(fused.len(), batch);
                            let logits = model.predict_logits_batch_in(&refs, phase, &mut s);
                            // The tied head computes the live vocabulary
                            // only; the binary head all of its bits.
                            let width = match head {
                                PageHead::Softmax => model.vocab.len(),
                                PageHead::BinaryEncoded => model.encoded_bits(),
                            };
                            assert_eq!((logits.rows, logits.cols), (batch, width));
                            let m = &model.models[phase % model.models.len()];
                            for (b, h) in refs.iter().enumerate() {
                                let what = format!(
                                    "{} {head:?} rounded={rounded} batch={batch} lane={b} phase={phase}",
                                    v.name()
                                );
                                // Training forward (one window, taped):
                                // head output z, then the tied head's z·Eᵀ
                                // over every slot.
                                let z = m.head_out_in(&[h], phase, &mut ScratchArena::with_tape());
                                let full = if m.tied {
                                    z.matmul_bt(&m.embed.table.w)
                                } else {
                                    z
                                };
                                assert_eq!(
                                    bits(logits.row(b)),
                                    bits(&full.data[..width]),
                                    "{what}"
                                );
                                // The B = 1 wrapper is full width: all
                                // `page_vocab` slots for the tied head.
                                let single = model.predict_logits(h, phase);
                                assert_eq!(single.cols, full.cols, "{what}");
                                assert_eq!(bits(&single.data), bits(&full.data), "{what}");
                                assert_eq!(
                                    fused[b],
                                    model.predict_pages_in(h, phase, 3, &mut s),
                                    "{what}"
                                );
                            }
                            s.give(logits);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn arena_prediction_is_allocation_free_for_both_heads() {
        let trace = two_phase_trace(2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 80,
            epochs: 1,
            ..tc
        };
        for head in [PageHead::Softmax, PageHead::BinaryEncoded] {
            let cfg = PagePredictorConfig { head, ..cfg };
            let model = PagePredictor::train(&trace, 2, Variant::AmmaPi, cfg, &tc);
            let hist: Vec<(usize, u64)> = [11u64, 12, 10, 11, 12]
                .iter()
                .map(|&p| (model.vocab.token_of(p), 0x400000))
                .collect();
            let mut s = mpgraph_ml::ScratchArena::new();
            for phase in [0usize, 1] {
                let warm = model.predict_pages_in(&hist, phase, 2, &mut s);
                let (_, misses_after_warmup) = s.stats();
                for _ in 0..4 {
                    assert_eq!(model.predict_pages_in(&hist, phase, 2, &mut s), warm);
                }
                let (_, misses) = s.stats();
                assert_eq!(misses, misses_after_warmup, "steady state allocated");
            }
        }
    }

    #[test]
    fn quantized_page_prediction_keeps_the_learned_cycle() {
        let trace = two_phase_trace(3);
        let (cfg, tc) = quick_cfg();
        for head in [PageHead::Softmax, PageHead::BinaryEncoded] {
            let cfg = PagePredictorConfig { head, ..cfg };
            let mut model = PagePredictor::train(&trace, 2, Variant::AmmaPs, cfg, &tc);
            assert!(!model.is_quantized());
            let bytes = model.quantize();
            assert!(model.is_quantized(), "{head:?}");
            assert_eq!(model.quant_storage_bytes(), Some(bytes));
            let fb = model.num_params() * 4;
            assert!(bytes * 3 < fb, "{head:?}: {bytes} int8 bytes vs {fb} f32");
            // Phase-0 history ending at page 12 → next page 10 survives
            // quantization for both head styles.
            let hist: Vec<(usize, u64)> = [11u64, 12, 10, 11, 12]
                .iter()
                .map(|&p| (model.vocab.token_of(p), 0x400000))
                .collect();
            let mut s = ScratchArena::new();
            let pages = model.predict_pages_in(&hist, 0, 1, &mut s);
            assert_eq!(pages, vec![10], "{head:?}");
        }
    }

    #[test]
    fn all_variants_train() {
        let trace = two_phase_trace(2);
        let (cfg, tc) = quick_cfg();
        let tc = TrainCfg {
            max_samples: 100,
            epochs: 2,
            ..tc
        };
        for v in Variant::ALL {
            let model = PagePredictor::train(&trace, 2, v, cfg, &tc);
            assert!(model.final_loss.is_finite(), "{}", v.name());
            let acc = model.evaluate_accuracy_at(&trace, &tc, 10, 50);
            assert!((0.0..=1.0).contains(&acc), "{}", v.name());
        }
    }
}
