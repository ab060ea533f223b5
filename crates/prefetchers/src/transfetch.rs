//! TransFetch (Zhang et al., CF 2022): an attention-based prefetcher with
//! fine-grained address segmentation input and a multi-label delta-bitmap
//! output covering a spatial range — the state-of-the-art ML baseline the
//! paper reports highest accuracy (but lower coverage) for.

use crate::delta_lstm::TrainCfg;
use crate::mlcommon::{pc_feature, sample_starts, segment_block, DeltaRange, History};
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::guard::{fit, Trainable};
use mpgraph_ml::layers::{Linear, Module, Sigmoid};
use mpgraph_ml::loss::bce_with_logits;
use mpgraph_ml::metrics::top_k_indices;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::transformer::TransformerLayer;
use mpgraph_ml::ScratchArena;
use mpgraph_sim::{LlcAccess, Prefetcher};

/// TransFetch model dimensions.
#[derive(Debug, Clone, Copy)]
pub struct TransFetchConfig {
    /// Address segments per block address (4-bit nibbles).
    pub segments: usize,
    /// Model width.
    pub dim: usize,
    pub heads: usize,
    pub layers: usize,
    /// Delta range: labels cover [-delta_range, +delta_range] \ {0}.
    pub delta_range: i64,
    /// Future window F whose deltas form the training bitmap.
    pub look_forward: usize,
    pub degree: usize,
    pub latency: u64,
    /// Classification threshold on the sigmoid output.
    pub threshold: f32,
}

impl Default for TransFetchConfig {
    fn default() -> Self {
        TransFetchConfig {
            segments: 9,
            dim: 32,
            heads: 4,
            layers: 2,
            delta_range: 63,
            look_forward: 16,
            degree: 6,
            latency: 0,
            threshold: 0.5,
        }
    }
}

impl TransFetchConfig {
    /// The output bitmap's delta↔label mapping.
    pub(crate) fn labels(&self) -> DeltaRange {
        DeltaRange {
            range: self.delta_range,
        }
    }
}

/// The trained TransFetch prefetcher.
pub struct TransFetch {
    cfg: TransFetchConfig,
    embed: Linear,
    blocks: Vec<TransformerLayer>,
    head: Linear,
    hist: History<(u64, u64)>, // (block, pc)
    /// Scratch for the online forwards, warm after the first.
    arena: ScratchArena,
    pub final_loss: f32,
}

impl Trainable for TransFetch {
    fn parts(&mut self) -> Vec<&mut dyn Module> {
        let mut parts: Vec<&mut dyn Module> = vec![&mut self.embed];
        parts.extend(self.blocks.iter_mut().map(|b| b as &mut dyn Module));
        parts.push(&mut self.head);
        parts
    }
}

/// Mean over the sequence rows: `[T, d]` → `[1, d]`.
fn mean_pool(h: &Matrix, s: &mut ScratchArena) -> Matrix {
    let mut pooled = s.take(1, h.cols);
    for r in 0..h.rows {
        for c in 0..h.cols {
            pooled.data[c] += h.at(r, c) / h.rows as f32;
        }
    }
    pooled
}

impl TransFetch {
    /// The one forward: bitmap logits `[1, labels]` for one (block, pc)
    /// window. Mean pooling reads every row, so every layer computes all
    /// of them as queries. Training runs it on a taping arena.
    fn logits_in(&self, hist: &[(u64, u64)], s: &mut ScratchArena) -> Matrix {
        let mut x = s.take(hist.len(), self.cfg.segments + 1);
        for (i, &(block, pc)) in hist.iter().enumerate() {
            let row = x.row_mut(i);
            segment_block(block, &mut row[..self.cfg.segments]);
            row[self.cfg.segments] = pc_feature(pc);
        }
        let mut h = self.embed.infer_in(&x, s);
        s.give(x);
        for b in &self.blocks {
            let next = b.infer_batch_in(&h, 1, hist.len(), s);
            s.give(h);
            h = next;
        }
        let pooled = mean_pool(&h, s);
        s.give(h);
        let logits = self.head.infer_in(&pooled, s);
        s.give(pooled);
        logits
    }

    /// One training sample: the window of `t` accesses at `i` against the
    /// bitmap of the deltas that follow it, through the one forward on the
    /// taping arena. Returns the BCE loss.
    fn train_step(
        &mut self,
        records: &[MemRecord],
        i: usize,
        t: usize,
        s: &mut ScratchArena,
    ) -> f32 {
        let hist: Vec<(u64, u64)> = records[i..i + t]
            .iter()
            .map(|rec| (rec.block(), rec.pc))
            .collect();
        let target = self
            .cfg
            .labels()
            .label_bitmap(records, i + t - 1, self.cfg.look_forward);
        let logits = self.logits_in(&hist, s);
        let (loss, dl) = bce_with_logits(&logits, &target);
        s.give(logits);
        // Backward through head, pooling, transformer stack, embed.
        let d_pooled = self.head.backward(&dl, s);
        let dim = self.cfg.dim;
        let mut dh = Matrix::zeros(t, dim);
        for rr in 0..t {
            for c in 0..dim {
                dh.data[rr * dim + c] = d_pooled.data[c] / t as f32;
            }
        }
        for b in self.blocks.iter_mut().rev() {
            dh = b.backward(&dh, s);
        }
        let _ = self.embed.backward(&dh, s);
        loss
    }

    pub fn train(records: &[MemRecord], cfg: TransFetchConfig, tc: &TrainCfg) -> Self {
        let mut r = rng(tc.seed ^ 0x7F47C4);
        let mut model = TransFetch {
            cfg,
            embed: Linear::new(cfg.segments + 1, cfg.dim, &mut r),
            blocks: (0..cfg.layers)
                .map(|_| TransformerLayer::new(cfg.dim, cfg.heads, &mut r))
                .collect(),
            head: Linear::new(cfg.dim, cfg.labels().num_labels(), &mut r),
            hist: History::new(tc.history),
            arena: ScratchArena::new(),
            final_loss: f32::NAN,
        };
        let t = tc.history;
        let reach = t + cfg.look_forward;
        let starts = sample_starts(
            records.len(),
            reach,
            records.len().saturating_sub(reach),
            tc.max_samples,
        );
        let report = fit(&mut model, &starts, tc.epochs, tc.lr, |m, &i, s| {
            m.train_step(records, i, t, s)
        });
        model.final_loss = report.mean_loss();
        model
    }

    /// Predicted deltas, strongest first, up to `k`, above threshold,
    /// through the one forward on `s`.
    fn predict(&self, hist: &[(u64, u64)], k: usize, s: &mut ScratchArena) -> Vec<i64> {
        let mut probs = self.logits_in(hist, s);
        Sigmoid::infer_inplace(&mut probs);
        let deltas = top_k_indices(probs.row(0), k)
            .into_iter()
            .filter(|&i| probs.data[i] >= self.cfg.threshold)
            .map(|i| self.cfg.labels().delta_of(i))
            .collect();
        s.give(probs);
        deltas
    }

    pub fn num_params(&mut self) -> usize {
        let mut n = self.embed.num_params() + self.head.num_params();
        for b in &mut self.blocks {
            n += b.num_params();
        }
        n
    }
}

impl Prefetcher for TransFetch {
    fn name(&self) -> String {
        "TransFetch".into()
    }

    fn latency(&self) -> u64 {
        self.cfg.latency
    }

    fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
        self.hist.push((a.block, a.pc));
        if !self.hist.is_full() {
            return;
        }
        let mut arena = std::mem::take(&mut self.arena);
        let deltas = self.predict(self.hist.items(), self.cfg.degree, &mut arena);
        self.arena = arena;
        for d in deltas {
            let t = a.block as i64 + d;
            if t >= 0 {
                out.push(t as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vaddr: u64, pc: u64) -> MemRecord {
        MemRecord {
            pc,
            vaddr,
            core: 0,
            is_write: false,
            phase: 0,
            gap: 1,
            dep: false,
        }
    }

    fn stride_trace(n: usize) -> Vec<MemRecord> {
        // Two interleaved strided streams under two PCs: +2 and +5 blocks.
        let mut v = Vec::new();
        for i in 0..n as u64 {
            v.push(rec((1 << 20) + i * 2 * 64, 0x400000));
            v.push(rec((1 << 24) + i * 5 * 64, 0x400100));
        }
        v
    }

    fn quick_cfg() -> (TransFetchConfig, TrainCfg) {
        (
            TransFetchConfig {
                segments: 6,
                dim: 16,
                heads: 2,
                layers: 1,
                delta_range: 15,
                look_forward: 8,
                degree: 3,
                latency: 0,
                threshold: 0.3,
            },
            TrainCfg {
                history: 6,
                max_samples: 300,
                epochs: 5,
                lr: 3e-3,
                seed: 3,
            },
        )
    }

    #[test]
    fn label_mapping_is_a_bijection() {
        let cfg = TransFetchConfig::default();
        let labels = cfg.labels();
        for d in (-cfg.delta_range..=cfg.delta_range).filter(|&d| d != 0) {
            let l = labels.label_of(d).unwrap();
            assert!(l < labels.num_labels());
            assert_eq!(labels.delta_of(l), d);
        }
        assert_eq!(labels.label_of(0), None);
        assert_eq!(labels.label_of(cfg.delta_range + 1), None);
    }

    #[test]
    fn learns_interleaved_strides() {
        let trace = stride_trace(400);
        let (cfg, tc) = quick_cfg();
        let model = TransFetch::train(&trace, cfg, &tc);
        assert!(model.final_loss < 0.3, "loss {}", model.final_loss);
        // From a history ending in the +2 stream, predicted deltas should
        // include small positive values consistent with the interleaving
        // (+2 for self, +5-ish for the other stream re-interleaved, etc.).
        let hist: Vec<(u64, u64)> = trace[100..106].iter().map(|r| (r.block(), r.pc)).collect();
        let deltas = model.predict(&hist, 3, &mut ScratchArena::new());
        assert!(!deltas.is_empty());
        assert!(deltas.iter().all(|&d| d != 0 && d.abs() <= 15));
    }

    #[test]
    fn online_interface_respects_degree() {
        let trace = stride_trace(300);
        let (cfg, tc) = quick_cfg();
        let mut model = TransFetch::train(&trace, cfg, &tc);
        let mut out = Vec::new();
        for r in &trace[..50] {
            out.clear();
            model.on_access(
                &LlcAccess {
                    pc: r.pc,
                    block: r.block(),
                    core: 0,
                    is_write: false,
                    hit: false,
                    cycle: 0,
                },
                &mut out,
            );
            assert!(out.len() <= 3);
        }
    }

    #[test]
    fn param_count_reported() {
        let trace = stride_trace(100);
        let (cfg, tc) = quick_cfg();
        let mut model = TransFetch::train(&trace, cfg, &tc);
        assert!(model.num_params() > 500);
    }
}
