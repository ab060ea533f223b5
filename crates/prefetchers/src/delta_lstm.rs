//! Delta-LSTM prefetcher (Hashemi et al., "Learning Memory Access
//! Patterns", 2018): an embedding-LSTM-softmax model over the block-delta
//! stream. Trained offline on the first iteration of the trace, then run
//! online as an LLC prefetcher — the weakest ML baseline of Figures 10-12.

use crate::mlcommon::{sample_starts, DeltaVocab, History};
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::guard::{fit, Trainable};
use mpgraph_ml::layers::{Embedding, Linear, Module};
use mpgraph_ml::loss::softmax_cross_entropy;
use mpgraph_ml::lstm::Lstm;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;
use mpgraph_sim::{LlcAccess, Prefetcher};

/// Shared training hyper-parameters for all ML prefetchers in this crate.
#[derive(Debug, Clone, Copy)]
pub struct TrainCfg {
    /// History length T (paper: 9).
    pub history: usize,
    /// Max training samples drawn from the trace.
    pub max_samples: usize,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for TrainCfg {
    fn default() -> Self {
        TrainCfg {
            history: 9,
            max_samples: 4000,
            epochs: 3,
            lr: 2e-3,
            seed: 42,
        }
    }
}

/// Model dimensions. The paper's Delta-LSTM uses hidden 256; we default to
/// 64 to keep full-matrix CPU training inside the experiment time budget
/// (documented scaling in DESIGN.md §5) — capacity ordering between the
/// baselines is preserved.
#[derive(Debug, Clone, Copy)]
pub struct DeltaLstmConfig {
    pub vocab: usize,
    pub embed_dim: usize,
    pub hidden: usize,
    pub degree: usize,
    /// Model-inference latency injected by the simulator (Eq. 12 scale).
    pub latency: u64,
    /// Minimum softmax probability for a delta to be prefetched; gates the
    /// low-confidence tail that would otherwise pollute the cache.
    pub threshold: f32,
}

impl Default for DeltaLstmConfig {
    fn default() -> Self {
        DeltaLstmConfig {
            vocab: 129,
            embed_dim: 16,
            hidden: 64,
            degree: 6,
            latency: 0,
            threshold: 0.10,
        }
    }
}

/// The trained Delta-LSTM prefetcher.
pub struct DeltaLstm {
    cfg: DeltaLstmConfig,
    vocab: DeltaVocab,
    embed: Embedding,
    lstm: Lstm,
    head: Linear,
    hist: History<usize>,
    last_block: Option<u64>,
    /// Final training loss, for tests/reporting.
    pub final_loss: f32,
}

impl Trainable for DeltaLstm {
    fn parts(&mut self) -> Vec<&mut dyn Module> {
        vec![&mut self.embed, &mut self.lstm, &mut self.head]
    }
}

impl DeltaLstm {
    /// Trains on `records` (typically the first framework iteration).
    pub fn train(records: &[MemRecord], cfg: DeltaLstmConfig, tc: &TrainCfg) -> Self {
        let vocab = DeltaVocab::build(records, cfg.vocab);
        // Delta-class stream.
        let deltas: Vec<usize> = records
            .windows(2)
            .map(|w| vocab.class_of(w[1].block() as i64 - w[0].block() as i64))
            .collect();
        let mut r = rng(tc.seed);
        let mut model = DeltaLstm {
            cfg,
            vocab,
            embed: Embedding::new(cfg.vocab, cfg.embed_dim, &mut r),
            lstm: Lstm::new(cfg.embed_dim, cfg.hidden, &mut r),
            head: Linear::new(cfg.hidden, cfg.vocab, &mut r),
            hist: History::new(tc.history),
            last_block: None,
            final_loss: f32::NAN,
        };
        let t = tc.history;
        let starts = sample_starts(
            deltas.len(),
            t,
            deltas.len().saturating_sub(t + 1),
            tc.max_samples,
        );
        let report = fit(&mut model, &starts, tc.epochs, tc.lr, |m, &i| {
            let x = m.embed.forward(&deltas[i..i + t]);
            let h = m.lstm.forward(&x);
            let last = Matrix::from_vec(1, h.cols, h.row(h.rows - 1).to_vec());
            let logits = m.head.forward(&last);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &[deltas[i + t]]);
            let dlast = m.head.backward(&dlogits);
            let mut dh = Matrix::zeros(h.rows, h.cols);
            dh.row_mut(h.rows - 1).copy_from_slice(dlast.row(0));
            let dx = m.lstm.backward(&dh);
            m.embed.backward(&dx);
            loss
        });
        model.final_loss = report.mean_loss();
        model
    }

    /// Predicted top-`k` delta classes (with softmax probability above the
    /// confidence threshold) for a delta-class history.
    fn predict(&self, hist: &[usize], k: usize) -> Vec<usize> {
        let s = &mut ScratchArena::new();
        let x = self.embed.infer_in(hist, s);
        let h = self.lstm.infer_batch_in(&x, 1, s);
        let last = s.take_trailing_rows(&h, 1, 1);
        let mut probs = self.head.infer_in(&last, s);
        probs.softmax_rows_inplace();
        mpgraph_ml::metrics::top_k_indices(probs.row(0), k)
            .into_iter()
            .filter(|&c| probs.data[c] >= self.cfg_threshold())
            .collect()
    }

    #[inline]
    fn cfg_threshold(&self) -> f32 {
        self.cfg.threshold
    }

    /// Total trainable parameters (Table 8).
    pub fn num_params(&mut self) -> usize {
        self.embed.num_params() + self.lstm.num_params() + self.head.num_params()
    }
}

impl Prefetcher for DeltaLstm {
    fn name(&self) -> String {
        "Delta-LSTM".into()
    }

    fn latency(&self) -> u64 {
        self.cfg.latency
    }

    fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
        if let Some(prev) = self.last_block {
            let d = a.block as i64 - prev as i64;
            self.hist.push(self.vocab.class_of(d));
        }
        self.last_block = Some(a.block);
        if !self.hist.is_full() {
            return;
        }
        // Top classes, skipping the OOV bucket; chain the best delta to
        // reach the requested degree.
        let picks = self.predict(self.hist.items(), self.cfg.degree + 1);
        let mut issued = 0usize;
        for &cls in &picks {
            let Some(delta) = self.vocab.delta_of(cls) else {
                continue;
            };
            let t = a.block as i64 + delta;
            if t >= 0 {
                out.push(t as u64);
                issued += 1;
            }
            if issued >= self.cfg.degree {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vaddr: u64) -> MemRecord {
        MemRecord {
            pc: 0x400000,
            vaddr,
            core: 0,
            is_write: false,
            phase: 0,
            gap: 1,
            dep: false,
        }
    }

    /// Repeating delta pattern +1, +1, +3 (blocks).
    fn patterned_trace(n: usize) -> Vec<MemRecord> {
        let mut addr = 1 << 20;
        let mut v = vec![rec(addr)];
        for i in 0..n {
            let d = [1i64, 1, 3][i % 3];
            addr = (addr as i64 + d * 64) as u64;
            v.push(rec(addr));
        }
        v
    }

    fn quick_cfg() -> (DeltaLstmConfig, TrainCfg) {
        (
            DeltaLstmConfig {
                vocab: 17,
                embed_dim: 8,
                hidden: 16,
                degree: 2,
                latency: 0,
                threshold: 0.05,
            },
            TrainCfg {
                history: 6,
                max_samples: 400,
                epochs: 4,
                lr: 5e-3,
                seed: 1,
            },
        )
    }

    #[test]
    fn learns_a_repeating_delta_pattern() {
        let trace = patterned_trace(600);
        let (cfg, tc) = quick_cfg();
        let model = DeltaLstm::train(&trace, cfg, &tc);
        assert!(model.final_loss < 0.5, "loss {}", model.final_loss);
        // Predict from a known history: after deltas [...,1,1,3,1,1] the
        // next delta is 3 (pattern position).
        let v = &model.vocab;
        let hist: Vec<usize> = [3i64, 1, 1, 3, 1, 1]
            .iter()
            .map(|&d| v.class_of(d))
            .collect();
        let picks = model.predict(&hist, 1);
        assert_eq!(v.delta_of(picks[0]), Some(3));
    }

    #[test]
    fn prefetches_follow_prediction() {
        let trace = patterned_trace(600);
        let (cfg, tc) = quick_cfg();
        let mut model = DeltaLstm::train(&trace, cfg, &tc);
        let mut out = Vec::new();
        // Replay part of the trace through the online interface.
        for r in &trace[..40] {
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
        }
        assert!(!out.is_empty());
        assert!(out.len() <= 2);
        // Predictions are near the current block (deltas are small).
        let cur = trace[39].block();
        assert!(out.iter().all(|&b| (b as i64 - cur as i64).abs() <= 16));
    }

    #[test]
    fn param_count_positive_and_reported() {
        let trace = patterned_trace(200);
        let (cfg, tc) = quick_cfg();
        let mut model = DeltaLstm::train(&trace, cfg, &tc);
        // embedding 17×8 + lstm (8×64 + 16×64 + 64) + head (16×17 + 17)
        assert_eq!(
            model.num_params(),
            17 * 8 + (8 * 64 + 16 * 64 + 64) + (16 * 17 + 17)
        );
    }
}
