//! Voyager (Shi et al., ASPLOS 2021): a hierarchical neural prefetcher with
//! two cooperating models — a *page* model over the page-token sequence and
//! an *offset* model that attends to the page model's hidden states with
//! dot-product attention — predicting the next (page, offset) pair
//! temporally. The strongest ML baseline on X-Stream/PowerGraph in
//! Figure 12.
//!
//! Histories are kept *per core* (the LLC knows the requesting CPU in
//! ChampSim): without this, the 4-way interleaved LLC stream makes the
//! next-page distribution near-uniform and the temporal model cannot learn
//! — the same interleaving pathology the paper describes for ISB.

use crate::delta_lstm::TrainCfg;
use crate::mlcommon::{per_core_streams, round_robin_windows, History, PageVocab};
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::guard::{fit, Trainable};
use mpgraph_ml::layers::{Embedding, Linear, Module};
use mpgraph_ml::loss::softmax_cross_entropy;
use mpgraph_ml::lstm::Lstm;
use mpgraph_ml::metrics::top_k_indices;
use mpgraph_ml::tensor::{rng, Matrix};
use mpgraph_ml::ScratchArena;
use mpgraph_sim::{LlcAccess, Prefetcher, BLOCK_BITS};

/// Voyager model dimensions (scaled-down per DESIGN.md §5).
#[derive(Debug, Clone, Copy)]
pub struct VoyagerConfig {
    pub page_vocab: usize,
    pub page_embed: usize,
    pub offset_embed: usize,
    pub hidden: usize,
    pub degree: usize,
    pub latency: u64,
}

impl Default for VoyagerConfig {
    fn default() -> Self {
        VoyagerConfig {
            page_vocab: 512,
            page_embed: 16,
            offset_embed: 8,
            hidden: 64,
            degree: 6,
            latency: 0,
        }
    }
}

/// The trained Voyager prefetcher.
pub struct Voyager {
    cfg: VoyagerConfig,
    vocab: PageVocab,
    page_embed: Embedding,
    offset_embed: Embedding,
    page_lstm: Lstm,
    offset_lstm: Lstm,
    page_head: Linear,
    /// Offset head input: [offset hidden ; attention context over page
    /// hidden states] — the dot-product attention coupling.
    offset_head: Linear,
    /// Per-core (page token, offset) histories.
    hists: Vec<History<(usize, usize)>>,
    pub final_loss: f32,
}

/// Cores tracked by the per-core histories.
const MAX_CORES: usize = 8;

impl Trainable for Voyager {
    fn parts(&mut self) -> Vec<&mut dyn Module> {
        vec![
            &mut self.page_embed,
            &mut self.offset_embed,
            &mut self.page_lstm,
            &mut self.offset_lstm,
            &mut self.page_head,
            &mut self.offset_head,
        ]
    }
}

impl Voyager {
    pub fn train(records: &[MemRecord], cfg: VoyagerConfig, tc: &TrainCfg) -> Self {
        let vocab = PageVocab::build(records, cfg.page_vocab);
        // Per-core subsequences: the temporal patterns live within a
        // core's own stream, not in the interleaved aggregate, and windows
        // never straddle cores.
        let t = tc.history;
        let seqs = per_core_streams(records, t, |rc| {
            (vocab.token_of(rc.page()), rc.page_offset() as usize)
        });
        let windows = round_robin_windows(&seqs, t, tc.max_samples);
        let mut r = rng(tc.seed ^ 0x70A6E5);
        let mut model = Voyager {
            cfg,
            vocab,
            page_embed: Embedding::new(cfg.page_vocab, cfg.page_embed, &mut r),
            offset_embed: Embedding::new(64, cfg.offset_embed, &mut r),
            page_lstm: Lstm::new(cfg.page_embed, cfg.hidden, &mut r),
            offset_lstm: Lstm::new(cfg.offset_embed, cfg.hidden, &mut r),
            page_head: Linear::new(cfg.hidden, cfg.page_vocab, &mut r),
            offset_head: Linear::new(2 * cfg.hidden, 64, &mut r),
            hists: (0..MAX_CORES).map(|_| History::new(tc.history)).collect(),
            final_loss: f32::NAN,
        };
        let report = fit(&mut model, &windows, tc.epochs, tc.lr, |m, &(s, i)| {
            m.train_step(&seqs[s][i..=i + t])
        });
        model.final_loss = report.mean_loss();
        model
    }

    /// One training sample: the (page token, offset) window `w[..t]`
    /// against its successor `w[t]`. Returns the page plus offset loss.
    fn train_step(&mut self, w: &[(usize, usize)]) -> f32 {
        let t = w.len() - 1;
        let hidden = self.cfg.hidden;
        let (tp, to) = w[t];
        let ptoks: Vec<usize> = w[..t].iter().map(|&(p, _)| p).collect();
        let otoks: Vec<usize> = w[..t].iter().map(|&(_, o)| o).collect();

        // ---- forward ----
        let pe = self.page_embed.forward(&ptoks);
        let ph = self.page_lstm.forward(&pe); // [T, H]
        let oe = self.offset_embed.forward(&otoks);
        let oh = self.offset_lstm.forward(&oe); // [T, H]
        let p_last = Matrix::from_vec(1, ph.cols, ph.row(t - 1).to_vec());
        let o_last = Matrix::from_vec(1, oh.cols, oh.row(t - 1).to_vec());
        // Dot-product attention: query = offset hidden, keys/values
        // = page hidden states.
        let mut scores = ph.matmul_bt(&o_last).transpose(); // [1, T]
        scores.scale(1.0 / (hidden as f32).sqrt());
        let attn = scores.softmax_rows(); // [1, T]
        let ctx = attn.matmul(&ph); // [1, H]
        let offset_in = {
            let mut v = o_last.data.clone();
            v.extend_from_slice(&ctx.data);
            Matrix::from_vec(1, 2 * hidden, v)
        };
        let p_logits = self.page_head.forward(&p_last);
        let o_logits = self.offset_head.forward(&offset_in);
        let (pl, dp) = softmax_cross_entropy(&p_logits, &[tp]);
        let (ol, dol) = softmax_cross_entropy(&o_logits, &[to]);

        // ---- backward ----
        // Page head path.
        let dp_last = self.page_head.backward(&dp);
        // Offset head path.
        let d_off_in = self.offset_head.backward(&dol);
        let d_o_last_head = Matrix::from_vec(1, hidden, d_off_in.data[..hidden].to_vec());
        let d_ctx = Matrix::from_vec(1, hidden, d_off_in.data[hidden..].to_vec());
        // ctx = attn @ ph
        let d_attn = d_ctx.matmul_bt(&ph); // [1, T]
                                           // attn^T [T,1] @ d_ctx [1,H] → [T,H]
        let d_ph_from_ctx = attn.matmul_at(&d_ctx);
        let mut d_scores = Matrix::softmax_rows_backward(&attn, &d_attn);
        d_scores.scale(1.0 / (hidden as f32).sqrt());
        // scores[0, j] = ph[j] · o_last
        let d_ph_from_scores = d_scores.transpose().matmul(&o_last); // [T, H]
        let d_o_last_attn = d_scores.matmul(&ph); // [1, H]
                                                  // Accumulate page-LSTM output grads.
        let mut d_ph = d_ph_from_ctx;
        d_ph.add_assign(&d_ph_from_scores);
        d_ph.row_mut(t - 1)
            .iter_mut()
            .zip(dp_last.row(0).iter())
            .for_each(|(a, &b)| *a += b);
        // Offset-LSTM output grads.
        let mut d_oh = Matrix::zeros(t, hidden);
        d_oh.row_mut(t - 1)
            .iter_mut()
            .zip(d_o_last_head.row(0).iter().zip(d_o_last_attn.row(0).iter()))
            .for_each(|(a, (&b, &c))| *a = b + c);
        let d_pe = self.page_lstm.backward(&d_ph);
        let d_oe = self.offset_lstm.backward(&d_oh);
        self.page_embed.backward(&d_pe);
        self.offset_embed.backward(&d_oe);
        pl + ol
    }

    /// Inference: top page tokens and top offsets for the current history.
    fn predict(
        &self,
        hist: &[(usize, usize)],
        pages_k: usize,
        offs_k: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let t = hist.len();
        let ptoks: Vec<usize> = hist.iter().map(|&(p, _)| p).collect();
        let otoks: Vec<usize> = hist.iter().map(|&(_, o)| o).collect();
        let s = &mut ScratchArena::new();
        let pe = self.page_embed.infer_in(&ptoks, s);
        let ph = self.page_lstm.infer_batch_in(&pe, 1, s);
        let oe = self.offset_embed.infer_in(&otoks, s);
        let oh = self.offset_lstm.infer_batch_in(&oe, 1, s);
        let p_last = Matrix::from_vec(1, ph.cols, ph.row(t - 1).to_vec());
        let o_last = Matrix::from_vec(1, oh.cols, oh.row(t - 1).to_vec());
        let mut scores = ph.matmul_bt(&o_last).transpose();
        scores.scale(1.0 / (self.cfg.hidden as f32).sqrt());
        let attn = scores.softmax_rows();
        let ctx = attn.matmul(&ph);
        let mut v = o_last.data.clone();
        v.extend_from_slice(&ctx.data);
        let offset_in = Matrix::from_vec(1, 2 * self.cfg.hidden, v);
        let p_logits = self.page_head.infer_in(&p_last, s);
        let o_logits = self.offset_head.infer_in(&offset_in, s);
        (
            top_k_indices(p_logits.row(0), pages_k),
            top_k_indices(o_logits.row(0), offs_k),
        )
    }

    pub fn num_params(&mut self) -> usize {
        self.page_embed.num_params()
            + self.offset_embed.num_params()
            + self.page_lstm.num_params()
            + self.offset_lstm.num_params()
            + self.page_head.num_params()
            + self.offset_head.num_params()
    }
}

impl Prefetcher for Voyager {
    fn name(&self) -> String {
        "Voyager".into()
    }

    fn latency(&self) -> u64 {
        self.cfg.latency
    }

    fn on_access(&mut self, a: &LlcAccess, out: &mut Vec<u64>) {
        let hist = &mut self.hists[(a.core as usize) % MAX_CORES];
        hist.push((self.vocab.token_of(a.page()), a.offset() as usize));
        if !hist.is_full() {
            return;
        }
        let items: Vec<(usize, usize)> = hist.items().to_vec();
        // Degree 6 as 2 pages × 3 offsets (plus OOV skips).
        let (pages, offs) = self.predict(&items, 3, 3);
        let mut issued = 0usize;
        'outer: for &pt in &pages {
            let Some(page) = self.vocab.page_of(pt) else {
                continue;
            };
            for &o in &offs {
                out.push((page << BLOCK_BITS) | o as u64);
                issued += 1;
                if issued >= self.cfg.degree {
                    break 'outer;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(page: u64, offset: u64) -> MemRecord {
        MemRecord {
            pc: 0x400000,
            vaddr: page * 4096 + offset * 64,
            core: 0,
            is_write: false,
            phase: 0,
            gap: 1,
            dep: false,
        }
    }

    /// Cyclic page pattern 10→11→17→10… with fixed offsets per page.
    fn cyclic_trace(n: usize) -> Vec<MemRecord> {
        let pat = [(10u64, 5u64), (11, 9), (17, 33)];
        (0..n).map(|i| rec(pat[i % 3].0, pat[i % 3].1)).collect()
    }

    fn quick_cfg() -> (VoyagerConfig, TrainCfg) {
        (
            VoyagerConfig {
                page_vocab: 32,
                page_embed: 8,
                offset_embed: 4,
                hidden: 16,
                degree: 4,
                latency: 0,
            },
            TrainCfg {
                history: 6,
                max_samples: 300,
                epochs: 4,
                lr: 5e-3,
                seed: 2,
            },
        )
    }

    #[test]
    fn learns_cyclic_page_pattern() {
        let trace = cyclic_trace(600);
        let (cfg, tc) = quick_cfg();
        let model = Voyager::train(&trace, cfg, &tc);
        assert!(model.final_loss < 1.0, "loss {}", model.final_loss);
        // History ending at page 17 → next page 10, offset 5.
        let v = &model.vocab;
        let hist: Vec<(usize, usize)> = [
            (10u64, 5usize),
            (11, 9),
            (17, 33),
            (10, 5),
            (11, 9),
            (17, 33),
        ]
        .iter()
        .map(|&(p, o)| (v.token_of(p), o))
        .collect();
        let (pages, offs) = model.predict(&hist, 1, 1);
        assert_eq!(v.page_of(pages[0]), Some(10));
        assert_eq!(offs[0], 5);
    }

    #[test]
    fn online_interface_emits_bounded_prefetches() {
        let trace = cyclic_trace(400);
        let (cfg, tc) = quick_cfg();
        let mut model = Voyager::train(&trace, cfg, &tc);
        let mut out = Vec::new();
        for r in &trace[..30] {
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
        assert!(out.len() <= 4);
    }

    #[test]
    fn param_count_reported() {
        let trace = cyclic_trace(200);
        let (cfg, tc) = quick_cfg();
        let mut model = Voyager::train(&trace, cfg, &tc);
        assert!(model.num_params() > 1000);
    }
}
