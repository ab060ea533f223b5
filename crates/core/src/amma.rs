//! AMMA — Attention-based network with Multi-Modality Attention fusion
//! (§4.3.2, Figure 7): the backbone of both MPGraph predictors.
//!
//! Architecture, exactly as the paper lays it out:
//!
//! 1. each modality (address features, PC features) is embedded and passed
//!    through its own **self-attention layer** (Eq. 7, attention dim 64 in
//!    Table 5);
//! 2. the per-modality representations are concatenated feature-wise and
//!    fused by the **multi-modality attention fusion** layer (Eq. 8, fusion
//!    dim 128);
//! 3. `L` **Transformer layers** (Eq. 9-10, one layer, 4 heads, dim 128)
//!    refine the fused sequence;
//! 4. the last position's representation is the sequence readout consumed
//!    by the task head (MLP + sigmoid or softmax).
//!
//! Default dimensions here are half of Table 5's (attention 32, fusion 64)
//! so that the full per-phase × per-app training sweeps finish on a CPU in
//! minutes; [`AmmaConfig::paper`] restores the published configuration
//! (used for the Table 8 complexity accounting).

use mpgraph_ml::arena::ScratchArena;
use mpgraph_ml::attention::SelfAttention;
use mpgraph_ml::layers::{Embedding, Linear, Module, Param};
use mpgraph_ml::tensor::Matrix;
use mpgraph_ml::transformer::{readout_backward, readout_batch_in, TransformerLayer};
use rand_chacha::ChaCha8Rng;

/// AMMA dimensions (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmmaConfig {
    /// History length T.
    pub history: usize,
    /// Per-modality attention dimension.
    pub attn_dim: usize,
    /// Fusion / Transformer dimension (2 × attn_dim by construction).
    pub fusion_dim: usize,
    /// Transformer layers L.
    pub layers: usize,
    /// Transformer heads.
    pub heads: usize,
}

impl Default for AmmaConfig {
    fn default() -> Self {
        AmmaConfig {
            history: 9,
            attn_dim: 32,
            fusion_dim: 64,
            layers: 1,
            heads: 4,
        }
    }
}

impl AmmaConfig {
    /// The exact Table 5 configuration.
    pub fn paper() -> Self {
        AmmaConfig {
            history: 9,
            attn_dim: 64,
            fusion_dim: 128,
            layers: 1,
            heads: 4,
        }
    }

    /// A compressed student configuration at `factor`× smaller dims
    /// (knowledge-distillation targets of §6.1).
    pub fn student(attn_dim: usize) -> Self {
        AmmaConfig {
            history: 9,
            attn_dim,
            fusion_dim: 2 * attn_dim,
            layers: 1,
            heads: if 2 * attn_dim >= 4 { 4 } else { 1 },
        }
    }
}

/// One modality's input: a `[T, feat]` matrix.
#[derive(Debug, Clone)]
pub struct ModalInput {
    pub addr: Matrix,
    pub pc: Matrix,
}

/// Feature-wise concatenation `[T, A] ++ [T, B] → [T, A + B]` into an
/// arena buffer: AMMA's fusion input, and the other backbones' modalities.
pub(crate) fn concat_cols_in(a: &Matrix, b: &Matrix, s: &mut ScratchArena) -> Matrix {
    assert_eq!(a.rows, b.rows);
    let mut out = s.take(a.rows, a.cols + b.cols);
    for r in 0..a.rows {
        out.row_mut(r)[..a.cols].copy_from_slice(a.row(r));
        out.row_mut(r)[a.cols..].copy_from_slice(b.row(r));
    }
    out
}

/// The backward of [`concat_cols_in`]: splits a gradient at column `at`.
pub(crate) fn split_cols(d: &Matrix, at: usize) -> (Matrix, Matrix) {
    let mut left = Matrix::zeros(d.rows, at);
    let mut right = Matrix::zeros(d.rows, d.cols - at);
    for r in 0..d.rows {
        left.row_mut(r).copy_from_slice(&d.row(r)[..at]);
        right.row_mut(r).copy_from_slice(&d.row(r)[at..]);
    }
    (left, right)
}

/// The AMMA backbone (feature extractor).
#[derive(Debug, Clone)]
pub struct Amma {
    pub cfg: AmmaConfig,
    embed_addr: Linear,
    embed_pc: Linear,
    attn_addr: SelfAttention,
    attn_pc: SelfAttention,
    /// Multi-modality attention fusion over the concatenated embeddings.
    fusion: SelfAttention,
    trans: Vec<TransformerLayer>,
    /// Optional phase-informed side input (AMMA-PI): one embedding per
    /// phase, added to the fused representation after the MMAF layer.
    phase_embed: Option<Embedding>,
}

impl Amma {
    pub fn new(addr_feats: usize, pc_feats: usize, cfg: AmmaConfig, rng: &mut ChaCha8Rng) -> Self {
        assert_eq!(cfg.fusion_dim, 2 * cfg.attn_dim, "fusion = 2 × attention");
        Amma {
            embed_addr: Linear::new(addr_feats, cfg.attn_dim, rng),
            embed_pc: Linear::new(pc_feats, cfg.attn_dim, rng),
            attn_addr: SelfAttention::new(cfg.attn_dim, cfg.attn_dim, rng),
            attn_pc: SelfAttention::new(cfg.attn_dim, cfg.attn_dim, rng),
            fusion: SelfAttention::new(cfg.fusion_dim, cfg.fusion_dim, rng),
            trans: (0..cfg.layers)
                .map(|_| TransformerLayer::new(cfg.fusion_dim, cfg.heads, rng))
                .collect(),
            phase_embed: None,
            cfg,
        }
    }

    /// Enables the phase-informed variant (AMMA-PI) for `num_phases`.
    pub fn with_phase_embedding(mut self, num_phases: usize, rng: &mut ChaCha8Rng) -> Self {
        self.phase_embed = Some(Embedding::new(num_phases, self.cfg.fusion_dim, rng));
        self
    }

    pub fn is_phase_informed(&self) -> bool {
        self.phase_embed.is_some()
    }

    /// Output dimension of the pooled representation.
    pub fn out_dim(&self) -> usize {
        self.cfg.fusion_dim
    }

    /// The one forward, over `batch` stacked sequences: `x.addr`/`x.pc`
    /// are `[batch * T, F]` with each sequence contiguous. The linear
    /// embeddings, fusion concat, phase broadcast, and transformer FFNs
    /// fuse across the whole stack; self-attention and the positional
    /// encoding stay per-sequence. Residual connections around each
    /// attention keep a direct path from the embeddings to the readout
    /// (gradient flow; standard practice even where Figure 7 leaves it
    /// implicit). The readout is each sequence's last position — with
    /// attention underneath it already aggregates the whole history, where
    /// mean pooling would dilute it — so the final transformer layer
    /// computes only that row (see [`readout_batch_in`]). Returns
    /// `[batch, fusion_dim]` with row `b` bit-identical to the forward on
    /// sequence `b` alone (the whole batch shares one `phase`, which only
    /// the phase-informed variant reads). Single sequences run at
    /// `batch = 1`, allocation-free once the arena is warm; training runs
    /// them on a taping arena, which records for [`Amma::backward`].
    pub fn infer_batch_in(
        &self,
        x: &ModalInput,
        batch: usize,
        phase: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        assert!(
            batch > 0 && x.addr.rows.is_multiple_of(batch),
            "rows must tile by batch"
        );
        let seq = x.addr.rows / batch;
        let mut ea = self.embed_addr.infer_in(&x.addr, s);
        s.add_positional_per_seq(&mut ea, seq);
        let mut ep = self.embed_pc.infer_in(&x.pc, s);
        s.add_positional_per_seq(&mut ep, seq);
        let mut ha = self.attn_addr.infer_batch_in(&ea, batch, seq, s);
        ha.add_assign(&ea);
        s.give(ea);
        let mut hp = self.attn_pc.infer_batch_in(&ep, batch, seq, s);
        hp.add_assign(&ep);
        s.give(ep);
        let fused_in = concat_cols_in(&ha, &hp, s);
        s.give(ha);
        s.give(hp);
        let mut h = self.fusion.infer_batch_in(&fused_in, batch, seq, s);
        h.add_assign(&fused_in);
        s.give(fused_in);
        if let Some(pe) = &self.phase_embed {
            // Same values as adding the repeated-token embedding matrix,
            // without materializing it.
            pe.add_row_broadcast(phase, &mut h, s);
        }
        readout_batch_in(&self.trans, h, batch, s)
    }

    /// Backward from the readout's gradient `[1, fusion_dim]` over a taped
    /// forward of one `seq`-row sequence. Returns the gradients w.r.t. the
    /// two modality inputs `(d_addr, d_pc)` so that upstream embeddings
    /// (the page tokenizer) can train through AMMA. The per-modality
    /// branches pop in reverse of their forward order; they share no
    /// parameter, so every gradient keeps its bits.
    pub fn backward(
        &mut self,
        d_pooled: &Matrix,
        seq: usize,
        s: &mut ScratchArena,
    ) -> (Matrix, Matrix) {
        let dh = readout_backward(&mut self.trans, d_pooled, seq, s);
        if let Some(pe) = &mut self.phase_embed {
            pe.backward(&dh, s);
        }
        // h = fusion(f) + f
        let mut d_fused_in = self.fusion.backward(&dh, s);
        d_fused_in.add_assign(&dh);
        let (d_ha, d_hp) = split_cols(&d_fused_in, self.cfg.attn_dim);
        // hp = attn(ep) + ep, ha = attn(ea) + ea
        let mut d_ep = self.attn_pc.backward(&d_hp, s);
        d_ep.add_assign(&d_hp);
        let mut d_ea = self.attn_addr.backward(&d_ha, s);
        d_ea.add_assign(&d_ha);
        let d_pc = self.embed_pc.backward(&d_ep, s);
        let d_addr = self.embed_addr.backward(&d_ea, s);
        (d_addr, d_pc)
    }
}

impl Module for Amma {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.embed_addr.for_each_param(f);
        self.embed_pc.for_each_param(f);
        self.attn_addr.for_each_param(f);
        self.attn_pc.for_each_param(f);
        self.fusion.for_each_param(f);
        for t in &mut self.trans {
            t.for_each_param(f);
        }
        if let Some(pe) = &mut self.phase_embed {
            pe.for_each_param(f);
        }
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.embed_addr.for_each_param_ref(f);
        self.embed_pc.for_each_param_ref(f);
        self.attn_addr.for_each_param_ref(f);
        self.attn_pc.for_each_param_ref(f);
        self.fusion.for_each_param_ref(f);
        for t in &self.trans {
            t.for_each_param_ref(f);
        }
        if let Some(pe) = &self.phase_embed {
            pe.for_each_param_ref(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgraph_ml::optim::Adam;
    use mpgraph_ml::tensor::rng;

    fn tiny_cfg() -> AmmaConfig {
        AmmaConfig {
            history: 5,
            attn_dim: 8,
            fusion_dim: 16,
            layers: 1,
            heads: 2,
        }
    }

    fn input(seed: u64, rows: usize) -> ModalInput {
        let mut r = rng(seed);
        ModalInput {
            addr: Matrix::xavier(rows, 4, &mut r),
            pc: Matrix::xavier(rows, 1, &mut r),
        }
    }

    /// The forward on one sequence.
    fn infer(amma: &Amma, x: &ModalInput, phase: usize) -> Matrix {
        amma.infer_batch_in(x, 1, phase, &mut ScratchArena::new())
    }

    /// The training forward: one sequence on a taping arena, returned with
    /// the tape for the backward.
    fn taped(amma: &Amma, x: &ModalInput, phase: usize) -> (Matrix, ScratchArena) {
        let mut s = ScratchArena::with_tape();
        let y = amma.infer_batch_in(x, 1, phase, &mut s);
        (y, s)
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng(1);
        let amma = Amma::new(4, 1, tiny_cfg(), &mut r);
        let y = infer(&amma, &input(2, 5), 0);
        assert_eq!((y.rows, y.cols), (1, 16));
        assert_eq!(amma.out_dim(), 16);
    }

    #[test]
    fn arena_infer_is_bit_identical_and_allocation_free() {
        // With no transformer layer the readout gathers the fused rows;
        // otherwise it is the final layer's one-query output. The
        // phase-informed variant exercises the broadcast path too.
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for layers in [0usize, 1, 2] {
            for informed in [false, true] {
                let mut r = rng(11);
                let cfg = AmmaConfig {
                    layers,
                    ..tiny_cfg()
                };
                let mut amma = Amma::new(4, 1, cfg, &mut r);
                if informed {
                    amma = amma.with_phase_embedding(3, &mut r);
                }
                let seqs: Vec<ModalInput> = (0..5u64).map(|i| input(12 + i, 5)).collect();
                let mut s = mpgraph_ml::ScratchArena::new();
                for batch in [1usize, 2, 5] {
                    let stacked = ModalInput {
                        addr: seqs[1..batch]
                            .iter()
                            .fold(seqs[0].addr.clone(), |acc, q| Matrix::vcat(&acc, &q.addr)),
                        pc: seqs[1..batch]
                            .iter()
                            .fold(seqs[0].pc.clone(), |acc, q| Matrix::vcat(&acc, &q.pc)),
                    };
                    for phase in [0usize, 2, 1] {
                        let y = amma.infer_batch_in(&stacked, batch, phase, &mut s);
                        assert_eq!((y.rows, y.cols), (batch, 16));
                        for (b, q) in seqs[..batch].iter().enumerate() {
                            // The training forward (B = 1, taped) is
                            // the reference.
                            assert_eq!(
                                bits(y.row(b)),
                                bits(&taped(&amma, q, phase).0.data),
                                "layers {layers} informed {informed} batch {batch} seq {b} \
                                 phase {phase}"
                            );
                        }
                        s.give(y);
                    }
                }
                let y = amma.infer_batch_in(&seqs[0], 1, 1, &mut s);
                s.give(y);
                let (_, misses_warm) = s.stats();
                for _ in 0..4 {
                    let y = amma.infer_batch_in(&seqs[0], 1, 1, &mut s);
                    s.give(y);
                }
                let (_, misses) = s.stats();
                assert_eq!(
                    misses, misses_warm,
                    "layers {layers} informed {informed}: steady state allocated"
                );
            }
        }
    }

    #[test]
    fn phase_informed_variant_distinguishes_phases() {
        let mut r = rng(5);
        let amma = Amma::new(4, 1, tiny_cfg(), &mut r).with_phase_embedding(2, &mut r);
        let x = input(6, 5);
        let y0 = infer(&amma, &x, 0);
        let y1 = infer(&amma, &x, 1);
        assert!(amma.is_phase_informed());
        let diff: f32 = y0
            .data
            .iter()
            .zip(y1.data.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "phase embedding has no effect");
    }

    #[test]
    fn plain_variant_ignores_phase_argument() {
        let mut r = rng(6);
        let amma = Amma::new(4, 1, tiny_cfg(), &mut r);
        let x = input(7, 5);
        assert_eq!(infer(&amma, &x, 0), infer(&amma, &x, 1));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut r = rng(7);
        let mut amma = Amma::new(4, 1, tiny_cfg(), &mut r).with_phase_embedding(2, &mut r);
        let x = input(8, 4);
        let w = Matrix::xavier(1, 16, &mut r);
        let (_y, mut s) = taped(&amma, &x, 1);
        amma.backward(&w, 4, &mut s);
        assert_eq!(s.tape_len(), 0, "the backward pops every record");
        // Check one embed_addr weight gradient numerically.
        let eps = 1e-2f32;
        let analytic = amma.embed_addr.w.g.at(1, 2);
        let loss = |m: &Amma| -> f32 {
            infer(m, &x, 1)
                .data
                .iter()
                .zip(w.data.iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let mut p = amma.clone();
        *p.embed_addr.w.w.at_mut(1, 2) += eps;
        let mut m = amma.clone();
        *m.embed_addr.w.w.at_mut(1, 2) -= eps;
        let num = (loss(&p) - loss(&m)) / (2.0 * eps);
        assert!(
            (num - analytic).abs() < 5e-2,
            "numeric {num} vs analytic {analytic}"
        );
    }

    #[test]
    fn amma_trains_to_separate_two_patterns() {
        // Binary task: pooled→linear→which of two synthetic input patterns.
        let mut r = rng(8);
        let mut amma = Amma::new(2, 1, tiny_cfg(), &mut r);
        let mut head = mpgraph_ml::layers::Linear::new(16, 2, &mut r);
        let mut opt = Adam::new(5e-3);
        let make = |class: usize, jitter: f32| -> ModalInput {
            let rows = 5;
            let mut addr = Matrix::zeros(rows, 2);
            for t in 0..rows {
                addr.data[t * 2] = if class == 0 {
                    t as f32 / 5.0
                } else {
                    1.0 - t as f32 / 5.0
                };
                addr.data[t * 2 + 1] = jitter;
            }
            ModalInput {
                addr,
                pc: Matrix::zeros(rows, 1),
            }
        };
        let mut s = ScratchArena::with_tape();
        for step in 0..300 {
            let class = step % 2;
            let x = make(class, (step % 7) as f32 * 0.01);
            let pooled = amma.infer_batch_in(&x, 1, 0, &mut s);
            let logits = head.infer_in(&pooled, &mut s);
            s.give(pooled);
            let (_, d) = mpgraph_ml::loss::softmax_cross_entropy(&logits, &[class]);
            s.give(logits);
            let dp = head.backward(&d, &mut s);
            amma.backward(&dp, 5, &mut s);
            opt.step(&mut amma);
            opt.step(&mut head);
        }
        // Both patterns classified correctly.
        for class in 0..2 {
            let x = make(class, 0.02);
            let logits = head.infer_in(&infer(&amma, &x, 0), &mut ScratchArena::new());
            let pred = if logits.data[0] > logits.data[1] {
                0
            } else {
                1
            };
            assert_eq!(pred, class, "misclassified pattern {class}");
        }
    }

    #[test]
    fn paper_config_dimensions() {
        let cfg = AmmaConfig::paper();
        assert_eq!(cfg.history, 9);
        assert_eq!(cfg.attn_dim, 64);
        assert_eq!(cfg.fusion_dim, 128);
        assert_eq!(cfg.layers, 1);
        assert_eq!(cfg.heads, 4);
    }

    #[test]
    fn student_config_scales_down() {
        let s = AmmaConfig::student(4);
        assert_eq!(s.fusion_dim, 8);
        let mut r = rng(9);
        let big = Amma::new(4, 1, AmmaConfig::paper(), &mut r);
        let small = Amma::new(4, 1, s, &mut r);
        assert!(big.num_params() > 20 * small.num_params());
    }

    #[test]
    #[should_panic(expected = "fusion = 2")]
    fn inconsistent_dims_panic() {
        let mut r = rng(10);
        let _ = Amma::new(
            4,
            1,
            AmmaConfig {
                history: 5,
                attn_dim: 8,
                fusion_dim: 20,
                layers: 1,
                heads: 2,
            },
            &mut r,
        );
    }
}
