//! Unified sequence-model backbone used by the Table 6/7 comparisons: the
//! same predictor heads can run on an LSTM (the Hashemi-style baseline row),
//! a vanilla attention stack (the TransFetch-style row), or AMMA — so the
//! only difference measured is exactly what the paper varies.

use crate::amma::{Amma, AmmaConfig, ModalInput};
use mpgraph_ml::arena::ScratchArena;
use mpgraph_ml::layers::{Linear, Module, Param};
use mpgraph_ml::lstm::Lstm;
use mpgraph_ml::tensor::Matrix;
use mpgraph_ml::transformer::{readout_batch_in, TransformerLayer};
use rand_chacha::ChaCha8Rng;

/// Which sequence model extracts features.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackboneKind {
    /// Concatenated-modality LSTM (Tables 6-7 "LSTM" row; hidden = fusion
    /// dim for parameter parity).
    Lstm,
    /// Vanilla Transformer over concatenated modalities with the PC as
    /// plain side features (Tables 6-7 "Attention" row; 2 layers).
    Attention,
    /// The paper's multi-modality attention fusion network.
    Amma,
}

impl BackboneKind {
    pub fn name(&self) -> &'static str {
        match self {
            BackboneKind::Lstm => "LSTM",
            BackboneKind::Attention => "Attention",
            BackboneKind::Amma => "AMMA",
        }
    }
}

/// A backbone instance. All variants map a [`ModalInput`] (addr features
/// `[T, Fa]`, pc features `[T, Fp]`) to a pooled `[1, out_dim]` vector.
#[derive(Debug, Clone)]
pub enum Backbone {
    Lstm {
        lstm: Lstm,
        cache_rows: usize,
        pc_feats: usize,
    },
    Attention {
        proj: Linear,
        layers: Vec<TransformerLayer>,
        dim: usize,
        cache_rows: usize,
        pc_feats: usize,
    },
    Amma(Box<Amma>),
}

impl Backbone {
    pub fn new(
        kind: BackboneKind,
        addr_feats: usize,
        pc_feats: usize,
        cfg: AmmaConfig,
        rng: &mut ChaCha8Rng,
    ) -> Self {
        match kind {
            BackboneKind::Lstm => Backbone::Lstm {
                lstm: Lstm::new(addr_feats + pc_feats, cfg.fusion_dim, rng),
                cache_rows: 0,
                pc_feats,
            },
            BackboneKind::Attention => Backbone::Attention {
                proj: Linear::new(addr_feats + pc_feats, cfg.fusion_dim, rng),
                layers: (0..2)
                    .map(|_| TransformerLayer::new(cfg.fusion_dim, cfg.heads, rng))
                    .collect(),
                dim: cfg.fusion_dim,
                cache_rows: 0,
                pc_feats,
            },
            BackboneKind::Amma => {
                Backbone::Amma(Box::new(Amma::new(addr_feats, pc_feats, cfg, rng)))
            }
        }
    }

    /// Enables phase-informed mode (only meaningful for AMMA).
    pub fn with_phase_embedding(self, num_phases: usize, rng: &mut ChaCha8Rng) -> Self {
        match self {
            Backbone::Amma(a) => Backbone::Amma(Box::new(a.with_phase_embedding(num_phases, rng))),
            other => other,
        }
    }

    pub fn out_dim(&self) -> usize {
        match self {
            Backbone::Lstm { lstm, .. } => lstm.hidden_dim(),
            Backbone::Attention { dim, .. } => *dim,
            Backbone::Amma(a) => a.out_dim(),
        }
    }

    fn concat(x: &ModalInput) -> Matrix {
        let rows = x.addr.rows;
        let mut out = Matrix::zeros(rows, x.addr.cols + x.pc.cols);
        for r in 0..rows {
            out.row_mut(r)[..x.addr.cols].copy_from_slice(x.addr.row(r));
            out.row_mut(r)[x.addr.cols..].copy_from_slice(x.pc.row(r));
        }
        out
    }

    pub fn forward(&mut self, x: &ModalInput, phase: usize) -> Matrix {
        match self {
            Backbone::Lstm {
                lstm, cache_rows, ..
            } => {
                *cache_rows = x.addr.rows;
                let h = lstm.forward(&Self::concat(x));
                Matrix::from_vec(1, h.cols, h.row(h.rows - 1).to_vec())
            }
            Backbone::Attention {
                proj,
                layers,
                cache_rows,
                ..
            } => {
                *cache_rows = x.addr.rows;
                let mut h = proj.forward(&Self::concat(x));
                h.add_assign(&mpgraph_ml::tensor::positional_encoding(h.rows, h.cols));
                for l in layers.iter_mut() {
                    h = l.forward(&h);
                }
                Matrix::from_vec(1, h.cols, h.row(h.rows - 1).to_vec())
            }
            Backbone::Amma(a) => a.forward(x, phase),
        }
    }

    /// Batched inference: `x` stacks `batch` sequences (`[batch * T, F]`
    /// per modality, each sequence contiguous); returns `[batch, out_dim]`
    /// with row `b` bit-identical to the training [`Backbone::forward`] on
    /// sequence `b` alone. The whole batch shares one `phase`. The
    /// attention kinds' final transformer layer computes only the readout
    /// row of each sequence; the LSTM gathers it. This is the only
    /// inference forward: single sequences run at `batch = 1`,
    /// allocation-free for every kind once the arena is warm.
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
        match self {
            Backbone::Lstm { lstm, .. } => {
                let cat = Self::concat_in(x, s);
                let h = lstm.infer_batch_in(&cat, batch, s);
                s.give(cat);
                let pooled = s.take_trailing_rows(&h, batch, 1);
                s.give(h);
                pooled
            }
            Backbone::Attention { proj, layers, .. } => {
                let cat = Self::concat_in(x, s);
                let mut h = proj.infer_in(&cat, s);
                s.give(cat);
                s.add_positional_per_seq(&mut h, seq);
                readout_batch_in(layers, h, batch, s)
            }
            Backbone::Amma(a) => a.infer_batch_in(x, batch, phase, s),
        }
    }

    fn concat_in(x: &ModalInput, s: &mut ScratchArena) -> Matrix {
        let rows = x.addr.rows;
        let mut out = s.take(rows, x.addr.cols + x.pc.cols);
        for r in 0..rows {
            out.row_mut(r)[..x.addr.cols].copy_from_slice(x.addr.row(r));
            out.row_mut(r)[x.addr.cols..].copy_from_slice(x.pc.row(r));
        }
        out
    }

    /// Backward pass; returns gradients w.r.t. the modality inputs
    /// `(d_addr, d_pc)` so upstream embeddings can train.
    pub fn backward(&mut self, d_out: &Matrix) -> (Matrix, Matrix) {
        match self {
            Backbone::Lstm {
                lstm,
                cache_rows,
                pc_feats,
                ..
            } => {
                let rows = *cache_rows;
                let mut dh = Matrix::zeros(rows, d_out.cols);
                dh.row_mut(rows - 1).copy_from_slice(d_out.row(0));
                let dx = lstm.backward(&dh);
                Self::split_concat(&dx, *pc_feats)
            }
            Backbone::Attention {
                proj,
                layers,
                cache_rows,
                dim,
                pc_feats,
                ..
            } => {
                let rows = *cache_rows;
                let mut dh = Matrix::zeros(rows, *dim);
                dh.row_mut(rows - 1).copy_from_slice(d_out.row(0));
                for l in layers.iter_mut().rev() {
                    dh = l.backward(&dh);
                }
                let dx = proj.backward(&dh);
                Self::split_concat(&dx, *pc_feats)
            }
            Backbone::Amma(a) => a.backward(d_out),
        }
    }

    /// Splits a concatenated-input gradient back into (addr, pc) parts;
    /// the pc modality occupies the trailing `pc_cols` columns.
    fn split_concat(dx: &Matrix, pc_cols: usize) -> (Matrix, Matrix) {
        let a_cols = dx.cols - pc_cols;
        let mut da = Matrix::zeros(dx.rows, a_cols);
        let mut dp = Matrix::zeros(dx.rows, pc_cols);
        for r in 0..dx.rows {
            da.row_mut(r).copy_from_slice(&dx.row(r)[..a_cols]);
            dp.row_mut(r).copy_from_slice(&dx.row(r)[a_cols..]);
        }
        (da, dp)
    }
}

impl Module for Backbone {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Backbone::Lstm { lstm, .. } => lstm.for_each_param(f),
            Backbone::Attention { proj, layers, .. } => {
                proj.for_each_param(f);
                for l in layers {
                    l.for_each_param(f);
                }
            }
            Backbone::Amma(a) => a.for_each_param(f),
        }
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        match self {
            Backbone::Lstm { lstm, .. } => lstm.for_each_param_ref(f),
            Backbone::Attention { proj, layers, .. } => {
                proj.for_each_param_ref(f);
                for l in layers {
                    l.for_each_param_ref(f);
                }
            }
            Backbone::Amma(a) => a.for_each_param_ref(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpgraph_ml::tensor::rng;

    fn tiny_cfg() -> AmmaConfig {
        AmmaConfig {
            history: 4,
            attn_dim: 8,
            fusion_dim: 16,
            layers: 1,
            heads: 2,
        }
    }

    const KINDS: [BackboneKind; 3] = [
        BackboneKind::Lstm,
        BackboneKind::Attention,
        BackboneKind::Amma,
    ];

    fn input(seed: u64) -> ModalInput {
        let mut r = rng(seed);
        ModalInput {
            addr: Matrix::xavier(4, 3, &mut r),
            pc: Matrix::xavier(4, 1, &mut r),
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn all_kinds_produce_same_shape() {
        let mut r = rng(1);
        for kind in KINDS {
            let mut b = Backbone::new(kind, 3, 1, tiny_cfg(), &mut r);
            let y = b.forward(&input(2), 0);
            assert_eq!((y.rows, y.cols), (1, 16), "{}", kind.name());
            assert_eq!(b.out_dim(), 16);
            let y2 = b.infer_batch_in(&input(2), 1, 0, &mut ScratchArena::new());
            assert_eq!(bits(&y.data), bits(&y2.data), "{}", kind.name());
        }
    }

    #[test]
    fn batched_inference_is_bit_identical_per_sequence() {
        let mut r = rng(7);
        // AMMA at 0, 1 and 2 transformer layers (the other kinds ignore
        // the count), each with and without the phase embedding (AMMA-PI
        // exercises the broadcast path).
        for kind in KINDS {
            for layers in [0usize, 1, 2] {
                for informed in [false, true] {
                    let cfg = AmmaConfig {
                        layers,
                        ..tiny_cfg()
                    };
                    let mut b = Backbone::new(kind, 3, 1, cfg, &mut r);
                    if informed {
                        b = b.with_phase_embedding(2, &mut r);
                    }
                    check_batches_against_forward(
                        &mut b,
                        &format!("{} L{layers} pi={informed}", kind.name()),
                    );
                }
            }
        }
    }

    /// Runs `b`'s arena forward over odd batch sizes and checks each row
    /// against the training forward on a clone, bit for bit. The last two
    /// batches run on int8-rounded weights, as `quantize` leaves them: the
    /// same path serves them.
    fn check_batches_against_forward(b: &mut Backbone, what: &str) {
        let mut s = ScratchArena::new();
        // Every batch shares T (the fused serve path stacks equal-length
        // histories).
        let batches = [1usize, 2, 5, 16, 1, 16];
        let mut reference = b.clone();
        for (pass, batch) in batches.into_iter().enumerate() {
            let rounded = pass >= 4;
            if pass == 4 {
                mpgraph_ml::quant::quantize_module(b);
                reference = b.clone();
            }
            let t = 4;
            let seqs: Vec<ModalInput> = (0..batch).map(|i| input(100 + i as u64)).collect();
            let mut addr = Matrix::zeros(batch * t, 3);
            let mut pc = Matrix::zeros(batch * t, 1);
            for (i, q) in seqs.iter().enumerate() {
                for row in 0..t {
                    addr.row_mut(i * t + row).copy_from_slice(q.addr.row(row));
                    pc.data[i * t + row] = q.pc.data[row];
                }
            }
            let stacked = ModalInput { addr, pc };
            for phase in 0..2 {
                let fused = b.infer_batch_in(&stacked, batch, phase, &mut s);
                assert_eq!((fused.rows, fused.cols), (batch, 16));
                for (i, q) in seqs.iter().enumerate() {
                    assert_eq!(
                        bits(fused.row(i)),
                        bits(&reference.forward(q, phase).data),
                        "{what} rounded={rounded} batch={batch} seq={i} phase={phase}"
                    );
                }
                s.give(fused);
            }
        }
    }

    #[test]
    fn backward_accumulates_gradients_everywhere() {
        let mut r = rng(3);
        for kind in KINDS {
            let mut b = Backbone::new(kind, 3, 1, tiny_cfg(), &mut r);
            let _ = b.forward(&input(4), 0);
            let mut d = Matrix::zeros(1, 16);
            d.data.fill(1.0);
            b.backward(&d);
            let mut total = 0.0f32;
            b.for_each_param(&mut |p| total += p.g.norm());
            assert!(total > 0.0, "{} has zero gradients", kind.name());
        }
    }

    #[test]
    fn single_sequence_arena_forward_is_allocation_free_for_every_kind() {
        let mut r = rng(7);
        for kind in KINDS {
            let b = Backbone::new(kind, 3, 1, tiny_cfg(), &mut r);
            let x = input(8);
            let baseline = b.clone().forward(&x, 0);
            let mut s = ScratchArena::new();
            let y = b.infer_batch_in(&x, 1, 0, &mut s);
            assert_eq!(bits(&y.data), bits(&baseline.data), "{}", kind.name());
            s.give(y);
            let (_, warm) = s.stats();
            let y2 = b.infer_batch_in(&x, 1, 0, &mut s);
            s.give(y2);
            let (_, steady) = s.stats();
            assert_eq!(warm, steady, "{} steady state allocated", kind.name());
        }
    }

    #[test]
    fn phase_embedding_only_affects_amma() {
        let mut r = rng(5);
        let mut b = Backbone::new(BackboneKind::Lstm, 3, 1, tiny_cfg(), &mut r)
            .with_phase_embedding(2, &mut r);
        // LSTM backbone ignores the request (stays phase-blind).
        let x = input(6);
        assert_eq!(b.forward(&x, 0), b.forward(&x, 1));
        let mut a = Backbone::new(BackboneKind::Amma, 3, 1, tiny_cfg(), &mut r)
            .with_phase_embedding(2, &mut r);
        assert_ne!(a.forward(&x, 0), a.forward(&x, 1));
    }

    #[test]
    fn kind_names_match_tables() {
        assert_eq!(BackboneKind::Lstm.name(), "LSTM");
        assert_eq!(BackboneKind::Attention.name(), "Attention");
        assert_eq!(BackboneKind::Amma.name(), "AMMA");
    }
}
