//! Transformer encoder layer (Eq. 9-10): multi-head self-attention and a
//! point-wise feed-forward network, each wrapped in a residual connection
//! and layer normalization (post-norm, as in the original architecture the
//! paper cites).

use crate::arena::ScratchArena;
use crate::attention::MultiHeadAttention;
use crate::layers::{LayerNorm, Linear, Module, Param, Relu};
use crate::tensor::Matrix;
use rand_chacha::ChaCha8Rng;

/// Point-wise feed-forward network `FFN(x) = max(0, x W1 + b1) W2 + b2`.
#[derive(Debug, Clone)]
pub struct FeedForward {
    pub fc1: Linear,
    pub fc2: Linear,
    relu: Relu,
}

impl FeedForward {
    pub fn new(dim: usize, hidden: usize, rng: &mut ChaCha8Rng) -> Self {
        FeedForward {
            fc1: Linear::new(dim, hidden, rng),
            fc2: Linear::new(hidden, dim, rng),
            relu: Relu::default(),
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let h = self.fc1.forward(x);
        let h = self.relu.forward(&h);
        self.fc2.forward(&h)
    }

    pub fn infer(&self, x: &Matrix) -> Matrix {
        self.fc2.infer(&Relu::infer(&self.fc1.infer(x)))
    }

    /// Row-wise inference through arena-owned scratch buffers.
    pub fn infer_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        let mut h = self.fc1.infer_in(x, s);
        Relu::infer_inplace(&mut h);
        let y = self.fc2.infer_in(&h, s);
        s.give(h);
        y
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let dh = self.fc2.backward(dy);
        let dh = self.relu.backward(&dh);
        self.fc1.backward(&dh)
    }
}

impl Module for FeedForward {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.fc1.for_each_param(f);
        self.fc2.for_each_param(f);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.fc1.for_each_param_ref(f);
        self.fc2.for_each_param_ref(f);
    }
}

/// One Transformer encoder layer:
/// `y = LN2(h + FFN(h))`, `h = LN1(x + MSA(x))`.
#[derive(Debug, Clone)]
pub struct TransformerLayer {
    pub msa: MultiHeadAttention,
    pub ffn: FeedForward,
    pub ln1: LayerNorm,
    pub ln2: LayerNorm,
}

impl TransformerLayer {
    /// `dim` must divide by `heads`; the FFN hidden size is `2 × dim`.
    pub fn new(dim: usize, heads: usize, rng: &mut ChaCha8Rng) -> Self {
        TransformerLayer {
            msa: MultiHeadAttention::new(dim, heads, rng),
            ffn: FeedForward::new(dim, 2 * dim, rng),
            ln1: LayerNorm::new(dim),
            ln2: LayerNorm::new(dim),
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = self.msa.forward(x);
        h.add_assign(x);
        let h = self.ln1.forward(&h);
        let mut y = self.ffn.forward(&h);
        y.add_assign(&h);
        self.ln2.forward(&y)
    }

    pub fn infer(&self, x: &Matrix) -> Matrix {
        let mut h = self.msa.infer(x);
        h.add_assign(x);
        let h = self.ln1.infer(&h);
        let mut y = self.ffn.infer(&h);
        y.add_assign(&h);
        self.ln2.infer(&y)
    }

    /// Batched inference over `batch` stacked sequences: attention is
    /// confined per sequence (see
    /// [`MultiHeadAttention::infer_batch_in`]); the FFN and layer norms
    /// are row-wise, so they fuse across the whole stack for free.
    /// Bit-identical to per-sequence [`TransformerLayer::infer`].
    pub fn infer_batch_in(&self, x: &Matrix, batch: usize, s: &mut ScratchArena) -> Matrix {
        let mut h = self.msa.infer_batch_in(x, batch, s);
        h.add_assign(x);
        self.ln1.infer_inplace(&mut h);
        let mut y = self.ffn.infer_in(&h, s);
        y.add_assign(&h);
        self.ln2.infer_inplace(&mut y);
        s.give(h);
        y
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let d = self.ln2.backward(dy);
        // y = ffn(h) + h
        let mut dh = self.ffn.backward(&d);
        dh.add_assign(&d);
        let d = self.ln1.backward(&dh);
        // h = msa(x) + x
        let mut dx = self.msa.backward(&d);
        dx.add_assign(&d);
        dx
    }
}

impl Module for TransformerLayer {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.msa.for_each_param(f);
        self.ffn.for_each_param(f);
        self.ln1.for_each_param(f);
        self.ln2.for_each_param(f);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.msa.for_each_param_ref(f);
        self.ffn.for_each_param_ref(f);
        self.ln1.for_each_param_ref(f);
        self.ln2.for_each_param_ref(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::rng;

    #[test]
    fn feed_forward_shapes() {
        let mut r = rng(1);
        let mut ffn = FeedForward::new(8, 16, &mut r);
        let x = Matrix::xavier(5, 8, &mut r);
        let y = ffn.forward(&x);
        assert_eq!((y.rows, y.cols), (5, 8));
    }

    #[test]
    fn transformer_layer_preserves_shape() {
        let mut r = rng(2);
        let mut t = TransformerLayer::new(8, 2, &mut r);
        let x = Matrix::xavier(4, 8, &mut r);
        let y = t.forward(&x);
        assert_eq!((y.rows, y.cols), (4, 8));
        // Output is layer-normalized per row.
        for row in 0..4 {
            let mean: f32 = y.row(row).iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 0.2, "post-LN mean {mean}");
        }
    }

    #[test]
    fn transformer_gradient_matches_finite_difference() {
        let mut r = rng(3);
        let mut t = TransformerLayer::new(4, 2, &mut r);
        let x = Matrix::xavier(3, 4, &mut r);
        let w = Matrix::xavier(3, 4, &mut r);
        let _ = t.forward(&x);
        let dx = t.backward(&w);
        let loss = |m: &Matrix| -> f32 {
            t.infer(m)
                .data
                .iter()
                .zip(w.data.iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-2f32;
        for i in [0usize, 2, 5, 9, 11] {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 0.1,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn infer_matches_forward() {
        let mut r = rng(4);
        let mut t = TransformerLayer::new(8, 4, &mut r);
        let x = Matrix::xavier(3, 8, &mut r);
        let a = t.forward(&x);
        let b = t.infer(&x);
        for (p, q) in a.data.iter().zip(b.data.iter()) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn arena_infer_is_bit_identical_and_allocation_free() {
        let mut r = rng(7);
        let t = TransformerLayer::new(8, 4, &mut r);
        let x = Matrix::xavier(3, 8, &mut r);
        let baseline = t.infer(&x);
        let mut s = crate::arena::ScratchArena::new();
        // Warmup round.
        let w = t.infer_batch_in(&x, 1, &mut s);
        assert_eq!(w.data, baseline.data, "arena path must be bit-identical");
        s.give(w);
        let (_, misses_after_warmup) = s.stats();
        for _ in 0..5 {
            let y = t.infer_batch_in(&x, 1, &mut s);
            assert_eq!(y.data, baseline.data);
            s.give(y);
        }
        let (_, misses) = s.stats();
        assert_eq!(
            misses, misses_after_warmup,
            "steady state must not allocate"
        );
    }

    #[test]
    fn ffn_gradient_matches_finite_difference() {
        let mut r = rng(5);
        let mut ffn = FeedForward::new(4, 8, &mut r);
        let x = Matrix::xavier(2, 4, &mut r);
        let w = Matrix::xavier(2, 4, &mut r);
        let _ = ffn.forward(&x);
        let dx = ffn.backward(&w);
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let f = |m: &Matrix| -> f32 {
                ffn.infer(m)
                    .data
                    .iter()
                    .zip(w.data.iter())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 5e-2,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn param_count_is_consistent() {
        let mut r = rng(6);
        let t = TransformerLayer::new(8, 2, &mut r);
        // MSA: 2 heads × 3 × (8×4) + Wo 64 = 192 + 64 = 256.
        // FFN: 8×16 + 16 + 16×8 + 8 = 280. LN ×2: 32.
        assert_eq!(t.num_params(), 256 + 280 + 32);
    }
}
