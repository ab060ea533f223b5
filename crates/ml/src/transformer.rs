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

    /// Batched inference over `batch` stacked sequences, computing only
    /// the last `queries` rows of each: attention is confined per sequence
    /// and reads every row as a key and value (see
    /// [`MultiHeadAttention::infer_batch_in`]); Wo, the residuals, the FFN
    /// and the layer norms are row-wise, so they run on the query rows
    /// alone and fuse across the whole stack. Returns
    /// `[batch * queries, dim]`, each row bit-identical to the matching
    /// row of the training [`TransformerLayer::forward`] on its sequence.
    pub fn infer_batch_in(
        &self,
        x: &Matrix,
        batch: usize,
        queries: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        let mut h = self.msa.infer_batch_in(x, batch, queries, s);
        if h.rows == x.rows {
            h.add_assign(x);
        } else {
            let xq = s.take_trailing_rows(x, batch, queries);
            h.add_assign(&xq);
            s.give(xq);
        }
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

/// Runs `layers` over the `batch` sequences stacked in `h` and returns the
/// last-position readout `[batch, dim]`. Every layer but the final one
/// computes all rows, because the next layer reads them as keys and
/// values; the final one computes one query row per sequence, and that row
/// is the readout. With no layers the readout is `h`'s last rows. `h` goes
/// back to the arena.
pub fn readout_batch_in(
    layers: &[TransformerLayer],
    mut h: Matrix,
    batch: usize,
    s: &mut ScratchArena,
) -> Matrix {
    let seq = h.rows / batch;
    for (i, layer) in layers.iter().enumerate() {
        let queries = if i + 1 == layers.len() { 1 } else { seq };
        let next = layer.infer_batch_in(&h, batch, queries, s);
        s.give(h);
        h = next;
    }
    if layers.is_empty() {
        let last = s.take_trailing_rows(&h, batch, 1);
        s.give(h);
        h = last;
    }
    h
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
        let mut loss = |m: &Matrix| -> f32 {
            t.forward(m)
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
    fn arena_infer_is_bit_identical_and_allocation_free() {
        let mut r = rng(7);
        let t = TransformerLayer::new(8, 4, &mut r);
        let seq = 3;
        let seqs: Vec<Matrix> = (0..5).map(|_| Matrix::xavier(seq, 8, &mut r)).collect();
        // The reference is the training forward, on a clone so the layer
        // under test keeps no cache.
        let baselines: Vec<Matrix> = seqs.iter().map(|x| t.clone().forward(x)).collect();
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let mut s = crate::arena::ScratchArena::new();
        for batch in [1usize, 2, 5] {
            let mut x = Matrix::zeros(batch * seq, 8);
            for (b, q) in seqs[..batch].iter().enumerate() {
                x.data[b * seq * 8..(b + 1) * seq * 8].copy_from_slice(&q.data);
            }
            // Every query count, down to the one-query readout: each
            // computed row equals the matching row of the full reference.
            let check = |s: &mut crate::arena::ScratchArena| {
                for queries in (1..=seq).rev() {
                    let y = t.infer_batch_in(&x, batch, queries, s);
                    assert_eq!((y.rows, y.cols), (batch * queries, 8));
                    for (b, baseline) in baselines[..batch].iter().enumerate() {
                        for i in 0..queries {
                            assert_eq!(
                                bits(y.row(b * queries + i)),
                                bits(baseline.row(seq - queries + i)),
                                "batch={batch} queries={queries} seq={b} row={i}"
                            );
                        }
                    }
                    s.give(y);
                }
            };
            check(&mut s);
            let (_, misses_after_warmup) = s.stats();
            for _ in 0..3 {
                check(&mut s);
            }
            let (_, misses) = s.stats();
            assert_eq!(
                misses, misses_after_warmup,
                "batch={batch}: steady state must not allocate"
            );
        }
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
            let mut f = |m: &Matrix| -> f32 {
                ffn.forward(m)
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
