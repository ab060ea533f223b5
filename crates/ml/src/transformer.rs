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
}

impl FeedForward {
    pub fn new(dim: usize, hidden: usize, rng: &mut ChaCha8Rng) -> Self {
        FeedForward {
            fc1: Linear::new(dim, hidden, rng),
            fc2: Linear::new(hidden, dim, rng),
        }
    }

    /// Row-wise forward through arena-owned scratch buffers. A taped
    /// forward records `x` (fc1's input) and the post-ReLU hidden rows
    /// (fc2's input).
    pub fn infer_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        let mut h = self.fc1.infer_in(x, s);
        Relu::infer_inplace(&mut h);
        let y = self.fc2.infer_in(&h, s);
        s.give(h);
        y
    }

    /// Pops the recorded hidden rows, which serve as both fc2's input and
    /// the ReLU's mask (a ReLU output is positive exactly where its input
    /// is), then fc1's input, and backpropagates `dy`.
    pub fn backward(&mut self, dy: &Matrix, s: &mut ScratchArena) -> Matrix {
        let h = s.pop();
        let mut dh = self.fc2.backward_from(&h, dy);
        for (d, &v) in dh.data.iter_mut().zip(h.data.iter()) {
            let active = v > 0.0;
            if !active {
                *d = 0.0;
            }
        }
        s.give(h);
        self.fc1.backward(&dh, s)
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

    /// The forward over `batch` stacked sequences, computing only the last
    /// `queries` rows of each: attention is confined per sequence and
    /// reads every row as a key and value (see
    /// [`MultiHeadAttention::infer_batch_in`]); Wo, the residuals, the FFN
    /// and the layer norms are row-wise, so they run on the query rows
    /// alone and fuse across the whole stack. Returns
    /// `[batch * queries, dim]`, each row bit-identical to the matching
    /// row of the forward on its sequence alone with every row a query.
    /// A taped forward records each sublayer's entries in order.
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
        self.ln1.infer_inplace(&mut h, s);
        let mut y = self.ffn.infer_in(&h, s);
        y.add_assign(&h);
        self.ln2.infer_inplace(&mut y, s);
        s.give(h);
        y
    }

    /// Pops the sublayers' entries in reverse and backpropagates `dy`,
    /// the gradient of the `queries` rows the taped forward computed.
    /// Both layer norms, the FFN and Wo run on those rows alone; the
    /// attention returns the gradient of every input row, and the
    /// residual adds to the query rows (the last ones). Returns the
    /// gradient of `x`.
    pub fn backward(&mut self, dy: &Matrix, s: &mut ScratchArena) -> Matrix {
        let d = self.ln2.backward(dy, s);
        // y = ffn(h) + h
        let mut dh = self.ffn.backward(&d, s);
        dh.add_assign(&d);
        let d = self.ln1.backward(&dh, s);
        // h = msa(x) + x
        let mut dx = self.msa.backward(&d, s);
        dx.add_assign_trailing(&d);
        dx
    }
}

/// Runs `layers` over the `batch` sequences stacked in `h` and returns the
/// last-position readout `[batch, dim]`. Every layer but the final one
/// computes all rows, because the next layer reads them as keys and
/// values; the final one computes one query row per sequence, and that row
/// is the readout. A taped forward does the same, so the final layer
/// records one row of everything but its attention's keys and values (see
/// [`readout_backward`]). With no layers the readout is `h`'s last rows.
/// `h` goes back to the arena.
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
    if h.rows != batch {
        let last = s.take_trailing_rows(&h, batch, 1);
        s.give(h);
        h = last;
    }
    h
}

/// The backward of a taped [`readout_batch_in`] over a `seq`-row
/// sequence: the readout's `[1, dim]` gradient enters the final layer's
/// one-row backward as is, then runs back through the other layers.
/// Returns the gradient of `h`, `[seq, dim]`. It has the bits of the
/// all-rows backward fed the gradient zero-padded to `[seq, dim]`: the
/// rows that backward computed and this one skips only ever added exact
/// zeros to sums that start at +0.0, barring a NaN made from `0 × ∞` in a
/// row the loss never read. With no layers the gradient of `h` is the
/// readout's, zero-padded.
pub fn readout_backward(
    layers: &mut [TransformerLayer],
    d_readout: &Matrix,
    seq: usize,
    s: &mut ScratchArena,
) -> Matrix {
    let Some((last, rest)) = layers.split_last_mut() else {
        let mut dh = Matrix::zeros(seq, d_readout.cols);
        dh.row_mut(seq - 1).copy_from_slice(d_readout.row(0));
        return dh;
    };
    let mut dh = last.backward(d_readout, s);
    for layer in rest.iter_mut().rev() {
        dh = layer.backward(&dh, s);
    }
    dh
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `sum(f(x) ⊙ w)`.
    fn weighted(y: &Matrix, w: &Matrix) -> f32 {
        y.data.iter().zip(w.data.iter()).map(|(a, b)| a * b).sum()
    }

    /// The layer forward at B = 1 with every row a query.
    fn full(t: &TransformerLayer, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        t.infer_batch_in(x, 1, x.rows, s)
    }

    #[test]
    fn feed_forward_shapes() {
        let mut r = rng(1);
        let ffn = FeedForward::new(8, 16, &mut r);
        let x = Matrix::xavier(5, 8, &mut r);
        let y = ffn.infer_in(&x, &mut ScratchArena::new());
        assert_eq!((y.rows, y.cols), (5, 8));
    }

    #[test]
    fn transformer_layer_preserves_shape() {
        let mut r = rng(2);
        let t = TransformerLayer::new(8, 2, &mut r);
        let x = Matrix::xavier(4, 8, &mut r);
        let y = full(&t, &x, &mut ScratchArena::new());
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
        let mut s = ScratchArena::with_tape();
        let _ = full(&t, &x, &mut s);
        let dx = t.backward(&w, &mut s);
        assert_eq!(s.tape_len(), 0);
        let loss = |m: &Matrix| weighted(&full(&t, m, &mut ScratchArena::new()), &w);
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
        // The reference is the taped forward: B = 1, every row a query.
        let baselines: Vec<Matrix> = seqs
            .iter()
            .map(|x| full(&t, x, &mut ScratchArena::with_tape()))
            .collect();
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

    /// Every gradient of a layer stack, in parameter order, as bits.
    fn grad_bits(layers: &mut [TransformerLayer]) -> Vec<u32> {
        let mut out = Vec::new();
        for l in layers {
            l.for_each_param(&mut |p| out.extend(bits(&p.g.data)));
        }
        out
    }

    /// The reference readout and backward: every layer taped with every
    /// row a query, the last row gathered, and the readout's gradient
    /// zero-padded to `[seq, dim]`. Returns the readout and the gradient
    /// of `h`.
    fn all_rows_readout(
        layers: &mut [TransformerLayer],
        h: &Matrix,
        d: &Matrix,
    ) -> (Matrix, Matrix) {
        let mut s = ScratchArena::with_tape();
        let seq = h.rows;
        let mut x = h.clone();
        for l in layers.iter() {
            x = l.infer_batch_in(&x, 1, seq, &mut s);
        }
        let readout = Matrix::from_vec(1, x.cols, x.row(seq - 1).to_vec());
        let mut dh = Matrix::zeros(seq, d.cols);
        dh.row_mut(seq - 1).copy_from_slice(d.row(0));
        for l in layers.iter_mut().rev() {
            dh = l.backward(&dh, &mut s);
        }
        assert_eq!(s.tape_len(), 0);
        (readout, dh)
    }

    /// The one-row readout and its backward on a taping arena.
    fn one_row_readout(
        layers: &mut [TransformerLayer],
        h: &Matrix,
        d: &Matrix,
    ) -> (Matrix, Matrix) {
        let mut s = ScratchArena::with_tape();
        let readout = readout_batch_in(layers, h.clone(), 1, &mut s);
        let dh = readout_backward(layers, d, h.rows, &mut s);
        assert_eq!(s.tape_len(), 0);
        (readout, dh)
    }

    #[test]
    fn one_row_readout_backward_matches_the_zero_padded_all_rows_backward() {
        // (dim, heads, seq, layers): a tiny stack, AMMA's default (one
        // layer) and the Attention backbone's (two), at the default width
        // and history.
        for (dim, heads, seq, layers) in [(8, 2, 4, 1), (8, 2, 5, 2), (64, 4, 9, 1), (64, 4, 9, 2)]
        {
            for seed in 0..4u64 {
                let mut r = rng(40 + seed);
                let stack: Vec<TransformerLayer> = (0..layers)
                    .map(|_| TransformerLayer::new(dim, heads, &mut r))
                    .collect();
                let h = Matrix::xavier(seq, dim, &mut r);
                let d = Matrix::xavier(1, dim, &mut r);
                let (mut old, mut new) = (stack.clone(), stack);
                let (y_old, dh_old) = all_rows_readout(&mut old, &h, &d);
                let (y_new, dh_new) = one_row_readout(&mut new, &h, &d);
                let what = format!("dim {dim} heads {heads} seq {seq} layers {layers} seed {seed}");
                assert_eq!(bits(&y_new.data), bits(&y_old.data), "{what}: readout");
                assert_eq!(
                    bits(&dh_new.data),
                    bits(&dh_old.data),
                    "{what}: input gradient"
                );
                assert_eq!(
                    grad_bits(&mut new),
                    grad_bits(&mut old),
                    "{what}: weight gradients"
                );
            }
        }
    }

    /// The weight probes' tolerance, relative to the analytic gradient:
    /// below 1, so a forward that ignored the nudge (a numeric gradient
    /// of 0) fails.
    const FD_REL_TOL: f32 = 0.05;

    #[test]
    fn one_row_readout_gradient_matches_finite_difference() {
        const HEADS: usize = 2;
        for layers in [1usize, 2] {
            let mut r = rng(50 + layers as u64);
            let mut stack: Vec<TransformerLayer> = (0..layers)
                .map(|_| TransformerLayer::new(4, HEADS, &mut r))
                .collect();
            let h = Matrix::xavier(3, 4, &mut r);
            let w = Matrix::xavier(1, 4, &mut r);
            let (_, dh) = one_row_readout(&mut stack, &h, &w);
            let loss = |stack: &[TransformerLayer], x: &Matrix| {
                weighted(
                    &readout_batch_in(stack, x.clone(), 1, &mut ScratchArena::new()),
                    &w,
                )
            };
            let eps = 1e-2f32;
            for i in 0..h.data.len() {
                let (mut xp, mut xm) = (h.clone(), h.clone());
                xp.data[i] += eps;
                xm.data[i] -= eps;
                let num = (loss(&stack, &xp) - loss(&stack, &xm)) / (2.0 * eps);
                assert!(
                    (num - dh.data[i]).abs() < 0.1,
                    "layers {layers} idx {i}: {num} vs {}",
                    dh.data[i]
                );
            }
            // The final layer's Q projection, Wo and FFN saw one row only.
            // Each probe nudges, through `for_each_param`, the element of
            // one of its weights with the largest gradient: head 0's Wq,
            // Wo and fc1's weight, at their places in parameter order
            // (each head's Wq, Wk and Wv, then Wo, then fc1).
            let last = layers - 1;
            for (name, index) in [("wq", 0usize), ("wo", 3 * HEADS), ("fc1", 3 * HEADS + 1)] {
                let mut g = Vec::new();
                stack[last].for_each_param_ref(&mut |p| g.push(p.g.data.clone()));
                let (at, analytic) = g[index]
                    .iter()
                    .copied()
                    .enumerate()
                    .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
                    .expect("non-empty weight");
                let nudged = |delta: f32| {
                    let mut st = stack.clone();
                    let mut i = 0;
                    st[last].for_each_param(&mut |p| {
                        if i == index {
                            p.w.data[at] += delta;
                        }
                        i += 1;
                    });
                    loss(&st, &h)
                };
                let num = (nudged(eps) - nudged(-eps)) / (2.0 * eps);
                let tol = FD_REL_TOL * analytic.abs();
                assert!(
                    (num - analytic).abs() < tol,
                    "layers {layers} {name}[{at}]: {num} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn ffn_gradient_matches_finite_difference() {
        let mut r = rng(5);
        let mut ffn = FeedForward::new(4, 8, &mut r);
        let x = Matrix::xavier(2, 4, &mut r);
        let w = Matrix::xavier(2, 4, &mut r);
        let mut s = ScratchArena::with_tape();
        let _ = ffn.infer_in(&x, &mut s);
        let dx = ffn.backward(&w, &mut s);
        assert_eq!(s.tape_len(), 0);
        let f = |m: &Matrix| weighted(&ffn.infer_in(m, &mut ScratchArena::new()), &w);
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
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
