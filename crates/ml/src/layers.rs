//! Trainable layers with explicit forward/backward passes.
//!
//! Every layer owns its [`Param`]s (weights + gradient + Adam moments) and
//! has one forward, `infer_in` (or `infer_inplace`), which takes its
//! intermediates from a [`ScratchArena`]. Inference and training run that
//! same forward: on an arena made with [`ScratchArena::with_tape`] it also
//! records exactly what the layer's `backward` reads onto the arena's tape,
//! and the backward pops it. Models are composed by calling the layers in
//! order and backpropagating in reverse, so the tape is a plain LIFO of
//! buffers, not a graph: the model shapes in this project are small and
//! fixed, and layers hold no activations between the two passes.

use crate::arena::ScratchArena;
use crate::tensor::Matrix;
use rand_chacha::ChaCha8Rng;

/// One trainable tensor together with its gradient accumulator and Adam
/// moment estimates.
#[derive(Debug, Clone)]
pub struct Param {
    pub w: Matrix,
    pub g: Matrix,
    /// Adam first moment.
    pub m: Vec<f32>,
    /// Adam second moment.
    pub v: Vec<f32>,
}

impl Param {
    pub fn new(w: Matrix) -> Self {
        let n = w.data.len();
        Param {
            g: Matrix::zeros(w.rows, w.cols),
            m: vec![0.0; n],
            v: vec![0.0; n],
            w,
        }
    }

    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::new(Matrix::zeros(rows, cols))
    }

    pub fn xavier(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Self {
        Self::new(Matrix::xavier(rows, cols, rng))
    }

    pub fn len(&self) -> usize {
        self.w.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.w.data.is_empty()
    }
}

/// Anything that owns trainable parameters.
pub trait Module {
    /// Visits every parameter (for the optimizer / introspection).
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Read-only parameter visit, in the same order as
    /// [`Module::for_each_param`] — for introspection (param counts,
    /// storage accounting, quantization snapshots) that must not demand
    /// `&mut` access.
    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param));

    /// Zeroes all gradient accumulators.
    fn zero_grad(&mut self) {
        self.for_each_param(&mut |p| p.g.data.fill(0.0));
    }

    /// Total trainable parameter count (Table 8's "Param" column).
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.for_each_param_ref(&mut |p| n += p.len());
        n
    }
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

/// Fully-connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: Param,
    pub b: Param,
}

impl Linear {
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        Linear {
            w: Param::xavier(in_dim, out_dim, rng),
            b: Param::zeros(1, out_dim),
        }
    }

    /// The forward into an arena-owned buffer (no allocation after
    /// warmup); the caller `give`s the result back. Records a copy of `x`
    /// when taping.
    pub fn infer_in(&self, x: &Matrix, s: &mut ScratchArena) -> Matrix {
        let mut y = s.take(x.rows, self.w.w.cols);
        x.matmul_into(&self.w.w, &mut y);
        y.add_bias(&self.b.w.data);
        s.record_copy(x);
        y
    }

    /// Pops the recorded input and backpropagates `dy` through it.
    pub fn backward(&mut self, dy: &Matrix, s: &mut ScratchArena) -> Matrix {
        let x = s.pop();
        let dx = self.backward_from(&x, dy);
        s.give(x);
        dx
    }

    /// The backward for input `x`: accumulates the weight and bias
    /// gradients and returns `dy Wᵀ`.
    pub(crate) fn backward_from(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        self.w.g.add_assign(&x.matmul_at(dy));
        for r in 0..dy.rows {
            for c in 0..dy.cols {
                self.b.g.data[c] += dy.at(r, c);
            }
        }
        dy.matmul_bt(&self.w.w)
    }
}

impl Module for Linear {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }
}

// ---------------------------------------------------------------------------
// Embedding
// ---------------------------------------------------------------------------

/// Token-id → vector lookup table.
#[derive(Debug, Clone)]
pub struct Embedding {
    pub table: Param,
}

impl Embedding {
    pub fn new(vocab: usize, dim: usize, rng: &mut ChaCha8Rng) -> Self {
        Embedding {
            table: Param::xavier(vocab, dim, rng),
        }
    }

    /// Lookup into an arena-owned buffer. Records the token ids when
    /// taping.
    pub fn infer_in(&self, tokens: &[usize], s: &mut ScratchArena) -> Matrix {
        let mut out = s.take(tokens.len(), self.table.w.cols);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.table.w.rows, "token {t} out of vocab");
            out.row_mut(i).copy_from_slice(self.table.w.row(t));
        }
        Self::record_ids(tokens.iter().copied(), s);
        out
    }

    /// Adds the embedding row for `token` to every row of `m` — the
    /// broadcast form AMMA-PI uses to mix a phase embedding into a fused
    /// sequence without materializing the repeated-token matrix. Records
    /// the repeated token ids when taping, so [`Embedding::backward`]
    /// undoes it like a lookup of `m.rows` copies of `token`.
    pub fn add_row_broadcast(&self, token: usize, m: &mut Matrix, s: &mut ScratchArena) {
        assert!(token < self.table.w.rows, "token {token} out of vocab");
        let row = self.table.w.row(token);
        assert_eq!(row.len(), m.cols, "embedding dim mismatch");
        for r in 0..m.rows {
            for (a, b) in m.row_mut(r).iter_mut().zip(row.iter()) {
                *a += b;
            }
        }
        Self::record_ids(std::iter::repeat_n(token, m.rows), s);
    }

    /// Records token ids for [`Embedding::backward`] when taping, as a
    /// `[n, 1]` column (exact in `f32` below 2^24).
    fn record_ids(tokens: impl ExactSizeIterator<Item = usize>, s: &mut ScratchArena) {
        if s.taping() {
            let mut ids = s.take(tokens.len(), 1);
            for (v, t) in ids.data.iter_mut().zip(tokens) {
                *v = t as f32;
            }
            s.record(ids);
        }
    }

    /// Pops the recorded token ids and adds each row of `dy` to its
    /// token's gradient row, in row order.
    pub fn backward(&mut self, dy: &Matrix, s: &mut ScratchArena) {
        let ids = s.pop();
        let dim = self.table.w.cols;
        for (i, &t) in ids.data.iter().enumerate() {
            let t = t as usize;
            let g = &mut self.table.g.data[t * dim..(t + 1) * dim];
            for (gv, dv) in g.iter_mut().zip(dy.row(i).iter()) {
                *gv += dv;
            }
        }
        s.give(ids);
    }
}

impl Module for Embedding {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.table);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.table);
    }
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

/// ReLU. It has no backward of its own: a ReLU's output is positive
/// exactly where its input is (NaN and ±0 included), so the layer after it
/// masks the gradient with the output it already records (see
/// [`crate::transformer::FeedForward`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Relu;

impl Relu {
    /// In-place ReLU.
    pub fn infer_inplace(x: &mut Matrix) {
        for v in x.data.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }
}

/// Elementwise logistic sigmoid. The losses fold its gradient into theirs
/// ([`crate::loss::bce_with_logits`]), so it has no backward.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sigmoid;

impl Sigmoid {
    pub fn infer(x: &Matrix) -> Matrix {
        let mut y = x.clone();
        Self::infer_inplace(&mut y);
        y
    }

    /// In-place sigmoid.
    pub fn infer_inplace(x: &mut Matrix) {
        for v in x.data.iter_mut() {
            *v = 1.0 / (1.0 + (-*v).exp());
        }
    }
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

/// Row-wise layer normalization with learnable gain/bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    pub gamma: Param,
    pub beta: Param,
    eps: f32,
}

impl LayerNorm {
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Matrix::from_vec(1, dim, vec![1.0; dim])),
            beta: Param::zeros(1, dim),
            eps: 1e-5,
        }
    }

    /// In-place layer norm: row statistics are computed before the row is
    /// overwritten, so normalizing in place is exact. When taping, records
    /// the normalized rows x̂ and each row's `inv_std` — computed by the
    /// same expressions, so the output keeps its bits.
    pub fn infer_inplace(&self, x: &mut Matrix, s: &mut ScratchArena) {
        let d = x.cols;
        let mut rec = s.taping().then(|| (s.take(x.rows, d), s.take(x.rows, 1)));
        for r in 0..x.rows {
            let row = x.row_mut(r);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + self.eps).sqrt();
            if let Some((xhat, inv_std)) = &mut rec {
                for (h, &v) in xhat.row_mut(r).iter_mut().zip(row.iter()) {
                    *h = (v - mean) * inv;
                }
                inv_std.data[r] = inv;
            }
            for (c, v) in row.iter_mut().enumerate() {
                *v = (*v - mean) * inv * self.gamma.w.data[c] + self.beta.w.data[c];
            }
        }
        if let Some((xhat, inv_std)) = rec {
            s.record(xhat);
            s.record(inv_std);
        }
    }

    /// Pops the recorded x̂ and `inv_std` and backpropagates `dy`.
    pub fn backward(&mut self, dy: &Matrix, s: &mut ScratchArena) -> Matrix {
        let inv_std = s.pop();
        let xhat = s.pop();
        let d = dy.cols as f32;
        let cols = dy.cols;
        let mut dx = Matrix::zeros(dy.rows, cols);
        for (r, &inv) in inv_std.data.iter().enumerate() {
            // Accumulate parameter grads.
            for c in 0..cols {
                self.gamma.g.data[c] += dy.at(r, c) * xhat.at(r, c);
                self.beta.g.data[c] += dy.at(r, c);
            }
            // dxhat = dy * gamma
            let dxhat: Vec<f32> = (0..cols)
                .map(|c| dy.at(r, c) * self.gamma.w.data[c])
                .collect();
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat
                .iter()
                .zip(xhat.row(r).iter())
                .map(|(a, b)| a * b)
                .sum();
            for (c, &dxh) in dxhat.iter().enumerate() {
                dx.data[r * cols + c] =
                    inv / d * (d * dxh - sum_dxhat - xhat.at(r, c) * sum_dxhat_xhat);
            }
        }
        s.give(inv_std);
        s.give(xhat);
        dx
    }
}

impl Module for LayerNorm {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::rng;

    /// Generic finite-difference gradient check on a scalar loss
    /// `L = sum(forward(x) ⊙ w)` for a random weighting `w`.
    fn check_input_grad(
        x: &Matrix,
        mut fwd: impl FnMut(&Matrix) -> Matrix,
        dx: &Matrix,
        weights: &Matrix,
        tol: f32,
    ) {
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let lp: f32 = fwd(&xp)
                .data
                .iter()
                .zip(weights.data.iter())
                .map(|(a, b)| a * b)
                .sum();
            let lm: f32 = fwd(&xm)
                .data
                .iter()
                .zip(weights.data.iter())
                .map(|(a, b)| a * b)
                .sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < tol,
                "idx {i}: numeric {num} vs analytic {}",
                dx.data[i]
            );
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn linear_forward_known() {
        let mut r = rng(1);
        let mut l = Linear::new(2, 2, &mut r);
        l.w.w = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        l.b.w = Matrix::from_vec(1, 2, vec![0.5, -0.5]);
        let y = l.infer_in(
            &Matrix::from_vec(1, 2, vec![1., 1.]),
            &mut ScratchArena::new(),
        );
        assert_eq!(y.data, vec![4.5, 5.5]);
    }

    #[test]
    fn linear_gradients_match_finite_difference() {
        let mut r = rng(2);
        let mut l = Linear::new(3, 2, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        let w = Matrix::xavier(4, 2, &mut r); // loss weighting
        let mut s = ScratchArena::with_tape();
        let _y = l.infer_in(&x, &mut s);
        let dx = l.backward(&w, &mut s);
        assert_eq!(s.tape_len(), 0);
        check_input_grad(
            &x,
            |xx| l.infer_in(xx, &mut ScratchArena::new()),
            &dx,
            &w,
            2e-2,
        );
        // Weight gradient check on one entry.
        let eps = 1e-2f32;
        let (wi, wj) = (1, 0);
        let mut lp = l.clone();
        *lp.w.w.at_mut(wi, wj) += eps;
        let mut lm = l.clone();
        *lm.w.w.at_mut(wi, wj) -= eps;
        let f = |m: &Linear| -> f32 {
            m.infer_in(&x, &mut ScratchArena::new())
                .data
                .iter()
                .zip(w.data.iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let num = (f(&lp) - f(&lm)) / (2.0 * eps);
        assert!((num - l.w.g.at(wi, wj)).abs() < 2e-2);
    }

    #[test]
    fn embedding_lookup_and_backward() {
        let mut r = rng(3);
        let mut e = Embedding::new(10, 4, &mut r);
        let mut s = ScratchArena::with_tape();
        let y = e.infer_in(&[3, 3, 7], &mut s);
        assert_eq!(y.rows, 3);
        assert_eq!(y.row(0), y.row(1));
        let mut dy = Matrix::zeros(3, 4);
        dy.data.fill(1.0);
        e.backward(&dy, &mut s);
        // Token 3 appears twice: gradient 2.0 per element; token 7 once.
        assert!(e.table.g.row(3).iter().all(|&g| (g - 2.0).abs() < 1e-6));
        assert!(e.table.g.row(7).iter().all(|&g| (g - 1.0).abs() < 1e-6));
        assert!(e.table.g.row(0).iter().all(|&g| g == 0.0));
        // The broadcast form backpropagates like a lookup of the repeated
        // token.
        let mut m = Matrix::zeros(3, 4);
        e.add_row_broadcast(7, &mut m, &mut s);
        assert_eq!(bits(m.row(2)), bits(e.table.w.row(7)));
        e.backward(&dy, &mut s);
        assert!(e.table.g.row(7).iter().all(|&g| (g - 4.0).abs() < 1e-6));
        assert_eq!(s.tape_len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn embedding_rejects_oov() {
        let mut r = rng(4);
        let e = Embedding::new(4, 2, &mut r);
        let _ = e.infer_in(&[4], &mut ScratchArena::new());
    }

    #[test]
    fn relu_masks_negative() {
        let mut y = Matrix::from_vec(1, 6, vec![-1., 0., 2., -3., -0.0, f32::NAN]);
        Relu::infer_inplace(&mut y);
        assert_eq!(bits(&y.data[..5]), bits(&[0., 0., 2., 0., -0.0]));
        assert!(y.data[5].is_nan());
        // The output is positive exactly where the input was: the mask the
        // feed-forward backward reads off the recorded output.
        let input = [-1., 0., 2., -3., -0.0, f32::NAN];
        for (&out, &inp) in y.data.iter().zip(input.iter()) {
            assert_eq!(out > 0.0, inp > 0.0);
        }
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let ln = LayerNorm::new(8);
        let mut r = rng(5);
        let mut y = Matrix::xavier(3, 8, &mut r);
        ln.infer_inplace(&mut y, &mut ScratchArena::new());
        for row in 0..3 {
            let mean: f32 = y.row(row).iter().sum::<f32>() / 8.0;
            let var: f32 = y.row(row).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn layernorm_gradient_matches_finite_difference() {
        let mut ln = LayerNorm::new(5);
        let mut r = rng(6);
        // Non-trivial gamma/beta.
        ln.gamma.w = Matrix::from_vec(1, 5, vec![1.1, 0.9, 1.3, 0.7, 1.0]);
        ln.beta.w = Matrix::from_vec(1, 5, vec![0.1, -0.2, 0.0, 0.3, -0.1]);
        let x = Matrix::xavier(2, 5, &mut r);
        let w = Matrix::xavier(2, 5, &mut r);
        let infer = |ln: &LayerNorm, xx: &Matrix, s: &mut ScratchArena| {
            let mut y = xx.clone();
            ln.infer_inplace(&mut y, s);
            y
        };
        let mut s = ScratchArena::with_tape();
        let taped = infer(&ln, &x, &mut s);
        // Recording x̂ and inv_std leaves the output's bits alone.
        let plain = infer(&ln, &x, &mut ScratchArena::new());
        assert_eq!(bits(&taped.data), bits(&plain.data));
        let dx = ln.backward(&w, &mut s);
        assert_eq!(s.tape_len(), 0);
        check_input_grad(
            &x,
            |xx| infer(&ln, xx, &mut ScratchArena::new()),
            &dx,
            &w,
            3e-2,
        );
    }

    #[test]
    fn module_param_counts() {
        let mut r = rng(7);
        let l = Linear::new(10, 20, &mut r);
        assert_eq!(l.num_params(), 10 * 20 + 20);
        let e = Embedding::new(100, 8, &mut r);
        assert_eq!(e.num_params(), 800);
        let ln = LayerNorm::new(16);
        assert_eq!(ln.num_params(), 32);
    }

    #[test]
    fn zero_grad_clears() {
        let mut r = rng(8);
        let mut l = Linear::new(2, 2, &mut r);
        let x = Matrix::from_vec(1, 2, vec![1., 2.]);
        let mut s = ScratchArena::with_tape();
        let _ = l.infer_in(&x, &mut s);
        let _ = l.backward(&Matrix::from_vec(1, 2, vec![1., 1.]), &mut s);
        assert!(l.w.g.norm() > 0.0);
        l.zero_grad();
        assert_eq!(l.w.g.norm(), 0.0);
    }
}
