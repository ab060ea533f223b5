//! Minimal dense 2-D tensor (row-major `f32` matrix) with the operations
//! the neural-network layers need: matmul in the three orientations used by
//! backprop, elementwise arithmetic, row-wise softmax, and random init.
//!
//! Model dimensions in the paper are tiny (Table 5: attention dim 64,
//! Transformer dim 128, history T = 9), so all working sets fit in L1/L2 and
//! the kernels optimize for register reuse rather than cache blocking: each
//! matmul orientation has a register-tiled fast path plus an `_into` variant
//! that writes to a caller-owned buffer (see [`crate::arena::ScratchArena`]),
//! and a naive `_ref` twin that serves as ground truth for property tests
//! and as the calibration baseline for the perf runner.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier-uniform initialization in ±sqrt(6/(fan_in+fan_out)).
    pub fn xavier(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other`: `[m,k] × [k,n] → [m,n]`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self @ other` written into a caller-owned buffer (no allocation).
    ///
    /// Register-tiled: 4 output rows × 4 reduction steps per inner iteration,
    /// so each output row is loaded/stored once per four k-steps and each B
    /// panel load is reused across four rows. The dense kernel deliberately
    /// has no zero-skip branch: skipping `a == 0.0` silently changed results
    /// for `-0.0`/NaN operands and defeated vectorization.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul out shape"
        );
        let (m, k, n) = (self.rows, self.cols, other.cols);
        out.data.fill(0.0);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        let mut i = 0;
        while i + 4 <= m {
            let a_block = &self.data[i * k..(i + 4) * k];
            let (ar0, rest) = a_block.split_at(k);
            let (ar1, rest) = rest.split_at(k);
            let (ar2, ar3) = rest.split_at(k);
            let o_block = &mut out.data[i * n..(i + 4) * n];
            let (o0, rest) = o_block.split_at_mut(n);
            let (o1, rest) = rest.split_at_mut(n);
            let (o2, o3) = rest.split_at_mut(n);
            let mut kk = 0;
            while kk + 4 <= k {
                let (a00, a01, a02, a03) = (ar0[kk], ar0[kk + 1], ar0[kk + 2], ar0[kk + 3]);
                let (a10, a11, a12, a13) = (ar1[kk], ar1[kk + 1], ar1[kk + 2], ar1[kk + 3]);
                let (a20, a21, a22, a23) = (ar2[kk], ar2[kk + 1], ar2[kk + 2], ar2[kk + 3]);
                let (a30, a31, a32, a33) = (ar3[kk], ar3[kk + 1], ar3[kk + 2], ar3[kk + 3]);
                let panel = &other.data[kk * n..(kk + 4) * n];
                let (b0, rest) = panel.split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, b3) = rest.split_at(n);
                for j in 0..n {
                    let (p0, p1, p2, p3) = (b0[j], b1[j], b2[j], b3[j]);
                    o0[j] += a00 * p0 + a01 * p1 + a02 * p2 + a03 * p3;
                    o1[j] += a10 * p0 + a11 * p1 + a12 * p2 + a13 * p3;
                    o2[j] += a20 * p0 + a21 * p1 + a22 * p2 + a23 * p3;
                    o3[j] += a30 * p0 + a31 * p1 + a32 * p2 + a33 * p3;
                }
                kk += 4;
            }
            while kk < k {
                let (a0, a1, a2, a3) = (ar0[kk], ar1[kk], ar2[kk], ar3[kk]);
                let b0 = &other.data[kk * n..(kk + 1) * n];
                for j in 0..n {
                    o0[j] += a0 * b0[j];
                    o1[j] += a1 * b0[j];
                    o2[j] += a2 * b0[j];
                    o3[j] += a3 * b0[j];
                }
                kk += 1;
            }
            i += 4;
        }
        while i < m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o0 = &mut out.data[i * n..(i + 1) * n];
            let mut kk = 0;
            while kk + 4 <= k {
                let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                let panel = &other.data[kk * n..(kk + 4) * n];
                let (b0, rest) = panel.split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, b3) = rest.split_at(n);
                for j in 0..n {
                    o0[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                }
                kk += 4;
            }
            while kk < k {
                let a0 = a_row[kk];
                let b0 = &other.data[kk * n..(kk + 1) * n];
                for j in 0..n {
                    o0[j] += a0 * b0[j];
                }
                kk += 1;
            }
            i += 1;
        }
    }

    /// `self @ other^T`: `[m,k] × [n,k] → [m,n]`. Used for `dX = dY @ W^T`.
    pub fn matmul_bt(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_bt_into(other, &mut out);
        out
    }

    /// `self @ other^T` written into a caller-owned buffer (no allocation).
    /// Both operands are traversed along contiguous rows, so each output
    /// element is a dot product; four independent accumulators expose
    /// instruction-level parallelism that a strictly-ordered sum hides.
    ///
    /// `out` may be narrower than `other.rows`: it then holds the products
    /// with the first `out.cols` rows of `other` only (the tied page head
    /// reads just the live vocabulary). Each element is one dot product,
    /// so the columns it computes do not depend on how many it skips.
    pub fn matmul_bt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_bt shape");
        assert!(
            out.rows == self.rows && out.cols <= other.rows,
            "matmul_bt out shape"
        );
        let (m, n) = (self.rows, out.cols);
        for i in 0..m {
            let a_row = self.row(i);
            let o_row = &mut out.data[i * n..(i + 1) * n];
            for (j, o) in o_row.iter_mut().enumerate() {
                *o = dot4(a_row, other.row(j));
            }
        }
    }

    /// `self^T @ other`: `[k,m] × [k,n] → [m,n]`. Used for `dW = X^T @ dY`.
    pub fn matmul_at(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_at_into(other, &mut out);
        out
    }

    /// `self^T @ other` written into a caller-owned buffer (no allocation).
    /// Rank-1 update form, unrolled four reduction rows at a time so each
    /// output row is touched once per four k-steps.
    pub fn matmul_at_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_at shape");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_at out shape"
        );
        let (k, m, n) = (self.rows, self.cols, other.cols);
        out.data.fill(0.0);
        if m == 0 || k == 0 || n == 0 {
            return;
        }
        let mut kk = 0;
        while kk + 4 <= k {
            let quad = &self.data[kk * m..(kk + 4) * m];
            let (ar0, rest) = quad.split_at(m);
            let (ar1, rest) = rest.split_at(m);
            let (ar2, ar3) = rest.split_at(m);
            let panel = &other.data[kk * n..(kk + 4) * n];
            let (b0, rest) = panel.split_at(n);
            let (b1, rest) = rest.split_at(n);
            let (b2, b3) = rest.split_at(n);
            for i in 0..m {
                let (a0, a1, a2, a3) = (ar0[i], ar1[i], ar2[i], ar3[i]);
                let o_row = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    o_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                }
            }
            kk += 4;
        }
        while kk < k {
            let a_row = &self.data[kk * m..(kk + 1) * m];
            let b_row = &other.data[kk * n..(kk + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                let o_row = &mut out.data[i * n..(i + 1) * n];
                for j in 0..n {
                    o_row[j] += a * b_row[j];
                }
            }
            kk += 1;
        }
    }

    /// Naive `ikj` reference for `matmul` — the seed's kernel minus its
    /// zero-skip branch. Ground truth for the property tests and the
    /// calibration baseline for the perf runner; identical to the tiled
    /// kernel up to f32 summation order.
    pub fn matmul_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            let o_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate().take(k) {
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Naive reference for `matmul_bt` (strictly sequential dot products).
    pub fn matmul_bt_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_bt shape");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            let a_row = self.row(i);
            for j in 0..n {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a_row[kk] * b_row[kk];
                }
                out.data[i * n + j] = acc;
            }
        }
        out
    }

    /// Naive reference for `matmul_at`.
    pub fn matmul_at_ref(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_at shape");
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let a_row = self.row(kk);
            let b_row = other.row(kk);
            for (i, &a) in a_row.iter().enumerate().take(m) {
                let o_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Adds `other` to the last `other.rows` rows of `self`: the residual
    /// and input-gradient sums of a layer that ran only its trailing
    /// query rows. With equal shapes it is [`Matrix::add_assign`].
    pub fn add_assign_trailing(&mut self, other: &Matrix) {
        assert!(
            other.cols == self.cols && other.rows <= self.rows,
            "trailing rows must fit"
        );
        let start = (self.rows - other.rows) * self.cols;
        for (a, b) in self.data[start..].iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    pub fn scale(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Adds `bias` (length `cols`) to every row.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (a, b) in self.row_mut(r).iter_mut().zip(bias.iter()) {
                *a += b;
            }
        }
    }

    /// Row-wise numerically-stable softmax.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// Row-wise numerically-stable softmax, computed in place (no
    /// allocation; used by the arena-backed inference path).
    pub fn softmax_rows_inplace(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Backward through row-wise softmax: given `y = softmax(x)` and
    /// `dL/dy`, returns `dL/dx = y ⊙ (dy - (dy·y) 1)` per row.
    pub fn softmax_rows_backward(y: &Matrix, dy: &Matrix) -> Matrix {
        assert_eq!(y.rows, dy.rows);
        assert_eq!(y.cols, dy.cols);
        let mut dx = Matrix::zeros(y.rows, y.cols);
        for r in 0..y.rows {
            let yr = y.row(r);
            let dyr = dy.row(r);
            let dot: f32 = yr.iter().zip(dyr.iter()).map(|(a, b)| a * b).sum();
            for c in 0..y.cols {
                dx.data[r * y.cols + c] = yr[c] * (dyr[c] - dot);
            }
        }
        dx
    }

    /// Frobenius norm (tests / gradient clipping).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Concatenates two matrices with equal `cols` along rows.
    pub fn vcat(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.cols);
        let mut data = Vec::with_capacity((a.rows + b.rows) * a.cols);
        data.extend_from_slice(&a.data);
        data.extend_from_slice(&b.data);
        Matrix::from_vec(a.rows + b.rows, a.cols, data)
    }

    /// Splits along rows at `r`, inverse of [`Matrix::vcat`].
    pub fn vsplit(&self, r: usize) -> (Matrix, Matrix) {
        assert!(r <= self.rows);
        let top = Matrix::from_vec(r, self.cols, self.data[..r * self.cols].to_vec());
        let bot = Matrix::from_vec(
            self.rows - r,
            self.cols,
            self.data[r * self.cols..].to_vec(),
        );
        (top, bot)
    }
}

/// Dot product with four independent accumulators. The partial sums are
/// combined in a fixed order, so results are deterministic run-to-run (they
/// differ from a strictly sequential sum only by f32 rounding).
#[inline]
fn dot4(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = [0.0f32; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        s[0] += x[0] * y[0];
        s[1] += x[1] * y[1];
        s[2] += x[2] * y[2];
        s[3] += x[3] * y[3];
    }
    let mut t = (s[0] + s[1]) + (s[2] + s[3]);
    for (x, y) in ra.iter().zip(rb.iter()) {
        t += x * y;
    }
    t
}

/// Deterministic RNG used throughout model init.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Standard sinusoidal positional encoding `[rows, dim]` (Vaswani et al.):
/// `PE[p, 2i] = sin(p / 10000^(2i/d))`, `PE[p, 2i+1] = cos(...)`. Being a
/// constant addition, it needs no backward pass — gradients flow through
/// unchanged. Sequence models built on pure attention are permutation-
/// invariant without it and cannot represent order.
pub fn positional_encoding(rows: usize, dim: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, dim);
    for p in 0..rows {
        for i in 0..dim {
            let angle = p as f32 / 10000f32.powf((2 * (i / 2)) as f32 / dim as f32);
            m.data[p * dim + i] = if i % 2 == 0 { angle.sin() } else { angle.cos() };
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let mut r = rng(1);
        let a = Matrix::xavier(4, 5, &mut r);
        let b = Matrix::xavier(3, 5, &mut r);
        let direct = a.matmul_bt(&b);
        let explicit = a.matmul(&b.transpose());
        for (x, y) in direct.data.iter().zip(explicit.data.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let mut r = rng(2);
        let a = Matrix::xavier(5, 4, &mut r);
        let b = Matrix::xavier(5, 3, &mut r);
        let direct = a.matmul_at(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in direct.data.iter().zip(explicit.data.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let s = m.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Larger logit → larger probability.
        assert!(s.at(0, 2) > s.at(0, 1));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_vec(1, 3, vec![1., 2., 3.]).softmax_rows();
        let b = Matrix::from_vec(1, 3, vec![101., 102., 103.]).softmax_rows();
        for (x, y) in a.data.iter().zip(b.data.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = Matrix::from_vec(1, 4, vec![0.3, -0.7, 1.1, 0.05]);
        let dy = Matrix::from_vec(1, 4, vec![0.2, -0.1, 0.4, 0.9]);
        let y = x.softmax_rows();
        let dx = Matrix::softmax_rows_backward(&y, &dy);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let f = |m: &Matrix| -> f32 {
                m.softmax_rows()
                    .data
                    .iter()
                    .zip(dy.data.iter())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 1e-3,
                "i={i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn vcat_vsplit_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(1, 2, vec![5., 6.]);
        let c = Matrix::vcat(&a, &b);
        assert_eq!(c.rows, 3);
        let (x, y) = c.vsplit(2);
        assert_eq!(x, a);
        assert_eq!(y, b);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let mut r = rng(3);
        let a = Matrix::xavier(3, 7, &mut r);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn xavier_respects_limit() {
        let mut r = rng(4);
        let a = Matrix::xavier(10, 10, &mut r);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(a.data.iter().all(|v| v.abs() <= limit));
        // Not all zero.
        assert!(a.norm() > 0.1);
    }

    #[test]
    #[should_panic(expected = "matmul shape")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn tiled_kernels_match_reference_on_odd_shapes() {
        // 2×4 register tile: exercise every remainder combination.
        let mut r = rng(11);
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (2, 4, 4),
            (9, 64, 64),
            (5, 6, 3),
        ] {
            let a = Matrix::xavier(m, k, &mut r);
            let b = Matrix::xavier(k, n, &mut r);
            let fast = a.matmul(&b);
            let slow = a.matmul_ref(&b);
            for (x, y) in fast.data.iter().zip(slow.data.iter()) {
                assert!((x - y).abs() < 1e-5, "({m},{k},{n}): {x} vs {y}");
            }
            let bt = Matrix::xavier(n, k, &mut r);
            for (x, y) in a
                .matmul_bt(&bt)
                .data
                .iter()
                .zip(a.matmul_bt_ref(&bt).data.iter())
            {
                assert!((x - y).abs() < 1e-5);
            }
            let at = Matrix::xavier(m, n, &mut r);
            let ta = Matrix::xavier(m, k, &mut r);
            for (x, y) in ta
                .matmul_at(&at)
                .data
                .iter()
                .zip(ta.matmul_at_ref(&at).data.iter())
            {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn into_variants_reuse_buffers() {
        let mut r = rng(12);
        let a = Matrix::xavier(3, 6, &mut r);
        let b = Matrix::xavier(6, 4, &mut r);
        // Dirty buffer must be fully overwritten.
        let mut out = Matrix::from_vec(3, 4, vec![f32::NAN; 12]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data, a.matmul(&b).data);
        let bt = Matrix::xavier(4, 6, &mut r);
        let mut out2 = Matrix::from_vec(3, 4, vec![7.0; 12]);
        a.matmul_bt_into(&bt, &mut out2);
        assert_eq!(out2.data, a.matmul_bt(&bt).data);
        let at = Matrix::xavier(3, 5, &mut r);
        let mut out3 = Matrix::from_vec(6, 5, vec![-1.0; 30]);
        a.matmul_at_into(&at, &mut out3);
        assert_eq!(out3.data, a.matmul_at(&at).data);
    }

    #[test]
    fn empty_matrices_multiply_to_empty() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        assert_eq!(a.matmul(&b).data.len(), 0);
        let c = Matrix::zeros(2, 0);
        let d = Matrix::zeros(0, 4);
        let e = c.matmul(&d); // inner dim 0 → all zeros
        assert_eq!((e.rows, e.cols), (2, 4));
        assert!(e.data.iter().all(|v| *v == 0.0));
    }

    #[test]
    fn dense_kernel_propagates_nan_through_zero() {
        // The old kernel skipped a == 0.0, which silently turned
        // 0 × NaN into 0 instead of NaN.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f32::NAN, 2.0]);
        assert!(a.matmul(&b).data[0].is_nan());
        let at = Matrix::from_vec(1, 1, vec![0.0]);
        let bn = Matrix::from_vec(1, 1, vec![f32::NAN]);
        assert!(at.matmul_at(&bn).data[0].is_nan());
    }

    #[test]
    fn softmax_inplace_matches_allocating() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., -1., 0., 1.]);
        let mut inplace = m.clone();
        inplace.softmax_rows_inplace();
        assert_eq!(inplace.data, m.softmax_rows().data);
    }

    #[test]
    fn add_bias_adds_rowwise() {
        let mut a = Matrix::zeros(2, 3);
        a.add_bias(&[1.0, 2.0, 3.0]);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[1.0, 2.0, 3.0]);
    }
}
