//! The optimizer: Adam, which every model in the reproduction trains with
//! (through [`crate::guard::fit`]).

use crate::layers::{Module, Param};

/// Adam optimizer (Kingma & Ba). Moment buffers live inside each [`Param`],
/// so one `Adam` instance can drive any number of modules; the timestep is
/// kept per-optimizer as is conventional.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Optional global gradient-norm clip (0 disables).
    pub clip: f32,
    t: i32,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: 5.0,
            t: 0,
        }
    }

    /// Applies one update to every parameter of `module` and zeroes the
    /// gradients as it reads them.
    pub fn step(&mut self, module: &mut dyn Module) {
        self.t += 1;
        let t = self.t;
        let (lr, b1, b2, eps, clip) = (self.lr, self.beta1, self.beta2, self.eps, self.clip);
        // Bias corrections.
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);
        module.for_each_param(&mut |p: &mut Param| {
            // Per-parameter-tensor clipping keeps exploding LSTM grads sane.
            // The exact norm is read only when the clip might fire.
            if clip > 0.0 && norm_may_exceed(&p.g.data, clip) {
                let norm = p.g.norm();
                if norm > clip {
                    p.g.scale(clip / norm);
                }
            }
            // `1 − β₁ᵗ` rounds to exactly 1.0 after a few hundred steps
            // (t ≥ 165 at β₁ = 0.9), and dividing by 1.0 returns its
            // operand bit for bit (`m` is never a signaling NaN: every
            // value of it is computed), so the loop then skips it.
            if bc1 == 1.0 {
                update(p, (b1, b2, bc2, lr, eps), |m| m);
            } else {
                update(p, (b1, b2, bc2, lr, eps), |m| m / bc1);
            }
        });
    }
}

/// Adam's update of every element of `p` in one pass, zeroing each
/// gradient as it reads it: the expressions of the textbook loop, in its
/// order, with the first moment's bias correction left to `unbias_m`.
#[inline(always)]
fn update(
    p: &mut Param,
    (b1, b2, bc2, lr, eps): (f32, f32, f32, f32, f32),
    unbias_m: impl Fn(f32) -> f32,
) {
    let moments = p.m.iter_mut().zip(p.v.iter_mut());
    for ((w, (m, v)), g) in p.w.data.iter_mut().zip(moments).zip(p.g.data.iter_mut()) {
        let g = std::mem::take(g);
        *m = b1 * *m + (1.0 - b1) * g;
        *v = b2 * *v + (1.0 - b2) * g * g;
        let mhat = unbias_m(*m);
        let vhat = *v / bc2;
        *w -= lr * mhat / (vhat.sqrt() + eps);
    }
}

/// Whether [`Matrix::norm`](crate::tensor::Matrix::norm) of `g` may
/// exceed `clip` (> 0): `false` only when it provably does not. The exact
/// norm is a strictly sequential `f32` sum of squares, which no compiler
/// may reorder; this check sums the same squares in 16 independent lanes,
/// which vectorizes, and widens the result by a bound on how far the two
/// sums can disagree.
///
/// Why `false` is safe. Let `x_i = fl(g_i²) ≥ 0` be the rounded squares
/// both sums add (the same products), `S = Σ x_i` exactly, `n = g.len()`
/// and `u = 2⁻²⁴`. Every `f32` addition of finite non-negative operands
/// returns `(a + b)(1 + δ)` with `|δ| ≤ u` (exactly, if subnormal), and
/// adding onto 0.0 is exact. The sequential sum therefore satisfies
/// `S_seq ≤ (1 + u)^(n−1) S`. The lanes each add at most `m = ⌈n/16⌉`
/// terms onto 0.0 and then combine pairwise in four levels, so
/// `S_lane ≥ (1 − u)^(m+3) S`. Together, `S_seq ≤ S_lane · (1 + u)^a ·
/// (1 − u)^−b` with `a + b = n + m + 2 ≤ (17n + 47)/16`; for
/// `2 ≤ n ≤ 2²⁰` that exponent keeps `y = (a + b)·u·(1 + 2u)` below
/// 0.067, `eᵞ ≤ 1 + 1.067y`, and `1.067 · (17n + 47)/16 ≤ 2.9n < 4n`,
/// so `S_seq < S_lane · (1 + 4nu)` with room to spare for the one `f64`
/// rounding of that product. For `n ≤ 1` both sums are exact. So if
/// `S_lane · (1 + 4nu) < clip²` (exact in `f64`) and `< f32::MAX`, the
/// sequential sum, every partial sum of it included, stays below both:
/// it does not overflow, `√S_seq < clip`, and the correctly rounded
/// `f32` square root is at most `clip`, so `norm > clip` is false.
///
/// NaN and ±∞ entries, an overflowing lane sum and `n > 2²⁰` all fail
/// the test and take the exact path.
pub fn norm_may_exceed(g: &[f32], clip: f32) -> bool {
    const MAX_LEN: usize = 1 << 20;
    if g.len() > MAX_LEN {
        return true;
    }
    let mut lanes = [0.0f32; 16];
    let mut chunks = g.chunks_exact(16);
    for chunk in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(chunk) {
            *l += v * v;
        }
    }
    for (l, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        *l += v * v;
    }
    for width in [8, 4, 2, 1] {
        for j in 0..width {
            lanes[j] += lanes[j + width];
        }
    }
    let widened = f64::from(lanes[0]) * (1.0 + 4.0 * g.len() as f64 * f64::powi(2.0, -24));
    let limit = (f64::from(clip) * f64::from(clip)).min(f64::from(f32::MAX));
    // A NaN sum compares as unordered and lands on the exact path.
    widened.partial_cmp(&limit) != Some(std::cmp::Ordering::Less)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ScratchArena;
    use crate::layers::Linear;
    use crate::tensor::{rng, Matrix};

    /// Fits y = 2x + 1 with a 1×1 linear layer.
    fn fit() -> (f32, f32) {
        let mut r = rng(1);
        let mut l = Linear::new(1, 1, &mut r);
        let xs: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        let mut adam = Adam::new(0.05);
        let mut s = ScratchArena::with_tape();
        for _ in 0..400 {
            let x = Matrix::from_vec(xs.len(), 1, xs.clone());
            let y = l.infer_in(&x, &mut s);
            let mut d = Matrix::zeros(y.rows, 1);
            for ((di, &yi), &xi) in d.data.iter_mut().zip(&y.data).zip(&xs) {
                *di = (yi - (2.0 * xi + 1.0)) / y.rows as f32;
            }
            s.give(y);
            let _ = l.backward(&d, &mut s);
            adam.step(&mut l);
        }
        (l.w.w.data[0], l.b.w.data[0])
    }

    #[test]
    fn adam_fits_linear_regression() {
        let (w, b) = fit();
        assert!((w - 2.0).abs() < 0.05, "w {w}");
        assert!((b - 1.0).abs() < 0.05, "b {b}");
    }

    #[test]
    fn adam_zeroes_gradients_after_step() {
        let mut r = rng(2);
        let mut l = Linear::new(2, 2, &mut r);
        let mut s = ScratchArena::with_tape();
        let _ = l.infer_in(&Matrix::from_vec(1, 2, vec![1.0, -1.0]), &mut s);
        let _ = l.backward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]), &mut s);
        let mut opt = Adam::new(0.01);
        opt.step(&mut l);
        assert_eq!(l.w.g.norm(), 0.0);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut r = rng(3);
        let mut l = Linear::new(2, 2, &mut r);
        let before = l.w.w.clone();
        let mut s = ScratchArena::with_tape();
        let _ = l.infer_in(&Matrix::from_vec(1, 2, vec![1e6, -1e6]), &mut s);
        let _ = l.backward(&Matrix::from_vec(1, 2, vec![1e6, 1e6]), &mut s);
        let mut opt = Adam::new(0.01);
        opt.step(&mut l);
        // Adam's per-coordinate update is bounded by ~lr regardless of the
        // raw gradient magnitude; clipping keeps moments finite.
        for (a, b) in l.w.w.data.iter().zip(before.data.iter()) {
            assert!((a - b).abs() < 0.1, "update too large: {} -> {}", b, a);
            assert!(a.is_finite());
        }
    }
}
