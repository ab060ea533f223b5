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
    /// gradients afterwards.
    pub fn step(&mut self, module: &mut dyn Module) {
        self.t += 1;
        let t = self.t;
        let (lr, b1, b2, eps, clip) = (self.lr, self.beta1, self.beta2, self.eps, self.clip);
        // Bias corrections.
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);
        module.for_each_param(&mut |p: &mut Param| {
            // Per-parameter-tensor clipping keeps exploding LSTM grads sane.
            if clip > 0.0 {
                let norm = p.g.norm();
                if norm > clip {
                    p.g.scale(clip / norm);
                }
            }
            for i in 0..p.w.data.len() {
                let g = p.g.data[i];
                p.m[i] = b1 * p.m[i] + (1.0 - b1) * g;
                p.v[i] = b2 * p.v[i] + (1.0 - b2) * g * g;
                let mhat = p.m[i] / bc1;
                let vhat = p.v[i] / bc2;
                p.w.data[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            p.g.data.fill(0.0);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::tensor::{rng, Matrix};

    /// Fits y = 2x + 1 with a 1×1 linear layer.
    fn fit() -> (f32, f32) {
        let mut r = rng(1);
        let mut l = Linear::new(1, 1, &mut r);
        let xs: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        let mut adam = Adam::new(0.05);
        for _ in 0..400 {
            let x = Matrix::from_vec(xs.len(), 1, xs.clone());
            let y = l.forward(&x);
            let mut d = Matrix::zeros(y.rows, 1);
            for ((di, &yi), &xi) in d.data.iter_mut().zip(&y.data).zip(&xs) {
                *di = (yi - (2.0 * xi + 1.0)) / y.rows as f32;
            }
            let _ = l.backward(&d);
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
        let _ = l.forward(&Matrix::from_vec(1, 2, vec![1.0, -1.0]));
        let _ = l.backward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let mut opt = Adam::new(0.01);
        opt.step(&mut l);
        assert_eq!(l.w.g.norm(), 0.0);
    }

    #[test]
    fn clipping_bounds_update_magnitude() {
        let mut r = rng(3);
        let mut l = Linear::new(2, 2, &mut r);
        let before = l.w.w.clone();
        let _ = l.forward(&Matrix::from_vec(1, 2, vec![1e6, -1e6]));
        let _ = l.backward(&Matrix::from_vec(1, 2, vec![1e6, 1e6]));
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
