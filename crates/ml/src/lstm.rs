//! LSTM layer with full backpropagation through time — the backbone of the
//! paper's baselines (Hashemi et al.'s Delta-LSTM and Voyager's two-model
//! predictor) and of the LSTM rows in Tables 6-7.

use crate::arena::ScratchArena;
use crate::layers::{Module, Param};
use crate::tensor::Matrix;
use rand_chacha::ChaCha8Rng;

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Per-timestep cache for BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// Single-layer LSTM. Gate order in the packed weight matrices: input,
/// forget, cell, output.
#[derive(Debug, Clone)]
pub struct Lstm {
    pub w_ih: Param, // [in, 4h]
    pub w_hh: Param, // [h, 4h]
    pub b: Param,    // [1, 4h]
    in_dim: usize,
    hidden: usize,
    cache: Vec<StepCache>,
}

impl Lstm {
    pub fn new(in_dim: usize, hidden: usize, rng: &mut ChaCha8Rng) -> Self {
        let mut b = Param::zeros(1, 4 * hidden);
        // Forget-gate bias init to 1: standard trick for gradient flow.
        for j in hidden..2 * hidden {
            b.w.data[j] = 1.0;
        }
        Lstm {
            w_ih: Param::xavier(in_dim, 4 * hidden, rng),
            w_hh: Param::xavier(hidden, 4 * hidden, rng),
            b,
            in_dim,
            hidden,
            cache: Vec::new(),
        }
    }

    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Packed gate pre-activations `z = b + x W_ih + h_prev W_hh`.
    ///
    /// The input-side saxpy keeps its zero-skip: delta-history features are
    /// sparse 0/1 bitmaps, so skipping zero inputs wins despite the branch.
    /// The recurrent side is dense after the first timestep and runs
    /// branch-free so it vectorizes.
    fn gates_into(&self, x: &[f32], h_prev: &[f32], z: &mut [f32]) {
        z.copy_from_slice(&self.b.w.data);
        for (k, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let row = self.w_ih.w.row(k);
            for (zv, &wv) in z.iter_mut().zip(row.iter()) {
                *zv += xv * wv;
            }
        }
        for (k, &hv) in h_prev.iter().enumerate() {
            let row = self.w_hh.w.row(k);
            for (zv, &wv) in z.iter_mut().zip(row.iter()) {
                *zv += hv * wv;
            }
        }
    }

    fn step(&self, x: &[f32], h_prev: &[f32], c_prev: &[f32]) -> (StepCache, Vec<f32>, Vec<f32>) {
        let h = self.hidden;
        let mut z = vec![0.0; 4 * h];
        self.gates_into(x, h_prev, &mut z);
        let mut i = vec![0.0; h];
        let mut f = vec![0.0; h];
        let mut g = vec![0.0; h];
        let mut o = vec![0.0; h];
        for j in 0..h {
            i[j] = sigmoid(z[j]);
            f[j] = sigmoid(z[h + j]);
            g[j] = z[2 * h + j].tanh();
            o[j] = sigmoid(z[3 * h + j]);
        }
        let mut c = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        let mut h_new = vec![0.0; h];
        for j in 0..h {
            c[j] = f[j] * c_prev[j] + i[j] * g[j];
            tanh_c[j] = c[j].tanh();
            h_new[j] = o[j] * tanh_c[j];
        }
        let cache = StepCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            c_prev: c_prev.to_vec(),
            i,
            f,
            g,
            o,
            tanh_c,
        };
        (cache, h_new, c)
    }

    /// Runs the sequence `x` ([S, in_dim]) from zero state; returns the
    /// hidden states [S, hidden]. Caches for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols, self.in_dim);
        self.cache.clear();
        let mut h = vec![0.0; self.hidden];
        let mut c = vec![0.0; self.hidden];
        let mut out = Matrix::zeros(x.rows, self.hidden);
        for t in 0..x.rows {
            let (cache, h_new, c_new) = self.step(x.row(t), &h, &c);
            out.row_mut(t).copy_from_slice(&h_new);
            self.cache.push(cache);
            h = h_new;
            c = c_new;
        }
        out
    }

    /// Batched inference over `batch` stacked sequences (`x` is
    /// `[batch * seq, in_dim]`, each sequence contiguous): every sequence
    /// runs its own recurrence from zero state, advanced in lock-step so
    /// the gate weights stream through cache once per timestep instead of
    /// once per sequence. The recurrence updates the hidden and cell state
    /// in place, so the steady state allocates nothing. Bit-identical to
    /// the training [`Lstm::forward`] on each sequence; single sequences
    /// run at `batch = 1`.
    pub fn infer_batch_in(&self, x: &Matrix, batch: usize, s: &mut ScratchArena) -> Matrix {
        assert_eq!(x.cols, self.in_dim);
        assert!(
            batch > 0 && x.rows.is_multiple_of(batch),
            "rows must tile by batch"
        );
        let seq = x.rows / batch;
        let hd = self.hidden;
        let mut out = s.take(x.rows, hd);
        let mut hm = s.take(batch, hd);
        let mut cm = s.take(batch, hd);
        let mut zm = s.take(1, 4 * hd);
        for t in 0..seq {
            for b in 0..batch {
                self.gates_into(x.row(b * seq + t), hm.row(b), &mut zm.data);
                let z = &zm.data;
                for j in 0..hd {
                    let i = sigmoid(z[j]);
                    let f = sigmoid(z[hd + j]);
                    let g = z[2 * hd + j].tanh();
                    let o = sigmoid(z[3 * hd + j]);
                    let c = f * cm.at(b, j) + i * g;
                    *cm.at_mut(b, j) = c;
                    *hm.at_mut(b, j) = o * c.tanh();
                }
                out.row_mut(b * seq + t).copy_from_slice(hm.row(b));
            }
        }
        s.give(hm);
        s.give(cm);
        s.give(zm);
        out
    }

    /// BPTT over the cached sequence. `d_out` is [S, hidden]; returns
    /// gradient w.r.t. the inputs [S, in_dim].
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let h = self.hidden;
        let s = self.cache.len();
        assert_eq!(d_out.rows, s);
        let mut dx_all = Matrix::zeros(s, self.in_dim);
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];
        for t in (0..s).rev() {
            let cache = &self.cache[t];
            // Total gradient into h_t.
            let mut dh: Vec<f32> = d_out.row(t).to_vec();
            for (a, b) in dh.iter_mut().zip(dh_next.iter()) {
                *a += b;
            }
            // h = o * tanh(c)
            let mut dz = vec![0.0f32; 4 * h];
            let mut dc = vec![0.0f32; h];
            for j in 0..h {
                let do_ = dh[j] * cache.tanh_c[j];
                dc[j] = dh[j] * cache.o[j] * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]) + dc_next[j];
                let di = dc[j] * cache.g[j];
                let df = dc[j] * cache.c_prev[j];
                let dg = dc[j] * cache.i[j];
                dz[j] = di * cache.i[j] * (1.0 - cache.i[j]);
                dz[h + j] = df * cache.f[j] * (1.0 - cache.f[j]);
                dz[2 * h + j] = dg * (1.0 - cache.g[j] * cache.g[j]);
                dz[3 * h + j] = do_ * cache.o[j] * (1.0 - cache.o[j]);
            }
            // Parameter grads: dW_ih += x^T dz ; dW_hh += h_prev^T dz ; db += dz.
            for (k, &xv) in cache.x.iter().enumerate() {
                if xv != 0.0 {
                    let row = self.w_ih.g.row_mut(k);
                    for (gv, &dv) in row.iter_mut().zip(dz.iter()) {
                        *gv += xv * dv;
                    }
                }
            }
            for (k, &hv) in cache.h_prev.iter().enumerate() {
                if hv != 0.0 {
                    let row = self.w_hh.g.row_mut(k);
                    for (gv, &dv) in row.iter_mut().zip(dz.iter()) {
                        *gv += hv * dv;
                    }
                }
            }
            for (gv, &dv) in self.b.g.data.iter_mut().zip(dz.iter()) {
                *gv += dv;
            }
            // Input and recurrent grads: dx = dz W_ih^T ; dh_prev = dz W_hh^T.
            let dxr = dx_all.row_mut(t);
            for (k, dxv) in dxr.iter_mut().enumerate() {
                let row = self.w_ih.w.row(k);
                *dxv = dz.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
            }
            for (k, dhv) in dh_next.iter_mut().enumerate() {
                let row = self.w_hh.w.row(k);
                *dhv = dz.iter().zip(row.iter()).map(|(a, b)| a * b).sum();
            }
            // dc_prev = dc * f
            for j in 0..h {
                dc_next[j] = dc[j] * cache.f[j];
            }
        }
        dx_all
    }
}

impl Module for Lstm {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_ih);
        f(&mut self.w_hh);
        f(&mut self.b);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w_ih);
        f(&self.w_hh);
        f(&self.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::rng;

    #[test]
    fn forward_shapes_and_bounds() {
        let mut r = rng(1);
        let mut l = Lstm::new(3, 5, &mut r);
        let x = Matrix::xavier(7, 3, &mut r);
        let y = l.forward(&x);
        assert_eq!((y.rows, y.cols), (7, 5));
        // h = o*tanh(c) ∈ (-1, 1).
        assert!(y.data.iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn arena_infer_matches_forward_bit_exactly() {
        let mut r = rng(8);
        let l = Lstm::new(4, 6, &mut r);
        let seqs: Vec<Matrix> = (0..3).map(|_| Matrix::xavier(5, 4, &mut r)).collect();
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let mut s = crate::arena::ScratchArena::new();
        // One sequence, then three in lock-step: every sequence's rows
        // equal the training forward's on that sequence alone.
        for batch in [1usize, 3] {
            let x = seqs[1..batch]
                .iter()
                .fold(seqs[0].clone(), |acc, q| Matrix::vcat(&acc, q));
            let mut warm_misses = None;
            for _ in 0..3 {
                let y = l.infer_batch_in(&x, batch, &mut s);
                for (b, q) in seqs[..batch].iter().enumerate() {
                    let reference = l.clone().forward(q);
                    assert_eq!(
                        bits(&y.data[b * 5 * 6..(b + 1) * 5 * 6]),
                        bits(&reference.data),
                        "batch={batch} seq={b}"
                    );
                }
                s.give(y);
                let (_, misses) = s.stats();
                let warm = *warm_misses.get_or_insert(misses);
                assert_eq!(misses, warm, "batch={batch}: steady state allocated");
            }
        }
    }

    #[test]
    fn state_carries_across_time() {
        // Same input at each step should give different outputs early in the
        // sequence (state accumulates).
        let mut r = rng(3);
        let mut l = Lstm::new(2, 4, &mut r);
        let x = Matrix::from_vec(3, 2, vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
        let y = l.forward(&x);
        assert_ne!(y.row(0), y.row(1));
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut r = rng(4);
        let mut l = Lstm::new(3, 4, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        let w = Matrix::xavier(4, 4, &mut r);
        let _ = l.forward(&x);
        let dx = l.backward(&w);
        let eps = 1e-2f32;
        let mut loss = |m: &Matrix| -> f32 {
            l.forward(m)
                .data
                .iter()
                .zip(w.data.iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 2e-2,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut r = rng(5);
        let mut l = Lstm::new(2, 3, &mut r);
        let x = Matrix::xavier(3, 2, &mut r);
        let w = Matrix::xavier(3, 3, &mut r);
        let _ = l.forward(&x);
        let _ = l.backward(&w);
        let eps = 1e-2f32;
        let loss = |m: &mut Lstm| -> f32 {
            m.forward(&x)
                .data
                .iter()
                .zip(w.data.iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        for (pi, pj) in [(0usize, 0usize), (1, 5), (0, 11)] {
            let mut lp = l.clone();
            *lp.w_ih.w.at_mut(pi, pj) += eps;
            let mut lm = l.clone();
            *lm.w_ih.w.at_mut(pi, pj) -= eps;
            let num = (loss(&mut lp) - loss(&mut lm)) / (2.0 * eps);
            let analytic = l.w_ih.g.at(pi, pj);
            assert!(
                (num - analytic).abs() < 2e-2,
                "w_ih[{pi}][{pj}]: {num} vs {analytic}"
            );
        }
    }

    #[test]
    fn lstm_can_learn_a_toy_pattern() {
        // Learn to output the previous input sign: y_t = sign-ish of x_{t-1}.
        use crate::optim::Adam;
        let mut r = rng(6);
        let mut l = Lstm::new(1, 8, &mut r);
        let mut head = crate::layers::Linear::new(8, 1, &mut r);
        let mut opt = Adam::new(0.02);
        let seq: Vec<f32> = (0..20)
            .map(|i| if i % 3 == 0 { 1.0 } else { -1.0 })
            .collect();
        let x = Matrix::from_vec(seq.len(), 1, seq.clone());
        // Target: shifted input.
        let mut target = vec![0.0f32];
        target.extend_from_slice(&seq[..seq.len() - 1]);
        let mut last_loss = f32::INFINITY;
        for _ in 0..150 {
            l.zero_grad();
            head.zero_grad();
            let h = l.forward(&x);
            let y = head.forward(&h);
            let mut d = Matrix::zeros(y.rows, 1);
            let mut loss = 0.0;
            for ((dt, &yt), &tt) in d.data.iter_mut().zip(&y.data).zip(&target) {
                let e = yt - tt;
                loss += 0.5 * e * e;
                *dt = e;
            }
            let dh = head.backward(&d);
            let _ = l.backward(&dh);
            opt.step(&mut l);
            opt.step(&mut head);
            last_loss = loss;
        }
        assert!(last_loss < 1.0, "loss did not drop: {last_loss}");
    }

    #[test]
    fn param_count() {
        let mut r = rng(7);
        let l = Lstm::new(10, 20, &mut r);
        assert_eq!(l.num_params(), 10 * 80 + 20 * 80 + 80);
    }
}
