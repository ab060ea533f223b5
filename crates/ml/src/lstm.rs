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

/// Single-layer LSTM. Gate order in the packed weight matrices: input,
/// forget, cell, output.
#[derive(Debug, Clone)]
pub struct Lstm {
    pub w_ih: Param, // [in, 4h]
    pub w_hh: Param, // [h, 4h]
    pub b: Param,    // [1, 4h]
    in_dim: usize,
    hidden: usize,
}

/// Columns of one timestep's taped row: the gates `i, f, g, o`, then `c`,
/// `tanh(c)` and `h`, each `hidden` wide.
const STEP_SLOTS: usize = 7;

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

    /// The forward over `batch` stacked sequences (`x` is
    /// `[batch * seq, in_dim]`, each sequence contiguous): every sequence
    /// runs its own recurrence from zero state, advanced in lock-step so
    /// the gate weights stream through cache once per timestep instead of
    /// once per sequence. Returns the hidden states `[batch * seq,
    /// hidden]`. The recurrence updates the hidden and cell state in place,
    /// so the steady state allocates nothing; each sequence's rows are
    /// bit-identical to a B = 1 run on it. A taped forward (B = 1) records
    /// `x` and one row per timestep of gates and states (`STEP_SLOTS`) for
    /// [`Lstm::backward`].
    pub fn infer_batch_in(&self, x: &Matrix, batch: usize, s: &mut ScratchArena) -> Matrix {
        assert_eq!(x.cols, self.in_dim);
        assert!(
            batch > 0 && x.rows.is_multiple_of(batch),
            "rows must tile by batch"
        );
        assert!(
            !s.taping() || batch == 1,
            "a taped forward runs one sequence"
        );
        let seq = x.rows / batch;
        let hd = self.hidden;
        let mut out = s.take(x.rows, hd);
        let mut hm = s.take(batch, hd);
        let mut cm = s.take(batch, hd);
        let mut zm = s.take(1, 4 * hd);
        let mut steps = s.taping().then(|| s.take(seq, STEP_SLOTS * hd));
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
                    let tanh_c = c.tanh();
                    *cm.at_mut(b, j) = c;
                    *hm.at_mut(b, j) = o * tanh_c;
                    if let Some(steps) = &mut steps {
                        let row = steps.row_mut(t);
                        for (slot, v) in [i, f, g, o, c, tanh_c].into_iter().enumerate() {
                            row[slot * hd + j] = v;
                        }
                    }
                }
                if let Some(steps) = &mut steps {
                    steps.row_mut(t)[6 * hd..].copy_from_slice(hm.row(b));
                }
                out.row_mut(b * seq + t).copy_from_slice(hm.row(b));
            }
        }
        s.give(hm);
        s.give(cm);
        s.give(zm);
        if let Some(steps) = steps {
            s.record_copy(x);
            s.record(steps);
        }
        out
    }

    /// BPTT over the taped sequence. `d_out` is [S, hidden]; returns
    /// gradient w.r.t. the inputs [S, in_dim].
    pub fn backward(&mut self, d_out: &Matrix, s: &mut ScratchArena) -> Matrix {
        let steps = s.pop();
        let x = s.pop();
        let h = self.hidden;
        let seq = steps.rows;
        assert_eq!(d_out.rows, seq);
        let zero = vec![0.0f32; h];
        let mut dx_all = Matrix::zeros(seq, self.in_dim);
        let mut dh_next = vec![0.0f32; h];
        let mut dc_next = vec![0.0f32; h];
        for t in (0..seq).rev() {
            let row = steps.row(t);
            let slot = |k: usize| &row[k * h..(k + 1) * h];
            let (i, f, g, o, tanh_c) = (slot(0), slot(1), slot(2), slot(3), slot(5));
            // The previous step's cell and hidden state; zero before t = 0.
            let (c_prev, h_prev) = match t {
                0 => (&zero[..], &zero[..]),
                _ => {
                    let prev = steps.row(t - 1);
                    (&prev[4 * h..5 * h], &prev[6 * h..])
                }
            };
            // Total gradient into h_t.
            let mut dh: Vec<f32> = d_out.row(t).to_vec();
            for (a, b) in dh.iter_mut().zip(dh_next.iter()) {
                *a += b;
            }
            // h = o * tanh(c)
            let mut dz = vec![0.0f32; 4 * h];
            let mut dc = vec![0.0f32; h];
            for j in 0..h {
                let do_ = dh[j] * tanh_c[j];
                dc[j] = dh[j] * o[j] * (1.0 - tanh_c[j] * tanh_c[j]) + dc_next[j];
                let di = dc[j] * g[j];
                let df = dc[j] * c_prev[j];
                let dg = dc[j] * i[j];
                dz[j] = di * i[j] * (1.0 - i[j]);
                dz[h + j] = df * f[j] * (1.0 - f[j]);
                dz[2 * h + j] = dg * (1.0 - g[j] * g[j]);
                dz[3 * h + j] = do_ * o[j] * (1.0 - o[j]);
            }
            // Parameter grads: dW_ih += x^T dz ; dW_hh += h_prev^T dz ; db += dz.
            for (k, &xv) in x.row(t).iter().enumerate() {
                if xv != 0.0 {
                    let row = self.w_ih.g.row_mut(k);
                    for (gv, &dv) in row.iter_mut().zip(dz.iter()) {
                        *gv += xv * dv;
                    }
                }
            }
            for (k, &hv) in h_prev.iter().enumerate() {
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
                dc_next[j] = dc[j] * f[j];
            }
        }
        s.give(steps);
        s.give(x);
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

    /// The forward over one sequence.
    fn run(l: &Lstm, x: &Matrix) -> Matrix {
        l.infer_batch_in(x, 1, &mut ScratchArena::new())
    }

    fn weighted(y: &Matrix, w: &Matrix) -> f32 {
        y.data.iter().zip(w.data.iter()).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn forward_shapes_and_bounds() {
        let mut r = rng(1);
        let l = Lstm::new(3, 5, &mut r);
        let x = Matrix::xavier(7, 3, &mut r);
        let y = run(&l, &x);
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
        // equal the training forward's (B = 1, taped) on that sequence.
        for batch in [1usize, 3] {
            let x = seqs[1..batch]
                .iter()
                .fold(seqs[0].clone(), |acc, q| Matrix::vcat(&acc, q));
            let mut warm_misses = None;
            for _ in 0..3 {
                let y = l.infer_batch_in(&x, batch, &mut s);
                for (b, q) in seqs[..batch].iter().enumerate() {
                    let reference = l.infer_batch_in(q, 1, &mut ScratchArena::with_tape());
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
        let l = Lstm::new(2, 4, &mut r);
        let x = Matrix::from_vec(3, 2, vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
        let y = run(&l, &x);
        assert_ne!(y.row(0), y.row(1));
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut r = rng(4);
        let mut l = Lstm::new(3, 4, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        let w = Matrix::xavier(4, 4, &mut r);
        let mut s = ScratchArena::with_tape();
        let _ = l.infer_batch_in(&x, 1, &mut s);
        let dx = l.backward(&w, &mut s);
        assert_eq!(s.tape_len(), 0);
        let eps = 1e-2f32;
        let loss = |m: &Matrix| weighted(&run(&l, m), &w);
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
        let mut s = ScratchArena::with_tape();
        let _ = l.infer_batch_in(&x, 1, &mut s);
        let _ = l.backward(&w, &mut s);
        let eps = 1e-2f32;
        for (pi, pj) in [(0usize, 0usize), (1, 5), (0, 11)] {
            let mut lp = l.clone();
            *lp.w_ih.w.at_mut(pi, pj) += eps;
            let mut lm = l.clone();
            *lm.w_ih.w.at_mut(pi, pj) -= eps;
            let num = (weighted(&run(&lp, &x), &w) - weighted(&run(&lm, &x), &w)) / (2.0 * eps);
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
        let mut s = ScratchArena::with_tape();
        for _ in 0..150 {
            l.zero_grad();
            head.zero_grad();
            let h = l.infer_batch_in(&x, 1, &mut s);
            let y = head.infer_in(&h, &mut s);
            s.give(h);
            let mut d = Matrix::zeros(y.rows, 1);
            let mut loss = 0.0;
            for ((dt, &yt), &tt) in d.data.iter_mut().zip(&y.data).zip(&target) {
                let e = yt - tt;
                loss += 0.5 * e * e;
                *dt = e;
            }
            s.give(y);
            let dh = head.backward(&d, &mut s);
            let _ = l.backward(&dh, &mut s);
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
