//! Scaled dot-product attention (Eq. 7 of the paper) in single-head and
//! multi-head (Eq. 9) forms, with full backward passes.

use crate::arena::ScratchArena;
use crate::layers::{Module, Param};
use crate::tensor::Matrix;
use rand_chacha::ChaCha8Rng;

/// Single-head self-attention: `Y = softmax(Q K^T / sqrt(d)) V` with
/// `Q = X Wq`, `K = X Wk`, `V = X Wv`. This is the "self-attention layer"
/// AMMA applies to each input modality.
#[derive(Debug, Clone)]
pub struct SelfAttention {
    pub wq: Param,
    pub wk: Param,
    pub wv: Param,
    head_dim: usize,
}

impl SelfAttention {
    pub fn new(in_dim: usize, head_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        SelfAttention {
            wq: Param::xavier(in_dim, head_dim, rng),
            wk: Param::xavier(in_dim, head_dim, rng),
            wv: Param::xavier(in_dim, head_dim, rng),
            head_dim,
        }
    }

    pub fn out_dim(&self) -> usize {
        self.head_dim
    }

    /// The forward over `batch` stacked sequences: `x` is
    /// `[batch * seq, in_dim]` with each sequence occupying a contiguous
    /// block of rows. Keys and values cover every row; queries cover only
    /// the last `queries` rows of each sequence, so the result is
    /// `[batch * queries, head_dim]`. A layer whose rows all feed another
    /// layer passes `queries = seq`; a final layer read only at its last
    /// position passes 1. The projections — shared by every row — run as
    /// single fused matmuls over the stack; attention itself is confined
    /// to each sequence's own `[queries, seq]` score block. Every kernel
    /// computes a row from its own inputs alone, so each output row is
    /// bit-identical to the matching row of the same forward on its
    /// sequence alone with every row a query. The result comes from the
    /// arena; the caller `give`s it back. Single sequences run at
    /// `batch = 1`. A taped forward (B = 1, any query count) records `x`,
    /// Q, K, V and the `[queries, seq]` attention weights for
    /// [`SelfAttention::backward`].
    pub fn infer_batch_in(
        &self,
        x: &Matrix,
        batch: usize,
        queries: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        s.record_copy(x);
        self.attend(x, batch, queries, s)
    }

    /// [`SelfAttention::infer_batch_in`] without recording `x`: a taped
    /// forward records Q, K, V and the attention weights.
    fn attend(&self, x: &Matrix, batch: usize, queries: usize, s: &mut ScratchArena) -> Matrix {
        assert!(
            batch > 0 && x.rows.is_multiple_of(batch),
            "rows must tile by batch"
        );
        let seq = x.rows / batch;
        assert!(queries <= seq, "more queries than rows");
        assert!(
            !s.taping() || batch == 1,
            "a taped forward runs one sequence"
        );
        let rows = x.rows;
        let hd = self.head_dim;
        let mut q = s.take(batch * queries, hd);
        let mut k = s.take(rows, hd);
        let mut v = s.take(rows, hd);
        if queries == seq {
            x.matmul_into(&self.wq.w, &mut q);
        } else {
            let xq = s.take_trailing_rows(x, batch, queries);
            xq.matmul_into(&self.wq.w, &mut q);
            s.give(xq);
        }
        x.matmul_into(&self.wk.w, &mut k);
        x.matmul_into(&self.wv.w, &mut v);
        let mut y = s.take(batch * queries, hd);
        let mut qb = s.take(queries, hd);
        let mut kb = s.take(seq, hd);
        let mut vb = s.take(seq, hd);
        let mut yb = s.take(queries, hd);
        let mut scores = s.take(queries, seq);
        for b in 0..batch {
            let span = b * seq * hd..(b + 1) * seq * hd;
            let q_span = b * queries * hd..(b + 1) * queries * hd;
            qb.data.copy_from_slice(&q.data[q_span.clone()]);
            kb.data.copy_from_slice(&k.data[span.clone()]);
            vb.data.copy_from_slice(&v.data[span]);
            qb.matmul_bt_into(&kb, &mut scores);
            scores.scale(1.0 / (hd as f32).sqrt());
            scores.softmax_rows_inplace();
            scores.matmul_into(&vb, &mut yb);
            y.data[q_span].copy_from_slice(&yb.data);
        }
        s.give(qb);
        s.give(kb);
        s.give(vb);
        s.give(yb);
        s.record(q);
        s.record(k);
        s.record(v);
        // At B = 1 the last score block is the whole attention matrix.
        s.record(scores);
        y
    }

    /// Pops the recorded `x`, Q, K, V and attention weights and
    /// backpropagates `dy`, the gradient of the `queries` output rows;
    /// the attention weights' shape gives `[queries, seq]`. Returns the
    /// gradient of every row of `x`: all rows feed K and V, the last
    /// `queries` also Q. A query row's gradient sums
    /// `(dQ Wqᵀ + dK Wkᵀ) + dV Wvᵀ` in that grouping; the other rows have
    /// no dQ term, which for them is an exact zero (a kernel sum starts at
    /// +0.0 and is never −0.0, so leaving it out changes no bit).
    pub fn backward(&mut self, dy: &Matrix, s: &mut ScratchArena) -> Matrix {
        let [dq, dk, dv] = self.attend_backward(dy, s);
        let x = s.pop();
        // Parameter grads; Q read only the query rows of `x`.
        let xq = (dq.rows < x.rows).then(|| s.take_trailing_rows(&x, 1, dq.rows));
        self.wq
            .g
            .add_assign(&xq.as_ref().unwrap_or(&x).matmul_at(&dq));
        self.wk.g.add_assign(&x.matmul_at(&dk));
        self.wv.g.add_assign(&x.matmul_at(&dv));
        let dx = self.input_grad(&dq, &dk, &dv);
        for m in [dq, dk, dv, x].into_iter().chain(xq) {
            s.give(m);
        }
        dx
    }

    /// Pops the attention weights, V, K and Q an [`attend`](Self::attend)
    /// recorded and backpropagates `dy` through the attention alone:
    /// returns `[dQ, dK, dV]`, arena buffers of `[queries, head_dim]`,
    /// `[seq, head_dim]` and `[seq, head_dim]`.
    fn attend_backward(&self, dy: &Matrix, s: &mut ScratchArena) -> [Matrix; 3] {
        let attn = s.pop();
        let v = s.pop();
        let k = s.pop();
        let q = s.pop();
        let (queries, seq) = (attn.rows, attn.cols);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // Y = A V
        let mut d_attn = s.take(queries, seq);
        dy.matmul_bt_into(&v, &mut d_attn);
        let mut dv = s.take(seq, self.head_dim);
        attn.matmul_at_into(dy, &mut dv);
        // A = softmax(S)
        let mut ds = Matrix::softmax_rows_backward(&attn, &d_attn);
        ds.scale(scale);
        // S = Q K^T (scaled already folded into ds)
        let mut dq = s.take(queries, self.head_dim);
        ds.matmul_into(&k, &mut dq);
        let mut dk = s.take(seq, self.head_dim);
        ds.matmul_at_into(&q, &mut dk);
        for m in [attn, v, k, q, d_attn] {
            s.give(m);
        }
        [dq, dk, dv]
    }

    /// The gradient of every row of `x` from the projections' gradients:
    /// `(dQ Wqᵀ + dK Wkᵀ) + dV Wvᵀ` on the query rows (the last
    /// `dq.rows`), `dK Wkᵀ + dV Wvᵀ` on the others.
    fn input_grad(&self, dq: &Matrix, dk: &Matrix, dv: &Matrix) -> Matrix {
        let mut dx = dk.matmul_bt(&self.wk.w);
        dx.add_assign_trailing(&dq.matmul_bt(&self.wq.w));
        dx.add_assign(&dv.matmul_bt(&self.wv.w));
        dx
    }
}

impl Module for SelfAttention {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.wq);
        f(&self.wk);
        f(&self.wv);
    }
}

/// Multi-head self-attention (Eq. 9): H parallel heads of dimension
/// `dim / heads`, concatenated and projected by `Wo`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    pub heads: Vec<SelfAttention>,
    pub wo: Param,
    dim: usize,
}

impl MultiHeadAttention {
    pub fn new(dim: usize, num_heads: usize, rng: &mut ChaCha8Rng) -> Self {
        assert!(dim.is_multiple_of(num_heads), "dim must divide by heads");
        let head_dim = dim / num_heads;
        MultiHeadAttention {
            heads: (0..num_heads)
                .map(|_| SelfAttention::new(dim, head_dim, rng))
                .collect(),
            wo: Param::xavier(dim, dim, rng),
            dim,
        }
    }

    /// The forward over `batch` stacked sequences for the last `queries`
    /// rows of each; see [`SelfAttention::infer_batch_in`]. A taped
    /// forward records `x` once, then each head's Q, K, V and attention
    /// weights, then the concatenated heads (Wo's input).
    pub fn infer_batch_in(
        &self,
        x: &Matrix,
        batch: usize,
        queries: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        let rows = batch * queries;
        let head_dim = self.dim / self.heads.len();
        let mut concat = s.take(rows, self.dim);
        s.record_copy(x);
        for (h, head) in self.heads.iter().enumerate() {
            let y = head.attend(x, batch, queries, s);
            for r in 0..rows {
                concat.row_mut(r)[h * head_dim..(h + 1) * head_dim].copy_from_slice(y.row(r));
            }
            s.give(y);
        }
        let mut out = s.take(rows, self.wo.w.cols);
        concat.matmul_into(&self.wo.w, &mut out);
        s.record(concat);
        out
    }

    /// Pops the recorded concatenation, every head's entries (last head
    /// first) and `x`, and backpropagates `dy`, the gradient of the query
    /// rows. Wo runs on those rows alone. Each head's attention backward
    /// writes its dQ, dK and dV into column block h of three `[rows, dim]`
    /// buffers, and one `matmul_at` per projection family, `xqᵀ·dQ`,
    /// `xᵀ·dK` and `xᵀ·dV`, gives every head's weight gradient at once:
    /// `matmul_at` computes each output column from that column of its
    /// right operand alone, so block h is bit for bit the head's own
    /// product, and each head's `Param` still receives one `g += block`.
    /// Each head's input gradient is `(dQ Wqᵀ + dK Wkᵀ) + dV Wvᵀ` (see
    /// [`SelfAttention::backward`]), and the heads' are summed in head
    /// order.
    pub fn backward(&mut self, dy: &Matrix, s: &mut ScratchArena) -> Matrix {
        let concat = s.pop();
        self.wo.g.add_assign(&concat.matmul_at(dy));
        s.give(concat);
        let d_concat = dy.matmul_bt(&self.wo.w);
        let (queries, hd) = (d_concat.rows, self.dim / self.heads.len());
        let mut d_head = s.take(queries, hd);
        let mut blocks: Option<[Matrix; 3]> = None;
        let mut dxs = Vec::with_capacity(self.heads.len());
        for (h, head) in self.heads.iter().enumerate().rev() {
            let cols = h * hd..(h + 1) * hd;
            for r in 0..queries {
                d_head
                    .row_mut(r)
                    .copy_from_slice(&d_concat.row(r)[cols.clone()]);
            }
            let grads = head.attend_backward(&d_head, s);
            let all =
                blocks.get_or_insert_with(|| grads.each_ref().map(|g| s.take(g.rows, self.dim)));
            for (block, g) in all.iter_mut().zip(&grads) {
                for r in 0..g.rows {
                    block.row_mut(r)[cols.clone()].copy_from_slice(g.row(r));
                }
            }
            let [dq, dk, dv] = grads;
            dxs.push(head.input_grad(&dq, &dk, &dv));
            for m in [dq, dk, dv] {
                s.give(m);
            }
        }
        s.give(d_head);
        let x = s.pop();
        let [dq_all, dk_all, dv_all] = blocks.expect("at least one head");
        let xq = (queries < x.rows).then(|| s.take_trailing_rows(&x, 1, queries));
        let mut w_grad = s.take(self.dim, self.dim);
        xq.as_ref()
            .unwrap_or(&x)
            .matmul_at_into(&dq_all, &mut w_grad);
        self.add_head_blocks(&w_grad, |head| &mut head.wq);
        x.matmul_at_into(&dk_all, &mut w_grad);
        self.add_head_blocks(&w_grad, |head| &mut head.wk);
        x.matmul_at_into(&dv_all, &mut w_grad);
        self.add_head_blocks(&w_grad, |head| &mut head.wv);
        for m in [w_grad, dq_all, dk_all, dv_all, x].into_iter().chain(xq) {
            s.give(m);
        }
        // `dxs` holds the last head's gradient first.
        let mut dx = dxs.pop().expect("at least one head");
        for g in dxs.iter().rev() {
            dx.add_assign(g);
        }
        dx
    }

    /// Adds column block h of `grad`, the `[dim, dim]` weight gradient of
    /// one projection family, to that projection's gradient in head h.
    fn add_head_blocks(&mut self, grad: &Matrix, param: impl Fn(&mut SelfAttention) -> &mut Param) {
        let hd = self.dim / self.heads.len();
        for (h, head) in self.heads.iter_mut().enumerate() {
            let g = &mut param(head).g;
            for r in 0..grad.rows {
                let block = &grad.row(r)[h * hd..(h + 1) * hd];
                for (a, b) in g.row_mut(r).iter_mut().zip(block) {
                    *a += b;
                }
            }
        }
    }
}

impl Module for MultiHeadAttention {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for h in &mut self.heads {
            h.for_each_param(f);
        }
        f(&mut self.wo);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        for h in &self.heads {
            h.for_each_param_ref(f);
        }
        f(&self.wo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::rng;

    fn weighted_sum(y: &Matrix, w: &Matrix) -> f32 {
        y.data.iter().zip(w.data.iter()).map(|(a, b)| a * b).sum()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The forward at B = 1 with every row a query.
    fn full(a: &SelfAttention, x: &Matrix) -> Matrix {
        a.infer_batch_in(x, 1, x.rows, &mut ScratchArena::new())
    }

    /// [`full`] on a taping arena, returned with the tape for the
    /// backward.
    fn taped<F>(fwd: F, x: &Matrix) -> (Matrix, ScratchArena)
    where
        F: Fn(&Matrix, usize, usize, &mut ScratchArena) -> Matrix,
    {
        let mut s = ScratchArena::with_tape();
        let y = fwd(x, 1, x.rows, &mut s);
        (y, s)
    }

    #[test]
    fn arena_forward_matches_training_forward_at_every_query_count() {
        let mut r = rng(8);
        let single = SelfAttention::new(8, 4, &mut r);
        let multi = MultiHeadAttention::new(8, 2, &mut r);
        let seq = 4;
        let seqs: Vec<Matrix> = (0..5).map(|_| Matrix::xavier(seq, 8, &mut r)).collect();
        // The reference is the taped forward: B = 1, every row a query.
        let single_ref: Vec<Matrix> = seqs
            .iter()
            .map(|x| taped(|x, b, q, s| single.infer_batch_in(x, b, q, s), x).0)
            .collect();
        let multi_ref: Vec<Matrix> = seqs
            .iter()
            .map(|x| taped(|x, b, q, s| multi.infer_batch_in(x, b, q, s), x).0)
            .collect();
        let mut s = crate::arena::ScratchArena::new();
        for batch in [1usize, 2, 5] {
            let x = seqs[1..batch]
                .iter()
                .fold(seqs[0].clone(), |acc, q| Matrix::vcat(&acc, q));
            for queries in 1..=seq {
                let outputs = [
                    (
                        single.infer_batch_in(&x, batch, queries, &mut s),
                        &single_ref,
                    ),
                    (multi.infer_batch_in(&x, batch, queries, &mut s), &multi_ref),
                ];
                for (layer, (y, refs)) in outputs.into_iter().enumerate() {
                    assert_eq!(y.rows, batch * queries);
                    for (b, reference) in refs[..batch].iter().enumerate() {
                        for i in 0..queries {
                            assert_eq!(
                                bits(y.row(b * queries + i)),
                                bits(reference.row(seq - queries + i)),
                                "layer {layer} batch={batch} queries={queries} seq={b} row={i}"
                            );
                        }
                    }
                    s.give(y);
                }
            }
        }
    }

    #[test]
    fn self_attention_shapes() {
        let mut r = rng(1);
        let a = SelfAttention::new(8, 4, &mut r);
        let x = Matrix::xavier(5, 8, &mut r);
        let y = full(&a, &x);
        assert_eq!((y.rows, y.cols), (5, 4));
        assert_eq!(a.out_dim(), 4);
    }

    #[test]
    fn self_attention_rows_are_convex_combinations() {
        // With Wv = identity-ish small test: attention output of row r is a
        // convex combination of V rows, so it is bounded by V's extremes.
        let mut r = rng(2);
        let mut a = SelfAttention::new(4, 4, &mut r);
        // Force Wv = I to check convexity directly on X-projected values.
        a.wv.w = Matrix::from_vec(
            4,
            4,
            (0..16)
                .map(|i| if i % 5 == 0 { 1.0 } else { 0.0 })
                .collect(),
        );
        let x = Matrix::xavier(6, 4, &mut r);
        let y = full(&a, &x);
        for c in 0..4 {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for row in 0..6 {
                lo = lo.min(x.at(row, c));
                hi = hi.max(x.at(row, c));
            }
            for row in 0..6 {
                assert!(y.at(row, c) >= lo - 1e-5 && y.at(row, c) <= hi + 1e-5);
            }
        }
    }

    #[test]
    fn self_attention_input_gradient_matches_finite_difference() {
        let mut r = rng(3);
        let mut a = SelfAttention::new(4, 3, &mut r);
        let x = Matrix::xavier(3, 4, &mut r);
        let w = Matrix::xavier(3, 3, &mut r);
        let (_, mut s) = taped(|x, b, q, s| a.infer_batch_in(x, b, q, s), &x);
        let dx = a.backward(&w, &mut s);
        assert_eq!(s.tape_len(), 0);
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num =
                (weighted_sum(&full(&a, &xp), &w) - weighted_sum(&full(&a, &xm), &w)) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 3e-2,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    fn self_attention_weight_gradient_matches_finite_difference() {
        let mut r = rng(4);
        let mut a = SelfAttention::new(3, 2, &mut r);
        let x = Matrix::xavier(4, 3, &mut r);
        let w = Matrix::xavier(4, 2, &mut r);
        let (_, mut s) = taped(|x, b, q, s| a.infer_batch_in(x, b, q, s), &x);
        let _ = a.backward(&w, &mut s);
        let eps = 1e-2f32;
        for (pi, get) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let mut ap = a.clone();
            let mut am = a.clone();
            // Perturb wq[pi][get].
            *ap.wq.w.at_mut(pi, get) += eps;
            *am.wq.w.at_mut(pi, get) -= eps;
            let num =
                (weighted_sum(&full(&ap, &x), &w) - weighted_sum(&full(&am, &x), &w)) / (2.0 * eps);
            let analytic = a.wq.g.at(pi, get);
            assert!(
                (num - analytic).abs() < 3e-2,
                "wq[{pi}][{get}]: {num} vs {analytic}"
            );
        }
    }

    #[test]
    fn multi_head_shapes_and_params() {
        let mut r = rng(5);
        let mha = MultiHeadAttention::new(8, 4, &mut r);
        let x = Matrix::xavier(6, 8, &mut r);
        let y = mha.infer_batch_in(&x, 1, 6, &mut ScratchArena::new());
        assert_eq!((y.rows, y.cols), (6, 8));
        // 4 heads × 3 matrices × 8×2 + Wo 8×8.
        assert_eq!(mha.num_params(), 4 * 3 * 16 + 64);
    }

    #[test]
    fn multi_head_gradient_matches_finite_difference() {
        let mut r = rng(6);
        let mut mha = MultiHeadAttention::new(4, 2, &mut r);
        let x = Matrix::xavier(3, 4, &mut r);
        let w = Matrix::xavier(3, 4, &mut r);
        let (_, mut s) = taped(|x, b, q, s| mha.infer_batch_in(x, b, q, s), &x);
        let dx = mha.backward(&w, &mut s);
        assert_eq!(s.tape_len(), 0);
        let f = |m: &Matrix| mha.infer_batch_in(m, 1, m.rows, &mut ScratchArena::new());
        let eps = 1e-2f32;
        for i in [0usize, 3, 7, 11] {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (weighted_sum(&f(&xp), &w) - weighted_sum(&f(&xm), &w)) / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 3e-2,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    /// The merged backward against each head run as its own
    /// `SelfAttention` (taped forward, backward on its block of
    /// `dy · Woᵀ`), with the heads' input gradients summed in head order:
    /// `dx`, Wo's gradient and every head's three weight gradients keep
    /// their bits, at one, two and four heads and at one query row and
    /// every row. Gradients start dirty, so each must receive exactly one
    /// `g += block`.
    #[test]
    fn merged_backward_matches_per_head_backward_bit_for_bit() {
        let mut r = rng(9);
        let (dim, seq) = (16, 5);
        for heads in [1usize, 2, 4] {
            for queries in [1, seq] {
                let mut mha = MultiHeadAttention::new(dim, heads, &mut r);
                mha.for_each_param(&mut |p| p.g = Matrix::xavier(p.g.rows, p.g.cols, &mut r));
                let x = Matrix::xavier(seq, dim, &mut r);
                let dy = Matrix::xavier(queries, dim, &mut r);

                let mut merged = mha.clone();
                let mut s = ScratchArena::with_tape();
                let y = merged.infer_batch_in(&x, 1, queries, &mut s);
                let dx = merged.backward(&dy, &mut s);
                assert_eq!(s.tape_len(), 0);

                let mut per_head = mha.clone();
                let hd = dim / heads;
                let mut concat = Matrix::zeros(queries, dim);
                let mut tapes = Vec::new();
                for (h, head) in per_head.heads.iter().enumerate() {
                    let mut t = ScratchArena::with_tape();
                    let yh = head.infer_batch_in(&x, 1, queries, &mut t);
                    for i in 0..queries {
                        concat.row_mut(i)[h * hd..(h + 1) * hd].copy_from_slice(yh.row(i));
                    }
                    tapes.push(t);
                }
                assert_eq!(bits(&concat.matmul(&per_head.wo.w).data), bits(&y.data));
                per_head.wo.g.add_assign(&concat.matmul_at(&dy));
                let d_concat = dy.matmul_bt(&per_head.wo.w);
                let mut dxs =
                    per_head
                        .heads
                        .iter_mut()
                        .zip(&mut tapes)
                        .enumerate()
                        .map(|(h, (head, t))| {
                            let mut d_head = Matrix::zeros(queries, hd);
                            for i in 0..queries {
                                d_head
                                    .row_mut(i)
                                    .copy_from_slice(&d_concat.row(i)[h * hd..(h + 1) * hd]);
                            }
                            head.backward(&d_head, t)
                        });
                let first = dxs.next().expect("at least one head");
                let want = dxs.fold(first, |mut sum, dxh| {
                    sum.add_assign(&dxh);
                    sum
                });
                assert_eq!(
                    bits(&dx.data),
                    bits(&want.data),
                    "dx, {heads} heads, {queries} queries"
                );
                let mut got_g = Vec::new();
                merged.for_each_param_ref(&mut |p| got_g.push(bits(&p.g.data)));
                let mut want_g = Vec::new();
                per_head.for_each_param_ref(&mut |p| want_g.push(bits(&p.g.data)));
                for (i, (g, w)) in got_g.iter().zip(&want_g).enumerate() {
                    assert_eq!(g, w, "param {i}, {heads} heads, {queries} queries");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn multi_head_rejects_indivisible_dims() {
        let mut r = rng(7);
        let _ = MultiHeadAttention::new(6, 4, &mut r);
    }
}
