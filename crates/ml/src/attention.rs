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
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    attn: Matrix, // post-softmax weights
}

impl SelfAttention {
    pub fn new(in_dim: usize, head_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        SelfAttention {
            wq: Param::xavier(in_dim, head_dim, rng),
            wk: Param::xavier(in_dim, head_dim, rng),
            wv: Param::xavier(in_dim, head_dim, rng),
            head_dim,
            cache: None,
        }
    }

    pub fn out_dim(&self) -> usize {
        self.head_dim
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let q = x.matmul(&self.wq.w);
        let k = x.matmul(&self.wk.w);
        let v = x.matmul(&self.wv.w);
        let mut scores = q.matmul_bt(&k);
        scores.scale(1.0 / (self.head_dim as f32).sqrt());
        let attn = scores.softmax_rows();
        let y = attn.matmul(&v);
        self.cache = Some(AttnCache {
            x: x.clone(),
            q,
            k,
            v,
            attn,
        });
        y
    }

    /// Batched inference over `batch` stacked sequences: `x` is
    /// `[batch * seq, in_dim]` with each sequence occupying a contiguous
    /// block of rows. Keys and values cover every row; queries cover only
    /// the last `queries` rows of each sequence, so the result is
    /// `[batch * queries, head_dim]`. A layer whose rows all feed another
    /// layer passes `queries = seq`; a final layer read only at its last
    /// position passes 1. The projections — shared by every row — run as
    /// single fused matmuls over the stack; attention itself is confined
    /// to each sequence's own `[queries, seq]` score block. Every kernel
    /// computes a row from its own inputs alone, so each output row is
    /// bit-identical to the matching row of the training
    /// [`SelfAttention::forward`] on its sequence. The result comes from
    /// the arena; the caller `give`s it back. Single sequences run here at
    /// `batch = 1`.
    pub fn infer_batch_in(
        &self,
        x: &Matrix,
        batch: usize,
        queries: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        assert!(
            batch > 0 && x.rows.is_multiple_of(batch),
            "rows must tile by batch"
        );
        let seq = x.rows / batch;
        assert!(queries <= seq, "more queries than rows");
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
        s.give(scores);
        s.give(q);
        s.give(k);
        s.give(v);
        y
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let c = self.cache.as_ref().expect("forward before backward");
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // Y = A V
        let d_attn = dy.matmul_bt(&c.v);
        let dv = c.attn.matmul_at(dy);
        // A = softmax(S)
        let mut ds = Matrix::softmax_rows_backward(&c.attn, &d_attn);
        ds.scale(scale);
        // S = Q K^T (scaled already folded into ds)
        let dq = ds.matmul(&c.k);
        let dk = ds.matmul_at(&c.q);
        // Parameter grads.
        self.wq.g.add_assign(&c.x.matmul_at(&dq));
        self.wk.g.add_assign(&c.x.matmul_at(&dk));
        self.wv.g.add_assign(&c.x.matmul_at(&dv));
        // Input grad.
        let mut dx = dq.matmul_bt(&self.wq.w);
        dx.add_assign(&dk.matmul_bt(&self.wk.w));
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
    cache_concat: Option<Matrix>,
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
            cache_concat: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let s = x.rows;
        let head_dim = self.dim / self.heads.len();
        let mut concat = Matrix::zeros(s, self.dim);
        for (h, head) in self.heads.iter_mut().enumerate() {
            let y = head.forward(x);
            for r in 0..s {
                concat.row_mut(r)[h * head_dim..(h + 1) * head_dim].copy_from_slice(y.row(r));
            }
        }
        let out = concat.matmul(&self.wo.w);
        self.cache_concat = Some(concat);
        out
    }

    /// Batched inference over `batch` stacked sequences for the last
    /// `queries` rows of each; see [`SelfAttention::infer_batch_in`]. Each
    /// output row is bit-identical to the matching row of the training
    /// [`MultiHeadAttention::forward`] on its sequence.
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
        for (h, head) in self.heads.iter().enumerate() {
            let y = head.infer_batch_in(x, batch, queries, s);
            for r in 0..rows {
                concat.row_mut(r)[h * head_dim..(h + 1) * head_dim].copy_from_slice(y.row(r));
            }
            s.give(y);
        }
        let mut out = s.take(rows, self.wo.w.cols);
        concat.matmul_into(&self.wo.w, &mut out);
        s.give(concat);
        out
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let concat = self.cache_concat.as_ref().expect("forward before backward");
        self.wo.g.add_assign(&concat.matmul_at(dy));
        let d_concat = dy.matmul_bt(&self.wo.w);
        let head_dim = self.dim / self.heads.len();
        let mut dx: Option<Matrix> = None;
        for (h, head) in self.heads.iter_mut().enumerate() {
            let mut d_head = Matrix::zeros(d_concat.rows, head_dim);
            for r in 0..d_concat.rows {
                d_head
                    .row_mut(r)
                    .copy_from_slice(&d_concat.row(r)[h * head_dim..(h + 1) * head_dim]);
            }
            let g = head.backward(&d_head);
            match &mut dx {
                None => dx = Some(g),
                Some(acc) => acc.add_assign(&g),
            }
        }
        dx.expect("at least one head")
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

    #[test]
    fn arena_forward_matches_training_forward_at_every_query_count() {
        let mut r = rng(8);
        let single = SelfAttention::new(8, 4, &mut r);
        let multi = MultiHeadAttention::new(8, 2, &mut r);
        let seq = 4;
        let seqs: Vec<Matrix> = (0..5).map(|_| Matrix::xavier(seq, 8, &mut r)).collect();
        let single_ref: Vec<Matrix> = seqs.iter().map(|x| single.clone().forward(x)).collect();
        let multi_ref: Vec<Matrix> = seqs.iter().map(|x| multi.clone().forward(x)).collect();
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
        let mut a = SelfAttention::new(8, 4, &mut r);
        let x = Matrix::xavier(5, 8, &mut r);
        let y = a.forward(&x);
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
        let y = a.forward(&x);
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
        let _ = a.forward(&x);
        let dx = a.backward(&w);
        let eps = 1e-2f32;
        for i in 0..x.data.len() {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (weighted_sum(&a.forward(&xp), &w) - weighted_sum(&a.forward(&xm), &w))
                / (2.0 * eps);
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
        let _ = a.forward(&x);
        let _ = a.backward(&w);
        let eps = 1e-2f32;
        for (pi, get) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let mut ap = a.clone();
            let mut am = a.clone();
            // Perturb wq[pi][get].
            *ap.wq.w.at_mut(pi, get) += eps;
            *am.wq.w.at_mut(pi, get) -= eps;
            let num = (weighted_sum(&ap.forward(&x), &w) - weighted_sum(&am.forward(&x), &w))
                / (2.0 * eps);
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
        let mut mha = MultiHeadAttention::new(8, 4, &mut r);
        let x = Matrix::xavier(6, 8, &mut r);
        let y = mha.forward(&x);
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
        let _ = mha.forward(&x);
        let dx = mha.backward(&w);
        let eps = 1e-2f32;
        for i in [0usize, 3, 7, 11] {
            let mut xp = x.clone();
            xp.data[i] += eps;
            let mut xm = x.clone();
            xm.data[i] -= eps;
            let num = (weighted_sum(&mha.forward(&xp), &w) - weighted_sum(&mha.forward(&xm), &w))
                / (2.0 * eps);
            assert!(
                (num - dx.data[i]).abs() < 3e-2,
                "idx {i}: {num} vs {}",
                dx.data[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn multi_head_rejects_indivisible_dims() {
        let mut r = rng(7);
        let _ = MultiHeadAttention::new(6, 4, &mut r);
    }
}
