//! Scaled dot-product attention (Eq. 7 of the paper) in single-head and
//! multi-head (Eq. 9) forms, with full backward passes.
//!
//! Each layer keeps one [`Param`] per head and projection, `Wq`, `Wk` and
//! `Wv`, which the optimizer, the training guard and the int8 storage
//! see. Its forward reads packed copies instead: a Q panel
//! `[Wq_0 | … | Wq_{H−1}]` and a K|V panel
//! `[Wk_0 | … | Wk_{H−1} | Wv_0 | … | Wv_{H−1}]`, so a layer runs one Q
//! product and one K|V product however many heads it has (a single
//! head's Q panel is its `Wq`). `matmul_into` computes each output
//! element from one row of `x` and one column of the panel, by the same
//! expression whatever the panel's width or the column's position, so
//! every head's Q, K and V keep the bits of their own products. The
//! weights are private and change only through
//! [`Module::for_each_param`], which repacks the panels when the visit
//! ends. Clones share their panels until one of them repacks.

use std::sync::Arc;

use crate::arena::ScratchArena;
use crate::layers::{Module, Param};
use crate::tensor::Matrix;
use rand_chacha::ChaCha8Rng;

/// The three projections of one attention head, `Wq`, `Wk` and `Wv`,
/// each `[in_dim, head_dim]`, and the head's attention backward.
#[derive(Debug, Clone)]
pub struct AttentionHead {
    wq: Param,
    wk: Param,
    wv: Param,
}

impl AttentionHead {
    fn new(in_dim: usize, head_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        AttentionHead {
            wq: Param::xavier(in_dim, head_dim, rng),
            wk: Param::xavier(in_dim, head_dim, rng),
            wv: Param::xavier(in_dim, head_dim, rng),
        }
    }

    pub fn wq(&self) -> &Param {
        &self.wq
    }

    pub fn wk(&self) -> &Param {
        &self.wk
    }

    pub fn wv(&self) -> &Param {
        &self.wv
    }

    fn head_dim(&self) -> usize {
        self.wq.w.cols
    }

    fn params_mut(&mut self) -> [&mut Param; 3] {
        [&mut self.wq, &mut self.wk, &mut self.wv]
    }

    fn params(&self) -> [&Param; 3] {
        [&self.wq, &self.wk, &self.wv]
    }

    /// Pops the attention weights, V, K and Q [`attend_head`] recorded
    /// and backpropagates `dy` through the attention alone: returns
    /// `[dQ, dK, dV]`, arena buffers of `[queries, head_dim]`,
    /// `[seq, head_dim]` and `[seq, head_dim]`.
    fn attend_backward(&self, dy: &Matrix, s: &mut ScratchArena) -> [Matrix; 3] {
        let attn = s.pop();
        let v = s.pop();
        let k = s.pop();
        let q = s.pop();
        let (queries, seq) = (attn.rows, attn.cols);
        let hd = self.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();
        // Y = A V
        let mut d_attn = s.take(queries, seq);
        dy.matmul_bt_into(&v, &mut d_attn);
        let mut dv = s.take(seq, hd);
        attn.matmul_at_into(dy, &mut dv);
        // A = softmax(S)
        let mut ds = Matrix::softmax_rows_backward(&attn, &d_attn);
        ds.scale(scale);
        // S = Q K^T (scaled already folded into ds)
        let mut dq = s.take(queries, hd);
        ds.matmul_into(&k, &mut dq);
        let mut dk = s.take(seq, hd);
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

/// Writes `blocks` side by side into `panel`, in order: column block i
/// of every row is that row of block i. Copies the panel first if a
/// clone still shares it.
fn pack<'a>(panel: &mut Arc<Matrix>, blocks: impl Iterator<Item = &'a Matrix>) {
    let panel = Arc::make_mut(panel);
    let mut col = 0;
    for block in blocks {
        for r in 0..block.rows {
            panel.row_mut(r)[col..col + block.cols].copy_from_slice(block.row(r));
        }
        col += block.cols;
    }
    debug_assert_eq!(col, panel.cols, "blocks fill the panel");
}

/// The two projection products of a forward over `batch` stacked
/// sequences, from the arena: `Q = xq · q_panel` over the query rows
/// `xq` (the last `queries` rows of each sequence) and
/// `KV = x · kv_panel` over every row.
fn project(
    x: &Matrix,
    q_panel: &Matrix,
    kv_panel: &Matrix,
    batch: usize,
    queries: usize,
    s: &mut ScratchArena,
) -> (Matrix, Matrix) {
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
    let mut q = s.take(batch * queries, q_panel.cols);
    if queries == seq {
        x.matmul_into(q_panel, &mut q);
    } else {
        let xq = s.take_trailing_rows(x, batch, queries);
        xq.matmul_into(q_panel, &mut q);
        s.give(xq);
    }
    let mut kv = s.take(x.rows, kv_panel.cols);
    x.matmul_into(kv_panel, &mut kv);
    (q, kv)
}

/// Head `h`'s attention over `batch` stacked sequences, from the packed
/// products [`project`] returns: its Q is column block h of `q`, its K
/// column block h of `kv` and its V column block h of `kv`'s second
/// half, each block `hd` wide. For each sequence the blocks are copied
/// into the head's own `[queries, hd]` and `[seq, hd]` buffers, and
/// `softmax(Q Kᵀ / √hd) · V` is written into column block h of `y`,
/// `[batch * queries, _]`. A taped forward (B = 1) records the head's Q,
/// K, V and `[queries, seq]` attention weights for
/// [`AttentionHead::attend_backward`].
fn attend_head(
    q: &Matrix,
    kv: &Matrix,
    h: usize,
    hd: usize,
    batch: usize,
    y: &mut Matrix,
    s: &mut ScratchArena,
) {
    let (queries, seq) = (q.rows / batch, kv.rows / batch);
    let (qk_col, v_col) = (h * hd, kv.cols / 2 + h * hd);
    let mut qb = s.take(queries, hd);
    let mut kb = s.take(seq, hd);
    let mut vb = s.take(seq, hd);
    let mut yb = s.take(queries, hd);
    let mut scores = s.take(queries, seq);
    for b in 0..batch {
        copy_block(q, b * queries, qk_col, &mut qb);
        copy_block(kv, b * seq, qk_col, &mut kb);
        copy_block(kv, b * seq, v_col, &mut vb);
        qb.matmul_bt_into(&kb, &mut scores);
        scores.scale(1.0 / (hd as f32).sqrt());
        scores.softmax_rows_inplace();
        scores.matmul_into(&vb, &mut yb);
        for i in 0..queries {
            y.row_mut(b * queries + i)[qk_col..qk_col + hd].copy_from_slice(yb.row(i));
        }
    }
    s.give(yb);
    s.record(qb);
    s.record(kb);
    s.record(vb);
    // At B = 1 the last score block is the whole attention matrix.
    s.record(scores);
}

/// Copies rows `first..first + block.rows` of `m`, columns
/// `col..col + block.cols`, into `block`.
fn copy_block(m: &Matrix, first: usize, col: usize, block: &mut Matrix) {
    let cols = col..col + block.cols;
    for r in 0..block.rows {
        block
            .row_mut(r)
            .copy_from_slice(&m.row(first + r)[cols.clone()]);
    }
}

/// Single-head self-attention: `Y = softmax(Q K^T / sqrt(d)) V` with
/// `Q = X Wq`, `K = X Wk`, `V = X Wv`. This is the "self-attention layer"
/// AMMA applies to each input modality.
#[derive(Debug, Clone)]
pub struct SelfAttention {
    head: AttentionHead,
    /// `[Wk | Wv]`, repacked by [`Module::for_each_param`]; Q's panel is
    /// `Wq` itself.
    kv: Arc<Matrix>,
}

impl SelfAttention {
    pub fn new(in_dim: usize, head_dim: usize, rng: &mut ChaCha8Rng) -> Self {
        Self::from_head(AttentionHead::new(in_dim, head_dim, rng))
    }

    fn from_head(head: AttentionHead) -> Self {
        let mut a = SelfAttention {
            kv: Arc::new(Matrix::zeros(head.wk.w.rows, 2 * head.head_dim())),
            head,
        };
        a.repack();
        a
    }

    pub fn wq(&self) -> &Param {
        self.head.wq()
    }

    pub fn wk(&self) -> &Param {
        self.head.wk()
    }

    pub fn wv(&self) -> &Param {
        self.head.wv()
    }

    pub fn out_dim(&self) -> usize {
        self.head.head_dim()
    }

    fn repack(&mut self) {
        pack(&mut self.kv, [&self.head.wk.w, &self.head.wv.w].into_iter());
    }

    /// The forward over `batch` stacked sequences: `x` is
    /// `[batch * seq, in_dim]` with each sequence occupying a contiguous
    /// block of rows. Keys and values cover every row; queries cover only
    /// the last `queries` rows of each sequence, so the result is
    /// `[batch * queries, head_dim]`. A layer whose rows all feed another
    /// layer passes `queries = seq`; a final layer read only at its last
    /// position passes 1. The projections — shared by every row — run as
    /// two fused matmuls over the stack, Q and K|V; attention itself is
    /// confined to each sequence's own `[queries, seq]` score block. Every
    /// kernel computes a row from its own inputs alone, so each output row
    /// is bit-identical to the matching row of the same forward on its
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
        let (q, kv) = project(x, &self.head.wq.w, &self.kv, batch, queries, s);
        let mut y = s.take(q.rows, self.out_dim());
        attend_head(&q, &kv, 0, self.out_dim(), batch, &mut y, s);
        s.give(q);
        s.give(kv);
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
        let head = &mut self.head;
        let [dq, dk, dv] = head.attend_backward(dy, s);
        let x = s.pop();
        // Parameter grads; Q read only the query rows of `x`.
        let xq = (dq.rows < x.rows).then(|| s.take_trailing_rows(&x, 1, dq.rows));
        head.wq
            .g
            .add_assign(&xq.as_ref().unwrap_or(&x).matmul_at(&dq));
        head.wk.g.add_assign(&x.matmul_at(&dk));
        head.wv.g.add_assign(&x.matmul_at(&dv));
        let dx = head.input_grad(&dq, &dk, &dv);
        for m in [dq, dk, dv, x].into_iter().chain(xq) {
            s.give(m);
        }
        dx
    }
}

impl Module for SelfAttention {
    /// Visits `Wq`, `Wk` and `Wv`, then repacks the K|V panel from them.
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.head.params_mut() {
            f(p);
        }
        self.repack();
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        for p in self.head.params() {
            f(p);
        }
    }
}

/// Multi-head self-attention (Eq. 9): H parallel heads of dimension
/// `dim / heads`, concatenated and projected by `Wo`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    heads: Vec<AttentionHead>,
    wo: Param,
    dim: usize,
    /// `[Wq_0 | … | Wq_{H−1}]` and `[Wk_0 | … | Wk_{H−1} | Wv_0 | … |
    /// Wv_{H−1}]`, repacked by [`Module::for_each_param`].
    q: Arc<Matrix>,
    kv: Arc<Matrix>,
}

impl MultiHeadAttention {
    pub fn new(dim: usize, num_heads: usize, rng: &mut ChaCha8Rng) -> Self {
        assert!(dim.is_multiple_of(num_heads), "dim must divide by heads");
        let head_dim = dim / num_heads;
        let heads = (0..num_heads)
            .map(|_| AttentionHead::new(dim, head_dim, rng))
            .collect();
        Self::from_parts(heads, Param::xavier(dim, dim, rng))
    }

    fn from_parts(heads: Vec<AttentionHead>, wo: Param) -> Self {
        let dim = wo.w.rows;
        let mut mha = MultiHeadAttention {
            heads,
            wo,
            dim,
            q: Arc::new(Matrix::zeros(dim, dim)),
            kv: Arc::new(Matrix::zeros(dim, 2 * dim)),
        };
        mha.repack();
        mha
    }

    pub fn heads(&self) -> &[AttentionHead] {
        &self.heads
    }

    pub fn wo(&self) -> &Param {
        &self.wo
    }

    fn repack(&mut self) {
        pack(&mut self.q, self.heads.iter().map(|h| &h.wq.w));
        let (wk, wv) = (
            self.heads.iter().map(|h| &h.wk.w),
            self.heads.iter().map(|h| &h.wv.w),
        );
        pack(&mut self.kv, wk.chain(wv));
    }

    /// The forward over `batch` stacked sequences for the last `queries`
    /// rows of each; see [`SelfAttention::infer_batch_in`]. One Q product
    /// and one K|V product cover every head, and each head writes its
    /// block of the concatenation Wo reads. A taped forward records `x`
    /// once, then each head's Q, K, V and attention weights, then the
    /// concatenated heads (Wo's input).
    pub fn infer_batch_in(
        &self,
        x: &Matrix,
        batch: usize,
        queries: usize,
        s: &mut ScratchArena,
    ) -> Matrix {
        s.record_copy(x);
        let (q, kv) = project(x, &self.q, &self.kv, batch, queries, s);
        let head_dim = self.dim / self.heads.len();
        let mut concat = s.take(q.rows, self.dim);
        for h in 0..self.heads.len() {
            attend_head(&q, &kv, h, head_dim, batch, &mut concat, s);
        }
        s.give(q);
        s.give(kv);
        let mut out = s.take(concat.rows, self.wo.w.cols);
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
    fn add_head_blocks(&mut self, grad: &Matrix, param: impl Fn(&mut AttentionHead) -> &mut Param) {
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
    /// Visits every head's `Wq`, `Wk` and `Wv` in head order, then `Wo`,
    /// then repacks the Q and K|V panels from the heads.
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for h in &mut self.heads {
            for p in h.params_mut() {
                f(p);
            }
        }
        f(&mut self.wo);
        self.repack();
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        for h in &self.heads {
            for p in h.params() {
                f(p);
            }
        }
        f(&self.wo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Snapshot;
    use crate::tensor::rng;

    fn weighted_sum(y: &Matrix, w: &Matrix) -> f32 {
        y.data.iter().zip(w.data.iter()).map(|(a, b)| a * b).sum()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Applies `f` to parameter `index` of `m`, in
    /// [`Module::for_each_param`] order: the one way to change a weight.
    fn with_param(m: &mut dyn Module, index: usize, mut f: impl FnMut(&mut Param)) {
        let mut i = 0;
        m.for_each_param(&mut |p| {
            if i == index {
                f(p);
            }
            i += 1;
        });
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
        with_param(&mut a, 2, |p| {
            for (i, w) in p.w.data.iter_mut().enumerate() {
                *w = if i % 5 == 0 { 1.0 } else { 0.0 };
            }
        });
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
            with_param(&mut ap, 0, |p| *p.w.at_mut(pi, get) += eps);
            with_param(&mut am, 0, |p| *p.w.at_mut(pi, get) -= eps);
            let num =
                (weighted_sum(&full(&ap, &x), &w) - weighted_sum(&full(&am, &x), &w)) / (2.0 * eps);
            let analytic = a.wq().g.at(pi, get);
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

                let mut per_head: Vec<SelfAttention> = mha
                    .heads
                    .iter()
                    .cloned()
                    .map(SelfAttention::from_head)
                    .collect();
                let mut wo = mha.wo.clone();
                let hd = dim / heads;
                let mut concat = Matrix::zeros(queries, dim);
                let mut tapes = Vec::new();
                for (h, head) in per_head.iter().enumerate() {
                    let mut t = ScratchArena::with_tape();
                    let yh = head.infer_batch_in(&x, 1, queries, &mut t);
                    for i in 0..queries {
                        concat.row_mut(i)[h * hd..(h + 1) * hd].copy_from_slice(yh.row(i));
                    }
                    tapes.push(t);
                }
                assert_eq!(bits(&concat.matmul(&wo.w).data), bits(&y.data));
                wo.g.add_assign(&concat.matmul_at(&dy));
                let d_concat = dy.matmul_bt(&wo.w);
                let mut dxs =
                    per_head
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
                for head in &per_head {
                    head.for_each_param_ref(&mut |p| want_g.push(bits(&p.g.data)));
                }
                want_g.push(bits(&wo.g.data));
                assert_eq!(got_g.len(), want_g.len());
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

    /// The bits of each value, every NaN written as one pattern: Rust
    /// leaves the sign and payload of a NaN that arithmetic produces
    /// unspecified.
    fn nan_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// A matrix of values in ±2 with NaN, ±∞, ±0.0 and subnormals mixed
    /// in at about one entry in `every`, from a xorshift seeded by `seed`.
    fn specials(rows: usize, cols: usize, every: u64, seed: u64) -> Matrix {
        const ODD: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-40,
            -3e-39,
            f32::MIN_POSITIVE,
        ];
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(every) {
                    ODD[(x >> 8) as usize % ODD.len()]
                } else {
                    ((x >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0) as f32
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// An arena whose pools hold buffers of many lengths, each given
    /// back full of NaN.
    fn dirty_arena(taped: bool) -> ScratchArena {
        let mut s = if taped {
            ScratchArena::with_tape()
        } else {
            ScratchArena::new()
        };
        let held: Vec<Matrix> = (1..=400).map(|len| s.take(1, len)).collect();
        for mut m in held {
            m.data.fill(f32::NAN);
            s.give(m);
        }
        s
    }

    /// One head's forward as the layers ran it before the packed panels:
    /// the head's three products from its `Param`s, then the attention
    /// of each sequence. Returns the `[batch * queries, hd]` output and
    /// what a taped forward records for the head: Q, K, V and the last
    /// sequence's attention weights.
    fn per_head_oracle(
        head: &AttentionHead,
        x: &Matrix,
        batch: usize,
        queries: usize,
    ) -> (Matrix, [Matrix; 4]) {
        let (seq, hd) = (x.rows / batch, head.head_dim());
        let xq = ScratchArena::new().take_trailing_rows(x, batch, queries);
        let q = xq.matmul(&head.wq.w);
        let k = x.matmul(&head.wk.w);
        let v = x.matmul(&head.wv.w);
        let rows = |m: &Matrix, first: usize, n: usize| {
            Matrix::from_vec(n, hd, m.data[first * hd..(first + n) * hd].to_vec())
        };
        let mut y = Matrix::zeros(batch * queries, hd);
        let mut scores = Matrix::zeros(queries, seq);
        for b in 0..batch {
            rows(&q, b * queries, queries).matmul_bt_into(&rows(&k, b * seq, seq), &mut scores);
            scores.scale(1.0 / (hd as f32).sqrt());
            scores.softmax_rows_inplace();
            let yb = scores.matmul(&rows(&v, b * seq, seq));
            y.data[b * queries * hd..(b + 1) * queries * hd].copy_from_slice(&yb.data);
        }
        (y, [q, k, v, scores])
    }

    /// The layers under test: a single head, and one, two and four heads
    /// of a `MultiHeadAttention`.
    enum Layer {
        Single(Box<SelfAttention>),
        Multi(MultiHeadAttention),
    }

    impl Layer {
        fn all(r: &mut ChaCha8Rng) -> Vec<Layer> {
            let mut layers = vec![Layer::Single(Box::new(SelfAttention::new(12, 5, r)))];
            for heads in [1, 2, 4] {
                layers.push(Layer::Multi(MultiHeadAttention::new(16, heads, r)));
            }
            layers
        }

        fn module(&mut self) -> &mut dyn Module {
            match self {
                Layer::Single(a) => &mut **a,
                Layer::Multi(m) => m,
            }
        }

        fn in_dim(&self) -> usize {
            match self {
                Layer::Single(a) => a.wq().w.rows,
                Layer::Multi(m) => m.dim,
            }
        }

        fn forward(
            &self,
            x: &Matrix,
            batch: usize,
            queries: usize,
            s: &mut ScratchArena,
        ) -> Matrix {
            match self {
                Layer::Single(a) => a.infer_batch_in(x, batch, queries, s),
                Layer::Multi(m) => m.infer_batch_in(x, batch, queries, s),
            }
        }

        /// A layer built afresh from this one's weights.
        fn rebuilt(&self) -> Layer {
            match self {
                Layer::Single(a) => {
                    Layer::Single(Box::new(SelfAttention::from_head(a.head.clone())))
                }
                Layer::Multi(m) => Layer::Multi(MultiHeadAttention::from_parts(
                    m.heads.clone(),
                    m.wo.clone(),
                )),
            }
        }

        /// [`per_head_oracle`] for every head, then Wo over the
        /// concatenation; with the entries a taped forward records, in
        /// order.
        fn oracle(&self, x: &Matrix, batch: usize, queries: usize) -> (Matrix, Vec<Matrix>) {
            let mut tape = vec![x.clone()];
            match self {
                Layer::Single(a) => {
                    let (y, entries) = per_head_oracle(&a.head, x, batch, queries);
                    tape.extend(entries);
                    (y, tape)
                }
                Layer::Multi(m) => {
                    let hd = m.dim / m.heads.len();
                    let mut concat = Matrix::zeros(batch * queries, m.dim);
                    for (h, head) in m.heads.iter().enumerate() {
                        let (y, entries) = per_head_oracle(head, x, batch, queries);
                        for r in 0..y.rows {
                            concat.row_mut(r)[h * hd..(h + 1) * hd].copy_from_slice(y.row(r));
                        }
                        tape.extend(entries);
                    }
                    let y = concat.matmul(&m.wo.w);
                    tape.push(concat);
                    (y, tape)
                }
            }
        }
    }

    /// The packed forward against [`per_head_oracle`], bit for bit: one,
    /// two and four heads and a single head; every query count; B = 1 to
    /// 3; untaped on one dirty arena, and taped (B = 1) on a fresh dirty
    /// one, whose every entry is checked too; inputs and weights plain,
    /// and with NaN, ±∞, ±0.0 and subnormals among them.
    #[test]
    fn packed_forward_matches_per_head_products_bit_for_bit() {
        let mut r = rng(21);
        let seq = 5;
        let mut s = dirty_arena(false);
        for (case, mut layer) in Layer::all(&mut r).into_iter().enumerate() {
            for odd in [false, true] {
                if odd {
                    let mut i = 0;
                    layer.module().for_each_param(&mut |p| {
                        p.w = specials(p.w.rows, p.w.cols, 40, 7 * case as u64 + i);
                        i += 1;
                    });
                }
                let every = if odd { 9 } else { u64::MAX };
                for batch in 1..=3 {
                    let seed = (case * 10 + batch) as u64;
                    let x = specials(batch * seq, layer.in_dim(), every, seed);
                    for queries in 1..=seq {
                        let what = format!("case {case} odd {odd} batch {batch} queries {queries}");
                        let (want, tape) = layer.oracle(&x, batch, queries);
                        let y = layer.forward(&x, batch, queries, &mut s);
                        assert_eq!(nan_bits(&y.data), nan_bits(&want.data), "{what}");
                        s.give(y);
                        if batch > 1 {
                            continue;
                        }
                        let mut t = dirty_arena(true);
                        let y = layer.forward(&x, 1, queries, &mut t);
                        assert_eq!(nan_bits(&y.data), nan_bits(&want.data), "{what} taped");
                        assert_eq!(t.tape_len(), tape.len(), "{what} taped");
                        for (i, entry) in tape.iter().enumerate().rev() {
                            let got = t.pop();
                            assert_eq!((got.rows, got.cols), (entry.rows, entry.cols));
                            assert_eq!(
                                nan_bits(&got.data),
                                nan_bits(&entry.data),
                                "{what} tape entry {i}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every way a weight changes outside a backward repacks the panels:
    /// after `Adam::step`, `quantize_module`, `guard::restore` and a
    /// `TrainGuard` rollback, each on a layer that has already run a
    /// forward, the next forward equals that of a layer built afresh from
    /// the same weights, and differs from the forward before the change.
    #[test]
    fn panels_follow_every_weight_change() {
        use crate::guard::{restore, snapshot, GuardAction, TrainGuard};
        use crate::optim::Adam;
        use crate::quant::quantize_module;
        let mut r = rng(22);
        for (case, mut layer) in Layer::all(&mut r).into_iter().enumerate() {
            let x = Matrix::xavier(5, layer.in_dim(), &mut r);
            let fwd = |layer: &Layer| {
                let y = layer.forward(&x, 1, 3, &mut ScratchArena::new());
                nan_bits(&y.data)
            };
            let first = snapshot(layer.module());
            let mut guard = TrainGuard::new(1);
            let mut lr = 0.05;
            assert_eq!(
                guard.observe(1.0, &mut [layer.module()], &mut lr),
                GuardAction::Continue
            );
            type Change = fn(&mut dyn Module, &Snapshot, &mut TrainGuard, &mut ChaCha8Rng);
            let changes: [(&str, Change); 4] = [
                ("adam", |m, _, _, r| {
                    m.for_each_param(&mut |p| p.g = Matrix::xavier(p.g.rows, p.g.cols, r));
                    Adam::new(0.05).step(m);
                }),
                ("quantize", |m, _, _, _| {
                    quantize_module(m);
                }),
                ("restore", |m, snap, _, _| assert!(restore(m, snap))),
                ("rollback", |m, _, guard, _| {
                    let mut lr = 0.05;
                    let action = guard.observe(f32::NAN, &mut [m], &mut lr);
                    assert!(matches!(action, GuardAction::RolledBack { .. }));
                }),
            ];
            for (name, change) in changes {
                // Move the weights off the snapshot and the checkpoint
                // first, so that restoring either changes them back.
                if name == "restore" || name == "rollback" {
                    changes[0].1(layer.module(), &first, &mut guard, &mut r);
                }
                let before = fwd(&layer);
                change(layer.module(), &first, &mut guard, &mut r);
                let after = fwd(&layer);
                assert_ne!(
                    after, before,
                    "case {case}: {name} left the forward as it was"
                );
                assert_eq!(
                    after,
                    fwd(&layer.rebuilt()),
                    "case {case}: stale panel after {name}"
                );
            }
        }
    }

    /// A clone shares its original's panels until a weight change
    /// repacks one of them, which copies it first: changing the clone
    /// leaves the original's forward as it was.
    #[test]
    fn clones_share_panels_until_one_changes() {
        let mut r = rng(23);
        let panels = |layer: &Layer| match layer {
            Layer::Single(a) => vec![a.kv.clone()],
            Layer::Multi(m) => vec![m.q.clone(), m.kv.clone()],
        };
        for layer in Layer::all(&mut r) {
            let x = Matrix::xavier(5, layer.in_dim(), &mut r);
            let fwd =
                |layer: &Layer| nan_bits(&layer.forward(&x, 1, 5, &mut ScratchArena::new()).data);
            let before = fwd(&layer);
            let mut clone = match &layer {
                Layer::Single(a) => Layer::Single(a.clone()),
                Layer::Multi(m) => Layer::Multi(m.clone()),
            };
            let shared = |a: &Layer, b: &Layer| {
                panels(a)
                    .iter()
                    .zip(panels(b))
                    .all(|(p, q)| Arc::ptr_eq(p, &q))
            };
            assert!(shared(&layer, &clone));
            clone
                .module()
                .for_each_param(&mut |p| p.w.data.iter_mut().for_each(|w| *w *= 1.5));
            assert!(!shared(&layer, &clone));
            assert_eq!(fwd(&layer), before);
            assert_ne!(fwd(&clone), before);
            assert_eq!(fwd(&clone), fwd(&clone.rebuilt()));
        }
    }
}
