//! Scratch-buffer arena for allocation-free forwards, and the tape that
//! training records on it.
//!
//! Every inference call in the seed implementation allocated roughly a dozen
//! intermediate matrices; at prefetcher rates (one inference per L2 access)
//! the allocator became a measurable part of the per-prediction latency. A
//! [`ScratchArena`] is a free-list of `f32` buffers keyed by length: layers
//! `take` intermediates from it and `give` them back, so after the first
//! forward (warmup) the steady state performs no heap allocation at all.
//!
//! The arena is deliberately *not* stored inside models: models stay `Sync`
//! and shareable across threads, and each caller (the prefetcher hot path, a
//! bench thread, an evaluation worker, a training loop) owns its own arena,
//! passed down as `&mut` through the `infer_in` / `infer_batch_in` methods
//! — each layer's one forward. Buffer reuse is LIFO, so the most recently
//! released buffer — the one most likely still in cache — is handed out
//! first.
//!
//! An arena made with [`ScratchArena::with_tape`] also carries a *tape*: a
//! LIFO of arena buffers holding exactly what each layer's `backward`
//! reads. A taped forward [`record`](ScratchArena::record)s those buffers
//! instead of giving them back, and the backward, run in reverse layer
//! order, [`pop`](ScratchArena::pop)s and gives them back. Training runs
//! the same forward as inference this way, and a warm training step takes
//! every buffer from the pool.

use crate::tensor::{positional_encoding, Matrix};
use std::collections::HashMap;

/// Pool of reusable scratch buffers plus a cache of positional-encoding
/// constants. See the module docs for the ownership model.
#[derive(Debug, Default)]
pub struct ScratchArena {
    pools: HashMap<usize, Vec<Vec<f32>>>,
    pe_cache: HashMap<(usize, usize), Matrix>,
    /// `Some` while forwards record for a backward (see the module docs).
    tape: Option<Vec<Matrix>>,
    hits: u64,
    misses: u64,
}

impl ScratchArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena whose forwards record a tape for the backward pass. A
    /// taped forward runs one sequence (B = 1) and computes the rows the
    /// untaped one does: every row of every layer but a readout stack's
    /// final transformer layer, which computes its readout row (see
    /// [`crate::transformer::readout_batch_in`]). Its output is
    /// bit-identical to the untaped forward's.
    pub fn with_tape() -> Self {
        ScratchArena {
            tape: Some(Vec::new()),
            ..Self::default()
        }
    }

    /// Whether forwards on this arena record a tape.
    pub fn taping(&self) -> bool {
        self.tape.is_some()
    }

    /// Hands a buffer the forward is done with to the tape when taping,
    /// and back to the pool otherwise.
    pub fn record(&mut self, m: Matrix) {
        match &mut self.tape {
            Some(tape) => tape.push(m),
            None => self.give(m),
        }
    }

    /// Records a copy of `m` (a pool buffer) when taping; a no-op
    /// otherwise.
    pub fn record_copy(&mut self, m: &Matrix) {
        if self.taping() {
            let mut copy = self.take(m.rows, m.cols);
            copy.data.copy_from_slice(&m.data);
            self.record(copy);
        }
    }

    /// Pops the most recent tape entry. A backward pops its forward's
    /// records in reverse and `give`s each back when done with it.
    pub fn pop(&mut self) -> Matrix {
        self.tape
            .as_mut()
            .and_then(Vec::pop)
            .expect("backward without a taped forward")
    }

    /// Entries on the tape: zero once every backward has run.
    pub fn tape_len(&self) -> usize {
        self.tape.as_ref().map_or(0, Vec::len)
    }

    /// Hands out a zeroed `rows × cols` matrix, reusing a previously
    /// released buffer of the same length when one is available.
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        match self.pools.get_mut(&len).and_then(Vec::pop) {
            Some(mut data) => {
                self.hits += 1;
                data.fill(0.0);
                Matrix { rows, cols, data }
            }
            None => {
                self.misses += 1;
                Matrix::zeros(rows, cols)
            }
        }
    }

    /// Returns a matrix's buffer to the pool for reuse.
    pub fn give(&mut self, m: Matrix) {
        self.pools.entry(m.data.len()).or_default().push(m.data);
    }

    /// Adds the sinusoidal positional encoding for `m`'s shape to `m`,
    /// computing and caching the constant on first use.
    pub fn add_positional(&mut self, m: &mut Matrix) {
        let key = (m.rows, m.cols);
        let pe = self
            .pe_cache
            .entry(key)
            .or_insert_with(|| positional_encoding(key.0, key.1));
        m.add_assign(pe);
    }

    /// Adds the `[seq_len, cols]` positional encoding to each of the
    /// `m.rows / seq_len` sequences stacked in `m` — the batched
    /// counterpart of [`ScratchArena::add_positional`]. Each sequence gets
    /// its own position ramp starting at 0, not one ramp across the whole
    /// concatenated batch, so the result is bit-identical to encoding the
    /// sequences separately.
    pub fn add_positional_per_seq(&mut self, m: &mut Matrix, seq_len: usize) {
        assert!(
            seq_len > 0 && m.rows.is_multiple_of(seq_len),
            "rows must tile by seq_len"
        );
        let key = (seq_len, m.cols);
        let pe = self
            .pe_cache
            .entry(key)
            .or_insert_with(|| positional_encoding(key.0, key.1));
        for b in 0..m.rows / seq_len {
            for t in 0..seq_len {
                let r = b * seq_len + t;
                let dst = &mut m.data[r * m.cols..(r + 1) * m.cols];
                for (a, &p) in dst.iter_mut().zip(pe.row(t).iter()) {
                    *a += p;
                }
            }
        }
    }

    /// The last `n` rows of each of the `batch` equal-length sequences
    /// stacked in `m`, copied into a `[batch * n, cols]` matrix from the
    /// pool: the rows a last-position readout (`n = 1`) or a layer's
    /// trailing queries read.
    pub fn take_trailing_rows(&mut self, m: &Matrix, batch: usize, n: usize) -> Matrix {
        assert!(
            batch > 0 && m.rows.is_multiple_of(batch) && n <= m.rows / batch,
            "trailing rows must fit each sequence"
        );
        let seq = m.rows / batch;
        let width = n * m.cols;
        let mut out = self.take(batch * n, m.cols);
        for b in 0..batch {
            let end = (b + 1) * seq * m.cols;
            out.data[b * width..(b + 1) * width].copy_from_slice(&m.data[end - width..end]);
        }
        out
    }

    /// `(hits, misses)` — a steady-state hot loop should only ever grow
    /// `hits` after warmup.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_buffers_after_warmup() {
        let mut s = ScratchArena::new();
        let a = s.take(3, 4);
        s.give(a);
        let b = s.take(4, 3); // same length, different shape: still reusable
        assert_eq!((b.rows, b.cols), (4, 3));
        let (hits, misses) = s.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn reused_buffers_are_zeroed() {
        let mut s = ScratchArena::new();
        let mut a = s.take(2, 2);
        a.data.fill(7.0);
        s.give(a);
        let b = s.take(2, 2);
        assert!(b.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn positional_encoding_is_cached_and_correct() {
        let mut s = ScratchArena::new();
        let mut a = Matrix::zeros(5, 8);
        s.add_positional(&mut a);
        let expected = positional_encoding(5, 8);
        assert_eq!(a.data, expected.data);
        // Second call must add the same constant again (not recompute wrongly).
        s.add_positional(&mut a);
        for (v, e) in a.data.iter().zip(expected.data.iter()) {
            assert!((v - 2.0 * e).abs() < 1e-6);
        }
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut s = ScratchArena::new();
        for _ in 0..10 {
            let a = s.take(4, 4);
            let b = s.take(4, 2);
            s.give(a);
            s.give(b);
        }
        let (_, misses) = s.stats();
        assert_eq!(misses, 2, "only the first round may allocate");
    }
}
