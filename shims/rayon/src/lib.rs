//! Offline stand-in for `rayon`, with real data parallelism.
//!
//! The original shim lowered `par_iter()` to a sequential iterator. This
//! version keeps the exact same call-site API (`par_iter`, `par_iter_mut`,
//! `into_par_iter`, `map`, `flat_map`, `for_each`, `collect` and `sum`)
//! but executes on `std::thread::scope` worker threads, one ordered chunk
//! per thread.
//!
//! Determinism contract: results are **bit-identical to the sequential
//! evaluation order**. Work is split into contiguous index chunks, each
//! chunk is evaluated left-to-right on its own thread, and chunk outputs are
//! concatenated in chunk order before `collect`/`sum` see them — so
//! reductions always combine in the same order no matter how threads are
//! scheduled. On a single-CPU host (or for < 2 items) everything runs
//! inline, which by construction produces the same bytes.

use std::num::NonZeroUsize;

/// Worker threads to use (the current host's available parallelism).
fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A parallel pipeline: a vector of owned source items plus an adapter
/// chain. `take_source` removes the items (so they can be moved to worker
/// threads) while `&self` keeps the adapter closures shareable across the
/// scope's threads.
pub trait ParallelIterator: Sized + Send + Sync {
    /// Owned items fed into the bottom of the adapter chain.
    type Source: Send;
    /// Items coming out of the top of the adapter chain.
    type Item: Send;

    /// Removes the source items, leaving an empty pipeline shell.
    fn take_source(&mut self) -> Vec<Self::Source>;

    /// Runs one source item through the adapter chain, appending every
    /// produced item to `out`.
    fn eval_into(&self, src: Self::Source, out: &mut Vec<Self::Item>);

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Send + Sync,
    {
        Map { base: self, f }
    }

    fn flat_map<PI, F>(self, f: F) -> FlatMap<Self, F>
    where
        PI: IntoIterator,
        PI::Item: Send,
        F: Fn(Self::Item) -> PI + Send + Sync,
    {
        FlatMap { base: self, f }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        let _ = self.map(f).run();
    }

    /// Evaluates the pipeline. Output order matches sequential evaluation.
    fn run(mut self) -> Vec<Self::Item> {
        let src = self.take_source();
        let threads = num_threads();
        if src.len() < 2 || threads < 2 {
            let mut out = Vec::new();
            for s in src {
                self.eval_into(s, &mut out);
            }
            return out;
        }
        let chunk_len = src.len().div_ceil(threads);
        let mut chunks: Vec<Vec<Self::Source>> = Vec::new();
        let mut src = src.into_iter();
        loop {
            let chunk: Vec<Self::Source> = src.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let this = &self;
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for s in chunk {
                            this.eval_into(s, &mut out);
                        }
                        out
                    })
                })
                .collect();
            // Chunk order == index order: the concatenation is the
            // sequential output regardless of thread scheduling.
            let mut out = Vec::new();
            for h in handles {
                out.extend(h.join().expect("rayon shim worker panicked"));
            }
            out
        })
    }

    fn collect<C>(self) -> C
    where
        C: From<Vec<Self::Item>>,
    {
        C::from(self.run())
    }

    /// Parallel map, sequential in-order reduction: deterministic even for
    /// non-associative reductions like `f32` sums.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.run().into_iter().sum()
    }
}

/// Pipeline source: a vector of owned items.
pub struct ParVec<I> {
    items: Vec<I>,
}

impl<I: Send + Sync> ParallelIterator for ParVec<I> {
    type Source = I;
    type Item = I;

    fn take_source(&mut self) -> Vec<I> {
        std::mem::take(&mut self.items)
    }

    fn eval_into(&self, src: I, out: &mut Vec<I>) {
        out.push(src);
    }
}

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Send + Sync,
{
    type Source = B::Source;
    type Item = R;

    fn take_source(&mut self) -> Vec<B::Source> {
        self.base.take_source()
    }

    fn eval_into(&self, src: B::Source, out: &mut Vec<R>) {
        let mut tmp = Vec::new();
        self.base.eval_into(src, &mut tmp);
        out.extend(tmp.into_iter().map(&self.f));
    }
}

pub struct FlatMap<B, F> {
    base: B,
    f: F,
}

impl<B, PI, F> ParallelIterator for FlatMap<B, F>
where
    B: ParallelIterator,
    PI: IntoIterator,
    PI::Item: Send,
    F: Fn(B::Item) -> PI + Send + Sync,
{
    type Source = B::Source;
    type Item = PI::Item;

    fn take_source(&mut self) -> Vec<B::Source> {
        self.base.take_source()
    }

    fn eval_into(&self, src: B::Source, out: &mut Vec<PI::Item>) {
        let mut tmp = Vec::new();
        self.base.eval_into(src, &mut tmp);
        for item in tmp {
            out.extend((self.f)(item));
        }
    }
}

pub mod prelude {
    pub use crate::ParallelIterator;

    /// Drop-in for rayon's `IntoParallelRefIterator`: anything iterable by
    /// reference gets a `par_iter` over shared references.
    pub trait IntoParallelRefIterator<'data> {
        type Iter: crate::ParallelIterator;
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, T, C: 'data> IntoParallelRefIterator<'data> for C
    where
        T: Sync + 'data,
        &'data C: IntoIterator<Item = &'data T>,
    {
        type Iter = crate::ParVec<&'data T>;
        fn par_iter(&'data self) -> Self::Iter {
            crate::ParVec {
                items: self.into_iter().collect(),
            }
        }
    }

    /// Drop-in for rayon's `IntoParallelRefMutIterator`.
    pub trait IntoParallelRefMutIterator<'data> {
        type Iter: crate::ParallelIterator;
        fn par_iter_mut(&'data mut self) -> Self::Iter;
    }

    impl<'data, T, C: 'data> IntoParallelRefMutIterator<'data> for C
    where
        T: Send + Sync + 'data,
        &'data mut C: IntoIterator<Item = &'data mut T>,
    {
        type Iter = crate::ParVec<&'data mut T>;
        fn par_iter_mut(&'data mut self) -> Self::Iter {
            crate::ParVec {
                items: self.into_iter().collect(),
            }
        }
    }

    /// Drop-in for rayon's `IntoParallelIterator` (owned items).
    pub trait IntoParallelIterator {
        type Iter: crate::ParallelIterator;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<I: Send + Sync> IntoParallelIterator for Vec<I> {
        type Iter = crate::ParVec<I>;
        fn into_par_iter(self) -> Self::Iter {
            crate::ParVec { items: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_matches_sequential_collect() {
        let v = vec![1u64, 2, 3, 4];
        let doubled: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
        let flat: Vec<u64> = v.par_iter().flat_map(|x| vec![*x, x * 10]).collect();
        assert_eq!(flat, vec![1, 10, 2, 20, 3, 30, 4, 40]);
        let arr = [5u32, 6];
        let s: u32 = arr.par_iter().map(|x| *x).sum();
        assert_eq!(s, 11);
    }

    #[test]
    fn ordering_is_sequential_even_with_many_items() {
        let v: Vec<usize> = (0..10_000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 3).collect();
        let seq: Vec<usize> = v.iter().map(|&x| x * 3).collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn float_sum_is_deterministic_and_sequential_order() {
        // Non-associative reduction: must equal the left-to-right sum.
        let v: Vec<f32> = (0..5_000).map(|i| 1.0 / (1.0 + i as f32)).collect();
        let seq: f32 = v.iter().copied().sum();
        for _ in 0..8 {
            let par: f32 = v.par_iter().map(|&x| x).sum();
            assert_eq!(par.to_bits(), seq.to_bits());
        }
    }

    #[test]
    fn par_iter_mut_mutates_every_item() {
        let mut v = vec![1i64, 2, 3, 4, 5];
        v.par_iter_mut().for_each(|x| *x *= 10);
        assert_eq!(v, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn into_par_iter_consumes_owned_items() {
        let v = vec![String::from("a"), String::from("b")];
        let out: Vec<String> = v.into_par_iter().map(|s| s + "!").collect();
        assert_eq!(out, vec!["a!", "b!"]);
    }

    #[test]
    fn nested_par_iter_flat_map_preserves_order() {
        let outer = vec![0u32, 1, 2];
        let out: Vec<u32> = outer
            .par_iter()
            .flat_map(|&o| {
                let inner = [10u32, 20];
                let rows: Vec<u32> = inner.par_iter().map(move |&i| o * 100 + i).collect();
                rows
            })
            .collect();
        assert_eq!(out, vec![10, 20, 110, 120, 210, 220]);
    }
}
