//! Property tests for the register-tiled matmul kernels: at random shapes
//! — including empty matrices and sizes that are not multiples of the
//! 4-wide tile — every tiled kernel and its `_into` variant must agree
//! with the naive `_ref` loops within 1e-5, and the parallel-iterator
//! shim must reproduce sequential results exactly.

use mpgraph_ml::tensor::{rng, Matrix};
use proptest::prelude::*;
use rayon::prelude::*;

const TOL: f32 = 1e-5;

/// Random matrix with entries in roughly ±1 (xavier keeps products small
/// enough that TOL is meaningful at these shapes).
fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut r = rng(seed);
    Matrix::xavier(rows, cols, &mut r)
}

/// A buffer pre-filled with garbage, to prove the `_into` kernels fully
/// overwrite their output rather than accumulating into stale contents.
fn dirty(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, vec![-7.25e6; rows * cols])
}

fn assert_close(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{what} shape");
    for (i, (g, w)) in got.data.iter().zip(want.data.iter()).enumerate() {
        assert!(
            (g - w).abs() <= TOL,
            "{what}[{i}]: tiled {g} vs reference {w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Shape ranges deliberately straddle the 4-wide tile: 0 (empty), 1-3
    // (remainder-only), 4/8 (tile-exact), 5-18 (tile + remainder).
    #[test]
    fn matmul_matches_reference(
        m in 0usize..19,
        k in 0usize..19,
        n in 0usize..19,
        seed in 0u64..1_000_000,
    ) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed.wrapping_add(1));
        let want = a.matmul_ref(&b);
        assert_close(&a.matmul(&b), &want, "matmul");
        let mut out = dirty(m, n);
        a.matmul_into(&b, &mut out);
        assert_close(&out, &want, "matmul_into");
    }

    /// A narrower `out` holds the products with the first `width` rows of
    /// `b` only, bit for bit the leading columns of the full product.
    #[test]
    fn matmul_bt_matches_reference(
        m in 0usize..19,
        k in 0usize..19,
        n in 0usize..19,
        width in 0usize..19,
        seed in 0u64..1_000_000,
    ) {
        let a = mat(m, k, seed);
        let b = mat(n, k, seed.wrapping_add(2));
        let want = a.matmul_bt_ref(&b);
        let full = a.matmul_bt(&b);
        assert_close(&full, &want, "matmul_bt");
        let mut out = dirty(m, n);
        a.matmul_bt_into(&b, &mut out);
        assert_close(&out, &want, "matmul_bt_into");
        let width = width.min(n);
        let mut narrow = dirty(m, width);
        a.matmul_bt_into(&b, &mut narrow);
        for i in 0..m {
            prop_assert_eq!(narrow.row(i), &full.row(i)[..width]);
        }
    }

    #[test]
    fn matmul_at_matches_reference(
        m in 0usize..19,
        k in 0usize..19,
        n in 0usize..19,
        seed in 0u64..1_000_000,
    ) {
        let a = mat(k, m, seed);
        let b = mat(k, n, seed.wrapping_add(3));
        let want = a.matmul_at_ref(&b);
        assert_close(&a.matmul_at(&b), &want, "matmul_at");
        let mut out = dirty(m, n);
        a.matmul_at_into(&b, &mut out);
        assert_close(&out, &want, "matmul_at_into");
    }

    /// The three transpose variants must agree with each other through
    /// explicit transposes, not just with their own reference loops.
    #[test]
    fn transpose_variants_are_consistent(
        m in 0usize..13,
        k in 0usize..13,
        n in 0usize..13,
        seed in 0u64..1_000_000,
    ) {
        let a = mat(m, k, seed);
        let b = mat(k, n, seed.wrapping_add(4));
        let want = a.matmul(&b);
        assert_close(&a.matmul_bt(&b.transpose()), &want, "bt vs matmul");
        assert_close(&a.transpose().matmul_at(&b), &want, "at vs matmul");
    }

    /// Parallel map over matrix rows must return results bit-identical to
    /// the sequential loop, in the same order — the guarantee the training
    /// fan-out and CSTP lanes rely on.
    #[test]
    fn par_iter_row_sums_match_sequential_bitwise(
        m in 0usize..33,
        k in 1usize..19,
        seed in 0u64..1_000_000,
    ) {
        let a = mat(m, k, seed);
        let rows: Vec<&[f32]> = (0..m).map(|i| a.row(i)).collect();
        let sequential: Vec<f32> = rows
            .iter()
            .map(|r| r.iter().fold(0.0f32, |s, v| s + v * v))
            .collect();
        let parallel: Vec<f32> = rows
            .par_iter()
            .map(|r| r.iter().fold(0.0f32, |s, v| s + v * v))
            .collect();
        let seq_bits: Vec<u32> = sequential.iter().map(|v| v.to_bits()).collect();
        let par_bits: Vec<u32> = parallel.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(seq_bits, par_bits);
    }
}
