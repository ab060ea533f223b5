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

/// `dot4`'s sum, kept here as the per-element kernel `matmul_bt_into`
/// must reproduce bit for bit: four lane sums over 4-element chunks,
/// combined as `(s0 + s1) + (s2 + s3)`, then the `k % 4` tail in order.
fn dot4(a: &[f32], b: &[f32]) -> f32 {
    let mut s = [0.0f32; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        s[0] += x[0] * y[0];
        s[1] += x[1] * y[1];
        s[2] += x[2] * y[2];
        s[3] += x[3] * y[3];
    }
    let mut t = (s[0] + s[1]) + (s[2] + s[3]);
    for (x, y) in ra.iter().zip(rb.iter()) {
        t += x * y;
    }
    t
}

/// A matrix of mostly ordinary values with NaN, ±∞, ±0.0 and subnormals
/// mixed in (about one entry in six), from a xorshift seeded by `seed`.
fn specials(rows: usize, cols: usize, seed: u64) -> Matrix {
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
            if x.is_multiple_of(6) {
                ODD[(x >> 8) as usize % ODD.len()]
            } else {
                ((x >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0) as f32
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The bits of each value, every NaN written as one pattern: Rust leaves
/// the sign and payload of a NaN that arithmetic produces unspecified, and
/// the same `dot4` inlined in two places already differs there.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
        .collect()
}

/// Every output of the tiled `matmul_bt_into` has the bits of `dot4` on
/// its two rows, at every shape up to 13 × 19 × 13 (every row and column
/// tile remainder and every `k % 4`), into a dirty buffer, at full width
/// and narrower than `other.rows`, with special values among the inputs.
#[test]
fn matmul_bt_into_keeps_dot4_bits() {
    let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
    for m in 0..=13 {
        for k in 0..=19 {
            for n in 0..=13 {
                shapes.push((m, k, n));
            }
        }
    }
    // Rows of 17 to 64 chunks take the longer pack buffer; longer ones
    // and single rows run `dot4` directly.
    shapes.extend([
        (9, 68, 7),
        (6, 131, 5),
        (9, 256, 6),
        (9, 257, 6),
        (5, 260, 7),
        (1, 64, 64),
        (9, 64, 64),
        (9, 16, 64),
    ]);
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let seed = case as u64;
        let a = specials(m, k, seed);
        let b = specials(n, k, seed ^ 0x5EED);
        for width in [n, n.saturating_sub(1), n / 2] {
            let mut out = dirty(m, width);
            a.matmul_bt_into(&b, &mut out);
            let want: Vec<f32> = (0..m)
                .flat_map(|i| (0..width).map(move |j| (i, j)))
                .map(|(i, j)| dot4(a.row(i), b.row(j)))
                .collect();
            assert_eq!(bits(&out.data), bits(&want), "{m}x{k}x{n} at width {width}");
        }
    }
}
