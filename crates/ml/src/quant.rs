//! Int8 symmetric quantization (§6.1 "Quantization"): weights are stored as
//! `i8` with a per-tensor scale, shrinking model storage 4× on top of the
//! architectural compression, at a small accuracy cost that the paper (and
//! our Figure 13 harness) measures.
//!
//! Int8 is a storage format here, as in the paper: [`quantize_module`]
//! rounds every weight onto its int8 grid in place, and inference keeps
//! running the f32 kernels on the rounded weights, so it computes exactly
//! what a model loaded from int8 storage computes. Int8 *compute* was
//! measured and lost to the f32 kernels at every shape the models run
//! (DESIGN.md §17).

use crate::layers::{Module, Param};
use crate::tensor::Matrix;

/// Symmetric quantization scale for a tensor with magnitude `max`, with the
/// edge cases fixed:
///
/// * `max == 0` → scale 1.0 (all q = 0; any positive scale works);
/// * subnormal `max` (< ~1.8e-43) makes `max / 127` round to 0.0, and
///   dividing by that scale would produce ±inf clamped to ±127 garbage —
///   guarded the same way (all values quantize to 0, which is within any
///   reasonable error bound of values that small);
/// * the returned scale is driven to a fixed point of requantization
///   (`scale == (127·scale)/127` in f32), so dequantize → quantize
///   reproduces the same `(q, scale)` pair exactly — [`quantize_module`]
///   applied twice is a bit-exact no-op.
fn stable_scale(max: f32) -> f32 {
    let mut scale = max / 127.0;
    if scale == 0.0 {
        return 1.0;
    }
    // max|q| is 127 after quantization, so requantization sees a new max of
    // fl(127·scale) and derives fl(fl(127·scale)/127). Iterate that map to
    // a fixed point (monotone, converges within a couple of 1-ulp steps;
    // the bound is just a safety net).
    for _ in 0..8 {
        let next = (127.0 * scale) / 127.0;
        if next == scale {
            break;
        }
        scale = next;
    }
    scale
}

/// A quantized tensor: `w ≈ q * scale` with `q ∈ [-127, 127]`.
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    pub q: Vec<i8>,
    pub scale: f32,
    pub rows: usize,
    pub cols: usize,
}

impl QuantizedTensor {
    /// Quantizes symmetric per-tensor: scale = max|w| / 127 (see
    /// `stable_scale` for the zero/subnormal/idempotency guards).
    pub fn quantize(w: &Matrix) -> Self {
        let max = w.data.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let scale = stable_scale(max);
        let q = w
            .data
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantizedTensor {
            q,
            scale,
            rows: w.rows,
            cols: w.cols,
        }
    }

    /// Reconstructs the float tensor.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.q.iter().map(|&v| v as f32 * self.scale).collect(),
        )
    }

    /// Storage in bytes: int8 payload + the f32 scale + the two u32 shape
    /// fields a deployed blob needs to reconstruct the matrix. (The seed
    /// omitted the shape metadata, flattering every compression ratio.)
    pub fn storage_bytes(&self) -> usize {
        self.q.len() + 4 + 2 * 4
    }

    /// Worst-case absolute reconstruction error bound: scale / 2.
    pub fn error_bound(&self) -> f32 {
        self.scale * 0.5
    }
}

/// Quantizes every parameter of a module in place (simulated quantization:
/// the weights are replaced by their dequantized int8 values, so inference
/// behaves exactly as int8 storage would). Returns total int8 storage bytes.
/// Applying this twice is a bit-exact no-op (see `stable_scale`).
pub fn quantize_module(module: &mut dyn Module) -> usize {
    let mut bytes = 0usize;
    module.for_each_param(&mut |p: &mut Param| {
        let q = QuantizedTensor::quantize(&p.w);
        bytes += q.storage_bytes();
        p.w = q.dequantize();
    });
    bytes
}

/// Float storage bytes of a module (4 bytes per weight).
pub fn float_storage_bytes(module: &dyn Module) -> usize {
    module.num_params() * 4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::tensor::rng;

    #[test]
    fn roundtrip_error_bounded() {
        let mut r = rng(1);
        let w = Matrix::xavier(16, 16, &mut r);
        let q = QuantizedTensor::quantize(&w);
        let back = q.dequantize();
        let bound = q.error_bound() + 1e-6;
        for (a, b) in w.data.iter().zip(back.data.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let w = Matrix::zeros(3, 3);
        let q = QuantizedTensor::quantize(&w);
        assert!(q.dequantize().data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn extremes_map_to_127() {
        let w = Matrix::from_vec(1, 2, vec![-2.0, 2.0]);
        let q = QuantizedTensor::quantize(&w);
        assert_eq!(q.q, vec![-127, 127]);
    }

    #[test]
    fn subnormal_weights_quantize_to_zero_not_inf() {
        // max/127 rounds to 0.0 for subnormal max; the seed then computed
        // v/0.0 = ±inf and clamped to ±127 garbage. Fixed: treated as zero.
        let tiny = 1.0e-44f32; // subnormal, tiny/127 == 0.0 in f32
        assert_eq!(tiny / 127.0, 0.0);
        let w = Matrix::from_vec(1, 3, vec![tiny, -tiny, 0.0]);
        let q = QuantizedTensor::quantize(&w);
        assert_eq!(q.q, vec![0, 0, 0], "subnormals must not clamp to ±127");
        assert!(q.dequantize().data.iter().all(|&v| v == 0.0));
        // Error bound still honest: |tiny - 0| << scale/2.
        assert!(tiny <= q.error_bound());
    }

    #[test]
    fn storage_bytes_include_shape_metadata() {
        let w = Matrix::zeros(4, 8);
        let q = QuantizedTensor::quantize(&w);
        // 32 int8 weights + 4-byte scale + two 4-byte shape fields.
        assert_eq!(q.storage_bytes(), 32 + 4 + 8);
    }

    #[test]
    fn quantize_is_idempotent_bit_exactly() {
        let mut r = rng(9);
        for seed in 0..20 {
            let w = Matrix::xavier(7, 13, &mut r);
            let q1 = QuantizedTensor::quantize(&w);
            let d1 = q1.dequantize();
            let q2 = QuantizedTensor::quantize(&d1);
            assert_eq!(q1.q, q2.q, "seed {seed}: q drifted");
            assert_eq!(
                q1.scale.to_bits(),
                q2.scale.to_bits(),
                "seed {seed}: scale drifted"
            );
            assert_eq!(d1.data, q2.dequantize().data, "seed {seed}: values drifted");
        }
    }

    #[test]
    fn quantize_module_twice_is_noop() {
        let mut r = rng(2);
        let mut l = Linear::new(16, 16, &mut r);
        let bytes1 = quantize_module(&mut l);
        let after_once: Vec<f32> = l.w.w.data.clone();
        let bytes2 = quantize_module(&mut l);
        assert_eq!(l.w.w.data, after_once, "second quantization drifted");
        assert_eq!(bytes1, bytes2);
    }

    #[test]
    fn quantize_module_shrinks_storage_4x() {
        let mut r = rng(2);
        let mut l = Linear::new(32, 32, &mut r);
        let float_bytes = float_storage_bytes(&l);
        let int_bytes = quantize_module(&mut l);
        assert!(int_bytes * 3 < float_bytes, "{int_bytes} vs {float_bytes}");
    }

    #[test]
    fn quantized_linear_output_stays_close() {
        let mut r = rng(3);
        let mut l = Linear::new(8, 8, &mut r);
        let x = Matrix::xavier(4, 8, &mut r);
        let mut s = crate::arena::ScratchArena::new();
        let before = l.infer_in(&x, &mut s);
        quantize_module(&mut l);
        let after = l.infer_in(&x, &mut s);
        for (a, b) in before.data.iter().zip(after.data.iter()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }
}
