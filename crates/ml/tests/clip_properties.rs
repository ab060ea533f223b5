//! Property tests for Adam's clip check: the lane-sum test in
//! `optim::norm_may_exceed` must never skip a tensor whose exact norm
//! exceeds the clip, and `Adam::step` must update every weight and moment
//! to the same bits as the loop that always computed the norm. The cases
//! sit where the check is hardest: norms within ±0.1% of the clip,
//! lengths up to 20,000 that are mostly not multiples of 16, and NaN, ±∞,
//! subnormal and overflowing entries.

use mpgraph_ml::layers::{Module, Param};
use mpgraph_ml::optim::{norm_may_exceed, Adam};
use mpgraph_ml::tensor::Matrix;
use proptest::prelude::*;

/// A tensor of `len` entries built from `seed` in one of several shapes:
/// random or constant entries scaled to a norm of `clip · (1 + rel)`, or
/// random entries with NaN, ±∞, subnormal or overflowing values mixed in.
fn tensor(kind: u8, len: usize, seed: u64, clip: f32, rel: f64) -> Vec<f32> {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    let mut g: Vec<f32> = (0..len).map(|_| next() as f32).collect();
    let scale_to = |g: &mut Vec<f32>, target: f64| {
        let norm = g.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in g.iter_mut() {
                *v = (f64::from(*v) * target / norm) as f32;
            }
        }
    };
    let target = f64::from(clip) * (1.0 + rel);
    let pick = (seed as usize) % len.max(1);
    match kind {
        // Random entries at a norm near the clip.
        0 => scale_to(&mut g, target),
        // Constant entries, where a sequential sum drifts the most.
        1 => {
            g.fill(1.0);
            scale_to(&mut g, target);
        }
        2 if len > 0 => g[pick] = f32::NAN,
        3 if len > 0 => {
            g[pick] = if seed.is_multiple_of(2) {
                f32::INFINITY
            } else {
                f32::NEG_INFINITY
            }
        }
        // Subnormal entries (their squares underflow), plus a few normal
        // ones scaled near the clip.
        4 => {
            for (i, v) in g.iter_mut().enumerate() {
                if i % 3 != 0 {
                    *v *= f32::MIN_POSITIVE / 2.0;
                }
            }
            scale_to(&mut g, target);
        }
        // Entries whose squares overflow, or whose sum does.
        5 if len > 0 => {
            if seed.is_multiple_of(2) {
                g[pick] = 2e19;
            } else {
                for v in g.iter_mut() {
                    *v *= 1.5e19;
                }
            }
        }
        _ => {}
    }
    g
}

/// One parameter tensor with the given gradient, as a module.
struct One(Param);

impl Module for One {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.0);
    }

    fn for_each_param_ref(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.0);
    }
}

/// The update loop before the clip check: the exact norm on every
/// tensor.
fn reference_step(p: &mut Param, t: i32, adam: &Adam) {
    let (lr, b1, b2, eps, clip) = (adam.lr, adam.beta1, adam.beta2, adam.eps, adam.clip);
    let bc1 = 1.0 - b1.powi(t);
    let bc2 = 1.0 - b2.powi(t);
    if clip > 0.0 {
        let norm = p.g.norm();
        if norm > clip {
            p.g.scale(clip / norm);
        }
    }
    for i in 0..p.w.data.len() {
        let g = p.g.data[i];
        p.m[i] = b1 * p.m[i] + (1.0 - b1) * g;
        p.v[i] = b2 * p.v[i] + (1.0 - b2) * g * g;
        let mhat = p.m[i] / bc1;
        let vhat = p.v[i] / bc2;
        p.w.data[i] -= lr * mhat / (vhat.sqrt() + eps);
    }
    p.g.data.fill(0.0);
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn clip_check_never_skips_a_firing_clip_and_adam_keeps_its_bits(
        kind in 0u8..6,
        len in 0usize..20_001,
        seed in 0u64..u64::MAX,
        clip in prop::sample::select(vec![5.0f32, 1.0, 0.01, 1e3]),
        rel in -1e-3f64..1e-3,
    ) {
        let g = tensor(kind, len, seed, clip, rel);
        let norm = Matrix::from_vec(1, len, g.clone()).norm();
        if norm > clip {
            prop_assert!(
                norm_may_exceed(&g, clip),
                "kind {kind} len {len}: norm {norm} > clip {clip} was skipped"
            );
        }

        // Two steps, the second on a halved gradient, against the
        // reference loop on a copy.
        let mut adam = Adam::new(1e-2);
        adam.clip = clip;
        let w = Matrix::from_vec(1, len, (0..len).map(|i| (i % 7) as f32 * 0.1).collect());
        let mut fast = One(Param::new(w));
        let mut slow = fast.0.clone();
        for t in 1..=2 {
            let scale = if t == 1 { 1.0 } else { 0.5 };
            for (dst, &v) in fast.0.g.data.iter_mut().zip(&g) {
                *dst = v * scale;
            }
            slow.g.data.copy_from_slice(&fast.0.g.data);
            adam.step(&mut fast);
            reference_step(&mut slow, t, &adam);
            prop_assert_eq!(bits(&fast.0.w.data), bits(&slow.w.data), "kind {} len {} step {}", kind, len, t);
            prop_assert_eq!(bits(&fast.0.m), bits(&slow.m));
            prop_assert_eq!(bits(&fast.0.v), bits(&slow.v));
            prop_assert_eq!(bits(&fast.0.g.data), bits(&slow.g.data));
        }
    }

    /// The tightest case: the smallest scaling of a tensor whose exact
    /// norm exceeds the clip, found by bisection, must take the exact
    /// path.
    #[test]
    fn clip_check_passes_the_smallest_norm_above_the_clip(
        len in 1usize..4_000,
        seed in 0u64..u64::MAX,
    ) {
        let clip = 5.0f32;
        let base = tensor((seed % 2) as u8, len, seed, clip, 0.0);
        let scaled = |f: f64| -> Vec<f32> { base.iter().map(|&v| (f64::from(v) * f) as f32).collect() };
        let norm = |g: &[f32]| Matrix::from_vec(1, g.len(), g.to_vec()).norm();
        let (mut lo, mut hi) = (0.99f64, 1.01f64);
        prop_assert!(norm(&scaled(lo)) <= clip && norm(&scaled(hi)) > clip);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if norm(&scaled(mid)) > clip {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let g = scaled(hi);
        prop_assert!(norm(&g) > clip);
        prop_assert!(norm_may_exceed(&g, clip), "len {len}: norm {} skipped", norm(&g));
    }
}

#[test]
fn clip_check_lets_small_and_empty_tensors_skip() {
    assert!(!norm_may_exceed(&[], 5.0));
    assert!(!norm_may_exceed(&[3.0, 4.0 - 1e-3], 5.0));
    // A norm of exactly the clip does not fire, but the margin sends it
    // down the exact path.
    assert!(norm_may_exceed(&[3.0, 4.0], 5.0));
    assert!(norm_may_exceed(&[f32::NAN], 5.0));
    assert!(norm_may_exceed(&[f32::INFINITY, 0.0], 5.0));
    assert!(norm_may_exceed(&[2e19], 1e30));
    assert!(!norm_may_exceed(&vec![1e-3; 1000], 5.0));
}
