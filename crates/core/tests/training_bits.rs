//! The trained bits, pinned: every predictor variant and TransFetch train
//! on a small two-phase trace at four learning rates, and the weights, the
//! final loss, the step count and the rollback count must match values
//! recorded from a known-good build. A change meant to make training
//! faster without changing what it computes keeps every row; a change
//! that moves one (a reordered sum, a skipped term that was not exactly
//! zero) fails here with the row that moved.
//!
//! The two high rates diverge: they exercise the training guard's
//! rollbacks and the gradient clip on overflowing activations.

use mpgraph_core::{
    AmmaConfig, DeltaPredictor, DeltaPredictorConfig, PageHead, PagePredictor, PagePredictorConfig,
    Variant,
};
use mpgraph_frameworks::MemRecord;
use mpgraph_ml::guard::Trainable;
use mpgraph_prefetchers::{TrainCfg, TransFetch, TransFetchConfig};

fn rec(vaddr: u64, pc: u64, phase: u8, core: u8) -> MemRecord {
    MemRecord {
        pc,
        vaddr,
        core,
        is_write: false,
        phase,
        gap: 1,
        dep: false,
    }
}

/// Two phases, twice over: a +1-block stream, then a walk over three
/// pages, each spread over two cores.
fn trace() -> Vec<MemRecord> {
    let mut v = Vec::new();
    for rep in 0..2u64 {
        let mut a = (4 + rep) * 4096;
        for i in 0..150u64 {
            v.push(rec(a, 0x400000 + (i % 3) * 4, 0, (i % 2) as u8));
            a += 64;
        }
        for i in 0..150u64 {
            let page = [40u64, 80, 120][(i % 3) as usize];
            v.push(rec(page * 4096 + (i % 50) * 64, 0x401000, 1, (i % 2) as u8));
        }
    }
    v
}

fn amma() -> AmmaConfig {
    AmmaConfig {
        history: 5,
        attn_dim: 8,
        fusion_dim: 16,
        layers: 1,
        heads: 2,
    }
}

fn tc(lr: f32) -> TrainCfg {
    TrainCfg {
        history: 5,
        max_samples: 60,
        epochs: 2,
        lr,
        seed: 22,
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One trained model: (name, weight hash, final-loss bits, steps,
/// rollbacks).
type Row = (String, u64, u32, u64, u64);

fn train_all(lr: f32) -> Vec<Row> {
    let tr = trace();
    let tc = tc(lr);
    let mut rows = Vec::new();
    let delta_cfg = DeltaPredictorConfig {
        amma: amma(),
        segments: 6,
        delta_range: 15,
        look_forward: 8,
        threshold: 0.5,
    };
    for variant in Variant::ALL {
        let p = DeltaPredictor::train(&tr, 2, variant, delta_cfg, &tc);
        rows.push((
            format!("delta {}", variant.name()),
            fnv1a(&p.weight_bytes()),
            p.final_loss.to_bits(),
            p.training.steps,
            p.training.rollbacks,
        ));
        for head in [PageHead::Softmax, PageHead::BinaryEncoded] {
            let cfg = PagePredictorConfig {
                amma: amma(),
                page_vocab: 64,
                embed_dim: 8,
                head,
            };
            let p = PagePredictor::train(&tr, 2, variant, cfg, &tc);
            rows.push((
                format!("page {} {head:?}", variant.name()),
                fnv1a(&p.weight_bytes()),
                p.final_loss.to_bits(),
                p.training.steps,
                p.training.rollbacks,
            ));
        }
    }
    let cfg = TransFetchConfig {
        segments: 6,
        dim: 16,
        heads: 2,
        layers: 2,
        delta_range: 15,
        look_forward: 8,
        degree: 3,
        latency: 0,
        threshold: 0.3,
    };
    let mut m = TransFetch::train(&tr, cfg, &tc);
    let mut bytes = Vec::new();
    for part in m.parts() {
        part.for_each_param_ref(&mut |p| {
            for v in &p.w.data {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        });
    }
    rows.push((
        "TransFetch".into(),
        fnv1a(&bytes),
        m.final_loss.to_bits(),
        0,
        0,
    ));
    rows
}

/// (learning rate, name, weight hash, final-loss bits, steps, rollbacks).
/// TransFetch reports no step or rollback counters; its two are 0.
#[rustfmt::skip]
const EXPECTED: &[(f32, &str, u64, u32, u64, u64)] = &[
    (4e-3, "delta LSTM", 0xaf92341040f9b0b2, 0x3e35a375, 120, 0),
    (4e-3, "page LSTM Softmax", 0x0a8be6236d1af970, 0x3fe9cc23, 120, 0),
    (4e-3, "page LSTM BinaryEncoded", 0x0283590f6ed5dec9, 0x3ea4fe3f, 120, 0),
    (4e-3, "delta Attention", 0x339191e6f1ebe751, 0x3e3f8def, 120, 0),
    (4e-3, "page Attention Softmax", 0xd755ff862cd3220d, 0x400c12a6, 120, 0),
    (4e-3, "page Attention BinaryEncoded", 0xb66963e5c66b9fbe, 0x3ec6285e, 120, 0),
    (4e-3, "delta AMMA", 0xad354ec149ed6ec0, 0x3e3c752f, 120, 0),
    (4e-3, "page AMMA Softmax", 0x7fe71b6898aa7ec5, 0x40058c4d, 120, 0),
    (4e-3, "page AMMA BinaryEncoded", 0x358497186e18bada, 0x3eb9e0c1, 120, 0),
    (4e-3, "delta AMMA-PI", 0x9babe5a3a10d8dfb, 0x3e42e6a6, 120, 0),
    (4e-3, "page AMMA-PI Softmax", 0x95904cc14aee5113, 0x400df773, 120, 0),
    (4e-3, "page AMMA-PI BinaryEncoded", 0xf022a87e32248ad7, 0x3ea9eca9, 120, 0),
    (4e-3, "delta AMMA-PS", 0x9c8f48e7951f6f25, 0x3d98e9c6, 120, 0),
    (4e-3, "page AMMA-PS Softmax", 0x24958ca576de0022, 0x3f9ddeac, 120, 0),
    (4e-3, "page AMMA-PS BinaryEncoded", 0x105ee4cbc180d91e, 0x3eb2b985, 120, 0),
    (4e-3, "TransFetch", 0x1d3a5e381a620a4f, 0x3e3f520d, 0, 0),
    (3e1, "delta LSTM", 0xe95d511066935b39, 0x4303c7a7, 120, 0),
    (3e1, "page LSTM Softmax", 0x9590495245b995cc, 0x418fae6d, 120, 0),
    (3e1, "page LSTM BinaryEncoded", 0xc9e979eb49b421a0, 0x42fbb5a1, 120, 0),
    (3e1, "delta Attention", 0x2c6e7c1757eec653, 0x4711e1b4, 120, 0),
    (3e1, "page Attention Softmax", 0x4a7b557d9b598023, 0x41935d90, 120, 0),
    (3e1, "page Attention BinaryEncoded", 0xb25e448e958a4650, 0x464eb447, 120, 0),
    (3e1, "delta AMMA", 0x98560594e9efaf16, 0x47832afb, 120, 0),
    (3e1, "page AMMA Softmax", 0x8f6f9fa76c893a46, 0x41970cb3, 120, 0),
    (3e1, "page AMMA BinaryEncoded", 0x80e7d5e7fc303218, 0x4635b915, 99, 8),
    (3e1, "delta AMMA-PI", 0xc741c66b5abc9b2d, 0x471aa702, 120, 0),
    (3e1, "page AMMA-PI Softmax", 0x492f7a7e103bf6d7, 0x41dd0c50, 120, 0),
    (3e1, "page AMMA-PI BinaryEncoded", 0x1f473d30ab59ffd1, 0x468da97a, 120, 0),
    (3e1, "delta AMMA-PS", 0x66d4a26bf20f5db8, 0x45756797, 120, 0),
    (3e1, "page AMMA-PS Softmax", 0x0143917cfe7546b3, 0x41b485d0, 120, 0),
    (3e1, "page AMMA-PS BinaryEncoded", 0x2bd1812faf16a91d, 0x46909fcf, 120, 0),
    (3e1, "TransFetch", 0x8f70ee1d446839a0, 0x47745c3c, 0, 0),
    (1e3, "delta LSTM", 0x05b9fb0c96102354, 0x45897f65, 120, 0),
    (1e3, "page LSTM Softmax", 0x60328e0986480f0c, 0x4180f1df, 120, 0),
    (1e3, "page LSTM BinaryEncoded", 0x55785404368627d4, 0x45c24cfd, 120, 0),
    (1e3, "delta Attention", 0x4524daf8328349d3, 0x7fc00000, 9, 8),
    (1e3, "page Attention Softmax", 0xd2cea9dc944143c3, 0x4180f1df, 120, 0),
    (1e3, "page Attention BinaryEncoded", 0x1bd33830dd9e1a7c, 0x7fc00000, 14, 8),
    (1e3, "delta AMMA", 0xfbe1976a435a42cc, 0x7fc00000, 24, 8),
    (1e3, "page AMMA Softmax", 0x458b1f2aaf45ee0d, 0x41dd0c50, 120, 0),
    // The one row the final layer's one-row backward moved, on purpose.
    // At step 41 two rows of that layer the readout never reads had
    // overflowed (their x̂ was NaN); the all-rows backward multiplied them
    // by their zero gradient, 0 × NaN made every gradient of the step NaN,
    // and the run read (0x9a42d0098af96f7d, 0x475fec62, 120, 6). The one-row
    // backward never computes those rows, and its gradients stay finite.
    (1e3, "page AMMA BinaryEncoded", 0xf817c6a59ecb6cc8, 0x48496206, 112, 8),
    (1e3, "delta AMMA-PI", 0xca44f4346df7b0d3, 0x7fc00000, 24, 8),
    (1e3, "page AMMA-PI Softmax", 0x97dc0df172e8f307, 0x41dd0c50, 120, 0),
    (1e3, "page AMMA-PI BinaryEncoded", 0xcb73ba863f5abd9b, 0x7fc00000, 14, 8),
    (1e3, "delta AMMA-PS", 0x707e5793d179bb02, 0x00000000, 120, 8),
    (1e3, "page AMMA-PS Softmax", 0xd406758fe09db3c8, 0x41dd0c59, 120, 0),
    (1e3, "page AMMA-PS BinaryEncoded", 0x599a3f3919bacb2e, 0x48356382, 59, 16),
    (1e3, "TransFetch", 0x798b1f704362a19a, 0x7fc00000, 0, 0),
    (1e4, "delta LSTM", 0x7edd9ce77c5f09a0, 0x472bdf3f, 120, 0),
    (1e4, "page LSTM Softmax", 0x2e5a30df507c6fd1, 0x4180f1df, 120, 0),
    (1e4, "page LSTM BinaryEncoded", 0xb107cfd10e3d48fc, 0x4763f6cd, 120, 0),
    (1e4, "delta Attention", 0x15b5804ba719c2fe, 0x7fc00000, 9, 8),
    (1e4, "page Attention Softmax", 0x0f97724c71892935, 0x418fae6d, 120, 0),
    (1e4, "page Attention BinaryEncoded", 0xba5e973a4cd50b30, 0x7fc00000, 14, 8),
    (1e4, "delta AMMA", 0xf84c3007e6eb40b2, 0x7fc00000, 22, 8),
    (1e4, "page AMMA Softmax", 0xfbfc8ea35bc3cae1, 0x41dd0c50, 120, 0),
    (1e4, "page AMMA BinaryEncoded", 0x28cb4fc4c93e8f7b, 0x7fc00000, 9, 8),
    (1e4, "delta AMMA-PI", 0xee9d80e6e8b69901, 0x7fc00000, 23, 8),
    (1e4, "page AMMA-PI Softmax", 0x4655a0b1d28b1420, 0x41dd0c50, 120, 0),
    (1e4, "page AMMA-PI BinaryEncoded", 0x4424610cd84dd91e, 0x7fc00000, 9, 8),
    (1e4, "delta AMMA-PS", 0x7104111a9b3e6789, 0x00000000, 120, 11),
    (1e4, "page AMMA-PS Softmax", 0x4afa514fdd1763ff, 0x41dd0c59, 120, 0),
    (1e4, "page AMMA-PS BinaryEncoded", 0x3527c008df4e9f2e, 0x7fc00000, 25, 16),
    (1e4, "TransFetch", 0x70b674ddbc04a868, 0x7fc00000, 0, 0),
];

#[test]
fn trained_bits_match_the_recorded_values() {
    let mut got = Vec::new();
    for lr in [4e-3f32, 30.0, 1e3, 1e4] {
        got.extend(train_all(lr).into_iter().map(|r| (lr, r)));
    }
    let mut mismatches = Vec::new();
    for (i, (lr, (name, hash, loss, steps, rollbacks))) in got.iter().enumerate() {
        let row = (*lr, name.as_str(), *hash, *loss, *steps, *rollbacks);
        if EXPECTED.get(i) != Some(&row) {
            mismatches.push(format!(
                "    ({lr:e}, {name:?}, {hash:#018x}, {loss:#010x}, {steps}, {rollbacks}),"
            ));
        }
    }
    assert_eq!(
        got.len(),
        EXPECTED.len(),
        "row count; got:\n{}",
        mismatches.join("\n")
    );
    assert!(
        mismatches.is_empty(),
        "{} of {} rows moved; got:\n{}",
        mismatches.len(),
        got.len(),
        mismatches.join("\n")
    );
}
