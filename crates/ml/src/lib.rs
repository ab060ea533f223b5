//! # mpgraph-ml
//!
//! From-scratch neural-network substrate for the MPGraph reproduction:
//! dense tensors, trainable layers with explicit backward passes (Linear,
//! Embedding, LayerNorm, activations), scaled dot-product and multi-head
//! attention, Transformer encoder layers, an LSTM with BPTT (for the
//! paper's baselines), the Adam optimizer, the one guarded training loop
//! ([`guard::fit`]) every model trains through, the losses the two predictors
//! train with, knowledge-distillation and int8-quantization utilities for
//! §6.1, PCA for the Figure 2 motivation study, and the evaluation metrics
//! of Tables 4, 6 and 7.
//!
//! Model sizes in the paper are small (Table 5: dims 64-128, history 9), so
//! full-precision CPU training is fast and exactly reproducible: every
//! random choice flows from a caller-provided [`tensor::rng`] seed.
//!
//! ```
//! use mpgraph_ml::guard::{fit, Trainable};
//! use mpgraph_ml::layers::{Linear, Module};
//! use mpgraph_ml::tensor::{rng, Matrix};
//!
//! // Fit y = 3x with one dense layer.
//! struct Line(Linear);
//! impl Trainable for Line {
//!     fn parts(&mut self) -> Vec<&mut dyn Module> {
//!         vec![&mut self.0]
//!     }
//! }
//! let mut line = Line(Linear::new(1, 1, &mut rng(0)));
//! let xs = [-1.0f32, 0.5, 1.0, 2.0];
//! let report = fit(&mut line, &[()], 200, 0.05, |m, _| {
//!     let y = m.0.forward(&Matrix::from_vec(4, 1, xs.to_vec()));
//!     let d: Vec<f32> = (0..4).map(|i| (y.data[i] - 3.0 * xs[i]) / 4.0).collect();
//!     m.0.backward(&Matrix::from_vec(4, 1, d.clone()));
//!     d.iter().map(|e| 2.0 * e * e).sum()
//! });
//! assert!(report.rollbacks.is_empty());
//! assert!((line.0.w.w.data[0] - 3.0).abs() < 0.1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

pub mod arena;
pub mod attention;
pub mod guard;
pub mod layers;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod optim;
pub mod pca;
pub mod quant;
pub mod tensor;
pub mod transformer;

pub use arena::ScratchArena;
pub use attention::{MultiHeadAttention, SelfAttention};
pub use guard::{fit, FitReport, GuardAction, Rollback, TrainGuard, Trainable};
pub use layers::{Embedding, LayerNorm, Linear, Module, Param, Relu, Sigmoid};
pub use loss::{bce_with_logits, distillation_loss, softmax_cross_entropy};
pub use lstm::Lstm;
pub use metrics::{accuracy_at_k, multilabel_f1, top_k_indices, Prf};
pub use optim::Adam;
pub use pca::Pca;
pub use quant::{float_storage_bytes, quantize_module, QuantizedTensor};
pub use tensor::{rng, Matrix};
pub use transformer::{FeedForward, TransformerLayer};
