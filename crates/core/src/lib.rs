//! # mpgraph-core
//!
//! The paper's primary contribution: **MPGraph**, a domain-specific ML
//! prefetcher for graph analytics, built from
//!
//! * [`amma::Amma`] — the multi-modality attention-fusion backbone (§4.3.2);
//! * [`delta_predictor::DeltaPredictor`] — spatial delta bitmaps (§4.3.3);
//! * [`page_predictor::PagePredictor`] — temporal page tokens (§4.3.4);
//! * [`cstp`] — chain spatio-temporal prefetching with the PBOT (§4.4.2);
//! * [`controller::Controller`] — phase-specific model switching (§4.4.1);
//! * [`prefetcher::MpGraphPrefetcher`] — the assembled prefetcher behind
//!   the [`mpgraph_sim::Prefetcher`] interface;
//! * [`compress`] / [`latency`] / [`complexity`] — the practicality
//!   machinery of §6 (knowledge distillation, binary encoding, int8
//!   quantization, Eq. 12 latency, Table 8 accounting).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

#[macro_use]
pub mod metric;

pub mod amma;
pub mod backbone;
pub mod complexity;
pub mod compress;
pub mod controller;
pub mod cstp;
pub mod degradation;
pub mod delta_predictor;
pub mod error;
pub mod health;
pub mod latency;
pub mod livetel;
pub mod obs;
pub mod page_predictor;
pub mod prefetcher;
pub mod serve;
pub mod trace;
mod training;
pub mod variants;

pub use amma::{Amma, AmmaConfig, ModalInput};
pub use backbone::{Backbone, BackboneKind};
pub use complexity::{ComplexityRow, CriticalPath};
pub use compress::{distill_delta, distill_page, DistillCfg};
pub use controller::Controller;
pub use cstp::{chain_prefetch, chain_prefetch_in, dedup_first_order, CstpConfig, CstpStats, Pbot};
pub use degradation::{DegradationGuard, GuardConfig};
pub use delta_predictor::{DeltaPredictor, DeltaPredictorConfig, DeltaRange};
pub use error::MpGraphError;
pub use health::{ComponentHealth, ComponentStatus, HealthReport};
pub use latency::{amma_latency, cycles_to_ns, LatencyBreakdown};
pub use livetel::{
    derive_interval, render_exposition, write_atomic, LiveInterval, LiveStreamDelta, LiveTelemetry,
    LiveTelemetryConfig, SloConfig, SloMonitor, SloVerdict,
};
pub use obs::{
    ControllerMetrics, DetectorMetrics, GuardMetrics, HistogramSnapshot, LaneMetrics,
    LatencyHistogram, LiveIntervalSummary, MetricsSnapshot, PhaseMetrics, PrefetchScoreboard,
    PumpStageMetrics, ServeMetrics, SloServeMetrics, StreamServeMetrics, TrainMetrics,
    TrainRollbackMetrics,
};
pub use page_predictor::{PageHead, PagePredictor, PagePredictorConfig};
pub use prefetcher::{
    build_detector, train_mpgraph, DetectorChoice, MpGraphConfig, MpGraphPrefetcher,
};
pub use serve::{Admission, BoundedQueue, Prediction, PrefetchService, ServeConfig};
pub use trace::{
    chrome_trace_json, chrome_trace_json_sharded, FlightRecorder, ShardTrace, TraceConfig,
    WindowMetrics, WindowPhaseMetrics,
};
pub use variants::Variant;
