//! GEM: geofencing with network embedding (the paper's contribution).
//!
//! The three integral components:
//!
//! 1. **Weighted bipartite graph modeling** (provided by [`gem_graph`]) —
//!    each RF record is a `U` node, each sensed MAC a `V` node, edge
//!    weight `w = RSS + c`;
//! 2. **[`bisage::BiSage`]** — the inductive bipartite network-embedding
//!    algorithm with bi-level (primary/auxiliary) aggregation, non-uniform
//!    neighbor sampling, weighted random walks and negative sampling
//!    (paper Section IV-B);
//! 3. **[`detector::EnhancedDetector`]** — the enhanced histogram-based
//!    one-class classifier with temperature-softmax score rescaling and
//!    confident-sample online updates (Sections IV-C and V-B).
//!
//! [`gem::Gem`] wires the three together into the end-to-end system with
//! online inference and self-enhancement. [`pipeline`] defines the
//! `Embedder`/`OutlierModel` traits so the paper's baseline comparisons
//! (other embedders × other detectors) compose the same way.

pub mod bisage;
pub mod codec;
pub mod config;
pub mod detector;
pub mod gem;
pub mod hbos;
pub mod infer;
pub mod pca;
pub mod persist;
pub mod pipeline;

pub use bisage::{obs_step_recorder, Aggregator, BiSage, BiSageConfig, StepEvent};
pub use config::GemConfig;
pub use detector::{BaselineHbos, Detection, EnhancedDetector};
#[doc(hidden)]
pub use gem::CacheStats;
pub use gem::{Decision, Gem};
pub use hbos::HistogramModel;
pub use infer::InferenceEngine;
pub use pca::PcaRotation;
pub use persist::{
    fnv1a64, fnv1a64_hex, FleetManifest, GemSnapshot, PersistError, PremisesEntry, MANIFEST_FILE,
};
pub use pipeline::{Embedder, OutlierModel, Pipeline};
