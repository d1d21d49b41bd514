//! Dynamic weighted bipartite graph over RF signal records.
//!
//! The paper models a collection of WiFi scans as a weighted bipartite graph
//! `G = (U, V, E, w)`: one node per signal record (`U`), one node per sensed
//! MAC address (`V`), and an edge whenever a record heard a MAC, weighted by
//! a positive function of the RSS value (Eq. 1–2 of the paper; the default
//! is `w = RSS + c` with `c = 120` dBm).
//!
//! This crate provides:
//!
//! * [`BipartiteGraph`] — an append-friendly adjacency structure that
//!   supports streaming in new records (and new MACs) at inference time;
//! * [`WeightFn`] — the family of edge-weight functions swept in Fig. 14(d);
//! * weighted neighbor sampling with replacement (the non-uniform sampling
//!   BiSAGE uses for aggregation) backed by per-node prefix sums;
//! * [`walk`] — weighted random walks and the positive-pair stream used by
//!   the BiSAGE loss;
//! * [`negative::NegativeTable`] — the `deg^{3/4}` negative-sampling
//!   distribution, backed by an alias table ([`sampling::AliasTable`]).

pub mod bigraph;
pub mod negative;
pub mod sampling;
pub mod stats;
pub mod walk;

pub use bigraph::{Adjacency, BipartiteGraph, MacId, NodeId, RecordId, WeightFn};
pub use negative::NegativeTable;
pub use sampling::AliasTable;
pub use stats::{graph_stats, GraphStats};
pub use walk::{WalkConfig, WalkPairs};
