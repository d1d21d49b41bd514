//! Tape-free streaming inference engine (paper Section V-A serving loop).
//!
//! [`crate::BiSage::embed_nodes_filtered`] evaluates the aggregation
//! through the autodiff tape: a fresh [`gem_nn::tape::Graph`], a fresh
//! forward scratch, and clones of the aggregation matrices for every
//! embedded record. That machinery exists to produce gradients — which
//! inference never needs. [`InferenceEngine`] evaluates the exact same
//! arithmetic directly on raw tensors:
//!
//! - **Persistent scratch.** Every buffer the forward pass touches —
//!   neighborhood lists, concat/linear tensors, aggregate accumulators —
//!   lives on the engine and is reshaped in place
//!   ([`gem_nn::Tensor::reset_to`]), so the steady-state single-record
//!   path performs zero heap allocations (gated in the `infer` bench via
//!   the `count-allocs` allocator).
//! - **Half-cone evaluation.** The layer-0 primary output depends only on
//!   the `h` chain at even tree depths and the `l` chain at odd depths,
//!   so the engine evaluates half of the tape's `(chain, depth)` grid.
//!   Every op is row- and element-independent, so the result is bitwise
//!   identical to the tape's.
//! - **Bounded neighborhoods.** A MAC's record side comes from the
//!   graph's weight order ([`gem_graph::BipartiteGraph::mac_weight_order`]),
//!   walked until `inference_cap + 1` records pass the trust filter. So
//!   a MAC costs O(cap + skipped untrusted records), not O(degree ·
//!   log degree), however many records the session has added to it, and
//!   the result is bitwise the filter → stable sort → truncate list.
//!
//! Every embedding takes the single-record path, one record at a time:
//! streaming decisions exactly as the paper's online loop does, and fit
//! time ([`crate::BiSage::embed_all_records`]) as one unfiltered engine
//! walked over every training record. Each call computes the round-1
//! aggregate `l¹` of every MAC the target hears afresh: a streamed
//! record is untrusted while it is embedded, so no `l¹` from an earlier
//! call could be reused for it.
//!
//! Callers must keep base rows initialized (`ensure_rows*`) before
//! embedding; the engine never mutates the model or the graph.

use rand::rngs::StdRng;

use gem_graph::{BipartiteGraph, MacId, NodeId, RecordId};
use gem_nn::kernels;
use gem_nn::tape::Activation;
use gem_nn::Tensor;

use crate::bisage::{node_row, normalize_into, Aggregator, BiSage, Tree};

/// Forward-only embedding evaluator with persistent scratch; the
/// arithmetic is bitwise identical to the tape path.
pub struct InferenceEngine {
    /// Round-1 MAC aggregates `l¹` computed over the engine's lifetime.
    l1_computations: u64,
    // Single-record scratch.
    nbrs: Vec<(NodeId, f32)>,
    /// Target's capped level-0 expansion: `(mac id, normalized weight)`.
    macs0: Vec<(u32, f32)>,
    h1: Vec<f32>,
    agg: Vec<f32>,
    cat: Tensor,
    lin: Tensor,
    // Generic-tree path (rounds ≠ 2, and sampled trees).
    tree: Tree,
    tree_scratch: Vec<(NodeId, f32)>,
    cur: Vec<Tensor>,
    next: Vec<Tensor>,
}

impl Default for InferenceEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl InferenceEngine {
    /// An empty engine; buffers warm up over the first few calls.
    pub fn new() -> Self {
        InferenceEngine {
            l1_computations: 0,
            nbrs: Vec::new(),
            macs0: Vec::new(),
            h1: Vec::new(),
            agg: Vec::new(),
            cat: Tensor::zeros(0, 0),
            lin: Tensor::zeros(0, 0),
            tree: Tree::default(),
            tree_scratch: Vec::new(),
            cur: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Round-1 MAC aggregates `l¹` computed over the engine's lifetime
    /// (one per MAC the target hears, on the two-round path).
    pub(crate) fn l1_computations(&self) -> u64 {
        self.l1_computations
    }

    /// Primary embedding of one record into a caller-owned buffer —
    /// the allocation-free streaming path. Bitwise identical to
    /// `embed_nodes_filtered(graph, &[record], wrapped)` where `wrapped`
    /// admits the record itself plus every trusted record (or no filter
    /// when `trusted` is `None`). Base rows must already be initialized
    /// (see [`crate::BiSage::ensure_rows_filtered`]).
    pub fn embed_record_into(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        record: RecordId,
        trusted: Option<&[bool]>,
        out: &mut Vec<f32>,
    ) {
        let d = model.cfg.dim;
        let aggr = model.cfg.aggregator;
        let wrapped = trusted.map(|bits| move |r: RecordId| r == record || trusted_bit(bits, r));
        let wref = wrapped.as_ref().map(|f| f as &(dyn Fn(RecordId) -> bool + Sync));
        if model.cfg.rounds != 2 {
            // Other depths evaluate the whole (half-cone) tree tape-free.
            model.build_tree_into(
                graph,
                &[NodeId::Record(record)],
                None,
                wref,
                &mut self.tree,
                &mut self.tree_scratch,
            );
            let h = self.forward_tree(model);
            out.clear();
            out.extend_from_slice(h.row(0));
            return;
        }

        // Level-0 expansion of the target, capped and segment-normalized
        // exactly like the tree builder's `append_segment`.
        model.neighborhood_into(graph, NodeId::Record(record), wref, &mut self.nbrs);
        self.macs0.clear();
        let w_total = seg_total(aggr, &self.nbrs);
        for &(n, w) in &self.nbrs {
            let NodeId::Mac(m) = n else { unreachable!("record neighbors are MACs") };
            self.macs0.push((m.0, seg_norm(aggr, w, w_total)));
        }

        // Round 1, target chain: h¹ = norm(σ(W_h¹ · [h⁰ | Σ w̃ l⁰])).
        self.cat.reset_to(1, 2 * d);
        self.cat.row_mut(0)[..d]
            .copy_from_slice(model.base_h.row(node_row(NodeId::Record(record))));
        for &(m, w) in &self.macs0 {
            kernels::axpy(&mut self.cat.row_mut(0)[d..], w, model.base_l.row(mac_row(m)));
        }
        self.lin.reset_to(1, d);
        self.cat.matmul_into(&model.w_h[0], &mut self.lin);
        act_tensor(&mut self.lin, model.cfg.activation);
        normalize_into(self.lin.row_mut(0));
        self.h1.clear();
        self.h1.extend_from_slice(self.lin.row(0));

        // Round 1, MAC chain: each l¹ = norm(σ(W_l¹ · [l⁰ | Σ w̃ h⁰])),
        // folded into Σ w̃ l¹ in expansion order as it is computed.
        self.agg.clear();
        self.agg.resize(d, 0.0);
        for i in 0..self.macs0.len() {
            let (mid, w) = self.macs0[i];
            self.l1_computations += 1;
            model.neighborhood_into(graph, NodeId::Mac(MacId(mid)), wref, &mut self.nbrs);
            let w_total = seg_total(aggr, &self.nbrs);
            self.cat.reset_to(1, 2 * d);
            self.cat.row_mut(0)[..d].copy_from_slice(model.base_l.row(mac_row(mid)));
            for &(n, nw) in &self.nbrs {
                let NodeId::Record(r) = n else { unreachable!("MAC neighbors are records") };
                let src = model.base_h.row(node_row(NodeId::Record(r)));
                kernels::axpy(&mut self.cat.row_mut(0)[d..], seg_norm(aggr, nw, w_total), src);
            }
            self.lin.reset_to(1, d);
            self.cat.matmul_into(&model.w_l[0], &mut self.lin);
            act_tensor(&mut self.lin, model.cfg.activation);
            normalize_into(self.lin.row_mut(0));
            kernels::axpy(&mut self.agg, w, self.lin.row(0));
        }

        // Round 2: h² = norm(σ(W_h² · [h¹ | Σ w̃ l¹])).
        self.cat.reset_to(1, 2 * d);
        self.cat.row_mut(0)[..d].copy_from_slice(&self.h1);
        self.cat.row_mut(0)[d..].copy_from_slice(&self.agg);
        self.lin.reset_to(1, d);
        self.cat.matmul_into(&model.w_h[1], &mut self.lin);
        act_tensor(&mut self.lin, model.cfg.activation);
        normalize_into(self.lin.row_mut(0));
        out.clear();
        out.extend_from_slice(self.lin.row(0));
    }

    /// Allocating convenience wrapper around
    /// [`InferenceEngine::embed_record_into`].
    pub fn embed_record(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        record: RecordId,
        trusted: Option<&[bool]>,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        self.embed_record_into(model, graph, record, trusted, &mut out);
        out
    }

    /// Tape-free evaluation of a training-style *sampled* tree (the
    /// detector-fit augmentation path). Consumes the RNG exactly like the
    /// tape reference.
    pub(crate) fn embed_tree_sampled(
        &mut self,
        model: &BiSage,
        graph: &BipartiteGraph,
        nodes: &[NodeId],
        rng: &mut StdRng,
    ) -> Tensor {
        model.build_tree_into(
            graph,
            nodes,
            Some(rng),
            None,
            &mut self.tree,
            &mut self.tree_scratch,
        );
        self.forward_tree(model).clone()
    }

    /// Half-cone forward pass over `self.tree`: evaluates only the
    /// `(chain, depth)` pairs the layer-0 primary output depends on —
    /// `h` at even depths, `l` at odd — roughly halving the tape's work
    /// while staying bitwise identical (every op is row-independent and
    /// applied in the tape's order).
    fn forward_tree(&mut self, model: &BiSage) -> &Tensor {
        let k_rounds = model.cfg.rounds;
        let d = model.cfg.dim;
        if self.cur.len() < k_rounds + 1 {
            self.cur.resize_with(k_rounds + 1, || Tensor::zeros(0, 0));
            self.next.resize_with(k_rounds + 1, || Tensor::zeros(0, 0));
        }
        for dep in 0..=k_rounds {
            let idx = &self.tree.row_idx[dep];
            let table = if dep % 2 == 0 { &model.base_h } else { &model.base_l };
            let t = &mut self.cur[dep];
            t.reset_to(idx.len(), d);
            for (i, &r) in idx.iter().enumerate() {
                t.set_row(i, table.row(r as usize));
            }
        }
        for round in 1..=k_rounds {
            let depths = k_rounds - round;
            for dep in 0..=depths {
                let offs = &self.tree.offsets[dep];
                let wts = &self.tree.weights[dep];
                let n_seg = offs.len() - 1;
                self.cat.reset_to(n_seg, 2 * d);
                {
                    let state = &self.cur[dep];
                    let inp = &self.cur[dep + 1];
                    for s in 0..n_seg {
                        let row = self.cat.row_mut(s);
                        row[..d].copy_from_slice(state.row(s));
                        let (lo, hi) = (offs[s] as usize, offs[s + 1] as usize);
                        for j in lo..hi {
                            kernels::axpy(&mut row[d..], wts[j], inp.row(j));
                        }
                    }
                }
                let weight =
                    if dep % 2 == 0 { &model.w_h[round - 1] } else { &model.w_l[round - 1] };
                let outt = &mut self.next[dep];
                outt.reset_to(n_seg, d);
                self.cat.matmul_into(weight, outt);
                act_tensor(outt, model.cfg.activation);
                for s in 0..n_seg {
                    normalize_into(outt.row_mut(s));
                }
            }
            for dep in 0..=depths {
                std::mem::swap(&mut self.cur[dep], &mut self.next[dep]);
            }
        }
        &self.cur[0]
    }
}

/// Segment weight total, mirroring the tree builder's `append_segment`.
#[inline]
fn seg_total(aggr: Aggregator, nbrs: &[(NodeId, f32)]) -> f32 {
    match aggr {
        Aggregator::WeightedMean => nbrs.iter().map(|&(_, w)| w).sum(),
        Aggregator::Mean => nbrs.len() as f32,
    }
}

/// Per-member normalized aggregation weight (same expression as
/// `append_segment`, so the bits match the tape's tree).
#[inline]
fn seg_norm(aggr: Aggregator, w: f32, w_total: f32) -> f32 {
    match aggr {
        Aggregator::WeightedMean => w / w_total.max(1e-12),
        Aggregator::Mean => 1.0 / w_total.max(1e-12),
    }
}

#[inline]
fn trusted_bit(bits: &[bool], r: RecordId) -> bool {
    bits.get(r.0 as usize).copied().unwrap_or(false)
}

#[inline]
fn mac_row(m: u32) -> usize {
    node_row(NodeId::Mac(MacId(m)))
}

/// Element-wise nonlinearity, identical to the tape's `activation` op
/// (same dispatched kernel, so tape/engine parity is preserved bitwise).
#[inline]
fn act_tensor(t: &mut Tensor, act: Activation) {
    act.forward_slice(t.data_mut());
}
