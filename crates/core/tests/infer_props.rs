//! Property-based parity tests for the tape-free streaming engine.
//!
//! The engine promises *bitwise* equality with the tape-based reference
//! path across randomized graphs, streamed records, trust assignments
//! and hyperparameters:
//!
//! 1. **Single-record streaming ≡ tape.** `embed_record` must reproduce
//!    `embed_nodes_filtered(&[record], wrapped)` exactly, where `wrapped`
//!    admits the record itself plus every trusted record — including the
//!    trust-filtered neighborhood fallback and the isolated-node
//!    random-init path.
//! 2. **Unfiltered ≡ tape.** The fit-time form behind
//!    `embed_all_records` (one engine, no trust filter, records one by
//!    one) must reproduce the unfiltered tape forward over the same
//!    targets.
//! 3. **Reused engine ≡ fresh engine.** One engine, its scratch reused
//!    across graph growth and trust flips, must match a fresh engine
//!    built at every step.
//! 4. **Targeted row init ≡ full scan.** In session-quarantine mode the
//!    per-record `ensure_rows_for_record` must leave the model in the
//!    same state (RNG stream included) as the full node scan.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use gem_core::{Aggregator, BiSage, BiSageConfig, InferenceEngine};
use gem_graph::{BipartiteGraph, NodeId, RecordId, WeightFn};
use gem_signal::{MacAddr, SignalRecord};

/// Random scenario: a fitted two-cluster graph plus streamed records,
/// some with brand-new MACs (random-init fallback) and per-record trust
/// bits.
#[derive(Debug, Clone)]
struct Scenario {
    records: Vec<Vec<(u64, f32)>>,
    streamed: Vec<Vec<(u64, f32)>>,
    trusted_streamed: Vec<bool>,
    seed: u64,
    dim: usize,
    rounds: usize,
    uniform_sampling: bool,
    inference_cap: usize,
}

/// Hand-rolled strategy (the vendored proptest has no `prop_flat_map`).
struct ScenarioStrategy;

impl Strategy for ScenarioStrategy {
    type Value = Scenario;

    fn sample(&self, rng: &mut StdRng) -> Scenario {
        let per_cluster = rng.random_range(3..7usize);
        let mut records = Vec::new();
        for cluster in 0..2u64 {
            let base_mac = 1 + cluster * 8;
            for _ in 0..per_cluster {
                let n_macs = rng.random_range(2..5usize);
                let rec = (0..n_macs as u64)
                    .map(|m| (base_mac + m, rng.random_range(-80.0..-40.0f32)))
                    .collect();
                records.push(rec);
            }
        }
        let n_streamed = rng.random_range(3..8usize);
        let mut streamed = Vec::new();
        for i in 0..n_streamed {
            let n_macs = rng.random_range(1..4usize);
            let rec = (0..n_macs)
                .map(|k| {
                    // Mostly known MACs; occasionally a brand-new one.
                    let mac = if rng.random_range(0..4usize) == 0 {
                        100 + (i * 4 + k) as u64
                    } else {
                        1 + rng.random_range(0..12u64)
                    };
                    (mac, rng.random_range(-85.0..-40.0f32))
                })
                .collect();
            streamed.push(rec);
        }
        let trusted_streamed = (0..n_streamed).map(|_| rng.random_range(0..2usize) == 0).collect();
        Scenario {
            records,
            streamed,
            trusted_streamed,
            seed: rng.random_range(0..1u64 << 32),
            dim: [8usize, 16][rng.random_range(0..2usize)],
            rounds: rng.random_range(1..4usize),
            uniform_sampling: rng.random_range(0..3usize) == 0,
            inference_cap: [3usize, 48][rng.random_range(0..2usize)],
        }
    }
}

fn to_record(i: usize, readings: &[(u64, f32)]) -> SignalRecord {
    SignalRecord::from_pairs(
        i as f64,
        readings.iter().map(|&(m, rssi)| (MacAddr::from_raw(m), rssi)),
    )
}

fn config(s: &Scenario) -> BiSageConfig {
    BiSageConfig {
        dim: s.dim,
        epochs: 1,
        batch_size: 32,
        sample_sizes: vec![4, 2, 2][..s.rounds].to_vec(),
        rounds: s.rounds,
        seed: s.seed,
        uniform_sampling: s.uniform_sampling,
        aggregator: if s.uniform_sampling { Aggregator::Mean } else { Aggregator::WeightedMean },
        inference_cap: s.inference_cap,
        ..BiSageConfig::default()
    }
}

/// Fits the model on the scenario's training records.
fn fit_model(s: &Scenario) -> (BiSage, BipartiteGraph, StdRng) {
    let mut graph = BipartiteGraph::new(WeightFn::OffsetLinear { c: 120.0 });
    for (i, rec) in s.records.iter().enumerate() {
        graph.add_record(&to_record(i, rec));
    }
    let mut model = BiSage::new(config(s));
    model.fit(&graph);
    let rng = StdRng::seed_from_u64(s.seed ^ 0xF00D);
    (model, graph, rng)
}

fn bits_of(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Streaming single-record inference must be bitwise identical to the
    /// tape path, record by record, as the graph grows.
    #[test]
    fn engine_single_matches_tape_bitwise(s in ScenarioStrategy) {
        let (mut model, mut graph, mut rng) = fit_model(&s);
        let mut trusted: Vec<bool> = vec![true; graph.n_records()];
        let mut engine = InferenceEngine::new();
        for (i, rec) in s.streamed.iter().enumerate() {
            let rid = graph.add_record(&to_record(i, rec));
            trusted.push(s.trusted_streamed[i]);
            {
                let bits: &[bool] = &trusted;
                let filter = move |r: RecordId| bits[r.0 as usize];
                model.ensure_rows_filtered(&graph, &mut rng, Some(&filter));
            }
            let got = engine.embed_record(&model, &graph, rid, Some(&trusted));
            let bits: &[bool] = &trusted;
            let wrapped = move |r: RecordId| r == rid || bits[r.0 as usize];
            let (want, _) =
                model.embed_nodes_filtered(&graph, &[NodeId::Record(rid)], Some(&wrapped));
            prop_assert_eq!(
                bits_of(&got),
                bits_of(want.row(0)),
                "engine diverged from tape at streamed record {}",
                i
            );
        }
    }

    /// The fit-time form — one engine, no trust filter, records one by
    /// one — must be bitwise identical to
    /// the unfiltered tape forward over the same targets, streamed
    /// records and random-init fallbacks included.
    #[test]
    fn unfiltered_engine_matches_tape_bitwise(s in ScenarioStrategy) {
        let (mut model, mut graph, mut rng) = fit_model(&s);
        let mut targets = Vec::new();
        for (i, rec) in s.streamed.iter().enumerate() {
            targets.push(graph.add_record(&to_record(i, rec)));
        }
        model.ensure_rows(&graph, &mut rng);
        let mut engine = InferenceEngine::new();
        let got: Vec<f32> =
            targets.iter().flat_map(|&r| engine.embed_record(&model, &graph, r, None)).collect();
        let nodes: Vec<NodeId> = targets.iter().map(|&r| NodeId::Record(r)).collect();
        let (want, _) = model.embed_nodes(&graph, &nodes);
        prop_assert_eq!(bits_of(&got), bits_of(want.data()), "unfiltered engine diverged from tape");
    }

    /// One engine carried across graph growth and trust flips, its
    /// scratch reused call after call, must match a fresh engine built
    /// at every step — no state may leak from one call into the next.
    #[test]
    fn reused_engine_matches_fresh_engine(s in ScenarioStrategy) {
        let (mut model, mut graph, mut rng) = fit_model(&s);
        let mut trusted: Vec<bool> = vec![true; graph.n_records()];
        let mut reused = InferenceEngine::new();
        let mut rids = Vec::new();
        for (i, rec) in s.streamed.iter().enumerate() {
            let rid = graph.add_record(&to_record(i, rec));
            rids.push(rid);
            trusted.push(false);
            {
                let bits: &[bool] = &trusted;
                let filter = move |r: RecordId| bits[r.0 as usize];
                model.ensure_rows_filtered(&graph, &mut rng, Some(&filter));
            }
            // Embed the fresh record, plus an earlier one whose MACs an
            // earlier call already aggregated, and compare each against a
            // fresh engine.
            let mut probes = vec![rid];
            if i > 0 {
                probes.push(rids[i / 2]);
            }
            for &probe in &probes {
                let got = reused.embed_record(&model, &graph, probe, Some(&trusted));
                let want = InferenceEngine::new()
                    .embed_record(&model, &graph, probe, Some(&trusted));
                prop_assert_eq!(
                    bits_of(&got),
                    bits_of(&want),
                    "reused engine diverged at step {} probing record {}",
                    i,
                    probe.0
                );
            }
            // Classification outcome: maybe trust the new record, and on
            // odd steps flip an arbitrary older bit (feedback churn).
            if s.trusted_streamed[i] {
                trusted[rid.0 as usize] = true;
            }
            if i % 2 == 1 {
                let j = (i * 5) % trusted.len();
                trusted[j] = !trusted[j];
            }
        }
    }

    /// Detector-fit paths: the engine-backed full-graph embeddings (used
    /// by `embed_all_records` / `embed_all_records_sampled`) must match
    /// their tape references, the sampled variant under identical RNG
    /// streams.
    #[test]
    fn full_graph_paths_match_tape_bitwise(s in ScenarioStrategy) {
        let (mut model, mut graph, mut rng) = fit_model(&s);
        for (i, rec) in s.streamed.iter().enumerate() {
            graph.add_record(&to_record(i, rec));
        }
        model.ensure_rows(&graph, &mut rng);
        let engine_all = model.embed_all_records(&graph);
        let tape_all = model.embed_all_records_tape(&graph);
        prop_assert_eq!(
            bits_of(engine_all.data()),
            bits_of(tape_all.data()),
            "embed_all_records diverged"
        );
        let mut rng_a = StdRng::seed_from_u64(s.seed ^ 0x5A);
        let mut rng_b = StdRng::seed_from_u64(s.seed ^ 0x5A);
        let sampled = model.embed_all_records_sampled(&graph, &mut rng_a);
        let sampled_tape = model.embed_all_records_sampled_tape(&graph, &mut rng_b);
        prop_assert_eq!(
            bits_of(sampled.data()),
            bits_of(sampled_tape.data()),
            "sampled path diverged"
        );
    }

    /// In session-quarantine mode the targeted per-record row init must
    /// leave the model bitwise identical to the full node scan — RNG
    /// stream included (both models then embed identically everywhere).
    #[test]
    fn targeted_ensure_matches_full_scan(s in ScenarioStrategy) {
        let (model, mut graph, _) = fit_model(&s);
        let mut targeted = model.clone();
        let mut full = model;
        let mut rng_a = StdRng::seed_from_u64(s.seed ^ 0xBEEF);
        let mut rng_b = StdRng::seed_from_u64(s.seed ^ 0xBEEF);
        let mut trusted: Vec<bool> = vec![true; graph.n_records()];
        for (i, rec) in s.streamed.iter().enumerate() {
            let rid = graph.add_record(&to_record(i, rec));
            trusted.push(s.trusted_streamed[i]);
            let bits: &[bool] = &trusted;
            let filter = move |r: RecordId| bits[r.0 as usize];
            targeted.ensure_rows_for_record(&graph, rid, &mut rng_a, Some(&filter));
            full.ensure_rows_filtered(&graph, &mut rng_b, Some(&filter));
        }
        let a = targeted.embed_all_records(&graph);
        let b = full.embed_all_records(&graph);
        prop_assert_eq!(bits_of(a.data()), bits_of(b.data()), "targeted ensure diverged");
    }
}
