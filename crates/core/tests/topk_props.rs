//! Property-based parity of the weight-ordered MAC expansion.
//!
//! `BiSage::neighborhood_into` reads a MAC's records through the graph's
//! weight order and stops after `cap + 1` admitted records. It must
//! return, bitwise and in the same order, what the plain definition
//! returns: filter the MAC's records in adjacency order, fall back to all
//! of them when none passes, then stable-sort by descending weight and
//! truncate to `cap` when more than `cap` remain. Cases cover:
//!
//! - heavily tied, dBm-quantised weights and arbitrary `f32` weights;
//! - hub degrees from 0 to 5 × cap, at caps 1, 3 and 48;
//! - random trust bits, trusted counts of exactly `cap` and `cap + 1`,
//!   and the all-untrusted fallback;
//! - records that repeat a MAC (two edges from one record);
//! - the graph as built, its `Clone`, and its JSON round-trip, each with
//!   more records streamed in afterwards.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

use gem_core::{BiSage, BiSageConfig};
use gem_graph::{BipartiteGraph, MacId, NodeId, RecordId, WeightFn};
use gem_signal::{MacAddr, Reading, SignalRecord};

/// The hub MAC every record hears.
const HUB: u64 = 1;

/// How trust bits are assigned over the hub's records.
#[derive(Clone, Copy, Debug)]
enum Trust {
    /// Each record trusted with probability ½.
    Random,
    /// Exactly this many records trusted, at random positions.
    Exactly(usize),
    /// No record trusted: the raw-neighborhood fallback.
    None,
}

#[derive(Debug, Clone)]
struct Scenario {
    cap: usize,
    records: Vec<SignalRecord>,
    /// Records streamed after the clone / JSON round-trip.
    later: Vec<SignalRecord>,
    trust: Trust,
    seed: u64,
}

struct ScenarioStrategy;

fn hub_record(i: usize, rng: &mut StdRng, quantised: bool) -> SignalRecord {
    let rssi = if quantised {
        // Few distinct integer dBm levels: most weights tie.
        -(rng.random_range(40..46u32) as f32)
    } else {
        rng.random_range(-99.0..-20.0f32)
    };
    let mut readings = vec![Reading::new(MacAddr::from_raw(HUB), rssi)];
    if rng.random_range(0..3usize) == 0 {
        readings.push(Reading::new(MacAddr::from_raw(2 + rng.random_range(0..3u64)), -60.0));
    }
    if rng.random_range(0..10usize) == 0 {
        // The hub heard twice in one scan: two edges from one record.
        readings.push(Reading::new(MacAddr::from_raw(HUB), rssi + rng.random_range(-3..4) as f32));
    }
    SignalRecord { timestamp_s: i as f64, readings }
}

impl Strategy for ScenarioStrategy {
    type Value = Scenario;

    fn sample(&self, rng: &mut StdRng) -> Scenario {
        let cap = [1usize, 3, 48][rng.random_range(0..3usize)];
        let quantised = rng.random_range(0..2usize) == 0;
        let degree = rng.random_range(0..=5 * cap);
        let records = (0..degree).map(|i| hub_record(i, rng, quantised)).collect();
        let n_later = rng.random_range(0..=cap + 2);
        let later = (0..n_later).map(|i| hub_record(degree + i, rng, quantised)).collect();
        let trust = match rng.random_range(0..4usize) {
            0 => Trust::Random,
            1 => Trust::Exactly(cap),
            2 => Trust::Exactly(cap + 1),
            _ => Trust::None,
        };
        Scenario { cap, records, later, trust, seed: rng.random_range(0..1u64 << 32) }
    }
}

/// Trust bits for `n` records under `trust`, from a seeded RNG.
fn trust_bits(n: usize, trust: Trust, rng: &mut StdRng) -> Vec<bool> {
    match trust {
        Trust::Random => (0..n).map(|_| rng.random_range(0..2usize) == 0).collect(),
        Trust::None => vec![false; n],
        Trust::Exactly(k) => {
            let mut bits = vec![false; n];
            let mut left = k.min(n);
            while left > 0 {
                let i = rng.random_range(0..n);
                if !bits[i] {
                    bits[i] = true;
                    left -= 1;
                }
            }
            bits
        }
    }
}

/// The definition the indexed walk must reproduce: filter → raw
/// fallback → stable sort by descending weight → truncate.
fn reference(
    graph: &BipartiteGraph,
    m: MacId,
    cap: usize,
    trusted: Option<&dyn Fn(RecordId) -> bool>,
) -> Vec<(NodeId, f32)> {
    let mut out: Vec<(NodeId, f32)> = graph
        .mac_neighbors(m)
        .filter(|&(r, _)| trusted.is_none_or(|f| f(r)))
        .map(|(r, w)| (NodeId::Record(r), w))
        .collect();
    if out.is_empty() {
        out = graph.mac_neighbors(m).map(|(r, w)| (NodeId::Record(r), w)).collect();
    }
    if out.len() > cap {
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out.truncate(cap);
    }
    out
}

fn bits(nbh: &[(NodeId, f32)]) -> Vec<(NodeId, u32)> {
    nbh.iter().map(|&(n, w)| (n, w.to_bits())).collect()
}

/// Every MAC of `graph`, filtered by `trust` and unfiltered, against the
/// reference.
fn check_all_macs(
    model: &BiSage,
    graph: &BipartiteGraph,
    cap: usize,
    trust: &[bool],
    label: &str,
) -> Result<(), String> {
    let filter = |r: RecordId| trust[r.0 as usize];
    let mut out = Vec::new();
    for m in (0..graph.n_macs() as u32).map(MacId) {
        for filtered in [true, false] {
            let f: Option<&(dyn Fn(RecordId) -> bool + Sync)> =
                if filtered { Some(&filter) } else { None };
            model.neighborhood_into(graph, NodeId::Mac(m), f, &mut out);
            let want = reference(graph, m, cap, f.map(|f| f as &dyn Fn(RecordId) -> bool));
            prop_assert_eq!(
                bits(&out),
                bits(&want),
                "{} graph, MAC {:?}, degree {}, filtered {}",
                label,
                m,
                graph.degree(NodeId::Mac(m)),
                filtered
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The indexed MAC expansion equals the filter-and-sort definition on
    /// the graph as built, on its clone and on its JSON round-trip, each
    /// before and after more records stream in.
    #[test]
    fn indexed_mac_expansion_matches_filter_sort_truncate(s in ScenarioStrategy) {
        let model = BiSage::new(BiSageConfig { inference_cap: s.cap, ..BiSageConfig::default() });
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(s.seed);
        let mut built = BipartiteGraph::new(WeightFn::default());
        for rec in &s.records {
            built.add_record(rec);
        }
        let trust = trust_bits(built.n_records() + s.later.len(), s.trust, &mut rng);
        let mut cloned = built.clone();
        let json = serde_json::to_string(&built).map_err(|e| e.to_string())?;
        let mut reloaded: BipartiteGraph =
            serde_json::from_str(&json).map_err(|e| e.to_string())?;
        for (label, g) in [("built", &mut built), ("cloned", &mut cloned), ("reloaded", &mut reloaded)] {
            check_all_macs(&model, g, s.cap, &trust, label)?;
            for rec in &s.later {
                g.add_record(rec);
            }
            check_all_macs(&model, g, s.cap, &trust, label)?;
        }
        prop_assert_eq!(
            serde_json::to_string(&reloaded).map_err(|e| e.to_string())?,
            serde_json::to_string(&built).map_err(|e| e.to_string())?
        );
    }
}

/// The boundary cases by construction, at every cap: exactly `cap` and
/// `cap + 1` trusted records on a hub of degree 5 × cap whose weights
/// all tie, so only the position tie-break decides the order.
#[test]
fn all_tied_hub_at_the_cap_boundary() {
    for cap in [1usize, 3, 48] {
        let model = BiSage::new(BiSageConfig { inference_cap: cap, ..BiSageConfig::default() });
        let mut graph = BipartiteGraph::new(WeightFn::Unit);
        for i in 0..5 * cap {
            graph
                .add_record(&SignalRecord::from_pairs(i as f64, [(MacAddr::from_raw(HUB), -50.0)]));
        }
        let hub = graph.mac_id(MacAddr::from_raw(HUB)).unwrap();
        for trusted_count in [0, 1, cap, cap + 1, 5 * cap] {
            // Trust the *last* records, so adjacency order and the tie
            // order both have to skip the untrusted prefix.
            let first = 5 * cap - trusted_count;
            let filter = move |r: RecordId| r.0 as usize >= first;
            let mut out = Vec::new();
            model.neighborhood_into(&graph, NodeId::Mac(hub), Some(&filter), &mut out);
            let want = reference(&graph, hub, cap, Some(&filter));
            assert_eq!(bits(&out), bits(&want), "cap {cap}, trusted {trusted_count}");
            assert_eq!(
                out.len(),
                cap.min(if trusted_count == 0 { 5 * cap } else { trusted_count })
            );
        }
    }
}
