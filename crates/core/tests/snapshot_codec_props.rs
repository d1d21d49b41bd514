//! Property tests for the binary snapshot image.
//!
//! 1. **Round-trip oracle.** For a fresh fit, mid-stream states with
//!    untrusted streamed records, `pca_rotation` on and a finite
//!    `min_mac_degree` (provisional base rows): binary → `decode` →
//!    `to_json` is byte-identical to `to_json` of the original, and the
//!    restored system's next decisions are bitwise equal to the
//!    original's.
//! 2. **Hostile input.** Every truncation, random byte flips and
//!    oversized declared lengths decode to `Err` — never a panic, and
//!    never a single allocation larger than the input (past a fixed few
//!    KiB for error text and the config's parse tree). Mutations are
//!    tried both raw (the checksum must catch them) and re-sealed with a
//!    fresh checksum (the structural checks must).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use proptest::prelude::*;

use gem_core::codec::Cur;
use gem_core::{fnv1a64, Gem, GemConfig, GemSnapshot};
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_signal::SignalRecord;

/// Tracks the largest single allocation made by the current thread
/// while armed, so a decode can be checked against its input size.
struct PeakAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if ARMED.with(Cell::get) {
        PEAK.with(|p| p.set(p.get().max(size)));
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Decodes `bytes` and returns the outcome with the largest single
/// allocation the decode made.
fn decode_measured(bytes: &[u8]) -> (Result<GemSnapshot, gem_core::PersistError>, usize) {
    PEAK.with(|p| p.set(0));
    ARMED.with(|a| a.set(true));
    let out = GemSnapshot::decode(bytes);
    ARMED.with(|a| a.set(false));
    (out, PEAK.with(Cell::get))
}

/// Fixed-size room every decode may take whatever the input: an error
/// message, or the parse tree of the config's JSON section, whose
/// field list outgrows its text on tiny inputs.
const FIXED_ROOM: usize = 16 << 10;

/// Decodes hostile bytes: must not panic, must not allocate past the
/// input size, and whatever decodes must restore (or refuse) without
/// panicking. Returns whether the decode failed.
fn decode_hostile(bytes: &[u8]) -> bool {
    let (out, peak) = decode_measured(bytes);
    assert!(
        peak <= bytes.len().max(FIXED_ROOM),
        "decode allocated {peak} bytes for a {}-byte input",
        bytes.len()
    );
    match out {
        Ok(snap) => {
            let _ = snap.restore();
            false
        }
        Err(_) => true,
    }
}

fn encode(snap: &GemSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    let checksum = snap.encode_binary(&mut out);
    assert_eq!(checksum, fnv1a64(&out), "encode_binary returns the image checksum");
    out
}

/// `body` followed by a fresh checksum trailer.
fn reseal(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&fnv1a64(body).to_le_bytes());
    out
}

/// A trained system as a JSON image (every case restores a fresh copy)
/// plus the stream it continues with, in and out scans interleaved.
struct Fixture {
    image: String,
    stream: Vec<SignalRecord>,
}

impl Fixture {
    fn build(cfg: GemConfig, user: u32, train_s: f64, test: usize) -> Fixture {
        let mut sc = ScenarioConfig::user(user);
        sc.train_duration_s = train_s;
        sc.n_test_in = test;
        sc.n_test_out = test;
        let ds = Scenario::build(sc).generate();
        let gem = Gem::fit(cfg, &ds.train);
        let (ins, outs): (Vec<_>, Vec<_>) =
            ds.test.iter().partition(|t| t.label == gem_signal::Label::In);
        let stream = ins.iter().zip(&outs).flat_map(|(a, b)| [a.record.clone(), b.record.clone()]);
        Fixture { image: GemSnapshot::capture(&gem).to_json().unwrap(), stream: stream.collect() }
    }

    fn gem(&self) -> Gem {
        GemSnapshot::from_json(&self.image).unwrap().restore().unwrap()
    }
}

/// Default config, `pca_rotation` on, and a finite `min_mac_degree`.
fn fixtures() -> &'static [Fixture; 3] {
    static F: OnceLock<[Fixture; 3]> = OnceLock::new();
    F.get_or_init(|| {
        let pca = GemConfig { pca_rotation: true, ..GemConfig::default() };
        let provisional = GemConfig { min_mac_degree: 2, ..GemConfig::default() };
        [
            Fixture::build(GemConfig::default(), 1, 90.0, 16),
            Fixture::build(pca, 2, 90.0, 16),
            Fixture::build(provisional, 4, 90.0, 16),
        ]
    })
}

/// Decisions compared after the round trip.
const NEXT: usize = 6;

/// Streams `k` records, round-trips the state through the binary image
/// and checks the JSON oracle and the next decisions.
fn check_round_trip(fx: &Fixture, k: usize) {
    let mut gem = fx.gem();
    for r in &fx.stream[..k] {
        gem.infer(r);
    }
    let snap = GemSnapshot::capture(&gem);
    let json = snap.to_json().unwrap();
    let bytes = encode(&snap);
    assert!(bytes.len() < json.len(), "the binary image is smaller than the JSON one");
    let decoded = GemSnapshot::decode(&bytes).unwrap();
    assert_eq!(decoded.to_json().unwrap(), json, "binary round trip changed the JSON image");
    assert_eq!(encode(&decoded), bytes, "re-encoding is deterministic");
    let mut back = decoded.restore().unwrap();
    for r in &fx.stream[k..k + NEXT] {
        let (a, b) = (gem.infer(r), back.infer(r));
        assert_eq!(a.label, b.label);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }
}

#[test]
fn round_trip_at_fit_and_stream_end() {
    for fx in fixtures() {
        check_round_trip(fx, 0);
        check_round_trip(fx, fx.stream.len() - NEXT);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn round_trip_mid_stream(which in 0..3usize, frac in 0.0..1.0f64) {
        let fx = &fixtures()[which];
        let k = ((fx.stream.len() - NEXT) as f64 * frac) as usize;
        check_round_trip(fx, k);
    }
}

/// A small mid-stream image, so sweeping every cut point stays cheap.
fn small_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let cfg = GemConfig { embedding_dim: 8, min_mac_degree: 2, ..GemConfig::default() };
        let fx = Fixture::build(cfg, 3, 20.0, 4);
        let mut gem = fx.gem();
        for r in &fx.stream {
            gem.infer(r);
        }
        encode(&GemSnapshot::capture(&gem))
    })
}

#[test]
fn the_valid_image_decodes_within_its_size() {
    let bytes = small_image();
    let (out, peak) = decode_measured(bytes);
    out.unwrap().restore().unwrap();
    assert!(peak <= bytes.len(), "decode allocated {peak} bytes for {} input bytes", bytes.len());
}

#[test]
fn every_truncation_is_refused() {
    let bytes = small_image();
    let body = &bytes[..bytes.len() - 8];
    for cut in 0..bytes.len() {
        assert!(decode_hostile(&bytes[..cut]), "a {cut}-byte prefix decoded");
    }
    // Re-sealed, a truncated body passes the checksum and must be
    // caught by the structure alone.
    for cut in 8..body.len() {
        assert!(decode_hostile(&reseal(&body[..cut])), "a re-sealed {cut}-byte body decoded");
    }
}

/// Offsets of the first declared lengths of each kind: the config and
/// weight-function JSON sections, the MAC index and table counts, the
/// record adjacency count and the first record's degree.
fn length_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut c = Cur::new(bytes);
    let mut offsets = Vec::new();
    let at = |c: &Cur| bytes.len() - c.remaining();
    c.take(12, "magic and version").unwrap();
    for _ in 0..2 {
        offsets.push(at(&c));
        let n = c.u32("json").unwrap() as usize;
        c.take(n, "json").unwrap();
    }
    offsets.push(at(&c));
    let n = c.u32("index").unwrap() as usize;
    c.take(n * 12, "index").unwrap();
    offsets.push(at(&c));
    let n = c.u32("macs").unwrap() as usize;
    c.take(n * 8, "macs").unwrap();
    offsets.push(at(&c));
    c.u32("records").unwrap();
    offsets.push(at(&c));
    offsets
}

#[test]
fn oversized_declared_lengths_are_refused() {
    let bytes = small_image();
    let body = &bytes[..bytes.len() - 8];
    for off in length_offsets(bytes) {
        let declared = u32::from_le_bytes(body[off..off + 4].try_into().unwrap());
        let left = (body.len() - off) as u32;
        for oversized in [u32::MAX, u32::MAX / 8, left, declared + left] {
            let mut bad = body.to_vec();
            bad[off..off + 4].copy_from_slice(&oversized.to_le_bytes());
            assert!(decode_hostile(&bad), "raw length {oversized} at {off} decoded");
            assert!(decode_hostile(&reseal(&bad)), "re-sealed length {oversized} at {off} decoded");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_flips_are_refused(
        flips in proptest::collection::vec((0.0..1.0f64, 1..=255u8), 1..4),
    ) {
        let bytes = small_image();
        let mut bad = bytes.to_vec();
        for &(at, mask) in &flips {
            let i = (at * bad.len() as f64) as usize;
            bad[i] ^= mask;
        }
        // Flips at one index can cancel out; only a changed image counts.
        prop_assert!(bad == bytes || decode_hostile(&bad), "flips {flips:?} decoded");
        // Re-sealed, the same flips may land in float payload and decode;
        // they must still never panic or over-allocate.
        decode_hostile(&reseal(&bad[..bad.len() - 8]));
    }
}
