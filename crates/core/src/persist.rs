//! Model persistence: snapshot a trained GEM system to disk and restore
//! it later — the deployment story of the paper's server-side component
//! (the Android app uploads scans; the server keeps the model warm
//! across restarts).
//!
//! A [`GemSnapshot`] captures everything the online system needs: the
//! configuration, the bipartite graph (including streamed nodes), the
//! trained BiSAGE model with its base tables, the detector state
//! (histograms, frozen reference set, thresholds) and the per-record
//! trust bits. A snapshot has two encodings, and [`GemSnapshot::decode`]
//! (behind [`GemSnapshot::load`] and [`Gem::load`]) reads either:
//!
//! - **JSON** ([`GemSnapshot::to_json`], [`Gem::save`]): portable and
//!   diff-able, the interchange and debug format. Float text is its
//!   cost: a one-home model fitted on a four-minute walk is about a
//!   megabyte of JSON and takes 10–20 ms to print or parse.
//! - **Binary** ([`GemSnapshot::encode_binary`]): what a fleet writes
//!   when it spills or snapshots a premises. A third to a half of the
//!   JSON size, and an order of magnitude faster either way.
//!
//! The binary image stores the JSON image's fields in the same order:
//!
//! ```text
//! magic     8 bytes  0x89 "GEMSNAP" (0x89 cannot begin a JSON text)
//! version   u32      snapshot version (the JSON `version` field)
//! cfg       json     GemConfig
//! graph     json     WeightFn
//!           count    mac_index as (mac u64, id u32), ascending id
//!           count    macs as u64
//!           count    record adjacency, each: count (u32, f32) pairs,
//!                    then as many f64 running sums
//!           count    MAC adjacency, likewise
//!           u64      n_edges
//! bisage    json     BiSageConfig
//!           count    w_h tensors; count w_l tensors
//!           tensor   base_h; tensor base_l
//!           count    initialized bools; count provisional bools
//!           u64      macs_at_fit; bool trained
//! detector  u64 dim, u64 bins, f32 × dim mins, f32 × dim maxs,
//!           f64 × dim·bins counts, u64 n (the histogram)
//!           count    reference rows, f32 × dim each
//!           json     score bounds, temperature, thresholds, n_updates
//! report    json     TrainReport
//! embed     tensor   train_embeddings
//! trusted   count    bools
//! pca       json     Option<PcaRotation>
//! rng       bool     present, then 4 × u64
//! checksum  u64      fnv1a64 of every byte before it
//! ```
//!
//! Integers and floats are little-endian ([`crate::codec`]); `count` is
//! a `u32` element count, `json` a `u32` byte length and that much JSON
//! text, `tensor` `u32` rows, `u32` cols and the row-major `f32` data,
//! `bool` one byte, 0 or 1. Small, schema-rich structs travel as JSON
//! sections through their serde derives, so a field added to a config
//! reaches both encodings at once. Decoding is strict: the checksum is
//! verified first, every length is checked against the bytes left
//! before anything is allocated for it, shapes are validated and
//! trailing bytes are refused, so a hostile image is a [`PersistError`],
//! never a panic.

use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

use gem_graph::{Adjacency, BipartiteGraph, MacId};
use gem_nn::Tensor;
use gem_signal::MacAddr;

use crate::bisage::{BiSage, TrainReport};
use crate::codec::{
    put_bool, put_bools, put_count, put_f32s, put_f64s, put_u32, put_u64, put_usize, Cur, Malformed,
};
use crate::config::GemConfig;
use crate::detector::EnhancedDetector;
use crate::gem::Gem;
use crate::pca::PcaRotation;

/// Magic marker + version guard for snapshot files.
const FORMAT: &str = "gem-snapshot";
const VERSION: u32 = 1;

/// The first eight bytes of a binary snapshot image.
pub const BINARY_MAGIC: [u8; 8] = *b"\x89GEMSNAP";

/// A complete serialized GEM system.
#[derive(Clone, Serialize, Deserialize)]
pub struct GemSnapshot {
    format: String,
    version: u32,
    /// Configuration the system was trained with.
    pub cfg: GemConfig,
    /// The bipartite graph (training + streamed records).
    pub graph: BipartiteGraph,
    /// The trained embedding model.
    pub bisage: BiSage,
    /// The detector with its online-update state.
    pub detector: EnhancedDetector,
    /// BiSAGE training diagnostics.
    pub train_report: TrainReport,
    /// Primary embeddings of the initial training records.
    pub train_embeddings: Tensor,
    /// Per-record pseudo-label trust bits.
    pub trusted: Vec<bool>,
    /// The fitted PCA rotation, when enabled.
    pub pca: Option<PcaRotation>,
    /// Raw state of the online RNG at capture time. Restoring it resumes
    /// the exact random stream, which bitwise crash recovery depends on.
    /// Absent in snapshots written before this field existed; those
    /// restore with a fresh seed-derived generator.
    #[serde(default)]
    pub rng: Option<[u64; 4]>,
}

/// Errors from snapshot I/O.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(io::Error),
    /// Malformed JSON or binary image, or wrong schema.
    Format(String),
    /// The file parses but is not a compatible snapshot.
    Incompatible(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            PersistError::Format(e) => write!(f, "snapshot format error: {e}"),
            PersistError::Incompatible(e) => write!(f, "incompatible snapshot: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<Malformed> for PersistError {
    fn from(e: Malformed) -> Self {
        PersistError::Format(format!("binary snapshot: {e}"))
    }
}

impl GemSnapshot {
    /// Captures the full state of a running system.
    pub fn capture(gem: &Gem) -> GemSnapshot {
        GemSnapshot {
            format: FORMAT.to_string(),
            version: VERSION,
            cfg: gem.cfg.clone(),
            graph: gem.graph().clone(),
            bisage: gem.bisage().clone(),
            detector: gem.detector().clone(),
            train_report: gem.train_report().clone(),
            train_embeddings: gem.training_embeddings().clone(),
            trusted: gem.trusted_records().to_vec(),
            pca: gem.pca().cloned(),
            rng: Some(gem.rng_state()),
        }
    }

    /// Restores a runnable system. Fails when the snapshot is internally
    /// inconsistent (e.g. trust bits not matching the graph).
    pub fn restore(self) -> Result<Gem, PersistError> {
        if self.format != FORMAT {
            return Err(PersistError::Incompatible(format!("format tag {:?}", self.format)));
        }
        if self.version != VERSION {
            return Err(PersistError::Incompatible(format!(
                "snapshot version {} (supported: {VERSION})",
                self.version
            )));
        }
        if self.trusted.len() != self.graph.n_records() {
            return Err(PersistError::Incompatible(format!(
                "trust bits ({}) do not match graph records ({})",
                self.trusted.len(),
                self.graph.n_records()
            )));
        }
        if self.cfg.pca_rotation && self.pca.is_none() {
            return Err(PersistError::Incompatible(
                "config enables pca_rotation but the snapshot has no rotation".into(),
            ));
        }
        self.bisage.check_shapes().map_err(PersistError::Incompatible)?;
        let d = self.bisage.dim();
        if self.detector.dim() != d
            || self.train_embeddings.cols() != d
            || self.pca.as_ref().is_some_and(|p| !p.rotates(d))
        {
            return Err(PersistError::Incompatible(format!(
                "detector ({}), training embeddings ({}) or rotation disagree with \
                 the embedding dimension {d}",
                self.detector.dim(),
                self.train_embeddings.cols()
            )));
        }
        Ok(Gem::from_parts(
            self.cfg,
            self.graph,
            self.bisage,
            self.detector,
            self.train_report,
            self.train_embeddings,
            self.trusted,
            self.pca,
            self.rng,
        ))
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> Result<String, PersistError> {
        serde_json::to_string(self).map_err(|e| PersistError::Format(e.to_string()))
    }

    /// Parses from a JSON string.
    pub fn from_json(json: &str) -> Result<GemSnapshot, PersistError> {
        serde_json::from_str(json).map_err(|e| PersistError::Format(e.to_string()))
    }

    /// Appends the binary image (layout in the module docs) to `out` and
    /// returns the [`fnv1a64`] of the appended bytes — the checksum a
    /// manifest records for the image — without a second pass over them.
    pub fn encode_binary(&self, out: &mut Vec<u8>) -> u64 {
        let start = out.len();
        out.extend_from_slice(&BINARY_MAGIC);
        put_u32(out, self.version);
        put_json(out, &self.cfg);
        encode_graph(&self.graph, out);
        self.bisage.encode_binary(out);
        self.detector.encode_binary(out);
        put_json(out, &self.train_report);
        put_tensor(out, &self.train_embeddings);
        put_count(out, self.trusted.len());
        put_bools(out, &self.trusted);
        put_json(out, &self.pca);
        match self.rng {
            Some(state) => {
                put_bool(out, true);
                for word in state {
                    put_u64(out, word);
                }
            }
            None => put_bool(out, false),
        }
        let body = fnv1a64(&out[start..]);
        put_u64(out, body);
        fnv1a64_extend(body, &body.to_le_bytes())
    }

    /// Reads a snapshot in either encoding: a binary image when `bytes`
    /// start with [`BINARY_MAGIC`], JSON text otherwise.
    pub fn decode(bytes: &[u8]) -> Result<GemSnapshot, PersistError> {
        if bytes.starts_with(&BINARY_MAGIC) {
            return Self::decode_binary(bytes).map(|(snapshot, _)| snapshot);
        }
        Self::decode_text(bytes)
    }

    /// [`GemSnapshot::decode`] that also returns the [`fnv1a64`] of the
    /// whole file — the checksum a manifest records for it. A binary
    /// image yields it from the pass that verifies its trailer, so the
    /// bytes are hashed once; JSON text is hashed once on its own.
    pub fn decode_hashed(bytes: &[u8]) -> Result<(GemSnapshot, u64), PersistError> {
        if bytes.starts_with(&BINARY_MAGIC) {
            return Self::decode_binary(bytes);
        }
        Ok((Self::decode_text(bytes)?, fnv1a64(bytes)))
    }

    fn decode_text(bytes: &[u8]) -> Result<GemSnapshot, PersistError> {
        let text = std::str::from_utf8(bytes).map_err(|e| {
            PersistError::Format(format!("snapshot is neither a binary image nor JSON text: {e}"))
        })?;
        Self::from_json(text)
    }

    /// Decodes a binary image and returns it with the whole-file
    /// [`fnv1a64`] (the value [`GemSnapshot::encode_binary`] returned).
    fn decode_binary(bytes: &[u8]) -> Result<(GemSnapshot, u64), PersistError> {
        let body_len = bytes
            .len()
            .checked_sub(8)
            .filter(|&n| n >= BINARY_MAGIC.len())
            .ok_or(Malformed("checksum"))?;
        let (body, trailer) = bytes.split_at(body_len);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let actual = fnv1a64(body);
        if actual != stored {
            return Err(PersistError::Format(format!(
                "binary snapshot checksum mismatch (stored {stored:016x}, computed {actual:016x})"
            )));
        }
        let mut c = Cur::new(&body[BINARY_MAGIC.len()..]);
        let version = c.u32("version")?;
        if version != VERSION {
            return Err(PersistError::Incompatible(format!(
                "binary snapshot version {version} (supported: {VERSION})"
            )));
        }
        let cfg = take_json(&mut c, "config")?;
        let graph = decode_graph(&mut c)?;
        let bisage = BiSage::decode_binary(&mut c)?;
        let detector = EnhancedDetector::decode_binary(&mut c)?;
        let train_report = take_json(&mut c, "train report")?;
        let train_embeddings = take_tensor(&mut c, "training embeddings")?;
        let n = c.count(1, "trust bits")?;
        let trusted = c.bools(n, "trust bits")?;
        let pca = take_json(&mut c, "pca rotation")?;
        let rng = if c.bool("rng flag")? {
            let mut state = [0u64; 4];
            for word in &mut state {
                *word = c.u64("rng state")?;
            }
            Some(state)
        } else {
            None
        };
        c.done()?;
        let snapshot = GemSnapshot {
            format: FORMAT.to_string(),
            version,
            cfg,
            graph,
            bisage,
            detector,
            train_report,
            train_embeddings,
            trusted,
            pca,
            rng,
        };
        Ok((snapshot, fnv1a64_extend(actual, trailer)))
    }

    /// Writes the snapshot to a file as JSON.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reads a snapshot file in either encoding ([`GemSnapshot::decode`]).
    pub fn load(path: impl AsRef<Path>) -> Result<GemSnapshot, PersistError> {
        Self::decode(&fs::read(path)?)
    }
}

impl Gem {
    /// Saves the full system state to a JSON snapshot file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        GemSnapshot::capture(self).save(path)
    }

    /// Restores a system from a snapshot file in either encoding.
    pub fn load(path: impl AsRef<Path>) -> Result<Gem, PersistError> {
        GemSnapshot::load(path)?.restore()
    }
}

/// Appends a JSON section: `u32` byte length, then the text.
pub(crate) fn put_json(out: &mut Vec<u8>, value: &impl Serialize) {
    let text = serde_json::to_string(value).expect("JSON rendering is infallible");
    put_count(out, text.len());
    out.extend_from_slice(text.as_bytes());
}

/// Reads a [`put_json`] section.
pub(crate) fn take_json<T: Deserialize>(
    c: &mut Cur,
    what: &'static str,
) -> Result<T, PersistError> {
    let n = c.count(1, what)?;
    let text = std::str::from_utf8(c.take(n, what)?).map_err(|_| Malformed(what))?;
    serde_json::from_str(text)
        .map_err(|e| PersistError::Format(format!("binary snapshot: {what}: {e}")))
}

/// Appends a tensor: `u32` rows, `u32` cols, row-major `f32` data.
pub(crate) fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    put_count(out, t.rows());
    put_count(out, t.cols());
    put_f32s(out, t.data());
}

/// Reads a [`put_tensor`] tensor.
pub(crate) fn take_tensor(c: &mut Cur, what: &'static str) -> Result<Tensor, Malformed> {
    let rows = c.u32(what)? as usize;
    let cols = c.u32(what)? as usize;
    let data = c.f32s(rows.checked_mul(cols).ok_or(Malformed(what))?, what)?;
    Ok(Tensor::from_vec(rows, cols, data))
}

/// Appends the graph's six stored fields.
fn encode_graph(g: &BipartiteGraph, out: &mut Vec<u8>) {
    put_json(out, &g.weight_fn());
    // Ascending id, so equal graphs encode to equal bytes whatever the
    // hash map's iteration order.
    let mut index: Vec<(u32, u64)> = g.mac_index().iter().map(|(m, id)| (id.0, m.raw())).collect();
    index.sort_unstable();
    put_count(out, index.len());
    for (id, mac) in index {
        put_u64(out, mac);
        put_u32(out, id);
    }
    put_count(out, g.macs().len());
    for mac in g.macs() {
        put_u64(out, mac.raw());
    }
    for side in [g.record_adjacency(), g.mac_adjacency()] {
        put_count(out, side.len());
        for adj in side {
            put_count(out, adj.nbrs().len());
            out.reserve(adj.nbrs().len() * 16);
            for &(t, w) in adj.nbrs() {
                put_u32(out, t);
                out.extend_from_slice(&w.to_le_bytes());
            }
            put_f64s(out, adj.cumw());
        }
    }
    put_usize(out, g.n_edges());
}

/// Reads an [`encode_graph`] image; [`BipartiteGraph::from_parts`]
/// checks its cross-references.
fn decode_graph(c: &mut Cur) -> Result<BipartiteGraph, PersistError> {
    let weight_fn = take_json(c, "weight function")?;
    let n_index = c.count(12, "MAC index")?;
    let index = c.take(n_index * 12, "MAC index")?;
    let n_macs = c.count(8, "MAC table")?;
    let mut macs = Vec::with_capacity(n_macs);
    for _ in 0..n_macs {
        macs.push(mac_addr(c.u64("MAC table")?)?);
    }
    // Built only now that the MAC table bounds it.
    if n_index != n_macs {
        return Err(Malformed("MAC index").into());
    }
    let mut mac_index = std::collections::HashMap::with_capacity(n_index);
    let mut ic = Cur::new(index);
    for _ in 0..n_index {
        let mac = mac_addr(ic.u64("MAC index")?)?;
        mac_index.insert(mac, MacId(ic.u32("MAC index")?));
    }
    let mut sides = [Vec::new(), Vec::new()];
    for side in &mut sides {
        let n = c.count(4, "adjacency count")?;
        for _ in 0..n {
            let deg = c.count(16, "adjacency list")?;
            let pairs = c.take(deg * 8, "adjacency list")?;
            let nbrs = pairs
                .chunks_exact(8)
                .map(|p| {
                    let t = u32::from_le_bytes(p[..4].try_into().expect("4 bytes"));
                    (t, f32::from_le_bytes(p[4..].try_into().expect("4 bytes")))
                })
                .collect();
            side.push(Adjacency::from_raw(nbrs, c.f64s(deg, "adjacency sums")?));
        }
    }
    let [record_adj, mac_adj] = sides;
    let n_edges = c.usize("edge count")?;
    BipartiteGraph::from_parts(weight_fn, mac_index, macs, record_adj, mac_adj, n_edges)
        .map_err(|e| PersistError::Format(format!("binary snapshot: {e}")))
}

/// A stored MAC address: the 48 significant bits and nothing above.
fn mac_addr(raw: u64) -> Result<MacAddr, Malformed> {
    if raw & !MacAddr::MASK != 0 {
        return Err(Malformed("MAC address above 48 bits"));
    }
    Ok(MacAddr::from_raw(raw))
}

// ---------------------------------------------------------------------------
// Fleet manifest
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the workspace's checksum primitive for durability
/// artifacts (manifest bodies, snapshot files, journal lines). Not
/// cryptographic; it guards against truncation, bit rot and partial
/// writes, which is what crash recovery needs to detect.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an [`fnv1a64`] over more bytes: `fnv1a64_extend(fnv1a64(a), b)`
/// equals `fnv1a64` of `a` followed by `b`.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv1a64`] rendered as the canonical 16-digit lowercase hex string
/// stored in manifests and journal lines.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Filename of the fleet manifest inside a durability directory.
pub const MANIFEST_FILE: &str = "manifest.json";

const MANIFEST_FORMAT: &str = "gem-fleet-manifest";
const MANIFEST_VERSION: u32 = 1;

/// One premises' durable state, as recorded in a [`FleetManifest`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PremisesEntry {
    /// Tenant identifier (the fleet's routing key).
    pub premises_id: u64,
    /// Snapshot filename, relative to the manifest's directory.
    pub snapshot_file: String,
    /// [`fnv1a64_hex`] checksum of the snapshot file's bytes.
    pub snapshot_checksum: String,
    /// Decision epochs this premises had applied when the snapshot was
    /// taken. Journal entries with a later epoch number must be replayed
    /// on recovery; earlier ones are already folded into the snapshot.
    pub epochs: u64,
    /// Runtime-defined sidecar state stored verbatim (e.g. the service
    /// layer's alert-policy counters), so layers above the model can
    /// recover without `gem-core` knowing their types.
    #[serde(default)]
    pub sidecar: serde_json::Value,
}

/// Versioned, checksummed index of a fleet durability directory: which
/// premises exist, where each one's snapshot lives, and the journal
/// watermark (`epochs`) recovery must replay from.
#[derive(Debug, Serialize, Deserialize)]
pub struct FleetManifest {
    format: String,
    version: u32,
    /// Per-premises entries, sorted by premises id.
    pub premises: Vec<PremisesEntry>,
    /// [`fnv1a64_hex`] over the serialized `premises` array.
    checksum: String,
}

impl FleetManifest {
    /// Builds a manifest over the given entries (sorted by premises id;
    /// the checksum is computed over the canonical serialized array).
    pub fn new(mut premises: Vec<PremisesEntry>) -> FleetManifest {
        premises.sort_by_key(|e| e.premises_id);
        let body = serde_json::to_string(&premises).expect("serialize manifest entries");
        FleetManifest {
            format: MANIFEST_FORMAT.to_string(),
            version: MANIFEST_VERSION,
            checksum: fnv1a64_hex(body.as_bytes()),
            premises,
        }
    }

    /// The entry for one premises, when present.
    pub fn entry(&self, premises_id: u64) -> Option<&PremisesEntry> {
        self.premises.iter().find(|e| e.premises_id == premises_id)
    }

    /// Writes the manifest into `dir` atomically and durably: the temp
    /// file is synced before the rename (so the commit can never expose
    /// a torn manifest) and the directory is synced after it (so the
    /// rename itself — and the directory entries of any files written
    /// alongside — survive power loss, not just process crashes).
    pub fn save(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        let dir = dir.as_ref();
        let json =
            serde_json::to_string_pretty(self).map_err(|e| PersistError::Format(e.to_string()))?;
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        {
            use std::io::Write;
            let mut f = fs::File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        // Opening a directory read-only for fsync is POSIX-only; on
        // platforms where it fails, durability degrades to
        // process-crash-only rather than erroring the commit.
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all()?;
        }
        Ok(())
    }

    /// Loads and verifies the manifest from `dir`: format tag, version,
    /// and body checksum must all match.
    pub fn load(dir: impl AsRef<Path>) -> Result<FleetManifest, PersistError> {
        let raw = fs::read_to_string(dir.as_ref().join(MANIFEST_FILE))?;
        let manifest: FleetManifest =
            serde_json::from_str(&raw).map_err(|e| PersistError::Format(e.to_string()))?;
        if manifest.format != MANIFEST_FORMAT {
            return Err(PersistError::Incompatible(format!(
                "manifest format tag {:?}",
                manifest.format
            )));
        }
        if manifest.version != MANIFEST_VERSION {
            return Err(PersistError::Incompatible(format!(
                "manifest version {} (supported: {MANIFEST_VERSION})",
                manifest.version
            )));
        }
        let body = serde_json::to_string(&manifest.premises)
            .map_err(|e| PersistError::Format(e.to_string()))?;
        let expect = fnv1a64_hex(body.as_bytes());
        if manifest.checksum != expect {
            return Err(PersistError::Incompatible(format!(
                "manifest checksum mismatch (stored {}, computed {expect})",
                manifest.checksum
            )));
        }
        Ok(manifest)
    }

    /// Verifies that every referenced snapshot file exists in `dir` and
    /// matches its recorded checksum.
    pub fn verify_snapshots(&self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        let dir = dir.as_ref();
        // Many entries may share one snapshot file (e.g. a common seed
        // model fanned out to thousands of premises) — hash each
        // distinct file once, not once per entry.
        let mut cache: std::collections::HashMap<&str, String> = std::collections::HashMap::new();
        for e in &self.premises {
            let got = match cache.get(e.snapshot_file.as_str()) {
                Some(h) => h.clone(),
                None => {
                    let bytes = fs::read(dir.join(&e.snapshot_file))?;
                    let h = fnv1a64_hex(&bytes);
                    cache.insert(e.snapshot_file.as_str(), h.clone());
                    h
                }
            };
            if got != e.snapshot_checksum {
                return Err(PersistError::Incompatible(format!(
                    "snapshot {} for premises {} is corrupt (stored {}, computed {got})",
                    e.snapshot_file, e.premises_id, e.snapshot_checksum
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_rfsim::{Scenario, ScenarioConfig};
    use gem_signal::Label;

    fn trained_gem() -> (Gem, gem_signal::Dataset) {
        let mut cfg = ScenarioConfig::user(1);
        cfg.train_duration_s = 150.0;
        cfg.n_test_in = 30;
        cfg.n_test_out = 30;
        let ds = Scenario::build(cfg).generate();
        (Gem::fit(GemConfig::default(), &ds.train), ds)
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let (gem, ds) = trained_gem();
        let json = GemSnapshot::capture(&gem).to_json().unwrap();
        let restored = GemSnapshot::from_json(&json).unwrap().restore().unwrap();
        // The restored system must make identical decisions.
        let mut a = gem;
        let mut b = restored;
        for t in &ds.test {
            let da = a.infer(&t.record);
            let db = b.infer(&t.record);
            assert_eq!(da.label, db.label);
            assert!((da.score - db.score).abs() < 1e-12);
        }
    }

    #[test]
    fn snapshot_preserves_online_state() {
        let (mut gem, ds) = trained_gem();
        for t in ds.test.iter().take(20) {
            gem.infer(&t.record);
        }
        let n_records = gem.graph().n_records();
        let n_updates = gem.detector().n_updates;
        let restored = GemSnapshot::capture(&gem).to_json().unwrap();
        let restored = GemSnapshot::from_json(&restored).unwrap().restore().unwrap();
        assert_eq!(restored.graph().n_records(), n_records);
        assert_eq!(restored.detector().n_updates, n_updates);
    }

    #[test]
    fn save_load_via_files() {
        let (gem, _) = trained_gem();
        let path = std::env::temp_dir().join("gem_persist_test.json");
        gem.save(&path).unwrap();
        let restored = Gem::load(&path).unwrap();
        assert_eq!(restored.graph().n_edges(), gem.graph().n_edges());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_corrupted_snapshots() {
        assert!(matches!(GemSnapshot::from_json("not json"), Err(PersistError::Format(_))));
        let (gem, _) = trained_gem();
        let mut snap = GemSnapshot::capture(&gem);
        snap.version = 99;
        let json = snap.to_json().unwrap();
        assert!(matches!(
            GemSnapshot::from_json(&json).unwrap().restore(),
            Err(PersistError::Incompatible(_))
        ));
    }

    #[test]
    fn rejects_inconsistent_trust_bits() {
        let (gem, _) = trained_gem();
        let mut snap = GemSnapshot::capture(&gem);
        snap.trusted.pop();
        assert!(matches!(snap.restore(), Err(PersistError::Incompatible(_))));
    }

    #[test]
    fn restored_system_keeps_learning() {
        let (gem, ds) = trained_gem();
        let mut restored = GemSnapshot::capture(&gem)
            .to_json()
            .and_then(|j| GemSnapshot::from_json(&j))
            .unwrap()
            .restore()
            .unwrap();
        let before = restored.graph().n_records();
        let mut saw_in = false;
        for t in &ds.test {
            let d = restored.infer(&t.record);
            saw_in |= d.label == Label::In;
        }
        assert!(restored.graph().n_records() > before);
        assert!(saw_in, "restored model should accept some in-premises scans");
    }

    #[test]
    fn snapshot_resumes_rng_stream() {
        let (mut gem, ds) = trained_gem();
        // Advance the online stream so the RNG is mid-sequence.
        for t in ds.test.iter().take(10) {
            gem.infer(&t.record);
        }
        let state = gem.rng_state();
        let restored = GemSnapshot::capture(&gem)
            .to_json()
            .and_then(|j| GemSnapshot::from_json(&j))
            .unwrap()
            .restore()
            .unwrap();
        assert_eq!(restored.rng_state(), state, "restore must resume the exact RNG state");
        // A pre-rng snapshot (field absent) still restores, with a fresh
        // seed-derived stream.
        let mut snap = GemSnapshot::capture(&gem);
        snap.rng = None;
        assert!(snap.restore().is_ok());
    }

    #[test]
    fn binary_image_roundtrips_and_load_reads_either_format() {
        let (mut gem, ds) = trained_gem();
        for t in ds.test.iter().take(10) {
            gem.infer(&t.record);
        }
        let snap = GemSnapshot::capture(&gem);
        let json = snap.to_json().unwrap();
        let mut image = Vec::new();
        let checksum = snap.encode_binary(&mut image);
        assert!(image.starts_with(&BINARY_MAGIC));
        assert_eq!(checksum, fnv1a64(&image));
        assert!(image.len() * 2 < json.len(), "{} vs {} bytes", image.len(), json.len());
        assert_eq!(GemSnapshot::decode(&image).unwrap().to_json().unwrap(), json);
        assert_eq!(GemSnapshot::decode(json.as_bytes()).unwrap().to_json().unwrap(), json);
        // The hashed decode reports the manifest checksum of either file.
        let (decoded, hash) = GemSnapshot::decode_hashed(&image).unwrap();
        assert_eq!(hash, checksum);
        assert_eq!(decoded.to_json().unwrap(), json);
        assert_eq!(
            GemSnapshot::decode_hashed(json.as_bytes()).unwrap().1,
            fnv1a64(json.as_bytes())
        );
        let dir = std::env::temp_dir().join(format!("gem_persist_formats_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("m.gemsnap"), &image).unwrap();
        gem.save(dir.join("m.json")).unwrap();
        let mut from_binary = Gem::load(dir.join("m.gemsnap")).unwrap();
        let mut from_json = Gem::load(dir.join("m.json")).unwrap();
        for t in ds.test.iter().skip(10) {
            let (a, b, c) =
                (gem.infer(&t.record), from_binary.infer(&t.record), from_json.infer(&t.record));
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.score.to_bits(), c.score.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_decode_refuses_bad_versions_checksums_and_strays() {
        let (gem, _) = trained_gem();
        let mut snap = GemSnapshot::capture(&gem);
        let mut image = Vec::new();
        snap.encode_binary(&mut image);
        let mut flipped = image.clone();
        flipped[image.len() / 2] ^= 1;
        assert!(matches!(GemSnapshot::decode(&flipped), Err(PersistError::Format(_))));
        // A body with a stray byte, re-sealed: the checksum holds, the
        // structure does not.
        let mut stray = image[..image.len() - 8].to_vec();
        stray.push(0);
        stray.extend_from_slice(&fnv1a64(&stray).to_le_bytes());
        let err = GemSnapshot::decode(&stray).err().unwrap().to_string();
        assert!(err.contains("trailing bytes"), "{err}");
        snap.version = 99;
        image.clear();
        snap.encode_binary(&mut image);
        assert!(matches!(GemSnapshot::decode(&image), Err(PersistError::Incompatible(_))));
        assert!(matches!(GemSnapshot::decode(&[0x89, 0xff]), Err(PersistError::Format(_))));
        assert!(matches!(GemSnapshot::decode(b""), Err(PersistError::Format(_))));
    }

    #[test]
    fn restore_refuses_mismatched_shapes() {
        let (gem, _) = trained_gem();
        let mut snap = GemSnapshot::capture(&gem);
        snap.train_embeddings = Tensor::zeros(3, gem.bisage().dim() + 1);
        assert!(matches!(snap.restore(), Err(PersistError::Incompatible(_))));
        let mut snap = GemSnapshot::capture(&gem);
        snap.bisage.cfg.rounds += 1;
        assert!(matches!(snap.restore(), Err(PersistError::Incompatible(_))));
    }

    #[test]
    fn manifest_roundtrips_and_verifies() {
        let dir = std::env::temp_dir().join("gem_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("premises-7.json");
        std::fs::write(&snap_path, b"{\"stub\":true}").unwrap();
        let checksum = fnv1a64_hex(&std::fs::read(&snap_path).unwrap());
        let manifest = FleetManifest::new(vec![
            PremisesEntry {
                premises_id: 9,
                snapshot_file: "premises-9.json".into(),
                snapshot_checksum: "0".repeat(16),
                epochs: 3,
                sidecar: serde_json::Value::Null,
            },
            PremisesEntry {
                premises_id: 7,
                snapshot_file: "premises-7.json".into(),
                snapshot_checksum: checksum,
                epochs: 12,
                sidecar: serde_json::Value::Object(vec![(
                    "alerts".to_string(),
                    serde_json::Value::U64(2),
                )]),
            },
        ]);
        manifest.save(&dir).unwrap();
        let loaded = FleetManifest::load(&dir).unwrap();
        // Entries are sorted by premises id and survive the roundtrip.
        assert_eq!(loaded.premises.len(), 2);
        assert_eq!(loaded.premises[0].premises_id, 7);
        assert_eq!(loaded.entry(7).unwrap().epochs, 12);
        let sidecar = loaded.entry(7).unwrap().sidecar.as_object().unwrap();
        assert_eq!(serde::get_field_opt(sidecar, "alerts").unwrap().as_u64(), Some(2));
        // The referenced snapshot verifies; the missing one fails I/O.
        assert!(matches!(loaded.verify_snapshots(&dir), Err(PersistError::Io(_))));
        let only_seven = FleetManifest::new(vec![loaded.entry(7).unwrap().clone()]);
        only_seven.save(&dir).unwrap();
        FleetManifest::load(&dir).unwrap().verify_snapshots(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_rejects_tampering() {
        let dir = std::env::temp_dir().join("gem_manifest_tamper_test");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = FleetManifest::new(vec![PremisesEntry {
            premises_id: 1,
            snapshot_file: "premises-1.json".into(),
            snapshot_checksum: "0".repeat(16),
            epochs: 5,
            sidecar: serde_json::Value::Null,
        }]);
        manifest.save(&dir).unwrap();
        // Flip the recorded epoch count in the file: the body checksum no
        // longer matches and the load must fail.
        let path = dir.join(MANIFEST_FILE);
        let tampered =
            std::fs::read_to_string(&path).unwrap().replace("\"epochs\": 5", "\"epochs\": 6");
        std::fs::write(&path, tampered).unwrap();
        assert!(matches!(FleetManifest::load(&dir), Err(PersistError::Incompatible(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_extends_over_concatenation() {
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn fnv_checksum_is_stable() {
        // Reference vectors for FNV-1a 64 (from the published parameters)
        // — the on-disk format depends on these exact values.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64_hex(b"foobar"), "85944171f73967e8");
    }
}
