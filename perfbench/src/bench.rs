//! The three workloads: set-up (world, model, fan-out, fleet, ingress,
//! connections), the measured phase, and the correctness checks that
//! every run makes (ledger, decision oracle).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gem_core::{fnv1a64_hex, Decision, FleetManifest, Gem, GemSnapshot, PremisesEntry};
use gem_service::wire::{self, Frame};
use gem_service::{
    shard_for, Fleet, FleetConfig, IngressConfig, IngressServer, Monitor, MonitorConfig,
    MonitorState, MonitorStats,
};
use gem_signal::{Label, LabeledRecord, SignalRecord};

use crate::client::{Conn, Ledger, Outcome, Pacing, Rec};
use crate::spans::SpanLog;
use crate::world::{self, World};

/// Worker shards of every fleet the benchmark spawns.
pub const SHARDS: usize = 2;
/// Client connections (and client threads).
pub const CONNS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SessionLong,
    FleetCommute,
    ColdTier,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::SessionLong, Kind::FleetCommute, Kind::ColdTier];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SessionLong => "session-long",
            Kind::FleetCommute => "fleet-commute",
            Kind::ColdTier => "cold-tier",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Workload sizes for a run of `--seconds`. `full` is what the
/// benchmark measures; `smoke` is a miniature for tests.
///
/// session-long and cold-tier do a fixed amount of work per run, sized
/// from `--seconds` with the figures below (about `--seconds` of load on
/// a 2-core host), so every run of a seed streams the same records and
/// state figures do not depend on how fast the host was. fleet-commute
/// paces by the clock.
#[derive(Clone, Debug)]
pub struct Sizing {
    /// Length of a run, for the clock-paced workload.
    pub seconds: f64,
    /// Seconds of perimeter walk the base model trains on.
    pub train_walk_s: f64,
    /// session-long: diurnal days per session, scans per day, and the
    /// number of pre-spawned sessions (each on two fresh premises).
    pub days: usize,
    pub scans_per_day: usize,
    pub sessions: usize,
    /// fleet-commute: premises, offered open-loop rate, share of the run
    /// spent in the closing saturation phase, and scans per device.
    pub commute_premises: usize,
    pub open_rate: f64,
    pub saturation_share: f64,
    pub commute_scans: usize,
    /// cold-tier: premises per round, hot cap per shard, scans per
    /// premises, and the number of rounds (each on fresh premises).
    pub cold_premises: usize,
    pub hot_cap: usize,
    pub cold_scans: usize,
    pub cold_rounds: usize,
}

impl Sizing {
    pub fn full(seconds: f64) -> Sizing {
        Sizing {
            seconds,
            train_walk_s: 240.0,
            days: 4,
            scans_per_day: 400,
            // A session takes about 2 s.
            sessions: per_run(seconds / 2.0),
            commute_premises: 32,
            open_rate: 1500.0,
            saturation_share: 0.25,
            // Enough scans for the open-loop phase plus a saturation
            // phase running at up to ~12k decisions/s.
            commute_scans: (seconds * 150.0) as usize,
            // 20 premises per shard against a hot cap of 2.
            cold_premises: 40,
            hot_cap: 2,
            cold_scans: 4,
            // A round of 160 records takes about 3.75 s.
            cold_rounds: per_run(seconds / 3.75),
        }
    }

    pub fn smoke(seconds: f64) -> Sizing {
        Sizing {
            seconds,
            train_walk_s: 60.0,
            days: 2,
            scans_per_day: 24,
            sessions: 2,
            commute_premises: 8,
            open_rate: 400.0,
            saturation_share: 0.25,
            commute_scans: (seconds * 600.0) as usize,
            cold_premises: 12,
            hot_cap: 1,
            cold_scans: 2,
            cold_rounds: 2,
        }
    }
}

/// A count of work items per run: at least one, and even, so that the
/// traced run's two halves are equal.
fn per_run(x: f64) -> usize {
    ((x / 2.0).round() as usize).max(1) * 2
}

/// A workload's generated inputs.
pub struct Inputs {
    /// Every record, pre-encoded.
    pub recs: Vec<Rec>,
    /// The same records decoded, for the in-process replays.
    pub records: Vec<SignalRecord>,
    /// `plans[g][c]`: what connection `c` streams in plan group `g`
    /// (a session on session-long, a round on cold-tier, the whole run
    /// on fleet-commute).
    pub plans: Vec<Vec<Vec<usize>>>,
    /// Every premises the fleet serves.
    pub premises: Vec<u64>,
    /// Day slices per premises stream for the growth ratio.
    pub days: usize,
}

fn encode_record(premises: u64, scan: &LabeledRecord) -> Rec {
    let mut frame = Vec::with_capacity(256);
    wire::encode(
        &Frame::Record { premises_id: premises, record: scan.record.clone(), trace: None },
        &mut frame,
    );
    Rec { premises, frame, truth_in: scan.label.is_in() }
}

/// Appends a premises' stream to `inputs` and returns the record indices.
fn push_stream(inputs: &mut Inputs, premises: u64, stream: &[LabeledRecord]) -> Vec<usize> {
    stream
        .iter()
        .map(|scan| {
            inputs.recs.push(encode_record(premises, scan));
            inputs.records.push(scan.record.clone());
            inputs.recs.len() - 1
        })
        .collect()
}

/// Interleaves per-premises streams round-robin into one plan.
fn round_robin(streams: &[Vec<usize>]) -> Vec<usize> {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest).flat_map(|j| streams.iter().filter_map(move |s| s.get(j).copied())).collect()
}

/// `per_conn` premises ids for each connection, picked so that every
/// premises of connection `c` lives on shard `c`. Each shard then serves
/// exactly one connection's records, and queueing does not depend on how
/// the ids happen to hash.
fn ids_by_shard(per_conn: usize) -> Vec<Vec<u64>> {
    let mut ids: Vec<Vec<u64>> = vec![Vec::new(); CONNS];
    let mut id = 1u64;
    while ids.iter().any(|v| v.len() < per_conn) {
        let shard = shard_for(id, SHARDS);
        if ids[shard].len() < per_conn {
            ids[shard].push(id);
        }
        id += 1;
    }
    ids
}

fn generate(kind: Kind, sz: &Sizing, world: &World) -> Inputs {
    let mut inputs = Inputs {
        recs: Vec::new(),
        records: Vec::new(),
        plans: Vec::new(),
        premises: Vec::new(),
        days: 2,
    };
    match kind {
        Kind::SessionLong => {
            // Session k streams premises ids[c][k] on connection c.
            let ids = ids_by_shard(sz.sessions);
            inputs.days = sz.days;
            for k in 0..sz.sessions {
                let mut group = Vec::with_capacity(CONNS);
                for conn_ids in &ids {
                    let p = conn_ids[k];
                    let stream = world::session_stream(world, p, sz.days, sz.scans_per_day);
                    group.push(push_stream(&mut inputs, p, &stream));
                    inputs.premises.push(p);
                }
                inputs.plans.push(group);
            }
        }
        Kind::FleetCommute => {
            let mut per_conn: Vec<Vec<Vec<usize>>> = vec![Vec::new(); CONNS];
            for i in 0..sz.commute_premises {
                let p = i as u64 + 1;
                // One device in eight stays home; the rest commute.
                let stream = if (i / CONNS).is_multiple_of(8) {
                    world::home_stream(world, p, sz.commute_scans)
                } else {
                    world::away_stream(world, p, sz.commute_scans)
                };
                per_conn[i % CONNS].push(push_stream(&mut inputs, p, &stream));
                inputs.premises.push(p);
            }
            inputs.plans.push(per_conn.iter().map(|s| round_robin(s)).collect());
        }
        Kind::ColdTier => {
            // Round r streams premises ids[c][r * per_conn..][..per_conn]
            // on connection c, round-robin.
            let per_conn = sz.cold_premises / CONNS;
            let ids = ids_by_shard(per_conn * sz.cold_rounds);
            for r in 0..sz.cold_rounds {
                let mut group = Vec::with_capacity(CONNS);
                for conn_ids in &ids {
                    let mut streams = Vec::with_capacity(per_conn);
                    for &p in &conn_ids[r * per_conn..(r + 1) * per_conn] {
                        let stream = world::home_stream(world, p, sz.cold_scans);
                        streams.push(push_stream(&mut inputs, p, &stream));
                        inputs.premises.push(p);
                    }
                    group.push(round_robin(&streams));
                }
                inputs.plans.push(group);
            }
        }
    }
    inputs
}

/// A running stack: fleet, ingress and connected clients.
pub struct Stack {
    pub kind: Kind,
    pub world: World,
    pub inputs: Inputs,
    pub fleet: Fleet,
    pub server: Option<IngressServer>,
    pub conns: Vec<Conn>,
    pub dir: Option<PathBuf>,
    /// The per-connection window the workload streams with.
    pub window: usize,
}

/// An empty directory `<root>/<tag>-<pid>`.
pub fn fresh_dir(root: &Path, tag: &str) -> Result<PathBuf, String> {
    let dir = root.join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes one base snapshot plus a manifest that points every premises
/// at it, so `Fleet::recover` spawns them all cold.
fn manufacture_manifest(dir: &Path, base: &Gem, premises: &[u64]) -> Result<(), String> {
    let json = GemSnapshot::capture(base).to_json().map_err(|e| e.to_string())?;
    std::fs::write(dir.join("seed.json"), json.as_bytes()).map_err(|e| e.to_string())?;
    let checksum = fnv1a64_hex(json.as_bytes());
    let state = MonitorState {
        cfg: MonitorConfig::default(),
        consecutive_out: 0,
        consecutive_in: 0,
        alert_active: false,
        stats: MonitorStats::default(),
    };
    let sidecar = serde::Serialize::serialize(&state);
    let entries = premises
        .iter()
        .map(|&p| PremisesEntry {
            premises_id: p,
            snapshot_file: "seed.json".into(),
            snapshot_checksum: checksum.clone(),
            epochs: 0,
            sidecar: sidecar.clone(),
        })
        .collect();
    FleetManifest::new(entries).save(dir).map_err(|e| e.to_string())
}

/// Everything `setup_s` covers: world build, `Gem::fit`, input
/// generation, fan-out, fleet spawn or recover, bind, and HELLO on
/// every connection.
pub fn setup(kind: Kind, sz: &Sizing, seed: u64, scratch: &Path) -> Result<Stack, String> {
    let world = World::build(seed, sz.train_walk_s);
    let inputs = generate(kind, sz, &world);
    let (cfg, credit, dir) = match kind {
        Kind::SessionLong => (FleetConfig { shards: SHARDS, ..FleetConfig::default() }, 1, None),
        Kind::FleetCommute => {
            let dir = fresh_dir(scratch, kind.name())?;
            let cfg = FleetConfig {
                shards: SHARDS,
                queue_per_shard: 4096,
                dir: Some(dir.clone()),
                ..FleetConfig::default()
            };
            (cfg, 64, Some(dir))
        }
        Kind::ColdTier => {
            let dir = fresh_dir(scratch, kind.name())?;
            let cfg = FleetConfig {
                shards: SHARDS,
                dir: Some(dir.clone()),
                hot_premises_per_shard: Some(sz.hot_cap),
                ..FleetConfig::default()
            };
            (cfg, 2, Some(dir))
        }
    };
    let mut fleet = match kind {
        Kind::ColdTier => {
            let dir = dir.as_deref().expect("cold tier is durable");
            manufacture_manifest(dir, &world.base, &inputs.premises)?;
            let recovery = Fleet::recover(cfg).map_err(|e| e.to_string())?;
            if recovery.replayed_epochs != 0 {
                return Err("a manufactured manifest must replay nothing".into());
            }
            recovery.fleet
        }
        _ => {
            let monitors = inputs
                .premises
                .iter()
                .map(|&p| (p, Monitor::new(world.fresh_gem(), MonitorConfig::default())))
                .collect();
            Fleet::spawn(monitors, cfg).map_err(|e| e.to_string())?
        }
    };
    let server = IngressServer::bind(
        "127.0.0.1:0",
        &mut fleet,
        IngressConfig { credit_window: credit, ..IngressConfig::default() },
    )
    .map_err(|e| format!("binding the ingress: {e}"))?;
    let conns =
        (0..CONNS).map(|_| Conn::connect(server.local_addr())).collect::<Result<Vec<_>, _>>()?;
    let window = credit as usize;
    Ok(Stack { kind, world, inputs, fleet, server: Some(server), conns, dir, window })
}

impl Stack {
    /// Closes the clients and the ingress, aborts the fleet and removes
    /// its directory.
    pub fn teardown(mut self) {
        self.conns.clear();
        self.server.take();
        self.fleet.abort();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Closes the clients and the ingress, shuts the fleet down
    /// gracefully and returns the mean size of the state it ends with
    /// per premises, MB. A durable fleet's final manifest names one image
    /// file per premises, and their sizes are what is averaged. A fleet
    /// without a directory keeps every premises resident, and their
    /// `GemSnapshot` JSON is measured instead.
    pub fn finish(mut self) -> Result<f64, String> {
        self.conns.clear();
        self.server.take();
        let monitors = self.fleet.shutdown().map_err(|e| e.to_string())?;
        let mb = match &self.dir {
            Some(dir) => manifest_state_mb(dir, self.inputs.premises.len()),
            None => mean_state_mb(monitors.iter().map(|(_, m)| m.gem())),
        };
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        mb
    }

    pub fn ledger(&self) -> Ledger {
        let mut total = Ledger::default();
        for c in &self.conns {
            total.add(&c.ledger);
        }
        total
    }
}

/// One connection's outcomes and, when traced, its spans.
type ConnRun = Result<(Vec<Outcome>, Option<SpanLog>), String>;

/// Streams `plans[c]` on every connection at once (one thread each).
/// Returns the outcomes of all connections, in per-connection send
/// order, and the client spans when `trace` is set.
#[allow(clippy::too_many_arguments)]
pub fn run_conns(
    conns: &mut [Conn],
    plans: &[&[usize]],
    recs: &[Rec],
    window: usize,
    pacing: &[Pacing],
    deadline: Option<Instant>,
    trace: Option<Instant>,
) -> Result<(Vec<Vec<Outcome>>, Option<SpanLog>), String> {
    let results: Vec<ConnRun> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(plans)
            .zip(pacing)
            .map(|((conn, plan), &pace)| {
                s.spawn(move || {
                    let mut log = trace.map(SpanLog::new);
                    let out = conn.run(plan, recs, window, pace, deadline, log.as_mut())?;
                    Ok((out, log))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    let mut outs = Vec::with_capacity(results.len());
    let mut spans: Option<SpanLog> = trace.map(SpanLog::new);
    for r in results {
        let (out, log) = r?;
        if let (Some(all), Some(log)) = (spans.as_mut(), log) {
            all.absorb(log);
        }
        outs.push(out);
    }
    Ok((outs, spans))
}

/// What the measured phase produced.
pub struct Measured {
    /// Every outcome, in per-connection send order.
    pub all: Vec<Outcome>,
    /// Latency slices: one per plan group (session or round), or the
    /// open-loop phase on fleet-commute. Figures are taken per slice and
    /// reported as the median over slices, so one stalled group cannot
    /// move a run's figure.
    pub lat_slices: Vec<Vec<Outcome>>,
    /// Throughput slices as (decisions, seconds): per plan group, or per
    /// fifth of the decisions of the saturation phase (fleet-commute).
    pub thr_slices: Vec<(u64, f64)>,
    /// Open-loop generator lateness (sent − due), nanoseconds.
    pub gen_lag_ns: Vec<f64>,
    /// Client spans (traced runs only).
    pub spans: Option<SpanLog>,
    /// Plan groups streamed (sessions or rounds).
    pub groups: usize,
    /// On-CPU nanoseconds of the server's threads (shards and ingress)
    /// over the whole measured phase.
    pub server_cpu_ns: u64,
    /// Wall-clock nanoseconds the shards spent in drain passes over the
    /// measured phase (`gem_shard_busy_ns_total`): on-CPU time plus
    /// fsync, file I/O, lock and scheduling waits inside a pass.
    pub shard_busy_ns: u64,
}

fn decided(outs: &[Outcome]) -> u64 {
    outs.iter().filter(|o| o.decision.is_some()).count() as u64
}

/// The measured phase: `share` of the run's work (1 for an untraced
/// run, one half per pass of a traced run). `resume` continues where an
/// earlier pass stopped, so a second pass streams fresh records.
pub fn measure(
    stack: &mut Stack,
    sz: &Sizing,
    share: f64,
    trace: Option<Instant>,
    resume: &mut Resume,
) -> Result<Measured, String> {
    let recs = &stack.inputs.recs;
    let window = stack.window;
    let seconds = sz.seconds * share;
    let mut spans = trace.map(SpanLog::new);
    let mut keep = |log: Option<SpanLog>| {
        if let (Some(all), Some(log)) = (spans.as_mut(), log) {
            all.absorb(log);
        }
    };
    let mut m = Measured {
        all: Vec::new(),
        lat_slices: Vec::new(),
        thr_slices: Vec::new(),
        gen_lag_ns: Vec::new(),
        spans: None,
        groups: 0,
        server_cpu_ns: 0,
        shard_busy_ns: 0,
    };
    let cpu_before = server_cpu_ns()?;
    let busy_before = shard_busy_ns(&stack.fleet);
    match stack.kind {
        Kind::SessionLong | Kind::ColdTier => {
            // Whole sessions or rounds, one after another, each on fresh
            // premises.
            let groups = &stack.inputs.plans;
            let count = ((groups.len() as f64 * share).round() as usize).max(1);
            let last = (resume.group + count).min(groups.len());
            while resume.group < last {
                let plans: Vec<&[usize]> = groups[resume.group].iter().map(Vec::as_slice).collect();
                let group_start = Instant::now();
                let (outs, log) = run_conns(
                    &mut stack.conns,
                    &plans,
                    recs,
                    window,
                    &[Pacing::Closed; CONNS],
                    None,
                    trace,
                )?;
                keep(log);
                let group: Vec<Outcome> = outs.into_iter().flatten().collect();
                m.thr_slices.push((decided(&group), group_start.elapsed().as_secs_f64()));
                m.all.extend(group.iter().cloned());
                m.lat_slices.push(group);
                resume.group += 1;
                m.groups += 1;
            }
        }
        Kind::FleetCommute => {
            let open_s = seconds * (1.0 - sz.saturation_share);
            let plans = &stack.inputs.plans[0];
            let rate = sz.open_rate / CONNS as f64;
            let open_start = Instant::now() + Duration::from_millis(5);
            let slices: Vec<&[usize]> =
                plans.iter().zip(&resume.offsets).map(|(p, &o)| &p[o..]).collect();
            let (outs, log) = run_conns(
                &mut stack.conns,
                &slices,
                recs,
                window,
                &[Pacing::Open { start: open_start, rate_per_s: rate }; CONNS],
                Some(open_start + Duration::from_secs_f64(open_s)),
                trace,
            )?;
            keep(log);
            let mut open = Vec::new();
            for (c, o) in outs.into_iter().enumerate() {
                resume.offsets[c] += o.len();
                m.gen_lag_ns
                    .extend(o.iter().map(|x| x.sent.duration_since(x.due).as_nanos() as f64));
                open.extend(o);
            }
            m.lat_slices = vec![open.clone()];
            m.all.extend(open);
            // Closing saturation phase: closed loop, full windows.
            let sat_start = Instant::now();
            let slices: Vec<&[usize]> =
                plans.iter().zip(&resume.offsets).map(|(p, &o)| &p[o..]).collect();
            let (outs, log) = run_conns(
                &mut stack.conns,
                &slices,
                recs,
                window,
                &[Pacing::Closed; CONNS],
                Some(sat_start + Duration::from_secs_f64(seconds * sz.saturation_share)),
                trace,
            )?;
            keep(log);
            let mut sat = Vec::new();
            for (c, o) in outs.into_iter().enumerate() {
                resume.offsets[c] += o.len();
                sat.extend(o);
            }
            m.thr_slices = rates(&by_decision_time(&sat, 5), sat_start);
            m.all.extend(sat);
        }
    }
    m.spans = spans;
    m.server_cpu_ns = server_cpu_ns()?.saturating_sub(cpu_before);
    m.shard_busy_ns = shard_busy_ns(&stack.fleet).saturating_sub(busy_before);
    Ok(m)
}

/// The shards' busy nanoseconds so far, summed.
pub fn shard_busy_ns(fleet: &Fleet) -> u64 {
    fleet.fleet_stats().shards.iter().map(|s| s.busy_ns).sum()
}

/// Total on-CPU nanoseconds (`/proc/self/task/*/schedstat`) of this
/// process's server threads: the fleet's shards and the ingress
/// threads, which name themselves `gem-shard-*` and `gem-ingress-*`.
/// Unlike wall-clock figures, this does not count time the host spends
/// running someone else.
pub fn server_cpu_ns() -> Result<u64, String> {
    let tasks =
        std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    let mut total = 0u64;
    for task in tasks.flatten() {
        let path = task.path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else { continue };
        if !(comm.starts_with("gem-shard") || comm.starts_with("gem-ingress")) {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(path.join("schedstat")) else { continue };
        let ns = stat.split_whitespace().next().and_then(|v| v.parse::<u64>().ok());
        total += ns.ok_or_else(|| format!("unreadable {}/schedstat: {stat:?}", path.display()))?;
    }
    Ok(total)
}

impl Measured {
    /// Decisions per second: the median over throughput slices (0 when
    /// nothing was decided).
    pub fn throughput(&self) -> f64 {
        if self.thr_slices.is_empty() {
            return 0.0;
        }
        let rates: Vec<f64> = self.thr_slices.iter().map(|&(d, s)| d as f64 / s).collect();
        crate::stats::median(&rates)
    }

    /// Decisions inside the throughput slices.
    pub fn thr_decisions(&self) -> u64 {
        self.thr_slices.iter().map(|&(d, _)| d).sum()
    }
}

/// The decided outcomes in decision-time order, cut into `n` groups of
/// equal count.
fn by_decision_time(outs: &[Outcome], n: usize) -> Vec<Vec<Outcome>> {
    let mut decided: Vec<&Outcome> = outs.iter().filter(|o| o.decision.is_some()).collect();
    decided.sort_by_key(|o| o.decision.map(|d| d.at));
    let n = n.clamp(1, decided.len().max(1));
    (0..n)
        .map(|c| {
            decided[decided.len() * c / n..decided.len() * (c + 1) / n]
                .iter()
                .map(|&o| o.clone())
                .collect()
        })
        .collect()
}

/// The rate of each group: its decisions over the time from the
/// previous group's last decision (or `start`) to its own last one.
fn rates(groups: &[Vec<Outcome>], start: Instant) -> Vec<(u64, f64)> {
    let mut from = start;
    groups
        .iter()
        .filter_map(|g| {
            let to = g.last()?.decision?.at;
            let secs = to.saturating_duration_since(from).as_secs_f64();
            from = to;
            Some((g.len() as u64, secs))
        })
        .collect()
}

/// Where the next measured pass of a run picks up.
#[derive(Clone, Debug, Default)]
pub struct Resume {
    pub group: usize,
    pub offsets: Vec<usize>,
}

impl Resume {
    pub fn new() -> Resume {
        Resume { group: 0, offsets: vec![0; CONNS] }
    }
}

/// Every record each premises received, in send order.
pub fn per_premises(outs: &[Outcome], recs: &[Rec]) -> Vec<(u64, Vec<usize>)> {
    let mut by: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for o in outs {
        by.entry(recs[o.rec].premises).or_default().push(o.rec);
    }
    by.into_iter().collect()
}

/// The server's side of the ledger, from the fleet and its registry.
#[derive(Clone, Debug, Default)]
pub struct ServerLedger {
    /// RECORD frames the ingress read.
    pub frames: u64,
    /// Admitted by the fleet (accepted or queued).
    pub fleet_admitted: u64,
    /// Admitted according to the ingress verdict counters.
    pub ingress_admitted: u64,
    /// Shed by the fleet (admission or unknown premises).
    pub shed: u64,
    /// Shed by the ingress because another connection owns the premises.
    pub busy: u64,
    pub dropped_events: u64,
    pub rejects: u64,
    pub orphans: u64,
}

impl ServerLedger {
    pub fn read(fleet: &Fleet) -> ServerLedger {
        let fs = fleet.fleet_stats();
        let reg = fleet.registry();
        let verdict = |v: &str| reg.counter("gem_ingress_records_total", &[("verdict", v)]).get();
        ServerLedger {
            frames: reg.counter("gem_ingress_frames_total", &[("kind", "record")]).get(),
            fleet_admitted: fs.accepts + fs.queued,
            ingress_admitted: verdict("accept") + verdict("queued"),
            shed: fs.sheds + fs.unknown_sheds,
            busy: verdict("busy"),
            dropped_events: fs.dropped_events,
            rejects: ["torn_frame", "bad_checksum", "oversize", "bad_frame", "timeout", "io"]
                .iter()
                .map(|r| reg.counter("gem_ingress_rejects_total", &[("reason", r)]).get())
                .sum(),
            orphans: reg.counter("gem_ingress_orphan_events_total", &[]).get(),
        }
    }
}

/// Compares the server's ledger with the clients'. Returns the
/// violations.
pub fn check_ledger(stack: &Stack) -> Vec<String> {
    ledger_violations(&stack.ledger(), &ServerLedger::read(&stack.fleet))
}

/// Every way the client and server ledgers disagree.
pub fn ledger_violations(client: &Ledger, server: &ServerLedger) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |what: &str, client: u64, server: u64| {
        if client != server {
            bad.push(format!("{what}: client {client}, server {server}"));
        }
    };
    expect("records sent vs received", client.sent, server.frames);
    expect("ACKs vs records sent", client.acks, client.sent);
    expect("admitted", client.admitted, server.fleet_admitted);
    expect("admitted by ingress", client.admitted, server.ingress_admitted);
    expect("shed", client.shed, server.shed);
    expect("busy sheds", client.busy, server.busy);
    expect("DECISIONs vs admitted", client.decisions, client.admitted);
    expect("dropped events", 0, server.dropped_events);
    expect("connection rejects", 0, server.rejects);
    expect("orphan events", 0, server.orphans);
    bad
}

/// Replays `records` through a fresh copy of the base model with the
/// paper's sequential `Gem::infer`.
pub fn replay_infer(world: &World, records: &[&SignalRecord]) -> Vec<Decision> {
    let mut gem = world.fresh_gem();
    records.iter().map(|r| gem.infer(r)).collect()
}

/// Whether a DECISION frame carries exactly this decision.
pub fn same_decision(o: &Outcome, d: &Decision) -> bool {
    o.decision.is_some_and(|x| {
        x.inside == (d.label == Label::In) && x.score.to_bits() == d.score.to_bits()
    })
}

/// The decision oracle: every premises' TCP decisions must equal an
/// in-process sequential replay of the records it received, label and
/// score bitwise. Returns the mismatches.
pub fn oracle(
    world: &World,
    outs: &[Outcome],
    recs: &[Rec],
    records: &[SignalRecord],
) -> Vec<String> {
    let streams = per_premises(outs, recs);
    let by_rec: std::collections::HashMap<usize, &Outcome> =
        outs.iter().map(|o| (o.rec, o)).collect();
    let chunks: Vec<&[(u64, Vec<usize>)]> =
        streams.chunks(streams.len().div_ceil(CONNS).max(1)).collect();
    let results: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let by_rec = &by_rec;
                s.spawn(move || {
                    chunk
                        .iter()
                        .flat_map(|(p, idx)| {
                            let rs: Vec<&SignalRecord> = idx.iter().map(|&i| &records[i]).collect();
                            let decisions = replay_infer(world, &rs);
                            idx.iter()
                                .zip(decisions)
                                .enumerate()
                                .filter(|(_, (&i, d))| !same_decision(by_rec[&i], d))
                                .map(|(k, (&i, d))| {
                                    format!(
                                        "premises {p} record {k}: served {:?}, replay {:?}",
                                        by_rec[&i].decision.map(|x| (x.inside, x.score)),
                                        (d.label, d.score)
                                    )
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("oracle thread panicked")).collect()
    });
    results.into_iter().flatten().collect()
}

/// The no-known-MAC rule: a scan sharing no MAC with the premises is
/// declared outside with score 1, and nothing else may happen to it.
pub fn check_fast_path(
    world: &World,
    outs: &[Outcome],
    recs: &[Rec],
    records: &[SignalRecord],
) -> Vec<String> {
    let known = world.base.graph();
    outs.iter()
        .filter(|o| !recs[o.rec].truth_in)
        .filter(|o| !known.has_known_mac(&records[o.rec]))
        .filter_map(|o| match o.decision {
            Some(d) if !d.inside && d.score == 1.0 => None,
            Some(d) => Some(format!(
                "away scan {} with no known MAC decided inside={} score={}",
                o.rec, d.inside, d.score
            )),
            None => None,
        })
        .collect()
}

/// Mean `GemSnapshot` JSON size, MB.
pub fn mean_state_mb<'a>(gems: impl IntoIterator<Item = &'a Gem>) -> Result<f64, String> {
    let mut total = 0usize;
    let mut n = 0usize;
    for gem in gems {
        total += GemSnapshot::capture(gem).to_json().map_err(|e| e.to_string())?.len();
        n += 1;
    }
    if n == 0 {
        return Err("no premises state to measure".into());
    }
    Ok(total as f64 / n as f64 / 1e6)
}

/// Mean size of the image files the manifest in `dir` names, one per
/// premises, MB. The manifest must name `premises` premises.
pub fn manifest_state_mb(dir: &Path, premises: usize) -> Result<f64, String> {
    let manifest = FleetManifest::load(dir).map_err(|e| e.to_string())?;
    if manifest.premises.len() != premises {
        return Err(format!(
            "the final manifest names {} premises, the fleet serves {premises}",
            manifest.premises.len()
        ));
    }
    let mut total = 0u64;
    for entry in &manifest.premises {
        let path = dir.join(&entry.snapshot_file);
        total += std::fs::metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?.len();
    }
    Ok(total as f64 / premises.max(1) as f64 / 1e6)
}

/// Returns the heap that earlier work freed to the system (glibc
/// `malloc_trim`) and resets this process's peak resident set size
/// (`VmHWM`) to what is left, so a later reading is the peak of what
/// runs in between.
pub fn reset_rss_peak() -> Result<(), String> {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free heap pages; it is safe
    // to call at any time from any thread.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process, MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Dec;

    fn served(rec: usize, d: &Decision) -> Outcome {
        let now = Instant::now();
        Outcome {
            rec,
            due: now,
            sent: now,
            ack: Some(now),
            decision: Some(Dec {
                at: now,
                inside: d.label == Label::In,
                score: d.score,
                latency_s: 0.0,
            }),
        }
    }

    #[test]
    fn oracle_flags_a_flipped_label_a_score_one_ulp_off_and_a_missing_decision() {
        let world = World::build(3, 60.0);
        let mut inputs = Inputs {
            recs: Vec::new(),
            records: Vec::new(),
            plans: Vec::new(),
            premises: vec![1],
            days: 2,
        };
        let idx = push_stream(&mut inputs, 1, &world::home_stream(&world, 1, 12));
        let refs: Vec<&SignalRecord> = idx.iter().map(|&i| &inputs.records[i]).collect();
        let want = replay_infer(&world, &refs);
        let honest: Vec<Outcome> = idx.iter().zip(&want).map(|(&i, d)| served(i, d)).collect();
        let check = |outs: &[Outcome]| oracle(&world, outs, &inputs.recs, &inputs.records);
        assert!(check(&honest).is_empty(), "{:?}", check(&honest));

        let mut flipped = honest.clone();
        let d = flipped[5].decision.as_mut().unwrap();
        d.inside = !d.inside;
        assert_eq!(check(&flipped).len(), 1);

        let mut nudged = honest.clone();
        let d = nudged[7].decision.as_mut().unwrap();
        d.score = f64::from_bits(d.score.to_bits() + 1);
        assert!(!same_decision(&nudged[7], &want[7]));
        assert_eq!(check(&nudged).len(), 1);

        let mut missing = honest.clone();
        missing[2].decision = None;
        assert_eq!(check(&missing).len(), 1);
    }

    #[test]
    fn ledger_flags_every_count_that_differs() {
        let client =
            Ledger { sent: 10, acks: 10, admitted: 9, shed: 1, busy: 0, decisions: 9, alerts: 0 };
        let server = ServerLedger {
            frames: 10,
            fleet_admitted: 9,
            ingress_admitted: 9,
            shed: 1,
            ..ServerLedger::default()
        };
        assert!(ledger_violations(&client, &server).is_empty());

        let clients = [
            Ledger { acks: 9, ..client },
            Ledger { decisions: 8, ..client },
            Ledger { busy: 1, ..client },
        ];
        for c in clients {
            assert_eq!(ledger_violations(&c, &server).len(), 1, "{c:?}");
        }
        let servers = [
            ServerLedger { frames: 11, ..server.clone() },
            ServerLedger { fleet_admitted: 10, ..server.clone() },
            ServerLedger { ingress_admitted: 8, ..server.clone() },
            ServerLedger { shed: 0, ..server.clone() },
            ServerLedger { dropped_events: 1, ..server.clone() },
            ServerLedger { rejects: 1, ..server.clone() },
            ServerLedger { orphans: 1, ..server.clone() },
        ];
        for s in servers {
            assert_eq!(ledger_violations(&client, &s).len(), 1, "{s:?}");
        }
    }
}
