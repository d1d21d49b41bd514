//! The traced run: the workload once untraced and once with client
//! spans, then deterministic replays of the same inputs into each
//! layer's public functions, with a span around every call. No tracing
//! is added inside the program; every span is recorded here.

use std::path::Path;
use std::time::Instant;

use gem_core::{Decision, Gem, GemSnapshot};
use gem_graph::{MacId, NodeId};
use gem_nn::kernels;
use gem_service::journal::{JournalEntry, JournalWriter};
use gem_service::wire::{self, Frame};
use gem_service::{Fleet, FleetConfig, Monitor, MonitorConfig};
use gem_signal::{Label, SignalRecord};

use crate::bench::{self, Kind, Resume, Sizing, Stack, SHARDS};
use crate::client::Outcome;
use crate::spans::SpanLog;
use crate::stats::{chain_self, day_of, median, percentile, tail_percentile};
use crate::world::World;
use crate::Report;

/// Records per premises the fleet-commute replays take (its streams are
/// long and nearly all of them take the same fast path).
const COMMUTE_REPLAY: usize = 200;
/// Epochs the journal replay commits (each one is an fsync).
const JOURNAL_EPOCHS: usize = 200;
/// Repetitions behind each persist timing.
const PERSIST_REPS: usize = 3;

/// Per-record results of the model replays of one premises.
struct PremisesReplay {
    /// Record indices, in stream order.
    idx: Vec<usize>,
    decisions: Vec<Decision>,
    end: Gem,
    spans: SpanLog,
    problems: Vec<String>,
}

/// Replays one premises' stream through `Gem::infer`, then through the
/// decomposed stages, then through `Monitor::process` and
/// `Monitor::process_batch` at `epoch` records per batch.
fn replay_premises(
    world: &World,
    premises: u64,
    idx: Vec<usize>,
    records: &[SignalRecord],
    epoch: usize,
    t0: Instant,
) -> PremisesReplay {
    let mut log = SpanLog::new(t0);
    let mut problems = Vec::new();
    let trace = |i: usize| i as u64 + 1;

    let mut gem = world.fresh_gem();
    let mut decisions = Vec::with_capacity(idx.len());
    for &i in &idx {
        let s = Instant::now();
        let d = gem.infer(&records[i]);
        log.record("gem.infer", trace(i), s, Instant::now());
        decisions.push(d);
    }

    let mut staged = world.fresh_gem();
    for (k, &i) in idx.iter().enumerate() {
        let s = Instant::now();
        let h = staged.add_and_embed(&records[i]);
        log.record("gem.embed", trace(i), s, Instant::now());
        let d = match h {
            None => Decision { label: Label::Out, score: 1.0, updated: false, known_macs: false },
            Some(h) => {
                let s = Instant::now();
                let det = staged.detect_only(&h);
                log.record("gem.detect", trace(i), s, Instant::now());
                let s = Instant::now();
                let updated = staged.update_with(&h);
                log.record("gem.update", trace(i), s, Instant::now());
                Decision {
                    label: if det.is_outlier { Label::Out } else { Label::In },
                    score: det.score,
                    updated,
                    known_macs: true,
                }
            }
        };
        let want = &decisions[k];
        if d.label != want.label
            || d.score.to_bits() != want.score.to_bits()
            || d.updated != want.updated
        {
            problems.push(format!(
                "premises {premises} record {k}: staged replay {:?} differs from Gem::infer {:?}",
                d, want
            ));
        }
    }

    let mut monitor = Monitor::new(world.fresh_gem(), MonitorConfig::default());
    for &i in &idx {
        let s = Instant::now();
        monitor.process(&records[i]);
        log.record("monitor.process", trace(i), s, Instant::now());
    }
    let mut batched = Monitor::new(world.fresh_gem(), MonitorConfig::default());
    for chunk in idx.chunks(epoch) {
        let batch: Vec<SignalRecord> = chunk.iter().map(|&i| records[i].clone()).collect();
        let s = Instant::now();
        batched.process_batch(&batch);
        log.record("monitor.batch", trace(chunk[0]), s, Instant::now());
    }
    PremisesReplay { idx, decisions, end: gem, spans: log, problems }
}

/// Median capture (+ JSON) and restore (from JSON) milliseconds and the
/// image size in MB.
fn persist_costs(gem: &Gem, log: &mut SpanLog) -> Result<(f64, f64, f64), String> {
    let (mut cap, mut res) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    for _ in 0..PERSIST_REPS {
        let s = Instant::now();
        let json = GemSnapshot::capture(gem).to_json().map_err(|e| e.to_string())?;
        cap.push(log.record("persist.capture", 0, s, Instant::now()) / 1e6);
        bytes = json.len();
        let s = Instant::now();
        let restored =
            GemSnapshot::from_json(&json).and_then(|g| g.restore()).map_err(|e| e.to_string())?;
        res.push(log.record("persist.restore", 0, s, Instant::now()) / 1e6);
        drop(restored);
    }
    Ok((median(&cap), median(&res), bytes as f64 / 1e6))
}

/// `kernels::matmul` at the engine's per-record shape (1 × 2d · 2d × d).
fn matmul_ns(dim: usize, log: &mut SpanLog) -> f64 {
    let (m, k, n) = (1, 2 * dim, dim);
    let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
    let mut out = vec![0f32; m * n];
    const CALLS: usize = 20_000;
    let mut blocks = Vec::new();
    for _ in 0..15 {
        let s = Instant::now();
        for _ in 0..CALLS {
            kernels::matmul(std::hint::black_box(&a), &b, &mut out, m, k, n);
            std::hint::black_box(&mut out);
        }
        blocks.push(log.record("nn.matmul_block", 0, s, Instant::now()) / CALLS as f64);
    }
    median(&blocks)
}

/// Means of a span over a record set (by trace id), microseconds.
fn mean_us(log: &SpanLog, name: &str, traces: Option<&std::collections::HashSet<u64>>) -> f64 {
    let v: Vec<f64> = log
        .spans()
        .iter()
        .filter(|s| s.name == name && traces.is_none_or(|t| t.contains(&s.trace)))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The summed durations of a span over `n` records, microseconds per
/// record (for stages that not every record reaches).
fn per_record_us(log: &SpanLog, name: &str, n: usize) -> f64 {
    log.durations(name).iter().sum::<f64>() / 1e3 / n.max(1) as f64
}

/// The records each premises replays.
fn replay_set(kind: Kind, stack: &Stack, all: &[Outcome]) -> Vec<(u64, Vec<usize>)> {
    let inputs = &stack.inputs;
    let streams = bench::per_premises(all, &inputs.recs);
    match kind {
        // The premises of the first session or round, whole.
        Kind::SessionLong | Kind::ColdTier => {
            let first: std::collections::HashSet<u64> =
                inputs.plans[0].iter().flatten().map(|&i| inputs.recs[i].premises).collect();
            streams.into_iter().filter(|(p, _)| first.contains(p)).collect()
        }
        Kind::FleetCommute => streams
            .into_iter()
            .map(|(p, mut idx)| {
                idx.truncate(COMMUTE_REPLAY);
                (p, idx)
            })
            .collect(),
    }
}

pub fn traced_run(kind: Kind, sz: &Sizing, seed: u64, out: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let mut stack = bench::setup(kind, sz, seed, out)?;
    let t0 = Instant::now();
    let mut resume = Resume::new();
    // Untraced and traced halves on the same stack: the difference in
    // throughput is the tracing overhead.
    let plain = bench::measure(&mut stack, sz, 0.5, None, &mut resume)?;
    let mut traced = bench::measure(&mut stack, sz, 0.5, Some(t0), &mut resume)?;
    let mut log = traced.spans.take().expect("a traced pass keeps spans");
    let all: Vec<Outcome> = plain.all.iter().chain(&traced.all).cloned().collect();

    // Checks, as in the untraced run.
    r.problems.extend(bench::check_ledger(&stack));
    let ledger = stack.ledger();
    r.attempted = ledger.sent;
    r.failed = ledger.sent - ledger.decisions;
    let inputs = &stack.inputs;
    if kind == Kind::FleetCommute {
        r.problems.extend(
            bench::check_fast_path(&stack.world, &all, &inputs.recs, &inputs.records)
                .into_iter()
                .take(5),
        );
    } else {
        let bad = bench::oracle(&stack.world, &all, &inputs.recs, &inputs.records);
        r.problems.extend(bad.into_iter().take(5));
    }

    // Live-fleet figures.
    let fs = stack.fleet.fleet_stats();
    let (busy, idle): (u64, u64) =
        fs.shards.iter().fold((0, 0), |(b, i), s| (b + s.busy_ns, i + s.idle_ns));
    let hydrations: u64 = fs.shards.iter().map(|s| s.hydrations).sum();
    let evictions: u64 = fs.shards.iter().map(|s| s.evictions).sum();
    let ms = stack.fleet.stats_snapshot();
    let scans: u64 = ms.iter().map(|(_, s)| s.scans as u64).sum();
    let epochs: u64 = ms.iter().map(|(_, s)| s.epochs).sum();
    let records_per_epoch = scans as f64 / epochs.max(1) as f64;
    let registry = stack.fleet.registry();
    // The shards' own timers inside a drain pass, as (ns, count) summed
    // over shards: hydrations (snapshot read through journal replay),
    // journal appends and fsyncs, and decision epochs. The rest of a
    // pass's busy time is untimed: the spills of evicted premises and
    // the pass's own bookkeeping.
    let timer = |name: &str| {
        (0..SHARDS).fold((0u64, 0u64), |(sum, n), shard| {
            let h = registry.histogram(name, &[("shard", shard.to_string().as_str())]);
            (sum + h.sum(), n + h.count())
        })
    };
    let (hydrate_ns, hydrate_n) = timer("gem_premises_hydrate_seconds");
    let timed_ns = hydrate_ns
        + timer("gem_journal_append_seconds").0
        + timer("gem_journal_fsync_seconds").0
        + timer("gem_shard_epoch_seconds").0;
    let untimed_ns = busy.saturating_sub(timed_ns);
    let mut scrape = Vec::new();
    for _ in 0..5 {
        let s = Instant::now();
        std::hint::black_box(registry.render_prometheus());
        scrape.push(log.record("obs.scrape", 0, s, Instant::now()) / 1e6);
    }
    let decisions = ledger.decisions.max(1) as f64;

    // Client-side figures from the traced pass.
    let mut decide: Vec<f64> =
        traced.all.iter().filter_map(|o| o.decision.map(|d| d.latency_s * 1e3)).collect();
    decide.sort_by(f64::total_cmp);
    if decide.is_empty() {
        return Err("the traced pass decided nothing".into());
    }
    let decide_p50 = percentile(&decide, 50.0);
    let decide_tail = percentile(&decide, tail_percentile(decide.len()).unwrap_or(50.0));
    let ack_rtt: Vec<f64> = traced
        .all
        .iter()
        .filter_map(|o| o.ack.map(|a| a.duration_since(o.sent).as_nanos() as f64 / 1e3))
        .collect();
    let overhead: Vec<f64> = traced
        .all
        .iter()
        .filter_map(|o| {
            o.decision
                .map(|d| d.at.duration_since(o.sent).as_nanos() as f64 / 1e3 - d.latency_s * 1e6)
        })
        .collect();
    let e2e_mean_us = traced
        .all
        .iter()
        .filter_map(|o| o.decision.map(|d| d.at.duration_since(o.sent).as_nanos() as f64 / 1e3))
        .sum::<f64>()
        / decide.len() as f64;
    let decide_mean_us = decide.iter().sum::<f64>() / decide.len() as f64 * 1e3;
    let gen_lag_p99 = if traced.gen_lag_ns.is_empty() {
        0.0
    } else {
        let mut lag = traced.gen_lag_ns.clone();
        lag.sort_by(f64::total_cmp);
        percentile(&lag, tail_percentile(lag.len()).unwrap_or(50.0)) / 1e6
    };
    let overhead_frac = 1.0 - traced.throughput() / plain.throughput();

    let replays = replay_set(kind, &stack, &all);
    let world_epoch = records_per_epoch.round().max(1.0) as usize;
    let Stack { world, inputs, fleet: live, server, conns, dir, .. } = stack;
    drop(conns);
    drop(server);
    live.abort();
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    // Model replays, premises split over two threads.
    let chunks: Vec<Vec<(u64, Vec<usize>)>> = {
        let per = replays.len().div_ceil(2).max(1);
        replays.chunks(per).map(<[_]>::to_vec).collect()
    };
    let results: Vec<PremisesReplay> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let (world, records) = (&world, &inputs.records);
                s.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|(p, idx)| replay_premises(world, p, idx, records, world_epoch, t0))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("replay thread panicked")).collect()
    });

    let days = inputs.days;
    let mut first = std::collections::HashSet::new();
    let mut last = std::collections::HashSet::new();
    let (mut n_rec, mut updated, mut known, mut hits, mut misses) =
        (0usize, 0usize, 0usize, 0u64, 0u64);
    let (mut g_records, mut g_edges, mut g_maxdeg) = (0.0, 0.0, 0.0);
    let mut infer_ns = Vec::new();
    for rep in &results {
        r.problems.extend(rep.problems.iter().take(5).cloned());
        for (k, &i) in rep.idx.iter().enumerate() {
            match day_of(k, rep.idx.len(), days) {
                0 => {
                    first.insert(i as u64 + 1);
                }
                d if d + 1 == days => {
                    last.insert(i as u64 + 1);
                }
                _ => {}
            }
        }
        n_rec += rep.decisions.len();
        updated += rep.decisions.iter().filter(|d| d.updated).count();
        known += rep.decisions.iter().filter(|d| d.known_macs).count();
        let cache = rep.end.cache_stats();
        hits += cache.hits;
        misses += cache.misses;
        let g = rep.end.graph();
        g_records += g.n_records() as f64;
        g_edges += g.n_edges() as f64;
        g_maxdeg +=
            (0..g.n_macs()).map(|m| g.degree(NodeId::Mac(MacId(m as u32)))).max().unwrap_or(0)
                as f64;
        infer_ns.extend(rep.spans.durations("gem.infer"));
    }
    let n_prem = results.len().max(1) as f64;
    let (base_cap, base_res, base_mb) = persist_costs(&world.base, &mut log)?;
    let end_gem = results
        .iter()
        .max_by_key(|rep| rep.end.graph().n_records())
        .map(|rep| &rep.end)
        .ok_or("nothing was replayed")?;
    let (end_cap, end_res, end_mb) = persist_costs(end_gem, &mut log)?;
    let embeddable_calls = known.max(1) as f64;
    let matmuls_per_record = 1.0 + misses as f64 / embeddable_calls;
    let mm_ns = matmul_ns(world.base.cfg.embedding_dim, &mut log);
    let dim = world.base.cfg.embedding_dim as f64;

    // Wire: re-encode and decode the replayed records' frames.
    let (mut enc, mut dec, mut bytes, mut frames) = (0f64, 0f64, 0usize, 0usize);
    let mut buf = Vec::with_capacity(256);
    for (_, idx) in &replays {
        for &i in idx {
            let raw = &inputs.recs[i].frame;
            let payload = &raw[wire::HEADER_LEN..];
            let s = Instant::now();
            let frame =
                wire::decode_payload(std::hint::black_box(payload)).map_err(|e| e.to_string())?;
            dec += log.record("wire.decode", i as u64 + 1, s, Instant::now());
            buf.clear();
            let s = Instant::now();
            wire::encode(std::hint::black_box(&frame), &mut buf);
            enc += log.record("wire.encode", i as u64 + 1, s, Instant::now());
            if buf != *raw {
                r.problems.push(format!("wire: record {i} does not re-encode to its own frame"));
            }
            if !matches!(frame, Frame::Record { .. }) {
                r.problems.push(format!("wire: record {i} decodes to {frame:?}"));
            }
            bytes += raw.len();
            frames += 1;
        }
    }

    // Journal: the replayed records as epochs of the observed size.
    let jdir = bench::fresh_dir(out, "journal")?;
    let mut journal = JournalWriter::open(jdir.join("journal.log")).map_err(|e| e.to_string())?;
    let (mut commit_us, mut j_bytes, mut j_recs, mut j_epochs) = (0f64, 0usize, 0usize, 0usize);
    'outer: for (p, idx) in &replays {
        for (e, chunk) in idx.chunks(world_epoch).enumerate() {
            if j_epochs == JOURNAL_EPOCHS {
                break 'outer;
            }
            let entry = JournalEntry {
                premises_id: *p,
                epoch: e as u64 + 1,
                records: chunk.iter().map(|&i| inputs.records[i].clone()).collect(),
            };
            let s = Instant::now();
            j_bytes += journal.append_nosync(&entry).map_err(|e| e.to_string())?;
            journal.commit().map_err(|e| e.to_string())?;
            commit_us += log.record("journal.commit", chunk[0] as u64 + 1, s, Instant::now()) / 1e3;
            j_recs += chunk.len();
            j_epochs += 1;
        }
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&jdir);

    // Fleet::submit into a paused two-premises fleet.
    let submit_ns = submit_replay(&world, &replays, &inputs.records, &mut log)?;

    for rep in results {
        log.absorb(rep.spans);
    }

    let gem_infer_us = mean_us(&log, "gem.infer", None);
    let embed_us = mean_us(&log, "gem.embed", None);
    let detect_us = per_record_us(&log, "gem.detect", n_rec);
    let update_us = per_record_us(&log, "gem.update", n_rec);
    let monitor_us = mean_us(&log, "monitor.process", None);
    let batch_us = per_record_us(&log, "monitor.batch", n_rec);
    // Persist time per decided record: the hydrations as the fleet timed
    // them, plus, where premises were evicted, the untimed rest of the
    // shards' busy time, which the spills dominate there.
    let hydrate_ms_per_record = hydrate_ns as f64 / 1e6 / decisions;
    let spill_ms_per_record = if evictions > 0 { untimed_ns as f64 / 1e6 / decisions } else { 0.0 };
    let persist_per_record_ms = hydrate_ms_per_record + spill_ms_per_record;
    r.notes.push(format!(
        "shard busy time outside the fleet's hydrate, journal and epoch timers: {:.3} ms per record",
        untimed_ns as f64 / 1e6 / decisions
    ));

    r.put("gem.infer_us", gem_infer_us, "us", n_rec);
    r.put("gem.infer_us.first_day", mean_us(&log, "gem.infer", Some(&first)), "us", first.len());
    r.put("gem.infer_us.last_day", mean_us(&log, "gem.infer", Some(&last)), "us", last.len());
    r.put("gem.embed_us", embed_us, "us", n_rec);
    r.put("gem.embed_us.last_day", mean_us(&log, "gem.embed", Some(&last)), "us", last.len());
    r.put("gem.detect_us", detect_us, "us", n_rec);
    r.put("gem.update_us", update_us, "us", n_rec);
    r.put("gem.update_frac", updated as f64 / n_rec.max(1) as f64, "ratio", n_rec);
    r.put("gem.known_mac_frac", known as f64 / n_rec.max(1) as f64, "ratio", n_rec);
    r.put(
        "infer.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        (hits + misses) as usize,
    );
    r.put("graph.records_end", g_records / n_prem, "count", n_prem as usize);
    r.put("graph.edges_end", g_edges / n_prem, "count", n_prem as usize);
    r.put("graph.max_mac_degree_end", g_maxdeg / n_prem, "count", n_prem as usize);
    r.put("nn.matmul_ns", mm_ns, "ns", 15);
    r.put("nn.matmul_flops", 2.0 * 2.0 * dim * dim, "flop", 0);
    r.put("nn.matmuls_per_record", matmuls_per_record, "count", known);
    r.put("monitor.process_us", monitor_us, "us", n_rec);
    r.put("monitor.batch_us_per_record", batch_us, "us", n_rec);
    r.put("fleet.submit_ns", submit_ns, "ns", 0);
    r.put("fleet.decide_p50_ms", decide_p50, "ms", decide.len());
    r.put("fleet.decide_p99_ms", decide_tail, "ms", decide.len());
    r.put("fleet.records_per_epoch", records_per_epoch, "count", epochs as usize);
    r.put("fleet.busy_frac", busy as f64 / (busy + idle).max(1) as f64, "ratio", 0);
    r.put(
        "fleet.hydrations_per_record",
        hydrations as f64 / decisions,
        "ratio",
        hydrations as usize,
    );
    r.put("fleet.evictions_per_record", evictions as f64 / decisions, "ratio", evictions as usize);
    r.put(
        "fleet.hydrate_ms",
        hydrate_ns as f64 / 1e6 / hydrate_n.max(1) as f64,
        "ms",
        hydrate_n as usize,
    );
    r.put("persist.capture_ms", end_cap, "ms", PERSIST_REPS);
    r.put("persist.restore_ms", end_res, "ms", PERSIST_REPS);
    r.put("persist.image_mb", end_mb, "MB", 0);
    r.put("persist.capture_ms.base", base_cap, "ms", PERSIST_REPS);
    r.put("persist.restore_ms.base", base_res, "ms", PERSIST_REPS);
    r.put("persist.image_mb.base", base_mb, "MB", 0);
    r.put("journal.commit_us", commit_us / j_epochs.max(1) as f64, "us", j_epochs);
    r.put("journal.bytes_per_record", j_bytes as f64 / j_recs.max(1) as f64, "B", j_recs);
    r.put("wire.encode_ns", enc / frames.max(1) as f64, "ns", frames);
    r.put("wire.decode_ns", dec / frames.max(1) as f64, "ns", frames);
    r.put("wire.record_bytes", bytes as f64 / frames.max(1) as f64, "B", frames);
    r.put(
        "ingress.ack_rtt_p50_us",
        if ack_rtt.is_empty() { 0.0 } else { median(&ack_rtt) },
        "us",
        ack_rtt.len(),
    );
    r.put(
        "ingress.overhead_p50_us",
        if overhead.is_empty() { 0.0 } else { median(&overhead) },
        "us",
        overhead.len(),
    );
    r.put_extra("loadgen.gen_lag_p99_ms", gen_lag_p99, "ms", traced.gen_lag_ns.len());
    r.put("obs.scrape_ms", median(&scrape), "ms", scrape.len());
    r.put("trace.overhead_frac", overhead_frac, "ratio", 0);
    // Shares of the decision's server time: against the client-seen
    // decide p50 (which includes queueing behind other records) and
    // against the shards' busy time per decided record.
    let busy_ms_per_record = busy as f64 / 1e6 / decisions;
    let gem_ms = median(&infer_ns) / 1e6;
    r.put("share.gem_of_decide", gem_ms / decide_p50, "ratio", infer_ns.len());
    r.put("share.gem_of_busy", gem_infer_us / 1e3 / busy_ms_per_record, "ratio", 0);
    r.put("share.hydrate_of_busy", hydrate_ms_per_record / busy_ms_per_record, "ratio", 0);
    r.put("share.persist_of_decide", persist_per_record_ms / decide_p50, "ratio", 0);
    r.put("share.persist_of_busy", persist_per_record_ms / busy_ms_per_record, "ratio", 0);
    r.put_extra(
        "throughput_rps.untraced",
        plain.throughput(),
        "1/s",
        plain.thr_decisions() as usize,
    );
    r.put_extra(
        "throughput_rps.traced",
        traced.throughput(),
        "1/s",
        traced.thr_decisions() as usize,
    );

    // Self time along the blocking chain, µs per record: each layer's
    // inclusive cost minus that of the layer below it.
    let chain = [
        ("client+wire+ingress", e2e_mean_us),
        ("fleet (queue/journal/tier)", decide_mean_us),
        ("monitor", monitor_us),
        ("gem (detect/update)", gem_infer_us),
        ("infer+graph (embed)", embed_us),
        ("nn (matmul)", mm_ns * matmuls_per_record / 1e3),
    ];
    let selfs = chain_self(&chain);
    let mut summary = String::from("{\"workload\":\"");
    summary.push_str(kind.name());
    summary.push_str("\",\"unit\":\"us/record\",\"layers\":[");
    for (k, ((name, incl), (_, own))) in chain.iter().zip(&selfs).enumerate() {
        r.notes.push(format!(
            "self time {name:<28} inclusive {incl:>10.2} us  self {own:>10.2} us  ({:>5.1}% of e2e)",
            100.0 * own / e2e_mean_us
        ));
        if k > 0 {
            summary.push(',');
        }
        summary.push_str(&format!("{{\"layer\":\"{name}\",\"inclusive\":{incl},\"self\":{own}}}"));
    }
    summary.push_str("]}\n");
    let stem = format!("{}-seed{seed}", kind.name());
    let span_path = out.join(format!("spans-{stem}.jsonl"));
    log.write_jsonl(&span_path).map_err(|e| format!("writing {}: {e}", span_path.display()))?;
    let sum_path = out.join(format!("selftime-{stem}.json"));
    std::fs::write(&sum_path, summary)
        .map_err(|e| format!("writing {}: {e}", sum_path.display()))?;
    r.notes.push(format!(
        "{} spans in {}; self-time summary in {}",
        log.spans().len(),
        span_path.display(),
        sum_path.display()
    ));
    r.notes.push(format!(
        "tracing overhead: {:.2}% ({:.1} traced vs {:.1} untraced decisions/s)",
        100.0 * overhead_frac,
        traced.throughput(),
        plain.throughput()
    ));
    Ok(r)
}

/// Times `Fleet::submit` into a paused fleet of two fresh premises until
/// admission would shed, then lets the fleet decide the backlog.
fn submit_replay(
    world: &World,
    replays: &[(u64, Vec<usize>)],
    records: &[SignalRecord],
    log: &mut SpanLog,
) -> Result<f64, String> {
    let picked: Vec<&(u64, Vec<usize>)> = replays.iter().take(2).collect();
    let monitors = picked
        .iter()
        .map(|(p, _)| (*p, Monitor::new(world.fresh_gem(), MonitorConfig::default())))
        .collect();
    let fleet = Fleet::spawn(monitors, FleetConfig { shards: SHARDS, ..FleetConfig::default() })
        .map_err(|e| e.to_string())?;
    fleet.pause();
    let quota = fleet.admission_quota();
    let (mut total, mut n) = (0f64, 0usize);
    for j in 0..quota {
        for (p, idx) in &picked {
            let Some(&i) = idx.get(j) else { continue };
            let record = records[i].clone();
            let s = Instant::now();
            let admission = fleet.submit(*p, record);
            total += log.record("fleet.submit", i as u64 + 1, s, Instant::now());
            if !admission.accepted() {
                return Err(format!("submit replay shed a record within the quota: {admission:?}"));
            }
            n += 1;
        }
    }
    fleet.flush().map_err(|e| e.to_string())?;
    fleet.shutdown().map_err(|e| e.to_string())?;
    Ok(total / n.max(1) as f64)
}
