//! Observability smoke test, sized for CI: train two small tenants,
//! run a durable fleet with full metrics on, serve its registry on a
//! real TCP port, then scrape `/metrics` and `/metrics.json` exactly
//! like a monitoring agent would and validate the exposition — format,
//! required metric names, and non-zero activity counters. The fleet
//! runs with request tracing fully on (`trace_sample: 1.0`), so the
//! smoke also drains `/trace.jsonl` and validates the span stream:
//! every record yields a six-stage span whose stages cover ≥90% of its
//! end-to-end time, and the decision-latency histogram's bucket
//! exemplars point back at real span trace ids, the expected
//! operational event kinds showed up, and a second scrape after a fresh
//! snapshot serves only that round's events.
//!
//! The parsed `/metrics.json` scrape is appended to `BENCH_metrics.json`
//! at the repo root (tagged `"bench": "metrics"`), so `bench_schema`
//! validates the JSON exposition against `crates/bench/schemas/`.
//!
//! Exits non-zero (panics) on any violation. `GEM_BENCH_QUICK=1`
//! shrinks tenant training.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use gem_core::{Gem, GemConfig};
use gem_obs::MetricsServer;
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_service::{Fleet, FleetConfig, Monitor, MonitorConfig, ObsOptions};
use gem_signal::SignalRecord;

/// Every metric family the fleet promises to expose (ISSUE acceptance
/// list). All are registered at spawn, so each must appear in a scrape
/// even when its value is still zero.
const REQUIRED_METRICS: &[&str] = &[
    "gem_fleet_submitted_total",
    "gem_fleet_admission_total",
    "gem_shard_epochs_total",
    "gem_shard_epoch_seconds",
    "gem_shard_decision_latency_seconds",
    "gem_shard_queue_depth",
    "gem_shard_dropped_events_total",
    "gem_shard_snapshot_seconds",
    "gem_shard_busy_ns_total",
    "gem_shard_idle_ns_total",
    "gem_journal_append_seconds",
    "gem_journal_fsync_seconds",
    "gem_journal_retain_seconds",
    "gem_journal_appends_total",
    "gem_journal_bytes_total",
    "gem_monitor_decisions_total",
    "gem_monitor_alerts_total",
    "gem_monitor_self_updates_total",
    "gem_monitor_epochs_total",
    "gem_shard_hot_premises",
    "gem_shard_cold_premises",
    "gem_shard_evictions_total",
    "gem_shard_hydrations_total",
    "gem_premises_hydrate_seconds",
    "gem_premises_spill_seconds",
    "gem_fleet_snapshot_errors_total",
    "gem_trace_dropped_total",
];

fn quick() -> bool {
    std::env::var("GEM_BENCH_QUICK").as_deref() == Ok("1")
}

fn tenants() -> (Vec<(u64, Monitor)>, Vec<Vec<SignalRecord>>) {
    let mut monitors = Vec::new();
    let mut streams = Vec::new();
    for user in 1..=2u32 {
        let mut cfg = ScenarioConfig::user(user);
        cfg.train_duration_s = if quick() { 90.0 } else { 180.0 };
        cfg.n_test_in = 12;
        cfg.n_test_out = 12;
        let ds = Scenario::build(cfg).generate();
        let gem = Gem::fit(GemConfig::default(), &ds.train);
        monitors.push((user as u64 * 11 + 2, Monitor::new(gem, MonitorConfig::default())));
        streams.push(ds.test.iter().map(|t| t.record.clone()).collect());
    }
    (monitors, streams)
}

/// One HTTP GET against the metrics server, the way `curl` would do it.
/// Returns (status line, headers, body).
fn scrape(addr: std::net::SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("response has a header block");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// Validates the Prometheus text exposition: every line is a comment or
/// a `name{labels} value` sample with a parseable float value.
fn check_exposition(text: &str) {
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("malformed sample line: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "sample value must be numeric: {line:?}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition has no samples");
}

fn main() {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/obs-smoke"));
    let _ = std::fs::remove_dir_all(&dir);

    println!("training 2 tenants...");
    let (monitors, streams) = tenants();
    let ids: Vec<u64> = monitors.iter().map(|(p, _)| *p).collect();
    // A hot cap of one resident premises per shard makes the tiering
    // instruments (gauges, eviction/hydration counters, hydrate
    // histogram) carry real churn whenever both tenants share a shard.
    let cfg = FleetConfig {
        shards: 2,
        max_batch: 4,
        dir: Some(dir.clone()),
        hot_premises_per_shard: Some(1),
        // Trace every record: the span checks below want full coverage,
        // not a sampled subset.
        obs: ObsOptions { trace_sample: 1.0, ..ObsOptions::default() },
        ..FleetConfig::default()
    };
    let fleet = Fleet::spawn(monitors, cfg).unwrap();
    let server =
        MetricsServer::bind_with_traces("127.0.0.1:0", fleet.registry(), fleet.trace_rings())
            .expect("bind metrics");
    let addr = server.local_addr();
    println!("metrics on http://{addr}/metrics");

    // Stream every held-out record, then snapshot: exercises admission,
    // epochs, the journal (append + fsync + retain), the snapshot path
    // and the per-premises monitor counters.
    for (id, stream) in ids.iter().zip(&streams) {
        for record in stream {
            assert!(fleet.submit(*id, record.clone()).accepted(), "smoke submit shed");
        }
    }
    fleet.flush().unwrap();
    fleet.snapshot().unwrap();
    while fleet.events().try_recv().is_ok() {}

    // Tiering invariants: the hot gauges respect the cap, every tenant
    // is accounted hot or cold, and co-located tenants really churned.
    let stats = fleet.fleet_stats();
    let mut accounted = 0i64;
    for s in &stats.shards {
        assert!(s.hot_premises <= 1, "hot tier must respect the cap: {s:?}");
        accounted += s.hot_premises + s.cold_premises;
    }
    assert_eq!(accounted as usize, ids.len(), "every premises is hot or cold");
    if stats.shards.iter().any(|s| s.hot_premises + s.cold_premises == 2) {
        assert!(
            stats.shards.iter().any(|s| s.evictions > 0 && s.hydrations > 0),
            "two tenants over a cap of 1 must evict and hydrate: {:?}",
            stats.shards
        );
    }
    assert_eq!(stats.snapshot_errors, 0, "snapshot rounds must not error");

    // --- /metrics: Prometheus text exposition ---
    let (status, headers, body) = scrape(addr, "/metrics");
    assert!(status.contains("200"), "GET /metrics: {status}");
    assert!(
        headers.to_ascii_lowercase().contains("text/plain"),
        "text exposition content type: {headers}"
    );
    check_exposition(&body);
    for name in REQUIRED_METRICS {
        assert!(
            body.lines().any(|l| l.starts_with(name) && !l.starts_with('#')),
            "scrape is missing required metric {name}"
        );
        assert!(
            body.contains(&format!("# TYPE {name} ")),
            "scrape is missing # TYPE line for {name}"
        );
    }
    // Activity flowed through the pipeline, not just registration. The
    // counter is per shard (plus a `shard="unknown"` series); the fleet
    // total is the sum over the family.
    let submitted: f64 = body
        .lines()
        .filter(|l| l.starts_with("gem_fleet_submitted_total"))
        .filter_map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<f64>().ok()))
        .sum();
    let total: usize = streams.iter().map(Vec::len).sum();
    assert_eq!(submitted as usize, total, "submitted counters must sum to the workload");
    println!("/metrics OK: {} samples, {submitted} submissions", body.lines().count());

    // --- /metrics.json: JSON dump ---
    let (status, headers, json_body) = scrape(addr, "/metrics.json");
    assert!(status.contains("200"), "GET /metrics.json: {status}");
    assert!(
        headers.to_ascii_lowercase().contains("application/json"),
        "json content type: {headers}"
    );
    let parsed: serde::Value = serde_json::from_str(&json_body).expect("metrics.json parses");
    for section in ["counters", "gauges", "histograms"] {
        let entries = parsed
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == section))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing {section} section"));
        assert!(
            entries.as_array().is_some_and(|a| !a.is_empty()),
            "{section} section must be a non-empty array"
        );
    }
    // A 404 route stays a 404.
    let (status, _, _) = scrape(addr, "/nope");
    assert!(status.contains("404"), "unknown path must 404: {status}");
    println!("/metrics.json OK ({} bytes)", json_body.len());

    // --- /trace.jsonl: request spans + operational events ---
    let (status, headers, trace_body) = scrape(addr, "/trace.jsonl");
    assert!(status.contains("200"), "GET /trace.jsonl: {status}");
    assert!(
        headers.to_ascii_lowercase().contains("application/x-ndjson"),
        "jsonl content type: {headers}"
    );
    let mut kinds: Vec<String> = Vec::new();
    let mut span_ids: Vec<String> = Vec::new();
    let total: usize = streams.iter().map(Vec::len).sum();
    for line in trace_body.lines() {
        let event: serde::Value = serde_json::from_str(line).expect("trace.jsonl line parses");
        let field = |key: &str| {
            event.as_object().and_then(|o| o.iter().find(|(k, _)| k == key)).map(|(_, v)| v)
        };
        let kind = field("kind").and_then(|v| v.as_str()).expect("trace event has a kind");
        kinds.push(kind.to_string());
        if kind != "span" {
            continue;
        }
        // Every span carries the full six-stage attribution, and the
        // stages account for (at least) 90% of the end-to-end time —
        // with the exact-telescoping stamps they sum to ~100%.
        let ns = |key: &str| {
            field(key)
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("span missing {key}: {line}"))
        };
        let staged = ns("ingress_ns")
            + ns("queue_ns")
            + ns("hydrate_ns")
            + ns("journal_ns")
            + ns("infer_ns")
            + ns("emit_ns");
        let e2e = ns("e2e_ns");
        assert!(
            staged as f64 >= e2e as f64 * 0.90,
            "span stages must cover >=90% of e2e ({staged} of {e2e} ns): {line}"
        );
        let trace = field("trace").and_then(|v| v.as_str()).expect("span has a trace id");
        assert!(trace.len() == 16 && trace != "0000000000000000", "bad trace id: {line}");
        span_ids.push(trace.to_string());
    }
    assert_eq!(
        span_ids.len(),
        total,
        "trace_sample 1.0 must retain a span for every submitted record"
    );
    for required in ["epoch", "journal_append", "journal_retain", "snapshot"] {
        assert!(
            kinds.iter().any(|k| k == required),
            "trace rings must contain a {required:?} event (got {kinds:?})"
        );
    }
    // The decision-latency histogram's bucket exemplars must point back
    // at spans that were actually retained in the drain above.
    let exemplars: Vec<&str> =
        json_body.split("\"exemplar\":\"").skip(1).map(|rest| &rest[..16]).collect();
    assert!(!exemplars.is_empty(), "traced run must expose at least one bucket exemplar");
    for ex in &exemplars {
        assert!(
            span_ids.iter().any(|id| id == ex),
            "exemplar {ex} does not match any retained span ({} spans)",
            span_ids.len()
        );
    }
    println!(
        "/trace.jsonl OK: {} spans across {} events, {} exemplars resolved",
        span_ids.len(),
        kinds.len(),
        exemplars.len()
    );

    // --- /trace.jsonl again: the drain is destructive ---
    // The scrape above emptied the rings; a fresh snapshot round refills
    // them, and the next scrape serves that round and nothing already
    // drained.
    fleet.snapshot().unwrap();
    let (status, _, trace_body) = scrape(addr, "/trace.jsonl");
    assert!(status.contains("200"), "GET /trace.jsonl: {status}");
    let kinds: Vec<String> = trace_body
        .lines()
        .map(|line| {
            let event: serde::Value = serde_json::from_str(line).expect("trace line parses");
            let kind = event
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == "kind"))
                .and_then(|(_, v)| v.as_str())
                .expect("trace event has a kind");
            kind.to_string()
        })
        .collect();
    assert!(
        kinds.iter().any(|k| k == "snapshot"),
        "the second scrape must serve the fresh snapshot event (got {kinds:?})"
    );
    assert!(!kinds.iter().any(|k| k == "span"), "drained spans must not be served twice");
    println!("/trace.jsonl re-scrape OK: {} fresh events", kinds.len());

    fleet.shutdown().unwrap();
    drop(server);

    // Tag and append the JSON scrape so bench_schema validates the
    // exposition shape against crates/bench/schemas/metrics.json.
    let line = format!("{{\"bench\":\"metrics\",{}", &json_body[1..]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_metrics.json");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out)
        .expect("open BENCH_metrics.json");
    writeln!(f, "{line}").expect("append BENCH_metrics.json");
    println!("appended scrape to {out}");

    let _ = std::fs::remove_dir_all(&dir);
    println!("obs-smoke: PASS");
}
