//! End-to-end benchmark of the GEM serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <session-long|fleet-commute|cold-tier|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out DIR]
//! ```
//!
//! One run builds a seeded rfsim world, fits the base model, fans it out
//! to the workload's premises, serves them from an in-process `Fleet`
//! behind an `IngressServer` on loopback and drives them with at most
//! two client connections. With `--trace 0` it prints every end-to-end
//! metric; with `--trace 1` it replays the same inputs into each layer's
//! public functions and prints the per-layer metrics, a self-time
//! summary and the tracing overhead. Either way the decisions are
//! checked (ledger, decision oracle) and the last line of standard
//! output is one JSON object. The process exits non-zero when a check
//! fails. See `perfbench/README.md` for the workloads.

mod bench;
mod client;
mod layers;
mod spans;
mod stats;
mod world;

use std::path::PathBuf;
use std::time::Instant;

use bench::{Kind, Resume, Sizing};
use stats::{day_of, f_scores, median, percentile, tail_percentile};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: PathBuf::from(".perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads = if v == "all" {
                    Kind::ALL.to_vec()
                } else {
                    vec![Kind::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?]
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure (0 where it is a single reading).
    pub n: usize,
    /// Printed only; not part of the JSON result.
    pub extra: bool,
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit, n, extra: false });
    }

    pub fn put_extra(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric { name: name.into(), value, unit, n, extra: true });
    }

    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.extra)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Latency figures over slices: each slice's p50 and tail percentile
/// (the tail-rule percentile of the smallest slice, so every slice
/// reports the same one), then the median over slices.
fn put_latency(r: &mut Report, slices: &[Vec<f64>]) {
    let n: usize = slices.iter().map(Vec::len).sum();
    let smallest = slices.iter().map(Vec::len).min().unwrap_or(0);
    let Some(tail) = tail_percentile(smallest) else {
        r.problems.push(format!("latency: a slice has only {smallest} samples"));
        return;
    };
    let (mut p50, mut pt) = (Vec::new(), Vec::new());
    for s in slices {
        let mut v = s.clone();
        v.sort_by(f64::total_cmp);
        p50.push(percentile(&v, 50.0) / 1e6);
        pt.push(percentile(&v, tail) / 1e6);
    }
    let show = |v: &[f64]| v.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(" ");
    r.notes.push(format!("latency slices p50 (ms): {}; p{tail}: {}", show(&p50), show(&pt)));
    if tail < 99.0 {
        r.notes.push(format!(
            "latency_p99_ms: slices of {smallest} samples support only p{tail} (the highest percentile with 10 samples beyond it)"
        ));
    }
    r.notes.push(format!("latency: median over {} slices of {n} samples", slices.len()));
    r.put_extra("latency_p50_ms", median(&p50), "ms", n);
    r.put_extra("latency_p99_ms", median(&pt), "ms", n);
}

fn run_workload(kind: Kind, args: &Args) -> Result<Report, String> {
    let sz = if args.smoke { Sizing::smoke(args.seconds) } else { Sizing::full(args.seconds) };
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    if args.trace {
        return layers::traced_run(kind, &sz, args.seed, &args.out);
    }
    let mut report = Report::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut stack = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let s = bench::setup(kind, &sz, args.seed, &args.out)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            s.teardown();
        } else {
            stack = Some(s);
        }
    }
    let mut stack = stack.expect("at least one set-up");
    // The peak resident set of the measured phase alone: set-up (the
    // fit above all) peaks higher than serving does, and the checks
    // below hold replay models of their own.
    bench::reset_rss_peak()?;
    let m = bench::measure(&mut stack, &sz, 1.0, None, &mut Resume::new())?;
    let rss_peak_mb = bench::rss_peak_mb();

    report.problems.extend(bench::check_ledger(&stack));
    let ledger = stack.ledger();
    report.attempted = ledger.sent;
    report.failed = ledger.sent - ledger.decisions;
    let inputs = &stack.inputs;
    let checked = match kind {
        Kind::SessionLong | Kind::ColdTier => {
            bench::oracle(&stack.world, &m.all, &inputs.recs, &inputs.records)
        }
        Kind::FleetCommute => {
            bench::check_fast_path(&stack.world, &m.all, &inputs.recs, &inputs.records)
        }
    };
    report.problems.extend(checked.into_iter().take(5));

    report.put("setup_s", median(&setup_s), "s", setup_s.len());
    if m.throughput() <= 0.0 {
        report.problems.push("throughput_rps: nothing was decided in the throughput window".into());
    }
    report.put_extra("throughput_rps", m.throughput(), "1/s", m.thr_decisions() as usize);
    let decided = m.all.iter().filter(|o| o.decision.is_some()).count();
    report.put(
        "server_cpu_us_per_decision",
        m.server_cpu_ns as f64 / 1e3 / decided.max(1) as f64,
        "us",
        decided,
    );
    report.put(
        "shard_busy_us_per_decision",
        m.shard_busy_ns as f64 / 1e3 / decided.max(1) as f64,
        "us",
        decided,
    );
    let rates: Vec<String> =
        m.thr_slices.iter().map(|&(d, s)| format!("{:.0}", d as f64 / s)).collect();
    report.notes.push(format!("throughput slices (1/s): {}", rates.join(" ")));
    let lat: Vec<Vec<f64>> =
        m.lat_slices.iter().map(|s| s.iter().filter_map(|o| o.latency_ns()).collect()).collect();
    put_latency(&mut report, &lat);
    // Growth over every premises' stream: first-day samples of all
    // premises pooled against their last-day samples.
    let (first, last) = day_latencies(&m.lat_slices.concat(), &inputs.recs, inputs.days);
    if first.is_empty() || last.is_empty() {
        report.problems.push("growth_p50_ratio: a day slice has no samples".into());
    } else {
        report.put(
            "growth_p50_ratio",
            stats::growth_ratio(&first, &last),
            "ratio",
            first.len() + last.len(),
        );
    }
    let pairs: Vec<(bool, bool)> = m
        .all
        .iter()
        .filter_map(|o| o.decision.map(|d| (inputs.recs[o.rec].truth_in, d.inside)))
        .collect();
    let (f_in, f_out) = f_scores(pairs.iter().copied());
    report.put("f_in", f_in, "F1", pairs.len());
    report.put_extra("f_out", f_out, "F1", pairs.len());
    report.put_extra(
        "failed_frac",
        report.failed as f64 / ledger.sent.max(1) as f64,
        "ratio",
        ledger.sent as usize,
    );
    if !m.gen_lag_ns.is_empty() {
        let mut lag = m.gen_lag_ns.clone();
        lag.sort_by(f64::total_cmp);
        let tail = tail_percentile(lag.len()).unwrap_or(50.0);
        report.put_extra("gen_lag_p99_ms", percentile(&lag, tail) / 1e6, "ms", lag.len());
    }
    match kind {
        Kind::SessionLong => {
            report.notes.push(format!("{} sessions of {} days streamed", m.groups, inputs.days))
        }
        Kind::ColdTier => report.notes.push(format!("{} rounds streamed", m.groups)),
        Kind::FleetCommute => {}
    }
    let premises = inputs.premises.len();
    report.put("state_mb_per_premises", stack.finish()?, "MB", premises);
    report.put("rss_peak_mb", rss_peak_mb, "MB", 0);
    Ok(report)
}

/// Client latencies of the first and last day slice of every premises'
/// stream (in send order).
pub fn day_latencies(
    outs: &[client::Outcome],
    recs: &[client::Rec],
    days: usize,
) -> (Vec<f64>, Vec<f64>) {
    let by_rec: std::collections::HashMap<usize, &client::Outcome> =
        outs.iter().map(|o| (o.rec, o)).collect();
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for (_, idx) in bench::per_premises(outs, recs) {
        if idx.len() < days {
            continue;
        }
        for (k, i) in idx.iter().enumerate() {
            let Some(ns) = by_rec[i].latency_ns() else { continue };
            match day_of(k, idx.len(), days) {
                0 => first.push(ns),
                d if d + 1 == days => last.push(ns),
                _ => {}
            }
        }
    }
    (first, last)
}

fn print_report(kind: Kind, r: &Report) {
    println!("== {} ==", kind.name());
    for m in &r.metrics {
        let n = if m.n > 0 { format!("  (n={})", m.n) } else { String::new() };
        println!("  {:<34} {:>14.6} {:<6}{}", m.name, m.value, m.unit, n);
    }
    println!("  attempted {} failed {}", r.attempted, r.failed);
    for note in &r.notes {
        println!("  note: {note}");
    }
    for p in &r.problems {
        println!("  CHECK FAILED: {p}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut ok = true;
    for &kind in &args.workloads {
        match run_workload(kind, &args) {
            Ok(report) => {
                print_report(kind, &report);
                ok &= report.correct();
                println!("{}", report.json());
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", kind.name());
                std::process::exit(1);
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
