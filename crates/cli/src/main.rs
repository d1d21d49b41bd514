//! `gem` — command-line interface for the GEM geofencing system.
//!
//! ```text
//! gem simulate --user 3 --out dataset.json        # synthesize a dataset
//! gem train    --dataset dataset.json --model model.json
//! gem eval     --dataset dataset.json --model model.json
//! gem stream   --dataset dataset.json --model model.json --alert-after 3
//! gem serve    --listen 127.0.0.1:7979 --model model.json --premises 12 --dir state
//! gem serve    --listen 127.0.0.1:7979 --dir state    # restart: recover the fleet
//! gem loadgen  --connect 127.0.0.1:7979 --devices 12
//! gem info     --model model.json
//! ```
//!
//! Datasets are JSON (`gem_signal::Dataset`); models are GEM snapshots
//! (`gem_core::persist::GemSnapshot`): `gem train` writes JSON, a
//! durable fleet writes binary images, and every `--model` reads either.

use std::process::ExitCode;

/// `println!` that ignores broken pipes (e.g. `gem info | head`), so the
/// CLI exits quietly instead of panicking when the reader goes away.
macro_rules! say {
    ($($t:tt)*) => {{
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), $($t)*);
    }};
}

mod args;
mod loadgen;
mod trace;

use args::Args;
use gem_core::{Gem, GemConfig};
use gem_eval::Confusion;
use gem_rfsim::{Scenario, ScenarioConfig};
use gem_service::{Event, Monitor, MonitorConfig};
use gem_signal::Dataset;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(usage());
    };
    let args = Args::parse(rest)?;
    match command.as_str() {
        "simulate" => simulate(&args),
        "train" => train(&args),
        "eval" => eval(&args),
        "stream" => stream(&args),
        "serve" => serve(&args),
        "loadgen" => loadgen::run(&args),
        "trace" => trace::run(&args),
        "info" => info(&args),
        "help" | "--help" | "-h" => {
            say!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: gem <command> [options]\n\
     commands:\n\
     \x20 simulate --out FILE [--user 1..10 | --lab] [--train-secs S] [--test N] [--seed X]\n\
     \x20 train    --dataset FILE --model FILE [--dim D] [--epochs E] [--seed X]\n\
     \x20 eval     --dataset FILE --model FILE\n\
     \x20 stream   --dataset FILE --model FILE [--alert-after K] [--save-back]\n\
     \x20 serve    --listen HOST:PORT (--model FILE [--premises N] | --models F1,F2,..)\n\
     \x20          [--shards N] [--max-batch B] [--queue Q] [--alert-after K] [--dir DIR]\n\
     \x20          [--snapshot-secs S] [--hot-cap N] [--credit W] [--read-timeout-secs S]\n\
     \x20          [--duration-secs S] [--metrics-addr HOST:PORT] [--no-metrics]\n\
     \x20          [--trace-sample F] [--trace-tail-ms MS]\n\
     \x20          (restart with --dir DIR and no --model/--models to recover DIR's fleet)\n\
     \x20 loadgen  --connect HOST:PORT [--devices N] [--scans-per-device N] [--user 1..10]\n\
     \x20          [--seed X] [--churn F] [--pace-ms MS] [--metrics HOST:PORT]\n\
     \x20          [--bench-out FILE] [--p99-ms MS] [--connect-timeout-secs S] [--trace]\n\
     \x20 trace    --input F1,F2,.. [--slowest N] [--min-coverage F]\n\
     \x20 info     --model FILE"
        .to_string()
}

fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let path = args.require("dataset")?;
    let json = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))
}

fn simulate(args: &Args) -> Result<(), String> {
    let out = args.require("out")?;
    let mut cfg = if args.flag("lab") {
        ScenarioConfig::lab()
    } else {
        let user: u32 = args.get_parsed("user")?.unwrap_or(1);
        if !(1..=10).contains(&user) {
            return Err("--user must be 1..10".into());
        }
        ScenarioConfig::user(user)
    };
    if let Some(secs) = args.get_parsed::<f64>("train-secs")? {
        cfg.train_duration_s = secs;
    }
    if let Some(n) = args.get_parsed::<usize>("test")? {
        cfg.n_test_in = n;
        cfg.n_test_out = n;
    }
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        cfg.seed = seed;
    }
    let scenario = Scenario::build(cfg);
    let dataset = scenario.generate();
    let json = serde_json::to_string(&dataset).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
    say!(
        "wrote {}: {} training scans, {} test scans, {:.0} m² premises",
        out,
        dataset.train.len(),
        dataset.test.len(),
        scenario.world.plan.area_m2()
    );
    Ok(())
}

fn train(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let model_path = args.require("model")?;
    let mut cfg = GemConfig::default();
    if let Some(d) = args.get_parsed::<usize>("dim")? {
        cfg.embedding_dim = d;
    }
    if let Some(e) = args.get_parsed::<usize>("epochs")? {
        cfg.epochs = e;
    }
    if let Some(seed) = args.get_parsed::<u64>("seed")? {
        cfg.seed = seed;
    }
    let start = std::time::Instant::now();
    let gem = Gem::fit(cfg, &dataset.train);
    gem.save(&model_path).map_err(|e| e.to_string())?;
    say!(
        "trained on {} scans in {:.1}s ({} graph nodes, {} edges); model → {}",
        dataset.train.len(),
        start.elapsed().as_secs_f64(),
        gem.graph().n_nodes(),
        gem.graph().n_edges(),
        model_path
    );
    Ok(())
}

fn eval(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let mut gem = Gem::load(args.require("model")?).map_err(|e| e.to_string())?;
    let mut confusion = Confusion::default();
    for t in &dataset.test {
        confusion.record(t.label, gem.infer(&t.record).label);
    }
    let i = confusion.in_metrics();
    let o = confusion.out_metrics();
    say!("scans: {}", confusion.total());
    say!("accuracy: {:.3}", confusion.accuracy());
    say!("in-premises  P {:.3}  R {:.3}  F {:.3}", i.precision, i.recall, i.f_score);
    say!("outside      P {:.3}  R {:.3}  F {:.3}", o.precision, o.recall, o.f_score);
    say!("online updates: {}", gem.detector().n_updates);
    Ok(())
}

fn stream(args: &Args) -> Result<(), String> {
    let dataset = load_dataset(args)?;
    let model_path = args.require("model")?;
    let gem = Gem::load(&model_path).map_err(|e| e.to_string())?;
    let alert_after = args.get_parsed::<usize>("alert-after")?.unwrap_or(3);
    let mut monitor = Monitor::new(gem, MonitorConfig { alert_after, ..MonitorConfig::default() });
    for t in &dataset.test {
        for event in monitor.process(&t.record) {
            match event {
                Event::AlertRaised { timestamp_s, consecutive_out } => {
                    say!("t={timestamp_s:8.1}s  ALERT raised ({consecutive_out} consecutive outside scans)");
                }
                Event::AlertCleared { timestamp_s } => {
                    say!("t={timestamp_s:8.1}s  alert cleared");
                }
                Event::Decision { .. } => {}
            }
        }
    }
    let stats = monitor.stats();
    say!(
        "processed {} scans: {} in / {} out, {} alerts, {} model updates",
        stats.scans,
        stats.in_decisions,
        stats.out_decisions,
        stats.alerts,
        stats.model_updates
    );
    if args.flag("save-back") {
        monitor.gem().save(&model_path).map_err(|e| e.to_string())?;
        say!("updated model saved back to {model_path}");
    }
    Ok(())
}

/// `gem serve`'s fleet tuning: `--shards`/`--max-batch`/`--queue` size
/// the worker pool, `--dir` enables the write-ahead journal plus
/// snapshots (`--snapshot-secs` and at shutdown), `--hot-cap` bounds
/// resident premises per shard (idle tenants spill to their snapshot
/// files and hydrate back on their next record; must be at least 1 —
/// omit the flag for an unbounded hot tier), `--no-metrics` turns
/// histograms and tracing off (counters stay on). The assembled config
/// goes through [`gem_service::FleetConfig::validate`], which refuses
/// `--hot-cap` or `--snapshot-secs` without `--dir`.
fn fleet_config_from_args(args: &Args) -> Result<gem_service::FleetConfig, String> {
    use std::time::Duration;

    let mut cfg = gem_service::FleetConfig::default();
    cfg.obs.enabled = !args.flag("no-metrics");
    if let Some(shards) = args.get_parsed::<usize>("shards")? {
        if shards == 0 {
            return Err("--shards must be at least 1".into());
        }
        cfg.shards = shards;
    }
    if let Some(b) = args.get_parsed::<usize>("max-batch")? {
        if b == 0 {
            return Err("--max-batch must be at least 1".into());
        }
        cfg.max_batch = b;
    }
    if let Some(q) = args.get_parsed::<usize>("queue")? {
        if q == 0 {
            return Err("--queue must be at least 1".into());
        }
        cfg.queue_per_shard = q;
    }
    cfg.dir = args.get_parsed::<std::path::PathBuf>("dir")?;
    if let Some(secs) = args.get_parsed::<f64>("snapshot-secs")? {
        if !secs.is_finite() || secs <= 0.0 {
            return Err("--snapshot-secs must be positive".into());
        }
        cfg.snapshot_interval = Some(Duration::from_secs_f64(secs));
    }
    if let Some(cap) = args.get_parsed::<usize>("hot-cap")? {
        if cap == 0 {
            return Err(
                "--hot-cap must be at least 1 (omit the flag for an unbounded hot tier)".into()
            );
        }
        cfg.hot_premises_per_shard = Some(cap);
    }
    if let Some(rate) = args.get_parsed::<f64>("trace-sample")? {
        if !(0.0..=1.0).contains(&rate) {
            return Err("--trace-sample must be within 0..1".into());
        }
        cfg.obs.trace_sample = rate;
    }
    if let Some(ms) = args.get_parsed::<f64>("trace-tail-ms")? {
        if !ms.is_finite() || ms < 0.0 {
            return Err("--trace-tail-ms must be non-negative (0 disables tail capture)".into());
        }
        cfg.obs.trace_tail_ms = ms;
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// Network ingress: bind `--listen` and serve the wire protocol in
/// front of a fleet (see DESIGN.md, "Ingress architecture"). Premises
/// come from either `--models F1,F2,..` (premises 1..=N, one model
/// file each) or `--model FILE --premises N` (N monitors hydrated from
/// one snapshot — the loadgen's shape, where every simulated device
/// watches the same world). With neither, `--dir` must hold a fleet
/// manifest from an earlier run: the fleet is recovered from it, its
/// journal replayed past each premises' snapshot. A model source on a
/// directory that already holds a fleet is refused, so a restart never
/// writes a new fleet over the old one. `--credit` caps the
/// per-connection credit window, `--read-timeout-secs` disconnects
/// silent clients, and `--duration-secs` exits after a fixed time
/// (default: serve until killed). Fleet tuning flags are parsed by
/// [`fleet_config_from_args`]; `--metrics-addr` exposes the registry —
/// ingress counters included — over HTTP for the run's duration.
fn serve(args: &Args) -> Result<(), String> {
    use gem_service::{Fleet, IngressConfig, IngressServer};
    use std::time::Duration;

    let listen = args.require("listen")?;
    let cfg = fleet_config_from_args(args)?;
    let alert_after = args.get_parsed::<usize>("alert-after")?.unwrap_or(3);
    let mcfg = MonitorConfig { alert_after, ..MonitorConfig::default() };

    // Validate every tuning flag before the (slow) model loads, so a
    // typo'd invocation fails fast.
    let mut icfg = IngressConfig::default();
    if let Some(w) = args.get_parsed::<u16>("credit")? {
        if w == 0 {
            return Err("--credit must be at least 1".into());
        }
        icfg.credit_window = w;
    }
    if let Some(secs) = args.get_parsed::<f64>("read-timeout-secs")? {
        if !secs.is_finite() || secs <= 0.0 {
            return Err("--read-timeout-secs must be positive".into());
        }
        icfg.read_timeout = Duration::from_secs_f64(secs);
    }
    let duration = match args.get_parsed::<f64>("duration-secs")? {
        Some(secs) => {
            if !secs.is_finite() || secs <= 0.0 {
                return Err("--duration-secs must be positive".into());
            }
            Some(Duration::from_secs_f64(secs))
        }
        None => None,
    };

    // A model source spawns a new fleet. Without one, `--dir` must hold
    // an earlier run's manifest, and that fleet is recovered instead.
    let model = args.get_parsed::<String>("model")?;
    let models = args.values_list("models");
    let manifest_dir = cfg.dir.clone().filter(|d| d.join(gem_core::MANIFEST_FILE).exists());
    let (mut fleet, premises) = if let Some(dir) = manifest_dir {
        if model.is_some() || models.is_some() {
            return Err(format!(
                "--dir {} already holds a fleet: restart without --model/--models to recover it",
                dir.display()
            ));
        }
        let recovery = Fleet::recover(cfg).map_err(|e| e.to_string())?;
        say!(
            "recovered the fleet in {}: {} journal epochs replayed",
            dir.display(),
            recovery.replayed_epochs
        );
        (recovery.fleet, "recovered premises".to_string())
    } else {
        let monitors = load_monitors(args, model, models, mcfg)?;
        let premises = format!("{} premises", monitors.len());
        (Fleet::spawn(monitors, cfg).map_err(|e| e.to_string())?, premises)
    };

    let _metrics_server = match args.get_parsed::<String>("metrics-addr")? {
        Some(addr) => {
            let server = gem_obs::MetricsServer::bind_with_traces(
                &addr,
                fleet.registry(),
                fleet.trace_rings(),
            )
            .map_err(|e| format!("binding metrics server on {addr}: {e}"))?;
            say!("serving metrics on http://{}/metrics", server.local_addr());
            Some(server)
        }
        None => None,
    };

    // The window the server will actually advertise in HELLO.
    let advertised = (icfg.credit_window as usize).min(fleet.admission_quota()).max(1);
    let ingress = IngressServer::bind(&listen, &mut fleet, icfg)
        .map_err(|e| format!("binding ingress on {listen}: {e}"))?;
    say!("ingress listening on {} ({premises}, credit window {advertised})", ingress.local_addr());

    match duration {
        Some(d) => std::thread::sleep(d),
        // No duration: serve until the process is killed.
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    drop(ingress);
    fleet.shutdown().map_err(|e| e.to_string())?;
    Ok(())
}

/// The premises of a new fleet: `--model FILE` hydrated `--premises N`
/// times, or one premises per `--models` file.
fn load_monitors(
    args: &Args,
    model: Option<String>,
    models: Option<Vec<String>>,
    mcfg: MonitorConfig,
) -> Result<Vec<(u64, Monitor)>, String> {
    if let Some(model) = model {
        let premises: usize = args.get_parsed("premises")?.unwrap_or(1);
        if premises == 0 {
            return Err("--premises must be at least 1".into());
        }
        // One read and one decode, N restores: every premises starts
        // from the same snapshot but owns a private copy of the model
        // (online updates diverge).
        let bytes = std::fs::read(&model).map_err(|e| format!("reading {model}: {e}"))?;
        let snapshot =
            gem_core::GemSnapshot::decode(&bytes).map_err(|e| format!("restoring {model}: {e}"))?;
        (1..=premises as u64)
            .map(|id| {
                let gem =
                    snapshot.clone().restore().map_err(|e| format!("restoring {model}: {e}"))?;
                Ok((id, Monitor::new(gem, mcfg)))
            })
            .collect()
    } else {
        let model_paths = models.ok_or(
            "serve needs --model FILE [--premises N], --models F1,F2,.. \
             or a --dir holding a fleet to recover",
        )?;
        model_paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let gem = Gem::load(p).map_err(|e| format!("loading {p}: {e}"))?;
                Ok((i as u64 + 1, Monitor::new(gem, mcfg)))
            })
            .collect()
    }
}

fn info(args: &Args) -> Result<(), String> {
    for line in describe(&args.require("model")?)? {
        say!("{line}");
    }
    Ok(())
}

/// `gem info`'s report on a snapshot file in either encoding: a model
/// written by `gem train` (JSON) or an image a fleet spilled (binary).
fn describe(path: &str) -> Result<Vec<String>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let snapshot = gem_core::GemSnapshot::decode(&bytes).map_err(|e| e.to_string())?;
    let format =
        if bytes.starts_with(&gem_core::persist::BINARY_MAGIC) { "binary" } else { "JSON" };
    Ok(vec![
        format!("model: {path}"),
        format!("format: {format}, {} bytes", bytes.len()),
        format!("embedding dim: {}", snapshot.cfg.embedding_dim),
        format!(
            "graph: {} records, {} MACs, {} edges",
            snapshot.graph.n_records(),
            snapshot.graph.n_macs(),
            snapshot.graph.n_edges()
        ),
        format!(
            "detector samples: {} (+{} online updates)",
            snapshot.detector.n_samples(),
            snapshot.detector.n_updates
        ),
        format!(
            "training loss: {:?}",
            snapshot
                .train_report
                .epoch_losses
                .iter()
                .map(|l| (l * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::run;

    fn run_with(argv: &[&str]) -> Result<(), String> {
        run(argv.iter().map(|s| s.to_string()).collect())
    }

    /// A degenerate knob value is a usage error up front, not a
    /// silently different behavior (`--hot-cap 0` used to mean
    /// "unlimited") or a pointless run (`--devices 0`).
    #[test]
    fn degenerate_flag_values_are_usage_errors() {
        let err =
            run_with(&["serve", "--listen", "127.0.0.1:0", "--dir", "/tmp", "--hot-cap", "0"])
                .unwrap_err();
        assert!(err.contains("--hot-cap"), "{err}");
        let err = run_with(&["loadgen", "--connect", "127.0.0.1:1", "--devices", "0"]).unwrap_err();
        assert!(err.contains("--devices"), "{err}");
        let err = run_with(&["loadgen", "--connect", "127.0.0.1:1", "--scans-per-device", "0"])
            .unwrap_err();
        assert!(err.contains("--scans-per-device"), "{err}");
        let err = run_with(&["serve", "--listen", "127.0.0.1:0", "--shards", "0"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = run_with(&["serve", "--listen", "127.0.0.1:0", "--credit", "0"]).unwrap_err();
        assert!(err.contains("--credit"), "{err}");
    }

    #[test]
    fn serve_requires_a_model_source() {
        let err = run_with(&["serve", "--listen", "127.0.0.1:0"]).unwrap_err();
        assert!(err.contains("--model"), "{err}");
    }

    /// Knobs that need a durability directory are refused without one
    /// (by `FleetConfig::validate`), before any model is read.
    #[test]
    fn durable_knobs_without_a_dir_are_refused() {
        for flag in ["--hot-cap", "--snapshot-secs"] {
            let err = run_with(&["serve", "--listen", "127.0.0.1:0", flag, "2", "--model", "none"])
                .unwrap_err();
            assert!(err.contains("durability dir"), "{flag}: {err}");
        }
    }

    /// `gem serve --dir D` is the one way to run a durable fleet and to
    /// recover it: a restart with no model source recovers D's fleet, a
    /// model source on a D that holds a fleet is refused, and an empty
    /// D with no model source is still a usage error.
    #[test]
    fn serve_recovers_a_fleet_directory_on_restart() {
        let root =
            std::env::temp_dir().join(format!("gem_cli_serve_recover_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let path = |name: &str| root.join(name).display().to_string();
        let (ds, model, dir, empty) =
            (path("ds.json"), path("m.json"), path("fleet"), path("empty"));
        run_with(&["simulate", "--out", &ds, "--user", "1", "--train-secs", "60", "--test", "4"])
            .unwrap();
        run_with(&["train", "--dataset", &ds, "--model", &model, "--epochs", "1"]).unwrap();
        let serve = |extra: &[&str]| {
            let mut argv = vec!["serve", "--listen", "127.0.0.1:0", "--duration-secs", "0.2"];
            argv.extend_from_slice(extra);
            run_with(&argv)
        };

        serve(&["--dir", &dir, "--model", &model, "--premises", "2"]).unwrap();
        serve(&["--dir", &dir]).unwrap();
        let err = serve(&["--dir", &dir, "--model", &model]).unwrap_err();
        assert!(err.contains("recover"), "{err}");
        // The refused run left the fleet recoverable.
        serve(&["--dir", &dir]).unwrap();

        std::fs::create_dir_all(&empty).unwrap();
        let err = serve(&["--dir", &empty]).unwrap_err();
        assert!(err.contains("--model"), "{err}");

        // `gem info` reads the trained JSON model and the binary images
        // the fleet wrote alike, and says which it read.
        let json_info = super::describe(&model).unwrap();
        assert!(json_info[1].starts_with("format: JSON"), "{json_info:?}");
        let image = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "gemsnap"))
            .expect("the fleet wrote a binary image");
        let image_info = super::describe(&image.display().to_string()).unwrap();
        let size = std::fs::metadata(&image).unwrap().len();
        assert_eq!(image_info[1], format!("format: binary, {size} bytes"));
        assert_eq!(image_info[2..4], json_info[2..4], "same model, either format");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `--premises N` decodes the model once but gives every premises a
    /// private copy: one premises' confident updates must not reach
    /// another's decisions, which stay those of a fresh load.
    #[test]
    fn fanned_out_premises_do_not_share_model_state() {
        use gem_service::{Monitor, MonitorConfig};
        let root = std::env::temp_dir().join(format!("gem_cli_fan_out_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let path = |name: &str| root.join(name).display().to_string();
        let (ds, model) = (path("ds.json"), path("m.json"));
        run_with(&["simulate", "--out", &ds, "--user", "1", "--train-secs", "120", "--test", "16"])
            .unwrap();
        run_with(&["train", "--dataset", &ds, "--model", &model]).unwrap();
        let argv: Vec<String> =
            ["--model", &model, "--premises", "3"].iter().map(|s| s.to_string()).collect();
        let args = super::Args::parse(&argv).unwrap();
        let mut monitors =
            super::load_monitors(&args, Some(model.clone()), None, MonitorConfig::default())
                .unwrap();
        assert_eq!(monitors.iter().map(|(id, _)| *id).collect::<Vec<_>>(), [1, 2, 3]);
        let stream: Vec<_> = super::load_dataset(
            &super::Args::parse(&["--dataset".to_string(), ds.clone()]).unwrap(),
        )
        .unwrap()
        .test
        .into_iter()
        .map(|t| t.record)
        .collect();

        // Premises 1 streams first and absorbs confident samples.
        for record in &stream {
            monitors[0].1.process(record);
        }
        assert!(monitors[0].1.stats().model_updates > 0, "premises 1 never self-updated");
        // Premises 2 then decides exactly like a fresh load of the model.
        let mut fresh =
            Monitor::new(gem_core::Gem::load(&model).unwrap(), MonitorConfig::default());
        for record in &stream {
            assert_eq!(monitors[1].1.process(record), fresh.process(record));
        }
        // Premises 3 saw nothing and still holds the trained detector.
        assert_eq!(monitors[2].1.gem().detector().n_updates, 0);
        let _ = std::fs::remove_dir_all(&root);
    }
}
