//! The server-side deployment story: a monitoring service with alert
//! debouncing, a one-shard fleet as the background worker, and model
//! persistence across "restarts".
//!
//! ```text
//! cargo run --release --example monitoring_service
//! ```

use gem::core::{Gem, GemConfig};
use gem::rfsim::{Scenario, ScenarioConfig};
use gem::service::{Event, Fleet, FleetConfig, Monitor, MonitorConfig};

/// The one premises this service watches.
const PREMISES: u64 = 1;

fn main() {
    let mut cfg = ScenarioConfig::user(5);
    cfg.train_duration_s = 240.0;
    cfg.n_test_in = 80;
    cfg.n_test_out = 80;
    let dataset = Scenario::build(cfg).generate();

    // Day 0: initial setup and training.
    let gem = Gem::fit(GemConfig::default(), &dataset.train);
    let model_path = std::env::temp_dir().join("gem_monitoring_example.json");
    gem.save(&model_path).expect("save model");
    println!("model trained and persisted to {}", model_path.display());

    // The service starts (possibly days later, after a restart): restore
    // the model and run the monitor on a one-shard fleet's worker thread.
    let gem = Gem::load(&model_path).expect("load model");
    let monitor = Monitor::new(gem, MonitorConfig { alert_after: 3, clear_after: 2 });
    // `max_batch: 1` makes every scan its own decision epoch: the paper's
    // sequential semantics, whatever the queue timing.
    let cfg = FleetConfig { shards: 1, max_batch: 1, ..FleetConfig::default() };
    let fleet = Fleet::spawn(vec![(PREMISES, monitor)], cfg).expect("spawn fleet");

    // Device uplink: scans arrive one by one. A full queue sheds instead
    // of blocking; this uplink simply retries.
    let n = dataset.test.len();
    for t in &dataset.test {
        while !fleet.submit(PREMISES, t.record.clone()).accepted() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    // Alert handler: consume events as they stream out.
    let mut decisions = 0;
    while decisions < n {
        match fleet.events().recv().map(|e| e.event) {
            Ok(Event::Decision { .. }) => decisions += 1,
            Ok(Event::AlertRaised { timestamp_s, consecutive_out }) => {
                println!(
                    "t={timestamp_s:8.1}s  ALERT ({consecutive_out} consecutive outside scans)"
                );
            }
            Ok(Event::AlertCleared { timestamp_s }) => {
                println!("t={timestamp_s:8.1}s  alert cleared");
            }
            Err(_) => break,
        }
    }

    // Graceful shutdown: reclaim the monitor and persist the (self-
    // enhanced) model for the next session.
    let (_, monitor) = fleet.shutdown().expect("shutdown").pop().expect("the premises' monitor");
    let stats = monitor.stats();
    println!(
        "\nsession: {} scans, {} in / {} out, {} alerts, {} online model updates",
        stats.scans, stats.in_decisions, stats.out_decisions, stats.alerts, stats.model_updates
    );
    monitor.gem().save(&model_path).expect("save updated model");
    println!("updated model persisted; next restart resumes from here");
    let _ = std::fs::remove_file(&model_path);
}
