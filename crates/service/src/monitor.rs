//! Single-session monitoring with alert debouncing.

use serde::{Deserialize, Serialize};

use gem_core::{Decision, Gem};
use gem_obs::TraceEvent;
use gem_signal::{Label, SignalRecord};

use crate::obs::MonitorObs;

/// Alert policy and bookkeeping knobs.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Raise the alert only after this many *consecutive* outside
    /// decisions (debounces single-scan flukes; 1 = immediate).
    pub alert_after: usize,
    /// Clear an active alert after this many consecutive in-premises
    /// decisions.
    pub clear_after: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { alert_after: 3, clear_after: 2 }
    }
}

/// Events emitted by [`Monitor::process`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum Event {
    /// A scan was classified.
    Decision {
        /// Scan timestamp.
        timestamp_s: f64,
        /// Predicted class.
        label: Label,
        /// Outlier score.
        score: f64,
    },
    /// The consecutive-outside threshold was crossed.
    AlertRaised {
        /// Timestamp of the scan that crossed the threshold.
        timestamp_s: f64,
        /// Consecutive outside decisions at that point.
        consecutive_out: usize,
    },
    /// An active alert was cleared by consecutive in-premises scans.
    AlertCleared {
        /// Timestamp of the clearing scan.
        timestamp_s: f64,
    },
}

/// Running statistics of a monitoring session.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Scans processed.
    pub scans: usize,
    /// Scans classified in-premises.
    pub in_decisions: usize,
    /// Scans classified outside.
    pub out_decisions: usize,
    /// Alerts raised.
    pub alerts: usize,
    /// Model self-updates performed.
    pub model_updates: usize,
    /// Decision epochs applied ([`Monitor::process_batch`] calls; each
    /// is one journal entry, the fleet's replay unit).
    #[serde(default)]
    pub epochs: u64,
    /// Scans refused at admission (queue full). Counted by the layer that
    /// owns the queue — the fleet — never by the monitor itself.
    #[serde(default)]
    pub sheds: u64,
}

/// Serializable alert-policy state of a [`Monitor`] — everything above
/// the model. Together with a [`gem_core::GemSnapshot`] this fully
/// reconstructs a session; the fleet stores it as the manifest sidecar.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MonitorState {
    /// Alert policy.
    pub cfg: MonitorConfig,
    /// Consecutive outside decisions at capture.
    pub consecutive_out: usize,
    /// Consecutive in-premises decisions at capture.
    pub consecutive_in: usize,
    /// Whether an alert was active at capture.
    pub alert_active: bool,
    /// Session statistics.
    pub stats: MonitorStats,
}

/// A monitoring session: a trained GEM model plus alert state.
pub struct Monitor {
    gem: Gem,
    cfg: MonitorConfig,
    consecutive_out: usize,
    consecutive_in: usize,
    alert_active: bool,
    stats: MonitorStats,
    /// Registry-backed instruments, attached by the fleet (optional for
    /// standalone monitors).
    obs: Option<MonitorObs>,
}

impl Monitor {
    /// Wraps a trained model.
    pub fn new(gem: Gem, cfg: MonitorConfig) -> Self {
        assert!(cfg.alert_after >= 1 && cfg.clear_after >= 1);
        Monitor {
            gem,
            cfg,
            consecutive_out: 0,
            consecutive_in: 0,
            alert_active: false,
            stats: MonitorStats::default(),
            obs: None,
        }
    }

    /// Attaches registry-backed instruments. Counters are seeded with
    /// the session's existing statistics, so attaching to a recovered
    /// monitor continues its series instead of zeroing them.
    pub fn set_obs(&mut self, obs: MonitorObs) {
        obs.seed(&self.stats);
        self.obs = Some(obs);
    }

    /// Re-attaches registry-backed instruments without seeding them.
    /// Used when a spilled premises is hydrated back into its shard:
    /// the instruments kept running while the monitor was cold, so
    /// seeding again would double-count everything up to the spill.
    pub(crate) fn attach_obs(&mut self, obs: MonitorObs) {
        self.obs = Some(obs);
    }

    /// Processes one scan; returns the decision event plus any alert
    /// transitions it triggered.
    pub fn process(&mut self, record: &SignalRecord) -> Vec<Event> {
        let decision: Decision = self.gem.infer(record);
        let mut events = Vec::with_capacity(2);
        self.apply_decision(record.timestamp_s, &decision, &mut events);
        events
    }

    /// Processes a batch of scans as *one decision epoch*: each record
    /// is decided through [`Gem::infer`] in order, exactly as
    /// [`Monitor::process`] would, so the events equal a per-record
    /// replay whatever the grouping. The epoch is the unit the fleet
    /// journals, group-commits and replays, not a scoring unit: it only
    /// adds one `epochs` tick.
    pub fn process_batch(&mut self, records: &[SignalRecord]) -> Vec<Event> {
        if records.is_empty() {
            return Vec::new();
        }
        self.stats.epochs += 1;
        if let Some(obs) = &self.obs {
            obs.epochs.inc();
        }
        let mut events = Vec::with_capacity(records.len() + 2);
        for record in records {
            let decision = self.gem.infer(record);
            self.apply_decision(record.timestamp_s, &decision, &mut events);
        }
        events
    }

    /// Folds one decision into the statistics and the alert policy,
    /// appending the resulting events.
    fn apply_decision(&mut self, timestamp_s: f64, decision: &Decision, events: &mut Vec<Event>) {
        self.stats.scans += 1;
        if decision.updated {
            self.stats.model_updates += 1;
            if let Some(obs) = &self.obs {
                obs.self_updates.inc();
                obs.trace(
                    TraceEvent::new("self_update")
                        .with("premises", obs.premises_id)
                        .with("ts", timestamp_s)
                        .with("score", decision.score),
                );
            }
        }
        events.push(Event::Decision { timestamp_s, label: decision.label, score: decision.score });
        match decision.label {
            Label::Out => {
                self.stats.out_decisions += 1;
                self.consecutive_out += 1;
                self.consecutive_in = 0;
                if let Some(obs) = &self.obs {
                    obs.decisions_out.inc();
                }
                if !self.alert_active && self.consecutive_out >= self.cfg.alert_after {
                    self.alert_active = true;
                    self.stats.alerts += 1;
                    if let Some(obs) = &self.obs {
                        obs.alerts.inc();
                        obs.trace(
                            TraceEvent::new("alert_raised")
                                .with("premises", obs.premises_id)
                                .with("ts", timestamp_s)
                                .with("consecutive_out", self.consecutive_out),
                        );
                    }
                    events.push(Event::AlertRaised {
                        timestamp_s,
                        consecutive_out: self.consecutive_out,
                    });
                }
            }
            Label::In => {
                self.stats.in_decisions += 1;
                self.consecutive_in += 1;
                self.consecutive_out = 0;
                if let Some(obs) = &self.obs {
                    obs.decisions_in.inc();
                }
                if self.alert_active && self.consecutive_in >= self.cfg.clear_after {
                    self.alert_active = false;
                    if let Some(obs) = &self.obs {
                        obs.trace(
                            TraceEvent::new("alert_cleared")
                                .with("premises", obs.premises_id)
                                .with("ts", timestamp_s),
                        );
                    }
                    events.push(Event::AlertCleared { timestamp_s });
                }
            }
        }
    }

    /// Whether an alert is currently active.
    pub fn alert_active(&self) -> bool {
        self.alert_active
    }

    /// Session statistics so far (never touches the model).
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Borrow the underlying model (e.g. to snapshot it).
    pub fn gem(&self) -> &Gem {
        &self.gem
    }

    /// Consumes the monitor and returns the model.
    pub fn into_gem(self) -> Gem {
        self.gem
    }

    /// Captures the serializable above-the-model state. Pair with a
    /// model snapshot to persist the whole session.
    pub fn state(&self) -> MonitorState {
        MonitorState {
            cfg: self.cfg,
            consecutive_out: self.consecutive_out,
            consecutive_in: self.consecutive_in,
            alert_active: self.alert_active,
            stats: self.stats,
        }
    }

    /// Rebuilds a session from a restored model and a captured
    /// [`MonitorState`] — the recovery path.
    pub fn from_state(gem: Gem, state: MonitorState) -> Monitor {
        assert!(state.cfg.alert_after >= 1 && state.cfg.clear_after >= 1);
        Monitor {
            gem,
            cfg: state.cfg,
            consecutive_out: state.consecutive_out,
            consecutive_in: state.consecutive_in,
            alert_active: state.alert_active,
            stats: state.stats,
            obs: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gem_core::GemConfig;
    use gem_rfsim::{Scenario, ScenarioConfig};

    fn monitor() -> (Monitor, gem_signal::Dataset) {
        let mut cfg = ScenarioConfig::user(1);
        cfg.train_duration_s = 150.0;
        cfg.n_test_in = 40;
        cfg.n_test_out = 40;
        let ds = Scenario::build(cfg).generate();
        let gem = Gem::fit(GemConfig::default(), &ds.train);
        (Monitor::new(gem, MonitorConfig::default()), ds)
    }

    #[test]
    fn every_scan_yields_a_decision_event() {
        let (mut m, ds) = monitor();
        for t in ds.test.iter().take(20) {
            let events = m.process(&t.record);
            assert!(matches!(events[0], Event::Decision { .. }));
        }
        assert_eq!(m.stats().scans, 20);
    }

    #[test]
    fn alert_debounces_and_raises() {
        let (mut m, ds) = monitor();
        // Feed a scan that is an outlier by rule (unknown MACs) repeatedly.
        let alien = gem_signal::SignalRecord::from_pairs(
            1.0,
            [(gem_signal::MacAddr::from_raw(0xFFFF_0001), -40.0)],
        );
        let e1 = m.process(&alien);
        let e2 = m.process(&alien);
        assert!(!m.alert_active(), "not yet: {e1:?} {e2:?}");
        let e3 = m.process(&alien);
        assert!(m.alert_active());
        assert!(e3.iter().any(|e| matches!(e, Event::AlertRaised { consecutive_out: 3, .. })));
        assert_eq!(m.stats().alerts, 1);
        // Further outside scans do not re-raise.
        let e4 = m.process(&alien);
        assert_eq!(e4.len(), 1);
        let _ = ds;
    }

    #[test]
    fn alert_clears_after_consecutive_in() {
        let (mut m, ds) = monitor();
        let alien = gem_signal::SignalRecord::from_pairs(
            1.0,
            [(gem_signal::MacAddr::from_raw(0xFFFF_0002), -40.0)],
        );
        for _ in 0..3 {
            m.process(&alien);
        }
        assert!(m.alert_active());
        // Feed in-premises scans until cleared.
        let mut cleared = false;
        for t in ds.test.iter().filter(|t| t.label == gem_signal::Label::In) {
            let events = m.process(&t.record);
            if events.iter().any(|e| matches!(e, Event::AlertCleared { .. })) {
                cleared = true;
                break;
            }
        }
        assert!(cleared, "alert should eventually clear on in-premises scans");
        assert!(!m.alert_active());
    }

    #[test]
    fn stats_add_up() {
        let (mut m, ds) = monitor();
        for t in &ds.test {
            m.process(&t.record);
        }
        let s = m.stats();
        assert_eq!(s.scans, ds.test.len());
        assert_eq!(s.in_decisions + s.out_decisions, s.scans);
    }

    #[test]
    fn batch_epochs_are_deterministic() {
        // An epoch decides its records one by one, so chunked epochs
        // produce exactly the events of a per-record run — the property
        // fleet replay relies on, whatever the queue grouped.
        let (mut a, ds) = monitor();
        let (mut b, _) = monitor();
        let records: Vec<_> = ds.test.iter().map(|t| t.record.clone()).take(24).collect();
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        for chunk in records.chunks(5) {
            ea.extend(a.process_batch(chunk));
        }
        for record in &records {
            eb.extend(b.process(record));
        }
        assert_eq!(ea, eb);
        assert_eq!(b.stats().epochs, 0, "single-record processing opens no epoch");
        assert_eq!(a.stats().epochs, 5, "24 records in chunks of 5 = 5 epochs");
        assert_eq!(a.stats().scans, 24);
        assert!(a.process_batch(&[]).is_empty());
        assert_eq!(a.stats().epochs, 5, "empty batches are not epochs");
    }

    #[test]
    fn state_restores_alert_policy_mid_stream() {
        let (mut m, ds) = monitor();
        let alien = gem_signal::SignalRecord::from_pairs(
            1.0,
            [(gem_signal::MacAddr::from_raw(0xFFFF_0003), -40.0)],
        );
        m.process(&alien);
        m.process(&alien);
        // Two consecutive outs: one more would raise. Snapshot here.
        let state = m.state();
        let snap = gem_core::GemSnapshot::capture(m.gem());
        let json = snap.to_json().unwrap();
        let gem = gem_core::GemSnapshot::from_json(&json).unwrap().restore().unwrap();
        let mut restored = Monitor::from_state(gem, state);
        assert!(!restored.alert_active());
        let events = restored.process(&alien);
        assert!(
            events.iter().any(|e| matches!(e, Event::AlertRaised { consecutive_out: 3, .. })),
            "restored monitor must remember the 2-out streak: {events:?}"
        );
        let _ = ds;
    }

    #[test]
    #[should_panic]
    fn rejects_zero_thresholds() {
        let (m, _) = monitor();
        let gem = m.into_gem();
        Monitor::new(gem, MonitorConfig { alert_after: 0, clear_after: 2 });
    }
}
