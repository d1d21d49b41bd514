//! Seeded inputs: the rfsim user-3 world, its training walk, the fitted
//! base model, and every workload's per-premises scan streams.
//!
//! Everything here is deterministic in the benchmark seed. The program
//! under test only ever sees the records (as pre-encoded wire frames);
//! the ground-truth labels stay on the client side for scoring.

use gem_core::{Gem, GemConfig, GemSnapshot};
use gem_rfsim::{
    device_stream_with, diurnal_schedule, Scenario, ScenarioConfig, ScheduleSegment, TimeProfile,
};
use gem_signal::{LabeledRecord, MacAddr, RecordSet};

/// Ambient-MAC churn applied to every device stream.
pub const CHURN: f64 = 0.15;

/// The seeded world and the model trained on it.
pub struct World {
    pub scenario: Scenario,
    pub base: Gem,
}

impl World {
    /// Builds the user-3 preset world (floor plan, access points and
    /// radio models are the preset's, whatever the seed) and fits the
    /// base model on a `walk_s`-second training walk. `seed` then
    /// reseeds the scenario, so it drives every device stream generated
    /// afterwards: trajectories, radio noise and AP churn.
    pub fn build(seed: u64, walk_s: f64) -> World {
        let mut cfg = ScenarioConfig::user(3);
        cfg.train_duration_s = walk_s;
        let mut scenario = Scenario::build(cfg);
        let walk = scenario.training_positions();
        let mut rng = scenario.rng(0xDA7A);
        let train: RecordSet =
            scenario.sense_positions(&walk, &scenario.cfg.profile, 0.0, &mut rng);
        let base = Gem::fit(GemConfig::default(), &train);
        scenario.cfg.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        World { scenario, base }
    }

    /// An independent copy of the base model (the per-premises fan-out).
    pub fn fresh_gem(&self) -> Gem {
        GemSnapshot::capture(&self.base).restore().expect("a captured base model restores")
    }
}

/// `days` diurnal days of `scans_per_day` scans each, back to back.
pub fn session_stream(
    world: &World,
    device: u64,
    days: usize,
    scans_per_day: usize,
) -> Vec<LabeledRecord> {
    let day = diurnal_schedule(device, scans_per_day);
    let schedule: Vec<ScheduleSegment> = (0..days).flat_map(|_| day.iter().cloned()).collect();
    device_stream_with(&world.scenario, device, &schedule, CHURN)
}

/// A device that stays home: in-premises scans only.
pub fn home_stream(world: &World, device: u64, scans: usize) -> Vec<LabeledRecord> {
    let schedule = [ScheduleSegment { profile: TimeProfile::MORNING, inside: true, scans }];
    device_stream_with(&world.scenario, device, &schedule, CHURN)
}

/// A device away across town: outside scans whose every MAC is moved
/// into a range no simulated AP can occupy (simulated MACs are unicast;
/// these carry the multicast bit), so no premises has seen any of them
/// and each scan takes the no-known-MAC path.
pub fn away_stream(world: &World, device: u64, scans: usize) -> Vec<LabeledRecord> {
    let schedule = [ScheduleSegment { profile: TimeProfile::AFTERNOON, inside: false, scans }];
    let mut stream = device_stream_with(&world.scenario, device, &schedule, 0.0);
    for scan in &mut stream {
        for reading in &mut scan.record.readings {
            reading.mac = remote_mac(reading.mac);
        }
    }
    stream
}

/// Maps a MAC into the never-seen multicast range.
pub fn remote_mac(mac: MacAddr) -> MacAddr {
    MacAddr::from_raw((0x01 << 40) | (mac.raw() & 0xFF_FFFF_FFFF))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_macs_never_collide_with_simulated_ones() {
        for ap in 0..500u32 {
            for band in 0..2u8 {
                let sim = MacAddr::simulated(ap, band);
                assert_eq!(sim.octets()[0] & 1, 0, "simulated MACs are unicast");
                assert_eq!(remote_mac(sim).octets()[0] & 1, 1);
            }
        }
    }
}
