use comdml_core::{RoundEngine, RoundInput, RoundProgress};
use comdml_simnet::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::BaselineConfig;

/// BrainTorrent \[10\]: a peer-to-peer framework where agents take turns
/// acting as the aggregation server.
///
/// Per round a randomly selected participant pulls every other participant's
/// model over its own link (`(P−1)·b` bytes in, then `(P−1)·b` bytes out) —
/// cheaper than a real server but still serialized through one peer's
/// connection, unlike AllReduce's balanced schedule.
#[derive(Debug)]
pub struct BrainTorrent {
    cfg: BaselineConfig,
    rng: StdRng,
}

impl BrainTorrent {
    /// Creates the engine; the rotating aggregator is drawn from `seed`.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, rng: StdRng::seed_from_u64(0x000b_7a10) }
    }

    /// Overrides the aggregator-selection seed (for reproducible runs).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl RoundEngine for BrainTorrent {
    fn name(&self) -> &'static str {
        "BrainTorrent"
    }

    /// The rotating aggregator serializes communication but still averages
    /// every participant's fresh update — only the round *time* varies with
    /// the drawn aggregator, never the learning efficiency.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        let participants = input.participants;
        if participants.is_empty() {
            return RoundProgress::idle(0.0);
        }
        let compute = self.cfg.straggler_compute_s(world, participants);
        let agg_s = if participants.len() < 2 {
            0.0
        } else {
            let aggregator = participants[self.rng.gen_range(0..participants.len())];
            let agg_link = world.agent(aggregator).profile.link_mbps;
            let b = self.cfg.model.model_bytes() as u64;
            let bytes = 2 * (participants.len() as u64 - 1) * b;
            self.cfg.calibration.transfer_time_s(bytes, agg_link)
        };
        let round_s = compute + agg_s;
        RoundProgress::fresh(round_s, self.rounds_factor(), participants.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::full_round;
    use comdml_simnet::WorldConfig;

    #[test]
    fn aggregation_scales_with_participants() {
        // Compare aggregation-only by subtracting the straggler compute.
        let agg = |k: usize| {
            let world = WorldConfig::heterogeneous(k, 1).build();
            let mut engine = BrainTorrent::new(BaselineConfig::default()).with_seed(1);
            let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
            full_round(&mut engine, &world, 0).round_s
                - engine.cfg.straggler_compute_s(&world, &ids)
        };
        let (agg_small, agg_big) = (agg(4), agg(32));
        assert!(agg_big > agg_small, "{agg_big} vs {agg_small}");
    }

    #[test]
    fn progress_varies_in_time_but_not_in_efficiency() {
        let mut engine = BrainTorrent::new(BaselineConfig::default()).with_seed(7);
        let world = WorldConfig::heterogeneous(12, 5).build();
        let times: Vec<f64> = (0..8)
            .map(|r| {
                let p = full_round(&mut engine, &world, r);
                assert_eq!((p.efficiency, p.cohort), (1.0, 12));
                p.round_s
            })
            .collect();
        assert!(
            times.iter().any(|&t| (t - times[0]).abs() > 1e-9),
            "the rotating aggregator should vary round times"
        );
    }

    #[test]
    fn single_agent_has_no_aggregation() {
        let mut engine = BrainTorrent::new(BaselineConfig::default());
        let world = WorldConfig::heterogeneous(1, 1).build();
        let t = full_round(&mut engine, &world, 0).round_s;
        let solo = engine.cfg.solo_time_s(&world.agents()[0]);
        assert!((t - solo).abs() < 1e-9);
    }
}
