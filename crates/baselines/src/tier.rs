use comdml_core::{RoundEngine, RoundInput, RoundProgress};
use comdml_simnet::{AgentId, World};

use crate::BaselineConfig;

/// TiFL-style tier-based training (\[5\] Chai et al., discussed in §I/§II):
/// agents are segmented into tiers by training speed and each round selects
/// participants from a *single* tier, so fast tiers never wait for slow
/// ones.
///
/// The price: every round sees only one tier's data, so more rounds are
/// needed (the rounds factor scales like participation sampling), and the
/// whole model still trains on every agent — unlike ComDML, no workload
/// moves anywhere.
#[derive(Debug, Clone)]
pub struct TierBased {
    cfg: BaselineConfig,
    num_tiers: usize,
}

impl TierBased {
    /// Creates the engine with the given tier count (TiFL uses ~5).
    ///
    /// # Panics
    ///
    /// Panics if `num_tiers` is zero.
    pub fn new(cfg: BaselineConfig, num_tiers: usize) -> Self {
        assert!(num_tiers > 0, "need at least one tier");
        Self { cfg, num_tiers }
    }

    /// Splits participants into speed tiers (tier 0 = fastest).
    fn tiers(&self, world: &World, participants: &[AgentId]) -> Vec<Vec<AgentId>> {
        let mut by_speed: Vec<AgentId> = participants.to_vec();
        by_speed.sort_by(|&a, &b| {
            let ta = self.cfg.solo_time_s(world.agent(a));
            let tb = self.cfg.solo_time_s(world.agent(b));
            ta.partial_cmp(&tb).unwrap_or(std::cmp::Ordering::Equal)
        });
        let t = self.num_tiers.min(by_speed.len().max(1));
        let mut tiers = vec![Vec::new(); t];
        let per = by_speed.len().div_ceil(t);
        for (i, id) in by_speed.into_iter().enumerate() {
            tiers[(i / per).min(t - 1)].push(id);
        }
        tiers
    }

    /// The speed tier round `round` selects.
    fn selected_tier(&self, world: &World, round: usize, participants: &[AgentId]) -> Vec<AgentId> {
        let mut tiers = self.tiers(world, participants);
        let idx = round % tiers.len();
        std::mem::take(&mut tiers[idx])
    }

    /// Barrier time of one tier's round: the tier's compute plus the
    /// FedAvg-style server exchange.
    fn price_tier(&self, world: &World, tier: &[AgentId]) -> f64 {
        let times = self.cfg.per_agent_times(world, tier);
        let b = self.cfg.model.model_bytes() as u64;
        let min_link = self.cfg.min_link_mbps(world, tier);
        let comm = 2.0 * self.cfg.calibration.transfer_time_s(b, min_link);
        comdml_core::barrier_round_s(&times, comm)
    }
}

impl RoundEngine for TierBased {
    fn name(&self) -> &'static str {
        "TiFL (tiers)"
    }

    fn rounds_factor(&self) -> f64 {
        // One tier of data per round: same sub-linear penalty as
        // participation sampling at rate 1/T.
        (1.0 / self.num_tiers as f64).powf(0.35)
    }

    /// Only the round's selected speed tier trains and aggregates: the
    /// cohort is that tier, and the efficiency is the one-tier-of-data
    /// sampling discount.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        let participants = input.participants;
        if participants.is_empty() {
            return RoundProgress::idle(0.0);
        }
        let tier = self.selected_tier(world, input.round, participants);
        if tier.is_empty() {
            // Ceil splitting can leave trailing tiers empty when the
            // participant count doesn't divide evenly; a round whose
            // selected tier trains nobody advances nothing.
            return RoundProgress::idle(0.0);
        }
        RoundProgress {
            cohort: tier.len(),
            ..RoundProgress::fresh(
                self.price_tier(world, &tier),
                self.rounds_factor(),
                participants.len(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::full_round;
    use comdml_simnet::WorldConfig;

    #[test]
    fn fast_tier_rounds_are_much_shorter() {
        let mut engine = TierBased::new(BaselineConfig::default(), 5);
        let world = WorldConfig::heterogeneous(20, 1).build();
        // Tier index = round % 5; tier 0 is fastest.
        let fast = full_round(&mut engine, &world, 0).round_s;
        let slow = full_round(&mut engine, &world, 4).round_s;
        assert!(slow > 4.0 * fast, "fast tier {fast:.1}s vs slow tier {slow:.1}s");
    }

    #[test]
    fn mean_round_beats_global_straggler() {
        let mut engine = TierBased::new(BaselineConfig::default(), 5);
        let world = WorldConfig::heterogeneous(20, 2).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let straggler = engine.cfg.straggler_compute_s(&world, &ids);
        let mean: f64 =
            (0..10).map(|r| full_round(&mut engine, &world, r).round_s).sum::<f64>() / 10.0;
        assert!(mean < straggler, "tiering should cut the mean round: {mean} vs {straggler}");
    }

    #[test]
    fn progress_cohort_is_one_tier() {
        let mut engine = TierBased::new(BaselineConfig::default(), 5);
        let world = WorldConfig::heterogeneous(20, 3).build();
        for round in 0..5 {
            let p = full_round(&mut engine, &world, round);
            assert_eq!(p.participants, 20);
            assert_eq!(p.cohort, 4, "20 agents over 5 tiers");
        }
    }

    #[test]
    fn empty_tier_rounds_advance_nothing() {
        // 7 participants over 5 tiers splits ceil(7/5) = 2 per tier:
        // [2, 2, 2, 1, 0] — the last tier is empty, and its round must not
        // be credited with learning progress.
        let mut engine = TierBased::new(BaselineConfig::default(), 5);
        let world = WorldConfig::heterogeneous(7, 3).build();
        let p = full_round(&mut engine, &world, 4);
        assert_eq!(p.cohort, 0);
        assert_eq!(p.efficiency, 0.0, "an empty tier teaches nothing");
        assert_eq!(p.round_s, 0.0);
    }

    #[test]
    fn rounds_factor_penalizes_tier_count() {
        let one = TierBased::new(BaselineConfig::default(), 1).rounds_factor();
        let five = TierBased::new(BaselineConfig::default(), 5).rounds_factor();
        assert!((one - 1.0).abs() < 1e-12);
        assert!(five < one);
    }
}
