use comdml_core::{RoundEngine, RoundInput, RoundProgress};
use comdml_simnet::World;

use crate::BaselineConfig;

/// Gossip's mixing efficiency on a full mesh: pairwise averaging propagates
/// information across `K` agents roughly a factor `log(K)/K` slower per
/// round than a global average, which at the paper's scales costs a bit
/// under half the round efficiency.
const MIXING_EFFICIENCY: f64 = 0.55;

/// Gossip Learning \[11\]: every agent trains locally and exchanges its model
/// with a single random neighbour.
///
/// There is no global barrier, so the effective round advances at the *mean*
/// pace of the fleet rather than the straggler's — but pairwise averaging
/// mixes information much more slowly than a global AllReduce, so more
/// rounds are needed to reach the same accuracy (the `rounds_factor`).
#[derive(Debug, Clone)]
pub struct GossipLearning {
    cfg: BaselineConfig,
    rounds_factor: f64,
}

impl GossipLearning {
    /// Creates the engine with the full-mesh mixing efficiency (0.55).
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, rounds_factor: MIXING_EFFICIENCY }
    }

    /// Degrades the mixing efficiency for a sparse topology: pairwise
    /// averaging mixes through the graph's conductance, so a graph keeping
    /// only a `density` fraction of links slows convergence roughly by
    /// `√density` (random-graph spectral-gap scaling).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    pub fn with_topology_density(mut self, density: f64) -> Self {
        assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1], got {density}");
        self.rounds_factor = (MIXING_EFFICIENCY * density.sqrt()).max(0.05);
        self
    }
}

impl RoundEngine for GossipLearning {
    fn name(&self) -> &'static str {
        "Gossip Learning"
    }

    fn rounds_factor(&self) -> f64 {
        self.rounds_factor
    }

    /// Everyone exchanges, but pairwise averaging only *partially* mixes
    /// information — the round's learning efficiency is the (possibly
    /// topology-degraded) mixing factor, well below a global average's 1.0.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        let participants = input.participants;
        if participants.is_empty() {
            return RoundProgress::idle(0.0);
        }
        let b = self.cfg.model.model_bytes() as u64;
        // No barrier: the fleet progresses at its mean pace, each agent
        // paying its own compute plus one model exchange over its own link.
        let mut times: Vec<f64> = participants
            .iter()
            .map(|&id| {
                let a = world.agent(id);
                let exchange = 2.0 * self.cfg.calibration.transfer_time_s(b, a.profile.link_mbps);
                self.cfg.solo_time_s(a) + exchange
            })
            .collect();
        // Summed in finishing order, so the bits do not depend on the order
        // participants are listed in.
        times.sort_unstable_by(f64::total_cmp);
        let round_s = times.iter().fold(0.0, |sum, &t| sum + t) / times.len() as f64;
        RoundProgress::fresh(round_s, self.rounds_factor(), participants.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::full_round;
    use comdml_core::LearningCurve;
    use comdml_simnet::WorldConfig;

    #[test]
    fn gossip_rounds_exceed_synchronous_rounds() {
        let curve = LearningCurve::cifar10(true);
        let gossip = GossipLearning::new(BaselineConfig::default());
        assert!(curve.rounds_to(0.80, gossip.rounds_factor()) > curve.rounds_to(0.80, 1.0));
    }

    #[test]
    fn per_round_time_below_straggler() {
        let mut gossip = GossipLearning::new(BaselineConfig::default());
        let world = WorldConfig::heterogeneous(10, 2).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let straggler = gossip.cfg.straggler_compute_s(&world, &ids);
        let t = full_round(&mut gossip, &world, 0).round_s;
        assert!(t < straggler, "mean pace {t} should be under straggler {straggler}");
    }

    #[test]
    fn progress_carries_the_mixing_efficiency() {
        let world = WorldConfig::heterogeneous(8, 4).build();
        for density in [0.25, 1.0f64] {
            let mut gossip =
                GossipLearning::new(BaselineConfig::default()).with_topology_density(density);
            let p = full_round(&mut gossip, &world, 0);
            assert!((p.efficiency - 0.55 * density.sqrt()).abs() < 1e-12);
            assert_eq!(p.cohort, 8, "everyone exchanges");
        }
    }
}
