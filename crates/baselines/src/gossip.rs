use comdml_core::{RoundEngine, RoundInput, RoundProgress};
use comdml_simnet::World;

use crate::BaselineConfig;

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
    /// Creates the engine with the default mixing efficiency (0.55):
    /// pairwise averaging propagates information across `K` agents roughly
    /// a factor `log(K)/K` slower per round than a global average, which at
    /// the paper's scales costs a bit under half the round efficiency.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, rounds_factor: 0.55 }
    }

    /// Overrides the mixing efficiency (1.0 = as good as full averaging).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn with_rounds_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1], got {factor}");
        self.rounds_factor = factor;
        self
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
        self.rounds_factor = (0.55 * density.sqrt()).max(0.05);
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
        let times: Vec<_> = participants
            .iter()
            .map(|&id| {
                let a = world.agent(id);
                let exchange = 2.0 * self.cfg.calibration.transfer_time_s(b, a.profile.link_mbps);
                (id, self.cfg.solo_time_s(a) + exchange)
            })
            .collect();
        let round_s = comdml_core::mean_round_s(&times);
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
        let mut gossip = GossipLearning::new(BaselineConfig::default()).with_topology_density(0.25);
        let world = WorldConfig::heterogeneous(8, 4).build();
        let p = full_round(&mut gossip, &world, 0);
        assert!((p.efficiency - 0.55 * 0.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(p.cohort, 8, "everyone exchanges");
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn invalid_rounds_factor_rejected() {
        let _ = GossipLearning::new(BaselineConfig::default()).with_rounds_factor(1.5);
    }
}
