use comdml_cost::{CostCalibration, ModelSpec};
use comdml_simnet::{AgentId, AgentState, World};

/// Shared configuration of all baseline engines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// The model being trained (for FLOPs and payload size).
    pub model: ModelSpec,
    /// Resource-to-seconds calibration (must match the ComDML run being
    /// compared against).
    pub calibration: CostCalibration,
    /// Central-server aggregate bandwidth in Mbps (FedAvg only).
    pub server_mbps: f64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        Self {
            model: ModelSpec::resnet56(),
            calibration: CostCalibration::default(),
            server_mbps: 1000.0,
        }
    }
}

impl BaselineConfig {
    /// Solo full-model training time of one agent (`Ñ / p`): baselines do
    /// not split models, so every agent always trains the whole network.
    pub fn solo_time_s(&self, agent: &AgentState) -> f64 {
        agent.num_batches() as f64
            * self.calibration.batch_time_s(
                self.model.train_flops_per_sample(),
                agent.batch_size,
                agent.profile.cpus,
            )
    }

    /// The compute phase of a synchronized round: the slowest participant's
    /// full local epoch (0 with no participants).
    pub fn straggler_compute_s(&self, world: &World, participants: &[AgentId]) -> f64 {
        slowest_s(participants.iter().map(|&id| self.solo_time_s(world.agent(id))))
    }

    /// The slowest participant link in Mbps (0 if anyone is disconnected).
    pub fn min_link_mbps(&self, world: &World, participants: &[AgentId]) -> f64 {
        participants
            .iter()
            .map(|&id| world.agent(id).profile.link_mbps)
            .fold(f64::INFINITY, f64::min)
    }
}

/// The last of `times` to finish (0 when empty): a barrier's compute
/// phase, after which its aggregation starts.
pub(crate) fn slowest_s(times: impl IntoIterator<Item = f64>) -> f64 {
    times.into_iter().fold(0.0, f64::max)
}

/// One round of `engine` over every agent of `world` — the direct `round`
/// call the engine unit tests share.
#[cfg(test)]
pub(crate) fn full_round(
    engine: &mut impl comdml_core::RoundEngine,
    world: &World,
    round: usize,
) -> comdml_core::RoundProgress {
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    engine.round(world, comdml_core::RoundInput::new(round, &ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use comdml_simnet::WorldConfig;

    #[test]
    fn solo_time_matches_manual_computation() {
        let cfg = BaselineConfig::default();
        let world = WorldConfig::heterogeneous(5, 1).build();
        let a = &world.agents()[0];
        let expected = a.num_batches() as f64
            * cfg.calibration.batch_time_s(
                cfg.model.train_flops_per_sample(),
                a.batch_size,
                a.profile.cpus,
            );
        assert!((cfg.solo_time_s(a) - expected).abs() < 1e-12);
    }

    #[test]
    fn straggler_dominates_compute_phase() {
        let cfg = BaselineConfig::default();
        let world = WorldConfig::heterogeneous(10, 2).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let straggler = cfg.straggler_compute_s(&world, &ids);
        for a in world.agents() {
            assert!(cfg.solo_time_s(a) <= straggler + 1e-9);
        }
    }
}
