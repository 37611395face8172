use comdml_collective::{AllReduceAlgorithm, CollectiveCost};
use comdml_core::{RoundEngine, RoundInput, RoundProgress};
use comdml_simnet::World;

use crate::BaselineConfig;

/// Decentralized AllReduce DML \[34\]: agents train the full model
/// independently and aggregate with AllReduce — ComDML without the workload
/// balancing.
///
/// The gap between this engine and ComDML isolates the contribution of the
/// pairing scheduler, since both share the identical aggregation step.
#[derive(Debug, Clone)]
pub struct AllReduceDml {
    cfg: BaselineConfig,
    algorithm: AllReduceAlgorithm,
}

impl AllReduceDml {
    /// Creates the engine with halving/doubling aggregation.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg, algorithm: AllReduceAlgorithm::HalvingDoubling }
    }

    /// Selects the aggregation algorithm (ring vs halving/doubling).
    pub fn with_algorithm(mut self, algorithm: AllReduceAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }
}

impl RoundEngine for AllReduceDml {
    fn name(&self) -> &'static str {
        "AllReduce"
    }

    /// AllReduce is a global average over the full barrier cohort — the
    /// same learning step as FedAvg, at full per-round efficiency.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        let participants = input.participants;
        if participants.is_empty() {
            return RoundProgress::idle(0.0);
        }
        let times = self.cfg.per_agent_times(world, participants);
        let min_link = self.cfg.min_link_mbps(world, participants);
        let cost = CollectiveCost::new(
            self.algorithm,
            participants.len().max(1),
            self.cfg.model.model_bytes() as u64,
        );
        let agg = cost.time_s(
            self.cfg.calibration.bytes_per_s(min_link),
            self.cfg.calibration.link_latency_s,
        );
        let round_s = comdml_core::barrier_round_s(&times, agg);
        RoundProgress::fresh(round_s, self.rounds_factor(), participants.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::full_round;
    use comdml_simnet::WorldConfig;

    #[test]
    fn ring_and_hd_differ_only_in_steps() {
        let world = WorldConfig::heterogeneous(16, 1).build();
        let mut hd = AllReduceDml::new(BaselineConfig::default());
        let mut ring =
            AllReduceDml::new(BaselineConfig::default()).with_algorithm(AllReduceAlgorithm::Ring);
        let t_hd = full_round(&mut hd, &world, 0).round_s;
        let t_ring = full_round(&mut ring, &world, 0).round_s;
        // Same bytes, ring has more latency-bound steps.
        assert!(t_ring >= t_hd);
    }

    #[test]
    fn progress_reports_the_full_cohort_at_full_efficiency() {
        let mut engine = AllReduceDml::new(BaselineConfig::default());
        let world = WorldConfig::heterogeneous(8, 4).build();
        let p = full_round(&mut engine, &world, 0);
        assert!(p.round_s > 0.0);
        assert_eq!((p.efficiency, p.cohort), (1.0, 8));
    }

    #[test]
    fn compute_dominates_for_large_models() {
        let mut engine = AllReduceDml::new(BaselineConfig::default());
        let world = WorldConfig::heterogeneous(10, 2).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let compute = engine.cfg.straggler_compute_s(&world, &ids);
        let t = full_round(&mut engine, &world, 0).round_s;
        assert!(t < compute * 1.2, "aggregation should be a small fraction: {t} vs {compute}");
    }
}
