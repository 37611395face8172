use comdml_core::{RoundEngine, RoundInput, RoundProgress};
use comdml_simnet::World;

use crate::BaselineConfig;

/// FedAvg \[1\]: server-coordinated federated averaging.
///
/// Per round: every participant downloads the global model, trains one full
/// local epoch, and uploads its update. The round is gated by the slowest
/// participant's compute, the slowest participant's link (2·b bytes each
/// way), and the server's aggregate bandwidth (2·P·b bytes through one
/// pipe) — the central-server bottleneck §I and §V-B.2 describe.
#[derive(Debug, Clone)]
pub struct FedAvg {
    cfg: BaselineConfig,
}

impl FedAvg {
    /// Creates the engine.
    pub fn new(cfg: BaselineConfig) -> Self {
        Self { cfg }
    }
}

impl RoundEngine for FedAvg {
    fn name(&self) -> &'static str {
        "FedAvg"
    }

    /// The barrier waits for everyone, so every participant's update
    /// reaches the server fresh — a full-efficiency round over the whole
    /// cohort.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        let participants = input.participants;
        if participants.is_empty() {
            return RoundProgress::idle(0.0);
        }
        let compute = self.cfg.straggler_compute_s(world, participants);
        let b = self.cfg.model.model_bytes() as u64;
        // Slowest client link carries the model down and back up.
        let min_link = self.cfg.min_link_mbps(world, participants);
        let client_comm = 2.0 * self.cfg.calibration.transfer_time_s(b, min_link);
        // The server moves 2·P·b bytes through its own pipe.
        let server_bytes = 2 * participants.len() as u64 * b;
        let server_comm = self.cfg.calibration.transfer_time_s(server_bytes, self.cfg.server_mbps);
        let round_s = compute + client_comm.max(server_comm);
        RoundProgress::fresh(round_s, self.rounds_factor(), participants.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::full_round;
    use comdml_simnet::WorldConfig;

    #[test]
    fn round_time_exceeds_straggler_compute() {
        let mut engine = FedAvg::new(BaselineConfig::default());
        let world = WorldConfig::heterogeneous(10, 1).build();
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let compute = engine.cfg.straggler_compute_s(&world, &ids);
        assert!(full_round(&mut engine, &world, 0).round_s > compute);
    }

    #[test]
    fn progress_pairs_barrier_time_with_full_efficiency() {
        let mut engine = FedAvg::new(BaselineConfig::default());
        let world = WorldConfig::heterogeneous(10, 3).build();
        let p = full_round(&mut engine, &world, 0);
        assert!(p.round_s > 0.0);
        assert_eq!(p.efficiency, 1.0, "everyone aggregates fresh");
        assert_eq!(p.cohort, 10);
        assert_eq!(
            engine.round(&world, RoundInput::new(0, &[])).efficiency,
            0.0,
            "idle when empty"
        );
    }

    #[test]
    fn slower_server_increases_round_time() {
        let mut fast_server =
            FedAvg::new(BaselineConfig { server_mbps: 10_000.0, ..Default::default() });
        let mut slow_server =
            FedAvg::new(BaselineConfig { server_mbps: 10.0, ..Default::default() });
        let world = WorldConfig::heterogeneous(10, 2).build();
        let t_fast = full_round(&mut fast_server, &world, 0).round_s;
        let t_slow = full_round(&mut slow_server, &world, 0).round_s;
        assert!(t_slow > t_fast, "{t_slow} vs {t_fast}");
    }
}
