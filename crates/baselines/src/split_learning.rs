use comdml_core::{RoundEngine, RoundInput, RoundProgress};
use comdml_cost::SplitProfile;
use comdml_simnet::World;

use crate::common::slowest_s;
use crate::BaselineConfig;

/// Classic server-based split learning (\[2\] Vepakomma et al., §II-A): every
/// agent keeps only the first layers and a central server trains the rest —
/// but unlike local-loss training, each batch requires a *round trip*: the
/// activation goes up and the gradient comes back, and the agent stalls
/// until the gradient arrives.
///
/// This is the method ComDML's §III-B design replaces; the engine exists to
/// quantify exactly the overhead the paper attributes to it ("SL requires
/// agents to wait for backpropagated gradients from the server ... resulting
/// in substantial communication overhead in each training round").
#[derive(Debug, Clone)]
pub struct ClassicSplitLearning {
    cfg: BaselineConfig,
    profile: SplitProfile,
    /// Layers kept on the agent side (the rest live on the server).
    agent_layers: usize,
    /// Server processing speed in "CPU" units.
    server_cpus: f64,
}

impl ClassicSplitLearning {
    /// Creates the engine with agents keeping `agent_layers` layers and a
    /// server of `server_cpus` capacity hosting the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `agent_layers` is zero or not smaller than the model depth,
    /// or `server_cpus` is not positive.
    pub fn new(cfg: BaselineConfig, agent_layers: usize, server_cpus: f64) -> Self {
        let l = cfg.model.num_weighted_layers();
        assert!(agent_layers > 0 && agent_layers < l, "agent must keep 1..{l} layers");
        assert!(server_cpus > 0.0, "server capacity must be positive");
        let profile = SplitProfile::new(&cfg.model, 100);
        Self { cfg, profile, agent_layers, server_cpus }
    }

    /// Communication bytes per batch: the activation up plus a gradient of
    /// the same shape back down.
    pub fn bytes_per_batch(&self) -> u64 {
        let offload = self.cfg.model.num_weighted_layers() - self.agent_layers;
        let e = self.profile.entry(offload).expect("valid split");
        2 * e.nu_bytes_per_batch
    }
}

impl RoundEngine for ClassicSplitLearning {
    fn name(&self) -> &'static str {
        "Split Learning"
    }

    /// Per-batch server round trips are slow but lossless — the global
    /// model still sees every participant's full epoch, a full-efficiency
    /// round.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        let participants = input.participants;
        if participants.is_empty() {
            return RoundProgress::idle(0.0);
        }
        let offload = self.cfg.model.num_weighted_layers() - self.agent_layers;
        let e = self.profile.entry(offload).expect("valid split");
        // Per batch, the agent computes its prefix, ships the activation,
        // waits for the server to run the suffix, and receives the gradient
        // — fully serialized (that is the point of the comparison).
        let round_s = slowest_s(participants.iter().map(|&id| {
            let a = world.agent(id);
            let p = self.cfg.calibration.batches_per_s(
                self.cfg.model.train_flops_per_sample(),
                a.batch_size,
                a.profile.cpus,
            );
            let p_server = self.cfg.calibration.batches_per_s(
                self.cfg.model.train_flops_per_sample(),
                a.batch_size,
                self.server_cpus,
            );
            let agent_batch = e.t_slow_rel / p;
            let server_batch = e.t_fast_rel / p_server;
            let round_trip = 2.0
                * self.cfg.calibration.transfer_time_s(e.nu_bytes_per_batch, a.profile.link_mbps);
            a.num_batches() as f64 * (agent_batch + round_trip + server_batch)
        }));
        RoundProgress::fresh(round_s, self.rounds_factor(), participants.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::full_round;
    use crate::FedAvg;
    use comdml_simnet::WorldConfig;

    fn base() -> BaselineConfig {
        BaselineConfig::default()
    }

    #[test]
    fn round_trips_double_the_activation_traffic() {
        let engine = ClassicSplitLearning::new(base(), 19, 8.0);
        let offload = engine.cfg.model.num_weighted_layers() - 19;
        let one_way = engine.profile.entry(offload).unwrap().nu_bytes_per_batch;
        assert_eq!(engine.bytes_per_batch(), 2 * one_way);
    }

    #[test]
    fn serialized_round_trips_hurt_on_slow_links() {
        // On the paper's link grid, classic SL's per-batch synchronization
        // is slower than even full local training for most agents.
        let world = WorldConfig::heterogeneous(10, 1).build();
        let mut sl = ClassicSplitLearning::new(base(), 19, 8.0);
        let mut fedavg = FedAvg::new(base());
        let t_sl = full_round(&mut sl, &world, 0).round_s;
        let t_avg = full_round(&mut fedavg, &world, 0).round_s;
        assert!(
            t_sl > 0.5 * t_avg,
            "SL should not magically beat local training: {t_sl} vs {t_avg}"
        );
    }

    #[test]
    fn progress_pairs_round_trip_time_with_full_efficiency() {
        let world = WorldConfig::heterogeneous(6, 2).build();
        let mut engine = ClassicSplitLearning::new(base(), 19, 8.0);
        let p = full_round(&mut engine, &world, 0);
        assert!(p.round_s > 0.0);
        assert_eq!((p.efficiency, p.cohort), (1.0, 6));
    }

    #[test]
    #[should_panic(expected = "agent must keep")]
    fn rejects_keeping_whole_model() {
        let _ = ClassicSplitLearning::new(base(), 56, 8.0);
    }
}
