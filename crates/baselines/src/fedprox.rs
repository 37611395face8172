use comdml_core::{RoundEngine, RoundInput, RoundProgress};
use comdml_simnet::World;

use crate::common::slowest_s;
use crate::BaselineConfig;

/// FedProx (\[27\] Li et al., discussed in §II-B): heterogeneity-aware FedAvg
/// that lets slow agents do *less local work* per round (fewer local
/// iterations), with a proximal term keeping partial updates stable.
///
/// We model the system-level effect: each agent trains a fraction of its
/// local epoch proportional to its speed (floored so everyone contributes),
/// which caps the straggler's round time, at the cost of extra rounds
/// (partial local work converges slower).
#[derive(Debug, Clone)]
pub struct FedProx {
    cfg: BaselineConfig,
    min_work: f64,
}

impl FedProx {
    /// Creates the engine; `min_work` is the floor on the fraction of a
    /// local epoch a straggler performs (FedProx's γ-inexactness knob).
    ///
    /// # Panics
    ///
    /// Panics if `min_work` is not in `(0, 1]`.
    pub fn new(cfg: BaselineConfig, min_work: f64) -> Self {
        assert!(min_work > 0.0 && min_work <= 1.0, "min work must be in (0, 1], got {min_work}");
        Self { cfg, min_work }
    }
}

impl RoundEngine for FedProx {
    fn name(&self) -> &'static str {
        "FedProx"
    }

    fn rounds_factor(&self) -> f64 {
        // Partial local work converges slower: the more a straggler's
        // epoch is truncated (small `min_work`), the more rounds the global
        // model needs. Linear interpolation to 1.0 at full work.
        0.6 + 0.4 * self.min_work
    }

    /// Every participant contributes, but stragglers contribute
    /// *truncated* epochs — the round's efficiency is the γ-inexactness
    /// discount, a constant of the `min_work` floor.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        let participants = input.participants;
        if participants.is_empty() {
            return RoundProgress::idle(0.0);
        }
        // Reference pace: the median agent trains a full epoch; faster
        // agents too; slower agents scale their work down to match, floored.
        let mut solos: Vec<f64> =
            participants.iter().map(|&id| self.cfg.solo_time_s(world.agent(id))).collect();
        solos.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let reference = solos[solos.len() / 2];
        let compute = slowest_s(participants.iter().map(|&id| {
            let solo = self.cfg.solo_time_s(world.agent(id));
            solo * (reference / solo).clamp(self.min_work, 1.0)
        }));
        let b = self.cfg.model.model_bytes() as u64;
        let min_link = self.cfg.min_link_mbps(world, participants);
        let comm = 2.0 * self.cfg.calibration.transfer_time_s(b, min_link);
        let round_s = compute + comm;
        RoundProgress::fresh(round_s, self.rounds_factor(), participants.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::full_round;
    use crate::FedAvg;
    use comdml_simnet::WorldConfig;

    #[test]
    fn caps_straggler_rounds_below_fedavg() {
        let world = WorldConfig::heterogeneous(10, 1).build();
        let mut fedavg = FedAvg::new(BaselineConfig::default());
        let mut fedprox = FedProx::new(BaselineConfig::default(), 0.5);
        let t_avg = full_round(&mut fedavg, &world, 0).round_s;
        let t_prox = full_round(&mut fedprox, &world, 0).round_s;
        assert!(t_prox < t_avg, "{t_prox} vs {t_avg}");
    }

    #[test]
    fn min_work_one_degenerates_to_fedavg_compute() {
        let base = BaselineConfig::default();
        let world = WorldConfig::heterogeneous(10, 2).build();
        let mut full = FedProx::new(base.clone(), 1.0);
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let straggler = base.straggler_compute_s(&world, &ids);
        let t = full_round(&mut full, &world, 0).round_s;
        assert!(t >= straggler, "min_work = 1 keeps full epochs: {t} vs {straggler}");
    }

    #[test]
    fn pays_in_rounds() {
        assert!(FedProx::new(BaselineConfig::default(), 0.2).rounds_factor() < 1.0);
    }

    #[test]
    fn progress_carries_the_inexactness_discount() {
        let world = WorldConfig::heterogeneous(10, 6).build();
        let mut engine = FedProx::new(BaselineConfig::default(), 0.4);
        let p = full_round(&mut engine, &world, 0);
        assert!((p.efficiency - (0.6 + 0.4 * 0.4)).abs() < 1e-12);
        assert_eq!(p.cohort, 10, "everyone's partial update aggregates");
    }
}
