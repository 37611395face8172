use comdml_core::{RoundEngine, RoundInput, RoundProgress};
use comdml_simnet::{AgentId, World};

use crate::BaselineConfig;

/// Straggler dropping (\[26\] Bonawitz et al., discussed in §II-B): each round
/// simply ignores the slowest fraction of participants (the reference system
/// drops ~30%), synchronizing only on the survivors.
///
/// Cheap rounds, but the dropped agents' data never contributes that round —
/// and the same slow agents are dropped every time, so their data is
/// systematically under-represented (the paper's criticism: "the challenge
/// of determining optimal parameters").
#[derive(Debug, Clone)]
pub struct DropStragglers {
    cfg: BaselineConfig,
    drop_fraction: f64,
}

impl DropStragglers {
    /// Creates the engine dropping the slowest `drop_fraction` each round.
    ///
    /// # Panics
    ///
    /// Panics if `drop_fraction` is not in `[0, 1)`.
    pub fn new(cfg: BaselineConfig, drop_fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&drop_fraction),
            "drop fraction must be in [0, 1), got {drop_fraction}"
        );
        Self { cfg, drop_fraction }
    }

    /// Survivors of an `n`-participant round: the fastest
    /// `ceil(n · (1 − drop_fraction))`, at least one.
    fn keep(&self, n: usize) -> usize {
        ((n as f64 * (1.0 - self.drop_fraction)).ceil() as usize).clamp(1, n)
    }
}

impl RoundEngine for DropStragglers {
    fn name(&self) -> &'static str {
        "Drop-30%"
    }

    fn rounds_factor(&self) -> f64 {
        // Surviving fraction of data per round, with the usual sub-linear
        // transfer between rounds.
        (1.0 - self.drop_fraction).powf(0.35)
    }

    /// The aggregation cohort is only the surviving fast fraction — the
    /// dropped stragglers' data never contributes this round, which is
    /// exactly what the analytic efficiency discounts.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        let participants = input.participants;
        if participants.is_empty() {
            return RoundProgress::idle(0.0);
        }
        let mut by_speed: Vec<(AgentId, f64)> =
            participants.iter().map(|&id| (id, self.cfg.solo_time_s(world.agent(id)))).collect();
        by_speed.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let keep = self.keep(by_speed.len());
        let survivors: Vec<AgentId> = by_speed[..keep].iter().map(|&(id, _)| id).collect();
        let b = self.cfg.model.model_bytes() as u64;
        let min_link = self.cfg.min_link_mbps(world, &survivors);
        let comm = 2.0 * self.cfg.calibration.transfer_time_s(b, min_link);
        let round_s = comdml_core::barrier_round_s(&by_speed[..keep], comm);
        RoundProgress {
            cohort: keep,
            ..RoundProgress::fresh(round_s, self.rounds_factor(), participants.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::full_round;
    use crate::FedAvg;
    use comdml_simnet::WorldConfig;

    #[test]
    fn dropping_shortens_rounds() {
        let world = WorldConfig::heterogeneous(10, 1).build();
        let mut fedavg = FedAvg::new(BaselineConfig::default());
        let mut dropper = DropStragglers::new(BaselineConfig::default(), 0.3);
        let t_full = full_round(&mut fedavg, &world, 0).round_s;
        let t_drop = full_round(&mut dropper, &world, 0).round_s;
        assert!(t_drop < t_full, "{t_drop} vs {t_full}");
    }

    #[test]
    fn needs_more_rounds_than_full_participation() {
        let engine = DropStragglers::new(BaselineConfig::default(), 0.3);
        assert!(engine.rounds_factor() < 1.0);
    }

    #[test]
    fn progress_cohort_is_the_surviving_fraction() {
        let world = WorldConfig::heterogeneous(10, 3).build();
        let mut engine = DropStragglers::new(BaselineConfig::default(), 0.3);
        let p = full_round(&mut engine, &world, 0);
        assert_eq!(p.participants, 10);
        assert_eq!(p.cohort, 7, "30% of 10 dropped");
        assert!((p.efficiency - engine.rounds_factor()).abs() < 1e-12);
    }

    #[test]
    fn zero_drop_matches_full_straggler() {
        let base = BaselineConfig::default();
        let world = WorldConfig::heterogeneous(10, 2).build();
        let mut engine = DropStragglers::new(base.clone(), 0.0);
        let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
        let straggler = base.straggler_compute_s(&world, &ids);
        let t = full_round(&mut engine, &world, 0).round_s;
        assert!(t >= straggler, "keeps everyone: {t} vs {straggler}");
    }
}
