use comdml_collective::AllReduceAlgorithm;
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{AgentId, AgentMap, ByzantineConfig, DiurnalCycle, PartitionSchedule, World};
use serde::{Deserialize, Serialize};

use crate::{
    AggregationMode, Disruption, EventGranularity, EventRound, PairingScheduler, RoundOutcome,
    RoundProgress, TrainingTimeEstimator,
};

/// Dynamic-environment policy: re-roll a fraction of agent profiles every
/// `interval` rounds ("we randomly changed the profile of 20% of the agents
/// after 100 rounds", §V-B.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnPolicy {
    /// Rounds between churn events.
    pub interval: usize,
    /// Fraction of agents re-rolled per event.
    pub fraction: f64,
}

impl Default for ChurnPolicy {
    fn default() -> Self {
        Self { interval: 100, fraction: 0.2 }
    }
}

/// Configuration of a ComDML run: the method's own knobs plus the
/// experiment policies (churn, sampling, hostile shaping) the
/// [`crate::FleetSim`] harness applies to whichever engine it drives.
#[derive(Debug, Clone)]
pub struct ComDmlConfig {
    /// The model being trained (cost model).
    pub model: ModelSpec,
    /// Resource-to-seconds calibration.
    pub calibration: CostCalibration,
    /// AllReduce algorithm for aggregation (§IV-B picks halving/doubling).
    pub algorithm: AllReduceAlgorithm,
    /// Fraction of active agents the harness samples into each round
    /// (Table III uses 0.2).
    pub sampling_rate: f64,
    /// Profile churn policy the harness applies between rounds (`None` =
    /// static environment).
    pub churn: Option<ChurnPolicy>,
    /// Candidate offloads to profile (`None` = every layer boundary).
    pub candidate_offloads: Option<Vec<usize>>,
    /// Mini-batch size used for profiling (the paper uses 100).
    pub batch_size: usize,
    /// How rounds aggregate: the classic barrier, a quorum/staleness
    /// semi-synchronous trigger, or fully asynchronous (no barrier). The
    /// non-synchronous modes carry stragglers' unfinished work into the
    /// next round instead of waiting for them.
    pub aggregation: AggregationMode,
    /// FedBuff-style staleness decay exponent: updates arriving `s` rounds
    /// after their aggregation contribute `(1 + s)^(-staleness_decay)`
    /// learning progress ([`crate::staleness_weight`]). Zero ignores
    /// staleness; the default 0.5 is the literature's common square-root
    /// discount. Only the non-synchronous modes produce stale updates.
    pub staleness_decay: f64,
    /// Event granularity of the round engine: exact per-batch events, or
    /// closed-form coarse events for undisrupted pairings (the fleet-scale
    /// default; see [`EventGranularity`]).
    pub granularity: EventGranularity,
    /// Threads used to prepare pair pipelines each round
    /// ([`EventRound::pair_threads`]). Results are bit-for-bit identical
    /// for any value; 1 (the default) prepares inline.
    pub threads: usize,
    /// Diurnal time-varying bandwidth (`None` = stationary links). Applied
    /// by the clock-owning [`crate::FleetSim`] harness as a link scale on
    /// the world at each round start.
    pub diurnal: Option<DiurnalCycle>,
    /// Rotating correlated regional outages (`None` = never partitioned).
    /// Applied by the clock-owning harness like [`ComDmlConfig::diurnal`].
    pub partition: Option<PartitionSchedule>,
    /// Byzantine agents misreporting speed to the pairing broadcast
    /// (`None` = everyone honest). The liar set is salted by the fleet seed
    /// ([`ComDml::seeded`]; [`ComDml::new`] salts with 0).
    pub byzantine: Option<ByzantineConfig>,
}

impl Default for ComDmlConfig {
    fn default() -> Self {
        Self {
            model: ModelSpec::resnet56(),
            calibration: CostCalibration::default(),
            algorithm: AllReduceAlgorithm::HalvingDoubling,
            sampling_rate: 1.0,
            churn: Some(ChurnPolicy::default()),
            candidate_offloads: None,
            batch_size: 100,
            aggregation: AggregationMode::Synchronous,
            staleness_decay: 0.5,
            granularity: EventGranularity::Fine,
            threads: 1,
            diurnal: None,
            partition: None,
            byzantine: None,
        }
    }
}

/// What the harness hands an engine for one round: the sampled
/// participants, the membership changes expected inside the round, and the
/// head starts the participants carry over from earlier rounds.
#[derive(Debug, Default)]
pub struct RoundInput<'a> {
    /// Zero-based round index.
    pub round: usize,
    /// Agents that train and aggregate this round, ascending by id.
    pub participants: &'a [AgentId],
    /// Mid-round joins and participant leaves (see [`Disruption`]).
    pub changes: Vec<Disruption>,
    /// Per-participant head starts: seconds of earlier work still running
    /// when this round starts (semi-sync/async spill).
    pub carry: AgentMap<f64>,
}

impl<'a> RoundInput<'a> {
    /// A round over `participants` with no membership changes and no
    /// carried work.
    pub fn new(round: usize, participants: &'a [AgentId]) -> Self {
        Self { round, participants, ..Self::default() }
    }
}

/// A training method as the [`crate::FleetSim`] harness drives it: ComDML
/// and every baseline price one round over the participants they are
/// handed. Membership, churn, sampling, carry-over and the clock belong to
/// the harness, so every method faces the same fleet.
pub trait RoundEngine {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Rounds-to-accuracy efficiency relative to full synchronous averaging
    /// (1.0 for FedAvg-style methods; below 1 for partial-mixing gossip).
    fn rounds_factor(&self) -> f64 {
        1.0
    }

    /// Simulates one round on `world` and reports its duration, realized
    /// learning progress and spill. An empty participant set is an idle
    /// round: nothing is learned.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress;
}

impl<E: RoundEngine + ?Sized> RoundEngine for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn rounds_factor(&self) -> f64 {
        (**self).rounds_factor()
    }

    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        (**self).round(world, input)
    }
}

/// The ComDML method: decentralized pairing + local-loss split training +
/// AllReduce aggregation, one [`EventRound`] per round.
#[derive(Debug, Clone)]
pub struct ComDml {
    config: ComDmlConfig,
    profile: SplitProfile,
    scheduler: PairingScheduler,
    last_outcome: Option<RoundOutcome>,
    /// Sum of per-round staleness-weighted efficiencies (see
    /// [`crate::EventRoundReport::efficiency`]) over `rounds_seen` rounds.
    efficiency_sum: f64,
    rounds_seen: usize,
}

impl ComDml {
    /// Builds the method, profiling all candidate splits up front (the
    /// paper's "prior to the training process" profiling step).
    pub fn new(config: ComDmlConfig) -> Self {
        Self::seeded(config, 0)
    }

    /// Like [`ComDml::new`], with the Byzantine liar set salted by `seed`
    /// (the fleet seed), so a sweep over seeds also re-rolls *which*
    /// agents lie.
    pub fn seeded(config: ComDmlConfig, seed: u64) -> Self {
        let full = SplitProfile::new(&config.model, config.batch_size);
        let profile = match &config.candidate_offloads {
            Some(c) => full.restrict_to(c),
            None => full,
        };
        let scheduler = match config.byzantine {
            Some(b) => PairingScheduler::with_misreport(b, seed),
            None => PairingScheduler::new(),
        };
        Self { config, profile, scheduler, last_outcome: None, efficiency_sum: 0.0, rounds_seen: 0 }
    }

    /// The active configuration.
    pub fn config(&self) -> &ComDmlConfig {
        &self.config
    }

    /// The split profile in use.
    pub fn profile(&self) -> &SplitProfile {
        &self.profile
    }

    /// The outcome of the most recent simulated round, if any.
    pub fn last_outcome(&self) -> Option<&RoundOutcome> {
        self.last_outcome.as_ref()
    }
}

impl RoundEngine for ComDml {
    fn name(&self) -> &'static str {
        "ComDML"
    }

    /// Running mean of the staleness-weighted per-round efficiency: 1.0
    /// before any round ran (and always, under the synchronous barrier);
    /// below 1.0 once semi-sync or async rounds produced stale updates.
    fn rounds_factor(&self) -> f64 {
        if self.rounds_seen == 0 {
            1.0
        } else {
            self.efficiency_sum / self.rounds_seen as f64
        }
    }

    /// Pairs the participants (Algorithm 1) and runs the round on the
    /// discrete-event engine under the configured [`AggregationMode`],
    /// with the input's membership changes injected as mid-round
    /// disruptions and its carry as per-agent head starts. Unlike the
    /// closed-form baselines, the realized efficiency varies round to
    /// round with the staleness of the aggregation cohort.
    fn round(&mut self, world: &World, input: RoundInput<'_>) -> RoundProgress {
        // Free the previous outcome before this round allocates: held across
        // the round, it would pin heap under the round's buffers.
        self.last_outcome = None;
        let estimator =
            TrainingTimeEstimator::new(&self.config.model, &self.profile, &self.config.calibration);
        let pairing_timer = comdml_obs::phase("fleet.pairing");
        let pairings = self.scheduler.pair(world, input.participants, &estimator);
        drop(pairing_timer);
        let round_timer = comdml_obs::phase("fleet.round");
        let report = EventRound::new(
            world,
            &pairings,
            &estimator,
            &self.config.calibration,
            self.config.algorithm,
        )
        .mode(self.config.aggregation)
        .granularity(self.config.granularity)
        .pair_threads(self.config.threads)
        .disruptions(input.changes)
        .ready_at(input.carry)
        .run();
        drop(round_timer);
        let progress = report.progress(self.config.staleness_decay);
        self.efficiency_sum += progress.efficiency;
        self.rounds_seen += 1;
        self.last_outcome = Some(report.outcome);
        progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetSim, LearningCurve, LearningModel};
    use comdml_simnet::{FleetConfig, WorldConfig};

    /// The `WorldConfig::heterogeneous(k, seed)` world (50k samples) as a
    /// static fleet.
    fn fleet(k: usize, seed: u64) -> FleetConfig {
        FleetConfig::new(k, seed).samples_per_agent(50_000 / k)
    }

    fn ids(world: &World) -> Vec<AgentId> {
        world.agents().iter().map(|a| a.id).collect()
    }

    #[test]
    fn run_produces_positive_times() {
        let mut sim = FleetSim::new(fleet(10, 1), ComDmlConfig::default());
        let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.80);
        let mut offloads = 0;
        while !model.reached() {
            model.observe(&RoundProgress::from(&sim.step()));
            offloads += sim.engine().last_outcome().unwrap().num_offloads;
        }
        let report = sim.report();
        assert!(report.total_sim_s > 0.0);
        assert!(report.rounds > 0);
        assert!(offloads > 0, "heterogeneous world should offload");
    }

    #[test]
    fn comdml_beats_no_balancing_on_heterogeneous_world() {
        let config = ComDmlConfig { churn: None, ..ComDmlConfig::default() };
        let mut sim = FleetSim::new(fleet(10, 2), config.clone());
        sim.run_to_target(&mut LearningModel::new(LearningCurve::cifar10(true), 0.80), 1_000);
        let report = sim.report();
        let mean_round_s = report.total_sim_s / report.rounds as f64;

        // "No balancing": every agent trains alone; round time is the
        // straggler's solo time.
        let profile = SplitProfile::new(&config.model, config.batch_size);
        let est = TrainingTimeEstimator::new(&config.model, &profile, &config.calibration);
        let world = sim.fleet().world();
        let straggler = world.agents().iter().map(|a| est.solo_time_s(a)).fold(0.0, f64::max);
        assert!(mean_round_s < straggler * 0.8, "balanced round {mean_round_s} vs {straggler}");
    }

    #[test]
    fn sampling_reduces_participants() {
        let config = ComDmlConfig { sampling_rate: 0.2, churn: None, ..ComDmlConfig::default() };
        let mut sim = FleetSim::new(fleet(50, 3), config);
        assert_eq!(sim.step().sampled, 10);
        assert_eq!(sim.engine().last_outcome().unwrap().agent_stats.len(), 10);
    }

    #[test]
    fn churn_triggers_on_interval() {
        let config = ComDmlConfig {
            churn: Some(ChurnPolicy { interval: 5, fraction: 0.5 }),
            ..ComDmlConfig::default()
        };
        let mut sim = FleetSim::new(fleet(20, 4), config);
        let before: Vec<_> = sim.fleet().world().agents().iter().map(|a| a.profile).collect();
        sim.run(6);
        let after: Vec<_> = sim.fleet().world().agents().iter().map(|a| a.profile).collect();
        assert_ne!(before, after, "churn at round 5 should change profiles");
    }

    #[test]
    fn round_progress_reports_realized_efficiency() {
        let world = WorldConfig::heterogeneous(12, 7).build();
        let ids = ids(&world);
        let mut engine = ComDml::new(ComDmlConfig { churn: None, ..ComDmlConfig::default() });
        let p = engine.round(&world, RoundInput::new(0, &ids));
        assert!((p.efficiency - 1.0).abs() < 1e-12, "sync barrier is fully fresh");
        assert_eq!(p.participants, 12);
        assert_eq!(p.cohort, 12);
        assert_eq!(p.disruptions, 0);
        assert!(p.round_s > 0.0);
        assert!(p.spill.is_empty(), "a barrier leaves no spill");

        let mut semi = ComDml::new(ComDmlConfig {
            churn: None,
            aggregation: AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: f64::MAX },
            ..ComDmlConfig::default()
        });
        let sp = semi.round(&world, RoundInput::new(0, &ids));
        assert!(
            sp.efficiency < 1.0,
            "stragglers past the quorum spill and discount efficiency, got {}",
            sp.efficiency
        );
        assert!(sp.cohort < sp.participants, "quorum cohort excludes stragglers");
        assert!(sp.spill.windows(2).all(|w| w[0].0 < w[1].0), "spill is sorted by agent");
        assert!(sp.spill.iter().all(|&(_, s)| s > 0.0), "spill lists only busy agents");
    }

    #[test]
    fn restricted_candidates_are_respected() {
        let world = WorldConfig::heterogeneous(10, 6).build();
        let mut comdml = ComDml::new(ComDmlConfig {
            candidate_offloads: Some(vec![10, 28, 46]),
            churn: None,
            ..ComDmlConfig::default()
        });
        comdml.round(&world, RoundInput::new(0, &ids(&world)));
        assert_eq!(comdml.profile().len(), 4); // 0 plus the three candidates
    }
}
