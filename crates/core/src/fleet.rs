//! The round harness: every method, round by round, over an elastic fleet.
//!
//! [`FleetSim`] is the one multi-round loop. It marries the membership
//! process of [`comdml_simnet::FleetDriver`] to any [`RoundEngine`]: every
//! round it applies the experiment policies (hostile shaping, profile
//! churn, participation sampling), asks the driver for the current
//! membership and the arrivals/departures expected inside a planning
//! horizon, hands the engine the sampled participants, those changes and
//! their carried head starts ([`RoundInput`]), then reports the realized
//! round duration back so the fleet clock (and with it the churn process)
//! advances exactly as fast as the simulation does. ComDML
//! ([`crate::ComDml`], pairing plus an [`crate::EventRound`] with the
//! changes injected as mid-round join/leave disruptions) is the default
//! engine; every baseline runs through the same loop, so the methods face
//! the same membership, churn and sampling.
//!
//! Per-agent carry-over (head starts from semi-sync/async spill) survives
//! membership changes: it is kept for agents that remain active and
//! dropped the moment an agent departs, so no round ever schedules work
//! for a ghost (the proptests in `tests/fleet_churn.rs` hold this
//! invariant under arbitrary churn).
//!
//! # Example
//!
//! ```
//! use comdml_core::{ComDmlConfig, EventGranularity, FleetSim, LearningCurve, LearningModel};
//! use comdml_simnet::{ArrivalProcess, FleetConfig, SessionLifetime};
//!
//! let fleet = FleetConfig::new(12, 7)
//!     .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.001 })
//!     .lifetime(SessionLifetime::Exponential { mean_s: 20_000.0 });
//! let config = ComDmlConfig {
//!     churn: None,
//!     granularity: EventGranularity::Coarse,
//!     ..ComDmlConfig::default()
//! };
//! let mut sim = FleetSim::new(fleet, config);
//! let report = sim.run(5);
//! assert_eq!(report.rounds, 5);
//! assert!(report.total_sim_s > 0.0);
//!
//! // Or stop the round a learning model reaches its target.
//! let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.5);
//! let trajectory = sim.run_to_target(&mut model, 100);
//! assert!(model.reached());
//! assert_eq!(trajectory.len(), sim.report().rounds - 5);
//! ```
//!
//! Any other engine runs through [`FleetSim::with_engine`], on a driver
//! the caller may shape first (e.g. Dirichlet dataset sizes).

use std::collections::HashMap;

use comdml_simnet::{AgentId, FleetConfig, FleetDriver, MembershipChange};
use serde::{Deserialize, Serialize};

use crate::estimator::solo_time_s;
use crate::{
    ComDml, ComDmlConfig, Disruption, LearningModel, RoundEngine, RoundInput, RoundProgress,
};

/// What one elastic-fleet round produced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetRoundSummary {
    /// Zero-based round index.
    pub round: usize,
    /// Active members at the round start.
    pub participants: usize,
    /// Members the participation sampler admitted to the round (equals
    /// `participants` at `sampling_rate = 1.0`).
    pub sampled: usize,
    /// Agents whose update made the aggregation cohort.
    pub cohort: usize,
    /// Mid-round joins handed to the round.
    pub joins: usize,
    /// Mid-round leaves handed to the round.
    pub leaves: usize,
    /// Of the handed leaves, the participant departures that actually
    /// landed inside the realized round (`at_s <= round_s`). The planning
    /// horizon forecasts further ahead than most rounds run, so a later
    /// leave stays active and re-appears next round — this count is what
    /// churn-coupled accuracy may charge without double-counting.
    pub leaves_committed: usize,
    /// Successful helper re-pairings after departures.
    pub repairs: usize,
    /// Simulated seconds this round took.
    pub round_s: f64,
    /// Staleness-weighted learning efficiency of the round (1 = a fully
    /// fresh synchronous round).
    pub efficiency: f64,
    /// Events the round engine executed.
    pub events_processed: u64,
}

impl From<&FleetRoundSummary> for RoundProgress {
    /// The elastic-fleet round as effective-progress inputs for a
    /// [`crate::LearningModel`]: the sampled participants entered the
    /// round, the cohort aggregated, and the leaves that landed inside the
    /// realized round are the disruptions churn-coupled accuracy charges
    /// for (forecast-only leaves are charged the round they commit).
    fn from(s: &FleetRoundSummary) -> Self {
        Self {
            round_s: s.round_s,
            efficiency: s.efficiency,
            participants: s.sampled,
            cohort: s.cohort,
            disruptions: s.leaves_committed,
            events_processed: s.events_processed,
            repairs: s.repairs,
            spill: Vec::new(),
        }
    }
}

/// Aggregate report of a [`FleetSim::run`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Total simulated seconds.
    pub total_sim_s: f64,
    /// Sum of per-round efficiencies — the learning-curve progress the run
    /// achieved, in equivalent fresh synchronous rounds.
    pub effective_rounds: f64,
    /// Mean per-round efficiency (the run's realized rounds factor).
    pub rounds_factor: f64,
    /// Total events the round engines executed.
    pub events_processed: u64,
    /// Largest concurrent active membership observed.
    pub peak_agents: usize,
    /// Arrivals activated over the run.
    pub arrivals: usize,
    /// Departures committed over the run.
    pub departures: usize,
    /// Active members when the run ended.
    pub final_active: usize,
}

/// Any [`RoundEngine`] driven across rounds on an elastic fleet (ComDML
/// by default). See the module docs.
#[derive(Debug, Clone)]
pub struct FleetSim<E = ComDml> {
    fleet: FleetDriver,
    config: ComDmlConfig,
    engine: E,
    ready_at: HashMap<AgentId, f64>,
    last_round_s: f64,
    rounds_run: usize,
    total_sim_s: f64,
    effective_rounds: f64,
    events_processed: u64,
}

impl FleetSim {
    /// Builds ComDML on a fresh fleet: profiles candidate splits up front
    /// and materializes the fleet. Byzantine liar sets are salted by the
    /// fleet seed ([`ComDml::seeded`]).
    pub fn new(fleet: FleetConfig, config: ComDmlConfig) -> Self {
        let engine = ComDml::seeded(config.clone(), fleet.seed());
        Self::with_engine(fleet.build(), config, engine)
    }
}

impl<E: RoundEngine> FleetSim<E> {
    /// Horizon multiplier over the previous round's duration: generous
    /// enough that most membership events become mid-round disruptions
    /// rather than boundary commits, tight enough that far-future events
    /// are not dragged into the current round.
    const HORIZON_FACTOR: f64 = 2.0;

    /// Drives `engine` on an already built fleet. `config` supplies the
    /// harness policies — profile churn, participation sampling, diurnal
    /// and partition shaping — and the cost model of the opening planning
    /// horizon; its method knobs only matter to a ComDML engine.
    pub fn with_engine(fleet: FleetDriver, config: ComDmlConfig, engine: E) -> Self {
        Self {
            fleet,
            config,
            engine,
            ready_at: HashMap::new(),
            last_round_s: 0.0,
            rounds_run: 0,
            total_sim_s: 0.0,
            effective_rounds: 0.0,
            events_processed: 0,
        }
    }

    /// The underlying fleet driver (membership state, clock, counters).
    pub fn fleet(&self) -> &FleetDriver {
        &self.fleet
    }

    /// The engine the harness drives.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Per-agent head starts carried into the next round — only ever for
    /// agents that are still active members.
    pub fn carry_over(&self) -> &HashMap<AgentId, f64> {
        &self.ready_at
    }

    /// Executes one round and returns its summary.
    pub fn step(&mut self) -> FleetRoundSummary {
        // Hostile-world shaping is a pure function of the fleet clock,
        // evaluated once at each round start: diurnal bandwidth scaling and
        // rotating regional partitions hold for the whole round. With both
        // knobs off the world is never touched, so existing runs (and the
        // pinned digests below) stay bit-identical.
        let now = self.fleet.clock_s();
        if let Some(d) = self.config.diurnal {
            self.fleet.world_mut().set_link_scale(d.factor_at(now));
        }
        if let Some(p) = self.config.partition {
            match p.cut_at(now) {
                Some(isolated) => self.fleet.world_mut().set_partition(p.groups, isolated),
                None => self.fleet.world_mut().clear_partition(),
            }
        }
        // The paper's dynamic-environment profile churn applies between
        // rounds.
        let round = self.fleet.round();
        if let Some(churn) = self.config.churn {
            if churn.interval > 0 && round > 0 && round.is_multiple_of(churn.interval) {
                self.fleet.world_mut().churn_profiles(churn.fraction);
            }
        }
        // After an empty round (or before the first), bound the window by
        // the slowest possible solo task so departures cannot land past
        // the round's event drain.
        let horizon = if self.last_round_s > 0.0 {
            self.last_round_s * Self::HORIZON_FACTOR
        } else {
            let (model, cal) = (&self.config.model, &self.config.calibration);
            self.fleet
                .world()
                .agents()
                .iter()
                .map(|a| solo_time_s(model, cal, a))
                .fold(0.0f64, f64::max)
        };
        let plan = self.fleet.begin_round(horizon);
        // Carry-over hygiene: drop head starts of agents that departed.
        self.ready_at.retain(|id, _| plan.participants.binary_search(id).is_ok());

        // Table III-style per-round participation sampling composed on top
        // of elastic membership: the round runs over a sampled subset of
        // the *active* members. At rate 1.0 the participation stream is
        // never touched, so enabling the knob cannot perturb existing runs.
        let participants: Vec<AgentId> = if self.config.sampling_rate < 1.0 {
            self.fleet
                .world_mut()
                .sample_participants_among(&plan.participants, self.config.sampling_rate)
        } else {
            plan.participants.clone()
        };
        // Carry-over of active-but-unsampled agents is *held*, not lost:
        // they re-enter a later round with their head start intact.
        let mut round_carry = std::mem::take(&mut self.ready_at);
        let held: HashMap<AgentId, f64> = if participants.len() < plan.participants.len() {
            let (held, kept) = round_carry
                .into_iter()
                .partition(|(id, _)| participants.binary_search(id).is_err());
            round_carry = kept;
            held
        } else {
            HashMap::new()
        };

        let changes: Vec<Disruption> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                // Joiners are not cohort members — the round engine only
                // considers them as replacement helpers for repairs — so
                // participation sampling (which gates who *trains and
                // aggregates*) deliberately does not apply to them.
                MembershipChange::Join => Some(Disruption::Join { agent: e.agent, at_s: e.at_s }),
                // A departure only disrupts the round if the departing
                // agent is actually in it; unsampled members leave the
                // fleet without touching the round.
                MembershipChange::Leave => participants
                    .binary_search(&e.agent)
                    .is_ok()
                    .then_some(Disruption::Leave { agent: e.agent, at_s: e.at_s }),
            })
            .collect();
        let joins = plan.events.iter().filter(|e| e.kind == MembershipChange::Join).count();
        let leaves = changes.len() - joins;

        let input = RoundInput { round, participants: &participants, changes, carry: round_carry };
        let progress = self.engine.round(self.fleet.world(), input);

        let mut round_s = progress.round_s;
        if round_s <= 0.0 {
            // An extinct (or instantaneous) round must still advance the
            // fleet clock, or pending arrivals could never activate and the
            // simulation would livelock on zero-second rounds. Fast-forward
            // to the next membership event instead.
            round_s = self.fleet.seconds_to_next_event().unwrap_or(0.0);
        }
        self.fleet.end_round(round_s);
        // New carry-over: spill of agents that are still active members,
        // plus the held head starts of active-but-unsampled agents.
        self.ready_at =
            progress.spill.iter().filter(|&&(id, _)| self.fleet.is_active(id)).copied().collect();
        for (id, s) in held {
            if self.fleet.is_active(id) {
                self.ready_at.insert(id, s);
            }
        }

        // Of the leaves handed to the round, only those landing inside the
        // realized duration actually disrupted it; later forecast events
        // stay active and are reported the round they commit. Closed-form
        // engines never see the leaves, but are charged the same way.
        let leaves_committed = plan.committed_leaves_among(&participants, round_s);

        // An empty round's duration is a fast-forward jump, not a round
        // time; don't let it inflate the next planning horizon.
        self.last_round_s = if plan.participants.is_empty() { 0.0 } else { round_s };
        self.rounds_run += 1;
        self.total_sim_s += round_s;
        self.effective_rounds += progress.efficiency;
        self.events_processed += progress.events_processed;
        comdml_obs::counter_add("fleet.repairs", progress.repairs as u64);
        if comdml_obs::trace_enabled() {
            comdml_obs::trace_event(
                "round",
                vec![
                    ("round", comdml_obs::Value::Num(round as f64)),
                    ("participants", comdml_obs::Value::Num(participants.len() as f64)),
                    ("round_s", comdml_obs::Value::Num(round_s)),
                    ("efficiency", comdml_obs::Value::Num(progress.efficiency)),
                    ("repairs", comdml_obs::Value::Num(progress.repairs as f64)),
                    ("events", comdml_obs::Value::Num(progress.events_processed as f64)),
                ],
            );
        }
        FleetRoundSummary {
            round,
            participants: plan.participants.len(),
            sampled: participants.len(),
            cohort: progress.cohort,
            joins,
            leaves,
            leaves_committed,
            repairs: progress.repairs,
            round_s,
            efficiency: progress.efficiency,
            events_processed: progress.events_processed,
        }
    }

    /// Runs `rounds` rounds and reports aggregates.
    pub fn run(&mut self, rounds: usize) -> FleetReport {
        for _ in 0..rounds {
            self.step();
        }
        self.report()
    }

    /// Steps until `model` reaches its target or `max_rounds` rounds have
    /// run, feeding each round's progress to the model; returns the
    /// accuracy after each round.
    pub fn run_to_target(&mut self, model: &mut LearningModel, max_rounds: usize) -> Vec<f64> {
        let mut trajectory = Vec::new();
        while trajectory.len() < max_rounds {
            let summary = self.step();
            trajectory.push(model.observe(&RoundProgress::from(&summary)));
            if model.reached() {
                break;
            }
        }
        trajectory
    }

    /// Aggregates over everything run so far.
    pub fn report(&self) -> FleetReport {
        FleetReport {
            rounds: self.rounds_run,
            total_sim_s: self.total_sim_s,
            effective_rounds: self.effective_rounds,
            rounds_factor: if self.rounds_run == 0 {
                1.0
            } else {
                self.effective_rounds / self.rounds_run as f64
            },
            events_processed: self.events_processed,
            peak_agents: self.fleet.peak_active(),
            arrivals: self.fleet.arrivals_total(),
            departures: self.fleet.departures_total(),
            final_active: self.fleet.active_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggregationMode, EventGranularity};
    use comdml_simnet::{ArrivalProcess, SessionLifetime};

    fn churny_fleet(seed: u64) -> FleetConfig {
        FleetConfig::new(16, seed)
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.002 })
            .lifetime(SessionLifetime::Exponential { mean_s: 5_000.0 })
            .samples_per_agent(500)
    }

    fn quick_config() -> ComDmlConfig {
        ComDmlConfig {
            churn: None,
            candidate_offloads: Some(vec![8, 16, 24, 32, 40, 48]),
            granularity: EventGranularity::Coarse,
            ..ComDmlConfig::default()
        }
    }

    #[test]
    fn fleet_sim_runs_under_churn() {
        let mut sim = FleetSim::new(churny_fleet(5), quick_config());
        let report = sim.run(30);
        assert_eq!(report.rounds, 30);
        assert!(report.total_sim_s > 0.0);
        assert!(report.events_processed > 0);
        assert!(
            report.arrivals + report.departures > 0,
            "5k-second sessions over 30 rounds should churn"
        );
        assert!(report.final_active > 0);
    }

    #[test]
    fn synchronous_rounds_are_fully_efficient() {
        let mut sim = FleetSim::new(FleetConfig::new(10, 3), quick_config());
        let report = sim.run(5);
        assert!((report.rounds_factor - 1.0).abs() < 1e-12, "static sync fleet stays fresh");
        assert_eq!(report.arrivals, 0);
    }

    #[test]
    fn semi_sync_fleet_degrades_rounds_factor() {
        let cfg = ComDmlConfig {
            aggregation: AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: f64::MAX },
            ..quick_config()
        };
        let mut sim = FleetSim::new(FleetConfig::new(16, 3), cfg);
        let report = sim.run(10);
        assert!(
            report.rounds_factor < 1.0,
            "stragglers past the quorum must cost efficiency, got {}",
            report.rounds_factor
        );
        assert!(report.rounds_factor > 0.0);
    }

    #[test]
    fn extinct_fleet_recovers_via_arrivals() {
        // Everyone departs early; a much later trace arrival must still
        // activate (the empty rounds fast-forward the clock instead of
        // livelocking at zero-second rounds), and the dead stretch must not
        // be credited with learning progress.
        let fleet = FleetConfig::new(4, 1)
            .lifetime(SessionLifetime::Fixed { duration_s: 1.0 })
            .arrivals(ArrivalProcess::Trace(vec![50_000.0, 50_001.0]));
        let mut sim = FleetSim::new(fleet, quick_config());
        let report = sim.run(6);
        assert!(report.departures >= 4, "fixed 1s sessions all end in round 0");
        assert_eq!(report.arrivals, 2, "the trace arrivals must activate");
        // The newcomers inherit the 1 s fixed lifetime and depart again;
        // what matters is that the clock crossed the 50 000 s dead stretch.
        assert!(sim.fleet().clock_s() > 50_000.0, "clock {}", sim.fleet().clock_s());
        assert!(
            report.effective_rounds < report.rounds as f64 - 1.0,
            "empty rounds must not count as learning progress: {} of {}",
            report.effective_rounds,
            report.rounds
        );
    }

    /// Order-sensitive digest over everything a fleet run produces, using
    /// only fields that existed before participation sampling landed (so
    /// the constants below, captured from the pre-sampling HEAD, stay
    /// comparable).
    fn digest(fleet: FleetConfig, config: ComDmlConfig, rounds: usize) -> u64 {
        let mut sim = FleetSim::new(fleet, config);
        let mut d = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..rounds {
            let s = sim.step();
            for v in [
                s.round_s.to_bits(),
                s.efficiency.to_bits(),
                s.participants as u64,
                s.cohort as u64,
                s.joins as u64,
                s.leaves as u64,
                s.repairs as u64,
                s.events_processed,
            ] {
                d = (d ^ v).wrapping_mul(0x1000_0000_01b3);
            }
        }
        let r = sim.report();
        for v in [r.total_sim_s.to_bits(), r.effective_rounds.to_bits(), r.events_processed] {
            d = (d ^ v).wrapping_mul(0x1000_0000_01b3);
        }
        d
    }

    #[test]
    fn sampling_rate_one_reproduces_presampling_digests() {
        // Captured from the commit *before* `FleetSim` honored
        // `sampling_rate` (25 churny rounds, coarse granularity): a run at
        // the default rate of 1.0 must reproduce the old behavior bit for
        // bit — the sampler must not touch any RNG stream or code path
        // unless the rate actually bites.
        let semi = AggregationMode::SemiSynchronous { quorum: 0.6, staleness_s: f64::MAX };
        for (seed, mode, expect) in [
            (5u64, AggregationMode::Synchronous, 0x6d09_9d62_a159_60ea_u64),
            (5, semi, 0x7567_8acc_555a_d961),
            (11, AggregationMode::Synchronous, 0xee3f_df63_7cfb_356c),
            (11, semi, 0x0d58_f41d_f6c9_b150),
        ] {
            let cfg = ComDmlConfig { aggregation: mode, ..quick_config() };
            assert_eq!(
                digest(churny_fleet(seed), cfg, 25),
                expect,
                "sampling_rate = 1.0 must reproduce the pre-sampling digest \
                 (seed {seed}, {mode:?})"
            );
        }
    }

    #[test]
    fn pair_thread_count_never_moves_a_digest() {
        // The parallel pair batches only fan out the *preparation* of pair
        // pipelines; the prepared schedule is applied in pairing order, so
        // every digest — including the pinned pre-sampling constants above
        // — must be bit-for-bit identical at 1, 2, and 8 threads, on both
        // granularities and all aggregation modes.
        // Big enough that the threaded path actually spawns (the engine
        // prepares inline below ~128 pairs).
        let fleet = || {
            FleetConfig::new(400, 7)
                .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.002 })
                .lifetime(SessionLifetime::Exponential { mean_s: 5_000.0 })
                .samples_per_agent(500)
        };
        let semi = AggregationMode::SemiSynchronous { quorum: 0.6, staleness_s: f64::MAX };
        for mode in [AggregationMode::Synchronous, semi, AggregationMode::Asynchronous] {
            for granularity in [EventGranularity::Coarse, EventGranularity::Fine] {
                let cfg = |threads| ComDmlConfig {
                    aggregation: mode,
                    granularity,
                    threads,
                    ..quick_config()
                };
                let baseline = digest(fleet(), cfg(1), 8);
                for threads in [2, 8] {
                    assert_eq!(
                        digest(fleet(), cfg(threads), 8),
                        baseline,
                        "digest moved at {threads} threads ({mode:?}, {granularity:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_knobs_have_pinned_digests() {
        // The hostile-world knobs behind the `@diurnal` / `@partition` /
        // `@byzantine` presets, run with the exact parameters those presets
        // use (25 churny rounds, seed 5). Each digest is pinned per
        // granularity and must be bit-identical at 1, 2, and 8 pair
        // threads: hostile shaping is a pure function of the fleet clock
        // and agent identity, so thread count can never move it. The
        // constants differing from the honest pins above proves each knob
        // actually bites.
        use crate::EventGranularity::{Coarse, Fine};
        use comdml_simnet::{ByzantineConfig, DiurnalCycle, PartitionSchedule};
        let cases: [(&str, ComDmlConfig, u64, u64); 3] = [
            (
                "diurnal",
                ComDmlConfig {
                    diurnal: Some(DiurnalCycle { period_s: 7_200.0, min_factor: 0.25 }),
                    ..quick_config()
                },
                0x4336_9b59_2988_5b55,
                0xf081_e5a1_649a_0629,
            ),
            (
                "partition",
                ComDmlConfig {
                    partition: Some(PartitionSchedule {
                        groups: 4,
                        period_s: 3_600.0,
                        outage_s: 900.0,
                    }),
                    ..quick_config()
                },
                0xcee8_93f5_b3f1_f953,
                0xdfd4_31bc_1214_56b7,
            ),
            (
                "byzantine",
                ComDmlConfig {
                    byzantine: Some(ByzantineConfig { fraction: 0.2, speed_factor: 4.0 }),
                    ..quick_config()
                },
                0x6858_dd9f_809f_6589,
                0x3f2d_9564_fe34_8a7d,
            ),
        ];
        let honest = 0x6d09_9d62_a159_60ea_u64; // seed-5 sync pin above
        for (name, cfg, coarse_pin, fine_pin) in cases {
            for (granularity, expect) in [(Coarse, coarse_pin), (Fine, fine_pin)] {
                assert_ne!(expect, honest, "{name} must not reproduce the honest digest");
                for threads in [1usize, 2, 8] {
                    let cfg = ComDmlConfig { granularity, threads, ..cfg.clone() };
                    assert_eq!(
                        digest(churny_fleet(5), cfg, 25),
                        expect,
                        "{name} digest moved ({granularity:?}, {threads} threads)"
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_thins_rounds_and_stays_deterministic() {
        let cfg = ComDmlConfig { sampling_rate: 0.25, ..quick_config() };
        let run = |cfg: ComDmlConfig| {
            let mut sim = FleetSim::new(FleetConfig::new(16, 3), cfg);
            let mut sampled = Vec::new();
            for _ in 0..10 {
                let s = sim.step();
                assert_eq!(s.participants, 16, "membership is not thinned");
                sampled.push(s.sampled);
            }
            (sampled, sim.report())
        };
        let (sampled_a, report_a) = run(cfg.clone());
        let (sampled_b, report_b) = run(cfg);
        assert_eq!(sampled_a, sampled_b, "sampling is deterministic per seed");
        assert_eq!(report_a, report_b);
        assert!(sampled_a.iter().all(|&s| s == 4), "16 agents at 0.25 -> 4 per round");
        // Thinner rounds do strictly less event work than full rounds.
        let full = FleetSim::new(FleetConfig::new(16, 3), quick_config()).run(10);
        assert!(report_a.events_processed < full.events_processed);
    }

    #[test]
    fn sampling_holds_carry_over_for_unsampled_agents() {
        // Semi-sync spill of an agent that is not sampled next round must
        // survive until the agent participates again, and must never name
        // a departed agent.
        let cfg = ComDmlConfig {
            aggregation: AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: f64::MAX },
            sampling_rate: 0.3,
            ..quick_config()
        };
        let mut sim = FleetSim::new(churny_fleet(13), cfg);
        let mut ever_held = false;
        let mut prev: HashMap<AgentId, f64> = HashMap::new();
        for _ in 0..25 {
            let _ = sim.step();
            for id in sim.carry_over().keys() {
                assert!(sim.fleet().is_active(*id), "carry-over for departed {id}");
            }
            // A spilled agent that is re-sampled has its head start
            // consumed and recomputed; a bit-identical value surviving a
            // round means the agent sat out and its spill was held.
            for (id, s) in sim.carry_over() {
                if prev.get(id).is_some_and(|p| p.to_bits() == s.to_bits()) {
                    ever_held = true;
                }
            }
            prev = sim.carry_over().clone();
        }
        assert!(ever_held, "some unsampled agent should have held spill over 25 rounds");
    }

    #[test]
    fn round_progress_mirrors_the_summary() {
        let mut sim = FleetSim::new(churny_fleet(5), quick_config());
        let mut saw_leave = false;
        let mut total_committed = 0usize;
        for _ in 0..25 {
            let s = sim.step();
            let p = RoundProgress::from(&s);
            assert_eq!(p.round_s.to_bits(), s.round_s.to_bits());
            assert_eq!(p.efficiency.to_bits(), s.efficiency.to_bits());
            assert_eq!(p.participants, s.sampled);
            assert_eq!(p.cohort, s.cohort);
            assert_eq!(p.disruptions, s.leaves_committed);
            assert!(
                s.leaves_committed <= s.leaves,
                "committed leaves are a subset of the handed leaves"
            );
            saw_leave |= s.leaves > 0;
            total_committed += s.leaves_committed;
        }
        assert!(saw_leave, "5k-second sessions over 25 rounds should produce leave disruptions");
        // The total charged over the run cannot exceed actual departures —
        // the invariant the horizon-forecast double-count would break.
        assert!(
            total_committed <= sim.fleet().departures_total(),
            "committed leave charges ({total_committed}) exceed real departures ({})",
            sim.fleet().departures_total()
        );
    }

    #[test]
    fn carry_over_only_names_active_agents() {
        let cfg = ComDmlConfig {
            aggregation: AggregationMode::SemiSynchronous { quorum: 0.6, staleness_s: f64::MAX },
            ..quick_config()
        };
        let mut sim = FleetSim::new(churny_fleet(11), cfg);
        for _ in 0..25 {
            sim.step();
            for id in sim.carry_over().keys() {
                assert!(sim.fleet().is_active(*id), "carry-over for departed {id}");
            }
        }
    }
}
