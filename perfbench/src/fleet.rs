//! The two fleet workloads: `FleetSim::new` is the set-up, one
//! `FleetSim::step` is an op, and a participant-round is the work unit.
//!
//! * `fleet_1m_cohort` — the `scalability_1m` world (1M agents, Poisson
//!   arrivals, exponential 10,000 s sessions, semi-sync q=0.8, coarse
//!   events, grid profiles) with 1 % cohorts, so per-round O(world)
//!   bookkeeping is a large share of every step.
//! * `fleet_lognormal_1k` — 1,000 static agents, full participation,
//!   synchronous rounds, CPU speeds from lognormal(0, 0.6): every agent is
//!   its own profile class, so pairing is nearly the whole step.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use comdml_core::{
    AggregationMode, ComDmlConfig, EventGranularity, FleetRoundSummary, FleetSim, Pairing,
    PairingScheduler, TrainingTimeEstimator,
};
use comdml_cost::SplitProfile;
use comdml_obs::phase;
use comdml_simnet::{AgentId, ArrivalProcess, DistributionConfig, FleetConfig, SessionLifetime};

use crate::{batched_setup_times, closed_loop, median, Outcome, DEFAULT_SEED};

/// Which fleet world to drive.
#[derive(Debug, Clone, Copy)]
pub enum Fleet {
    /// 1M agents under churn, 1 % cohorts.
    Cohort1m,
    /// 1,000 static agents with lognormal CPU speeds.
    Lognormal1k,
}

/// The split candidates `scalability_1m` restricts the profile to.
const OFFLOADS: [usize; 6] = [8, 16, 24, 32, 40, 48];

impl Fleet {
    fn configs(self, seed: u64) -> (FleetConfig, ComDmlConfig) {
        let base = ComDmlConfig {
            churn: None,
            candidate_offloads: Some(OFFLOADS.to_vec()),
            granularity: EventGranularity::Coarse,
            threads: 1,
            ..ComDmlConfig::default()
        };
        match self {
            Fleet::Cohort1m => {
                let agents = 1_000_000;
                let fleet = FleetConfig::new(agents, seed)
                    .arrivals(ArrivalProcess::Poisson { rate_per_s: agents as f64 / 10_000.0 })
                    .lifetime(SessionLifetime::Exponential { mean_s: 10_000.0 })
                    .samples_per_agent(500)
                    .batch_size(100)
                    .max_agents(2 * agents)
                    .recycle_slots(true);
                let config = ComDmlConfig {
                    aggregation: AggregationMode::SemiSynchronous {
                        quorum: 0.8,
                        staleness_s: f64::MAX,
                    },
                    sampling_rate: 0.01,
                    ..base
                };
                (fleet, config)
            }
            Fleet::Lognormal1k => {
                let fleet = FleetConfig::new(1_000, seed)
                    .cpu_dist(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.6 });
                (fleet, base)
            }
        }
    }

    /// Set-up timing as `(samples, constructions per sample)`; the median
    /// sample is reported.
    fn setup_reps(self) -> (usize, usize) {
        match self {
            Fleet::Cohort1m => (5, 1),
            Fleet::Lognormal1k => (25, 16),
        }
    }

    /// `(rounds, digest)`: the rounds of one episode, and the `FleetReport`
    /// fold at the end of an episode at [`DEFAULT_SEED`].
    ///
    /// Every episode steps a fresh `FleetSim`, so a run times the same
    /// rounds however fast the program is. The 1M world's steps slow from
    /// ~80 to ~100 ms over its first 60 rounds; a run that kept stepping one
    /// simulation would time later, slower rounds the faster the program got.
    fn episode(self) -> (usize, u64) {
        match self {
            Fleet::Cohort1m => (20, 0xd2c3_94dd_77a3_cca9),
            Fleet::Lognormal1k => (16, 0x3ab8_9ef8_89b4_6c93),
        }
    }

    /// The participants the harness pairs directly for `pairing.call_ms`:
    /// every active agent of the static world, or every 100th active agent
    /// of the million (a cohort-sized set).
    fn pairing_set(self, sim: &FleetSim) -> Vec<AgentId> {
        let fleet = sim.fleet();
        let active = (0..fleet.world().num_agents()).map(AgentId).filter(|&id| fleet.is_active(id));
        match self {
            Fleet::Cohort1m => active.step_by(100).collect(),
            Fleet::Lognormal1k => active.collect(),
        }
    }
}

/// Order-sensitive FNV fold over a fleet run (the `scalability_1m` fold).
fn report_digest(sim: &FleetSim) -> u64 {
    let r = sim.report();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        r.total_sim_s.to_bits(),
        r.effective_rounds.to_bits(),
        r.events_processed,
        r.peak_agents as u64,
        r.arrivals as u64,
        r.departures as u64,
    ] {
        digest = (digest ^ v).wrapping_mul(0x1000_0000_01b3);
    }
    digest
}

/// Invariants every round summary must satisfy.
fn check_step(s: &FleetRoundSummary, round: usize) -> Result<(), String> {
    if s.round != round {
        return Err(format!("round index {} != {round}", s.round));
    }
    if s.sampled == 0 || s.sampled > s.participants || s.cohort > s.sampled {
        return Err(format!(
            "round {round}: sampled {} of {} with cohort {}",
            s.sampled, s.participants, s.cohort
        ));
    }
    if !(s.round_s.is_finite() && s.round_s > 0.0) {
        return Err(format!("round {round}: duration {}", s.round_s));
    }
    if !(s.efficiency > 0.0 && s.efficiency <= 1.0 + 1e-12) {
        return Err(format!("round {round}: efficiency {}", s.efficiency));
    }
    if s.events_processed == 0 || s.leaves_committed > s.leaves {
        return Err(format!("round {round}: {} events", s.events_processed));
    }
    Ok(())
}

/// Every participant appears exactly once across the pairings, and nobody
/// else does.
fn check_pairings(participants: &[AgentId], pairings: &[Pairing]) -> Result<(), String> {
    let expected: HashSet<AgentId> = participants.iter().copied().collect();
    let mut seen = HashSet::with_capacity(participants.len());
    for p in pairings {
        for id in std::iter::once(p.slow).chain(p.fast) {
            if !expected.contains(&id) {
                return Err(format!("pairing names non-participant {id}"));
            }
            if !seen.insert(id) {
                return Err(format!("{id} appears twice in the pairing"));
            }
        }
        if !(p.est_time_s.is_finite() && p.est_time_s > 0.0) {
            return Err(format!("pairing of {} estimates {}", p.slow, p.est_time_s));
        }
    }
    if seen.len() != expected.len() {
        return Err(format!("{} of {} participants paired", seen.len(), expected.len()));
    }
    Ok(())
}

/// Runs one fleet workload.
pub fn run(kind: Fleet, seed: u64, budget: Duration, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (fleet_cfg, config) = kind.configs(seed);
    let (samples, batch) = kind.setup_reps();
    out.setup_s = batched_setup_times(samples, batch, || {
        let _span = phase("bench.fleet_new");
        drop(std::hint::black_box(FleetSim::new(fleet_cfg.clone(), config.clone())));
    });
    let (rounds, pin) = kind.episode();
    let mut digests = Vec::new();
    let mut layers = LayerTotals::default();
    let mut participant_rounds = 0usize;
    let mut step_ms = Vec::new();
    let mut rates = Vec::new();
    let mut last = None;
    let (timed_s, timed_faults) = closed_loop(budget, || {
        // Only one simulation is alive at a time, as in a single long run.
        drop(last.take());
        let mut sim = FleetSim::new(fleet_cfg.clone(), config.clone());
        // One untimed round first: the opening round scans every agent's
        // solo time for its planning horizon, which later rounds never repeat.
        let warm = sim.step();
        out.op_checked(check_step(&warm, 0));
        let mut sim_s = warm.round_s;
        let mut events = warm.events_processed;
        comdml_obs::metrics().reset();
        for round in 1..rounds {
            let start = Instant::now();
            let s = {
                let _span = phase("bench.step");
                sim.step()
            };
            let wall_s = start.elapsed().as_secs_f64();
            step_ms.push(wall_s * 1e3);
            rates.push(s.sampled as f64 / wall_s);
            participant_rounds += s.sampled;
            sim_s += s.round_s;
            events += s.events_processed;
            out.op_checked(check_step(&s, round));
        }
        layers.add(events - warm.events_processed);

        // The report must account for exactly the rounds, simulated seconds
        // and events the steps returned.
        let report = sim.report();
        if report.rounds != rounds
            || report.total_sim_s.to_bits() != sim_s.to_bits()
            || report.events_processed != events
        {
            out.fail_check(format!(
                "report {report:?} disagrees with {rounds} steps ({sim_s} s, {events} events)"
            ));
        }
        digests.push(report_digest(&sim));
        last = Some(sim);
    });
    out.timed_s = timed_s;
    out.timed_faults = timed_faults;
    out.rates = rates;
    let sim = last.expect("the closed loop runs at least one episode");

    let digest = digests[0];
    println!("fleet digest after {rounds} rounds at seed {seed}: {digest:#018x}");
    if digests.iter().any(|&d| d != digest) {
        out.fail_check(format!("episodes ended in different reports: {digests:x?}"));
    }
    if seed == DEFAULT_SEED && digest != pin {
        out.fail_check(format!("digest {digest:#018x} != pinned {pin:#018x}"));
    }

    // Pair the workload's own world directly through the public scheduler.
    let participants = kind.pairing_set(&sim);
    let full = SplitProfile::new(&config.model, config.batch_size);
    let profile = full.restrict_to(&OFFLOADS);
    let estimator = TrainingTimeEstimator::new(&config.model, &profile, &config.calibration);
    let scheduler = PairingScheduler::new();
    let mut call_ms = Vec::new();
    let mut offloading = 0usize;
    for _ in 0..3 {
        let start = Instant::now();
        let pairings = {
            let _span = phase("bench.pair");
            scheduler.pair(sim.fleet().world(), &participants, &estimator)
        };
        call_ms.push(start.elapsed().as_secs_f64() * 1e3);
        out.op_checked(check_pairings(&participants, &pairings));
        offloading = pairings.iter().filter(|p| p.is_offloading()).count();
    }

    if traced {
        let steps = step_ms.len() as f64;
        let step_total: f64 = step_ms.iter().sum();
        let [pairing, fleet_round, engine_ms, setup, parallel_pairs, report] = layers.phase_ms;
        let bookkeeping = step_total - pairing - fleet_round;
        out.layers = vec![
            ("fleet.bookkeeping_ms_per_round", bookkeeping / steps),
            ("fleet.bookkeeping_share", bookkeeping / step_total),
            ("pairing.ms_per_round", pairing / steps),
            ("pairing.us_per_participant", pairing * 1e3 / participant_rounds as f64),
            ("pairing.call_ms", median(&call_ms)),
            ("pairing.offload_rate", offloading as f64 / participants.len() as f64),
            ("round.engine_ms_per_round", engine_ms / steps),
            ("round.setup_ms_per_round", setup / steps),
            ("round.parallel_pairs_ms_per_round", parallel_pairs / steps),
            ("round.report_ms_per_round", report / steps),
            ("simnet.events_per_round", layers.events as f64 / steps),
            ("simnet.events_per_s", layers.events as f64 / (engine_ms / 1e3)),
            ("simnet.peak_pending", layers.peak_pending),
        ];
    }
    out.op_ms = step_ms;
    Ok(out)
}

/// The obs histograms the per-layer metrics read, in [`LayerTotals`] order.
const PHASES: [&str; 6] = [
    "phase.fleet.pairing",
    "phase.fleet.round",
    "round.events",
    "phase.round.setup",
    "phase.round.parallel_pairs",
    "phase.round.report",
];

/// Obs totals over the timed steps of every episode; each episode resets
/// the registry after its untimed opening round.
#[derive(Default)]
struct LayerTotals {
    /// Milliseconds recorded into each of [`PHASES`].
    phase_ms: [f64; 6],
    /// Events the timed steps processed.
    events: u64,
    /// Highest `simnet.peak_pending` of any episode.
    peak_pending: f64,
}

impl LayerTotals {
    /// Adds the registry's totals for one episode of `events` timed events.
    fn add(&mut self, events: u64) {
        let metrics = comdml_obs::metrics();
        for (total, name) in self.phase_ms.iter_mut().zip(PHASES) {
            *total += metrics.histogram(name).map_or(0.0, |h| h.sum);
        }
        self.events += events;
        let peak = metrics.gauge_value("simnet.peak_pending").unwrap_or(0.0);
        self.peak_pending = self.peak_pending.max(peak);
    }
}
