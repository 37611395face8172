//! The discrete-event round engine.
//!
//! [`EventRound`] executes one training round by scheduling typed
//! [`SimEvent`]s against a shared simulated clock ([`SimDriver`]) instead of
//! evaluating closed-form per-pair formulas. Every pairing becomes a small
//! state machine — the slow side produces activation batches, the link
//! serializes transfers, the helper trains guest batches after its own task
//! — and all pairs interleave on one queue. That shared clock is what the
//! closed-form loop could never express:
//!
//! * **Aggregation modes** ([`AggregationMode`]): the classic synchronous
//!   barrier, a semi-synchronous quorum/staleness trigger where stragglers
//!   miss the round and carry their unfinished work forward, and a fully
//!   asynchronous mode with no barrier at all.
//! * **Mid-round disruptions** ([`Disruption`]): an agent can crash or leave
//!   while a transfer is in flight; the engine re-pairs the orphaned slow
//!   agent onto an idle helper (or falls back to local training) and the
//!   repair is visible in the report.
//! * **Per-agent carry-over**: rounds no longer assume everyone starts at
//!   zero — `ready_at` offsets let semi-sync/async schedules pipeline one
//!   round into the next.
//!
//! The synchronous wrapper [`crate::simulate_round`] now runs on this
//! engine and reproduces the legacy closed-form timings to within 1e-9
//! (covered by `tests/event_engine.rs`).
//!
//! # Example: asynchronous aggregation
//!
//! ```
//! use comdml_core::{AggregationMode, EventRound, PairingScheduler, TrainingTimeEstimator};
//! use comdml_collective::AllReduceAlgorithm;
//! use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
//! use comdml_simnet::WorldConfig;
//!
//! let spec = ModelSpec::resnet56();
//! let profile = SplitProfile::new(&spec, 100);
//! let cal = CostCalibration::default();
//! let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
//! let world = WorldConfig::heterogeneous(10, 42).build();
//! let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
//! let pairings = PairingScheduler::new().pair(&world, &ids, &est);
//!
//! // No barrier: the round advances at the fleet's mean completion and
//! // stragglers carry their unfinished tail into the next round.
//! let algo = AllReduceAlgorithm::HalvingDoubling;
//! let async_run = EventRound::new(&world, &pairings, &est, &cal, algo)
//!     .mode(AggregationMode::Asynchronous)
//!     .run();
//! let sync_run = EventRound::new(&world, &pairings, &est, &cal, algo).run();
//! assert!(async_run.outcome.round_s() <= sync_run.outcome.round_s() + 1e-9);
//! assert!(async_run.spill_s.iter().any(|&s| s > 0.0), "someone finishes after the mean");
//! ```

use std::collections::HashMap;

use comdml_collective::{AllReduceAlgorithm, CollectiveCost};
use comdml_cost::CostCalibration;
use comdml_simnet::{AgentId, SimDriver, SimEvent, World};

use crate::{
    AgentRoundStats, PairRoundSim, Pairing, RoundOutcome, RoundProgress, TrainingTimeEstimator,
};

/// When a round aggregates relative to its participants' task completions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AggregationMode {
    /// Global barrier: aggregation starts once every participant finished
    /// (the paper's §IV-B schedule).
    #[default]
    Synchronous,
    /// Aggregation starts once `quorum` of the participants finished, or
    /// `staleness_s` seconds after the first finisher — whichever comes
    /// first. Stragglers miss the aggregation and carry their unfinished
    /// work into the next round.
    SemiSynchronous {
        /// Fraction of participants that triggers aggregation, in (0, 1].
        quorum: f64,
        /// Upper bound on how long the first finisher waits, seconds.
        staleness_s: f64,
    },
    /// No barrier: each agent proceeds the moment its own task completes and
    /// exchanges models opportunistically over its own link. The round
    /// advances at the fleet's mean completion time.
    Asynchronous,
}

/// How finely the round engine discretizes each pairing's pipeline.
///
/// The fine granularity schedules one `BatchProduced`/`TransferComplete`
/// pair of events per activation batch — necessary when a disruption can
/// strike mid-pipeline, but O(batches) heap traffic per pairing. The coarse
/// granularity collapses an *undisrupted* pairing into a single
/// [`SimEvent::PairDone`] scheduled from the max-plus closed form of the
/// pipeline (helper-task, first-batch, production and link bottlenecks),
/// falling back to fine-grained events only for pairings whose members are
/// targeted by an injected failure or leave. With no disruptions the two
/// granularities agree to within 1e-9 (covered by `tests/fleet_churn.rs`);
/// coarse is what makes 10k agents × hundreds of batches per agent
/// tractable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventGranularity {
    /// One event per activation batch (exact event-by-event pipeline).
    #[default]
    Fine,
    /// One closed-form `PairDone` event per undisrupted pairing; disrupted
    /// pairings still run fine-grained.
    Coarse,
}

/// A scripted fleet-membership disruption injected into the round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disruption {
    /// `agent` crash-stops at `at_s`: in-flight guest work is lost and its
    /// pair re-pairs or falls back to local training.
    Fail {
        /// The failing agent.
        agent: AgentId,
        /// Failure instant, simulated seconds.
        at_s: f64,
    },
    /// `agent` leaves gracefully at `at_s`: same re-pairing path as a crash
    /// but the agent is not marked failed in the timeline.
    Leave {
        /// The leaving agent.
        agent: AgentId,
        /// Departure instant, simulated seconds.
        at_s: f64,
    },
    /// `agent` joins the fleet at `at_s` and becomes eligible as a
    /// replacement helper for re-pairing from that instant.
    Join {
        /// The joining agent (must exist in the world).
        agent: AgentId,
        /// Join instant, simulated seconds.
        at_s: f64,
    },
}

/// Everything one event-driven round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRoundReport {
    /// The classic per-round outcome (timings, per-agent stats).
    pub outcome: RoundOutcome,
    /// Agents included in this round's aggregation, sorted.
    pub cohort: Vec<AgentId>,
    /// Per-agent carry-over into the next round, indexed by agent id:
    /// seconds of work still running when the round ended.
    pub spill_s: Vec<f64>,
    /// Number of successful helper re-pairings after failures/leaves.
    pub repairs: usize,
    /// Number of slow agents that fell back to finishing locally after
    /// losing their helper with no replacement available.
    pub local_fallbacks: usize,
    /// When the round ended (aggregation done), simulated seconds.
    pub round_end_s: f64,
    /// Whether each agent (indexed by id) was a participant that finished
    /// its task this round; false for agents that failed, left mid-task, or
    /// never participated.
    pub finished: Vec<bool>,
    /// Events the driver executed for this round — the cost metric the
    /// coarse granularity shrinks and the benchmark JSON reports.
    pub events_processed: u64,
}

impl EventRoundReport {
    /// Learning efficiency of this round in effective rounds per round,
    /// under a FedBuff-style staleness discount ([`crate::staleness_weight`]).
    ///
    /// Each participant contributes weight 1 when its update arrived fresh
    /// (no spill past the aggregation), `(1 + s)^(-decay)` when it arrived
    /// `s` rounds stale (spill normalized by this round's duration), and 0
    /// when it never finished (failed or left mid-task). The mean over
    /// participants is the factor by which this round advances the learning
    /// curve: a synchronous barrier yields exactly 1; semi-synchronous
    /// quorums and asynchronous rounds yield less, which is what makes the
    /// accuracy-vs-time trade-off of the aggregation modes diverge. A round
    /// with no participants advanced nothing and yields 0.
    pub fn efficiency(&self, staleness_decay: f64) -> f64 {
        let n = self.outcome.agent_stats.len();
        if n == 0 {
            return 0.0;
        }
        let dur = self.round_end_s.max(1e-12);
        let sum: f64 = self
            .outcome
            .agent_stats
            .iter()
            .map(|s| {
                if !self.finished.get(s.id.0).copied().unwrap_or(false) {
                    return 0.0;
                }
                let spill = self.spill_s.get(s.id.0).copied().unwrap_or(0.0);
                crate::staleness_weight(spill / dur, staleness_decay)
            })
            .sum();
        sum / n as f64
    }

    /// The round's effective-progress inputs for [`crate::LearningModel`]:
    /// realized duration, staleness-weighted efficiency, participant and
    /// cohort counts, the number of departures that actually disrupted
    /// training (orphaned pairs, whether re-paired or fallen back to local
    /// training), and the spill as a sparse `(agent, seconds)` list.
    pub fn progress(&self, staleness_decay: f64) -> RoundProgress {
        RoundProgress {
            round_s: self.round_end_s.max(0.0),
            efficiency: self.efficiency(staleness_decay),
            participants: self.outcome.agent_stats.len(),
            cohort: self.cohort.len(),
            disruptions: self.repairs + self.local_fallbacks,
            events_processed: self.events_processed,
            repairs: self.repairs,
            spill: self
                .spill_s
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s > 0.0)
                .map(|(i, &s)| (AgentId(i), s))
                .collect(),
        }
    }
}

/// Executes a barrier round for engines without pairing on the shared event
/// clock: one [`SimEvent::AgentDone`] per participant at its task time, an
/// [`SimEvent::AggregateStart`] once the last finisher arrives, and the
/// matching [`SimEvent::AggregateDone`] `aggregation_s` later. Returns the
/// round's total simulated seconds.
///
/// Every baseline `RoundEngine` (FedAvg, AllReduce-DML, BrainTorrent, …)
/// routes its synchronized phases through here, so ComDML and the baselines
/// share one simulation substrate.
pub fn barrier_round_s(times: &[(AgentId, f64)], aggregation_s: f64) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let k = times.iter().map(|&(id, _)| id.0).max().expect("non-empty") + 1;
    let mut driver = SimDriver::new(k);
    for &(id, t) in times {
        driver.record_busy(id, t);
        driver.schedule_at(t, SimEvent::AgentDone { agent: id });
    }
    let mut remaining = times.len();
    while let Some((now, event)) = driver.next() {
        match event {
            SimEvent::AgentDone { agent } => {
                driver.mark_done(agent, now);
                remaining -= 1;
                if remaining == 0 {
                    driver.schedule_at(now, SimEvent::AggregateStart);
                }
            }
            SimEvent::AggregateStart => {
                driver.schedule_at(now + aggregation_s, SimEvent::AggregateDone)
            }
            _ => {}
        }
    }
    driver.now()
}

/// Executes a barrier-free round on the event clock and returns the mean
/// completion time — the round cost of gossip-style engines where every
/// agent proceeds at its own pace.
pub fn mean_round_s(times: &[(AgentId, f64)]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let k = times.iter().map(|&(id, _)| id.0).max().expect("non-empty") + 1;
    let mut driver = SimDriver::new(k);
    for &(id, t) in times {
        driver.record_busy(id, t);
        driver.schedule_at(t, SimEvent::AgentDone { agent: id });
    }
    let mut total = 0.0;
    while let Some((now, event)) = driver.next() {
        if let SimEvent::AgentDone { agent } = event {
            driver.mark_done(agent, now);
            total += now;
        }
    }
    total / times.len() as f64
}

/// Sentinel for "agent belongs to no pairing" in the dense pair index.
const NO_PAIR: usize = usize::MAX;

/// Per-pair runtime state of the event pipeline.
#[derive(Debug, Clone)]
struct PairState {
    slow: AgentId,
    fast: Option<AgentId>,
    offload: usize,
    sim: PairRoundSim,
    /// When each side may start (carry-over offsets).
    slow_start: f64,
    fast_start: f64,
    /// Batches produced by the slow side so far.
    produced: usize,
    /// Next batch index to put on the link.
    next_transfer: usize,
    /// Whether a transfer is currently occupying the link, and when it lands.
    transfer_in_flight: bool,
    inflight_due: f64,
    /// Guest batches fully trained by the helper, with completion times.
    guest_done_times: Vec<f64>,
    /// Helper availability horizon (own task, then guest batches serially).
    helper_free: f64,
    /// Set when the pair's work is fully done (suffix returned or solo end).
    done: bool,
    /// The slow side crashed/left: stop producing.
    slow_gone: bool,
}

impl PairState {
    fn is_offloading(&self) -> bool {
        self.fast.is_some() && self.offload > 0
    }
}

/// The initial event a prepared pair schedules, computed (possibly on a
/// worker thread) before any driver state is touched. Applying these in
/// pairing-index order reproduces the sequential schedule exactly — same
/// busy accounting, same event sequence numbers — which is why the batch
/// preparation can fan out across threads without moving a single event.
#[derive(Debug, Clone, Copy)]
enum InitialEvent {
    /// Degenerate offloading pair with no prefix batches: only the suffix
    /// return is left.
    Suffix { at: f64 },
    /// Undisrupted coarse pair: one closed-form `PairDone`, with the guest
    /// work pre-accounted to the helper.
    PairDone { at: f64, guest_busy: f64 },
    /// Fine-grained pair: the first `BatchProduced`.
    FirstBatch { at: f64 },
    /// Solo task: `AgentDone` at its local completion.
    Solo { at: f64 },
}

/// Builder/driver for one event-driven round. See the module docs for an
/// example.
#[derive(Debug)]
pub struct EventRound<'a> {
    world: &'a World,
    pairings: &'a [Pairing],
    estimator: &'a TrainingTimeEstimator<'a>,
    cal: &'a CostCalibration,
    algorithm: AllReduceAlgorithm,
    mode: AggregationMode,
    granularity: EventGranularity,
    disruptions: Vec<Disruption>,
    ready_at: HashMap<AgentId, f64>,
    threads: usize,
}

impl<'a> EventRound<'a> {
    /// Starts building a round over `pairings` (synchronous barrier, no
    /// disruptions, everyone ready at t=0).
    pub fn new(
        world: &'a World,
        pairings: &'a [Pairing],
        estimator: &'a TrainingTimeEstimator<'a>,
        cal: &'a CostCalibration,
        algorithm: AllReduceAlgorithm,
    ) -> Self {
        Self {
            world,
            pairings,
            estimator,
            cal,
            algorithm,
            mode: AggregationMode::Synchronous,
            granularity: EventGranularity::Fine,
            disruptions: Vec::new(),
            ready_at: HashMap::new(),
            threads: 1,
        }
    }

    /// Selects the aggregation mode.
    pub fn mode(mut self, mode: AggregationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the event granularity (see [`EventGranularity`]).
    pub fn granularity(mut self, granularity: EventGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Injects scripted failures/leaves/joins.
    pub fn disruptions(mut self, disruptions: Vec<Disruption>) -> Self {
        self.disruptions = disruptions;
        self
    }

    /// Per-agent start offsets carried over from the previous round.
    pub fn ready_at(mut self, ready: HashMap<AgentId, f64>) -> Self {
        self.ready_at = ready;
        self
    }

    /// Number of threads used to *prepare* pair pipelines (closed forms,
    /// split lookups, busy accounting) before the event loop runs. The
    /// prepared batches are applied to the driver sequentially in pairing
    /// order, so every event sequence number — and therefore every report
    /// and digest — is identical for any thread count. Values ≤ 1 prepare
    /// inline.
    pub fn pair_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    fn ready(&self, id: AgentId) -> f64 {
        self.ready_at.get(&id).copied().unwrap_or(0.0)
    }

    /// Prepares every pair's pipeline state and initial event. The numeric
    /// work (split lookups, closed forms) fans out across `threads` in
    /// contiguous index chunks; chunk results are concatenated back in
    /// pairing order, so the caller applies exactly the sequence a
    /// single-threaded pass would produce.
    fn prepare_pairs(&self, disrupted: &[bool]) -> Vec<(PairState, InitialEvent)> {
        // Below this many pairs per worker, spawning costs more than the
        // preparation itself.
        const MIN_CHUNK: usize = 64;
        let n = self.pairings.len();
        if self.threads <= 1 || n < 2 * MIN_CHUNK {
            return self.pairings.iter().map(|p| self.prepare_pair(p, disrupted)).collect();
        }
        let chunk = n.div_ceil(self.threads).max(MIN_CHUNK);
        let mut out = Vec::with_capacity(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .pairings
                .chunks(chunk)
                .map(|c| {
                    s.spawn(move || {
                        c.iter().map(|p| self.prepare_pair(p, disrupted)).collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("pair preparation panicked"));
            }
        });
        out
    }

    /// Builds one pair's pipeline state mirroring the closed-form
    /// [`PairRoundSim`] parameters exactly, plus the initial event it will
    /// schedule.
    fn prepare_pair(&self, p: &Pairing, disrupted: &[bool]) -> (PairState, InitialEvent) {
        let state = {
            let slow = self.world.agent(p.slow);
            let (fast, sim) = match p.fast {
                Some(fast_id) if p.offload > 0 => {
                    let fast = self.world.agent(fast_id);
                    let entry = self
                        .estimator
                        .profile()
                        .entry(p.offload)
                        .expect("scheduler only emits profiled offloads");
                    let p_i = self.estimator.batches_per_s(slow);
                    let p_j = self.estimator.batches_per_s(fast);
                    let link = self.world.link_mbps(p.slow, fast_id);
                    let sim = PairRoundSim {
                        n_slow_batches: slow.num_batches(),
                        n_fast_batches: fast.num_batches(),
                        slow_batch_s: entry.t_slow_rel / p_i,
                        fast_own_batch_s: 1.0 / p_j,
                        fast_guest_batch_s: entry.t_fast_rel / p_j,
                        transfer_s: self.cal.transfer_time_s(entry.nu_bytes_per_batch, link),
                        suffix_return_s: self.cal.transfer_time_s(entry.suffix_param_bytes, link),
                    };
                    (Some(fast_id), sim)
                }
                _ => {
                    // Solo task: a degenerate pipeline with no guest
                    // batches whose "own task" is the whole local epoch.
                    let solo = self.estimator.solo_time_s(slow);
                    let sim = PairRoundSim {
                        n_slow_batches: 0,
                        n_fast_batches: 1,
                        slow_batch_s: 0.0,
                        fast_own_batch_s: solo,
                        fast_guest_batch_s: 0.0,
                        transfer_s: 0.0,
                        suffix_return_s: 0.0,
                    };
                    (None, sim)
                }
            };
            let slow_start = self.ready(p.slow);
            let fast_start = fast.map(|f| self.ready(f)).unwrap_or(slow_start);
            PairState {
                slow: p.slow,
                fast,
                offload: p.offload,
                slow_start,
                fast_start,
                helper_free: fast_start + sim.n_fast_batches as f64 * sim.fast_own_batch_s,
                sim,
                produced: 0,
                next_transfer: 0,
                transfer_in_flight: false,
                inflight_due: 0.0,
                guest_done_times: Vec::new(),
                done: false,
                slow_gone: false,
            }
        };
        let init = match state.fast {
            Some(fast_id) => {
                let coarse = self.granularity == EventGranularity::Coarse
                    && !disrupted[state.slow.0]
                    && !disrupted[fast_id.0];
                if state.sim.n_slow_batches == 0 {
                    InitialEvent::Suffix { at: state.helper_free + state.sim.suffix_return_s }
                } else if coarse {
                    let done = state.sim.completion_closed_form(
                        state.sim.transfer_s,
                        state.slow_start,
                        state.fast_start,
                    ) + state.sim.suffix_return_s;
                    InitialEvent::PairDone {
                        at: done,
                        guest_busy: state.sim.n_slow_batches as f64 * state.sim.fast_guest_batch_s,
                    }
                } else {
                    InitialEvent::FirstBatch { at: state.slow_start + state.sim.slow_batch_s }
                }
            }
            None => InitialEvent::Solo { at: state.helper_free },
        };
        (state, init)
    }

    /// Runs the round to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if a pairing references an agent outside the world.
    pub fn run(self) -> EventRoundReport {
        let setup_timer = comdml_obs::phase("round.setup");
        let k = self.world.num_agents();
        let mut driver = SimDriver::new(k);

        // Agents targeted by a failure/leave: their pairings must run
        // fine-grained so the disruption can strike mid-pipeline.
        let mut disrupted = vec![false; k];
        for d in &self.disruptions {
            if let Disruption::Fail { agent, .. } | Disruption::Leave { agent, .. } = *d {
                if agent.0 < k {
                    disrupted[agent.0] = true;
                }
            }
        }

        // Prepare every pair's pipeline (the per-pair numeric work, fanned
        // out across `pair_threads`), then apply the batches sequentially
        // in pairing order so the event schedule is thread-count invariant.
        let prepare_timer = comdml_obs::phase("round.parallel_pairs");
        let prepared = self.prepare_pairs(&disrupted);
        drop(prepare_timer);
        let mut pairs: Vec<PairState> = Vec::with_capacity(prepared.len());
        let mut inits: Vec<InitialEvent> = Vec::with_capacity(prepared.len());
        for (state, init) in prepared {
            pairs.push(state);
            inits.push(init);
        }

        let mut pair_of: Vec<usize> = vec![NO_PAIR; k];
        let mut participant = vec![false; k];
        // The participant id list mirrors the `participant` flags so
        // cohort assembly stays O(participants), not O(world).
        let mut participant_ids: Vec<AgentId> = Vec::with_capacity(2 * pairs.len());
        for (idx, p) in pairs.iter().enumerate() {
            pair_of[p.slow.0] = idx;
            if !participant[p.slow.0] {
                participant_ids.push(p.slow);
            }
            participant[p.slow.0] = true;
            if let Some(f) = p.fast {
                pair_of[f.0] = idx;
                if !participant[f.0] {
                    participant_ids.push(f);
                }
                participant[f.0] = true;
            }
        }
        let expected_agents: usize = participant_ids.len();
        let mut remaining_tasks = expected_agents;
        let mut done_participants = 0usize;

        // Apply the prepared batches: busy accounting mirrors the closed
        // form (the slow side computes all prefix batches, the helper its
        // own task plus guest work — per event on the fine path, up front
        // on the coarse path), and each pair schedules its initial event.
        for (idx, (p, init)) in pairs.iter().zip(&inits).enumerate() {
            match *init {
                InitialEvent::Solo { at } => {
                    driver.record_busy(p.slow, p.sim.fast_own_batch_s);
                    driver.schedule_at(at, SimEvent::AgentDone { agent: p.slow });
                }
                offloading => {
                    let fast_id = p.fast.expect("offloading init implies a helper");
                    driver.record_busy(p.slow, p.sim.n_slow_batches as f64 * p.sim.slow_batch_s);
                    driver
                        .record_busy(fast_id, p.sim.n_fast_batches as f64 * p.sim.fast_own_batch_s);
                    match offloading {
                        InitialEvent::Suffix { at } => {
                            driver.schedule_at(at, SimEvent::SuffixReturn { pair: idx });
                        }
                        InitialEvent::PairDone { at, guest_busy } => {
                            driver.record_busy(fast_id, guest_busy);
                            driver.schedule_at(at, SimEvent::PairDone { pair: idx });
                        }
                        InitialEvent::FirstBatch { at } => {
                            driver.schedule_at(at, SimEvent::BatchProduced { pair: idx, batch: 0 });
                        }
                        InitialEvent::Solo { .. } => unreachable!("matched above"),
                    }
                }
            }
        }
        for d in &self.disruptions {
            match *d {
                Disruption::Fail { agent, at_s } | Disruption::Leave { agent, at_s } => {
                    driver.schedule_at(at_s, SimEvent::AgentFail { agent });
                }
                Disruption::Join { agent, at_s } => {
                    driver.schedule_at(at_s, SimEvent::AgentJoin { agent });
                }
            }
        }
        // Crash vs graceful departure, for timeline bookkeeping.
        let crashes: HashMap<AgentId, bool> = self
            .disruptions
            .iter()
            .filter_map(|d| match *d {
                Disruption::Fail { agent, .. } => Some((agent, true)),
                Disruption::Leave { agent, .. } => Some((agent, false)),
                Disruption::Join { .. } => None,
            })
            .collect();

        let mut gone = vec![false; k];
        let mut joined_pool: Vec<AgentId> = Vec::new();
        // Participants that reached done, in finish order (re-tasked agents
        // can appear twice) — the repair path's candidate pool, so helper
        // replacement never scans the whole world.
        let mut finished_pool: Vec<AgentId> = Vec::new();
        let mut repairs = 0usize;
        let mut local_fallbacks = 0usize;
        let mut aggregate_scheduled = false;
        let mut aggregate_started = false;
        let mut trigger_time: Option<f64> = None;
        let mut cohort: Vec<AgentId> = Vec::new();
        let mut allreduce_s = 0.0f64;
        let mut round_end: Option<f64> = None;
        let quorum_needed = match self.mode {
            AggregationMode::SemiSynchronous { quorum, .. } => {
                ((quorum.clamp(0.0, 1.0) * expected_agents as f64).ceil() as usize).max(1)
            }
            _ => expected_agents,
        };

        // Wall-clock the event loop only when observability is on: with it
        // off, no `Instant::now` runs on this hot path (the zero-overhead
        // contract `scalability_10k` pins).
        drop(setup_timer);
        let loop_start =
            if comdml_obs::metrics_enabled() { Some(std::time::Instant::now()) } else { None };

        while let Some((now, event)) = driver.next() {
            match event {
                SimEvent::BatchProduced { pair, batch } => {
                    let p = &mut pairs[pair];
                    if p.done || p.slow_gone {
                        continue;
                    }
                    p.produced = batch + 1;
                    if batch + 1 < p.sim.n_slow_batches {
                        // Production times are anchored multiplicatively so
                        // event timing matches the closed form bit-for-bit.
                        driver.schedule_at(
                            p.slow_start + (batch + 2) as f64 * p.sim.slow_batch_s,
                            SimEvent::BatchProduced { pair, batch: batch + 1 },
                        );
                    }
                    Self::start_transfer_if_idle(&mut driver, p, pair);
                }
                SimEvent::TransferComplete { pair, batch } => {
                    let p = &mut pairs[pair];
                    // Stale events (scheduled before a repair rewired the
                    // pair) are ignored.
                    if p.done
                        || !p.transfer_in_flight
                        || batch + 1 != p.next_transfer
                        || now != p.inflight_due
                    {
                        continue;
                    }
                    p.transfer_in_flight = false;
                    let Some(fast_id) = p.fast else { continue };
                    if gone[fast_id.0] {
                        continue; // the helper died with this batch in flight
                    }
                    // Helper trains guest batches serially after its own task.
                    let guest_start = now.max(p.helper_free);
                    p.helper_free = guest_start + p.sim.fast_guest_batch_s;
                    driver.record_busy(fast_id, p.sim.fast_guest_batch_s);
                    p.guest_done_times.push(p.helper_free);
                    if p.guest_done_times.len() == p.sim.n_slow_batches {
                        driver.schedule_at(
                            p.helper_free + p.sim.suffix_return_s,
                            SimEvent::SuffixReturn { pair },
                        );
                    } else {
                        Self::start_transfer_if_idle(&mut driver, p, pair);
                    }
                }
                SimEvent::PairDone { pair } => {
                    // Coarse-granularity completion: the closed form already
                    // collapsed the whole pipeline, so this mirrors the tail
                    // of the SuffixReturn arm. Coarse pairs are never
                    // disrupted by construction; the `gone` guards only
                    // protect against exotic hand-scheduled combinations.
                    let p = &mut pairs[pair];
                    if p.done {
                        continue;
                    }
                    p.done = true;
                    let fast_id = p.fast.expect("coarse events only on offloading pairs");
                    let ideal = p.sim.completion_closed_form(0.0, p.slow_start, p.fast_start);
                    let real = now - p.sim.suffix_return_s;
                    driver.record_comm(fast_id, (real - ideal).max(0.0) + p.sim.suffix_return_s);
                    if !gone[p.slow.0] {
                        driver.schedule_at(now, SimEvent::AgentDone { agent: p.slow });
                    }
                    if !gone[fast_id.0] {
                        driver.schedule_at(now, SimEvent::AgentDone { agent: fast_id });
                    }
                }
                SimEvent::SuffixReturn { pair } => {
                    let p = &mut pairs[pair];
                    if p.done {
                        continue;
                    }
                    p.done = true;
                    let fast_id = p.fast.expect("suffix returns only on offloading pairs");
                    // Communication accounting matches the closed form: the
                    // counterfactual stall vs an infinitely fast link, plus
                    // the suffix return, attributed to the helper.
                    let ideal = p.sim.completion_from(0.0, p.slow_start, p.fast_start);
                    let real = now - p.sim.suffix_return_s;
                    driver.record_comm(fast_id, (real - ideal).max(0.0) + p.sim.suffix_return_s);
                    if !gone[p.slow.0] {
                        driver.schedule_at(now, SimEvent::AgentDone { agent: p.slow });
                    }
                    if !gone[fast_id.0] {
                        driver.schedule_at(now, SimEvent::AgentDone { agent: fast_id });
                    }
                }
                SimEvent::AgentDone { agent } => {
                    if gone[agent.0] || driver.timeline(agent).done {
                        continue;
                    }
                    let idx = pair_of[agent.0];
                    if idx != NO_PAIR {
                        // A solo task is complete the moment its agent is.
                        if pairs[idx].fast.is_none() {
                            pairs[idx].done = true;
                        }
                    }
                    driver.mark_done(agent, now);
                    finished_pool.push(agent);
                    remaining_tasks = remaining_tasks.saturating_sub(1);
                    done_participants += 1;
                    match self.mode {
                        AggregationMode::Synchronous => {
                            if remaining_tasks == 0 && !aggregate_scheduled {
                                aggregate_scheduled = true;
                                driver.schedule_at(now, SimEvent::AggregateStart);
                            }
                        }
                        AggregationMode::SemiSynchronous { staleness_s, .. } => {
                            if !aggregate_started {
                                if done_participants == 1 {
                                    // The first finisher arms the staleness
                                    // deadline.
                                    driver.schedule_at(
                                        now + staleness_s.max(0.0),
                                        SimEvent::AggregateStart,
                                    );
                                }
                                if done_participants >= quorum_needed || remaining_tasks == 0 {
                                    driver.schedule_at(now, SimEvent::AggregateStart);
                                }
                            }
                        }
                        AggregationMode::Asynchronous => {}
                    }
                }
                SimEvent::AggregateStart => {
                    if aggregate_started {
                        continue; // quorum and deadline may both fire
                    }
                    aggregate_started = true;
                    trigger_time = Some(now);
                    // Ascending-id cohort, exactly the old 0..k sweep's
                    // output: participant ids are unique, so sorting them
                    // and filtering matches the full-world scan bit for
                    // bit at O(participants) cost.
                    cohort = {
                        let mut ids = participant_ids.clone();
                        ids.sort_unstable();
                        ids.retain(|&id| {
                            driver.timeline(id).done
                                && !gone[id.0]
                                && self.world.agent(id).profile.is_connected()
                        });
                        ids
                    };
                    allreduce_s = if cohort.len() > 1 {
                        // Collectives ride the *effective* uplink so a
                        // diurnal bandwidth trough slows the allreduce too.
                        let min_link = cohort
                            .iter()
                            .map(|&id| self.world.uplink_mbps(id))
                            .fold(f64::INFINITY, f64::min);
                        let cost = CollectiveCost::new(
                            self.algorithm,
                            cohort.len(),
                            self.estimator.profile().model_bytes(),
                        );
                        cost.time_s(self.cal.bytes_per_s(min_link), self.cal.link_latency_s)
                    } else {
                        0.0
                    };
                    driver.schedule_at(now + allreduce_s, SimEvent::AggregateDone);
                }
                SimEvent::AggregateDone => {
                    round_end = Some(now);
                    // Stragglers keep draining; the loop continues so their
                    // finish times (and spill) are recorded.
                }
                SimEvent::AgentFail { agent } => {
                    if gone[agent.0] {
                        continue;
                    }
                    gone[agent.0] = true;
                    if crashes.get(&agent).copied().unwrap_or(true) {
                        driver.mark_failed(agent);
                    }
                    let idx = pair_of[agent.0];
                    if idx == NO_PAIR {
                        continue;
                    }
                    if !driver.timeline(agent).done {
                        remaining_tasks = remaining_tasks.saturating_sub(1);
                    }
                    if !pairs[idx].done {
                        if pairs[idx].fast == Some(agent) {
                            let (repaired, fell_back) = Self::handle_helper_loss(
                                &mut driver,
                                self.world,
                                self.estimator,
                                self.cal,
                                &mut pairs,
                                idx,
                                now,
                                &gone,
                                &joined_pool,
                                &finished_pool,
                                &mut pair_of,
                                &mut participant,
                                &mut participant_ids,
                                &mut remaining_tasks,
                                &mut done_participants,
                            );
                            repairs += repaired as usize;
                            local_fallbacks += fell_back as usize;
                        } else if pairs[idx].slow == agent {
                            let p = &mut pairs[idx];
                            p.slow_gone = true;
                            p.done = true;
                            if let Some(fast_id) = p.fast.filter(|f| !gone[f.0]) {
                                // The helper keeps its own task; guest work
                                // already trained is simply discarded.
                                let own_end = p.fast_start
                                    + p.sim.n_fast_batches as f64 * p.sim.fast_own_batch_s;
                                let finish = own_end
                                    .max(p.guest_done_times.last().copied().unwrap_or(0.0))
                                    .max(now);
                                driver.schedule_at(finish, SimEvent::AgentDone { agent: fast_id });
                            }
                        }
                    }
                    if remaining_tasks == 0
                        && !aggregate_scheduled
                        && !aggregate_started
                        && matches!(self.mode, AggregationMode::Synchronous)
                    {
                        aggregate_scheduled = true;
                        driver.schedule_at(now, SimEvent::AggregateStart);
                    }
                }
                SimEvent::AgentJoin { agent } => {
                    // Joiners idle until a re-pair claims them; they are not
                    // participants and never enter the aggregation cohort on
                    // their own.
                    joined_pool.push(agent);
                    driver.mark_done(agent, now);
                }
                SimEvent::AgentLeave { agent } => {
                    // Disruption scheduling routes leaves through AgentFail;
                    // a directly injected Leave behaves identically.
                    driver.schedule_at(now, SimEvent::AgentFail { agent });
                }
            }
        }

        if let Some(start) = loop_start {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            comdml_obs::observe_ms("round.events", ms);
            if ms > 0.0 {
                comdml_obs::gauge_set(
                    "simnet.events_per_s",
                    driver.events_processed() as f64 / (ms / 1e3),
                );
            }
        }
        driver.publish_metrics();

        let report_timer = comdml_obs::phase("round.report");
        let report = self.finish(
            driver,
            pairs,
            &participant,
            cohort,
            allreduce_s,
            trigger_time,
            round_end,
            repairs,
            local_fallbacks,
        );
        drop(report_timer);
        report
    }

    /// If the pair's link is idle and a produced batch is waiting, put it on
    /// the wire.
    fn start_transfer_if_idle(driver: &mut SimDriver, p: &mut PairState, idx: usize) {
        if p.transfer_in_flight || p.next_transfer >= p.produced || p.done {
            return;
        }
        let batch = p.next_transfer;
        p.next_transfer += 1;
        p.transfer_in_flight = true;
        p.inflight_due = driver.now() + p.sim.transfer_s;
        driver.schedule_at(p.inflight_due, SimEvent::TransferComplete { pair: idx, batch });
    }

    /// The helper of pair `idx` vanished: try to re-pair onto an idle agent,
    /// otherwise let the slow side finish the suffix locally.
    ///
    /// Returns `(repaired, local_fallback)`.
    #[allow(clippy::too_many_arguments)]
    fn handle_helper_loss(
        driver: &mut SimDriver,
        world: &World,
        estimator: &TrainingTimeEstimator<'_>,
        cal: &CostCalibration,
        pairs: &mut [PairState],
        idx: usize,
        now: f64,
        gone: &[bool],
        joined_pool: &[AgentId],
        finished_pool: &[AgentId],
        pair_of: &mut [usize],
        participant: &mut [bool],
        participant_ids: &mut Vec<AgentId>,
        remaining_tasks: &mut usize,
        done_participants: &mut usize,
    ) -> (bool, bool) {
        let trained = pairs[idx].guest_done_times.iter().filter(|&&t| t <= now).count();
        let slow_id = pairs[idx].slow;
        // Idle candidates: agents whose whole pair already finished, plus
        // mid-round joiners — alive and reachable from the slow agent.
        // The repair only ever takes the fastest candidate (ties to the
        // lower id), so a single argmax pass over the finished pool picks
        // exactly the head of the sorted candidate list this used to
        // build from a full-world sweep — O(finished), not O(world).
        let mut best: Option<(f64, AgentId)> = None;
        let consider = |id: AgentId, best: &mut Option<(f64, AgentId)>| {
            let speed = estimator.batches_per_s(world.agent(id));
            let better = match *best {
                None => true,
                Some((top, top_id)) => speed > top || (speed == top && id < top_id),
            };
            if better {
                *best = Some((speed, id));
            }
        };
        for &id in finished_pool {
            if id != slow_id
                && !gone[id.0]
                && driver.timeline(id).done
                && world.link_mbps(slow_id, id) > 0.0
                && (pair_of[id.0] == NO_PAIR || pairs[pair_of[id.0]].done)
            {
                consider(id, &mut best);
            }
        }
        for &id in joined_pool {
            if !gone[id.0] && world.link_mbps(slow_id, id) > 0.0 {
                consider(id, &mut best);
            }
        }

        let p = &mut pairs[idx];
        let remaining = p.sim.n_slow_batches - trained;
        if remaining == 0 {
            // Everything was already trained; only the suffix return was
            // lost. The slow agent proceeds as if it arrived now.
            p.done = true;
            driver.schedule_at(now, SimEvent::AgentDone { agent: slow_id });
            return (false, false);
        }
        let entry = estimator.profile().entry(p.offload).expect("pair kept its profiled offload");

        if let Some((_, replacement)) = best {
            // Re-pair: the replacement hosts the remaining batches over its
            // own link; transferred-but-untrained batches are re-sent.
            let link = world.link_mbps(slow_id, replacement);
            let p_j = estimator.batches_per_s(world.agent(replacement));
            p.fast = Some(replacement);
            p.sim.fast_guest_batch_s = entry.t_fast_rel / p_j;
            p.sim.transfer_s = cal.transfer_time_s(entry.nu_bytes_per_batch, link);
            p.sim.suffix_return_s = cal.transfer_time_s(entry.suffix_param_bytes, link);
            p.guest_done_times.truncate(trained);
            p.next_transfer = trained;
            p.transfer_in_flight = false;
            p.helper_free = now.max(driver.timeline(replacement).finish_s);
            // A previously finished participant goes back to work: it must
            // not keep counting toward a semi-synchronous quorum until it
            // finishes again.
            if participant[replacement.0] && driver.timeline(replacement).done {
                *done_participants = done_participants.saturating_sub(1);
            }
            pair_of[replacement.0] = idx;
            if !participant[replacement.0] {
                participant_ids.push(replacement);
            }
            participant[replacement.0] = true;
            // The replacement picks up a fresh task: it must finish again.
            driver.mark_active(replacement);
            *remaining_tasks += 1;
            Self::start_transfer_if_idle(driver, p, idx);
            (true, false)
        } else {
            // No helper available: the slow agent trains the remaining
            // suffix batches itself at its own (slower) suffix rate, after
            // it finishes producing the prefix batches.
            let p_i = estimator.batches_per_s(world.agent(slow_id));
            let local_batch_s = entry.t_fast_rel / p_i;
            let production_end = p.slow_start + p.sim.n_slow_batches as f64 * p.sim.slow_batch_s;
            let finish = now.max(production_end) + remaining as f64 * local_batch_s;
            driver.record_busy(slow_id, remaining as f64 * local_batch_s);
            p.done = true;
            p.fast = None;
            driver.schedule_at(finish, SimEvent::AgentDone { agent: slow_id });
            (false, true)
        }
    }

    /// Converts driver timelines into the classic [`RoundOutcome`] plus the
    /// event-only extras.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        self,
        driver: SimDriver,
        pairs: Vec<PairState>,
        participant: &[bool],
        cohort: Vec<AgentId>,
        allreduce_s: f64,
        trigger_time: Option<f64>,
        round_end: Option<f64>,
        repairs: usize,
        local_fallbacks: usize,
    ) -> EventRoundReport {
        let timelines = driver.timelines();
        let live_finishes: Vec<f64> = timelines
            .iter()
            .enumerate()
            .filter(|&(i, t)| participant[i] && t.done)
            .map(|(_, t)| t.finish_s)
            .collect();
        let makespan = live_finishes.iter().fold(0.0f64, |a, &b| a.max(b));

        let (compute_s, allreduce_s, cohort, round_end_s) = match self.mode {
            AggregationMode::Synchronous | AggregationMode::SemiSynchronous { .. } => {
                let compute = trigger_time.unwrap_or(makespan);
                let end = round_end.unwrap_or(compute + allreduce_s);
                (compute, allreduce_s, cohort, end)
            }
            AggregationMode::Asynchronous => {
                // No barrier: throughput is governed by the mean completion,
                // and each agent pays a cheap pairwise exchange on its own
                // link instead of a global collective.
                let n = live_finishes.len().max(1);
                let mean = live_finishes.iter().sum::<f64>() / n as f64;
                let bytes = self.estimator.profile().model_bytes();
                let mut exchange_total = 0.0;
                let mut async_cohort: Vec<AgentId> = Vec::new();
                for (i, t) in timelines.iter().enumerate() {
                    let id = AgentId(i);
                    let a = self.world.agent(id);
                    if participant[i] && t.done && a.profile.is_connected() {
                        let cost = CollectiveCost::new(self.algorithm, 2, bytes);
                        exchange_total += cost.time_s(
                            self.cal.bytes_per_s(self.world.uplink_mbps(id)),
                            self.cal.link_latency_s,
                        );
                        async_cohort.push(id);
                    }
                }
                let exchange_mean = exchange_total / async_cohort.len().max(1) as f64;
                let end = mean + exchange_mean;
                (mean, exchange_mean, async_cohort, end)
            }
        };

        // Per-agent stats in pairing order, exactly as the closed-form
        // simulator reported them. A repaired pairing can name an agent a
        // second time (its own pair plus the one it rescued); the timeline
        // already aggregates both roles, so each agent is reported once.
        let mut stats = Vec::new();
        let mut listed = vec![false; timelines.len()];
        let mut num_offloads = 0usize;
        for p in &pairs {
            if p.is_offloading() {
                num_offloads += 1;
            }
            let mut push = |id: AgentId, listed: &mut Vec<bool>| {
                if listed[id.0] {
                    return;
                }
                listed[id.0] = true;
                let t = &timelines[id.0];
                let finish = if t.done { t.finish_s } else { compute_s };
                stats.push(AgentRoundStats {
                    id,
                    train_s: t.busy_s,
                    comm_s: t.comm_s,
                    idle_s: (compute_s - t.busy_s - t.comm_s).max(0.0),
                    finish_s: finish,
                });
            };
            push(p.slow, &mut listed);
            if let Some(f) = p.fast {
                push(f, &mut listed);
            }
        }

        let spill_s: Vec<f64> =
            timelines
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    if participant[i] && t.done {
                        (t.finish_s - round_end_s).max(0.0)
                    } else {
                        0.0
                    }
                })
                .collect();
        let finished: Vec<bool> =
            timelines.iter().enumerate().map(|(i, t)| participant[i] && t.done).collect();

        EventRoundReport {
            outcome: RoundOutcome { agent_stats: stats, compute_s, allreduce_s, num_offloads },
            cohort,
            spill_s,
            repairs,
            local_fallbacks,
            round_end_s,
            finished,
            events_processed: driver.events_processed(),
        }
    }
}
