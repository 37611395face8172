//! The elastic multi-round fleet driver.
//!
//! The paper evaluates ComDML under agent dropouts (§V-B.5) but treats each
//! round's membership as given. [`FleetDriver`] turns membership into a
//! *process*: agents arrive according to a configurable [`ArrivalProcess`]
//! (Poisson or trace-driven), stay for a session drawn from a
//! [`SessionLifetime`] distribution (exponential, Weibull, fixed, or
//! infinite), and depart mid-round — so the fleet the round engine sees is
//! continuously evolving instead of fixed at construction.
//!
//! The driver owns the [`World`] across rounds and deliberately knows
//! nothing about round execution. Each round is a two-phase handshake:
//!
//! 1. [`FleetDriver::begin_round`] returns a [`FleetRoundPlan`]: the size of
//!    the active membership at the round start plus every arrival/departure
//!    whose absolute fleet time falls inside the caller-supplied horizon, as
//!    round-relative [`MembershipEvent`]s. The round engine injects these as
//!    mid-round join/leave disruptions. The members themselves come from
//!    [`FleetDriver::active_ids`] or, for a sampled cohort,
//!    [`FleetDriver::sample_active`].
//! 2. [`FleetDriver::end_round`] receives the round's actual simulated
//!    duration, advances the fleet clock, and commits every membership
//!    change whose absolute time has now passed — departed agents
//!    deactivate, arrivals activate for the next round. Events the horizon
//!    missed commit at the round boundary; events the horizon overshot
//!    (beyond the actual duration) stay pending and are handed out again.
//!
//! Arrival times, session lifetimes and newcomer profiles are drawn from
//! three *independent* seeded RNG streams, lazily but in arrival order, so
//! the absolute membership timeline is a pure function of the seed — two
//! engines with different per-round durations (say ComDML vs a baseline)
//! observe the *same* agents arriving and departing at the *same* fleet
//! times, which is what makes churn comparisons apples-to-apples.
//!
//! Membership is indexed (an O(1) active count, a Fenwick tree for the
//! i-th active id, a bucketed `(depart_at, id)` index for departures), so
//! a round's membership work scales with its cohort and its events, not
//! with the world.
//!
//! # Example
//!
//! ```
//! use comdml_simnet::{ArrivalProcess, FleetConfig, SessionLifetime};
//!
//! let mut fleet = FleetConfig::new(20, 7)
//!     .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.01 })
//!     .lifetime(SessionLifetime::Exponential { mean_s: 500.0 })
//!     .build();
//! let plan = fleet.begin_round(100.0);
//! assert_eq!(plan.active, 20);
//! assert_eq!(fleet.active_ids().len(), 20);
//! fleet.end_round(100.0);
//! assert!(fleet.active_count() <= fleet.world().num_agents());
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::membership::{ActiveSet, DepartureIndex};
use crate::world::{push_column, with_headroom};
use crate::{
    AgentId, AgentProfile, DistSampler, DistributionConfig, JoinTopology, Topology, World,
    WorldConfig,
};

/// How new agents arrive into the fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// No arrivals: the fleet only shrinks.
    None,
    /// Homogeneous Poisson process: exponential inter-arrival times with
    /// the given rate (agents per simulated second).
    Poisson {
        /// Mean arrivals per simulated second.
        rate_per_s: f64,
    },
    /// Trace-driven schedule: explicit absolute arrival times in simulated
    /// seconds, ascending.
    Trace(Vec<f64>),
    /// Inter-arrival gaps drawn from a declarative distribution — the
    /// generalization of `Poisson` (whose gaps are exponential): a `fixed`
    /// gap gives a metronome, a `lognormal` gap gives bursty arrivals, a
    /// `trace` gap replays measured spacings. Like `Poisson`, the chain
    /// anchors on the previous arrival so the realized process is
    /// independent of round discretization.
    Gaps(DistributionConfig),
}

/// How long an agent's session lasts once it is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionLifetime {
    /// Agents never leave on their own.
    Infinite,
    /// Exponentially distributed session length (memoryless churn).
    Exponential {
        /// Mean session length in simulated seconds.
        mean_s: f64,
    },
    /// Weibull-distributed session length — `shape < 1` gives the
    /// heavy-tailed "most sessions are short, some are very long" pattern
    /// observed in volunteer-computing fleets.
    Weibull {
        /// Scale parameter λ in simulated seconds.
        scale_s: f64,
        /// Shape parameter k (1 recovers the exponential).
        shape: f64,
    },
    /// Every session lasts exactly this long.
    Fixed {
        /// Session length in simulated seconds.
        duration_s: f64,
    },
}

impl SessionLifetime {
    /// Draws one session length in seconds.
    fn sample(&self, rng: &mut StdRng) -> f64 {
        // Clamp away u == 0/1 so logs stay finite.
        let u = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
        match *self {
            SessionLifetime::Infinite => f64::INFINITY,
            SessionLifetime::Exponential { mean_s } => -mean_s * (1.0 - u).ln(),
            SessionLifetime::Weibull { scale_s, shape } => {
                scale_s * (-(1.0 - u).ln()).powf(1.0 / shape.max(1e-9))
            }
            SessionLifetime::Fixed { duration_s } => duration_s,
        }
    }
}

/// A membership change inside one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// The agent arrives and becomes eligible (e.g. as a replacement
    /// helper) from `at_s`; it is a full participant from the next round.
    Join,
    /// The agent departs gracefully at `at_s`.
    Leave,
}

/// One arrival or departure, relative to the current round's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipEvent {
    /// The affected agent.
    pub agent: AgentId,
    /// Seconds after the round start at which the change occurs.
    pub at_s: f64,
    /// Whether the agent joins or leaves.
    pub kind: MembershipChange,
}

/// What one round of an elastic fleet looks like before it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRoundPlan {
    /// Zero-based round index.
    pub round: usize,
    /// Number of agents active at the round start
    /// ([`FleetDriver::active_ids`] lists them until `end_round`).
    pub active: usize,
    /// Arrivals/departures expected within the caller's horizon, ascending
    /// by `at_s`.
    pub events: Vec<MembershipEvent>,
}

/// Builder for a [`FleetDriver`].
///
/// The initial world is a standard heterogeneous [`WorldConfig`] build;
/// arrivals push new agents with profiles sampled from the paper's grid.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    initial_agents: usize,
    seed: u64,
    samples_per_agent: usize,
    batch_size: usize,
    topology: Topology,
    join_topology: Option<JoinTopology>,
    arrivals: ArrivalProcess,
    lifetime: SessionLifetime,
    max_agents: usize,
    recycle_slots: bool,
    cpu_dist: Option<DistributionConfig>,
    link_dist: Option<DistributionConfig>,
    lifetime_dist: Option<DistributionConfig>,
}

impl FleetConfig {
    /// Starts a config for `k` initial agents, deterministic under `seed`.
    /// Defaults: no arrivals, infinite sessions, full mesh, 500 samples per
    /// agent in batches of 100, and a 4·k agent capacity.
    pub fn new(k: usize, seed: u64) -> Self {
        Self {
            initial_agents: k,
            seed,
            samples_per_agent: 500,
            batch_size: 100,
            topology: Topology::Full,
            join_topology: None,
            arrivals: ArrivalProcess::None,
            lifetime: SessionLifetime::Infinite,
            max_agents: 4 * k.max(1),
            recycle_slots: false,
            cpu_dist: None,
            link_dist: None,
            lifetime_dist: None,
        }
    }

    /// The seed this fleet is deterministic under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws CPU speeds from a declarative distribution instead of the
    /// paper's grid — for both the initial world and every arrival.
    pub fn cpu_dist(mut self, dist: DistributionConfig) -> Self {
        self.cpu_dist = Some(dist);
        self
    }

    /// Draws link bandwidth (Mbps) from a declarative distribution instead
    /// of the grid — initial world and arrivals alike.
    pub fn link_dist(mut self, dist: DistributionConfig) -> Self {
        self.link_dist = Some(dist);
        self
    }

    /// Draws session lifetimes (seconds) from a declarative distribution,
    /// overriding [`FleetConfig::lifetime`] entirely when set.
    pub fn lifetime_dist(mut self, dist: DistributionConfig) -> Self {
        self.lifetime_dist = Some(dist);
        self
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, a: ArrivalProcess) -> Self {
        self.arrivals = a;
        self
    }

    /// Sets the session-lifetime distribution (applies to initial agents
    /// and arrivals alike).
    pub fn lifetime(mut self, l: SessionLifetime) -> Self {
        self.lifetime = l;
        self
    }

    /// Sets local dataset size per agent (arrivals get the same).
    pub fn samples_per_agent(mut self, n: usize) -> Self {
        self.samples_per_agent = n;
        self
    }

    /// Sets the local mini-batch size.
    pub fn batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }

    /// Sets the initial topology. Unless overridden by
    /// [`FleetConfig::join_topology`], arrivals wire in under
    /// [`JoinTopology::matching`] — full-mesh worlds stay full mesh,
    /// Erdős–Rényi worlds keep their edge probability under churn.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Overrides how arrivals wire into the overlay (default: the policy
    /// matching the construction topology).
    pub fn join_topology(mut self, j: JoinTopology) -> Self {
        self.join_topology = Some(j);
        self
    }

    /// Caps total world size; arrivals beyond the cap are dropped (their
    /// RNG draws are still consumed, keeping the streams aligned).
    pub fn max_agents(mut self, cap: usize) -> Self {
        self.max_agents = cap;
        self
    }

    /// Recycles departed agents' world slots through a free-list: an
    /// arrival reuses the slot of an agent whose departure has already
    /// committed instead of growing the world, so long-running fleets stop
    /// saturating [`FleetConfig::max_agents`] and dropping arrivals (and
    /// stop growing memory without bound).
    ///
    /// Off by default. Caveat: slot availability depends on when
    /// departures *commit* (round boundaries), so at the capacity limit
    /// the admit-or-drop decision — unlike the arrival/departure timeline
    /// itself — is no longer independent of how rounds discretize time.
    pub fn recycle_slots(mut self, on: bool) -> Self {
        self.recycle_slots = on;
        self
    }

    /// Materializes the driver.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero agents or a zero batch size.
    pub fn build(self) -> FleetDriver {
        let mut wc = WorldConfig::heterogeneous(self.initial_agents, self.seed)
            .total_samples(self.samples_per_agent * self.initial_agents)
            .batch_size(self.batch_size)
            .topology(self.topology);
        if let Some(d) = self.cpu_dist.clone() {
            wc = wc.cpu_dist(d);
        }
        if let Some(d) = self.link_dist.clone() {
            wc = wc.link_dist(d);
        }
        let world = wc.build();
        let mut lifetime_rng = StdRng::seed_from_u64(self.seed ^ 0xc2b2_ae35);
        let arrival_rng = StdRng::seed_from_u64(self.seed ^ 0x27d4_eb2f);
        let profile_rng = StdRng::seed_from_u64(self.seed ^ 0x1656_67b1);
        let topology_rng = StdRng::seed_from_u64(self.seed ^ 0x7f4a_7c15);
        // Declarative-distribution overrides draw from their own stream —
        // distinct from the world's override stream so initial-world and
        // arrival draws are uncorrelated.
        let dist_rng = StdRng::seed_from_u64(self.seed ^ 0x3c6e_f372);
        let cpu_sampler = self.cpu_dist.clone().map(DistSampler::new);
        let link_sampler = self.link_dist.clone().map(DistSampler::new);
        let mut lifetime_sampler = self.lifetime_dist.clone().map(DistSampler::new);
        let gap_sampler = match &self.arrivals {
            ArrivalProcess::Gaps(d) => Some(DistSampler::new(d.clone())),
            _ => None,
        };
        let join = self.join_topology.unwrap_or(JoinTopology::matching(&self.topology));
        let k = world.num_agents();
        // Initial agents draw their session lifetimes in id order.
        let mut depart_at = with_headroom(k);
        depart_at.extend((0..k).map(|_| match lifetime_sampler.as_mut() {
            Some(s) => s.sample(&mut lifetime_rng),
            None => self.lifetime.sample(&mut lifetime_rng),
        }));
        FleetDriver {
            world,
            cfg: self,
            join,
            clock_s: 0.0,
            round: 0,
            active: ActiveSet::all_active(k),
            departures: DepartureIndex::from_times(&depart_at),
            depart_at,
            next_arrival_s: None,
            prev_arrival_s: 0.0,
            trace_idx: 0,
            arrival_rng,
            lifetime_rng,
            profile_rng,
            topology_rng,
            dist_rng,
            cpu_sampler,
            link_sampler,
            lifetime_sampler,
            gap_sampler,
            pending_joins: Vec::new(),
            free_slots: std::collections::VecDeque::new(),
            sample_positions: Vec::new(),
            departed: Vec::new(),
            in_round: false,
            peak_active: k,
            arrivals_total: 0,
            departures_total: 0,
            arrivals_dropped: 0,
            slots_recycled: 0,
        }
    }
}

/// The multi-round elastic fleet driver. See the module docs for the
/// begin/end round protocol and the determinism guarantees.
#[derive(Debug, Clone)]
pub struct FleetDriver {
    world: World,
    cfg: FleetConfig,
    /// Resolved join policy (explicit knob, or matching the topology).
    join: JoinTopology,
    clock_s: f64,
    round: usize,
    /// Which world agents are currently active fleet members.
    active: ActiveSet,
    /// Finite departure times of the active agents.
    departures: DepartureIndex,
    /// Absolute fleet time at which each agent departs (∞ = never).
    depart_at: Vec<f64>,
    /// Next pending arrival time (absolute), drawn lazily.
    next_arrival_s: Option<f64>,
    /// Absolute time of the previous arrival (Poisson chain anchor).
    prev_arrival_s: f64,
    trace_idx: usize,
    arrival_rng: StdRng,
    lifetime_rng: StdRng,
    profile_rng: StdRng,
    /// Draws Erdős–Rényi join edges — its own stream so enabling sparse
    /// joins never perturbs profiles, lifetimes or arrivals under a seed.
    topology_rng: StdRng,
    /// Feeds the declarative-distribution profile overrides below — its own
    /// stream so a distribution knob never perturbs the grid streams.
    dist_rng: StdRng,
    /// Overrides arrival CPU draws when [`FleetConfig::cpu_dist`] is set.
    cpu_sampler: Option<DistSampler>,
    /// Overrides arrival link draws when [`FleetConfig::link_dist`] is set.
    link_sampler: Option<DistSampler>,
    /// Overrides session-lifetime draws when [`FleetConfig::lifetime_dist`]
    /// is set.
    lifetime_sampler: Option<DistSampler>,
    /// Draws inter-arrival gaps for [`ArrivalProcess::Gaps`].
    gap_sampler: Option<DistSampler>,
    /// Agents admitted to the world whose arrival time has not yet passed
    /// the fleet clock: `(id, absolute arrival time)`.
    pending_joins: Vec<(AgentId, f64)>,
    /// World slots of committed departures, available for reuse when
    /// [`FleetConfig::recycle_slots`] is on (FIFO by departure commit).
    free_slots: std::collections::VecDeque<AgentId>,
    /// Reused participation-sampling buffer (positions among the active).
    sample_positions: Vec<u32>,
    /// Departures the last `end_round` committed, in commit order.
    departed: Vec<AgentId>,
    in_round: bool,
    peak_active: usize,
    arrivals_total: usize,
    departures_total: usize,
    arrivals_dropped: usize,
    slots_recycled: usize,
}

impl FleetDriver {
    /// The world (all agents ever seen, active or departed).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access (profile churn between rounds, tests).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The fleet's simulated clock in seconds.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Zero-based index of the next round to begin.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Number of currently active agents.
    pub fn active_count(&self) -> usize {
        self.active.count()
    }

    /// Whether `id` is an active fleet member.
    pub fn is_active(&self, id: AgentId) -> bool {
        self.active.contains(id.0)
    }

    /// The active members, ascending by id.
    pub fn active_ids(&self) -> Vec<AgentId> {
        self.active.iter().map(AgentId).collect()
    }

    /// Samples a participation cohort of the active members at `rate`:
    /// exactly what [`World::sample_participants_among`] returns for
    /// [`FleetDriver::active_ids`], on the same RNG stream, without
    /// materializing the active list. Costs one shuffle of a reused
    /// `u32` position buffer plus at most O(n · log world) to name the n
    /// sampled positions.
    pub fn sample_active(&mut self, rate: f64) -> Vec<AgentId> {
        let k = self.active.count();
        self.world.sample_positions(k, rate, &mut self.sample_positions);
        self.active.select_ascending(&self.sample_positions).into_iter().map(AgentId).collect()
    }

    /// The agents whose departures the last [`FleetDriver::end_round`]
    /// committed, in commit order. A recycled slot can be active again by
    /// the time the call returns (a boundary arrival reused it).
    pub fn departed_last_round(&self) -> &[AgentId] {
        &self.departed
    }

    /// Largest concurrent active membership observed so far.
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Total arrivals activated so far.
    pub fn arrivals_total(&self) -> usize {
        self.arrivals_total
    }

    /// Total departures committed so far.
    pub fn departures_total(&self) -> usize {
        self.departures_total
    }

    /// Arrivals dropped because the fleet was at `max_agents`.
    pub fn arrivals_dropped(&self) -> usize {
        self.arrivals_dropped
    }

    /// Arrivals that reused a departed agent's world slot
    /// ([`FleetConfig::recycle_slots`]).
    pub fn slots_recycled(&self) -> usize {
        self.slots_recycled
    }

    /// The join policy in effect for arrivals.
    pub fn join_topology(&self) -> JoinTopology {
        self.join
    }

    /// Seconds from the fleet clock to the next scheduled membership event
    /// (pending join, active agent's departure, or the next arrival), if
    /// any. An idle caller — a round with no participants takes zero
    /// simulated time — fast-forwards by this much so the clock keeps
    /// moving and future arrivals can still activate.
    pub fn seconds_to_next_event(&mut self) -> Option<f64> {
        let mut next = f64::INFINITY;
        for &(_, t) in &self.pending_joins {
            next = next.min(t);
        }
        if let Some(t) = self.departures.earliest() {
            next = next.min(t);
        }
        if let Some(t) = self.peek_next_arrival() {
            next = next.min(t);
        }
        next.is_finite().then(|| (next - self.clock_s).max(0.0))
    }

    /// Draws (or reads from the trace) the next arrival time at or after
    /// the last one, caching it in `next_arrival_s`.
    fn peek_next_arrival(&mut self) -> Option<f64> {
        if self.next_arrival_s.is_none() {
            self.next_arrival_s = match &self.cfg.arrivals {
                ArrivalProcess::None => None,
                ArrivalProcess::Poisson { rate_per_s } => {
                    if *rate_per_s <= 0.0 {
                        None
                    } else {
                        // The chain anchors on the previous arrival, not the
                        // fleet clock, so the realized process is the same
                        // regardless of how rounds discretize time.
                        let u = self.arrival_rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
                        let gap = -(1.0 - u).ln() / rate_per_s;
                        let t = self.prev_arrival_s + gap;
                        self.prev_arrival_s = t;
                        Some(t)
                    }
                }
                ArrivalProcess::Trace(times) => {
                    let t = times.get(self.trace_idx).copied();
                    self.trace_idx += 1;
                    t
                }
                ArrivalProcess::Gaps(_) => {
                    // Same previous-arrival anchoring as the Poisson chain;
                    // the sampler floors gaps at a positive epsilon so the
                    // chain always advances.
                    let sampler =
                        self.gap_sampler.as_mut().expect("gap sampler exists for Gaps arrivals");
                    let gap = sampler.sample(&mut self.arrival_rng);
                    let t = self.prev_arrival_s + gap;
                    self.prev_arrival_s = t;
                    Some(t)
                }
            };
        }
        self.next_arrival_s
    }

    /// Admits one arrival at absolute time `at`: reuses a free slot (when
    /// recycling is on and a committed departure left one), pushes a new
    /// world agent, or drops the arrival at capacity. Draws the newcomer's
    /// lifetime and returns the occupied id.
    fn admit_arrival(&mut self, at: f64) -> Option<AgentId> {
        // Draw profile and lifetime unconditionally so the streams stay
        // aligned whether or not the arrival is admitted. The grid draw
        // happens even under a distribution override: the override replaces
        // values, never the draw count of the grid streams.
        let mut profile = AgentProfile::sample(&mut self.profile_rng);
        if let Some(s) = self.cpu_sampler.as_mut() {
            profile.cpus = s.sample(&mut self.dist_rng);
        }
        if let Some(s) = self.link_sampler.as_mut() {
            profile.link_mbps = s.sample(&mut self.dist_rng);
        }
        let session = match self.lifetime_sampler.as_mut() {
            Some(s) => s.sample(&mut self.lifetime_rng),
            None => self.cfg.lifetime.sample(&mut self.lifetime_rng),
        };
        if self.cfg.recycle_slots {
            if let Some(id) = self.free_slots.pop_front() {
                self.world.recycle_agent(
                    id,
                    profile,
                    self.cfg.samples_per_agent,
                    self.cfg.batch_size,
                    self.join,
                    &mut self.topology_rng,
                );
                debug_assert!(!self.active.contains(id.0), "free slot must be inactive");
                self.depart_at[id.0] = at + session;
                self.slots_recycled += 1;
                return Some(id);
            }
        }
        if self.world.num_agents() >= self.cfg.max_agents {
            self.arrivals_dropped += 1;
            return None;
        }
        let id = self.world.push_agent_joined(
            profile,
            self.cfg.samples_per_agent,
            self.cfg.batch_size,
            self.join,
            &mut self.topology_rng,
        );
        self.active.push_inactive(); // activated when the join commits
        push_column(&mut self.depart_at, at + session);
        Some(id)
    }

    /// Starts round `self.round()`: returns the active membership's size and
    /// every membership event expected within `horizon_s` seconds,
    /// round-relative. Costs O(events · log world), independent of the
    /// number of agents that neither arrive nor depart.
    ///
    /// The horizon is a *planning* window, typically a generous multiple of
    /// the previous round's duration: events inside it become mid-round
    /// disruptions; events the horizon misses still commit at the round
    /// boundary in [`FleetDriver::end_round`].
    ///
    /// # Panics
    ///
    /// Panics if a round is already in progress or `horizon_s` is negative
    /// or NaN.
    pub fn begin_round(&mut self, horizon_s: f64) -> FleetRoundPlan {
        assert!(!self.in_round, "begin_round called twice without end_round");
        assert!(horizon_s >= 0.0, "horizon must be non-negative, got {horizon_s}");
        self.in_round = true;
        let window_end = self.clock_s + horizon_s;

        let mut events: Vec<MembershipEvent> = Vec::new();
        // Departures of active agents inside the window.
        let clock = self.clock_s;
        self.departures.for_each_before(window_end, |d| {
            events.push(MembershipEvent {
                agent: AgentId(d.id as usize),
                at_s: (d.at - clock).max(0.0),
                kind: MembershipChange::Leave,
            });
        });
        // Joins admitted by an earlier (overshooting) horizon whose arrival
        // time has still not passed, plus fresh arrivals inside the window.
        for &(id, t) in &self.pending_joins {
            if t < window_end {
                events.push(MembershipEvent {
                    agent: id,
                    at_s: (t - self.clock_s).max(0.0),
                    kind: MembershipChange::Join,
                });
            }
        }
        while let Some(t) = self.peek_next_arrival() {
            if t >= window_end {
                break;
            }
            self.next_arrival_s = None; // consume
            if let Some(id) = self.admit_arrival(t) {
                self.pending_joins.push((id, t));
                events.push(MembershipEvent {
                    agent: id,
                    at_s: (t - self.clock_s).max(0.0),
                    kind: MembershipChange::Join,
                });
            }
        }
        // Ascending `(at_s, agent)`. An agent joins or leaves at most once
        // per plan, so the keys are unique and an unstable sort's order is
        // fully determined. `at_s` is never negative or NaN, so its bits
        // order like its value once both zeros read as +0.
        events
            .sort_unstable_by_key(|e| (if e.at_s == 0.0 { 0 } else { e.at_s.to_bits() }, e.agent));
        FleetRoundPlan { round: self.round, active: self.active.count(), events }
    }

    /// Ends the round begun by [`FleetDriver::begin_round`]: advances the
    /// fleet clock by `duration_s` and commits every membership change
    /// whose absolute time has now passed — whether or not the planning
    /// horizon handed it to the round as a disruption. The commit is driven
    /// purely by the drawn absolute times, so the realized membership
    /// timeline is identical however the caller discretizes rounds.
    ///
    /// # Panics
    ///
    /// Panics if no round is in progress or `duration_s` is negative/NaN.
    pub fn end_round(&mut self, duration_s: f64) {
        assert!(self.in_round, "end_round without begin_round");
        assert!(duration_s >= 0.0, "round duration must be non-negative, got {duration_s}");
        self.in_round = false;
        self.clock_s += duration_s;
        self.departed.clear();
        // Joins first (an agent can arrive and depart within one round).
        let clock = self.clock_s;
        let mut arrived: Vec<AgentId> = Vec::new();
        self.pending_joins.retain(|&(id, t)| {
            if t <= clock {
                arrived.push(id);
                false
            } else {
                true
            }
        });
        for id in arrived {
            self.activate(id.0);
            self.arrivals_total += 1;
        }
        // Due departures pop from the index in `(depart_at, id)` order,
        // interleaved with the boundary arrivals so a recycled slot becomes
        // available in absolute-time order (an arrival can reuse the slot
        // of a session that ended earlier in the same boundary commit).
        // Boundary arrivals stay out of the index until the end of the
        // commit: the due set is the one fixed when the commit began.
        let mut boundary: Vec<usize> = Vec::new();
        while let Some(t) = self.peek_next_arrival() {
            if t > clock {
                break;
            }
            self.next_arrival_s = None;
            while let Some(d) = self.departures.pop_due(t) {
                self.commit_departure(d.id as usize);
            }
            if let Some(id) = self.admit_arrival(t) {
                self.active.insert(id.0);
                self.arrivals_total += 1;
                boundary.push(id.0);
            }
        }
        while let Some(d) = self.departures.pop_due(clock) {
            self.commit_departure(d.id as usize);
        }
        // Boundary arrivals may themselves have sessions ending inside this
        // round; their departures commit here, in ascending id order (their
        // slots become reusable from the next boundary on).
        boundary.sort_unstable();
        for i in boundary {
            if self.depart_at[i] <= clock {
                self.commit_departure(i);
            } else {
                self.departures.push(i, self.depart_at[i]);
            }
        }
        self.round += 1;
        self.peak_active = self.peak_active.max(self.active.count());
    }

    /// Activates slot `i` and indexes its departure.
    fn activate(&mut self, i: usize) {
        self.active.insert(i);
        self.departures.push(i, self.depart_at[i]);
    }

    /// Deactivates one active agent, freeing its slot for reuse when
    /// recycling is on.
    fn commit_departure(&mut self, i: usize) {
        self.active.remove(i);
        self.departed.push(AgentId(i));
        self.departures_total += 1;
        if self.cfg.recycle_slots {
            self.free_slots.push_back(AgentId(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_fleet(seed: u64) -> FleetDriver {
        FleetConfig::new(10, seed)
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.05 })
            .lifetime(SessionLifetime::Exponential { mean_s: 200.0 })
            .build()
    }

    #[test]
    fn static_fleet_never_changes() {
        let mut f = FleetConfig::new(8, 1).build();
        for _ in 0..5 {
            let plan = f.begin_round(100.0);
            assert_eq!(plan.active, 8);
            assert!(plan.events.is_empty());
            f.end_round(100.0);
        }
        assert_eq!(f.active_count(), 8);
        assert_eq!(f.arrivals_total(), 0);
        assert_eq!(f.departures_total(), 0);
    }

    #[test]
    fn poisson_churn_changes_membership() {
        let mut f = poisson_fleet(3);
        let mut saw_join = false;
        let mut saw_leave = false;
        for _ in 0..40 {
            let plan = f.begin_round(100.0);
            for e in &plan.events {
                match e.kind {
                    MembershipChange::Join => saw_join = true,
                    MembershipChange::Leave => saw_leave = true,
                }
                assert!((0.0..100.0).contains(&e.at_s), "event inside window: {}", e.at_s);
            }
            f.end_round(100.0);
        }
        assert!(saw_join, "Poisson arrivals should fire in 4000s at rate 0.05/s");
        assert!(saw_leave, "exponential sessions of mean 200s should end");
        assert!(f.peak_active() >= 10);
    }

    #[test]
    fn membership_timeline_is_deterministic_per_seed() {
        let run = |seed| {
            let mut f = poisson_fleet(seed);
            let mut log = Vec::new();
            for _ in 0..25 {
                let plan = f.begin_round(120.0);
                log.push((plan.active, plan.events.len()));
                f.end_round(120.0);
            }
            (log, f.arrivals_total(), f.departures_total())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn durations_shift_round_boundaries_not_the_timeline() {
        // Same seed, different round durations: the *absolute* membership
        // totals over the same total simulated time must agree.
        let totals = |dur: f64, rounds: usize| {
            let mut f = poisson_fleet(11);
            for _ in 0..rounds {
                let plan = f.begin_round(dur);
                drop(plan);
                f.end_round(dur);
            }
            (f.arrivals_total() + f.arrivals_dropped(), f.departures_total(), f.clock_s())
        };
        let a = totals(100.0, 30);
        let b = totals(300.0, 10);
        assert_eq!(a.2, b.2, "same total simulated time");
        assert_eq!(a.0, b.0, "same arrivals over the same window");
        assert_eq!(a.1, b.1, "same departures over the same window");
    }

    #[test]
    fn trace_arrivals_fire_at_given_times() {
        let mut f =
            FleetConfig::new(3, 5).arrivals(ArrivalProcess::Trace(vec![50.0, 150.0])).build();
        let p0 = f.begin_round(100.0);
        assert_eq!(p0.events.len(), 1);
        assert_eq!(p0.events[0].kind, MembershipChange::Join);
        assert!((p0.events[0].at_s - 50.0).abs() < 1e-9);
        f.end_round(100.0);
        assert_eq!(f.active_count(), 4);
        let p1 = f.begin_round(100.0);
        assert_eq!(p1.active, 4);
        assert_eq!(p1.events.len(), 1);
        assert!((p1.events[0].at_s - 50.0).abs() < 1e-9);
        f.end_round(100.0);
        assert_eq!(f.active_count(), 5);
    }

    #[test]
    fn capacity_cap_drops_arrivals() {
        let mut f = FleetConfig::new(2, 9)
            .arrivals(ArrivalProcess::Trace(vec![1.0, 2.0, 3.0]))
            .max_agents(3)
            .build();
        let plan = f.begin_round(10.0);
        assert_eq!(plan.events.len(), 1, "only one admission fits the cap");
        f.end_round(10.0);
        assert_eq!(f.world().num_agents(), 3);
        assert_eq!(f.arrivals_dropped(), 2);
    }

    #[test]
    fn missed_horizon_events_commit_at_the_boundary() {
        let mut f =
            FleetConfig::new(4, 13).lifetime(SessionLifetime::Fixed { duration_s: 50.0 }).build();
        // Horizon 10s sees no departures, but the round actually ran 80s:
        // all four sessions ended inside the round; the boundary commit
        // catches them.
        let plan = f.begin_round(10.0);
        assert!(plan.events.is_empty());
        f.end_round(80.0);
        assert_eq!(f.active_count(), 0);
        assert_eq!(f.departures_total(), 4);
    }

    #[test]
    fn weibull_sessions_are_positive_and_vary() {
        let mut rng = StdRng::seed_from_u64(17);
        let dist = SessionLifetime::Weibull { scale_s: 100.0, shape: 0.7 };
        let draws: Vec<f64> = (0..100).map(|_| dist.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d > 0.0 && d.is_finite()));
        let min = draws.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = draws.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 10.0 * min, "heavy-tailed draws should spread widely");
    }

    #[test]
    #[should_panic(expected = "begin_round called twice")]
    fn double_begin_panics() {
        let mut f = FleetConfig::new(2, 1).build();
        let _ = f.begin_round(1.0);
        let _ = f.begin_round(1.0);
    }

    #[test]
    fn recycling_reuses_slots_instead_of_dropping() {
        // Two slots, sessions end at 5 s, arrivals at 10/20/30 s: without
        // recycling only one arrival fits the cap of 3; with it, every
        // arrival reuses a freed slot and the world never grows past 2.
        let mk = |recycle: bool| {
            FleetConfig::new(2, 17)
                .lifetime(SessionLifetime::Fixed { duration_s: 5.0 })
                .arrivals(ArrivalProcess::Trace(vec![10.0, 20.0, 30.0]))
                .max_agents(3)
                .recycle_slots(recycle)
                .build()
        };
        let run = |mut f: FleetDriver| {
            for _ in 0..5 {
                let _ = f.begin_round(10.0);
                f.end_round(10.0);
            }
            f
        };
        let plain = run(mk(false));
        assert_eq!(plain.arrivals_dropped(), 2);
        assert_eq!(plain.world().num_agents(), 3);

        let recycled = run(mk(true));
        assert_eq!(recycled.arrivals_dropped(), 0, "freed slots absorb every arrival");
        assert_eq!(recycled.world().num_agents(), 2, "the world never grows");
        assert_eq!(recycled.slots_recycled(), 3);
        assert_eq!(recycled.arrivals_total(), 3);
        assert_eq!(recycled.departures_total(), plain.departures_total() + 2);
    }

    #[test]
    fn recycled_slot_carries_the_newcomers_profile_and_lifetime() {
        let mut f = FleetConfig::new(1, 23)
            .lifetime(SessionLifetime::Fixed { duration_s: 5.0 })
            .arrivals(ArrivalProcess::Trace(vec![20.0]))
            .max_agents(1)
            .recycle_slots(true)
            .build();
        // Round 0 ends at 10 s: the original occupant (session ended at
        // 5 s) has departed and freed slot 0.
        let _ = f.begin_round(10.0);
        f.end_round(10.0);
        assert!(!f.is_active(AgentId(0)));
        assert_eq!(f.departures_total(), 1);
        // Round 1 ends at 20 s: the trace arrival reuses slot 0 and is
        // active with a fresh lifetime drawn from its own arrival time.
        let _ = f.begin_round(10.0);
        f.end_round(10.0);
        assert_eq!(f.slots_recycled(), 1);
        assert!(f.is_active(AgentId(0)), "newcomer occupies slot 0");
        assert_eq!(f.arrivals_total(), 1);
        // Round 2 ends at 30 s: the newcomer's own 5 s session (20→25 s)
        // has ended — its departure is rescheduled from the arrival time,
        // not inherited from the previous occupant.
        let _ = f.begin_round(10.0);
        f.end_round(10.0);
        assert!(!f.is_active(AgentId(0)));
        assert_eq!(f.departures_total(), 2);
    }

    #[test]
    fn recycling_off_by_default_preserves_growth_behavior() {
        let f = FleetConfig::new(4, 1).build();
        assert_eq!(f.slots_recycled(), 0);
        let g = poisson_fleet(3);
        assert_eq!(g.slots_recycled(), 0);
    }

    #[test]
    fn er_joins_follow_a_random_topology_by_default() {
        use crate::{JoinTopology, Topology};
        let f = FleetConfig::new(10, 5).topology(Topology::random(0.2)).build();
        assert_eq!(f.join_topology(), JoinTopology::ErdosRenyi { p: 0.2 });
        let g = FleetConfig::new(10, 5).build();
        assert_eq!(g.join_topology(), JoinTopology::FullMesh);
        let h = FleetConfig::new(10, 5)
            .topology(Topology::random(0.2))
            .join_topology(JoinTopology::FullMesh)
            .build();
        assert_eq!(h.join_topology(), JoinTopology::FullMesh);
    }

    #[test]
    fn er_joins_keep_density_under_churn() {
        use crate::Topology;
        let mut f = FleetConfig::new(40, 7)
            .topology(Topology::random(0.2))
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.05 })
            .lifetime(SessionLifetime::Exponential { mean_s: 400.0 })
            .max_agents(400)
            .build();
        for _ in 0..40 {
            let _ = f.begin_round(100.0);
            f.end_round(100.0);
        }
        assert!(f.arrivals_total() > 20, "churn must actually fire");
        let d = f.world().adjacency().density();
        assert!((0.1..0.3).contains(&d), "density {d} must stay near 0.2 under ER joins");
    }

    #[test]
    fn fixed_gap_arrivals_are_a_metronome() {
        let mut f = FleetConfig::new(2, 31)
            .arrivals(ArrivalProcess::Gaps(DistributionConfig::Fixed { value: 25.0 }))
            .max_agents(100)
            .build();
        let plan = f.begin_round(100.0);
        let times: Vec<f64> = plan.events.iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![25.0, 50.0, 75.0]);
        // The boundary commit also catches the arrival at exactly 100 s
        // (horizon windows are half-open, commits are inclusive).
        f.end_round(100.0);
        assert_eq!(f.arrivals_total(), 4);
    }

    #[test]
    fn gap_arrivals_are_deterministic_and_discretization_independent() {
        let mk = || {
            FleetConfig::new(5, 33)
                .arrivals(ArrivalProcess::Gaps(DistributionConfig::LogNormal {
                    mu: 3.0,
                    sigma: 0.8,
                }))
                .max_agents(500)
                .build()
        };
        let totals = |mut f: FleetDriver, dur: f64, rounds: usize| {
            for _ in 0..rounds {
                let _ = f.begin_round(dur);
                f.end_round(dur);
            }
            (f.arrivals_total() + f.arrivals_dropped(), f.clock_s())
        };
        let a = totals(mk(), 100.0, 30);
        let b = totals(mk(), 300.0, 10);
        assert_eq!(a, b, "gap arrivals must not depend on round discretization");
        assert!(a.0 > 50, "mean gap ~28s over 3000s should admit many arrivals");
    }

    #[test]
    fn lifetime_dist_overrides_the_builtin_lifetimes() {
        // A fixed lifetime distribution behaves exactly like Fixed sessions.
        let mut f = FleetConfig::new(4, 35)
            .lifetime(SessionLifetime::Infinite)
            .lifetime_dist(DistributionConfig::Fixed { value: 50.0 })
            .build();
        let _ = f.begin_round(10.0);
        f.end_round(80.0);
        assert_eq!(f.active_count(), 0, "all fixed 50s sessions ended by 80s");
        assert_eq!(f.departures_total(), 4);
    }

    #[test]
    fn arrival_profiles_follow_the_distribution_overrides() {
        let mut f = FleetConfig::new(2, 37)
            .arrivals(ArrivalProcess::Trace(vec![10.0, 20.0, 30.0]))
            .cpu_dist(DistributionConfig::Fixed { value: 7.0 })
            .link_dist(DistributionConfig::Uniform { min: 30.0, max: 31.0 })
            .max_agents(10)
            .build();
        for _ in 0..4 {
            let _ = f.begin_round(10.0);
            f.end_round(10.0);
        }
        assert_eq!(f.arrivals_total(), 3);
        for a in f.world().agents() {
            assert_eq!(a.profile.cpus, 7.0, "initial and arriving agents share the dist");
            assert!((30.0..=31.0).contains(&a.profile.link_mbps));
        }
    }

    #[test]
    fn joined_agents_participate_from_the_next_round() {
        let mut f = FleetConfig::new(3, 21).arrivals(ArrivalProcess::Trace(vec![5.0])).build();
        let p0 = f.begin_round(10.0);
        assert_eq!(p0.active, 3, "joiner is not yet a participant");
        let join = p0.events[0];
        assert!(!f.is_active(join.agent), "inactive until the round commits");
        f.end_round(10.0);
        assert!(f.is_active(join.agent));
        let _ = f.begin_round(10.0);
        assert!(f.active_ids().contains(&join.agent));
        f.end_round(10.0);
    }
}
