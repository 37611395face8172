//! Property tests for the simulation substrate.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use comdml_simnet::{
    AgentId, ArrivalProcess, DistSampler, DistributionConfig, EventQueue, FleetConfig,
    FleetRoundPlan, MembershipChange, MembershipEvent, SessionLifetime, SimDriver, SimEvent,
    Topology, WorldConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference model for the calendar queue: the binary heap it replaced,
/// reduced to its ordering contract — pop the `(time, seq)`-minimal entry.
#[derive(Default)]
struct HeapModel {
    entries: Vec<(f64, u64, usize)>,
    seq: u64,
}

impl HeapModel {
    fn push(&mut self, time: f64, payload: usize) {
        self.entries.push((time, self.seq, payload));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("no NaN times"))
            .map(|(i, _)| i)?;
        let (t, _, p) = self.entries.remove(best);
        Some((t, p))
    }
}

/// Reference model for `FleetDriver`'s membership process: the O(world)
/// driver the indexed one replaced — full scans for the active list, the
/// window's departures, the due departures and the next event. It draws
/// the same arrival and lifetime streams (profiles and topology never
/// touch membership, so it does not model them).
struct NaiveFleet {
    arrivals: ArrivalProcess,
    lifetime: SessionLifetime,
    max_agents: usize,
    recycle: bool,
    clock_s: f64,
    round: usize,
    active: Vec<bool>,
    depart_at: Vec<f64>,
    next_arrival_s: Option<f64>,
    prev_arrival_s: f64,
    trace_idx: usize,
    arrival_rng: StdRng,
    lifetime_rng: StdRng,
    gap_sampler: Option<DistSampler>,
    pending_joins: Vec<(AgentId, f64)>,
    free_slots: VecDeque<AgentId>,
    departed: Vec<AgentId>,
    peak_active: usize,
    arrivals_total: usize,
    departures_total: usize,
    arrivals_dropped: usize,
    slots_recycled: usize,
}

impl NaiveFleet {
    fn new(
        k: usize,
        seed: u64,
        arrivals: ArrivalProcess,
        lifetime: SessionLifetime,
        max_agents: usize,
        recycle: bool,
    ) -> Self {
        let mut lifetime_rng = StdRng::seed_from_u64(seed ^ 0xc2b2_ae35);
        let depart_at = (0..k).map(|_| Self::session(lifetime, &mut lifetime_rng)).collect();
        let gap_sampler = match &arrivals {
            ArrivalProcess::Gaps(d) => Some(DistSampler::new(d.clone())),
            _ => None,
        };
        Self {
            arrivals,
            lifetime,
            max_agents,
            recycle,
            clock_s: 0.0,
            round: 0,
            active: vec![true; k],
            depart_at,
            next_arrival_s: None,
            prev_arrival_s: 0.0,
            trace_idx: 0,
            arrival_rng: StdRng::seed_from_u64(seed ^ 0x27d4_eb2f),
            lifetime_rng,
            gap_sampler,
            pending_joins: Vec::new(),
            free_slots: VecDeque::new(),
            departed: Vec::new(),
            peak_active: k,
            arrivals_total: 0,
            departures_total: 0,
            arrivals_dropped: 0,
            slots_recycled: 0,
        }
    }

    fn session(lifetime: SessionLifetime, rng: &mut StdRng) -> f64 {
        let u = rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
        match lifetime {
            SessionLifetime::Infinite => f64::INFINITY,
            SessionLifetime::Exponential { mean_s } => -mean_s * (1.0 - u).ln(),
            SessionLifetime::Weibull { scale_s, shape } => {
                scale_s * (-(1.0 - u).ln()).powf(1.0 / shape.max(1e-9))
            }
            SessionLifetime::Fixed { duration_s } => duration_s,
        }
    }

    fn active_ids(&self) -> Vec<AgentId> {
        (0..self.active.len()).filter(|&i| self.active[i]).map(AgentId).collect()
    }

    fn peek_next_arrival(&mut self) -> Option<f64> {
        if self.next_arrival_s.is_none() {
            self.next_arrival_s = match &self.arrivals {
                ArrivalProcess::None => None,
                ArrivalProcess::Poisson { rate_per_s } => (*rate_per_s > 0.0).then(|| {
                    let u = self.arrival_rng.gen::<f64>().clamp(1e-12, 1.0 - 1e-12);
                    self.prev_arrival_s += -(1.0 - u).ln() / rate_per_s;
                    self.prev_arrival_s
                }),
                ArrivalProcess::Trace(times) => {
                    let t = times.get(self.trace_idx).copied();
                    self.trace_idx += 1;
                    t
                }
                ArrivalProcess::Gaps(_) => {
                    let gap = self.gap_sampler.as_mut().unwrap().sample(&mut self.arrival_rng);
                    self.prev_arrival_s += gap;
                    Some(self.prev_arrival_s)
                }
            };
        }
        self.next_arrival_s
    }

    fn admit_arrival(&mut self, at: f64) -> Option<AgentId> {
        let session = Self::session(self.lifetime, &mut self.lifetime_rng);
        if self.recycle {
            if let Some(id) = self.free_slots.pop_front() {
                self.depart_at[id.0] = at + session;
                self.slots_recycled += 1;
                return Some(id);
            }
        }
        if self.active.len() >= self.max_agents {
            self.arrivals_dropped += 1;
            return None;
        }
        self.active.push(false);
        self.depart_at.push(at + session);
        Some(AgentId(self.active.len() - 1))
    }

    fn seconds_to_next_event(&mut self) -> Option<f64> {
        let mut next = f64::INFINITY;
        for &(_, t) in &self.pending_joins {
            next = next.min(t);
        }
        for i in 0..self.active.len() {
            if self.active[i] {
                next = next.min(self.depart_at[i]);
            }
        }
        if let Some(t) = self.peek_next_arrival() {
            next = next.min(t);
        }
        next.is_finite().then(|| (next - self.clock_s).max(0.0))
    }

    fn begin_round(&mut self, horizon_s: f64) -> (Vec<AgentId>, Vec<MembershipEvent>) {
        let window_end = self.clock_s + horizon_s;
        let participants = self.active_ids();
        let at = |t: f64, clock: f64| (t - clock).max(0.0);
        let mut events = Vec::new();
        for &id in &participants {
            let t = self.depart_at[id.0];
            if t < window_end {
                let at_s = at(t, self.clock_s);
                events.push(MembershipEvent { agent: id, at_s, kind: MembershipChange::Leave });
            }
        }
        for &(id, t) in &self.pending_joins {
            if t < window_end {
                let at_s = at(t, self.clock_s);
                events.push(MembershipEvent { agent: id, at_s, kind: MembershipChange::Join });
            }
        }
        while let Some(t) = self.peek_next_arrival() {
            if t >= window_end {
                break;
            }
            self.next_arrival_s = None;
            if let Some(id) = self.admit_arrival(t) {
                self.pending_joins.push((id, t));
                let at_s = at(t, self.clock_s);
                events.push(MembershipEvent { agent: id, at_s, kind: MembershipChange::Join });
            }
        }
        events.sort_by(|a, b| {
            a.at_s
                .partial_cmp(&b.at_s)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.agent.cmp(&b.agent))
        });
        (participants, events)
    }

    fn end_round(&mut self, duration_s: f64) {
        self.clock_s += duration_s;
        self.departed.clear();
        let clock = self.clock_s;
        let mut arrived = Vec::new();
        self.pending_joins.retain(|&(id, t)| {
            let due = t <= clock;
            if due {
                arrived.push(id);
            }
            !due
        });
        for id in arrived {
            self.active[id.0] = true;
            self.arrivals_total += 1;
        }
        let mut due: Vec<(f64, usize)> = (0..self.active.len())
            .filter(|&i| self.active[i] && self.depart_at[i] <= clock)
            .map(|i| (self.depart_at[i], i))
            .collect();
        due.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mut cursor = 0;
        while let Some(t) = self.peek_next_arrival() {
            if t > clock {
                break;
            }
            self.next_arrival_s = None;
            while cursor < due.len() && due[cursor].0 <= t {
                self.commit_departure(due[cursor].1);
                cursor += 1;
            }
            if let Some(id) = self.admit_arrival(t) {
                self.active[id.0] = true;
                self.arrivals_total += 1;
            }
        }
        for &(_, i) in &due[cursor..] {
            self.commit_departure(i);
        }
        for i in 0..self.active.len() {
            if self.active[i] && self.depart_at[i] <= clock {
                self.commit_departure(i);
            }
        }
        self.round += 1;
        self.peak_active = self.peak_active.max(self.active_ids().len());
    }

    fn commit_departure(&mut self, i: usize) {
        self.active[i] = false;
        self.departed.push(AgentId(i));
        self.departures_total += 1;
        if self.recycle {
            self.free_slots.push_back(AgentId(i));
        }
    }
}

/// A round length for the membership differential test: zero, ordinary,
/// or far longer than any session.
fn round_length() -> impl Strategy<Value = f64> {
    (0u8..8, 0.0f64..200.0).prop_map(|(pick, s)| match pick {
        0 => 0.0,
        1 => 1e4 + s * 50.0,
        _ => s,
    })
}

/// A random fleet config with the arguments the reference model needs.
fn fleet_case() -> impl Strategy<Value = (FleetConfig, NaiveFleet)> {
    let arrivals = (0u8..4, 0.001f64..0.05, prop::collection::vec(0.0f64..3_000.0, 0..40))
        .prop_map(|(pick, rate, mut trace)| match pick {
            0 => ArrivalProcess::Poisson { rate_per_s: rate },
            1 => {
                trace.sort_by(|a, b| a.partial_cmp(b).unwrap());
                ArrivalProcess::Trace(trace)
            }
            2 => ArrivalProcess::Gaps(DistributionConfig::Fixed { value: 1.0 / rate }),
            _ => ArrivalProcess::Gaps(DistributionConfig::LogNormal { mu: 3.0, sigma: 1.0 }),
        });
    let lifetime = (0u8..5, 0.0f64..600.0).prop_map(|(pick, s)| match pick {
        0 => SessionLifetime::Infinite,
        1 => SessionLifetime::Exponential { mean_s: s + 1.0 },
        2 => SessionLifetime::Weibull { scale_s: s + 1.0, shape: 0.7 },
        3 => SessionLifetime::Fixed { duration_s: 0.0 },
        _ => SessionLifetime::Fixed { duration_s: s },
    });
    (1usize..24, 0u64..u64::MAX, arrivals, lifetime, 0usize..6, 0u8..2).prop_map(
        |(k, seed, arrivals, lifetime, slack, recycle)| {
            let recycle = recycle == 1;
            let cfg = FleetConfig::new(k, seed)
                .arrivals(arrivals.clone())
                .lifetime(lifetime)
                .max_agents(k + slack)
                .recycle_slots(recycle);
            (cfg, NaiveFleet::new(k, seed, arrivals, lifetime, k + slack, recycle))
        },
    )
}

proptest! {
    /// World building conserves the dataset and stays within profile grids.
    #[test]
    fn world_invariants(k in 1usize..64, seed in 0u64..u64::MAX, total in 100usize..200_000) {
        let world = WorldConfig::heterogeneous(k, seed).total_samples(total).build();
        prop_assert_eq!(world.num_agents(), k);
        let sum: usize = world.agents().iter().map(|a| a.num_samples).sum();
        prop_assert_eq!(sum, total, "every sample assigned exactly once");
        for a in world.agents() {
            prop_assert!(a.profile.cpus > 0.0 && a.profile.cpus <= 4.0);
            prop_assert!(a.profile.link_mbps >= 0.0 && a.profile.link_mbps <= 100.0);
        }
    }

    /// Link speeds are symmetric and zero on missing edges.
    #[test]
    fn link_symmetry(k in 2usize..32, seed in 0u64..u64::MAX, p in 0.0f64..1.0) {
        let world = WorldConfig::heterogeneous(k, seed)
            .topology(Topology::random(p))
            .build();
        for i in 0..k {
            for j in 0..k {
                let a = world.link_mbps(i.into(), j.into());
                let b = world.link_mbps(j.into(), i.into());
                prop_assert!((a - b).abs() < 1e-12, "symmetric links");
                if i == j {
                    prop_assert_eq!(a, 0.0);
                }
                if !world.adjacency().connected(i, j) {
                    prop_assert_eq!(a, 0.0);
                }
            }
        }
    }

    /// Churn changes at most the requested fraction of profiles.
    #[test]
    fn churn_bounds(k in 5usize..40, seed in 0u64..u64::MAX, frac in 0.0f64..1.0) {
        let mut world = WorldConfig::heterogeneous(k, seed).build();
        let before: Vec<_> = world.agents().iter().map(|a| a.profile).collect();
        world.churn_profiles(frac);
        let changed = world
            .agents()
            .iter()
            .zip(before.iter())
            .filter(|(a, b)| a.profile != **b)
            .count();
        let max_changed = (k as f64 * frac).round() as usize;
        prop_assert!(changed <= max_changed, "{changed} > {max_changed}");
    }

    /// Participant sampling returns sorted unique ids within bounds.
    #[test]
    fn sampling_invariants(k in 1usize..64, seed in 0u64..u64::MAX, rate in 0.0f64..1.0) {
        let mut world = WorldConfig::heterogeneous(k, seed).build();
        let all: Vec<AgentId> = (0..k).map(AgentId).collect();
        let sample = world.sample_participants_among(&all, rate);
        prop_assert!(!sample.is_empty());
        prop_assert!(sample.len() <= k);
        for w in sample.windows(2) {
            prop_assert!(w[0] < w[1], "sorted and unique");
        }
        for id in &sample {
            prop_assert!(id.0 < k);
        }
    }

    /// The calendar queue pops in exactly the order the old binary heap
    /// did, under random interleaved push/pop with heavy timestamp
    /// collisions (times drawn from a tiny grid so equal-time tie-breaks
    /// are exercised constantly, and spans vary enough to force both
    /// resize directions and the far-future rotation fallback).
    #[test]
    fn calendar_queue_matches_heap_order(
        ops in prop::collection::vec((0u8..4, 0u32..64), 1..400),
        scale in 0.01f64..1e6,
    ) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::default();
        let mut payload = 0usize;
        for (op, t) in ops {
            if op == 0 {
                // Pop on both; results must agree bit for bit.
                let got = q.pop();
                let want = model.pop();
                prop_assert_eq!(got, want);
            } else {
                let time = f64::from(t) * scale / 7.0;
                q.push(time, payload);
                model.push(time, payload);
                payload += 1;
            }
            prop_assert_eq!(q.len(), model.entries.len());
            prop_assert_eq!(q.peek_time().map(f64::to_bits),
                            model.entries.iter().map(|e| e.0)
                                .min_by(|a, b| a.partial_cmp(b).unwrap())
                                .map(f64::to_bits));
        }
        // Drain: the full remaining order must match.
        while let Some(want) = model.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert!(q.is_empty());
    }

    /// `SimDriver`, with its same-instant lane beside the calendar, pops
    /// exactly what one `BinaryHeap` over `(time, seq)` pops. Schedules mix
    /// zero-delay pushes at `now = 0` before the first pop, calendar events
    /// at grid times the clock later reaches (while the lane fills at that
    /// same instant), `schedule_in(0.0)` and positive delays.
    #[test]
    fn sim_driver_matches_heap_order(
        ops in prop::collection::vec((0u8..5, 0u32..4), 1..300),
        scale in 0.01f64..1e3,
    ) {
        let mut driver = SimDriver::new(1);
        // Times are non-negative, so their bits order like their values.
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let (mut seq, mut peak, mut popped) = (0u64, 0usize, 0u64);
        for (op, k) in ops {
            let time = match op {
                0 => {
                    let got = driver.next().map(|(t, ev)| (t.to_bits(), ev));
                    let want = heap.pop().map(|Reverse((t, _, slot))| {
                        popped += 1;
                        (t, SimEvent::AgentDone { slot })
                    });
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        prop_assert_eq!(driver.now().to_bits(), t);
                    }
                    continue;
                }
                // A grid time, which events scheduled earlier may share.
                1 => (f64::from(k) * scale).max(driver.now()),
                2 => driver.now() + f64::from(k) * scale,
                _ => driver.now(),
            };
            let event = SimEvent::AgentDone { slot: seq as usize };
            if op == 4 {
                driver.schedule_in(0.0, event);
            } else {
                driver.schedule_at(time, event);
            }
            heap.push(Reverse((time.to_bits(), seq, seq as usize)));
            seq += 1;
            peak = peak.max(heap.len());
            prop_assert_eq!(driver.pending(), heap.len());
        }
        while let Some(Reverse((t, _, slot))) = heap.pop() {
            popped += 1;
            prop_assert_eq!(driver.next(), Some((f64::from_bits(t), SimEvent::AgentDone { slot })));
        }
        prop_assert_eq!(driver.next(), None);
        prop_assert_eq!(driver.pending(), 0);
        prop_assert_eq!(driver.peak_pending(), peak);
        prop_assert_eq!(driver.events_processed(), popped);
    }

    /// The indexed `FleetDriver` reproduces the O(world) reference driver
    /// round by round: the plan (active ids and events), the counts and
    /// totals, the next-event clock, the committed departures in commit
    /// order, and — through the ids later arrivals receive — the order of
    /// the free-slot list. Its cohort sampler
    /// matches `World::sample_participants_among` over the reference's
    /// active list on the same stream.
    #[test]
    fn indexed_membership_matches_the_naive_driver(
        case in fleet_case(),
        rounds in prop::collection::vec((round_length(), round_length(), 0.0f64..1.0), 0..30),
    ) {
        let (cfg, mut naive) = case;
        let mut fleet = cfg.build();
        for (horizon, duration, rate) in rounds {
            let plan: FleetRoundPlan = fleet.begin_round(horizon);
            let (ids, events) = naive.begin_round(horizon);
            prop_assert_eq!(plan.round, naive.round);
            prop_assert_eq!(plan.active, ids.len());
            prop_assert_eq!(fleet.active_ids(), ids.clone());
            prop_assert_eq!(fleet.active_count(), ids.len());
            prop_assert_eq!(plan.events, events);
            prop_assert_eq!(fleet.seconds_to_next_event(), naive.seconds_to_next_event());
            if !ids.is_empty() {
                let mut twin = fleet.clone();
                let want = twin.world_mut().sample_participants_among(&ids, rate);
                prop_assert_eq!(fleet.sample_active(rate), want);
            }
            fleet.end_round(duration);
            naive.end_round(duration);
            prop_assert_eq!(fleet.clock_s(), naive.clock_s);
            prop_assert_eq!(fleet.active_ids(), naive.active_ids());
            prop_assert_eq!(fleet.departed_last_round(), &naive.departed[..]);
            prop_assert_eq!(fleet.world().num_agents(), naive.active.len());
            prop_assert_eq!(fleet.peak_active(), naive.peak_active);
            prop_assert_eq!(fleet.arrivals_total(), naive.arrivals_total);
            prop_assert_eq!(fleet.departures_total(), naive.departures_total);
            prop_assert_eq!(fleet.arrivals_dropped(), naive.arrivals_dropped);
            prop_assert_eq!(fleet.slots_recycled(), naive.slots_recycled);
        }
    }

    /// Topology density is within [0, 1] and full mesh is exactly 1.
    #[test]
    fn density_bounds(k in 2usize..32, seed in 0u64..u64::MAX, p in 0.0f64..1.0) {
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(seed)
        };
        let adj = Topology::random(p).build(k, &mut rng);
        let d = adj.density();
        prop_assert!((0.0..=1.0).contains(&d));
        let full = Topology::Full.build(k, &mut rng);
        prop_assert!((full.density() - 1.0).abs() < 1e-12);
    }
}
