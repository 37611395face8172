use std::cmp::Reverse;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use comdml_simnet::{AgentId, AgentIdHasher, AgentMap, ByzantineConfig, World};

use crate::estimator::{Broadcast, SlowSide};
use crate::{SplitDecision, TrainingTimeEstimator};

/// One scheduling decision: a slow agent, its chosen helper (if any), the
/// split, and the estimated completion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pairing {
    /// The agent whose task is being scheduled.
    pub slow: AgentId,
    /// The helper the suffix is offloaded to (`None` = trains alone).
    pub fast: Option<AgentId>,
    /// Number of offloaded layers (0 when training alone).
    pub offload: usize,
    /// Estimated completion time in seconds (Algorithm 1's `τ̂`).
    pub est_time_s: f64,
}

impl Pairing {
    /// Whether this decision offloads work.
    pub fn is_offloading(&self) -> bool {
        self.fast.is_some() && self.offload > 0
    }
}

/// Alternative pairing orders used by the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingOrder {
    /// The paper's slowest-first order.
    SlowestFirst,
    /// Agents pair in id order (what a naive static scheme does).
    ByAgentId,
}

/// The dynamic decentralized pairing scheduler (§IV-A, Algorithm 1).
///
/// Every round, agents broadcast their processing speed and estimated solo
/// training time; the scheduler walks the agents in descending order of solo
/// time ("prioritizing the slowest agent first", ties by ascending id) and
/// lets each still-unscheduled agent pick the available, reachable
/// neighbour and split that minimize its estimated time. An agent pairs
/// only when the best option beats training alone; otherwise it trains
/// independently. Among equally good options the lexicographic minimum of
/// `(est, τ̂ⱼ, id)` wins: the less busy helper first, then the lower id.
///
/// The implementation is deliberately a pure function of shared, local
/// information (speeds, solo times, link speeds) — exactly what each agent
/// could compute for itself in the decentralized protocol.
///
/// # Helper capacity
///
/// Eq. 4 sums helper-side costs over every guest a helper hosts, while
/// Algorithm 1 assigns at most one. [`PairingScheduler::capacity`] lets a
/// helper host up to `c` guests (the default, 1, is Algorithm 1). A helper
/// that takes a guest is scheduled — it is never visited as a slow agent
/// and appears only in its guests' `fast` fields. While it is below
/// capacity it stays a candidate, and its `τ̂ⱼ` becomes the accepted pair's
/// estimate, so later guests queue behind the earlier ones.
///
/// # Byzantine misreports
///
/// Because the scheduler trusts the broadcast, it is exactly where lying
/// pays off: [`PairingScheduler::with_misreport`] substitutes a deterministic
/// fraction of agents' *advertised* speeds (and hence their broadcast `τ̂`)
/// with `speed_factor ×` the truth. Every scheduling input — visit order,
/// helper choice, split selection, estimated times — then sees the lie,
/// while round *execution* always runs on the true profiles, so misreports
/// degrade realized round times without touching the physics.
///
/// # Scaling
///
/// Candidates are searched in ascending `(τ̂ⱼ, id)` with an exact prune: a
/// candidate whose own task `τ̂ⱼ` already reaches the best estimate so far
/// can never win (the fast arm of line 18 is bounded below by `τ̂ⱼ`). A
/// sparse topology scans each agent's neighbours this way.
///
/// A full mesh prunes by dominance as well. Line 18 reads three things of
/// a helper `j`: its speed `pⱼ`, its own task `τ̂ⱼ` and the link `cᵢⱼ`, and
/// the estimate is non-increasing in `pⱼ` and non-decreasing in `τ̂ⱼ`. Both
/// hold bit for bit, because every operation on the fast arm is monotone
/// under IEEE rounding and `pⱼ` is the estimator's own
/// [`TrainingTimeEstimator::batches_per_s`] of the advertised state. So
/// when helper `j′` is at least as fast as `j` and has the smaller
/// `(τ̂ⱼ, id)`, `j` cannot win the `(est, τ̂ⱼ, id)` minimum while `j′` is
/// available. Only the *skyline* of non-dominated helpers needs an
/// estimate (Börzsönyi, Kossmann and Stocker, "The Skyline Operator",
/// ICDE 2001).
///
/// Helpers are grouped by link class and by side of an active
/// [`World::set_partition`] cut. All members of a group are reachable from
/// the same slow agents over the same `cᵢⱼ = min(lᵢ, lⱼ)`, so within a
/// group dominance is two-dimensional. Each group keeps its helpers sorted
/// by `pⱼ` in a min tree over `(τ̂ⱼ, id)`. A visit walks each group's
/// skyline lowest `τ̂ⱼ` first: the first member is the tree's minimum, and
/// each next one is the minimum among the helpers faster than the last.
/// The walk stops once `τ̂ⱼ` reaches the best estimate. Visited agents and
/// full helpers leave their tree; a loaded helper's `τ̂ⱼ` is updated in
/// place.
///
/// Each participant's broadcast — `p`, `τ̂` and its batch count — is
/// computed once per call, as Algorithm 1 has each agent broadcast once per
/// round. The visit order, the skyline leaves (each keeps its `pⱼ`), the
/// slow side of line 18 and every estimate read that one record. Speeds,
/// solo times and estimates are never negative or NaN, so their IEEE bit
/// patterns order like the values: both sorts compare integer keys, and
/// tree nodes pack `(τ̂ⱼ, id, leaf)` into one integer.
///
/// A pairing round therefore costs O(n log n) to sort and build, plus
/// O(G + S log n) per visit for G groups and S skyline members walked, plus
/// the estimates. On the paper's CPU grid S is at most the number of CPU
/// classes. Under a continuous `cpu_dist` it stays small too: 2,000
/// lognormal(0, 0.6) agents take about 2.5 estimates per participant with
/// equal shares and 8 with skewed ones, against ~590 when every distinct
/// CPU was its own class. The `pairing.estimates` metrics counter
/// (`comdml_obs`) adds up the estimates each call asks for.
///
/// A visit prepares the slow agent's side of line 18 once, at its first
/// estimate, and consecutive visits with the same speed and batch count
/// share it. Each estimate then costs two divisions per candidate split
/// (see [`TrainingTimeEstimator`]), on a full mesh and in the sparse
/// neighbour scan alike.
///
/// Continuous *link* distributions are not covered. Each distinct uplink
/// is its own group, because `cᵢⱼ = min(lᵢ, lⱼ)` would make dominance
/// three-dimensional, so a lognormal(3.2, 0.8) link world still makes
/// about 625 estimates per participant at 2,000 agents. At two divisions
/// per split that pairing takes about 0.05–0.07 s on six candidate cuts
/// (2-vCPU VM).
///
/// # Example
///
/// ```
/// use comdml_core::{PairingScheduler, TrainingTimeEstimator};
/// use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
/// use comdml_simnet::WorldConfig;
///
/// let spec = ModelSpec::resnet56();
/// let profile = SplitProfile::new(&spec, 100);
/// let cal = CostCalibration::default();
/// let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
/// let world = WorldConfig::heterogeneous(10, 1).build();
/// let ids: Vec<_> = world.agents().iter().map(|a| a.id).collect();
/// let pairings = PairingScheduler::new().pair(&world, &ids, &est);
/// assert_eq!(pairings.iter().map(|p| 1 + p.fast.is_some() as usize).sum::<usize>(), 10);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PairingScheduler {
    /// Byzantine speed misreporting applied to the broadcast, as
    /// `(config, salt)`; `None` = everyone is honest.
    misreport: Option<(ByzantineConfig, u64)>,
    /// Most guests one helper may host (1 = Algorithm 1).
    capacity: usize,
}

impl Default for PairingScheduler {
    fn default() -> Self {
        Self::new()
    }
}

/// An available helper in a [`Group`] tree: `τ̂ⱼ bits << 64 | id << 32 |
/// leaf`, so one integer comparison is the `(τ̂ⱼ, id)` order.
type Helper = u128;

/// A removed leaf; sorts after every real helper.
const GONE: Helper = u128::MAX;

/// The [`Helper`] for helper `id` at `leaf`, busy for `solo` seconds.
fn helper(solo: f64, id: u32, leaf: u32) -> Helper {
    (solo.to_bits() as u128) << 64 | (id as u128) << 32 | leaf as u128
}

/// `(τ̂ⱼ, id, leaf)` of a [`Helper`].
fn unpack(h: Helper) -> (f64, u32, u32) {
    (f64::from_bits((h >> 64) as u64), (h >> 32) as u32, h as u32)
}

/// One full-mesh candidate group: the available helpers that share a link
/// class and a partition side, in a min tree over `(τ̂ⱼ, id)` whose leaves
/// are sorted by helper speed `pⱼ`, fastest first.
struct Group {
    /// Bottom-up segment tree: leaves at `[n, 2n)`, node `x` holds the
    /// minimum of nodes `2x` and `2x + 1`, so node 1 is the group minimum.
    tree: Vec<Helper>,
    /// The broadcast `pⱼ` of the helper at each leaf.
    speed: Vec<f64>,
    /// Lowest leaf still present; every leaf left of it is [`GONE`], so a
    /// walk that reaches it has exhausted the skyline in O(1).
    first: usize,
}

impl Group {
    fn new(leaves: &[Helper], speed: Vec<f64>) -> Self {
        let n = leaves.len();
        let mut tree = vec![GONE; n];
        tree.extend_from_slice(leaves);
        for x in (1..n).rev() {
            tree[x] = tree[2 * x].min(tree[2 * x + 1]);
        }
        Self { tree, speed, first: 0 }
    }

    fn leaves(&self) -> usize {
        self.tree.len() / 2
    }

    /// The available helper with the smallest `(τ̂ⱼ, id)`: the first
    /// skyline member.
    fn min(&self) -> Option<Helper> {
        Some(self.tree[1]).filter(|&h| h != GONE)
    }

    /// The smallest `(τ̂ⱼ, id)` among leaves left of `leaf`, i.e. among the
    /// helpers at least as fast as it: the skyline member after `leaf`'s.
    fn min_before(&self, leaf: u32) -> Option<Helper> {
        let n = self.leaves();
        let (mut lo, mut hi) = (self.first + n, leaf as usize + n);
        let mut best = GONE;
        while lo < hi {
            if lo & 1 == 1 {
                best = best.min(self.tree[lo]);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                best = best.min(self.tree[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        Some(best).filter(|&h| h != GONE)
    }

    fn set(&mut self, leaf: u32, helper: Helper) {
        let mut x = leaf as usize + self.leaves();
        self.tree[x] = helper;
        while x > 1 {
            x /= 2;
            self.tree[x] = self.tree[2 * x].min(self.tree[2 * x + 1]);
        }
    }

    fn remove(&mut self, leaf: u32) {
        self.set(leaf, GONE);
        let n = self.leaves();
        while self.first < n && self.tree[n + self.first] == GONE {
            self.first += 1;
        }
    }
}

/// The full-mesh candidate index: one [`Group`] per `(link class,
/// partition side)`, plus where each visit's agent sits in it.
struct Skyline {
    groups: Vec<Group>,
    /// `(group, leaf)` of the agent at each visit index.
    slot: Vec<(u32, u32)>,
}

impl Skyline {
    fn new(world: &World, order: &[Broadcast]) -> Self {
        assert!(world.num_agents() <= u32::MAX as usize, "agent ids must fit in u32");
        let mut index: HashMap<(u64, bool), u32, BuildHasherDefault<AgentIdHasher>> =
            HashMap::default();
        // `(group, pⱼ, τ̂ⱼ, id, visit index)` of every participant, keyed
        // to sort by group, fastest first. Exactness needs only the speed
        // order; equal speeds by (τ̂ⱼ, id) keep dominated ties off the walk.
        let mut helpers: Vec<(u32, Reverse<u64>, u64, AgentId, usize)> =
            Vec::with_capacity(order.len());
        for (v, b) in order.iter().enumerate() {
            let key = (world.agent(b.id).profile.link_mbps.to_bits(), world.isolated(b.id));
            let next = index.len() as u32;
            let g = *index.entry(key).or_insert(next);
            helpers.push((g, Reverse(b.p.to_bits()), b.solo_s.to_bits(), b.id, v));
        }
        helpers.sort_unstable();
        let mut slot = vec![(0, 0); order.len()];
        let mut groups = Vec::new();
        for members in helpers.chunk_by(|a, b| a.0 == b.0) {
            let mut leaves = Vec::with_capacity(members.len());
            let mut speed = Vec::with_capacity(members.len());
            for (leaf, &(g, _, _, id, v)) in members.iter().enumerate() {
                slot[v] = (g, leaf as u32);
                leaves.push(helper(order[v].solo_s, id.0 as u32, leaf as u32));
                speed.push(order[v].p);
            }
            groups.push(Group::new(&leaves, speed));
        }
        Self { groups, slot }
    }

    /// Removes the agent at visit index `v`, returning whether it was
    /// still available.
    fn take(&mut self, v: usize) -> bool {
        let (g, leaf) = self.slot[v];
        let group = &mut self.groups[g as usize];
        let present = group.tree[group.leaves() + leaf as usize] != GONE;
        if present {
            group.remove(leaf);
        }
        present
    }
}

impl PairingScheduler {
    /// Creates a scheduler that trusts every broadcast and lets each helper
    /// host one guest (Algorithm 1).
    pub fn new() -> Self {
        Self { misreport: None, capacity: 1 }
    }

    /// Returns a scheduler whose broadcast is poisoned by Byzantine speed
    /// misreports: the deterministic liar set (`config.is_liar(id, salt)`)
    /// advertises `speed_factor ×` its true CPU speed. The salt is
    /// typically the scenario seed, so the liar set varies across seeds but
    /// is identical across threads and replays.
    pub fn with_misreport(config: ByzantineConfig, salt: u64) -> Self {
        Self { misreport: Some((config, salt)), ..Self::new() }
    }

    /// Lets each helper host up to `capacity` guests (see the type-level
    /// "Helper capacity" section); 1 is Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn capacity(self, capacity: usize) -> Self {
        assert!(capacity > 0, "helper capacity must be positive");
        Self { capacity, ..self }
    }

    /// Runs one round of pairing over `participants`, slowest first.
    ///
    /// Returns one [`Pairing`] per *slow* agent; agents that act as helpers
    /// appear only in the `fast` field of their guests' pairings. Every
    /// participant is covered: exactly once at capacity 1, and at higher
    /// capacity a helper may repeat across `fast` fields but is never a
    /// `slow`.
    pub fn pair(
        &self,
        world: &World,
        participants: &[AgentId],
        estimator: &TrainingTimeEstimator<'_>,
    ) -> Vec<Pairing> {
        let mut order = self.broadcasts(world, participants, estimator);
        // Descending order of task completion time (list A), ties by
        // ascending id.
        order.sort_unstable_by_key(|b| (Reverse(b.solo_s.to_bits()), b.id));
        self.pair_ordered(world, &order, estimator)
    }

    /// Like [`PairingScheduler::pair`] but with a configurable visit order —
    /// used by the ablation study to quantify the value of slowest-first.
    pub fn pair_with_order(
        &self,
        world: &World,
        participants: &[AgentId],
        estimator: &TrainingTimeEstimator<'_>,
        order_kind: PairingOrder,
    ) -> Vec<Pairing> {
        match order_kind {
            PairingOrder::SlowestFirst => self.pair(world, participants, estimator),
            PairingOrder::ByAgentId => {
                let mut order = self.broadcasts(world, participants, estimator);
                order.sort_by_key(|b| b.id);
                self.pair_ordered(world, &order, estimator)
            }
        }
    }

    /// Step 1 (line 2): every participant broadcasts `p` and `τ̂`, computed
    /// once per call from its *advertised* state, so a liar's `p` and `τ̂`
    /// reflect its lie. Honest agents broadcast their true state, so with
    /// no misreport configured every round is bit-for-bit the honest one.
    fn broadcasts(
        &self,
        world: &World,
        participants: &[AgentId],
        estimator: &TrainingTimeEstimator<'_>,
    ) -> Vec<Broadcast> {
        let liars = self.misreport.filter(|(b, _)| b.fraction > 0.0 && b.speed_factor != 1.0);
        participants
            .iter()
            .map(|&id| match liars {
                Some((b, salt)) if b.is_liar(id.0, salt) => {
                    let mut lie = world.agent(id).clone();
                    lie.profile.cpus *= b.speed_factor;
                    estimator.broadcast(&lie)
                }
                _ => estimator.broadcast(world.agent(id)),
            })
            .collect()
    }

    /// The shared pairing loop: visits agents in the given order, finding
    /// each unscheduled one its best available partner.
    fn pair_ordered(
        &self,
        world: &World,
        order: &[Broadcast],
        estimator: &TrainingTimeEstimator<'_>,
    ) -> Vec<Pairing> {
        // The available helpers. A full mesh keeps them in the skyline; the
        // sparse scan reads, by id, `paired[x]` (x cannot be a helper: not a
        // participant, already visited, or full) and `helper_of[x]` (x's
        // current τ̂ and its p).
        let mut skyline = world.adjacency().is_full_mesh().then(|| Skyline::new(world, order));
        let (mut paired, mut helper_of) = (Vec::new(), Vec::new());
        if skyline.is_none() {
            paired = vec![true; world.num_agents()];
            helper_of = vec![(f64::INFINITY, 0.0); world.num_agents()];
            for b in order {
                paired[b.id.0] = false;
                helper_of[b.id.0] = (b.solo_s, b.p);
            }
        }
        // Guest counts of helpers below capacity. Such a helper is still a
        // candidate but is never visited as a slow agent. Stays empty at
        // capacity 1, where the first guest fills a helper.
        let mut hosting: AgentMap<usize> = AgentMap::default();
        let mut estimates = 0u64;
        // The visiting agent's side of line 18, filled at its first estimate.
        let mut side = SlowSide::default();

        let mut out = Vec::with_capacity(order.len());
        for (v, slow) in order.iter().enumerate() {
            let (i, solo_i) = (slow.id, slow.solo_s);
            if hosting.contains_key(&i) {
                continue;
            }
            // A visit takes i off the candidates; an agent already
            // scheduled as a helper is not visited.
            let available = match &mut skyline {
                Some(sky) => sky.take(v),
                None => !std::mem::replace(&mut paired[i.0], true),
            };
            if !available {
                continue;
            }
            let mut prepared = false;
            let mut price = |p_j: f64, solo_j: f64, link: f64| {
                if !std::mem::replace(&mut prepared, true) {
                    estimator.prepare(slow, &mut side);
                }
                estimates += 1;
                estimator.price(&side, p_j, solo_j, link)
            };
            let mut best_time = solo_i;
            // The winner, with its `(group, leaf)` on a full mesh.
            let mut best: Option<(AgentId, SplitDecision, (u32, u32))> = None;

            if let Some(sky) = &skyline {
                // Ties in estimated time are broken by (τ̂ⱼ, id), matching
                // the ascending-scan order of the sparse path below.
                let mut best_key = (f64::INFINITY, f64::INFINITY, usize::MAX);
                for (g, group) in sky.groups.iter().enumerate() {
                    let mut link = None;
                    let mut next = group.min();
                    while let Some(h) = next {
                        let (solo_j, id, leaf) = unpack(h);
                        // Exact prune: the fast arm is at least τ̂ⱼ, and the
                        // rest of the walk is busier still.
                        if solo_j >= best_time {
                            break;
                        }
                        let j = AgentId(id as usize);
                        // Every member of a group has the same link to i.
                        let link = *link.get_or_insert_with(|| world.link_mbps(i, j));
                        if link <= 0.0 {
                            break;
                        }
                        let d = price(group.speed[leaf as usize], solo_j, link);
                        let key = (d.est_time_s, solo_j, j.0);
                        if d.offload > 0 && d.est_time_s < solo_i && key < best_key {
                            best_key = key;
                            best_time = best_time.min(d.est_time_s);
                            best = Some((j, d, (g as u32, leaf)));
                        }
                        next = group.min_before(leaf);
                    }
                }
            } else {
                // Neighbour scan in ascending τ̂ⱼ with the same prune; once
                // τ̂ⱼ crosses the best estimate the rest cannot win.
                let mut neighbors: Vec<(f64, AgentId)> = world
                    .adjacency()
                    .neighbors_iter(i.0)
                    .map(AgentId)
                    .filter(|&j| !paired[j.0] && helper_of[j.0].0.is_finite())
                    .map(|j| (helper_of[j.0].0, j))
                    .collect();
                neighbors.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
                });
                for (solo_j, j) in neighbors {
                    if solo_j >= best_time {
                        break;
                    }
                    let link = world.link_mbps(i, j);
                    if link <= 0.0 {
                        continue;
                    }
                    let d = price(helper_of[j.0].1, solo_j, link);
                    if d.offload > 0 && d.est_time_s < best_time {
                        best_time = d.est_time_s;
                        best = Some((j, d, (0, 0)));
                    }
                }
            }

            let Some((j, d, (g, leaf))) = best else {
                out.push(Pairing { slow: i, fast: None, offload: 0, est_time_s: solo_i });
                continue;
            };
            // Lines 13-14: pair with j* when offloading wins.
            out.push(Pairing {
                slow: i,
                fast: Some(j),
                offload: d.offload,
                est_time_s: d.est_time_s,
            });
            let full = self.capacity == 1 || {
                let guests = hosting.entry(j).or_insert(0);
                *guests += 1;
                *guests == self.capacity
            };
            // A helper below capacity stays a candidate, busy until its
            // accepted pair's estimated completion.
            let loaded = d.est_time_s;
            match (&mut skyline, full) {
                (Some(sky), true) => sky.groups[g as usize].remove(leaf),
                (Some(sky), false) => {
                    sky.groups[g as usize].set(leaf, helper(loaded, j.0 as u32, leaf))
                }
                (None, true) => paired[j.0] = true,
                (None, false) => helper_of[j.0].0 = loaded,
            }
        }
        comdml_obs::counter_add("pairing.estimates", estimates);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
    use comdml_simnet::{Adjacency, AgentProfile, AgentState, Topology, WorldConfig};

    fn fixtures() -> (ModelSpec, SplitProfile, CostCalibration) {
        let spec = ModelSpec::resnet56();
        let profile = SplitProfile::new(&spec, 100);
        (spec, profile, CostCalibration::default())
    }

    fn two_agent_world(cpu_a: f64, cpu_b: f64, link: f64) -> World {
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(cpu_a, link), 5000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(cpu_b, link), 5000, 100),
        ];
        let adj = Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]);
        World::from_parts(agents, adj, 0)
    }

    #[test]
    fn every_participant_appears_exactly_once() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(20, 3).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let mut seen = Vec::new();
        for p in &pairings {
            assert!(!seen.contains(&p.slow));
            seen.push(p.slow);
            if let Some(f) = p.fast {
                assert!(!seen.contains(&f));
                seen.push(f);
            }
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn heterogeneous_pair_offloads() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = two_agent_world(0.2, 4.0, 100.0);
        let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        assert_eq!(pairings.len(), 1);
        let p = pairings[0];
        assert_eq!(p.slow, AgentId(0));
        assert_eq!(p.fast, Some(AgentId(1)));
        assert!(p.offload > 0);
    }

    #[test]
    fn homogeneous_agents_train_alone() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = two_agent_world(1.0, 1.0, 100.0);
        let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        assert_eq!(pairings.len(), 2);
        assert!(pairings.iter().all(|p| p.fast.is_none()));
    }

    #[test]
    fn disconnected_agents_cannot_pair() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(0.2, 100.0), 5000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(4.0, 100.0), 5000, 100),
        ];
        // No topology edge between them.
        let adj = Adjacency::from_matrix(vec![vec![false, false], vec![false, false]]);
        let world = World::from_parts(agents, adj, 0);
        let pairings = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        assert!(pairings.iter().all(|p| p.fast.is_none()));
    }

    #[test]
    fn slowest_agent_gets_first_pick() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        // One very fast helper, two slow agents; the slowest must claim it.
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(0.5, 100.0), 5000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(0.2, 100.0), 5000, 100),
            AgentState::new(AgentId(2), AgentProfile::new(4.0, 100.0), 2000, 100),
        ];
        let adj = Adjacency::from_matrix(vec![
            vec![false, true, true],
            vec![true, false, true],
            vec![true, true, false],
        ]);
        let world = World::from_parts(agents, adj, 0);
        let pairings =
            PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1), AgentId(2)], &est);
        let offloader = pairings.iter().find(|p| p.fast.is_some()).expect("one pair forms");
        assert_eq!(offloader.slow, AgentId(1), "the 0.2-CPU agent pairs first");
        assert_eq!(offloader.fast, Some(AgentId(2)));
    }

    #[test]
    fn pairing_reduces_estimated_makespan() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(10, 7).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().pair(&world, &ids, &est);
        let max_est = pairings.iter().map(|p| p.est_time_s).fold(0.0, f64::max);
        let max_solo = ids.iter().map(|&id| est.solo_time_s(world.agent(id))).fold(0.0, f64::max);
        assert!(
            max_est < max_solo,
            "balancing should shrink the straggler: {max_est} vs {max_solo}"
        );
    }

    #[test]
    fn id_order_is_no_better_than_slowest_first() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(20, 9).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let sched = PairingScheduler::new();
        let slowest = sched.pair_with_order(&world, &ids, &est, PairingOrder::SlowestFirst);
        let by_id = sched.pair_with_order(&world, &ids, &est, PairingOrder::ByAgentId);
        let makespan = |ps: &[Pairing]| ps.iter().map(|p| p.est_time_s).fold(0.0, f64::max);
        assert!(makespan(&slowest) <= makespan(&by_id) + 1e-9);
    }

    #[test]
    fn full_mesh_and_matrix_mesh_agree() {
        // The full-mesh skyline must pick the same matching as the generic
        // neighbour scan on an explicit all-ones matrix, also under a
        // partition cut (a helper across the cut must not dominate a
        // reachable one on this side) and with loaded helpers.
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        for seed in 0..10 {
            let mut implicit = WorldConfig::heterogeneous(24, seed).build();
            assert!(implicit.adjacency().is_full_mesh());
            let k = implicit.num_agents();
            let matrix: Vec<Vec<bool>> = (0..k).map(|i| (0..k).map(|j| i != j).collect()).collect();
            let mut explicit =
                World::from_parts(implicit.agents().to_vec(), Adjacency::from_matrix(matrix), seed);
            let ids: Vec<AgentId> = implicit.agents().iter().map(|a| a.id).collect();
            for partitioned in [false, true] {
                if partitioned {
                    implicit.set_partition(3, (seed % 3) as usize);
                    explicit.set_partition(3, (seed % 3) as usize);
                }
                for cap in 1..=2 {
                    let sched = PairingScheduler::new().capacity(cap);
                    let a = sched.pair(&implicit, &ids, &est);
                    let b = sched.pair(&explicit, &ids, &est);
                    assert_eq!(a, b, "seed {seed}, partitioned {partitioned}, capacity {cap}");
                }
            }
        }
    }

    #[test]
    fn mixed_batch_sizes_keep_fast_path_exact() {
        // batches_per_s depends on batch_size, so agents sharing (CPU,
        // link) but not batch size have different helper speeds and must
        // not shadow each other in the full-mesh skyline.
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let mut agents = Vec::new();
        for i in 0..12 {
            let cpus = [0.2, 0.5, 4.0][i % 3];
            let batch = [50, 100][i % 2];
            agents.push(AgentState::new(AgentId(i), AgentProfile::new(cpus, 100.0), 5000, batch));
        }
        let k = agents.len();
        let implicit = World::from_parts(agents.clone(), Adjacency::full(k), 1);
        let matrix: Vec<Vec<bool>> = (0..k).map(|i| (0..k).map(|j| i != j).collect()).collect();
        let explicit = World::from_parts(agents, Adjacency::from_matrix(matrix), 1);
        let ids: Vec<AgentId> = (0..k).map(AgentId).collect();
        let sched = PairingScheduler::new();
        assert_eq!(sched.pair(&implicit, &ids, &est), sched.pair(&explicit, &ids, &est));
    }

    #[test]
    fn zero_fraction_misreport_is_bit_identical_to_honest() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(20, 3).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let honest = PairingScheduler::new().pair(&world, &ids, &est);
        let zero = PairingScheduler::with_misreport(
            ByzantineConfig { fraction: 0.0, speed_factor: 4.0 },
            7,
        )
        .pair(&world, &ids, &est);
        let unit = PairingScheduler::with_misreport(
            ByzantineConfig { fraction: 0.5, speed_factor: 1.0 },
            7,
        )
        .pair(&world, &ids, &est);
        assert_eq!(honest, zero);
        assert_eq!(honest, unit, "speed_factor 1.0 is not a lie");
    }

    #[test]
    fn liar_advertising_speed_attracts_an_offload() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        // Agent 1 is truly as slow as agent 0 (no pairing wins honestly),
        // but a lying agent 1 advertising 20× speed looks like a great
        // helper — the scheduler falls for it.
        let world = two_agent_world(0.2, 0.2, 100.0);
        let honest = PairingScheduler::new().pair(&world, &[AgentId(0), AgentId(1)], &est);
        assert!(honest.iter().all(|p| p.fast.is_none()), "equals never pair honestly");
        // Find a salt whose liar set is exactly {agent 1}.
        let b = ByzantineConfig { fraction: 0.5, speed_factor: 20.0 };
        let salt = (0..200u64)
            .find(|&s| !b.is_liar(0, s) && b.is_liar(1, s))
            .expect("some salt selects only agent 1");
        let fooled =
            PairingScheduler::with_misreport(b, salt).pair(&world, &[AgentId(0), AgentId(1)], &est);
        let p = fooled.iter().find(|p| p.fast.is_some()).expect("the lie attracts an offload");
        assert_eq!(p.slow, AgentId(0));
        assert_eq!(p.fast, Some(AgentId(1)));
        assert!(p.offload > 0);
        assert!(
            p.est_time_s < honest[0].est_time_s,
            "the advertised estimate looks better than honest reality"
        );
    }

    #[test]
    fn misreported_pairings_are_deterministic_and_well_formed() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(30, 11).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let sched = PairingScheduler::with_misreport(
            ByzantineConfig { fraction: 0.3, speed_factor: 8.0 },
            11,
        );
        let a = sched.pair(&world, &ids, &est);
        let b = sched.pair(&world, &ids, &est);
        assert_eq!(a, b);
        let mut seen = Vec::new();
        for p in &a {
            seen.push(p.slow);
            seen.extend(p.fast);
        }
        seen.sort();
        let mut expect = ids.clone();
        expect.sort();
        assert_eq!(seen, expect, "every participant appears exactly once");
        assert_ne!(
            a,
            PairingScheduler::new().pair(&world, &ids, &est),
            "a 30%-liar fleet must change some pairing decision"
        );
    }

    #[test]
    fn partial_participation_only_pairs_participants() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(30, 5).topology(Topology::Full).build();
        let participants: Vec<AgentId> = (0..30).step_by(3).map(AgentId).collect();
        let pairings = PairingScheduler::new().pair(&world, &participants, &est);
        let mut seen: Vec<AgentId> = Vec::new();
        for p in &pairings {
            seen.push(p.slow);
            seen.extend(p.fast);
        }
        seen.sort();
        assert_eq!(seen, participants, "non-participants must never be drafted");
    }

    #[test]
    fn capacity_one_is_a_matching() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(10, 3).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let sched = PairingScheduler::new();
        let pairings = sched.capacity(1).pair(&world, &ids, &est);
        assert_eq!(pairings, sched.pair(&world, &ids, &est), "capacity 1 is the default");
        let mut helpers: Vec<AgentId> = pairings.iter().filter_map(|p| p.fast).collect();
        let before = helpers.len();
        helpers.sort();
        helpers.dedup();
        assert_eq!(before, helpers.len(), "no helper repeats at capacity 1");
    }

    #[test]
    fn one_strong_helper_hosts_two_stragglers() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        // Two 0.2-CPU stragglers, one idle 4-CPU helper with a tiny own task.
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(0.2, 100.0), 5000, 100),
            AgentState::new(AgentId(1), AgentProfile::new(0.2, 100.0), 5000, 100),
            AgentState::new(AgentId(2), AgentProfile::new(4.0, 100.0), 500, 100),
        ];
        let adj = Adjacency::from_matrix(vec![
            vec![false, true, true],
            vec![true, false, true],
            vec![true, true, false],
        ]);
        let world = World::from_parts(agents, adj, 0);
        let ids = [AgentId(0), AgentId(1), AgentId(2)];
        let single = PairingScheduler::new().pair(&world, &ids, &est);
        let multi = PairingScheduler::new().capacity(2).pair(&world, &ids, &est);
        let offloads = |ps: &[Pairing]| ps.iter().filter(|p| p.fast.is_some()).count();
        assert_eq!(offloads(&single), 1, "capacity 1: only one straggler helped");
        assert_eq!(offloads(&multi), 2, "capacity 2: both stragglers helped");
        // The second straggler's makespan improves.
        let makespan = |ps: &[Pairing]| ps.iter().map(|p| p.est_time_s).fold(0.0, f64::max);
        assert!(makespan(&multi) < makespan(&single));
    }

    #[test]
    fn later_guests_see_loaded_helpers() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(15, 9).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let pairings = PairingScheduler::new().capacity(3).pair(&world, &ids, &est);
        // Entries that share a helper must have non-decreasing estimates in
        // assignment order (each guest queues behind the previous).
        for (a_idx, a) in pairings.iter().enumerate() {
            for b in pairings.iter().skip(a_idx + 1) {
                if a.fast.is_some() && a.fast == b.fast {
                    assert!(b.est_time_s >= a.est_time_s - 1e-9);
                }
            }
        }
    }

    /// No agent may be both a helper and a slow agent, and every
    /// participant must be covered by the result.
    fn assert_helpers_never_schedule_themselves(ids: &[AgentId], ps: &[Pairing]) {
        let slows: Vec<AgentId> = ps.iter().map(|p| p.slow).collect();
        for p in ps {
            if let Some(f) = p.fast {
                assert!(!slows.contains(&f), "helper {f:?} also scheduled as a slow agent: {ps:?}");
            }
        }
        let mut seen: Vec<AgentId> =
            ps.iter().flat_map(|p| [Some(p.slow), p.fast]).flatten().collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen, ids, "every participant covered: {ps:?}");
    }

    #[test]
    fn helpers_never_schedule_themselves() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(6, 0).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let ps = PairingScheduler::new().capacity(2).pair(&world, &ids, &est);
        assert_helpers_never_schedule_themselves(&ids, &ps);

        // Two 0.2-CPU stragglers and two 4-CPU helpers on a matrix mesh:
        // both helpers take a guest, so neither trains as a slow agent.
        let mut agents = Vec::new();
        for i in 0..4 {
            let (cpus, samples) = if i < 2 { (0.2, 5_000) } else { (4.0, 2_000) };
            agents.push(AgentState::new(AgentId(i), AgentProfile::new(cpus, 100.0), samples, 100));
        }
        let matrix: Vec<Vec<bool>> = (0..4).map(|i| (0..4).map(|j| i != j).collect()).collect();
        let world = World::from_parts(agents, Adjacency::from_matrix(matrix), 0);
        let ids: Vec<AgentId> = (0..4).map(AgentId).collect();
        for cap in 1..=3 {
            let ps = PairingScheduler::new().capacity(cap).pair(&world, &ids, &est);
            assert_eq!(ps.len(), 2, "capacity {cap}: two guests, no helper entries: {ps:?}");
            assert_helpers_never_schedule_themselves(&ids, &ps);
        }
    }

    #[test]
    #[should_panic(expected = "helper capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = PairingScheduler::new().capacity(0);
    }

    #[test]
    fn default_scheduler_is_algorithm_one() {
        let (spec, profile, cal) = fixtures();
        let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
        let world = WorldConfig::heterogeneous(12, 4).build();
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let default = PairingScheduler::default().pair(&world, &ids, &est);
        assert_eq!(default, PairingScheduler::new().pair(&world, &ids, &est));
    }
}
