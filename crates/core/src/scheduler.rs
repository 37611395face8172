use std::collections::HashMap;

use comdml_simnet::{AgentId, AgentState, ByzantineConfig, World};

use crate::{EstimateMemo, FnvBuildHasher, SplitDecision, TrainingTimeEstimator};

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
/// Scheduled-membership checks use O(1) indexed flags, and candidate search
/// is driven by sorted candidate lists with two exact prunes:
///
/// * a candidate whose own task `τ̂ⱼ` already exceeds the best estimate so
///   far can never win (the fast arm of line 18 is bounded below by `τ̂ⱼ`);
/// * on a full mesh, within a profile class the available candidate with
///   the smallest `τ̂ⱼ` dominates every other member, so at most one
///   estimator call per class is needed. A class is keyed by everything
///   the estimate reads of a helper — CPU, link class and batch size — plus
///   its side of an active [`World::set_partition`] cut, so every member
///   of a class is reachable from the same slow agents.
///
/// Together these take one pairing round from the seed's O(n³)-flavoured
/// scan to roughly O(n·(C + log n)) for C profile classes — the 10,000-agent
/// scalability benchmark (`cargo run --release --bin scalability_10k`) runs
/// entire 100-round simulations on this path.
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

/// The pairing broadcast as the scheduler sees it: true agent states with
/// each liar's advertised state substituted. With no misreport configured
/// the spoof table is empty and every lookup returns the world's state
/// directly, so honest rounds are bit-for-bit unchanged.
struct Broadcast<'w> {
    world: &'w World,
    spoofed: HashMap<usize, AgentState, FnvBuildHasher>,
}

impl<'w> Broadcast<'w> {
    fn new(
        world: &'w World,
        misreport: Option<(ByzantineConfig, u64)>,
        participants: &[AgentId],
    ) -> Self {
        let mut spoofed: HashMap<usize, AgentState, FnvBuildHasher> = HashMap::default();
        if let Some((b, salt)) = misreport {
            if b.fraction > 0.0 && b.speed_factor != 1.0 {
                for &id in participants {
                    if b.is_liar(id.0, salt) {
                        let mut a = world.agent(id).clone();
                        a.profile.cpus *= b.speed_factor;
                        spoofed.insert(id.0, a);
                    }
                }
            }
        }
        Self { world, spoofed }
    }

    /// The state agent `id` broadcast — advertised for liars, true otherwise.
    fn agent(&self, id: AgentId) -> &AgentState {
        if self.spoofed.is_empty() {
            return self.world.agent(id);
        }
        self.spoofed.get(&id.0).unwrap_or_else(|| self.world.agent(id))
    }
}

/// Sorted per-class candidate list with a lazily advancing cursor.
struct ClassList {
    /// `(solo_time, id)` ascending by solo time, ties by id.
    members: Vec<(f64, AgentId)>,
    cursor: usize,
}

impl ClassList {
    /// First unpaired member other than `skip`, without consuming unpaired
    /// entries (the cursor only advances past permanently paired agents).
    fn peek(&mut self, paired: &[bool], skip: AgentId) -> Option<(f64, AgentId)> {
        while self.cursor < self.members.len() && paired[self.members[self.cursor].1 .0] {
            self.cursor += 1;
        }
        let mut i = self.cursor;
        while i < self.members.len() {
            let (solo, id) = self.members[i];
            if !paired[id.0] && id != skip {
                return Some((solo, id));
            }
            i += 1;
        }
        None
    }

    /// Moves unpaired member `id` from `(old, id)` to its `(new, id)`
    /// position. `new >= old` (a loaded helper only gets busier), so the
    /// entry moves past the cursor and never behind it.
    fn requeue(&mut self, id: AgentId, old: f64, new: f64) {
        let from = self.members.partition_point(|&e| e < (old, id));
        debug_assert_eq!(self.members[from].1, id, "requeued agent must be a member");
        self.members.remove(from);
        let to = self.members.partition_point(|&e| e < (new, id));
        self.members.insert(to, (new, id));
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
        let mut memo = EstimateMemo::new();
        let bcast = Broadcast::new(world, self.misreport, participants);
        // Step 1 (line 2): agents broadcast p and τ̂ — compute solo times
        // from the *advertised* states (a liar's τ̂ reflects its lie).
        // Profiles come from small grids and dataset shares from a handful
        // of sizes, so the solo times take few distinct values: grouping by
        // exact value and sorting the distinct keys replaces the
        // O(n log n) comparison sort with O(n + d log d) for d values.
        let mut groups: HashMap<u64, Vec<AgentId>, FnvBuildHasher> = HashMap::default();
        for &id in participants {
            let solo = memo.solo_time_s(estimator, bcast.agent(id));
            groups.entry(solo.to_bits()).or_default().push(id);
        }
        let mut keys: Vec<u64> = groups.keys().copied().collect();
        // Descending order of task completion time (list A); solo times are
        // non-negative, never NaN, and distinct bit patterns are distinct
        // values, so this reproduces the old comparison sort exactly.
        keys.sort_unstable_by(|&a, &b| {
            f64::from_bits(b).partial_cmp(&f64::from_bits(a)).expect("solo times are never NaN")
        });
        let mut order: Vec<(AgentId, f64)> = Vec::with_capacity(participants.len());
        for key in keys {
            let mut ids = groups.remove(&key).expect("key came from the map");
            ids.sort_unstable(); // equal solo times tie-break on ascending id
            let solo = f64::from_bits(key);
            order.extend(ids.into_iter().map(|id| (id, solo)));
        }
        self.pair_ordered(&bcast, &order, estimator, &mut memo)
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
                let mut memo = EstimateMemo::new();
                let bcast = Broadcast::new(world, self.misreport, participants);
                let mut sorted = participants.to_vec();
                sorted.sort();
                let order: Vec<(AgentId, f64)> = sorted
                    .into_iter()
                    .map(|id| (id, memo.solo_time_s(estimator, bcast.agent(id))))
                    .collect();
                self.pair_ordered(&bcast, &order, estimator, &mut memo)
            }
        }
    }

    /// The shared pairing loop: visits agents in the given order, finding
    /// each unscheduled one its best available partner.
    fn pair_ordered(
        &self,
        bcast: &Broadcast<'_>,
        order: &[(AgentId, f64)],
        estimator: &TrainingTimeEstimator<'_>,
        memo: &mut EstimateMemo,
    ) -> Vec<Pairing> {
        let world = bcast.world;
        let k = world.num_agents();
        // `paired[x]`: x cannot be a helper — not a participant, already
        // scheduled as a slow agent, or hosting a full load of guests.
        let mut paired = vec![true; k];
        for &(id, _) in order {
            paired[id.0] = false; // participants start unpaired
        }
        // Guest counts of helpers below capacity. Such a helper is still a
        // candidate but is never visited as a slow agent. Stays empty at
        // capacity 1, where the first guest fills a helper.
        let mut hosting: HashMap<usize, usize, FnvBuildHasher> = HashMap::default();
        let full_mesh = world.adjacency().is_full_mesh();

        // Full-mesh fast path: group candidates by profile class; within a
        // class only the smallest-τ̂ⱼ unpaired member can be optimal, so
        // each class is one peek + at most one estimate. batch_size feeds
        // batches_per_s, so with CPU and link class it fixes the helper
        // speed p_j; the partition side fixes which slow agents reach it.
        let class_key = |id: AgentId| {
            let agent = bcast.agent(id);
            let prof = agent.profile;
            (prof.cpus.to_bits(), prof.link_mbps.to_bits(), agent.batch_size, world.isolated(id))
        };
        let mut index: HashMap<(u64, u64, usize, bool), usize> = HashMap::new();
        let mut classes: Vec<ClassList> = Vec::new();
        if full_mesh {
            for &(id, solo) in order {
                let slot = *index.entry(class_key(id)).or_insert_with(|| {
                    classes.push(ClassList { members: Vec::new(), cursor: 0 });
                    classes.len() - 1
                });
                classes[slot].members.push((solo, id));
            }
            for c in &mut classes {
                c.members.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then(a.1.cmp(&b.1))
                });
            }
        }
        // Current τ̂ by id: the sparse path's neighbour scans read it, and a
        // loaded helper's entry tracks its accepted pair's estimate.
        let mut solo_of: Vec<f64> = vec![f64::INFINITY; k];
        for &(id, solo) in order {
            solo_of[id.0] = solo;
        }

        let mut out = Vec::with_capacity(order.len());
        for &(i, solo_i) in order {
            if paired[i.0] || hosting.contains_key(&i.0) {
                continue;
            }
            let slow_state = bcast.agent(i);
            let mut best: Option<(AgentId, SplitDecision)> = None;
            let mut best_time = solo_i;

            if full_mesh {
                // Ties in estimated time are broken by (τ̂ⱼ, id), matching
                // the ascending-scan order of the sparse path below.
                let mut best_key = (f64::INFINITY, f64::INFINITY, usize::MAX);
                for class in &mut classes {
                    let Some((solo_j, j)) = class.peek(&paired, i) else { continue };
                    // Exact prune: the fast arm strictly exceeds τ̂ⱼ, so a
                    // candidate this busy can never beat the current best.
                    if solo_j >= best_time {
                        continue;
                    }
                    let link = world.link_mbps(i, j);
                    if link <= 0.0 {
                        continue;
                    }
                    let d = memo.estimate(estimator, slow_state, bcast.agent(j), solo_j, link);
                    if d.offload == 0 || d.est_time_s >= solo_i {
                        continue;
                    }
                    let key = (d.est_time_s, solo_j, j.0);
                    if key < best_key {
                        best_key = key;
                        best_time = best_time.min(d.est_time_s);
                        best = Some((j, d));
                    }
                }
            } else {
                // Neighbour scan in ascending τ̂ⱼ with the same prune; once
                // τ̂ⱼ crosses the best estimate the rest cannot win.
                let mut neighbors: Vec<(f64, AgentId)> = world
                    .adjacency()
                    .neighbors_iter(i.0)
                    .map(AgentId)
                    .filter(|&j| !paired[j.0] && solo_of[j.0].is_finite())
                    .map(|j| (solo_of[j.0], j))
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
                    let d = memo.estimate(estimator, slow_state, bcast.agent(j), solo_j, link);
                    if d.offload == 0 {
                        continue;
                    }
                    if d.est_time_s < best_time {
                        best_time = d.est_time_s;
                        best = Some((j, d));
                    }
                }
            }

            paired[i.0] = true;
            let Some((j, d)) = best else {
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
            if self.capacity == 1 {
                paired[j.0] = true;
                continue;
            }
            let guests = hosting.entry(j.0).or_insert(0);
            *guests += 1;
            if *guests == self.capacity {
                paired[j.0] = true;
                continue;
            }
            // A helper below capacity stays a candidate, busy until its
            // accepted pair's estimated completion.
            let loaded = d.est_time_s;
            if full_mesh {
                classes[index[&class_key(j)]].requeue(j, solo_of[j.0], loaded);
            }
            solo_of[j.0] = loaded;
        }
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
        // The class-pruned fast path must pick the same matching as the
        // generic neighbour scan on an explicit all-ones matrix, also under
        // a partition cut (a class's best member across the cut must not
        // hide a reachable member on this side) and with loaded helpers.
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
        // batches_per_s depends on batch_size, so it is part of the class
        // identity; agents sharing (CPU, link) but not batch size must not
        // shadow each other in the full-mesh fast path.
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
