use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::profile::assign_profiles;
use crate::{
    Adjacency, AgentId, AgentProfile, AgentState, DistSampler, DistributionConfig, JoinTopology,
    Topology,
};

/// Builder for a simulated world of heterogeneous agents.
///
/// # Example
///
/// ```
/// use comdml_simnet::{Topology, WorldConfig};
///
/// let world = WorldConfig::heterogeneous(20, 7)
///     .total_samples(50_000)
///     .batch_size(100)
///     .topology(Topology::Full)
///     .build();
/// assert_eq!(world.num_agents(), 20);
/// let total: usize = world.agents().iter().map(|a| a.num_samples).sum();
/// assert_eq!(total, 50_000);
/// ```
#[derive(Debug, Clone)]
pub struct WorldConfig {
    num_agents: usize,
    seed: u64,
    total_samples: usize,
    batch_size: usize,
    topology: Topology,
    sample_skew: f64,
    cpu_dist: Option<DistributionConfig>,
    link_dist: Option<DistributionConfig>,
}

impl WorldConfig {
    /// Starts a config for `k` agents with the paper's heterogeneous profile
    /// mix, deterministic under `seed`.
    pub fn heterogeneous(k: usize, seed: u64) -> Self {
        Self {
            num_agents: k,
            seed,
            total_samples: 50_000,
            batch_size: 100,
            topology: Topology::Full,
            sample_skew: 0.0,
            cpu_dist: None,
            link_dist: None,
        }
    }

    /// Replaces the paper's 5-point CPU grid with a declarative
    /// distribution. Samples come from a dedicated rng stream, so a world
    /// built without a distribution is bit-identical to one built before
    /// this knob existed.
    pub fn cpu_dist(mut self, dist: DistributionConfig) -> Self {
        self.cpu_dist = Some(dist);
        self
    }

    /// Replaces the link-bandwidth grid with a declarative distribution
    /// (Mbps), drawn from the same dedicated stream as [`Self::cpu_dist`].
    pub fn link_dist(mut self, dist: DistributionConfig) -> Self {
        self.link_dist = Some(dist);
        self
    }

    /// Sets the total number of training samples shared by all agents
    /// (50 000 for CIFAR-10/100, 90 000 for CINIC-10).
    pub fn total_samples(mut self, n: usize) -> Self {
        self.total_samples = n;
        self
    }

    /// Sets the local mini-batch size (the paper uses 100).
    pub fn batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }

    /// Sets the network topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Skews dataset sizes across agents: 0 gives an even split, 1 gives a
    /// strongly uneven split (sizes proportional to `1 + skew·u` for uniform
    /// `u`). The paper lists "task size" as one of the heterogeneity axes.
    pub fn sample_skew(mut self, skew: f64) -> Self {
        self.sample_skew = skew.clamp(0.0, 4.0);
        self
    }

    /// Materializes the world.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero agents or a zero batch size.
    pub fn build(self) -> World {
        assert!(self.num_agents > 0, "a world needs at least one agent");
        assert!(self.batch_size > 0, "batch size must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut profiles = assign_profiles(self.num_agents, &mut rng);
        // Distribution overrides draw from a dedicated stream *after* the
        // grid assignment consumed the main stream, so dataset weights and
        // topology below are unchanged whether or not a knob is set.
        if self.cpu_dist.is_some() || self.link_dist.is_some() {
            let mut dist_rng = StdRng::seed_from_u64(self.seed ^ 0x94d0_49bb);
            let mut cpu_s = self.cpu_dist.map(DistSampler::new);
            let mut link_s = self.link_dist.map(DistSampler::new);
            for p in &mut profiles {
                if let Some(s) = cpu_s.as_mut() {
                    p.cpus = s.sample(&mut dist_rng);
                }
                if let Some(s) = link_s.as_mut() {
                    p.link_mbps = s.sample(&mut dist_rng);
                }
            }
        }

        // Dataset split: even shares, optionally skewed.
        let k = self.num_agents;
        let weights: Vec<f64> = (0..k).map(|_| 1.0 + self.sample_skew * rng.gen::<f64>()).collect();
        let wsum: f64 = weights.iter().sum();
        let mut sizes: Vec<usize> =
            weights.iter().map(|w| (self.total_samples as f64 * w / wsum) as usize).collect();
        // Distribute rounding remainder deterministically.
        let assigned: usize = sizes.iter().sum();
        for i in 0..self.total_samples.saturating_sub(assigned) {
            sizes[i % k] += 1;
        }

        let mut agents = with_headroom(k);
        agents.extend(
            profiles
                .into_iter()
                .zip(sizes)
                .enumerate()
                .map(|(i, (p, n))| AgentState::new(AgentId(i), p, n, self.batch_size)),
        );
        let adjacency = self.topology.build(k, &mut rng);
        World {
            agents,
            adjacency,
            link_scale: 1.0,
            partition: None,
            churn_rng: StdRng::seed_from_u64(self.seed ^ 0x9e37_79b9),
            participation_rng: StdRng::seed_from_u64(self.seed ^ 0x85eb_ca6b),
        }
    }
}

/// A simulated world: agents with resources and data, plus the link graph.
///
/// Pairwise link speed is the minimum of the two endpoints' link profiles
/// (a path is no faster than its slowest hop), and 0 when the topology has
/// no edge.
///
/// Each agent is stored once, as an [`AgentState`] in [`World::agents`]:
/// link lookups read the profile there, so a mutation through
/// [`World::agents_mut`] needs no re-sync. [`WorldConfig::build`] leaves
/// room for an eighth more agents, and a full world grows by an eighth, so
/// the first joiners of an elastic fleet neither move nor copy it.
#[derive(Debug, Clone)]
pub struct World {
    agents: Vec<AgentState>,
    adjacency: Adjacency,
    /// Multiplicative bandwidth scale (diurnal cycles); 1.0 = no scaling,
    /// in which case link lookups return the raw profiles bit-for-bit.
    link_scale: f64,
    /// Active regional outage as `(groups, isolated_region)`: links between
    /// the isolated region (`id % groups == isolated_region`) and the rest
    /// of the fleet read as 0 Mbps until cleared.
    partition: Option<(usize, usize)>,
    /// Drives profile churn only. Participation sampling has its own stream
    /// ([`World::sample_participants_among`]) so enabling one feature never
    /// perturbs the other's outcomes under a fixed seed.
    churn_rng: StdRng,
    participation_rng: StdRng,
}

impl World {
    /// Builds a world from explicit parts (used by tests and baselines).
    ///
    /// # Panics
    ///
    /// Panics if `agents.len()` differs from the adjacency size.
    pub fn from_parts(agents: Vec<AgentState>, adjacency: Adjacency, seed: u64) -> Self {
        assert_eq!(agents.len(), adjacency.len(), "agents and adjacency must agree");
        Self {
            agents,
            adjacency,
            link_scale: 1.0,
            partition: None,
            churn_rng: StdRng::seed_from_u64(seed),
            participation_rng: StdRng::seed_from_u64(seed ^ 0x85eb_ca6b),
        }
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// All agent states.
    pub fn agents(&self) -> &[AgentState] {
        &self.agents
    }

    /// Mutable agent states (failure injection, dataset assignment). Link
    /// lookups read the profiles in place, so edits take effect at once.
    pub fn agents_mut(&mut self) -> &mut [AgentState] {
        &mut self.agents
    }

    /// One agent's state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn agent(&self, id: AgentId) -> &AgentState {
        &self.agents[id.0]
    }

    /// The link graph.
    pub fn adjacency(&self) -> &Adjacency {
        &self.adjacency
    }

    /// Appends a new agent (elastic-fleet arrivals) wired in under the given
    /// [`JoinTopology`] (full-mesh joins connect it to every existing agent
    /// via [`Adjacency::grow`]; Erdős–Rényi joins draw each edge from
    /// `rng`), and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn push_agent_joined<R: Rng>(
        &mut self,
        profile: AgentProfile,
        num_samples: usize,
        batch_size: usize,
        join: JoinTopology,
        rng: &mut R,
    ) -> AgentId {
        let id = AgentId(self.agents.len());
        push_column(&mut self.agents, AgentState::new(id, profile, num_samples, batch_size));
        match join {
            JoinTopology::FullMesh => self.adjacency.grow(),
            JoinTopology::ErdosRenyi { p } => self.adjacency.grow_er(p, rng),
        }
        id
    }

    /// Reuses a departed agent's world slot for a newcomer: the agent state
    /// is replaced wholesale and the slot's links are rewired under the
    /// given [`JoinTopology`]. The caller (the fleet driver's free-list) is
    /// responsible for only recycling slots whose occupant has actually
    /// departed.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or `batch_size` is zero.
    pub fn recycle_agent<R: Rng>(
        &mut self,
        id: AgentId,
        profile: AgentProfile,
        num_samples: usize,
        batch_size: usize,
        join: JoinTopology,
        rng: &mut R,
    ) {
        self.agents[id.0] = AgentState::new(id, profile, num_samples, batch_size);
        match join {
            JoinTopology::FullMesh => self.adjacency.rewire_full(id.0),
            JoinTopology::ErdosRenyi { p } => self.adjacency.rewire_er(id.0, p, rng),
        }
    }

    /// Effective link speed between two agents in Mbps: the minimum of the
    /// endpoints' profiles, or 0 if the topology has no edge, either agent
    /// is disconnected, or an active [`World::set_partition`] cut separates
    /// them. Scaled by [`World::set_link_scale`] (diurnal cycles).
    pub fn link_mbps(&self, i: AgentId, j: AgentId) -> f64 {
        if i == j || !self.adjacency.connected(i.0, j.0) {
            return 0.0;
        }
        if self.isolated(i) != self.isolated(j) {
            return 0.0;
        }
        let base = self.agents[i.0].profile.link_mbps.min(self.agents[j.0].profile.link_mbps);
        if self.link_scale == 1.0 {
            base
        } else {
            base * self.link_scale
        }
    }

    /// One agent's own uplink in Mbps under the current diurnal scale —
    /// what collectives pay per member. Partitions do not zero this: a cut
    /// separates regions, it does not sever an agent from its own region.
    pub fn uplink_mbps(&self, i: AgentId) -> f64 {
        let base = self.agents[i.0].profile.link_mbps;
        if self.link_scale == 1.0 {
            base
        } else {
            base * self.link_scale
        }
    }

    /// Sets the multiplicative bandwidth scale applied by
    /// [`World::link_mbps`] and [`World::uplink_mbps`]. A scale of exactly
    /// `1.0` short-circuits to the raw profiles, bit-for-bit.
    pub fn set_link_scale(&mut self, scale: f64) {
        self.link_scale = scale;
    }

    /// Cuts the fleet into `groups` id-striped regions and isolates one of
    /// them: links crossing the `isolated` region's boundary read 0 Mbps.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is zero or `isolated >= groups`.
    pub fn set_partition(&mut self, groups: usize, isolated: usize) {
        assert!(groups > 0 && isolated < groups, "invalid partition {isolated}/{groups}");
        self.partition = Some((groups, isolated));
    }

    /// Heals any active partition.
    pub fn clear_partition(&mut self) {
        self.partition = None;
    }

    /// Whether an active [`World::set_partition`] cut puts agent `id` in
    /// the isolated region. Two agents on the same side of the cut keep
    /// their links; agents on opposite sides cannot reach each other.
    pub fn isolated(&self, id: AgentId) -> bool {
        self.partition.is_some_and(|(groups, isolated)| id.0 % groups == isolated)
    }

    /// Re-rolls the profiles of a `fraction` of agents, the paper's dynamic
    /// environment ("we randomly changed the profile of 20% of the agents
    /// after 100 rounds").
    pub fn churn_profiles(&mut self, fraction: f64) {
        let k = self.agents.len();
        let n = ((k as f64 * fraction).round() as usize).min(k);
        let mut ids: Vec<usize> = (0..k).collect();
        ids.shuffle(&mut self.churn_rng);
        for &i in ids.iter().take(n) {
            self.agents[i].profile = AgentProfile::sample(&mut self.churn_rng);
        }
    }

    /// Samples a participation subset of the given rate (Table III uses a
    /// 20% sampling rate) from `candidates` — in an elastic fleet, the
    /// currently *active* members. Returns at least one agent (unless
    /// `candidates` is empty) in ascending id order.
    ///
    /// Draws from a dedicated RNG stream: toggling sampling on or off does
    /// not change which profiles churn re-rolls, and vice versa.
    pub fn sample_participants_among(&mut self, candidates: &[AgentId], rate: f64) -> Vec<AgentId> {
        let mut positions = Vec::new();
        self.sample_positions(candidates.len(), rate, &mut positions);
        let mut ids: Vec<AgentId> = positions.iter().map(|&p| candidates[p as usize]).collect();
        ids.sort();
        ids
    }

    /// The sampler behind [`World::sample_participants_among`], on
    /// positions: leaves in `positions` (a reused buffer) the ascending
    /// positions `0..k` of the sampled candidates. Shuffling positions
    /// instead of ids makes the same RNG calls and the same permutation of
    /// the first `n` slots, so mapping them to candidates reproduces the
    /// id-level shuffle exactly.
    pub(crate) fn sample_positions(&mut self, k: usize, rate: f64, positions: &mut Vec<u32>) {
        positions.clear();
        if k == 0 {
            return;
        }
        let n = ((k as f64 * rate).round() as usize).clamp(1, k);
        positions.extend(0..u32::try_from(k).expect("at most u32::MAX sampling candidates"));
        // Fisher–Yates drawn exactly as `SliceRandom::shuffle` draws it (j
        // uniform in 0..=i, from the top down). A position at or past `n`
        // is final once drawn and never read again, so only its partner
        // takes the write — one random store per step instead of a swap.
        for i in (1..k).rev() {
            let j = self.participation_rng.gen_range(0..=i);
            if i >= n {
                positions[j] = positions[i];
            } else {
                positions.swap(i, j);
            }
        }
        positions.truncate(n);
        positions.sort_unstable();
    }
}

/// One growth step of a per-agent column holding `n` agents: an eighth,
/// plus a few slots so a small column does not grow one push at a time.
fn growth_step(n: usize) -> usize {
    n / 8 + 16
}

/// An empty per-agent column with room for `n` agents plus one growth step.
/// The spare capacity is address space: a page of it is touched only when
/// a joiner lands there, so a static world keeps no more resident memory
/// and an elastic one is not copied by its first arrivals. Columns do not
/// reserve [`FleetConfig::max_agents`](crate::FleetConfig::max_agents)
/// instead: the allocator places and touches that untouched tail
/// differently in every episode, so resident memory creeps from one
/// episode to the next.
pub(crate) fn with_headroom<T>(n: usize) -> Vec<T> {
    Vec::with_capacity(n + growth_step(n))
}

/// Pushes a joiner onto a per-agent column, growing a full column by one
/// growth step rather than doubling it: pushes stay amortized O(1) without
/// copying a million-agent column into twice its memory.
pub(crate) fn push_column<T>(column: &mut Vec<T>, value: T) {
    if column.len() == column.capacity() {
        column.reserve_exact(growth_step(column.len()));
    }
    column.push(value);
}

/// Summary statistics of a world used in reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorldSummary {
    /// Number of agents.
    pub num_agents: usize,
    /// Mean CPU units.
    pub mean_cpus: f64,
    /// Mean link speed (Mbps).
    pub mean_link_mbps: f64,
    /// Edge density of the topology.
    pub density: f64,
}

impl World {
    /// Computes summary statistics.
    pub fn summary(&self) -> WorldSummary {
        let k = self.agents.len() as f64;
        WorldSummary {
            num_agents: self.agents.len(),
            mean_cpus: self.agents.iter().map(|a| a.profile.cpus).sum::<f64>() / k,
            mean_link_mbps: self.agents.iter().map(|a| a.profile.link_mbps).sum::<f64>() / k,
            density: self.adjacency.density(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn build_splits_samples_exactly() {
        let w = WorldConfig::heterogeneous(7, 3).total_samples(1000).build();
        let total: usize = w.agents().iter().map(|a| a.num_samples).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn build_is_deterministic_under_seed() {
        let a = WorldConfig::heterogeneous(10, 5).build();
        let b = WorldConfig::heterogeneous(10, 5).build();
        assert_eq!(a.agents(), b.agents());
        assert_eq!(a.adjacency(), b.adjacency());
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorldConfig::heterogeneous(10, 5).build();
        let b = WorldConfig::heterogeneous(10, 6).build();
        assert_ne!(a.agents(), b.agents());
    }

    #[test]
    fn link_speed_is_min_of_endpoints() {
        let agents = vec![
            AgentState::new(AgentId(0), AgentProfile::new(1.0, 10.0), 100, 10),
            AgentState::new(AgentId(1), AgentProfile::new(1.0, 50.0), 100, 10),
        ];
        let adj = Adjacency::from_matrix(vec![vec![false, true], vec![true, false]]);
        let w = World::from_parts(agents, adj, 0);
        assert_eq!(w.link_mbps(AgentId(0), AgentId(1)), 10.0);
        assert_eq!(w.link_mbps(AgentId(0), AgentId(0)), 0.0);
    }

    #[test]
    fn churn_changes_a_fraction_of_profiles() {
        let mut w = WorldConfig::heterogeneous(20, 11).build();
        let before: Vec<AgentProfile> = w.agents().iter().map(|a| a.profile).collect();
        w.churn_profiles(0.2);
        let changed =
            w.agents().iter().zip(before.iter()).filter(|(a, b)| a.profile != **b).count();
        // Exactly 4 agents are re-rolled; a re-roll may land on the same
        // profile, so allow <= 4 but require the mechanism to have acted.
        assert!(changed <= 4);
        assert!(changed >= 1, "churn should usually change something");
    }

    fn all_ids(w: &World) -> Vec<AgentId> {
        (0..w.num_agents()).map(AgentId).collect()
    }

    #[test]
    fn sampling_respects_rate_and_is_nonempty() {
        let mut w = WorldConfig::heterogeneous(50, 13).build();
        let s = w.sample_participants_among(&all_ids(&w), 0.2);
        assert_eq!(s.len(), 10);
        let tiny = w.sample_participants_among(&all_ids(&w), 0.0001);
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn sampling_does_not_perturb_churn_stream() {
        let mut plain = WorldConfig::heterogeneous(20, 11).build();
        let mut sampled = WorldConfig::heterogeneous(20, 11).build();
        // Only one world draws participation samples first…
        let ids = all_ids(&sampled);
        let _ = sampled.sample_participants_among(&ids, 0.2);
        let _ = sampled.sample_participants_among(&ids, 0.2);
        // …yet churn outcomes must stay identical: the streams are decoupled.
        plain.churn_profiles(0.5);
        sampled.churn_profiles(0.5);
        assert_eq!(plain.agents(), sampled.agents());
    }

    #[test]
    fn churn_does_not_perturb_sampling_stream() {
        let mut plain = WorldConfig::heterogeneous(20, 13).build();
        let mut churned = WorldConfig::heterogeneous(20, 13).build();
        churned.churn_profiles(0.5);
        let ids = all_ids(&plain);
        assert_eq!(
            plain.sample_participants_among(&ids, 0.3),
            churned.sample_participants_among(&ids, 0.3)
        );
    }

    /// The id-level sampler the position sampler replaced: clone the
    /// candidates, Fisher–Yates the clone, truncate, sort.
    fn oracle_sample(rng: &mut StdRng, candidates: &[AgentId], rate: f64) -> Vec<AgentId> {
        let k = candidates.len();
        if k == 0 {
            return Vec::new();
        }
        let n = ((k as f64 * rate).round() as usize).clamp(1, k);
        let mut ids = candidates.to_vec();
        ids.shuffle(rng);
        ids.truncate(n);
        ids.sort();
        ids
    }

    proptest! {
        /// The position sampler returns the oracle's ids round after round
        /// and leaves the participation stream exactly where the oracle
        /// leaves it.
        #[test]
        fn position_sampler_matches_the_id_shuffle_oracle(
            k in 1usize..=5_000,
            rate in (0u8..4, 0.0f64..1.0).prop_map(|(pick, r)| match pick {
                0 => 1e-9,
                1 => 0.01,
                2 => 1.0,
                _ => r,
            }),
            seed in 0u64..u64::MAX,
            gap in 1usize..4,
        ) {
            let mut world = WorldConfig::heterogeneous(2, seed).build();
            let mut oracle_rng = world.participation_rng.clone();
            // Ascending candidates with holes, like an active set.
            let candidates: Vec<AgentId> = (0..k).map(|i| AgentId(i * (gap + 2) + i % 3)).collect();
            for _ in 0..3 {
                let got = world.sample_participants_among(&candidates, rate);
                let want = oracle_sample(&mut oracle_rng, &candidates, rate);
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(world.participation_rng.gen::<u64>(), oracle_rng.gen::<u64>());
        }
    }

    #[test]
    fn sample_among_respects_candidates_and_rate() {
        let mut w = WorldConfig::heterogeneous(40, 29).build();
        let candidates: Vec<AgentId> = (10..30).map(AgentId).collect();
        let s = w.sample_participants_among(&candidates, 0.5);
        assert_eq!(s.len(), 10);
        assert!(s.iter().all(|id| candidates.contains(id)));
        assert!(s.windows(2).all(|p| p[0] < p[1]), "ascending ids");
        assert!(w.sample_participants_among(&[], 0.5).is_empty());
        assert_eq!(w.sample_participants_among(&candidates, 1e-9).len(), 1);
    }

    #[test]
    fn er_joins_preserve_sparse_topology() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut w = WorldConfig::heterogeneous(30, 31).topology(Topology::random(0.2)).build();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..30 {
            w.push_agent_joined(
                AgentProfile::new(1.0, 50.0),
                100,
                10,
                JoinTopology::ErdosRenyi { p: 0.2 },
                &mut rng,
            );
        }
        let d = w.adjacency().density();
        assert!((0.1..0.3).contains(&d), "density {d} should stay near 0.2");
    }

    #[test]
    fn recycled_slot_takes_over_state_and_links() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut w = WorldConfig::heterogeneous(6, 37).topology(Topology::random(0.3)).build();
        let mut rng = StdRng::seed_from_u64(2);
        let target = AgentId(2);
        w.recycle_agent(
            target,
            AgentProfile::new(4.0, 100.0),
            777,
            7,
            JoinTopology::FullMesh,
            &mut rng,
        );
        let a = w.agent(target);
        assert_eq!(a.profile, AgentProfile::new(4.0, 100.0));
        assert_eq!(a.num_samples, 777);
        assert_eq!(a.batch_size, 7);
        assert_eq!(w.adjacency().degree(target.0), 5, "full-mesh rewire links everyone");
    }

    #[test]
    fn skewed_sizes_are_uneven() {
        let w = WorldConfig::heterogeneous(10, 17).sample_skew(3.0).build();
        let sizes: Vec<usize> = w.agents().iter().map(|a| a.num_samples).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max as f64 > 1.5 * min as f64, "sizes {sizes:?}");
    }

    #[test]
    fn link_lookups_read_the_current_profiles() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Every lookup, bit for bit, against the profiles as they stand.
        let check = |w: &World| {
            let scaled = |mbps: f64| if w.link_scale == 1.0 { mbps } else { mbps * w.link_scale };
            for (i, a) in w.agents().iter().enumerate() {
                let up = w.uplink_mbps(AgentId(i));
                assert_eq!(up.to_bits(), scaled(a.profile.link_mbps).to_bits(), "uplink {i}");
                for (j, b) in w.agents().iter().enumerate() {
                    let open = i != j
                        && w.adjacency().connected(i, j)
                        && w.isolated(AgentId(i)) == w.isolated(AgentId(j));
                    let want = if open {
                        scaled(a.profile.link_mbps.min(b.profile.link_mbps))
                    } else {
                        0.0
                    };
                    let got = w.link_mbps(AgentId(i), AgentId(j));
                    assert_eq!(got.to_bits(), want.to_bits(), "link {i}-{j}");
                }
            }
        };
        let mut w = WorldConfig::heterogeneous(12, 41).topology(Topology::random(0.6)).build();
        check(&w);
        let before: Vec<AgentProfile> = w.agents().iter().map(|a| a.profile).collect();
        w.churn_profiles(0.5);
        assert!(w.agents().iter().zip(&before).any(|(a, b)| a.profile != *b), "churn acted");
        check(&w);
        let mut rng = StdRng::seed_from_u64(3);
        w.push_agent_joined(
            AgentProfile::new(2.0, 20.0),
            100,
            10,
            JoinTopology::FullMesh,
            &mut rng,
        );
        check(&w);
        w.push_agent_joined(
            AgentProfile::new(0.5, 10.0),
            100,
            10,
            JoinTopology::ErdosRenyi { p: 0.5 },
            &mut rng,
        );
        check(&w);
        w.recycle_agent(
            AgentId(1),
            AgentProfile::new(4.0, 100.0),
            50,
            5,
            JoinTopology::FullMesh,
            &mut rng,
        );
        check(&w);
        w.agents_mut()[0].profile = AgentProfile::new(1.0, 5.0);
        check(&w);
        w.set_link_scale(0.3);
        check(&w);
        w.set_partition(3, 1);
        check(&w);
        w.set_link_scale(1.0);
        check(&w);
    }

    #[test]
    fn a_joiner_grows_a_full_world_by_an_eighth() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let mut join = |w: &mut World| {
            w.push_agent_joined(
                AgentProfile::new(2.0, 20.0),
                100,
                10,
                JoinTopology::FullMesh,
                &mut rng,
            );
        };
        let mut w = WorldConfig::heterogeneous(800, 5).build();
        assert_eq!(w.agents.capacity(), 800 + 100 + 16, "built with an eighth of headroom");
        let base = w.agents().as_ptr();
        join(&mut w);
        assert_eq!(w.agents().as_ptr(), base, "the first joiner moved the world");
        assert_eq!(w.agents.capacity(), 916, "the first joiner grew the world");
        while w.num_agents() < 916 {
            join(&mut w);
        }
        assert_eq!(w.agents.capacity(), 916);
        join(&mut w);
        let cap = w.agents.capacity();
        assert!((917..=916 + 114 + 16).contains(&cap), "capacity {cap}: doubled, not an eighth");
    }

    #[test]
    fn distribution_overrides_only_touch_profiles() {
        let plain = WorldConfig::heterogeneous(15, 8).sample_skew(1.0).build();
        let dist = WorldConfig::heterogeneous(15, 8)
            .sample_skew(1.0)
            .cpu_dist(DistributionConfig::Fixed { value: 3.0 })
            .build();
        // Profiles come from the override…
        assert!(dist.agents().iter().all(|a| a.profile.cpus == 3.0));
        // …links stay on the grid (only cpu_dist was set)…
        assert!(dist
            .agents()
            .iter()
            .all(|a| crate::LINK_PROFILES_MBPS.contains(&a.profile.link_mbps)));
        // …and dataset split + topology are untouched (dedicated stream).
        for (a, b) in plain.agents().iter().zip(dist.agents()) {
            assert_eq!(a.num_samples, b.num_samples);
        }
        assert_eq!(plain.adjacency(), dist.adjacency());
    }

    #[test]
    fn lognormal_profiles_leave_the_grid_deterministically() {
        let cfg = || {
            WorldConfig::heterogeneous(20, 9)
                .cpu_dist(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.5 })
                .link_dist(DistributionConfig::Uniform { min: 5.0, max: 200.0 })
        };
        let a = cfg().build();
        let b = cfg().build();
        assert_eq!(a.agents(), b.agents());
        let off_grid =
            a.agents().iter().filter(|ag| !crate::CPU_PROFILES.contains(&ag.profile.cpus)).count();
        assert!(off_grid > 15, "continuous draws should leave the 5-point grid");
        assert!(a.agents().iter().all(|ag| ag.profile.cpus > 0.0));
        assert!(a.agents().iter().all(|ag| (5.0..=200.0).contains(&ag.profile.link_mbps)));
    }

    #[test]
    fn link_scale_and_partition_shape_links() {
        let agents: Vec<AgentState> = (0..4)
            .map(|i| AgentState::new(AgentId(i), AgentProfile::new(1.0, 40.0), 100, 10))
            .collect();
        let mut w = World::from_parts(agents, Adjacency::full(4), 0);
        assert_eq!(w.link_mbps(AgentId(0), AgentId(1)), 40.0);
        assert_eq!(w.uplink_mbps(AgentId(0)), 40.0);
        w.set_link_scale(0.5);
        assert_eq!(w.link_mbps(AgentId(0), AgentId(1)), 20.0);
        assert_eq!(w.uplink_mbps(AgentId(0)), 20.0);
        // Partition into 2 id-striped regions, isolate region 0 ({0, 2}).
        w.set_link_scale(1.0);
        w.set_partition(2, 0);
        assert_eq!(w.link_mbps(AgentId(0), AgentId(1)), 0.0, "cross-region link cut");
        assert_eq!(w.link_mbps(AgentId(0), AgentId(2)), 40.0, "intra-region link up");
        assert_eq!(w.link_mbps(AgentId(1), AgentId(3)), 40.0, "other region untouched");
        assert_eq!(w.uplink_mbps(AgentId(0)), 40.0, "uplink survives partition");
        w.clear_partition();
        assert_eq!(w.link_mbps(AgentId(0), AgentId(1)), 40.0, "partition heals");
    }

    #[test]
    fn summary_reports_sane_values() {
        let w = WorldConfig::heterogeneous(25, 23).topology(Topology::random(0.5)).build();
        let s = w.summary();
        assert_eq!(s.num_agents, 25);
        assert!(s.mean_cpus > 0.0 && s.mean_cpus <= 4.0);
        assert!((0.0..=1.0).contains(&s.density));
    }
}
