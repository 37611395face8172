use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The paper's CPU profile grid (§V-A): 4, 2, 1, 0.5 and 0.2 CPUs.
pub const CPU_PROFILES: [f64; 5] = [4.0, 2.0, 1.0, 0.5, 0.2];

/// The paper's non-zero link profile grid in Mbps. A 0 Mbps link represents
/// a disconnected agent and is modelled via [`AgentProfile::disconnected`]
/// or topology edges rather than steady-state assignment.
pub const LINK_PROFILES_MBPS: [f64; 4] = [10.0, 20.0, 50.0, 100.0];

/// Computation and communication capacity of one agent.
///
/// # Example
///
/// ```
/// use comdml_simnet::AgentProfile;
///
/// let p = AgentProfile::new(2.0, 50.0);
/// assert!(p.is_connected());
/// assert!(!AgentProfile::disconnected(1.0).is_connected());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgentProfile {
    /// CPU capacity in abstract "CPU units" (the paper's 0.2–4 grid).
    pub cpus: f64,
    /// Uplink/downlink capacity in Mbps; 0 means disconnected.
    pub link_mbps: f64,
}

impl AgentProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is not positive or `link_mbps` is negative.
    pub fn new(cpus: f64, link_mbps: f64) -> Self {
        assert!(cpus > 0.0, "cpu capacity must be positive, got {cpus}");
        assert!(link_mbps >= 0.0, "link speed cannot be negative, got {link_mbps}");
        Self { cpus, link_mbps }
    }

    /// A profile whose link is down (the paper's 0 Mbps case).
    pub fn disconnected(cpus: f64) -> Self {
        Self::new(cpus, 0.0)
    }

    /// Whether the agent currently has any network connectivity.
    pub fn is_connected(&self) -> bool {
        self.link_mbps > 0.0
    }

    /// Samples a profile uniformly from the paper's grid.
    pub fn sample<R: Rng>(rng: &mut R) -> Self {
        let cpus = *CPU_PROFILES.choose(rng).expect("non-empty grid");
        let link = *LINK_PROFILES_MBPS.choose(rng).expect("non-empty grid");
        Self::new(cpus, link)
    }
}

/// Assigns profiles to `k` agents so each grid point gets an equal share
/// ("randomly assigning 20% of the agents to each CPU and communication
/// speed profile combination", §V-B.2), shuffling the assignment with `rng`.
///
/// When `k` is not a multiple of the grid size the remainder is sampled
/// uniformly.
pub fn assign_profiles<R: Rng>(k: usize, rng: &mut R) -> Vec<AgentProfile> {
    // Every value is a grid point, so the shuffles permute one-byte grid
    // indices instead of profiles: the same draws make the same moves over
    // a buffer an eighth (CPUs, links) or a sixteenth (profiles) the size.
    let per_cell = k / CPU_PROFILES.len();
    let mut cpus: Vec<u8> =
        (0..CPU_PROFILES.len() as u8).flat_map(|c| std::iter::repeat_n(c, per_cell)).collect();
    // Links cycle through the grid and are shuffled *independently* of the
    // CPU tiers, so compute and communication heterogeneity are uncorrelated
    // (the paper assigns agents to CPU × link combinations randomly).
    let mut links: Vec<u8> =
        (0..cpus.len()).map(|i| (i % LINK_PROFILES_MBPS.len()) as u8).collect();
    cpus.shuffle(rng);
    links.shuffle(rng);
    let grid_index = |grid: &[f64], v: f64| grid.iter().position(|&g| g == v).expect("grid value");
    let links_per_cpu = LINK_PROFILES_MBPS.len() as u8;
    let mut cells: Vec<u8> =
        cpus.into_iter().zip(links).map(|(c, l)| c * links_per_cpu + l).collect();
    while cells.len() < k {
        let p = AgentProfile::sample(rng);
        let (c, l) =
            (grid_index(&CPU_PROFILES, p.cpus), grid_index(&LINK_PROFILES_MBPS, p.link_mbps));
        cells.push(c as u8 * links_per_cpu + l as u8);
    }
    cells.shuffle(rng);
    cells
        .into_iter()
        .map(|cell| {
            let (c, l) = (cell / links_per_cpu, cell % links_per_cpu);
            AgentProfile::new(CPU_PROFILES[c as usize], LINK_PROFILES_MBPS[l as usize])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grid_matches_paper() {
        assert_eq!(CPU_PROFILES, [4.0, 2.0, 1.0, 0.5, 0.2]);
        assert_eq!(LINK_PROFILES_MBPS, [10.0, 20.0, 50.0, 100.0]);
    }

    #[test]
    fn assignment_is_balanced_for_multiples() {
        let mut rng = StdRng::seed_from_u64(1);
        let profiles = assign_profiles(10, &mut rng);
        assert_eq!(profiles.len(), 10);
        for &c in &CPU_PROFILES {
            let n = profiles.iter().filter(|p| p.cpus == c).count();
            assert_eq!(n, 2, "cpu tier {c} should appear twice in 10 agents");
        }
    }

    #[test]
    fn index_shuffles_reproduce_the_profile_shuffles() {
        // The assignment as it shuffled whole values, before the shuffles
        // moved to one-byte grid indices.
        fn by_value(k: usize, rng: &mut StdRng) -> Vec<AgentProfile> {
            let per_cell = k / CPU_PROFILES.len();
            let mut cpus: Vec<f64> =
                CPU_PROFILES.iter().flat_map(|&c| std::iter::repeat_n(c, per_cell)).collect();
            let mut links: Vec<f64> =
                (0..cpus.len()).map(|i| LINK_PROFILES_MBPS[i % LINK_PROFILES_MBPS.len()]).collect();
            cpus.shuffle(rng);
            links.shuffle(rng);
            let mut out: Vec<AgentProfile> =
                cpus.into_iter().zip(links).map(|(c, l)| AgentProfile::new(c, l)).collect();
            while out.len() < k {
                out.push(AgentProfile::sample(rng));
            }
            out.shuffle(rng);
            out
        }
        for k in [1, 4, 5, 7, 23, 1_000, 1_003] {
            for seed in 0..4 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut oracle_rng = rng.clone();
                assert_eq!(assign_profiles(k, &mut rng), by_value(k, &mut oracle_rng), "k {k}");
                assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "same draws (k {k})");
            }
        }
    }

    #[test]
    fn assignment_handles_remainders() {
        let mut rng = StdRng::seed_from_u64(2);
        let profiles = assign_profiles(7, &mut rng);
        assert_eq!(profiles.len(), 7);
        assert!(profiles.iter().all(|p| p.cpus > 0.0 && p.link_mbps > 0.0));
    }

    #[test]
    fn disconnected_profile() {
        let p = AgentProfile::disconnected(0.5);
        assert!(!p.is_connected());
        assert_eq!(p.cpus, 0.5);
    }

    #[test]
    #[should_panic(expected = "cpu capacity")]
    fn rejects_zero_cpus() {
        let _ = AgentProfile::new(0.0, 10.0);
    }

    #[test]
    fn sample_stays_on_grid() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let p = AgentProfile::sample(&mut rng);
            assert!(CPU_PROFILES.contains(&p.cpus));
            assert!(LINK_PROFILES_MBPS.contains(&p.link_mbps));
        }
    }
}
