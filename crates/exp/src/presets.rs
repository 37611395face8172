//! Named sweep presets: the paper's Table II/III grids and Fig. 3's sparse
//! topology, the extended nine-method comparison, the round-driven
//! convergence showcase, the CI smoke sweep, and the hostile-world
//! conditions (`@diurnal`,
//! `@partition`, `@byzantine`), as programmatic [`SweepSpec`] builders.
//! `exp_sweep` can also read them by name (`@table2`, `@smoke`, …)
//! instead of a spec file; `--list-presets` prints this catalog.

use comdml_core::{AggregationMode, ChurnPolicy};
use comdml_simnet::{
    ArrivalProcess, ByzantineConfig, DistributionConfig, DiurnalCycle, PartitionSchedule,
    SessionLifetime, Topology,
};

use crate::{Method, MethodParams, ScenarioSpec, SweepSpec};

/// The five methods of the paper's Table II, in table order.
pub fn paper_methods() -> Vec<Method> {
    vec![Method::ComDml, Method::Gossip, Method::BrainTorrent, Method::AllReduce, Method::FedAvg]
}

/// Table II: time to target accuracy with 10 heterogeneous agents on
/// CIFAR-10 / CIFAR-100 / CINIC-10, I.I.D. and non-I.I.D. — six dataset
/// cells × five methods, replicated across `seeds` seeds.
pub fn table2(seeds: usize) -> SweepSpec {
    let cell = |name: &str, dataset: &str, iid: bool, target: f64| {
        let mut s = ScenarioSpec::new(name).dataset(dataset, iid).target(target).rounds(30);
        s.samples_per_agent = 5_000; // 50k samples over 10 agents
        s
    };
    let mut spec = SweepSpec::new("table2").seeds(1, seeds);
    for m in paper_methods() {
        spec = spec.method(m);
    }
    spec.scenario(cell("c10_iid", "cifar10", true, 0.90))
        .scenario(cell("c10_noniid", "cifar10", false, 0.85))
        .scenario(cell("c100_iid", "cifar100", true, 0.65))
        .scenario(cell("c100_noniid", "cifar100", false, 0.60))
        .scenario(cell("cinic_iid", "cinic10", true, 0.75))
        .scenario(cell("cinic_noniid", "cinic10", false, 0.65))
}

/// Table III-style stress grid: participation sampling at scale, dynamic
/// profile churn, a sparse Erdős–Rényi topology surviving membership
/// churn, and dropout-heavy fleets — the paper's §V-B robustness axes as
/// four scenarios × five methods.
pub fn table3(seeds: usize) -> SweepSpec {
    let mut spec = SweepSpec::new("table3").seeds(1, seeds);
    for m in paper_methods() {
        spec = spec.method(m);
    }
    spec.scenario(
        // Table III proper: 50 agents, 20% participation per round.
        ScenarioSpec::new("agents50_sample20").agents(50).sampling_rate(0.2).rounds(30),
    )
    .scenario(
        // §V-B.2 dynamic environments: 20% of profiles re-rolled every 10
        // measured rounds.
        ScenarioSpec::new("profile_churn")
            .agents(20)
            .churn(ChurnPolicy { interval: 10, fraction: 0.2 })
            .rounds(30),
    )
    .scenario(
        // Fig. 3's sparse topology, kept sparse under churn by
        // Erdős–Rényi joins (the default join policy for random graphs).
        ScenarioSpec::new("sparse_er20")
            .agents(30)
            .topology(Topology::Random { p: 0.2 })
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.002 })
            .lifetime(SessionLifetime::Exponential { mean_s: 20_000.0 })
            .rounds(30),
    )
    .scenario(
        // §V-B.5 dropouts: heavy-tailed sessions under a semi-synchronous
        // quorum, the regime where stragglers and leavers collide.
        ScenarioSpec::new("dropouts_weibull")
            .agents(24)
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.004 })
            .lifetime(SessionLifetime::Weibull { scale_s: 15_000.0, shape: 0.7 })
            .aggregation(AggregationMode::SemiSynchronous { quorum: 0.8, staleness_s: f64::MAX })
            .rounds(30),
    )
}

/// Fig. 3: time to target accuracy under a random topology keeping only
/// 20% of the links, with 50 agents, on the three I.I.D. datasets (the
/// retired `fig3_topology` bench bin, rehosted). Gossip mixes through the
/// sparse graph's conductance.
pub fn topology(seeds: usize) -> SweepSpec {
    let cell = |name: &str, dataset: &str, target: f64, samples: usize| {
        let mut s = ScenarioSpec::new(name)
            .agents(50)
            .topology(Topology::Random { p: 0.2 })
            .dataset(dataset, true)
            .target(target)
            .rounds(60);
        s.samples_per_agent = samples; // the training set over 50 agents
        s
    };
    let mut spec = SweepSpec::new("topology").seeds(1, seeds);
    for m in paper_methods() {
        spec = spec.method(m);
    }
    spec.scenario(cell("c10_iid_er20", "cifar10", 0.90, 1_000))
        .scenario(cell("c100_iid_er20", "cifar100", 0.65, 1_000))
        .scenario(cell("cinic_iid_er20", "cinic10", 0.75, 1_800))
}

/// Extended comparison beyond Table II: ComDML against *all eight*
/// alternatives — including the straggler-mitigation families of §II
/// (tier-based selection, straggler dropping, FedProx partial work) and
/// classic server-based split learning — on the IID CIFAR-10 cell to 90%.
/// The round budget exceeds most methods' rounds-to-target, so jobs stop
/// early the round their realized trajectory reaches 0.90 (the retired
/// `extended_baselines` bench bin, rehosted on the sweep engine).
pub fn extended(seeds: usize) -> SweepSpec {
    let mut spec = SweepSpec::new("extended").seeds(1, seeds);
    for m in Method::ALL {
        spec = spec.method(m);
    }
    spec.scenario({
        let mut s =
            ScenarioSpec::new("c10_iid_to90").dataset("cifar10", true).target(0.90).rounds(60);
        s.samples_per_agent = 5_000; // 50k samples over 10 agents
        s
    })
}

/// Round-driven convergence showcase (the retired `convergence_curves`
/// bench bin, rehosted): four scenarios whose realized accuracy
/// trajectories the flat projection could never express — the clean IID
/// reference, a non-IID curve *mix* between the calibrated endpoints,
/// membership churn coupled into accuracy (each mid-round departure
/// forfeits effective rounds), and a staleness-discounted semi-synchronous
/// quorum. Trajectories land per job in `BENCH_sweep_convergence.json`.
pub fn convergence(seeds: usize) -> SweepSpec {
    SweepSpec::new("convergence")
        .seeds(1, seeds)
        .method(Method::ComDml)
        .method(Method::FedAvg)
        .method(Method::Gossip)
        .scenario(ScenarioSpec::new("iid_reference").rounds(40).target(0.8))
        .scenario(ScenarioSpec::new("noniid_mix60").noniid_mix(0.6).rounds(40).target(0.75))
        .scenario(
            ScenarioSpec::new("churn_dips")
                .agents(16)
                .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.004 })
                .lifetime(SessionLifetime::Exponential { mean_s: 6_000.0 })
                .churn_dip(0.5)
                .aggregation(AggregationMode::SemiSynchronous {
                    quorum: 0.7,
                    staleness_s: f64::MAX,
                })
                .rounds(40)
                .target(0.75),
        )
        .scenario(
            ScenarioSpec::new("stale_semi_sync")
                .agents(16)
                .aggregation(AggregationMode::SemiSynchronous {
                    quorum: 0.5,
                    staleness_s: f64::MAX,
                })
                .method_params(MethodParams { staleness_decay: 1.0, ..MethodParams::default() })
                .rounds(40)
                .target(0.75),
        )
}

/// The tiny CI smoke sweep: one churny scenario, three methods, two seeds
/// — seconds of wall clock, exercising the full spec → jobs → report path.
pub fn smoke() -> SweepSpec {
    SweepSpec::new("smoke")
        .seeds(1, 2)
        .method(Method::ComDml)
        .method(Method::Gossip)
        .method(Method::FedAvg)
        .scenario(
            ScenarioSpec::new("churny_dozen")
                .agents(12)
                .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.002 })
                .lifetime(SessionLifetime::Exponential { mean_s: 8_000.0 })
                .sampling_rate(0.75)
                .rounds(8),
        )
}

/// The churny 16-agent fleet every hostile preset stresses: the same
/// shape (and therefore the same honest behavior) as the pinned-digest
/// fleet in `comdml-core`'s tests, so the hostile knob is the only thing
/// that moves.
fn hostile_fleet(name: &str) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(name)
        .agents(16)
        .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.002 })
        .lifetime(SessionLifetime::Exponential { mean_s: 5_000.0 })
        .rounds(25);
    s.samples_per_agent = 500;
    s
}

/// The comparison methods every hostile preset runs: ComDML plus the two
/// baselines that bracket it (server-coordinated and fully gossip-based).
fn hostile_methods(spec: SweepSpec) -> SweepSpec {
    spec.method(Method::ComDml).method(Method::FedAvg).method(Method::Gossip)
}

/// Hostile world: diurnal bandwidth. Every link rides a cosine day/night
/// cycle bottoming out at 25% of nominal bandwidth (2-hour period so 25
/// rounds sweep several troughs). The twin scenario adds declarative
/// lognormal CPU/link heterogeneity on top — the distribution tail meets
/// the bandwidth trough.
pub fn diurnal(seeds: usize) -> SweepSpec {
    let cycle = DiurnalCycle { period_s: 7_200.0, min_factor: 0.25 };
    hostile_methods(SweepSpec::new("diurnal").seeds(1, seeds))
        .scenario(hostile_fleet("diurnal_trough").diurnal(cycle))
        .scenario(
            hostile_fleet("diurnal_lognormal")
                .diurnal(cycle)
                .cpu_dist(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.6 })
                .link_dist(DistributionConfig::LogNormal { mu: 3.2, sigma: 0.8 }),
        )
}

/// Hostile world: correlated regional outages. Agents fall into 4 regions
/// (`id mod 4`); every hour one region is cut off from the rest for 15
/// minutes, rotating round-robin, then heals. The twin scenario draws
/// session lifetimes from a heavy-tailed lognormal so departures cluster
/// with the outages.
pub fn partition(seeds: usize) -> SweepSpec {
    let schedule = PartitionSchedule { groups: 4, period_s: 3_600.0, outage_s: 900.0 };
    hostile_methods(SweepSpec::new("partition").seeds(1, seeds))
        .scenario(hostile_fleet("partition_rotating").partition(schedule))
        .scenario(
            hostile_fleet("partition_heavy_tail")
                .partition(schedule)
                .lifetime_dist(DistributionConfig::LogNormal { mu: 8.0, sigma: 1.0 }),
        )
}

/// Hostile world: Byzantine speed misreports. A deterministic 20% of
/// agents advertise 4× their true CPU speed to the pairing broadcast, so
/// the scheduler keeps offloading work onto liars that then underdeliver.
/// The twin scenario adds uniform CPU heterogeneity so the lie competes
/// with genuine spread.
pub fn byzantine(seeds: usize) -> SweepSpec {
    let liars = ByzantineConfig { fraction: 0.2, speed_factor: 4.0 };
    hostile_methods(SweepSpec::new("byzantine").seeds(1, seeds))
        .scenario(hostile_fleet("byzantine_liars").byzantine(liars))
        .scenario(
            hostile_fleet("byzantine_uniform")
                .byzantine(liars)
                .cpu_dist(DistributionConfig::Uniform { min: 0.2, max: 4.0 }),
        )
}

/// The preset catalog: every name [`by_name`] accepts, with a one-line
/// description (the `--list-presets` output).
pub const CATALOG: [(&str, &str); 9] = [
    ("table2", "paper Table II: time-to-target, 6 dataset cells x 5 methods"),
    ("table3", "paper Table III stress grid: sampling, churn, sparse topology, dropouts"),
    ("topology", "paper Fig. 3: 50 agents on a 20%-link random graph, 3 IID datasets"),
    ("extended", "ComDML vs all 8 baselines on IID CIFAR-10 to 90%"),
    ("convergence", "round-driven accuracy-trajectory showcase"),
    ("smoke", "tiny CI sweep: one churny scenario, 3 methods, 2 seeds"),
    ("diurnal", "hostile: cosine day/night bandwidth troughs (+ lognormal twin)"),
    ("partition", "hostile: rotating correlated regional outages (+ heavy-tail twin)"),
    ("byzantine", "hostile: 20% of agents misreport 4x speed to the pairing broadcast"),
];

/// Resolves a preset by name.
///
/// # Errors
///
/// Returns the unknown name.
pub fn by_name(name: &str, seeds: usize) -> Result<SweepSpec, String> {
    match name {
        "table2" => Ok(table2(seeds)),
        "table3" => Ok(table3(seeds)),
        "topology" => Ok(topology(seeds)),
        "extended" => Ok(extended(seeds)),
        "convergence" => Ok(convergence(seeds)),
        "smoke" => Ok(smoke()),
        "diurnal" => Ok(diurnal(seeds)),
        "partition" => Ok(partition(seeds)),
        "byzantine" => Ok(byzantine(seeds)),
        other => {
            let names: Vec<&str> = CATALOG.iter().map(|(n, _)| *n).collect();
            Err(format!("unknown preset {other:?} (try {})", names.join(", ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_round_trip() {
        for spec in [
            table2(5),
            table3(5),
            topology(2),
            extended(3),
            convergence(3),
            smoke(),
            diurnal(2),
            partition(2),
            byzantine(2),
        ] {
            spec.validate().unwrap();
            let back = SweepSpec::parse(&spec.render()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn catalog_matches_by_name() {
        for (name, _) in CATALOG {
            assert_eq!(by_name(name, 2).unwrap().name, name);
        }
        assert!(by_name("torus", 2).unwrap_err().contains("byzantine"), "error lists the catalog");
    }

    #[test]
    fn hostile_presets_carry_their_knobs() {
        assert!(diurnal(2).scenarios.iter().all(|s| s.diurnal.is_some()));
        assert!(partition(2).scenarios.iter().all(|s| s.partition.is_some()));
        assert!(byzantine(2).scenarios.iter().all(|s| s.byzantine.is_some()));
        // Each hostile preset's twin also exercises a declarative
        // heterogeneity distribution.
        assert!(diurnal(2).scenarios.iter().any(|s| s.cpu_dist.is_some() && s.link_dist.is_some()));
        assert!(partition(2).scenarios.iter().any(|s| s.lifetime_dist.is_some()));
        assert!(byzantine(2).scenarios.iter().any(|s| s.cpu_dist.is_some()));
    }

    #[test]
    fn extended_runs_every_method() {
        assert_eq!(extended(1).methods.len(), Method::ALL.len());
    }

    #[test]
    fn convergence_covers_the_round_driven_axes() {
        let spec = convergence(2);
        assert!(spec.scenarios.iter().any(|s| s.noniid_mix.is_some()));
        assert!(spec.scenarios.iter().any(|s| s.churn_dip > 0.0));
        assert!(spec
            .scenarios
            .iter()
            .any(|s| s.method_params.staleness_decay != MethodParams::default().staleness_decay));
    }

    #[test]
    fn paper_grids_meet_the_acceptance_floor() {
        // ≥4 baselines (plus ComDML), ≥3 scenarios, ≥5 seeds.
        for spec in [table2(5), table3(5)] {
            assert!(spec.methods.len() >= 5);
            assert!(spec.seeds.count >= 5);
        }
        assert!(table2(5).scenarios.len() >= 3);
        assert!(table3(5).scenarios.len() >= 3);
    }
}
