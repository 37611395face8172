//! Pinned digests of `PairingScheduler::pair` output on seven 1,000-agent
//! worlds, one per scheduler path: the paper's CPU/link grid (six cuts and
//! the full split profile), lognormal CPUs, lognormal CPUs and links, a
//! sparse Erdős–Rényi graph (the neighbour scan), Byzantine misreports and
//! helper capacity 2.
//!
//! Each digest is FNV-1a over every pairing's `(slow, fast, offload, est
//! bits)`, so any change to a decision or to one bit of an estimate moves
//! it. The pins were taken before the estimator hoisted its per-call
//! invariants and must not move when the pricing is rearranged.

use comdml_core::{Pairing, PairingScheduler, TrainingTimeEstimator};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{AgentId, ByzantineConfig, DistributionConfig, Topology, WorldConfig};

const AGENTS: usize = 1_000;

/// The six candidate cuts the benchmarks restrict ResNet-56 to.
const SIX_CUTS: [usize; 6] = [8, 16, 24, 32, 40, 48];

fn digest(pairings: &[Pairing]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(pairings.len() as u64);
    for p in pairings {
        eat(p.slow.0 as u64);
        eat(p.fast.map_or(u64::MAX, |f| f.0 as u64));
        eat(p.offload as u64);
        eat(p.est_time_s.to_bits());
    }
    h
}

/// Pairs every agent of `config`'s world with `sched` under ResNet-56,
/// restricted to `cuts` when given, and checks the digest against `pin`.
fn check(
    name: &str,
    config: WorldConfig,
    cuts: Option<&[usize]>,
    sched: PairingScheduler,
    pin: u64,
) {
    let spec = ModelSpec::resnet56();
    let full = SplitProfile::new(&spec, 100);
    let profile = cuts.map_or_else(|| full.clone(), |c| full.restrict_to(c));
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let world = config.build();
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    let pairings = sched.pair(&world, &ids, &est);
    assert!(pairings.iter().any(Pairing::is_offloading), "{name}: the world must offload");
    let got = digest(&pairings);
    assert_eq!(got, pin, "{name}: digest {got:#018x}, pinned {pin:#018x}");
}

fn lognormal_cpus(seed: u64) -> WorldConfig {
    WorldConfig::heterogeneous(AGENTS, seed)
        .total_samples(500 * AGENTS)
        .sample_skew(1.0)
        .cpu_dist(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.6 })
}

#[test]
fn grid_six_cuts() {
    let config = WorldConfig::heterogeneous(AGENTS, 42).sample_skew(0.5);
    check(
        "grid, six cuts",
        config,
        Some(&SIX_CUTS),
        PairingScheduler::new(),
        0x32e4_d11a_478d_0e7d,
    );
}

#[test]
fn grid_full_profile() {
    let config = WorldConfig::heterogeneous(AGENTS, 43).sample_skew(0.5);
    check("grid, full profile", config, None, PairingScheduler::new(), 0x238a_ce31_44e6_5912);
}

#[test]
fn lognormal_cpus_six_cuts() {
    check(
        "lognormal CPUs",
        lognormal_cpus(44),
        Some(&SIX_CUTS),
        PairingScheduler::new(),
        0xcf96_0c32_9d6b_6acd,
    );
}

#[test]
fn lognormal_cpus_and_links() {
    let config =
        lognormal_cpus(45).link_dist(DistributionConfig::LogNormal { mu: 3.2, sigma: 0.8 });
    check(
        "lognormal CPUs and links",
        config,
        Some(&SIX_CUTS),
        PairingScheduler::new(),
        0x3c58_27fa_e761_eded,
    );
}

#[test]
fn sparse_erdos_renyi() {
    let config =
        WorldConfig::heterogeneous(AGENTS, 46).sample_skew(0.5).topology(Topology::random(0.02));
    check("sparse ER", config, None, PairingScheduler::new(), 0x5437_3012_924e_ca57);
}

#[test]
fn byzantine_misreports() {
    let sched =
        PairingScheduler::with_misreport(ByzantineConfig { fraction: 0.3, speed_factor: 4.0 }, 47);
    check("misreport", lognormal_cpus(47), Some(&SIX_CUTS), sched, 0x49c7_0d38_bfd7_8bef);
}

#[test]
fn helper_capacity_two() {
    let config = WorldConfig::heterogeneous(AGENTS, 48).sample_skew(1.0);
    check(
        "capacity 2",
        config,
        Some(&SIX_CUTS),
        PairingScheduler::new().capacity(2),
        0xe965_e596_557c_b654,
    );
}
