//! Differential test: [`PairingScheduler`] against a literal O(n²)
//! transcription of the paper's Algorithm 1.
//!
//! The oracle has none of the scheduler's machinery — no skyline, no
//! candidate prunes, no memo, no sparse/full-mesh split. It visits the
//! agents slowest first and scans every participant for each of them, so
//! any shortcut in the scheduler that changes a decision shows up as a
//! mismatch here.

use comdml_core::{Pairing, PairingScheduler, TrainingTimeEstimator};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{
    AgentId, AgentState, ByzantineConfig, DistributionConfig, Topology, World, WorldConfig,
};
use proptest::prelude::*;

/// Algorithm 1 with Eq. 4's helper capacity, written out directly.
///
/// 1. Every participant broadcasts its speed and solo time `τ̂`; a liar
///    advertises `speed_factor ×` its true CPU speed.
/// 2. Agents are visited in descending order of `τ̂`, ties by ascending id.
/// 3. An unscheduled agent scans every available, reachable participant
///    and takes the lexicographic minimum of `(est, τ̂ⱼ, id)` among the
///    offloading splits that beat training alone; with none it trains
///    alone.
/// 4. A helper that takes a guest is scheduled: it is never visited as a
///    slow agent. Below `capacity` guests it stays available, and its `τ̂ⱼ`
///    becomes the accepted pair's estimate.
fn algorithm1(
    world: &World,
    participants: &[AgentId],
    est: &TrainingTimeEstimator<'_>,
    misreport: Option<(ByzantineConfig, u64)>,
    capacity: usize,
) -> Vec<Pairing> {
    let n = participants.len();
    let advertised: Vec<AgentState> = participants
        .iter()
        .map(|&id| {
            let mut a = world.agent(id).clone();
            if let Some((b, salt)) = misreport {
                if b.is_liar(id.0, salt) {
                    a.profile.cpus *= b.speed_factor;
                }
            }
            a
        })
        .collect();
    let mut tau: Vec<f64> = advertised.iter().map(|a| est.solo_time_s(a)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        tau[b].partial_cmp(&tau[a]).expect("finite τ̂").then(participants[a].cmp(&participants[b]))
    });

    let mut visited = vec![false; n];
    let mut guests = vec![0usize; n];
    let mut out = Vec::new();
    for a in order {
        if visited[a] || guests[a] > 0 {
            continue;
        }
        visited[a] = true;
        let solo = tau[a];
        // (est, τ̂ⱼ, id, candidate index, offload)
        let mut best: Option<(f64, f64, usize, usize, usize)> = None;
        for b in 0..n {
            if b == a || visited[b] || guests[b] >= capacity {
                continue;
            }
            let link = world.link_mbps(participants[a], participants[b]);
            if link <= 0.0 {
                continue;
            }
            let d = est.estimate(&advertised[a], &advertised[b], tau[b], link);
            if d.offload == 0 || d.est_time_s >= solo {
                continue;
            }
            let cand = (d.est_time_s, tau[b], participants[b].0, b, d.offload);
            if best.is_none_or(|cur| (cand.0, cand.1, cand.2) < (cur.0, cur.1, cur.2)) {
                best = Some(cand);
            }
        }
        match best {
            Some((est_time_s, _, _, b, offload)) => {
                guests[b] += 1;
                tau[b] = est_time_s;
                out.push(Pairing {
                    slow: participants[a],
                    fast: Some(participants[b]),
                    offload,
                    est_time_s,
                });
            }
            None => out.push(Pairing {
                slow: participants[a],
                fast: None,
                offload: 0,
                est_time_s: solo,
            }),
        }
    }
    out
}

/// Samples a participation subset at `rate` and checks the scheduler
/// against the oracle at `capacity`.
fn check(mut world: World, rate: f64, misreport: Option<(ByzantineConfig, u64)>, capacity: usize) {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    let participants = world.sample_participants_among(&ids, rate);
    let sched = match misreport {
        Some((b, salt)) => PairingScheduler::with_misreport(b, salt),
        None => PairingScheduler::new(),
    }
    .capacity(capacity);
    let got = sched.pair(&world, &participants, &est);
    let want = algorithm1(&world, &participants, &est, misreport, capacity);
    assert_eq!(got, want, "{} participants, capacity {capacity}", participants.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paper's CPU/link grid on a full mesh; skewed shares vary τ̂.
    #[test]
    fn grid_matches_oracle(
        k in 2usize..41,
        seed in 0u64..u64::MAX,
        skew in 0.0f64..2.0,
        rate in 0.3f64..1.0,
        capacity in 1usize..4,
    ) {
        let world = WorldConfig::heterogeneous(k, seed).sample_skew(skew).build();
        check(world, rate, None, capacity);
    }

    /// lognormal(0, 0.6) CPUs: every helper has its own speed.
    #[test]
    fn lognormal_matches_oracle(
        k in 2usize..41,
        seed in 0u64..u64::MAX,
        rate in 0.3f64..1.0,
        capacity in 1usize..4,
    ) {
        let world = WorldConfig::heterogeneous(k, seed)
            .cpu_dist(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.6 })
            .build();
        check(world, rate, None, capacity);
    }

    /// Sparse Erdős–Rényi topologies take the neighbour-scan path.
    #[test]
    fn sparse_er_matches_oracle(
        k in 2usize..41,
        seed in 0u64..u64::MAX,
        p in 0.05f64..0.8,
        rate in 0.3f64..1.0,
        capacity in 1usize..4,
    ) {
        let world = WorldConfig::heterogeneous(k, seed).topology(Topology::random(p)).build();
        check(world, rate, None, capacity);
    }

    /// A regional cut on a full mesh or a sparse graph: helpers of one
    /// speed and link class may sit on both sides of it.
    #[test]
    fn partitioned_matches_oracle(
        k in 2usize..41,
        seed in 0u64..u64::MAX,
        (groups, isolated) in (2usize..5).prop_flat_map(|g| (Just(g), 0..g)),
        sparse in 0usize..3,
        rate in 0.3f64..1.0,
        capacity in 1usize..4,
    ) {
        let mut config = WorldConfig::heterogeneous(k, seed);
        if sparse == 0 {
            config = config.topology(Topology::random(0.5));
        }
        let mut world = config.build();
        world.set_partition(groups, isolated);
        check(world, rate, None, capacity);
    }

    /// Byzantine speed misreports poison the broadcast both sides read.
    #[test]
    fn byzantine_matches_oracle(
        k in 2usize..41,
        seed in 0u64..u64::MAX,
        fraction in 0.0f64..0.6,
        speed_factor in 0.1f64..20.0,
        sparse in 0usize..3,
        rate in 0.3f64..1.0,
        capacity in 1usize..4,
    ) {
        let mut config = WorldConfig::heterogeneous(k, seed);
        if sparse == 0 {
            config = config.topology(Topology::random(0.4));
        }
        let byz = ByzantineConfig { fraction, speed_factor };
        check(config.build(), rate, Some((byz, seed)), capacity);
    }

    /// Continuous CPUs with skewed shares, so τ̂ no longer falls as the
    /// helper speed rises and a skyline holds several helpers. Lognormal
    /// links, a 3-way cut (`cut` 3 = none) and liars are optional.
    #[test]
    fn skewed_continuous_matches_oracle(
        k in 2usize..300,
        seed in 0u64..u64::MAX,
        skew in 0.0f64..2.0,
        links in 0usize..2,
        cut in 0usize..4,
        liars in 0usize..2,
        rate in 0.3f64..1.0,
        capacity in 1usize..4,
    ) {
        let mut config = WorldConfig::heterogeneous(k, seed)
            .total_samples(500 * k)
            .sample_skew(skew)
            .cpu_dist(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.6 });
        if links == 1 {
            config = config.link_dist(DistributionConfig::LogNormal { mu: 3.2, sigma: 0.8 });
        }
        let mut world = config.build();
        if cut < 3 {
            world.set_partition(3, cut);
        }
        let byz = ByzantineConfig { fraction: 0.3, speed_factor: 4.0 };
        check(world, rate, (liars == 1).then_some((byz, seed)), capacity);
    }
}
