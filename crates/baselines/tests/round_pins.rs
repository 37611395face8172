//! Pinned digests of every baseline engine's round output, and a property
//! check of the baselines' round pricing against the event clock.
//!
//! Each digest is FNV-1a over `(round_s bits, efficiency bits, cohort)` for
//! rounds `0..ROUNDS` of one engine, so any change to one bit of a round
//! time moves it. The pins were taken while every baseline round still ran
//! as `AgentDone` events on a `SimDriver`, and must not move when the
//! pricing is rearranged.
//!
//! The property test prices random worlds (zero-length epochs, exact ties,
//! stalled agents with infinite epochs, disconnected and infinite links,
//! zero latency) and compares the bits with a transcription of those
//! event-clock rounds.

use comdml_baselines::{
    AllReduceDml, BaselineConfig, BrainTorrent, ClassicSplitLearning, DropStragglers, FedAvg,
    FedProx, GossipLearning, TierBased,
};
use comdml_core::{RoundEngine, RoundInput};
use comdml_simnet::{
    Adjacency, AgentId, AgentProfile, AgentState, DistributionConfig, SimDriver, SimEvent, World,
    WorldConfig, CPU_PROFILES, LINK_PROFILES_MBPS,
};
use proptest::prelude::*;

/// Rounds per digest: TiFL visits each of its five tiers once and then
/// the fastest again; BrainTorrent draws six aggregators.
const ROUNDS: usize = 6;

/// The eight baselines, in the order of each world's pin array.
fn engines() -> Vec<Box<dyn RoundEngine>> {
    let cfg = BaselineConfig::default;
    vec![
        Box::new(FedAvg::new(cfg())),
        Box::new(AllReduceDml::new(cfg())),
        Box::new(BrainTorrent::new(cfg()).with_seed(7)),
        Box::new(GossipLearning::new(cfg())),
        Box::new(FedProx::new(cfg(), 0.5)),
        Box::new(DropStragglers::new(cfg(), 0.3)),
        Box::new(ClassicSplitLearning::new(cfg(), 19, 8.0)),
        Box::new(TierBased::new(cfg(), 5)),
    ]
}

fn digest(engine: &mut dyn RoundEngine, world: &World, ids: &[AgentId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for round in 0..ROUNDS {
        let p = engine.round(world, RoundInput::new(round, ids));
        eat(p.round_s.to_bits());
        eat(p.efficiency.to_bits());
        eat(p.cohort as u64);
    }
    h
}

/// Runs every engine over `ids` of `world` and checks the digests against
/// `pins`, in engine order.
fn check(name: &str, world: &World, ids: &[AgentId], pins: [u64; 8]) {
    let got: Vec<(&str, u64)> =
        engines().into_iter().map(|mut e| (e.name(), digest(&mut e, world, ids))).collect();
    assert!(got.iter().map(|&(_, d)| d).eq(pins), "{name}: digests {got:#x?}, pinned {pins:#x?}");
}

fn all_ids(world: &World) -> Vec<AgentId> {
    world.agents().iter().map(|a| a.id).collect()
}

#[test]
fn grid_ten_agents() {
    let world = WorldConfig::heterogeneous(10, 1).build();
    check(
        "grid 10",
        &world,
        &all_ids(&world),
        [
            0xb7b8_3ead_3063_218d,
            0xe60c_1d28_51d9_b009,
            0xd129_01d7_bbff_4de8,
            0x1b6b_5463_d56a_8239,
            0x0068_0d12_02b0_19f1,
            0x5093_5df4_a0ab_9cf1,
            0x5040_2c84_7a22_03f1,
            0x58ad_7474_315f_179a,
        ],
    );
}

#[test]
fn grid_fifty_agents() {
    let world = WorldConfig::heterogeneous(50, 2).sample_skew(0.5).build();
    check(
        "grid 50",
        &world,
        &all_ids(&world),
        [
            0xbf42_3ec1_7c3c_7dd9,
            0xf82a_35a4_a5f1_90f5,
            0xc305_cb57_b887_eb01,
            0xba80_e896_8c8c_66c5,
            0x8138_4585_7b63_ea0d,
            0x12ac_1719_d41b_4ff9,
            0xa9ce_1112_2f1e_98f5,
            0xf82e_1203_31ac_9ee9,
        ],
    );
}

#[test]
fn lognormal_cpus() {
    let world = WorldConfig::heterogeneous(40, 3)
        .sample_skew(1.0)
        .cpu_dist(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.6 })
        .build();
    check(
        "lognormal CPUs",
        &world,
        &all_ids(&world),
        [
            0x62f0_1454_2471_6afd,
            0x0cb9_3cab_e415_ac15,
            0x4561_d216_4843_64b9,
            0x95d1_066b_f647_4f09,
            0x2576_bb82_52ff_8eb5,
            0x3e67_6cf6_9079_6539,
            0x578d_32ab_023a_b6dd,
            0xf0b8_c26c_a24b_dfb8,
        ],
    );
}

#[test]
fn disconnected_agent() {
    let mut world = WorldConfig::heterogeneous(10, 4).build();
    world.agents_mut()[3].profile.link_mbps = 0.0;
    check(
        "0 Mbps agent",
        &world,
        &all_ids(&world),
        [
            0xac2a_3659_660b_14e5,
            0xac2a_3659_660b_14e5,
            0x418c_1034_4893_f399,
            0xae16_9200_9427_8ea1,
            0x22cd_9699_a0f9_b441,
            0x5093_5df4_a0ab_9cf1,
            0xac2a_3659_660b_14e5,
            0x9b2e_7f77_d0a4_5dca,
        ],
    );
}

#[test]
fn one_participant() {
    let world = WorldConfig::heterogeneous(10, 5).build();
    check(
        "one participant",
        &world,
        &[AgentId(7)],
        [
            0x8b6e_4c9b_25a9_ba25,
            0x4da7_e29a_1e0c_e731,
            0x4da7_e29a_1e0c_e731,
            0xacbe_47d1_346a_a979,
            0x36b8_fcf0_660b_4129,
            0x4d49_8082_bd42_35e5,
            0xf41f_7342_d399_c051,
            0x6833_8d63_901c_6f89,
        ],
    );
}

#[test]
fn homogeneous_ties() {
    let world = WorldConfig::heterogeneous(12, 6)
        .cpu_dist(DistributionConfig::Fixed { value: 1.0 })
        .link_dist(DistributionConfig::Fixed { value: 50.0 })
        .build();
    let cfg = BaselineConfig::default();
    let solo = cfg.solo_time_s(&world.agents()[0]);
    assert!(world.agents().iter().all(|a| cfg.solo_time_s(a) == solo), "solo times must tie");
    check(
        "homogeneous",
        &world,
        &all_ids(&world),
        [
            0x57bc_447d_93bf_b98d,
            0xeea9_1109_e048_f12d,
            0xae6f_7e94_e2a6_7b01,
            0xe5c0_8a60_270a_cf31,
            0xedfc_07a4_7f96_e599,
            0x5817_23b8_501b_b459,
            0xa913_2260_7866_1b99,
            0x238b_2a0d_8cbe_68f8,
        ],
    );
}

/// A driver with one slot per time, each scheduled to finish at it.
fn clock(times: &[f64]) -> SimDriver {
    let mut driver = SimDriver::new(times.len());
    for (slot, &t) in times.iter().enumerate() {
        driver.schedule_at(t, SimEvent::AgentDone { slot });
    }
    driver
}

/// A barrier round on the event clock: `AggregateStart` when the last
/// `AgentDone` pops, `AggregateDone` `aggregation_s` later.
fn clock_barrier_s(times: &[f64], aggregation_s: f64) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let mut driver = clock(times);
    let mut remaining = times.len();
    while let Some((now, event)) = driver.next() {
        match event {
            SimEvent::AgentDone { .. } => {
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

/// A barrier-free round on the event clock: the mean of the `AgentDone`
/// instants, summed in pop order.
fn clock_mean_s(times: &[f64]) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let mut driver = clock(times);
    let mut total = 0.0;
    while let Some((now, event)) = driver.next() {
        if let SimEvent::AgentDone { .. } = event {
            total += now;
        }
    }
    total / times.len() as f64
}

/// One generated agent: `(cpu kind, link kind, sample kind, draw)`.
type AgentSpec = (u8, u8, u8, f64);

/// Builds the world: CPU kinds 0–4 are the paper's grid (ties), 5 a random
/// draw and 6 a stalled agent whose epoch overflows to `+∞`; link kinds
/// 0–3 are the grid, 4 disconnected and 5 infinite; sample kind 0 is an
/// empty dataset (a zero-length epoch, never on a stalled agent), 1 a
/// shared size and 2 a random one.
fn build_world(specs: &[AgentSpec]) -> World {
    let agents = specs
        .iter()
        .enumerate()
        .map(|(i, &(cpu, link, samples, draw))| {
            let cpus = match cpu {
                0..=4 => CPU_PROFILES[cpu as usize],
                5 => draw,
                _ => f64::MIN_POSITIVE * f64::EPSILON,
            };
            let link_mbps = match link {
                0..=3 => LINK_PROFILES_MBPS[link as usize],
                4 => 0.0,
                _ => f64::INFINITY,
            };
            let num_samples = match samples {
                0 if cpu < 6 => 0,
                0 | 1 => 500,
                _ => 1 + (draw * 300.0) as usize,
            };
            AgentState::new(AgentId(i), AgentProfile::new(cpus, link_mbps), num_samples, 100)
        })
        .collect::<Vec<_>>();
    let n = agents.len();
    World::from_parts(agents, Adjacency::full(n), 0)
}

proptest! {
    /// FedAvg's barrier, its straggler compute (a barrier with no
    /// aggregation) and Gossip's mean round match the event clock bit for
    /// bit.
    #[test]
    fn pricing_matches_the_event_clock(
        specs in prop::collection::vec((0u8..7, 0u8..6, 0u8..3, 0.05f64..8.0), 1..40),
        zero_latency in 0u8..2,
        server_mbps in server_bandwidth(),
    ) {
        let mut cfg = BaselineConfig { server_mbps, ..BaselineConfig::default() };
        if zero_latency == 1 {
            cfg.calibration.link_latency_s = 0.0;
        }
        let world = build_world(&specs);
        let ids = all_ids(&world);
        let solo: Vec<f64> = world.agents().iter().map(|a| cfg.solo_time_s(a)).collect();
        prop_assert!(solo.iter().all(|t| !t.is_nan()));

        let straggler = cfg.straggler_compute_s(&world, &ids);
        prop_assert_eq!(straggler.to_bits(), clock_barrier_s(&solo, 0.0).to_bits());

        let b = cfg.model.model_bytes() as u64;
        let client = 2.0 * cfg.calibration.transfer_time_s(b, cfg.min_link_mbps(&world, &ids));
        let server = cfg.calibration.transfer_time_s(2 * ids.len() as u64 * b, server_mbps);
        let want = clock_barrier_s(&solo, client.max(server));
        let got = FedAvg::new(cfg.clone()).round(&world, RoundInput::new(0, &ids)).round_s;
        prop_assert_eq!(got.to_bits(), want.to_bits(), "FedAvg: {} vs {}", got, want);

        let exchange: Vec<f64> = world
            .agents()
            .iter()
            .zip(&solo)
            .map(|(a, &s)| s + 2.0 * cfg.calibration.transfer_time_s(b, a.profile.link_mbps))
            .collect();
        let want = clock_mean_s(&exchange);
        let got = GossipLearning::new(cfg).round(&world, RoundInput::new(0, &ids)).round_s;
        prop_assert_eq!(got.to_bits(), want.to_bits(), "Gossip: {} vs {}", got, want);
    }
}

/// Server bandwidths: a finite draw, or infinite (a free server pipe,
/// which with zero latency and infinite links gives a zero aggregation).
fn server_bandwidth() -> impl Strategy<Value = f64> {
    (0u8..4, 1.0f64..1e4).prop_map(|(k, mbps)| if k == 0 { f64::INFINITY } else { mbps })
}
