//! Integration tests of the elastic fleet driver, the coarse event
//! granularity, and the staleness-aware learning accounting:
//!
//! * `FleetSim` is deterministic per seed under Poisson churn and never
//!   orphans carry-over state (property tests over seeds/rates);
//! * coarse-granularity rounds reproduce fine-granularity rounds to 1e-9
//!   when no disruptions fire, across all three aggregation modes and
//!   multi-round carry-over;
//! * the staleness-weighted `rounds_factor` is monotone in staleness and
//!   separates the aggregation modes.

use std::collections::HashMap;

use comdml::collective::AllReduceAlgorithm;
use comdml::core::{
    staleness_weight, AggregationMode, ComDmlConfig, EventGranularity, EventRound, FleetSim,
    LearningCurve, LearningModel, PairingScheduler, RoundEngine, TrainingTimeEstimator,
};
use comdml::cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml::simnet::{AgentId, ArrivalProcess, FleetConfig, SessionLifetime, WorldConfig};
use proptest::prelude::*;

fn fleet(k: usize, seed: u64, rate: f64, mean_session: f64) -> FleetConfig {
    FleetConfig::new(k, seed)
        .arrivals(ArrivalProcess::Poisson { rate_per_s: rate })
        .lifetime(SessionLifetime::Exponential { mean_s: mean_session })
        .samples_per_agent(500)
}

fn config(mode: AggregationMode, granularity: EventGranularity) -> ComDmlConfig {
    ComDmlConfig {
        churn: None,
        candidate_offloads: Some(vec![8, 16, 24, 32, 40, 48]),
        aggregation: mode,
        granularity,
        ..ComDmlConfig::default()
    }
}

#[test]
fn coarse_matches_fine_without_disruptions() {
    // All three aggregation modes, several rounds with carry-over: every
    // per-round quantity must agree to 1e-9 relative.
    for mode in [
        AggregationMode::Synchronous,
        AggregationMode::SemiSynchronous { quorum: 0.7, staleness_s: f64::MAX },
        AggregationMode::Asynchronous,
    ] {
        let static_fleet = FleetConfig::new(24, 9).samples_per_agent(2_000);
        let mut fine = FleetSim::new(static_fleet.clone(), config(mode, EventGranularity::Fine));
        let mut coarse = FleetSim::new(static_fleet, config(mode, EventGranularity::Coarse));
        for r in 0..6 {
            let sf = fine.step();
            let sc = coarse.step();
            let tol = 1e-9 * sf.round_s.max(1.0);
            assert!(
                (sf.round_s - sc.round_s).abs() <= tol,
                "round {r} {mode:?}: {} vs {}",
                sf.round_s,
                sc.round_s
            );
            assert_eq!(sf.cohort, sc.cohort, "round {r} {mode:?}");
            let (of, oc) = (fine.engine().last_outcome(), coarse.engine().last_outcome());
            let (of, oc) = (of.unwrap(), oc.unwrap());
            assert_eq!(of.num_offloads, oc.num_offloads);
            let (cf, cc) = (fine.carry_over(), coarse.carry_over());
            assert_eq!(cf.len(), cc.len(), "round {r} {mode:?}: same agents spill");
            for (id, a) in cf {
                let b = cc[id];
                assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "spill {id}: {a} vs {b}");
            }
            for (a, b) in of.agent_stats.iter().zip(oc.agent_stats.iter()) {
                assert_eq!(a.id, b.id);
                assert!((a.train_s - b.train_s).abs() <= 1e-9 * a.train_s.max(1.0));
                assert!((a.comm_s - b.comm_s).abs() <= 1e-9 * a.comm_s.max(1.0));
                assert!((a.finish_s - b.finish_s).abs() <= 1e-9 * a.finish_s.max(1.0));
            }
            // Coarse must actually be coarse: far fewer events.
            assert!(
                sc.events_processed < sf.events_processed / 2,
                "coarse {} vs fine {} events",
                sc.events_processed,
                sf.events_processed
            );
        }
    }
}

#[test]
fn coarse_pairs_with_disruptions_fall_back_to_fine() {
    // A disrupted pair must behave identically under both granularities:
    // the coarse engine falls back to per-batch events exactly where the
    // disruption can strike.
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let world = WorldConfig::heterogeneous(12, 3).total_samples(12 * 3000).build();
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    let pairings = PairingScheduler::new().pair(&world, &ids, &est);
    let victim = pairings.iter().find_map(|p| p.fast).expect("some pair offloads");
    let disruptions = vec![comdml::core::Disruption::Fail { agent: victim, at_s: 5.0 }];
    let run = |g: EventGranularity| {
        EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling)
            .granularity(g)
            .disruptions(disruptions.clone())
            .run()
    };
    let fine = run(EventGranularity::Fine);
    let coarse = run(EventGranularity::Coarse);
    assert_eq!(fine.repairs, coarse.repairs);
    assert_eq!(fine.local_fallbacks, coarse.local_fallbacks);
    let tol = 1e-9 * fine.round_end_s.max(1.0);
    assert!(
        (fine.round_end_s - coarse.round_end_s).abs() <= tol,
        "{} vs {}",
        fine.round_end_s,
        coarse.round_end_s
    );
}

#[test]
fn semi_sync_staleness_separates_modes() {
    // The three aggregation modes must report diverging rounds factors on
    // the same heterogeneous world: sync is fully fresh; semi-sync and
    // async discount stale updates.
    let factor = |mode| {
        let static_fleet = FleetConfig::new(20, 5).samples_per_agent(2_000);
        let mut sim = FleetSim::new(static_fleet, config(mode, EventGranularity::Coarse));
        sim.run(5);
        sim.engine().rounds_factor()
    };
    let sync = factor(AggregationMode::Synchronous);
    let semi = factor(AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: f64::MAX });
    assert!((sync - 1.0).abs() < 1e-12, "synchronous rounds are fully fresh, got {sync}");
    assert!(semi < 1.0, "a 50% quorum must strand stragglers, got {semi}");
    assert!(semi > 0.0);
}

#[test]
fn rounds_factor_is_monotone_in_staleness_decay() {
    // Same run, harsher discount => lower realized rounds factor.
    let factor_with_decay = |decay: f64| {
        let mut cfg = config(
            AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: f64::MAX },
            EventGranularity::Coarse,
        );
        cfg.staleness_decay = decay;
        let mut sim = FleetSim::new(FleetConfig::new(20, 7).samples_per_agent(2_000), cfg);
        sim.run(5);
        sim.engine().rounds_factor()
    };
    let factors: Vec<f64> =
        [0.0, 0.25, 0.5, 1.0, 2.0].iter().map(|&d| factor_with_decay(d)).collect();
    for pair in factors.windows(2) {
        assert!(
            pair[1] <= pair[0] + 1e-12,
            "rounds factor must fall as the discount hardens: {factors:?}"
        );
    }
    assert!(
        factors[0] > factors[4],
        "a strictly harsher discount must bite somewhere: {factors:?}"
    );
}

#[test]
fn semi_sync_run_needs_more_rounds_than_sync() {
    // End-to-end: stale updates advance the learning curve less, so the
    // run to target takes more wall rounds.
    let rounds = |mode| {
        let config = ComDmlConfig { churn: None, aggregation: mode, ..ComDmlConfig::default() };
        let mut sim = FleetSim::new(FleetConfig::new(16, 11).samples_per_agent(1_500), config);
        sim.run_to_target(&mut LearningModel::new(LearningCurve::cifar10(true), 0.80), 10_000).len()
    };
    let sync = rounds(AggregationMode::Synchronous);
    let semi = rounds(AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: f64::MAX });
    assert!(semi > sync, "stale updates must cost wall rounds: {semi} vs {sync}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two same-seed fleet simulations under churn replay identically:
    /// round durations, membership counts, efficiency, event counts.
    #[test]
    fn fleet_sim_is_deterministic_per_seed(
        seed in 0u64..1000,
        k in 8usize..24,
        rate in 0.001f64..0.05,
        mean_session in 500f64..20_000.0,
    ) {
        let run = || {
            let mut sim = FleetSim::new(
                fleet(k, seed, rate, mean_session),
                config(
                    AggregationMode::SemiSynchronous { quorum: 0.75, staleness_s: f64::MAX },
                    EventGranularity::Coarse,
                ),
            );
            let mut log: Vec<(u64, usize, usize, u64, u64)> = Vec::new();
            for _ in 0..8 {
                let s = sim.step();
                log.push((
                    s.round_s.to_bits(),
                    s.participants,
                    s.joins + s.leaves,
                    s.efficiency.to_bits(),
                    s.events_processed,
                ));
            }
            (log, sim.fleet().arrivals_total(), sim.fleet().departures_total())
        };
        prop_assert_eq!(run(), run());
    }

    /// Carry-over state never names a departed (or never-active) agent,
    /// whatever the churn process does.
    #[test]
    fn fleet_sim_never_orphans_carry_over(
        seed in 0u64..1000,
        k in 8usize..24,
        rate in 0.001f64..0.08,
        mean_session in 200f64..5_000.0,
        quorum in 0.3f64..1.0,
    ) {
        let mut sim = FleetSim::new(
            fleet(k, seed, rate, mean_session),
            config(
                AggregationMode::SemiSynchronous { quorum, staleness_s: f64::MAX },
                EventGranularity::Coarse,
            ),
        );
        for _ in 0..10 {
            sim.step();
            let carry: &HashMap<AgentId, f64> = sim.carry_over();
            for (&id, &head_start) in carry {
                prop_assert!(sim.fleet().is_active(id), "orphaned carry-over for {id}");
                prop_assert!(head_start > 0.0 && head_start.is_finite());
            }
        }
    }

    /// The staleness weight is monotone in staleness for any positive decay
    /// (satellite requirement, property form).
    #[test]
    fn staleness_weight_monotone(decay in 0.01f64..4.0, s1 in 0.0f64..100.0, ds in 0.001f64..100.0) {
        let w1 = staleness_weight(s1, decay);
        let w2 = staleness_weight(s1 + ds, decay);
        prop_assert!(w2 < w1, "w({}) = {w1} vs w({}) = {w2}", s1, s1 + ds);
        prop_assert!((0.0..=1.0).contains(&w1) && w2 > 0.0);
    }
}
