//! The round-driven accuracy semantics, pinned.
//!
//! * **Equivalence gate**: with constant efficiency, full participation
//!   and no churn, the round-driven time-to-target must reproduce the old
//!   closed-form projection `mean_round_s × rounds_to_target(curve,
//!   realized factor, sampling)` to 1e-9 — for all 9 methods. The old
//!   algorithm is replicated verbatim below (it no longer exists in the
//!   runner) and compared against `run_job`.
//! * **Early stopping**: when the budget exceeds rounds-to-target, jobs
//!   stop the round the trajectory reaches the target, with the *same*
//!   answer the full-budget projection gave (constant-round-time methods).
//! * **Trajectory properties** (proptested): monotone non-decreasing under
//!   synchronous aggregation without churn coupling, and pointwise bounded
//!   by the ideal closed-form curve under churn/staleness/sampling.

use comdml_baselines::{
    AllReduceDml, BaselineConfig, BrainTorrent, ClassicSplitLearning, DropStragglers, FedAvg,
    FedProx, GossipLearning, TierBased,
};
use comdml_core::{
    sampling_penalty, AggregationMode, ChurnPolicy, FleetSim, RoundEngine, RoundInput,
};
use comdml_exp::{run_job, Method, MethodParams, ScenarioSpec};
use comdml_simnet::{ArrivalProcess, FleetDriver, SessionLifetime};
use proptest::prelude::*;

/// The pre-round-driven `baseline_engine`, with its fixed constants
/// resolved from the scenario's (default) method params.
fn old_baseline_engine(
    scenario: &ScenarioSpec,
    method: Method,
    seed: u64,
    density: f64,
) -> Box<dyn RoundEngine> {
    let base = BaselineConfig::default();
    let p = &scenario.method_params;
    match method {
        Method::ComDml => unreachable!("ComDML runs through FleetSim"),
        Method::FedAvg => Box::new(FedAvg::new(base)),
        Method::AllReduce => Box::new(AllReduceDml::new(base)),
        Method::BrainTorrent => Box::new(BrainTorrent::new(base).with_seed(seed ^ 0x000b_7a10)),
        Method::Gossip => {
            Box::new(GossipLearning::new(base).with_topology_density(density.clamp(0.01, 1.0)))
        }
        Method::FedProx => Box::new(FedProx::new(base, p.fedprox_min_work)),
        Method::DropStragglers => Box::new(DropStragglers::new(base, p.drop_fraction)),
        Method::Tiered => Box::new(TierBased::new(base, p.tiers)),
        Method::SplitLearning => {
            Box::new(ClassicSplitLearning::new(base, p.sl_agent_layers, p.sl_server_cpus))
        }
    }
}

/// The retired closed-form projection, replicated verbatim: run the *full*
/// round budget, then project `mean_round_s × rounds_to_target` from the
/// realized mean factor. Returns `(time_to_target_s, rounds_to_target)`.
fn old_projection(scenario: &ScenarioSpec, method: Method, seed: u64) -> (f64, usize) {
    let (rounds_run, sim_s, rounds_factor) = if method == Method::ComDml {
        let mut sim = FleetSim::new(scenario.fleet_config(seed), scenario.comdml_config());
        let r = sim.run(scenario.rounds);
        (r.rounds, r.total_sim_s, r.rounds_factor)
    } else {
        let mut driver: FleetDriver = scenario.fleet_config(seed).build();
        let density = driver.world().adjacency().density();
        let mut engine = old_baseline_engine(scenario, method, seed, density);
        let mut sim_s = 0.0f64;
        let mut horizon = 30.0f64;
        for r in 0..scenario.rounds {
            if let Some(churn) = scenario.churn {
                if churn.interval > 0 && r > 0 && r % churn.interval == 0 {
                    driver.world_mut().churn_profiles(churn.fraction);
                }
            }
            let plan = driver.begin_round(horizon);
            let empty_round = plan.active == 0;
            let participants = if scenario.sampling_rate < 1.0 {
                let active = driver.active_ids();
                driver.world_mut().sample_participants_among(&active, scenario.sampling_rate)
            } else {
                driver.active_ids()
            };
            let mut t = engine.round(driver.world(), RoundInput::new(r, &participants)).round_s;
            if t <= 0.0 {
                t = driver.seconds_to_next_event().unwrap_or(0.0);
            }
            driver.end_round(t);
            sim_s += t;
            horizon = if empty_round { 30.0 } else { (t * 2.0).max(1.0) };
        }
        (scenario.rounds, sim_s, engine.rounds_factor())
    };
    let mean_round_s = sim_s / rounds_run.max(1) as f64;
    let rounds_to_target = scenario.learning_curve().rounds_to(
        scenario.target_accuracy,
        rounds_factor.max(1e-6) * sampling_penalty(scenario.sampling_rate),
    );
    (mean_round_s * rounds_to_target as f64, rounds_to_target)
}

/// The equivalence regime: static fleet, full participation, no churn,
/// synchronous aggregation — constant per-round efficiency for every
/// method.
fn static_scenario(name: &str, rounds: usize, target: f64) -> ScenarioSpec {
    ScenarioSpec::new(name).rounds(rounds).target(target)
}

#[test]
fn round_driven_matches_the_closed_form_projection_for_all_9_methods() {
    // Budget (8) far below every method's rounds-to-target (>= 38): no
    // early stop, so the round-driven path must degenerate to *exactly*
    // the old projection — same simulated rounds, same mean, same
    // extrapolation — for every method including those with round-varying
    // times (BrainTorrent's rotating aggregator, TiFL's tier cycle).
    let scenario = static_scenario("equivalence", 8, 0.90);
    assert_eq!(Method::ALL.len(), 9);
    for method in Method::ALL {
        for seed in [1u64, 7] {
            let (old_time, old_rounds) = old_projection(&scenario, method, seed);
            let new = run_job(&scenario, method, seed);
            assert!(!new.reached_target, "{method:?}: an 8-round budget cannot reach 90%");
            assert_eq!(new.rounds_run, 8, "{method:?}: no early stop below target");
            assert_eq!(
                new.rounds_to_target, old_rounds,
                "{method:?} seed {seed}: projected rounds diverged"
            );
            let rel = (new.time_to_target_s - old_time).abs() / old_time.max(1e-12);
            assert!(
                rel < 1e-9,
                "{method:?} seed {seed}: round-driven {} vs closed-form {old_time} (rel {rel:e})",
                new.time_to_target_s
            );
        }
    }
}

#[test]
fn early_stopping_reproduces_the_projection_and_saves_rounds() {
    // Budget (120) far above rounds-to-target: jobs stop early, and for
    // every constant-round-time method the realized time must *still*
    // equal the old full-budget projection — early stopping changes the
    // wall-clock cost, never the answer. (BrainTorrent and TiFL rounds
    // vary in wall time, so their full-budget mean is not their first-k
    // mean; they are pinned by the no-early-stop gate above.)
    let scenario = static_scenario("early_stop", 120, 0.80);
    let constant_round_methods = [
        Method::ComDml,
        Method::FedAvg,
        Method::AllReduce,
        Method::Gossip,
        Method::FedProx,
        Method::DropStragglers,
        Method::SplitLearning,
    ];
    for method in constant_round_methods {
        let (old_time, old_rounds) = old_projection(&scenario, method, 3);
        let new = run_job(&scenario, method, 3);
        assert!(new.reached_target, "{method:?}: 120 rounds reach an 80% target");
        assert_eq!(new.rounds_run, old_rounds, "{method:?}: stops exactly at rounds-to-target");
        assert!(
            new.rounds_run < scenario.rounds,
            "{method:?}: early stopping must save simulated rounds"
        );
        let rel = (new.time_to_target_s - old_time).abs() / old_time.max(1e-12);
        assert!(
            rel < 1e-9,
            "{method:?}: early-stopped {} vs projected {old_time} (rel {rel:e})",
            new.time_to_target_s
        );
        assert!((new.time_to_target_s - new.sim_s).abs() < 1e-12, "reached => exact sim clock");
        let last = *new.accuracy_trajectory.last().expect("non-empty trajectory");
        assert!(last >= 0.80 - 1e-9, "trajectory ends at/above the target: {last}");
    }
}

#[test]
fn first_round_departures_are_charged_to_every_method() {
    // Every 60 s session ends inside the first round (FedAvg's takes about
    // 106 s): each method must be charged for the departures the same way,
    // which the one harness guarantees by planning every method's horizon
    // with the same rule.
    let mut scenario = ScenarioSpec::new("first_round_leaves")
        .agents(8)
        .rounds(2)
        .churn_dip(0.5)
        .lifetime(SessionLifetime::Fixed { duration_s: 60.0 });
    scenario.samples_per_agent = 2_000;
    for method in [Method::ComDml, Method::FedAvg, Method::Gossip] {
        let job = run_job(&scenario, method, 1);
        assert_eq!(job.accuracy_trajectory[0], 0.0, "{method:?}: first-round departures");
    }
}

#[test]
fn method_params_change_the_parameterized_methods_only() {
    let base = static_scenario("params_base", 6, 0.90);
    let tweaked = {
        let mut s = static_scenario("params_tweaked", 6, 0.90).method_params(MethodParams {
            fedprox_min_work: 0.9,
            drop_fraction: 0.6,
            tiers: 2,
            sl_agent_layers: 40,
            ..MethodParams::default()
        });
        s.name = "params_tweaked".into();
        s
    };
    for method in [Method::FedProx, Method::DropStragglers, Method::Tiered, Method::SplitLearning] {
        let a = run_job(&base, method, 5);
        let b = run_job(&tweaked, method, 5);
        assert_ne!(
            a.time_to_target_s, b.time_to_target_s,
            "{method:?}: spec params must actually reach the engine"
        );
    }
    for method in [Method::FedAvg, Method::AllReduce, Method::Gossip] {
        let a = run_job(&base, method, 5);
        let b = run_job(&tweaked, method, 5);
        assert_eq!(
            a.time_to_target_s, b.time_to_target_s,
            "{method:?}: unrelated params must not perturb the method"
        );
    }
}

#[test]
fn staleness_decay_override_reaches_the_comdml_engine() {
    // Membership churn keeps the pairing imbalanced (a *static* fleet is
    // balanced so well that a semi-sync quorum leaves nobody behind), so
    // stragglers spill past the quorum and the staleness exponent bites.
    // Timing is unaffected by the exponent — identical seeds walk the
    // identical membership timeline — so any factor difference is purely
    // the model-side discount.
    let mk = |decay: f64| {
        ScenarioSpec::new("stale")
            .agents(16)
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.008 })
            .lifetime(SessionLifetime::Exponential { mean_s: 3_000.0 })
            .aggregation(AggregationMode::SemiSynchronous { quorum: 0.5, staleness_s: f64::MAX })
            .method_params(MethodParams { staleness_decay: decay, ..MethodParams::default() })
            .rounds(12)
            .target(0.85)
    };
    let gentle = run_job(&mk(0.1), Method::ComDml, 2);
    let harsh = run_job(&mk(2.0), Method::ComDml, 2);
    assert_eq!(gentle.rounds_run, harsh.rounds_run, "same budget, same timeline");
    assert!(
        harsh.rounds_factor < gentle.rounds_factor,
        "a harsher staleness discount must cost realized efficiency: {} vs {}",
        harsh.rounds_factor,
        gentle.rounds_factor
    );
    // The ceil'd projection may coincide for small discounts, but a harsher
    // discount can never make the target *cheaper*.
    assert!(harsh.rounds_to_target >= gentle.rounds_to_target);
    assert!(harsh.time_to_target_s >= gentle.time_to_target_s);
    assert!(harsh.final_accuracy < gentle.final_accuracy);
}

#[test]
fn churn_dips_slow_the_trajectory() {
    let churny = |name: &str, dip: f64| {
        let mut s = ScenarioSpec::new(name)
            .agents(16)
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.01 })
            .lifetime(SessionLifetime::Exponential { mean_s: 2_000.0 })
            .rounds(30)
            .target(0.8);
        s = s.churn_dip(dip);
        s
    };
    let clean = run_job(&churny("no_dip", 0.0), Method::ComDml, 9);
    let dipped = run_job(&churny("dipped", 1.0), Method::ComDml, 9);
    assert!(
        dipped.final_accuracy <= clean.final_accuracy,
        "charging departures cannot speed learning: {} vs {}",
        dipped.final_accuracy,
        clean.final_accuracy
    );
    assert!(dipped.time_to_target_s >= clean.time_to_target_s);
    // The dip is model-level: it can only cost *more* simulated rounds
    // (later early stop), never change the per-round simulation itself.
    assert!(dipped.rounds_run >= clean.rounds_run);
}

#[test]
fn noniid_mix_interpolates_time_to_target() {
    let mk = |name: &str, mix: f64| ScenarioSpec::new(name).noniid_mix(mix).rounds(60).target(0.75);
    let iid = run_job(&mk("m0", 0.0), Method::FedAvg, 1);
    let mid = run_job(&mk("m5", 0.5), Method::FedAvg, 1);
    let non = run_job(&mk("m1", 1.0), Method::FedAvg, 1);
    assert!(
        iid.time_to_target_s < mid.time_to_target_s && mid.time_to_target_s < non.time_to_target_s,
        "more skew converges slower: {} / {} / {}",
        iid.time_to_target_s,
        mid.time_to_target_s,
        non.time_to_target_s
    );
}

/// Draws a scenario across the round-driven feature space;
/// `knobs = (agg, churny, sampling)`.
fn any_scenario(
    name: &str,
    agents: usize,
    rounds: usize,
    knobs: (u8, bool, u8),
    dip: f64,
    mix: Option<f64>,
) -> ScenarioSpec {
    let (agg, churny, sampling) = knobs;
    let mut s = ScenarioSpec::new(name).agents(agents).rounds(rounds).target(0.7);
    s = match agg % 3 {
        0 => s.aggregation(AggregationMode::Synchronous),
        1 => s.aggregation(AggregationMode::SemiSynchronous { quorum: 0.6, staleness_s: f64::MAX }),
        _ => s.aggregation(AggregationMode::Asynchronous),
    };
    if churny {
        s = s
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.006 })
            .lifetime(SessionLifetime::Exponential { mean_s: 2_500.0 })
            .churn(ChurnPolicy { interval: 3, fraction: 0.3 });
    }
    s = match sampling % 3 {
        0 => s,
        1 => s.sampling_rate(0.5),
        _ => s.sampling_rate(0.25),
    };
    if dip > 0.0 {
        s = s.churn_dip(dip);
    }
    if let Some(m) = mix {
        s = s.noniid_mix(m);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Satellite property 1: under synchronous aggregation with no churn
    // coupling, the realized accuracy trajectory never decreases — every
    // round's effective gain is non-negative.
    #[test]
    fn trajectory_is_monotone_under_synchronous_aggregation(
        agents in 4usize..12,
        rounds in 3usize..10,
        churny in 0u8..2,
        sampling in 0u8..3,
        seed in 1u64..300,
        method_sel in 0usize..3,
    ) {
        let scenario = any_scenario("mono", agents, rounds, (0, churny == 1, sampling), 0.0, None);
        let method = [Method::ComDml, Method::FedAvg, Method::Gossip][method_sel];
        let job = run_job(&scenario, method, seed);
        let mut prev = 0.0f64;
        for (r, &acc) in job.accuracy_trajectory.iter().enumerate() {
            prop_assert!(acc >= prev - 1e-12, "round {r}: {acc} < {prev}");
            prev = acc;
        }
    }

    // Satellite property 2: under churn, staleness and sampling — dips and
    // all — the realized trajectory is pointwise at or below the ideal
    // closed-form curve (one fresh full-participation round per round).
    #[test]
    fn trajectory_is_bounded_by_the_ideal_curve(
        agents in 4usize..12,
        rounds in 3usize..10,
        agg in 0u8..3,
        churny in 0u8..2,
        sampling in 0u8..3,
        dip in 0.0f64..1.5,
        mix_pct in 0u8..101,
        seed in 1u64..300,
        method_sel in 0usize..3,
    ) {
        // Half the draws use the pure `iid` selection, half a mix.
        let mix = (mix_pct % 2 == 0).then_some(f64::from(mix_pct) / 100.0);
        let scenario =
            any_scenario("bound", agents, rounds, (agg, churny == 1, sampling), dip, mix);
        let method = [Method::ComDml, Method::FedAvg, Method::Gossip][method_sel];
        let curve = scenario.learning_curve();
        let job = run_job(&scenario, method, seed);
        for (r, &acc) in job.accuracy_trajectory.iter().enumerate() {
            let ideal = curve.accuracy_at((r + 1) as f64);
            prop_assert!(
                acc <= ideal + 1e-9,
                "round {r}: realized {acc} above ideal {ideal}"
            );
        }
    }
}
