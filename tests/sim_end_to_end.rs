//! End-to-end simulation tests spanning core, baselines, simnet and cost:
//! the paper's headline claims must hold as *invariants* of the system.
//! Every method runs through the one `FleetSim` harness on the same fleet.

use comdml::baselines::{AllReduceDml, BaselineConfig, BrainTorrent, FedAvg, GossipLearning};
use comdml::core::{
    ChurnPolicy, ComDml, ComDmlConfig, FleetReport, FleetSim, LearningCurve, LearningModel,
    RoundEngine, RoundInput,
};
use comdml::simnet::{AgentId, FleetConfig, FleetDriver, Topology};

fn no_churn_comdml() -> ComDmlConfig {
    ComDmlConfig { churn: None, ..ComDmlConfig::default() }
}

/// A static heterogeneous fleet of `k` agents with `samples` each.
fn fleet(k: usize, seed: u64, samples: usize) -> FleetDriver {
    FleetConfig::new(k, seed).samples_per_agent(samples).build()
}

/// Drives `engine` on `fleet` until `curve` reaches `target`.
fn to_target(
    fleet: FleetDriver,
    engine: impl RoundEngine,
    curve: LearningCurve,
    target: f64,
) -> FleetReport {
    let mut sim = FleetSim::with_engine(fleet, no_churn_comdml(), engine);
    sim.run_to_target(&mut LearningModel::new(curve, target), 10_000);
    sim.report()
}

fn comdml() -> ComDml {
    ComDml::new(no_churn_comdml())
}

#[test]
fn comdml_beats_every_synchronous_baseline_on_heterogeneous_worlds() {
    let curve = LearningCurve::cifar10(true);
    for seed in [1u64, 7, 42] {
        let t_comdml = to_target(fleet(10, seed, 5_000), comdml(), curve, 0.85).total_sim_s;
        let baselines: Vec<Box<dyn RoundEngine>> = vec![
            Box::new(FedAvg::new(BaselineConfig::default())),
            Box::new(AllReduceDml::new(BaselineConfig::default())),
            Box::new(BrainTorrent::new(BaselineConfig::default())),
        ];
        for b in baselines {
            let method = b.name();
            let t = to_target(fleet(10, seed, 5_000), b, curve, 0.85).total_sim_s;
            assert!(
                t_comdml < t,
                "seed {seed}: ComDML ({t_comdml:.0}s) should beat {method} ({t:.0}s)"
            );
        }
    }
}

#[test]
fn comdml_beats_gossip_on_average() {
    // Gossip's barrier-free rounds can approach ComDML on unlucky link
    // assignments; across seeds ComDML must win clearly.
    let curve = LearningCurve::cifar10(true);
    let (mut total_comdml, mut total_gossip) = (0.0, 0.0);
    for seed in [1u64, 7, 42, 99, 123] {
        let gossip = GossipLearning::new(BaselineConfig::default());
        total_comdml += to_target(fleet(10, seed, 5_000), comdml(), curve, 0.85).total_sim_s;
        total_gossip += to_target(fleet(10, seed, 5_000), gossip, curve, 0.85).total_sim_s;
    }
    assert!(
        total_comdml < 0.9 * total_gossip,
        "ComDML ({total_comdml:.0}s) should beat gossip ({total_gossip:.0}s) by >10% on average"
    );
}

#[test]
fn comdml_reduction_vs_fedavg_is_large() {
    // Paper Table II: ~70% on IID CIFAR-10. Our reproduction lands between
    // ~35% (straggler stuck on a 10 Mbps link, where communication — not the
    // scheduler — binds) and ~55% (decent links). Require a >30% mean, which
    // no baseline achieves.
    let curve = LearningCurve::cifar10(true);
    let mut reductions = Vec::new();
    for seed in [1u64, 7, 42, 99] {
        let fedavg = FedAvg::new(BaselineConfig::default());
        let a = to_target(fleet(10, seed, 5_000), comdml(), curve, 0.90).total_sim_s;
        let b = to_target(fleet(10, seed, 5_000), fedavg, curve, 0.90).total_sim_s;
        reductions.push(1.0 - a / b);
    }
    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    assert!(mean > 0.30, "mean reduction {mean:.2} should exceed 30%: {reductions:?}");
}

#[test]
fn homogeneous_world_gains_little_from_balancing() {
    // When every agent is identical there are no stragglers to fix.
    let mut homogeneous = fleet(10, 3, 5_000);
    for a in homogeneous.world_mut().agents_mut().iter_mut() {
        a.profile = comdml::simnet::AgentProfile::new(1.0, 50.0);
    }
    let curve = LearningCurve::cifar10(true);
    let allreduce = AllReduceDml::new(BaselineConfig::default());
    let a = to_target(homogeneous.clone(), comdml(), curve, 0.85).total_sim_s;
    let b = to_target(homogeneous, allreduce, curve, 0.85).total_sim_s;
    assert!(
        (a - b).abs() / b < 0.05,
        "homogeneous fleets should tie: ComDML {a:.0}s vs AllReduce {b:.0}s"
    );
}

#[test]
fn churn_does_not_break_comdml() {
    let config = ComDmlConfig {
        churn: Some(ChurnPolicy { interval: 3, fraction: 0.5 }),
        ..ComDmlConfig::default()
    };
    let mut sim = FleetSim::new(FleetConfig::new(20, 11).samples_per_agent(5_000), config);
    let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.85);
    let mut offloads = 0;
    while !model.reached() {
        model.observe(&(&sim.step()).into());
        offloads += sim.engine().last_outcome().expect("a round ran").num_offloads;
    }
    let total_s = sim.report().total_sim_s;
    assert!(total_s.is_finite() && total_s > 0.0);
    assert!(offloads > 0, "scheduler keeps pairing through churn");
}

#[test]
fn sparse_topologies_degrade_gracefully() {
    let curve = LearningCurve::cifar10(true);
    let mut last = 0.0;
    for p in [1.0, 0.2, 0.02] {
        let sparse =
            FleetConfig::new(30, 5).samples_per_agent(5_000).topology(Topology::random(p)).build();
        let t = to_target(sparse, comdml(), curve, 0.85).total_sim_s;
        assert!(t.is_finite() && t > 0.0, "p={p} must still train");
        assert!(
            t >= last * 0.95,
            "sparser graphs should not get meaningfully faster: p={p}, {t:.0} vs {last:.0}"
        );
        last = t;
    }
}

#[test]
fn disconnected_world_trains_independently() {
    // p = 0: no links at all. Everybody trains alone; no offloads, no
    // aggregation — and nothing hangs or divides by zero.
    let isolated = FleetConfig::new(8, 9).topology(Topology::random(0.0)).build();
    let world = isolated.world();
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    let mut engine = comdml();
    let p = engine.round(world, RoundInput::new(0, &ids));
    assert_eq!(engine.last_outcome().unwrap().num_offloads, 0);
    assert!(p.round_s.is_finite());
}

#[test]
fn resnet110_takes_longer_than_resnet56() {
    let curve56 = LearningCurve::cifar10(true);
    let curve110 = curve56.deeper();
    let c110 = ComDml::new(ComDmlConfig {
        model: comdml::cost::ModelSpec::resnet110(),
        churn: None,
        ..ComDmlConfig::default()
    });
    let t56 = to_target(fleet(10, 13, 5_000), comdml(), curve56, 0.80).total_sim_s;
    let t110 = to_target(fleet(10, 13, 5_000), c110, curve110, 0.80).total_sim_s;
    assert!(t110 > 1.5 * t56, "the deeper model should cost clearly more: {t110:.0} vs {t56:.0}");
}

#[test]
fn gossip_trades_cheap_rounds_for_more_rounds() {
    let curve = LearningCurve::cifar10(true);
    let gossip = GossipLearning::new(BaselineConfig::default());
    let fedavg = FedAvg::new(BaselineConfig::default());
    let g = to_target(fleet(10, 17, 5_000), gossip, curve, 0.85);
    let f = to_target(fleet(10, 17, 5_000), fedavg, curve, 0.85);
    assert!(g.rounds > f.rounds, "gossip needs more rounds");
    let mean_round_s = |r: &FleetReport| r.total_sim_s / r.rounds as f64;
    assert!(mean_round_s(&g) < mean_round_s(&f), "gossip rounds are cheaper");
}
