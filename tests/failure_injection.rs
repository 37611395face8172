//! Failure injection: the decentralized design's resilience claims.
//! "It even adapts to extreme scenarios with poor links, allowing
//! independent training if needed" (§V-B.5) — verified by degrading worlds
//! mid-run.

use comdml::core::{
    ComDml, ComDmlConfig, PairingScheduler, RoundEngine, RoundInput, RoundOutcome,
    TrainingTimeEstimator,
};
use comdml::cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml::simnet::{AgentId, AgentProfile, World, WorldConfig};

fn no_churn() -> ComDmlConfig {
    ComDmlConfig { churn: None, ..ComDmlConfig::default() }
}

/// One round of `comdml` over every agent of `world`.
fn round(comdml: &mut ComDml, world: &World, r: usize) -> RoundOutcome {
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    comdml.round(world, RoundInput::new(r, &ids));
    comdml.last_outcome().expect("the round ran").clone()
}

#[test]
fn helper_link_death_forces_independent_training() {
    let mut world = WorldConfig::heterogeneous(10, 1).total_samples(50_000).build();
    let mut comdml = ComDml::new(no_churn());

    let before = round(&mut comdml, &world, 0);
    assert!(before.num_offloads > 0, "healthy world should offload");

    // Every link dies.
    for a in world.agents_mut().iter_mut() {
        a.profile = AgentProfile::disconnected(a.profile.cpus);
    }
    let after = round(&mut comdml, &world, 1);
    assert_eq!(after.num_offloads, 0, "no links, no offloading");
    assert_eq!(after.allreduce_s, 0.0, "no links, no aggregation");
    assert!(after.round_s().is_finite());
    // The round regresses to the straggler's solo time.
    assert!(after.compute_s > before.compute_s);
}

#[test]
fn single_agent_failure_does_not_stall_the_round() {
    let mut world = WorldConfig::heterogeneous(10, 2).total_samples(50_000).build();
    let mut comdml = ComDml::new(no_churn());

    // Kill the fastest agent's connectivity (a likely helper).
    let fastest = world
        .agents()
        .iter()
        .max_by(|a, b| a.profile.cpus.partial_cmp(&b.profile.cpus).unwrap())
        .map(|a| a.id)
        .unwrap();
    world.agents_mut()[fastest.0].profile =
        AgentProfile::disconnected(world.agent(fastest).profile.cpus);

    let outcome = round(&mut comdml, &world, 0);
    assert!(outcome.round_s().is_finite());
    // The dead agent appears, trains alone, and is excluded from AllReduce.
    let dead_stats = outcome
        .agent_stats
        .iter()
        .find(|s| s.id == fastest)
        .expect("failed agent still trains locally");
    assert_eq!(dead_stats.comm_s, 0.0);
}

#[test]
fn scheduler_never_pairs_across_dead_links() {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);

    for seed in 0..10u64 {
        let mut world = WorldConfig::heterogeneous(12, seed).build();
        // Randomly kill a third of the agents' links.
        for i in 0..4 {
            let idx = (seed as usize + i * 3) % 12;
            let cpus = world.agents()[idx].profile.cpus;
            world.agents_mut()[idx].profile = AgentProfile::disconnected(cpus);
        }
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        for p in PairingScheduler::new().pair(&world, &ids, &est) {
            if let Some(f) = p.fast {
                assert!(
                    world.link_mbps(p.slow, f) > 0.0,
                    "seed {seed}: paired {} with {} over a dead link",
                    p.slow,
                    f
                );
            }
        }
    }
}

#[test]
fn run_survives_progressive_degradation() {
    // Links degrade round over round until nothing is left; the run must
    // complete with finite totals throughout.
    let mut world = WorldConfig::heterogeneous(8, 5).total_samples(40_000).build();
    let mut comdml = ComDml::new(no_churn());
    let mut total = 0.0;
    for r in 0..12 {
        if r % 3 == 2 {
            // Kill one more agent's link each time.
            let idx = r / 3;
            if idx < 8 {
                let cpus = world.agents()[idx].profile.cpus;
                world.agents_mut()[idx].profile = AgentProfile::disconnected(cpus);
            }
        }
        let outcome = round(&mut comdml, &world, r);
        assert!(outcome.round_s().is_finite(), "round {r} must stay finite");
        total += outcome.round_s();
    }
    assert!(total.is_finite() && total > 0.0);
}

#[test]
fn empty_partitions_do_not_crash_real_training() {
    use comdml::core::{RealFleetConfig, RealSplitFleet};
    // Extreme Dirichlet skew can hand an agent (almost) no samples.
    let mut fleet = RealSplitFleet::new(RealFleetConfig {
        iid: false,
        alpha: 0.05,
        num_agents: 8,
        ..RealFleetConfig::default()
    });
    let report = fleet.run(2);
    assert_eq!(report.round_accuracies.len(), 2);
    assert!(report.round_accuracies.iter().all(|a| a.is_finite()));
}
