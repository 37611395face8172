//! Multi-guest offloading extension (Eq. 4 permits a fast agent to host
//! several slow agents; Algorithm 1 assigns at most one). Measures when the
//! extra capacity pays off: fleets where stragglers outnumber helpers.
//! Every column is the one `PairingScheduler`, built with
//! `PairingScheduler::new().capacity(c)`; capacity 1 is Algorithm 1.
//!
//! Run with `cargo run --release -p comdml-bench --bin multi_guest`.

use comdml_core::{PairingScheduler, TrainingTimeEstimator};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{Adjacency, AgentId, AgentProfile, AgentState, World};

fn skewed_world(num_slow: usize, num_fast: usize) -> World {
    let k = num_slow + num_fast;
    let mut agents = Vec::with_capacity(k);
    for i in 0..num_slow {
        agents.push(AgentState::new(AgentId(i), AgentProfile::new(0.2, 100.0), 5_000, 100));
    }
    for i in 0..num_fast {
        agents.push(AgentState::new(
            AgentId(num_slow + i),
            AgentProfile::new(4.0, 100.0),
            2_000,
            100,
        ));
    }
    let mut m = vec![vec![true; k]; k];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = false;
    }
    World::from_parts(agents, Adjacency::from_matrix(m), 0)
}

fn main() {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);

    println!("multi-guest offloading: estimated round makespan (s)\n");
    println!("{:<22} {:>10} {:>10} {:>10} {:>10}", "fleet", "solo", "cap 1", "cap 2", "cap 3");
    for (num_slow, num_fast) in [(2usize, 2usize), (4, 2), (6, 2), (6, 3)] {
        let world = skewed_world(num_slow, num_fast);
        let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
        let solo = ids.iter().map(|&id| est.solo_time_s(world.agent(id))).fold(0.0, f64::max);
        let mut row =
            format!("{:<22} {:>10.1}", format!("{num_slow} slow / {num_fast} fast"), solo);
        for cap in [1usize, 2, 3] {
            let pairings = PairingScheduler::new().capacity(cap).pair(&world, &ids, &est);
            let makespan = pairings.iter().map(|p| p.est_time_s).fold(0.0, f64::max);
            row.push_str(&format!(" {makespan:>10.1}"));
        }
        println!("{row}");
    }
    println!(
        "\nWith more stragglers than helpers, capacity > 1 keeps shrinking the \
         makespan — the generalization Eq. 4's formulation already allows."
    );
}
