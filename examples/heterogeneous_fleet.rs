//! A dynamic 20-agent fleet: resource profiles churn mid-training and the
//! decentralized scheduler re-pairs agents on the fly (§IV-A's motivation
//! for *dynamic* pairing). The `FleetSim` round harness applies the churn
//! policy between rounds; ComDML re-pairs every round it is handed.
//!
//! ```sh
//! cargo run --example heterogeneous_fleet
//! ```

use comdml::core::{ChurnPolicy, ComDmlConfig, FleetSim};
use comdml::simnet::FleetConfig;

fn main() {
    let mut sim = FleetSim::new(
        FleetConfig::new(20, 7).samples_per_agent(5_000),
        ComDmlConfig {
            churn: Some(ChurnPolicy { interval: 5, fraction: 0.3 }),
            ..ComDmlConfig::default()
        },
    );

    println!("round | time (s) | offloading pairs | straggler idle share");
    for r in 0..15 {
        sim.step();
        let outcome = sim.engine().last_outcome().expect("the round ran");
        let idle_share = outcome.total_idle_s()
            / (outcome.compute_s * outcome.agent_stats.len() as f64).max(1e-9);
        println!(
            "{:>5} | {:>8.1} | {:>16} | {:>19.1}%{}",
            r,
            outcome.round_s(),
            outcome.num_offloads,
            idle_share * 100.0,
            if r > 0 && r % 5 == 0 { "   <- profiles churned" } else { "" }
        );
    }

    println!(
        "\nThe scheduler re-pairs after every churn event; round times stay \
         balanced instead of degrading with stale pairings."
    );
}
