//! Regenerates **Table III**: training time to 80% accuracy on I.I.D.
//! CIFAR-10 with 20 / 50 / 100 agents (20% participation sampling) for
//! ResNet-56 and ResNet-110.
//!
//! Per-agent workload is held constant (5 000 samples each, matching the
//! 10-agent CIFAR-10 split) so scaling stresses scheduling and aggregation
//! rather than shrinking local epochs — see EXPERIMENTS.md. Every method
//! runs through the `FleetSim` harness, which samples the same 20% of the
//! fleet for each of them.

use comdml_baselines::BaselineConfig;
use comdml_bench::{all_methods, fmt_s, row, run_to_target};
use comdml_core::{ComDmlConfig, LearningCurve};
use comdml_cost::ModelSpec;
use comdml_simnet::FleetConfig;

fn main() {
    let sampling = 0.2;
    let target = 0.80;
    let widths = [12usize, 8, 12, 12, 14, 12, 12];
    println!("Table III — training time (s) to 80% on IID CIFAR-10, 20% sampling\n");
    println!(
        "{}",
        row(
            &["Model", "Agents", "ComDML", "Gossip L.", "BrainTorrent", "AllReduce", "FedAvg"]
                .map(String::from),
            &widths
        )
    );

    for (model, curve) in [
        (ModelSpec::resnet56(), LearningCurve::cifar10(true)),
        (ModelSpec::resnet110(), LearningCurve::cifar10(true).deeper()),
    ] {
        for k in [20usize, 50, 100] {
            let fleet = FleetConfig::new(k, 42).samples_per_agent(5_000).batch_size(100).build();
            let config = ComDmlConfig {
                model: model.clone(),
                sampling_rate: sampling,
                ..ComDmlConfig::default()
            };
            let base = BaselineConfig { model: model.clone(), ..BaselineConfig::default() };
            let mut cells = vec![model.name().to_string(), k.to_string()];
            for engine in all_methods(base, config.clone()) {
                let report = run_to_target(fleet.clone(), &config, engine, curve, target);
                cells.push(fmt_s(report.total_sim_s));
            }
            println!("{}", row(&cells, &widths));
        }
    }
}
