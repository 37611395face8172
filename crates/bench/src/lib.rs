//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the ComDML paper. See DESIGN.md for the experiment index
//! and EXPERIMENTS.md for paper-vs-measured results.
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod json;
mod report;

pub use json::{BenchEntry, BenchRecord, Value};
pub use report::Report;

use comdml_baselines::{AllReduceDml, BaselineConfig, BrainTorrent, FedAvg, GossipLearning};
use comdml_core::{
    ComDml, ComDmlConfig, FleetReport, FleetSim, LearningCurve, LearningModel, RoundEngine,
};
use comdml_data::{DatasetSpec, DirichletPartitioner};
use comdml_simnet::{FleetConfig, FleetDriver, Topology};

/// The six dataset × distribution cells of Table II with their target
/// accuracies.
pub fn table2_cells() -> Vec<(DatasetSpec, bool, f64)> {
    vec![
        (DatasetSpec::cifar10(), true, 0.90),
        (DatasetSpec::cifar10(), false, 0.85),
        (DatasetSpec::cifar100(), true, 0.65),
        (DatasetSpec::cifar100(), false, 0.60),
        (DatasetSpec::cinic10(), true, 0.75),
        (DatasetSpec::cinic10(), false, 0.65),
    ]
}

/// Builds the static fleet for one Table II cell: `k` heterogeneous agents
/// sharing the dataset's training set; non-I.I.D. cells get Dirichlet(0.5)
/// sizes (label skew also skews per-agent sample counts).
pub fn fleet_for_dataset(
    spec: &DatasetSpec,
    iid: bool,
    k: usize,
    seed: u64,
    topo: Topology,
) -> FleetDriver {
    let mut fleet = FleetConfig::new(k, seed)
        .samples_per_agent(spec.train_samples / k)
        .batch_size(100)
        .topology(topo)
        .build();
    if !iid {
        // Dirichlet label skew implies uneven per-agent dataset sizes.
        let labels: Vec<usize> = (0..spec.train_samples).map(|i| i % spec.num_classes).collect();
        let parts = DirichletPartitioner::new(0.5, seed ^ 0xd1).partition(&labels, k);
        for (agent, part) in fleet.world_mut().agents_mut().iter_mut().zip(parts) {
            agent.num_samples = part.len().max(1);
        }
    }
    fleet
}

/// All five methods of Table II, boxed behind the shared engine trait.
pub fn all_methods(base: BaselineConfig, comdml: ComDmlConfig) -> Vec<Box<dyn RoundEngine>> {
    vec![
        Box::new(ComDml::new(comdml)),
        Box::new(GossipLearning::new(base.clone())),
        Box::new(BrainTorrent::new(base.clone())),
        Box::new(AllReduceDml::new(base.clone())),
        Box::new(FedAvg::new(base)),
    ]
}

/// Drives `engine` through the [`FleetSim`] harness on `fleet` (policies
/// from `config`) until `curve` reaches `target`, with the participation
/// penalty of `config.sampling_rate`.
pub fn run_to_target(
    fleet: FleetDriver,
    config: &ComDmlConfig,
    engine: Box<dyn RoundEngine>,
    curve: LearningCurve,
    target: f64,
) -> FleetReport {
    let mut model = LearningModel::new(curve, target).with_sampling_rate(config.sampling_rate);
    let mut sim = FleetSim::with_engine(fleet, config.clone(), engine);
    sim.run_to_target(&mut model, 100_000);
    sim.report()
}

/// Formats seconds with thousands separators, matching the tables' style.
pub fn fmt_s(v: f64) -> String {
    let n = v.round() as i64;
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths.iter()).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_six_cells_with_paper_targets() {
        let cells = table2_cells();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].2, 0.90);
        assert_eq!(cells[3].2, 0.60);
    }

    #[test]
    fn non_iid_world_has_uneven_sizes() {
        let spec = DatasetSpec::cifar10();
        let iid = fleet_for_dataset(&spec, true, 10, 1, Topology::Full);
        let non = fleet_for_dataset(&spec, false, 10, 1, Topology::Full);
        let spread = |f: &FleetDriver| {
            let sizes: Vec<usize> = f.world().agents().iter().map(|a| a.num_samples).collect();
            *sizes.iter().max().unwrap() as f64 / *sizes.iter().min().unwrap() as f64
        };
        assert!(spread(&non) > spread(&iid));
    }

    #[test]
    fn all_methods_report_distinct_names() {
        let engines = all_methods(BaselineConfig::default(), ComDmlConfig::default());
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 5);
        let mut unique = names.clone();
        unique.dedup();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn fmt_s_inserts_separators() {
        assert_eq!(fmt_s(1234567.2), "1,234,567");
        assert_eq!(fmt_s(999.4), "999");
    }
}
