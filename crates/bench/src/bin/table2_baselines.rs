//! Regenerates **Table II**: total training time to target accuracy with 10
//! heterogeneous agents on CIFAR-10 / CIFAR-100 / CINIC-10 (I.I.D. and
//! non-I.I.D.), comparing ComDML against Gossip Learning, BrainTorrent,
//! decentralized AllReduce and FedAvg. Every method runs through the
//! `FleetSim` harness on the same static fleet.

use comdml_baselines::BaselineConfig;
use comdml_bench::{
    all_methods, fleet_for_dataset, fmt_s, row, run_to_target, table2_cells, Report,
};
use comdml_core::{ComDmlConfig, LearningCurve};
use comdml_simnet::Topology;

fn main() {
    let k = 10;
    let widths = [16usize, 13, 13, 13, 13, 13, 13];
    let headers = [
        "Method",
        "C10 IID",
        "C10 non-IID",
        "C100 IID",
        "C100 non-IID",
        "CINIC IID",
        "CINIC non-IID",
    ];

    println!("Table II — training time (s) to target accuracy, 10 agents, ResNet-56");
    println!("targets: 90% / 85% / 65% / 60% / 75% / 65%\n");
    println!("{}", row(&headers.map(String::from), &widths));

    // method -> 6 cells
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for (spec, iid, target) in table2_cells() {
        let fleet = fleet_for_dataset(&spec, iid, k, 42, Topology::Full);
        let curve = LearningCurve::for_dataset(&spec.name, iid);
        let config = ComDmlConfig::default();
        for engine in all_methods(BaselineConfig::default(), config.clone()) {
            let method = engine.name().to_string();
            let total_s = run_to_target(fleet.clone(), &config, engine, curve, target).total_sim_s;
            match table.iter_mut().find(|(name, _)| *name == method) {
                Some((_, cells)) => cells.push(total_s),
                None => table.push((method, vec![total_s])),
            }
        }
    }

    let mut report = Report::new(
        "table2",
        &[
            "method",
            "c10_iid",
            "c10_noniid",
            "c100_iid",
            "c100_noniid",
            "cinic_iid",
            "cinic_noniid",
        ],
    );
    for (name, cells) in &table {
        let mut line = vec![name.clone()];
        line.extend(cells.iter().map(|&v| fmt_s(v)));
        println!("{}", row(&line, &widths));
        let mut csv = vec![name.clone()];
        csv.extend(cells.iter().map(|v| format!("{v:.0}")));
        report.row(&csv);
    }
    if let Ok(path) = report.write_default() {
        comdml_obs::info!("table2_baselines", "csv written to {}", path.display());
    }

    // Headline claim: reduction vs FedAvg and BrainTorrent on CIFAR-10 IID.
    let get = |name: &str| {
        table.iter().find(|(n, _)| n == name).map(|(_, cells)| cells[0]).expect("method present")
    };
    let comdml = get("ComDML");
    println!(
        "\nCIFAR-10 IID reductions: {:.0}% vs FedAvg, {:.0}% vs BrainTorrent (paper: 70% / 71%)",
        (1.0 - comdml / get("FedAvg")) * 100.0,
        (1.0 - comdml / get("BrainTorrent")) * 100.0,
    );
}
