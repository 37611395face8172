//! Properties of the sweep engine:
//!
//! * the assembled report is **byte-identical** across 1/2/8 worker
//!   threads for arbitrary specs (the runner's core guarantee);
//! * spec files round-trip `parse` ∘ `render` exactly, for arbitrary
//!   scenario knobs;
//! * job results are pure functions of their coordinates (re-running any
//!   job reproduces its row);
//! * job rows survive their JSON round trip exactly, the form in which
//!   farm workers stream them and the coordinator journals them.

use comdml_bench::Value;
use comdml_core::{AggregationMode, ChurnPolicy, LearningCurve};
use comdml_exp::{
    presets, run_job, JobResult, Method, MethodParams, ScenarioSpec, SweepRunner, SweepSpec,
};
use comdml_simnet::{
    ArrivalProcess, ByzantineConfig, DistributionConfig, DiurnalCycle, PartitionSchedule,
    SessionLifetime, Topology,
};
use proptest::prelude::*;

/// Builds a small scenario from drawn knobs
/// `(topo, agg, churny, sampling, learning, hetero)`, the last two
/// covering the round-driven accuracy fields (curve override, non-IID mix,
/// churn dip, per-method params) and the heterogeneity-distribution /
/// hostile-world fields (dist overrides, diurnal, partition, byzantine).
fn scenario_from(
    name: &str,
    agents: usize,
    rounds: usize,
    knobs: (u8, u8, u8, u8, u8, u8),
) -> ScenarioSpec {
    let (topo, agg, churny, sampling, learning, hetero) = knobs;
    let mut s = ScenarioSpec::new(name).agents(agents).rounds(rounds);
    s = match topo % 3 {
        0 => s.topology(Topology::Full),
        1 => s.topology(Topology::Ring),
        _ => s.topology(Topology::Random { p: 0.4 }),
    };
    s = match agg % 3 {
        0 => s.aggregation(AggregationMode::Synchronous),
        1 => s.aggregation(AggregationMode::SemiSynchronous { quorum: 0.7, staleness_s: f64::MAX }),
        _ => s.aggregation(AggregationMode::Asynchronous),
    };
    if churny % 2 == 1 {
        s = s
            .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.005 })
            .lifetime(SessionLifetime::Exponential { mean_s: 3_000.0 })
            .churn(ChurnPolicy { interval: 2, fraction: 0.25 });
    }
    s = match sampling % 3 {
        0 => s,
        1 => s.sampling_rate(0.5),
        _ => s.sampling_rate(0.25),
    };
    s = match learning % 5 {
        0 => s,
        1 => s.noniid_mix(0.375),
        2 => s.churn_dip(0.625).target(0.7),
        3 => s.curve(LearningCurve::new(0.875, 7.25)).target(0.72),
        _ => s.method_params(MethodParams {
            fedprox_min_work: 0.375,
            drop_fraction: 0.25,
            tiers: 3,
            staleness_decay: 0.75,
            sl_agent_layers: 28,
            sl_server_cpus: 6.5,
        }),
    };
    s = match hetero % 6 {
        0 => s,
        1 => s
            .cpu_dist(DistributionConfig::LogNormal { mu: 0.25, sigma: 0.5 })
            .link_dist(DistributionConfig::Uniform { min: 5.0, max: 80.0 }),
        2 => s
            .link_dist(DistributionConfig::Normal { mean: 40.0, std_dev: 15.0 })
            .lifetime_dist(DistributionConfig::Fixed { value: 2_500.0 }),
        3 => s.diurnal(DiurnalCycle { period_s: 1_800.0, min_factor: 0.375 }),
        4 => s.partition(PartitionSchedule { groups: 3, period_s: 1_200.0, outage_s: 300.0 }),
        _ => s
            .byzantine(ByzantineConfig { fraction: 0.25, speed_factor: 3.0 })
            .cpu_dist(DistributionConfig::Trace { values: vec![0.5, 1.0, 2.0, 4.0] }),
    };
    s
}

fn methods_from(mask: u8) -> Vec<Method> {
    let pool = [Method::ComDml, Method::FedAvg, Method::Gossip, Method::BrainTorrent];
    let picked: Vec<Method> =
        pool.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, &m)| m).collect();
    if picked.is_empty() {
        vec![Method::ComDml]
    } else {
        picked
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The acceptance property: scenario × method × seed grids produce the
    // same bytes on 1, 2 and 8 workers.
    #[test]
    fn report_is_byte_identical_across_worker_counts(
        agents in 4usize..9,
        rounds in 2usize..5,
        knobs in (0u8..3, 0u8..3, 0u8..2, 0u8..3, 0u8..5, 0u8..6),
        mask in 1u8..16,
        base_seed in 1u64..500,
    ) {
        let (topo, agg, churny, sampling, learning, hetero) = knobs;
        let mut spec = SweepSpec::new("prop")
            .seeds(base_seed, 2)
            .scenario(scenario_from("a", agents, rounds, knobs))
            .scenario(scenario_from(
                "b",
                agents + 2,
                rounds,
                (topo + 1, agg + 1, 1 - churny, sampling + 1, learning + 1, hetero + 1),
            ));
        for m in methods_from(mask) {
            spec = spec.method(m);
        }
        let run = |threads: usize| {
            SweepRunner::new()
                .threads(threads)
                .progress(false)
                .run(&spec)
                .expect("spec validates")
                .to_value()
                .render()
        };
        let one = run(1);
        prop_assert_eq!(&run(2), &one, "2 workers diverged");
        prop_assert_eq!(&run(8), &one, "8 workers diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Spec files survive parse ∘ render for arbitrary knob combinations.
    #[test]
    fn spec_files_round_trip(
        agents in 1usize..200,
        rounds in 1usize..500,
        knobs in (0u8..3, 0u8..3, 0u8..2, 0u8..3, 0u8..5, 0u8..6),
        seeds in (0u64..10_000, 1usize..50),
        lifetime_sel in 0u8..4,
        arrivals_sel in 0u8..3,
    ) {
        let mut s = scenario_from("s", agents, rounds, knobs);
        s.lifetime = match lifetime_sel {
            0 => SessionLifetime::Infinite,
            1 => SessionLifetime::Exponential { mean_s: 123.456 },
            2 => SessionLifetime::Weibull { scale_s: 77.5, shape: 0.625 },
            _ => SessionLifetime::Fixed { duration_s: 3.25 },
        };
        s.arrivals = match arrivals_sel {
            0 => s.arrivals,
            1 => ArrivalProcess::Gaps(DistributionConfig::Fixed { value: 30.5 }),
            _ => ArrivalProcess::Gaps(DistributionConfig::LogNormal { mu: 3.0, sigma: 0.5 }),
        };
        let spec = SweepSpec::new("roundtrip")
            .seeds(seeds.0, seeds.1)
            .method(Method::ComDml)
            .method(Method::Tiered)
            .scenario(s);
        let text = spec.render();
        let back = SweepSpec::parse(&text).expect("rendered specs parse");
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(back.render(), text, "second render identical");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // `from_value ∘ parse ∘ render ∘ to_value` is the identity on job rows,
    // in both the pretty and the compact (wire and journal) renderings:
    // floats render in shortest round-trip form.
    #[test]
    fn job_rows_round_trip_through_json(
        agents in 4usize..8,
        rounds in 2usize..4,
        knobs in (0u8..3, 0u8..3, 0u8..2, 0u8..3, 0u8..5, 0u8..6),
        method in 0usize..Method::ALL.len(),
        seed in 1u64..500,
    ) {
        let row = run_job(&scenario_from("rt", agents, rounds, knobs), Method::ALL[method], seed);
        let pretty = row.to_value().render();
        for text in [pretty.clone(), row.to_value().render_compact()] {
            let back = JobResult::from_value(&Value::parse(&text).expect("rows parse"))
                .expect("rows rebuild");
            prop_assert_eq!(&back, &row);
            prop_assert_eq!(back.to_value().render(), pretty.clone(), "second render identical");
        }
    }
}

#[test]
fn jobs_are_pure_functions_of_their_coordinates() {
    let spec = presets::smoke();
    let report = SweepRunner::new().progress(false).run(&spec).unwrap();
    for job in &report.jobs {
        let scenario = spec.scenarios.iter().find(|s| s.name == job.scenario).unwrap();
        let again = run_job(scenario, job.method, job.seed);
        assert_eq!(&again, job, "re-running {}::{:?}", job.scenario, job.method);
    }
}

#[test]
fn report_cells_aggregate_job_rows() {
    let spec = presets::smoke();
    let report = SweepRunner::new().progress(false).run(&spec).unwrap();
    assert_eq!(report.jobs.len(), spec.num_jobs());
    assert_eq!(report.cells.len(), spec.scenarios.len() * spec.methods.len());
    for cell in &report.cells {
        let rows: Vec<_> = report
            .jobs
            .iter()
            .filter(|j| j.scenario == cell.scenario && j.method == cell.method)
            .collect();
        assert_eq!(rows.len(), spec.seeds.count);
        let mean = rows.iter().map(|j| j.time_to_target_s).sum::<f64>() / rows.len() as f64;
        assert!((cell.mean_time_s - mean).abs() < 1e-9 * mean.max(1.0));
        assert!(cell.p50_time_s <= cell.p95_time_s + 1e-12);
        // FedAvg is in the smoke grid, so every cell carries a speedup.
        let speedup = cell.speedup_vs_fedavg.expect("fedavg present");
        assert!(speedup > 0.0);
        if cell.method == Method::FedAvg {
            assert!((speedup - 1.0).abs() < 1e-9, "FedAvg vs itself is 1.0");
        }
    }
}

#[test]
fn preset_grids_execute_at_reduced_scale() {
    // One seed, truncated rounds: the full Table II/III scenario diversity
    // (datasets, sampling, churn, sparse topology, dropouts) runs end to
    // end in seconds and produces positive, ordered results.
    for preset in ["table2", "table3"] {
        let mut spec = presets::by_name(preset, 1).unwrap();
        for s in &mut spec.scenarios {
            s.rounds = 4;
        }
        let report = SweepRunner::new().progress(false).run(&spec).unwrap();
        for cell in &report.cells {
            assert!(cell.mean_time_s > 0.0, "{preset}/{}/{:?}", cell.scenario, cell.method);
            assert!(cell.mean_rounds_to_target >= 1.0);
        }
        // ComDML must beat FedAvg on every scenario of the paper grids.
        for scenario in &report.scenarios {
            let get = |m: Method| {
                report
                    .cells
                    .iter()
                    .find(|c| &c.scenario == scenario && c.method == m)
                    .map(|c| c.mean_time_s)
                    .unwrap()
            };
            assert!(
                get(Method::ComDml) < get(Method::FedAvg),
                "{preset}/{scenario}: ComDML {} vs FedAvg {}",
                get(Method::ComDml),
                get(Method::FedAvg)
            );
        }
    }
}

#[test]
fn sampling_rate_thins_sweep_rounds() {
    // The same scenario at sampling 1.0 vs 0.2: the sampled run's ComDML
    // jobs must touch fewer events while projecting more rounds-to-target.
    let base = ScenarioSpec::new("full").agents(20).rounds(6);
    let sampled = {
        let mut s = base.clone().sampling_rate(0.2);
        s.name = "sampled".into();
        s
    };
    let full_job = run_job(&base, Method::ComDml, 7);
    let sampled_job = run_job(&sampled, Method::ComDml, 7);
    assert!(sampled_job.events_processed < full_job.events_processed);
    assert!(sampled_job.rounds_to_target > full_job.rounds_to_target);
}
