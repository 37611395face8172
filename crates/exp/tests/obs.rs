//! The observability no-perturbation contract, end to end: enabling
//! metrics, spans and the JSONL trace must not move a single byte of any
//! simulation output. One sequential test owns the process-global obs
//! state (this file is its own test binary, so no sibling can race it).

use comdml_core::{ComDmlConfig, EventGranularity, FleetSim};
use comdml_exp::{Method, ScenarioSpec, SweepRunner, SweepSpec};
use comdml_obs::Value;
use comdml_simnet::{ArrivalProcess, FleetConfig, SessionLifetime};

fn sweep_bytes() -> String {
    let spec = SweepSpec::new("obs_identity")
        .seeds(7, 2)
        .method(Method::ComDml)
        .method(Method::FedAvg)
        .scenario(ScenarioSpec::new("mini").agents(5).rounds(3))
        .scenario(ScenarioSpec::new("churny").agents(7).rounds(4).sampling_rate(0.5));
    SweepRunner::new().progress(false).run(&spec).expect("spec validates").to_value().render()
}

/// The same order-sensitive FNV digest the core fleet tests pin, over the
/// same churny 25-round synchronous run — so this test fails if
/// instrumentation perturbs *either* the sweep artifacts or the fleet
/// dynamics.
fn fleet_digest() -> u64 {
    let fleet = FleetConfig::new(16, 5)
        .arrivals(ArrivalProcess::Poisson { rate_per_s: 0.002 })
        .lifetime(SessionLifetime::Exponential { mean_s: 5_000.0 })
        .samples_per_agent(500);
    let config = ComDmlConfig {
        churn: None,
        candidate_offloads: Some(vec![8, 16, 24, 32, 40, 48]),
        granularity: EventGranularity::Coarse,
        ..ComDmlConfig::default()
    };
    let mut sim = FleetSim::new(fleet, config);
    let mut d = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..25 {
        let s = sim.step();
        for v in [
            s.round_s.to_bits(),
            s.efficiency.to_bits(),
            s.participants as u64,
            s.cohort as u64,
            s.joins as u64,
            s.leaves as u64,
            s.repairs as u64,
            s.events_processed,
        ] {
            d = (d ^ v).wrapping_mul(0x1000_0000_01b3);
        }
    }
    let r = sim.report();
    for v in [r.total_sim_s.to_bits(), r.effective_rounds.to_bits(), r.events_processed] {
        d = (d ^ v).wrapping_mul(0x1000_0000_01b3);
    }
    d
}

#[test]
fn instrumentation_never_moves_a_byte() {
    // Baseline: observability fully off.
    comdml_obs::set_metrics_enabled(false);
    let plain_bytes = sweep_bytes();
    let plain_digest = fleet_digest();
    assert_eq!(plain_digest, 0x6d09_9d62_a159_60ea, "pinned pre-obs fleet digest must hold");

    // Everything on: metrics, phase spans, and the JSONL trace sink.
    let trace = std::env::temp_dir().join("comdml_obs_identity_test.jsonl");
    comdml_obs::set_trace_path(&trace).unwrap();
    assert!(comdml_obs::metrics_enabled() && comdml_obs::trace_enabled());
    comdml_obs::metrics().reset();
    let traced_bytes = sweep_bytes();
    let traced_digest = fleet_digest();
    comdml_obs::disable_trace();
    comdml_obs::set_metrics_enabled(false);

    assert_eq!(traced_bytes, plain_bytes, "tracing perturbed the sweep artifact bytes");
    assert_eq!(traced_digest, plain_digest, "tracing perturbed the fleet dynamics");

    // The instrumentation actually observed the run.
    let snap = comdml_obs::metrics().snapshot();
    let counter = |k: &str| snap.counters.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    assert_eq!(counter("sweep.jobs"), Some(8), "2 scenarios x 2 methods x 2 seeds");
    assert!(counter("simnet.events").unwrap_or(0) > 0);
    assert!(counter("pairing.estimates").unwrap_or(0) > 0, "pairing asked for no estimates");
    let phases = snap.phase_totals();
    for needed in ["job.run", "fleet.pairing", "fleet.round"] {
        assert!(phases.iter().any(|(n, _)| n == needed), "missing phase {needed}: {phases:?}");
    }

    // Every trace line carries the envelope; the structured kinds the
    // runner and fleet emit are all present.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(!text.is_empty());
    let mut kinds = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let v = Value::parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        assert_eq!(v.get("seq").and_then(Value::as_u64), Some(i as u64), "seq gap at line {i}");
        kinds.insert(v.get("t").and_then(Value::as_str).expect("envelope kind").to_string());
    }
    for needed in ["span", "job", "round"] {
        assert!(kinds.contains(needed), "trace never saw a {needed:?} event: {kinds:?}");
    }

    comdml_obs::metrics().reset();
    let _ = std::fs::remove_file(&trace);
}
