//! Pairing must not go quadratic under continuous CPU speeds. The
//! `pairing.estimates` counter records how many candidate estimates one
//! `PairingScheduler::pair` call asks for; a scan of every candidate would
//! make about `n` per participant (~600 at 2,000 agents), the skyline a
//! handful. The count is deterministic, so the bound is exact, not timed.
//! This file is its own test binary because the metrics registry is
//! process-global.

use comdml_core::{PairingScheduler, TrainingTimeEstimator};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{AgentId, DistributionConfig, WorldConfig};

/// Estimates per participant for pairing every agent of a 2,000-agent
/// lognormal(0, 0.6) world with dataset skew `skew`.
fn estimates_per_participant(seed: u64, skew: f64) -> f64 {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let k = 2_000;
    let world = WorldConfig::heterogeneous(k, seed)
        .total_samples(500 * k)
        .sample_skew(skew)
        .cpu_dist(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.6 })
        .build();
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    comdml_obs::metrics().reset();
    let pairings = PairingScheduler::new().pair(&world, &ids, &est);
    assert!(pairings.iter().any(|p| p.is_offloading()), "the world must offload");
    comdml_obs::metrics().counter_value("pairing.estimates") as f64 / k as f64
}

#[test]
fn continuous_cpu_pairing_is_not_quadratic() {
    comdml_obs::set_metrics_enabled(true);
    for seed in [1, 2] {
        let equal = estimates_per_participant(seed, 0.0);
        assert!(equal > 0.0 && equal <= 8.0, "seed {seed}, equal shares: {equal} per participant");
        let skewed = estimates_per_participant(seed, 1.0);
        assert!(skewed <= 32.0, "seed {seed}, skewed shares: {skewed} per participant");
    }
    comdml_obs::set_metrics_enabled(false);
    comdml_obs::metrics().reset();
}
