//! The round engine's event traffic, counted rather than timed. In a
//! coarse synchronous round every offloading pair schedules one `PairDone`
//! and every solo agent one `AgentDone` through the calendar queue; the
//! `AgentDone` pair each `PairDone` releases and the `AggregateStart` the
//! last finisher triggers happen at the current instant and take the
//! driver's same-instant lane. The counts are deterministic, so the
//! bounds are exact. This file is its own test binary because the metrics
//! registry is process-global.

use comdml_collective::AllReduceAlgorithm;
use comdml_core::{EventGranularity, EventRound, PairingScheduler, TrainingTimeEstimator};
use comdml_cost::{CostCalibration, ModelSpec, SplitProfile};
use comdml_simnet::{AgentId, DistributionConfig, WorldConfig};

#[test]
fn zero_delay_events_take_the_lane() {
    let spec = ModelSpec::resnet56();
    let profile = SplitProfile::new(&spec, 100).restrict_to(&[8, 16, 24, 32, 40, 48]);
    let cal = CostCalibration::default();
    let est = TrainingTimeEstimator::new(&spec, &profile, &cal);
    let k = 1_000;
    let world = WorldConfig::heterogeneous(k, 42)
        .total_samples(500 * k)
        .cpu_dist(DistributionConfig::LogNormal { mu: 0.0, sigma: 0.6 })
        .build();
    let ids: Vec<AgentId> = world.agents().iter().map(|a| a.id).collect();
    let pairings = PairingScheduler::new().pair(&world, &ids, &est);
    let offloading = pairings.iter().filter(|p| p.is_offloading()).count();
    assert!(offloading > 100, "the world must offload: {offloading} pairs");

    comdml_obs::set_metrics_enabled(true);
    comdml_obs::metrics().reset();
    let report =
        EventRound::new(&world, &pairings, &est, &cal, AllReduceAlgorithm::HalvingDoubling)
            .granularity(EventGranularity::Coarse)
            .run();
    let metrics = comdml_obs::metrics();
    let calendar = metrics.counter_value("simnet.calendar_pushes");
    let lane = metrics.counter_value("simnet.lane_pushes");
    comdml_obs::set_metrics_enabled(false);
    metrics.reset();

    // One initial event per pairing plus `AggregateDone`, on the calendar;
    // two `AgentDone`s per `PairDone` plus `AggregateStart`, on the lane.
    assert_eq!(calendar, pairings.len() as u64 + 1, "calendar pushes");
    assert_eq!(lane, 2 * offloading as u64 + 1, "lane pushes");
    assert_eq!(calendar + lane, report.events_processed, "every event ran once");
    assert_eq!(report.outcome.agent_stats.len(), k, "every agent took part");
}
