//! ComDML — the paper's primary contribution.
//!
//! This crate implements Algorithm 1 of *"Communication-Efficient Training
//! Workload Balancing for Decentralized Multi-Agent Learning"* (ICDCS 2024):
//!
//! 1. **Split-model profiling** — each agent knows, for every candidate
//!    split `m`, the relative slow/fast-side training times and the
//!    intermediate data size (delegated to `comdml-cost`).
//! 2. **Training-time estimation** ([`TrainingTimeEstimator`]) — the
//!    `AgentTrainingTime` function: `τ̂ᵢⱼᵐ = max(Ñᵢ/pᵢᵐ, τ̂ⱼ + Ñᵢνₘ/cᵢⱼ +
//!    Ñᵢ/pⱼᵐ)`, minimized over `m`.
//! 3. **Decentralized pairing** ([`PairingScheduler`]) — agents pair
//!    greedily in descending order of solo training time, each slow agent
//!    choosing the partner and split that minimize its estimated time.
//! 4. **Round execution** ([`EventRound`]) — a discrete-event simulation
//!    of paired local-loss split training, plus AllReduce aggregation
//!    cost, under synchronous, semi-synchronous or asynchronous
//!    aggregation.
//! 5. **End-to-end runs** ([`FleetSim`]) — the one round harness: it owns
//!    membership, profile churn, participation sampling, carry-over and
//!    the clock, and drives any [`RoundEngine`] through
//!    [`RoundEngine::round`]. [`ComDml`] is the default engine; the
//!    baselines implement the same trait, so every method faces the same
//!    fleet. A [`LearningModel`] turns the rounds into time-to-accuracy.
//!
//! The crate also hosts [`RealSplitFleet`], which runs the same protocol
//! with *real* gradient descent (miniature models from `comdml-nn`) to
//! demonstrate the convergence claims of Theorem 1.
//!
//! # Example
//!
//! ```
//! use comdml_core::{ComDmlConfig, FleetSim, LearningCurve, LearningModel};
//! use comdml_simnet::FleetConfig;
//!
//! let fleet = FleetConfig::new(10, 42).samples_per_agent(5_000);
//! let mut sim = FleetSim::new(fleet, ComDmlConfig::default());
//! let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.80);
//! sim.run_to_target(&mut model, 1_000);
//! assert!(model.reached());
//! assert!(sim.report().total_sim_s > 0.0);
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod comdml;
mod estimator;
mod event_round;
mod fleet;
mod learning_curve;
mod learning_model;
mod multi;
mod real_fleet;
mod round;
mod scheduler;
mod theory;

pub use comdml::{ChurnPolicy, ComDml, ComDmlConfig, RoundEngine, RoundInput};
pub use estimator::{
    EstimateMemo, FnvBuildHasher, FnvHasher, SplitDecision, TrainingTimeEstimator,
};
pub use event_round::{
    barrier_round_s, mean_round_s, AggregationMode, Disruption, EventGranularity, EventRound,
    EventRoundReport,
};
pub use fleet::{FleetReport, FleetRoundSummary, FleetSim};
pub use learning_curve::{staleness_weight, LearningCurve};
pub use learning_model::{sampling_penalty, LearningModel, RoundProgress};
pub use multi::{helper_completion_s, pair_with_capacity, MultiPairing};
pub use real_fleet::{InputHook, ParamHook, RealFleetConfig, RealFleetReport, RealSplitFleet};
pub use round::{simulate_round, AgentRoundStats, PairRoundSim, RoundOutcome};
pub use scheduler::{Pairing, PairingOrder, PairingScheduler};
pub use theory::ConvergenceConstants;
