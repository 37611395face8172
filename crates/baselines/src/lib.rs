//! Baseline methods the paper compares ComDML against (§V-A "Baselines").
//!
//! * [`FedAvg`] — classic server-coordinated federated averaging \[1\]. Every
//!   agent trains the full model locally; the central server collects and
//!   redistributes models, so the round is gated by the slowest agent *and*
//!   the server's aggregate bandwidth.
//! * [`AllReduceDml`] — server-less: independent local training followed by
//!   decentralized AllReduce aggregation \[34\].
//! * [`BrainTorrent`] — peer-to-peer with a rotating aggregator \[10\]: one
//!   agent per round gathers all models over its own link and sends back the
//!   average.
//! * [`GossipLearning`] — each agent exchanges models with a single random
//!   neighbour per round \[11\]; no global barrier, but mixing is partial so
//!   more rounds are needed for the same accuracy.
//!
//! None of these balance workload: a 0.2-CPU straggler trains the entire
//! model every round, which is precisely the bottleneck ComDML removes.
//! Each engine's closed form is its [`comdml_core::RoundEngine::round`],
//! so the [`comdml_core::FleetSim`] harness drives them interchangeably
//! with ComDML over the same fleet.
//!
//! # Example
//!
//! ```
//! use comdml_baselines::{BaselineConfig, FedAvg};
//! use comdml_core::{ComDmlConfig, FleetSim, LearningCurve, LearningModel};
//! use comdml_simnet::FleetConfig;
//!
//! let fleet = FleetConfig::new(10, 1).samples_per_agent(5_000).build();
//! let fedavg = FedAvg::new(BaselineConfig::default());
//! let mut sim = FleetSim::with_engine(fleet, ComDmlConfig::default(), fedavg);
//! let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.80);
//! sim.run_to_target(&mut model, 1_000);
//! assert!(model.reached());
//! assert!(sim.report().total_sim_s > 0.0);
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod allreduce_dml;
mod braintorrent;
mod common;
mod drop_stragglers;
mod fedavg;
mod fedprox;
mod gossip;
mod split_learning;
mod tier;

pub use allreduce_dml::AllReduceDml;
pub use braintorrent::BrainTorrent;
pub use common::BaselineConfig;
pub use drop_stragglers::DropStragglers;
pub use fedavg::FedAvg;
pub use fedprox::FedProx;
pub use gossip::GossipLearning;
pub use split_learning::ClassicSplitLearning;
pub use tier::TierBased;
