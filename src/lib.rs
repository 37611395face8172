//! # ComDML — Communication-Efficient Training Workload Balancing for
//! # Decentralized Multi-Agent Learning
//!
//! This is the facade crate of a from-scratch Rust reproduction of the
//! ICDCS 2024 paper *"Communication-Efficient Training Workload Balancing for
//! Decentralized Multi-Agent Learning"* (ComDML, arXiv:2405.00839).
//!
//! ComDML balances training workload in a server-less, peer-to-peer learning
//! system: slower agents offload a suffix of the model to faster agents using
//! local-loss split training, and a decentralized pairing scheduler picks both
//! the partner and the split point by jointly considering computation and
//! communication capacities.
//!
//! The facade re-exports every sub-crate:
//!
//! * [`tensor`] — dense tensors and SGD.
//! * [`nn`] — layers, losses, sequential models and local-loss split training.
//! * [`data`] — synthetic datasets and Dirichlet non-I.I.D. partitioning.
//! * [`cost`] — analytic ResNet-56/110 cost models and split profiles.
//! * [`simnet`] — heterogeneous agents, links, topologies, the
//!   discrete-event driver (`SimDriver` / `SimEvent`) every simulation runs
//!   on, and the elastic fleet driver (`FleetDriver`): Poisson/trace
//!   arrivals, session-lifetime departures, membership as a process.
//! * [`collective`] — AllReduce, gossip and quantization.
//! * [`core`] — the ComDML scheduler, estimator and the event-driven round
//!   engine (`EventRound`): synchronous, semi-synchronous and asynchronous
//!   aggregation with FedBuff-style staleness-weighted learning progress,
//!   mid-round failure re-pairing, per-agent carry-over, coarse
//!   closed-form event granularity for fleet scale, and `FleetSim`, the one
//!   round harness driving every method's `RoundEngine::round` over a
//!   churning fleet.
//! * [`baselines`] — FedAvg, Gossip Learning, BrainTorrent, AllReduce DML
//!   and more — closed-form engines behind the same harness.
//! * [`exp`] — declarative scenario specs (`ScenarioSpec`/`SweepSpec`) and
//!   the parallel `SweepRunner` regenerating the paper's Table II/III grids
//!   (`exp_sweep`, `paper_tables`) with byte-deterministic reports.
//! * [`obs`] — dependency-free observability: `COMDML_LOG` leveled
//!   logging, the process-wide metrics registry, phase spans and the
//!   `COMDML_TRACE` JSONL trace sink (zero-overhead when disabled).
//! * [`privacy`] — differential privacy, patch shuffling, distance correlation.
//! * [`net`] — threaded `std::net` peer-to-peer transport for the protocol.
//!
//! Rounds are simulated by scheduling typed events (batch produced, transfer
//! complete, suffix return, agent done, aggregate start/done,
//! fail/join/leave) against one clock, which is what lets a 10,000-agent
//! fleet simulate 100 rounds in seconds (`cargo run --release --bin
//! scalability_10k`) and lets helpers fail mid-transfer with the orphaned
//! work re-paired onto idle agents.
//!
//! # Quickstart
//!
//! ```
//! use comdml::core::{ComDmlConfig, FleetSim, LearningCurve, LearningModel};
//! use comdml::simnet::FleetConfig;
//!
//! # fn main() {
//! let fleet = FleetConfig::new(10, 42).samples_per_agent(5_000);
//! let mut sim = FleetSim::new(fleet, ComDmlConfig::default());
//! let mut model = LearningModel::new(LearningCurve::cifar10(true), 0.80);
//! sim.run_to_target(&mut model, 1_000);
//! assert!(sim.report().total_sim_s > 0.0);
//! # }
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

pub use comdml_baselines as baselines;
pub use comdml_collective as collective;
pub use comdml_core as core;
pub use comdml_cost as cost;
pub use comdml_data as data;
pub use comdml_exp as exp;
pub use comdml_net as net;
pub use comdml_nn as nn;
pub use comdml_obs as obs;
pub use comdml_privacy as privacy;
pub use comdml_simnet as simnet;
pub use comdml_tensor as tensor;
