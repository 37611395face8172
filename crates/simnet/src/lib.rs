//! Heterogeneous-agent world simulation for the ComDML reproduction.
//!
//! The paper evaluates ComDML in a simulated heterogeneous environment
//! (§V-A "Implementation"): each agent owns a CPU profile from
//! {4, 2, 1, 0.5, 0.2} CPUs and a link profile from {0, 10, 20, 50, 100}
//! Mbps, profiles drift over time (20% of agents re-rolled after round 100),
//! and agents are connected by a topology that ranges from a full mesh to a
//! random graph with 20% of the links (Fig. 3).
//!
//! This crate reproduces that substrate: [`AgentProfile`]s and the paper's
//! profile grids, [`Topology`] generation, the [`World`] container tying
//! agents + links + data sizes together, profile churn, participant sampling,
//! and the discrete-event core — a deterministic [`EventQueue`] plus the
//! [`SimDriver`] that executes typed [`SimEvent`]s (batch production,
//! transfers, suffix returns, aggregation, failure and join) against a
//! shared simulated clock with per-agent [`AgentTimeline`] accounting.
//! ComDML's round engine in `comdml-core` runs on this driver; the
//! baselines, which have no mid-round interaction, price their rounds in
//! closed form.
//!
//! On top of the single-round substrate, [`FleetDriver`] makes membership a
//! *process*: Poisson or trace-driven [`ArrivalProcess`] arrivals,
//! [`SessionLifetime`] departures (exponential/Weibull/fixed), elastic
//! [`World`] growth, and a begin/end-round handshake that hands each round
//! its mid-round joins and leaves — deterministic per seed regardless of how
//! rounds discretize time.
//!
//! # Example
//!
//! ```
//! use comdml_simnet::{Topology, WorldConfig};
//!
//! let world = WorldConfig::heterogeneous(10, 42)
//!     .topology(Topology::random(0.2))
//!     .build();
//! assert_eq!(world.num_agents(), 10);
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod agent;
mod dist;
mod driver;
mod events;
mod fleet;
mod hostile;
mod membership;
mod profile;
mod topology;
mod world;

pub use agent::{AgentId, AgentIdHasher, AgentMap, AgentState};
pub use dist::{DistSampler, DistributionConfig, DIST_SAMPLE_FLOOR};
pub use driver::{AgentTimeline, SimDriver, SimEvent};
pub use events::{BucketStats, EventQueue};
pub use fleet::{
    ArrivalProcess, FleetConfig, FleetDriver, FleetRoundPlan, MembershipChange, MembershipEvent,
    SessionLifetime,
};
pub use hostile::{ByzantineConfig, DiurnalCycle, PartitionSchedule};
pub use profile::{AgentProfile, CPU_PROFILES, LINK_PROFILES_MBPS};
pub use topology::{Adjacency, JoinTopology, NeighborsIter, Topology};
pub use world::{World, WorldConfig};
