//! Privacy-protection toolkit (§IV-C and §V-B.4).
//!
//! ComDML exchanges intermediate activations between paired agents and model
//! parameters during aggregation. The paper evaluates three pluggable
//! defences, and `privacy_eval` in `comdml-bench` measures each one with
//! these building blocks:
//!
//! * [`LaplaceMechanism`] — differential privacy on model parameters (the
//!   paper reports 77.6% accuracy with Laplace noise, ε = 0.5, δ = 1e−5).
//! * [`PatchShuffler`] — shuffling spatial patches of the input image before
//!   it enters the network (\[42\]; 83.2% reported).
//! * [`distance_correlation`] — the leakage measure that NoPeek (\[43\];
//!   81.7% at α = 0.5) minimizes between raw inputs and intermediate
//!   representations.
//!
//! # Example
//!
//! ```
//! use comdml_privacy::LaplaceMechanism;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mech = LaplaceMechanism::new(0.5, 1.0);
//! let mut params = vec![1.0f32; 100];
//! mech.privatize(&mut params, &mut rng);
//! assert!(params.iter().any(|&v| v != 1.0));
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod dcor;
mod dp;
mod patch;

pub use dcor::distance_correlation;
pub use dp::LaplaceMechanism;
pub use patch::PatchShuffler;
