//! Collective communication for decentralized model aggregation.
//!
//! At the end of every ComDML round all agents synchronize their models with
//! an AllReduce (§IV-B "Model aggregation"). The paper considers the two
//! classic bandwidth-efficient algorithms — the ring algorithm and recursive
//! halving/doubling — and picks halving/doubling because it needs only
//! `2·log2(K)` communication steps versus the ring's `2(K−1)`; both move
//! `2·(K−1)/K · b` bytes per agent.
//!
//! This crate implements both algorithms *for real* over in-memory buffers
//! and prices them with [`CollectiveCost`]. It also provides an int8
//! quantizer hook (§IV-B notes quantized gradients can be integrated) and
//! a top-k sparsifier.
//!
//! # Example
//!
//! ```
//! use comdml_collective::{halving_doubling_allreduce, ring_allreduce};
//!
//! let mut bufs = vec![vec![1.0, 2.0], vec![3.0, 6.0], vec![5.0, 4.0]];
//! ring_allreduce(&mut bufs).unwrap();
//! assert_eq!(bufs[0], vec![3.0, 4.0]); // element-wise mean
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod allreduce;
mod cost;
mod error;
mod quantize;
mod sparsify;

pub use allreduce::{halving_doubling_allreduce, naive_allreduce, ring_allreduce};
pub use cost::{AllReduceAlgorithm, CollectiveCost};
pub use error::CollectiveError;
pub use quantize::Int8Quantizer;
pub use sparsify::{SparseVector, TopKSparsifier};
