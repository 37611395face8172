//! Synthetic datasets and non-I.I.D. partitioning.
//!
//! The paper evaluates on CIFAR-10, CIFAR-100 and CINIC-10 plus non-I.I.D.
//! variants generated with a Dirichlet label-skew (concentration 0.5,
//! §V-A "Dataset"). Real CIFAR images are not available offline, so this
//! crate provides:
//!
//! * [`DatasetSpec`] — the *metadata* of each benchmark dataset (sample
//!   counts, dimensions, class counts). The scheduler and the timing
//!   simulations only ever consume these numbers.
//! * [`SyntheticImageDataset`] — a learnable synthetic image task
//!   (class-conditional patterns + noise) with the same tensor layout as
//!   CIFAR, used by the *real-training* experiments to demonstrate
//!   convergence with actual gradients.
//! * [`DirichletPartitioner`] / [`iid_partition`] — the exact partitioning
//!   schemes of the paper.
//! * [`Batcher`] — mini-batch iteration (batch size 100 in the paper).
//!
//! # Example
//!
//! ```
//! use comdml_data::{DatasetSpec, DirichletPartitioner, SyntheticImageDataset};
//!
//! let spec = DatasetSpec::cifar10();
//! assert_eq!(spec.train_samples, 50_000);
//! let ds = SyntheticImageDataset::generate(&DatasetSpec::miniature(), 1);
//! let parts = DirichletPartitioner::new(0.5, 7).partition(ds.labels(), 4);
//! assert_eq!(parts.len(), 4);
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod batcher;
mod partition;
mod spec;
mod synthetic;

pub use batcher::Batcher;
pub use partition::{iid_partition, DirichletPartitioner, PartitionStats};
pub use spec::DatasetSpec;
pub use synthetic::SyntheticImageDataset;
