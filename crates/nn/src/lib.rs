//! Neural-network training engine with local-loss split training.
//!
//! ComDML offloads the *suffix* of a model from a slow agent to a fast one
//! and trains the two sides in parallel using local-loss-based split
//! training (§III-B): the slow side appends a small auxiliary head (global
//! average pool + fully connected layer) and trains against its own local
//! loss, while the fast side trains on the *detached* activations streamed
//! from the slow side. Neither side waits for backpropagated gradients from
//! the other — that is the communication saving over classic split learning.
//!
//! This crate implements that machinery for real: [`Layer`]s with full
//! forward/backward passes, [`Sequential`] models, the [`CrossEntropyLoss`],
//! the [`AuxHead`], and [`LocalLossSplit`] which cuts a model in two and
//! trains both sides exactly as the paper prescribes.
//!
//! # Example: split a model and train both sides
//!
//! ```
//! use comdml_nn::{models, LocalLossSplit, SgdPair};
//! use comdml_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = models::mlp(&[8, 16, 16, 4], &mut rng);
//! // Offload the last layer to the fast agent.
//! let mut split = LocalLossSplit::from_sequential(model, 1, 4, &mut rng).unwrap();
//! let x = Tensor::randn(&[10, 8], 1.0, &mut rng);
//! let y = vec![0usize; 10];
//! let mut opts = SgdPair::new(0.01, 0.9);
//! let losses = split.train_step(&x, &y, &mut opts).unwrap();
//! assert!(losses.slow_loss.is_finite() && losses.fast_loss.is_finite());
//! ```
//!
//! Part of the `comdml-rs` workspace — the crate map in the repository
//! README shows how this crate fits the whole.

mod error;
mod init;
mod layer;
mod layers;
mod loss;
pub mod models;
mod sequential;
mod split;
mod trainer;

pub use error::NnError;
pub use init::he_std;
pub use layer::Layer;
pub use layers::{AvgPool2d, Conv2d, Dense, Flatten, GlobalAvgPool, Relu};
pub use loss::CrossEntropyLoss;
pub use sequential::Sequential;
pub use split::{AuxHead, LocalLossSplit, SgdPair, SplitLosses};
pub use trainer::{accuracy, train_step, Trainer};
