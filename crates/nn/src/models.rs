//! Ready-made model builders used by tests, examples and the real-training
//! experiments.
//!
//! These are miniature stand-ins for the paper's ResNet-56/110 at a scale
//! that trains in seconds on a CPU. The *timing* experiments use the
//! analytic `comdml-cost` profiles of the full-size models; these real
//! models demonstrate that local-loss split training converges (Theorem 1)
//! with actual gradients.

use rand::Rng;

use crate::{AvgPool2d, Conv2d, Dense, Flatten, Relu, Sequential};

/// Builds an MLP with ReLU between consecutive [`Dense`] layers.
///
/// # Panics
///
/// Panics if fewer than two dims are given.
///
/// # Example
///
/// ```
/// use comdml_nn::models;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let m = models::mlp(&[16, 32, 4], &mut rng);
/// assert_eq!(m.len(), 3); // dense, relu, dense
/// ```
pub fn mlp<R: Rng>(dims: &[usize], rng: &mut R) -> Sequential {
    assert!(dims.len() >= 2, "an MLP needs at least input and output dims");
    let mut model = Sequential::new();
    for (i, w) in dims.windows(2).enumerate() {
        model.push(Dense::new(w[0], w[1], rng));
        if i + 2 < dims.len() {
            model.push(Relu::new());
        }
    }
    model
}

/// A small CNN for `[batch, in_channels, 8, 8]` inputs: two conv/ReLU
/// stages with pooling, then a dense classifier.
pub fn tiny_cnn<R: Rng>(in_channels: usize, num_classes: usize, rng: &mut R) -> Sequential {
    let mut model = Sequential::new();
    model.push(Conv2d::new(in_channels, 8, 3, 1, 1, rng));
    model.push(Relu::new());
    model.push(AvgPool2d::new(2)); // 8x8 -> 4x4
    model.push(Conv2d::new(8, 16, 3, 1, 1, rng));
    model.push(Relu::new());
    model.push(Flatten::new());
    model.push(Dense::new(16 * 4 * 4, num_classes, rng));
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use comdml_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = mlp(&[10, 20, 5], &mut rng);
        let y = m.forward(&Tensor::zeros(&[3, 10])).unwrap();
        assert_eq!(y.shape(), &[3, 5]);
    }

    #[test]
    fn tiny_cnn_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = tiny_cnn(3, 10, &mut rng);
        let y = m.forward(&Tensor::zeros(&[2, 3, 8, 8])).unwrap();
        assert_eq!(y.shape(), &[2, 10]);
    }
}
