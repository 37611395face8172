use comdml_tensor::Tensor;

use crate::{Layer, NnError};

/// An ordered pipeline of layers — the model container that split training
/// cuts into a slow-side prefix and fast-side suffix.
///
/// # Example
///
/// ```
/// use comdml_nn::{Dense, Relu, Sequential};
/// use comdml_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut model = Sequential::new();
/// model.push(Dense::new(4, 8, &mut rng));
/// model.push(Relu::new());
/// model.push(Dense::new(8, 2, &mut rng));
/// let y = model.forward(&Tensor::zeros(&[5, 4]))?;
/// assert_eq!(y.shape(), &[5, 2]);
/// # Ok::<(), comdml_nn::NnError>(())
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Splits the model at `cut`, returning `(prefix, suffix)` where the
    /// prefix keeps the first `cut` layers. Either side may be empty.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadSplit`] if `cut > len()`.
    pub fn split_at(self, cut: usize) -> Result<(Sequential, Sequential), NnError> {
        if cut > self.layers.len() {
            return Err(NnError::BadSplit { cut, layers: self.layers.len() });
        }
        let mut layers = self.layers;
        let suffix = layers.split_off(cut);
        Ok((Sequential { layers }, Sequential { layers: suffix }))
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Runs the full backward pass, returning the gradient w.r.t. the input.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (e.g. backward before forward).
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Clones of all parameters, layer by layer.
    pub fn parameters(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }

    /// Clones of all gradients from the last backward pass.
    pub fn gradients(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.gradients()).collect()
    }

    /// Total number of parameter tensors.
    pub fn num_param_tensors(&self) -> usize {
        self.layers.iter().map(|l| l.num_param_tensors()).sum()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.parameters().iter().map(Tensor::len).sum()
    }

    /// Overwrites all parameters (same order as [`Sequential::parameters`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the arity does not match, or a layer
    /// error on shape mismatch.
    pub fn set_parameters(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        let expected: usize = self.layers.iter().map(|l| l.num_param_tensors()).sum();
        if params.len() != expected {
            return Err(NnError::BadInput {
                layer: "sequential",
                expected: format!("{expected} parameter tensors"),
                got: vec![params.len()],
            });
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            let n = layer.num_param_tensors();
            layer.set_parameters(&params[offset..offset + n])?;
            offset += n;
        }
        Ok(())
    }

    /// Infers the output shape for a given input shape by running a
    /// single-sample forward pass on zeros (used to size auxiliary heads).
    ///
    /// # Errors
    ///
    /// Propagates layer errors from the probe forward pass.
    pub fn infer_output_shape(&mut self, input_shape: &[usize]) -> Result<Vec<usize>, NnError> {
        let mut probe_shape = input_shape.to_vec();
        probe_shape[0] = 1;
        let out = self.forward(&Tensor::zeros(&probe_shape))?;
        Ok(out.shape().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(rng: &mut StdRng) -> Sequential {
        let mut m = Sequential::new();
        m.push(Dense::new(3, 5, rng));
        m.push(Relu::new());
        m.push(Dense::new(5, 2, rng));
        m
    }

    #[test]
    fn forward_chains_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = model(&mut rng);
        let y = m.forward(&Tensor::zeros(&[4, 3])).unwrap();
        assert_eq!(y.shape(), &[4, 2]);
    }

    #[test]
    fn parameters_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = model(&mut rng);
        let params = m.parameters();
        assert_eq!(params.len(), 4);
        let doubled: Vec<Tensor> = params.iter().map(|p| p.scale(2.0)).collect();
        m.set_parameters(&doubled).unwrap();
        assert_eq!(m.parameters()[0], params[0].scale(2.0));
    }

    #[test]
    fn set_parameters_validates_arity() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = model(&mut rng);
        assert!(m.set_parameters(&[]).is_err());
    }

    #[test]
    fn split_at_partitions_layers() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = model(&mut rng);
        let (pre, suf) = m.split_at(1).unwrap();
        assert_eq!(pre.len(), 1);
        assert_eq!(suf.len(), 2);
    }

    #[test]
    fn split_beyond_len_fails() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = model(&mut rng);
        assert!(matches!(m.split_at(9), Err(NnError::BadSplit { cut: 9, layers: 3 })));
    }

    #[test]
    fn split_then_chain_equals_original() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = model(&mut rng);
        let x = Tensor::randn(&[2, 3], 1.0, &mut rng);
        let y_full = m.forward(&x).unwrap();
        let (mut pre, mut suf) = m.split_at(2).unwrap();
        let mid = pre.forward(&x).unwrap();
        let y_split = suf.forward(&mid).unwrap();
        for (a, b) in y_full.data().iter().zip(y_split.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn infer_output_shape_uses_single_sample() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = model(&mut rng);
        assert_eq!(m.infer_output_shape(&[64, 3]).unwrap(), vec![1, 2]);
    }

    #[test]
    fn num_params_counts_scalars() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = model(&mut rng);
        assert_eq!(m.num_params(), 3 * 5 + 5 + 5 * 2 + 2);
    }
}
