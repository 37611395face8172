use comdml_tensor::Tensor;

use crate::{Layer, NnError, Sequential};

/// A residual block: `y = body(x) + x`, the structural motif of the paper's
/// ResNet-56/110 models.
///
/// The wrapped body must preserve the input shape (identity shortcut only;
/// a downsampling block's projection shortcut would be a plain strided
/// convolution outside the block).
#[derive(Debug)]
pub struct Residual {
    body: Sequential,
}

impl Residual {
    /// Wraps `body` in an identity shortcut.
    pub fn new(body: Sequential) -> Self {
        Self { body }
    }

    /// The wrapped body.
    pub fn body(&self) -> &Sequential {
        &self.body
    }
}

impl Layer for Residual {
    fn name(&self) -> &'static str {
        "residual"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = self.body.forward(input)?;
        if out.shape() != input.shape() {
            return Err(NnError::BadInput {
                layer: "residual",
                expected: format!("body preserving shape {:?}", input.shape()),
                got: out.shape().to_vec(),
            });
        }
        Ok(out.add(input)?)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let g_body = self.body.backward(grad_out)?;
        Ok(g_body.add(grad_out)?)
    }

    fn parameters(&self) -> Vec<Tensor> {
        self.body.parameters()
    }

    fn gradients(&self) -> Vec<Tensor> {
        self.body.gradients()
    }

    fn set_parameters(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        self.body.set_parameters(params)
    }

    fn num_param_tensors(&self) -> usize {
        self.body.num_param_tensors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block(rng: &mut StdRng) -> Residual {
        let mut body = Sequential::new();
        body.push(Conv2d::new(2, 2, 3, 1, 1, rng));
        body.push(Relu::new());
        body.push(Conv2d::new(2, 2, 3, 1, 1, rng));
        Residual::new(body)
    }

    #[test]
    fn zero_body_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut res = block(&mut rng);
        // Zero the body weights so body(x) == 0 and y == x.
        let zeros: Vec<Tensor> =
            res.parameters().iter().map(|p| Tensor::zeros(p.shape())).collect();
        res.set_parameters(&zeros).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = res.forward(&x).unwrap();
        for (a, b) in y.data().iter().zip(x.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_adds_identity_gradient() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut res = block(&mut rng);
        let zeros: Vec<Tensor> =
            res.parameters().iter().map(|p| Tensor::zeros(p.shape())).collect();
        res.set_parameters(&zeros).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        res.forward(&x).unwrap();
        let g = Tensor::ones(&[1, 2, 4, 4]);
        let gx = res.backward(&g).unwrap();
        // With a zero body (and ReLU of 0 passing no gradient), only the
        // shortcut carries gradient: gx == g.
        for (a, b) in gx.data().iter().zip(g.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn shape_changing_body_is_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut body = Sequential::new();
        body.push(Conv2d::new(2, 4, 3, 1, 1, &mut rng)); // changes channels
        let mut res = Residual::new(body);
        assert!(res.forward(&Tensor::zeros(&[1, 2, 4, 4])).is_err());
    }
}
