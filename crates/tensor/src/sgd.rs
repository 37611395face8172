use crate::{Tensor, TensorError};

/// Stochastic gradient descent with momentum, the optimizer used throughout
/// the paper's experiments (momentum 0.9, initial learning rate 1e-3 —
/// §V-A "Hyper-parameters"; its decay-on-plateau schedule is not modelled).
///
/// The optimizer keeps one velocity buffer per parameter tensor and applies
/// the classic update
///
/// ```text
/// v ← μ·v + g
/// w ← w − η·v
/// ```
///
/// # Example
///
/// ```
/// use comdml_tensor::{SgdMomentum, Tensor};
///
/// let mut opt = SgdMomentum::new(0.1, 0.9);
/// let mut w = vec![Tensor::ones(&[2])];
/// let g = vec![Tensor::ones(&[2])];
/// opt.step(&mut w, &g)?;
/// assert!(w[0].data().iter().all(|&x| x < 1.0));
/// # Ok::<(), comdml_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl SgdMomentum {
    /// Creates an optimizer with the given learning rate and momentum.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive, or `momentum` is outside
    /// `[0, 1)`.
    pub fn new(lr: f32, momentum: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive, got {lr}");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1), got {momentum}");
        Self { lr, momentum, velocity: Vec::new() }
    }

    /// Applies one SGD-with-momentum update to `params` given `grads`.
    ///
    /// Velocity buffers are created lazily on first use and matched to the
    /// parameter list by position.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if `params` and `grads`
    /// differ in arity or any pair differs in shape.
    pub fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) -> Result<(), TensorError> {
        if params.len() != grads.len() {
            return Err(TensorError::IncompatibleShapes {
                op: "sgd_step",
                lhs: vec![params.len()],
                rhs: vec![grads.len()],
            });
        }
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        }
        for ((w, g), v) in params.iter_mut().zip(grads.iter()).zip(self.velocity.iter_mut()) {
            if w.shape() != g.shape() {
                return Err(TensorError::IncompatibleShapes {
                    op: "sgd_step",
                    lhs: w.shape().to_vec(),
                    rhs: g.shape().to_vec(),
                });
            }
            // v <- mu * v + g
            let mut new_v = v.scale(self.momentum);
            new_v.axpy(1.0, g)?;
            *v = new_v;
            // w <- w - lr * v
            w.axpy(-self.lr, v)?;
        }
        Ok(())
    }

    /// Clears the velocity buffers (used after model aggregation replaces
    /// parameters wholesale).
    pub fn reset(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_matches_hand_computation() {
        // momentum ~ 0 behaves as plain SGD: w <- w - lr * g
        let mut opt = SgdMomentum::new(0.5, 0.0);
        let mut w = vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()];
        let g = vec![Tensor::from_vec(vec![2.0, -2.0], &[2]).unwrap()];
        opt.step(&mut w, &g).unwrap();
        assert_eq!(w[0].data(), &[0.0, 3.0]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = SgdMomentum::new(1.0, 0.5);
        let mut w = vec![Tensor::zeros(&[1])];
        let g = vec![Tensor::ones(&[1])];
        opt.step(&mut w, &g).unwrap(); // v=1, w=-1
        opt.step(&mut w, &g).unwrap(); // v=1.5, w=-2.5
        assert!((w[0].data()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn step_converges_on_quadratic() {
        // minimize f(w) = w^2; gradient 2w
        let mut opt = SgdMomentum::new(0.1, 0.9);
        let mut w = vec![Tensor::from_vec(vec![5.0], &[1]).unwrap()];
        for _ in 0..200 {
            let g = vec![w[0].scale(2.0)];
            opt.step(&mut w, &g).unwrap();
        }
        assert!(w[0].data()[0].abs() < 1e-3);
    }

    #[test]
    fn step_rejects_mismatched_inputs() {
        let mut opt = SgdMomentum::new(0.1, 0.9);
        let mut w = vec![Tensor::zeros(&[2])];
        assert!(opt.step(&mut w, &[]).is_err());
        let g = vec![Tensor::zeros(&[3])];
        assert!(opt.step(&mut w, &g).is_err());
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_nonpositive_lr() {
        let _ = SgdMomentum::new(0.0, 0.9);
    }

    #[test]
    fn reset_clears_velocity() {
        let mut opt = SgdMomentum::new(1.0, 0.9);
        let mut w = vec![Tensor::zeros(&[1])];
        let g = vec![Tensor::ones(&[1])];
        opt.step(&mut w, &g).unwrap();
        opt.reset();
        // After reset the next step must behave like the first.
        let mut w2 = vec![Tensor::zeros(&[1])];
        opt.step(&mut w2, &g).unwrap();
        assert_eq!(w2[0].data()[0], -1.0);
    }
}
