use comdml_tensor::{SgdMomentum, Tensor};

use crate::{CrossEntropyLoss, NnError, Sequential};

/// One plain (non-split) SGD training step: forward, cross-entropy,
/// backward, parameter update. Returns the batch loss.
///
/// # Errors
///
/// Propagates layer/loss errors.
///
/// # Example
///
/// ```
/// use comdml_nn::{models, train_step};
/// use comdml_tensor::{SgdMomentum, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut model = models::mlp(&[4, 8, 2], &mut rng);
/// let mut opt = SgdMomentum::new(0.05, 0.9);
/// let x = Tensor::randn(&[8, 4], 1.0, &mut rng);
/// let loss = train_step(&mut model, &x, &[0, 1, 0, 1, 0, 1, 0, 1], &mut opt)?;
/// assert!(loss.is_finite());
/// # Ok::<(), comdml_nn::NnError>(())
/// ```
pub fn train_step(
    model: &mut Sequential,
    x: &Tensor,
    labels: &[usize],
    opt: &mut SgdMomentum,
) -> Result<f32, NnError> {
    let logits = model.forward(x)?;
    let (loss, grad) = CrossEntropyLoss::evaluate(&logits, labels)?;
    model.backward(&grad)?;
    let mut params = model.parameters();
    let grads = model.gradients();
    opt.step(&mut params, &grads)?;
    model.set_parameters(&params)?;
    Ok(loss)
}

/// Classification accuracy of `model` on `(x, labels)`.
///
/// # Errors
///
/// Propagates layer errors; returns 0 accuracy for an empty batch.
pub fn accuracy(model: &mut Sequential, x: &Tensor, labels: &[usize]) -> Result<f32, NnError> {
    if labels.is_empty() {
        return Ok(0.0);
    }
    let logits = model.forward(x)?;
    let preds = logits.argmax_rows()?;
    let correct = preds.iter().zip(labels.iter()).filter(|(p, y)| p == y).count();
    Ok(correct as f32 / labels.len() as f32)
}

/// Convenience wrapper owning a model and its optimizer.
///
/// Used by the baselines and examples to train one agent's local model for
/// one epoch per round, matching the paper's "local epoch was consistently
/// set to one".
#[derive(Debug)]
pub struct Trainer {
    model: Sequential,
    opt: SgdMomentum,
}

impl Trainer {
    /// Wraps a model with an SGD-with-momentum optimizer.
    pub fn new(model: Sequential, lr: f32, momentum: f32) -> Self {
        Self { model, opt: SgdMomentum::new(lr, momentum) }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Sequential {
        &self.model
    }

    /// Mutable access to the wrapped model (e.g. for aggregation).
    pub fn model_mut(&mut self) -> &mut Sequential {
        &mut self.model
    }

    /// Trains on one batch, returning the loss.
    ///
    /// # Errors
    ///
    /// Propagates layer/loss errors.
    pub fn step(&mut self, x: &Tensor, labels: &[usize]) -> Result<f32, NnError> {
        train_step(&mut self.model, x, labels, &mut self.opt)
    }

    /// Trains one epoch over a list of batches, returning the mean loss.
    ///
    /// # Errors
    ///
    /// Propagates layer/loss errors.
    pub fn epoch(&mut self, batches: &[(Tensor, Vec<usize>)]) -> Result<f32, NnError> {
        if batches.is_empty() {
            return Ok(0.0);
        }
        let mut total = 0.0;
        for (x, y) in batches {
            total += self.step(x, y)?;
        }
        Ok(total / batches.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blobs(n_per_class: usize, rng: &mut StdRng) -> (Tensor, Vec<usize>) {
        // Two well-separated Gaussian blobs in 2-D.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for c in 0..2usize {
            let center = if c == 0 { -2.0f32 } else { 2.0 };
            for _ in 0..n_per_class {
                let noise = Tensor::randn(&[2], 0.5, rng);
                xs.push(center + noise.data()[0]);
                xs.push(center + noise.data()[1]);
                ys.push(c);
            }
        }
        (Tensor::from_vec(xs, &[2 * n_per_class, 2]).unwrap(), ys)
    }

    #[test]
    fn mlp_learns_separable_blobs() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut model = models::mlp(&[2, 8, 2], &mut rng);
        let mut opt = SgdMomentum::new(0.1, 0.9);
        let (x, y) = blobs(32, &mut rng);
        let first = train_step(&mut model, &x, &y, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..100 {
            last = train_step(&mut model, &x, &y, &mut opt).unwrap();
        }
        assert!(last < 0.1, "loss should collapse: {first} -> {last}");
        assert!(accuracy(&mut model, &x, &y).unwrap() > 0.95);
    }

    #[test]
    fn trainer_epoch_averages_losses() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = models::mlp(&[2, 4, 2], &mut rng);
        let mut trainer = Trainer::new(model, 0.05, 0.9);
        let (x, y) = blobs(8, &mut rng);
        let batches = vec![(x.clone(), y.clone()), (x, y)];
        let loss = trainer.epoch(&batches).unwrap();
        assert!(loss > 0.0 && loss.is_finite());
        assert_eq!(trainer.epoch(&[]).unwrap(), 0.0);
    }

    #[test]
    fn accuracy_on_empty_batch_is_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = models::mlp(&[2, 4, 2], &mut rng);
        let x = Tensor::zeros(&[0, 2]);
        assert_eq!(accuracy(&mut model, &x, &[]).unwrap(), 0.0);
    }
}
