use comdml_tensor::{SgdMomentum, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{CrossEntropyLoss, Dense, GlobalAvgPool, Layer, NnError, Sequential};

/// The auxiliary network attached to the slow agent-side model (§III-B):
/// a global average pool (for spatial activations) followed by a fully
/// connected layer to the class logits, "following the approach in \[4\], \[15\]".
#[derive(Debug)]
pub struct AuxHead {
    pool: Option<GlobalAvgPool>,
    fc: Dense,
}

impl AuxHead {
    /// Builds an auxiliary head for activations of `activation_shape`
    /// (`[batch, c]` or `[batch, c, h, w]`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for unsupported activation ranks.
    pub fn for_activation<R: Rng>(
        activation_shape: &[usize],
        num_classes: usize,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        match activation_shape.len() {
            2 => Ok(Self { pool: None, fc: Dense::new(activation_shape[1], num_classes, rng) }),
            4 => Ok(Self {
                pool: Some(GlobalAvgPool::new()),
                fc: Dense::new(activation_shape[1], num_classes, rng),
            }),
            _ => Err(NnError::BadInput {
                layer: "aux_head",
                expected: "[batch, c] or [batch, c, h, w]".to_string(),
                got: activation_shape.to_vec(),
            }),
        }
    }

    /// Forward pass to logits.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward(&mut self, activation: &Tensor) -> Result<Tensor, NnError> {
        let pooled = match &mut self.pool {
            Some(p) => p.forward(activation)?,
            None => activation.clone(),
        };
        self.fc.forward(&pooled)
    }

    /// Backward pass from the logits gradient to the activation gradient.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Result<Tensor, NnError> {
        let g = self.fc.backward(grad_logits)?;
        match &mut self.pool {
            Some(p) => p.backward(&g),
            None => Ok(g),
        }
    }

    /// Clones of the head's parameters.
    pub fn parameters(&self) -> Vec<Tensor> {
        self.fc.parameters()
    }

    /// Clones of the head's gradients.
    pub fn gradients(&self) -> Vec<Tensor> {
        self.fc.gradients()
    }

    /// Overwrites the head's parameters.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn set_parameters(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        self.fc.set_parameters(params)
    }
}

/// A pair of SGD optimizers, one per side of the split.
#[derive(Debug, Clone)]
pub struct SgdPair {
    /// Optimizer for the slow side (prefix + auxiliary head).
    pub slow: SgdMomentum,
    /// Optimizer for the fast side (offloaded suffix).
    pub fast: SgdMomentum,
}

impl SgdPair {
    /// Creates both optimizers with the same hyper-parameters (the paper uses
    /// one global learning-rate schedule).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self { slow: SgdMomentum::new(lr, momentum), fast: SgdMomentum::new(lr, momentum) }
    }
}

/// Losses from one local-loss split training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitLosses {
    /// Cross-entropy of the slow side's auxiliary head.
    pub slow_loss: f32,
    /// Cross-entropy of the fast side's output head.
    pub fast_loss: f32,
}

/// Local-loss split training of one model cut in two (§III-B).
///
/// The slow side holds the first `L − offload` layers plus an [`AuxHead`];
/// the fast side holds the offloaded suffix. [`LocalLossSplit::train_step`]
/// performs the paper's parallel update: the slow side backpropagates only
/// through its auxiliary loss (eq. 2) and the fast side trains on the
/// *detached* intermediate activation `z` (eq. 3) — no gradient ever crosses
/// the cut, which is exactly why split communication stays unidirectional.
#[derive(Debug)]
pub struct LocalLossSplit {
    slow: Sequential,
    fast: Sequential,
    aux: Option<AuxHead>,
    aux_seed: u64,
    num_classes: usize,
    offload: usize,
    activation_noise_std: f32,
    noise_rng: StdRng,
}

impl LocalLossSplit {
    /// Cuts `model` so the last `offload` layers belong to the fast side.
    ///
    /// The auxiliary head is created lazily on the first forward pass, when
    /// the activation shape at the cut is known.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadSplit`] if `offload >= model.len()` — the slow
    /// agent must keep at least one layer (and with `offload = 0` use plain
    /// local training instead).
    pub fn from_sequential<R: Rng>(
        model: Sequential,
        offload: usize,
        num_classes: usize,
        rng: &mut R,
    ) -> Result<Self, NnError> {
        let layers = model.len();
        if offload >= layers {
            return Err(NnError::BadSplit { cut: offload, layers });
        }
        let (slow, fast) = model.split_at(layers - offload)?;
        let aux_seed: u64 = rng.gen();
        Ok(Self {
            slow,
            fast,
            aux: None,
            aux_seed,
            num_classes,
            offload,
            activation_noise_std: 0.0,
            noise_rng: StdRng::seed_from_u64(aux_seed ^ 0x9e37),
        })
    }

    /// Adds zero-mean Gaussian noise of the given standard deviation to the
    /// activation crossing the cut before the fast side consumes it — a
    /// practical stand-in for the distance-correlation-minimizing
    /// regularizers of §IV-C (noise at the cut directly lowers the dCor
    /// between raw inputs and what the fast agent observes).
    pub fn set_activation_noise(&mut self, std: f32, seed: u64) {
        self.activation_noise_std = std.max(0.0);
        self.noise_rng = StdRng::seed_from_u64(seed);
    }

    /// The slow-side activation for `x` (what would cross the cut), without
    /// protection noise — used by leakage metrics like distance correlation.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn slow_activation(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.slow.forward(x)
    }

    /// Number of offloaded layers.
    pub fn offload(&self) -> usize {
        self.offload
    }

    fn ensure_aux(&mut self, activation: &Tensor) -> Result<(), NnError> {
        if self.aux.is_none() {
            let mut rng = StdRng::seed_from_u64(self.aux_seed);
            self.aux =
                Some(AuxHead::for_activation(activation.shape(), self.num_classes, &mut rng)?);
        }
        Ok(())
    }

    /// One parallel local-loss update on a batch `(x, labels)`.
    ///
    /// Both sides are updated with their own optimizer; the activation
    /// crossing the cut is detached (no gradient flows back), mirroring the
    /// unidirectional communication of §III-B.
    ///
    /// # Errors
    ///
    /// Propagates layer/loss errors (bad shapes, bad labels).
    pub fn train_step(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        opts: &mut SgdPair,
    ) -> Result<SplitLosses, NnError> {
        // Slow side: forward to the cut, train via the auxiliary loss.
        let z = self.slow.forward(x)?;
        self.ensure_aux(&z)?;
        let aux = self.aux.as_mut().expect("aux initialized above");
        let logits = aux.forward(&z)?;
        let (slow_loss, grad_logits) = CrossEntropyLoss::evaluate(&logits, labels)?;
        let grad_z = aux.backward(&grad_logits)?;
        self.slow.backward(&grad_z)?;

        let mut slow_params = self.slow.parameters();
        slow_params.extend(aux.parameters());
        let mut slow_grads = self.slow.gradients();
        slow_grads.extend(aux.gradients());
        opts.slow.step(&mut slow_params, &slow_grads)?;
        let n_slow = self.slow.num_param_tensors();
        self.slow.set_parameters(&slow_params[..n_slow])?;
        aux.set_parameters(&slow_params[n_slow..])?;

        // Fast side: train on the detached activation. If nothing was
        // offloaded the fast side is empty and contributes no loss.
        let fast_loss = if self.fast.is_empty() {
            0.0
        } else {
            let z_detached = if self.activation_noise_std > 0.0 {
                let noise =
                    Tensor::randn(z.shape(), self.activation_noise_std, &mut self.noise_rng);
                z.add(&noise)?
            } else {
                z.clone()
            };
            let out = self.fast.forward(&z_detached)?;
            let (fast_loss, grad_out) = CrossEntropyLoss::evaluate(&out, labels)?;
            self.fast.backward(&grad_out)?;
            let mut fast_params = self.fast.parameters();
            let fast_grads = self.fast.gradients();
            opts.fast.step(&mut fast_params, &fast_grads)?;
            self.fast.set_parameters(&fast_params)?;
            fast_loss
        };

        Ok(SplitLosses { slow_loss, fast_loss })
    }

    /// Full-model inference: slow prefix then fast suffix (the deployed
    /// model has no auxiliary head).
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn predict(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let z = self.slow.forward(x)?;
        if self.fast.is_empty() {
            Ok(z)
        } else {
            self.fast.forward(&z)
        }
    }

    /// Clones of the *global-model* parameters (slow prefix + fast suffix,
    /// excluding the auxiliary head) — the payload that AllReduce averages.
    pub fn full_parameters(&self) -> Vec<Tensor> {
        let mut p = self.slow.parameters();
        p.extend(self.fast.parameters());
        p
    }

    /// Overwrites the global-model parameters (same order as
    /// [`LocalLossSplit::full_parameters`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] on arity mismatch.
    pub fn set_full_parameters(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        let n_slow = self.slow.num_param_tensors();
        let n_fast = self.fast.num_param_tensors();
        if params.len() != n_slow + n_fast {
            return Err(NnError::BadInput {
                layer: "local_loss_split",
                expected: format!("{} parameter tensors", n_slow + n_fast),
                got: vec![params.len()],
            });
        }
        self.slow.set_parameters(&params[..n_slow])?;
        self.fast.set_parameters(&params[n_slow..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use rand::rngs::StdRng;

    fn xor_batch() -> (Tensor, Vec<usize>) {
        // A linearly non-separable toy task: class = parity of signs.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let pts: [(f32, f32); 4] = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)];
        for rep in 0..16 {
            for (i, &(a, b)) in pts.iter().enumerate() {
                let jitter = (rep as f32) * 0.001;
                xs.extend_from_slice(&[a + jitter, b - jitter]);
                ys.push(if i == 1 || i == 2 { 1 } else { 0 });
            }
        }
        (Tensor::from_vec(xs, &[64, 2]).unwrap(), ys)
    }

    #[test]
    fn both_sides_learn_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = models::mlp(&[2, 16, 16, 2], &mut rng);
        // Offload the last dense layer (and its preceding ReLU).
        let mut split = LocalLossSplit::from_sequential(model, 2, 2, &mut rng).unwrap();
        let (x, y) = xor_batch();
        let mut opts = SgdPair::new(0.1, 0.9);
        let first = split.train_step(&x, &y, &mut opts).unwrap();
        let mut last = first;
        for _ in 0..300 {
            last = split.train_step(&x, &y, &mut opts).unwrap();
        }
        assert!(last.slow_loss < first.slow_loss * 0.5, "slow: {first:?} -> {last:?}");
        assert!(last.fast_loss < 0.2, "fast side should fit XOR, got {last:?}");
    }

    #[test]
    fn predict_uses_both_sides() {
        let mut rng = StdRng::seed_from_u64(8);
        let model = models::mlp(&[4, 8, 3], &mut rng);
        let mut split = LocalLossSplit::from_sequential(model, 1, 3, &mut rng).unwrap();
        let x = Tensor::zeros(&[2, 4]);
        let out = split.predict(&x).unwrap();
        assert_eq!(out.shape(), &[2, 3]);
    }

    #[test]
    fn offloading_whole_model_is_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let model = models::mlp(&[4, 8, 3], &mut rng);
        let n = model.len();
        assert!(matches!(
            LocalLossSplit::from_sequential(model, n, 3, &mut rng),
            Err(NnError::BadSplit { .. })
        ));
    }

    #[test]
    fn full_parameters_round_trip() {
        let mut rng = StdRng::seed_from_u64(10);
        let model = models::mlp(&[4, 8, 3], &mut rng);
        let mut split = LocalLossSplit::from_sequential(model, 1, 3, &mut rng).unwrap();
        let params = split.full_parameters();
        let doubled: Vec<Tensor> = params.iter().map(|p| p.scale(2.0)).collect();
        split.set_full_parameters(&doubled).unwrap();
        assert_eq!(split.full_parameters()[0], params[0].scale(2.0));
    }

    #[test]
    fn zero_offload_trains_slow_side_only() {
        let mut rng = StdRng::seed_from_u64(11);
        let model = models::mlp(&[2, 8, 2], &mut rng);
        let mut split = LocalLossSplit::from_sequential(model, 0, 2, &mut rng).unwrap();
        let (x, y) = xor_batch();
        let mut opts = SgdPair::new(0.05, 0.9);
        let losses = split.train_step(&x, &y, &mut opts).unwrap();
        assert_eq!(losses.fast_loss, 0.0);
        assert!(losses.slow_loss > 0.0);
    }

    #[test]
    fn cnn_split_trains_with_spatial_aux_head() {
        let mut rng = StdRng::seed_from_u64(12);
        let model = models::tiny_cnn(1, 3, &mut rng);
        // Cut inside the conv stack so the aux head needs pooling.
        let mut split = LocalLossSplit::from_sequential(model, 4, 3, &mut rng).unwrap();
        let x = Tensor::randn(&[6, 1, 8, 8], 1.0, &mut rng);
        let y = vec![0, 1, 2, 0, 1, 2];
        let mut opts = SgdPair::new(0.05, 0.9);
        let mut losses = split.train_step(&x, &y, &mut opts).unwrap();
        for _ in 0..30 {
            losses = split.train_step(&x, &y, &mut opts).unwrap();
        }
        assert!(losses.slow_loss.is_finite() && losses.fast_loss.is_finite());
    }
}
