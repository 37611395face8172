use rand::Rng;

/// The Laplace mechanism: adds `Lap(0, sensitivity/ε)` noise to each value
/// — ε-differential privacy for the released parameters (\[39\]; the paper's
/// §V-B.4 uses ε = 0.5).
///
/// # Example
///
/// ```
/// use comdml_privacy::LaplaceMechanism;
///
/// let mech = LaplaceMechanism::new(0.5, 1.0);
/// assert!((mech.scale() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Creates the mechanism.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` or `sensitivity` is not positive.
    pub fn new(epsilon: f64, sensitivity: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive, got {epsilon}");
        assert!(sensitivity > 0.0, "sensitivity must be positive, got {sensitivity}");
        Self { epsilon, sensitivity }
    }

    /// The privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The Laplace scale `b = sensitivity / ε`.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// Adds independent Laplace noise to every value in place.
    pub fn privatize<R: Rng>(&self, values: &mut [f32], rng: &mut R) {
        let b = self.scale();
        for v in values.iter_mut() {
            // Inverse-CDF sampling: u ~ U(-1/2, 1/2),
            // x = -b * sign(u) * ln(1 - 2|u|).
            let u: f64 = rng.gen::<f64>() - 0.5;
            let noise = -b * u.signum() * (1.0 - 2.0 * u.abs()).max(1e-300).ln();
            *v += noise as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_noise_has_expected_scale() {
        let mech = LaplaceMechanism::new(0.5, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut values = vec![0.0f32; 50_000];
        mech.privatize(&mut values, &mut rng);
        // Laplace(b): E|X| = b = 2.0 here.
        let mean_abs: f64 =
            values.iter().map(|v| v.abs() as f64).sum::<f64>() / values.len() as f64;
        assert!((mean_abs - 2.0).abs() < 0.1, "mean |noise| {mean_abs}");
    }

    #[test]
    fn smaller_epsilon_means_more_noise() {
        let strict = LaplaceMechanism::new(0.1, 1.0);
        let loose = LaplaceMechanism::new(10.0, 1.0);
        assert!(strict.scale() > loose.scale());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_zero_epsilon() {
        let _ = LaplaceMechanism::new(0.0, 1.0);
    }
}
