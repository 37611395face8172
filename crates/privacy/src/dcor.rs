use comdml_tensor::Tensor;

/// Sample distance correlation between two batches of vectors
/// (Székely's dCor, the quantity NoPeek \[43\] minimizes between raw inputs
/// and intermediate activations).
///
/// Both tensors are interpreted as `[batch, features]` (higher-rank tensors
/// are flattened per sample). Returns a value in `[0, 1]`; 0 means
/// statistically unrelated, 1 means one is a deterministic affine-distance
/// function of the other.
///
/// Returns `None` if the batch sizes differ or the batch is smaller than 2.
///
/// # Example
///
/// ```
/// use comdml_privacy::distance_correlation;
/// use comdml_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[4, 1]).unwrap();
/// let dcor_self = distance_correlation(&x, &x).unwrap();
/// assert!(dcor_self > 0.99);
/// ```
pub fn distance_correlation(x: &Tensor, z: &Tensor) -> Option<f64> {
    let n = *x.shape().first()?;
    if n < 2 || z.shape().first() != Some(&n) {
        return None;
    }
    let dx = centered_distance_matrix(x, n);
    let dz = centered_distance_matrix(z, n);
    let mut dcov_xz = 0.0;
    let mut dvar_x = 0.0;
    let mut dvar_z = 0.0;
    for i in 0..n * n {
        dcov_xz += dx[i] * dz[i];
        dvar_x += dx[i] * dx[i];
        dvar_z += dz[i] * dz[i];
    }
    let denom = (dvar_x * dvar_z).sqrt();
    if denom <= 1e-12 {
        return Some(0.0);
    }
    Some((dcov_xz / denom).clamp(0.0, 1.0).sqrt())
}

fn centered_distance_matrix(t: &Tensor, n: usize) -> Vec<f64> {
    let f = t.len() / n;
    let data = t.data();
    let mut d = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let a = &data[i * f..(i + 1) * f];
            let b = &data[j * f..(j + 1) * f];
            let dist =
                a.iter().zip(b.iter()).map(|(&x, &y)| ((x - y) as f64).powi(2)).sum::<f64>().sqrt();
            d[i * n + j] = dist;
            d[j * n + i] = dist;
        }
    }
    // Double centering: d_ij - row_mean_i - col_mean_j + grand_mean.
    let row_means: Vec<f64> =
        (0..n).map(|i| d[i * n..(i + 1) * n].iter().sum::<f64>() / n as f64).collect();
    let grand = row_means.iter().sum::<f64>() / n as f64;
    for i in 0..n {
        for j in 0..n {
            d[i * n + j] = d[i * n + j] - row_means[i] - row_means[j] + grand;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identical_batches_have_dcor_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[16, 8], 1.0, &mut rng);
        let d = distance_correlation(&x, &x).unwrap();
        assert!(d > 0.999, "dCor(x, x) = {d}");
    }

    #[test]
    fn independent_batches_have_lower_dcor_than_dependent() {
        // The naive sample estimator is biased upward at finite n, so test
        // the *ordering* rather than an absolute threshold.
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(&[64, 8], 1.0, &mut rng);
        let z_indep = Tensor::randn(&[64, 8], 1.0, &mut rng);
        let d_indep = distance_correlation(&x, &z_indep).unwrap();
        let d_dep = distance_correlation(&x, &x.scale(2.0)).unwrap();
        assert!(d_indep < 0.7, "independent dCor = {d_indep}");
        assert!(d_dep > d_indep + 0.25, "dep {d_dep} vs indep {d_indep}");
    }

    #[test]
    fn linear_transform_keeps_high_dcor() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[32, 4], 1.0, &mut rng);
        let z = x.scale(3.0);
        let d = distance_correlation(&x, &z).unwrap();
        assert!(d > 0.99, "scaled dCor = {d}");
    }

    #[test]
    fn noise_reduces_dcor() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(&[48, 6], 1.0, &mut rng);
        let clean = distance_correlation(&x, &x).unwrap();
        let noisy_z = x.add(&Tensor::randn(&[48, 6], 3.0, &mut rng)).unwrap();
        let noisy = distance_correlation(&x, &noisy_z).unwrap();
        assert!(noisy < clean, "noise should hide information: {noisy} vs {clean}");
    }

    #[test]
    fn mismatched_batches_rejected() {
        let x = Tensor::zeros(&[4, 2]);
        let z = Tensor::zeros(&[5, 2]);
        assert!(distance_correlation(&x, &z).is_none());
        assert!(distance_correlation(&Tensor::zeros(&[1, 2]), &Tensor::zeros(&[1, 2])).is_none());
    }

    #[test]
    fn constant_batch_has_zero_dcor() {
        let x = Tensor::ones(&[8, 3]);
        let mut rng = StdRng::seed_from_u64(5);
        let z = Tensor::randn(&[8, 3], 1.0, &mut rng);
        assert_eq!(distance_correlation(&x, &z).unwrap(), 0.0);
    }
}
