use comdml_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// Patch shuffling (\[42\]): permutes square spatial patches of each image so
/// the intermediate representation no longer preserves global structure,
/// while local statistics (what early conv layers consume) survive.
///
/// # Example
///
/// ```
/// use comdml_privacy::PatchShuffler;
/// use comdml_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let shuffler = PatchShuffler::new(4);
/// let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
/// let shuffled = shuffler.shuffle(&x, &mut rng).unwrap();
/// assert_eq!(shuffled.shape(), x.shape());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchShuffler {
    patch: usize,
}

impl PatchShuffler {
    /// Creates a shuffler with `patch × patch` tiles.
    ///
    /// # Panics
    ///
    /// Panics if `patch` is zero.
    pub fn new(patch: usize) -> Self {
        assert!(patch > 0, "patch size must be positive");
        Self { patch }
    }

    /// Returns a copy of `[batch, c, h, w]` images with patches permuted
    /// independently per image (all channels move together, preserving
    /// pixel alignment across channels).
    ///
    /// Returns `None` if the input is not rank 4 or `h`/`w` are not
    /// divisible by the patch size.
    pub fn shuffle<R: Rng>(&self, images: &Tensor, rng: &mut R) -> Option<Tensor> {
        if images.rank() != 4 {
            return None;
        }
        let (b, c, h, w) =
            (images.shape()[0], images.shape()[1], images.shape()[2], images.shape()[3]);
        let p = self.patch;
        if h % p != 0 || w % p != 0 {
            return None;
        }
        let (gh, gw) = (h / p, w / p);
        let n_patches = gh * gw;
        let src = images.data();
        let mut out = vec![0.0f32; src.len()];
        for bi in 0..b {
            let mut perm: Vec<usize> = (0..n_patches).collect();
            perm.shuffle(rng);
            for (dst_patch, &src_patch) in perm.iter().enumerate() {
                let (dy, dx) = (dst_patch / gw, dst_patch % gw);
                let (sy, sx) = (src_patch / gw, src_patch % gw);
                for ci in 0..c {
                    for py in 0..p {
                        for px in 0..p {
                            let si = ((bi * c + ci) * h + sy * p + py) * w + sx * p + px;
                            let di = ((bi * c + ci) * h + dy * p + py) * w + dx * p + px;
                            out[di] = src[si];
                        }
                    }
                }
            }
        }
        Some(Tensor::from_vec(out, images.shape()).expect("same shape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shuffle_is_a_permutation_of_pixels() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[1, 1, 8, 8], 1.0, &mut rng);
        let s = PatchShuffler::new(2).shuffle(&x, &mut rng).unwrap();
        let mut a: Vec<f32> = x.data().to_vec();
        let mut b: Vec<f32> = s.data().to_vec();
        a.sort_by(f32::total_cmp);
        b.sort_by(f32::total_cmp);
        assert_eq!(a, b, "pixel multiset must be preserved");
    }

    #[test]
    fn channels_move_together() {
        let mut rng = StdRng::seed_from_u64(4);
        // Channel 1 = channel 0 + 100: the offset must survive shuffling.
        let base = Tensor::randn(&[1, 1, 4, 4], 1.0, &mut rng);
        let mut data = base.data().to_vec();
        data.extend(base.data().iter().map(|v| v + 100.0));
        let x = Tensor::from_vec(data, &[1, 2, 4, 4]).unwrap();
        let s = PatchShuffler::new(2).shuffle(&x, &mut rng).unwrap();
        for i in 0..16 {
            assert!((s.data()[i] + 100.0 - s.data()[16 + i]).abs() < 1e-6);
        }
    }

    #[test]
    fn indivisible_dims_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::zeros(&[1, 1, 6, 6]);
        assert!(PatchShuffler::new(4).shuffle(&x, &mut rng).is_none());
        let v = Tensor::zeros(&[4]);
        assert!(PatchShuffler::new(2).shuffle(&v, &mut rng).is_none());
    }

    #[test]
    fn whole_image_patch_is_identity() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let s = PatchShuffler::new(8).shuffle(&x, &mut rng).unwrap();
        assert_eq!(s, x);
    }
}
