//! Property tests: every AllReduce implementation equals the arithmetic mean.

use comdml_collective::{
    halving_doubling_allreduce, naive_allreduce, ring_allreduce, Int8Quantizer,
};
use proptest::prelude::*;

fn bufs_strategy() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (1usize..12, 1usize..40).prop_flat_map(|(k, n)| {
        prop::collection::vec(prop::collection::vec(-100.0f32..100.0, n), k)
    })
}

fn mean_of(bufs: &[Vec<f32>]) -> Vec<f32> {
    let n = bufs[0].len();
    let mut m = vec![0.0f64; n];
    for b in bufs {
        for (acc, &v) in m.iter_mut().zip(b.iter()) {
            *acc += v as f64;
        }
    }
    m.into_iter().map(|v| (v / bufs.len() as f64) as f32).collect()
}

proptest! {
    #[test]
    fn ring_equals_mean(mut bufs in bufs_strategy()) {
        let expect = mean_of(&bufs);
        ring_allreduce(&mut bufs).unwrap();
        for b in &bufs {
            for (x, y) in b.iter().zip(expect.iter()) {
                prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn halving_doubling_equals_mean(mut bufs in bufs_strategy()) {
        let expect = mean_of(&bufs);
        halving_doubling_allreduce(&mut bufs).unwrap();
        for b in &bufs {
            for (x, y) in b.iter().zip(expect.iter()) {
                prop_assert!((x - y).abs() < 1e-2, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn all_algorithms_agree(mut a in bufs_strategy()) {
        let mut b = a.clone();
        let mut c = a.clone();
        naive_allreduce(&mut a).unwrap();
        ring_allreduce(&mut b).unwrap();
        halving_doubling_allreduce(&mut c).unwrap();
        for ((x, y), z) in a.iter().zip(b.iter()).zip(c.iter()) {
            for ((xv, yv), zv) in x.iter().zip(y.iter()).zip(z.iter()) {
                prop_assert!((xv - yv).abs() < 1e-2);
                prop_assert!((xv - zv).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn quantizer_error_within_bound(values in prop::collection::vec(-50.0f32..50.0, 1..128)) {
        let q = Int8Quantizer::fit(&values);
        let restored = q.dequantize(&q.quantize(&values));
        for (a, b) in values.iter().zip(restored.iter()) {
            prop_assert!((a - b).abs() <= q.max_error() + 1e-5);
        }
    }
}
