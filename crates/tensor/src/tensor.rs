use std::fmt;

use rand::distributions::Distribution;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::TensorError;

/// A row-major dense tensor of `f32` values.
///
/// `Tensor` is the workhorse of the training engine: inputs, activations,
/// weights and gradients are all tensors. The shape is dynamic (a `Vec` of
/// dimension sizes) because split models cut networks at arbitrary layer
/// boundaries, so activation shapes are only known at runtime.
///
/// # Example
///
/// ```
/// use comdml_tensor::Tensor;
///
/// let x = Tensor::zeros(&[3, 4]);
/// assert_eq!(x.shape(), &[3, 4]);
/// assert_eq!(x.len(), 12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::ShapeMismatch { expected, actual: data.len() });
        }
        Ok(Self { data, shape: shape.to_vec() })
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self { data: vec![0.0; shape.iter().product()], shape: shape.to_vec() }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self { data: vec![1.0; shape.iter().product()], shape: shape.to_vec() }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self { data: vec![value; shape.iter().product()], shape: shape.to_vec() }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Samples a tensor from `N(0, std^2)` using the supplied RNG.
    ///
    /// Used for He/Xavier weight initialization in `comdml-nn`.
    pub fn randn<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let normal = rand::distributions::Uniform::new(0.0f32, 1.0f32);
        let n: usize = shape.iter().product();
        // Box-Muller transform: two uniforms -> one standard normal sample.
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = normal.sample(rng).max(1e-12);
            let u2: f32 = normal.sample(rng);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { data, shape: shape.to_vec() }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying data in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a reshaped copy sharing the same element order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::ShapeMismatch { expected, actual: self.data.len() });
        }
        Ok(Self { data: self.data.clone(), shape: shape.to_vec() })
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self, TensorError> {
        self.zip_with(other, "mul", |a, b| a * b)
    }

    /// In-place `self += alpha * other`, the fused update step used by SGD.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Self) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::IncompatibleShapes {
                op: "axpy",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a copy scaled by a constant.
    pub fn scale(&self, alpha: f32) -> Self {
        Self { data: self.data.iter().map(|v| v * alpha).collect(), shape: self.shape.clone() }
    }

    /// Applies a function element-wise.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Self {
        Self { data: self.data.iter().map(|&v| f(v)).collect(), shape: self.shape.clone() }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleShapes`] if lengths differ.
    pub fn dot(&self, other: &Self) -> Result<f32, TensorError> {
        if self.data.len() != other.data.len() {
            return Err(TensorError::IncompatibleShapes {
                op: "dot",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(self.data.iter().zip(other.data.iter()).map(|(a, b)| a * b).sum())
    }

    /// The L2 norm of the tensor viewed as a flat vector.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if either operand is not rank 2,
    /// or [`TensorError::IncompatibleShapes`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Self) -> Result<Self, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: self.rank(),
            });
        }
        if other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: other.rank(),
            });
        }
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        if k != k2 {
            return Err(TensorError::IncompatibleShapes {
                op: "matmul",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &self.data[i * k..(i + 1) * k];
            for (p, &a) in row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[p * n..(p + 1) * n];
                let orow = &mut out[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(Self { data: out, shape: vec![m, n] })
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Self, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(Self { data: out, shape: vec![n, m] })
    }

    /// Extracts row `i` of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::IndexOutOfBounds`] for a bad row index.
    pub fn row(&self, i: usize) -> Result<Self, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch { op: "row", expected: 2, actual: self.rank() });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        if i >= m {
            return Err(TensorError::IndexOutOfBounds { index: i, len: m });
        }
        Ok(Self { data: self.data[i * n..(i + 1) * n].to_vec(), shape: vec![n] })
    }

    /// Index of the maximum element of each row of a rank-2 tensor.
    ///
    /// Ties resolve to the lowest index. Used for classification argmax.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Self,
        op: &'static str,
        f: F,
    ) -> Result<Self, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::IncompatibleShapes {
                op,
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(Self {
            data: self.data.iter().zip(other.data.iter()).map(|(&a, &b)| f(a, b)).collect(),
            shape: self.shape.clone(),
        })
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_validates_shape() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert_eq!(err, TensorError::ShapeMismatch { expected: 6, actual: 5 });
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[4]).data().iter().all(|&v| v == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&v| v == 1.0));
        assert!(Tensor::full(&[4], 2.5).data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i3 = Tensor::eye(3);
        assert_eq!(a.matmul(&i3).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(a.matmul(&b), Err(TensorError::IncompatibleShapes { op: "matmul", .. })));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(v.matmul(&a), Err(TensorError::RankMismatch { .. })));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        assert!(a.add(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap();
        let g = Tensor::from_vec(vec![2.0, 4.0], &[2]).unwrap();
        a.axpy(-0.5, &g).unwrap();
        assert_eq!(a.data(), &[0.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(a.dot(&a).unwrap(), 30.0);
    }

    #[test]
    fn argmax_rows_breaks_ties_low() {
        let a = Tensor::from_vec(vec![0.0, 1.0, 1.0, 5.0, 2.0, 5.0], &[2, 3]).unwrap();
        assert_eq!(a.argmax_rows().unwrap(), vec![1, 0]);
    }

    #[test]
    fn randn_has_expected_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[10_000], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn row_extraction() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(a.row(1).unwrap().data(), &[3.0, 4.0, 5.0]);
        assert!(a.row(2).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
        assert!(a.reshape(&[4, 2]).is_err());
    }
}
