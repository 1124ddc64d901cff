//! The dense tensor type and its structural operations.

use crate::dtype::{quantize, DType};
use crate::error::{Result, TensorError};
use crate::rng::SeededRng;
use crate::shape::Shape;

/// A dense, row-major, CPU-resident tensor.
///
/// Values are held as `f32`; [`DType`] records the storage format charged by
/// the simulator's memory model (and can be materialized with
/// [`Tensor::quantized`]).
///
/// ```
/// use gaudi_tensor::{ops, Tensor};
///
/// let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// let b = Tensor::ones(&[3, 2])?;
/// let c = ops::matmul(&a, &b)?;
/// assert_eq!(c.dims(), &[2, 2]);
/// assert_eq!(c.data(), &[6.0, 6.0, 15.0, 15.0]);
/// # Ok::<(), gaudi_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    dtype: DType,
    data: Vec<f32>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor({} {}", self.shape, self.dtype)?;
        if self.numel() <= 8 {
            write!(f, " {:?}", self.data)?;
        }
        write!(f, ")")
    }
}

impl Tensor {
    /// Build a tensor from a flat row-major buffer.
    pub fn from_vec(dims: &[usize], data: Vec<f32>) -> Result<Self> {
        let shape = Shape::new(dims)?;
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            dtype: DType::F32,
            data,
        })
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims)?;
        Ok(Tensor {
            shape,
            dtype: DType::F32,
            data: vec![0.0; shape.numel()],
        })
    }

    /// All-ones tensor (`torch.ones_like` analog when given another tensor's
    /// dims; used by FAVOR's normalizer in Listing 1 of the paper).
    pub fn ones(dims: &[usize]) -> Result<Self> {
        Self::full(dims, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(dims: &[usize], value: f32) -> Result<Self> {
        let shape = Shape::new(dims)?;
        Ok(Tensor {
            shape,
            dtype: DType::F32,
            data: vec![value; shape.numel()],
        })
    }

    /// Tensor of standard-normal samples scaled by `std`.
    pub fn randn(dims: &[usize], std: f32, rng: &mut SeededRng) -> Result<Self> {
        let shape = Shape::new(dims)?;
        let mut data = vec![0.0f32; shape.numel()];
        rng.fill_normal(&mut data, std);
        Ok(Tensor {
            shape,
            dtype: DType::F32,
            data,
        })
    }

    /// A `ones_like` convenience mirroring `torch.ones_like`.
    pub fn ones_like(other: &Tensor) -> Self {
        Tensor {
            shape: other.shape,
            dtype: other.dtype,
            data: vec![1.0; other.numel()],
        }
    }

    /// A `zeros_like` convenience.
    pub fn zeros_like(other: &Tensor) -> Self {
        Tensor {
            shape: other.shape,
            dtype: other.dtype,
            data: vec![0.0; other.numel()],
        }
    }

    /// Shape accessor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimensions as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Storage dtype.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Borrow the underlying buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, yielding its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Return a copy re-tagged (and value-rounded) to the given dtype.
    pub fn quantized(&self, dtype: DType) -> Tensor {
        let data = self.data.iter().map(|&x| quantize(x, dtype)).collect();
        Tensor {
            shape: self.shape,
            dtype,
            data,
        }
    }

    /// Element access by multi-dimensional index.
    pub fn at(&self, coords: &[usize]) -> f32 {
        debug_assert_eq!(coords.len(), self.shape.rank());
        let strides = self.shape.strides();
        let idx: usize = coords.iter().zip(strides.iter()).map(|(c, s)| c * s).sum();
        self.data[idx]
    }

    /// Reshape to a new shape with the same element count.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let shape = Shape::new(dims)?;
        if shape.numel() != self.numel() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape,
                to: shape,
            });
        }
        Ok(Tensor {
            shape,
            dtype: self.dtype,
            data: self.data.clone(),
        })
    }

    /// Transpose (swap) the last two dimensions, materializing the result.
    /// Mirrors `tensor.transpose(-2, -1)` in the paper's FAVOR listing.
    pub fn transpose_last2(&self) -> Result<Tensor> {
        let rank = self.shape.rank();
        if rank < 2 {
            return Err(TensorError::AxisOutOfRange { axis: 1, rank });
        }
        let (batch, m, n) = self.shape.as_batched_matrix().unwrap();
        let mut out_dims: Vec<usize> = self.dims().to_vec();
        out_dims.swap(rank - 2, rank - 1);
        let mut out = vec![0.0f32; self.numel()];
        for b in 0..batch {
            let src = &self.data[b * m * n..(b + 1) * m * n];
            let dst = &mut out[b * m * n..(b + 1) * m * n];
            for i in 0..m {
                for j in 0..n {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
        Tensor::from_vec(&out_dims, out)
    }

    /// Split the last dimension into two equal halves, returning `(a, b)`.
    /// This is the structural half of GLU: `glu(x) = a * sigmoid(b)`.
    pub fn split_last_dim(&self) -> Result<(Tensor, Tensor)> {
        let d = self.shape.last_dim();
        if !d.is_multiple_of(2) {
            return Err(TensorError::OddSplitDim { dim: d });
        }
        let half = d / 2;
        let rows = self.shape.rows();
        let mut a = vec![0.0f32; rows * half];
        let mut b = vec![0.0f32; rows * half];
        for r in 0..rows {
            let row = &self.data[r * d..(r + 1) * d];
            a[r * half..(r + 1) * half].copy_from_slice(&row[..half]);
            b[r * half..(r + 1) * half].copy_from_slice(&row[half..]);
        }
        let mut dims: Vec<usize> = self.dims().to_vec();
        *dims.last_mut().unwrap() = half;
        Ok((Tensor::from_vec(&dims, a)?, Tensor::from_vec(&dims, b)?))
    }

    /// Maximum absolute difference against another tensor of identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "max_abs_diff requires equal shapes"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// True if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(&[2, 3]).unwrap();
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[4]).unwrap();
        assert!(o.data().iter().all(|&x| x == 1.0));
        let f = Tensor::full(&[2, 2], 3.5).unwrap();
        assert_eq!(f.at(&[1, 1]), 3.5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[6], (0..6).map(|i| i as f32).collect())
            .unwrap()
            .reshape(&[2, 3])
            .unwrap();
        assert_eq!(t.at(&[1, 2]), 5.0);
        assert!(t.reshape(&[4]).is_err());
    }

    #[test]
    fn transpose_last2_2d() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let tt = t.transpose_last2().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[0, 1]), 4.0);
        assert_eq!(tt.at(&[2, 0]), 3.0);
    }

    #[test]
    fn transpose_last2_batched_and_involutive() {
        let mut rng = SeededRng::new(5);
        let t = Tensor::randn(&[3, 4, 5], 1.0, &mut rng).unwrap();
        let back = t.transpose_last2().unwrap().transpose_last2().unwrap();
        assert_eq!(t.max_abs_diff(&back), 0.0);
    }

    #[test]
    fn split_last_dim_halves() {
        let t = Tensor::from_vec(&[2, 4], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]).unwrap();
        let (a, b) = t.split_last_dim().unwrap();
        assert_eq!(a.data(), &[0.0, 1.0, 4.0, 5.0]);
        assert_eq!(b.data(), &[2.0, 3.0, 6.0, 7.0]);
        assert!(Tensor::zeros(&[2, 3]).unwrap().split_last_dim().is_err());
    }

    #[test]
    fn storage_bytes_follow_dtype() {
        let storage_bytes = |t: &Tensor| t.numel() * t.dtype().size_of();
        let t = Tensor::zeros(&[10]).unwrap();
        assert_eq!(storage_bytes(&t), 40);
        assert_eq!(storage_bytes(&t.quantized(DType::BF16)), 20);
    }

    #[test]
    fn quantized_bf16_rounds_values() {
        let t = Tensor::from_vec(&[2], vec![1.0, 1.0 + 1e-4]).unwrap();
        let q = t.quantized(DType::BF16);
        assert_eq!(q.data()[0], 1.0);
        assert_eq!(q.data()[1], 1.0); // 1.0001 rounds to 1.0 in bf16
    }

    #[test]
    fn ones_like_matches_shape_and_dtype() {
        let t = Tensor::zeros(&[2, 5]).unwrap().quantized(DType::BF16);
        let o = Tensor::ones_like(&t);
        assert_eq!(o.dims(), &[2, 5]);
        assert_eq!(o.dtype(), DType::BF16);
        assert!(o.data().iter().all(|&x| x == 1.0));
    }
}
