//! Tensor shapes limited to the 1–5 dimensions the Gaudi TPC can address.

use crate::error::{Result, TensorError};
use std::fmt;

/// Maximum tensor rank supported by Gaudi's tensor-addressing hardware.
pub const MAX_RANK: usize = 5;

/// A row-major tensor shape of rank 1..=5.
///
/// Stored inline (no heap allocation) since the rank is bounded.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Build a shape, validating the rank bound.
    pub fn new(dims: &[usize]) -> Result<Self> {
        if dims.is_empty() || dims.len() > MAX_RANK {
            return Err(TensorError::RankOutOfRange { rank: dims.len() });
        }
        let mut d = [1usize; MAX_RANK];
        d[..dims.len()].copy_from_slice(dims);
        Ok(Shape {
            dims: d,
            rank: dims.len(),
        })
    }

    /// Build a shape, panicking on an invalid rank. Intended for literals in
    /// tests and examples where the rank is statically obvious.
    pub fn of(dims: &[usize]) -> Self {
        Self::new(dims).expect("valid shape literal")
    }

    /// The dimensions as a slice of length `rank()`.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// The dimensions, editable in place: shape inference derives an
    /// output shape from a copy of an operand's without a heap buffer. The
    /// rank stays fixed.
    pub fn dims_mut(&mut self) -> &mut [usize] {
        &mut self.dims[..self.rank]
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Size of dimension `axis`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims()[axis]
    }

    /// Row-major strides (in elements).
    pub fn strides(&self) -> [usize; MAX_RANK] {
        let mut s = [0usize; MAX_RANK];
        let mut acc = 1usize;
        for i in (0..self.rank).rev() {
            s[i] = acc;
            acc *= self.dims[i];
        }
        s
    }

    /// The last dimension (innermost, contiguous).
    pub fn last_dim(&self) -> usize {
        self.dims[self.rank - 1]
    }

    /// Product of all dimensions except the last: the number of contiguous
    /// rows, which is how the TPC tiles row-wise kernels.
    pub fn rows(&self) -> usize {
        self.numel() / self.last_dim()
    }

    /// NumPy-style broadcast of two shapes (align on trailing axes; a
    /// dimension of 1 stretches).
    pub fn broadcast(a: &Shape, b: &Shape) -> Result<Shape> {
        let rank = a.rank.max(b.rank);
        let mut out = [1usize; MAX_RANK];
        for i in 0..rank {
            let da = if i < a.rank {
                a.dims[a.rank - 1 - i]
            } else {
                1
            };
            let db = if i < b.rank {
                b.dims[b.rank - 1 - i]
            } else {
                1
            };
            out[rank - 1 - i] = if da == db {
                da
            } else if da == 1 {
                db
            } else if db == 1 {
                da
            } else {
                return Err(TensorError::BroadcastMismatch { lhs: *a, rhs: *b });
            };
        }
        let mut d = [1usize; MAX_RANK];
        d[..rank].copy_from_slice(&out[..rank]);
        Ok(Shape { dims: d, rank })
    }

    /// Interpret the shape as a batch of matrices: `([batch...], m, n)`.
    /// Rank-1 shapes are rejected; rank-2 shapes have an empty batch.
    pub fn as_batched_matrix(&self) -> Option<(usize, usize, usize)> {
        if self.rank < 2 {
            return None;
        }
        let m = self.dims[self.rank - 2];
        let n = self.dims[self.rank - 1];
        let batch: usize = self.dims()[..self.rank - 2].iter().product();
        Some((batch, m, n))
    }

    /// Convert a flat row-major element index into per-axis coordinates.
    pub fn unravel(&self, mut idx: usize) -> [usize; MAX_RANK] {
        let mut coords = [0usize; MAX_RANK];
        for i in (0..self.rank).rev() {
            coords[i] = idx % self.dims[i];
            idx /= self.dims[i];
        }
        coords
    }

    /// Map coordinates in this (broadcast target) shape to a flat index in a
    /// source shape that broadcasts to it.
    pub fn broadcast_source_index(&self, src: &Shape, coords: &[usize; MAX_RANK]) -> usize {
        let strides = src.strides();
        let offset = self.rank - src.rank;
        let mut idx = 0usize;
        for i in 0..src.rank {
            let c = coords[i + offset];
            let d = src.dims[i];
            let c = if d == 1 { 0 } else { c };
            idx += c * strides[i];
        }
        idx
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = Shape::of(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.dims(), &[2, 3, 4]);
        assert_eq!(s.last_dim(), 4);
        assert_eq!(s.rows(), 6);
    }

    #[test]
    fn rejects_bad_ranks() {
        assert!(Shape::new(&[]).is_err());
        assert!(Shape::new(&[1, 1, 1, 1, 1, 1]).is_err());
        assert!(Shape::new(&[1, 1, 1, 1, 1]).is_ok());
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::of(&[2, 3, 4]);
        assert_eq!(&s.strides()[..3], &[12, 4, 1]);
    }

    #[test]
    fn broadcasting_rules() {
        let a = Shape::of(&[4, 1, 3]);
        let b = Shape::of(&[2, 3]);
        let c = Shape::broadcast(&a, &b).unwrap();
        assert_eq!(c.dims(), &[4, 2, 3]);

        let x = Shape::of(&[3]);
        let y = Shape::of(&[5, 3]);
        assert_eq!(Shape::broadcast(&x, &y).unwrap().dims(), &[5, 3]);

        let bad = Shape::broadcast(&Shape::of(&[2, 3]), &Shape::of(&[4, 3]));
        assert!(bad.is_err());
    }

    #[test]
    fn unravel_roundtrip() {
        let s = Shape::of(&[2, 3, 4]);
        for idx in 0..s.numel() {
            let c = s.unravel(idx);
            let strides = s.strides();
            let back: usize = (0..3).map(|i| c[i] * strides[i]).sum();
            assert_eq!(back, idx);
        }
    }

    #[test]
    fn batched_matrix_view() {
        assert_eq!(Shape::of(&[6, 4]).as_batched_matrix(), Some((1, 6, 4)));
        assert_eq!(
            Shape::of(&[2, 3, 6, 4]).as_batched_matrix(),
            Some((6, 6, 4))
        );
        assert_eq!(Shape::of(&[7]).as_batched_matrix(), None);
    }

    #[test]
    fn broadcast_source_index_maps_stretched_axes_to_zero() {
        let out = Shape::of(&[4, 2, 3]);
        let src = Shape::of(&[2, 3]);
        let coords = out.unravel(3 * 2 + 1); // [1, 0, 1] in 4x2x3? compute directly
        let idx = out.broadcast_source_index(&src, &coords);
        // coords = unravel(7) = [1,0,1]; src index = 0*3 + 1 = 1
        assert_eq!(idx, 1);
    }
}
