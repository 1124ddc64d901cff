//! Element-wise operators with NumPy-style broadcasting.
//!
//! On real Gaudi hardware *every* operator in this module maps to the TPC
//! cluster (Table 1 of the paper) — even `scalar * tensor`.

use crate::error::Result;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Apply a binary operation with broadcasting.
pub fn binary_op(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    let out_shape = Shape::broadcast(a.shape(), b.shape())?;
    let (ad, bd) = (a.data(), b.data());
    if *a.shape() == out_shape && *b.shape() == out_shape {
        // Fast path: identical shapes, contiguous zip.
        let out = ad.iter().zip(bd).map(|(&x, &y)| f(x, y)).collect();
        return Tensor::from_vec(out_shape.dims(), out);
    }
    let (ashape, bshape) = (*a.shape(), *b.shape());
    let out = (0..out_shape.numel())
        .map(|i| {
            let coords = out_shape.unravel(i);
            let ai = out_shape.broadcast_source_index(&ashape, &coords);
            let bi = out_shape.broadcast_source_index(&bshape, &coords);
            f(ad[ai], bd[bi])
        })
        .collect();
    Tensor::from_vec(out_shape.dims(), out)
}

/// Apply a unary operation element-wise.
pub fn unary_op(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let out = a.data().iter().map(|&v| f(v)).collect();
    Tensor::from_vec(a.dims(), out).expect("same shape")
}

/// `a + b` with broadcasting.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, |x, y| x + y)
}

/// `a - b` with broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, |x, y| x - y)
}

/// Element-wise product (`torch.mul`).
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, |x, y| x * y)
}

/// Element-wise quotient.
pub fn div(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, |x, y| x / y)
}

/// Element-wise maximum.
pub fn maximum(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    binary_op(a, b, f32::max)
}

/// `scalar * tensor` — note this still runs on TPC on real hardware.
pub fn scalar_mul(a: &Tensor, s: f32) -> Tensor {
    unary_op(a, |x| x * s)
}

/// `scalar + tensor`.
pub fn scalar_add(a: &Tensor, s: f32) -> Tensor {
    unary_op(a, |x| x + s)
}

/// Element-wise square (`torch.square` / `**`).
pub fn square(a: &Tensor) -> Tensor {
    unary_op(a, |x| x * x)
}

/// Element-wise square root (`torch.sqrt`).
pub fn sqrt(a: &Tensor) -> Tensor {
    unary_op(a, f32::sqrt)
}

/// Element-wise natural exponential (`torch.exp`) — the TPC special-function
/// at the heart of softmax and Performer's FAVOR feature map.
pub fn exp(a: &Tensor) -> Tensor {
    unary_op(a, f32::exp)
}

/// Element-wise natural logarithm (`torch.log`).
pub fn log(a: &Tensor) -> Tensor {
    unary_op(a, f32::ln)
}

/// Element-wise negation.
pub fn neg(a: &Tensor) -> Tensor {
    unary_op(a, |x| -x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(&[3], vec![10.0, 20.0, 30.0]).unwrap();
        assert_eq!(add(&a, &b).unwrap().data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = Tensor::from_vec(&[2, 3], vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0]).unwrap();
        let b = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let c = add(&a, &b).unwrap();
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn broadcast_column_against_row() {
        let col = Tensor::from_vec(&[2, 1], vec![10.0, 20.0]).unwrap();
        let row = Tensor::from_vec(&[1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let c = add(&col, &row).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 12.0, 13.0, 21.0, 22.0, 23.0]);
    }

    #[test]
    fn broadcast_mismatch_errors() {
        let a = Tensor::zeros(&[2, 3]).unwrap();
        let b = Tensor::zeros(&[4, 3]).unwrap();
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn mul_div_roundtrip() {
        let mut rng = SeededRng::new(11);
        let a = Tensor::randn(&[4, 5], 1.0, &mut rng).unwrap();
        let b = scalar_add(&Tensor::randn(&[4, 5], 0.1, &mut rng).unwrap(), 2.0);
        let roundtrip = div(&mul(&a, &b).unwrap(), &b).unwrap();
        assert!(a.max_abs_diff(&roundtrip) < 1e-5);
    }

    #[test]
    fn scalar_ops() {
        let a = Tensor::from_vec(&[2], vec![1.0, -2.0]).unwrap();
        assert_eq!(scalar_mul(&a, 3.0).data(), &[3.0, -6.0]);
        assert_eq!(scalar_add(&a, 1.0).data(), &[2.0, -1.0]);
        assert_eq!(neg(&a).data(), &[-1.0, 2.0]);
    }

    #[test]
    fn square_sqrt_exp_log() {
        let a = Tensor::from_vec(&[3], vec![1.0, 4.0, 9.0]).unwrap();
        assert_eq!(square(&a).data(), &[1.0, 16.0, 81.0]);
        assert_eq!(sqrt(&a).data(), &[1.0, 2.0, 3.0]);
        let e = exp(&Tensor::zeros(&[2]).unwrap());
        assert_eq!(e.data(), &[1.0, 1.0]);
        let l = log(&e);
        assert_eq!(l.data(), &[0.0, 0.0]);
    }

    #[test]
    fn maximum_is_elementwise_max() {
        let a = Tensor::from_vec(&[3], vec![1.0, 5.0, -1.0]).unwrap();
        let b = Tensor::from_vec(&[3], vec![2.0, 3.0, -4.0]).unwrap();
        assert_eq!(maximum(&a, &b).unwrap().data(), &[2.0, 5.0, -1.0]);
    }

    #[test]
    fn large_tensor_elementwise_is_correct() {
        let n = 1 << 17;
        let a = Tensor::from_vec(&[n], (0..n).map(|i| i as f32).collect()).unwrap();
        let b = Tensor::full(&[n], 2.0).unwrap();
        let c = mul(&a, &b).unwrap();
        for i in (0..n).step_by(4097) {
            assert_eq!(c.data()[i], 2.0 * i as f32);
        }
    }
}
