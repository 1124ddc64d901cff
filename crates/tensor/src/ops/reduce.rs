//! Reductions, softmax and layer normalization.
//!
//! Reductions are the operations the paper identifies as "not well-suited
//! for single instruction, multiple data (SIMD) architectures like TPC"
//! (§3.3); the hardware model charges them a serialization penalty, while
//! this module provides their exact numerics.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

fn rowwise(a: &Tensor, out_cols: usize, f: impl Fn(&[f32], &mut [f32])) -> Vec<f32> {
    let d = a.shape().last_dim();
    let rows = a.shape().rows();
    let mut out = vec![0.0f32; rows * out_cols];
    let data = a.data();
    for r in 0..rows {
        f(
            &data[r * d..(r + 1) * d],
            &mut out[r * out_cols..(r + 1) * out_cols],
        );
    }
    out
}

fn reduced_dims(a: &Tensor, keep: bool) -> Vec<usize> {
    let mut dims: Vec<usize> = a.dims().to_vec();
    if keep || dims.len() == 1 {
        *dims.last_mut().unwrap() = 1;
    } else {
        dims.pop();
    }
    dims
}

/// Sum over the last axis. `keep_dim` retains a trailing axis of size 1.
pub fn sum_last_axis(a: &Tensor, keep_dim: bool) -> Result<Tensor> {
    let out = rowwise(a, 1, |row, o| o[0] = row.iter().sum());
    Tensor::from_vec(&reduced_dims(a, keep_dim), out)
}

/// Maximum over the last axis.
pub fn max_last_axis(a: &Tensor, keep_dim: bool) -> Result<Tensor> {
    if a.numel() == 0 {
        return Err(TensorError::EmptyTensor);
    }
    let out = rowwise(a, 1, |row, o| {
        o[0] = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    });
    Tensor::from_vec(&reduced_dims(a, keep_dim), out)
}

/// Mean over the last axis.
pub fn mean_last_axis(a: &Tensor, keep_dim: bool) -> Result<Tensor> {
    let d = a.shape().last_dim() as f32;
    let out = rowwise(a, 1, |row, o| o[0] = row.iter().sum::<f32>() / d);
    Tensor::from_vec(&reduced_dims(a, keep_dim), out)
}

/// Numerically-stable softmax over the last axis: the three-pass
/// max / exp-sum / normalize algorithm the TPC softmax kernel implements.
pub fn softmax_last_axis(a: &Tensor) -> Result<Tensor> {
    let d = a.shape().last_dim();
    let out = rowwise(a, d, |row, o| {
        let m = row.iter().fold(f32::NEG_INFINITY, |acc, &x| acc.max(x));
        let mut z = 0.0f32;
        for (oi, &x) in o.iter_mut().zip(row.iter()) {
            let e = (x - m).exp();
            *oi = e;
            z += e;
        }
        let inv = 1.0 / z;
        for oi in o.iter_mut() {
            *oi *= inv;
        }
    });
    Tensor::from_vec(a.dims(), out)
}

/// Layer normalization over the last axis with learned scale and shift.
pub fn layernorm_last_axis(a: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Result<Tensor> {
    let d = a.shape().last_dim();
    if gamma.numel() != d || beta.numel() != d {
        return Err(TensorError::LengthMismatch {
            expected: d,
            actual: gamma.numel(),
        });
    }
    let g = gamma.data().to_vec();
    let bta = beta.data().to_vec();
    let out = rowwise(a, d, |row, o| {
        let n = row.len() as f32;
        let mean = row.iter().sum::<f32>() / n;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
        let inv = 1.0 / (var + eps).sqrt();
        for ((oi, &x), (gv, bv)) in o.iter_mut().zip(row.iter()).zip(g.iter().zip(bta.iter())) {
            *oi = (x - mean) * inv * gv + bv;
        }
    });
    Tensor::from_vec(a.dims(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::elementwise::scalar_mul;
    use crate::rng::SeededRng;

    #[test]
    fn sum_and_mean_last_axis() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(sum_last_axis(&t, false).unwrap().data(), &[6.0, 15.0]);
        assert_eq!(mean_last_axis(&t, false).unwrap().data(), &[2.0, 5.0]);
        assert_eq!(sum_last_axis(&t, true).unwrap().dims(), &[2, 1]);
    }

    #[test]
    fn max_last_axis_values() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 9.0, 3.0, -4.0, -5.0, -6.0]).unwrap();
        assert_eq!(max_last_axis(&t, false).unwrap().data(), &[9.0, -4.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = SeededRng::new(8);
        let t = Tensor::randn(&[7, 13], 3.0, &mut rng).unwrap();
        let s = softmax_last_axis(&t).unwrap();
        let sums = sum_last_axis(&s, false).unwrap();
        for &v in sums.data() {
            assert!((v - 1.0).abs() < 1e-5);
        }
        assert!(s.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let t = Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let shifted = crate::ops::elementwise::scalar_add(&t, 100.0);
        let a = softmax_last_axis(&t).unwrap();
        let b = softmax_last_axis(&shifted).unwrap();
        assert!(a.max_abs_diff(&b) < 1e-6);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let t = Tensor::from_vec(&[1, 3], vec![1000.0, 999.0, 998.0]).unwrap();
        let s = softmax_last_axis(&t).unwrap();
        assert!(s.all_finite());
        assert!((s.data().iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let mut rng = SeededRng::new(9);
        let t = Tensor::randn(&[4, 64], 5.0, &mut rng).unwrap();
        let g = Tensor::ones(&[64]).unwrap();
        let b = Tensor::zeros(&[64]).unwrap();
        let y = layernorm_last_axis(&t, &g, &b, 1e-5).unwrap();
        let mean = mean_last_axis(&y, false).unwrap();
        for &m in mean.data() {
            assert!(m.abs() < 1e-4);
        }
        let var = mean_last_axis(&crate::ops::elementwise::square(&y), false).unwrap();
        for &v in var.data() {
            assert!((v - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_applies_gamma_beta() {
        let t = Tensor::from_vec(&[1, 2], vec![-1.0, 1.0]).unwrap();
        let g = Tensor::full(&[2], 2.0).unwrap();
        let b = Tensor::full(&[2], 10.0).unwrap();
        let y = layernorm_last_axis(&t, &g, &b, 0.0).unwrap();
        // normalized row is [-1, 1]; scaled: [8, 12]
        assert!((y.data()[0] - 8.0).abs() < 1e-4);
        assert!((y.data()[1] - 12.0).abs() < 1e-4);
    }

    #[test]
    fn layernorm_wrong_param_len_errors() {
        let t = Tensor::zeros(&[2, 4]).unwrap();
        let g = Tensor::ones(&[3]).unwrap();
        let b = Tensor::zeros(&[4]).unwrap();
        assert!(layernorm_last_axis(&t, &g, &b, 1e-5).is_err());
    }

    #[test]
    fn sums_scale_linearly() {
        let t = Tensor::ones(&[10, 10]).unwrap();
        assert_eq!(t.data().iter().sum::<f32>(), 100.0);
        assert_eq!(scalar_mul(&t, 3.0).data().iter().sum::<f32>(), 300.0);
    }
}
