//! Matrix products — the only operators the SynapseAI graph compiler maps to
//! the MME (Table 1 of the paper).
//!
//! Supports plain 2-D `matmul` and `bmm`-style batched products with
//! broadcasting over leading batch dimensions, which is how the attention
//! builders express `Q Kᵀ` over `(batch, heads)`.

use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Batched matrix product `a @ b`.
///
/// Shapes follow `torch.matmul` semantics for rank ≥ 2 operands:
/// `a: [batch..., m, k]`, `b: [batch..., k, n]` where the batch prefixes must
/// either match or one of them be absent/singleton.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ab, m, k) = a
        .shape()
        .as_batched_matrix()
        .ok_or(TensorError::MatmulMismatch {
            lhs: *a.shape(),
            rhs: *b.shape(),
        })?;
    let (bb, k2, n) = b
        .shape()
        .as_batched_matrix()
        .ok_or(TensorError::MatmulMismatch {
            lhs: *a.shape(),
            rhs: *b.shape(),
        })?;
    if k != k2 {
        return Err(TensorError::MatmulMismatch {
            lhs: *a.shape(),
            rhs: *b.shape(),
        });
    }
    let batch = if ab == bb {
        ab
    } else if ab == 1 {
        bb
    } else if bb == 1 {
        ab
    } else {
        return Err(TensorError::MatmulMismatch {
            lhs: *a.shape(),
            rhs: *b.shape(),
        });
    };

    // Output shape: take the higher-rank operand's batch prefix.
    let out_dims: Vec<usize> = {
        let (src, sm, sn) = if a.shape().rank() >= b.shape().rank() && ab >= bb {
            (a.dims(), m, n)
        } else if bb > ab {
            (b.dims(), m, n)
        } else {
            (a.dims(), m, n)
        };
        let mut d: Vec<usize> = src[..src.len() - 2].to_vec();
        d.push(sm);
        d.push(sn);
        d
    };

    let mut out = vec![0.0f32; batch * m * n];
    let ad = a.data();
    let bd = b.data();

    for bi in 0..batch {
        let a_off = if ab == 1 { 0 } else { bi * m * k };
        let b_off = if bb == 1 { 0 } else { bi * k * n };
        let amat = &ad[a_off..a_off + m * k];
        let bmat = &bd[b_off..b_off + k * n];
        let omat = &mut out[bi * m * n..(bi + 1) * m * n];
        for i in 0..m {
            let orow = &mut omat[i * n..(i + 1) * n];
            // ikj loop order: stream through b rows, accumulate into orow.
            for (kk, &aval) in amat[i * k..(i + 1) * k].iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                let brow = &bmat[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += aval * bv;
                }
            }
        }
    }

    Tensor::from_vec(&out_dims, out)
}

/// `torch.bmm` analog: strict 3-D batched product with equal batch sizes.
pub fn bmm(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    if a.shape().rank() != 3 || b.shape().rank() != 3 || a.dims()[0] != b.dims()[0] {
        return Err(TensorError::MatmulMismatch {
            lhs: *a.shape(),
            rhs: *b.shape(),
        });
    }
    matmul(a, b)
}

/// Reference (naive, dot-product order) matmul used by tests to validate
/// [`matmul`].
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (ab, m, k) = a
        .shape()
        .as_batched_matrix()
        .ok_or(TensorError::MatmulMismatch {
            lhs: *a.shape(),
            rhs: *b.shape(),
        })?;
    let (bb, k2, n) = b
        .shape()
        .as_batched_matrix()
        .ok_or(TensorError::MatmulMismatch {
            lhs: *a.shape(),
            rhs: *b.shape(),
        })?;
    if k != k2 || (ab != bb && ab != 1 && bb != 1) {
        return Err(TensorError::MatmulMismatch {
            lhs: *a.shape(),
            rhs: *b.shape(),
        });
    }
    let batch = ab.max(bb);
    let mut out = vec![0.0f32; batch * m * n];
    for bi in 0..batch {
        let a_off = if ab == 1 { 0 } else { bi * m * k };
        let b_off = if bb == 1 { 0 } else { bi * k * n };
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.data()[a_off + i * k + kk] * b.data()[b_off + kk * n + j];
                }
                out[bi * m * n + i * n + j] = acc;
            }
        }
    }
    let mut dims: Vec<usize> = if ab >= bb {
        a.dims()[..a.dims().len() - 2].to_vec()
    } else {
        b.dims()[..b.dims().len() - 2].to_vec()
    };
    dims.push(m);
    dims.push(n);
    Tensor::from_vec(&dims, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn matmul_2d_known_values() {
        let a = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = SeededRng::new(1);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng).unwrap();
        let mut id = Tensor::zeros(&[5, 5]).unwrap();
        for i in 0..5 {
            id.data_mut()[i * 5 + i] = 1.0;
        }
        let c = matmul(&a, &id).unwrap();
        assert!(a.max_abs_diff(&c) < 1e-6);
    }

    #[test]
    fn batched_matches_reference() {
        let mut rng = SeededRng::new(2);
        let a = Tensor::randn(&[4, 6, 3], 1.0, &mut rng).unwrap();
        let b = Tensor::randn(&[4, 3, 5], 1.0, &mut rng).unwrap();
        let fast = bmm(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&slow) < 1e-4);
        assert_eq!(fast.dims(), &[4, 6, 5]);
    }

    #[test]
    fn broadcast_single_rhs_over_batch() {
        let mut rng = SeededRng::new(3);
        let a = Tensor::randn(&[4, 6, 3], 1.0, &mut rng).unwrap();
        let w = Tensor::randn(&[3, 5], 1.0, &mut rng).unwrap();
        let c = matmul(&a, &w).unwrap();
        assert_eq!(c.dims(), &[4, 6, 5]);
        let r = matmul_reference(&a, &w.reshape(&[1, 3, 5]).unwrap()).unwrap();
        assert!(c.reshape(&[4, 6, 5]).unwrap().max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn inner_dim_mismatch_errors() {
        let a = Tensor::zeros(&[2, 3]).unwrap();
        let b = Tensor::zeros(&[4, 2]).unwrap();
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn bmm_requires_rank3_equal_batch() {
        let a = Tensor::zeros(&[2, 3, 4]).unwrap();
        let b = Tensor::zeros(&[3, 4, 5]).unwrap();
        assert!(bmm(&a, &b).is_err());
        let b2 = Tensor::zeros(&[2, 4, 5]).unwrap();
        assert!(bmm(&a, &b2).is_ok());
    }

    #[test]
    fn larger_matmul_matches_reference() {
        let mut rng = SeededRng::new(4);
        let a = Tensor::randn(&[2, 130, 40], 0.5, &mut rng).unwrap();
        let b = Tensor::randn(&[2, 40, 70], 0.5, &mut rng).unwrap();
        let fast = matmul(&a, &b).unwrap();
        let slow = matmul_reference(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&slow) < 1e-3);
    }

    #[test]
    fn associativity_enables_linear_attention() {
        // (A B) C == A (B C): the identity Performer/linear attention exploit.
        let mut rng = SeededRng::new(6);
        let a = Tensor::randn(&[8, 4], 0.3, &mut rng).unwrap();
        let b = Tensor::randn(&[4, 8], 0.3, &mut rng).unwrap();
        let c = Tensor::randn(&[8, 4], 0.3, &mut rng).unwrap();
        let left = matmul(&matmul(&a, &b).unwrap(), &c).unwrap();
        let right = matmul(&a, &matmul(&b, &c).unwrap()).unwrap();
        assert!(left.max_abs_diff(&right) < 1e-4);
    }
}
