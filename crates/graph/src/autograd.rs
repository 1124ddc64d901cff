//! Reverse-mode automatic differentiation over the graph IR.
//!
//! [`backward`] appends adjoint nodes to the graph and returns a map from
//! forward node to its gradient node. The paper profiles *training* runs, so
//! the benchmark graphs include this backward section: it roughly doubles
//! MME work (each matmul contributes two adjoint matmuls) and adds more TPC
//! reductions — amplifying the MME/TPC imbalance the paper reports.

use crate::graph::{Graph, GraphError, NodeId};
use crate::op::OpKind;
use gaudi_tensor::shape::MAX_RANK;
use std::collections::HashMap;

/// Append the backward graph for `loss` and return `node -> grad-node`.
///
/// `loss` is typically scalar; if not, the seed gradient is all-ones of the
/// loss shape (summing all outputs). Nodes that do not influence `loss`
/// receive no gradient entry.
pub fn backward(g: &mut Graph, loss: NodeId) -> Result<HashMap<NodeId, NodeId>, GraphError> {
    let mut grads: HashMap<NodeId, NodeId> = HashMap::new();
    let seed_shape = g.shape(loss);
    let seed = g.push_node(OpKind::Fill(1.0), &[], seed_shape, "grad_seed")?;
    grads.insert(loss, seed);

    // Reverse topological order = reverse id order (SSA construction).
    for idx in (0..=loss.index()).rev() {
        let id = NodeId(idx);
        let Some(&dy) = grads.get(&id) else { continue };
        let node = g.node(id).clone();
        match node.kind {
            OpKind::Input | OpKind::Parameter | OpKind::Fill(_) => {}
            OpKind::MatMul => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                let bt = g.transpose(b)?;
                let da = g.matmul(dy, bt)?;
                accumulate_into(g, &mut grads, a, da)?;
                let at = g.transpose(a)?;
                let db = g.matmul(at, dy)?;
                accumulate_into(g, &mut grads, b, db)?;
            }
            OpKind::Einsum(spec) => {
                use crate::op::EinsumSpec::*;
                let (a, b) = (node.inputs[0], node.inputs[1]);
                match spec {
                    ScoresQKt => {
                        let da = g.einsum(OutputAv, dy, b)?;
                        accumulate_into(g, &mut grads, a, da)?;
                        let dyt = g.transpose(dy)?;
                        let db = g.einsum(OutputAv, dyt, a)?;
                        accumulate_into(g, &mut grads, b, db)?;
                    }
                    OutputAv => {
                        let da = g.einsum(ScoresQKt, dy, b)?;
                        accumulate_into(g, &mut grads, a, da)?;
                        let at = g.transpose(a)?;
                        let db = g.einsum(OutputAv, at, dy)?;
                        accumulate_into(g, &mut grads, b, db)?;
                    }
                }
            }
            OpKind::Add => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                accumulate_into(g, &mut grads, a, dy)?;
                accumulate_into(g, &mut grads, b, dy)?;
            }
            OpKind::Sub => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                accumulate_into(g, &mut grads, a, dy)?;
                let nb = g.neg(dy)?;
                accumulate_into(g, &mut grads, b, nb)?;
            }
            OpKind::Mul => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                let da = g.mul(dy, b)?;
                accumulate_into(g, &mut grads, a, da)?;
                let db = g.mul(dy, a)?;
                accumulate_into(g, &mut grads, b, db)?;
            }
            OpKind::Div => {
                let (a, b) = (node.inputs[0], node.inputs[1]);
                let da = g.div(dy, b)?;
                accumulate_into(g, &mut grads, a, da)?;
                // db = -dy * a / b^2
                let b2 = g.square(b)?;
                let q = g.div(a, b2)?;
                let t = g.mul(dy, q)?;
                let db = g.neg(t)?;
                accumulate_into(g, &mut grads, b, db)?;
            }
            OpKind::Maximum => return Err(GraphError::Autograd("maximum")),
            OpKind::ScalarMul(s) => {
                let da = g.scalar_mul(dy, s)?;
                accumulate_into(g, &mut grads, node.inputs[0], da)?;
            }
            OpKind::ScalarAdd(_) => {
                accumulate_into(g, &mut grads, node.inputs[0], dy)?;
            }
            OpKind::Square => {
                let x = node.inputs[0];
                let two_x = g.scalar_mul(x, 2.0)?;
                let da = g.mul(dy, two_x)?;
                accumulate_into(g, &mut grads, x, da)?;
            }
            OpKind::Sqrt => {
                // d sqrt(x) = dy / (2 sqrt(x)) = dy / (2 y)
                let denom = g.scalar_mul(id, 2.0)?;
                let da = g.div(dy, denom)?;
                accumulate_into(g, &mut grads, node.inputs[0], da)?;
            }
            OpKind::Exp => {
                let da = g.mul(dy, id)?; // y = exp(x)
                accumulate_into(g, &mut grads, node.inputs[0], da)?;
            }
            OpKind::Log => {
                let da = g.div(dy, node.inputs[0])?;
                accumulate_into(g, &mut grads, node.inputs[0], da)?;
            }
            OpKind::Neg => {
                let da = g.neg(dy)?;
                accumulate_into(g, &mut grads, node.inputs[0], da)?;
            }
            OpKind::Activation(act) => {
                let x = node.inputs[0];
                let x_shape = g.shape(x);
                let da = g.push_node(OpKind::ActivationGrad(act), &[x, dy], x_shape, "")?;
                accumulate_into(g, &mut grads, x, da)?;
            }
            OpKind::Softmax => {
                let x = node.inputs[0];
                let x_shape = g.shape(x);
                // SoftmaxGrad takes (y, dy).
                let da = g.push_node(OpKind::SoftmaxGrad, &[id, dy], x_shape, "")?;
                accumulate_into(g, &mut grads, x, da)?;
            }
            OpKind::LayerNorm { eps } => {
                let (x, gamma, beta) = (node.inputs[0], node.inputs[1], node.inputs[2]);
                let x_shape = g.shape(x);
                let dx =
                    g.push_node(OpKind::LayerNormGrad { eps }, &[x, gamma, dy], x_shape, "")?;
                accumulate_into(g, &mut grads, x, dx)?;
                // xhat = (y - beta) / gamma ; dgamma = sum(dy * xhat); dbeta = sum(dy)
                let y_minus_beta = g.sub(id, beta)?;
                let xhat = g.div(y_minus_beta, gamma)?;
                let prod = g.mul(dy, xhat)?;
                let dgamma = g.reduce_to(prod, g.shape(gamma).dims())?;
                accumulate_into(g, &mut grads, gamma, dgamma)?;
                let dbeta = g.reduce_to(dy, g.shape(beta).dims())?;
                accumulate_into(g, &mut grads, beta, dbeta)?;
            }
            OpKind::Transpose => {
                let da = g.transpose(dy)?;
                accumulate_into(g, &mut grads, node.inputs[0], da)?;
            }
            OpKind::Permute(order) => {
                let mut inverse = [0; MAX_RANK];
                for (i, &o) in order.iter().enumerate() {
                    inverse[usize::from(o)] = i;
                }
                let da = g.permute(dy, &inverse[..order.len()])?;
                accumulate_into(g, &mut grads, node.inputs[0], da)?;
            }
            OpKind::Reshape => {
                let x = node.inputs[0];
                let dims: Vec<usize> = g.shape(x).dims().to_vec();
                let da = g.reshape(dy, &dims)?;
                accumulate_into(g, &mut grads, x, da)?;
            }
            OpKind::BroadcastTo => {
                let x = node.inputs[0];
                let dims: Vec<usize> = g.shape(x).dims().to_vec();
                let da = g.reduce_to(dy, &dims)?;
                accumulate_into(g, &mut grads, x, da)?;
            }
            OpKind::ReduceTo => {
                let x = node.inputs[0];
                let dims: Vec<usize> = g.shape(x).dims().to_vec();
                let da = g.broadcast_to(dy, &dims)?;
                accumulate_into(g, &mut grads, x, da)?;
            }
            OpKind::ReduceSum { keep_dim } => {
                let x = node.inputs[0];
                let da = reduce_adjoint(g, x, dy, keep_dim, 1.0)?;
                accumulate_into(g, &mut grads, x, da)?;
            }
            OpKind::ReduceMean { keep_dim } => {
                let x = node.inputs[0];
                let d = g.shape(x).last_dim() as f32;
                let da = reduce_adjoint(g, x, dy, keep_dim, 1.0 / d)?;
                accumulate_into(g, &mut grads, x, da)?;
            }
            OpKind::ReduceMax { .. } => return Err(GraphError::Autograd("reduce_max")),
            OpKind::Embedding => {
                let (table, ids) = (node.inputs[0], node.inputs[1]);
                let t_shape = g.shape(table);
                let dt = g.push_node(OpKind::EmbeddingGrad, &[ids, dy], t_shape, "")?;
                accumulate_into(g, &mut grads, table, dt)?;
            }
            OpKind::CrossEntropy => {
                let (logits, targets) = (node.inputs[0], node.inputs[1]);
                let l_shape = g.shape(logits);
                let base =
                    g.push_node(OpKind::CrossEntropyGrad, &[logits, targets], l_shape, "")?;
                // Scale by the (usually all-ones scalar) upstream gradient.
                let dl = g.mul(base, dy)?;
                accumulate_into(g, &mut grads, logits, dl)?;
            }
            // Fused nodes only exist after the (post-autograd) fusion pass.
            OpKind::FusedElementwise(_)
            | OpKind::FusedAttention { .. }
            | OpKind::FusedSoftmaxMatMul => return Err(GraphError::Autograd("fused chains")),
            OpKind::Collective(_) => return Err(GraphError::Autograd("collectives")),
            // Adjoint ops themselves are not differentiated further.
            OpKind::ActivationGrad(_)
            | OpKind::SoftmaxGrad
            | OpKind::LayerNormGrad { .. }
            | OpKind::EmbeddingGrad
            | OpKind::CrossEntropyGrad => {
                return Err(GraphError::Autograd("second-order gradients"))
            }
        }
    }
    Ok(grads)
}

fn reduce_adjoint(
    g: &mut Graph,
    x: NodeId,
    dy: NodeId,
    keep_dim: bool,
    scale: f32,
) -> Result<NodeId, GraphError> {
    let x_dims: Vec<usize> = g.shape(x).dims().to_vec();
    let dy_keep = if keep_dim || x_dims.len() == 1 {
        dy
    } else {
        // Reinstate the trailing axis so broadcasting works.
        let mut dims: Vec<usize> = g.shape(dy).dims().to_vec();
        dims.push(1);
        g.reshape(dy, &dims)?
    };
    let scaled = if scale == 1.0 {
        dy_keep
    } else {
        g.scalar_mul(dy_keep, scale)?
    };
    g.broadcast_to(scaled, &x_dims)
}

fn accumulate_into(
    g: &mut Graph,
    grads: &mut HashMap<NodeId, NodeId>,
    target: NodeId,
    mut grad: NodeId,
) -> Result<(), GraphError> {
    // Reduce broadcast gradients back to the operand's shape.
    if g.shape(grad) != g.shape(target) {
        let dims: Vec<usize> = g.shape(target).dims().to_vec();
        grad = g.reduce_to(grad, &dims)?;
    }
    match grads.get(&target) {
        Some(&existing) => {
            let sum = g.add(existing, grad)?;
            grads.insert(target, sum);
        }
        None => {
            grads.insert(target, grad);
        }
    }
    Ok(())
}

/// All `Parameter` nodes of a graph, in id order.
pub fn parameters(g: &Graph) -> Vec<NodeId> {
    g.nodes()
        .iter()
        .filter(|n| matches!(n.kind, OpKind::Parameter))
        .map(|n| n.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Activation;

    #[test]
    fn matmul_grads_have_operand_shapes() {
        let mut g = Graph::new();
        let x = g.input("x", &[8, 16]).unwrap();
        let w = g.parameter("w", &[16, 4]).unwrap();
        let y = g.matmul(x, w).unwrap();
        let loss = g.reduce_sum(y, false).unwrap();
        let loss = g.reduce_sum(loss, false).unwrap();
        let grads = backward(&mut g, loss).unwrap();
        assert_eq!(g.shape(grads[&w]).dims(), &[16, 4]);
        assert_eq!(g.shape(grads[&x]).dims(), &[8, 16]);
        g.validate().unwrap();
    }

    #[test]
    fn fan_out_accumulates() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let a = g.exp(x).unwrap();
        let b = g.log(x).unwrap();
        let c = g.add(a, b).unwrap();
        let loss = g.reduce_sum(c, false).unwrap();
        let grads = backward(&mut g, loss).unwrap();
        // x's gradient must be an Add node (accumulated from two paths).
        let gx = g.node(grads[&x]);
        assert!(matches!(gx.kind, OpKind::Add));
    }

    #[test]
    fn bias_broadcast_grad_is_reduced() {
        let mut g = Graph::new();
        let x = g.input("x", &[8, 32]).unwrap();
        let b = g.parameter("bias", &[32]).unwrap();
        let y = g.add(x, b).unwrap();
        let s = g.reduce_sum(y, false).unwrap();
        let loss = g.reduce_sum(s, false).unwrap();
        let grads = backward(&mut g, loss).unwrap();
        assert_eq!(g.shape(grads[&b]).dims(), &[32]);
    }

    #[test]
    fn softmax_and_activation_grads_exist() {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 8]).unwrap();
        let s = g.softmax(x).unwrap();
        let r = g.activation(Activation::Gelu, s).unwrap();
        let sum = g.reduce_sum(r, false).unwrap();
        let loss = g.reduce_sum(sum, false).unwrap();
        let grads = backward(&mut g, loss).unwrap();
        assert_eq!(g.shape(grads[&x]).dims(), &[4, 8]);
        assert!(g
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::SoftmaxGrad)));
        assert!(g
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::ActivationGrad(Activation::Gelu))));
    }

    #[test]
    fn layernorm_produces_param_grads() {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 16]).unwrap();
        let gamma = g.parameter("gamma", &[16]).unwrap();
        let beta = g.parameter("beta", &[16]).unwrap();
        let y = g.layernorm(x, gamma, beta, 1e-5).unwrap();
        let s = g.reduce_sum(y, false).unwrap();
        let loss = g.reduce_sum(s, false).unwrap();
        let grads = backward(&mut g, loss).unwrap();
        assert_eq!(g.shape(grads[&gamma]).dims(), &[16]);
        assert_eq!(g.shape(grads[&beta]).dims(), &[16]);
        assert_eq!(g.shape(grads[&x]).dims(), &[4, 16]);
    }

    #[test]
    fn cross_entropy_grad_matches_logits() {
        let mut g = Graph::new();
        let table = g.parameter("emb", &[50, 8]).unwrap();
        let ids = g.input("ids", &[2, 6]).unwrap();
        let h = g.embedding(table, ids).unwrap();
        let w = g.parameter("w", &[8, 50]).unwrap();
        let logits = g.matmul(h, w).unwrap();
        let loss = g.cross_entropy(logits, ids).unwrap();
        let grads = backward(&mut g, loss).unwrap();
        assert_eq!(g.shape(grads[&table]).dims(), &[50, 8]);
        assert_eq!(g.shape(grads[&w]).dims(), &[8, 50]);
        g.validate().unwrap();
    }

    #[test]
    fn unsupported_grad_errors() {
        let mut g = Graph::new();
        let a = g.input("a", &[4]).unwrap();
        let b = g.input("b", &[4]).unwrap();
        let m = g.maximum(a, b).unwrap();
        let loss = g.reduce_sum(m, false).unwrap();
        assert!(matches!(
            backward(&mut g, loss),
            Err(GraphError::Autograd(_))
        ));
    }

    #[test]
    fn parameters_enumerates_in_order() {
        let mut g = Graph::new();
        let _x = g.input("x", &[4]).unwrap();
        let p1 = g.parameter("p1", &[4]).unwrap();
        let p2 = g.parameter("p2", &[4]).unwrap();
        assert_eq!(parameters(&g), vec![p1, p2]);
    }

    #[test]
    fn einsum_grads_shapes() {
        let mut g = Graph::new();
        let q = g.input("q", &[2, 3, 8, 4]).unwrap();
        let k = g.input("k", &[2, 3, 8, 4]).unwrap();
        let v = g.input("v", &[2, 3, 8, 4]).unwrap();
        use crate::op::EinsumSpec::*;
        let s = g.einsum(ScoresQKt, q, k).unwrap();
        let o = g.einsum(OutputAv, s, v).unwrap();
        let r1 = g.reduce_sum(o, false).unwrap();
        let r2 = g.reduce_sum(r1, false).unwrap();
        let r3 = g.reduce_sum(r2, false).unwrap();
        let loss = g.reduce_sum(r3, false).unwrap();
        let grads = backward(&mut g, loss).unwrap();
        assert_eq!(g.shape(grads[&q]).dims(), q_dims());
        assert_eq!(g.shape(grads[&k]).dims(), q_dims());
        assert_eq!(g.shape(grads[&v]).dims(), q_dims());
        fn q_dims() -> &'static [usize] {
            &[2, 3, 8, 4]
        }
    }
}
