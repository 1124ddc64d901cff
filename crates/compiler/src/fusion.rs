//! Element-wise fusion pass.
//!
//! TPC element-wise operators are memory-bound on the global-access
//! datapath and each launch pays a fixed overhead (§2.2). Fusing chains of
//! shape-preserving unary ops into one kernel removes both the intermediate
//! global-memory round trips and the extra launches — the standard
//! optimization the SynapseAI Graph Compiler applies when it "can analyze
//! the source code thoroughly" (Insight #1). Ablation A5 of the `sweeps`
//! binary's `paper` experiment quantifies it.

use gaudi_graph::{Graph, GraphError, NodeId, OpKind};
use std::collections::HashMap;

/// Statistics of one fusion run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Chains fused (each becomes one `FusedElementwise` node).
    pub chains: usize,
    /// Total operators folded into fused nodes.
    pub ops_fused: usize,
    /// Scale (`ScalarMul`) ops absorbed adjacent to an attention softmax —
    /// directly feeding it or feeding it through a mask add. These are the
    /// ops the fused-attention pattern-matcher (`attention_fusion`) folds
    /// into its `scale` factor.
    pub attention_scale_ops: usize,
}

/// Fuse maximal chains of single-consumer unary element-wise operators.
///
/// A node joins the chain of its producer when (a) both are fusible unary
/// ops of identical shape, (b) the producer has exactly one consumer, and
/// (c) the producer is not a marked graph output.
///
/// Attention adjacency: a scale (`ScalarMul`) whose value flows into a
/// softmax — directly or through a mask add — is *always* emitted as a
/// `FusedElementwise` node, even alone, so the attention pattern-matcher
/// sees one canonical scale node between the score matmul and the softmax
/// regardless of how many scale ops the model config emitted. The wrap is
/// cost-neutral (a single-op chain prices identically to the bare op).
pub fn fuse_elementwise(graph: &Graph) -> Result<(Graph, FusionStats), GraphError> {
    let consumers = graph.consumers();
    let is_output = |id: NodeId| graph.outputs().contains(&id);

    // Does `id` feed a softmax, directly or through one mask add?
    let feeds_softmax = |id: NodeId| -> bool {
        match consumers[id.index()].as_slice() {
            [c] => {
                matches!(graph.node(*c).kind, OpKind::Softmax)
                    || (matches!(graph.node(*c).kind, OpKind::Add)
                        && matches!(
                            consumers[c.index()].as_slice(),
                            [cc] if matches!(graph.node(*cc).kind, OpKind::Softmax)
                        ))
            }
            _ => false,
        }
    };

    // A node is a chain *interior* if its single consumer can absorb it.
    let absorbed = |id: NodeId| -> bool {
        let node = graph.node(id);
        if !node.kind.is_fusible_unary() || is_output(id) || consumers[id.index()].len() != 1 {
            return false;
        }
        let consumer = graph.node(consumers[id.index()][0]);
        consumer.kind.is_fusible_unary() && consumer.shape == node.shape
    };

    let mut out = Graph::new();
    out.storage_dtype = graph.storage_dtype;
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    let mut stats = FusionStats::default();

    for node in graph.nodes() {
        if absorbed(node.id) {
            // Skipped: will be emitted as part of its consumer's chain. Its
            // remap entry is written when the chain head is emitted.
            continue;
        }
        let new_id = if node.kind.is_fusible_unary() {
            // Walk the chain of absorbed producers backwards.
            let mut chain = vec![node.kind.clone()];
            let mut cursor = node.inputs[0];
            while absorbed(cursor) {
                chain.push(graph.node(cursor).kind.clone());
                cursor = graph.node(cursor).inputs[0];
            }
            chain.reverse();
            let src = remap[&cursor];
            let adjacent = !is_output(node.id) && feeds_softmax(node.id);
            if adjacent {
                stats.attention_scale_ops += chain
                    .iter()
                    .filter(|o| matches!(o, OpKind::ScalarMul(_)))
                    .count();
            }
            let wrap_lone_scale = adjacent && matches!(node.kind, OpKind::ScalarMul(_));
            if chain.len() == 1 && !wrap_lone_scale {
                out.push_node(node.kind.clone(), &[src], node.shape, graph.name(node.id))?
            } else {
                if chain.len() > 1 {
                    stats.chains += 1;
                    stats.ops_fused += chain.len();
                }
                out.push_node(
                    OpKind::FusedElementwise(chain),
                    &[src],
                    node.shape,
                    graph.name(node.id),
                )?
            }
        } else {
            let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i]).collect();
            out.push_node(node.kind.clone(), &inputs, node.shape, graph.name(node.id))?
        };
        remap.insert(node.id, new_id);
    }
    for o in graph.outputs() {
        out.mark_output(remap[o]);
    }
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_graph::Activation;

    #[test]
    fn fuses_a_simple_chain() {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 8]).unwrap();
        let a = g.scalar_mul(x, 2.0).unwrap();
        let b = g.scalar_add(a, 1.0).unwrap();
        let c = g.exp(b).unwrap();
        g.mark_output(c);
        let (fused, stats) = fuse_elementwise(&g).unwrap();
        assert_eq!(stats.chains, 1);
        assert_eq!(stats.ops_fused, 3);
        // input + one fused node.
        assert_eq!(fused.len(), 2);
        let f = fused.node(fused.outputs()[0]);
        match &f.kind {
            OpKind::FusedElementwise(ops) => {
                assert_eq!(ops.len(), 3);
                assert!(matches!(ops[0], OpKind::ScalarMul(_)));
                assert!(matches!(ops[2], OpKind::Exp));
            }
            other => panic!("expected fused node, got {other:?}"),
        }
        fused.validate().unwrap();
    }

    #[test]
    fn fan_out_blocks_fusion() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let a = g.exp(x).unwrap();
        let b = g.log(a).unwrap(); // a also consumed below -> no fusion
        let c = g.square(a).unwrap();
        let d = g.add(b, c).unwrap();
        g.mark_output(d);
        let (fused, stats) = fuse_elementwise(&g).unwrap();
        assert_eq!(stats.chains, 0);
        assert_eq!(fused.len(), g.len());
    }

    #[test]
    fn outputs_are_never_absorbed() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let a = g.exp(x).unwrap();
        let b = g.log(a).unwrap();
        g.mark_output(a); // a must survive as an observable output
        g.mark_output(b);
        let (fused, stats) = fuse_elementwise(&g).unwrap();
        assert_eq!(stats.chains, 0);
        assert_eq!(fused.outputs().len(), 2);
    }

    #[test]
    fn glu_is_not_fused() {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 8]).unwrap();
        let a = g.scalar_mul(x, 2.0).unwrap();
        let b = g.activation(Activation::Glu, a).unwrap();
        g.mark_output(b);
        let (fused, stats) = fuse_elementwise(&g).unwrap();
        assert_eq!(stats.chains, 0);
        assert_eq!(fused.len(), 3);
    }

    #[test]
    fn lone_attention_scale_is_canonicalized() {
        // A single score scale feeding a softmax wraps into a one-op
        // FusedElementwise so the attention matcher sees a canonical node.
        let mut g = Graph::new();
        let q = g.input("q", &[1, 8, 8]).unwrap();
        let s = g.matmul(q, q).unwrap();
        let scaled = g.scalar_mul(s, 0.125).unwrap();
        let probs = g.softmax(scaled).unwrap();
        g.mark_output(probs);
        let (fused, stats) = fuse_elementwise(&g).unwrap();
        assert_eq!(stats.attention_scale_ops, 1);
        assert_eq!(stats.chains, 0, "a lone op is not a chain");
        let f = fused
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::FusedElementwise(_)))
            .expect("scale wrapped");
        match &f.kind {
            OpKind::FusedElementwise(ops) => {
                assert_eq!(ops.len(), 1);
                assert!(matches!(ops[0], OpKind::ScalarMul(_)));
            }
            _ => unreachable!(),
        }
        fused.validate().unwrap();

        // Through a mask add, the scale is still counted and wrapped.
        let mut g2 = Graph::new();
        let q = g2.input("q", &[1, 8, 8]).unwrap();
        let mask = g2.input("mask", &[8, 8]).unwrap();
        let s = g2.matmul(q, q).unwrap();
        let scaled = g2.scalar_mul(s, 0.125).unwrap();
        let masked = g2.add(scaled, mask).unwrap();
        let probs = g2.softmax(masked).unwrap();
        g2.mark_output(probs);
        let (_, stats2) = fuse_elementwise(&g2).unwrap();
        assert_eq!(stats2.attention_scale_ops, 1);

        // A scale NOT feeding a softmax stays bare.
        let mut g3 = Graph::new();
        let x = g3.input("x", &[8]).unwrap();
        let y = g3.scalar_mul(x, 2.0).unwrap();
        g3.mark_output(y);
        let (f3, stats3) = fuse_elementwise(&g3).unwrap();
        assert_eq!(stats3.attention_scale_ops, 0);
        assert!(f3
            .nodes()
            .iter()
            .all(|n| !matches!(n.kind, OpKind::FusedElementwise(_))));
    }

    #[test]
    fn non_unary_ops_pass_through_with_remapped_inputs() {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 4]).unwrap();
        let a = g.exp(x).unwrap();
        let b = g.neg(a).unwrap();
        let m = g.matmul(b, b).unwrap();
        g.mark_output(m);
        let (fused, stats) = fuse_elementwise(&g).unwrap();
        assert_eq!(stats.chains, 1);
        assert!(fused
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::MatMul)));
        fused.validate().unwrap();
    }
}
