//! Fused-attention pattern matching (the GFormer-style custom-kernel pass).
//!
//! `gaudi_models::attention::softmax_attention` emits the torch-idiomatic
//! subgraph
//!
//! ```text
//! Transpose(K) → MatMul(Q,Kᵀ) → Scale → [Mask add] → Softmax → MatMul(·,V)
//! ```
//!
//! whose two TPC round trips of the S×S score matrix produce exactly the
//! MME idle gaps of the paper's Fig. 4. This pass recognizes the subgraph
//! and swaps in a single [`OpKind::FusedAttention`] node backed by the
//! tiled FlashAttention-style TPC kernel (`gaudi_tpc::kernels::attention`),
//! so the scheduler prices one MME-anchored launch and the memory planner
//! never sees a materialized score tensor.
//!
//! Matching contract:
//!
//! * every *interior* node (the transpose, score matmul, scale chain, mask
//!   add, and softmax) must have exactly one consumer and must not be a
//!   marked graph output — fusion never changes observable values;
//! * the scale may be a bare [`OpKind::ScalarMul`], a chain of them, or a
//!   [`OpKind::FusedElementwise`] chain of only scalar-muls (the shape
//!   `fuse_elementwise` canonicalizes adjacent scale ops into) — the
//!   factors multiply into the fused node's `scale`; an absent scale
//!   matches with `scale = 1.0`;
//! * the mask arm of the optional `Add` may sit on either operand, must
//!   broadcast *into* the score shape, and survives as the fused node's
//!   fourth input;
//! * a `Softmax → MatMul` pair whose upstream does not complete the full
//!   pattern still fuses into the cheaper [`OpKind::FusedSoftmaxMatMul`]
//!   (probability rows stay in TPC local memory instead of round-tripping
//!   through HBM).

use gaudi_graph::{Graph, GraphError, NodeId, OpKind};
use std::borrow::Cow;

/// Statistics of one pattern-match run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttentionFusionStats {
    /// Full `FusedAttention` swaps performed.
    pub attention: usize,
    /// Partial `FusedSoftmaxMatMul` swaps performed.
    pub softmax_matmul: usize,
    /// Graph nodes eliminated by the swaps.
    pub ops_removed: usize,
}

/// What to emit at a matched pattern's anchor (its final matmul).
enum Replacement {
    Attention {
        q: NodeId,
        k: NodeId,
        v: NodeId,
        mask: Option<NodeId>,
        scale: f32,
    },
    SoftmaxMatMul {
        x: NodeId,
        v: NodeId,
    },
}

/// Who reads a node's value, as far as the matcher cares.
#[derive(Clone, Copy)]
enum Readers {
    Unread,
    /// Exactly one operand slot of one consumer.
    One(NodeId),
    /// Several operand slots, or a marked graph output.
    Many,
}

/// What the rewrite does with a node.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Keep,
    /// An interior of a match, folded into its fused node.
    Consumed,
    /// The anchor of the `i`th match, replaced by its fused node.
    Anchor(usize),
}

/// Run the pass: returns the rewritten graph and match statistics, or the
/// graph's own [`Graph::validate`] error (a marked output that names no
/// node, say) before matching anything.
pub fn fuse_attention(graph: &Graph) -> Result<(Graph, AttentionFusionStats), GraphError> {
    graph.validate()?;
    let mut fused = Cow::Borrowed(graph);
    let stats = fuse(&mut fused);
    Ok((fused.into_owned(), stats))
}

/// [`fuse_attention`] on a graph the caller may own: matches are found on
/// the graph as it stands, then applied in place, so an owned graph is
/// never copied and a borrowed one is cloned once, only when a pattern
/// matches.
pub(crate) fn fuse(graph: &mut Cow<'_, Graph>) -> AttentionFusionStats {
    let (replacements, role, stats) = find_matches(graph);
    if replacements.is_empty() {
        return stats;
    }

    // Drop the consumed interiors and turn each anchor into its fused node.
    // No surviving node reads an interior: its only consumer is inside its
    // own match.
    graph
        .to_mut()
        .retain_nodes(|node| match role[node.id.index()] {
            Role::Keep => true,
            Role::Consumed => false,
            Role::Anchor(i) => {
                node.inputs.clear();
                match replacements[i] {
                    Replacement::Attention {
                        q,
                        k,
                        v,
                        mask,
                        scale,
                    } => {
                        node.kind = OpKind::FusedAttention {
                            scale,
                            masked: mask.is_some(),
                        };
                        node.inputs.extend([q, k, v].into_iter().chain(mask));
                    }
                    Replacement::SoftmaxMatMul { x, v } => {
                        node.kind = OpKind::FusedSoftmaxMatMul;
                        node.inputs.extend([x, v]);
                    }
                }
                true
            }
        });
    stats
}

/// Every non-overlapping pattern in `graph`: the replacement of each, in
/// match order, each node's role in them, and the statistics. Allocates
/// the same few vectors whatever the number of matches: a match's
/// interior nodes go to one scratch vector, marked as soon as it is taken.
fn find_matches(graph: &Graph) -> (Vec<Replacement>, Vec<Role>, AttentionFusionStats) {
    // One pass over the edges: the matcher only asks whether a node has a
    // sole, unobservable consumer, and which. Each softmax anchors at most
    // one match.
    let mut readers = vec![Readers::Unread; graph.len()];
    let mut softmaxes = 0;
    for node in graph.nodes() {
        softmaxes += usize::from(matches!(node.kind, OpKind::Softmax));
        for &i in &node.inputs {
            let r = &mut readers[i.index()];
            *r = match *r {
                Readers::Unread => Readers::One(node.id),
                _ => Readers::Many,
            };
        }
    }
    for &o in graph.outputs() {
        readers[o.index()] = Readers::Many;
    }
    // Interior nodes feed exactly one consumer and are not observable.
    let sole_consumer = |id: NodeId| -> Option<NodeId> {
        match readers[id.index()] {
            Readers::One(c) => Some(c),
            _ => None,
        }
    };

    // Walk a scale chain upward from `start` (consumed by `from`) down to a
    // non-scale producer, appending the chain's nodes to `interior`.
    // Returns (effective scale, terminus).
    let match_scale_chain =
        |start: NodeId, from: NodeId, interior: &mut Vec<NodeId>| -> Option<(f32, NodeId)> {
            let mut scale = 1.0f32;
            let mut cur = start;
            let mut expected_consumer = from;
            loop {
                let node = graph.node(cur);
                let factor = match &node.kind {
                    OpKind::ScalarMul(s) => *s,
                    OpKind::FusedElementwise(ops)
                        if ops.iter().all(|o| matches!(o, OpKind::ScalarMul(_))) =>
                    {
                        ops.iter()
                            .map(|o| match o {
                                OpKind::ScalarMul(s) => *s,
                                _ => unreachable!(),
                            })
                            .product()
                    }
                    _ => return Some((scale, cur)),
                };
                if sole_consumer(cur) != Some(expected_consumer) {
                    return None; // fanned-out or observable: not an interior node
                }
                scale *= factor;
                interior.push(cur);
                expected_consumer = cur;
                cur = node.inputs[0];
            }
        };

    // A scores matmul is `MatMul(q, Transpose(k))` with interior transpose.
    // Returns (q, k, the transpose).
    let match_scores = |mm: NodeId, from: NodeId| -> Option<(NodeId, NodeId, NodeId)> {
        let node = graph.node(mm);
        if !matches!(node.kind, OpKind::MatMul) || sole_consumer(mm) != Some(from) {
            return None;
        }
        let kt = node.inputs[1];
        let ktn = graph.node(kt);
        if !matches!(ktn.kind, OpKind::Transpose) || sole_consumer(kt) != Some(mm) {
            return None;
        }
        Some((node.inputs[0], ktn.inputs[0], kt))
    };

    let mut replacements = Vec::with_capacity(softmaxes);
    let mut role = vec![Role::Keep; graph.len()];
    let mut stats = AttentionFusionStats::default();
    // The interior nodes of the match being tried.
    let mut interior: Vec<NodeId> = Vec::new();

    for sm in graph.nodes() {
        if !matches!(sm.kind, OpKind::Softmax) {
            continue;
        }
        let Some(pv) = sole_consumer(sm.id) else {
            continue;
        };
        let pvn = graph.node(pv);
        // The probabilities must be the left operand of a plain matmul.
        if !matches!(pvn.kind, OpKind::MatMul) || pvn.inputs[0] != sm.id || pvn.inputs[1] == sm.id {
            continue;
        }
        let v = pvn.inputs[1];

        // Full pattern: walk up through the optional mask add and the scale
        // chain to the Q·Kᵀ matmul. With a mask add, try either operand as
        // the score arm; the mask must broadcast *into* the scores, i.e.
        // the add preserves the score-arm shape.
        let pre = sm.inputs[0];
        let pre_node = graph.node(pre);
        let masked = matches!(pre_node.kind, OpKind::Add) && sole_consumer(pre) == Some(sm.id);
        let arm = |i: usize| {
            let (arm, mask) = (pre_node.inputs[i], pre_node.inputs[1 - i]);
            (graph.shape(arm) == pre_node.shape).then_some((arm, Some(mask)))
        };
        let arms = if masked {
            [arm(0), arm(1)]
        } else {
            [Some((pre, None)), None]
        };
        let top = if masked { pre } else { sm.id };
        let full = arms.into_iter().flatten().find_map(|(scale_top, mask)| {
            interior.clear();
            if masked {
                interior.push(pre);
            }
            let (scale, terminus) = match_scale_chain(scale_top, top, &mut interior)?;
            let from = interior.last().copied().unwrap_or(top);
            let (q, k, kt) = match_scores(terminus, from)?;
            // A mask that is itself an interior node would dangle.
            if mask.is_some_and(|m| m == terminus || m == kt || interior.contains(&m)) {
                return None;
            }
            interior.extend([terminus, kt, sm.id]);
            Some(Replacement::Attention {
                q,
                k,
                v,
                mask,
                scale,
            })
        });
        let replacement = full.unwrap_or_else(|| {
            interior.clear();
            interior.push(sm.id);
            Replacement::SoftmaxMatMul { x: pre, v }
        });
        // Two overlapping patterns (e.g. one's anchor is another's score
        // matmul) must not both rewrite; first match wins.
        if interior
            .iter()
            .chain([&pv])
            .any(|n| role[n.index()] != Role::Keep)
        {
            continue;
        }
        for n in &interior {
            role[n.index()] = Role::Consumed;
        }
        role[pv.index()] = Role::Anchor(replacements.len());
        stats.ops_removed += interior.len();
        match replacement {
            Replacement::Attention { .. } => stats.attention += 1,
            Replacement::SoftmaxMatMul { .. } => stats.softmax_matmul += 1,
        }
        replacements.push(replacement);
    }

    (replacements, role, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_output_that_names_no_node_is_an_error() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let _y = g.exp(x).unwrap();
        g.mark_output(NodeId(99));
        assert_eq!(
            fuse_attention(&g).unwrap_err(),
            GraphError::UnknownNode(NodeId(99))
        );
    }

    /// Hand-build the exact subgraph `gaudi_models::attention` emits.
    fn attention_graph(masked: bool) -> Graph {
        let mut g = Graph::new();
        let q = g.input("q", &[2, 4, 16, 8]).unwrap();
        let k = g.input("k", &[2, 4, 16, 8]).unwrap();
        let v = g.input("v", &[2, 4, 16, 8]).unwrap();
        let kt = g.transpose(k).unwrap();
        let scores = g.matmul(q, kt).unwrap();
        g.name_last("attn_scores").unwrap();
        let scaled = g.scalar_mul(scores, 0.353).unwrap();
        let pre = if masked {
            let mask = g.input("mask", &[16, 16]).unwrap();
            g.add(scaled, mask).unwrap()
        } else {
            scaled
        };
        let probs = g.softmax(pre).unwrap();
        g.name_last("attn_softmax").unwrap();
        let out = g.matmul(probs, v).unwrap();
        g.name_last("attn_output").unwrap();
        g.mark_output(out);
        g
    }

    fn fused_nodes(g: &Graph) -> Vec<&gaudi_graph::Node> {
        g.nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::FusedAttention { .. }))
            .collect()
    }

    #[test]
    fn unmasked_attention_collapses_to_one_node() {
        let g = attention_graph(false);
        let (f, stats) = fuse_attention(&g).unwrap();
        assert_eq!(stats.attention, 1);
        assert_eq!(stats.softmax_matmul, 0);
        assert_eq!(stats.ops_removed, 4); // kt, scores, scaled, softmax
                                          // 3 inputs + the fused node.
        assert_eq!(f.len(), 4);
        let fa = fused_nodes(&f)[0];
        match fa.kind {
            OpKind::FusedAttention { scale, masked } => {
                assert!((scale - 0.353).abs() < 1e-7);
                assert!(!masked);
            }
            _ => unreachable!(),
        }
        assert_eq!(fa.inputs.len(), 3);
        assert_eq!(f.name(fa.id), "attn_output");
        assert_eq!(fa.shape.dims(), &[2, 4, 16, 8]);
        f.validate().unwrap();
        assert_eq!(f.outputs().len(), 1);
    }

    #[test]
    fn masked_attention_keeps_the_mask_operand() {
        let g = attention_graph(true);
        let (f, stats) = fuse_attention(&g).unwrap();
        assert_eq!(stats.attention, 1);
        assert_eq!(stats.ops_removed, 5); // + the mask add
        let fa = fused_nodes(&f)[0];
        assert!(matches!(
            fa.kind,
            OpKind::FusedAttention { masked: true, .. }
        ));
        assert_eq!(fa.inputs.len(), 4);
        assert_eq!(f.name(fa.inputs[3]), "mask");
        f.validate().unwrap();
    }

    #[test]
    fn scale_chain_factors_multiply() {
        // Two stacked scalar-muls (and a FusedElementwise chain) both fold
        // into one effective scale.
        let mut g = Graph::new();
        let q = g.input("q", &[1, 8, 64]).unwrap();
        let k = g.input("k", &[1, 8, 64]).unwrap();
        let v = g.input("v", &[1, 8, 64]).unwrap();
        let kt = g.transpose(k).unwrap();
        let scores = g.matmul(q, kt).unwrap();
        let s1 = g.scalar_mul(scores, 0.5).unwrap();
        let s2 = g.scalar_mul(s1, 0.25).unwrap();
        let probs = g.softmax(s2).unwrap();
        let out = g.matmul(probs, v).unwrap();
        g.mark_output(out);
        let (f, stats) = fuse_attention(&g).unwrap();
        assert_eq!(stats.attention, 1);
        match fused_nodes(&f)[0].kind {
            OpKind::FusedAttention { scale, .. } => assert!((scale - 0.125).abs() < 1e-7),
            _ => unreachable!(),
        }

        // Same graph with the chain pre-fused by fuse_elementwise.
        let (pre, fs) = crate::fusion::fuse_elementwise(&g).unwrap();
        assert_eq!(fs.chains, 1);
        let (f2, stats2) = fuse_attention(&pre).unwrap();
        assert_eq!(stats2.attention, 1);
        match fused_nodes(&f2)[0].kind {
            OpKind::FusedAttention { scale, .. } => assert!((scale - 0.125).abs() < 1e-7),
            _ => unreachable!(),
        }
    }

    #[test]
    fn fanned_out_probabilities_block_fusion() {
        let mut g = Graph::new();
        let q = g.input("q", &[1, 8, 64]).unwrap();
        let k = g.input("k", &[1, 8, 64]).unwrap();
        let v = g.input("v", &[1, 8, 64]).unwrap();
        let kt = g.transpose(k).unwrap();
        let scores = g.matmul(q, kt).unwrap();
        let scaled = g.scalar_mul(scores, 0.125).unwrap();
        let probs = g.softmax(scaled).unwrap();
        let out = g.matmul(probs, v).unwrap();
        g.mark_output(out);
        g.mark_output(probs); // observable: must survive
        let (f, stats) = fuse_attention(&g).unwrap();
        assert_eq!(stats.attention, 0);
        assert_eq!(stats.softmax_matmul, 0);
        assert_eq!(f.len(), g.len());
    }

    #[test]
    fn no_match_borrows_the_input() {
        let mut g = attention_graph(false);
        let probs = g
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::Softmax))
            .unwrap()
            .id;
        g.mark_output(probs);
        let mut f = Cow::Borrowed(&g);
        assert_eq!(fuse(&mut f), AttentionFusionStats::default());
        assert!(matches!(f, Cow::Borrowed(_)));
    }

    #[test]
    fn an_owned_graph_is_fused_in_place() {
        let g = attention_graph(true);
        let (expected, expected_stats) = fuse_attention(&g).unwrap();
        let nodes = g.nodes().as_ptr();
        let mut f = Cow::Owned(g);
        assert_eq!(fuse(&mut f), expected_stats);
        assert_eq!(f.nodes().as_ptr(), nodes, "the node vector is reused");
        assert_eq!(format!("{:?}", *f), format!("{expected:?}"));
    }

    #[test]
    fn bare_softmax_matmul_gets_the_partial_fusion() {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 32, 128]).unwrap();
        let v = g.input("v", &[4, 128, 64]).unwrap();
        let probs = g.softmax(x).unwrap();
        let out = g.matmul(probs, v).unwrap();
        g.mark_output(out);
        let (f, stats) = fuse_attention(&g).unwrap();
        assert_eq!(stats.attention, 0);
        assert_eq!(stats.softmax_matmul, 1);
        assert_eq!(stats.ops_removed, 1);
        assert!(f
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::FusedSoftmaxMatMul)));
        f.validate().unwrap();
    }

    #[test]
    fn fanned_out_scores_fall_back_to_partial_fusion() {
        // The score matmul feeds a second consumer, so only the
        // softmax+matmul pair fuses.
        let mut g = Graph::new();
        let q = g.input("q", &[1, 8, 64]).unwrap();
        let k = g.input("k", &[1, 8, 64]).unwrap();
        let v = g.input("v", &[1, 8, 64]).unwrap();
        let kt = g.transpose(k).unwrap();
        let scores = g.matmul(q, kt).unwrap();
        let scaled = g.scalar_mul(scores, 0.125).unwrap();
        let probs = g.softmax(scaled).unwrap();
        let out = g.matmul(probs, v).unwrap();
        let aux = g.exp(scores).unwrap(); // second consumer of scores
        g.mark_output(out);
        g.mark_output(aux);
        let (f, stats) = fuse_attention(&g).unwrap();
        assert_eq!(stats.attention, 0);
        assert_eq!(stats.softmax_matmul, 1);
        f.validate().unwrap();
    }

    #[test]
    fn downstream_consumers_are_remapped() {
        let mut g = attention_graph(false);
        let out = g.outputs()[0];
        let tail = g.exp(out).unwrap();
        g.mark_output(tail);
        let (f, stats) = fuse_attention(&g).unwrap();
        assert_eq!(stats.attention, 1);
        f.validate().unwrap();
        let exp = f
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::Exp))
            .unwrap();
        assert!(matches!(
            f.node(exp.inputs[0]).kind,
            OpKind::FusedAttention { .. }
        ));
    }

    #[test]
    fn stacked_attention_layers_both_fuse() {
        // Layer 2 consumes layer 1's output as q/k/v: both patterns fuse.
        let mut g = Graph::new();
        let q = g.input("q", &[2, 16, 64]).unwrap();
        let k = g.input("k", &[2, 16, 64]).unwrap();
        let v = g.input("v", &[2, 16, 64]).unwrap();
        let layer = |g: &mut Graph, q: NodeId, k: NodeId, v: NodeId| {
            let kt = g.transpose(k).unwrap();
            let scores = g.matmul(q, kt).unwrap();
            let scaled = g.scalar_mul(scores, 0.125).unwrap();
            let probs = g.softmax(scaled).unwrap();
            g.matmul(probs, v).unwrap()
        };
        let h = layer(&mut g, q, k, v);
        let out = layer(&mut g, h, h, h);
        g.mark_output(out);
        let (f, stats) = fuse_attention(&g).unwrap();
        assert_eq!(stats.attention, 2);
        assert_eq!(fused_nodes(&f).len(), 2);
        f.validate().unwrap();
    }
}
