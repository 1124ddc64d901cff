//! Dead-code elimination.
//!
//! Reverse-mode autograd computes gradients for *every* contributing node,
//! including input activations whose gradients nobody reads (e.g. the causal
//! mask). A production graph compiler prunes those chains before scheduling;
//! this pass removes every node not reachable from a marked output.
//!
//! Graphs with no marked outputs are returned unchanged (nothing would
//! survive, which is never what a caller wants).

use gaudi_graph::{Graph, GraphError, NodeId};
use std::borrow::Cow;

/// Remove nodes unreachable from the marked outputs. Returns the pruned
/// graph and the number of nodes eliminated.
pub fn eliminate_dead_code(graph: &Graph) -> Result<(Graph, usize), GraphError> {
    let (pruned, removed) = prune(graph)?;
    Ok((pruned.into_owned(), removed))
}

/// [`eliminate_dead_code`] that borrows `graph` back when nothing is dead,
/// instead of rebuilding an identical copy.
pub(crate) fn prune(graph: &Graph) -> Result<(Cow<'_, Graph>, usize), GraphError> {
    if graph.outputs().is_empty() {
        return Ok((Cow::Borrowed(graph), 0));
    }
    let mut live = vec![false; graph.len()];
    let mut stack: Vec<NodeId> = graph.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if live[id.index()] {
            continue;
        }
        live[id.index()] = true;
        stack.extend_from_slice(&graph.node(id).inputs);
    }
    let removed = live.iter().filter(|&&l| !l).count();
    if removed == 0 {
        return Ok((Cow::Borrowed(graph), 0));
    }

    let mut out = Graph::new();
    out.storage_dtype = graph.storage_dtype;
    // New id of each live node; dead entries are never read, since a live
    // node's inputs are live.
    let mut remap = vec![NodeId(usize::MAX); graph.len()];
    for node in graph.nodes() {
        if !live[node.id.index()] {
            continue;
        }
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i.index()]).collect();
        remap[node.id.index()] =
            out.push_node(node.kind.clone(), &inputs, node.shape, node.name.clone())?;
    }
    for o in graph.outputs() {
        out.mark_output(remap[o.index()]);
    }
    Ok((Cow::Owned(out), removed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_graph::autograd;

    #[test]
    fn removes_unreachable_chains() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let live = g.exp(x).unwrap();
        let dead = g.log(x).unwrap();
        let _deader = g.square(dead).unwrap();
        g.mark_output(live);
        let (pruned, removed) = eliminate_dead_code(&g).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(pruned.len(), 2);
        pruned.validate().unwrap();
    }

    #[test]
    fn nothing_dead_borrows_the_input() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let y = g.exp(x).unwrap();
        g.mark_output(y);
        let (pruned, removed) = prune(&g).unwrap();
        assert_eq!(removed, 0);
        assert!(matches!(pruned, Cow::Borrowed(_)));
    }

    #[test]
    fn no_outputs_means_no_pruning() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let _ = g.exp(x).unwrap();
        let (pruned, removed) = eliminate_dead_code(&g).unwrap();
        assert_eq!(removed, 0);
        assert_eq!(pruned.len(), g.len());
    }

    #[test]
    fn prunes_unused_input_gradients() {
        // Loss through matmul: autograd produces a gradient for the input x
        // that nobody marks as an output; DCE must remove that chain.
        let mut g = Graph::new();
        let x = g.input("x", &[4, 8]).unwrap();
        let w = g.parameter("w", &[8, 2]).unwrap();
        let y = g.matmul(x, w).unwrap();
        let s1 = g.reduce_sum(y, false).unwrap();
        let loss = g.reduce_sum(s1, false).unwrap();
        let grads = autograd::backward(&mut g, loss).unwrap();
        g.mark_output(loss);
        g.mark_output(grads[&w]); // keep only the weight gradient
        let before = g.len();
        let (pruned, removed) = eliminate_dead_code(&g).unwrap();
        assert!(removed > 0, "the dx chain must be dead");
        assert_eq!(pruned.len(), before - removed);
        pruned.validate().unwrap();
        assert_eq!(pruned.outputs().len(), 2);
    }

    #[test]
    fn preserves_output_shapes_and_order() {
        let mut g = Graph::new();
        let x = g.input("x", &[2, 3]).unwrap();
        let a = g.exp(x).unwrap();
        let b = g.softmax(x).unwrap();
        g.mark_output(b);
        g.mark_output(a);
        let (pruned, _) = eliminate_dead_code(&g).unwrap();
        assert_eq!(pruned.outputs().len(), 2);
        assert_eq!(pruned.shape(pruned.outputs()[0]).dims(), &[2, 3]);
    }
}
