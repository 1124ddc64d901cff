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
/// graph and the number of nodes eliminated, or the graph's own
/// [`Graph::validate`] error (a marked output that names no node, say)
/// before pruning anything.
pub fn eliminate_dead_code(graph: &Graph) -> Result<(Graph, usize), GraphError> {
    graph.validate()?;
    let mut pruned = Cow::Borrowed(graph);
    let removed = prune(&mut pruned);
    Ok((pruned.into_owned(), removed))
}

/// [`eliminate_dead_code`] on a graph the caller may own: the dead nodes
/// are dropped in place, so an owned graph is never copied and a borrowed
/// one is cloned once, only when something is dead. Returns the number of
/// nodes eliminated.
pub(crate) fn prune(graph: &mut Cow<'_, Graph>) -> usize {
    if graph.outputs().is_empty() {
        return 0;
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
    if removed > 0 {
        // A live node's inputs are live, so nothing kept dangles.
        graph.to_mut().retain_nodes(|n| live[n.id.index()]);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_graph::autograd;

    #[test]
    fn an_output_that_names_no_node_is_an_error() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let _y = g.exp(x).unwrap();
        g.mark_output(NodeId(99));
        assert_eq!(
            eliminate_dead_code(&g).unwrap_err(),
            GraphError::UnknownNode(NodeId(99))
        );
    }

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
        let mut pruned = Cow::Borrowed(&g);
        assert_eq!(prune(&mut pruned), 0);
        assert!(matches!(pruned, Cow::Borrowed(_)));
    }

    #[test]
    fn an_owned_graph_is_pruned_in_place() {
        let mut g = Graph::new();
        let x = g.input("x", &[4]).unwrap();
        let dead = g.log(x).unwrap();
        let y = g.exp(x).unwrap();
        let _ = g.add(dead, y).unwrap();
        let z = g.square(y).unwrap();
        g.mark_output(z);
        let (expected, _) = eliminate_dead_code(&g).unwrap();
        let nodes = g.nodes().as_ptr();
        let mut pruned = Cow::Owned(g);
        assert_eq!(prune(&mut pruned), 2);
        assert_eq!(pruned.nodes().as_ptr(), nodes, "the node vector is reused");
        assert_eq!(format!("{:?}", *pruned), format!("{expected:?}"));
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
