//! Lowering passes.
//!
//! The only rewrite SynapseAI is missing per the paper's Insight #2 is the
//! one implemented here: turning fused `einsum` contractions into basic
//! transpose + matmul so they map to the MME. The ablation benchmark runs
//! the same graph with and without this pass.

use gaudi_graph::{EinsumSpec, Graph, GraphError, NodeId, OpKind};
use std::collections::HashMap;

/// Rewrite every `Einsum` node into `transpose` + `matmul` basic ops.
///
/// Returns a new graph; all other nodes are copied verbatim (with remapped
/// operand ids) and marked outputs follow the rewrite.
pub fn lower_einsum(graph: &Graph) -> Result<Graph, GraphError> {
    let mut out = Graph::new();
    out.storage_dtype = graph.storage_dtype;
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();

    for node in graph.nodes() {
        let inputs: Vec<NodeId> = node.inputs.iter().map(|i| remap[i]).collect();
        let new_id = match &node.kind {
            OpKind::Einsum(EinsumSpec::ScoresQKt) => {
                // bhnd,bhmd->bhnm  ==  q @ transpose(k)
                let kt = out.transpose(inputs[1])?;
                out.matmul(inputs[0], kt)?
            }
            OpKind::Einsum(EinsumSpec::OutputAv) => {
                // bhnm,bhmd->bhnd  ==  a @ v
                out.matmul(inputs[0], inputs[1])?
            }
            kind => out.push_node(kind.clone(), &inputs, node.shape, graph.name(node.id))?,
        };
        remap.insert(node.id, new_id);
    }
    for o in graph.outputs() {
        out.mark_output(remap[o]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attention_graph() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let q = g.input("q", &[2, 4, 32, 16]).unwrap();
        let k = g.input("k", &[2, 4, 32, 16]).unwrap();
        let v = g.input("v", &[2, 4, 32, 16]).unwrap();
        let s = g.einsum(EinsumSpec::ScoresQKt, q, k).unwrap();
        let p = g.softmax(s).unwrap();
        let o = g.einsum(EinsumSpec::OutputAv, p, v).unwrap();
        g.mark_output(o);
        (g, o)
    }

    #[test]
    fn einsums_disappear_and_matmuls_appear() {
        let (g, _) = attention_graph();
        let lowered = lower_einsum(&g).unwrap();
        assert!(lowered
            .nodes()
            .iter()
            .all(|n| !matches!(n.kind, OpKind::Einsum(_))));
        let matmuls = lowered
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::MatMul))
            .count();
        assert_eq!(matmuls, 2);
        let transposes = lowered
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Transpose))
            .count();
        assert_eq!(transposes, 1);
        lowered.validate().unwrap();
    }

    #[test]
    fn output_shapes_preserved() {
        let (g, o) = attention_graph();
        let lowered = lower_einsum(&g).unwrap();
        assert_eq!(lowered.outputs().len(), 1);
        let new_out = lowered.outputs()[0];
        assert_eq!(lowered.shape(new_out).dims(), g.shape(o).dims());
    }

    #[test]
    fn non_einsum_graphs_pass_through() {
        let mut g = Graph::new();
        let a = g.input("a", &[4, 4]).unwrap();
        let b = g.matmul(a, a).unwrap();
        let c = g.softmax(b).unwrap();
        g.mark_output(c);
        let lowered = lower_einsum(&g).unwrap();
        assert_eq!(lowered.len(), g.len());
        for (old, new) in g.nodes().iter().zip(lowered.nodes()) {
            assert_eq!(old.kind, new.kind);
            assert_eq!(old.shape.dims(), new.shape.dims());
        }
    }
}
