//! Building-block layers: linear projections, multi-head split/merge, FFN
//! with the Figure 7 activation sweep, and layernorm.
//!
//! Names are written into the graph's name buffer from pieces: a layer
//! passes its prefix down as a [`NodeName`] (`("serve.layer", 3)`, say),
//! and each block appends its suffixes to it, so building a layer formats
//! and allocates no name.

use gaudi_graph::{Activation, Graph, GraphError, NodeId, NodeName};

/// `y = x W + b` with parameters named `{name}.w` / `{name}.b` and the
/// matmul named `name`.
pub fn linear(
    g: &mut Graph,
    x: NodeId,
    d_in: usize,
    d_out: usize,
    name: impl NodeName,
) -> Result<NodeId, GraphError> {
    let w = g.parameter((&name, ".w"), &[d_in, d_out])?;
    let b = g.parameter((&name, ".b"), &[d_out])?;
    let xw = g.matmul(x, w)?;
    g.name_last(&name)?;
    g.add(xw, b)
}

/// Split `[B, N, H*D]` into heads `[B, H, N, D]`.
pub fn split_heads(
    g: &mut Graph,
    x: NodeId,
    heads: usize,
    head_dim: usize,
) -> Result<NodeId, GraphError> {
    let s = g.shape(x);
    let r = g.reshape(x, &[s.dim(0), s.dim(1), heads, head_dim])?;
    g.permute(r, &[0, 2, 1, 3])
}

/// Merge heads `[B, H, N, D]` back into `[B, N, H*D]`.
pub fn merge_heads(g: &mut Graph, x: NodeId) -> Result<NodeId, GraphError> {
    let s = g.shape(x);
    let p = g.permute(x, &[0, 2, 1, 3])?;
    g.reshape(p, &[s.dim(0), s.dim(2), s.dim(1) * s.dim(3)])
}

/// Layer normalization with parameters named `{name}.gamma` / `{name}.beta`
/// and the layernorm named `name`.
pub fn layernorm(g: &mut Graph, x: NodeId, name: impl NodeName) -> Result<NodeId, GraphError> {
    let d = g.shape(x).last_dim();
    let gamma = g.parameter((&name, ".gamma"), &[d])?;
    let beta = g.parameter((&name, ".beta"), &[d])?;
    let y = g.layernorm(x, gamma, beta, 1e-5)?;
    g.name_last(&name)?;
    Ok(y)
}

/// Position-wise feed-forward block: `act(x W1 + b1) W2 + b2`.
///
/// GLU follows `torch.nn.GLU` semantics: it halves the activation width, so
/// the second projection reads `d_ff / 2` features (`d_ff` must be even).
pub fn ffn(
    g: &mut Graph,
    x: NodeId,
    d_model: usize,
    d_ff: usize,
    act: Activation,
    name: impl NodeName,
) -> Result<NodeId, GraphError> {
    let h = linear(g, x, d_model, d_ff, (&name, ".fc1"))?;
    let a = g.activation(act, h)?;
    g.name_last((&name, ".", act.name()))?;
    let second_in = if matches!(act, Activation::Glu) {
        d_ff / 2
    } else {
        d_ff
    };
    linear(g, a, second_in, d_model, (&name, ".fc2"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes() {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 10, 16]).unwrap();
        let y = linear(&mut g, x, 16, 32, "proj").unwrap();
        assert_eq!(g.shape(y).dims(), &[4, 10, 32]);
        let names: Vec<&str> = (0..g.len()).map(|i| g.name(NodeId(i))).collect();
        assert_eq!(names, ["x", "proj.w", "proj.b", "proj", ""]);
    }

    #[test]
    fn head_split_merge_roundtrip_shapes() {
        let mut g = Graph::new();
        let x = g.input("x", &[2, 10, 24]).unwrap();
        let s = split_heads(&mut g, x, 3, 8).unwrap();
        assert_eq!(g.shape(s).dims(), &[2, 3, 10, 8]);
        let m = merge_heads(&mut g, s).unwrap();
        assert_eq!(g.shape(m).dims(), &[2, 10, 24]);
    }

    #[test]
    fn ffn_shapes_for_all_activations() {
        for act in [
            Activation::Relu,
            Activation::LeakyRelu(0.01),
            Activation::Gelu,
            Activation::Glu,
        ] {
            let mut g = Graph::new();
            let x = g.input("x", &[2, 6, 16]).unwrap();
            let y = ffn(&mut g, x, 16, 32, act, "ffn").unwrap();
            assert_eq!(g.shape(y).dims(), &[2, 6, 16], "{act:?}");
            g.validate().unwrap();
        }
    }

    #[test]
    fn glu_ffn_halves_the_gate_width() {
        let mut g = Graph::new();
        let x = g.input("x", &[2, 6, 16]).unwrap();
        let _ = ffn(&mut g, x, 16, 32, Activation::Glu, "ffn").unwrap();
        // fc1 keeps [16, 32]; GLU halves to 16 features; fc2 reads [16, 16].
        let named = |name| g.nodes().iter().find(|n| g.name(n.id) == name).unwrap();
        assert_eq!(named("ffn.fc1.w").shape.dims(), &[16, 32]);
        assert_eq!(named("ffn.fc2.w").shape.dims(), &[16, 16]);
        assert!(matches!(
            named("ffn.glu").kind,
            gaudi_graph::OpKind::Activation(_)
        ));
    }

    #[test]
    fn layernorm_has_params() {
        let mut g = Graph::new();
        let x = g.input("x", &[2, 6, 16]).unwrap();
        let y = layernorm(&mut g, x, "ln").unwrap();
        assert_eq!(g.shape(y).dims(), &[2, 6, 16]);
        assert!(g.nodes().iter().any(|n| g.name(n.id) == "ln.gamma"));
    }
}
