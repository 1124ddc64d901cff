//! The single Transformer layer benchmarked in §3.3 (Figures 4–7).

use crate::attention::build_attention;
use crate::config::TransformerLayerConfig;
use crate::layers::{dotted, ffn, layernorm, linear, merge_heads, split_heads};
use gaudi_graph::{autograd, Graph, GraphError, NodeId};

/// The IDs a built layer exposes.
#[derive(Debug, Clone)]
pub struct BuiltLayer {
    /// The `Input` node (`[B, N, H*D]`), named `x`.
    pub input: NodeId,
    /// The layer output (`[B, N, H*D]`).
    pub output: NodeId,
    /// The scalar training loss, when `training` was requested.
    pub loss: Option<NodeId>,
}

/// Append one post-LN Transformer layer to `g`, reading from `x`.
pub fn transformer_layer(
    g: &mut Graph,
    x: NodeId,
    cfg: &TransformerLayerConfig,
    name: &str,
    mask: Option<NodeId>,
) -> Result<NodeId, GraphError> {
    let d_model = cfg.model_dim();

    // Projections, head split.
    let q = linear(g, x, d_model, d_model, dotted(name, "q_proj"))?;
    let k = linear(g, x, d_model, d_model, dotted(name, "k_proj"))?;
    let v = linear(g, x, d_model, d_model, dotted(name, "v_proj"))?;
    let qh = split_heads(g, q, cfg.heads, cfg.head_dim)?;
    let kh = split_heads(g, k, cfg.heads, cfg.head_dim)?;
    let vh = split_heads(g, v, cfg.heads, cfg.head_dim)?;

    // Attention.
    let ctx = build_attention(g, cfg.attention, qh, kh, vh, mask)?;
    let merged = merge_heads(g, ctx)?;
    let attn_out = linear(g, merged, d_model, d_model, dotted(name, "out_proj"))?;

    // Residual + LN.
    let res1 = g.add(x, attn_out)?;
    let ln1 = layernorm(g, res1, dotted(name, "ln1"))?;

    if !cfg.include_ffn {
        return Ok(ln1);
    }

    // FFN + residual + LN.
    let d_ff = d_model * cfg.ffn_mult;
    let f = ffn(g, ln1, d_model, d_ff, cfg.activation, &dotted(name, "ffn"))?;
    let res2 = g.add(ln1, f)?;
    layernorm(g, res2, dotted(name, "ln2"))
}

/// Build a standalone single-layer benchmark graph per the configuration.
///
/// With `training` set, a mean-square pseudo-loss and the full backward
/// graph are appended (the paper profiles training runs).
pub fn build_transformer_layer(
    cfg: &TransformerLayerConfig,
) -> Result<(Graph, BuiltLayer), GraphError> {
    let mut g = Graph::new();
    g.storage_dtype = gaudi_tensor::DType::BF16;
    let d_model = cfg.model_dim();
    let x = g.input("x", &[cfg.batch, cfg.seq_len, d_model])?;
    let out = transformer_layer(&mut g, x, cfg, "layer0", None)?;
    g.mark_output(out);

    let loss = if cfg.training {
        let sq = g.square(out)?;
        let s1 = g.reduce_mean(sq, false)?;
        let s2 = g.reduce_mean(s1, false)?;
        let loss = g.reduce_mean(s2, false)?;
        let grads = autograd::backward(&mut g, loss)?;
        // Keep parameter gradients live as outputs.
        for p in autograd::parameters(&g) {
            if let Some(&gp) = grads.get(&p) {
                g.mark_output(gp);
            }
        }
        Some(loss)
    } else {
        None
    };

    Ok((
        g,
        BuiltLayer {
            input: x,
            output: out,
            loss,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::AttentionKind;
    use gaudi_graph::OpKind;

    #[test]
    fn builds_for_every_attention_kind() {
        for kind in [
            AttentionKind::Softmax,
            AttentionKind::Linear,
            AttentionKind::Favor { features: 16 },
        ] {
            let cfg = TransformerLayerConfig::tiny().with_attention(kind);
            let (g, built) = build_transformer_layer(&cfg).unwrap();
            assert_eq!(g.shape(built.output).dims(), &[2, 64, 16]);
            g.validate().unwrap();
        }
    }

    #[test]
    fn paper_config_builds_with_expected_shapes() {
        let cfg = TransformerLayerConfig::paper_section_3_3();
        let (g, built) = build_transformer_layer(&cfg).unwrap();
        assert_eq!(g.shape(built.input).dims(), &[128, 2048, 384]);
        // The N x N attention matrix exists somewhere in the graph.
        assert!(g
            .nodes()
            .iter()
            .any(|n| n.shape.dims() == [128, 6, 2048, 2048]));
    }

    #[test]
    fn training_appends_backward_ops() {
        let mut cfg = TransformerLayerConfig::tiny();
        cfg.training = true;
        let (g, built) = build_transformer_layer(&cfg).unwrap();
        assert!(built.loss.is_some());
        assert!(g
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::SoftmaxGrad)));
        assert!(g.outputs().len() > 1, "parameter grads are outputs");
        let fwd_only = build_transformer_layer(&TransformerLayerConfig::tiny())
            .unwrap()
            .0;
        assert!(
            g.len() > 2 * fwd_only.len(),
            "backward roughly doubles the graph"
        );
    }

    #[test]
    fn ffn_can_be_disabled() {
        let mut cfg = TransformerLayerConfig::tiny();
        cfg.include_ffn = false;
        let (g, _) = build_transformer_layer(&cfg).unwrap();
        assert!(!g.nodes().iter().any(|n| n.name.contains("ffn")));
    }
}
