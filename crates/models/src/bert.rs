//! `BertForMaskedLM` analog: encoder stack + language-modelling head, as
//! profiled end-to-end in §3.4 (Figure 9).

use crate::attention::AttentionKind;
use crate::config::{LlmConfig, TransformerLayerConfig};
use crate::layers::{layernorm, linear};
use crate::transformer::transformer_layer;
use gaudi_graph::{autograd, Activation, Graph, GraphError, NodeId};

/// BERT model configuration (wraps the shared LLM configuration with the
/// BERT-base vocabulary).
#[derive(Debug, Clone)]
pub struct BertConfig {
    /// Shared LLM dimensions.
    pub base: LlmConfig,
}

impl BertConfig {
    /// The §3.4 end-to-end configuration with BERT's WordPiece vocabulary.
    pub fn paper() -> Self {
        BertConfig {
            base: LlmConfig::paper_section_3_4(30522),
        }
    }

    /// Host-executable miniature.
    pub fn tiny() -> Self {
        BertConfig {
            base: LlmConfig::tiny(101),
        }
    }
}

/// Node handles of a built language model.
#[derive(Debug, Clone)]
pub struct BuiltLlm {
    /// Token-id input `[B, N]`.
    pub ids: NodeId,
    /// Label input `[B, N]` (MLM targets for BERT, shifted tokens for GPT).
    pub labels: NodeId,
    /// Token logits `[B, N, V]`.
    pub logits: NodeId,
    /// Scalar cross-entropy loss.
    pub loss: NodeId,
}

/// Build the masked-LM training graph.
pub fn build_bert_mlm(cfg: &BertConfig) -> Result<(Graph, BuiltLlm), GraphError> {
    let c = &cfg.base;
    build_encoder_lm(c, AttentionKind::Softmax, Activation::Gelu, false, "bert")
}

/// Shared encoder-LM builder (BERT without mask, GPT adds a causal mask).
pub(crate) fn build_encoder_lm(
    c: &LlmConfig,
    attention: AttentionKind,
    activation: Activation,
    causal: bool,
    name: &str,
) -> Result<(Graph, BuiltLlm), GraphError> {
    let mut g = Graph::new();
    // Hugging Face models run fp32 by default under PyTorch 1.13 (§3.1).
    g.storage_dtype = gaudi_tensor::DType::F32;
    let d = c.model_dim();

    let ids = g.input("ids", &[c.batch, c.seq_len])?;
    let labels = g.input("labels", &[c.batch, c.seq_len])?;

    let tok_table = g.parameter((name, ".tok_embed"), &[c.vocab, d])?;
    let tok = g.embedding(tok_table, ids)?;
    g.name_last("tok_embed")?;
    let pos_table = g.parameter((name, ".pos_embed"), &[c.seq_len, d])?;
    let mut h = g.add(tok, pos_table)?;
    h = layernorm(&mut g, h, (name, ".embed_ln"))?;

    let mask = if causal {
        Some(g.input("causal_mask", &[c.seq_len, c.seq_len])?)
    } else {
        None
    };

    let layer_cfg = TransformerLayerConfig {
        seq_len: c.seq_len,
        batch: c.batch,
        heads: c.heads,
        head_dim: c.head_dim,
        attention,
        activation,
        ffn_mult: c.ffn_mult,
        include_ffn: true,
        training: false,
    };
    for l in 0..c.layers {
        h = transformer_layer(&mut g, h, &layer_cfg, (name, ".layer", l), mask)?;
    }

    let logits = linear(&mut g, h, d, c.vocab, (name, ".lm_head"))?;
    let loss = g.cross_entropy(logits, labels)?;
    g.name_last("lm_loss")?;
    g.mark_output(loss);

    if c.training {
        let grads = autograd::backward(&mut g, loss)?;
        for p in autograd::parameters(&g) {
            if let Some(&gp) = grads.get(&p) {
                g.mark_output(gp);
            }
        }
    }

    Ok((
        g,
        BuiltLlm {
            ids,
            labels,
            logits,
            loss,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_graph::OpKind;

    #[test]
    fn tiny_bert_builds_and_validates() {
        let (g, built) = build_bert_mlm(&BertConfig::tiny()).unwrap();
        g.validate().unwrap();
        assert_eq!(g.shape(built.loss).dims(), &[1]);
        assert_eq!(g.shape(built.logits).dims(), &[2, 32, 101]);
    }

    #[test]
    fn paper_bert_has_two_layers_and_mlm_head() {
        let (g, _) = build_bert_mlm(&BertConfig::paper()).unwrap();
        assert!(g.nodes().iter().any(|n| g.name(n.id).contains("layer0")));
        assert!(g.nodes().iter().any(|n| g.name(n.id).contains("layer1")));
        assert!(!g.nodes().iter().any(|n| g.name(n.id).contains("layer2")));
        assert!(g.nodes().iter().any(|n| g.name(n.id).contains("lm_head")));
        // Training graph: embedding gradient present.
        assert!(g
            .nodes()
            .iter()
            .any(|n| matches!(n.kind, OpKind::EmbeddingGrad)));
    }

    #[test]
    fn bert_is_bidirectional_no_mask() {
        let (g, _) = build_bert_mlm(&BertConfig::tiny()).unwrap();
        assert!(!g.nodes().iter().any(|n| g.name(n.id) == "causal_mask"));
    }
}
