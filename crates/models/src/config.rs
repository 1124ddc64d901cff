//! Experiment configurations, with constructors matching the paper's setups.

use crate::attention::AttentionKind;
use gaudi_graph::Activation;

/// Configuration of a single Transformer layer benchmark (§3.3).
#[derive(Debug, Clone)]
pub struct TransformerLayerConfig {
    /// Input sequence length `N`.
    pub seq_len: usize,
    /// Batch size.
    pub batch: usize,
    /// Number of attention heads `H`.
    pub heads: usize,
    /// Hidden size per head `D`.
    pub head_dim: usize,
    /// Attention mechanism under test.
    pub attention: AttentionKind,
    /// Feed-forward activation (the Figure 7 sweep).
    pub activation: Activation,
    /// FFN inner-size multiplier (1 keeps the layer at the paper's ~30 ms
    /// scale; classic Transformers use 4).
    pub ffn_mult: usize,
    /// Include the position-wise feed-forward block.
    pub include_ffn: bool,
    /// Append the backward (training) graph.
    pub training: bool,
}

impl TransformerLayerConfig {
    /// The §3.3 profiling configuration: "we set the input sequence length,
    /// batch size, the number of heads, and the hidden size per head as
    /// 2048, 128, 6, and 64 respectively".
    pub fn paper_section_3_3() -> Self {
        TransformerLayerConfig {
            seq_len: 2048,
            batch: 128,
            heads: 6,
            head_dim: 64,
            attention: AttentionKind::Softmax,
            activation: Activation::Relu,
            ffn_mult: 1,
            include_ffn: true,
            training: false,
        }
    }

    /// A host-executable miniature (same structure, tiny dims) for numeric
    /// tests and the quickstart example.
    pub fn tiny() -> Self {
        TransformerLayerConfig {
            seq_len: 64,
            batch: 2,
            heads: 2,
            head_dim: 8,
            attention: AttentionKind::Softmax,
            activation: Activation::Relu,
            ffn_mult: 1,
            include_ffn: true,
            training: false,
        }
    }

    /// Select the attention mechanism.
    pub fn with_attention(mut self, kind: AttentionKind) -> Self {
        self.attention = kind;
        self
    }

    /// Select the FFN activation.
    pub fn with_activation(mut self, act: Activation) -> Self {
        self.activation = act;
        self
    }

    /// Select the sequence length.
    pub fn with_seq_len(mut self, n: usize) -> Self {
        self.seq_len = n;
        self
    }

    /// Model width `H * D`.
    pub fn model_dim(&self) -> usize {
        self.heads * self.head_dim
    }
}

/// Configuration of an end-to-end language model benchmark (§3.4).
#[derive(Debug, Clone)]
pub struct LlmConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Input sequence length.
    pub seq_len: usize,
    /// Batch size.
    pub batch: usize,
    /// Number of Transformer layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Hidden size per head.
    pub head_dim: usize,
    /// FFN inner-size multiplier.
    pub ffn_mult: usize,
    /// Append the backward (training) graph.
    pub training: bool,
}

impl LlmConfig {
    /// The §3.4 configuration: "input sequence length, batch size, the
    /// number of layers, the number of heads, and the hidden size per head
    /// as 2048, 8, 2, 8, and 64" — batch limited by the 32 GB HBM.
    pub fn paper_section_3_4(vocab: usize) -> Self {
        LlmConfig {
            vocab,
            seq_len: 2048,
            batch: 8,
            layers: 2,
            heads: 8,
            head_dim: 64,
            ffn_mult: 4,
            training: true,
        }
    }

    /// Host-executable miniature for numeric tests.
    pub fn tiny(vocab: usize) -> Self {
        LlmConfig {
            vocab,
            seq_len: 32,
            batch: 2,
            layers: 2,
            heads: 2,
            head_dim: 8,
            ffn_mult: 2,
            training: false,
        }
    }

    /// Model width `H * D`.
    pub fn model_dim(&self) -> usize {
        self.heads * self.head_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_the_text() {
        let c = TransformerLayerConfig::paper_section_3_3();
        assert_eq!(
            (c.seq_len, c.batch, c.heads, c.head_dim),
            (2048, 128, 6, 64)
        );
        assert_eq!(c.model_dim(), 384);

        let l = LlmConfig::paper_section_3_4(30522);
        assert_eq!(
            (l.seq_len, l.batch, l.layers, l.heads, l.head_dim),
            (2048, 8, 2, 8, 64)
        );
        assert_eq!(l.model_dim(), 512);
    }

    #[test]
    fn builders_chain() {
        let c = TransformerLayerConfig::tiny()
            .with_attention(AttentionKind::Linear)
            .with_activation(Activation::Gelu)
            .with_seq_len(128);
        assert_eq!(c.attention, AttentionKind::Linear);
        assert_eq!(c.seq_len, 128);
    }
}
