//! `GPT2LMHeadModel` analog: causal decoder stack + LM head (§3.4, Figure 8).

use crate::attention::AttentionKind;
use crate::bert::{build_encoder_lm, BuiltLlm};
use crate::config::LlmConfig;
use gaudi_graph::{Activation, Graph, GraphError};
use gaudi_tensor::Tensor;

/// GPT model configuration (GPT-2 BPE vocabulary by default).
#[derive(Debug, Clone)]
pub struct GptConfig {
    /// Shared LLM dimensions.
    pub base: LlmConfig,
}

impl GptConfig {
    /// The §3.4 end-to-end configuration with GPT-2's vocabulary.
    pub fn paper() -> Self {
        GptConfig {
            base: LlmConfig::paper_section_3_4(50257),
        }
    }

    /// Host-executable miniature.
    pub fn tiny() -> Self {
        GptConfig {
            base: LlmConfig::tiny(97),
        }
    }
}

/// Build the causal language-model training graph. GPT "is both an encoder
/// and a decoder, but during training only the decoder portion is utilized"
/// — i.e. an encoder stack with causal masking, which is what this builds.
pub fn build_gpt_lm(cfg: &GptConfig) -> Result<(Graph, BuiltLlm), GraphError> {
    build_encoder_lm(
        &cfg.base,
        AttentionKind::Softmax,
        Activation::Gelu,
        true,
        "gpt",
    )
}

/// The additive causal mask tensor fed to the `causal_mask` input in
/// full-numerics (`NumericsMode::Full`) runs: 0 on and below the diagonal,
/// a large negative value above it.
pub fn causal_mask_tensor(n: usize) -> Tensor {
    let mut data = vec![0.0f32; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            data[i * n + j] = -1.0e9;
        }
    }
    Tensor::from_vec(&[n, n], data).expect("square mask")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_gpt_builds_with_causal_mask_input() {
        let (g, built) = build_gpt_lm(&GptConfig::tiny()).unwrap();
        g.validate().unwrap();
        assert!(g.nodes().iter().any(|n| g.name(n.id) == "causal_mask"));
        assert_eq!(g.shape(built.loss).dims(), &[1]);
    }

    #[test]
    fn causal_mask_is_lower_triangular_zero() {
        let m = causal_mask_tensor(4);
        assert_eq!(m.at(&[2, 1]), 0.0);
        assert_eq!(m.at(&[2, 2]), 0.0);
        assert_eq!(m.at(&[1, 3]), -1.0e9);
        assert_eq!(m.at(&[0, 0]), 0.0);
    }

    #[test]
    fn gpt_vocab_differs_from_bert() {
        let g = GptConfig::paper();
        assert_eq!(g.base.vocab, 50257);
        let (graph, built) = build_gpt_lm(&GptConfig::tiny()).unwrap();
        assert_eq!(graph.shape(built.logits).last_dim(), 97);
    }
}
