//! # gaudi-models
//!
//! Transformer model builders emitting `gaudi-graph` compute graphs — the
//! operator streams the paper profiles on real Gaudi hardware:
//!
//! * [`attention`] — the three §3.3 mechanisms: softmax attention (Vaswani),
//!   Linear-Transformer attention (`φ(x) = elu(x)+1`, Katharopoulos et al.),
//!   and Performer FAVOR (Choromanski et al., built exactly as the paper's
//!   Listing 1 including the `ones_like` normalizer);
//! * [`layers`] — linear/FFN/layernorm building blocks with the Figure 7
//!   activation sweep (ReLU, LeakyReLU, GELU, GLU);
//! * [`transformer`] — the single-layer configuration of §3.3 (sequence
//!   2048, batch 128, 6 heads, 64 hidden per head);
//! * [`bert`] / [`gpt`] — the end-to-end `BertForMaskedLM` and
//!   `GPT2LMHeadModel` analogs of §3.4 (sequence 2048, batch 8, 2 layers,
//!   8 heads, 64 hidden per head).

pub mod attention;
pub mod bert;
pub mod config;
pub mod decode;
pub mod gpt;
pub mod layers;
pub mod transformer;

pub use attention::AttentionKind;
pub use bert::BertConfig;
pub use config::{LlmConfig, TransformerLayerConfig};
pub use decode::{
    build_decode_step, build_decode_step_into, build_prefill, build_prefill_into, BuiltDecodeStep,
    BuiltPrefill,
};
pub use gpt::GptConfig;
pub use transformer::build_transformer_layer;

/// Activation selection re-exported from the graph IR.
pub type ActivationKind = gaudi_graph::Activation;
