//! Inference-phase graph builders: prompt prefill and single-token decode.
//!
//! Online serving splits every request into two very different workloads:
//!
//! * **Prefill** — one forward pass over the whole prompt. Shaped like the
//!   training forward ([B, N, d] activations), it is MME-heavy: the big
//!   `[B·N, d] × [d, d]` projections run near the Table 2 GEMM plateau.
//! * **Decode** — one forward pass per generated token over a *single*
//!   position, attending to the KV cache. Every projection collapses to a
//!   batched GEMV (`[B, 1, d] × [d, d]`), which the MME executes at its
//!   launch-overhead floor while softmax/layernorm TPC work stays roughly
//!   constant — so the MME/TPC balance shifts exactly as the paper's
//!   Table 2 small-GEMM measurements predict.
//!
//! There is no concatenation operator in the IR, so the decode builder
//! models the KV cache as *input* tensors of the current context length;
//! the freshly projected K/V for the current token are marked as outputs
//! (the cache write-back). Cost-wise this is identical to attending over
//! `ctx` cached positions.

use crate::attention::softmax_attention;
use crate::config::LlmConfig;
use crate::layers::{ffn, layernorm, linear, merge_heads, split_heads};
use gaudi_graph::{Activation, Graph, GraphError, NodeId};
use gaudi_tensor::TensorError;

/// Node handles of a built prefill graph.
#[derive(Debug, Clone)]
pub struct BuiltPrefill {
    /// Token-id input `[B, N]`.
    pub ids: NodeId,
    /// Final hidden states `[B, N, d]` (the KV cache + last-position state).
    pub hidden: NodeId,
}

/// Node handles of a built decode-step graph.
#[derive(Debug, Clone)]
pub struct BuiltDecodeStep {
    /// Current-token id input `[B, 1]`.
    pub ids: NodeId,
    /// Next-token logits `[B, 1, V]`.
    pub logits: NodeId,
}

/// Build the prefill graph: embed a `[batch, prompt_len]` prompt and run
/// the full causal encoder stack, producing the hidden states that seed
/// the KV cache. The LM head is *not* applied here — the first sampled
/// token comes out of the first decode step, which is also how
/// iteration-level serving engines schedule it.
///
/// # Errors
///
/// A zero `batch` or `prompt_len` is
/// `GraphError::Shape(TensorError::EmptyTensor)`.
pub fn build_prefill(
    cfg: &LlmConfig,
    batch: usize,
    prompt_len: usize,
) -> Result<(Graph, BuiltPrefill), GraphError> {
    let mut g = Graph::new();
    let built = build_prefill_into(cfg, batch, prompt_len, &mut g)?;
    Ok((g, built))
}

/// [`build_prefill`] into `g`: it [clears](Graph::clear) `g` and builds the
/// same graph there, so a caller that builds one phase after another into
/// one graph reuses its node storage. On an error `g` holds a partial
/// graph, or is untouched if the shape is empty.
///
/// # Errors
///
/// As [`build_prefill`].
pub fn build_prefill_into(
    cfg: &LlmConfig,
    batch: usize,
    prompt_len: usize,
    g: &mut Graph,
) -> Result<BuiltPrefill, GraphError> {
    if batch == 0 || prompt_len == 0 {
        return Err(TensorError::EmptyTensor.into());
    }
    g.clear();
    g.storage_dtype = gaudi_tensor::DType::F32;
    let d = cfg.model_dim();

    let ids = g.input("ids", &[batch, prompt_len])?;
    let tok_table = g.parameter("serve.tok_embed", &[cfg.vocab, d])?;
    let tok = g.embedding(tok_table, ids)?;
    g.name_last("tok_embed")?;
    let pos_table = g.parameter("serve.pos_embed", &[prompt_len, d])?;
    let mut h = g.add(tok, pos_table)?;
    h = layernorm(g, h, "serve.embed_ln")?;

    let mask = g.input("causal_mask", &[prompt_len, prompt_len])?;
    let layer_cfg = crate::config::TransformerLayerConfig {
        seq_len: prompt_len,
        batch,
        heads: cfg.heads,
        head_dim: cfg.head_dim,
        attention: crate::attention::AttentionKind::Softmax,
        activation: Activation::Gelu,
        ffn_mult: cfg.ffn_mult,
        include_ffn: true,
        training: false,
    };
    for l in 0..cfg.layers {
        h = crate::transformer::transformer_layer(
            g,
            h,
            &layer_cfg,
            ("serve.layer", l),
            Some(mask),
        )?;
    }
    g.mark_output(h);
    Ok(BuiltPrefill { ids, hidden: h })
}

/// Build one decode step: a `[batch, 1]` token batch attends to per-layer
/// KV caches of `ctx_len` positions and produces next-token logits.
///
/// # Errors
///
/// A zero `batch` or `ctx_len` is
/// `GraphError::Shape(TensorError::EmptyTensor)`.
pub fn build_decode_step(
    cfg: &LlmConfig,
    batch: usize,
    ctx_len: usize,
) -> Result<(Graph, BuiltDecodeStep), GraphError> {
    let mut g = Graph::new();
    let built = build_decode_step_into(cfg, batch, ctx_len, &mut g)?;
    Ok((g, built))
}

/// [`build_decode_step`] into `g`, which it [clears](Graph::clear) first,
/// as [`build_prefill_into`] does.
///
/// # Errors
///
/// As [`build_decode_step`].
pub fn build_decode_step_into(
    cfg: &LlmConfig,
    batch: usize,
    ctx_len: usize,
    g: &mut Graph,
) -> Result<BuiltDecodeStep, GraphError> {
    if batch == 0 || ctx_len == 0 {
        return Err(TensorError::EmptyTensor.into());
    }
    g.clear();
    g.storage_dtype = gaudi_tensor::DType::F32;
    let d = cfg.model_dim();

    let ids = g.input("ids", &[batch, 1])?;
    let tok_table = g.parameter("serve.tok_embed", &[cfg.vocab, d])?;
    let tok = g.embedding(tok_table, ids)?;
    g.name_last("tok_embed")?;
    // One position's worth of positional embedding (gather stand-in).
    let pos = g.parameter("serve.pos_embed_step", &[1, d])?;
    let mut h = g.add(tok, pos)?;
    h = layernorm(g, h, "serve.embed_ln")?;

    for l in 0..cfg.layers {
        let name = ("serve.layer", l);
        // GEMV-shaped projections for the single current position.
        let q = linear(g, h, d, d, (name, ".q_proj"))?;
        let k = linear(g, h, d, d, (name, ".k_proj"))?;
        let v = linear(g, h, d, d, (name, ".v_proj"))?;
        let qh = split_heads(g, q, cfg.heads, cfg.head_dim)?;
        let kh = split_heads(g, k, cfg.heads, cfg.head_dim)?;
        let vh = split_heads(g, v, cfg.heads, cfg.head_dim)?;
        // The new K/V rows are written back to the cache.
        g.mark_output(kh);
        g.mark_output(vh);

        // Attend over the cached context.
        let cache = [batch, cfg.heads, ctx_len, cfg.head_dim];
        let k_cache = g.input((name, ".k_cache"), &cache)?;
        let v_cache = g.input((name, ".v_cache"), &cache)?;
        let ctx = softmax_attention(g, qh, k_cache, v_cache, None)?;
        let merged = merge_heads(g, ctx)?;
        let attn_out = linear(g, merged, d, d, (name, ".out_proj"))?;

        let res1 = g.add(h, attn_out)?;
        let ln1 = layernorm(g, res1, (name, ".ln1"))?;
        let f = ffn(
            g,
            ln1,
            d,
            d * cfg.ffn_mult,
            Activation::Gelu,
            (name, ".ffn"),
        )?;
        let res2 = g.add(ln1, f)?;
        h = layernorm(g, res2, (name, ".ln2"))?;
    }

    // LM head over the single position: `[B, 1, d] × [d, V]`.
    let logits = linear(g, h, d, cfg.vocab, "serve.lm_head")?;
    g.mark_output(logits);
    Ok(BuiltDecodeStep { ids, logits })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LlmConfig {
        LlmConfig::tiny(97)
    }

    #[test]
    fn prefill_builds_with_expected_shapes() {
        let (g, built) = build_prefill(&tiny(), 3, 16).unwrap();
        g.validate().unwrap();
        assert_eq!(g.shape(built.ids).dims(), &[3, 16]);
        assert_eq!(g.shape(built.hidden).dims(), &[3, 16, 16]);
    }

    #[test]
    fn decode_step_is_single_position() {
        let (g, built) = build_decode_step(&tiny(), 4, 32).unwrap();
        g.validate().unwrap();
        assert_eq!(g.shape(built.logits).dims(), &[4, 1, 97]);
        // The attention score matrix is [B, H, 1, ctx].
        assert!(g.nodes().iter().any(|n| n.shape.dims() == [4, 2, 1, 32]));
    }

    #[test]
    fn decode_marks_cache_writeback_outputs() {
        let cfg = tiny();
        let (g, _) = build_decode_step(&cfg, 2, 8).unwrap();
        // hidden K/V per layer + logits: at least 2*layers + 1 outputs.
        assert!(g.outputs().len() > 2 * cfg.layers);
    }

    /// `g`'s node names in order, unnamed nodes skipped: the embedding and
    /// layer 0, then what follows the last layer.
    fn embedding_layer0_and_head(g: &Graph) -> Vec<&str> {
        let names: Vec<&str> = g
            .nodes()
            .iter()
            .map(|n| g.name(n.id))
            .filter(|n| !n.is_empty())
            .collect();
        let layer0_end = names.iter().position(|&n| n == "serve.layer0.ln2").unwrap() + 1;
        let layers_end = names.iter().rposition(|&n| n.ends_with(".ln2")).unwrap() + 1;
        [&names[..layer0_end], &names[layers_end..]].concat()
    }

    /// Layer 0 of either phase after its attention inputs: the same names
    /// in both.
    const LAYER0_TAIL: [&str; 19] = [
        "attn_scores",
        "attn_softmax",
        "attn_output",
        "serve.layer0.out_proj.w",
        "serve.layer0.out_proj.b",
        "serve.layer0.out_proj",
        "serve.layer0.ln1.gamma",
        "serve.layer0.ln1.beta",
        "serve.layer0.ln1",
        "serve.layer0.ffn.fc1.w",
        "serve.layer0.ffn.fc1.b",
        "serve.layer0.ffn.fc1",
        "serve.layer0.ffn.gelu",
        "serve.layer0.ffn.fc2.w",
        "serve.layer0.ffn.fc2.b",
        "serve.layer0.ffn.fc2",
        "serve.layer0.ln2.gamma",
        "serve.layer0.ln2.beta",
        "serve.layer0.ln2",
    ];

    /// The q/k/v projections of layer 0.
    const LAYER0_QKV: [&str; 9] = [
        "serve.layer0.q_proj.w",
        "serve.layer0.q_proj.b",
        "serve.layer0.q_proj",
        "serve.layer0.k_proj.w",
        "serve.layer0.k_proj.b",
        "serve.layer0.k_proj",
        "serve.layer0.v_proj.w",
        "serve.layer0.v_proj.b",
        "serve.layer0.v_proj",
    ];

    #[test]
    fn serving_graphs_name_their_nodes() {
        // Partitioning matches `.k_cache`/`.v_cache`, and the runtime feeds
        // inputs and initializes parameters by these names.
        let (g, _) = build_decode_step(&tiny(), 2, 32).unwrap();
        let embedding = [
            "ids",
            "serve.tok_embed",
            "tok_embed",
            "serve.pos_embed_step",
            "serve.embed_ln.gamma",
            "serve.embed_ln.beta",
            "serve.embed_ln",
        ];
        let caches = ["serve.layer0.k_cache", "serve.layer0.v_cache"];
        let head = ["serve.lm_head.w", "serve.lm_head.b", "serve.lm_head"];
        let expected = [&embedding[..], &LAYER0_QKV, &caches, &LAYER0_TAIL, &head].concat();
        assert_eq!(embedding_layer0_and_head(&g), expected);

        // Prefill applies no head; its mask follows the embedding.
        let (g, _) = build_prefill(&tiny(), 1, 32).unwrap();
        let embedding = [
            "ids",
            "serve.tok_embed",
            "tok_embed",
            "serve.pos_embed",
            "serve.embed_ln.gamma",
            "serve.embed_ln.beta",
            "serve.embed_ln",
            "causal_mask",
        ];
        let expected = [&embedding[..], &LAYER0_QKV, &LAYER0_TAIL].concat();
        assert_eq!(embedding_layer0_and_head(&g), expected);
    }

    #[test]
    fn building_into_a_used_graph_matches_a_fresh_build() {
        let cfg = tiny();
        let text = |g: &Graph| format!("{g:?}");
        let prefill = |g: &mut Graph, batch, len| {
            let hidden = build_prefill_into(&cfg, batch, len, g).unwrap().hidden;
            let (fresh, built) = build_prefill(&cfg, batch, len).unwrap();
            assert_eq!((text(g), hidden), (text(&fresh), built.hidden));
        };
        let decode = |g: &mut Graph, batch, len| {
            let logits = build_decode_step_into(&cfg, batch, len, g).unwrap().logits;
            let (fresh, built) = build_decode_step(&cfg, batch, len).unwrap();
            assert_eq!((text(g), logits), (text(&fresh), built.logits));
        };
        // A decode after a prefill, a smaller prefill after a larger
        // decode, and a build after a failed one.
        let mut g = Graph::new();
        prefill(&mut g, 2, 32);
        decode(&mut g, 4, 64);
        prefill(&mut g, 1, 8);
        assert!(build_decode_step_into(&cfg, 0, 8, &mut g).is_err());
        decode(&mut g, 3, 16);
    }

    #[test]
    fn empty_shapes_are_shape_errors() {
        let empty = Err(GraphError::Shape(TensorError::EmptyTensor));
        for (batch, len) in [(0, 32), (4, 0)] {
            assert_eq!(build_prefill(&tiny(), batch, len).map(drop), empty);
            assert_eq!(build_decode_step(&tiny(), batch, len).map(drop), empty);
        }
    }

    #[test]
    fn decode_cost_grows_with_context() {
        use gaudi_compiler::GraphCompiler;
        let compiler = GraphCompiler::synapse_like();
        let cfg = tiny();
        let (short, _) = build_decode_step(&cfg, 4, 16).unwrap();
        let (long, _) = build_decode_step(&cfg, 4, 512).unwrap();
        let (_, p_short) = compiler.compile(&short).unwrap();
        let (_, p_long) = compiler.compile(&long).unwrap();
        assert!(p_long.makespan_ns > p_short.makespan_ns);
    }
}
