//! The three attention mechanisms of §3.3.
//!
//! All three builders take queries/keys/values already shaped `[B, H, N, D]`
//! and return the attention output in the same shape. They emit only basic
//! torch-like ops (Insight #2), so every matrix product reaches the MME and
//! every softmax/exponential lands on the TPC — reproducing the engine
//! placement the paper's traces show.

use gaudi_graph::{Activation, Graph, GraphError, NodeId};

/// Attention mechanism selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionKind {
    /// Softmax attention (Vaswani et al.) — O(N²), softmax on TPC is the
    /// Figure 4 bottleneck.
    Softmax,
    /// Linear-Transformer attention with `φ(x) = elu(x) + 1` — O(N),
    /// the Figure 5 winner (≈6x).
    Linear,
    /// Performer FAVOR with `m` random features — O(N) but with exponential
    /// feature maps on TPC (Figure 6, ≈2x, un-overlapped q'/k').
    Favor {
        /// Number of random features `m`.
        features: usize,
    },
    /// Block-local windowed attention (Sparse-Transformer style): each query
    /// attends within its window of `window` positions — O(N·W) softmax with
    /// all matrix work MME-friendly. This is the paper's *future work*
    /// ("novel attention mechanisms tailored to GAUDI's architecture"):
    /// it shrinks the TPC-bound softmax by N/W while keeping exact local
    /// interactions.
    LocalWindow {
        /// Window size `W` (must divide the sequence length).
        window: usize,
    },
}

impl AttentionKind {
    /// Display name used in benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            AttentionKind::Softmax => "softmax",
            AttentionKind::Linear => "linear",
            AttentionKind::Favor { .. } => "performer",
            AttentionKind::LocalWindow { .. } => "local_window",
        }
    }
}

/// Scaled-dot-product softmax attention over `[B, H, N, D]` tensors.
///
/// `mask` (optional, broadcastable to `[B, H, N, N]`) is added to the scores
/// before the softmax — used for GPT's causal masking.
pub fn softmax_attention(
    g: &mut Graph,
    q: NodeId,
    k: NodeId,
    v: NodeId,
    mask: Option<NodeId>,
) -> Result<NodeId, GraphError> {
    let d = g.shape(q).last_dim() as f32;
    let kt = g.transpose(k)?;
    let scores = g.matmul(q, kt)?;
    g.name_last("attn_scores");
    let scaled = g.scalar_mul(scores, 1.0 / d.sqrt())?;
    let masked = match mask {
        Some(m) => g.add(scaled, m)?,
        None => scaled,
    };
    let probs = g.softmax(masked)?;
    g.name_last("attn_softmax");
    let out = g.matmul(probs, v)?;
    g.name_last("attn_output");
    Ok(out)
}

/// Linear-Transformer attention: `φ(Q) (φ(K)ᵀ V) / (φ(Q) (φ(K)ᵀ 1))` with
/// `φ(x) = elu(x) + 1`. The associativity rewrite keeps almost all compute
/// in matrix products on the MME.
pub fn linear_attention(
    g: &mut Graph,
    q: NodeId,
    k: NodeId,
    v: NodeId,
) -> Result<NodeId, GraphError> {
    let phi_q = g.activation(Activation::EluPlusOne, q)?;
    g.name_last("phi_q");
    let phi_k = g.activation(Activation::EluPlusOne, k)?;
    g.name_last("phi_k");
    let phi_kt = g.transpose(phi_k)?; // [B,H,D,N]
    let kv = g.matmul(phi_kt, v)?; // [B,H,D,D]
    g.name_last("kv_state");
    let numer = g.matmul(phi_q, kv)?; // [B,H,N,D]
    g.name_last("attn_numer");

    // Normalizer: z = φ(Q) (φ(K)ᵀ 1_N) as an [B,H,N,1] column.
    let vs = g.shape(v);
    let ones = g.fill("ones_col", &[vs.dim(0), vs.dim(1), vs.dim(2), 1], 1.0)?;
    let k_sum = g.matmul(phi_kt, ones)?; // [B,H,D,1]
    let z = g.matmul(phi_q, k_sum)?; // [B,H,N,1]
    g.name_last("attn_norm");
    let out = g.div(numer, z)?;
    g.name_last("attn_output");
    Ok(out)
}

/// Performer FAVOR attention, transcribed from the paper's Listing 1:
///
/// ```python
/// q_scaled = self.pre_scale(q) @ self.features
/// q_prime  = torch.exp(q_scaled + self.offset)
/// ...
/// att_norm = q_prime @ (k_prime.transpose(-2,-1) @ torch.ones_like(v))
/// att_raw  = q_prime @ (k_prime.transpose(-2,-1) @ v)
/// x = att_raw / att_norm
/// ```
///
/// `features` is a `[D, m]` random-projection parameter. The `q_prime` /
/// `k_prime` exponentials are *independent*, which the in-order compiler
/// fails to overlap — the Figure 6 MME gap.
pub fn favor_attention(
    g: &mut Graph,
    q: NodeId,
    k: NodeId,
    v: NodeId,
    num_features: usize,
) -> Result<NodeId, GraphError> {
    let d = g.shape(q).last_dim();
    let pre_scale = 1.0 / (d as f32).sqrt().sqrt(); // d^(-1/4), split across q and k
    let offset = -0.5f32; // stand-in for the -||x||^2/2 stabilizer

    let features = g.parameter("favor_features", &[d, num_features])?;

    let q_scaled = g.scalar_mul(q, pre_scale)?;
    let q_feat = g.matmul(q_scaled, features)?; // [B,H,N,m]
    g.name_last("q_features");
    let q_shift = g.scalar_add(q_feat, offset)?;
    let q_prime = g.exp(q_shift)?;
    g.name_last("q_prime");

    let k_scaled = g.scalar_mul(k, pre_scale)?;
    let k_feat = g.matmul(k_scaled, features)?;
    g.name_last("k_features");
    let k_shift = g.scalar_add(k_feat, offset)?;
    let k_prime = g.exp(k_shift)?;
    g.name_last("k_prime");

    let k_prime_t = g.transpose(k_prime)?; // [B,H,m,N]
    let ones = g.ones_like(v, "ones_like_v")?;
    let norm_state = g.matmul(k_prime_t, ones)?; // [B,H,m,D]
    let att_norm = g.matmul(q_prime, norm_state)?; // [B,H,N,D]
    g.name_last("att_norm");
    let raw_state = g.matmul(k_prime_t, v)?; // [B,H,m,D]
    let att_raw = g.matmul(q_prime, raw_state)?; // [B,H,N,D]
    g.name_last("att_raw");
    let out = g.div(att_raw, att_norm)?;
    g.name_last("attn_output");
    Ok(out)
}

/// Block-local windowed attention: fold the sequence into `N / window`
/// independent blocks, run exact softmax attention inside each block, and
/// unfold. The softmax shrinks from `N x N` to `N x W` — attacking exactly
/// the Figure 4 bottleneck — while every matrix product stays on the MME.
pub fn local_window_attention(
    g: &mut Graph,
    q: NodeId,
    k: NodeId,
    v: NodeId,
    window: usize,
) -> Result<NodeId, GraphError> {
    let dims = g.shape(q).dims().to_vec();
    let (b, h, n, d) = (dims[0], dims[1], dims[2], dims[3]);
    if window == 0 || n % window != 0 {
        return Err(GraphError::Rank {
            what: "window must divide the sequence length",
        });
    }
    let blocks = n / window;
    let fold = |g: &mut Graph, t: NodeId| g.reshape(t, &[b * h * blocks, window, d]);
    let qb = fold(g, q)?;
    let kb = fold(g, k)?;
    let vb = fold(g, v)?;
    let kt = g.transpose(kb)?;
    let scores = g.matmul(qb, kt)?;
    g.name_last("attn_scores_local");
    let scaled = g.scalar_mul(scores, 1.0 / (d as f32).sqrt())?;
    let probs = g.softmax(scaled)?;
    g.name_last("attn_softmax_local");
    let ob = g.matmul(probs, vb)?;
    let out = g.reshape(ob, &[b, h, n, d])?;
    g.name_last("attn_output");
    Ok(out)
}

/// Build the selected attention over `[B, H, N, D]` operands.
pub fn build_attention(
    g: &mut Graph,
    kind: AttentionKind,
    q: NodeId,
    k: NodeId,
    v: NodeId,
    mask: Option<NodeId>,
) -> Result<NodeId, GraphError> {
    match kind {
        AttentionKind::Softmax => softmax_attention(g, q, k, v, mask),
        AttentionKind::Linear => linear_attention(g, q, k, v),
        AttentionKind::Favor { features } => favor_attention(g, q, k, v, features),
        AttentionKind::LocalWindow { window } => local_window_attention(g, q, k, v, window),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_graph::OpKind;

    fn qkv(g: &mut Graph) -> (NodeId, NodeId, NodeId) {
        let q = g.input("q", &[2, 3, 16, 8]).unwrap();
        let k = g.input("k", &[2, 3, 16, 8]).unwrap();
        let v = g.input("v", &[2, 3, 16, 8]).unwrap();
        (q, k, v)
    }

    #[test]
    fn softmax_attention_shape_preserved() {
        let mut g = Graph::new();
        let (q, k, v) = qkv(&mut g);
        let out = softmax_attention(&mut g, q, k, v, None).unwrap();
        assert_eq!(g.shape(out).dims(), &[2, 3, 16, 8]);
        assert!(g.nodes().iter().any(|n| matches!(n.kind, OpKind::Softmax)));
        g.validate().unwrap();
    }

    #[test]
    fn linear_attention_has_no_softmax_and_no_nxn_product() {
        let mut g = Graph::new();
        let (q, k, v) = qkv(&mut g);
        let out = linear_attention(&mut g, q, k, v).unwrap();
        assert_eq!(g.shape(out).dims(), &[2, 3, 16, 8]);
        assert!(!g.nodes().iter().any(|n| matches!(n.kind, OpKind::Softmax)));
        // No intermediate is N x N: linear attention avoids the quadratic blow-up.
        for n in g.nodes() {
            let dims = n.shape.dims();
            if dims.len() == 4 {
                assert!(
                    !(dims[2] == 16 && dims[3] == 16),
                    "found quadratic intermediate {:?} at {}",
                    dims,
                    n.kind
                );
            }
        }
    }

    #[test]
    fn favor_follows_listing_one() {
        let mut g = Graph::new();
        let (q, k, v) = qkv(&mut g);
        let out = favor_attention(&mut g, q, k, v, 32).unwrap();
        assert_eq!(g.shape(out).dims(), &[2, 3, 16, 8]);
        // Two exponentials (q_prime, k_prime) and a ones_like normalizer.
        let exps = g
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Exp))
            .count();
        assert_eq!(exps, 2);
        assert!(g.nodes().iter().any(|n| n.name == "ones_like_v"));
        // Final op is a division (att_raw / att_norm).
        assert!(matches!(g.node(out).kind, OpKind::Div));
    }

    #[test]
    fn favor_feature_dim_appears() {
        let mut g = Graph::new();
        let (q, k, v) = qkv(&mut g);
        let _ = favor_attention(&mut g, q, k, v, 48).unwrap();
        assert!(g
            .nodes()
            .iter()
            .any(|n| n.name == "q_features" && n.shape.dims() == [2, 3, 16, 48]));
    }

    #[test]
    fn masked_softmax_attention_builds() {
        let mut g = Graph::new();
        let (q, k, v) = qkv(&mut g);
        let mask = g.input("mask", &[16, 16]).unwrap();
        let out = softmax_attention(&mut g, q, k, v, Some(mask)).unwrap();
        assert_eq!(g.shape(out).dims(), &[2, 3, 16, 8]);
    }

    #[test]
    fn names_cover_all_kinds() {
        assert_eq!(AttentionKind::Softmax.name(), "softmax");
        assert_eq!(AttentionKind::Linear.name(), "linear");
        assert_eq!(AttentionKind::Favor { features: 4 }.name(), "performer");
        assert_eq!(
            AttentionKind::LocalWindow { window: 64 }.name(),
            "local_window"
        );
    }

    #[test]
    fn local_window_shapes_and_block_structure() {
        let mut g = Graph::new();
        let (q, k, v) = qkv(&mut g);
        let out = local_window_attention(&mut g, q, k, v, 4).unwrap();
        assert_eq!(g.shape(out).dims(), &[2, 3, 16, 8]);
        // The softmax operates on [B*H*blocks, W, W] = [24, 4, 4], not NxN.
        let sm = g
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::Softmax))
            .unwrap();
        assert_eq!(sm.shape.dims(), &[24, 4, 4]);
        g.validate().unwrap();
    }

    #[test]
    fn local_window_rejects_non_divisor() {
        let mut g = Graph::new();
        let (q, k, v) = qkv(&mut g);
        assert!(local_window_attention(&mut g, q, k, v, 5).is_err());
        let mut g2 = Graph::new();
        let (q, k, v) = qkv(&mut g2);
        assert!(local_window_attention(&mut g2, q, k, v, 0).is_err());
    }

    #[test]
    fn full_window_equals_global_softmax_attention_shape() {
        // window == N degenerates to one block of full attention.
        let mut g = Graph::new();
        let (q, k, v) = qkv(&mut g);
        let out = local_window_attention(&mut g, q, k, v, 16).unwrap();
        assert_eq!(g.shape(out).dims(), &[2, 3, 16, 8]);
        let sm = g
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OpKind::Softmax))
            .unwrap();
        assert_eq!(sm.shape.dims(), &[6, 16, 16]);
    }
}
