//! Integration: the fused-attention compiler pass is numerically invisible.
//!
//! The `FusedAttention` / `FusedSoftmaxMatMul` nodes are *defined* as the
//! composition of the unfused reference ops, so compiling the same graph
//! with the pattern-match pass on and off must produce **bit-identical**
//! outputs — not merely close. These tests run the full graph → compile →
//! interpret pipeline both ways across random shapes and compare with
//! `max_abs_diff == 0.0` (exact equality), including masked decode-shaped
//! attention at batch > 1.

use gaudi_compiler::CompilerOptions;
use gaudi_graph::{Graph, NodeId};
use gaudi_hw::GaudiConfig;
use gaudi_models::attention::softmax_attention;
use gaudi_runtime::{Feeds, NumericsMode, Runtime};
use gaudi_tensor::{SeededRng, Tensor};
use proptest::prelude::*;

/// Run `g` under full numerics with the attention-fusion pass on and off;
/// return the worst absolute output difference (must be exactly 0.0).
fn fused_vs_unfused(g: &Graph, feeds: &Feeds) -> f32 {
    let run = |fuse: bool| {
        let opts = CompilerOptions {
            fuse_attention: fuse,
            ..CompilerOptions::default()
        };
        Runtime::new(GaudiConfig::hls1(), opts)
            .run(g, feeds, NumericsMode::Full)
            .unwrap()
            .outputs
    };
    let fused = run(true);
    let unfused = run(false);
    assert_eq!(fused.len(), unfused.len());
    fused
        .iter()
        .zip(&unfused)
        .map(|(a, b)| a.max_abs_diff(b))
        .fold(0.0, f32::max)
}

/// A `[b, h, n, d]` attention graph over q/k/v inputs, optionally masked.
fn attention_graph(
    qdims: &[usize],
    kvdims: &[usize],
    mask_dims: Option<&[usize]>,
) -> (Graph, NodeId) {
    let mut g = Graph::new();
    let q = g.input("q", qdims).unwrap();
    let k = g.input("k", kvdims).unwrap();
    let v = g.input("v", kvdims).unwrap();
    let mask = mask_dims.map(|d| g.input("mask", d).unwrap());
    let out = softmax_attention(&mut g, q, k, v, mask).unwrap();
    g.mark_output(out);
    (g, out)
}

/// A causal `[n, m]` additive mask (0 on visible, -1e9 on future keys).
fn causal_mask(n: usize, m: usize) -> Tensor {
    let vals: Vec<f32> = (0..n)
        .flat_map(|i| (0..m).map(move |j| if j <= i + (m - n) { 0.0 } else { -1e9 }))
        .collect();
    Tensor::from_vec(&[n, m], vals).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fused_attention_is_bit_exact_across_shapes(seed in 0u64..10_000) {
        // Random (heads, seq, head_dim) — none need any kernel alignment;
        // the graph-level fused node handles arbitrary shapes.
        let mut rng = SeededRng::new(seed);
        let heads = 1 + (seed % 3) as usize;
        let n = 2 + (seed / 3 % 7) as usize;
        let d = 1 + (seed / 21 % 6) as usize;
        let b = 1 + (seed / 126 % 2) as usize;
        let dims = [b, heads, n, d];
        let (g, _) = attention_graph(&dims, &dims, None);
        let feeds = Feeds::auto(seed)
            .with_input("q", Tensor::randn(&dims, 1.0, &mut rng).unwrap())
            .with_input("k", Tensor::randn(&dims, 1.0, &mut rng).unwrap())
            .with_input("v", Tensor::randn(&dims, 1.0, &mut rng).unwrap());
        prop_assert_eq!(fused_vs_unfused(&g, &feeds), 0.0);
    }

    #[test]
    fn masked_decode_attention_is_bit_exact_at_batch_gt_1(seed in 0u64..10_000) {
        // Decode shape: one query row per sequence, batch > 1, attending
        // over a longer cached context through a causal mask.
        let mut rng = SeededRng::new(seed ^ 0xD0DE);
        let b = 2 + (seed % 3) as usize;
        let heads = 1 + (seed / 3 % 2) as usize;
        let ctx = 4 + (seed / 6 % 13) as usize;
        let d = 2 + (seed / 78 % 5) as usize;
        let qdims = [b, heads, 1, d];
        let kvdims = [b, heads, ctx, d];
        let (g, _) = attention_graph(&qdims, &kvdims, Some(&[1, ctx]));
        let feeds = Feeds::auto(seed)
            .with_input("q", Tensor::randn(&qdims, 1.0, &mut rng).unwrap())
            .with_input("k", Tensor::randn(&kvdims, 1.0, &mut rng).unwrap())
            .with_input("v", Tensor::randn(&kvdims, 1.0, &mut rng).unwrap())
            .with_input("mask", causal_mask(1, ctx));
        prop_assert_eq!(fused_vs_unfused(&g, &feeds), 0.0);
    }

    #[test]
    fn masked_prefill_attention_is_bit_exact(seed in 0u64..10_000) {
        // Square causal prefill at batch > 1.
        let mut rng = SeededRng::new(seed ^ 0xF111);
        let b = 2;
        let heads = 1 + (seed % 3) as usize;
        let n = 3 + (seed / 3 % 6) as usize;
        let d = 2 + (seed / 18 % 4) as usize;
        let dims = [b, heads, n, d];
        let (g, _) = attention_graph(&dims, &dims, Some(&[n, n]));
        let feeds = Feeds::auto(seed)
            .with_input("q", Tensor::randn(&dims, 0.8, &mut rng).unwrap())
            .with_input("k", Tensor::randn(&dims, 0.8, &mut rng).unwrap())
            .with_input("v", Tensor::randn(&dims, 0.8, &mut rng).unwrap())
            .with_input("mask", causal_mask(n, n));
        prop_assert_eq!(fused_vs_unfused(&g, &feeds), 0.0);
    }

    #[test]
    fn partial_softmax_matmul_fusion_is_bit_exact(seed in 0u64..10_000) {
        // A bare softmax feeding a matmul (no upstream Q·Kᵀ) takes the
        // FusedSoftmaxMatMul fallback; it must also be bit-exact.
        let mut rng = SeededRng::new(seed ^ 0x50F7);
        let b = 1 + (seed % 2) as usize;
        let n = 2 + (seed / 2 % 6) as usize;
        let m = 2 + (seed / 12 % 6) as usize;
        let dv = 1 + (seed / 72 % 5) as usize;
        let mut g = Graph::new();
        let x = g.input("x", &[b, n, m]).unwrap();
        let v = g.input("v", &[b, m, dv]).unwrap();
        let p = g.softmax(x).unwrap();
        let out = g.matmul(p, v).unwrap();
        g.mark_output(out);
        let feeds = Feeds::auto(seed)
            .with_input("x", Tensor::randn(&[b, n, m], 2.0, &mut rng).unwrap())
            .with_input("v", Tensor::randn(&[b, m, dv], 1.0, &mut rng).unwrap());
        prop_assert_eq!(fused_vs_unfused(&g, &feeds), 0.0);
    }
}

#[test]
fn stacked_layers_and_downstream_consumers_stay_bit_exact() {
    // Two chained attention blocks whose output feeds further element-wise
    // work: both patterns fuse, the remap keeps every consumer intact, and
    // the numerics still match exactly.
    let mut rng = SeededRng::new(77);
    let dims = [2, 2, 6, 4];
    let mut g = Graph::new();
    let q = g.input("q", &dims).unwrap();
    let k = g.input("k", &dims).unwrap();
    let v = g.input("v", &dims).unwrap();
    let a1 = softmax_attention(&mut g, q, k, v, None).unwrap();
    let a2 = softmax_attention(&mut g, a1, k, v, None).unwrap();
    let y = g.exp(a2).unwrap();
    g.mark_output(y);
    let feeds = Feeds::auto(5)
        .with_input("q", Tensor::randn(&dims, 0.6, &mut rng).unwrap())
        .with_input("k", Tensor::randn(&dims, 0.6, &mut rng).unwrap())
        .with_input("v", Tensor::randn(&dims, 0.6, &mut rng).unwrap());
    assert_eq!(fused_vs_unfused(&g, &feeds), 0.0);
}

#[test]
fn fused_graphs_actually_contain_fused_nodes() {
    // Guard against the equivalence tests passing vacuously: the fused
    // compile path must really rewrite the graph.
    use gaudi_graph::OpKind;
    let dims = [2, 2, 6, 4];
    let mut g = Graph::new();
    let q = g.input("q", &dims).unwrap();
    let k = g.input("k", &dims).unwrap();
    let v = g.input("v", &dims).unwrap();
    let out = softmax_attention(&mut g, q, k, v, None).unwrap();
    g.mark_output(out);
    let (fused, stats) = gaudi_compiler::fuse_attention(&g).unwrap();
    assert_eq!(stats.attention, 1);
    assert!(fused
        .nodes()
        .iter()
        .any(|n| matches!(n.kind, OpKind::FusedAttention { .. })));
}
