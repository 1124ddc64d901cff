//! Numeric interpretation of graph nodes using the `gaudi-tensor` reference
//! operators.

use gaudi_graph::{Activation, EinsumSpec, Graph, Node, OpKind};
use gaudi_tensor::{ops, Shape, Tensor, TensorError};

/// Numeric-evaluation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// A source node had no value bound.
    Unbound(String),
    /// A node arrived with fewer operands than its kind requires, or an op
    /// that only a device-group executor can evaluate (a collective) reached
    /// the single-device interpreter.
    Unsupported(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Tensor(e) => write!(f, "tensor error: {e}"),
            InterpError::Unbound(n) => write!(f, "no value bound for source node '{n}'"),
            InterpError::Unsupported(what) => write!(f, "cannot evaluate: {what}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<TensorError> for InterpError {
    fn from(e: TensorError) -> Self {
        InterpError::Tensor(e)
    }
}

/// Evaluate one non-source node given its input tensors.
pub fn eval_node(graph: &Graph, node: &Node, inputs: &[&Tensor]) -> Result<Tensor, InterpError> {
    if inputs.len() < node.inputs.len() {
        return Err(InterpError::Unsupported(format!(
            "node '{}' ({}) received {} of {} operands",
            graph.name(node.id),
            node.kind,
            inputs.len(),
            node.inputs.len()
        )));
    }
    let out = match &node.kind {
        OpKind::Input | OpKind::Parameter => {
            return Err(InterpError::Unbound(graph.name(node.id).to_string()))
        }
        OpKind::Collective(c) => {
            // Collectives need the values of every rank in the device group;
            // only the sharded executor (gaudi-runtime::shard) has them.
            return Err(InterpError::Unsupported(format!(
                "collective '{}' outside a sharded multi-device run",
                c.name()
            )));
        }
        OpKind::Fill(v) => Tensor::full(node.shape.dims(), *v)?,
        OpKind::MatMul => ops::matmul(inputs[0], inputs[1])?,
        OpKind::Einsum(EinsumSpec::ScoresQKt) => {
            let kt = inputs[1].transpose_last2()?;
            ops::matmul(inputs[0], &kt)?
        }
        OpKind::Einsum(EinsumSpec::OutputAv) => ops::matmul(inputs[0], inputs[1])?,
        OpKind::Add => ops::add(inputs[0], inputs[1])?,
        OpKind::Sub => ops::sub(inputs[0], inputs[1])?,
        OpKind::Mul => ops::mul(inputs[0], inputs[1])?,
        OpKind::Div => ops::div(inputs[0], inputs[1])?,
        OpKind::Maximum => ops::maximum(inputs[0], inputs[1])?,
        OpKind::ScalarMul(s) => ops::scalar_mul(inputs[0], *s),
        OpKind::ScalarAdd(s) => ops::scalar_add(inputs[0], *s),
        OpKind::Square => ops::square(inputs[0]),
        OpKind::Sqrt => ops::sqrt(inputs[0]),
        OpKind::Exp => ops::exp(inputs[0]),
        OpKind::Log => ops::log(inputs[0]),
        OpKind::Neg => ops::neg(inputs[0]),
        OpKind::Activation(act) => eval_activation(*act, inputs[0])?,
        OpKind::ActivationGrad(act) => eval_activation_grad(*act, inputs[0], inputs[1])?,
        OpKind::Softmax => ops::softmax_last_axis(inputs[0])?,
        OpKind::SoftmaxGrad => {
            // dx = (dy - sum(dy * y)) * y, row-wise.
            let (y, dy) = (inputs[0], inputs[1]);
            let prod = ops::mul(dy, y)?;
            let s = ops::sum_last_axis(&prod, true)?;
            let centered = ops::sub(dy, &s)?;
            ops::mul(&centered, y)?
        }
        OpKind::LayerNorm { eps } => {
            ops::layernorm_last_axis(inputs[0], inputs[1], inputs[2], *eps)?
        }
        OpKind::LayerNormGrad { eps } => layernorm_grad(inputs[0], inputs[1], inputs[2], *eps)?,
        OpKind::Transpose => inputs[0].transpose_last2()?,
        OpKind::Permute(order) => permute(inputs[0], order)?,
        OpKind::Reshape => inputs[0].reshape(node.shape.dims())?,
        OpKind::BroadcastTo => {
            let zeros = Tensor::zeros(node.shape.dims())?;
            ops::add(inputs[0], &zeros)?
        }
        OpKind::ReduceTo => reduce_to(inputs[0], &node.shape)?,
        OpKind::ReduceSum { keep_dim } => ops::sum_last_axis(inputs[0], *keep_dim)?,
        OpKind::ReduceMax { keep_dim } => ops::max_last_axis(inputs[0], *keep_dim)?,
        OpKind::ReduceMean { keep_dim } => ops::mean_last_axis(inputs[0], *keep_dim)?,
        OpKind::Embedding => embedding(inputs[0], inputs[1], &node.shape)?,
        OpKind::EmbeddingGrad => embedding_grad(inputs[0], inputs[1], &node.shape)?,
        OpKind::CrossEntropy => cross_entropy(inputs[0], inputs[1])?,
        OpKind::CrossEntropyGrad => cross_entropy_grad(inputs[0], inputs[1])?,
        OpKind::FusedElementwise(ops) => {
            let mut value = inputs[0].clone();
            for op in ops {
                value = eval_fused_unary(op, &value)?;
            }
            value
        }
        // The fused kernels are numerically *defined* as the composition of
        // the unfused reference ops, evaluated in the same order — so the
        // fusion pass is bit-exact at the graph level (the online-softmax
        // tiling lives in the TPC VM and cost model, not here).
        OpKind::FusedAttention { scale, masked } => {
            let kt = inputs[1].transpose_last2()?;
            let scores = ops::matmul(inputs[0], &kt)?;
            let scaled = ops::scalar_mul(&scores, *scale);
            let pre = if *masked {
                ops::add(&scaled, inputs[3])?
            } else {
                scaled
            };
            let probs = ops::softmax_last_axis(&pre)?;
            ops::matmul(&probs, inputs[2])?
        }
        OpKind::FusedSoftmaxMatMul => {
            let probs = ops::softmax_last_axis(inputs[0])?;
            ops::matmul(&probs, inputs[1])?
        }
    };
    debug_assert_eq!(
        out.dims(),
        node.shape.dims(),
        "numeric shape must match inferred shape for {}",
        node.kind
    );
    Ok(out)
}

/// Evaluate one link of a fused unary chain.
fn eval_fused_unary(op: &OpKind, x: &Tensor) -> Result<Tensor, InterpError> {
    Ok(match op {
        OpKind::ScalarMul(s) => ops::scalar_mul(x, *s),
        OpKind::ScalarAdd(s) => ops::scalar_add(x, *s),
        OpKind::Square => ops::square(x),
        OpKind::Sqrt => ops::sqrt(x),
        OpKind::Exp => ops::exp(x),
        OpKind::Log => ops::log(x),
        OpKind::Neg => ops::neg(x),
        OpKind::Activation(a) => eval_activation(*a, x)?,
        other => {
            return Err(InterpError::Unbound(format!(
                "non-unary op {other} in fused chain"
            )))
        }
    })
}

fn eval_activation(act: Activation, x: &Tensor) -> Result<Tensor, InterpError> {
    Ok(match act {
        Activation::Relu => ops::relu(x),
        Activation::LeakyRelu(s) => ops::leaky_relu(x, s),
        Activation::Gelu => ops::gelu(x),
        Activation::Elu => ops::elu(x),
        Activation::Sigmoid => ops::sigmoid(x),
        Activation::Tanh => ops::tanh(x),
        Activation::Glu => ops::glu(x)?,
        Activation::EluPlusOne => ops::elu_plus_one(x),
    })
}

fn eval_activation_grad(act: Activation, x: &Tensor, dy: &Tensor) -> Result<Tensor, InterpError> {
    const GELU_C: f32 = 0.797_884_6;
    let dx = match act {
        Activation::Relu => {
            let mask = ops::unary_op(x, |v| if v > 0.0 { 1.0 } else { 0.0 });
            ops::mul(dy, &mask)?
        }
        Activation::LeakyRelu(s) => {
            let mask = ops::unary_op(x, move |v| if v >= 0.0 { 1.0 } else { s });
            ops::mul(dy, &mask)?
        }
        Activation::Gelu => {
            let deriv = ops::unary_op(x, |v| {
                let inner = GELU_C * (v + 0.044_715 * v * v * v);
                let t = inner.tanh();
                let dinner = GELU_C * (1.0 + 3.0 * 0.044_715 * v * v);
                0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner
            });
            ops::mul(dy, &deriv)?
        }
        Activation::Elu | Activation::EluPlusOne => {
            let deriv = ops::unary_op(x, |v| if v > 0.0 { 1.0 } else { v.exp() });
            ops::mul(dy, &deriv)?
        }
        Activation::Sigmoid => {
            let deriv = ops::unary_op(x, |v| {
                let s = 1.0 / (1.0 + (-v).exp());
                s * (1.0 - s)
            });
            ops::mul(dy, &deriv)?
        }
        Activation::Tanh => {
            let deriv = ops::unary_op(x, |v| 1.0 - v.tanh() * v.tanh());
            ops::mul(dy, &deriv)?
        }
        Activation::Glu => {
            // x = [a | b]; y = a * sigmoid(b); dy has half width.
            let (a, b) = x.split_last_dim()?;
            let sb = ops::sigmoid(&b);
            let da = ops::mul(dy, &sb)?;
            let one_minus = ops::unary_op(&sb, |s| s * (1.0 - s));
            let db = ops::mul(&ops::mul(dy, &a)?, &one_minus)?;
            concat_last_dim(&da, &db)?
        }
    };
    Ok(dx)
}

fn permute(x: &Tensor, order: &[u8]) -> Result<Tensor, InterpError> {
    let in_shape = *x.shape();
    let dims: Vec<usize> = order
        .iter()
        .map(|&o| in_shape.dim(usize::from(o)))
        .collect();
    let out_shape = Shape::new(&dims)?;
    let out_strides = out_shape.strides();
    let mut out = vec![0.0f32; x.numel()];
    for idx in 0..x.numel() {
        let coords = in_shape.unravel(idx);
        let mut oidx = 0usize;
        for (j, &o) in order.iter().enumerate() {
            oidx += coords[usize::from(o)] * out_strides[j];
        }
        out[oidx] = x.data()[idx];
    }
    Ok(Tensor::from_vec(&dims, out)?)
}

fn concat_last_dim(a: &Tensor, b: &Tensor) -> Result<Tensor, InterpError> {
    let h = a.shape().last_dim();
    let rows = a.shape().rows();
    let mut out = vec![0.0f32; rows * 2 * h];
    for r in 0..rows {
        out[r * 2 * h..r * 2 * h + h].copy_from_slice(&a.data()[r * h..(r + 1) * h]);
        out[r * 2 * h + h..(r + 1) * 2 * h].copy_from_slice(&b.data()[r * h..(r + 1) * h]);
    }
    let mut dims: Vec<usize> = a.dims().to_vec();
    *dims.last_mut().unwrap() = 2 * h;
    Ok(Tensor::from_vec(&dims, out)?)
}

fn layernorm_grad(
    x: &Tensor,
    gamma: &Tensor,
    dy: &Tensor,
    eps: f32,
) -> Result<Tensor, InterpError> {
    let d = x.shape().last_dim();
    let rows = x.shape().rows();
    let g = gamma.data();
    let mut out = vec![0.0f32; x.numel()];
    for r in 0..rows {
        let xr = &x.data()[r * d..(r + 1) * d];
        let dyr = &dy.data()[r * d..(r + 1) * d];
        let n = d as f32;
        let mean = xr.iter().sum::<f32>() / n;
        let var = xr.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv = 1.0 / (var + eps).sqrt();
        // dyg = dy * gamma; xhat = (x - mean) * inv
        let mut mean_dyg = 0.0f32;
        let mut mean_dyg_xhat = 0.0f32;
        for i in 0..d {
            let dyg = dyr[i] * g[i];
            let xhat = (xr[i] - mean) * inv;
            mean_dyg += dyg;
            mean_dyg_xhat += dyg * xhat;
        }
        mean_dyg /= n;
        mean_dyg_xhat /= n;
        for i in 0..d {
            let dyg = dyr[i] * g[i];
            let xhat = (xr[i] - mean) * inv;
            out[r * d + i] = inv * (dyg - mean_dyg - xhat * mean_dyg_xhat);
        }
    }
    Ok(Tensor::from_vec(x.dims(), out)?)
}

fn reduce_to(x: &Tensor, target: &Shape) -> Result<Tensor, InterpError> {
    let mut out = Tensor::zeros(target.dims())?;
    let src_shape = *x.shape();
    for idx in 0..x.numel() {
        let coords = src_shape.unravel(idx);
        let tgt = src_shape.broadcast_source_index(target, &coords);
        out.data_mut()[tgt] += x.data()[idx];
    }
    Ok(out)
}

fn embedding(table: &Tensor, ids: &Tensor, out_shape: &Shape) -> Result<Tensor, InterpError> {
    let d = table.shape().dim(1);
    let v = table.shape().dim(0);
    let n = ids.numel();
    let mut out = vec![0.0f32; n * d];
    for (i, &id) in ids.data().iter().enumerate() {
        let row = (id.round().max(0.0) as usize).min(v - 1);
        out[i * d..(i + 1) * d].copy_from_slice(&table.data()[row * d..(row + 1) * d]);
    }
    Ok(Tensor::from_vec(out_shape.dims(), out)?)
}

fn embedding_grad(ids: &Tensor, dy: &Tensor, table_shape: &Shape) -> Result<Tensor, InterpError> {
    let d = table_shape.dim(1);
    let v = table_shape.dim(0);
    let mut out = vec![0.0f32; v * d];
    for (i, &id) in ids.data().iter().enumerate() {
        let row = (id.round().max(0.0) as usize).min(v - 1);
        for j in 0..d {
            out[row * d + j] += dy.data()[i * d + j];
        }
    }
    Ok(Tensor::from_vec(table_shape.dims(), out)?)
}

fn cross_entropy(logits: &Tensor, targets: &Tensor) -> Result<Tensor, InterpError> {
    let probs = ops::softmax_last_axis(logits)?;
    let v = logits.shape().last_dim();
    let n = targets.numel();
    let mut loss = 0.0f32;
    for (i, &t) in targets.data().iter().enumerate() {
        let cls = (t.round().max(0.0) as usize).min(v - 1);
        loss -= probs.data()[i * v + cls].max(1e-12).ln();
    }
    Ok(Tensor::from_vec(&[1], vec![loss / n as f32])?)
}

fn cross_entropy_grad(logits: &Tensor, targets: &Tensor) -> Result<Tensor, InterpError> {
    let mut probs = ops::softmax_last_axis(logits)?;
    let v = logits.shape().last_dim();
    let n = targets.numel() as f32;
    for (i, &t) in targets.data().iter().enumerate() {
        let cls = (t.round().max(0.0) as usize).min(v - 1);
        probs.data_mut()[i * v + cls] -= 1.0;
    }
    Ok(ops::scalar_mul(&probs, 1.0 / n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaudi_tensor::SeededRng;

    fn finite_diff_check(act: Activation, x0: f32) -> (f32, f32) {
        let x = Tensor::from_vec(&[2], vec![x0, x0]).unwrap();
        let h = 1e-3f32;
        let xp = Tensor::from_vec(&[2], vec![x0 + h, x0 + h]).unwrap();
        let xm = Tensor::from_vec(&[2], vec![x0 - h, x0 - h]).unwrap();
        let (fp, fm) = match act {
            Activation::Glu => (
                ops::glu(&xp).unwrap().data()[0],
                ops::glu(&xm).unwrap().data()[0],
            ),
            _ => (
                eval_activation(act, &xp).unwrap().data()[0],
                eval_activation(act, &xm).unwrap().data()[0],
            ),
        };
        let numeric = (fp - fm) / (2.0 * h);
        let dy_full = Tensor::ones(&[2]).unwrap();
        let dy_half = Tensor::ones(&[1]).unwrap();
        let analytic = match act {
            Activation::Glu => {
                // d/dt glu([t, t]) = sig(t) + t*sig'(t): sum both halves.
                let x2 = Tensor::from_vec(&[2], vec![x0, x0]).unwrap();
                let dx = eval_activation_grad(act, &x2, &dy_half).unwrap();
                dx.data()[0] + dx.data()[1]
            }
            _ => eval_activation_grad(act, &x, &dy_full).unwrap().data()[0],
        };
        (numeric, analytic)
    }

    #[test]
    fn activation_grads_match_finite_differences() {
        for act in [
            Activation::Relu,
            Activation::LeakyRelu(0.01),
            Activation::Gelu,
            Activation::Elu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::EluPlusOne,
            Activation::Glu,
        ] {
            for &x0 in &[-1.2f32, 0.4, 1.7] {
                let (numeric, analytic) = finite_diff_check(act, x0);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "{act:?} at {x0}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn softmax_grad_matches_finite_differences() {
        let mut rng = SeededRng::new(5);
        let x = Tensor::randn(&[1, 6], 1.0, &mut rng).unwrap();
        let y = ops::softmax_last_axis(&x).unwrap();
        // Loss = sum(w * softmax(x)) for random w.
        let w = Tensor::randn(&[1, 6], 1.0, &mut rng).unwrap();
        let mut g = Graph::new();
        let xn = g.input("x", &[1, 6]).unwrap();
        let sm = g.softmax(xn).unwrap();
        let node = g.node(sm).clone();
        let dx = eval_node(&g, &node, &[&x]).unwrap(); // just softmax fwd
        assert!(dx.max_abs_diff(&y) < 1e-6);

        // Analytic via SoftmaxGrad with dy = w.
        let sg = Graph::new();
        let _ = sg;
        let grad = {
            let mut g2 = Graph::new();
            let yn = g2.input("y", &[1, 6]).unwrap();
            let dyn_ = g2.input("dy", &[1, 6]).unwrap();
            let n = g2
                .push_node(OpKind::SoftmaxGrad, &[yn, dyn_], *y.shape(), "")
                .unwrap();
            let node = g2.node(n).clone();
            eval_node(&g2, &node, &[&y, &w]).unwrap()
        };
        // Finite difference.
        let h = 1e-3;
        for i in 0..6 {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let lp: f32 = ops::mul(&ops::softmax_last_axis(&xp).unwrap(), &w)
                .unwrap()
                .data()
                .iter()
                .sum();
            let lm: f32 = ops::mul(&ops::softmax_last_axis(&xm).unwrap(), &w)
                .unwrap()
                .data()
                .iter()
                .sum();
            let numeric = (lp - lm) / (2.0 * h);
            assert!(
                (numeric - grad.data()[i]).abs() < 1e-2,
                "component {i}: {numeric} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn layernorm_grad_matches_finite_differences() {
        let mut rng = SeededRng::new(6);
        let x = Tensor::randn(&[1, 8], 1.0, &mut rng).unwrap();
        let gamma = Tensor::randn(&[8], 0.5, &mut rng).unwrap();
        let beta = Tensor::zeros(&[8]).unwrap();
        let w = Tensor::randn(&[1, 8], 1.0, &mut rng).unwrap();
        let eps = 1e-5;
        let dx = layernorm_grad(&x, &gamma, &w, eps).unwrap();
        let h = 1e-3;
        let loss = |xx: &Tensor| -> f32 {
            ops::mul(
                &ops::layernorm_last_axis(xx, &gamma, &beta, eps).unwrap(),
                &w,
            )
            .unwrap()
            .data()
            .iter()
            .sum()
        };
        for i in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * h);
            assert!(
                (numeric - dx.data()[i]).abs() < 2e-2,
                "component {i}: {numeric} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn embedding_gathers_and_scatters() {
        let table = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let ids = Tensor::from_vec(&[2, 2], vec![0.0, 2.0, 1.0, 1.0]).unwrap();
        let out_shape = Shape::of(&[2, 2, 2]);
        let e = embedding(&table, &ids, &out_shape).unwrap();
        assert_eq!(e.data(), &[1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 3.0, 4.0]);

        let dy = Tensor::ones(&[2, 2, 2]).unwrap();
        let dt = embedding_grad(&ids, &dy, table.shape()).unwrap();
        // Row 1 referenced twice -> grad 2; rows 0 and 2 once -> 1.
        assert_eq!(dt.data(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let logits = Tensor::from_vec(&[1, 2, 3], vec![20.0, 0.0, 0.0, 0.0, 20.0, 0.0]).unwrap();
        let targets = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]).unwrap();
        let loss = cross_entropy(&logits, &targets).unwrap();
        assert!(loss.data()[0] < 1e-3);
        // Uniform logits -> loss = ln(V).
        let logits = Tensor::zeros(&[1, 2, 3]).unwrap();
        let loss = cross_entropy(&logits, &targets).unwrap();
        assert!((loss.data()[0] - 3.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero_per_token() {
        let mut rng = SeededRng::new(9);
        let logits = Tensor::randn(&[1, 2, 5], 1.0, &mut rng).unwrap();
        let targets = Tensor::from_vec(&[1, 2], vec![3.0, 0.0]).unwrap();
        let grad = cross_entropy_grad(&logits, &targets).unwrap();
        for t in 0..2 {
            let s: f32 = grad.data()[t * 5..(t + 1) * 5].iter().sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn reduce_to_sums_broadcast_axes() {
        let x = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let r = reduce_to(&x, &Shape::of(&[3])).unwrap();
        assert_eq!(r.data(), &[5.0, 7.0, 9.0]);
        let r2 = reduce_to(&x, &Shape::of(&[2, 1])).unwrap();
        assert_eq!(r2.data(), &[6.0, 15.0]);
    }

    #[test]
    fn glu_grad_has_full_input_width() {
        let mut rng = SeededRng::new(10);
        let x = Tensor::randn(&[3, 8], 1.0, &mut rng).unwrap();
        let dy = Tensor::ones(&[3, 4]).unwrap();
        let dx = eval_activation_grad(Activation::Glu, &x, &dy).unwrap();
        assert_eq!(dx.dims(), &[3, 8]);
    }
}
