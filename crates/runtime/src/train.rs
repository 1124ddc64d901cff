//! A small training harness over graphs built with the models' convention:
//! `outputs[0]` is the scalar loss, `outputs[1..]` are parameter gradients
//! in [`gaudi_graph::autograd::parameters`] order.

use crate::optim::Optimizer;
use crate::runtime::{Feeds, NumericsMode, Runtime, RuntimeError};
use gaudi_graph::{autograd, Graph, NodeId};
use gaudi_tensor::{SeededRng, Tensor};
use std::collections::HashMap;

/// Result of one training step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Scalar loss before the update.
    pub loss: f32,
    /// Simulated device time of the step, ms.
    pub makespan_ms: f64,
}

/// Owns the parameter store and drives step-by-step training.
pub struct Trainer {
    graph: Graph,
    runtime: Runtime,
    param_ids: Vec<NodeId>,
    params: HashMap<String, Tensor>,
}

impl Trainer {
    /// Initialize parameters (standard conventions: `.gamma` → 1, `.beta` /
    /// `.b` → 0, weights → N(0, 0.02)) and wrap the graph.
    pub fn new(graph: Graph, runtime: Runtime, seed: u64) -> Self {
        let param_ids = autograd::parameters(&graph);
        assert_eq!(
            graph.outputs().len(),
            1 + param_ids.len(),
            "training graphs expose [loss, grads...] as outputs"
        );
        let mut rng = SeededRng::new(seed);
        let mut params = HashMap::new();
        for &p in &param_ids {
            let (node, name) = (graph.node(p), graph.name(p));
            let t = if name.ends_with(".gamma") {
                Tensor::ones(node.shape.dims()).expect("valid shape")
            } else if name.ends_with(".beta") || name.ends_with(".b") {
                Tensor::zeros(node.shape.dims()).expect("valid shape")
            } else {
                Tensor::randn(node.shape.dims(), 0.02, &mut rng).expect("valid shape")
            };
            params.insert(name.to_string(), t);
        }
        Trainer {
            graph,
            runtime,
            param_ids,
            params,
        }
    }

    /// Current parameter values.
    pub fn params(&self) -> &HashMap<String, Tensor> {
        &self.params
    }

    /// Evaluate the loss on a batch without updating.
    pub fn evaluate(&self, batch: &[(String, Tensor)]) -> Result<f32, RuntimeError> {
        let report = self.run(batch)?;
        Ok(report.outputs[0].data()[0])
    }

    /// One forward/backward/update step.
    pub fn step(
        &mut self,
        batch: &[(String, Tensor)],
        opt: &mut dyn Optimizer,
    ) -> Result<StepReport, RuntimeError> {
        let report = self.run(batch)?;
        let loss = report.outputs[0].data()[0];
        for (i, &p) in self.param_ids.iter().enumerate() {
            let name = self.graph.name(p);
            let grad = &report.outputs[1 + i];
            let theta = self.params.get_mut(name).expect("param exists");
            opt.update(name, theta, grad);
        }
        opt.next_step();
        Ok(StepReport {
            loss,
            makespan_ms: report.makespan_ms,
        })
    }

    fn run(&self, batch: &[(String, Tensor)]) -> Result<crate::runtime::RunReport, RuntimeError> {
        let mut feeds = Feeds::auto(0);
        for (k, v) in batch {
            feeds = feeds.with_input(k, v.clone());
        }
        for (k, v) in &self.params {
            feeds = feeds.with_input(k, v.clone());
        }
        self.runtime.run(&self.graph, &feeds, NumericsMode::Full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Sgd};

    /// Tiny regression: learn W so that x @ W matches a fixed target.
    fn regression_graph() -> (Graph, Tensor, Tensor) {
        let mut g = Graph::new();
        let x = g.input("x", &[4, 8]).unwrap();
        let w = g.parameter("w", &[8, 2]).unwrap();
        let y = g.matmul(x, w).unwrap();
        let target = g.input("target", &[4, 2]).unwrap();
        let diff = g.sub(y, target).unwrap();
        let sq = g.square(diff).unwrap();
        let m1 = g.reduce_mean(sq, false).unwrap();
        let loss = g.reduce_mean(m1, false).unwrap();
        let loss = g.reduce_mean(loss, false).unwrap();
        g.mark_output(loss);
        let grads = autograd::backward(&mut g, loss).unwrap();
        let w_grad = grads[&w];
        g.mark_output(w_grad);

        let mut rng = SeededRng::new(1);
        let xs = Tensor::randn(&[4, 8], 1.0, &mut rng).unwrap();
        let ts = Tensor::randn(&[4, 2], 1.0, &mut rng).unwrap();
        (g, xs, ts)
    }

    fn train(opt: &mut dyn Optimizer, steps: usize) -> (f32, f32) {
        let (g, xs, ts) = regression_graph();
        let mut trainer = Trainer::new(g, Runtime::hls1(), 3);
        let batch = vec![("x".to_string(), xs), ("target".to_string(), ts)];
        let first = trainer.step(&batch, opt).unwrap().loss;
        let mut last = first;
        for _ in 1..steps {
            last = trainer.step(&batch, opt).unwrap().loss;
        }
        (first, last)
    }

    #[test]
    fn sgd_training_reduces_regression_loss() {
        let (first, last) = train(&mut Sgd::new(0.05), 25);
        assert!(last < first * 0.2, "{first} -> {last}");
    }

    #[test]
    fn adam_training_reduces_regression_loss() {
        let (first, last) = train(&mut Adam::new(0.05), 25);
        assert!(last < first * 0.5, "{first} -> {last}");
    }

    #[test]
    fn evaluate_is_side_effect_free() {
        let (g, xs, ts) = regression_graph();
        let trainer = Trainer::new(g, Runtime::hls1(), 3);
        let batch = vec![("x".to_string(), xs), ("target".to_string(), ts)];
        let a = trainer.evaluate(&batch).unwrap();
        let b = trainer.evaluate(&batch).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn step_reports_simulated_time() {
        let (g, xs, ts) = regression_graph();
        let mut trainer = Trainer::new(g, Runtime::hls1(), 3);
        let batch = vec![("x".to_string(), xs), ("target".to_string(), ts)];
        let r = trainer.step(&batch, &mut Sgd::new(0.01)).unwrap();
        assert!(r.makespan_ms > 0.0);
    }
}
