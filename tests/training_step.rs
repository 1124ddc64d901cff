//! Integration: a real SGD training step through the whole stack — graph
//! construction, autograd, compilation, numeric interpretation — reduces the
//! cross-entropy loss of a miniature BERT on synthetic BookCorpus data.

use gaudi_graph::autograd;
use gaudi_models::bert::{build_bert_mlm, BertConfig};
use gaudi_models::config::LlmConfig;
use gaudi_runtime::{Feeds, NumericsMode, Runtime};
use gaudi_tensor::{SeededRng, Tensor};
use gaudi_workloads::{mlm_batch, SyntheticBookCorpus};
use std::collections::HashMap;

fn init_param(name: &str, dims: &[usize], rng: &mut SeededRng) -> Tensor {
    if name.ends_with(".gamma") {
        Tensor::ones(dims).unwrap()
    } else if name.ends_with(".beta") || name.ends_with(".b") {
        Tensor::zeros(dims).unwrap()
    } else {
        Tensor::randn(dims, 0.05, rng).unwrap()
    }
}

#[test]
fn sgd_step_reduces_bert_mlm_loss() {
    // Miniature BERT with training graph.
    let cfg = BertConfig {
        base: LlmConfig {
            training: true,
            ..LlmConfig::tiny(101)
        },
    };
    let (graph, _built) = build_bert_mlm(&cfg).expect("builds");

    // Deterministic data batch.
    let mut corpus = SyntheticBookCorpus::new(cfg.base.vocab, 99);
    let (ids, labels, _) = mlm_batch(&mut corpus, cfg.base.batch, cfg.base.seq_len);

    // Explicit parameter tensors so we can apply an update.
    let params = autograd::parameters(&graph);
    let mut rng = SeededRng::new(17);
    let mut values: HashMap<String, Tensor> = HashMap::new();
    for &p in &params {
        let name = graph.name(p);
        values.insert(
            name.to_string(),
            init_param(name, graph.shape(p).dims(), &mut rng),
        );
    }

    let runtime = Runtime::hls1();
    let run = |values: &HashMap<String, Tensor>| {
        let mut feeds = Feeds::auto(0)
            .with_input("ids", ids.clone())
            .with_input("labels", labels.clone());
        for (k, v) in values {
            feeds = feeds.with_input(k, v.clone());
        }
        runtime
            .run(&graph, &feeds, NumericsMode::Full)
            .expect("run succeeds")
    };

    // First run: loss + gradients (outputs are [loss, grads in param order]).
    let report = run(&values);
    let loss0 = report.outputs[0].data()[0];
    assert!(loss0.is_finite());
    assert_eq!(report.outputs.len(), 1 + params.len());

    // SGD update.
    let lr = 0.5f32;
    for (i, &p) in params.iter().enumerate() {
        let name = graph.name(p);
        let grad = &report.outputs[1 + i];
        let theta = values.get_mut(name).unwrap();
        assert_eq!(theta.dims(), grad.dims(), "{name}");
        for (t, g) in theta.data_mut().iter_mut().zip(grad.data()) {
            *t -= lr * g;
        }
    }

    // Second run: loss must drop.
    let loss1 = run(&values).outputs[0].data()[0];
    assert!(
        loss1 < loss0,
        "SGD step must reduce the loss: {loss0} -> {loss1}"
    );
}
