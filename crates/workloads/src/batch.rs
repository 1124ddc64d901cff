//! Batch assembly: BERT-style MLM masking (15% selected, 80/10/10) and
//! GPT-style next-token (causal LM) batches, emitted as `f32` tensors in
//! the `[batch, seq]` layout the model builders expect.

use crate::corpus::{SyntheticBookCorpus, FIRST_WORD, MASK};
use gaudi_tensor::Tensor;

/// Masking statistics of an MLM batch (for tests and logging).
#[derive(Debug, Clone, Default)]
pub struct MlmStats {
    /// Positions selected for prediction.
    pub selected: usize,
    /// Selected positions replaced by `[MASK]`.
    pub masked: usize,
    /// Selected positions replaced by a random token.
    pub randomized: usize,
    /// Selected positions left unchanged.
    pub unchanged: usize,
}

/// Build one MLM batch: returns `(input_ids, labels, stats)`, both tensors
/// `[batch, seq]`. Labels hold the *original* token at every position (the
/// model builders compute loss over all positions; the selection statistics
/// are what matter for throughput shape).
pub fn mlm_batch(
    corpus: &mut SyntheticBookCorpus,
    batch: usize,
    seq: usize,
) -> (Tensor, Tensor, MlmStats) {
    let vocab = corpus.vocab_size() as u32;
    let tokens = corpus.token_stream(batch * seq);
    let labels: Vec<f32> = tokens.iter().map(|&t| t as f32).collect();
    let mut inputs: Vec<f32> = labels.clone();
    let mut stats = MlmStats::default();

    for (i, &tok) in tokens.iter().enumerate() {
        if tok < FIRST_WORD {
            continue; // never mask special tokens
        }
        let rng = corpus.rng();
        if rng.uniform() < 0.15 {
            stats.selected += 1;
            let r = rng.uniform();
            if r < 0.8 {
                inputs[i] = MASK as f32;
                stats.masked += 1;
            } else if r < 0.9 {
                inputs[i] = (FIRST_WORD + rng.below((vocab - FIRST_WORD) as usize) as u32) as f32;
                stats.randomized += 1;
            } else {
                stats.unchanged += 1;
            }
        }
    }

    let ids = Tensor::from_vec(&[batch, seq], inputs).expect("batch shape");
    let labels = Tensor::from_vec(&[batch, seq], labels).expect("batch shape");
    (ids, labels, stats)
}

/// Build one causal-LM batch: `(input_ids, labels)` where labels are the
/// inputs shifted left by one token.
pub fn clm_batch(corpus: &mut SyntheticBookCorpus, batch: usize, seq: usize) -> (Tensor, Tensor) {
    let tokens = corpus.token_stream(batch * seq + 1);
    let inputs: Vec<f32> = tokens[..batch * seq].iter().map(|&t| t as f32).collect();
    let labels: Vec<f32> = tokens[1..=batch * seq].iter().map(|&t| t as f32).collect();
    (
        Tensor::from_vec(&[batch, seq], inputs).expect("batch shape"),
        Tensor::from_vec(&[batch, seq], labels).expect("batch shape"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CLS, SEP};

    #[test]
    fn mlm_batch_shapes_and_masking_rates() {
        let mut c = SyntheticBookCorpus::new(1000, 3);
        let (ids, labels, stats) = mlm_batch(&mut c, 8, 256);
        assert_eq!(ids.dims(), &[8, 256]);
        assert_eq!(labels.dims(), &[8, 256]);
        let total = 8 * 256;
        let frac = stats.selected as f64 / total as f64;
        assert!((0.10..0.20).contains(&frac), "selection rate {frac}");
        // 80/10/10 split within selected, loosely.
        assert!(stats.masked > stats.randomized);
        assert!(stats.masked > stats.unchanged);
        assert_eq!(
            stats.selected,
            stats.masked + stats.randomized + stats.unchanged
        );
    }

    #[test]
    fn labels_preserve_originals_under_masking() {
        let mut c = SyntheticBookCorpus::new(500, 4);
        let (ids, labels, _) = mlm_batch(&mut c, 2, 128);
        let mut masked_positions = 0;
        for i in 0..ids.numel() {
            if ids.data()[i] == MASK as f32 {
                masked_positions += 1;
                assert_ne!(labels.data()[i], MASK as f32, "label must be the original");
            }
        }
        assert!(masked_positions > 0);
    }

    #[test]
    fn special_tokens_never_masked() {
        let mut c = SyntheticBookCorpus::new(500, 5);
        let (ids, labels, _) = mlm_batch(&mut c, 2, 512);
        for i in 0..ids.numel() {
            let orig = labels.data()[i];
            if orig == CLS as f32 || orig == SEP as f32 {
                assert_eq!(ids.data()[i], orig);
            }
        }
    }

    #[test]
    fn clm_labels_are_shifted_inputs() {
        let mut c = SyntheticBookCorpus::new(500, 6);
        let (ids, labels) = clm_batch(&mut c, 2, 64);
        // Within each contiguous region of the stream the shift holds
        // globally (the batch is cut from one stream).
        for i in 0..(2 * 64 - 1) {
            assert_eq!(labels.data()[i], ids.data()[i + 1]);
        }
    }
}
