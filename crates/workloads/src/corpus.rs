//! Synthetic BookCorpus: an endless Zipf-distributed token stream with
//! sentence and document structure.

use crate::zipf::ZipfSampler;
use gaudi_tensor::SeededRng;

/// Padding token id.
pub const PAD: u32 = 0;
/// Classification/start token id.
pub const CLS: u32 = 1;
/// Separator/end-of-sentence token id.
pub const SEP: u32 = 2;
/// MLM mask token id.
pub const MASK: u32 = 3;
/// First ordinary word id.
pub const FIRST_WORD: u32 = 4;

/// An endless synthetic document stream.
pub struct SyntheticBookCorpus {
    vocab_size: usize,
    zipf: ZipfSampler,
    rng: SeededRng,
}

impl SyntheticBookCorpus {
    /// Corpus over a vocabulary of `vocab_size` tokens (special tokens
    /// included), seeded.
    pub fn new(vocab_size: usize, seed: u64) -> Self {
        assert!(
            vocab_size > FIRST_WORD as usize,
            "vocab must hold the special tokens"
        );
        SyntheticBookCorpus {
            vocab_size,
            zipf: ZipfSampler::new(vocab_size - FIRST_WORD as usize, 1.05),
            rng: SeededRng::new(seed),
        }
    }

    /// Total vocabulary size, special tokens included.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Generate one document of roughly `target_tokens` tokens, structured
    /// as `[CLS] sentence [SEP] sentence [SEP] ...`.
    pub fn document(&mut self, target_tokens: usize) -> Vec<u32> {
        let mut doc = Vec::with_capacity(target_tokens + 16);
        doc.push(CLS);
        while doc.len() < target_tokens {
            let sentence_len = 5 + self.rng.below(20);
            for _ in 0..sentence_len {
                doc.push(FIRST_WORD + self.zipf.sample(&mut self.rng) as u32);
            }
            doc.push(SEP);
        }
        doc
    }

    /// A flat token stream of exactly `n` tokens (documents concatenated).
    pub fn token_stream(&mut self, n: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let doc = self.document(512.min(n - out.len() + 32));
            out.extend_from_slice(&doc);
        }
        out.truncate(n);
        out
    }

    /// Mutable access to the RNG (the batchers reuse it for masking).
    pub fn rng(&mut self) -> &mut SeededRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_are_structured() {
        let mut c = SyntheticBookCorpus::new(1000, 7);
        let doc = c.document(100);
        assert_eq!(doc[0], CLS);
        assert!(doc.contains(&SEP));
        assert!(doc.iter().all(|&t| (t as usize) < 1000));
        assert!(doc.len() >= 100);
    }

    #[test]
    fn stream_has_exact_length_and_zipf_shape() {
        let mut c = SyntheticBookCorpus::new(500, 8);
        let stream = c.token_stream(20_000);
        assert_eq!(stream.len(), 20_000);
        let mut counts = vec![0usize; 500];
        for &t in &stream {
            counts[t as usize] += 1;
        }
        // The most common ordinary word should beat the 50th.
        assert!(counts[FIRST_WORD as usize] > counts[FIRST_WORD as usize + 50]);
    }

    #[test]
    fn corpus_is_deterministic() {
        let mut a = SyntheticBookCorpus::new(300, 42);
        let mut b = SyntheticBookCorpus::new(300, 42);
        assert_eq!(a.token_stream(1000), b.token_stream(1000));
    }
}
