//! # gaudi-workloads
//!
//! Synthetic training workloads standing in for the BookCorpus dataset the
//! paper feeds its end-to-end BERT/GPT profiles (§3.4).
//!
//! The evaluation never trains to convergence — it measures *throughput on
//! token batches of a given shape* — so a statistically-plausible synthetic
//! stream exercises the identical code path: token frequencies follow a
//! Zipf law (as natural language does), documents are sentence-structured,
//! and the batchers implement BERT's 80/10/10 MLM masking and GPT's
//! next-token shift.

pub mod batch;
pub mod corpus;
pub mod zipf;

pub use batch::{clm_batch, mlm_batch, MlmStats};
pub use corpus::{SyntheticBookCorpus, CLS, MASK, PAD, SEP};
pub use zipf::ZipfSampler;
