//! # gaudi-bench
//!
//! The experiment library that regenerates every table and figure of the
//! paper on the simulator, plus the ablations called out in DESIGN.md.
//!
//! Each experiment is a library function returning a structured result, so
//! that (a) the `paper` experiment of the `sweeps` binary prints them all
//! into `results/paper.md`, (b) the `simbench` benchmark scores them
//! against the paper, and (c) integration tests can assert the *shape* of
//! every reproduced result (who wins, by what factor) without scraping
//! stdout.

pub mod experiments;
pub mod support;

pub use experiments::ablations::{
    einsum_ablation, fusion_ablation, scaleout_sweep, scheduler_ablation, seqlen_sweep,
};
pub use experiments::layer_figs::{activation_sweep, layer_experiment, LayerFigure};
pub use experiments::llm_figs::{llm_experiment, LlmFigure, LlmKind};
pub use experiments::table2::{table2, Table2Row};
