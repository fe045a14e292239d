//! `aiac-bench` — the experiment harness.
//!
//! Every table and figure of the paper's evaluation section has a binary in
//! `src/bin/` that regenerates it:
//!
//! | paper artefact | binary          |
//! |----------------|-----------------|
//! | Table 1        | `table1`        |
//! | Table 2        | `table2`        |
//! | Table 3        | `table3`        |
//! | Table 4        | `table4`        |
//! | Figures 1–2    | `figure12_traces` |
//! | Figure 3       | `figure3`       |
//! | extensions     | `ablation_overhead`, `ablation_streak`, `ablation_gamma` |
//!
//! The experiments default to scaled-down problem sizes so the whole suite
//! runs in minutes on a laptop; setting `AIAC_FULL=1` switches to the paper's
//! original sizes (two million unknowns, 600×600 grid), which needs a much
//! larger machine and a lot of patience. Either way the *structure* of every
//! experiment — platform, environments, algorithms, measurement — follows the
//! paper; `EXPERIMENTS.md` records the measured numbers next to the published
//! ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod scale;
pub mod table;

pub use experiments::{chemical_experiment, sparse_experiment, ExperimentResult};
pub use harness::{BenchRecord, ExperimentSpec, Fidelity};
pub use scale::ExperimentScale;
pub use table::{render_listing, render_table, TableRow};
