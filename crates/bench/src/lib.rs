//! Experiment harness: regenerates every table and figure of the DTN-FLOW
//! paper's evaluation (§III-B and §V) from the synthetic trace substitutes.
//!
//! Each experiment lives in [`experiments`] and returns plain-text
//! [`report::Table`]s; the `experiments` binary dispatches on experiment
//! ids (`fig2`, `table6`, `all`, …) and writes results under `results/`.
//! See DESIGN.md §5 for the experiment ↔ paper artifact mapping and
//! EXPERIMENTS.md for measured-vs-paper comparisons.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod cli;
pub mod experiments;
pub mod host;
pub mod report;
pub mod runners;
pub mod scenarios;
pub mod timing;

pub use report::Table;
pub use runners::{parallel_map, run_method, Method, MethodOutcome};
pub use scenarios::Scenario;
