//! # bench-harness — experiment runner for the ADAPT reproduction
//!
//! One binary per table/figure of the paper (see `src/bin/`), sharing this
//! library: experiment configuration, policy sweeps, CSV emission and
//! terminal tables. Run everything with
//! `cargo run -p bench-harness --release --bin all_experiments`. The
//! serving stack's six seeded scenarios ([`scenario`]) run from one
//! `scenarios` binary.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod experiments;
pub mod probes;
pub mod report;
pub mod runner;
pub mod scenario;

pub use checkpoint::Checkpoint;
pub use report::{Csv, Table};
pub use runner::{policy_sweep, BenchResult, ExperimentCfg, SuiteFaultSummary};
