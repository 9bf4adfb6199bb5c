//! Experiment harness regenerating every table and figure of
//! *“Thermal Modeling for a HVAC Controlled Real-life Auditorium”*
//! (ICDCS 2014) on the synthetic auditorium testbed.
//!
//! The `repro` binary drives everything:
//!
//! ```sh
//! cargo run --release -p thermal-bench --bin repro            # all experiments
//! cargo run --release -p thermal-bench --bin repro table1 fig6
//! cargo run --release -p thermal-bench --bin repro -- --quick # 40-day campaign
//! ```
//!
//! Results print as aligned text tables / ASCII charts and are also
//! written as CSV under `results/` for external plotting. Measured
//! values for the full campaign are recorded in `EXPERIMENTS.md` at
//! the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod error;
pub mod experiments;
pub mod protocol;
pub mod render;

pub use error::{BenchError, Result};
