//! # diehard-benchmark
//!
//! The repo benchmark (see `benchmark/README.md`): four workloads against
//! the shipped artifacts — `libdiehard.so`, `diehard`, `diehard-proxy` —
//! reporting what a user waits for and pays, plus a traced run that prices
//! every layer from outside. Nothing under `crates/` or `src/` knows this
//! package exists; it reaches the layers through their public functions.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifacts;
pub mod churn;
pub mod inputs;
pub mod jobs;
pub mod ledger;
pub mod proxy;
pub mod report;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
