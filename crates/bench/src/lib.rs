//! Shared driver code for the fo4depth paper-table harness.
//!
//! The [`tables`] module regenerates every table and figure of the paper
//! (the `tables` binary is a thin CLI over it). Performance is measured
//! by `perfbench/`, not here.

pub mod tables;

pub use tables::{run_experiment, ExperimentId, RunConfig};
