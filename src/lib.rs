//! # fo4depth — the optimal logic depth per pipeline stage
//!
//! A from-scratch Rust reproduction of M.S. Hrishikesh, Norman P. Jouppi,
//! Keith I. Farkas, Doug Burger, Stephen W. Keckler and Premkishore
//! Shivakumar, *The Optimal Logic Depth Per Pipeline Stage is 6 to 8 FO4
//! Inverter Delays*, ISCA 2002 — including every substrate the paper
//! depends on:
//!
//! | crate | role |
//! |---|---|
//! | [`fo4`] | FO4 metric, technology scaling, clock-period model, Figure 1 history |
//! | [`circuit`] | transient circuit simulator: FO4 measurement, pulse-latch overhead (Table 1), ECL-gate equivalence (Appendix A) |
//! | [`cacti`] | Cacti-3.0-style analytical SRAM/cache/CAM timing (Table 3 inputs) |
//! | [`isa`] | synthetic Alpha-flavoured RISC ISA for trace-driven simulation |
//! | [`workload`] | calibrated SPEC CPU2000 stand-in trace generators (Table 2) |
//! | [`uarch`] | predictors, caches, rename, ROB, LSQ, conventional + segmented issue windows (§5) |
//! | [`pipeline`] | cycle-level in-order (§4.1) and out-of-order (§4.3) cores |
//! | [`study`] | the paper's methodology: Table 3 generation, depth sweeps, all experiments |
//! | [`exec`] | persistent work-stealing pool behind every study-level fan-out |
//! | [`util`] | deterministic PRNG, distributions, statistics |
//!
//! This umbrella crate re-exports everything; depend on the individual
//! member crates for narrower builds.
//!
//! # Quick start
//!
//! ```no_run
//! use fo4depth::study::latency::StructureSet;
//! use fo4depth::study::sim::SimParams;
//! use fo4depth::study::sweep::{depth_sweep_spec, standard_points, CoreKind, SweepSpec};
//! use fo4depth::workload::{profiles, BenchClass};
//! use fo4depth::fo4::Fo4;
//!
//! let spec = SweepSpec {
//!     core: CoreKind::OutOfOrder,
//!     profiles: &profiles::all(),
//!     params: &SimParams::default(),
//!     structures: &StructureSet::alpha_21264(),
//!     overhead: Fo4::new(1.8),
//!     points: &standard_points(),
//!     observed: false,
//! };
//! let sweep = depth_sweep_spec(&spec, fo4depth::exec::global());
//! let (optimum, bips) = sweep.class_optimum(BenchClass::Integer);
//! println!("integer optimum: {optimum} FO4 useful logic/stage ({bips:.2} BIPS)");
//! ```

pub use fo4depth_cacti as cacti;
pub use fo4depth_circuit as circuit;
pub use fo4depth_exec as exec;
pub use fo4depth_fo4 as fo4;
pub use fo4depth_isa as isa;
pub use fo4depth_pipeline as pipeline;
pub use fo4depth_serve as serve;
pub use fo4depth_study as study;
pub use fo4depth_uarch as uarch;
pub use fo4depth_util as util;
pub use fo4depth_variation as variation;
pub use fo4depth_workload as workload;
