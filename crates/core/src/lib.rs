//! The pipeline logic-depth study — the primary contribution of
//! Hrishikesh et al., *The Optimal Logic Depth Per Pipeline Stage is 6 to 8
//! FO4 Inverter Delays* (ISCA 2002).
//!
//! This crate ties the substrates together into the paper's methodology:
//!
//! 1. [`latency`] — structure access times (from `fo4depth-cacti`) and
//!    functional-unit latencies (anchored to the Alpha 21264 at 17.4 FO4 of
//!    useful logic per cycle), quantized into cycles at any candidate clock
//!    with `ceil(latency_fo4 / t_useful)` — the paper's Table 3.
//! 2. [`scaler`] — turns a clock point (`t_useful`, overhead) into a full
//!    [`CoreConfig`](fo4depth_pipeline::CoreConfig): every pipeline region,
//!    cache level, and execution unit re-quantized for that clock.
//! 3. [`sim`] — runs benchmark profiles through the in-order or
//!    out-of-order core at a config, aggregates per-class **BIPS =
//!    IPC / clock period** with harmonic means.
//! 4. Experiment drivers, one per table/figure of the paper:
//!    [`sweep`] (Figures 4a, 4b, 5), [`overhead`] (Figure 6),
//!    [`capacity`] (Figure 7), [`loops`] (Figure 8), [`segmented`]
//!    (Figure 11 and the §5.2 pre-selection evaluation), [`cray`] (§4.2),
//!    plus [`experiments`], a registry mapping every experiment to the
//!    paper's expected outcome, and [`render`] for text output.
//! 5. Extensions beyond the paper's tables: [`ablation`] (the §6
//!    scheduler comparison and sensitivity of the results to the memory,
//!    rounding, and MSHR modelling choices) and [`wires`] (the §7
//!    wire-delay future work, realized).
//!
//! # Quick start
//!
//! ```no_run
//! use fo4depth_fo4::Fo4;
//! use fo4depth_study::sweep::{depth_sweep_spec, standard_points, CoreKind, SweepSpec};
//! use fo4depth_study::{SimParams, StructureSet};
//! use fo4depth_workload::profiles;
//!
//! // Reproduce Figure 5 (reduced instruction counts for illustration):
//! let spec = SweepSpec {
//!     core: CoreKind::OutOfOrder,
//!     profiles: &profiles::all(),
//!     params: &SimParams { warmup: 20_000, measure: 100_000, seed: 1 },
//!     structures: &StructureSet::alpha_21264(),
//!     overhead: Fo4::new(1.8),
//!     points: &standard_points(),
//!     observed: false,
//! };
//! let result = depth_sweep_spec(&spec, fo4depth_exec::global());
//! let (best, _) = result.class_optimum(fo4depth_workload::BenchClass::Integer);
//! println!("integer optimum: {best} FO4 useful per stage");
//! ```

pub mod ablation;
pub mod adaptive;
pub mod capacity;
pub mod cells;
pub mod cray;
pub mod experiments;
pub mod floorplan;
pub mod latency;
pub mod loops;
pub mod overhead;
pub mod power;
pub mod projection;
pub mod render;
pub mod report;
pub mod scaler;
pub mod segmented;
pub mod sim;
pub mod sweep;
pub mod validation;
pub mod wires;
pub mod yield_sweep;

pub use adaptive::{analytic_optimum, AdaptiveConfig, AdaptivePlanner, AdaptiveStats};
pub use latency::{LatencyTable, StructureSet, ALPHA_USEFUL_FO4};
pub use scaler::{MemoryConvention, ScaleOptions, ScaledMachine};
pub use sim::{ClassSummary, SimParams};
pub use sweep::{AdaptiveSweep, CoreKind, DepthSweep};
pub use yield_sweep::{YieldAgreement, YieldPlan, YieldPoint, YieldSweep};
