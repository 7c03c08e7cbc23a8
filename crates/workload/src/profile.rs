//! Benchmark profiles: the statistical parameters of a synthetic workload.

/// The paper's three-way benchmark classification (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// SPECint 2000 benchmarks.
    Integer,
    /// FP benchmarks with strong vector-like behaviour (swim, mgrid, applu,
    /// equake): ample ILP, long dependency distances, streaming memory.
    VectorFp,
    /// The remaining FP benchmarks (mesa, galgel, art, ammp, lucas).
    NonVectorFp,
}

impl BenchClass {
    /// Human-readable label used in tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BenchClass::Integer => "Integer",
            BenchClass::VectorFp => "Vector FP",
            BenchClass::NonVectorFp => "Non-vector FP",
        }
    }
}

/// Instruction-mix weights. They need not sum to one; the generator
/// normalizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Integer ALU (including address arithmetic not folded into memory
    /// ops).
    pub int_alu: f64,
    /// Integer multiply.
    pub int_mult: f64,
    /// FP add/sub/convert.
    pub fp_add: f64,
    /// FP multiply.
    pub fp_mult: f64,
    /// FP divide.
    pub fp_div: f64,
    /// FP square root.
    pub fp_sqrt: f64,
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Conditional branches.
    pub branch: f64,
    /// Unconditional jumps/calls/returns.
    pub jump: f64,
}

impl OpMix {
    /// A typical SPECint mix.
    #[must_use]
    pub fn integer() -> Self {
        Self {
            int_alu: 0.42,
            int_mult: 0.01,
            fp_add: 0.0,
            fp_mult: 0.0,
            fp_div: 0.0,
            fp_sqrt: 0.0,
            load: 0.26,
            store: 0.11,
            branch: 0.16,
            jump: 0.04,
        }
    }

    /// A typical vector-FP mix (loop-dominated, branch-light).
    #[must_use]
    pub fn vector_fp() -> Self {
        Self {
            int_alu: 0.22,
            int_mult: 0.0,
            fp_add: 0.22,
            fp_mult: 0.18,
            fp_div: 0.005,
            fp_sqrt: 0.0,
            load: 0.26,
            store: 0.09,
            branch: 0.02,
            jump: 0.005,
        }
    }

    /// A typical non-vector FP mix.
    #[must_use]
    pub fn non_vector_fp() -> Self {
        Self {
            int_alu: 0.28,
            int_mult: 0.005,
            fp_add: 0.16,
            fp_mult: 0.12,
            fp_div: 0.015,
            fp_sqrt: 0.003,
            load: 0.25,
            store: 0.09,
            branch: 0.07,
            jump: 0.01,
        }
    }

    /// The weights as an array ordered like
    /// [`TraceGenerator`](crate::TraceGenerator)'s internal class table.
    #[must_use]
    pub fn weights(&self) -> [f64; 10] {
        [
            self.int_alu,
            self.int_mult,
            self.fp_add,
            self.fp_mult,
            self.fp_div,
            self.fp_sqrt,
            self.load,
            self.store,
            self.branch,
            self.jump,
        ]
    }
}

/// Branch-behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchModel {
    /// Number of static branch sites; dynamic branches pick a site from a
    /// Zipf distribution so a few hot branches dominate (as in real codes).
    pub static_sites: usize,
    /// Zipf skew over sites.
    pub site_skew: f64,
    /// Fraction of sites that are strongly biased (predictable); their
    /// taken-probability is drawn near 0 or 1. The rest are weakly biased
    /// (hard to predict). Achievable prediction accuracy rises with this.
    pub biased_fraction: f64,
    /// Taken-probability magnitude for biased sites (e.g. 0.97 ⇒ sites are
    /// taken 97 % or 3 % of the time).
    pub bias_strength: f64,
    /// Fraction of sites whose outcome *correlates with the previous
    /// dynamic branch* (if/else ladders testing related conditions). These
    /// are what global-history predictors exploit; without them, synthetic
    /// streams unrealistically favour per-PC counters.
    pub correlated_fraction: f64,
    /// Mean number of instructions per basic block (inverse branch density
    /// used only for PC layout, not for the mix).
    pub mean_block: f64,
}

impl BranchModel {
    /// Branchy, moderately predictable integer behaviour.
    #[must_use]
    pub fn integer() -> Self {
        Self {
            static_sites: 512,
            site_skew: 0.9,
            biased_fraction: 0.85,
            bias_strength: 0.97,
            correlated_fraction: 0.06,
            mean_block: 6.0,
        }
    }

    /// Loop-dominated, highly predictable FP behaviour.
    #[must_use]
    pub fn vector_fp() -> Self {
        Self {
            static_sites: 64,
            site_skew: 1.2,
            biased_fraction: 0.99,
            bias_strength: 0.995,
            correlated_fraction: 0.05,
            mean_block: 40.0,
        }
    }
}

/// Memory-reference parameters.
///
/// Addresses are generated with *explicit reuse distances* rather than
/// literal program addresses, so the resulting cache miss rates are
/// horizon-independent and directly calibrated: a reference draws from one
/// of three pools —
///
/// * a **hot pool** of `hot_lines` Zipf-weighted lines that stays resident
///   in the L1 (stack, globals, hot table entries);
/// * an **L2 pool** sized well above the L1 but far below the L2, touched
///   uniformly, so its references miss L1 and hit L2 (blocked array
///   passes, medium-distance reuse);
/// * **fresh memory**, an ever-advancing pointer that never re-touches a
///   line (cold heap walks, giant-stream compulsory misses).
///
/// The target per-reference rates are published SPEC CPU2000
/// characterizations (e.g. gzip ≈ 3 % DL1 misses with an L2-resident set,
/// mcf ≈ 25 % with most misses going to memory).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Nominal working-set size in bytes (informational; drives the paper's
    /// narrative classification, not the generated reuse pattern).
    pub working_set: u64,
    /// Fraction of references drawn from the L2-resident pool (≈ the DL1
    /// miss rate contributed by medium-distance reuse).
    pub l2_resident: f64,
    /// Fraction of references that touch fresh memory (≈ the per-reference
    /// main-memory rate).
    pub memory: f64,
    /// Number of distinct hot (L1-resident) cache lines.
    pub hot_lines: usize,
}

impl MemoryModel {
    /// Cache-friendly integer behaviour (hot stack, small L2 traffic).
    #[must_use]
    pub fn integer_small() -> Self {
        Self {
            working_set: 256 * 1024,
            l2_resident: 0.03,
            memory: 0.003,
            hot_lines: 256,
        }
    }

    /// Streaming vector behaviour: heavy L2 traffic from blocked array
    /// passes plus a steady compulsory-miss stream.
    #[must_use]
    pub fn vector() -> Self {
        Self {
            working_set: 32 * 1024 * 1024,
            l2_resident: 0.15,
            memory: 0.02,
            hot_lines: 256,
        }
    }
}

/// The complete statistical description of one synthetic benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchProfile {
    /// SPEC-style name, e.g. `"164.gzip"`.
    pub name: String,
    /// The paper's classification of this benchmark.
    pub class: BenchClass,
    /// Instruction mix.
    pub mix: OpMix,
    /// Mean register dependency distance (geometric). Short distances make
    /// dependency chains that serialize issue; long distances expose ILP.
    pub mean_dep_distance: f64,
    /// Probability that a source operand references a long-lived value
    /// (loop invariant / global) instead of a recent producer — these never
    /// stall a wide core.
    pub far_source_fraction: f64,
    /// Probability that a load's base address comes from a *recent load*
    /// (pointer chasing): chains of dependent loads serialize on the
    /// load-use loop, the behaviour that makes mcf-class codes so
    /// latency-bound.
    pub load_chain_fraction: f64,
    /// Branch behaviour.
    pub branches: BranchModel,
    /// Memory behaviour.
    pub memory: MemoryModel,
}

impl BenchProfile {
    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.mean_dep_distance < 1.0 {
            return Err(format!("{}: mean_dep_distance must be >= 1", self.name));
        }
        if !(0.0..=1.0).contains(&self.far_source_fraction) {
            return Err(format!("{}: far_source_fraction out of range", self.name));
        }
        if !(0.0..=1.0).contains(&self.load_chain_fraction) {
            return Err(format!("{}: load_chain_fraction out of range", self.name));
        }
        if self.memory.l2_resident + self.memory.memory > 1.0 {
            return Err(format!("{}: miss fractions exceed 1", self.name));
        }
        for (label, v) in [
            ("biased_fraction", self.branches.biased_fraction),
            ("bias_strength", self.branches.bias_strength),
            ("correlated_fraction", self.branches.correlated_fraction),
            ("l2_resident", self.memory.l2_resident),
            ("memory", self.memory.memory),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{}: {label} out of range", self.name));
            }
        }
        if self.branches.static_sites == 0 || self.memory.hot_lines == 0 {
            return Err(format!("{}: zero-sized site/hot-line pool", self.name));
        }
        if self.memory.working_set < 4096 {
            return Err(format!("{}: working set too small", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchProfile {
        BenchProfile {
            name: "test".into(),
            class: BenchClass::Integer,
            mix: OpMix::integer(),
            mean_dep_distance: 3.0,
            far_source_fraction: 0.3,
            load_chain_fraction: 0.2,
            branches: BranchModel::integer(),
            memory: MemoryModel::integer_small(),
        }
    }

    #[test]
    fn valid_profile_passes() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn invalid_fields_rejected() {
        let mut p = sample();
        p.mean_dep_distance = 0.5;
        assert!(p.validate().is_err());

        let mut p = sample();
        p.far_source_fraction = 1.5;
        assert!(p.validate().is_err());

        let mut p = sample();
        p.memory.working_set = 16;
        assert!(p.validate().is_err());

        let mut p = sample();
        p.branches.static_sites = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn class_labels() {
        assert_eq!(BenchClass::Integer.label(), "Integer");
        assert_eq!(BenchClass::VectorFp.label(), "Vector FP");
        assert_eq!(BenchClass::NonVectorFp.label(), "Non-vector FP");
    }

    #[test]
    fn mix_weights_order() {
        let w = OpMix::integer().weights();
        assert_eq!(w[0], 0.42);
        assert_eq!(w[6], 0.26);
        assert_eq!(w[8], 0.16);
    }
}
