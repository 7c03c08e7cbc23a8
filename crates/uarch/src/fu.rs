//! Functional units: per-class execution latencies (already clock-scaled)
//! and the port budget the issue stage consumes.
//!
//! All units are fully pipelined ("new instructions can be assigned to them
//! every cycle" — Table 3 caption), so the pool only constrains *issues per
//! cycle*, never occupancy.

use fo4depth_isa::OpClass;
use fo4depth_util::hash::Fnv64;

use crate::window::{IssueBudget, IssuePort};

/// Coarse functional-unit class used for port assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Integer ALU / multiply / branch.
    Int,
    /// Floating-point pipeline.
    Fp,
    /// Memory port (loads and stores).
    Mem,
}

impl FuClass {
    /// The class an instruction of `op` needs.
    #[must_use]
    #[inline]
    pub fn for_op(op: OpClass) -> FuClass {
        match op {
            OpClass::Load | OpClass::Store => FuClass::Mem,
            o if o.is_fp() => FuClass::Fp,
            _ => FuClass::Int,
        }
    }

    /// The issue port matching this class.
    #[must_use]
    #[inline]
    pub fn port(self) -> IssuePort {
        match self {
            FuClass::Int => IssuePort::Int,
            FuClass::Fp => IssuePort::Fp,
            FuClass::Mem => IssuePort::Mem,
        }
    }
}

/// Issue-width configuration (units, all fully pipelined).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuPoolConfig {
    /// Integer units (the paper's execution stage has four).
    pub int_units: u32,
    /// Floating-point units (two).
    pub fp_units: u32,
    /// Memory ports.
    pub mem_ports: u32,
    /// Overall issue width per cycle.
    pub issue_width: u32,
}

impl FuPoolConfig {
    /// The paper's configuration: 4 integer units, 2 FP units (§4),
    /// 2 memory ports, 6-wide peak issue (4-wide integer issue + 2-wide FP
    /// issue, §4.3).
    #[must_use]
    pub fn alpha_like() -> Self {
        Self {
            int_units: 4,
            fp_units: 2,
            mem_ports: 2,
            issue_width: 6,
        }
    }

    /// Absorbs every field into `h` (part of a core configuration's
    /// content address).
    pub fn digest(&self, h: &mut Fnv64) {
        let Self {
            int_units,
            fp_units,
            mem_ports,
            issue_width,
        } = *self;
        for v in [int_units, fp_units, mem_ports, issue_width] {
            h.write_u64(u64::from(v));
        }
    }
}

/// Execution latencies per class, in cycles at the current clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLatencies {
    /// Integer ALU (and branch resolution).
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mult: u64,
    /// FP add.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mult: u64,
    /// FP divide.
    pub fp_div: u64,
    /// FP square root.
    pub fp_sqrt: u64,
    /// Address generation for loads/stores (cache time is separate).
    pub agen: u64,
}

impl ExecLatencies {
    /// Alpha 21264 latencies in its own cycles (the Table 3 last row).
    #[must_use]
    pub fn alpha21264() -> Self {
        Self {
            int_alu: 1,
            int_mult: 7,
            fp_add: 4,
            fp_mult: 4,
            fp_div: 12,
            fp_sqrt: 18,
            agen: 1,
        }
    }

    /// Absorbs every field into `h` (part of a core configuration's
    /// content address).
    pub fn digest(&self, h: &mut Fnv64) {
        let Self {
            int_alu,
            int_mult,
            fp_add,
            fp_mult,
            fp_div,
            fp_sqrt,
            agen,
        } = *self;
        for v in [int_alu, int_mult, fp_add, fp_mult, fp_div, fp_sqrt, agen] {
            h.write_u64(v);
        }
    }

    /// Latency of one op class.
    #[must_use]
    #[inline]
    pub fn of(&self, op: OpClass) -> u64 {
        match op {
            OpClass::IntAlu | OpClass::Branch | OpClass::Jump | OpClass::Nop => self.int_alu,
            OpClass::IntMult => self.int_mult,
            OpClass::FpAdd => self.fp_add,
            OpClass::FpMult => self.fp_mult,
            OpClass::FpDiv => self.fp_div,
            OpClass::FpSqrt => self.fp_sqrt,
            OpClass::Load | OpClass::Store => self.agen,
        }
    }
}

/// A per-cycle issue-slot pool.
///
/// # Examples
///
/// ```
/// use fo4depth_uarch::fu::{FuPool, FuPoolConfig};
/// let pool = FuPool::new(FuPoolConfig::alpha_like());
/// let budget = pool.budget();
/// assert_eq!(budget.int, 4);
/// assert_eq!(budget.fp, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuPool {
    config: FuPoolConfig,
}

impl FuPool {
    /// Creates a pool.
    #[must_use]
    pub fn new(config: FuPoolConfig) -> Self {
        Self { config }
    }

    /// A fresh issue budget for one cycle.
    #[must_use]
    #[inline]
    pub fn budget(&self) -> IssueBudget {
        IssueBudget {
            int: self.config.int_units,
            fp: self.config.fp_units,
            mem: self.config.mem_ports,
            total: self.config.issue_width,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> FuPoolConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_routing() {
        assert_eq!(FuClass::for_op(OpClass::IntAlu), FuClass::Int);
        assert_eq!(FuClass::for_op(OpClass::IntMult), FuClass::Int);
        assert_eq!(FuClass::for_op(OpClass::Branch), FuClass::Int);
        assert_eq!(FuClass::for_op(OpClass::FpDiv), FuClass::Fp);
        assert_eq!(FuClass::for_op(OpClass::Load), FuClass::Mem);
        assert_eq!(FuClass::for_op(OpClass::Store), FuClass::Mem);
    }

    #[test]
    fn alpha_latencies_match_isa_anchors() {
        let l = ExecLatencies::alpha21264();
        for op in OpClass::all() {
            if !op.is_memory() && !op.is_control() && op != OpClass::Nop {
                assert_eq!(l.of(op), u64::from(op.alpha_cycles()), "{op:?}");
            }
        }
    }

    #[test]
    fn budget_matches_config() {
        let b = FuPool::new(FuPoolConfig::alpha_like()).budget();
        assert_eq!((b.int, b.fp, b.mem, b.total), (4, 2, 2, 6));
    }
}
