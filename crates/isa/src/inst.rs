//! The trace instruction record.

use std::fmt;

use crate::opcode::{OpClass, Opcode};
use crate::reg::ArchReg;

/// Oracle control-flow information attached to branch/jump instructions.
///
/// The trace knows the true outcome; predictors are trained against it and
/// charged a misprediction penalty when they disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Whether the branch is actually taken.
    pub taken: bool,
    /// The actual target address.
    pub target: u64,
}

/// One dynamic instruction of a trace.
///
/// # Examples
///
/// ```
/// use fo4depth_isa::{ArchReg, Instruction, Opcode};
///
/// let ld = Instruction::load(Opcode::Ldq, ArchReg::int(4), ArchReg::int(30), 0x1000);
/// assert!(ld.op_class().is_memory());
/// assert_eq!(ld.mem_addr, Some(0x1000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// The opcode.
    pub opcode: Opcode,
    /// Destination register, if the instruction writes one.
    pub dest: Option<ArchReg>,
    /// First source register.
    pub src1: Option<ArchReg>,
    /// Second source register.
    pub src2: Option<ArchReg>,
    /// Effective address for loads/stores.
    pub mem_addr: Option<u64>,
    /// Oracle branch outcome for control instructions.
    pub branch: Option<BranchInfo>,
    /// Program counter of this instruction.
    pub pc: u64,
}

impl Instruction {
    /// A register-register ALU/FP operation `opcode src1, src2 -> dest`.
    #[must_use]
    pub fn alu(opcode: Opcode, src1: ArchReg, src2: ArchReg, dest: ArchReg) -> Self {
        Self {
            opcode,
            dest: Some(dest),
            src1: Some(src1),
            src2: Some(src2),
            mem_addr: None,
            branch: None,
            pc: 0,
        }
    }

    /// A load `opcode [base] -> dest` from `addr`.
    #[must_use]
    pub fn load(opcode: Opcode, dest: ArchReg, base: ArchReg, addr: u64) -> Self {
        Self {
            opcode,
            dest: Some(dest),
            src1: Some(base),
            src2: None,
            mem_addr: Some(addr),
            branch: None,
            pc: 0,
        }
    }

    /// A store `opcode value -> [base]` to `addr`.
    #[must_use]
    pub fn store(opcode: Opcode, value: ArchReg, base: ArchReg, addr: u64) -> Self {
        Self {
            opcode,
            dest: None,
            src1: Some(value),
            src2: Some(base),
            mem_addr: Some(addr),
            branch: None,
            pc: 0,
        }
    }

    /// A conditional branch testing `cond`, with oracle outcome.
    #[must_use]
    pub fn branch(opcode: Opcode, cond: ArchReg, taken: bool, target: u64) -> Self {
        Self {
            opcode,
            dest: None,
            src1: Some(cond),
            src2: None,
            mem_addr: None,
            branch: Some(BranchInfo { taken, target }),
            pc: 0,
        }
    }

    /// An unconditional jump to `target`.
    #[must_use]
    pub fn jump(opcode: Opcode, target: u64) -> Self {
        Self {
            opcode,
            dest: None,
            src1: None,
            src2: None,
            mem_addr: None,
            branch: Some(BranchInfo {
                taken: true,
                target,
            }),
            pc: 0,
        }
    }

    /// A no-op.
    #[must_use]
    pub fn nop() -> Self {
        Self {
            opcode: Opcode::Nop,
            dest: None,
            src1: None,
            src2: None,
            mem_addr: None,
            branch: None,
            pc: 0,
        }
    }

    /// Sets the program counter (builder-style).
    #[must_use]
    pub fn at_pc(mut self, pc: u64) -> Self {
        self.pc = pc;
        self
    }

    /// The execution class of this instruction.
    #[must_use]
    #[inline]
    pub fn op_class(&self) -> OpClass {
        self.opcode.class()
    }

    /// Source registers as a compact iterator-friendly array.
    #[must_use]
    #[inline]
    pub fn sources(&self) -> [Option<ArchReg>; 2] {
        [self.src1, self.src2]
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}: {}", self.pc, self.opcode)?;
        if let Some(s) = self.src1 {
            write!(f, " {s}")?;
        }
        if let Some(s) = self.src2 {
            write!(f, ", {s}")?;
        }
        if let Some(a) = self.mem_addr {
            write!(f, " [{a:#x}]")?;
        }
        if let Some(d) = self.dest {
            write!(f, " -> {d}")?;
        }
        if let Some(b) = self.branch {
            write!(
                f,
                " ({} {:#x})",
                if b.taken { "taken" } else { "not-taken" },
                b.target
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::ArchReg;

    #[test]
    fn constructors_set_expected_fields() {
        let a = Instruction::alu(
            Opcode::Addq,
            ArchReg::int(1),
            ArchReg::int(2),
            ArchReg::int(3),
        );
        assert_eq!(a.sources(), [Some(ArchReg::int(1)), Some(ArchReg::int(2))]);
        assert_eq!(a.dest, Some(ArchReg::int(3)));

        let s = Instruction::store(Opcode::Stq, ArchReg::int(1), ArchReg::int(30), 64);
        assert!(s.dest.is_none());
        assert_eq!(s.mem_addr, Some(64));

        let b = Instruction::branch(Opcode::Beq, ArchReg::int(9), true, 0x40);
        assert!(b.branch.unwrap().taken);

        let j = Instruction::jump(Opcode::Br, 0x80);
        assert!(j.branch.unwrap().taken);
        assert!(j.src1.is_none());

        let n = Instruction::nop();
        assert_eq!(n.op_class(), OpClass::Nop);
    }

    #[test]
    fn display_is_readable() {
        let ld =
            Instruction::load(Opcode::Ldq, ArchReg::int(4), ArchReg::int(30), 0x1000).at_pc(0x120);
        let s = ld.to_string();
        assert!(s.contains("ldq"));
        assert!(s.contains("r30"));
        assert!(s.contains("0x1000"));
        assert!(s.contains("r4"));
    }

    #[test]
    fn at_pc_sets_pc() {
        let i = Instruction::nop().at_pc(0x44);
        assert_eq!(i.pc, 0x44);
    }
}
