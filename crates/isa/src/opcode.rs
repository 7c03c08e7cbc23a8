//! Opcodes and execution classes.

use std::fmt;

/// Execution-resource class of an instruction — the granularity at which the
/// timing models assign functional-unit latencies (the rows of the paper's
/// Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-cycle (on the Alpha) integer ALU operation.
    IntAlu,
    /// Integer multiply (7 Alpha cycles).
    IntMult,
    /// Floating-point add/subtract/convert (4 Alpha cycles).
    FpAdd,
    /// Floating-point multiply (4 Alpha cycles).
    FpMult,
    /// Floating-point divide (12 Alpha cycles).
    FpDiv,
    /// Floating-point square root (18 Alpha cycles).
    FpSqrt,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// Unconditional jump / call / return.
    Jump,
    /// No-op.
    Nop,
}

impl OpClass {
    /// Whether the class accesses memory.
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether the class redirects control flow.
    #[must_use]
    pub fn is_control(self) -> bool {
        matches!(self, OpClass::Branch | OpClass::Jump)
    }

    /// Whether the class executes on the floating-point cluster.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            OpClass::FpAdd | OpClass::FpMult | OpClass::FpDiv | OpClass::FpSqrt
        )
    }

    /// Execution latency in Alpha 21264 cycles — the anchor values the
    /// paper scales by `17.4 FO4 / t_useful` to fill Table 3.
    #[must_use]
    pub fn alpha_cycles(self) -> u32 {
        match self {
            OpClass::IntAlu | OpClass::Nop => 1,
            OpClass::IntMult => 7,
            OpClass::FpAdd | OpClass::FpMult => 4,
            OpClass::FpDiv => 12,
            OpClass::FpSqrt => 18,
            // Loads/stores: address generation only; cache time is modelled
            // by the memory hierarchy, and control ops resolve in the ALU.
            OpClass::Load | OpClass::Store | OpClass::Branch | OpClass::Jump => 1,
        }
    }

    /// All classes, for exhaustive sweeps in tests and benches.
    #[must_use]
    pub fn all() -> [OpClass; 11] {
        [
            OpClass::IntAlu,
            OpClass::IntMult,
            OpClass::FpAdd,
            OpClass::FpMult,
            OpClass::FpDiv,
            OpClass::FpSqrt,
            OpClass::Load,
            OpClass::Store,
            OpClass::Branch,
            OpClass::Jump,
            OpClass::Nop,
        ]
    }
}

/// Concrete opcodes of the SIR ISA (Alpha-flavoured mnemonics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // mnemonics are self-describing
pub enum Opcode {
    // Integer ALU
    Addq,
    Subq,
    And,
    Bis,
    Xor,
    Sll,
    Srl,
    Cmpeq,
    Cmplt,
    Lda,
    // Integer multiply
    Mulq,
    // FP
    Addt,
    Subt,
    Cvttq,
    Mult,
    Divt,
    Sqrtt,
    // Memory
    Ldq,
    Ldl,
    Ldt,
    Stq,
    Stl,
    Stt,
    // Control
    Beq,
    Bne,
    Blt,
    Bge,
    Br,
    Jsr,
    Ret,
    // Misc
    Nop,
}

impl Opcode {
    /// The execution class of this opcode.
    #[must_use]
    #[inline]
    pub fn class(self) -> OpClass {
        use Opcode::*;
        match self {
            Addq | Subq | And | Bis | Xor | Sll | Srl | Cmpeq | Cmplt | Lda => OpClass::IntAlu,
            Mulq => OpClass::IntMult,
            Addt | Subt | Cvttq => OpClass::FpAdd,
            Mult => OpClass::FpMult,
            Divt => OpClass::FpDiv,
            Sqrtt => OpClass::FpSqrt,
            Ldq | Ldl | Ldt => OpClass::Load,
            Stq | Stl | Stt => OpClass::Store,
            Beq | Bne | Blt | Bge => OpClass::Branch,
            Br | Jsr | Ret => OpClass::Jump,
            Nop => OpClass::Nop,
        }
    }

    /// A representative opcode for each class (used by trace generators).
    #[must_use]
    pub fn representative(class: OpClass) -> Opcode {
        match class {
            OpClass::IntAlu => Opcode::Addq,
            OpClass::IntMult => Opcode::Mulq,
            OpClass::FpAdd => Opcode::Addt,
            OpClass::FpMult => Opcode::Mult,
            OpClass::FpDiv => Opcode::Divt,
            OpClass::FpSqrt => Opcode::Sqrtt,
            OpClass::Load => Opcode::Ldq,
            OpClass::Store => Opcode::Stq,
            OpClass::Branch => Opcode::Beq,
            OpClass::Jump => Opcode::Br,
            OpClass::Nop => Opcode::Nop,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = format!("{self:?}").to_lowercase();
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representatives_round_trip() {
        for class in OpClass::all() {
            assert_eq!(Opcode::representative(class).class(), class);
        }
    }

    #[test]
    fn class_predicates() {
        assert!(OpClass::Load.is_memory());
        assert!(OpClass::Store.is_memory());
        assert!(!OpClass::IntAlu.is_memory());
        assert!(OpClass::Branch.is_control());
        assert!(OpClass::Jump.is_control());
        assert!(!OpClass::Load.is_control());
        assert!(OpClass::FpSqrt.is_fp());
        assert!(!OpClass::IntMult.is_fp());
    }

    #[test]
    fn alpha_latencies_match_table3_anchors() {
        assert_eq!(OpClass::IntAlu.alpha_cycles(), 1);
        assert_eq!(OpClass::IntMult.alpha_cycles(), 7);
        assert_eq!(OpClass::FpAdd.alpha_cycles(), 4);
        assert_eq!(OpClass::FpMult.alpha_cycles(), 4);
        assert_eq!(OpClass::FpDiv.alpha_cycles(), 12);
        assert_eq!(OpClass::FpSqrt.alpha_cycles(), 18);
    }

    #[test]
    fn opcode_display_is_lowercase_mnemonic() {
        assert_eq!(Opcode::Addq.to_string(), "addq");
        assert_eq!(Opcode::Sqrtt.to_string(), "sqrtt");
    }
}
