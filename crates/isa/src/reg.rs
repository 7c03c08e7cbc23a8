//! Architectural register names.

use std::fmt;

/// Number of architectural registers in each bank (Alpha-like: 32 integer
/// and 32 floating-point).
pub const NUM_ARCH_REGS_PER_BANK: u8 = 32;

/// Which register file a name belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegBank {
    /// Integer registers `r0..r31`.
    Int,
    /// Floating-point registers `f0..f31`.
    Fp,
}

/// An architectural register name.
///
/// # Examples
///
/// ```
/// use fo4depth_isa::{ArchReg, RegBank};
/// let r = ArchReg::int(5);
/// assert_eq!(r.bank(), RegBank::Int);
/// assert_eq!(r.index(), 5);
/// assert_eq!(r.to_string(), "r5");
/// assert_eq!(ArchReg::fp(2).to_string(), "f2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArchReg {
    bank: RegBank,
    index: u8,
}

impl ArchReg {
    /// Integer register `r{index}`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn int(index: u8) -> Self {
        assert!(
            index < NUM_ARCH_REGS_PER_BANK,
            "register index out of range"
        );
        Self {
            bank: RegBank::Int,
            index,
        }
    }

    /// Floating-point register `f{index}`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub fn fp(index: u8) -> Self {
        assert!(
            index < NUM_ARCH_REGS_PER_BANK,
            "register index out of range"
        );
        Self {
            bank: RegBank::Fp,
            index,
        }
    }

    /// The register's bank.
    #[must_use]
    pub fn bank(self) -> RegBank {
        self.bank
    }

    /// The register's index within its bank.
    #[must_use]
    pub fn index(self) -> u8 {
        self.index
    }

    /// A dense index over both banks: integer registers map to `0..32`,
    /// FP registers to `32..64`. Useful for flat rename-map storage.
    #[must_use]
    #[inline]
    pub fn flat_index(self) -> usize {
        match self.bank {
            RegBank::Int => usize::from(self.index),
            RegBank::Fp => usize::from(NUM_ARCH_REGS_PER_BANK) + usize::from(self.index),
        }
    }

    /// The inverse of [`flat_index`](Self::flat_index): reconstructs the
    /// register name from its dense two-bank index. Used by packed trace
    /// storage, which keeps one byte per operand.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    #[must_use]
    #[inline]
    pub fn from_flat_index(index: usize) -> Self {
        let per_bank = usize::from(NUM_ARCH_REGS_PER_BANK);
        if index < per_bank {
            Self {
                bank: RegBank::Int,
                index: index as u8,
            }
        } else {
            assert!(index < 2 * per_bank, "flat register index out of range");
            Self {
                bank: RegBank::Fp,
                index: (index - per_bank) as u8,
            }
        }
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bank {
            RegBank::Int => write!(f, "r{}", self.index),
            RegBank::Fp => write!(f, "f{}", self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_index_is_dense_and_disjoint() {
        assert_eq!(ArchReg::int(0).flat_index(), 0);
        assert_eq!(ArchReg::int(31).flat_index(), 31);
        assert_eq!(ArchReg::fp(0).flat_index(), 32);
        assert_eq!(ArchReg::fp(31).flat_index(), 63);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_index() {
        let _ = ArchReg::int(32);
    }

    #[test]
    fn flat_index_roundtrips() {
        for i in 0..64 {
            assert_eq!(ArchReg::from_flat_index(i).flat_index(), i);
        }
        assert_eq!(ArchReg::from_flat_index(0), ArchReg::int(0));
        assert_eq!(ArchReg::from_flat_index(33), ArchReg::fp(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_flat_index() {
        let _ = ArchReg::from_flat_index(64);
    }

    #[test]
    fn ordering_and_equality() {
        assert_eq!(ArchReg::int(3), ArchReg::int(3));
        assert_ne!(ArchReg::int(3), ArchReg::fp(3));
        assert!(ArchReg::int(3) < ArchReg::fp(0));
    }
}
