//! Register renaming: architectural → physical mapping with a free list.
//!
//! The paper sizes both physical register files at 512 entries (§3.1) so
//! that deep pipelines are not artificially register-starved; the default
//! here matches. Renaming is a *resource* model: the map tracks the current
//! producer of each architectural name so dispatch can wire consumers to
//! producers, and the free list throttles dispatch when physical registers
//! run out. Because the simulator is trace-driven (no wrong-path
//! execution), no checkpoint/rollback machinery is needed: a squashed fetch
//! group never reaches rename.

use fo4depth_isa::ArchReg;

/// Reason renaming could not proceed this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameStall {
    /// The free list is empty.
    NoPhysicalRegisters,
}

impl std::fmt::Display for RenameStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenameStall::NoPhysicalRegisters => f.write_str("physical register file exhausted"),
        }
    }
}

impl std::error::Error for RenameStall {}

/// A physical register name.
pub type PhysReg = u32;

/// The rename map and free list for one register bank pair.
///
/// # Examples
///
/// ```
/// use fo4depth_isa::ArchReg;
/// use fo4depth_uarch::rename::RenameMap;
///
/// let mut map = RenameMap::new(512);
/// let r1 = ArchReg::int(1);
/// let p_old = map.current(r1);
/// let p_new = map.rename_dest(r1).unwrap();
/// assert_ne!(p_old, p_new);
/// assert_eq!(map.current(r1), p_new);
/// ```
#[derive(Debug, Clone)]
pub struct RenameMap {
    /// Current physical register per architectural name (flat-indexed).
    map: Vec<PhysReg>,
    /// Free physical registers.
    free: Vec<PhysReg>,
    /// Total physical registers.
    total: u32,
}

impl RenameMap {
    /// Creates a map backed by `phys_regs` physical registers; the first 64
    /// are bound to the 64 architectural names, the rest start free.
    ///
    /// # Panics
    ///
    /// Panics if `phys_regs < 65` (there must be at least one free
    /// register, or dispatch could never proceed).
    #[must_use]
    pub fn new(phys_regs: u32) -> Self {
        assert!(
            phys_regs >= 65,
            "need more physical than architectural registers"
        );
        Self {
            map: (0..64).collect(),
            free: (64..phys_regs).rev().collect(),
            total: phys_regs,
        }
    }

    /// The physical register currently holding `reg`'s value.
    #[must_use]
    #[inline]
    pub fn current(&self, reg: ArchReg) -> PhysReg {
        self.map[reg.flat_index()]
    }

    /// Allocates a new physical register for a write to `reg`, returning
    /// the new name. The *previous* mapping should be freed when the
    /// writing instruction commits (pass it to [`free`](Self::free)).
    ///
    /// # Errors
    ///
    /// Returns [`RenameStall::NoPhysicalRegisters`] when the free list is
    /// empty; the caller should stall dispatch this cycle.
    #[inline]
    pub fn rename_dest(&mut self, reg: ArchReg) -> Result<PhysReg, RenameStall> {
        let new = self.free.pop().ok_or(RenameStall::NoPhysicalRegisters)?;
        self.map[reg.flat_index()] = new;
        Ok(new)
    }

    /// Returns a physical register to the free list.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if the register is out of range.
    #[inline]
    pub fn free(&mut self, reg: PhysReg) {
        debug_assert!(reg < self.total, "freeing unknown register");
        self.free.push(reg);
    }

    /// Number of free physical registers.
    #[must_use]
    #[inline]
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Total physical registers.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_changes_mapping_and_consumes_free_list() {
        let mut m = RenameMap::new(80);
        let before = m.free_count();
        let r = ArchReg::int(5);
        let old = m.current(r);
        let new = m.rename_dest(r).unwrap();
        assert_ne!(old, new);
        assert_eq!(m.free_count(), before - 1);
    }

    #[test]
    fn exhaustion_then_recovery() {
        let mut m = RenameMap::new(66); // two free registers
        let r = ArchReg::int(0);
        let p1 = m.rename_dest(r).unwrap();
        let _p2 = m.rename_dest(r).unwrap();
        assert_eq!(m.rename_dest(r), Err(RenameStall::NoPhysicalRegisters));
        m.free(p1);
        assert!(m.rename_dest(r).is_ok());
    }

    #[test]
    fn consumers_see_latest_producer() {
        let mut m = RenameMap::new(512);
        let r = ArchReg::fp(3);
        let p1 = m.rename_dest(r).unwrap();
        assert_eq!(m.current(r), p1);
        let p2 = m.rename_dest(r).unwrap();
        assert_eq!(m.current(r), p2);
    }

    #[test]
    fn banks_do_not_alias() {
        let m = RenameMap::new(512);
        assert_ne!(m.current(ArchReg::int(7)), m.current(ArchReg::fp(7)));
    }

    #[test]
    #[should_panic(expected = "more physical than architectural")]
    fn rejects_tiny_register_file() {
        let _ = RenameMap::new(64);
    }
}
