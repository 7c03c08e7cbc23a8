//! First-order MOSFET device model and per-technology parameters.
//!
//! The model blends the long-channel square law with a velocity-saturation
//! current limit (a poor man's alpha-power model): in saturation,
//!
//! ```text
//! I_dsat = min( ½·k'·(W/L)·(Vgs−Vt)²,  W·vsat_factor·(Vgs−Vt) )
//! ```
//!
//! which captures the sub-quadratic drive of deep-submicron devices well
//! enough for delay *ratios*, the only thing the study consumes. Effective
//! parameters are calibrated so a fanout-of-4 inverter at 100 nm measures
//! close to the paper's 36 ps rule of thumb.

/// Polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosfetKind {
    /// N-channel: conducts when the gate is high relative to the source.
    Nmos,
    /// P-channel: conducts when the gate is low relative to the source.
    Pmos,
}

/// Effective device and parasitic parameters for one technology node.
///
/// All lengths are in microns, capacitances in femtofarads, currents in
/// milliamps, voltages in volts, times in picoseconds. (That unit system
/// makes `fF·V/mA = ps`, so the integrator needs no conversion constants.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Supply voltage (V).
    pub vdd: f64,
    /// NMOS threshold voltage (V).
    pub vtn: f64,
    /// PMOS threshold voltage magnitude (V).
    pub vtp: f64,
    /// NMOS transconductance k'ₙ (mA/V² per square, i.e. per W/L).
    pub kn: f64,
    /// PMOS transconductance k'ₚ (mA/V² per square).
    pub kp: f64,
    /// Velocity-saturation current limit per micron of width (mA/µm per volt
    /// of overdrive).
    pub vsat_limit: f64,
    /// Channel length (µm) — the drawn gate length.
    pub length: f64,
    /// Gate capacitance per micron of width (fF/µm), including overlap.
    pub cgate: f64,
    /// Drain junction capacitance per micron of width (fF/µm).
    pub cdrain: f64,
}

impl DeviceParams {
    /// Calibrated parameters for the paper's 100 nm node.
    ///
    /// Chosen so the measured FO4 (see [`crate::fo4meas`]) lands near 36 ps
    /// and the P/N drive ratio matches a 2:1 width skew, following the
    /// sizing practice of Stojanović & Oklobdžija that the paper cites.
    #[must_use]
    pub fn at_100nm() -> Self {
        Self {
            vdd: 1.2,
            vtn: 0.30,
            vtp: 0.30,
            kn: 0.260, // mA/V² per square, effective (mobility-degraded)
            kp: 0.120,
            vsat_limit: 0.65, // mA per µm width per volt overdrive
            length: 0.10,
            cgate: 1.65,  // fF/µm
            cdrain: 1.10, // fF/µm
        }
    }

    /// Parameters linearly scaled to another drawn gate length.
    ///
    /// Constant-field scaling to first order: lengths and widths shrink
    /// together, capacitance per micron is roughly constant, current per
    /// micron is roughly constant, so gate delay scales with L — exactly the
    /// assumption behind the paper's "FO4 is technology independent" claim.
    #[must_use]
    pub fn scaled_to(self, drawn_gate_length_um: f64) -> Self {
        assert!(
            drawn_gate_length_um > 0.0 && drawn_gate_length_um.is_finite(),
            "gate length must be positive"
        );
        let ratio = drawn_gate_length_um / self.length;
        Self {
            length: drawn_gate_length_um,
            // Netlist widths are fixed in microns, so capacitance per node is
            // unchanged; both current mechanisms must then scale as 1/L for
            // gate delay to scale with L. The square-law term does so through
            // beta = k'·(W/L); the velocity-saturation ceiling is scaled
            // explicitly.
            vsat_limit: self.vsat_limit / ratio,
            ..self
        }
    }

    /// Saturation/linear drain current (mA) for a device of width `w` µm.
    ///
    /// `vgs` and `vds` are source-referenced and already polarity-normalized
    /// (callers fold PMOS into the NMOS convention by mirroring voltages).
    /// `vt` and `k` select the polarity's parameters.
    fn ids_normalized(&self, k: f64, vt: f64, w: f64, vgs: f64, vds: f64) -> f64 {
        let vov = vgs - vt;
        if vov <= 0.0 || vds <= 0.0 {
            return 0.0;
        }
        let beta = k * (w / self.length);
        let square_law = if vds >= vov {
            0.5 * beta * vov * vov
        } else {
            beta * (vov - 0.5 * vds) * vds
        };
        // Velocity-saturation ceiling, softened in the linear region so the
        // I-V curve stays continuous.
        let vsat_ceiling = self.vsat_limit * w * vov * (vds / (vds + 0.3)).min(1.0);
        square_law.min(vsat_ceiling)
    }
}

/// A MOSFET instance wired between two channel terminals with a gate.
///
/// Channel terminals are unordered: the conduction model picks source and
/// drain from the instantaneous voltages, which is what lets the same
/// primitive serve as a pull-down, a pull-up, or half of a transmission
/// gate (the pulse latch needs the latter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mosfet {
    /// Device polarity.
    pub kind: MosfetKind,
    /// Channel width in microns.
    pub width: f64,
    /// First channel terminal (node index).
    pub a: usize,
    /// Second channel terminal (node index).
    pub b: usize,
    /// Gate terminal (node index).
    pub gate: usize,
}

impl Mosfet {
    /// Creates a device.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    #[must_use]
    pub fn new(kind: MosfetKind, width: f64, a: usize, b: usize, gate: usize) -> Self {
        assert!(width > 0.0 && width.is_finite(), "width must be positive");
        Self {
            kind,
            width,
            a,
            b,
            gate,
        }
    }

    /// Channel current flowing **from terminal `a` into terminal `b`** (mA),
    /// given the node voltages.
    ///
    /// Positive return means conventional current out of `a`'s node into
    /// `b`'s node through the channel.
    #[must_use]
    pub fn current_a_to_b(&self, params: &DeviceParams, va: f64, vb: f64, vg: f64) -> f64 {
        match self.kind {
            MosfetKind::Nmos => {
                // Source is the lower channel terminal.
                if va >= vb {
                    // current flows a(drain) -> b(source): positive a->b
                    params.ids_normalized(params.kn, params.vtn, self.width, vg - vb, va - vb)
                } else {
                    -params.ids_normalized(params.kn, params.vtn, self.width, vg - va, vb - va)
                }
            }
            MosfetKind::Pmos => {
                // Source is the higher channel terminal; conducts when the
                // gate is below the source by |Vtp|.
                if va <= vb {
                    // b is source; current flows b(source) -> a(drain)
                    // inside the channel, i.e. negative a->b... careful:
                    // PMOS carries current from source (high) to drain (low).
                    -params.ids_normalized(params.kp, params.vtp, self.width, vb - vg, vb - va)
                } else {
                    params.ids_normalized(params.kp, params.vtp, self.width, va - vg, va - vb)
                }
            }
        }
    }

    /// Gate capacitance of the device (fF).
    #[must_use]
    pub fn gate_capacitance(&self, params: &DeviceParams) -> f64 {
        params.cgate * self.width
    }

    /// Junction capacitance contributed to each channel terminal (fF).
    #[must_use]
    pub fn junction_capacitance(&self, params: &DeviceParams) -> f64 {
        params.cdrain * self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> DeviceParams {
        DeviceParams::at_100nm()
    }

    #[test]
    fn nmos_off_below_threshold() {
        let m = Mosfet::new(MosfetKind::Nmos, 1.0, 0, 1, 2);
        let i = m.current_a_to_b(&p(), 1.2, 0.0, 0.2); // Vgs = 0.2 < Vtn
        assert_eq!(i, 0.0);
    }

    #[test]
    fn nmos_conducts_when_on() {
        let m = Mosfet::new(MosfetKind::Nmos, 1.0, 0, 1, 2);
        let i = m.current_a_to_b(&p(), 1.2, 0.0, 1.2);
        assert!(i > 0.1, "expected strong conduction, got {i} mA");
    }

    #[test]
    fn nmos_current_reverses_with_terminals() {
        let m = Mosfet::new(MosfetKind::Nmos, 1.0, 0, 1, 2);
        let fwd = m.current_a_to_b(&p(), 1.2, 0.0, 1.2);
        let rev = m.current_a_to_b(&p(), 0.0, 1.2, 1.2);
        assert!((fwd + rev).abs() < 1e-12);
    }

    #[test]
    fn pmos_conducts_when_gate_low() {
        let m = Mosfet::new(MosfetKind::Pmos, 2.0, 0, 1, 2);
        // a low (drain), b high (source), gate at 0 → strong conduction b->a,
        // i.e. negative a->b.
        let i = m.current_a_to_b(&p(), 0.0, 1.2, 0.0);
        assert!(i < -0.1, "expected pull-up current, got {i} mA");
        // Gate high → off.
        let off = m.current_a_to_b(&p(), 0.0, 1.2, 1.2);
        assert_eq!(off, 0.0);
    }

    #[test]
    fn current_scales_with_width() {
        let m1 = Mosfet::new(MosfetKind::Nmos, 1.0, 0, 1, 2);
        let m2 = Mosfet::new(MosfetKind::Nmos, 2.0, 0, 1, 2);
        let i1 = m1.current_a_to_b(&p(), 1.2, 0.0, 1.2);
        let i2 = m2.current_a_to_b(&p(), 1.2, 0.0, 1.2);
        assert!((i2 / i1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn linear_region_current_below_saturation() {
        let m = Mosfet::new(MosfetKind::Nmos, 1.0, 0, 1, 2);
        let sat = m.current_a_to_b(&p(), 1.2, 0.0, 1.2);
        let lin = m.current_a_to_b(&p(), 0.1, 0.0, 1.2);
        assert!(lin < sat);
        assert!(lin > 0.0);
    }

    #[test]
    fn iv_curve_is_monotone_in_vds() {
        let m = Mosfet::new(MosfetKind::Nmos, 1.0, 0, 1, 2);
        let mut last = 0.0;
        for step in 0..=24 {
            let vds = step as f64 * 0.05;
            let i = m.current_a_to_b(&p(), vds, 0.0, 1.2);
            assert!(i >= last - 1e-12, "I-V not monotone at vds={vds}");
            last = i;
        }
    }

    #[test]
    fn scaling_preserves_shape() {
        let base = p();
        let scaled = base.scaled_to(0.18);
        assert_eq!(scaled.length, 0.18);
        assert!((base.vsat_limit / scaled.vsat_limit - 1.8).abs() < 1e-9);
        assert_eq!(scaled.cgate, base.cgate);
        assert_eq!(scaled.vdd, base.vdd);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn rejects_zero_width() {
        let _ = Mosfet::new(MosfetKind::Nmos, 0.0, 0, 1, 2);
    }
}
