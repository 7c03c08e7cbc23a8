//! Ring oscillator — the classic self-calibrating delay structure.
//!
//! An odd-length ring of inverters oscillates with period
//! `2 × N × t_inv(FO1)`: every edge propagates around the ring twice per
//! cycle. Process engineers use rings to measure gate delay without any
//! external timing reference, which makes the ring a strong *internal
//! consistency check* for the circuit simulator: the oscillation period
//! must agree with the FO4 measurement made by a completely different
//! set-up (a fanout-of-1 inverter is conventionally ≈ 0.4–0.6 of an FO4
//! delay, since delay grows roughly linearly with electrical fanout).

use crate::device::DeviceParams;
use crate::netlist::Netlist;
use crate::sim::Transient;

/// Result of a ring-oscillator measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingMeasurement {
    /// Number of inverters in the ring.
    pub stages: usize,
    /// Measured oscillation period (ps).
    pub period_ps: f64,
    /// Per-stage (fanout-of-1) inverter delay: `period / (2 × stages)`.
    pub stage_delay_ps: f64,
}

/// Builds and runs an `stages`-inverter ring, measuring its steady-state
/// period from successive rising crossings on one node.
///
/// # Panics
///
/// Panics if `stages` is even or below 3 (such rings do not oscillate), or
/// if the simulation fails to observe two full periods.
#[must_use]
pub fn measure_ring(params: &DeviceParams, stages: usize) -> RingMeasurement {
    assert!(stages >= 3 && stages % 2 == 1, "ring must be odd and >= 3");
    let mut nl = Netlist::new(*params);
    // Close the loop: allocate the first node, chain inverters, and tie the
    // last output back via one more inverter writing into the first node.
    let first = nl.node();
    let mut cur = first;
    for _ in 0..stages - 1 {
        cur = nl.inverter(cur, 1.0);
    }
    nl.inverter_into(cur, first, 1.0);

    let mut tr = Transient::new(&nl);
    // Break the metastable all-equal start: bias one node high.
    tr.set_initial(first, params.vdd);
    // Simulate long enough for several periods even on long rings. The
    // period is 2 × stages × t_FO1 and t_FO1 can reach ~20 ps at the
    // slower nodes, so budget well over 40 ps of horizon per stage: the
    // 30 % settle window plus two full periods must fit inside it.
    let horizon = 150.0 * stages as f64 + 400.0;
    let waves = tr.run(horizon);
    let w = waves.node(first);
    let mid = params.vdd / 2.0;
    // Skip the start-up transient, then take two successive rising edges.
    let settle = horizon * 0.3;
    let t1 = w
        .crossing(mid, true, settle)
        .expect("ring failed to oscillate");
    let t2 = w
        .crossing(mid, true, t1 + 1.0)
        .expect("second period missing");
    let period = t2 - t1;
    RingMeasurement {
        stages,
        period_ps: period,
        stage_delay_ps: period / (2.0 * stages as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fo4meas::measure_fo4;

    #[test]
    fn ring_oscillates_with_linear_period() {
        let p = DeviceParams::at_100nm();
        let r7 = measure_ring(&p, 7);
        let r13 = measure_ring(&p, 13);
        // Period scales linearly with ring length (same per-stage delay).
        let ratio = r13.period_ps / r7.period_ps;
        assert!(
            (ratio - 13.0 / 7.0).abs() < 0.15,
            "period ratio {ratio} vs 13/7"
        );
        assert!(
            (r7.stage_delay_ps - r13.stage_delay_ps).abs() < 0.15 * r7.stage_delay_ps,
            "per-stage delays differ: {} vs {}",
            r7.stage_delay_ps,
            r13.stage_delay_ps
        );
    }

    #[test]
    fn fo1_delay_is_a_fraction_of_fo4() {
        // Cross-check against the independently measured FO4: an FO1 stage
        // is conventionally ~0.3–0.7 of an FO4.
        let p = DeviceParams::at_100nm();
        let ring = measure_ring(&p, 9);
        let fo4 = measure_fo4(&p).picoseconds();
        let frac = ring.stage_delay_ps / fo4;
        assert!(
            (0.25..0.75).contains(&frac),
            "FO1/FO4 = {frac} (stage {} ps, FO4 {fo4} ps)",
            ring.stage_delay_ps
        );
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_rings_rejected() {
        let _ = measure_ring(&DeviceParams::at_100nm(), 6);
    }
}
