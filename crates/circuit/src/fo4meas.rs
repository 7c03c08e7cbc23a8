//! Measurement of the FO4 inverter delay.
//!
//! The canonical set-up: a geometrically sized inverter chain (each stage
//! drives four times its own input capacitance), with the delay measured
//! across an interior stage so that both its input slew and its load are the
//! self-consistent fanout-of-4 conditions. Rising and falling propagation
//! delays are averaged.

use crate::device::DeviceParams;
use crate::netlist::Netlist;
use crate::sim::{propagation_delay, Stimulus, Transient};

/// Result of a FO4 measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fo4Measurement {
    /// Delay of the measured stage for a rising input edge (ps).
    pub rise_ps: f64,
    /// Delay of the measured stage for a falling input edge (ps).
    pub fall_ps: f64,
}

impl Fo4Measurement {
    /// The FO4 delay: the average of rise and fall propagation delays (ps).
    #[must_use]
    pub fn picoseconds(&self) -> f64 {
        0.5 * (self.rise_ps + self.fall_ps)
    }
}

/// Builds the sized chain and returns (netlist, input node, measured stage
/// input, measured stage output).
fn build_chain(
    params: &DeviceParams,
) -> (
    Netlist,
    crate::netlist::Node,
    crate::netlist::Node,
    crate::netlist::Node,
) {
    let mut nl = Netlist::new(*params);
    let input = nl.node();
    nl.drive(input);
    // Sizes 1 → 4 → 16 → 64; measure across the size-16 stage, which sees a
    // realistic input edge (from the size-4 stage) and a 4× load (the
    // size-64 stage). The final stage gets its own fanout-of-4 load so its
    // input edge is not artificially light either.
    let n1 = nl.inverter(input, 1.0);
    let n2 = nl.inverter(n1, 4.0);
    let n3 = nl.inverter(n2, 16.0);
    let n4 = nl.inverter(n3, 64.0);
    nl.fanout_load(n4, 4, 64.0);
    (nl, input, n2, n3)
}

fn measure_edge(params: &DeviceParams, input_rising_at_dut: bool) -> f64 {
    let (nl, input, stage_in, stage_out) = build_chain(params);
    let vdd = params.vdd;
    // Two inverters sit between the source and the measured stage input, so
    // the polarity at the DUT input equals the source polarity.
    let (from, to) = if input_rising_at_dut {
        (0.0, vdd)
    } else {
        (vdd, 0.0)
    };
    let mut tr = Transient::new(&nl);
    tr.set_stimulus(
        input,
        Stimulus::Step {
            t0: 150.0,
            from,
            to,
            rise: 20.0,
        },
    );
    let waves = tr.run(600.0);
    // Let the chain settle from its arbitrary initial state before timing;
    // the step at 150 ps is what we measure.
    propagation_delay(
        &waves.node(stage_in),
        &waves.node(stage_out),
        vdd,
        input_rising_at_dut,
        120.0,
    )
    .expect("FO4 chain must propagate the edge")
}

/// Measures the FO4 delay for the given device parameters.
///
/// # Examples
///
/// ```
/// use fo4depth_circuit::{fo4meas, DeviceParams};
/// let fo4 = fo4meas::measure_fo4(&DeviceParams::at_100nm());
/// assert!(fo4.picoseconds() > 0.0);
/// ```
#[must_use]
pub fn measure_fo4(params: &DeviceParams) -> Fo4Measurement {
    Fo4Measurement {
        rise_ps: measure_edge(params, true),
        fall_ps: measure_edge(params, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fo4_at_100nm_near_paper_rule_of_thumb() {
        // The paper's rule: 1 FO4 ≈ 360 ps × 0.1 µm = 36 ps at 100 nm.
        let fo4 = measure_fo4(&DeviceParams::at_100nm());
        let ps = fo4.picoseconds();
        assert!((28.0..44.0).contains(&ps), "FO4 = {ps} ps");
    }

    #[test]
    fn rise_and_fall_are_balanced() {
        // The 2:1 P/N sizing should keep the two edges within ~40 %.
        let fo4 = measure_fo4(&DeviceParams::at_100nm());
        let ratio = fo4.rise_ps / fo4.fall_ps;
        assert!((0.6..1.7).contains(&ratio), "rise/fall ratio {ratio}");
    }

    #[test]
    fn fo4_scales_linearly_with_gate_length() {
        let f100 = measure_fo4(&DeviceParams::at_100nm()).picoseconds();
        let f180 = measure_fo4(&DeviceParams::at_100nm().scaled_to(0.18)).picoseconds();
        let ratio = f180 / f100;
        assert!((1.6..2.0).contains(&ratio), "scaling ratio {ratio}");
    }
}
