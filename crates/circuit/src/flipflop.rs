//! Master–slave flip-flop vs. pulse latch — the comparison behind the
//! paper's §2 design choice.
//!
//! The paper models "a level-sensitive pulse latch, since it has low
//! overhead and power consumption" (citing Heo/Krashinsky/Asanović and the
//! Stojanović & Oklobdžija comparison of master–slave latches and
//! flip-flops). This module builds the conventional transmission-gate
//! master–slave flip-flop and measures the same two quantities measured for
//! the pulse latch — minimum D→Q delay and per-cycle supply energy — so the
//! claim is reproduced rather than assumed: the flip-flop's overhead is
//! substantially larger than one FO4, and it burns more clock energy.

use crate::device::{DeviceParams, Mosfet, MosfetKind};
use crate::netlist::{Netlist, Node, UNIT_NMOS_WIDTH};
use crate::sim::{Stimulus, Transient};

/// Result of the flip-flop measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipFlopMeasurement {
    /// Minimum successful D→Q delay (ps) — the latch-overhead analogue.
    pub overhead_ps: f64,
    /// Supply energy per captured transition (fJ), including the clock
    /// buffer chain.
    pub energy_per_cycle_fj: f64,
}

struct FfCircuit {
    netlist: Netlist,
    clk_src: Node,
    data_src: Node,
    latch_d: Node,
    q: Node,
}

/// Adds a clocked keeper (tristate inverter `from → to`, enabled when
/// `en_n_gate` is high on the NMOS side / `en_p_gate` low on the PMOS side).
fn keeper(nl: &mut Netlist, from: Node, to: Node, en_n_gate: Node, en_p_gate: Node, size: f64) {
    let wn = UNIT_NMOS_WIDTH * size;
    let wp = wn * 2.0;
    let (gnd, vdd) = (nl.gnd(), nl.vdd());
    let mid_n = nl.node();
    let mid_p = nl.node();
    nl.add_device(Mosfet::new(
        MosfetKind::Nmos,
        wn,
        to.index(),
        mid_n.index(),
        en_n_gate.index(),
    ));
    nl.add_device(Mosfet::new(
        MosfetKind::Nmos,
        wn,
        mid_n.index(),
        gnd.index(),
        from.index(),
    ));
    nl.add_device(Mosfet::new(
        MosfetKind::Pmos,
        wp,
        to.index(),
        mid_p.index(),
        en_p_gate.index(),
    ));
    nl.add_device(Mosfet::new(
        MosfetKind::Pmos,
        wp,
        mid_p.index(),
        vdd.index(),
        from.index(),
    ));
}

/// Builds the transmission-gate master–slave flip-flop in the Figure 3
/// measurement harness (six-inverter clock and data buffers, loaded output).
fn build(params: &DeviceParams) -> FfCircuit {
    let mut nl = Netlist::new(*params);
    let clk_src = nl.node();
    nl.drive(clk_src);
    let data_src = nl.node();
    nl.drive(data_src);
    let clk = nl.buffer_chain(clk_src, 6, 2.0);
    let clkb = nl.inverter(clk, 2.0);
    let latch_d = nl.buffer_chain(data_src, 6, 2.0);

    // Master: transparent while the clock is LOW (TG gated by clkb/clk),
    // held by a keeper while the clock is high.
    let m = nl.node();
    nl.transmission_gate(latch_d, m, clkb, clk, 1.0);
    let mq = nl.inverter(m, 1.0);
    keeper(&mut nl, mq, m, clk, clkb, 0.5);

    // Slave: transparent while the clock is HIGH, held while low.
    let s = nl.node();
    nl.transmission_gate(mq, s, clk, clkb, 1.0);
    let q = nl.inverter(s, 1.0);
    keeper(&mut nl, q, s, clkb, clk, 0.5);

    // Output load: a transparent latch, as in the paper's Figure 3.
    let (gnd, vdd) = (nl.gnd(), nl.vdd());
    let x2 = nl.node();
    nl.transmission_gate(q, x2, vdd, gnd, 1.0);
    let _ = nl.inverter(x2, 1.0);

    FfCircuit {
        netlist: nl,
        clk_src,
        data_src,
        latch_d,
        q,
    }
}

fn run_once(params: &DeviceParams, c: &FfCircuit, data_t0: f64) -> (Option<f64>, f64) {
    let vdd = params.vdd;
    // Two rising edges: the first (at ~200 ps source time) captures D = 0,
    // the second (at ~680 ps) captures the swept D = 1 transition, so Q
    // makes an observable 0→1 edge.
    let clock = Stimulus::Clock {
        t0: 200.0,
        period: 480.0,
        high: vdd,
        rise: 12.0,
    };
    let data = Stimulus::Step {
        t0: data_t0,
        from: 0.0,
        to: vdd,
        rise: 12.0,
    };
    let mut tr = Transient::new(&c.netlist);
    tr.set_stimulus(c.clk_src, clock);
    tr.set_stimulus(c.data_src, data);
    // Stop before the third rising edge at t0 + 2×period = 1160 ps.
    let waves = tr.run(1120.0);

    let mid = vdd / 2.0;
    let t_d = waves.node(c.latch_d).crossing(mid, true, data_t0);
    let q_wave = waves.node(c.q);
    let captured = q_wave.final_value() > 0.8 * vdd;
    let dq = match (captured, t_d) {
        (true, Some(t_d)) => q_wave.crossing(mid, true, t_d).map(|t_q| t_q - t_d),
        _ => None,
    };
    (dq, waves.supply_energy_fj())
}

/// Sweeps the data edge toward the capturing (rising) clock edge and
/// reports the minimum D→Q and the per-cycle energy.
///
/// # Panics
///
/// Panics if the flip-flop never captures (a device-model bug).
#[must_use]
pub fn measure_flipflop(params: &DeviceParams) -> FlipFlopMeasurement {
    let c = build(params);
    // The capturing edge is the *second* clock rise (~680 ps source time,
    // ~770 ps at the pins); sweep the data edge toward it from far ahead.
    // Data must arrive after the first rise has safely captured a 0.
    let mut best = f64::INFINITY;
    let mut energy_at_best = 0.0;
    let mut t0 = 480.0;
    while t0 <= 820.0 {
        let (dq, energy) = run_once(params, &c, t0);
        if let Some(dq) = dq {
            if dq < best {
                best = dq;
                energy_at_best = energy;
            }
        }
        t0 += 6.0;
    }
    assert!(best.is_finite(), "flip-flop never captured");
    FlipFlopMeasurement {
        overhead_ps: best,
        energy_per_cycle_fj: energy_at_best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fo4meas::measure_fo4;
    use crate::latch::measure_latch_overhead;

    #[test]
    fn flipflop_overhead_exceeds_pulse_latch() {
        // The §2 rationale: the pulse latch is chosen because the
        // master–slave flip-flop costs much more of the cycle.
        let p = DeviceParams::at_100nm();
        let ff = measure_flipflop(&p);
        let latch = measure_latch_overhead(&p);
        let fo4 = measure_fo4(&p).picoseconds();
        let ff_fo4 = ff.overhead_ps / fo4;
        let latch_fo4 = latch.overhead_ps / fo4;
        assert!(
            ff_fo4 > latch_fo4 * 1.3,
            "flip-flop {ff_fo4} FO4 vs pulse latch {latch_fo4} FO4"
        );
        assert!(
            (1.0..4.0).contains(&ff_fo4),
            "flip-flop overhead {ff_fo4} FO4 out of plausible range"
        );
    }

    #[test]
    fn measurement_reports_positive_energy() {
        let p = DeviceParams::at_100nm();
        let ff = measure_flipflop(&p);
        assert!(ff.energy_per_cycle_fj > 0.0);
    }
}
