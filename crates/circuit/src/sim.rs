//! Transient simulation: stimuli, explicit integration, and waveform
//! measurement (50 % crossings, propagation delays).

use crate::netlist::{Netlist, Node};

/// Default integration step in picoseconds.
///
/// Chosen ≈ 3× below the stability limit of the stiffest node a measurement
/// circuit produces (minimum-cap node driven by the widest device).
pub const DEFAULT_DT_PS: f64 = 0.02;

/// A voltage stimulus applied to a driven node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stimulus {
    /// Constant voltage.
    Const(f64),
    /// A single linear ramp from `from` to `to` starting at `t0`, taking
    /// `rise` picoseconds.
    Step {
        /// Start time of the ramp (ps).
        t0: f64,
        /// Voltage before the ramp (V).
        from: f64,
        /// Voltage after the ramp (V).
        to: f64,
        /// Ramp duration (ps).
        rise: f64,
    },
    /// A repeating 50 %-duty clock that is low before `t0`, with linear
    /// edges of `rise` picoseconds.
    Clock {
        /// Time of the first rising edge (ps).
        t0: f64,
        /// Clock period (ps).
        period: f64,
        /// High voltage (V); low is 0.
        high: f64,
        /// Edge duration (ps).
        rise: f64,
    },
}

impl Stimulus {
    /// Voltage at time `t` (ps).
    #[must_use]
    pub fn voltage(&self, t: f64) -> f64 {
        match *self {
            Stimulus::Const(v) => v,
            Stimulus::Step { t0, from, to, rise } => {
                if t <= t0 {
                    from
                } else if t >= t0 + rise {
                    to
                } else {
                    from + (to - from) * (t - t0) / rise
                }
            }
            Stimulus::Clock {
                t0,
                period,
                high,
                rise,
            } => {
                if t < t0 {
                    return 0.0;
                }
                let phase = (t - t0) % period;
                let half = period / 2.0;
                if phase < rise {
                    high * phase / rise
                } else if phase < half {
                    high
                } else if phase < half + rise {
                    high * (1.0 - (phase - half) / rise)
                } else {
                    0.0
                }
            }
        }
    }
}

/// A sampled node-voltage trace produced by [`Transient::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct Waveform {
    dt: f64,
    samples: Vec<f64>,
}

impl Waveform {
    /// Sampling interval (ps).
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Raw samples (V), starting at t = 0.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Voltage at time `t`, by linear interpolation; clamps to the ends.
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let idx = (t / self.dt).max(0.0);
        let i = idx.floor() as usize;
        if i + 1 >= self.samples.len() {
            return *self.samples.last().expect("nonempty");
        }
        let frac = idx - i as f64;
        self.samples[i] * (1.0 - frac) + self.samples[i + 1] * frac
    }

    /// Final settled voltage.
    #[must_use]
    pub fn final_value(&self) -> f64 {
        self.samples.last().copied().unwrap_or(0.0)
    }

    /// Time (ps) of the first crossing of `level` after `after`, in the
    /// requested direction (`rising = true` for low→high). Returns `None`
    /// if the trace never crosses.
    #[must_use]
    pub fn crossing(&self, level: f64, rising: bool, after: f64) -> Option<f64> {
        let start = ((after / self.dt).ceil() as usize).max(1);
        for i in start..self.samples.len() {
            let (a, b) = (self.samples[i - 1], self.samples[i]);
            let crossed = if rising {
                a < level && b >= level
            } else {
                a > level && b <= level
            };
            if crossed {
                let frac = (level - a) / (b - a);
                return Some((i as f64 - 1.0 + frac) * self.dt);
            }
        }
        None
    }
}

/// A transient analysis over a [`Netlist`].
///
/// Driven nodes follow their [`Stimulus`]; every other node integrates
/// `dV/dt = ΣI / C` with forward Euler. Units are fF, mA, V, ps, which makes
/// the integrator constant-free.
///
/// # Examples
///
/// ```
/// use fo4depth_circuit::{DeviceParams, Netlist, Transient};
/// use fo4depth_circuit::sim::Stimulus;
///
/// let mut nl = Netlist::new(DeviceParams::at_100nm());
/// let input = nl.node();
/// nl.drive(input);
/// let out = nl.inverter(input, 1.0);
/// let mut tr = Transient::new(&nl);
/// tr.set_stimulus(input, Stimulus::Step { t0: 50.0, from: 0.0, to: 1.2, rise: 10.0 });
/// let waves = tr.run(200.0);
/// assert!(waves.node(out).final_value() < 0.1); // inverter pulled low
/// ```
#[derive(Debug, Clone)]
pub struct Transient<'a> {
    netlist: &'a Netlist,
    stimuli: Vec<Option<Stimulus>>,
    initial: Vec<f64>,
    dt: f64,
}

/// The complete set of waveforms from one [`Transient::run`].
#[derive(Debug, Clone)]
pub struct SimWaves {
    dt: f64,
    per_node: Vec<Vec<f64>>,
    supply_charge_fc: f64,
    vdd: f64,
}

impl SimWaves {
    /// The waveform of `node`.
    #[must_use]
    pub fn node(&self, node: Node) -> Waveform {
        Waveform {
            dt: self.dt,
            samples: self.per_node[node.index()].clone(),
        }
    }

    /// Total charge drawn from the supply rail over the run, in
    /// femtocoulombs.
    #[must_use]
    pub fn supply_charge_fc(&self) -> f64 {
        self.supply_charge_fc
    }

    /// Total energy drawn from the supply over the run, in femtojoules
    /// (`E = Q × Vdd`).
    #[must_use]
    pub fn supply_energy_fj(&self) -> f64 {
        self.supply_charge_fc * self.vdd
    }
}

impl<'a> Transient<'a> {
    /// Prepares an analysis with rails tied and all other nodes initially at
    /// ground.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let n = netlist.node_count();
        let mut stimuli = vec![None; n];
        stimuli[netlist.gnd().index()] = Some(Stimulus::Const(0.0));
        stimuli[netlist.vdd().index()] = Some(Stimulus::Const(netlist.params().vdd));
        Self {
            netlist,
            stimuli,
            initial: vec![0.0; n],
            dt: DEFAULT_DT_PS,
        }
    }

    /// Overrides the integration step (ps).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive.
    pub fn set_dt(&mut self, dt: f64) {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        self.dt = dt;
    }

    /// Attaches a stimulus to a node previously marked with
    /// [`Netlist::drive`].
    ///
    /// # Panics
    ///
    /// Panics if the node was not marked as driven.
    pub fn set_stimulus(&mut self, node: Node, stimulus: Stimulus) {
        assert!(
            self.netlist.is_driven(node.index()),
            "node must be marked driven in the netlist"
        );
        self.stimuli[node.index()] = Some(stimulus);
    }

    /// Sets the initial voltage of an undriven node (default 0 V).
    pub fn set_initial(&mut self, node: Node, volts: f64) {
        self.initial[node.index()] = volts;
    }

    /// Runs the transient for `t_end` picoseconds and returns every node's
    /// waveform.
    ///
    /// # Panics
    ///
    /// Panics if a driven node has no stimulus attached.
    #[must_use]
    pub fn run(&self, t_end: f64) -> SimWaves {
        let n = self.netlist.node_count();
        let steps = (t_end / self.dt).ceil() as usize;
        let caps = self.netlist.node_capacitances();
        let params = self.netlist.params();
        let vdd = params.vdd;

        let mut v: Vec<f64> = (0..n)
            .map(|i| match &self.stimuli[i] {
                Some(s) => s.voltage(0.0),
                None => {
                    assert!(
                        !self.netlist.is_driven(i),
                        "driven node {i} has no stimulus"
                    );
                    self.initial[i]
                }
            })
            .collect();

        let mut traces: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut t = Vec::with_capacity(steps + 1);
                t.push(v[i]);
                t
            })
            .collect();

        let devices = self.netlist.devices();
        let vdd_node = self.netlist.vdd().index();
        let mut supply_charge = 0.0f64;
        let mut currents = vec![0.0f64; n];
        for step in 1..=steps {
            let t = step as f64 * self.dt;
            currents.fill(0.0);
            for d in devices {
                let i_ab = d.current_a_to_b(params, v[d.a], v[d.b], v[d.gate]);
                currents[d.a] -= i_ab;
                currents[d.b] += i_ab;
            }
            // Charge delivered by the supply this step (mA × ps = fC).
            supply_charge += (-currents[vdd_node]).max(0.0) * self.dt;
            for i in 0..n {
                match &self.stimuli[i] {
                    Some(s) => v[i] = s.voltage(t),
                    None => {
                        v[i] += self.dt * currents[i] / caps[i];
                        // Junction diodes in a real process clamp excursions;
                        // a small guard band keeps Euler well-behaved.
                        v[i] = v[i].clamp(-0.2, vdd + 0.2);
                    }
                }
                traces[i].push(v[i]);
            }
        }

        SimWaves {
            dt: self.dt,
            per_node: traces,
            supply_charge_fc: supply_charge,
            vdd,
        }
    }
}

/// Propagation delay (ps) between the 50 % crossings of two waveforms.
///
/// `input_rising` selects which input edge to time from (the output edge
/// direction is searched automatically in both polarities after the input
/// edge). Returns `None` if either crossing is missing.
#[must_use]
pub fn propagation_delay(
    input: &Waveform,
    output: &Waveform,
    vdd: f64,
    input_rising: bool,
    after: f64,
) -> Option<f64> {
    let mid = vdd / 2.0;
    let t_in = input.crossing(mid, input_rising, after)?;
    let out_rise = output.crossing(mid, true, t_in);
    let out_fall = output.crossing(mid, false, t_in);
    let t_out = match (out_rise, out_fall) {
        (Some(r), Some(f)) => r.min(f),
        (Some(r), None) => r,
        (None, Some(f)) => f,
        (None, None) => return None,
    };
    Some(t_out - t_in)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceParams;

    fn nl() -> Netlist {
        Netlist::new(DeviceParams::at_100nm())
    }

    #[test]
    fn stimulus_shapes() {
        let s = Stimulus::Step {
            t0: 10.0,
            from: 0.0,
            to: 1.2,
            rise: 10.0,
        };
        assert_eq!(s.voltage(0.0), 0.0);
        assert!((s.voltage(15.0) - 0.6).abs() < 1e-12);
        assert_eq!(s.voltage(30.0), 1.2);

        let c = Stimulus::Clock {
            t0: 0.0,
            period: 100.0,
            high: 1.2,
            rise: 4.0,
        };
        assert_eq!(c.voltage(-1.0), 0.0);
        assert_eq!(c.voltage(25.0), 1.2);
        assert_eq!(c.voltage(75.0), 0.0);
        assert!((c.voltage(2.0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn inverter_inverts() {
        let mut nl = nl();
        let input = nl.node();
        nl.drive(input);
        let out = nl.inverter(input, 1.0);
        let mut tr = Transient::new(&nl);
        tr.set_stimulus(
            input,
            Stimulus::Step {
                t0: 50.0,
                from: 0.0,
                to: 1.2,
                rise: 5.0,
            },
        );
        tr.set_initial(out, 1.2);
        let waves = tr.run(300.0);
        let w = waves.node(out);
        assert!(w.value_at(40.0) > 1.0, "output high before input rises");
        assert!(w.final_value() < 0.1, "output low after input rises");
    }

    #[test]
    fn inverter_output_settles_high_for_low_input() {
        let mut nl = nl();
        let input = nl.node();
        nl.drive(input);
        let out = nl.inverter(input, 1.0);
        let mut tr = Transient::new(&nl);
        tr.set_stimulus(input, Stimulus::Const(0.0));
        let waves = tr.run(200.0);
        assert!(waves.node(out).final_value() > 1.1);
    }

    #[test]
    fn crossing_detection_interpolates() {
        let w = Waveform {
            dt: 1.0,
            samples: vec![0.0, 0.4, 0.8, 1.2],
        };
        let t = w.crossing(0.6, true, 0.0).unwrap();
        assert!((t - 1.5).abs() < 1e-9);
        assert!(w.crossing(0.6, false, 0.0).is_none());
    }

    #[test]
    fn value_at_clamps_ends() {
        let w = Waveform {
            dt: 1.0,
            samples: vec![0.0, 1.0],
        };
        assert_eq!(w.value_at(100.0), 1.0);
        assert_eq!(w.value_at(-5.0), 0.0);
    }

    #[test]
    fn delay_is_positive_for_inverter_chain() {
        let mut nl = nl();
        let input = nl.node();
        nl.drive(input);
        let a = nl.inverter(input, 1.0);
        let b = nl.inverter(a, 1.0);
        let mut tr = Transient::new(&nl);
        tr.set_stimulus(
            input,
            Stimulus::Step {
                t0: 50.0,
                from: 0.0,
                to: 1.2,
                rise: 5.0,
            },
        );
        tr.set_initial(a, 1.2);
        let waves = tr.run(400.0);
        let d = propagation_delay(&waves.node(input), &waves.node(b), 1.2, true, 0.0).unwrap();
        assert!(d > 0.5 && d < 100.0, "2-inverter delay {d} ps");
    }

    #[test]
    #[should_panic(expected = "must be marked driven")]
    fn stimulus_on_undriven_node_panics() {
        let mut nl = nl();
        let a = nl.node();
        let mut tr = Transient::new(&nl);
        tr.set_stimulus(a, Stimulus::Const(0.0));
    }
}
