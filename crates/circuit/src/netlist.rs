//! Netlist construction: nodes, devices, lumped capacitance, and the gate
//! builders (inverters, NANDs, transmission gates, buffer chains) used by
//! the measurement set-ups.

use crate::device::{DeviceParams, Mosfet, MosfetKind};

/// A handle to a circuit node.
///
/// Node 0 is always ground and node 1 is always the supply; both are created
/// by [`Netlist::new`] and held at fixed voltage by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node(pub(crate) usize);

impl Node {
    /// The raw node index (useful for labelling waveforms).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A circuit under construction: devices plus per-node lumped capacitance.
///
/// # Examples
///
/// ```
/// use fo4depth_circuit::{DeviceParams, Netlist};
///
/// let params = DeviceParams::at_100nm();
/// let mut nl = Netlist::new(params);
/// let input = nl.node();
/// let out = nl.inverter(input, 1.0);
/// nl.add_cap(out, 5.0); // 5 fF of extra wire load
/// assert!(nl.node_count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    params: DeviceParams,
    devices: Vec<Mosfet>,
    /// Extra lumped capacitance per node (fF), beyond device parasitics.
    extra_cap: Vec<f64>,
    /// Nodes whose voltage is forced by the stimulus (inputs/rails).
    driven: Vec<bool>,
}

/// Default NMOS width for a unit inverter, in microns.
pub const UNIT_NMOS_WIDTH: f64 = 0.6;
/// P-to-N width ratio used for all gates (the 2:1 skew of the paper's cited
/// latch-comparison methodology).
pub const P_TO_N_RATIO: f64 = 2.0;
/// Floor on node capacitance (fF) so every node has finite time constant.
pub const MIN_NODE_CAP: f64 = 0.35;

impl Netlist {
    /// Creates an empty netlist with ground and supply rails.
    #[must_use]
    pub fn new(params: DeviceParams) -> Self {
        let mut nl = Self {
            params,
            devices: Vec::new(),
            extra_cap: Vec::new(),
            driven: Vec::new(),
        };
        let gnd = nl.node();
        let vdd = nl.node();
        nl.driven[gnd.0] = true;
        nl.driven[vdd.0] = true;
        nl
    }

    /// The ground rail.
    #[must_use]
    pub fn gnd(&self) -> Node {
        Node(0)
    }

    /// The supply rail.
    #[must_use]
    pub fn vdd(&self) -> Node {
        Node(1)
    }

    /// Device parameters in use.
    #[must_use]
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Allocates a new floating node.
    pub fn node(&mut self) -> Node {
        self.extra_cap.push(0.0);
        self.driven.push(false);
        Node(self.extra_cap.len() - 1)
    }

    /// Marks a node as stimulus-driven (its voltage is imposed, not solved).
    pub fn drive(&mut self, node: Node) {
        self.driven[node.0] = true;
    }

    /// Adds extra lumped capacitance (fF) to a node.
    pub fn add_cap(&mut self, node: Node, femtofarads: f64) {
        assert!(femtofarads >= 0.0, "capacitance must be non-negative");
        self.extra_cap[node.0] += femtofarads;
    }

    /// Adds a raw device.
    pub fn add_device(&mut self, device: Mosfet) {
        let n = self.extra_cap.len();
        assert!(
            device.a < n && device.b < n && device.gate < n,
            "device terminal out of range"
        );
        self.devices.push(device);
    }

    /// Number of nodes (including rails).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.extra_cap.len()
    }

    /// Number of devices.
    #[must_use]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The devices (for the simulator).
    #[must_use]
    pub(crate) fn devices(&self) -> &[Mosfet] {
        &self.devices
    }

    /// Whether a node's voltage is imposed by the stimulus.
    #[must_use]
    pub(crate) fn is_driven(&self, node: usize) -> bool {
        self.driven[node]
    }

    /// Total lumped capacitance (fF) on each node: device gate caps, channel
    /// junction caps, explicit wire caps, and the floor.
    #[must_use]
    pub(crate) fn node_capacitances(&self) -> Vec<f64> {
        let mut caps = self.extra_cap.clone();
        for d in &self.devices {
            caps[d.gate] += d.gate_capacitance(&self.params);
            caps[d.a] += d.junction_capacitance(&self.params);
            caps[d.b] += d.junction_capacitance(&self.params);
        }
        for c in &mut caps {
            *c = c.max(MIN_NODE_CAP);
        }
        caps
    }

    // ---- Gate builders -------------------------------------------------

    /// Adds a static CMOS inverter; returns its output node.
    ///
    /// `size` multiplies the unit widths ([`UNIT_NMOS_WIDTH`], P/N ratio
    /// [`P_TO_N_RATIO`]).
    pub fn inverter(&mut self, input: Node, size: f64) -> Node {
        let out = self.node();
        self.inverter_into(input, out, size);
        out
    }

    /// Adds an inverter between existing nodes (for feedback loops).
    pub fn inverter_into(&mut self, input: Node, output: Node, size: f64) {
        let wn = UNIT_NMOS_WIDTH * size;
        let wp = wn * P_TO_N_RATIO;
        let (gnd, vdd) = (self.gnd(), self.vdd());
        self.add_device(Mosfet::new(MosfetKind::Nmos, wn, output.0, gnd.0, input.0));
        self.add_device(Mosfet::new(MosfetKind::Pmos, wp, output.0, vdd.0, input.0));
    }

    /// Adds an `n`-input static CMOS NAND gate; returns the output node.
    ///
    /// The NMOS stack is up-sized by the stack height (standard practice, and
    /// what makes the Appendix A NAND4→NAND5 pair meaningful); the PMOS
    /// devices are parallel and unit-like.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn nand(&mut self, inputs: &[Node], size: f64) -> Node {
        assert!(!inputs.is_empty(), "NAND needs at least one input");
        let out = self.node();
        let stack = inputs.len() as f64;
        let wn = UNIT_NMOS_WIDTH * size * stack;
        let wp = UNIT_NMOS_WIDTH * size * P_TO_N_RATIO;
        let (gnd, vdd) = (self.gnd(), self.vdd());
        // Series NMOS chain from output to ground.
        let mut upper = out;
        for (i, &inp) in inputs.iter().enumerate() {
            let lower = if i + 1 == inputs.len() {
                gnd
            } else {
                self.node()
            };
            self.add_device(Mosfet::new(MosfetKind::Nmos, wn, upper.0, lower.0, inp.0));
            upper = lower;
        }
        // Parallel PMOS pull-ups.
        for &inp in inputs {
            self.add_device(Mosfet::new(MosfetKind::Pmos, wp, out.0, vdd.0, inp.0));
        }
        out
    }

    /// Adds a transmission gate between `a` and `b`, controlled by `clk`
    /// (NMOS gate) and `clkb` (PMOS gate).
    pub fn transmission_gate(&mut self, a: Node, b: Node, clk: Node, clkb: Node, size: f64) {
        let wn = UNIT_NMOS_WIDTH * size;
        let wp = wn * P_TO_N_RATIO;
        self.add_device(Mosfet::new(MosfetKind::Nmos, wn, a.0, b.0, clk.0));
        self.add_device(Mosfet::new(MosfetKind::Pmos, wp, a.0, b.0, clkb.0));
    }

    /// Adds a chain of `stages` inverters after `input`; returns the final
    /// output. Used to shape stimulus edges: the paper buffers both clock
    /// and data through six inverters (Figure 3).
    pub fn buffer_chain(&mut self, input: Node, stages: usize, size: f64) -> Node {
        let mut cur = input;
        for _ in 0..stages {
            cur = self.inverter(cur, size);
        }
        cur
    }

    /// Loads `node` with the gate capacitance of `count` unit inverters of
    /// the given size (fanout loading, as in the FO4 measurement).
    pub fn fanout_load(&mut self, node: Node, count: usize, size: f64) {
        for _ in 0..count {
            let out = self.node();
            self.inverter_into(node, out, size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nl() -> Netlist {
        Netlist::new(DeviceParams::at_100nm())
    }

    #[test]
    fn rails_are_driven() {
        let n = nl();
        assert!(n.is_driven(0));
        assert!(n.is_driven(1));
        assert_eq!(n.node_count(), 2);
    }

    #[test]
    fn inverter_has_two_devices() {
        let mut n = nl();
        let a = n.node();
        let _ = n.inverter(a, 1.0);
        assert_eq!(n.device_count(), 2);
    }

    #[test]
    fn nand_device_count_and_internal_nodes() {
        let mut n = nl();
        let ins: Vec<Node> = (0..4).map(|_| n.node()).collect();
        let before_nodes = n.node_count();
        let _ = n.nand(&ins, 1.0);
        // 4 series NMOS + 4 parallel PMOS.
        assert_eq!(n.device_count(), 8);
        // output + 3 internal stack nodes
        assert_eq!(n.node_count(), before_nodes + 4);
    }

    #[test]
    fn node_caps_include_gate_loading() {
        let mut n = nl();
        let a = n.node();
        let _ = n.inverter(a, 1.0);
        let caps = n.node_capacitances();
        // Input node carries NMOS+PMOS gate cap: (0.6 + 1.2) µm × 1.65 fF/µm.
        let expected = (UNIT_NMOS_WIDTH + UNIT_NMOS_WIDTH * P_TO_N_RATIO) * 1.65;
        assert!((caps[a.index()] - expected).abs() < 1e-9);
    }

    #[test]
    fn min_cap_floor_applies() {
        let mut n = nl();
        let lonely = n.node();
        let caps = n.node_capacitances();
        assert_eq!(caps[lonely.index()], MIN_NODE_CAP);
    }

    #[test]
    fn buffer_chain_allocates_stages() {
        let mut n = nl();
        let a = n.node();
        let out = n.buffer_chain(a, 6, 1.0);
        assert_eq!(n.device_count(), 12);
        assert_ne!(out.index(), a.index());
    }

    #[test]
    fn fanout_load_adds_gate_caps_only_to_target() {
        let mut n = nl();
        let a = n.node();
        let out = n.inverter(a, 1.0);
        let caps_before = n.node_capacitances()[out.index()];
        n.fanout_load(out, 4, 1.0);
        let caps_after = n.node_capacitances()[out.index()];
        assert!(caps_after > caps_before * 3.0);
    }

    #[test]
    #[should_panic(expected = "terminal out of range")]
    fn rejects_dangling_device() {
        let mut n = nl();
        n.add_device(Mosfet::new(MosfetKind::Nmos, 1.0, 0, 1, 99));
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn nand_rejects_empty_inputs() {
        let mut n = nl();
        let _ = n.nand(&[], 1.0);
    }
}
