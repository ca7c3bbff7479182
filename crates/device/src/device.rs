//! A quantum device: topology + calibration snapshot.

use crate::calibration::{
    Calibration, LinkCalibration, MachineProfile, QubitCalibration, GUADALUPE_PROFILE,
    LONDON_PROFILE, PARIS_PROFILE, ROME_PROFILE, TORONTO_PROFILE,
};
use crate::topology::{LinkId, Topology};
use std::fmt;

/// A NISQ machine model: coupling graph plus one calibration snapshot.
///
/// # Examples
///
/// ```
/// use device::Device;
/// let dev = Device::ibmq_guadalupe(42);
/// assert_eq!(dev.num_qubits(), 16);
/// assert!(dev.cnot_duration(0, 1).is_some());
/// assert!(dev.cnot_duration(0, 15).is_none()); // uncoupled
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    topology: Topology,
    calibration: Calibration,
    profile: MachineProfile,
    seed: u64,
}

impl Device {
    /// Builds a device from a topology and machine profile, generating the
    /// cycle-0 calibration from `seed`.
    pub fn new(topology: Topology, profile: MachineProfile, seed: u64) -> Self {
        let calibration = Calibration::generate(&topology, &profile, seed, 0);
        Device {
            topology,
            calibration,
            profile,
            seed,
        }
    }

    /// 16-qubit IBMQ-Guadalupe model.
    pub fn ibmq_guadalupe(seed: u64) -> Self {
        Device::new(Topology::ibmq_guadalupe(), GUADALUPE_PROFILE, seed)
    }

    /// 27-qubit IBMQ-Paris model.
    pub fn ibmq_paris(seed: u64) -> Self {
        Device::new(Topology::ibmq_falcon27(), PARIS_PROFILE, seed)
    }

    /// 27-qubit IBMQ-Toronto model.
    pub fn ibmq_toronto(seed: u64) -> Self {
        Device::new(Topology::ibmq_falcon27(), TORONTO_PROFILE, seed)
    }

    /// 5-qubit IBMQ-Rome model (line).
    pub fn ibmq_rome(seed: u64) -> Self {
        Device::new(Topology::ibmq_rome(), ROME_PROFILE, seed)
    }

    /// 5-qubit IBMQ-London model (T shape).
    pub fn ibmq_london(seed: u64) -> Self {
        Device::new(Topology::ibmq_london(), LONDON_PROFILE, seed)
    }

    /// Hypothetical machine with all-to-all connectivity but Toronto-like
    /// error rates — the Fig. 3b comparator ("a machine with similar error
    /// rates but all-to-all connectivity").
    pub fn all_to_all(n: usize, seed: u64) -> Self {
        Device::new(Topology::all_to_all(n), TORONTO_PROFILE, seed)
    }

    /// The same machine re-calibrated at a different cycle: identical
    /// topology and profile, freshly drifted calibration values.
    pub fn at_calibration_cycle(&self, cycle: u64) -> Device {
        let calibration = Calibration::generate(&self.topology, &self.profile, self.seed, cycle);
        Device {
            topology: self.topology.clone(),
            calibration,
            profile: self.profile,
            seed: self.seed,
        }
    }

    /// A copy of the device with its qubit calibrations adjusted in place
    /// (ablation hook; see [`Calibration::adjust_qubits`]).
    pub fn with_adjusted_qubits<F: FnMut(&mut QubitCalibration)>(&self, f: F) -> Device {
        let mut out = self.clone();
        out.calibration.adjust_qubits(f);
        out
    }

    /// Machine name from the profile.
    pub fn name(&self) -> &'static str {
        self.profile.name
    }

    /// The coupling graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The active calibration snapshot.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The machine profile this device was generated from.
    pub fn profile(&self) -> &MachineProfile {
        &self.profile
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits()
    }

    /// Calibration of one qubit.
    pub fn qubit(&self, q: u32) -> &QubitCalibration {
        self.calibration.qubit(q)
    }

    /// Calibration of one link.
    pub fn link(&self, l: LinkId) -> &LinkCalibration {
        self.calibration.link(l)
    }

    /// CNOT duration between two qubits, `None` when uncoupled.
    pub fn cnot_duration(&self, a: u32, b: u32) -> Option<f64> {
        self.topology
            .link_between(a, b)
            .map(|l| self.calibration.link(l).dur_ns)
    }

    /// CNOT error between two qubits, `None` when uncoupled.
    pub fn cnot_error(&self, a: u32, b: u32) -> Option<f64> {
        self.topology
            .link_between(a, b)
            .map(|l| self.calibration.link(l).err_2q)
    }

    /// Duration of a gate on this device in nanoseconds.
    ///
    /// RZ is virtual (0 ns, per McKay et al.); all other single-qubit gates
    /// cost one or two physical pulses. Two-qubit gates take the link's
    /// CNOT duration (SWAP = 3 CNOTs). Unconnected operands fall back to
    /// the profile mean (the scheduler only queries routed circuits, where
    /// this cannot happen).
    pub fn gate_duration(&self, gate: qcirc::Gate, qubits: &[u32]) -> f64 {
        use qcirc::Gate;
        match gate {
            Gate::RZ(_)
            | Gate::P(_)
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::I => 0.0,
            Gate::X | Gate::Y | Gate::SX | Gate::SXdg | Gate::RX(_) => self.calibration.sq_dur_ns,
            // H, RY, U decompose into two physical pulses (RZ–SX–RZ / RZ–SX–RZ–SX–RZ).
            Gate::H | Gate::RY(_) => self.calibration.sq_dur_ns,
            Gate::U(..) => 2.0 * self.calibration.sq_dur_ns,
            Gate::CX | Gate::CZ => self
                .cnot_duration(qubits[0], qubits[1])
                .unwrap_or(self.profile.cnot_dur_ns_mean),
            Gate::Swap => {
                3.0 * self
                    .cnot_duration(qubits[0], qubits[1])
                    .unwrap_or(self.profile.cnot_dur_ns_mean)
            }
        }
    }

    /// Readout duration in nanoseconds.
    pub fn readout_duration(&self) -> f64 {
        self.calibration.meas_dur_ns
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} qubits, {} links, calibration cycle {})",
            self.profile.name,
            self.topology.num_qubits(),
            self.topology.num_links(),
            self.calibration.cycle
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_sizes() {
        assert_eq!(Device::ibmq_guadalupe(1).num_qubits(), 16);
        assert_eq!(Device::ibmq_paris(1).num_qubits(), 27);
        assert_eq!(Device::ibmq_toronto(1).num_qubits(), 27);
        assert_eq!(Device::ibmq_rome(1).num_qubits(), 5);
        assert_eq!(Device::ibmq_london(1).num_qubits(), 5);
        assert_eq!(Device::all_to_all(6, 1).topology().num_links(), 15);
    }

    #[test]
    fn recalibration_changes_values_not_structure() {
        let d0 = Device::ibmq_toronto(9);
        let d1 = d0.at_calibration_cycle(1);
        assert_eq!(d0.topology(), d1.topology());
        assert_ne!(d0.calibration(), d1.calibration());
        assert_eq!(d1.calibration().cycle, 1);
        // Cycle 0 reproduces the original.
        let d0b = d0.at_calibration_cycle(0);
        assert_eq!(d0.calibration(), d0b.calibration());
    }

    #[test]
    fn rz_is_free_and_cnot_is_slow() {
        let d = Device::ibmq_toronto(3);
        assert_eq!(d.gate_duration(qcirc::Gate::RZ(0.3), &[0]), 0.0);
        let sq = d.gate_duration(qcirc::Gate::X, &[0]);
        assert!((sq - 35.0).abs() < 1e-9);
        let cx = d.gate_duration(qcirc::Gate::CX, &[0, 1]);
        assert!(cx > 5.0 * sq, "CNOT ≫ single-qubit latency ({cx} vs {sq})");
    }

    #[test]
    fn swap_is_three_cnots() {
        let d = Device::ibmq_guadalupe(3);
        let cx = d.gate_duration(qcirc::Gate::CX, &[0, 1]);
        let sw = d.gate_duration(qcirc::Gate::Swap, &[0, 1]);
        assert!((sw - 3.0 * cx).abs() < 1e-9);
    }

    #[test]
    fn cnot_latency_heterogeneous() {
        // §2.4: "CNOT gates on the same hardware incur different latencies".
        let d = Device::ibmq_toronto(5);
        let durs: Vec<f64> = d
            .topology()
            .edges()
            .iter()
            .map(|&(a, b)| d.cnot_duration(a, b).unwrap())
            .collect();
        let min = durs.iter().cloned().fold(f64::MAX, f64::min);
        let max = durs.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.2, "expected latency spread, got {min}..{max}");
    }

    #[test]
    fn display_mentions_name_and_cycle() {
        let d = Device::ibmq_paris(1).at_calibration_cycle(4);
        let s = d.to_string();
        assert!(s.contains("ibmq_paris") && s.contains("cycle 4"));
    }
}
