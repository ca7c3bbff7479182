//! Per-device calibration data: error rates, durations, coherence, and
//! crosstalk couplings.
//!
//! Real IBMQ backends publish calibration snapshots every cycle; error
//! rates and couplings drift between cycles (the paper's Fig. 6 shows DD
//! helping in one cycle and hurting in the next for the same qubit–link
//! pair). We model a calibration snapshot as a seeded random draw around a
//! per-machine [`MachineProfile`], so "recalibrating" with a new cycle
//! index reproduces that drift.

use crate::seeds::SeedSpawner;
use crate::topology::{LinkId, Topology};
use rand::Rng;

/// Average error characteristics of a machine (Table 3 of the paper, plus
/// latency and crosstalk scales inferred from §2 and §3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Machine name.
    pub name: &'static str,
    /// Mean CNOT error (probability, e.g. 0.0127 for 1.27%).
    pub cnot_err_mean: f64,
    /// Mean readout error (probability).
    pub meas_err_mean: f64,
    /// Mean single-qubit gate error (probability per physical pulse).
    pub sq_err_mean: f64,
    /// Mean T1 in microseconds.
    pub t1_us: f64,
    /// Mean T2 in microseconds.
    pub t2_us: f64,
    /// Mean CNOT duration in nanoseconds.
    pub cnot_dur_ns_mean: f64,
    /// Hard cap on sampled CNOT durations (the paper quotes a 1.95× worst
    /// case on Toronto).
    pub cnot_dur_ns_max: f64,
    /// Single-qubit pulse (X/SX) duration in nanoseconds.
    pub sq_dur_ns: f64,
    /// Readout duration in nanoseconds.
    pub meas_dur_ns: f64,
    /// Scale of the crosstalk-induced dephasing rate on spectator qubits
    /// adjacent to an active CNOT link (rad/µs).
    pub crosstalk_scale: f64,
    /// Std-dev of the per-qubit quasi-static background detuning (rad/µs).
    pub static_dephasing_sigma: f64,
    /// Std-dev of the Ornstein–Uhlenbeck fluctuating detuning (rad/µs).
    pub ou_sigma: f64,
    /// Correlation time of the OU detuning process (ns).
    pub ou_tau_ns: f64,
}

/// IBMQ-Guadalupe (16 qubits, newest machine in the study: faster gates,
/// lower error, per §6.3).
pub const GUADALUPE_PROFILE: MachineProfile = MachineProfile {
    name: "ibmq_guadalupe",
    cnot_err_mean: 0.0127,
    meas_err_mean: 0.0186,
    sq_err_mean: 0.00018,
    t1_us: 71.7,
    t2_us: 85.5,
    cnot_dur_ns_mean: 340.0,
    cnot_dur_ns_max: 620.0,
    sq_dur_ns: 35.0,
    meas_dur_ns: 1500.0,
    crosstalk_scale: 0.16,
    static_dephasing_sigma: 0.014,
    ou_sigma: 0.07,
    ou_tau_ns: 900.0,
};

/// IBMQ-Paris (27 qubits).
pub const PARIS_PROFILE: MachineProfile = MachineProfile {
    name: "ibmq_paris",
    cnot_err_mean: 0.0128,
    meas_err_mean: 0.0247,
    sq_err_mean: 0.00022,
    t1_us: 80.8,
    t2_us: 83.4,
    cnot_dur_ns_mean: 430.0,
    cnot_dur_ns_max: 830.0,
    sq_dur_ns: 35.0,
    meas_dur_ns: 3000.0,
    crosstalk_scale: 0.20,
    static_dephasing_sigma: 0.014,
    ou_sigma: 0.05,
    ou_tau_ns: 1200.0,
};

/// IBMQ-Toronto (27 qubits; highest readout error, longest CNOTs).
pub const TORONTO_PROFILE: MachineProfile = MachineProfile {
    name: "ibmq_toronto",
    cnot_err_mean: 0.0152,
    meas_err_mean: 0.0442,
    sq_err_mean: 0.00024,
    t1_us: 105.0,
    t2_us: 114.0,
    cnot_dur_ns_mean: 440.0,
    cnot_dur_ns_max: 860.0,
    sq_dur_ns: 35.0,
    meas_dur_ns: 3200.0,
    crosstalk_scale: 0.20,
    static_dephasing_sigma: 0.012,
    ou_sigma: 0.045,
    ou_tau_ns: 1200.0,
};

/// IBMQ-Rome (5-qubit line; Table 1 platform).
pub const ROME_PROFILE: MachineProfile = MachineProfile {
    name: "ibmq_rome",
    cnot_err_mean: 0.0145,
    meas_err_mean: 0.025,
    sq_err_mean: 0.00022,
    t1_us: 55.0,
    t2_us: 60.0,
    cnot_dur_ns_mean: 450.0,
    cnot_dur_ns_max: 820.0,
    sq_dur_ns: 35.0,
    meas_dur_ns: 3500.0,
    crosstalk_scale: 0.20,
    static_dephasing_sigma: 0.02,
    ou_sigma: 0.055,
    ou_tau_ns: 1900.0,
};

/// IBMQ-London (5-qubit T; §3.1–3.2 characterization platform).
pub const LONDON_PROFILE: MachineProfile = MachineProfile {
    name: "ibmq_london",
    cnot_err_mean: 0.016,
    meas_err_mean: 0.03,
    sq_err_mean: 0.00025,
    t1_us: 50.0,
    t2_us: 55.0,
    cnot_dur_ns_mean: 460.0,
    cnot_dur_ns_max: 840.0,
    sq_dur_ns: 35.0,
    meas_dur_ns: 3500.0,
    crosstalk_scale: 0.22,
    static_dephasing_sigma: 0.30,
    ou_sigma: 0.30,
    ou_tau_ns: 1500.0,
};

/// Calibration of one physical qubit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitCalibration {
    /// Relaxation time (µs).
    pub t1_us: f64,
    /// Dephasing time (µs).
    pub t2_us: f64,
    /// Depolarizing probability per single-qubit physical pulse.
    pub err_1q: f64,
    /// Readout bit-flip probability.
    pub err_readout: f64,
    /// Std-dev of the quasi-static detuning drawn per trajectory (rad/µs).
    pub static_sigma: f64,
    /// Std-dev of the OU fluctuating detuning (rad/µs).
    pub ou_sigma: f64,
    /// OU correlation time (ns).
    pub ou_tau_ns: f64,
}

/// Calibration of one coupling link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCalibration {
    /// Depolarizing probability per CNOT.
    pub err_2q: f64,
    /// CNOT duration (ns). Heterogeneous across links — a key source of
    /// idle time (§2.4).
    pub dur_ns: f64,
}

/// One calibration snapshot of a device.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Calibration-cycle index this snapshot was generated for.
    pub cycle: u64,
    qubits: Vec<QubitCalibration>,
    links: Vec<LinkCalibration>,
    /// Dense (qubit × link) crosstalk dephasing rates in rad/µs; signed.
    /// `chi[q][l]` is the detuning induced on spectator `q` while link `l`
    /// executes a CNOT. Mostly zero; non-zero where the pair couples.
    chi: Vec<Vec<f64>>,
    /// Single-qubit pulse duration (ns), uniform across the machine.
    pub sq_dur_ns: f64,
    /// Readout duration (ns).
    pub meas_dur_ns: f64,
}

impl Calibration {
    /// Generates a calibration snapshot for `cycle` by a seeded draw around
    /// the machine profile.
    ///
    /// Heterogeneity choices follow the paper's characterization sections:
    /// per-qubit 1q errors and per-link CNOT errors/durations are lognormal
    /// around the profile means; crosstalk couples every spectator adjacent
    /// to a link strongly, next-nearest spectators weakly and a few random
    /// long-range pairs moderately (§3.3 observes non-local pairs).
    pub fn generate(topology: &Topology, profile: &MachineProfile, seed: u64, cycle: u64) -> Self {
        let spawner = SeedSpawner::new(seed);
        let mut rng = SeedSpawner::new(spawner.derive(cycle.wrapping_add(1))).rng();
        let n = topology.num_qubits();

        let lognormal = |rng: &mut rand::rngs::StdRng, mean: f64, sigma_log: f64| -> f64 {
            // Median = mean·e^{-σ²/2} so that the distribution mean ≈ mean.
            let z: f64 = {
                // Box–Muller from two uniforms (rand's StandardNormal lives
                // in rand_distr, which we avoid depending on).
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            };
            mean * (-sigma_log * sigma_log / 2.0 + sigma_log * z).exp()
        };

        let qubits: Vec<QubitCalibration> = (0..n)
            .map(|_| QubitCalibration {
                t1_us: lognormal(&mut rng, profile.t1_us, 0.25).max(10.0),
                t2_us: lognormal(&mut rng, profile.t2_us, 0.25).max(10.0),
                err_1q: lognormal(&mut rng, profile.sq_err_mean, 0.5).clamp(3e-5, 1.2e-3),
                err_readout: lognormal(&mut rng, profile.meas_err_mean, 0.4).clamp(2e-3, 0.25),
                static_sigma: lognormal(&mut rng, profile.static_dephasing_sigma, 0.5)
                    .clamp(0.005, 0.5),
                ou_sigma: lognormal(&mut rng, profile.ou_sigma, 0.4).clamp(0.01, 0.8),
                ou_tau_ns: lognormal(&mut rng, profile.ou_tau_ns, 0.3).clamp(300.0, 8000.0),
            })
            .collect();

        let links: Vec<LinkCalibration> = topology
            .edges()
            .iter()
            .map(|_| LinkCalibration {
                err_2q: lognormal(&mut rng, profile.cnot_err_mean, 0.45).clamp(2e-3, 0.12),
                dur_ns: lognormal(&mut rng, profile.cnot_dur_ns_mean, 0.28)
                    .clamp(0.55 * profile.cnot_dur_ns_mean, profile.cnot_dur_ns_max),
            })
            .collect();

        let mut chi = vec![vec![0.0; topology.num_links()]; n];
        for q in 0..n as u32 {
            for (li, &(a, b)) in topology.edges().iter().enumerate() {
                if a == q || b == q {
                    continue; // a qubit is never a spectator of its own link
                }
                let d = topology
                    .distance(q, a)
                    .into_iter()
                    .chain(topology.distance(q, b))
                    .min()
                    .unwrap_or(u32::MAX);
                let magnitude = match d {
                    1 => {
                        // Directly adjacent spectator: strong coupling.
                        lognormal(&mut rng, profile.crosstalk_scale, 0.8)
                    }
                    2 if rng.gen::<f64>() < 0.5 => {
                        lognormal(&mut rng, 0.35 * profile.crosstalk_scale, 0.7)
                    }
                    _ if rng.gen::<f64>() < 0.04 => {
                        // Rare long-range pair (§3.3: "idling errors exist
                        // between qubit-link pairs that may not be present
                        // in the same on-chip neighborhood").
                        lognormal(&mut rng, 0.5 * profile.crosstalk_scale, 0.6)
                    }
                    _ => 0.0,
                };
                if magnitude > 0.0 {
                    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    chi[q as usize][li] = sign * magnitude;
                }
            }
        }

        Calibration {
            cycle,
            qubits,
            links,
            chi,
            sq_dur_ns: profile.sq_dur_ns,
            meas_dur_ns: profile.meas_dur_ns,
        }
    }

    /// Calibration of qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn qubit(&self, q: u32) -> &QubitCalibration {
        &self.qubits[q as usize]
    }

    /// Calibration of a link.
    ///
    /// # Panics
    ///
    /// Panics when the link id is out of range.
    pub fn link(&self, l: LinkId) -> &LinkCalibration {
        &self.links[l.index()]
    }

    /// All qubit calibrations, indexed by qubit.
    pub fn qubits(&self) -> &[QubitCalibration] {
        &self.qubits
    }

    /// All link calibrations, indexed by [`LinkId`].
    pub fn links(&self) -> &[LinkCalibration] {
        &self.links
    }

    /// Signed crosstalk dephasing rate (rad/µs) induced on spectator `q`
    /// while `link` executes a CNOT; 0 when uncoupled.
    pub fn crosstalk(&self, q: u32, link: LinkId) -> f64 {
        self.chi[q as usize][link.index()]
    }

    /// Non-zero crosstalk couplings onto qubit `q` as `(link, rate)` pairs.
    pub fn crosstalk_on(&self, q: u32) -> Vec<(LinkId, f64)> {
        self.chi[q as usize]
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0.0)
            .map(|(i, &c)| (LinkId(i as u32), c))
            .collect()
    }

    /// Applies an in-place adjustment to every qubit calibration — the
    /// hook behind ablation experiments (e.g. sweeping the OU correlation
    /// time or zeroing crosstalk) without regenerating the snapshot.
    pub fn adjust_qubits<F: FnMut(&mut QubitCalibration)>(&mut self, mut f: F) {
        for q in &mut self.qubits {
            f(q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal(cycle: u64) -> (Topology, Calibration) {
        let t = Topology::ibmq_guadalupe();
        let c = Calibration::generate(&t, &GUADALUPE_PROFILE, 1234, cycle);
        (t, c)
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, a) = cal(0);
        let (_, b) = cal(0);
        assert_eq!(a, b);
    }

    #[test]
    fn cycles_drift() {
        let (_, a) = cal(0);
        let (_, b) = cal(1);
        assert_ne!(a, b);
        // But structure is identical.
        assert_eq!(a.qubits().len(), b.qubits().len());
        assert_eq!(a.links().len(), b.links().len());
    }

    #[test]
    fn values_in_physical_ranges() {
        let (t, c) = cal(3);
        for q in c.qubits() {
            assert!(q.t1_us > 10.0 && q.t1_us < 400.0);
            assert!(q.t2_us > 10.0 && q.t2_us < 400.0);
            assert!(q.err_1q >= 5e-5 && q.err_1q <= 8e-3);
            assert!(q.err_readout >= 2e-3 && q.err_readout <= 0.25);
            assert!(q.ou_tau_ns >= 300.0);
        }
        for l in c.links() {
            assert!(l.err_2q >= 2e-3 && l.err_2q <= 0.12);
            assert!(l.dur_ns <= GUADALUPE_PROFILE.cnot_dur_ns_max);
            assert!(l.dur_ns >= 0.55 * GUADALUPE_PROFILE.cnot_dur_ns_mean);
        }
        let _ = t;
    }

    #[test]
    fn link_means_near_profile() {
        // Averaged over many links/cycles, the draw tracks the profile.
        let t = Topology::ibmq_falcon27();
        let mut errs = Vec::new();
        for cycle in 0..20 {
            let c = Calibration::generate(&t, &TORONTO_PROFILE, 7, cycle);
            let links = c.links();
            errs.push(links.iter().map(|l| l.err_2q).sum::<f64>() / links.len() as f64);
        }
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(
            (mean - TORONTO_PROFILE.cnot_err_mean).abs() < 0.006,
            "mean {mean}"
        );
    }

    #[test]
    fn crosstalk_never_couples_own_link() {
        let (t, c) = cal(0);
        for (li, &(a, b)) in t.edges().iter().enumerate() {
            assert_eq!(c.crosstalk(a, LinkId(li as u32)), 0.0);
            assert_eq!(c.crosstalk(b, LinkId(li as u32)), 0.0);
        }
    }

    #[test]
    fn adjacent_spectators_strongly_coupled() {
        let (t, c) = cal(0);
        // Every link has at least one adjacent spectator with |chi| > 0.
        let mut coupled_links = 0;
        for li in 0..t.num_links() {
            let l = LinkId(li as u32);
            let (a, b) = t.link_endpoints(l);
            let spectators: Vec<u32> = (0..t.num_qubits() as u32)
                .filter(|&q| q != a && q != b)
                .filter(|&q| {
                    t.distance(q, a)
                        .unwrap_or(99)
                        .min(t.distance(q, b).unwrap_or(99))
                        == 1
                })
                .collect();
            if spectators.iter().any(|&q| c.crosstalk(q, l).abs() > 0.0) {
                coupled_links += 1;
            }
        }
        assert!(coupled_links >= t.num_links() - 1);
    }

    #[test]
    fn some_long_range_coupling_exists_somewhere() {
        // Over several seeds, the rare non-local couplings do appear.
        let t = Topology::ibmq_falcon27();
        let mut found = false;
        for seed in 0..5 {
            let c = Calibration::generate(&t, &TORONTO_PROFILE, seed, 0);
            'outer: for q in 0..27u32 {
                for (l, _) in c.crosstalk_on(q) {
                    let (a, b) = t.link_endpoints(l);
                    let d = t.distance(q, a).unwrap().min(t.distance(q, b).unwrap());
                    if d >= 3 {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "expected at least one long-range crosstalk pair");
    }

    #[test]
    fn crosstalk_signs_mixed() {
        let (_, c) = cal(0);
        let mut pos = 0;
        let mut neg = 0;
        for q in 0..16u32 {
            for (_, chi) in c.crosstalk_on(q) {
                if chi > 0.0 {
                    pos += 1;
                } else {
                    neg += 1;
                }
            }
        }
        assert!(pos > 0 && neg > 0);
    }
}
