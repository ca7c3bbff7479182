//! Extended stabilizer simulation by Heisenberg-picture Pauli propagation.
//!
//! Plays the role of Qiskit's *extended stabilizer* simulator in the ADAPT
//! paper (§4.2.3): computing the ideal output of a Seeded Clifford Decoy
//! Circuit — a Clifford circuit containing a handful of non-Clifford
//! **diagonal** rotations (the SDC seeds are RZ gates) — without dense
//! 2^n state storage.
//!
//! The method: for each measured-qubit parity operator `Z_T`, back-
//! propagate it through the circuit. Clifford gates map a Pauli to a
//! single Pauli; a non-Clifford `RZ(θ)` splits any anticommuting Pauli
//! into two weighted Paulis (`X → cosθ·X − sinθ·Y` about the Z axis), so
//! a circuit with `s` seeds yields at most `2^s` terms per observable —
//! the same stabilizer-rank bound as low-rank CH decompositions, but with
//! no global-phase bookkeeping to get wrong. Expectations `⟨0|P|0⟩` are
//! then trivial, and the output distribution over `m` measured qubits is
//! recovered from the `2^m` parity expectations by a Walsh–Hadamard
//! transform.

use qcirc::{Circuit, Gate, OpKind};
use std::collections::BTreeMap;
use std::f64::consts::FRAC_PI_2;

/// A signed Pauli string `(-1)^{r} · i^{k} · Π X^{x_j} Z^{z_j}` with the
/// phase folded into a single power of `i` (`phase` ∈ Z₄).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pauli {
    x: Vec<u64>,
    z: Vec<u64>,
    /// Exponent of `i` (mod 4).
    phase: u8,
}

impl Pauli {
    /// The identity Pauli over `n` qubits.
    pub fn identity(n: usize) -> Self {
        let words = n.div_ceil(64);
        Pauli {
            x: vec![0; words],
            z: vec![0; words],
            phase: 0,
        }
    }

    /// `Z_T`: Z on every qubit in `qubits`.
    pub fn z_on(n: usize, qubits: &[u32]) -> Self {
        let mut p = Pauli::identity(n);
        for &q in qubits {
            p.set_z(q as usize, true);
        }
        p
    }

    fn get(v: &[u64], i: usize) -> bool {
        v[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(v: &mut [u64], i: usize, on: bool) {
        if on {
            v[i / 64] |= 1 << (i % 64);
        } else {
            v[i / 64] &= !(1 << (i % 64));
        }
    }

    /// X component on qubit `i`.
    pub fn x_bit(&self, i: usize) -> bool {
        Self::get(&self.x, i)
    }

    /// Z component on qubit `i`.
    pub fn z_bit(&self, i: usize) -> bool {
        Self::get(&self.z, i)
    }

    fn set_x(&mut self, i: usize, on: bool) {
        Self::set(&mut self.x, i, on);
    }

    fn set_z(&mut self, i: usize, on: bool) {
        Self::set(&mut self.z, i, on);
    }

    /// Phase exponent of `i` (mod 4).
    pub fn phase(&self) -> u8 {
        self.phase
    }

    fn add_phase(&mut self, k: i32) {
        self.phase = ((self.phase as i32 + k).rem_euclid(4)) as u8;
    }

    /// True when the string is diagonal (no X component anywhere).
    pub fn is_diagonal(&self) -> bool {
        self.x.iter().all(|&w| w == 0)
    }

    /// `⟨0…0| P |0…0⟩`: 0 unless diagonal; otherwise `i^{phase}` (which is
    /// ±1 for any Hermitian propagated observable).
    pub fn vacuum_expectation(&self) -> f64 {
        if !self.is_diagonal() {
            return 0.0;
        }
        match self.phase {
            0 => 1.0,
            2 => -1.0,
            _ => 0.0, // imaginary phases cancel in Hermitian combinations
        }
    }

    /// Applies the *inverse-direction* conjugation `P ← U† P U` for a
    /// Clifford gate `U` — wait, backward propagation through a circuit
    /// `U_k … U_1` transforms the observable as `P ← U_k† … (P) … U_k`
    /// gate by gate from the END of the circuit; each step conjugates by
    /// one gate: `P ← U† P U`.
    ///
    /// # Panics
    ///
    /// Panics when the gate is not Clifford (callers branch RZ explicitly).
    pub fn conjugate_by(&mut self, gate: Gate, qubits: &[usize]) {
        match gate {
            Gate::I => {}
            Gate::X => {
                // X† Z X = −Z.
                if self.z_bit(qubits[0]) {
                    self.add_phase(2);
                }
            }
            Gate::Z => {
                if self.x_bit(qubits[0]) {
                    self.add_phase(2);
                }
            }
            Gate::Y => {
                if self.x_bit(qubits[0]) ^ self.z_bit(qubits[0]) {
                    self.add_phase(2);
                }
            }
            Gate::H => {
                let q = qubits[0];
                let (x, z) = (self.x_bit(q), self.z_bit(q));
                // H X H = Z, H Z H = X, H Y H = −Y.
                if x && z {
                    self.add_phase(2);
                }
                self.set_x(q, z);
                self.set_z(q, x);
            }
            Gate::S => {
                // S† X S = −Y = i³·XZ and S† (XZ) S = i³·X: the Z bit
                // toggles and the phase gains i³ whenever X is present.
                let q = qubits[0];
                if self.x_bit(q) {
                    let z = self.z_bit(q);
                    self.set_z(q, !z);
                    self.add_phase(3);
                }
            }
            Gate::Sdg => {
                // S X S† = Y = i·XZ: same toggle with phase i.
                let q = qubits[0];
                if self.x_bit(q) {
                    let z = self.z_bit(q);
                    self.set_z(q, !z);
                    self.add_phase(1);
                }
            }
            Gate::SX => {
                // SX = H S H ⇒ conjugation composes.
                self.conjugate_by(Gate::H, qubits);
                self.conjugate_by(Gate::S, qubits);
                self.conjugate_by(Gate::H, qubits);
            }
            Gate::SXdg => {
                self.conjugate_by(Gate::H, qubits);
                self.conjugate_by(Gate::Sdg, qubits);
                self.conjugate_by(Gate::H, qubits);
            }
            Gate::CX => {
                let (c, t) = (qubits[0], qubits[1]);
                // CX† X_c CX = X_c X_t; CX† Z_t CX = Z_c Z_t. In the
                // literal X^x Z^z encoding (unlike the tableau's
                // Y-convention) the reordering to canonical form never
                // crosses an X with a Z of the same qubit, so no phase.
                let (xc, zc) = (self.x_bit(c), self.z_bit(c));
                let (xt, zt) = (self.x_bit(t), self.z_bit(t));
                self.set_x(t, xt ^ xc);
                self.set_z(c, zc ^ zt);
                let _ = (zt, xt);
            }
            Gate::CZ => {
                let (a, b) = (qubits[0], qubits[1]);
                self.conjugate_by(Gate::H, &[b]);
                self.conjugate_by(Gate::CX, &[a, b]);
                self.conjugate_by(Gate::H, &[b]);
            }
            Gate::Swap => {
                let (a, b) = (qubits[0], qubits[1]);
                self.conjugate_by(Gate::CX, &[a, b]);
                self.conjugate_by(Gate::CX, &[b, a]);
                self.conjugate_by(Gate::CX, &[a, b]);
            }
            g => panic!("conjugate_by called with non-Clifford gate {g}"),
        }
    }
}

/// A weighted sum of Pauli strings (the propagated observable).
#[derive(Debug, Clone)]
pub struct PauliSum {
    n: usize,
    terms: BTreeMap<(Vec<u64>, Vec<u64>, u8), f64>,
}

impl PauliSum {
    /// A single Pauli with unit weight.
    pub fn from_pauli(n: usize, p: Pauli) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert((p.x, p.z, p.phase), 1.0);
        PauliSum { n, terms }
    }

    /// Number of live terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms remain.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    fn insert(&mut self, p: Pauli, w: f64) {
        if w.abs() < 1e-15 {
            return;
        }
        // Fold i^2 into the weight so ±P merge.
        let (key_phase, weight) = match p.phase {
            0 => (0, w),
            2 => (0, -w),
            1 => (1, w),
            3 => (1, -w),
            _ => unreachable!("phase is mod 4"),
        };
        let key = (p.x, p.z, key_phase);
        let entry = self.terms.entry(key.clone()).or_insert(0.0);
        *entry += weight;
        if entry.abs() < 1e-15 {
            self.terms.remove(&key);
        }
    }

    /// Conjugates every term by a Clifford gate.
    pub fn conjugate_clifford(&mut self, gate: Gate, qubits: &[usize]) {
        let old = std::mem::take(&mut self.terms);
        for ((x, z, phase), w) in old {
            let mut p = Pauli { x, z, phase };
            p.conjugate_by(gate, qubits);
            self.insert(p, w);
        }
    }

    /// Conjugates by `RZ(θ)` on qubit `q`: terms commuting with `Z_q`
    /// pass through; anticommuting terms rotate about Z, branching in two.
    pub fn conjugate_rz(&mut self, theta: f64, q: usize) {
        let old = std::mem::take(&mut self.terms);
        for ((x, z, phase), w) in old {
            let p = Pauli { x, z, phase };
            if !p.x_bit(q) {
                self.insert(p, w);
                continue;
            }
            // RZ(θ)† X RZ(θ) = cosθ·X − sinθ·Y, and Y rotates likewise;
            // encoded: the rotated partner toggles the Z bit with an i
            // bookkeeping phase fixed by the dense-conjugation tests.
            let mut partner = p.clone();
            let had_z = p.z_bit(q);
            partner.set_z(q, !had_z);
            // X → X·cos + (iXZ)·sin·(−i)·…: Y = i·X·Z ⇒ ±Y carries i.
            if had_z {
                // Y → cosθ·Y + sinθ·X: partner is X, derived from Y = iXZ.
                partner.add_phase(3);
                self.insert(p, w * theta.cos());
                self.insert(partner, w * theta.sin());
            } else {
                // X → cosθ·X − sinθ·Y with Y = i·X·Z.
                partner.add_phase(1);
                self.insert(p, w * theta.cos());
                self.insert(partner, -w * theta.sin());
            }
        }
    }

    /// `⟨0…0| (sum) |0…0⟩`.
    pub fn vacuum_expectation(&self) -> f64 {
        self.terms
            .iter()
            .map(|((x, z, phase), w)| {
                let p = Pauli {
                    x: x.clone(),
                    z: z.clone(),
                    phase: *phase,
                };
                w * p.vacuum_expectation()
            })
            .sum()
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }
}

/// Error raised for gates the propagator cannot handle.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsupportedGate(pub Gate);

impl std::fmt::Display for UnsupportedGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "gate {} is neither Clifford nor a diagonal rotation",
            self.0
        )
    }
}

impl std::error::Error for UnsupportedGate {}

fn is_clifford_angle(theta: f64) -> bool {
    let r = theta.rem_euclid(FRAC_PI_2);
    r < 1e-9 || FRAC_PI_2 - r < 1e-9
}

/// Computes `⟨0…0| U† (observable) U |0…0⟩` for a circuit of Clifford
/// gates plus non-Clifford **diagonal** rotations (RZ/P at arbitrary
/// angles), by backward Pauli propagation.
///
/// Measurements, resets, delays and barriers are ignored (the observable
/// is evaluated on the pre-measurement state).
///
/// # Errors
///
/// Returns [`UnsupportedGate`] for non-Clifford, non-diagonal gates (e.g.
/// `RY(0.3)`); run such circuits through the transpiler first.
pub fn expectation(circuit: &Circuit, observable: Pauli) -> Result<f64, UnsupportedGate> {
    let mut sum = PauliSum::from_pauli(circuit.num_qubits(), observable);
    for instr in circuit.iter().rev() {
        let OpKind::Gate(g) = &instr.kind else {
            continue;
        };
        let qs: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
        match g {
            Gate::RZ(t) | Gate::P(t) if !is_clifford_angle(*t) => {
                // P(θ) = RZ(θ) up to global phase, which cancels in
                // conjugation.
                sum.conjugate_rz(*t, qs[0]);
            }
            Gate::T => sum.conjugate_rz(std::f64::consts::FRAC_PI_4, qs[0]),
            Gate::Tdg => sum.conjugate_rz(-std::f64::consts::FRAC_PI_4, qs[0]),
            Gate::RZ(t) | Gate::P(t) => {
                // Clifford angle: apply as the exact named gate.
                let quarters = ((*t / FRAC_PI_2).round() as i64).rem_euclid(4);
                match quarters {
                    0 => {}
                    1 => sum.conjugate_clifford(Gate::S, &qs),
                    2 => sum.conjugate_clifford(Gate::Z, &qs),
                    3 => sum.conjugate_clifford(Gate::Sdg, &qs),
                    _ => unreachable!("rem_euclid(4)"),
                }
            }
            g if g.is_clifford() => sum.conjugate_clifford(*g, &qs),
            other => return Err(UnsupportedGate(*other)),
        }
    }
    Ok(sum.vacuum_expectation())
}

/// Exact output distribution over the circuit's measured qubits via
/// parity expectations + Walsh–Hadamard inversion:
/// `p(x) = 2^{−m} Σ_T (−1)^{x·T} ⟨Z_T⟩`.
///
/// Supports up to [`MAX_MEASURED`] measured qubits (the transform is
/// exponential in the *measured* count, not the register size — a
/// 100-qubit SDC measuring 12 qubits is fine).
///
/// # Errors
///
/// Returns [`UnsupportedGate`] for unsupported gates.
///
/// # Panics
///
/// Panics when more than [`MAX_MEASURED`] qubits are measured.
pub fn output_distribution(circuit: &Circuit) -> Result<BTreeMap<u64, f64>, UnsupportedGate> {
    // measured qubit -> clbit.
    let mut measured: Vec<(u32, usize)> = Vec::new();
    for instr in circuit.iter() {
        if let OpKind::Measure(c) = &instr.kind {
            measured.push((instr.qubits[0].index() as u32, c.index()));
        }
    }
    let m = measured.len();
    assert!(
        m <= MAX_MEASURED,
        "{m} measured qubits exceeds the 2^m parity transform limit"
    );
    let n = circuit.num_qubits();
    // Parity expectations E[T].
    let mut e = vec![0.0f64; 1 << m];
    for (t_idx, e_t) in e.iter_mut().enumerate() {
        let qubits: Vec<u32> = measured
            .iter()
            .enumerate()
            .filter(|(j, _)| t_idx >> j & 1 == 1)
            .map(|(_, &(q, _))| q)
            .collect();
        *e_t = expectation(circuit, Pauli::z_on(n, &qubits))?;
    }
    // p over measured-qubit patterns y (bit j of y = measured[j]).
    let mut dist = BTreeMap::new();
    let scale = 1.0 / (1u64 << m) as f64;
    for y in 0..(1u64 << m) {
        let mut p = 0.0;
        for (t_idx, &e_t) in e.iter().enumerate() {
            let parity = (y & t_idx as u64).count_ones() & 1;
            p += if parity == 1 { -e_t } else { e_t };
        }
        let p = p * scale;
        if p > 1e-12 {
            // Map to clbit pattern.
            let mut outcome = 0u64;
            for (j, &(_, c)) in measured.iter().enumerate() {
                if y >> j & 1 == 1 {
                    outcome |= 1 << c;
                }
            }
            *dist.entry(outcome).or_insert(0.0) += p;
        }
    }
    Ok(dist)
}

/// Upper bound on measured qubits for [`output_distribution`].
pub const MAX_MEASURED: usize = 20;

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::math::{Mat2, C64};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dense reference: conjugate a one-qubit Pauli by a gate and compare
    /// entry-wise against the bit-level rules.
    fn pauli1_matrix(p: &Pauli) -> Mat2 {
        let x = Gate::X.unitary1().unwrap();
        let z = Gate::Z.unitary1().unwrap();
        let mut m = Mat2::identity();
        if p.x_bit(0) {
            m = m * x;
        }
        if p.z_bit(0) {
            m = m * z;
        }
        let phase = C64::cis(std::f64::consts::FRAC_PI_2 * p.phase() as f64);
        m.scale(phase)
    }

    #[test]
    fn single_qubit_conjugation_matches_dense_algebra() {
        let gates = [
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::SX,
            Gate::SXdg,
        ];
        for g in gates {
            let u = g.unitary1().unwrap();
            for (x, z) in [(true, false), (false, true), (true, true)] {
                let mut p = Pauli::identity(1);
                p.set_x(0, x);
                p.set_z(0, z);
                let dense_before = pauli1_matrix(&p);
                let expected = u.dagger() * dense_before * u;
                p.conjugate_by(g, &[0]);
                let dense_after = pauli1_matrix(&p);
                assert!(
                    dense_after.approx_eq(&expected, 1e-9),
                    "{g:?} on (x={x},z={z}): got\n{dense_after}expected\n{expected}"
                );
            }
        }
    }

    /// Reference expectation via the dense simulator.
    fn dense_expectation(c: &Circuit, qubits: &[u32]) -> f64 {
        let sv = statevec::run_ideal(c).expect("dense");
        let probs = sv.probabilities();
        let mut e = 0.0;
        for (idx, p) in probs.iter().enumerate() {
            let parity = qubits.iter().map(|&q| (idx >> q & 1) as u32).sum::<u32>() & 1;
            e += if parity == 1 { -p } else { *p };
        }
        e
    }

    fn random_supported_circuit(n: usize, depth: usize, seeds: usize, rng_seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let mut c = Circuit::new(n);
        let cliffords = [
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::SX,
        ];
        let mut placed_seeds = 0;
        for d in 0..depth {
            if rng.gen::<f64>() < 0.3 && n >= 2 {
                let a = rng.gen_range(0..n as u32);
                let mut b = rng.gen_range(0..n as u32);
                while b == a {
                    b = rng.gen_range(0..n as u32);
                }
                if rng.gen::<bool>() {
                    c.cx(a, b);
                } else {
                    c.cz(a, b);
                }
            } else if placed_seeds < seeds && d > 2 && rng.gen::<f64>() < 0.25 {
                c.rz(rng.gen_range(0.1..1.4), rng.gen_range(0..n as u32));
                placed_seeds += 1;
            } else {
                let g = cliffords[rng.gen_range(0..cliffords.len())];
                c.gate(g, &[rng.gen_range(0..n as u32)]);
            }
        }
        c
    }

    #[test]
    fn clifford_expectations_match_dense() {
        for seed in 0..20 {
            let n = 2 + (seed as usize) % 4;
            let c = random_supported_circuit(n, 25, 0, seed);
            for _ in 0..3 {
                let mut rng = StdRng::seed_from_u64(seed * 7 + 1);
                let qs: Vec<u32> = (0..n as u32).filter(|_| rng.gen::<bool>()).collect();
                let e = expectation(&c, Pauli::z_on(n, &qs)).unwrap();
                let d = dense_expectation(&c, &qs);
                assert!((e - d).abs() < 1e-9, "seed {seed}, Z_{qs:?}: {e} vs {d}");
            }
        }
    }

    #[test]
    fn seeded_expectations_match_dense() {
        for seed in 0..20 {
            let n = 2 + (seed as usize) % 4;
            let c = random_supported_circuit(n, 30, 3, 100 + seed);
            let qs: Vec<u32> = (0..n as u32).collect();
            let e = expectation(&c, Pauli::z_on(n, &qs)).unwrap();
            let d = dense_expectation(&c, &qs);
            assert!((e - d).abs() < 1e-9, "seed {seed}: {e} vs {d}");
        }
    }

    #[test]
    fn distribution_matches_dense_on_seeded_circuits() {
        for seed in 0..10 {
            let n = 3 + (seed as usize) % 3;
            let mut c = random_supported_circuit(n, 30, 4, 200 + seed);
            c.measure_all();
            let heis = output_distribution(&c).unwrap();
            let dense = statevec::ideal_distribution(&c).unwrap();
            for (k, v) in &dense {
                let w = heis.get(k).copied().unwrap_or(0.0);
                assert!((v - w).abs() < 1e-9, "seed {seed}, outcome {k}: {v} vs {w}");
            }
            let total: f64 = heis.values().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn branching_is_bounded_by_seed_count() {
        let n = 4;
        let c = random_supported_circuit(n, 40, 3, 999);
        let mut sum = PauliSum::from_pauli(n, Pauli::z_on(n, &[0, 1, 2, 3]));
        let mut rz_seen = 0;
        for instr in c.iter().rev() {
            if let OpKind::Gate(g) = &instr.kind {
                let qs: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
                match g {
                    Gate::RZ(t) if !is_clifford_angle(*t) => {
                        sum.conjugate_rz(*t, qs[0]);
                        rz_seen += 1;
                    }
                    Gate::RZ(t) => {
                        let _ = t;
                    }
                    g if g.is_clifford() => sum.conjugate_clifford(*g, &qs),
                    _ => {}
                }
            }
            assert!(
                sum.len() <= 1 << rz_seen,
                "terms {} exceed 2^{rz_seen}",
                sum.len()
            );
        }
    }

    #[test]
    fn large_register_with_few_measured_qubits() {
        // 80-qubit GHZ-like circuit with 2 seeds, measuring 6 qubits:
        // far beyond dense reach, cheap here.
        let n = 80;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..(n - 1) as u32 {
            c.cx(q, q + 1);
        }
        c.rz(0.7, 3);
        c.rz(0.4, 40);
        for q in 0..6u32 {
            c.measure(q, q);
        }
        let d = output_distribution(&c).unwrap();
        let total: f64 = d.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // GHZ parity: only 000000 and 111111 have weight (the diagonal
        // seeds only add phases, which single-basis measurement ignores
        // for a GHZ state's diagonal density terms... weight stays on the
        // two GHZ branches).
        assert!(d.get(&0b000000).copied().unwrap_or(0.0) > 0.49);
        assert!(d.get(&0b111111).copied().unwrap_or(0.0) > 0.49);
    }

    #[test]
    fn rejects_non_diagonal_non_clifford() {
        let mut c = Circuit::new(1);
        c.ry(0.3, 0);
        let err = expectation(&c, Pauli::z_on(1, &[0])).unwrap_err();
        assert_eq!(err.0, Gate::RY(0.3));
    }

    #[test]
    fn t_gate_is_handled_as_diagonal() {
        // T = P(π/4): non-Clifford diagonal → branches.
        let mut c = Circuit::new(1);
        c.h(0).t(0).h(0).measure(0, 0);
        let d = output_distribution(&c).unwrap();
        let dense = statevec::ideal_distribution(&c).unwrap();
        for (k, v) in &dense {
            assert!((v - d.get(k).copied().unwrap_or(0.0)).abs() < 1e-9);
        }
    }
}
