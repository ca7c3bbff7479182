//! Exact density-matrix simulation of small open systems.
//!
//! The trajectory executor in the `machine` crate approximates channel
//! evolution by Monte-Carlo sampling; this module computes the *exact*
//! mixed-state evolution for up to [`MAX_DM_QUBITS`] qubits, so the
//! stochastic machinery can be validated analytically:
//!
//! - depolarizing/dephasing/amplitude-damping Kraus channels match the
//!   executor's sampled Pauli errors in expectation;
//! - the Gaussian-averaged coherent `RZ` noise (`⟨RZ(φ)ρRZ(φ)†⟩` over
//!   `φ ~ N(0, σ²)`) has the closed form of off-diagonal decay
//!   `e^{−σ²/2}`, which is what a quasi-static detuning does to an idle
//!   qubit between DD pulses.
//!
//! It is also the exact reference the dense simulator
//! ([`SoaStateVector`]) is checked against: on unitary circuits its
//! diagonal must equal the state vector's probabilities.

use crate::{SimError, SoaStateVector};
use qcirc::math::{Mat2, C64};
use qcirc::Gate;

/// Hard cap on density-matrix register size (2^2n complex entries).
pub const MAX_DM_QUBITS: usize = 10;

/// A density matrix over `n ≤ MAX_DM_QUBITS` qubits, row-major,
/// little-endian basis indexing (matching [`SoaStateVector`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n: usize,
    dim: usize,
    rho: Vec<C64>,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] beyond [`MAX_DM_QUBITS`].
    pub fn new(n: usize) -> Result<Self, SimError> {
        if n > MAX_DM_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: n,
                limit: MAX_DM_QUBITS,
            });
        }
        let dim = 1 << n;
        let mut rho = vec![C64::ZERO; dim * dim];
        rho[0] = C64::ONE;
        Ok(DensityMatrix { n, dim, rho })
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Matrix element `⟨r|ρ|c⟩`.
    pub fn element(&self, r: usize, c: usize) -> C64 {
        self.rho[r * self.dim + c]
    }

    /// Trace (should stay 1 under any channel).
    pub fn trace(&self) -> C64 {
        (0..self.dim).fold(C64::ZERO, |acc, i| acc + self.rho[i * self.dim + i])
    }

    /// Purity `tr(ρ²)`: 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        let mut p = C64::ZERO;
        for r in 0..self.dim {
            for c in 0..self.dim {
                p += self.rho[r * self.dim + c] * self.rho[c * self.dim + r];
            }
        }
        p.re
    }

    /// Computational-basis outcome probabilities (the diagonal).
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.rho[i * self.dim + i].re)
            .collect()
    }

    /// `⟨ψ|ρ|ψ⟩` against a pure reference.
    ///
    /// # Panics
    ///
    /// Panics on register-size mismatch.
    pub fn fidelity_pure(&self, sv: &SoaStateVector) -> f64 {
        assert_eq!(self.n, sv.num_qubits(), "register size mismatch");
        let amps: Vec<C64> = (0..self.dim as u64).map(|i| sv.amplitude(i)).collect();
        let mut f = C64::ZERO;
        for r in 0..self.dim {
            for c in 0..self.dim {
                f += amps[r].conj() * self.rho[r * self.dim + c] * amps[c];
            }
        }
        f.re
    }

    /// Applies `ρ ← U ρ U†` for a single-qubit unitary on qubit `q`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn apply1(&mut self, u: &Mat2, q: usize) -> Result<(), SimError> {
        self.check(q)?;
        let bit = 1usize << q;
        // Left: rows mix. For each column c, rows (r, r|bit) transform.
        for c in 0..self.dim {
            for r in 0..self.dim {
                if r & bit != 0 {
                    continue;
                }
                let lo = self.rho[r * self.dim + c];
                let hi = self.rho[(r | bit) * self.dim + c];
                self.rho[r * self.dim + c] = u.at(0, 0) * lo + u.at(0, 1) * hi;
                self.rho[(r | bit) * self.dim + c] = u.at(1, 0) * lo + u.at(1, 1) * hi;
            }
        }
        // Right: columns mix with U†.
        let ud = u.dagger();
        for r in 0..self.dim {
            for c in 0..self.dim {
                if c & bit != 0 {
                    continue;
                }
                let lo = self.rho[r * self.dim + c];
                let hi = self.rho[r * self.dim + (c | bit)];
                // ρ·U†: column update uses U† columns.
                self.rho[r * self.dim + c] = lo * ud.at(0, 0) + hi * ud.at(1, 0);
                self.rho[r * self.dim + (c | bit)] = lo * ud.at(0, 1) + hi * ud.at(1, 1);
            }
        }
        Ok(())
    }

    /// Applies `ρ ← U ρ U†` for a two-qubit gate (same operand convention
    /// as [`SoaStateVector::apply2`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) -> Result<(), SimError> {
        if let Some(u) = gate.unitary1() {
            return self.apply1(&u, qubits[0]);
        }
        if let Some(u4) = gate.unitary2() {
            // Promote through the state-vector machinery: apply to each
            // column as a ket, then to each row as a bra.
            let (q0, q1) = (qubits[0], qubits[1]);
            self.check(q0)?;
            self.check(q1)?;
            let (b0, b1) = (1usize << q0, 1usize << q1);
            // Left multiplication.
            for c in 0..self.dim {
                for r in 0..self.dim {
                    if r & b0 != 0 || r & b1 != 0 {
                        continue;
                    }
                    let idx = [r, r | b0, r | b1, r | b0 | b1];
                    let v = [
                        self.rho[idx[0] * self.dim + c],
                        self.rho[idx[1] * self.dim + c],
                        self.rho[idx[2] * self.dim + c],
                        self.rho[idx[3] * self.dim + c],
                    ];
                    let w = u4.mul_vec(v);
                    for k in 0..4 {
                        self.rho[idx[k] * self.dim + c] = w[k];
                    }
                }
            }
            // Right multiplication by U†: (ρU†)[r,c] = Σ_k ρ[r,k]·U†[k,c]
            // = Σ_k ρ[r,k]·conj(U[c,k]).
            for r in 0..self.dim {
                for c in 0..self.dim {
                    if c & b0 != 0 || c & b1 != 0 {
                        continue;
                    }
                    let idx = [c, c | b0, c | b1, c | b0 | b1];
                    let v = [
                        self.rho[r * self.dim + idx[0]],
                        self.rho[r * self.dim + idx[1]],
                        self.rho[r * self.dim + idx[2]],
                        self.rho[r * self.dim + idx[3]],
                    ];
                    let mut w = [C64::ZERO; 4];
                    for (kc, wc) in w.iter_mut().enumerate() {
                        for (kk, vv) in v.iter().enumerate() {
                            *wc += *vv * u4.at(kc, kk).conj();
                        }
                    }
                    for k in 0..4 {
                        self.rho[r * self.dim + idx[k]] = w[k];
                    }
                }
            }
            return Ok(());
        }
        Ok(())
    }

    /// Single-qubit depolarizing channel with error probability `p`:
    /// `ρ ← (1−p)ρ + (p/3)(XρX + YρY + ZρZ)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn depolarize1(&mut self, q: usize, p: f64) -> Result<(), SimError> {
        self.check(q)?;
        let mut acc = self.scaled(1.0 - p);
        for g in [Gate::X, Gate::Y, Gate::Z] {
            let mut branch = self.clone();
            branch.apply1(&g.unitary1().expect("1q"), q)?;
            acc.add_scaled(&branch, p / 3.0);
        }
        *self = acc;
        Ok(())
    }

    /// Pure-dephasing channel: `ρ ← (1−p)ρ + p·ZρZ`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn dephase(&mut self, q: usize, p: f64) -> Result<(), SimError> {
        self.check(q)?;
        let mut z_branch = self.clone();
        z_branch.apply1(&Gate::Z.unitary1().expect("1q"), q)?;
        let mut acc = self.scaled(1.0 - p);
        acc.add_scaled(&z_branch, p);
        *self = acc;
        Ok(())
    }

    /// Amplitude damping with decay probability `gamma` (Kraus
    /// `K0 = diag(1, √(1−γ))`, `K1 = √γ·|0⟩⟨1|`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn amplitude_damp(&mut self, q: usize, gamma: f64) -> Result<(), SimError> {
        self.check(q)?;
        let bit = 1usize << q;
        let s = (1.0 - gamma).sqrt();
        let mut out = vec![C64::ZERO; self.dim * self.dim];
        for r in 0..self.dim {
            for c in 0..self.dim {
                let v = self.rho[r * self.dim + c];
                // K0 ρ K0†: scales rows/cols with q-bit set by √(1−γ).
                let k0 = match ((r & bit != 0) as u8, (c & bit != 0) as u8) {
                    (0, 0) => 1.0,
                    (1, 1) => s * s,
                    _ => s,
                };
                out[r * self.dim + c] += v.scale(k0);
                // K1 ρ K1†: moves the |1⟩⟨1| block to |0⟩⟨0| times γ.
                if r & bit != 0 && c & bit != 0 {
                    out[(r & !bit) * self.dim + (c & !bit)] += v.scale(gamma);
                }
            }
        }
        self.rho = out;
        Ok(())
    }

    /// Gaussian-averaged coherent Z rotation: the exact channel for a
    /// quasi-static detuning that accumulates phase `φ ~ N(0, σ²)` over an
    /// idle window. Off-diagonals in the qubit's basis decay by
    /// `e^{−σ²/2}` — this closed form is what the Monte-Carlo trajectories
    /// must reproduce on average.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn gaussian_z_phase(&mut self, q: usize, sigma_rad: f64) -> Result<(), SimError> {
        self.check(q)?;
        let bit = 1usize << q;
        let decay = (-sigma_rad * sigma_rad / 2.0).exp();
        for r in 0..self.dim {
            for c in 0..self.dim {
                if (r & bit != 0) != (c & bit != 0) {
                    self.rho[r * self.dim + c] = self.rho[r * self.dim + c].scale(decay);
                }
            }
        }
        Ok(())
    }

    /// Readout bit-flip channel on the classical outcome statistics
    /// (applied as a symmetric bit-flip on the diagonal).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn readout_flip(&mut self, q: usize, p: f64) -> Result<(), SimError> {
        self.check(q)?;
        let bit = 1usize << q;
        for i in 0..self.dim {
            if i & bit != 0 {
                continue;
            }
            let j = i | bit;
            let a = self.rho[i * self.dim + i];
            let b = self.rho[j * self.dim + j];
            self.rho[i * self.dim + i] = a.scale(1.0 - p) + b.scale(p);
            self.rho[j * self.dim + j] = b.scale(1.0 - p) + a.scale(p);
        }
        Ok(())
    }

    fn check(&self, q: usize) -> Result<(), SimError> {
        if q >= self.n {
            Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.n,
            })
        } else {
            Ok(())
        }
    }

    fn scaled(&self, s: f64) -> DensityMatrix {
        let mut out = self.clone();
        for v in &mut out.rho {
            *v = v.scale(s);
        }
        out
    }

    fn add_scaled(&mut self, other: &DensityMatrix, s: f64) {
        for (a, b) in self.rho.iter_mut().zip(&other.rho) {
            *a += b.scale(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::Circuit;

    const TOL: f64 = 1e-10;

    #[test]
    fn pure_unitary_evolution_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).t(0).cx(0, 1).ry(0.7, 2).cz(1, 2).swap(0, 2);
        let sv = crate::run_ideal(&c).unwrap();
        let mut dm = DensityMatrix::new(3).unwrap();
        for instr in c.iter() {
            if let qcirc::OpKind::Gate(g) = &instr.kind {
                let qs: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
                dm.apply_gate(*g, &qs).unwrap();
            }
        }
        assert!((dm.trace().re - 1.0).abs() < TOL);
        assert!((dm.purity() - 1.0).abs() < TOL);
        assert!((dm.fidelity_pure(&sv) - 1.0).abs() < TOL);
        // Diagonals match exactly.
        for (p_dm, p_sv) in dm.probabilities().iter().zip(sv.probabilities()) {
            assert!((p_dm - p_sv).abs() < TOL);
        }
    }

    #[test]
    fn depolarizing_reduces_purity_toward_mixed() {
        let mut dm = DensityMatrix::new(1).unwrap();
        dm.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        assert!((dm.purity() - 1.0).abs() < TOL);
        dm.depolarize1(0, 0.75).unwrap(); // full depolarizing at p = 3/4
        assert!((dm.purity() - 0.5).abs() < 1e-9, "purity {}", dm.purity());
        assert!((dm.trace().re - 1.0).abs() < TOL);
    }

    #[test]
    fn dephasing_kills_coherences_only() {
        let mut dm = DensityMatrix::new(1).unwrap();
        dm.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        let diag_before = dm.probabilities();
        dm.dephase(0, 0.5).unwrap(); // complete dephasing
        assert!(dm.element(0, 1).norm() < TOL);
        for (a, b) in dm.probabilities().iter().zip(diag_before) {
            assert!((a - b).abs() < TOL);
        }
    }

    #[test]
    fn amplitude_damping_decays_excited_population() {
        let mut dm = DensityMatrix::new(1).unwrap();
        dm.apply1(&Gate::X.unitary1().unwrap(), 0).unwrap();
        dm.amplitude_damp(0, 0.3).unwrap();
        let p = dm.probabilities();
        assert!((p[1] - 0.7).abs() < TOL);
        assert!((p[0] - 0.3).abs() < TOL);
        assert!((dm.trace().re - 1.0).abs() < TOL);
        // Damping twice composes: 1 - 0.7·0.7.
        dm.amplitude_damp(0, 0.3).unwrap();
        assert!((dm.probabilities()[1] - 0.49).abs() < TOL);
    }

    #[test]
    fn gaussian_z_phase_closed_form() {
        // On |+⟩: ⟨X⟩ decays by e^{−σ²/2}; survival after unwind H is
        // (1 + e^{−σ²/2})/2.
        let sigma = 0.8f64;
        let mut dm = DensityMatrix::new(1).unwrap();
        dm.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        dm.gaussian_z_phase(0, sigma).unwrap();
        dm.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        let expected = (1.0 + (-sigma * sigma / 2.0).exp()) / 2.0;
        assert!(
            (dm.probabilities()[0] - expected).abs() < TOL,
            "{} vs {expected}",
            dm.probabilities()[0]
        );
    }

    #[test]
    fn readout_flip_mixes_diagonal() {
        let mut dm = DensityMatrix::new(1).unwrap();
        dm.readout_flip(0, 0.1).unwrap();
        let p = dm.probabilities();
        assert!((p[1] - 0.1).abs() < TOL);
    }

    #[test]
    fn channels_preserve_trace_and_positivity_diagonal() {
        let mut dm = DensityMatrix::new(2).unwrap();
        dm.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        dm.apply_gate(Gate::CX, &[0, 1]).unwrap();
        dm.depolarize1(0, 0.05).unwrap();
        dm.dephase(1, 0.1).unwrap();
        dm.amplitude_damp(0, 0.07).unwrap();
        dm.gaussian_z_phase(1, 0.4).unwrap();
        assert!((dm.trace().re - 1.0).abs() < 1e-9);
        for p in dm.probabilities() {
            assert!(p >= -1e-12, "negative population {p}");
        }
    }

    #[test]
    fn oversized_register_rejected() {
        assert!(DensityMatrix::new(MAX_DM_QUBITS + 1).is_err());
    }
}
