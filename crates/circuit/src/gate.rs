//! The gate set understood by every layer of the stack.
//!
//! The set covers the logical gates used by the ADAPT benchmarks (H, T, RZ,
//! CX, …), the IBMQ physical basis the transpiler lowers to
//! ({RZ, SX, X, CX}), and the Clifford subset the stabilizer simulator and
//! decoy-circuit generator rely on.

use crate::math::{Mat2, Mat4, C64};
use std::fmt;

/// A quantum gate, possibly parameterized by rotation angles (radians).
///
/// Two-qubit gates take their operands as (first, second); for [`Gate::CX`]
/// the first operand is the control.
///
/// # Examples
///
/// ```
/// use qcirc::gate::Gate;
/// assert_eq!(Gate::CX.arity(), 2);
/// assert!(Gate::S.is_clifford());
/// assert!(!Gate::T.is_clifford());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// Identity.
    I,
    /// Pauli-X (bit flip).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z (phase flip).
    Z,
    /// Hadamard.
    H,
    /// Phase gate `diag(1, i)`.
    S,
    /// Inverse phase gate `diag(1, -i)`.
    Sdg,
    /// T gate `diag(1, e^{iπ/4})` (non-Clifford).
    T,
    /// Inverse T gate (non-Clifford).
    Tdg,
    /// Square root of X (IBM basis gate).
    SX,
    /// Inverse square root of X.
    SXdg,
    /// Rotation about the X axis by the given angle.
    RX(f64),
    /// Rotation about the Y axis by the given angle.
    RY(f64),
    /// Rotation about the Z axis by the given angle (virtual on IBM hardware).
    RZ(f64),
    /// Phase gate `diag(1, e^{iθ})` — Qiskit's `p`/`u1`.
    P(f64),
    /// General single-qubit gate `U(θ, φ, λ)` — Qiskit's `u`/`u3`.
    U(f64, f64, f64),
    /// Controlled-X; operand 0 is the control.
    CX,
    /// Controlled-Z (symmetric).
    CZ,
    /// SWAP (decomposes into 3 CX on hardware).
    Swap,
}

impl Gate {
    /// Number of qubit operands.
    pub fn arity(&self) -> usize {
        match self {
            Gate::CX | Gate::CZ | Gate::Swap => 2,
            _ => 1,
        }
    }

    /// The lowercase mnemonic used by the textual circuit format.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::SX => "sx",
            Gate::SXdg => "sxdg",
            Gate::RX(_) => "rx",
            Gate::RY(_) => "ry",
            Gate::RZ(_) => "rz",
            Gate::P(_) => "p",
            Gate::U(..) => "u",
            Gate::CX => "cx",
            Gate::CZ => "cz",
            Gate::Swap => "swap",
        }
    }

    /// Rotation parameters, if any.
    pub fn params(&self) -> Vec<f64> {
        match *self {
            Gate::RX(t) | Gate::RY(t) | Gate::RZ(t) | Gate::P(t) => vec![t],
            Gate::U(t, p, l) => vec![t, p, l],
            _ => Vec::new(),
        }
    }

    /// The inverse gate, `G⁻¹` such that `G·G⁻¹ = I` (up to global phase).
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::SX => Gate::SXdg,
            Gate::SXdg => Gate::SX,
            Gate::RX(t) => Gate::RX(-t),
            Gate::RY(t) => Gate::RY(-t),
            Gate::RZ(t) => Gate::RZ(-t),
            Gate::P(t) => Gate::P(-t),
            Gate::U(t, p, l) => Gate::U(-t, -l, -p),
            g => g, // I, X, Y, Z, H, CX, CZ, Swap are involutions
        }
    }

    /// True when the gate is in the Clifford group by name. Parameterized
    /// rotations are never reported, even at Clifford angles.
    pub fn is_clifford(&self) -> bool {
        matches!(
            self,
            Gate::I
                | Gate::X
                | Gate::Y
                | Gate::Z
                | Gate::H
                | Gate::S
                | Gate::Sdg
                | Gate::SX
                | Gate::SXdg
                | Gate::CX
                | Gate::CZ
                | Gate::Swap
        )
    }

    /// The 2×2 unitary of a single-qubit gate, or `None` for two-qubit gates.
    pub fn unitary1(&self) -> Option<Mat2> {
        use std::f64::consts::FRAC_1_SQRT_2 as R2;
        let c = C64::real;
        let m = match *self {
            Gate::I => Mat2::identity(),
            Gate::X => Mat2::new([[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]),
            Gate::Y => Mat2::new([[C64::ZERO, -C64::I], [C64::I, C64::ZERO]]),
            Gate::Z => Mat2::new([[C64::ONE, C64::ZERO], [C64::ZERO, -C64::ONE]]),
            Gate::H => Mat2::new([[c(R2), c(R2)], [c(R2), c(-R2)]]),
            Gate::S => Mat2::new([[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]]),
            Gate::Sdg => Mat2::new([[C64::ONE, C64::ZERO], [C64::ZERO, -C64::I]]),
            Gate::T => Mat2::new([
                [C64::ONE, C64::ZERO],
                [C64::ZERO, C64::cis(std::f64::consts::FRAC_PI_4)],
            ]),
            Gate::Tdg => Mat2::new([
                [C64::ONE, C64::ZERO],
                [C64::ZERO, C64::cis(-std::f64::consts::FRAC_PI_4)],
            ]),
            Gate::SX => Mat2::new([
                [C64::new(0.5, 0.5), C64::new(0.5, -0.5)],
                [C64::new(0.5, -0.5), C64::new(0.5, 0.5)],
            ]),
            Gate::SXdg => Mat2::new([
                [C64::new(0.5, -0.5), C64::new(0.5, 0.5)],
                [C64::new(0.5, 0.5), C64::new(0.5, -0.5)],
            ]),
            Gate::RX(t) => {
                let (ch, sh) = ((t / 2.0).cos(), (t / 2.0).sin());
                Mat2::new([[c(ch), C64::new(0.0, -sh)], [C64::new(0.0, -sh), c(ch)]])
            }
            Gate::RY(t) => {
                let (ch, sh) = ((t / 2.0).cos(), (t / 2.0).sin());
                Mat2::new([[c(ch), c(-sh)], [c(sh), c(ch)]])
            }
            Gate::RZ(t) => Mat2::new([
                [C64::cis(-t / 2.0), C64::ZERO],
                [C64::ZERO, C64::cis(t / 2.0)],
            ]),
            Gate::P(t) => Mat2::new([[C64::ONE, C64::ZERO], [C64::ZERO, C64::cis(t)]]),
            Gate::U(t, p, l) => {
                let (ch, sh) = ((t / 2.0).cos(), (t / 2.0).sin());
                Mat2::new([
                    [c(ch), C64::cis(l).scale(-sh)],
                    [C64::cis(p).scale(sh), C64::cis(p + l).scale(ch)],
                ])
            }
            Gate::CX | Gate::CZ | Gate::Swap => return None,
        };
        Some(m)
    }

    /// The 4×4 unitary of a two-qubit gate in the little-endian basis
    /// `|b1 b0⟩ ↦ index 2·b1 + b0`, where `b0` belongs to the first operand
    /// (the control for [`Gate::CX`]). `None` for single-qubit gates.
    pub fn unitary2(&self) -> Option<Mat4> {
        let o = C64::ONE;
        let z = C64::ZERO;
        let m = match self {
            // Control = operand 0 = low bit. |b1 b0⟩: flip b1 when b0 = 1.
            Gate::CX => Mat4::new([[o, z, z, z], [z, z, z, o], [z, z, o, z], [z, o, z, z]]),
            Gate::CZ => Mat4::new([[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, -o]]),
            Gate::Swap => Mat4::new([[o, z, z, z], [z, z, o, z], [z, o, z, z], [z, z, z, o]]),
            _ => return None,
        };
        Some(m)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let joined: Vec<String> = params.iter().map(|p| format!("{p:.6}")).collect();
            write!(f, "{}({})", self.name(), joined.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    const TOL: f64 = 1e-10;

    fn all_1q_gates() -> Vec<Gate> {
        vec![
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::SX,
            Gate::SXdg,
            Gate::RX(0.3),
            Gate::RY(1.1),
            Gate::RZ(-0.7),
            Gate::P(2.3),
            Gate::U(0.5, 1.2, -0.4),
        ]
    }

    #[test]
    fn every_1q_unitary_is_unitary() {
        for g in all_1q_gates() {
            let u = g.unitary1().unwrap();
            assert!(u.is_unitary(TOL), "{g:?} not unitary");
        }
    }

    #[test]
    fn every_2q_unitary_is_unitary() {
        for g in [Gate::CX, Gate::CZ, Gate::Swap] {
            assert!(g.unitary2().unwrap().is_unitary(TOL));
            assert!(g.unitary1().is_none());
        }
    }

    #[test]
    fn inverse_composes_to_identity_up_to_phase() {
        let id = Mat2::identity();
        for g in all_1q_gates() {
            let u = g.unitary1().unwrap();
            let v = g.inverse().unitary1().unwrap();
            assert!(
                (u * v).phase_dist(&id) < 1e-9,
                "{g:?} inverse wrong: {}",
                u * v
            );
        }
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = Gate::SX.unitary1().unwrap();
        let x = Gate::X.unitary1().unwrap();
        assert!((sx * sx).phase_dist(&x) < TOL);
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        let s = Gate::S.unitary1().unwrap();
        let t = Gate::T.unitary1().unwrap();
        assert!((s * s).phase_dist(&Gate::Z.unitary1().unwrap()) < TOL);
        assert!((t * t).phase_dist(&s) < TOL);
    }

    #[test]
    fn rz_pi_matches_z_up_to_phase() {
        let rz = Gate::RZ(PI).unitary1().unwrap();
        let z = Gate::Z.unitary1().unwrap();
        assert!(rz.phase_dist(&z) < TOL);
        // But not exactly equal (RZ carries a global phase of e^{-iπ/2}).
        assert!(rz.op_norm_dist(&z) > 0.5);
    }

    #[test]
    fn u_gate_special_cases() {
        // U(π/2, 0, π) = H up to phase.
        let u2 = Gate::U(FRAC_PI_2, 0.0, PI).unitary1().unwrap();
        assert!(u2.phase_dist(&Gate::H.unitary1().unwrap()) < TOL);
        // U(0, 0, λ) = P(λ).
        let p = Gate::U(0.0, 0.0, 0.9).unitary1().unwrap();
        assert!(p.phase_dist(&Gate::P(0.9).unitary1().unwrap()) < TOL);
        // U(θ, -π/2, π/2) = RX(θ).
        let rx = Gate::U(0.7, -FRAC_PI_2, FRAC_PI_2).unitary1().unwrap();
        assert!(rx.phase_dist(&Gate::RX(0.7).unitary1().unwrap()) < TOL);
    }

    #[test]
    fn cx_truth_table() {
        let cx = Gate::CX.unitary2().unwrap();
        use crate::math::C64;
        // Control is the LOW bit: |b1 b0⟩ = |01⟩ (index 1) → |11⟩ (index 3).
        let v = cx.mul_vec([C64::ZERO, C64::ONE, C64::ZERO, C64::ZERO]);
        assert!(v[3].approx_eq(C64::ONE, TOL));
        // |10⟩ (index 2) is untouched.
        let v = cx.mul_vec([C64::ZERO, C64::ZERO, C64::ONE, C64::ZERO]);
        assert!(v[2].approx_eq(C64::ONE, TOL));
    }

    #[test]
    fn clifford_classification() {
        for g in [Gate::X, Gate::H, Gate::S, Gate::CX, Gate::CZ, Gate::Swap] {
            assert!(g.is_clifford(), "{g:?}");
        }
        for g in [Gate::T, Gate::Tdg, Gate::RZ(0.3), Gate::U(0.1, 0.2, 0.3)] {
            assert!(!g.is_clifford(), "{g:?}");
        }
    }

    #[test]
    fn display_includes_params() {
        assert_eq!(Gate::H.to_string(), "h");
        assert_eq!(Gate::RZ(FRAC_PI_4).to_string(), "rz(0.785398)");
    }
}
