//! # statevec — dense state-vector quantum simulator
//!
//! Exact simulation of pure states up to ~20 qubits, on one simulator:
//! [`SoaStateVector`], which keeps the real and imaginary parts of the
//! amplitudes in separate arrays. The noisy trajectory executor in the
//! `machine` crate drives one per dense Monte-Carlo trajectory, and the
//! ideal (noise-free) reference outputs ADAPT scores decoys against come
//! from [`run_ideal`]/[`ideal_distribution`] on the same type.
//! [`DensityMatrix`] is the exact mixed-state reference for small
//! registers.
//!
//! Qubit `k` is the `k`-th bit (little-endian) of the amplitude index.
//!
//! # Examples
//!
//! ```
//! use qcirc::Circuit;
//! use statevec::{ideal_distribution, run_ideal};
//!
//! // Bell state: P(00) = P(11) = 1/2.
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1).measure_all();
//! let p = ideal_distribution(&c).unwrap();
//! assert!((p[&0b00] - 0.5).abs() < 1e-12);
//! assert!((p[&0b11] - 0.5).abs() < 1e-12);
//!
//! // The pre-measurement state itself.
//! let sv = run_ideal(&c).unwrap();
//! assert!((sv.amplitude(0b11).re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod density;
pub mod soa;

pub use density::DensityMatrix;
pub use soa::SoaStateVector;

use qcirc::{Circuit, OpKind};
use std::collections::BTreeMap;

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The requested register exceeds the compiled-in size limit.
    TooManyQubits {
        /// Requested register size.
        requested: usize,
        /// Hard limit (memory driven).
        limit: usize,
    },
    /// A qubit operand exceeds the register.
    QubitOutOfRange {
        /// Offending index.
        qubit: usize,
        /// Register size.
        num_qubits: usize,
    },
    /// A two-qubit gate names the same qubit for both operands.
    DuplicateOperand {
        /// The repeated index.
        qubit: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TooManyQubits { requested, limit } => {
                write!(f, "{requested} qubits exceeds simulator limit of {limit}")
            }
            SimError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {num_qubits}-qubit register"
                )
            }
            SimError::DuplicateOperand { qubit } => {
                write!(f, "two-qubit gate uses qubit {qubit} for both operands")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Rejects a two-qubit gate whose operands coincide.
fn check_distinct(q0: usize, q1: usize) -> Result<(), SimError> {
    if q0 == q1 {
        Err(SimError::DuplicateOperand { qubit: q0 })
    } else {
        Ok(())
    }
}

/// Hard cap on register size (2^26 amplitudes = 1 GiB of `f64` pairs).
pub const MAX_QUBITS: usize = 26;

/// Runs a circuit noise-free from `|0…0⟩` and returns the pre-measurement
/// state (measurements and resets are skipped — use [`ideal_distribution`]
/// for exact outcome probabilities).
///
/// Every gate goes through the general [`SoaStateVector::apply1`] /
/// [`SoaStateVector::apply2`] kernels, so the reference is one fixed
/// sequence of complex matrix–vector products.
///
/// # Errors
///
/// Returns a [`SimError`] when the register is too large or an operand is
/// out of range.
pub fn run_ideal(circuit: &Circuit) -> Result<SoaStateVector, SimError> {
    let mut sv = SoaStateVector::try_new(circuit.num_qubits())?;
    for instr in circuit.iter() {
        if let OpKind::Gate(g) = &instr.kind {
            let q = |k: usize| instr.qubits[k].index();
            if let Some(u) = g.unitary1() {
                sv.apply1(&u, q(0))?;
            } else if let Some(u) = g.unitary2() {
                sv.apply2(&u, q(0), q(1))?;
            }
        }
    }
    Ok(sv)
}

/// Exact noise-free outcome distribution over the circuit's classical bits.
///
/// Only measured qubits contribute; a clbit never written stays 0. The
/// result maps little-endian clbit patterns to probabilities and omits
/// zero-probability outcomes (threshold 1e-15).
///
/// # Errors
///
/// Returns a [`SimError`] when the register is too large or an operand is
/// out of range.
pub fn ideal_distribution(circuit: &Circuit) -> Result<BTreeMap<u64, f64>, SimError> {
    let sv = run_ideal(circuit)?;
    // Map qubit -> clbit from the measurement instructions (last wins).
    let mut qubit_to_clbit: BTreeMap<usize, usize> = BTreeMap::new();
    for instr in circuit.iter() {
        if let OpKind::Measure(c) = &instr.kind {
            qubit_to_clbit.insert(instr.qubits[0].index(), c.index());
        }
    }
    let mut dist: BTreeMap<u64, f64> = BTreeMap::new();
    for (i, p) in sv.probabilities().into_iter().enumerate() {
        if p < 1e-15 {
            continue;
        }
        let mut outcome = 0u64;
        for (&q, &c) in &qubit_to_clbit {
            if i >> q & 1 == 1 {
                outcome |= 1 << c;
            }
        }
        *dist.entry(outcome).or_insert(0.0) += p;
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_ideal_distribution() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let d = ideal_distribution(&c).unwrap();
        assert_eq!(d.len(), 2);
        assert!((d[&0b000] - 0.5).abs() < 1e-12);
        assert!((d[&0b111] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn measurement_clbit_mapping_respected() {
        // Measure q0 into c1.
        let mut c = Circuit::with_clbits(2, 2);
        c.x(0).measure(0, 1);
        let d = ideal_distribution(&c).unwrap();
        assert!((d[&0b10] - 1.0).abs() < 1e-12);
    }
}
