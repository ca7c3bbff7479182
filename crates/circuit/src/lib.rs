//! # qcirc — quantum circuit IR and gate algebra
//!
//! The foundation crate of the ADAPT reproduction stack. It provides:
//!
//! - [`math`]: allocation-free complex scalars and 2×2/4×4 matrices, with
//!   the operator-norm machinery behind nearest-Clifford replacement;
//! - [`gate`]: the gate set (logical gates, the IBM physical basis
//!   {RZ, SX, X, CX}, and the Clifford subset);
//! - [`circuit`]: the [`Circuit`] intermediate representation consumed by
//!   the transpiler, the simulators and the ADAPT pass;
//! - [`clifford`]: the 24 single-qubit Clifford classes and the
//!   nearest-Clifford search used to build decoy circuits.
//!
//! # Examples
//!
//! ```
//! use qcirc::{Circuit, Gate};
//!
//! // A 2-qubit Bell-pair circuit.
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1).measure_all();
//! assert_eq!(c.count_ops()["cx"], 1);
//!
//! // Nearest-Clifford replacement of a T gate (decoy construction).
//! let classes = qcirc::clifford::single_qubit_cliffords();
//! let n = qcirc::clifford::cliffordize_gate(&classes, Gate::T);
//! assert!(n.distance > 0.0);
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod clifford;
pub mod counts;
pub mod gate;
pub mod math;

pub use circuit::{Circuit, CircuitError, Clbit, Instruction, OpKind, Qubit};
pub use counts::Counts;
pub use gate::Gate;

/// Widest accepted classical register: the width of [`Counts`] and of
/// every simulator's outcome word. Every import of a circuit from
/// outside the process (the fleet wire) and every admission check
/// applies it.
pub const MAX_CLBITS: usize = u64::BITS as usize;

/// Widest accepted quantum register: every qubit index a compiled
/// execution plan can address with its `u16` operands, far above the
/// largest device preset (27 qubits). A decoded circuit's width sizes
/// per-qubit tables in every later layer, so an unchecked width of
/// 4,000,000,000 must not get through. Every import of a circuit from
/// outside the process applies it.
pub const MAX_QUBITS: usize = u16::MAX as usize + 1;
