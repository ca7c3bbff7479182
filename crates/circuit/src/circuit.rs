//! Circuit intermediate representation.
//!
//! A [`Circuit`] is an ordered list of [`Instruction`]s over a fixed register
//! of qubits and classical bits. It is the lingua franca of the stack: the
//! benchmark generators produce it, the transpiler rewrites it, the ADAPT
//! pass inserts DD sequences into it, and the simulators execute it.

use crate::gate::Gate;
use std::collections::HashSet;
use std::fmt;

/// Longest operand list [`Circuit::try_push`] checks for repeats pairwise.
const PAIRWISE_OPERANDS: usize = 32;

/// Index of a qubit within a circuit or device.
///
/// # Examples
///
/// ```
/// use qcirc::Qubit;
/// let q = Qubit::new(3);
/// assert_eq!(q.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qubit(u32);

impl Qubit {
    /// Creates a qubit index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Qubit(index)
    }

    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Qubit {
    fn from(v: u32) -> Self {
        Qubit(v)
    }
}

impl From<usize> for Qubit {
    fn from(v: usize) -> Self {
        Qubit(v as u32)
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q[{}]", self.0)
    }
}

/// Index of a classical bit receiving a measurement outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Clbit(u32);

impl Clbit {
    /// Creates a classical bit index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        Clbit(index)
    }

    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for Clbit {
    fn from(v: u32) -> Self {
        Clbit(v)
    }
}

impl From<usize> for Clbit {
    fn from(v: usize) -> Self {
        Clbit(v as u32)
    }
}

impl fmt::Display for Clbit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c[{}]", self.0)
    }
}

/// The operation performed by an [`Instruction`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// A unitary gate.
    Gate(Gate),
    /// Computational-basis measurement into the given classical bit.
    Measure(Clbit),
    /// Reset the qubit to `|0⟩`.
    Reset,
    /// Explicit idle period of the given duration in nanoseconds.
    Delay(f64),
    /// Scheduling barrier across the instruction's qubits.
    Barrier,
}

/// One operation on specific qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// What to do.
    pub kind: OpKind,
    /// The qubit operands (control first for [`Gate::CX`]).
    pub qubits: Vec<Qubit>,
}

impl Instruction {
    /// Creates a gate instruction.
    pub fn gate(gate: Gate, qubits: Vec<Qubit>) -> Self {
        Instruction {
            kind: OpKind::Gate(gate),
            qubits,
        }
    }

    /// The gate, if this instruction is one.
    pub fn as_gate(&self) -> Option<Gate> {
        match self.kind {
            OpKind::Gate(g) => Some(g),
            _ => None,
        }
    }

    /// True for two-qubit gates (the crosstalk/idle-structure carriers).
    pub fn is_two_qubit_gate(&self) -> bool {
        matches!(self.kind, OpKind::Gate(g) if g.arity() == 2)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let qs: Vec<String> = self.qubits.iter().map(|q| q.to_string()).collect();
        match &self.kind {
            OpKind::Gate(g) => write!(f, "{} {}", g, qs.join(", ")),
            OpKind::Measure(c) => write!(f, "measure {} -> {}", qs.join(", "), c),
            OpKind::Reset => write!(f, "reset {}", qs.join(", ")),
            OpKind::Delay(ns) => write!(f, "delay({ns:.1}ns) {}", qs.join(", ")),
            OpKind::Barrier => write!(f, "barrier {}", qs.join(", ")),
        }
    }
}

/// Error raised when building or validating a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A qubit operand exceeds the circuit's register size.
    QubitOutOfRange {
        /// Offending index.
        qubit: usize,
        /// Register size.
        num_qubits: usize,
    },
    /// A classical bit operand exceeds the circuit's classical register size.
    ClbitOutOfRange {
        /// Offending index.
        clbit: usize,
        /// Register size.
        num_clbits: usize,
    },
    /// An instruction repeats a qubit operand (e.g. `cx q, q`).
    DuplicateOperand {
        /// The repeated index.
        qubit: usize,
    },
    /// A gate, or a one-qubit measure, reset or delay, received the
    /// wrong number of qubit operands.
    WrongArity {
        /// Gate mnemonic, or `measure`, `reset` or `delay`.
        gate: &'static str,
        /// Expected operand count.
        expected: usize,
        /// Actual operand count.
        actual: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {num_qubits}-qubit circuit"
                )
            }
            CircuitError::ClbitOutOfRange { clbit, num_clbits } => {
                write!(
                    f,
                    "clbit {clbit} out of range for {num_clbits} classical bits"
                )
            }
            CircuitError::DuplicateOperand { qubit } => {
                write!(f, "duplicate qubit operand {qubit}")
            }
            CircuitError::WrongArity {
                gate,
                expected,
                actual,
            } => write!(f, "gate {gate} expects {expected} operands, got {actual}"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// An ordered quantum circuit over `num_qubits` qubits and `num_clbits`
/// classical bits.
///
/// Builder methods panic on out-of-range operands (see [`Circuit::try_push`]
/// for the fallible path) and return `&mut Self` so construction chains:
///
/// ```
/// use qcirc::{Circuit, Qubit};
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).measure_all();
/// assert_eq!(c.len(), 4);
/// assert_eq!(c.depth(), 3); // h → cx → parallel measures
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    instrs: Vec<Instruction>,
}

impl Circuit {
    /// Creates an empty circuit with `num_qubits` qubits and as many
    /// classical bits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            num_clbits: num_qubits,
            instrs: Vec::new(),
        }
    }

    /// Creates an empty circuit with distinct quantum and classical register
    /// sizes.
    pub fn with_clbits(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit {
            num_qubits,
            num_clbits,
            instrs: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The instructions in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instrs
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instrs.iter()
    }

    /// Validates and appends an instruction.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when an operand is out of range, repeated,
    /// or the operand count does not match the gate arity (one qubit for
    /// a measure, reset or delay; any number for a barrier).
    pub fn try_push(&mut self, instr: Instruction) -> Result<(), CircuitError> {
        for q in &instr.qubits {
            if q.index() >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q.index(),
                    num_qubits: self.num_qubits,
                });
            }
        }
        // Both scans report the first operand that repeats an earlier one.
        // The pairwise scan is quadratic, so a long list (a barrier across
        // a wide register, as a peer may send one) goes through a set.
        let repeated = if instr.qubits.len() <= PAIRWISE_OPERANDS {
            (1..instr.qubits.len())
                .find(|&i| instr.qubits[..i].contains(&instr.qubits[i]))
                .map(|i| instr.qubits[i])
        } else {
            let mut seen = HashSet::with_capacity(instr.qubits.len());
            instr.qubits.iter().copied().find(|&q| !seen.insert(q))
        };
        if let Some(q) = repeated {
            return Err(CircuitError::DuplicateOperand { qubit: q.index() });
        }
        let expected = match &instr.kind {
            OpKind::Gate(g) => g.arity(),
            OpKind::Measure(c) => {
                if c.index() >= self.num_clbits {
                    return Err(CircuitError::ClbitOutOfRange {
                        clbit: c.index(),
                        num_clbits: self.num_clbits,
                    });
                }
                1
            }
            OpKind::Reset | OpKind::Delay(_) => 1,
            OpKind::Barrier => instr.qubits.len(),
        };
        if expected != instr.qubits.len() {
            return Err(CircuitError::WrongArity {
                gate: match &instr.kind {
                    OpKind::Gate(g) => g.name(),
                    OpKind::Measure(_) => "measure",
                    OpKind::Reset => "reset",
                    OpKind::Delay(_) => "delay",
                    OpKind::Barrier => "barrier",
                },
                expected,
                actual: instr.qubits.len(),
            });
        }
        self.instrs.push(instr);
        Ok(())
    }

    /// Appends an instruction.
    ///
    /// # Panics
    ///
    /// Panics when the instruction is invalid; see [`Circuit::try_push`].
    pub fn push(&mut self, instr: Instruction) -> &mut Self {
        if let Err(e) = self.try_push(instr) {
            panic!("invalid instruction: {e}");
        }
        self
    }

    /// Appends a gate on the given qubits.
    ///
    /// # Panics
    ///
    /// Panics on invalid operands.
    pub fn gate(&mut self, gate: Gate, qubits: &[u32]) -> &mut Self {
        let qs = qubits.iter().map(|&q| Qubit::new(q)).collect();
        self.push(Instruction::gate(gate, qs))
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: u32) -> &mut Self {
        self.gate(Gate::H, &[q])
    }

    /// Appends a Pauli-X.
    pub fn x(&mut self, q: u32) -> &mut Self {
        self.gate(Gate::X, &[q])
    }

    /// Appends a Pauli-Y.
    pub fn y(&mut self, q: u32) -> &mut Self {
        self.gate(Gate::Y, &[q])
    }

    /// Appends a Pauli-Z.
    pub fn z(&mut self, q: u32) -> &mut Self {
        self.gate(Gate::Z, &[q])
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: u32) -> &mut Self {
        self.gate(Gate::S, &[q])
    }

    /// Appends an S† gate.
    pub fn sdg(&mut self, q: u32) -> &mut Self {
        self.gate(Gate::Sdg, &[q])
    }

    /// Appends a T gate.
    pub fn t(&mut self, q: u32) -> &mut Self {
        self.gate(Gate::T, &[q])
    }

    /// Appends a T† gate.
    pub fn tdg(&mut self, q: u32) -> &mut Self {
        self.gate(Gate::Tdg, &[q])
    }

    /// Appends a √X gate.
    pub fn sx(&mut self, q: u32) -> &mut Self {
        self.gate(Gate::SX, &[q])
    }

    /// Appends an RX rotation.
    pub fn rx(&mut self, theta: f64, q: u32) -> &mut Self {
        self.gate(Gate::RX(theta), &[q])
    }

    /// Appends an RY rotation.
    pub fn ry(&mut self, theta: f64, q: u32) -> &mut Self {
        self.gate(Gate::RY(theta), &[q])
    }

    /// Appends an RZ rotation.
    pub fn rz(&mut self, theta: f64, q: u32) -> &mut Self {
        self.gate(Gate::RZ(theta), &[q])
    }

    /// Appends a phase gate.
    pub fn p(&mut self, theta: f64, q: u32) -> &mut Self {
        self.gate(Gate::P(theta), &[q])
    }

    /// Appends a CNOT with `control` and `target`.
    pub fn cx(&mut self, control: u32, target: u32) -> &mut Self {
        self.gate(Gate::CX, &[control, target])
    }

    /// Appends a CZ.
    pub fn cz(&mut self, a: u32, b: u32) -> &mut Self {
        self.gate(Gate::CZ, &[a, b])
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: u32, b: u32) -> &mut Self {
        self.gate(Gate::Swap, &[a, b])
    }

    /// Appends a measurement of qubit `q` into classical bit `c`.
    pub fn measure(&mut self, q: u32, c: u32) -> &mut Self {
        self.push(Instruction {
            kind: OpKind::Measure(Clbit::new(c)),
            qubits: vec![Qubit::new(q)],
        })
    }

    /// Measures qubit `i` into classical bit `i` for every qubit.
    pub fn measure_all(&mut self) -> &mut Self {
        let n = self.num_qubits.min(self.num_clbits);
        for q in 0..n as u32 {
            self.measure(q, q);
        }
        self
    }

    /// Appends an explicit delay (ns) on a qubit.
    pub fn delay(&mut self, ns: f64, q: u32) -> &mut Self {
        self.push(Instruction {
            kind: OpKind::Delay(ns),
            qubits: vec![Qubit::new(q)],
        })
    }

    /// Appends a barrier over all qubits.
    pub fn barrier_all(&mut self) -> &mut Self {
        let qs = (0..self.num_qubits as u32).map(Qubit::new).collect();
        self.push(Instruction {
            kind: OpKind::Barrier,
            qubits: qs,
        })
    }

    /// Appends a barrier over specific qubits.
    pub fn barrier(&mut self, qubits: &[u32]) -> &mut Self {
        let qs = qubits.iter().map(|&q| Qubit::new(q)).collect();
        self.push(Instruction {
            kind: OpKind::Barrier,
            qubits: qs,
        })
    }

    /// Number of gate instructions (excludes measure/reset/delay/barrier).
    pub fn gate_count(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| matches!(i.kind, OpKind::Gate(_)))
            .count()
    }

    /// Circuit depth: the longest chain of operations through any qubit,
    /// counting gates, measurements and resets (barriers and delays shape the
    /// schedule but add no depth).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        for instr in &self.instrs {
            match instr.kind {
                OpKind::Gate(_) | OpKind::Measure(_) | OpKind::Reset => {
                    let d = instr
                        .qubits
                        .iter()
                        .map(|q| level[q.index()])
                        .max()
                        .unwrap_or(0)
                        + 1;
                    for q in &instr.qubits {
                        level[q.index()] = d;
                    }
                }
                OpKind::Barrier => {
                    let d = instr
                        .qubits
                        .iter()
                        .map(|q| level[q.index()])
                        .max()
                        .unwrap_or(0);
                    for q in &instr.qubits {
                        level[q.index()] = d;
                    }
                }
                OpKind::Delay(_) => {}
            }
        }
        level.into_iter().max().unwrap_or(0)
    }

    /// The unitary part of the circuit reversed and inverted — appendable
    /// after `self` to undo it. Non-unitary instructions (measure, reset) are
    /// skipped; delays and barriers are kept in reversed order.
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::with_clbits(self.num_qubits, self.num_clbits);
        for instr in self.instrs.iter().rev() {
            match &instr.kind {
                OpKind::Gate(g) => {
                    inv.push(Instruction::gate(g.inverse(), instr.qubits.clone()));
                }
                OpKind::Delay(_) | OpKind::Barrier => {
                    inv.push(instr.clone());
                }
                OpKind::Measure(_) | OpKind::Reset => {}
            }
        }
        inv
    }

    /// Qubits that appear in at least one gate, measurement or reset.
    pub fn active_qubits(&self) -> Vec<Qubit> {
        let mut seen = vec![false; self.num_qubits];
        for instr in &self.instrs {
            if !matches!(instr.kind, OpKind::Barrier | OpKind::Delay(_)) {
                for q in &instr.qubits {
                    seen[q.index()] = true;
                }
            }
        }
        seen.iter()
            .enumerate()
            .filter(|&(_, &s)| s)
            .map(|(i, _)| Qubit::new(i as u32))
            .collect()
    }

    /// Rewrites the circuit onto a compact register containing only its
    /// active qubits (plus any barrier/delay references to them), returning
    /// the compact circuit and the mapping from new index to old index.
    ///
    /// Classical bits are untouched, so measurement-outcome distributions
    /// are identical — this is how 27-qubit physical circuits with ~10
    /// active qubits fit in the dense simulator.
    pub fn compacted(&self) -> (Circuit, Vec<u32>) {
        let active = self.active_qubits();
        let new_to_old: Vec<u32> = active.iter().map(|q| q.index() as u32).collect();
        let mut old_to_new = vec![None; self.num_qubits];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old as usize] = Some(new as u32);
        }
        let mut out = Circuit::with_clbits(new_to_old.len(), self.num_clbits);
        for instr in &self.instrs {
            let qubits: Vec<Qubit> = instr
                .qubits
                .iter()
                .filter_map(|q| old_to_new[q.index()].map(Qubit::new))
                .collect();
            // Barriers/delays may reference only inactive qubits; drop them.
            if qubits.is_empty() {
                continue;
            }
            out.push(Instruction {
                kind: instr.kind.clone(),
                qubits,
            });
        }
        (out, new_to_old)
    }

    /// Histogram of gate mnemonics.
    pub fn count_ops(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for instr in &self.instrs {
            let name = match &instr.kind {
                OpKind::Gate(g) => g.name(),
                OpKind::Measure(_) => "measure",
                OpKind::Reset => "reset",
                OpKind::Delay(_) => "delay",
                OpKind::Barrier => "barrier",
            };
            *counts.entry(name).or_insert(0) += 1;
        }
        counts
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "qreg q[{}]; creg c[{}];",
            self.num_qubits, self.num_clbits
        )?;
        for instr in &self.instrs {
            writeln!(f, "{instr};")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).rz(0.5, 2).measure_all();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.len(), 7);
        assert_eq!(c.gate_count(), 4);
        let ops = c.count_ops();
        assert_eq!(ops["cx"], 2);
        assert_eq!(ops["measure"], 3);
    }

    #[test]
    fn depth_tracks_critical_path() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // parallel layer: depth 1
        assert_eq!(c.depth(), 1);
        c.cx(0, 1); // depth 2
        c.cx(1, 2); // depth 3
        assert_eq!(c.depth(), 3);
        c.x(0); // still depth 3 (q0 free at level 2)
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn out_of_range_qubit_rejected() {
        let mut c = Circuit::new(2);
        let err = c
            .try_push(Instruction::gate(Gate::X, vec![Qubit::new(5)]))
            .unwrap_err();
        assert!(matches!(
            err,
            CircuitError::QubitOutOfRange { qubit: 5, .. }
        ));
    }

    #[test]
    fn duplicate_operand_rejected() {
        let mut c = Circuit::new(2);
        let err = c
            .try_push(Instruction::gate(
                Gate::CX,
                vec![Qubit::new(1), Qubit::new(1)],
            ))
            .unwrap_err();
        assert!(matches!(err, CircuitError::DuplicateOperand { qubit: 1 }));
    }

    #[test]
    fn a_long_operand_list_reports_its_first_repeat() {
        let mut c = Circuit::new(4096);
        for len in [PAIRWISE_OPERANDS, PAIRWISE_OPERANDS + 1, 4096] {
            let mut qubits: Vec<Qubit> = (0..len as u32).rev().map(Qubit::new).collect();
            // Two repeats: the scan must name the earlier one.
            qubits.insert(len - 4, Qubit::new(9));
            qubits.push(Qubit::new(3));
            let err = c
                .try_push(Instruction {
                    kind: OpKind::Barrier,
                    qubits,
                })
                .unwrap_err();
            assert_eq!(
                err,
                CircuitError::DuplicateOperand { qubit: 9 },
                "len {len}"
            );
        }
        let wide: Vec<Qubit> = (0..4096).map(Qubit::new).collect();
        c.try_push(Instruction {
            kind: OpKind::Barrier,
            qubits: wide,
        })
        .expect("distinct operands");
    }

    #[test]
    fn wrong_arity_rejected() {
        let mut c = Circuit::new(3);
        let err = c
            .try_push(Instruction::gate(Gate::CX, vec![Qubit::new(0)]))
            .unwrap_err();
        assert!(matches!(
            err,
            CircuitError::WrongArity {
                gate: "cx",
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn measure_reset_and_delay_take_exactly_one_qubit() {
        let mut c = Circuit::new(3);
        for (kind, name) in [
            (OpKind::Measure(Clbit::new(0)), "measure"),
            (OpKind::Reset, "reset"),
            (OpKind::Delay(96.0), "delay"),
        ] {
            for qubits in [vec![], vec![Qubit::new(0), Qubit::new(1)]] {
                let actual = qubits.len();
                let err = c
                    .try_push(Instruction {
                        kind: kind.clone(),
                        qubits,
                    })
                    .unwrap_err();
                assert_eq!(
                    err,
                    CircuitError::WrongArity {
                        gate: name,
                        expected: 1,
                        actual
                    }
                );
            }
        }
        c.try_push(Instruction {
            kind: OpKind::Barrier,
            qubits: vec![],
        })
        .expect("a barrier takes any operand count");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clbit_out_of_range_rejected() {
        let mut c = Circuit::with_clbits(2, 1);
        assert!(c
            .try_push(Instruction {
                kind: OpKind::Measure(Clbit::new(1)),
                qubits: vec![Qubit::new(0)],
            })
            .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid instruction")]
    fn push_panics_on_invalid() {
        let mut c = Circuit::new(1);
        c.cx(0, 1);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1);
        let inv = c.inverse();
        let gates: Vec<Gate> = inv.iter().filter_map(|i| i.as_gate()).collect();
        assert_eq!(gates, vec![Gate::CX, Gate::Tdg, Gate::H]);
    }

    #[test]
    fn active_qubits_excludes_untouched() {
        let mut c = Circuit::new(5);
        c.h(1).cx(1, 3);
        c.barrier_all();
        let active = c.active_qubits();
        assert_eq!(active, vec![Qubit::new(1), Qubit::new(3)]);
    }

    #[test]
    fn display_is_qasm_like() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure(0, 0);
        let text = c.to_string();
        assert!(text.contains("h q[0];"));
        assert!(text.contains("cx q[0], q[1];"));
        assert!(text.contains("measure q[0] -> c[0];"));
    }

    #[test]
    fn compacted_drops_inactive_qubits() {
        let mut c = Circuit::new(10);
        c.h(2).cx(2, 7).measure(7, 3);
        let (small, map) = c.compacted();
        assert_eq!(small.num_qubits(), 2);
        assert_eq!(map, vec![2, 7]);
        assert_eq!(small.num_clbits(), 10);
        // Structure preserved on renamed qubits.
        assert_eq!(
            small.instructions()[1].qubits,
            vec![Qubit::new(0), Qubit::new(1)]
        );
        match small.instructions()[2].kind {
            OpKind::Measure(cl) => assert_eq!(cl.index(), 3),
            ref other => panic!("expected measure, got {other:?}"),
        }
    }

    #[test]
    fn compacted_preserves_barriers_on_active_qubits() {
        let mut c = Circuit::new(5);
        c.h(1).barrier_all().x(3);
        let (small, map) = c.compacted();
        assert_eq!(map, vec![1, 3]);
        // The barrier survives restricted to active qubits.
        let barriers: Vec<_> = small
            .iter()
            .filter(|i| matches!(i.kind, OpKind::Barrier))
            .collect();
        assert_eq!(barriers.len(), 1);
        assert_eq!(barriers[0].qubits.len(), 2);
    }
}
