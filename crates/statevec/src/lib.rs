//! # statevec — dense state-vector quantum simulator
//!
//! Exact simulation of pure states up to ~20 qubits. This crate is the
//! physical substrate of the reproduction: the noisy trajectory executor in
//! the `machine` crate drives a [`StateVector`] per Monte-Carlo trajectory,
//! and ideal (noise-free) reference outputs are produced by
//! [`run_ideal`]/[`ideal_distribution`].
//!
//! Qubit `k` is the `k`-th bit (little-endian) of the amplitude index.
//!
//! # Examples
//!
//! ```
//! use qcirc::Circuit;
//! use statevec::{ideal_distribution, StateVector};
//!
//! // Bell state: P(00) = P(11) = 1/2.
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1).measure_all();
//! let p = ideal_distribution(&c).unwrap();
//! assert!((p[&0b00] - 0.5).abs() < 1e-12);
//! assert!((p[&0b11] - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod density;
pub mod soa;

pub use density::DensityMatrix;
pub use soa::SoaStateVector;

use qcirc::math::{Mat2, Mat4, C64};
use qcirc::{Circuit, Counts, Instruction, OpKind, Qubit};
use rand::Rng;
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
    /// The provided amplitude vector is not a power-of-two length or is not
    /// normalized.
    InvalidAmplitudes,
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
            SimError::InvalidAmplitudes => write!(f, "invalid amplitude vector"),
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

/// Hard cap on register size (2^26 amplitudes = 1 GiB of `C64`).
pub const MAX_QUBITS: usize = 26;

/// A dense pure-state simulator over `n` qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics when `n > MAX_QUBITS`; use [`StateVector::try_new`] to handle
    /// that case gracefully.
    pub fn new(n: usize) -> Self {
        Self::try_new(n).expect("register too large")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] when the register exceeds
    /// [`MAX_QUBITS`].
    pub fn try_new(n: usize) -> Result<Self, SimError> {
        if n > MAX_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: n,
                limit: MAX_QUBITS,
            });
        }
        let mut amps = vec![C64::ZERO; 1 << n];
        amps[0] = C64::ONE;
        Ok(StateVector { n, amps })
    }

    /// Builds a state from explicit amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidAmplitudes`] unless the length is a power
    /// of two and the vector has unit norm (tolerance 1e-6).
    pub fn from_amplitudes(amps: Vec<C64>) -> Result<Self, SimError> {
        if !amps.len().is_power_of_two() {
            return Err(SimError::InvalidAmplitudes);
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if (norm - 1.0).abs() > 1e-6 {
            return Err(SimError::InvalidAmplitudes);
        }
        let n = amps.len().trailing_zeros() as usize;
        Ok(StateVector { n, amps })
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The raw amplitudes, little-endian indexed.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Amplitude of a computational basis state.
    pub fn amplitude(&self, basis: u64) -> C64 {
        self.amps[basis as usize]
    }

    fn check_qubit(&self, q: usize) -> Result<(), SimError> {
        if q >= self.n {
            Err(SimError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.n,
            })
        } else {
            Ok(())
        }
    }

    /// Applies a single-qubit unitary to qubit `q`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn apply1(&mut self, u: &Mat2, q: usize) -> Result<(), SimError> {
        self.check_qubit(q)?;
        let stride = 1usize << q;
        let (u00, u01, u10, u11) = (u.at(0, 0), u.at(0, 1), u.at(1, 0), u.at(1, 1));
        let len = self.amps.len();
        let mut base = 0;
        while base < len {
            for lo in base..base + stride {
                let hi = lo + stride;
                let a0 = self.amps[lo];
                let a1 = self.amps[hi];
                self.amps[lo] = u00 * a0 + u01 * a1;
                self.amps[hi] = u10 * a0 + u11 * a1;
            }
            base += stride << 1;
        }
        Ok(())
    }

    /// Applies a two-qubit unitary; `q0` indexes the low bit of the 4×4
    /// basis (the convention of [`qcirc::Gate::unitary2`], where the first
    /// gate operand — e.g. the CX control — is the low bit).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand and
    /// [`SimError::DuplicateOperand`] when `q0 == q1`.
    pub fn apply2(&mut self, u: &Mat4, q0: usize, q1: usize) -> Result<(), SimError> {
        self.check_qubit(q0)?;
        self.check_qubit(q1)?;
        check_distinct(q0, q1)?;
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let len = self.amps.len();
        for idx in 0..len {
            // Process each group of 4 once, anchored at the index with both
            // bits clear.
            if idx & b0 != 0 || idx & b1 != 0 {
                continue;
            }
            let i00 = idx;
            let i01 = idx | b0; // q0 = 1
            let i10 = idx | b1; // q1 = 1
            let i11 = idx | b0 | b1;
            let v = [
                self.amps[i00],
                self.amps[i01],
                self.amps[i10],
                self.amps[i11],
            ];
            let w = u.mul_vec(v);
            self.amps[i00] = w[0];
            self.amps[i01] = w[1];
            self.amps[i10] = w[2];
            self.amps[i11] = w[3];
        }
        Ok(())
    }

    /// Probability that qubit `q` measures as 1.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn prob_one(&self, q: usize) -> Result<f64, SimError> {
        self.check_qubit(q)?;
        let bit = 1usize << q;
        Ok(self
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum())
    }

    /// Projectively measures qubit `q`, collapsing the state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Result<bool, SimError> {
        let p1 = self.prob_one(q)?;
        let outcome = rng.gen::<f64>() < p1;
        self.collapse(q, outcome)?;
        Ok(outcome)
    }

    /// Forces qubit `q` into the given outcome, renormalizing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn collapse(&mut self, q: usize, outcome: bool) -> Result<(), SimError> {
        self.check_qubit(q)?;
        let bit = 1usize << q;
        let mut norm = 0.0;
        for (i, a) in self.amps.iter_mut().enumerate() {
            if ((i & bit) != 0) != outcome {
                *a = C64::ZERO;
            } else {
                norm += a.norm_sqr();
            }
        }
        if norm > 0.0 {
            let s = 1.0 / norm.sqrt();
            for a in &mut self.amps {
                *a = a.scale(s);
            }
        }
        Ok(())
    }

    /// Resets qubit `q` to `|0⟩` (measure + conditional X, as hardware does).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Result<(), SimError> {
        let outcome = self.measure(q, rng)?;
        if outcome {
            self.apply1(&qcirc::Gate::X.unitary1().expect("X is 1q"), q)?;
        }
        Ok(())
    }

    /// Samples a full-register computational-basis outcome *without*
    /// collapsing the state (independent shots from the same state).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, a) in self.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                return i as u64;
            }
        }
        (self.amps.len() - 1) as u64
    }

    /// The probability of each basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// `|⟨other|self⟩|²`.
    ///
    /// # Panics
    ///
    /// Panics when register sizes differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n, other.n, "fidelity needs equal register sizes");
        let mut ip = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            ip += b.conj() * *a;
        }
        ip.norm_sqr()
    }

    /// ⟨Z⟩ on qubit `q`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn expectation_z(&self, q: usize) -> Result<f64, SimError> {
        Ok(1.0 - 2.0 * self.prob_one(q)?)
    }

    /// Renormalizes to unit norm (guards against floating-point drift in
    /// long trajectories).
    pub fn normalize(&mut self) {
        let norm: f64 = self.amps.iter().map(|a| a.norm_sqr()).sum();
        if norm > 0.0 {
            let s = 1.0 / norm.sqrt();
            for a in &mut self.amps {
                *a = a.scale(s);
            }
        }
    }

    /// Applies one circuit instruction. Measurements record into `clbits`
    /// (a little-endian bit accumulator); delays and barriers are ignored —
    /// noise-free evolution is trivial under idling.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for bad operands.
    pub fn apply_instruction<R: Rng + ?Sized>(
        &mut self,
        instr: &Instruction,
        clbits: &mut u64,
        rng: &mut R,
    ) -> Result<(), SimError> {
        match &instr.kind {
            OpKind::Gate(g) => {
                let qs: Vec<usize> = instr.qubits.iter().map(|q| Qubit::index(*q)).collect();
                if let Some(u) = g.unitary1() {
                    self.apply1(&u, qs[0])?;
                } else if let Some(u) = g.unitary2() {
                    self.apply2(&u, qs[0], qs[1])?;
                }
            }
            OpKind::Measure(c) => {
                let outcome = self.measure(instr.qubits[0].index(), rng)?;
                let bit = 1u64 << c.index();
                if outcome {
                    *clbits |= bit;
                } else {
                    *clbits &= !bit;
                }
            }
            OpKind::Reset => {
                self.reset(instr.qubits[0].index(), rng)?;
            }
            OpKind::Delay(_) | OpKind::Barrier => {}
        }
        Ok(())
    }
}

/// Runs a circuit noise-free from `|0…0⟩` and returns the pre-measurement
/// state (measurements and resets are skipped — use [`sample_counts`] for
/// sampled outcomes, or [`ideal_distribution`] for exact outcome
/// probabilities).
///
/// # Errors
///
/// Returns a [`SimError`] when the register is too large or an operand is
/// out of range.
pub fn run_ideal(circuit: &Circuit) -> Result<StateVector, SimError> {
    let mut sv = StateVector::try_new(circuit.num_qubits())?;
    for instr in circuit.iter() {
        if let OpKind::Gate(g) = &instr.kind {
            let qs: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
            if let Some(u) = g.unitary1() {
                sv.apply1(&u, qs[0])?;
            } else if let Some(u) = g.unitary2() {
                sv.apply2(&u, qs[0], qs[1])?;
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

/// Samples `shots` noise-free measurement outcomes of a circuit.
///
/// Mid-circuit measurements and resets are honored per shot (each shot
/// replays the circuit); for measurement-terminated circuits this matches
/// sampling from [`ideal_distribution`].
///
/// # Errors
///
/// Returns a [`SimError`] when the register is too large or an operand is
/// out of range.
pub fn sample_counts<R: Rng + ?Sized>(
    circuit: &Circuit,
    shots: u64,
    rng: &mut R,
) -> Result<Counts, SimError> {
    let has_collapse = circuit
        .iter()
        .any(|i| matches!(i.kind, OpKind::Measure(_) | OpKind::Reset));
    let mut counts = Counts::new(circuit.num_clbits());
    if !has_collapse {
        counts.record_many(0, shots);
        return Ok(counts);
    }
    // Fast path: all measurements are terminal (no gate follows any measure
    // on the same qubit, no resets). Then one state suffices and shots are
    // independent samples.
    if is_measurement_terminated(circuit) {
        let dist = ideal_distribution(circuit)?;
        let outcomes: Vec<u64> = dist.keys().copied().collect();
        let cdf: Vec<f64> = dist
            .values()
            .scan(0.0, |acc, p| {
                *acc += p;
                Some(*acc)
            })
            .collect();
        for _ in 0..shots {
            let r: f64 = rng.gen();
            let idx = cdf.partition_point(|&c| c < r).min(outcomes.len() - 1);
            counts.record(outcomes[idx]);
        }
        return Ok(counts);
    }
    for _ in 0..shots {
        let mut sv = StateVector::try_new(circuit.num_qubits())?;
        let mut clbits = 0u64;
        for instr in circuit.iter() {
            sv.apply_instruction(instr, &mut clbits, rng)?;
        }
        counts.record(clbits);
    }
    Ok(counts)
}

/// True when no gate/reset acts on a qubit after it has been measured — the
/// common benchmark shape, which admits fast independent-shot sampling.
pub fn is_measurement_terminated(circuit: &Circuit) -> bool {
    let mut measured = vec![false; circuit.num_qubits()];
    for instr in circuit.iter() {
        match instr.kind {
            OpKind::Measure(_) => measured[instr.qubits[0].index()] = true,
            OpKind::Gate(_) | OpKind::Reset => {
                if instr.qubits.iter().any(|q| measured[q.index()]) {
                    return false;
                }
            }
            OpKind::Delay(_) | OpKind::Barrier => {}
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xADA9_7001)
    }

    #[test]
    fn initial_state_is_zero_ket() {
        let sv = StateVector::new(3);
        assert!(sv.amplitude(0).approx_eq(C64::ONE, 1e-12));
        for i in 1..8 {
            assert!(sv.amplitude(i).approx_eq(C64::ZERO, 1e-12));
        }
    }

    #[test]
    fn too_many_qubits_rejected() {
        assert!(matches!(
            StateVector::try_new(MAX_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    #[test]
    fn x_flips_correct_qubit() {
        let mut sv = StateVector::new(3);
        sv.apply1(&Gate::X.unitary1().unwrap(), 1).unwrap();
        assert!(sv.amplitude(0b010).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn hadamard_gives_uniform_superposition() {
        let mut sv = StateVector::new(2);
        sv.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        sv.apply1(&Gate::H.unitary1().unwrap(), 1).unwrap();
        for p in sv.probabilities() {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn cx_entangles_bell_state() {
        let mut sv = StateVector::new(2);
        sv.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        sv.apply2(&Gate::CX.unitary2().unwrap(), 0, 1).unwrap();
        let p = sv.probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-12);
        assert!((p[0b11] - 0.5).abs() < 1e-12);
        assert!(p[0b01] < 1e-12 && p[0b10] < 1e-12);
    }

    #[test]
    fn cx_respects_control_orientation() {
        // Control = qubit 1 (first operand maps to low bit of the unitary).
        let mut sv = StateVector::new(2);
        sv.apply1(&Gate::X.unitary1().unwrap(), 1).unwrap(); // |10⟩
        sv.apply2(&Gate::CX.unitary2().unwrap(), 1, 0).unwrap();
        // control q1=1 → target q0 flips → |11⟩
        assert!(sv.amplitude(0b11).approx_eq(C64::ONE, 1e-12));

        let mut sv = StateVector::new(2);
        sv.apply1(&Gate::X.unitary1().unwrap(), 0).unwrap(); // |01⟩
        sv.apply2(&Gate::CX.unitary2().unwrap(), 1, 0).unwrap();
        // control q1=0 → nothing happens
        assert!(sv.amplitude(0b01).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut sv = StateVector::new(2);
        sv.apply1(&Gate::X.unitary1().unwrap(), 0).unwrap(); // |01⟩
        sv.apply2(&Gate::Swap.unitary2().unwrap(), 0, 1).unwrap();
        assert!(sv.amplitude(0b10).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn nonadjacent_two_qubit_gate() {
        let mut sv = StateVector::new(4);
        sv.apply1(&Gate::X.unitary1().unwrap(), 0).unwrap();
        sv.apply2(&Gate::CX.unitary2().unwrap(), 0, 3).unwrap();
        assert!(sv.amplitude(0b1001).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn measurement_collapses_and_is_consistent() {
        let mut r = rng();
        let mut ones = 0;
        for _ in 0..200 {
            let mut sv = StateVector::new(1);
            sv.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
            let m1 = sv.measure(0, &mut r).unwrap();
            let m2 = sv.measure(0, &mut r).unwrap();
            assert_eq!(m1, m2, "repeated measurement must agree");
            ones += m1 as u32;
        }
        assert!((50..150).contains(&ones), "H should be ~50/50, got {ones}");
    }

    #[test]
    fn collapse_renormalizes() {
        let mut sv = StateVector::new(2);
        sv.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        sv.apply2(&Gate::CX.unitary2().unwrap(), 0, 1).unwrap();
        sv.collapse(0, true).unwrap();
        assert!(sv.amplitude(0b11).norm_sqr() > 1.0 - 1e-9);
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut r = rng();
        for _ in 0..20 {
            let mut sv = StateVector::new(1);
            sv.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
            sv.reset(0, &mut r).unwrap();
            assert!((sv.prob_one(0).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn sample_matches_distribution() {
        let mut sv = StateVector::new(2);
        sv.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        sv.apply2(&Gate::CX.unitary2().unwrap(), 0, 1).unwrap();
        let mut r = rng();
        let mut histo = [0u32; 4];
        for _ in 0..2000 {
            histo[sv.sample(&mut r) as usize] += 1;
        }
        assert_eq!(histo[1], 0);
        assert_eq!(histo[2], 0);
        assert!(histo[0] > 800 && histo[3] > 800);
    }

    #[test]
    fn fidelity_of_equal_and_orthogonal_states() {
        let a = StateVector::new(2);
        let mut b = StateVector::new(2);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
        b.apply1(&Gate::X.unitary1().unwrap(), 0).unwrap();
        assert!(a.fidelity(&b) < 1e-12);
    }

    #[test]
    fn expectation_z_tracks_rotation() {
        let mut sv = StateVector::new(1);
        assert!((sv.expectation_z(0).unwrap() - 1.0).abs() < 1e-12);
        sv.apply1(&Gate::RY(std::f64::consts::PI / 3.0).unitary1().unwrap(), 0)
            .unwrap();
        // ⟨Z⟩ = cos(θ)
        assert!((sv.expectation_z(0).unwrap() - 0.5).abs() < 1e-9);
    }

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

    #[test]
    fn sample_counts_bell_statistics() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let counts = sample_counts(&c, 4000, &mut rng()).unwrap();
        assert_eq!(counts.total(), 4000);
        assert_eq!(counts.get(0b01), 0);
        assert_eq!(counts.get(0b10), 0);
        let p00 = counts.probability(0b00);
        assert!((p00 - 0.5).abs() < 0.05, "p00 = {p00}");
    }

    #[test]
    fn mid_circuit_measurement_slow_path() {
        // Measure then act: forces per-shot replay.
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0).x(0);
        assert!(!is_measurement_terminated(&c));
        let counts = sample_counts(&c, 500, &mut rng()).unwrap();
        assert_eq!(counts.total(), 500);
        // Outcome records the pre-X measurement: still ~50/50.
        assert!(counts.get(0) > 150 && counts.get(1) > 150);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let a = sample_counts(&c, 100, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = sample_counts(&c, 100, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_amplitudes_validation() {
        assert!(StateVector::from_amplitudes(vec![C64::ONE; 3]).is_err());
        assert!(StateVector::from_amplitudes(vec![C64::ONE, C64::ONE]).is_err());
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let sv = StateVector::from_amplitudes(vec![C64::real(s), C64::real(s)]).unwrap();
        assert_eq!(sv.num_qubits(), 1);
    }

    #[test]
    fn rz_phases_cancel_in_echo() {
        // The physics ADAPT relies on: RZ(φ) · X · RZ(φ) · X = identity up
        // to phase (spin echo). Verify on |+⟩.
        let h = Gate::H.unitary1().unwrap();
        let x = Gate::X.unitary1().unwrap();
        let rz = Gate::RZ(0.8).unitary1().unwrap();
        let mut sv = StateVector::new(1);
        sv.apply1(&h, 0).unwrap();
        let reference = sv.clone();
        sv.apply1(&rz, 0).unwrap();
        sv.apply1(&x, 0).unwrap();
        sv.apply1(&rz, 0).unwrap();
        sv.apply1(&x, 0).unwrap();
        assert!((sv.fidelity(&reference) - 1.0).abs() < 1e-10);
        // Without the echo, fidelity degrades.
        let mut free = reference.clone();
        free.apply1(&rz, 0).unwrap();
        free.apply1(&rz, 0).unwrap();
        assert!(free.fidelity(&reference) < 0.98);
    }
}
