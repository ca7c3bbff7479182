//! # benchmarks — NISQ workload generators
//!
//! The quantum programs of the ADAPT evaluation (Table 4): Bernstein–
//! Vazirani, Quantum Fourier Transform, QAOA (MaxCut), a ripple adder and
//! Quantum Phase Estimation — plus the single-qubit characterization
//! probes of §3 (free evolution vs DD, with and without concurrent
//! CNOTs).
//!
//! All generators produce logical [`Circuit`]s ready for the transpiler;
//! inputs are chosen so every benchmark has a classically-known ideal
//! output (the QFT benchmarks apply the *inverse* QFT to a synthesized
//! phase state, so the correct answer is a single basis state).
//!
//! # Examples
//!
//! ```
//! use benchmarks::{bernstein_vazirani, qft_bench};
//!
//! let bv = bernstein_vazirani(5, 0b1011);
//! assert_eq!(bv.num_qubits(), 5);
//! let dist = statevec::ideal_distribution(&bv).unwrap();
//! assert!((dist[&0b1011] - 1.0).abs() < 1e-9); // answer is the secret
//!
//! let qft = qft_bench(4, 6);
//! let dist = statevec::ideal_distribution(&qft).unwrap();
//! assert!((dist[&6] - 1.0).abs() < 1e-9); // peaked at k
//! ```

#![warn(missing_docs)]

pub mod characterization;
pub mod suite;

pub use suite::{paper_suite, table1_suite, BenchmarkSpec};

use qcirc::Circuit;
use std::f64::consts::PI;

/// Bernstein–Vazirani over `n` qubits (qubit `n−1` is the ancilla); the
/// measured answer is `secret` deterministically.
///
/// # Panics
///
/// Panics when `n < 2` or the secret does not fit in `n−1` bits.
pub fn bernstein_vazirani(n: usize, secret: u64) -> Circuit {
    assert!(n >= 2, "BV needs a data qubit and an ancilla");
    let data = (n - 1) as u32;
    assert!(
        secret < (1 << data),
        "secret {secret:#b} does not fit in {data} bits"
    );
    let mut c = Circuit::new(n);
    let anc = data;
    c.x(anc).h(anc);
    for q in 0..data {
        c.h(q);
    }
    for q in 0..data {
        if secret >> q & 1 == 1 {
            c.cx(q, anc);
        }
    }
    for q in 0..data {
        c.h(q);
    }
    for q in 0..data {
        c.measure(q, q);
    }
    c
}

/// Controlled phase gate `CP(λ)` on (control, target) via the standard
/// {P, CX} decomposition.
pub fn cp(c: &mut Circuit, lambda: f64, a: u32, b: u32) {
    c.p(lambda / 2.0, a);
    c.cx(a, b);
    c.p(-lambda / 2.0, b);
    c.cx(a, b);
    c.p(lambda / 2.0, b);
}

/// In-place quantum Fourier transform on qubits `0..n` (no terminal
/// qubit-reversal SWAPs; bit order is handled by the callers).
pub fn qft_rotations(c: &mut Circuit, n: u32, inverse: bool) {
    let sign = if inverse { -1.0 } else { 1.0 };
    if inverse {
        for i in 0..n {
            c.h(i);
            for j in (i + 1)..n {
                cp(c, sign * PI / (1u64 << (j - i)) as f64, j, i);
            }
        }
    } else {
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                cp(c, sign * PI / (1u64 << (j - i)) as f64, j, i);
            }
            c.h(i);
        }
    }
}

/// QFT benchmark with a deterministic answer: synthesizes the Fourier
/// phase state of `k` (H layer + phase ramps), then applies the inverse
/// QFT, so the ideal measurement outcome is exactly `k`.
///
/// Different `k` values play the role of the paper's A/B input-state
/// variants (QFT-6A vs QFT-6B etc.).
///
/// # Panics
///
/// Panics when `k` does not fit in `n` bits.
pub fn qft_bench(n: usize, k: u64) -> Circuit {
    assert!(k < (1u64 << n), "k={k} does not fit in {n} bits");
    let n32 = n as u32;
    let mut c = Circuit::new(n);
    // Phase state: (1/√2^n) Σ_x e^{2πi k x / 2^n} |x⟩, with x read in the
    // same bit order the inverse QFT expects.
    for q in 0..n32 {
        c.h(q);
        // Bit-reversed phase assignment matches the swap-free inverse QFT.
        let angle = 2.0 * PI * (k as f64) * (1u64 << (n32 - 1 - q)) as f64 / (1u64 << n) as f64;
        c.p(angle, q);
    }
    qft_rotations(&mut c, n32, true);
    c.measure_all();
    c
}

/// One-layer QAOA for MaxCut on the given edge list: `H` wall, a
/// `ZZ(2γ)` block per edge, an `RX(2β)` mixer, measurement.
pub fn qaoa_maxcut(
    n: usize,
    edges: &[(u32, u32)],
    gamma: f64,
    beta: f64,
    layers: usize,
) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n as u32 {
        c.h(q);
    }
    for _ in 0..layers {
        for &(a, b) in edges {
            c.cx(a, b);
            c.rz(2.0 * gamma, b);
            c.cx(a, b);
        }
        for q in 0..n as u32 {
            c.rx(2.0 * beta, q);
        }
    }
    c.measure_all();
    c
}

/// Ring graph `0–1–…–(n−1)–0`.
pub fn ring_edges(n: usize) -> Vec<(u32, u32)> {
    (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect()
}

/// Denser deterministic graph: the ring plus chords at stride 2.
pub fn chorded_edges(n: usize) -> Vec<(u32, u32)> {
    let mut e = ring_edges(n);
    for i in (0..n as u32).step_by(2) {
        let j = (i + 2) % n as u32;
        let key = (i.min(j), i.max(j));
        if i != j && !e.contains(&key) && !e.contains(&(key.1, key.0)) {
            e.push(key);
        }
    }
    e
}

/// Toffoli (CCX) via the textbook Clifford+T decomposition (controls
/// `a`, `b`; target `c`).
pub fn toffoli(circ: &mut Circuit, a: u32, b: u32, c: u32) {
    circ.h(c);
    circ.cx(b, c);
    circ.tdg(c);
    circ.cx(a, c);
    circ.t(c);
    circ.cx(b, c);
    circ.tdg(c);
    circ.cx(a, c);
    circ.t(b);
    circ.t(c);
    circ.h(c);
    circ.cx(a, b);
    circ.t(a);
    circ.tdg(b);
    circ.cx(a, b);
}

/// 4-qubit full adder computing `cin + a + b`: the sum lands on qubit 2,
/// the carry on qubit 3. Inputs are baked in with X gates so the ideal
/// output is deterministic.
///
/// Layout: q0 = a, q1 = b, q2 = cin/sum, q3 = carry-out.
pub fn adder4(a_in: bool, b_in: bool, cin: bool) -> Circuit {
    let mut c = Circuit::new(4);
    if a_in {
        c.x(0);
    }
    if b_in {
        c.x(1);
    }
    if cin {
        c.x(2);
    }
    // carry-out accumulates majority(a, b, cin)
    toffoli(&mut c, 0, 1, 3);
    c.cx(0, 1);
    toffoli(&mut c, 1, 2, 3);
    // sum = a ⊕ b ⊕ cin
    c.cx(1, 2);
    // restore b
    c.cx(0, 1);
    c.measure_all();
    c
}

/// GHZ state preparation over `n` qubits: H then a CNOT chain. Output is
/// an even mixture of all-zeros and all-ones — a standard entanglement
/// witness workload (extension beyond the paper's Table 4).
pub fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..(n - 1) as u32 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    c
}

/// Quantum phase estimation with `n−1` counting qubits reading out the
/// phase of `P(2π·phase_num/2^{n−1})` applied to the `|1⟩` eigenstate on
/// qubit `n−1`. The ideal answer is `phase_num` on the counting register.
///
/// # Panics
///
/// Panics when `n < 2` or `phase_num` does not fit in the counting
/// register.
pub fn qpe(n: usize, phase_num: u64) -> Circuit {
    assert!(n >= 2);
    let counting = (n - 1) as u32;
    assert!(phase_num < (1 << counting));
    let phase = 2.0 * PI * phase_num as f64 / (1u64 << counting) as f64;
    let mut c = Circuit::new(n);
    let eigen = counting;
    c.x(eigen); // |1⟩ eigenstate of P(φ)
    for q in 0..counting {
        c.h(q);
    }
    for q in 0..counting {
        // controlled-P(φ·2^{n−1−q}): bit-reversed to match the swap-free
        // inverse QFT that follows.
        let angle = phase * (1u64 << (counting - 1 - q)) as f64;
        cp(&mut c, angle, q, eigen);
    }
    qft_rotations(&mut c, counting, true);
    for q in 0..counting {
        c.measure(q, q);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use statevec::ideal_distribution;

    #[test]
    fn bv_answers_its_secret() {
        for (n, secret) in [(4, 0b101u64), (6, 0b11011), (8, 0b1010101)] {
            let c = bernstein_vazirani(n, secret);
            let d = ideal_distribution(&c).unwrap();
            assert_eq!(d.len(), 1, "BV must be deterministic");
            assert!((d[&secret] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn bv_rejects_oversized_secret() {
        bernstein_vazirani(3, 0b100);
    }

    #[test]
    fn qft_bench_peaks_at_k() {
        for n in [3usize, 4, 5, 6] {
            for k in [0u64, 1, (1 << n) - 1, (1 << n) / 3] {
                let c = qft_bench(n, k);
                let d = ideal_distribution(&c).unwrap();
                let p = d.get(&k).copied().unwrap_or(0.0);
                assert!(p > 1.0 - 1e-9, "qft_bench({n},{k}) p={p}");
            }
        }
    }

    #[test]
    fn qft_forward_then_inverse_is_identity() {
        let mut c = Circuit::new(4);
        c.x(0).x(2); // little-endian |0101⟩ = index 5
        qft_rotations(&mut c, 4, false);
        qft_rotations(&mut c, 4, true);
        c.measure_all();
        let d = ideal_distribution(&c).unwrap();
        assert!((d[&0b0101] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cp_matches_diagonal_phase() {
        // CP(λ) adds e^{iλ} only on |11⟩; read the phase off the
        // superposition amplitudes directly.
        use qcirc::math::C64;
        let lambda = 1.234;
        let mut c = Circuit::new(2);
        c.x(1);
        c.h(0);
        cp(&mut c, lambda, 0, 1);
        let sv = statevec::run_ideal(&c).unwrap();
        let a01 = sv.amplitude(0b10); // q1=1, q0=0
        let a11 = sv.amplitude(0b11);
        let ratio = a11 / a01;
        assert!(ratio.approx_eq(C64::cis(lambda), 1e-9), "ratio {ratio}");
    }

    #[test]
    fn qaoa_distribution_favors_maxcut_solutions() {
        // Ring of 4: optimal cuts are the alternating colorings 0101/1010.
        let c = qaoa_maxcut(4, &ring_edges(4), 0.4, 0.7, 1);
        let d = ideal_distribution(&c).unwrap();
        let p_best =
            d.get(&0b0101).copied().unwrap_or(0.0) + d.get(&0b1010).copied().unwrap_or(0.0);
        assert!(p_best > 2.0 / 16.0, "maxcut states underweighted: {p_best}");
    }

    #[test]
    fn qaoa_output_normalized_and_symmetric() {
        let c = qaoa_maxcut(5, &ring_edges(5), 0.7, 0.2, 2);
        let d = ideal_distribution(&c).unwrap();
        let total: f64 = d.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Z2 symmetry of MaxCut: p(x) = p(~x).
        for (&k, &p) in &d {
            let flipped = !k & 0b11111;
            let q = d.get(&flipped).copied().unwrap_or(0.0);
            assert!((p - q).abs() < 1e-9, "asymmetry at {k}");
        }
    }

    #[test]
    fn toffoli_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                let mut c = Circuit::new(3);
                if a {
                    c.x(0);
                }
                if b {
                    c.x(1);
                }
                toffoli(&mut c, 0, 1, 2);
                c.measure_all();
                let d = ideal_distribution(&c).unwrap();
                let expected = (a as u64) | (b as u64) << 1 | ((a && b) as u64) << 2;
                assert!(
                    (d.get(&expected).copied().unwrap_or(0.0) - 1.0).abs() < 1e-9,
                    "a={a} b={b}: {d:?}"
                );
            }
        }
    }

    #[test]
    fn adder_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                for cin in [false, true] {
                    let c = adder4(a, b, cin);
                    let d = ideal_distribution(&c).unwrap();
                    assert_eq!(d.len(), 1, "adder must be deterministic");
                    let (&out, _) = d.iter().next().unwrap();
                    let sum = out >> 2 & 1;
                    let carry = out >> 3 & 1;
                    let total = a as u64 + b as u64 + cin as u64;
                    assert_eq!(sum, total & 1, "sum wrong for {a}{b}{cin}");
                    assert_eq!(carry, total >> 1, "carry wrong for {a}{b}{cin}");
                }
            }
        }
    }

    #[test]
    fn qpe_recovers_phase() {
        for phase_num in [1u64, 5, 11] {
            let c = qpe(5, phase_num);
            let d = ideal_distribution(&c).unwrap();
            let p = d.get(&phase_num).copied().unwrap_or(0.0);
            assert!(p > 1.0 - 1e-9, "qpe(5,{phase_num}): p={p}");
        }
    }

    #[test]
    fn ghz_is_an_even_cat_state() {
        for n in [2usize, 5, 8] {
            let d = ideal_distribution(&ghz(n)).unwrap();
            assert_eq!(d.len(), 2);
            assert!((d[&0] - 0.5).abs() < 1e-9);
            assert!((d[&((1u64 << n) - 1)] - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn graph_generators_are_well_formed() {
        let ring = ring_edges(6);
        assert_eq!(ring.len(), 6);
        let chorded = chorded_edges(8);
        assert!(chorded.len() > 8);
        for &(a, b) in &chorded {
            assert_ne!(a, b);
            assert!(a < 8 && b < 8);
        }
    }
}
