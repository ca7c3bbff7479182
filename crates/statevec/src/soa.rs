//! The dense state vector: split re/im storage and structured kernels.
//!
//! [`SoaStateVector`] keeps the real and imaginary parts of the amplitudes
//! in two separate `f64` arrays (structure of arrays), so gate kernels
//! compile to straight-line scalar-f64 arithmetic over contiguous slices —
//! the shape LLVM vectorizes reliably. Besides the general 1q and 2q
//! kernels it has specialized ones for the structured matrices that
//! dominate transpiled circuits:
//!
//! - diagonal 1q (RZ, Z, S, phase products): two scaled passes, no
//!   cross terms;
//! - anti-diagonal 1q (X, Y and their diagonal products): a scaled swap;
//! - CX / CZ / SWAP 2q: pure permutations/sign flips, no matrix math.
//!
//! The general kernels round exactly like the `C64` matrix–vector product
//! (`Mat2 * [C64; 2]`, [`Mat4::mul_vec`]): each output amplitude is a sum
//! of complex products `(m·a) + (m'·b) …`, added left to right. Ideal
//! reference distributions ([`run_ideal`](crate::run_ideal)) and the
//! pinned replay digests depend on that order. Measurement and sampling
//! consume exactly one uniform draw each.

use crate::{check_distinct, SimError, MAX_QUBITS};
use qcirc::math::{Mat2, Mat4, C64};
use rand::Rng;

/// A dense pure-state simulator with split re/im storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaStateVector {
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl SoaStateVector {
    /// Creates the all-zeros state `|0…0⟩`.
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
        let mut re = vec![0.0; 1 << n];
        let im = vec![0.0; 1 << n];
        re[0] = 1.0;
        Ok(SoaStateVector { n, re, im })
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Amplitude of a computational basis state.
    pub fn amplitude(&self, basis: u64) -> C64 {
        C64::new(self.re[basis as usize], self.im[basis as usize])
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

    /// Applies a general single-qubit unitary to qubit `q`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn apply1(&mut self, u: &Mat2, q: usize) -> Result<(), SimError> {
        self.check_qubit(q)?;
        let s = 1usize << q;
        let (m00, m01, m10, m11) = (u.at(0, 0), u.at(0, 1), u.at(1, 0), u.at(1, 1));
        for (rc, ic) in self
            .re
            .chunks_exact_mut(2 * s)
            .zip(self.im.chunks_exact_mut(2 * s))
        {
            let (rlo, rhi) = rc.split_at_mut(s);
            let (ilo, ihi) = ic.split_at_mut(s);
            for (((ar, ai), br), bi) in rlo
                .iter_mut()
                .zip(ilo.iter_mut())
                .zip(rhi.iter_mut())
                .zip(ihi.iter_mut())
            {
                let (a_r, a_i, b_r, b_i) = (*ar, *ai, *br, *bi);
                // `(m00·a) + (m01·b)`, grouped as the `C64` product.
                *ar = (m00.re * a_r - m00.im * a_i) + (m01.re * b_r - m01.im * b_i);
                *ai = (m00.re * a_i + m00.im * a_r) + (m01.re * b_i + m01.im * b_r);
                *br = (m10.re * a_r - m10.im * a_i) + (m11.re * b_r - m11.im * b_i);
                *bi = (m10.re * a_i + m10.im * a_r) + (m11.re * b_i + m11.im * b_r);
            }
        }
        Ok(())
    }

    /// Applies `diag(d0, d1)` to qubit `q` — two scaled passes with no
    /// cross terms.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn apply_diag1(&mut self, d0: C64, d1: C64, q: usize) -> Result<(), SimError> {
        self.check_qubit(q)?;
        let s = 1usize << q;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(2 * s)
            .zip(self.im.chunks_exact_mut(2 * s))
        {
            let (rlo, rhi) = rc.split_at_mut(s);
            let (ilo, ihi) = ic.split_at_mut(s);
            for (ar, ai) in rlo.iter_mut().zip(ilo.iter_mut()) {
                let (a_r, a_i) = (*ar, *ai);
                *ar = d0.re * a_r - d0.im * a_i;
                *ai = d0.re * a_i + d0.im * a_r;
            }
            for (br, bi) in rhi.iter_mut().zip(ihi.iter_mut()) {
                let (b_r, b_i) = (*br, *bi);
                *br = d1.re * b_r - d1.im * b_i;
                *bi = d1.re * b_i + d1.im * b_r;
            }
        }
        Ok(())
    }

    /// Applies the anti-diagonal unitary `[[0, a01], [a10, 0]]` to qubit
    /// `q` — a scaled swap of the two half-blocks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn apply_antidiag1(&mut self, a01: C64, a10: C64, q: usize) -> Result<(), SimError> {
        self.check_qubit(q)?;
        let s = 1usize << q;
        for (rc, ic) in self
            .re
            .chunks_exact_mut(2 * s)
            .zip(self.im.chunks_exact_mut(2 * s))
        {
            let (rlo, rhi) = rc.split_at_mut(s);
            let (ilo, ihi) = ic.split_at_mut(s);
            for (((ar, ai), br), bi) in rlo
                .iter_mut()
                .zip(ilo.iter_mut())
                .zip(rhi.iter_mut())
                .zip(ihi.iter_mut())
            {
                let (a_r, a_i, b_r, b_i) = (*ar, *ai, *br, *bi);
                *ar = a01.re * b_r - a01.im * b_i;
                *ai = a01.re * b_i + a01.im * b_r;
                *br = a10.re * a_r - a10.im * a_i;
                *bi = a10.re * a_i + a10.im * a_r;
            }
        }
        Ok(())
    }

    /// Applies a general two-qubit unitary; `q0` is the low bit of the
    /// 4×4 basis (the [`qcirc::Gate::unitary2`] convention: the first
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
        for idx in 0..self.re.len() {
            if idx & b0 != 0 || idx & b1 != 0 {
                continue;
            }
            let is = [idx, idx | b0, idx | b1, idx | b0 | b1];
            let v = [
                C64::new(self.re[is[0]], self.im[is[0]]),
                C64::new(self.re[is[1]], self.im[is[1]]),
                C64::new(self.re[is[2]], self.im[is[2]]),
                C64::new(self.re[is[3]], self.im[is[3]]),
            ];
            let w = u.mul_vec(v);
            for (k, &i) in is.iter().enumerate() {
                self.re[i] = w[k].re;
                self.im[i] = w[k].im;
            }
        }
        Ok(())
    }

    /// CX with control `c` and target `t`: a conditional amplitude swap,
    /// no matrix arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand and
    /// [`SimError::DuplicateOperand`] when `c == t`.
    pub fn apply_cx(&mut self, c: usize, t: usize) -> Result<(), SimError> {
        self.check_qubit(c)?;
        self.check_qubit(t)?;
        check_distinct(c, t)?;
        let cb = 1usize << c;
        let tb = 1usize << t;
        for idx in 0..self.re.len() {
            if idx & cb != 0 && idx & tb == 0 {
                self.re.swap(idx, idx | tb);
                self.im.swap(idx, idx | tb);
            }
        }
        Ok(())
    }

    /// CZ on `(a, b)`: negates amplitudes with both bits set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand and
    /// [`SimError::DuplicateOperand`] when `a == b`.
    pub fn apply_cz(&mut self, a: usize, b: usize) -> Result<(), SimError> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        check_distinct(a, b)?;
        let mask = (1usize << a) | (1usize << b);
        for idx in 0..self.re.len() {
            if idx & mask == mask {
                self.re[idx] = -self.re[idx];
                self.im[idx] = -self.im[idx];
            }
        }
        Ok(())
    }

    /// SWAP on `(a, b)`: exchanges the `a=1,b=0` and `a=0,b=1` blocks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand and
    /// [`SimError::DuplicateOperand`] when `a == b`.
    pub fn apply_swap(&mut self, a: usize, b: usize) -> Result<(), SimError> {
        self.check_qubit(a)?;
        self.check_qubit(b)?;
        check_distinct(a, b)?;
        let ab = 1usize << a;
        let bb = 1usize << b;
        for idx in 0..self.re.len() {
            if idx & ab != 0 && idx & bb == 0 {
                self.re.swap(idx, idx ^ ab ^ bb);
                self.im.swap(idx, idx ^ ab ^ bb);
            }
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
        let mut p = 0.0;
        for (i, (&r, &im)) in self.re.iter().zip(&self.im).enumerate() {
            if i & bit != 0 {
                p += r * r + im * im;
            }
        }
        Ok(p)
    }

    /// Projectively measures qubit `q`, collapsing the state. Consumes
    /// exactly one uniform draw.
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
        for (i, (r, im)) in self.re.iter_mut().zip(self.im.iter_mut()).enumerate() {
            if ((i & bit) != 0) != outcome {
                *r = 0.0;
                *im = 0.0;
            } else {
                norm += *r * *r + *im * *im;
            }
        }
        if norm > 0.0 {
            let s = 1.0 / norm.sqrt();
            for (r, im) in self.re.iter_mut().zip(self.im.iter_mut()) {
                *r *= s;
                *im *= s;
            }
        }
        Ok(())
    }

    /// Resets qubit `q` to `|0⟩` (measure + conditional X, as hardware
    /// does).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QubitOutOfRange`] for a bad operand.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> Result<(), SimError> {
        let outcome = self.measure(q, rng)?;
        if outcome {
            self.apply_antidiag1(C64::ONE, C64::ONE, q)?;
        }
        Ok(())
    }

    /// Samples a full-register computational-basis outcome *without*
    /// collapsing the state. Consumes exactly one uniform draw.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, (&re, &im)) in self.re.iter().zip(&self.im).enumerate() {
            acc += re * re + im * im;
            if r < acc {
                return i as u64;
            }
        }
        (self.re.len() - 1) as u64
    }

    /// The probability of each basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| r * r + i * i)
            .collect()
    }

    /// Renormalizes to unit norm (guards against floating-point drift in
    /// long trajectories).
    pub fn normalize(&mut self) {
        let norm: f64 = self
            .re
            .iter()
            .zip(&self.im)
            .map(|(&r, &i)| r * r + i * i)
            .sum();
        if norm > 0.0 {
            let s = 1.0 / norm.sqrt();
            for (r, im) in self.re.iter_mut().zip(self.im.iter_mut()) {
                *r *= s;
                *im *= s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn u1(g: Gate) -> Mat2 {
        g.unitary1().expect("1q")
    }

    fn random_c64(rng: &mut StdRng) -> C64 {
        C64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
    }

    /// A normalized state with random amplitudes.
    fn random_state(n: usize, rng: &mut StdRng) -> SoaStateVector {
        let mut sv = SoaStateVector::try_new(n).unwrap();
        for (r, i) in sv.re.iter_mut().zip(sv.im.iter_mut()) {
            let a = random_c64(rng);
            (*r, *i) = (a.re, a.im);
        }
        sv.normalize();
        sv
    }

    /// `|⟨b|a⟩|²`.
    fn overlap(a: &SoaStateVector, b: &SoaStateVector) -> f64 {
        (0..1u64 << a.n)
            .fold(C64::ZERO, |acc, i| {
                acc + b.amplitude(i).conj() * a.amplitude(i)
            })
            .norm_sqr()
    }

    fn assert_bits_eq(got: C64, want: C64, what: &str) {
        assert!(
            got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
            "{what}: kernel {got:?} vs C64 product {want:?}"
        );
    }

    #[test]
    fn general_kernels_round_like_the_c64_product() {
        // The ideal references and the pinned digests depend on this sum
        // order: any regrouping inside `apply1`/`apply2` fails here.
        let mut rng = StdRng::seed_from_u64(0x50A);
        for trial in 0..8 {
            let n = 4;
            let m = Mat2::new([[(); 2]; 2].map(|r| r.map(|_| random_c64(&mut rng))));
            let q = trial % n;
            let before = random_state(n, &mut rng);
            let mut sv = before.clone();
            sv.apply1(&m, q).unwrap();
            for lo in (0..1u64 << n).filter(|i| i >> q & 1 == 0) {
                let hi = lo | 1 << q;
                let w = m * [before.amplitude(lo), before.amplitude(hi)];
                assert_bits_eq(sv.amplitude(lo), w[0], "apply1 low");
                assert_bits_eq(sv.amplitude(hi), w[1], "apply1 high");
            }

            let m4 = Mat4::new([[(); 4]; 4].map(|r| r.map(|_| random_c64(&mut rng))));
            let (q0, q1) = (trial % n, (trial + 1 + trial / n) % n);
            let mut sv = before.clone();
            sv.apply2(&m4, q0, q1).unwrap();
            for base in (0..1u64 << n).filter(|i| i >> q0 & 1 == 0 && i >> q1 & 1 == 0) {
                let is = [
                    base,
                    base | 1 << q0,
                    base | 1 << q1,
                    base | 1 << q0 | 1 << q1,
                ];
                let w = m4.mul_vec(is.map(|i| before.amplitude(i)));
                for (k, &i) in is.iter().enumerate() {
                    assert_bits_eq(sv.amplitude(i), w[k], "apply2");
                }
            }
        }
    }

    #[test]
    fn cx_respects_control_orientation() {
        // Control = qubit 1 (first operand maps to low bit of the unitary).
        let cx = Gate::CX.unitary2().unwrap();
        let mut sv = SoaStateVector::try_new(2).unwrap();
        sv.apply1(&u1(Gate::X), 1).unwrap(); // |10⟩
        sv.apply2(&cx, 1, 0).unwrap();
        // control q1=1 → target q0 flips → |11⟩
        assert!(sv.amplitude(0b11).approx_eq(C64::ONE, 1e-12));

        let mut sv = SoaStateVector::try_new(2).unwrap();
        sv.apply1(&u1(Gate::X), 0).unwrap(); // |01⟩
        sv.apply2(&cx, 1, 0).unwrap();
        // control q1=0 → nothing happens
        assert!(sv.amplitude(0b01).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn nonadjacent_two_qubit_gate() {
        let mut sv = SoaStateVector::try_new(4).unwrap();
        sv.apply1(&u1(Gate::X), 0).unwrap();
        sv.apply2(&Gate::CX.unitary2().unwrap(), 0, 3).unwrap();
        assert!(sv.amplitude(0b1001).approx_eq(C64::ONE, 1e-12));
    }

    #[test]
    fn collapse_renormalizes() {
        let mut sv = SoaStateVector::try_new(2).unwrap();
        sv.apply1(&u1(Gate::H), 0).unwrap();
        sv.apply_cx(0, 1).unwrap();
        sv.collapse(0, true).unwrap();
        assert!(sv.amplitude(0b11).norm_sqr() > 1.0 - 1e-9);
    }

    #[test]
    fn measurement_collapses_and_is_consistent() {
        let mut rng = StdRng::seed_from_u64(0xADA9_7001);
        let mut ones = 0;
        for _ in 0..200 {
            let mut sv = SoaStateVector::try_new(1).unwrap();
            sv.apply1(&u1(Gate::H), 0).unwrap();
            let m1 = sv.measure(0, &mut rng).unwrap();
            let m2 = sv.measure(0, &mut rng).unwrap();
            assert_eq!(m1, m2, "repeated measurement must agree");
            ones += m1 as u32;
        }
        assert!((50..150).contains(&ones), "H should be ~50/50, got {ones}");
    }

    #[test]
    fn sample_matches_distribution() {
        let mut sv = SoaStateVector::try_new(2).unwrap();
        sv.apply1(&u1(Gate::H), 0).unwrap();
        sv.apply_cx(0, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(0xADA9_7001);
        let mut histo = [0u32; 4];
        for _ in 0..2000 {
            histo[sv.sample(&mut rng) as usize] += 1;
        }
        assert_eq!(histo[1], 0);
        assert_eq!(histo[2], 0);
        assert!(histo[0] > 800 && histo[3] > 800);
    }

    #[test]
    fn measure_and_sample_consume_one_draw_each() {
        let mut sv = random_state(3, &mut StdRng::seed_from_u64(3));
        let mut rng = StdRng::seed_from_u64(99);
        let mut reference = StdRng::seed_from_u64(99);
        for _ in 0..10 {
            sv.sample(&mut rng);
            reference.gen::<f64>();
        }
        sv.measure(1, &mut rng).unwrap();
        reference.gen::<f64>();
        assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
    }

    #[test]
    fn rz_phases_cancel_in_echo() {
        // The physics ADAPT relies on: RZ(φ) · X · RZ(φ) · X = identity up
        // to phase (spin echo). Verify on |+⟩.
        let (x, rz) = (u1(Gate::X), u1(Gate::RZ(0.8)));
        let mut sv = SoaStateVector::try_new(1).unwrap();
        sv.apply1(&u1(Gate::H), 0).unwrap();
        let reference = sv.clone();
        for u in [&rz, &x, &rz, &x] {
            sv.apply1(u, 0).unwrap();
        }
        assert!((overlap(&sv, &reference) - 1.0).abs() < 1e-10);
        // Without the echo, fidelity degrades.
        let mut free = reference.clone();
        free.apply1(&rz, 0).unwrap();
        free.apply1(&rz, 0).unwrap();
        assert!(overlap(&free, &reference) < 0.98);
    }

    #[test]
    fn diag_and_antidiag_kernels_match_generic() {
        for q in 0..3 {
            for g in [Gate::Z, Gate::S, Gate::Sdg, Gate::RZ(0.37), Gate::P(1.3)] {
                let u = g.unitary1().unwrap();
                let mut a = SoaStateVector::try_new(3).unwrap();
                let mut b = SoaStateVector::try_new(3).unwrap();
                // Prepare a non-trivial state first.
                for w in 0..3 {
                    a.apply1(&Gate::H.unitary1().unwrap(), w).unwrap();
                    b.apply1(&Gate::H.unitary1().unwrap(), w).unwrap();
                    a.apply1(&Gate::RZ(0.2 + w as f64).unitary1().unwrap(), w)
                        .unwrap();
                    b.apply1(&Gate::RZ(0.2 + w as f64).unitary1().unwrap(), w)
                        .unwrap();
                }
                a.apply1(&u, q).unwrap();
                b.apply_diag1(u.at(0, 0), u.at(1, 1), q).unwrap();
                for i in 0..8 {
                    assert!(a.amplitude(i).approx_eq(b.amplitude(i), 1e-12));
                }
            }
            for g in [Gate::X, Gate::Y] {
                let u = g.unitary1().unwrap();
                let mut a = SoaStateVector::try_new(3).unwrap();
                let mut b = SoaStateVector::try_new(3).unwrap();
                a.apply1(&Gate::H.unitary1().unwrap(), 1).unwrap();
                b.apply1(&Gate::H.unitary1().unwrap(), 1).unwrap();
                a.apply1(&u, q).unwrap();
                b.apply_antidiag1(u.at(0, 1), u.at(1, 0), q).unwrap();
                for i in 0..8 {
                    assert!(a.amplitude(i).approx_eq(b.amplitude(i), 1e-12));
                }
            }
        }
    }

    #[test]
    fn permutation_kernels_match_generic_two_qubit() {
        let pairs = [(0usize, 1usize), (1, 0), (0, 2), (2, 0), (1, 2)];
        for &(q0, q1) in &pairs {
            for g in [Gate::CX, Gate::CZ, Gate::Swap] {
                let u = g.unitary2().unwrap();
                let mut a = SoaStateVector::try_new(3).unwrap();
                let mut b = SoaStateVector::try_new(3).unwrap();
                for w in 0..3 {
                    let h = Gate::H.unitary1().unwrap();
                    let r = Gate::RZ(0.4 * (w + 1) as f64).unitary1().unwrap();
                    a.apply1(&h, w).unwrap();
                    a.apply1(&r, w).unwrap();
                    b.apply1(&h, w).unwrap();
                    b.apply1(&r, w).unwrap();
                }
                a.apply2(&u, q0, q1).unwrap();
                match g {
                    Gate::CX => b.apply_cx(q0, q1).unwrap(),
                    Gate::CZ => b.apply_cz(q0, q1).unwrap(),
                    Gate::Swap => b.apply_swap(q0, q1).unwrap(),
                    _ => unreachable!(),
                }
                for i in 0..8 {
                    assert!(
                        a.amplitude(i).approx_eq(b.amplitude(i), 1e-12),
                        "{g:?} on ({q0},{q1}) amplitude {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let mut sv = SoaStateVector::try_new(1).unwrap();
            sv.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
            sv.reset(0, &mut rng).unwrap();
            assert!(sv.prob_one(0).unwrap() < 1e-9);
        }
    }

    #[test]
    fn too_many_qubits_rejected() {
        assert!(matches!(
            SoaStateVector::try_new(MAX_QUBITS + 1),
            Err(SimError::TooManyQubits { .. })
        ));
    }

    fn assert_duplicate_rejected(apply: impl Fn(&mut SoaStateVector) -> Result<(), SimError>) {
        let mut sv = SoaStateVector::try_new(3).unwrap();
        sv.apply1(&Gate::H.unitary1().unwrap(), 1).unwrap();
        let before = sv.clone();
        assert_eq!(apply(&mut sv), Err(SimError::DuplicateOperand { qubit: 1 }));
        assert_eq!(sv, before, "a rejected gate must leave the state untouched");
    }

    #[test]
    fn apply2_rejects_duplicate_operand() {
        let u = Gate::CX.unitary2().unwrap();
        assert_duplicate_rejected(|sv| sv.apply2(&u, 1, 1));
    }

    #[test]
    fn cx_rejects_duplicate_operand() {
        assert_duplicate_rejected(|sv| sv.apply_cx(1, 1));
    }

    #[test]
    fn cz_rejects_duplicate_operand() {
        assert_duplicate_rejected(|sv| sv.apply_cz(1, 1));
    }

    #[test]
    fn swap_rejects_duplicate_operand() {
        assert_duplicate_rejected(|sv| sv.apply_swap(1, 1));
    }

    #[test]
    fn normalize_restores_unit_norm() {
        let mut sv = SoaStateVector::try_new(2).unwrap();
        sv.apply1(&Gate::H.unitary1().unwrap(), 0).unwrap();
        sv.re.iter_mut().for_each(|r| *r *= 3.0);
        sv.im.iter_mut().for_each(|i| *i *= 3.0);
        sv.normalize();
        let norm: f64 = sv.probabilities().iter().sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }
}
