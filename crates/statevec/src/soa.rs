//! Structure-of-arrays state vector for the hot trajectory path.
//!
//! [`StateVector`](crate::StateVector) stores amplitudes as an array of
//! `C64` structs (AoS). That layout is convenient but hostile to
//! autovectorization: every complex multiply loads interleaved re/im
//! pairs. [`SoaStateVector`] keeps the real and imaginary parts in two
//! separate `f64` arrays so gate kernels compile to straight-line
//! scalar-f64 arithmetic over contiguous slices — the shape LLVM
//! vectorizes reliably — and adds specialized kernels for the structured
//! matrices that dominate transpiled circuits:
//!
//! - diagonal 1q (RZ, Z, S, phase products): two scaled passes, no
//!   cross terms;
//! - anti-diagonal 1q (X, Y and their diagonal products): a scaled swap;
//! - CX / CZ / SWAP 2q: pure permutations/sign flips, no matrix math.
//!
//! Semantics (basis ordering, operand conventions, measurement and
//! sampling draws) match [`StateVector`](crate::StateVector) exactly:
//! for any gate sequence and rng, both simulators produce the same
//! amplitudes and consume the same number of random draws.

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
                *ar = m00.re * a_r - m00.im * a_i + m01.re * b_r - m01.im * b_i;
                *ai = m00.re * a_i + m00.im * a_r + m01.re * b_i + m01.im * b_r;
                *br = m10.re * a_r - m10.im * a_i + m11.re * b_r - m11.im * b_i;
                *bi = m10.re * a_i + m10.im * a_r + m11.re * b_i + m11.im * b_r;
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
    /// exactly one uniform draw, like
    /// [`StateVector::measure`](crate::StateVector::measure).
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
    use crate::StateVector;
    use qcirc::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_matches_aos(soa: &SoaStateVector, aos: &StateVector) {
        for i in 0..aos.amplitudes().len() {
            let a = aos.amplitude(i as u64);
            let s = soa.amplitude(i as u64);
            assert!(
                s.approx_eq(a, 1e-12),
                "amplitude {i}: soa {s:?} vs aos {a:?}"
            );
        }
    }

    #[test]
    fn generic_kernels_match_aos_on_random_circuit() {
        let gates: Vec<(Gate, Vec<usize>)> = vec![
            (Gate::H, vec![0]),
            (Gate::RZ(0.7), vec![1]),
            (Gate::SX, vec![2]),
            (Gate::CX, vec![0, 2]),
            (Gate::T, vec![1]),
            (Gate::RY(1.1), vec![3]),
            (Gate::CZ, vec![1, 3]),
            (Gate::U(0.3, 0.4, 0.5), vec![0]),
            (Gate::Swap, vec![2, 3]),
            (Gate::RX(2.2), vec![2]),
        ];
        let mut soa = SoaStateVector::try_new(4).unwrap();
        let mut aos = StateVector::new(4);
        for (g, qs) in gates {
            if let Some(u) = g.unitary1() {
                soa.apply1(&u, qs[0]).unwrap();
                aos.apply1(&u, qs[0]).unwrap();
            } else if let Some(u) = g.unitary2() {
                soa.apply2(&u, qs[0], qs[1]).unwrap();
                aos.apply2(&u, qs[0], qs[1]).unwrap();
            }
        }
        assert_matches_aos(&soa, &aos);
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
    fn measurement_and_sampling_draw_parity_with_aos() {
        // Same gates, same seed: both simulators must produce identical
        // measurement outcomes and samples (identical draw sequence).
        let mut soa = SoaStateVector::try_new(2).unwrap();
        let mut aos = StateVector::new(2);
        let h = Gate::H.unitary1().unwrap();
        soa.apply1(&h, 0).unwrap();
        aos.apply1(&h, 0).unwrap();
        soa.apply_cx(0, 1).unwrap();
        aos.apply2(&Gate::CX.unitary2().unwrap(), 0, 1).unwrap();
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            assert_eq!(soa.sample(&mut r1), aos.sample(&mut r2));
        }
        let m1 = soa.measure(0, &mut r1).unwrap();
        let m2 = aos.measure(0, &mut r2).unwrap();
        assert_eq!(m1, m2);
        assert_matches_aos(&soa, &aos);
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
