//! The single-qubit Clifford group and nearest-Clifford replacement.
//!
//! ADAPT builds decoy circuits by replacing each non-Clifford gate with the
//! closest element of the Clifford group under the operator-norm distance
//! (Eq. 1 of the paper). This module enumerates the 24 single-qubit Clifford
//! classes (modulo global phase) and provides the replacement search.

use crate::gate::Gate;
use crate::math::Mat2;

/// Tolerance for identifying two unitaries as the same Clifford class.
const CLASS_TOL: f64 = 1e-9;

/// One of the 24 single-qubit Clifford classes (unitaries modulo global
/// phase), with a short implementation as named gates.
#[derive(Debug, Clone)]
pub struct CliffordClass {
    /// A shortest gate word implementing the class. Single named gates
    /// (X, H, S, …) are preferred; otherwise a word over {H, S}.
    word: Vec<Gate>,
    /// The class representative unitary.
    unitary: Mat2,
}

impl CliffordClass {
    /// The gate word implementing this class, in application order
    /// (first gate applied first).
    pub fn word(&self) -> &[Gate] {
        &self.word
    }

    /// The representative unitary.
    pub fn unitary(&self) -> &Mat2 {
        &self.unitary
    }
}

fn word_unitary(word: &[Gate]) -> Mat2 {
    // Application order: first element acts first, so the matrix product is
    // last · … · first.
    let mut u = Mat2::identity();
    for g in word {
        let m = g
            .unitary1()
            .expect("clifford words contain only single-qubit gates");
        u = m * u;
    }
    u
}

/// Enumerates all 24 single-qubit Clifford classes.
///
/// Classes are found by breadth-first search over words in the generators
/// {H, S}; each class is then relabeled with a single named gate
/// (I, X, Y, Z, H, S, S†, √X, √X†) when one matches, so that decoy circuits
/// stay human-readable and stabilizer-simulable with the primitive gate set.
///
/// # Examples
///
/// ```
/// use qcirc::clifford::single_qubit_cliffords;
/// assert_eq!(single_qubit_cliffords().len(), 24);
/// ```
pub fn single_qubit_cliffords() -> Vec<CliffordClass> {
    let mut classes: Vec<CliffordClass> = vec![CliffordClass {
        word: vec![],
        unitary: Mat2::identity(),
    }];
    // BFS over {H, S} words. The group has 24 classes, reachable within
    // length-6 words of the generators.
    let mut frontier: Vec<Vec<Gate>> = vec![vec![]];
    while classes.len() < 24 {
        let mut next = Vec::new();
        for w in &frontier {
            for g in [Gate::H, Gate::S] {
                let mut word = w.clone();
                word.push(g);
                let u = word_unitary(&word);
                if !classes.iter().any(|c| c.unitary.phase_dist(&u) < CLASS_TOL) {
                    classes.push(CliffordClass {
                        word: word.clone(),
                        unitary: u,
                    });
                    next.push(word);
                }
            }
        }
        assert!(
            !next.is_empty(),
            "BFS stalled before finding all 24 Clifford classes"
        );
        frontier = next;
    }
    // Prefer single named gates where available.
    let named = [
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::SX,
        Gate::SXdg,
    ];
    for class in &mut classes {
        for g in named {
            let u = g.unitary1().expect("named gates are single-qubit");
            if class.unitary.phase_dist(&u) < CLASS_TOL {
                class.word = vec![g];
                break;
            }
        }
    }
    classes
}

/// Result of a nearest-Clifford search.
#[derive(Debug, Clone)]
pub struct NearestClifford {
    /// Gate word implementing the nearest Clifford, in application order.
    pub word: Vec<Gate>,
    /// Global-phase-invariant operator-norm distance to the input unitary.
    pub distance: f64,
}

/// Finds the Clifford class closest to `u` under the phase-invariant
/// operator-norm distance, given a pre-enumerated `classes` table from
/// [`single_qubit_cliffords`].
pub fn nearest_clifford_in(classes: &[CliffordClass], u: &Mat2) -> NearestClifford {
    let mut best: Option<NearestClifford> = None;
    for class in classes {
        let d = u.phase_dist(&class.unitary);
        let better = match &best {
            None => true,
            Some(b) => {
                d + 1e-12 < b.distance
                    // Tie-break toward shorter words for readability.
                    || ((d - b.distance).abs() <= 1e-12 && class.word.len() < b.word.len())
            }
        };
        if better {
            best = Some(NearestClifford {
                word: class.word.clone(),
                distance: d,
            });
        }
    }
    best.expect("class table is never empty")
}

/// Replaces a single-qubit gate by its nearest Clifford word.
///
/// Gates that are already Clifford are returned unchanged (as a one-element
/// word); e.g. `RZ(π/2)` maps to `S` and `U1`/`P` gates map to the nearest of
/// {I, S, Z, S†} exactly as described in §4.2.1 of the paper.
///
/// # Panics
///
/// Panics when `gate` is a two-qubit gate (CX/CZ/SWAP are already Clifford
/// and need no replacement — callers keep them verbatim).
pub fn cliffordize_gate(classes: &[CliffordClass], gate: Gate) -> NearestClifford {
    let u = gate
        .unitary1()
        .expect("cliffordize_gate takes single-qubit gates only");
    if gate.is_clifford() {
        return NearestClifford {
            word: vec![gate],
            distance: 0.0,
        };
    }
    nearest_clifford_in(classes, &u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

    #[test]
    fn exactly_24_classes() {
        let classes = single_qubit_cliffords();
        assert_eq!(classes.len(), 24);
        // All pairwise distinct.
        for i in 0..classes.len() {
            for j in (i + 1)..classes.len() {
                assert!(
                    classes[i].unitary.phase_dist(&classes[j].unitary) > 1e-6,
                    "classes {i} and {j} coincide"
                );
            }
        }
    }

    #[test]
    fn class_words_reproduce_unitaries() {
        for class in single_qubit_cliffords() {
            let u = word_unitary(class.word());
            assert!(u.phase_dist(class.unitary()) < 1e-9);
        }
    }

    #[test]
    fn named_paulis_present_as_single_gates() {
        let classes = single_qubit_cliffords();
        for g in [Gate::X, Gate::Y, Gate::Z, Gate::H, Gate::S, Gate::SX] {
            let found = classes.iter().any(|c| c.word() == [g]);
            assert!(found, "{g:?} not represented as a single named gate");
        }
    }

    #[test]
    fn clifford_gates_map_to_themselves() {
        let classes = single_qubit_cliffords();
        for g in [Gate::X, Gate::H, Gate::S, Gate::Sdg, Gate::Z] {
            let n = cliffordize_gate(&classes, g);
            assert_eq!(n.word, vec![g]);
            assert!(n.distance < 1e-12);
        }
    }

    #[test]
    fn t_gate_maps_to_s_or_identity_class() {
        // T = diag(1, e^{iπ/4}) sits exactly between I and S; either is a
        // valid nearest Clifford at distance |1 - e^{iπ/8}|·√2-ish.
        let classes = single_qubit_cliffords();
        let n = cliffordize_gate(&classes, Gate::T);
        assert_eq!(n.word.len(), 1);
        assert!(matches!(n.word[0], Gate::I | Gate::S));
        assert!(n.distance > 0.1 && n.distance < 0.9);
    }

    #[test]
    fn rz_clifford_angles_map_exactly() {
        let classes = single_qubit_cliffords();
        for (theta, expect) in [
            (FRAC_PI_2, Gate::S),
            (PI, Gate::Z),
            (-FRAC_PI_2, Gate::Sdg),
            (0.0, Gate::I),
        ] {
            let n = cliffordize_gate(&classes, Gate::RZ(theta));
            assert!(n.distance < 1e-9, "rz({theta}) distance {}", n.distance);
            let u = word_unitary(&n.word);
            assert!(
                u.phase_dist(&expect.unitary1().unwrap()) < 1e-9,
                "rz({theta}) mapped to {:?}, expected {:?}",
                n.word,
                expect
            );
        }
    }

    #[test]
    fn p_gate_replaced_by_z_or_s_per_paper() {
        // §4.2.1: "the U1 gate is either replaced by Z or S gates" — for
        // angles near those Cliffords.
        let classes = single_qubit_cliffords();
        let near_s = cliffordize_gate(&classes, Gate::P(FRAC_PI_2 + 0.2));
        let u = word_unitary(&near_s.word);
        assert!(u.phase_dist(&Gate::S.unitary1().unwrap()) < 1e-9);
        let near_z = cliffordize_gate(&classes, Gate::P(PI - 0.3));
        let u = word_unitary(&near_z.word);
        assert!(u.phase_dist(&Gate::Z.unitary1().unwrap()) < 1e-9);
    }

    #[test]
    fn u2_maps_to_nearby_clifford_with_small_distance() {
        let classes = single_qubit_cliffords();
        // U(π/2, 0, π) is exactly H.
        let n = cliffordize_gate(&classes, Gate::U(FRAC_PI_2, 0.0, PI));
        assert!(n.distance < 1e-9);
        let u = word_unitary(&n.word);
        assert!(u.phase_dist(&Gate::H.unitary1().unwrap()) < 1e-9);
        // A slightly perturbed U3 maps close by.
        let n = cliffordize_gate(&classes, Gate::U(FRAC_PI_2 + 0.1, 0.05, PI - 0.08));
        assert!(n.distance < 0.25);
    }

    #[test]
    fn ry_quarter_angle_distance_reasonable() {
        let classes = single_qubit_cliffords();
        let n = cliffordize_gate(&classes, Gate::RY(FRAC_PI_4));
        // Nearest Clifford to RY(π/4) is I or RY(π/2)-class at distance
        // 2·sin(π/16) ≈ 0.39.
        assert!((n.distance - 2.0 * (PI / 16.0).sin()).abs() < 1e-6);
    }

    #[test]
    fn nearest_clifford_distance_never_exceeds_worst_case() {
        // Any unitary is within distance 2 of some Clifford; in fact the
        // covering radius of the Clifford group is far smaller. Spot-check a
        // grid of U3 angles.
        let classes = single_qubit_cliffords();
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    let g = Gate::U(a as f64 * 0.7, b as f64 * 0.9, c as f64 * 1.1);
                    let n = cliffordize_gate(&classes, g);
                    assert!(n.distance <= 1.2, "{g:?} distance {}", n.distance);
                }
            }
        }
    }
}
