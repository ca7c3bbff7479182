//! Property-based tests for the math and IR layers.

use proptest::prelude::*;
use qcirc::clifford::{cliffordize_gate, single_qubit_cliffords};
use qcirc::math::{Mat2, C64};
use qcirc::{Circuit, Counts, Gate};

fn arb_c64() -> impl Strategy<Value = C64> {
    (-10.0..10.0f64, -10.0..10.0f64).prop_map(|(re, im)| C64::new(re, im))
}

fn arb_unitary() -> impl Strategy<Value = Mat2> {
    // U(θ, φ, λ) covers all of SU(2) up to phase; add a global phase.
    (
        0.0..std::f64::consts::PI,
        -3.2..3.2f64,
        -3.2..3.2f64,
        -3.2..3.2f64,
    )
        .prop_map(|(t, p, l, g)| {
            Gate::U(t, p, l)
                .unitary1()
                .expect("U is single-qubit")
                .scale(C64::cis(g))
        })
}

proptest! {
    #[test]
    fn complex_mul_is_associative_and_distributive(a in arb_c64(), b in arb_c64(), c in arb_c64()) {
        let lhs = (a * b) * c;
        let rhs = a * (b * c);
        prop_assert!(lhs.approx_eq(rhs, 1e-9));
        let d1 = a * (b + c);
        let d2 = a * b + a * c;
        prop_assert!(d1.approx_eq(d2, 1e-9));
    }

    #[test]
    fn conjugation_is_an_involution_preserving_norm(a in arb_c64()) {
        prop_assert!(a.conj().conj().approx_eq(a, 1e-12));
        prop_assert!((a.conj().norm() - a.norm()).abs() < 1e-12);
    }

    #[test]
    fn unitaries_are_closed_under_product(u in arb_unitary(), v in arb_unitary()) {
        prop_assert!(u.is_unitary(1e-9));
        prop_assert!((u * v).is_unitary(1e-8));
        prop_assert!(((u * v).op_norm() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn phase_dist_is_a_phase_invariant_pseudometric(
        u in arb_unitary(),
        v in arb_unitary(),
        g in -3.2..3.2f64,
    ) {
        let d = u.phase_dist(&v);
        prop_assert!(d >= -1e-12);
        prop_assert!(d <= 2.0 + 1e-9);
        // Symmetric.
        prop_assert!((d - v.phase_dist(&u)).abs() < 1e-8);
        // Invariant under global phase on either argument.
        let vp = v.scale(C64::cis(g));
        prop_assert!((u.phase_dist(&vp) - d).abs() < 1e-8);
        // Zero on itself.
        prop_assert!(u.phase_dist(&u) < 1e-9);
    }

    #[test]
    fn nearest_clifford_distance_bounded_and_achieved(
        t in 0.0..std::f64::consts::PI,
        p in -3.2..3.2f64,
        l in -3.2..3.2f64,
    ) {
        let classes = single_qubit_cliffords();
        let g = Gate::U(t, p, l);
        let n = cliffordize_gate(&classes, g);
        // Every class is at least this far; spot-check five.
        let u = g.unitary1().expect("single-qubit");
        for class in classes.iter().step_by(5) {
            prop_assert!(u.phase_dist(class.unitary()) >= n.distance - 1e-9);
        }
        // The covering radius of the single-qubit Clifford group.
        prop_assert!(n.distance <= 1.2);
    }

    #[test]
    fn gate_inverse_cancels(gate_idx in 0usize..14, angle in -3.0..3.0f64) {
        let gates = [
            Gate::I, Gate::X, Gate::Y, Gate::Z, Gate::H, Gate::S, Gate::Sdg,
            Gate::T, Gate::Tdg, Gate::SX, Gate::SXdg,
            Gate::RX(angle), Gate::RY(angle), Gate::RZ(angle),
        ];
        let g = gates[gate_idx];
        let u = g.unitary1().expect("single-qubit");
        let v = g.inverse().unitary1().expect("single-qubit");
        prop_assert!((u * v).phase_dist(&Mat2::identity()) < 1e-9);
    }

    #[test]
    fn circuit_depth_le_len_and_counts_consistent(ops in proptest::collection::vec(0u8..5, 1..60)) {
        let mut c = Circuit::new(4);
        for (i, op) in ops.iter().enumerate() {
            let q = (i % 4) as u32;
            match op {
                0 => { c.h(q); }
                1 => { c.x(q); }
                2 => { c.rz(0.3, q); }
                3 => { c.cx(q, (q + 1) % 4); }
                _ => { c.measure(q, q); }
            }
        }
        prop_assert!(c.depth() <= c.len());
        let total: usize = c.count_ops().values().sum();
        prop_assert_eq!(total, c.len());
        // Compaction never changes instruction count for all-active circuits.
        let (compact, map) = c.compacted();
        prop_assert!(compact.num_qubits() <= 4);
        prop_assert_eq!(map.len(), compact.num_qubits());
    }

    #[test]
    fn counts_merge_preserves_totals(
        a in proptest::collection::vec(0u64..16, 0..50),
        b in proptest::collection::vec(0u64..16, 0..50),
    ) {
        let mut ca = Counts::new(4);
        ca.extend(a.iter().copied());
        let mut cb = Counts::new(4);
        cb.extend(b.iter().copied());
        let (ta, tb) = (ca.total(), cb.total());
        ca.merge(&cb);
        prop_assert_eq!(ca.total(), ta + tb);
    }
}
