//! Property-based tests of the dense simulator: norm preservation,
//! unitary composition, measurement consistency, and agreement with the
//! exact density-matrix reference.

use proptest::prelude::*;
use qcirc::{Circuit, Gate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use statevec::{DensityMatrix, SoaStateVector};

#[derive(Debug, Clone)]
enum Op {
    One(Gate, usize),
    Two(Gate, usize, usize),
}

fn arb_op(n: usize) -> impl Strategy<Value = Op> {
    let one = (0usize..7, 0..n, -3.0..3.0f64).prop_map(|(g, q, t)| {
        let gate = match g {
            0 => Gate::H,
            1 => Gate::X,
            2 => Gate::S,
            3 => Gate::T,
            4 => Gate::RX(t),
            5 => Gate::RY(t),
            _ => Gate::RZ(t),
        };
        Op::One(gate, q)
    });
    let two = (0usize..3, 0..n, 1..n).prop_map(move |(g, a, d)| {
        let b = (a + d) % n;
        let gate = match g {
            0 => Gate::CX,
            1 => Gate::CZ,
            _ => Gate::Swap,
        };
        Op::Two(gate, a, b)
    });
    prop_oneof![3 => one, 1 => two]
}

fn apply_ops(sv: &mut SoaStateVector, ops: &[Op]) {
    for op in ops {
        match op {
            Op::One(g, q) => sv.apply1(&g.unitary1().expect("1q"), *q).expect("apply1"),
            Op::Two(g, a, b) => sv
                .apply2(&g.unitary2().expect("2q"), *a, *b)
                .expect("apply2"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_circuits_preserve_norm(ops in proptest::collection::vec(arb_op(4), 1..50)) {
        let mut sv = SoaStateVector::try_new(4).expect("small");
        apply_ops(&mut sv, &ops);
        let norm: f64 = sv.probabilities().iter().sum();
        prop_assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn forward_then_inverse_returns_to_start(ops in proptest::collection::vec(arb_op(3), 1..30)) {
        let mut sv = SoaStateVector::try_new(3).expect("small");
        apply_ops(&mut sv, &ops);
        let mid = sv.clone();
        // Apply inverses in reverse order.
        for op in ops.iter().rev() {
            match op {
                Op::One(g, q) => sv
                    .apply1(&g.inverse().unitary1().expect("1q"), *q)
                    .expect("apply1"),
                Op::Two(g, a, b) => sv
                    .apply2(&g.inverse().unitary2().expect("2q"), *a, *b)
                    .expect("apply2"),
            }
        }
        // Back at |000⟩ up to a global phase.
        prop_assert!((sv.amplitude(0).norm_sqr() - 1.0).abs() < 1e-7);
        // And the midpoint state was normalized too.
        let norm: f64 = mid.probabilities().iter().sum();
        prop_assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prob_one_matches_probability_mass(ops in proptest::collection::vec(arb_op(4), 1..40), q in 0usize..4) {
        let mut sv = SoaStateVector::try_new(4).expect("small");
        apply_ops(&mut sv, &ops);
        let p1 = sv.prob_one(q).expect("in range");
        let direct: f64 = sv
            .probabilities()
            .iter()
            .enumerate()
            .filter(|(i, _)| i >> q & 1 == 1)
            .map(|(_, p)| p)
            .sum();
        prop_assert!((p1 - direct).abs() < 1e-9);
    }

    #[test]
    fn measurement_collapse_is_consistent(
        ops in proptest::collection::vec(arb_op(3), 1..30),
        q in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut sv = SoaStateVector::try_new(3).expect("small");
        apply_ops(&mut sv, &ops);
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = sv.measure(q, &mut rng).expect("in range");
        // Post-collapse: probability of the observed outcome is 1.
        let p1 = sv.prob_one(q).expect("in range");
        let expected = if outcome { 1.0 } else { 0.0 };
        prop_assert!((p1 - expected).abs() < 1e-9);
        // State still normalized.
        let norm: f64 = sv.probabilities().iter().sum();
        prop_assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_match_density_matrix(
        n in 1usize..5,
        ops in proptest::collection::vec(arb_op(4), 1..40),
    ) {
        // Fold the 4-qubit ops onto n qubits; drop 2q ops whose operands meet.
        let ops: Vec<Op> = ops
            .into_iter()
            .filter_map(|op| match op {
                Op::One(g, q) => Some(Op::One(g, q % n)),
                Op::Two(g, a, b) => (a % n != b % n).then_some(Op::Two(g, a % n, b % n)),
            })
            .collect();
        let mut sv = SoaStateVector::try_new(n).expect("small");
        apply_ops(&mut sv, &ops);
        let mut dm = DensityMatrix::new(n).expect("small");
        for op in &ops {
            match op {
                Op::One(g, q) => dm.apply_gate(*g, &[*q]),
                Op::Two(g, a, b) => dm.apply_gate(*g, &[*a, *b]),
            }
            .expect("in range");
        }
        for (p_sv, p_dm) in sv.probabilities().iter().zip(dm.probabilities()) {
            prop_assert!((p_sv - p_dm).abs() < 1e-9, "state vector {p_sv} vs density matrix {p_dm}");
        }
        prop_assert!((dm.fidelity_pure(&sv) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ideal_distribution_normalized_for_random_programs(
        ops in proptest::collection::vec(arb_op(4), 1..40)
    ) {
        let mut c = Circuit::new(4);
        for op in &ops {
            match op {
                Op::One(g, q) => { c.gate(*g, &[*q as u32]); }
                Op::Two(g, a, b) => { c.gate(*g, &[*a as u32, *b as u32]); }
            }
        }
        c.measure_all();
        let d = statevec::ideal_distribution(&c).expect("small circuit");
        let total: f64 = d.values().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for p in d.values() {
            prop_assert!(*p >= 0.0 && *p <= 1.0 + 1e-12);
        }
    }
}
