//! Property tests: the CHP tableau and the Heisenberg propagator agree
//! with the dense simulator on arbitrary generated circuits.

use proptest::prelude::*;
use qcirc::{Circuit, Gate};
use stab::heisenberg::{expectation, Pauli};

#[derive(Debug, Clone, Copy)]
enum CliffOp {
    One(u8, u8),
    Two(u8, u8, u8),
}

fn arb_cliff(n: u8) -> impl Strategy<Value = CliffOp> {
    let one = (0u8..9, 0..n).prop_map(|(g, q)| CliffOp::One(g, q));
    let two = (0u8..2, 0..n, 1..n).prop_map(move |(g, a, d)| CliffOp::Two(g, a, (a + d) % n));
    prop_oneof![2 => one, 1 => two]
}

fn build(n: u8, ops: &[CliffOp], seeds: &[(u8, f64)]) -> Circuit {
    let mut c = Circuit::new(n as usize);
    let one_gates = [
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::SX,
        Gate::SXdg,
        Gate::I,
    ];
    let mid = ops.len() / 2;
    for (i, op) in ops.iter().enumerate() {
        if i == mid {
            for &(q, t) in seeds {
                c.rz(t, (q % n) as u32);
            }
        }
        match *op {
            CliffOp::One(g, q) => {
                c.gate(one_gates[g as usize], &[q as u32]);
            }
            CliffOp::Two(g, a, b) => {
                if g == 0 {
                    c.cx(a as u32, b as u32);
                } else {
                    c.cz(a as u32, b as u32);
                }
            }
        }
    }
    c
}

/// Appends `ops` to `c` with operand `i` mapped to qubit `at[i]`.
fn push_mapped(c: &mut Circuit, ops: &[CliffOp], at: &[u32]) {
    let one_gates = [
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::SX,
        Gate::SXdg,
        Gate::I,
    ];
    for op in ops {
        match *op {
            CliffOp::One(g, q) => {
                c.gate(one_gates[g as usize], &[at[q as usize]]);
            }
            CliffOp::Two(g, a, b) => {
                let (a, b) = (at[a as usize], at[b as usize]);
                if g == 0 {
                    c.cx(a, b);
                } else {
                    c.cz(a, b);
                }
            }
        }
    }
}

fn dense_parity(c: &Circuit, qubits: &[u32]) -> f64 {
    let sv = statevec::run_ideal(c).expect("small");
    sv.probabilities()
        .iter()
        .enumerate()
        .map(|(idx, p)| {
            let parity = qubits.iter().map(|&q| (idx >> q & 1) as u32).sum::<u32>() & 1;
            if parity == 1 {
                -p
            } else {
                *p
            }
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chp_exact_distribution_matches_dense(
        ops in proptest::collection::vec(arb_cliff(4), 1..40)
    ) {
        let mut c = build(4, &ops, &[]);
        c.measure_all();
        let chp = stab::exact_distribution(&c).expect("Clifford");
        let dense = statevec::ideal_distribution(&c).expect("small");
        prop_assert_eq!(chp.len(), dense.len());
        for (k, v) in &dense {
            let w = chp.get(k).copied().unwrap_or(0.0);
            prop_assert!((v - w).abs() < 1e-9, "outcome {}: {} vs {}", k, v, w);
        }
    }

    #[test]
    fn chp_matches_dense_across_column_words(
        ops in proptest::collection::vec(arb_cliff(5), 1..40),
        filler in proptest::collection::vec(arb_cliff(6), 0..40),
    ) {
        // A 5-qubit circuit embedded in 40 qubits, on either side of the
        // 64-row word boundary of the tableau's columns, next to unrelated
        // gates on other qubits: its marginal must equal the dense output.
        let at = [0u32, 20, 31, 32, 39];
        let others = [1u32, 15, 30, 33, 34, 38];
        let mut small = Circuit::new(5);
        push_mapped(&mut small, &ops, &[0, 1, 2, 3, 4]);
        small.measure_all();
        let mut wide = Circuit::new(40);
        let half = filler.len() / 2;
        push_mapped(&mut wide, &filler[..half], &others);
        push_mapped(&mut wide, &ops, &at);
        push_mapped(&mut wide, &filler[half..], &others);
        for (c, &q) in at.iter().enumerate() {
            wide.measure(q, c as u32);
        }
        let chp = stab::exact_distribution(&wide).expect("Clifford");
        let dense = statevec::ideal_distribution(&small).expect("small");
        prop_assert_eq!(chp.len(), dense.len());
        for (k, v) in &dense {
            let w = chp.get(k).copied().unwrap_or(0.0);
            prop_assert!((v - w).abs() < 1e-9, "outcome {}: {} vs {}", k, v, w);
        }
    }

    #[test]
    fn heisenberg_expectations_match_dense_with_seeds(
        ops in proptest::collection::vec(arb_cliff(4), 2..35),
        s1 in (0u8..4, 0.05..1.5f64),
        s2 in (0u8..4, 0.05..1.5f64),
        mask in 1u8..16,
    ) {
        let c = build(4, &ops, &[s1, s2]);
        let qs: Vec<u32> = (0..4u32).filter(|q| mask >> q & 1 == 1).collect();
        let e = expectation(&c, Pauli::z_on(4, &qs)).expect("supported gates");
        let d = dense_parity(&c, &qs);
        prop_assert!((e - d).abs() < 1e-8, "Z_{:?}: {} vs {}", qs, e, d);
    }

    #[test]
    fn heisenberg_distribution_is_a_distribution(
        ops in proptest::collection::vec(arb_cliff(3), 2..30),
        s1 in (0u8..3, 0.05..1.5f64),
    ) {
        let mut c = build(3, &ops, &[s1]);
        c.measure_all();
        let d = stab::heisenberg::output_distribution(&c).expect("supported");
        let total: f64 = d.values().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let dense = statevec::ideal_distribution(&c).expect("small");
        for (k, v) in &dense {
            let w = d.get(k).copied().unwrap_or(0.0);
            prop_assert!((v - w).abs() < 1e-8);
        }
    }

    #[test]
    fn noisy_engines_agree_on_clifford_circuits(
        ops in proptest::collection::vec(arb_cliff(3), 1..25),
        seed in 1u64..1000,
    ) {
        // Cross-engine equivalence under noise: a random Clifford circuit
        // executed through the full machine stack with Pauli-expressible
        // channels (gate depolarizing + readout flips) must yield the same
        // outcome distribution whether the router picks the CHP tableau or
        // the state-vector engine is forced. Both are exact samplers of
        // the same channel, so the distributions agree up to Monte-Carlo
        // error; total-variation distance is the comparison metric.
        use device::Device;
        use machine::{EnginePolicy, ExecutionConfig, Machine, NoiseToggles};

        let mut c = build(3, &ops, &[]);
        c.measure_all();
        let toggles = NoiseToggles {
            gate_err: true,
            readout_err: true,
            idle_coherent: false,
            idle_crosstalk: false,
            idle_floor: false,
            coherent_twirl: true,
        };
        let cfg = ExecutionConfig {
            shots: 4096,
            trajectories: 512,
            seed,
            threads: 1,
        };
        let dev = Device::ibmq_rome(5);
        let chp = Machine::with_toggles(dev.clone(), toggles);
        let dense = Machine::with_toggles(dev, toggles)
            .with_engine_policy(EnginePolicy::ForceStateVector);
        let a = chp.execute(&c, &cfg).expect("chp run");
        let b = dense.execute(&c, &cfg).expect("dense run");
        prop_assert!(chp.engine_stats().chp_executions > 0, "router must pick CHP");
        prop_assert!(dense.engine_stats().statevec_executions > 0);

        let total = a.total() as f64;
        let tvd: f64 = (0..8u64)
            .map(|k| (a.get(k) as f64 - b.get(k) as f64).abs() / total)
            .sum::<f64>()
            / 2.0;
        prop_assert!(tvd < 0.2, "TVD between engines too large: {tvd:.4}");
    }

    #[test]
    fn tableau_measurement_marginals_match_dense(
        ops in proptest::collection::vec(arb_cliff(3), 1..25),
        q in 0u32..3,
    ) {
        // The probability that qubit q reads 1 on the tableau (averaged
        // over its exact branch structure) equals the dense marginal.
        let mut c = build(3, &ops, &[]);
        c.measure(q, 0);
        let chp = stab::exact_distribution(&c).expect("Clifford");
        let p1_chp = chp.get(&1).copied().unwrap_or(0.0);
        let sv = statevec::run_ideal(&c).expect("small");
        let p1_dense = sv.prob_one(q as usize).expect("in range");
        prop_assert!((p1_chp - p1_dense).abs() < 1e-9);
    }
}
