//! Cross-crate integration tests: the full compile → (DD-insert) →
//! execute pipeline, checked end-to-end against noise-free references.

use adapt::dd::{insert_dd, DdConfig, DdMask, DdProtocol};
use adapt_suite::prelude::*;
use machine::NoiseToggles;
use std::collections::BTreeMap;

fn noise_free_exec() -> ExecutionConfig {
    ExecutionConfig {
        shots: 256,
        trajectories: 2,
        seed: 1,
        threads: 1,
    }
}

/// Counts must land exactly on the ideal support for a deterministic
/// benchmark when all noise is off.
fn assert_exact(ideal: &BTreeMap<u64, f64>, counts: &Counts) {
    for (outcome, n) in counts.iter() {
        assert!(
            ideal.get(&outcome).copied().unwrap_or(0.0) > 1e-12,
            "outcome {outcome:#b} (x{n}) outside ideal support {ideal:?}"
        );
    }
}

#[test]
fn every_benchmark_transpiles_and_executes_exactly_on_every_machine() {
    let devices = [
        Device::ibmq_guadalupe(11),
        Device::ibmq_paris(11),
        Device::ibmq_toronto(11),
    ];
    for dev in devices {
        for bench in benchmarks::paper_suite() {
            let t = transpile(&bench.circuit, &dev, &TranspileOptions::default());
            let m = Machine::with_toggles(dev.clone(), NoiseToggles::none());
            let counts = m
                .execute_timed(&t.timed, &noise_free_exec())
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name, dev.name()));
            let ideal = statevec::ideal_distribution(&bench.circuit).expect("ideal");
            assert_exact(&ideal, &counts);
        }
    }
}

#[test]
fn dd_insertion_is_an_identity_transformation_noise_free() {
    // DD sequences compose to identity: with noise off, any mask leaves
    // the output distribution untouched.
    let dev = Device::ibmq_toronto(5);
    let bench = benchmarks::qft_bench(5, 9);
    let t = transpile(&bench, &dev, &TranspileOptions::default());
    let m = Machine::with_toggles(dev.clone(), NoiseToggles::none());
    let ideal = statevec::ideal_distribution(&bench).expect("ideal");
    for protocol in [DdProtocol::Xy4, DdProtocol::IbmqDd, DdProtocol::Cpmg] {
        for mask_bits in [0b10101u64, 0b11111] {
            let mask = DdMask::from_bits(mask_bits, 5);
            let wires: Vec<u32> = adapt::dd::mask_to_wires(mask, &t.initial_layout);
            let inserted = insert_dd(&t.timed, &dev, &wires, &DdConfig::for_protocol(protocol));
            let counts = m
                .execute_timed(&inserted.timed, &noise_free_exec())
                .expect("execution");
            assert_exact(&ideal, &counts);
            if mask_bits == 0b11111 {
                assert!(inserted.pulse_count > 0, "{protocol} inserted nothing");
            }
        }
    }
}

#[test]
fn decoys_preserve_schedule_across_benchmarks() {
    use adapt::decoy::{make_decoy, DecoyKind};
    let dev = Device::ibmq_guadalupe(7);
    for bench in benchmarks::paper_suite().into_iter().take(6) {
        let t = transpile(&bench.circuit, &dev, &TranspileOptions::default());
        for kind in [
            DecoyKind::Clifford,
            DecoyKind::Seeded { max_seed_qubits: 4 },
        ] {
            let decoy = make_decoy(&t.timed, kind).expect("decoy");
            assert_eq!(
                decoy.timed.two_qubit_activity(),
                t.timed.two_qubit_activity(),
                "{}: {kind:?} altered the CNOT schedule",
                bench.name
            );
            assert!(
                (decoy.timed.total_ns() - t.timed.total_ns()).abs() < 1e-6,
                "{}: {kind:?} altered the makespan",
                bench.name
            );
            let total: f64 = decoy.ideal.values().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn clifford_decoy_ideal_matches_dense_simulation() {
    // The CHP path and the dense path must agree on CDC outputs.
    let dev = Device::ibmq_guadalupe(3);
    let bench = benchmarks::qft_bench(5, 7);
    let t = transpile(&bench, &dev, &TranspileOptions::default());
    let decoy = adapt::decoy::make_decoy(&t.timed, DecoyKind::Clifford).expect("decoy");
    let circuit = decoy.timed.to_circuit();
    let (compact, _) = circuit.compacted();
    let dense = statevec::ideal_distribution(&compact).expect("dense");
    assert_eq!(decoy.ideal.len(), dense.len());
    for (k, v) in &dense {
        let w = decoy.ideal.get(k).copied().unwrap_or(0.0);
        assert!((v - w).abs() < 1e-9, "outcome {k}: {v} vs {w}");
    }
}

#[test]
fn full_adapt_run_is_deterministic_and_bounded() {
    // Each run on its own machine: on one, the second search would
    // replay the first's batch runs rather than simulate them.
    let framework = Adapt::new(Machine::new(Device::ibmq_guadalupe(23)));
    let again = Adapt::new(Machine::new(Device::ibmq_guadalupe(23)));
    let program = benchmarks::bernstein_vazirani(5, 0b1011);
    let cfg = AdaptConfig {
        search_exec: ExecutionConfig {
            shots: 300,
            trajectories: 12,
            seed: 2,
            threads: 1,
        },
        final_exec: ExecutionConfig {
            shots: 600,
            trajectories: 20,
            seed: 3,
            threads: 1,
        },
        ..Default::default()
    };
    let a = framework
        .run_policy(&program, Policy::Adapt, &cfg)
        .expect("run");
    let b = again
        .run_policy(&program, Policy::Adapt, &cfg)
        .expect("run");
    assert_eq!(a.mask, b.mask);
    assert_eq!(a.counts, b.counts);
    // ≤ 4·N localized budget plus the 3-run referee step.
    assert!(
        a.search_runs <= 4 * 5 + 3,
        "search not linear: {}",
        a.search_runs
    );
    assert!((0.0..=1.0).contains(&a.fidelity));
}

#[test]
fn adapt_beats_no_dd_on_idle_dominated_workload() {
    // QFT-6 on Toronto is the paper's best case for DD; at these budgets
    // ADAPT must recover a large factor over the no-DD baseline.
    let framework = Adapt::new(Machine::new(Device::ibmq_toronto(2021)));
    let program = benchmarks::qft_bench(6, 42);
    let cfg = AdaptConfig {
        search_exec: ExecutionConfig {
            shots: 1024,
            trajectories: 32,
            seed: 5,
            threads: 1,
        },
        final_exec: ExecutionConfig {
            shots: 2048,
            trajectories: 48,
            seed: 6,
            threads: 1,
        },
        ..Default::default()
    };
    let no_dd = framework
        .run_policy(&program, Policy::NoDd, &cfg)
        .expect("NoDD");
    let ad = framework
        .run_policy(&program, Policy::Adapt, &cfg)
        .expect("ADAPT");
    assert!(
        ad.fidelity > 2.0 * no_dd.fidelity,
        "ADAPT {} should far exceed baseline {}",
        ad.fidelity,
        no_dd.fidelity
    );
}

#[test]
fn counts_respect_shot_budget_through_the_whole_stack() {
    let framework = Adapt::new(Machine::new(Device::ibmq_rome(2)));
    let program = benchmarks::adder4(true, false, true);
    let cfg = AdaptConfig {
        final_exec: ExecutionConfig {
            shots: 777,
            trajectories: 13,
            seed: 9,
            threads: 1,
        },
        search_exec: ExecutionConfig {
            shots: 100,
            trajectories: 5,
            seed: 10,
            threads: 1,
        },
        ..Default::default()
    };
    for policy in [Policy::NoDd, Policy::AllDd, Policy::Adapt] {
        let run = framework.run_policy(&program, policy, &cfg).expect("run");
        assert_eq!(run.counts.total(), 777, "{policy}");
    }
}
