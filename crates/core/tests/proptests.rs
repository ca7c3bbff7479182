//! Property tests for the ADAPT framework layers: masks, DD insertion
//! invariants, decoy schedule preservation, metric laws, and search
//! robustness under fault injection.

use adapt::dd::{insert_dd, DdConfig, DdMask, DdProtocol};
use adapt::decoy::{make_decoy, DecoyKind};
use adapt::metrics;
use adapt::{Adapt, AdaptConfig};
use device::Device;
use machine::{
    ExecutionConfig, FaultProfile, FaultyBackend, Machine, ResilientExecutor, RetryPolicy,
};
use proptest::prelude::*;
use qcirc::{Circuit, OpKind};
use std::sync::Arc;
use transpiler::{transpile, TranspileOptions};

fn arb_mask(n: usize) -> impl Strategy<Value = DdMask> {
    (0u64..(1 << n)).prop_map(move |bits| DdMask::from_bits(bits, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mask_display_parse_roundtrip(m in arb_mask(8)) {
        let s = m.to_string();
        let parsed: DdMask = s.parse().expect("well-formed");
        prop_assert_eq!(parsed, m);
        prop_assert_eq!(s.len(), 8);
    }

    #[test]
    fn mask_union_is_monotone_and_idempotent(a in arb_mask(8), b in arb_mask(8)) {
        let u = a.union(b);
        prop_assert_eq!(u.bits() & a.bits(), a.bits());
        prop_assert_eq!(u.bits() & b.bits(), b.bits());
        prop_assert_eq!(u.union(u), u);
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert!(u.count_ones() >= a.count_ones().max(b.count_ones()));
    }

    #[test]
    fn mask_with_and_is_set_agree(m in arb_mask(8), i in 0usize..8, on in any::<bool>()) {
        let m2 = m.with(i, on);
        prop_assert_eq!(m2.is_set(i), on);
        for j in 0..8 {
            if j != i {
                prop_assert_eq!(m2.is_set(j), m.is_set(j));
            }
        }
    }

    #[test]
    fn tvd_is_a_bounded_metric_against_counts(
        ps in proptest::collection::vec(0.0..1.0f64, 4),
        shots in proptest::collection::vec(0u64..100, 4),
    ) {
        let total: f64 = ps.iter().sum::<f64>().max(1e-9);
        let ideal: std::collections::BTreeMap<u64, f64> =
            ps.iter().enumerate().map(|(i, &p)| (i as u64, p / total)).collect();
        let mut counts = qcirc::Counts::new(2);
        for (i, &s) in shots.iter().enumerate() {
            counts.record_many(i as u64, s);
        }
        let d = metrics::tvd(&ideal, &counts);
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&d));
        let f = metrics::fidelity(&ideal, &counts);
        prop_assert!((f + d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_bounded_and_self_correlated(
        xs in proptest::collection::vec(-100.0..100.0f64, 3..20)
    ) {
        let rho = metrics::spearman(&xs, &xs);
        // 1 unless constant (then 0 by convention).
        prop_assert!(rho == 0.0 || (rho - 1.0).abs() < 1e-9);
        let ys: Vec<f64> = xs.iter().rev().copied().collect();
        let r2 = metrics::spearman(&xs, &ys);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r2));
    }
}

// DD-insertion invariants are checked on a grid (device + benchmarks are
// heavyweight for proptest's shrinking, and a seeded grid covers the same
// input space deterministically).
#[test]
fn dd_insertion_invariants_over_mask_grid() {
    let dev = Device::ibmq_guadalupe(13);
    let mut program = Circuit::new(4);
    program
        .h(0)
        .t(1)
        .cx(0, 1)
        .cx(1, 2)
        .t(2)
        .cx(2, 3)
        .cx(0, 1)
        .measure_all();
    let t = transpile(&program, &dev, &TranspileOptions::default());

    for protocol in [DdProtocol::Xy4, DdProtocol::IbmqDd, DdProtocol::Cpmg] {
        for mask in DdMask::enumerate_all(4) {
            let wires = adapt::dd::mask_to_wires(mask, &t.initial_layout);
            let out = insert_dd(&t.timed, &dev, &wires, &DdConfig::for_protocol(protocol));
            // 1. Makespan unchanged.
            assert!((out.timed.total_ns() - t.timed.total_ns()).abs() < 1e-6);
            // 2. Original events all survive.
            assert_eq!(
                out.timed.events().len(),
                t.timed.events().len() + out.pulse_count
            );
            // 3. No pulse overlaps any original busy interval on its wire.
            for &wire in &wires {
                let busy = t.timed.busy_intervals(wire);
                for e in out.timed.events() {
                    let is_pulse = matches!(e.instr.kind, OpKind::Gate(_))
                        && e.instr.qubits.len() == 1
                        && e.instr.qubits[0].index() == wire as usize
                        && !busy.iter().any(|b| {
                            (b.start_ns - e.start_ns).abs() < 1e-9
                                && (b.end_ns - e.end_ns).abs() < 1e-9
                        });
                    if is_pulse {
                        for b in &busy {
                            let overlap =
                                e.start_ns < b.end_ns - 1e-9 && b.start_ns < e.end_ns - 1e-9;
                            assert!(
                                !overlap,
                                "{protocol}: pulse [{}, {}] overlaps busy [{}, {}] on wire {wire}",
                                e.start_ns, e.end_ns, b.start_ns, b.end_ns
                            );
                        }
                    }
                }
            }
            // 4. Monotone: more qubits → at least as many pulses.
            let all_out = insert_dd(
                &t.timed,
                &dev,
                &adapt::dd::mask_to_wires(DdMask::all(4), &t.initial_layout),
                &DdConfig::for_protocol(protocol),
            );
            assert!(all_out.pulse_count >= out.pulse_count);
        }
    }
}

/// One full ADAPT mask search on a faulty 5-qubit backend, with retry.
fn faulty_search(profile: FaultProfile, fault_seed: u64) -> (usize, adapt::SearchResult) {
    let machine = Machine::new(Device::ibmq_rome(23));
    let faulty = FaultyBackend::new(machine, profile, fault_seed);
    let policy = RetryPolicy { max_attempts: 6 };
    let adapt = Adapt::with_backend(Arc::new(ResilientExecutor::with_policy(
        Arc::new(faulty),
        policy,
    )));

    let mut program = Circuit::new(3);
    program.h(0).cx(0, 1).t(1).cx(1, 2).h(2).measure_all();
    let cfg = AdaptConfig {
        search_exec: ExecutionConfig {
            shots: 256,
            trajectories: 8,
            seed: 0xDEC0,
            threads: 1,
        },
        ..AdaptConfig::default()
    };
    let compiled = adapt.compile(&program, &cfg);
    let n = 3;
    let result = adapt
        .choose_mask(&compiled, n, &cfg)
        .expect("search under transient faults must complete via degradation");
    (n, result)
}

proptest! {
    // The search is the expensive part of the pipeline, so only a handful
    // of cases — each one is a full localized search under fault injection.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever the fault schedule does, the search must return a mask
    /// (and candidate evaluations) defined over exactly the program's
    /// qubits, with degradations confined to in-range qubit indices —
    /// and it must be deterministic in the fault seed.
    #[test]
    fn faulty_search_always_yields_valid_mask(
        fault_seed in 0u64..1_000_000,
        profile_idx in 0usize..3,
    ) {
        let profile = [
            FaultProfile::flaky(),
            FaultProfile::lossy(),
            FaultProfile::brutal(),
        ][profile_idx];
        let (n, result) = faulty_search(profile, fault_seed);

        prop_assert_eq!(result.best.num_qubits(), n);
        prop_assert!(result.best.bits() < (1 << n));
        prop_assert!(!result.evaluations.is_empty());
        for score in &result.evaluations {
            prop_assert_eq!(score.mask.num_qubits(), n);
            prop_assert!(score.fidelity.is_finite());
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&score.fidelity));
        }
        for group in &result.degraded {
            prop_assert!(!group.qubits.is_empty());
            prop_assert!(group.qubits.iter().all(|&q| (q as usize) < n));
        }

        // Same fault seed → byte-identical search outcome.
        let (_, again) = faulty_search(profile, fault_seed);
        prop_assert_eq!(again.best, result.best);
        prop_assert_eq!(again.evaluations.len(), result.evaluations.len());
        prop_assert_eq!(again.unavailable_runs, result.unavailable_runs);
    }
}

/// One full ADAPT mask search (batched scoring inside) with an explicit
/// executor thread count, on a clean or fault-injected backend.
fn searched(
    profile: Option<FaultProfile>,
    fault_seed: u64,
    exec_seed: u64,
    threads: usize,
) -> adapt::SearchResult {
    let machine = Machine::new(Device::ibmq_rome(23));
    let adapt = match profile {
        None => Adapt::new(machine),
        Some(p) => {
            let faulty = FaultyBackend::new(machine, p, fault_seed);
            let policy = RetryPolicy { max_attempts: 6 };
            Adapt::with_backend(Arc::new(ResilientExecutor::with_policy(
                Arc::new(faulty),
                policy,
            )))
        }
    };
    let mut program = Circuit::new(3);
    program.h(0).cx(0, 1).t(1).cx(1, 2).h(2).measure_all();
    let cfg = AdaptConfig {
        search_exec: ExecutionConfig {
            shots: 256,
            trajectories: 8,
            seed: exec_seed,
            threads,
        },
        ..AdaptConfig::default()
    };
    let compiled = adapt.compile(&program, &cfg);
    adapt
        .choose_mask(&compiled, 3, &cfg)
        .expect("search must complete, degrading if necessary")
}

proptest! {
    // Each case runs two full localized searches; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The batch-scoring contract: submitting a neighborhood's masks as
    /// one batch (and letting the backend run jobs on worker threads)
    /// must yield a bit-identical `SearchResult` to a single-threaded
    /// run — across execution seeds and fault profiles.
    #[test]
    fn batched_search_is_bit_identical_to_serial(
        fault_seed in 0u64..1_000_000,
        exec_seed in 0u64..1_000_000,
        profile_idx in 0usize..4,
    ) {
        let profile = [
            None,
            Some(FaultProfile::flaky()),
            Some(FaultProfile::lossy()),
            Some(FaultProfile::brutal()),
        ][profile_idx];
        let serial = searched(profile, fault_seed, exec_seed, 1);
        let parallel = searched(profile, fault_seed, exec_seed, 4);

        prop_assert_eq!(parallel.best, serial.best);
        prop_assert_eq!(parallel.unavailable_runs, serial.unavailable_runs);
        prop_assert_eq!(parallel.evaluations.len(), serial.evaluations.len());
        for (p, s) in parallel.evaluations.iter().zip(&serial.evaluations) {
            prop_assert_eq!(p.mask, s.mask);
            prop_assert_eq!(p.fidelity.to_bits(), s.fidelity.to_bits());
        }
        prop_assert_eq!(parallel.degraded.len(), serial.degraded.len());
        for (p, s) in parallel.degraded.iter().zip(&serial.degraded) {
            prop_assert_eq!(&p.qubits, &s.qubits);
            prop_assert_eq!(&p.reason, &s.reason);
        }
    }
}

#[test]
fn decoy_schedule_preservation_over_kind_grid() {
    let dev = Device::ibmq_guadalupe(17);
    for (i, bench) in benchmarks::paper_suite().into_iter().take(4).enumerate() {
        let t = transpile(&bench.circuit, &dev, &TranspileOptions::default());
        for kind in [
            DecoyKind::Clifford,
            DecoyKind::CnotOnly,
            DecoyKind::Seeded { max_seed_qubits: i },
        ] {
            let d = make_decoy(&t.timed, kind).expect("decoy");
            assert_eq!(d.timed.two_qubit_activity(), t.timed.two_qubit_activity());
            let total: f64 = d.ideal.values().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: {kind:?}", bench.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tier-0 heuristic masks are valid for the device across all five
    /// hardware presets: the mask covers exactly the program qubits, the
    /// layout maps every assessed qubit onto a distinct physical wire
    /// inside the topology, evidence rows agree with the mask bit for
    /// bit, a bit is set exactly when the qubit's idle/T2 ratio clears
    /// the heuristic's 0.001 gate, and the whole computation replays
    /// bit-identically.
    #[test]
    fn heuristic_masks_are_valid_on_every_preset(
        preset in 0usize..5,
        seed in 0u64..10_000,
        n in 2usize..=5,
    ) {
        let dev = [
            Device::ibmq_guadalupe as fn(u64) -> Device,
            Device::ibmq_paris,
            Device::ibmq_toronto,
            Device::ibmq_rome,
            Device::ibmq_london,
        ][preset](seed);
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 1..n as u32 {
            c.cx(q - 1, q);
        }
        c.measure_all();
        let compiled = transpile(&c, &dev, &TranspileOptions::default());
        let h = adapt::heuristic::heuristic_mask(&compiled, &dev, n);

        prop_assert_eq!(h.mask.num_qubits(), n);
        prop_assert_eq!(h.assessments.len(), n);
        let topo_qubits = dev.topology().num_qubits() as u32;
        let mut wires = std::collections::HashSet::new();
        for a in &h.assessments {
            prop_assert!(
                a.physical_qubit < topo_qubits,
                "qubit {} mapped outside the {}-wire topology",
                a.program_qubit, topo_qubits
            );
            prop_assert!(wires.insert(a.physical_qubit), "layout must be injective");
            prop_assert_eq!(h.mask.is_set(a.program_qubit as usize), a.dd);
            prop_assert!(a.idle_ns >= 0.0);
            prop_assert_eq!(
                a.dd,
                a.idle_t2_ratio >= 0.001,
                "bit must be set exactly when the ratio clears the gate: {}",
                a.idle_t2_ratio
            );
        }
        let replay = adapt::heuristic::heuristic_mask(&compiled, &dev, n);
        prop_assert_eq!(replay, h);
    }
}
