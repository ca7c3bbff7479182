//! Integration tests for the simulator-routing layer: engine selection,
//! the routing-keyed plan cache, and the determinism contract across
//! both engines.

use device::Device;
use machine::{
    routing_key, Backend, EnginePolicy, ExecutionConfig, JobSpec, Machine, NoiseToggles, SimEngine,
};
use qcirc::Circuit;
use transpiler::{try_schedule, SchedulePolicy, TimedCircuit};

fn cfg(seed: u64) -> ExecutionConfig {
    ExecutionConfig {
        shots: 1024,
        trajectories: 16,
        seed,
        threads: 1,
    }
}

fn timed_of(c: &Circuit, dev: &Device) -> TimedCircuit {
    try_schedule(c, dev, SchedulePolicy::Alap).unwrap()
}

fn clifford_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).s(1).cx(1, 2).measure_all();
    c
}

fn non_clifford_circuit() -> Circuit {
    let mut c = Circuit::new(2);
    c.h(0).t(0).cx(0, 1).measure_all();
    c
}

#[test]
fn clifford_circuits_route_to_chp_under_auto() {
    let m = Machine::new(Device::ibmq_rome(5));
    m.execute(&clifford_circuit(), &cfg(1)).unwrap();
    let stats = m.engine_stats();
    assert_eq!(stats.chp_executions, 1, "{stats:?}");
    assert_eq!(stats.statevec_executions, 0, "{stats:?}");

    m.execute(&non_clifford_circuit(), &cfg(1)).unwrap();
    let stats = m.engine_stats();
    assert_eq!(stats.chp_executions, 1, "{stats:?}");
    assert_eq!(stats.statevec_executions, 1, "T gate must route dense");
}

#[test]
fn force_statevector_policy_overrides_routing() {
    let m = Machine::new(Device::ibmq_rome(5)).with_engine_policy(EnginePolicy::ForceStateVector);
    m.execute(&clifford_circuit(), &cfg(1)).unwrap();
    let stats = m.engine_stats();
    assert_eq!(stats.chp_executions, 0, "{stats:?}");
    assert_eq!(stats.statevec_executions, 1, "{stats:?}");
}

#[test]
fn noise_model_edit_flips_routing_and_cache_key() {
    // Satellite: disabling the coherent twirl while coherent idling is on
    // makes the noise non-Pauli-expressible — the same circuit must flip
    // from CHP to state-vector AND change its plan-cache key, so stale
    // cached plans can never cross engines.
    let dev = Device::ibmq_rome(5);
    let timed = timed_of(&clifford_circuit(), &dev);
    let twirl_on = NoiseToggles::default();
    let twirl_off = NoiseToggles {
        coherent_twirl: false,
        ..NoiseToggles::default()
    };
    assert_ne!(
        routing_key(&timed, &twirl_on, EnginePolicy::Auto),
        routing_key(&timed, &twirl_off, EnginePolicy::Auto),
    );

    let chp_machine = Machine::with_toggles(dev.clone(), twirl_on);
    let dense_machine = Machine::with_toggles(dev, twirl_off);
    chp_machine.execute_timed(&timed, &cfg(3)).unwrap();
    dense_machine.execute_timed(&timed, &cfg(3)).unwrap();
    assert_eq!(chp_machine.engine_stats().chp_executions, 1);
    assert_eq!(dense_machine.engine_stats().statevec_executions, 1);
}

#[test]
fn chp_results_are_deterministic_and_thread_invariant() {
    let m = Machine::new(Device::ibmq_rome(9));
    let c = clifford_circuit();
    let a = m.execute(&c, &cfg(7)).unwrap();
    let b = m.execute(&c, &cfg(7)).unwrap();
    assert_eq!(a, b, "same seed must be bit-identical");
    let mut cfg4 = cfg(7);
    cfg4.threads = 4;
    let d = m.execute(&c, &cfg4).unwrap();
    assert_eq!(a, d, "thread count must not affect results");
    let e = m.execute(&c, &cfg(8)).unwrap();
    assert_ne!(a, e, "different seeds must differ");
    assert!(m.engine_stats().chp_executions >= 4);
}

#[test]
fn engines_agree_exactly_when_noise_free() {
    // With every channel off both engines are exact simulators of the
    // same Clifford circuit, so their sampled distributions coincide up
    // to RNG stream differences; on a deterministic-outcome circuit the
    // counts must be exactly equal.
    let dev = Device::ibmq_rome(5);
    let mut c = Circuit::new(2);
    c.x(0).cx(0, 1).measure_all(); // deterministic outcome |11⟩
    let chp = Machine::with_toggles(dev.clone(), NoiseToggles::none());
    let dense = Machine::with_toggles(dev, NoiseToggles::none())
        .with_engine_policy(EnginePolicy::ForceStateVector);
    let a = chp.execute(&c, &cfg(5)).unwrap();
    let b = dense.execute(&c, &cfg(5)).unwrap();
    assert_eq!(chp.engine_stats().chp_executions, 1);
    assert_eq!(dense.engine_stats().statevec_executions, 1);
    assert_eq!(a.get(0b11), 1024);
    assert_eq!(a, b);
}

#[test]
fn batch_is_bit_identical_to_serial_on_both_engines() {
    // The execute_batch determinism contract, extended across routing: a
    // mixed batch (CHP-routed Clifford jobs + dense-routed T-gate jobs)
    // must produce bit-identical results however the thread budget is
    // split.
    let m = Machine::new(Device::ibmq_rome(9));
    let cliff = timed_of(&clifford_circuit(), m.device());
    let dense = timed_of(&non_clifford_circuit(), m.device());
    let mk = |timed: &TimedCircuit, seed: u64, threads: usize| -> ExecutionConfig {
        let _ = timed;
        ExecutionConfig {
            shots: 512,
            trajectories: 8,
            seed,
            threads,
        }
    };
    let serial: Vec<_> = [(&cliff, 1), (&dense, 2), (&cliff, 3), (&dense, 4)]
        .iter()
        .map(|&(t, s)| m.execute_timed(t, &mk(t, s, 1)).unwrap())
        .collect();
    let jobs: Vec<JobSpec<'_>> = [(&cliff, 1), (&dense, 2), (&cliff, 3), (&dense, 4)]
        .iter()
        .map(|&(t, s)| JobSpec {
            timed: t,
            config: mk(t, s, 4),
        })
        .collect();
    let batched = m.execute_batch(&jobs);
    for (i, (s, b)) in serial.iter().zip(batched.iter()).enumerate() {
        let b = b.as_ref().expect("job ok");
        assert_eq!(s, &b.counts, "job {i} must be bit-identical to serial");
    }
    let stats = m.engine_stats();
    assert!(stats.chp_executions > 0 && stats.statevec_executions > 0);
    assert!(stats.last_batch_workers >= 1);
}

/// Runs one batch of Clifford-circuit jobs, one per `(seed, trajectories,
/// threads)` spec, and checks that every job succeeds. Each job gets its
/// own shot count, so jobs sharing a seed are still distinct runs (the
/// machine would simulate identical ones once).
fn clifford_batch(m: &Machine, specs: &[(u64, u32, usize)]) {
    let cliff = timed_of(&clifford_circuit(), m.device());
    let jobs: Vec<JobSpec<'_>> = specs
        .iter()
        .enumerate()
        .map(|(i, &(seed, trajectories, threads))| JobSpec {
            timed: &cliff,
            config: ExecutionConfig {
                shots: 256 + i as u64,
                trajectories,
                seed,
                threads,
            },
        })
        .collect();
    assert!(m.execute_batch(&jobs).iter().all(|r| r.is_ok()));
}

#[test]
fn batch_reports_actual_thread_layout() {
    // The batch runs (trajectory seed, slice of jobs) units on one level
    // of workers: min(budget, units), where each of S seeds is cut into
    // ⌈budget / S⌉ slices of its jobs. Each layout runs on a fresh
    // machine, so no job is a replay of an earlier batch's run.
    let fresh = || Machine::new(Device::ibmq_rome(9));
    // Two master seeds × 8 trajectories = 16 trajectory seeds, one slice
    // each: 16 units, so the whole budget of 4 is used.
    let m = fresh();
    clifford_batch(&m, &[(0, 8, 4), (1, 8, 4)]);
    assert_eq!(m.engine_stats().last_batch_workers, 4);
    // One seed shared by four jobs, budget 4: four one-job slices.
    let m = fresh();
    clifford_batch(&m, &[(5, 1, 4); 4]);
    assert_eq!(m.engine_stats().last_batch_workers, 4);
    // One seed shared by two jobs: only two non-empty slices to run.
    let m = fresh();
    clifford_batch(&m, &[(5, 1, 4); 2]);
    assert_eq!(m.engine_stats().last_batch_workers, 2);
    // A hint of 1 runs the batch on the calling thread.
    let m = fresh();
    clifford_batch(&m, &[(0, 8, 1), (1, 8, 1)]);
    assert_eq!(m.engine_stats().last_batch_workers, 1);
    // A batch whose every job repeats a run its machine kept simulates
    // nothing, so no worker runs.
    let m = fresh();
    clifford_batch(&m, &[(0, 8, 4)]);
    clifford_batch(&m, &[(0, 8, 4)]);
    assert_eq!(m.engine_stats().last_batch_workers, 0);
    assert_eq!(m.engine_stats().batch_replays, 1);
}

#[test]
fn batch_budget_counts_zero_as_every_core() {
    // `threads: 0` asks for all cores, so it must dominate an explicit
    // `1` in the batch budget rather than lose to it as the smaller
    // number.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let m = Machine::new(Device::ibmq_rome(9));
    clifford_batch(&m, &[(0, 16, 0), (0, 16, 1)]);
    assert_eq!(m.engine_stats().last_batch_workers, cores.min(16) as u64);
}

#[test]
fn mixed_batch_matches_serial_at_every_budget() {
    // Two master seeds, different shot and trajectory counts, a
    // CHP-routed job, a dense-routed job and one oversized job that must
    // fail in its own slot: every result equals a serial `execute_timed`,
    // whatever the thread budget.
    let m = Machine::new(Device::all_to_all(27, 3));
    let cliff = timed_of(&clifford_circuit(), m.device());
    let dense = timed_of(&non_clifford_circuit(), m.device());
    let mut wide = Circuit::new(27);
    for q in 0..27 {
        wide.h(q);
    }
    wide.measure_all();
    let oversized = timed_of(&wide, m.device());
    let specs: [(&TimedCircuit, u64, u64, u32); 6] = [
        (&cliff, 11, 300, 8),
        (&dense, 11, 257, 5),
        (&oversized, 11, 64, 4),
        (&cliff, 12, 100, 3),
        (&dense, 12, 512, 8),
        (&cliff, 11, 77, 12),
    ];
    let config = |seed, shots, trajectories, threads| ExecutionConfig {
        shots,
        trajectories,
        seed,
        threads,
    };
    let serial: Vec<_> = specs
        .iter()
        .map(|&(t, seed, shots, traj)| m.execute_timed(t, &config(seed, shots, traj, 1)))
        .collect();
    assert!(serial[2].is_err());
    for budget in [0, 1, 2, 4] {
        let jobs: Vec<JobSpec<'_>> = specs
            .iter()
            .map(|&(timed, seed, shots, traj)| JobSpec {
                timed,
                config: config(seed, shots, traj, budget),
            })
            .collect();
        // A fresh machine per budget: on `m` every budget after the first
        // would replay the first batch's runs instead of simulating.
        let fresh = Machine::new(m.device().clone());
        let batched = fresh.execute_batch(&jobs);
        assert_eq!(fresh.engine_stats().batch_replays, 0);
        assert_eq!(batched.len(), serial.len());
        for (i, (s, b)) in serial.iter().zip(&batched).enumerate() {
            match (s, b) {
                (Ok(s), Ok(b)) => assert_eq!(s, &b.counts, "budget {budget}, job {i}"),
                (Err(s), Err(b)) => assert_eq!(s, b, "budget {budget}, job {i}"),
                _ => panic!("budget {budget}, job {i}: serial {s:?} vs batched {b:?}"),
            }
        }
    }
}

#[test]
fn oversized_circuits_rejected_identically_on_both_engines() {
    // The active-qubit cap applies before routing: a 27-qubit Clifford
    // circuit is rejected even though a tableau could hold it. Routing
    // must never change which circuits are accepted.
    let dev = Device::all_to_all(27, 1);
    for policy in [EnginePolicy::Auto, EnginePolicy::ForceStateVector] {
        let m = Machine::new(dev.clone()).with_engine_policy(policy);
        let mut c = Circuit::new(27);
        for q in 0..27 {
            c.h(q as u32);
        }
        c.measure_all();
        let err = m.execute(&c, &cfg(1)).unwrap_err();
        assert!(
            matches!(
                err,
                machine::ExecError::TooManyActiveQubits { active: 27, .. }
            ),
            "{policy:?}: {err:?}"
        );
    }
}

#[test]
fn engine_tags_are_stable() {
    // Benchmark reports and metrics key off these strings.
    assert_eq!(SimEngine::Chp.tag(), "chp");
    assert_eq!(SimEngine::StateVector.tag(), "statevector");
}
