//! Integration tests for batch replay: a `Machine` simulates each
//! distinct (plan, seed, shots, trajectories) run of its batches at most
//! once, and serves every repeat with bit-identical counts.

use device::Device;
use machine::{
    Backend, ExecError, ExecutionConfig, FaultProfile, FaultyBackend, JobSpec, Machine, ShotBatch,
};
use qcirc::{Circuit, Gate, Instruction, Qubit};
use transpiler::{try_schedule, SchedulePolicy, TimedCircuit, TimedInstruction};

fn cfg(seed: u64) -> ExecutionConfig {
    ExecutionConfig {
        shots: 300,
        trajectories: 6,
        seed,
        threads: 2,
    }
}

fn timed_of(c: &Circuit, dev: &Device) -> TimedCircuit {
    try_schedule(c, dev, SchedulePolicy::Alap).unwrap()
}

/// Routes to CHP under the default noise model.
fn clifford_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).s(1).cx(1, 2).measure_all();
    c
}

/// The T gate routes it to the dense engine.
fn dense_circuit() -> Circuit {
    let mut c = Circuit::new(2);
    c.h(0).t(0).cx(0, 1).measure_all();
    c
}

fn batch(
    m: &Machine,
    jobs: &[(&TimedCircuit, ExecutionConfig)],
) -> Vec<Result<ShotBatch, ExecError>> {
    let jobs: Vec<JobSpec<'_>> = jobs
        .iter()
        .map(|&(timed, config)| JobSpec { timed, config })
        .collect();
    m.execute_batch(&jobs)
}

#[test]
fn replayed_batches_equal_a_fresh_machine_on_both_engines() {
    let m = Machine::new(Device::ibmq_rome(9));
    let cliff = timed_of(&clifford_circuit(), m.device());
    let dense = timed_of(&dense_circuit(), m.device());
    let mut c = clifford_circuit();
    c.x(2);
    let cliff2 = timed_of(&c, m.device());
    let mut c = dense_circuit();
    c.x(1);
    let dense2 = timed_of(&c, m.device());
    // One run per plan: a plan's slot keeps only its last run.
    let jobs = [
        (&cliff, cfg(1)),
        (&dense, cfg(1)),
        (&cliff2, cfg(2)),
        (&dense2, cfg(3)),
    ];
    let first = batch(&m, &jobs);
    assert_eq!(m.engine_stats().batch_replays, 0);
    let again = batch(&m, &jobs);
    let stats = m.engine_stats();
    assert_eq!(stats.batch_replays, 4, "every job of the repeat replays");
    assert_eq!(
        stats.last_batch_workers, 0,
        "a replayed batch simulates nothing"
    );
    // The routing counters count served jobs, replays included.
    assert_eq!((stats.chp_executions, stats.statevec_executions), (4, 4));

    let fresh = Machine::new(Device::ibmq_rome(9));
    let reference = batch(&fresh, &jobs);
    assert_eq!(fresh.engine_stats().batch_replays, 0);
    for (i, ((a, b), r)) in first.iter().zip(&again).zip(&reference).enumerate() {
        let r = r.as_ref().expect("job runs");
        assert_eq!(a.as_ref().unwrap(), r, "job {i}: first batch");
        assert_eq!(b.as_ref().unwrap(), r, "job {i}: replayed batch");
    }
}

#[test]
fn duplicates_within_a_batch_simulate_once() {
    let m = Machine::new(Device::ibmq_rome(9));
    let cliff = timed_of(&clifford_circuit(), m.device());
    let dense = timed_of(&dense_circuit(), m.device());
    // The same structure scheduled twice is the same plan.
    let cliff_again = timed_of(&clifford_circuit(), m.device());
    let jobs = [
        (&cliff, cfg(4)),
        (&dense, cfg(4)),
        (&cliff_again, cfg(4)),
        (&cliff, cfg(5)),
        (&dense, cfg(4)),
    ];
    let results = batch(&m, &jobs);
    assert_eq!(m.engine_stats().batch_replays, 2);
    let results: Vec<ShotBatch> = results.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(results[0], results[2]);
    assert_eq!(results[1], results[4]);
    assert_ne!(results[0], results[3], "another seed is another run");
    for ((timed, config), got) in jobs.iter().zip(&results) {
        assert_eq!(&m.execute_timed(timed, config).unwrap(), &got.counts);
    }
}

#[test]
fn the_run_key_is_seed_shots_and_trajectories_but_not_threads() {
    let m = Machine::new(Device::ibmq_rome(9));
    let cliff = timed_of(&clifford_circuit(), m.device());
    let base = cfg(6);
    let replays_after = |config: ExecutionConfig| {
        batch(&m, &[(&cliff, config)])[0].as_ref().unwrap();
        m.engine_stats().batch_replays
    };
    assert_eq!(replays_after(base), 0);
    assert_eq!(replays_after(ExecutionConfig { threads: 1, ..base }), 1);
    assert_eq!(replays_after(ExecutionConfig { threads: 0, ..base }), 2);
    for changed in [
        ExecutionConfig { seed: 7, ..base },
        ExecutionConfig { shots: 301, ..base },
        ExecutionConfig {
            trajectories: 7,
            ..base
        },
    ] {
        // Only the last successful run is kept, so restore the base run's
        // slot first; the changed run must still miss it.
        replays_after(base);
        let before = m.engine_stats().batch_replays;
        assert_eq!(replays_after(changed), before, "{changed:?} must simulate");
    }
}

#[test]
fn failed_runs_are_not_kept_and_duplicates_share_the_error() {
    let m = Machine::new(Device::ibmq_rome(9));
    // A two-qubit gate on one qubit (which `Circuit` refuses to build)
    // fails inside the dense simulator, trajectory by trajectory.
    let base = timed_of(&dense_circuit(), m.device());
    let mut events = base.events().to_vec();
    events.push(TimedInstruction {
        instr: Instruction::gate(Gate::CX, vec![Qubit::new(1), Qubit::new(1)]),
        start_ns: 0.0,
        end_ns: 0.0,
    });
    let bad = TimedCircuit::from_events(base.num_qubits(), base.num_clbits(), events);
    let results = batch(&m, &[(&bad, cfg(8)), (&bad, cfg(8))]);
    let err = results[0].clone().unwrap_err();
    assert!(matches!(err, ExecError::Sim(_)), "{err:?}");
    assert_eq!(results[1], Err(err.clone()));
    assert_eq!(m.execute_timed(&bad, &cfg(8)), Err(err.clone()));
    assert_eq!(m.engine_stats().batch_replays, 1, "the duplicate copied");
    // Nothing was kept: the next batch simulates and fails again.
    assert_eq!(batch(&m, &[(&bad, cfg(8))])[0], Err(err));
    assert_eq!(m.engine_stats().batch_replays, 1);
    assert!(m.engine_stats().last_batch_workers > 0);

    // A plan that fails to compile fails for every job on its own.
    let dev = Device::all_to_all(27, 1);
    let m = Machine::new(dev.clone());
    let mut wide = Circuit::new(27);
    for q in 0..27 {
        wide.h(q);
    }
    wide.measure_all();
    let oversized = timed_of(&wide, &dev);
    let results = batch(&m, &[(&oversized, cfg(1)), (&oversized, cfg(1))]);
    assert!(matches!(
        results[0],
        Err(ExecError::TooManyActiveQubits { .. })
    ));
    assert_eq!(results[0], results[1]);
    assert_eq!(m.engine_stats().batch_replays, 0);
}

#[test]
fn an_evicted_plan_loses_its_replay_slot() {
    let dev = Device::ibmq_rome(9);
    let m = Machine::new(dev.clone());
    let first = timed_of(&clifford_circuit(), &dev);
    let kept = batch(&m, &[(&first, cfg(9))]);
    // One more distinct plan than the cache holds, each used after
    // `first`, pushes `first` out as least recently used.
    let capacity = m.plan_cache_stats().capacity;
    let others: Vec<TimedCircuit> = (1..=capacity)
        .map(|k| {
            let mut c = Circuit::new(1);
            for _ in 0..k {
                c.x(0);
            }
            c.measure_all();
            timed_of(&c, &dev)
        })
        .collect();
    let small = ExecutionConfig {
        shots: 4,
        trajectories: 1,
        seed: 9,
        threads: 1,
    };
    for timed in &others {
        batch(&m, &[(timed, small)])[0].as_ref().unwrap();
    }
    assert!(m.plan_cache_stats().evictions >= 1);
    let before = m.engine_stats().batch_replays;
    let rerun = batch(&m, &[(&first, cfg(9))]);
    assert_eq!(
        m.engine_stats().batch_replays,
        before,
        "slot left with its plan"
    );
    assert_eq!(rerun, kept);
}

#[test]
fn faulty_backends_batch_their_survivors() {
    // `FaultyBackend` simulates a batch's surviving jobs as one machine
    // batch. A repeated job has the same address, so it draws the same
    // faults, and the machine replays its run instead of simulating it
    // again; the results still equal a serial loop's.
    let dev = Device::ibmq_rome(9);
    let cliff = timed_of(&clifford_circuit(), &dev);
    let dense = timed_of(&dense_circuit(), &dev);
    let specs = [
        (&cliff, cfg(1)),
        (&cliff, cfg(1)),
        (&dense, cfg(2)),
        (&cliff, cfg(1)),
    ];
    let jobs: Vec<JobSpec<'_>> = specs
        .iter()
        .map(|&(timed, config)| JobSpec { timed, config })
        .collect();
    // Every fault kind but calibration drift, which would swap the
    // wrapped machine for a fresh one mid-run.
    let profile = FaultProfile {
        staleness_after_jobs: None,
        ..FaultProfile::brutal()
    };
    let machine = Machine::new(dev.clone());
    let faulty = FaultyBackend::new(machine.clone(), profile, 13);
    let batched: Vec<_> = (0..3).flat_map(|_| faulty.execute_batch(&jobs)).collect();

    let serial_backend = FaultyBackend::new(Machine::new(dev), profile, 13);
    let serial: Vec<_> = (0..3)
        .flat_map(|_| {
            jobs.iter()
                .map(|j| serial_backend.execute_timed(j.timed, &j.config))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(batched, serial);
    assert_eq!(faulty.injected(), serial_backend.injected());
    assert!(faulty.injected() != Default::default(), "faults fired");
    for repeat in [1, 3] {
        assert_eq!(batched[repeat], batched[0], "a repeat repeats its faults");
    }
    assert!(batched[0].is_ok(), "seed 13 lets the repeated job through");
    assert!(machine.engine_stats().batch_replays > 0);
}
