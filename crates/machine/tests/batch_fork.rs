//! Integration tests for prefix forking: a batch job whose op stream
//! starts like an earlier job's resumes that job's trajectory after the
//! shared prefix, and its counts stay bit-identical to a plain run.
//!
//! The programs stand in for a decoy under a neighbourhood's DD masks:
//! qubit `s` idles through stage `s` of a barrier-separated schedule, and
//! mask bit `s` fills that window with an XY4 train of the same length.
//! So two masks agree up to the first stage where their bits differ, and
//! the schedule, its crosstalk episodes and the active qubits are the same
//! for every mask. The Clifford program routes to CHP; the seeded one
//! keeps a `T` phase and routes to the dense engine.

use device::Device;
use machine::{Backend, ExecError, ExecutionConfig, JobSpec, Machine, ShotBatch};
use proptest::prelude::*;
use qcirc::{Circuit, Gate};
use transpiler::{try_schedule, SchedulePolicy, TimedCircuit};

/// Length of each stage's idle window, ns.
const WINDOW_NS: f64 = 2000.0;

fn cfg(seed: u64, threads: usize) -> ExecutionConfig {
    ExecutionConfig {
        shots: 64,
        trajectories: 3,
        seed,
        threads,
    }
}

/// Idles qubit `q` for one window: a plain delay, or an XY4 train whose
/// pulses and spacings add up to the same length.
fn window(c: &mut Circuit, dev: &Device, q: u32, dd: bool) {
    if !dd {
        c.delay(WINDOW_NS, q);
        return;
    }
    let pulse = dev.gate_duration(Gate::X, &[q]);
    let tau = (WINDOW_NS - 4.0 * pulse) / 8.0;
    assert!(tau > 0.0, "the window must hold four pulses");
    c.delay(tau, q);
    for (i, g) in [Gate::X, Gate::Y, Gate::X, Gate::Y].into_iter().enumerate() {
        c.gate(g, &[q]);
        c.delay(if i == 3 { tau } else { 2.0 * tau }, q);
    }
}

/// A program over `n` qubits of a line whose stage `s` idles qubit `s`
/// (DD-padded when bit `s` of `mask` is set) while a CX runs on a pair
/// away from it. `seeded` adds a `T` phase, which routes it to the dense
/// engine; `variant` changes its first gate.
fn program(dev: &Device, n: u32, mask: u32, seeded: bool, variant: bool) -> TimedCircuit {
    let mut c = Circuit::new(n as usize);
    for q in 0..n {
        c.h(q);
    }
    if variant {
        c.s(0);
    }
    if seeded {
        c.t(1);
    }
    for s in 0..n {
        c.barrier_all();
        window(&mut c, dev, s, mask >> s & 1 == 1);
        let a = if s < n / 2 { n - 2 } else { 0 };
        c.cx(a, a + 1);
        c.barrier_all();
        for q in 0..n {
            c.sx(q);
        }
    }
    c.barrier_all();
    for q in 0..n {
        c.h(q);
    }
    c.measure_all();
    try_schedule(&c, dev, SchedulePolicy::Alap).expect("schedules")
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

/// Runs the batch on a fresh machine and checks every job against
/// `execute_timed` on another fresh machine. Returns the ops skipped.
fn check_against_plain_runs(dev: &Device, jobs: &[(&TimedCircuit, ExecutionConfig)]) -> u64 {
    let m = Machine::new(dev.clone());
    let results = batch(&m, jobs);
    let reference = Machine::new(dev.clone());
    for (i, ((timed, config), got)) in jobs.iter().zip(&results).enumerate() {
        let want = reference.execute_timed(timed, config).expect("plain run");
        assert_eq!(got.as_ref().expect("batch job").counts, want, "job {i}");
    }
    m.engine_stats().forked_ops
}

#[test]
fn masks_stay_on_their_schedule() {
    // The premise of the stand-in: DD padding changes no timestamp
    // outside its window, so every mask has the same crosstalk episodes.
    let dev = Device::ibmq_rome(5);
    let plain = program(&dev, 4, 0, false, false);
    let padded = program(&dev, 4, 0b1111, false, false);
    assert_eq!(plain.total_ns(), padded.total_ns());
    assert_eq!(plain.two_qubit_activity(), padded.two_qubit_activity());
}

#[test]
fn a_neighbourhood_forks_on_both_engines() {
    let dev = Device::ibmq_rome(5);
    for seeded in [false, true] {
        let masks: Vec<TimedCircuit> = (0..16)
            .map(|m| program(&dev, 4, m, seeded, false))
            .collect();
        let jobs: Vec<_> = masks.iter().map(|t| (t, cfg(11, 2))).collect();
        let forked = check_against_plain_runs(&dev, &jobs);
        assert!(forked > 0, "seeded {seeded}: no job resumed another");
    }
}

#[test]
fn a_shared_plan_under_other_shots_resumes_after_its_last_op() {
    // The same plan and seed with other shots is not a replay, but its
    // whole op stream is shared: only the sampling runs again.
    let dev = Device::ibmq_rome(5);
    let timed = program(&dev, 4, 0b0101, false, false);
    let mut more = cfg(3, 1);
    more.shots = 96;
    let forked = check_against_plain_runs(&dev, &[(&timed, cfg(3, 1)), (&timed, more)]);
    assert!(
        forked > 0 && forked.is_multiple_of(3),
        "each of the 3 trajectories skips the whole stream: {forked}"
    );
}

#[test]
fn a_dense_state_above_the_cap_runs_from_scratch() {
    // Fifteen active qubits on the dense engine: 512 KiB of amplitudes
    // per saved state, above the snapshot cap.
    let dev = Device::ibmq_guadalupe(5);
    let mut cheap = cfg(2, 1);
    cheap.trajectories = 2;
    cheap.shots = 8;
    let timed = |dd: bool| {
        let mut c = Circuit::new(16);
        for q in 0..15 {
            c.h(q);
        }
        c.t(0);
        c.barrier_all();
        window(&mut c, &dev, 3, dd);
        c.cx(0, 1);
        for q in 0..15 {
            c.measure(q, q);
        }
        try_schedule(&c, &dev, SchedulePolicy::Alap).expect("schedules")
    };
    let (plain, padded) = (timed(false), timed(true));
    let forked = check_against_plain_runs(&dev, &[(&plain, cheap), (&padded, cheap)]);
    assert_eq!(forked, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forked_batches_equal_plain_runs(
        masks in prop::collection::vec(0u32..16, 2..9),
        seeded in any::<bool>(),
        wide in any::<bool>(),
        other_seed_at in 0usize..9,
        other_circuit_at in 0usize..9,
    ) {
        let threads = if wide { 4 } else { 1 };
        let dev = Device::ibmq_rome(5);
        let programs: Vec<TimedCircuit> = masks
            .iter()
            .map(|&m| program(&dev, 4, m, seeded, false))
            .collect();
        let other = program(&dev, 4, masks[0], seeded, true);
        let mut jobs: Vec<(&TimedCircuit, ExecutionConfig)> =
            programs.iter().map(|t| (t, cfg(21, threads))).collect();
        jobs.insert(other_seed_at.min(jobs.len()), (&programs[0], cfg(22, threads)));
        jobs.insert(other_circuit_at.min(jobs.len()), (&other, cfg(21, threads)));
        check_against_plain_runs(&dev, &jobs);
    }
}
