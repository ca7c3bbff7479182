//! Serial and batched submission through the fault and retry wrappers
//! agree.
//!
//! `FaultyBackend` keys every fault draw by the job's address, so a batch
//! gets the same faults as the same jobs submitted one by one, and
//! `ResilientExecutor` retries a batch in rounds that charge the same
//! backoff as the one-by-one loop. Each check runs two fresh same-seed
//! stacks: one takes `execute_batch(jobs)`, the other a serial
//! `execute_timed` loop. Calibration staleness and virtual deadlines are
//! counted in dispatch order, which rounds change; the last two tests pin
//! that.

use device::Device;
use machine::{
    Anomaly, Backend, Deadline, ExecError, ExecutionConfig, FaultProfile, FaultyBackend, JobSpec,
    Machine, ResilientExecutor, RetryPolicy, ShotBatch,
};
use qcirc::Circuit;
use std::sync::Arc;
use transpiler::{schedule, SchedulePolicy, TimedCircuit};

type Results = Vec<Result<ShotBatch, ExecError>>;

const FAULT_SEED: u64 = 0xBA7C;

fn device() -> Device {
    Device::ibmq_rome(5)
}

/// Four Clifford circuits and two dense ones: masks of one program.
fn circuits() -> Vec<TimedCircuit> {
    (0..6)
        .map(|k| {
            let mut c = Circuit::new(3);
            c.h(0).cx(0, 1);
            for _ in 0..k % 3 {
                c.x(2).x(2);
            }
            if k >= 4 {
                c.t(1);
            }
            c.cx(1, 2).measure_all();
            schedule(&c, &device(), SchedulePolicy::Alap)
        })
        .collect()
}

/// 24 jobs: each circuit under two shared seeds (common random numbers),
/// each pair submitted twice.
fn jobs(circuits: &[TimedCircuit]) -> Vec<JobSpec<'_>> {
    let mut jobs = Vec::new();
    for _ in 0..2 {
        for seed in [11, 12] {
            for timed in circuits {
                jobs.push(JobSpec {
                    timed,
                    config: ExecutionConfig {
                        shots: 120,
                        trajectories: 4,
                        seed,
                        threads: 1,
                    },
                });
            }
        }
    }
    jobs
}

fn truncation_and_dropout() -> FaultProfile {
    FaultProfile {
        shot_truncation: 0.4,
        truncation_floor: 0.3,
        readout_dropout: 0.2,
        ..FaultProfile::none()
    }
}

fn faulty(profile: FaultProfile) -> FaultyBackend {
    FaultyBackend::new(Machine::new(device()), profile, FAULT_SEED)
}

fn serially(backend: &dyn Backend, jobs: &[JobSpec<'_>]) -> Results {
    jobs.iter()
        .map(|j| backend.execute_timed(j.timed, &j.config))
        .collect()
}

/// Injected errors name their dispatch index, which follows the rounds;
/// blank it so two submissions compare by everything else.
fn without_dispatch_index(results: Results) -> Results {
    fn blank(e: ExecError) -> ExecError {
        match e {
            ExecError::JobFailed { reason, .. } => ExecError::JobFailed { job: 0, reason },
            ExecError::Timeout { budget_ms, .. } => ExecError::Timeout { job: 0, budget_ms },
            ExecError::RetriesExhausted { attempts, last } => ExecError::RetriesExhausted {
                attempts,
                last: Box::new(blank(*last)),
            },
            other => other,
        }
    }
    results.into_iter().map(|r| r.map_err(blank)).collect()
}

#[test]
fn faulty_backend_batches_equal_serial_submission() {
    let circuits = circuits();
    let jobs = jobs(&circuits);
    for (name, profile) in [
        ("none", FaultProfile::none()),
        ("flaky", FaultProfile::flaky()),
        ("truncation+dropout", truncation_and_dropout()),
        ("lossy", FaultProfile::lossy()),
    ] {
        let (batched, serial) = (faulty(profile), faulty(profile));
        let got = batched.execute_batch(&jobs);
        assert_eq!(got, serially(&serial, &jobs), "{name}: results differ");
        assert_eq!(
            batched.injected(),
            serial.injected(),
            "{name}: counts differ"
        );
        assert_eq!(batched.device_snapshot(), serial.device_snapshot());
        if name != "none" {
            assert!(
                got.iter().any(|r| !matches!(r, Ok(b) if b.is_complete())),
                "{name}: some fault fired"
            );
        }
    }
    // The lossy profile drifts after 12 jobs: the batch's first 12 run on
    // the old calibration, the rest on the drifted one and flagged.
    let lossy = faulty(FaultProfile::lossy());
    for (slot, result) in lossy.execute_batch(&jobs).iter().enumerate() {
        if let Ok(batch) = result {
            let stale = batch
                .anomalies
                .contains(&Anomaly::StaleCalibration { cycle: 1 });
            assert_eq!(stale, slot >= 12, "slot {slot}");
        }
    }
}

#[test]
fn retried_batches_equal_serial_submission() {
    let circuits = circuits();
    let jobs = jobs(&circuits);
    for (name, profile) in [
        ("none", FaultProfile::none()),
        ("flaky", FaultProfile::flaky()),
        ("truncation+dropout", truncation_and_dropout()),
    ] {
        let stack = || {
            let inner = Arc::new(faulty(profile));
            let exec = ResilientExecutor::new(inner.clone());
            (inner, exec)
        };
        let ((batched_inner, batched), (serial_inner, serial)) = (stack(), stack());
        let got = batched.execute_batch(&jobs);
        let want = serially(&serial, &jobs);
        assert_eq!(
            without_dispatch_index(got),
            without_dispatch_index(want),
            "{name}: results differ"
        );
        assert_eq!(batched.stats(), serial.stats(), "{name}: stats differ");
        assert_eq!(
            batched_inner.injected(),
            serial_inner.injected(),
            "{name}: counts differ"
        );
        if name != "none" {
            assert!(
                batched.stats().attempts > jobs.len() as u64,
                "{name}: retried"
            );
        }
    }
}

#[test]
fn retry_rounds_count_staleness_in_dispatch_order() {
    // Round 0 dispatches every request's first attempt (indices 0..24),
    // so with drift after 24 jobs exactly the retried attempts run stale:
    // a request is flagged iff its first attempt failed.
    let circuits = circuits();
    let jobs = jobs(&circuits);
    let profile = FaultProfile {
        staleness_after_jobs: Some(jobs.len() as u64),
        ..FaultProfile::flaky()
    };
    let inner = Arc::new(faulty(profile));
    let exec = ResilientExecutor::new(inner.clone());
    let mut retried = 0;
    for (job, result) in jobs.iter().zip(exec.execute_batch(&jobs)) {
        let first = inner.plan().faults_of(job);
        let failed_first = first.fail || first.timeout;
        retried += failed_first as u64;
        let batch = result.expect("flaky requests recover within four attempts");
        let stale = batch
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::StaleCalibration { .. }));
        assert_eq!(stale, failed_first);
    }
    assert!(retried > 0);
    assert_eq!(exec.stats().stale_batches, retried);
    assert_eq!(inner.injected().stale_batches, retried);
}

#[test]
fn retry_rounds_share_a_virtual_deadline_in_dispatch_order() {
    // Every attempt fails. Round 0 charges each request's first backoff
    // (about 10 ms) in submission order, clamped to what is left of the
    // 25 ms budget; round 1 finds the deadline spent. So every request
    // made exactly one attempt, where a one-by-one loop would let the
    // first request spend the budget on its retries.
    let circuits = circuits();
    let jobs = jobs(&circuits);
    let profile = FaultProfile {
        transient_failure: 1.0,
        ..FaultProfile::none()
    };
    let policy = RetryPolicy { max_attempts: 16 };
    let exec = ResilientExecutor::with_policy(Arc::new(faulty(profile)), policy)
        .with_deadline(Deadline::virtual_only(25));
    for result in exec.execute_batch(&jobs) {
        assert!(matches!(
            result,
            Err(ExecError::DeadlineExceeded { budget_ms: 25, .. })
        ));
    }
    let s = exec.stats();
    assert_eq!(s.attempts, jobs.len() as u64);
    assert_eq!(s.deadline_aborts, jobs.len() as u64);
    assert_eq!(s.total_backoff_ms, 25.0);
}
