//! Seeded fault injection for backend jobs.
//!
//! Real quantum backends fail in mundane ways that have nothing to do
//! with qubit physics: jobs vanish from queues, time out, come back with
//! fewer shots than requested, lose a readout register, or silently run
//! against calibration data that has drifted since the program was
//! compiled. [`FaultyBackend`] wraps a [`Machine`] and injects exactly
//! these failure modes, deterministically under a seed, so the resilience
//! of everything upstream (retry loops, the ADAPT search, experiment
//! drivers) can be tested end-to-end without a flaky test suite.
//!
//! Determinism contract: every job the backend receives gets a global
//! job index from an atomic counter, and all fault draws for that job
//! come from a [`SeedSpawner`]-derived stream keyed on the index alone.
//! The fault sequence therefore depends only on `(seed, job order)` —
//! not on wall-clock, thread interleaving inside a job, or the circuit
//! being run.

use crate::backend::{Anomaly, Backend, ShotBatch};
use crate::executor::{ExecError, ExecutionConfig, Machine};
use device::{Device, SeedSpawner};
use qcirc::Counts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use transpiler::TimedCircuit;

/// Per-fault-class probabilities and parameters of an injection campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability a job fails outright (retryable).
    pub transient_failure: f64,
    /// Probability a job times out (retryable).
    pub timeout: f64,
    /// Wall-clock budget reported in injected timeout errors (ms).
    pub timeout_budget_ms: u64,
    /// Probability a job delivers only part of its shots.
    pub shot_truncation: f64,
    /// Minimum delivered fraction when truncation strikes; the actual
    /// fraction is uniform in `[truncation_floor, 1)`.
    pub truncation_floor: f64,
    /// Probability a job loses one classical readout bit.
    pub readout_dropout: f64,
    /// After this many jobs, the device calibration silently drifts by
    /// one cycle and every later batch is flagged stale.
    pub staleness_after_jobs: Option<u64>,
}

impl FaultProfile {
    /// No faults at all: the wrapped machine's behaviour, batch-shaped.
    pub fn none() -> Self {
        FaultProfile {
            transient_failure: 0.0,
            timeout: 0.0,
            timeout_budget_ms: 30_000,
            shot_truncation: 0.0,
            truncation_floor: 1.0,
            readout_dropout: 0.0,
            staleness_after_jobs: None,
        }
    }

    /// Transient job failures and timeouts only — the classic flaky queue.
    pub fn flaky() -> Self {
        FaultProfile {
            transient_failure: 0.10,
            timeout: 0.05,
            ..FaultProfile::none()
        }
    }

    /// The full menagerie at realistic rates: ≥10% transient failures,
    /// frequent truncation, occasional register dropout, and one
    /// calibration-staleness event early enough to land mid-search.
    pub fn lossy() -> Self {
        FaultProfile {
            transient_failure: 0.10,
            timeout: 0.05,
            timeout_budget_ms: 30_000,
            shot_truncation: 0.20,
            truncation_floor: 0.40,
            readout_dropout: 0.05,
            staleness_after_jobs: Some(12),
        }
    }

    /// Aggressive rates for stress tests.
    pub fn brutal() -> Self {
        FaultProfile {
            transient_failure: 0.25,
            timeout: 0.10,
            timeout_budget_ms: 10_000,
            shot_truncation: 0.30,
            truncation_floor: 0.25,
            readout_dropout: 0.10,
            staleness_after_jobs: Some(6),
        }
    }

    /// Looks up a named profile (`none`, `flaky`, `lossy`, `brutal`) —
    /// the vocabulary of the experiment runner's `--faults` flag.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(FaultProfile::none()),
            "flaky" => Some(FaultProfile::flaky()),
            "lossy" => Some(FaultProfile::lossy()),
            "brutal" => Some(FaultProfile::brutal()),
            _ => None,
        }
    }

    /// The named profiles accepted by [`FaultProfile::by_name`].
    pub fn known_names() -> &'static [&'static str] {
        &["none", "flaky", "lossy", "brutal"]
    }
}

/// The fault decisions for one job, fully determined by `(seed, job)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFaults {
    /// Global job index.
    pub job: u64,
    /// Fail the job outright.
    pub fail: bool,
    /// Time the job out.
    pub timeout: bool,
    /// Fraction of requested shots to deliver (1.0 = all).
    pub deliver_fraction: f64,
    /// Raw dropout draw; reduced modulo the register width at apply time.
    pub dropout_bit: Option<u64>,
}

/// Deterministic fault schedule: maps an atomic job counter to
/// [`JobFaults`] via seed derivation.
#[derive(Debug)]
pub struct FaultPlan {
    profile: FaultProfile,
    spawner: SeedSpawner,
    next_job: AtomicU64,
}

impl FaultPlan {
    /// Creates a plan for a profile under a master seed.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultPlan {
            profile,
            spawner: SeedSpawner::new(seed),
            next_job: AtomicU64::new(0),
        }
    }

    /// The profile this plan draws from.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Claims the next job index and samples its faults.
    pub fn next_job_faults(&self) -> JobFaults {
        let job = self.next_job.fetch_add(1, Ordering::SeqCst);
        self.faults_for(job)
    }

    /// The fault decisions for a specific job index (pure function of
    /// the plan seed — used by tests to predict the schedule).
    pub fn faults_for(&self, job: u64) -> JobFaults {
        let mut rng = StdRng::seed_from_u64(self.spawner.derive(job));
        // Draw every class unconditionally so each class consumes a fixed
        // position in the stream; decisions stay independent of each other.
        let fail = rng.gen_bool(self.profile.transient_failure);
        let timeout = rng.gen_bool(self.profile.timeout);
        let truncated = rng.gen_bool(self.profile.shot_truncation);
        let fraction_draw: f64 = rng.gen();
        let dropout = rng.gen_bool(self.profile.readout_dropout);
        let dropout_draw: u64 = rng.gen();
        let deliver_fraction = if truncated {
            let floor = self.profile.truncation_floor.clamp(0.0, 1.0);
            floor + (1.0 - floor) * fraction_draw
        } else {
            1.0
        };
        JobFaults {
            job,
            fail,
            timeout,
            deliver_fraction,
            dropout_bit: dropout.then_some(dropout_draw),
        }
    }

    /// Whether calibration has gone stale by the time `job` runs.
    pub fn stale_at(&self, job: u64) -> bool {
        self.profile.staleness_after_jobs.is_some_and(|n| job >= n)
    }
}

/// Tallies of injected faults, for end-of-run reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Jobs the backend received.
    pub jobs: u64,
    /// Jobs failed outright.
    pub failures: u64,
    /// Jobs timed out.
    pub timeouts: u64,
    /// Batches delivered with truncated shots.
    pub truncated: u64,
    /// Batches delivered with a dropped readout bit.
    pub dropouts: u64,
    /// Batches that ran under stale calibration.
    pub stale_batches: u64,
}

impl std::fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} jobs: {} failed, {} timed out, {} truncated, {} dropouts, {} stale",
            self.jobs,
            self.failures,
            self.timeouts,
            self.truncated,
            self.dropouts,
            self.stale_batches
        )
    }
}

/// A [`Machine`] wrapper that injects seeded faults into every job.
///
/// # Examples
///
/// ```
/// use device::Device;
/// use machine::{Backend, ExecutionConfig, FaultProfile, FaultyBackend, Machine};
/// use qcirc::Circuit;
///
/// let machine = Machine::new(Device::ibmq_rome(3));
/// let backend = FaultyBackend::new(machine, FaultProfile::flaky(), 7);
/// let mut c = Circuit::new(1);
/// c.h(0).measure(0, 0);
/// let cfg = ExecutionConfig { shots: 64, trajectories: 4, seed: 1, threads: 1 };
/// // Some jobs fail, some succeed — deterministically under seed 7.
/// let mut outcomes = Vec::new();
/// for _ in 0..20 {
///     outcomes.push(backend.execute(&c, &cfg).is_ok());
/// }
/// assert!(outcomes.iter().any(|&ok| ok));
/// assert!(outcomes.iter().any(|&ok| !ok));
/// ```
#[derive(Debug)]
pub struct FaultyBackend {
    /// The wrapped machine; behind a lock because calibration staleness
    /// swaps the device mid-run.
    inner: RwLock<Machine>,
    plan: FaultPlan,
    /// Whether the staleness transition has been applied yet.
    drifted: AtomicU64,
    counts: Mutex<FaultCounts>,
}

impl FaultyBackend {
    /// Wraps a machine with a fault profile under a master seed.
    pub fn new(machine: Machine, profile: FaultProfile, seed: u64) -> Self {
        FaultyBackend {
            inner: RwLock::new(machine),
            plan: FaultPlan::new(profile, seed),
            drifted: AtomicU64::new(0),
            counts: Mutex::new(FaultCounts::default()),
        }
    }

    /// The deterministic fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Snapshot of the injected-fault tallies.
    pub fn injected(&self) -> FaultCounts {
        *self.counts.lock().expect("fault counter lock")
    }

    /// Applies the staleness transition (once) when `job` crosses the
    /// profile threshold, swapping the machine's device for its
    /// next-calibration-cycle drift. Returns the stale cycle when the
    /// batch should be flagged.
    fn maybe_drift(&self, job: u64) -> Option<u64> {
        if !self.plan.stale_at(job) {
            return None;
        }
        if self.drifted.swap(1, Ordering::SeqCst) == 0 {
            let mut m = self.inner.write().expect("machine lock");
            let toggles = *m.toggles();
            let next_cycle = m.device().calibration().cycle + 1;
            let drifted = m.device().at_calibration_cycle(next_cycle);
            *m = Machine::with_toggles(drifted, toggles);
        }
        let cycle = self
            .inner
            .read()
            .expect("machine lock")
            .device()
            .calibration()
            .cycle;
        Some(cycle)
    }

    fn run(&self, timed: &TimedCircuit, config: &ExecutionConfig) -> Result<ShotBatch, ExecError> {
        let faults = self.plan.next_job_faults();
        {
            let mut c = self.counts.lock().expect("fault counter lock");
            c.jobs += 1;
            if faults.fail {
                c.failures += 1;
            } else if faults.timeout {
                c.timeouts += 1;
            }
        }
        let stale_cycle = self.maybe_drift(faults.job);
        if faults.fail {
            return Err(ExecError::JobFailed {
                job: faults.job,
                reason: "injected transient backend failure".to_string(),
            });
        }
        if faults.timeout {
            return Err(ExecError::Timeout {
                job: faults.job,
                budget_ms: self.plan.profile.timeout_budget_ms,
            });
        }

        let delivered_shots = ((config.shots as f64 * faults.deliver_fraction).round() as u64)
            .clamp(1, config.shots.max(1));
        let run_config = ExecutionConfig {
            shots: delivered_shots,
            ..*config
        };
        let counts = self
            .inner
            .read()
            .expect("machine lock")
            .execute_timed(timed, &run_config)?;

        let mut anomalies = Vec::new();
        if delivered_shots < config.shots {
            anomalies.push(Anomaly::ShotTruncation {
                requested: config.shots,
                delivered: delivered_shots,
            });
        }
        let counts = if let Some(raw) = faults.dropout_bit {
            if counts.num_bits() > 0 {
                let clbit = (raw % counts.num_bits() as u64) as usize;
                anomalies.push(Anomaly::ReadoutDropout { clbit });
                drop_clbit(&counts, clbit)
            } else {
                counts
            }
        } else {
            counts
        };
        if let Some(cycle) = stale_cycle {
            anomalies.push(Anomaly::StaleCalibration { cycle });
        }

        {
            let mut c = self.counts.lock().expect("fault counter lock");
            for a in &anomalies {
                match a {
                    Anomaly::ShotTruncation { .. } => c.truncated += 1,
                    Anomaly::ReadoutDropout { .. } => c.dropouts += 1,
                    Anomaly::StaleCalibration { .. } => c.stale_batches += 1,
                }
            }
        }
        Ok(ShotBatch {
            counts,
            requested_shots: config.shots,
            anomalies,
        })
    }
}

/// Rebuilds a histogram with classical bit `clbit` forced to 0 in every
/// outcome — the signature of a lost readout register.
fn drop_clbit(counts: &Counts, clbit: usize) -> Counts {
    let mut out = Counts::new(counts.num_bits());
    for (k, v) in counts.iter() {
        out.record_many(k & !(1u64 << clbit), v);
    }
    out
}

impl Backend for FaultyBackend {
    fn execute_timed(
        &self,
        timed: &TimedCircuit,
        config: &ExecutionConfig,
    ) -> Result<ShotBatch, ExecError> {
        self.run(timed, config)
    }

    fn device_snapshot(&self) -> Device {
        self.inner.read().expect("machine lock").device().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::Circuit;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    fn cfg() -> ExecutionConfig {
        ExecutionConfig {
            shots: 200,
            trajectories: 8,
            seed: 9,
            threads: 1,
        }
    }

    #[test]
    fn fault_plan_is_deterministic_and_index_addressable() {
        let a = FaultPlan::new(FaultProfile::lossy(), 123);
        let b = FaultPlan::new(FaultProfile::lossy(), 123);
        for job in 0..200 {
            assert_eq!(a.faults_for(job), b.faults_for(job));
        }
        let c = FaultPlan::new(FaultProfile::lossy(), 124);
        let differs = (0..200).any(|j| a.faults_for(j) != c.faults_for(j));
        assert!(differs, "different seeds must give different schedules");
    }

    #[test]
    fn fault_rates_track_profile() {
        let plan = FaultPlan::new(FaultProfile::lossy(), 5);
        let n = 4000;
        let fails = (0..n).filter(|&j| plan.faults_for(j).fail).count();
        let frac = fails as f64 / n as f64;
        assert!((frac - 0.10).abs() < 0.02, "failure rate {frac}");
        let truncated = (0..n)
            .filter(|&j| plan.faults_for(j).deliver_fraction < 1.0)
            .count();
        let tfrac = truncated as f64 / n as f64;
        assert!((tfrac - 0.20).abs() < 0.03, "truncation rate {tfrac}");
    }

    #[test]
    fn none_profile_is_transparent() {
        let m = Machine::new(Device::ibmq_rome(3));
        let direct = m.execute(&bell(), &cfg()).unwrap();
        let backend =
            FaultyBackend::new(Machine::new(Device::ibmq_rome(3)), FaultProfile::none(), 1);
        let batch = Backend::execute(&backend, &bell(), &cfg()).unwrap();
        assert!(batch.is_complete());
        assert_eq!(batch.counts, direct);
        assert_eq!(backend.injected().failures, 0);
    }

    #[test]
    fn truncation_delivers_partial_batches() {
        let profile = FaultProfile {
            shot_truncation: 1.0,
            truncation_floor: 0.5,
            ..FaultProfile::none()
        };
        let backend = FaultyBackend::new(Machine::new(Device::ibmq_rome(3)), profile, 3);
        let batch = Backend::execute(&backend, &bell(), &cfg()).unwrap();
        assert!(!batch.is_complete());
        assert!(batch.delivered_shots() < 200);
        assert!(batch.delivered_fraction() >= 0.5 - 1e-9);
        assert!(matches!(
            batch.anomalies[0],
            Anomaly::ShotTruncation { requested: 200, .. }
        ));
        assert_eq!(backend.injected().truncated, 1);
    }

    #[test]
    fn dropout_zeroes_one_register_bit() {
        let profile = FaultProfile {
            readout_dropout: 1.0,
            ..FaultProfile::none()
        };
        let backend = FaultyBackend::new(Machine::new(Device::ibmq_rome(3)), profile, 11);
        let batch = Backend::execute(&backend, &bell(), &cfg()).unwrap();
        assert!(batch.has_dropout());
        let Some(Anomaly::ReadoutDropout { clbit }) = batch
            .anomalies
            .iter()
            .find(|a| matches!(a, Anomaly::ReadoutDropout { .. }))
        else {
            panic!("expected a dropout anomaly");
        };
        for (outcome, _) in batch.counts.iter() {
            assert_eq!(outcome >> clbit & 1, 0, "dropped bit must read 0");
        }
    }

    #[test]
    fn staleness_drifts_calibration_once_and_flags_batches() {
        let profile = FaultProfile {
            staleness_after_jobs: Some(3),
            ..FaultProfile::none()
        };
        let backend = FaultyBackend::new(Machine::new(Device::ibmq_rome(3)), profile, 2);
        let before = backend.device_snapshot();
        for _ in 0..3 {
            let batch = Backend::execute(&backend, &bell(), &cfg()).unwrap();
            assert!(batch.anomalies.is_empty());
        }
        let batch = Backend::execute(&backend, &bell(), &cfg()).unwrap();
        assert!(batch
            .anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::StaleCalibration { cycle: 1 })));
        let after = backend.device_snapshot();
        assert_ne!(before.calibration(), after.calibration());
        assert_eq!(after.calibration().cycle, 1);
        assert_eq!(backend.injected().stale_batches, 1);
    }

    #[test]
    fn injected_failures_are_transient_typed() {
        let profile = FaultProfile {
            transient_failure: 1.0,
            ..FaultProfile::none()
        };
        let backend = FaultyBackend::new(Machine::new(Device::ibmq_rome(3)), profile, 4);
        let err = Backend::execute(&backend, &bell(), &cfg()).unwrap_err();
        assert!(err.is_transient());
        assert!(matches!(err, ExecError::JobFailed { job: 0, .. }));
    }

    #[test]
    fn fault_sequence_reproducible_across_backends() {
        let mk = || {
            FaultyBackend::new(
                Machine::new(Device::ibmq_rome(3)),
                FaultProfile::lossy(),
                77,
            )
        };
        let run = |b: &FaultyBackend| -> Vec<bool> {
            (0..30)
                .map(|_| Backend::execute(b, &bell(), &cfg()).is_ok())
                .collect()
        };
        assert_eq!(run(&mk()), run(&mk()));
    }

    #[test]
    fn profile_names_round_trip() {
        for name in FaultProfile::known_names() {
            assert!(FaultProfile::by_name(name).is_some(), "{name}");
        }
        assert!(FaultProfile::by_name("nope").is_none());
    }
}
