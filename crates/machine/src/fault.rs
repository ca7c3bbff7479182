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
//! Determinism contract: a job's fault draws are a pure function of the
//! plan seed and the job's *address* ([`job_address`]): the structural
//! hash of its circuit plus the seed, shots and trajectories of its
//! [`ExecutionConfig`]. The circuit is in the address because a search
//! neighbourhood's masks share one seed under common random numbers; the
//! config is, because a retry runs under its own seed and shot count. A
//! job therefore draws the same faults alone or in a batch, early or
//! late, and repeating a job repeats its faults. Only calibration
//! staleness follows dispatch order: every job claims the next index of
//! a counter (a batch claims consecutive indices in submission order),
//! the device drifts once an index reaches
//! [`FaultProfile::staleness_after_jobs`], and injected errors name the
//! index. A batch is thus bit-identical to its jobs submitted serially
//! in order, as the [`Backend::execute_batch`] contract asks.

use crate::backend::{Anomaly, Backend, JobSpec, ShotBatch};
use crate::executor::{ExecError, ExecutionConfig, Machine};
use crate::plan::{structural_hash, StructuralHasher};
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

/// The fault decisions for one job, fully determined by the plan seed
/// and the job's address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobFaults {
    /// Fail the job outright.
    pub fail: bool,
    /// Time the job out.
    pub timeout: bool,
    /// Fraction of requested shots to deliver (1.0 = all).
    pub deliver_fraction: f64,
    /// Raw dropout draw; reduced modulo the register width at apply time.
    pub dropout_bit: Option<u64>,
}

impl JobFaults {
    /// No fault at all: what every draw of a zero-rate profile gives.
    const CLEAN: JobFaults = JobFaults {
        fail: false,
        timeout: false,
        deliver_fraction: 1.0,
        dropout_bit: None,
    };

    /// The shots delivered to a job that asked for `shots`: the
    /// delivered fraction, rounded, but at least one shot unless none
    /// were asked for.
    fn delivered_shots(&self, shots: u64) -> u64 {
        ((shots as f64 * self.deliver_fraction).round() as u64).clamp(shots.min(1), shots)
    }
}

/// The address a job's fault draws are keyed by: the circuit's
/// [`structural_hash`] mixed with the seed, shots and trajectories of
/// its config. `threads` is left out, because results do not depend on
/// it.
pub fn job_address(job: &JobSpec<'_>) -> u64 {
    let mut h = StructuralHasher::new();
    h.mix(structural_hash(job.timed));
    h.mix(job.config.seed);
    h.mix(job.config.shots);
    h.mix(job.config.trajectories as u64);
    h.finish()
}

/// Deterministic fault schedule: maps a job's address to its
/// [`JobFaults`] via seed derivation, and numbers jobs in dispatch order
/// for calibration staleness.
#[derive(Debug)]
pub struct FaultPlan {
    profile: FaultProfile,
    spawner: SeedSpawner,
    /// The next dispatch index.
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

    /// Claims `n` consecutive dispatch indices and returns the first.
    fn claim(&self, n: usize) -> u64 {
        self.next_job.fetch_add(n as u64, Ordering::SeqCst)
    }

    /// The fault decisions for `job`: [`FaultPlan::faults_for`] its
    /// [`job_address`]. A profile whose rates are all zero draws no
    /// fault for any address, so it skips the structural hash the
    /// address costs.
    pub fn faults_of(&self, job: &JobSpec<'_>) -> JobFaults {
        let p = &self.profile;
        if [
            p.transient_failure,
            p.timeout,
            p.shot_truncation,
            p.readout_dropout,
        ]
        .iter()
        .all(|&rate| rate == 0.0)
        {
            return JobFaults::CLEAN;
        }
        self.faults_for(job_address(job))
    }

    /// The fault decisions for the job at `address` (a pure function of
    /// the plan seed, so tests can predict the schedule).
    pub fn faults_for(&self, address: u64) -> JobFaults {
        let mut rng = StdRng::seed_from_u64(self.spawner.derive(address));
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
            fail,
            timeout,
            deliver_fraction,
            dropout_bit: dropout.then_some(dropout_draw),
        }
    }

    /// Whether calibration has gone stale by the time dispatch index
    /// `job` runs.
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
/// // Some jobs fail, some succeed — deterministically under seed 7. The
/// // draws follow each job's address, so the jobs differ in their seeds.
/// let mut outcomes = Vec::new();
/// for seed in 0..20 {
///     let cfg = ExecutionConfig { shots: 64, trajectories: 4, seed, threads: 1 };
///     outcomes.push(backend.execute(&c, &cfg).is_ok());
/// }
/// assert!(outcomes.iter().any(|&ok| ok));
/// assert!(outcomes.iter().any(|&ok| !ok));
/// ```
#[derive(Debug)]
pub struct FaultyBackend {
    /// The wrapped machine and whether it has drifted, under one lock:
    /// the staleness check and the swap happen under the write lock, so
    /// a job flagged stale always runs on the drifted machine.
    inner: RwLock<Calibrated>,
    plan: FaultPlan,
    counts: Mutex<FaultCounts>,
}

#[derive(Debug)]
struct Calibrated {
    machine: Machine,
    drifted: bool,
}

impl FaultyBackend {
    /// Wraps a machine with a fault profile under a master seed.
    pub fn new(machine: Machine, profile: FaultProfile, seed: u64) -> Self {
        FaultyBackend {
            inner: RwLock::new(Calibrated {
                machine,
                drifted: false,
            }),
            plan: FaultPlan::new(profile, seed),
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

    /// Applies the staleness transition once, swapping the machine's
    /// device for its next-calibration-cycle drift.
    fn drift(&self) {
        let mut cal = self.inner.write().expect("machine lock");
        if !cal.drifted {
            let toggles = *cal.machine.toggles();
            let next_cycle = cal.machine.device().calibration().cycle + 1;
            let drifted = cal.machine.device().at_calibration_cycle(next_cycle);
            cal.machine = Machine::with_toggles(drifted, toggles);
            cal.drifted = true;
        }
    }

    /// Runs `runs` (batch slot, job as delivered) as one machine batch,
    /// storing each job's counts in its slot of `out`. Returns the
    /// calibration cycle the batch ran under.
    fn simulate(
        &self,
        runs: &[(usize, JobSpec<'_>)],
        out: &mut [Option<Result<Counts, ExecError>>],
    ) -> u64 {
        let cal = self.inner.read().expect("machine lock");
        if !runs.is_empty() {
            let specs: Vec<JobSpec<'_>> = runs.iter().map(|&(_, job)| job).collect();
            for (&(slot, _), result) in runs.iter().zip(cal.machine.execute_batch(&specs)) {
                out[slot] = Some(result.map(|batch| batch.counts));
            }
        }
        cal.machine.device().calibration().cycle
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
        let job = JobSpec {
            timed,
            config: *config,
        };
        self.execute_batch(&[job])
            .pop()
            .expect("one result per job")
    }

    /// Decides every job's faults up front, then simulates the survivors
    /// as one machine batch, split in two where the batch's dispatch
    /// indices cross the staleness threshold: the jobs before it run on
    /// the current machine, the device drifts, and the rest run on the
    /// drifted machine, flagged stale.
    fn execute_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<Result<ShotBatch, ExecError>> {
        let first = self.plan.claim(jobs.len());
        let faults: Vec<JobFaults> = jobs.iter().map(|j| self.plan.faults_of(j)).collect();
        let runs: Vec<(usize, JobSpec<'_>)> = jobs
            .iter()
            .zip(&faults)
            .enumerate()
            .filter(|(_, (_, f))| !f.fail && !f.timeout)
            .map(|(slot, (job, f))| {
                let config = ExecutionConfig {
                    shots: f.delivered_shots(job.config.shots),
                    ..job.config
                };
                (slot, JobSpec { config, ..*job })
            })
            .collect();
        let fresh = (0..jobs.len())
            .find(|&slot| self.plan.stale_at(first + slot as u64))
            .unwrap_or(jobs.len());
        let split = runs.partition_point(|&(slot, _)| slot < fresh);
        let mut simulated: Vec<Option<Result<Counts, ExecError>>> = vec![None; jobs.len()];
        self.simulate(&runs[..split], &mut simulated);
        let stale_cycle = (fresh < jobs.len()).then(|| {
            self.drift();
            self.simulate(&runs[split..], &mut simulated)
        });

        let mut tally = self.counts.lock().expect("fault counter lock");
        tally.jobs += jobs.len() as u64;
        let mut results = Vec::with_capacity(jobs.len());
        for (slot, ((job, f), counts)) in jobs.iter().zip(faults).zip(simulated).enumerate() {
            let index = first + slot as u64;
            if f.fail {
                tally.failures += 1;
                results.push(Err(ExecError::JobFailed {
                    job: index,
                    reason: "injected transient backend failure".to_string(),
                }));
                continue;
            }
            if f.timeout {
                tally.timeouts += 1;
                results.push(Err(ExecError::Timeout {
                    job: index,
                    budget_ms: self.plan.profile.timeout_budget_ms,
                }));
                continue;
            }
            let counts = match counts.expect("every surviving job ran") {
                Ok(counts) => counts,
                Err(e) => {
                    results.push(Err(e));
                    continue;
                }
            };
            let requested = job.config.shots;
            let delivered = f.delivered_shots(requested);
            let mut anomalies = Vec::new();
            if delivered < requested {
                tally.truncated += 1;
                anomalies.push(Anomaly::ShotTruncation {
                    requested,
                    delivered,
                });
            }
            let counts = match f.dropout_bit {
                Some(raw) if counts.num_bits() > 0 => {
                    let clbit = (raw % counts.num_bits() as u64) as usize;
                    tally.dropouts += 1;
                    anomalies.push(Anomaly::ReadoutDropout { clbit });
                    drop_clbit(&counts, clbit)
                }
                _ => counts,
            };
            if let Some(cycle) = stale_cycle.filter(|_| slot >= fresh) {
                tally.stale_batches += 1;
                anomalies.push(Anomaly::StaleCalibration { cycle });
            }
            results.push(Ok(ShotBatch {
                counts,
                requested_shots: requested,
                anomalies,
            }));
        }
        results
    }

    fn device_snapshot(&self) -> Device {
        self.inner
            .read()
            .expect("machine lock")
            .machine
            .device()
            .clone()
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
    fn fault_plan_is_deterministic_and_address_keyed() {
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

        // A 0-shot request comes back as the bare machine returns it,
        // alone and in a batch: no shot anybody did not ask for.
        let timed = transpiler::schedule(&bell(), m.device(), transpiler::SchedulePolicy::Alap);
        let zero = ExecutionConfig { shots: 0, ..cfg() };
        let bare = Backend::execute_timed(&m, &timed, &zero).unwrap();
        assert_eq!(bare.delivered_shots(), 0);
        assert_eq!(backend.execute_timed(&timed, &zero).unwrap(), bare);
        let jobs = [JobSpec {
            timed: &timed,
            config: zero,
        }; 2];
        for result in backend.execute_batch(&jobs) {
            assert_eq!(result.unwrap(), bare);
        }
    }

    #[test]
    fn faults_follow_the_job_address() {
        let plan = FaultPlan::new(FaultProfile::lossy(), 6);
        let rome = Device::ibmq_rome(3);
        let timed = transpiler::schedule(&bell(), &rome, transpiler::SchedulePolicy::Alap);
        let mut other = Circuit::new(2);
        other.h(0).measure_all();
        let other = transpiler::schedule(&other, &rome, transpiler::SchedulePolicy::Alap);
        let job = |timed, seed| JobSpec {
            timed,
            config: ExecutionConfig { seed, ..cfg() },
        };
        // Repeating a job repeats its faults, whatever its dispatch index
        // and thread count.
        let threaded = JobSpec {
            config: ExecutionConfig {
                threads: 4,
                ..cfg()
            },
            ..job(&timed, 9)
        };
        assert_eq!(plan.faults_of(&job(&timed, 9)), plan.faults_of(&threaded));
        // Another seed or another circuit is another address.
        let seeds = (0..64).map(|seed| plan.faults_of(&job(&timed, seed)));
        assert!(seeds.collect::<Vec<_>>().windows(2).any(|w| w[0] != w[1]));
        let circuits = (0..64).filter(|&seed| {
            plan.faults_of(&job(&timed, seed)) != plan.faults_of(&job(&other, seed))
        });
        assert!(circuits.count() > 0);
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
                .map(|seed| {
                    let cfg = ExecutionConfig { seed, ..cfg() };
                    Backend::execute(b, &bell(), &cfg).is_ok()
                })
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
