//! The backend abstraction: anything that can run circuits for counts.
//!
//! The ADAPT framework upstream of this crate (`core`, `benchmarks`) does
//! not care whether counts come from the pristine trajectory [`Machine`],
//! a [`crate::fault::FaultyBackend`] injecting failures, or a
//! [`crate::resilient::ResilientExecutor`] retrying around them — only
//! that a job either yields a [`ShotBatch`] or a typed
//! [`ExecError`]. This module defines that seam.
//!
//! A [`ShotBatch`] is deliberately richer than bare [`Counts`]: real
//! backends deliver *partial* results (a job cancelled after 60% of its
//! shots is still data), and resilient pipelines must weight such batches
//! by delivered shots rather than discard them. The batch therefore
//! carries the requested shot count and a list of [`Anomaly`] flags
//! describing every degradation that occurred while producing it.

use crate::executor::{ExecError, ExecutionConfig, Machine};
use device::Device;
use qcirc::{Circuit, Counts};
use transpiler::{try_schedule, SchedulePolicy, TimedCircuit};

/// A degradation that occurred while producing a batch. Anomalies are not
/// errors: the counts are usable, but downstream consumers may weight,
/// flag, or retry based on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anomaly {
    /// Fewer shots were delivered than requested.
    ShotTruncation {
        /// Shots the caller asked for.
        requested: u64,
        /// Shots actually delivered.
        delivered: u64,
    },
    /// One classical register bit was lost during readout; it reads as 0
    /// in every outcome of this batch.
    ReadoutDropout {
        /// The affected classical bit.
        clbit: usize,
    },
    /// The batch ran against calibration data older than the device's
    /// current drift state.
    StaleCalibration {
        /// Calibration cycle the batch actually ran under.
        cycle: u64,
    },
}

impl std::fmt::Display for Anomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Anomaly::ShotTruncation {
                requested,
                delivered,
            } => write!(f, "shot truncation: {delivered}/{requested} delivered"),
            Anomaly::ReadoutDropout { clbit } => {
                write!(f, "readout dropout on classical bit {clbit}")
            }
            Anomaly::StaleCalibration { cycle } => {
                write!(f, "ran under stale calibration (cycle {cycle})")
            }
        }
    }
}

/// The result of one backend job: counts plus delivery metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotBatch {
    /// The measured histogram (its `total()` is the delivered shots).
    pub counts: Counts,
    /// Shots the caller requested for this job.
    pub requested_shots: u64,
    /// Degradations that occurred while producing this batch.
    pub anomalies: Vec<Anomaly>,
}

impl ShotBatch {
    /// A clean, fully delivered batch.
    pub fn complete(counts: Counts, requested_shots: u64) -> Self {
        ShotBatch {
            counts,
            requested_shots,
            anomalies: Vec::new(),
        }
    }

    /// Shots actually delivered.
    pub fn delivered_shots(&self) -> u64 {
        self.counts.total()
    }

    /// Delivered fraction of the requested shots, in `[0, 1]`.
    pub fn delivered_fraction(&self) -> f64 {
        if self.requested_shots == 0 {
            1.0
        } else {
            self.delivered_shots() as f64 / self.requested_shots as f64
        }
    }

    /// Whether every requested shot arrived with no anomalies.
    pub fn is_complete(&self) -> bool {
        self.anomalies.is_empty() && self.delivered_shots() >= self.requested_shots
    }

    /// Whether any anomaly of the readout-dropout kind is present
    /// (dropout corrupts the distribution, unlike truncation which only
    /// widens its error bars).
    pub fn has_dropout(&self) -> bool {
        self.anomalies
            .iter()
            .any(|a| matches!(a, Anomaly::ReadoutDropout { .. }))
    }

    /// Merges another batch of the same circuit into this one,
    /// accumulating counts, requested shots and anomalies. The merged
    /// histogram weights each batch by its delivered shots — exactly the
    /// partial-result weighting resilient executors need.
    ///
    /// # Panics
    ///
    /// Panics when the histograms' bit widths differ.
    pub fn absorb(&mut self, other: ShotBatch) {
        self.counts.merge(&other.counts);
        self.requested_shots += other.requested_shots;
        self.anomalies.extend(other.anomalies);
    }
}

/// One job of a batch submission: an already-scheduled circuit plus its
/// execution budget (shots, trajectories, seed, threads).
///
/// Per-job seeds are the caller's responsibility: derive them from a
/// [`device::SeedSpawner`] for independent jobs, or reuse one seed
/// across jobs for common-random-numbers comparisons (as the DD-mask
/// search does).
#[derive(Debug, Clone, Copy)]
pub struct JobSpec<'a> {
    /// The scheduled circuit to execute.
    pub timed: &'a TimedCircuit,
    /// Execution budget for this job.
    pub config: ExecutionConfig,
}

/// Anything that can execute circuits and deliver shot batches.
///
/// Implementations in this crate:
///
/// - [`Machine`]: the pristine trajectory simulator; always returns
///   complete batches and overrides [`Backend::execute_batch`] with a
///   trajectory-major, scoped-thread parallel implementation that shares
///   each trajectory seed's normals across the batch's jobs and
///   simulates each distinct run at most once per machine.
/// - [`crate::fault::FaultyBackend`]: wraps a [`Machine`] and injects
///   seeded transient failures, timeouts, truncation, readout dropouts
///   and calibration staleness. Its fault draws are keyed by each job's
///   address (circuit and config), so it decides a batch's faults up
///   front and simulates the survivors as one [`Machine`] batch.
/// - [`crate::resilient::ResilientExecutor`]: wraps any backend with
///   retry/backoff and partial-result accumulation. It runs a batch in
///   rounds: each round sends the current attempt of every unfinished
///   job as one inner batch.
pub trait Backend: Send + Sync {
    /// Schedules (ALAP) and executes a plain circuit. By default it
    /// schedules on [`Backend::device_snapshot`] and calls
    /// [`Backend::execute_timed`].
    ///
    /// # Errors
    ///
    /// Returns a typed [`ExecError`]; transient variants
    /// ([`ExecError::is_transient`]) may succeed on retry.
    fn execute(&self, circuit: &Circuit, config: &ExecutionConfig) -> Result<ShotBatch, ExecError> {
        let timed = try_schedule(circuit, &self.device_snapshot(), SchedulePolicy::Alap)?;
        self.execute_timed(&timed, config)
    }

    /// Executes an already-scheduled circuit.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ExecError`]; transient variants
    /// ([`ExecError::is_transient`]) may succeed on retry.
    fn execute_timed(
        &self,
        timed: &TimedCircuit,
        config: &ExecutionConfig,
    ) -> Result<ShotBatch, ExecError>;

    /// Executes a batch of jobs, returning one result per job in
    /// submission order.
    ///
    /// # Determinism contract
    ///
    /// For every backend, `execute_batch(jobs)[i]` must equal
    /// `execute_timed(jobs[i].timed, &jobs[i].config)` called serially in
    /// submission order on a backend in the same state — batching is a
    /// throughput optimization, never a semantic one. The default
    /// implementation *is* that serial loop. [`Machine`] overrides it with
    /// a trajectory-major loop on scoped threads, which preserves the
    /// contract because its executions are stateless, its trajectories
    /// are seeded independently of the thread layout, and its shared
    /// per-seed normals equal the ones each stream would draw. For the
    /// same reason it may serve a job that repeats a run it has already
    /// made (same plan, seed, shots and trajectories) with that run's
    /// result instead of simulating it again.
    ///
    /// The fault and retry wrappers override it too.
    /// [`crate::fault::FaultyBackend`] keeps the contract exactly: a
    /// job's faults are a pure function of its address, and the batch
    /// claims its dispatch indices (which calibration staleness follows)
    /// in submission order. [`crate::resilient::ResilientExecutor`] keeps
    /// it for each job's result and for the fault and retry tallies,
    /// except for what is counted in dispatch order: its rounds send
    /// every job's first attempt before any retry, so calibration
    /// staleness, the dispatch index an injected error names, and the
    /// virtual time charged to a shared deadline follow the rounds, not
    /// the one-by-one order.
    ///
    /// The contract holds *across simulator routing* too: a batch may mix
    /// CHP-routed Clifford jobs with state-vector jobs, and each job's
    /// result is still a pure function of `(timed, config)` — engine
    /// selection is deterministic per plan and each engine's trajectory
    /// RNG stream depends only on the job seed.
    ///
    /// Per-job errors are returned in the corresponding slot rather than
    /// aborting the batch, so callers keep their per-job degradation
    /// semantics.
    fn execute_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<Result<ShotBatch, ExecError>> {
        jobs.iter()
            .map(|j| self.execute_timed(j.timed, &j.config))
            .collect()
    }

    /// A snapshot of the device this backend currently runs against.
    /// Returned by value because fault-injecting backends drift their
    /// calibration mid-run.
    fn device_snapshot(&self) -> Device;
}

impl Backend for Machine {
    fn execute_timed(
        &self,
        timed: &TimedCircuit,
        config: &ExecutionConfig,
    ) -> Result<ShotBatch, ExecError> {
        let counts = Machine::execute_timed(self, timed, config)?;
        Ok(ShotBatch::complete(counts, config.shots))
    }

    fn execute_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<Result<ShotBatch, ExecError>> {
        self.execute_batch_jobs(jobs)
    }

    fn device_snapshot(&self) -> Device {
        self.device().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::Circuit;

    #[test]
    fn machine_backend_returns_complete_batches() {
        let m = Machine::new(Device::ibmq_rome(4));
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let cfg = ExecutionConfig {
            shots: 300,
            trajectories: 8,
            seed: 2,
            threads: 1,
        };
        let batch = Backend::execute(&m, &c, &cfg).unwrap();
        assert!(batch.is_complete());
        assert_eq!(batch.delivered_shots(), 300);
        assert_eq!(batch.delivered_fraction(), 1.0);
        assert!(!batch.has_dropout());
    }

    #[test]
    fn absorb_accumulates_counts_and_anomalies() {
        let mut a = ShotBatch::complete(
            {
                let mut c = Counts::new(1);
                c.record_many(0, 60);
                c
            },
            100,
        );
        a.anomalies.push(Anomaly::ShotTruncation {
            requested: 100,
            delivered: 60,
        });
        let b = ShotBatch::complete(
            {
                let mut c = Counts::new(1);
                c.record_many(1, 40);
                c
            },
            40,
        );
        a.absorb(b);
        assert_eq!(a.delivered_shots(), 100);
        assert_eq!(a.requested_shots, 140);
        assert_eq!(a.anomalies.len(), 1);
        // Weighting is by delivered shots: 60/100 zeros, 40/100 ones.
        assert!((a.counts.probability(0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn delivered_fraction_handles_zero_request() {
        let batch = ShotBatch::complete(Counts::new(1), 0);
        assert_eq!(batch.delivered_fraction(), 1.0);
        assert!(batch.is_complete());
    }

    #[test]
    fn backend_is_object_safe() {
        let m = Machine::new(Device::ibmq_rome(4));
        let b: &dyn Backend = &m;
        assert_eq!(b.device_snapshot().num_qubits(), 5);
    }

    #[test]
    fn machine_batch_is_bit_identical_to_serial() {
        use transpiler::{schedule, SchedulePolicy};
        let m = Machine::new(Device::ibmq_guadalupe(11));
        let circuits: Vec<_> = (0..5)
            .map(|k| {
                let mut c = Circuit::new(3);
                c.h(0).cx(0, 1);
                for _ in 0..k {
                    c.t(2);
                }
                c.cx(1, 2).measure_all();
                schedule(&c, m.device(), SchedulePolicy::Alap)
            })
            .collect();
        let jobs: Vec<JobSpec> = circuits
            .iter()
            .enumerate()
            .map(|(i, timed)| JobSpec {
                timed,
                config: ExecutionConfig {
                    shots: 200,
                    trajectories: 8,
                    seed: 40 + i as u64,
                    threads: 4,
                },
            })
            .collect();
        let serial: Vec<_> = jobs
            .iter()
            .map(|j| Backend::execute_timed(&m, j.timed, &j.config).unwrap())
            .collect();
        let batched = m.execute_batch(&jobs);
        assert_eq!(batched.len(), serial.len());
        for (b, s) in batched.into_iter().zip(serial) {
            assert_eq!(b.unwrap(), s);
        }
    }

    #[test]
    fn batch_reports_per_job_errors_in_place() {
        use transpiler::{schedule, SchedulePolicy};
        let dev = Device::all_to_all(27, 1);
        let m = Machine::new(dev);
        let mut small = Circuit::new(2);
        small.h(0).cx(0, 1).measure_all();
        let mut huge = Circuit::new(27);
        for q in 0..27 {
            huge.h(q as u32);
        }
        huge.measure_all();
        let ts = schedule(&small, m.device(), SchedulePolicy::Alap);
        let th = schedule(&huge, m.device(), SchedulePolicy::Alap);
        let cfg = ExecutionConfig {
            shots: 64,
            trajectories: 4,
            seed: 1,
            threads: 2,
        };
        let jobs = [
            JobSpec {
                timed: &ts,
                config: cfg,
            },
            JobSpec {
                timed: &th,
                config: cfg,
            },
            JobSpec {
                timed: &ts,
                config: cfg,
            },
        ];
        let results = m.execute_batch(&jobs);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(ExecError::TooManyActiveQubits { .. })
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn empty_batch_is_fine() {
        let m = Machine::new(Device::ibmq_rome(4));
        assert!(m.execute_batch(&[]).is_empty());
    }
}
