//! Retry/backoff execution over any [`Backend`].
//!
//! [`ResilientExecutor`] wraps a backend and turns its transient failures
//! into a bounded retry loop with exponential backoff and jitter, while
//! *accumulating* partial results: a truncated batch is kept and the next
//! attempt only asks for the missing shots, so two 60% deliveries add up
//! to one complete histogram instead of two discarded ones. Batches with
//! a readout-register dropout are the exception — a zeroed bit corrupts
//! the distribution rather than widening its error bars, so they are
//! discarded and retried.
//!
//! Batches run in rounds. Each round checks the deadline once, then
//! sends the current attempt of every unfinished request as one inner
//! [`Backend::execute_batch`], and charges each failed request's backoff
//! in submission order. Only the requests that failed or came back short
//! go into the next round, as a smaller batch. A single request is a
//! batch of one, so its rounds are the classic retry loop.
//!
//! Determinism contract: the backoff schedule (including jitter) is a
//! pure function of `(ExecutionConfig::seed, attempt)`, and
//! attempt 0 runs under the caller's exact seed — a fault-free backend
//! behind a `ResilientExecutor` is bit-identical to the bare backend.
//! Over a backend whose fault draws follow each job's address (as
//! [`crate::FaultyBackend`]'s do), a batch gets the same per-request
//! results and [`FaultStats`] as the same requests submitted one by one,
//! except for what is counted in dispatch order: calibration staleness,
//! the dispatch index an injected error names, and the virtual time a
//! [`Deadline`] accumulates. Rounds dispatch every request's attempt 0
//! before any retry, so those follow the rounds.
//! Backoff delays are *virtual* (computed and recorded, never slept):
//! against a simulator, wall-clock waiting buys nothing, and tests must
//! not take minutes.

use crate::backend::{Anomaly, Backend, JobSpec, ShotBatch};
use crate::deadline::Deadline;
use crate::executor::{ExecError, ExecutionConfig};
use device::{Device, SeedSpawner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard};
use transpiler::TimedCircuit;

/// Salt folded into the execution seed so backoff jitter draws never
/// collide with trajectory/shot randomness derived from the same seed.
const BACKOFF_SALT: u64 = 0x42AC_0FF5_7E7A_11CE;

/// Backoff before the second attempt, in milliseconds.
const BASE_BACKOFF_MS: f64 = 10.0;
/// Multiplier applied to the backoff after every failed attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Ceiling on the (pre-jitter) backoff, in milliseconds.
const MAX_BACKOFF_MS: f64 = 1_000.0;
/// Symmetric jitter as a fraction of the nominal delay: the actual delay
/// is `nominal * (1 ± JITTER_FRAC)`, drawn deterministically.
const JITTER_FRAC: f64 = 0.25;
/// Minimum delivered fraction at which an exhausted request is still
/// accepted as a (flagged) partial result instead of an error.
const MIN_SHOT_FRACTION: f64 = 0.5;

/// Retry behaviour of a [`ResilientExecutor`]. The backoff schedule
/// (10 ms doubling per attempt up to 1 s, ±25% seeded jitter) and the
/// 50% partial-acceptance floor are fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum backend attempts per request (first try included).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4 }
    }
}

/// A [`RetryPolicy`] that cannot express a retry schedule. Produced by
/// [`RetryPolicy::validate`]; zero attempts would never execute anything.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryPolicyError {
    /// `max_attempts == 0`: the executor would never dispatch anything.
    ZeroAttempts,
}

impl std::fmt::Display for RetryPolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryPolicyError::ZeroAttempts => {
                write!(f, "max_attempts must be at least 1 (got 0)")
            }
        }
    }
}

impl std::error::Error for RetryPolicyError {}

impl RetryPolicy {
    /// A policy that never retries (attempt 0 only, no partial top-up).
    pub fn no_retries() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// Rejects a policy with zero attempts.
    ///
    /// # Errors
    ///
    /// [`RetryPolicyError::ZeroAttempts`] when `max_attempts` is 0.
    pub fn validate(&self) -> Result<(), RetryPolicyError> {
        if self.max_attempts == 0 {
            return Err(RetryPolicyError::ZeroAttempts);
        }
        Ok(())
    }

    /// The backoff delay (ms) charged after failed attempt `attempt`
    /// (0-based), for a request executing under `seed`. Pure function —
    /// the whole schedule can be predicted (and asserted) in advance.
    pub fn delay_ms(&self, seed: u64, attempt: u32) -> f64 {
        let nominal = (BASE_BACKOFF_MS * BACKOFF_FACTOR.powi(attempt as i32)).min(MAX_BACKOFF_MS);
        let spawner = SeedSpawner::new(seed ^ BACKOFF_SALT);
        let mut rng = StdRng::seed_from_u64(spawner.derive(attempt as u64));
        let u: f64 = rng.gen();
        (nominal * (1.0 + JITTER_FRAC * (2.0 * u - 1.0))).max(0.0)
    }

    /// The full backoff schedule for `attempts` failed attempts under
    /// `seed`.
    pub fn backoff_schedule(&self, seed: u64, attempts: u32) -> Vec<f64> {
        (0..attempts).map(|a| self.delay_ms(seed, a)).collect()
    }
}

/// Counters describing everything a [`ResilientExecutor`] absorbed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Requests (execute calls) received.
    pub requests: u64,
    /// Backend attempts dispatched (≥ requests).
    pub attempts: u64,
    /// Transient errors retried around.
    pub transient_errors: u64,
    /// Batches discarded because a readout bit dropped.
    pub dropout_discards: u64,
    /// Truncated batches absorbed into partial accumulation.
    pub partial_batches: u64,
    /// Requests resolved with fewer shots than asked (flagged partial).
    pub partial_accepted: u64,
    /// Requests that exhausted the retry budget and returned an error.
    pub exhausted: u64,
    /// Requests whose batch ran under stale calibration.
    pub stale_batches: u64,
    /// Requests abandoned because their deadline expired or they were
    /// cancelled mid-retry-loop.
    pub deadline_aborts: u64,
    /// Total (virtual) backoff charged, in milliseconds.
    pub total_backoff_ms: f64,
}

impl std::fmt::Display for FaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} requests / {} attempts: {} transient errors retried, \
             {} dropout discards, {} partial batches absorbed, \
             {} accepted partial, {} exhausted, {} stale, \
             {} deadline aborts, {:.1} ms backoff",
            self.requests,
            self.attempts,
            self.transient_errors,
            self.dropout_discards,
            self.partial_batches,
            self.partial_accepted,
            self.exhausted,
            self.stale_batches,
            self.deadline_aborts,
            self.total_backoff_ms
        )
    }
}

/// A [`Backend`] decorator adding retry, backoff and partial-result
/// accumulation.
///
/// # Examples
///
/// ```
/// use device::Device;
/// use machine::{
///     Backend, ExecutionConfig, FaultProfile, FaultyBackend, Machine, ResilientExecutor,
///     RetryPolicy,
/// };
/// use qcirc::Circuit;
/// use std::sync::Arc;
///
/// let flaky = FaultyBackend::new(Machine::new(Device::ibmq_rome(3)), FaultProfile::flaky(), 7);
/// let exec = ResilientExecutor::new(Arc::new(flaky));
/// let mut c = Circuit::new(1);
/// c.h(0).measure(0, 0);
/// let cfg = ExecutionConfig { shots: 128, trajectories: 4, seed: 1, threads: 1 };
/// // 10% failures + 5% timeouts: 4 attempts make every request succeed here.
/// for _ in 0..20 {
///     assert!(exec.execute(&c, &cfg).is_ok());
/// }
/// assert!(exec.stats().attempts >= 20);
/// ```
pub struct ResilientExecutor {
    backend: Arc<dyn Backend>,
    policy: RetryPolicy,
    /// The request deadline every execute call is checked against.
    /// Defaults to [`Deadline::none`]; bind a real one per request with
    /// [`ResilientExecutor::with_deadline`].
    deadline: Deadline,
    stats: Mutex<FaultStats>,
}

impl std::fmt::Debug for ResilientExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientExecutor")
            .field("policy", &self.policy)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ResilientExecutor {
    /// Wraps a backend with the default [`RetryPolicy`].
    pub fn new(backend: Arc<dyn Backend>) -> Self {
        Self::with_policy(backend, RetryPolicy::default())
    }

    /// Wraps a backend with an explicit policy.
    ///
    /// # Panics
    ///
    /// Panics when the policy fails [`RetryPolicy::validate`] — a config
    /// bug at construction time. Use
    /// [`ResilientExecutor::try_with_policy`] to handle it as a value.
    pub fn with_policy(backend: Arc<dyn Backend>, policy: RetryPolicy) -> Self {
        match Self::try_with_policy(backend, policy) {
            Ok(exec) => exec,
            Err(e) => panic!("invalid RetryPolicy: {e}"),
        }
    }

    /// Wraps a backend with an explicit policy, rejecting invalid ones.
    ///
    /// # Errors
    ///
    /// Returns the [`RetryPolicyError`] from [`RetryPolicy::validate`].
    pub fn try_with_policy(
        backend: Arc<dyn Backend>,
        policy: RetryPolicy,
    ) -> Result<Self, RetryPolicyError> {
        policy.validate()?;
        Ok(ResilientExecutor {
            backend,
            policy,
            deadline: Deadline::none(),
            stats: Mutex::new(FaultStats::default()),
        })
    }

    /// Binds a request deadline: every round of attempts checks it
    /// first, and backoff never charges past the remaining budget.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The bound deadline ([`Deadline::none`] unless set).
    pub fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// The active retry policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Locks the stats counters, recovering from a poisoned mutex.
    ///
    /// Poisoning can happen for real: the service worker pool wraps
    /// request handling in `catch_unwind`, so a panic raised while an
    /// increment holds this lock (e.g. under `FaultyBackend`) used to
    /// poison it and turn *every* later request into a panic cascade.
    /// The stats are plain counters with no invariants spanning a panic
    /// point, so the stored value is always valid — take it.
    fn stats_lock(&self) -> MutexGuard<'_, FaultStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the absorbed-fault counters.
    pub fn stats(&self) -> FaultStats {
        *self.stats_lock()
    }

    /// Resets the counters (e.g. between experiment phases).
    pub fn reset_stats(&self) {
        *self.stats_lock() = FaultStats::default();
    }

    /// Folds one attempt's result into `request`. Returns whether the
    /// request needs another attempt.
    fn absorb(
        &self,
        request: &mut Request,
        attempt: u32,
        result: Result<ShotBatch, ExecError>,
    ) -> bool {
        let mtr = crate::metrics::metrics();
        let seed = request.config.seed;
        match result {
            Ok(batch) if batch.has_dropout() => {
                // A zeroed register bit corrupts the distribution;
                // discard the batch and treat the attempt as failed.
                self.stats_lock().dropout_discards += 1;
                mtr.dropout_discards.inc();
                request.last_err = Some(ExecError::JobFailed {
                    job: attempt as u64,
                    reason: "readout register dropout (batch discarded)".to_string(),
                });
            }
            Ok(batch) => {
                {
                    let mut s = self.stats_lock();
                    if !batch.is_complete() {
                        s.partial_batches += 1;
                        mtr.partial_batches.inc();
                    }
                    if batch
                        .anomalies
                        .iter()
                        .any(|a| matches!(a, Anomaly::StaleCalibration { .. }))
                    {
                        s.stale_batches += 1;
                        mtr.stale_batches.inc();
                    }
                }
                let merged = match request.merged.take() {
                    Some(mut m) => {
                        m.absorb(batch);
                        m
                    }
                    None => batch,
                };
                let done = merged.delivered_shots() >= request.config.shots;
                request.merged = Some(merged);
                if done {
                    return false;
                }
                // Partial delivery: top up on the next attempt.
            }
            // An inner layer noticed the deadline/cancellation mid
            // attempt: stop, keep whatever already merged.
            Err(e) if e.is_interruption() => {
                request.interruption = Some(e);
                return false;
            }
            Err(e) if e.is_transient() => {
                self.stats_lock().transient_errors += 1;
                mtr.retry_error(e.kind()).inc();
                request.last_err = Some(e);
            }
            Err(e) => {
                request.permanent = Some(e);
                return false;
            }
        }
        self.charge_backoff(seed, attempt);
        true
    }

    /// Resolves a request once its rounds are over.
    fn finish(&self, request: Request) -> Result<ShotBatch, ExecError> {
        let mtr = crate::metrics::metrics();
        if let Some(e) = request.permanent {
            return Err(e);
        }
        // Normalize the accumulated result against the original request.
        if let Some(mut m) = request.merged {
            m.requested_shots = request.config.shots;
            if m.delivered_shots() >= request.config.shots {
                return Ok(m);
            }
            if m.delivered_fraction() >= MIN_SHOT_FRACTION {
                self.stats_lock().partial_accepted += 1;
                return Ok(m);
            }
        }
        // An interrupted request reports the interruption, not an
        // exhausted retry budget: the budget wasn't exhausted, the caller
        // stopped waiting.
        if let Some(e) = request.interruption {
            self.stats_lock().deadline_aborts += 1;
            mtr.deadline_aborts.inc();
            return Err(e);
        }
        self.stats_lock().exhausted += 1;
        mtr.retry_exhausted.inc();
        // Only a request still open after the last round gets here, so
        // it made every attempt the policy allows.
        Err(ExecError::RetriesExhausted {
            attempts: self.policy.max_attempts,
            last: Box::new(request.last_err.unwrap_or(ExecError::JobFailed {
                job: 0,
                reason: "no shots delivered".to_string(),
            })),
        })
    }

    /// Records the backoff after a failed attempt, except after the
    /// final one where no retry follows. The delay is clamped to the
    /// deadline's remaining budget and charged to the deadline as
    /// virtual time, so under [`Deadline::virtual_only`] the expiry
    /// point is a pure function of the seeded schedule.
    fn charge_backoff(&self, seed: u64, attempt: u32) {
        if attempt + 1 >= self.policy.max_attempts {
            return;
        }
        let mut delay = self.policy.delay_ms(seed, attempt);
        if let Some(remaining) = self.deadline.remaining_ms_f64() {
            delay = delay.min(remaining);
        }
        // Quantize once to whole µs so the deadline charge and the stats
        // are the same number — clamped delays can then never sum past
        // the budget.
        let delay_us = (delay * 1000.0) as u64;
        self.deadline.charge_us(delay_us);
        {
            // The total is kept as a sum of whole µs, so it does not
            // depend on the order requests are charged in.
            let mut s = self.stats_lock();
            let total_us = (s.total_backoff_ms * 1000.0).round() as u64 + delay_us;
            s.total_backoff_ms = total_us as f64 / 1000.0;
        }
        crate::metrics::metrics().retry_backoff_us.add(delay_us);
    }
}

/// One request's retry state across rounds.
struct Request {
    config: ExecutionConfig,
    /// Everything delivered so far, merged.
    merged: Option<ShotBatch>,
    last_err: Option<ExecError>,
    /// The deadline expiry or cancellation that stopped the request.
    interruption: Option<ExecError>,
    /// The permanent error that ended the request.
    permanent: Option<ExecError>,
}

impl Request {
    /// The config of attempt `attempt`: the shots still missing, under
    /// the caller's exact seed first (so a clean backend is bit-identical
    /// to the bare path), then under fresh sub-seeds for independent
    /// top-up shots.
    fn attempt_config(&self, attempt: u32) -> ExecutionConfig {
        let have = self.merged.as_ref().map_or(0, ShotBatch::delivered_shots);
        ExecutionConfig {
            shots: self.config.shots.saturating_sub(have),
            seed: if attempt == 0 {
                self.config.seed
            } else {
                SeedSpawner::new(self.config.seed ^ BACKOFF_SALT).derive(0x7070 + attempt as u64)
            },
            ..self.config
        }
    }
}

impl Backend for ResilientExecutor {
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

    /// Runs the batch in rounds (see the module docs): one deadline
    /// check and one inner batch per round, each failed request's
    /// backoff charged as the one-by-one loop would charge it, and only
    /// the requests still open in the next round.
    fn execute_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<Result<ShotBatch, ExecError>> {
        let mtr = crate::metrics::metrics();
        self.stats_lock().requests += jobs.len() as u64;
        mtr.retry_requests.add(jobs.len() as u64);
        let mut requests: Vec<Request> = jobs
            .iter()
            .map(|j| Request {
                config: j.config,
                merged: None,
                last_err: None,
                interruption: None,
                permanent: None,
            })
            .collect();
        let mut open: Vec<usize> = (0..jobs.len()).collect();
        for attempt in 0..self.policy.max_attempts {
            if open.is_empty() {
                break;
            }
            // Cooperative cancellation point: no round starts once the
            // deadline is gone or its token is raised.
            if let Err(e) = self.deadline.check() {
                for &i in &open {
                    requests[i].interruption = Some(e.clone());
                }
                break;
            }
            let round: Vec<JobSpec<'_>> = open
                .iter()
                .map(|&i| JobSpec {
                    timed: jobs[i].timed,
                    config: requests[i].attempt_config(attempt),
                })
                .collect();
            self.stats_lock().attempts += round.len() as u64;
            mtr.retry_attempts.add(round.len() as u64);
            let results = self.backend.execute_batch(&round);
            open = open
                .into_iter()
                .zip(results)
                .filter_map(|(i, result)| {
                    self.absorb(&mut requests[i], attempt, result).then_some(i)
                })
                .collect();
        }
        requests.into_iter().map(|r| self.finish(r)).collect()
    }

    fn device_snapshot(&self) -> Device {
        self.backend.device_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Machine;
    use crate::fault::{FaultProfile, FaultyBackend};
    use qcirc::{Circuit, Counts};

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    fn cfg(seed: u64) -> ExecutionConfig {
        ExecutionConfig {
            shots: 240,
            trajectories: 8,
            seed,
            threads: 1,
        }
    }

    /// A backend that fails transiently a fixed number of times, then
    /// succeeds.
    struct FailNTimes {
        inner: Machine,
        remaining: Mutex<u32>,
    }

    impl Backend for FailNTimes {
        fn execute(
            &self,
            circuit: &Circuit,
            config: &ExecutionConfig,
        ) -> Result<ShotBatch, ExecError> {
            let mut left = self.remaining.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                return Err(ExecError::JobFailed {
                    job: 0,
                    reason: "scripted failure".to_string(),
                });
            }
            Backend::execute(&self.inner, circuit, config)
        }

        fn execute_timed(
            &self,
            timed: &TimedCircuit,
            config: &ExecutionConfig,
        ) -> Result<ShotBatch, ExecError> {
            let mut left = self.remaining.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                return Err(ExecError::Timeout {
                    job: 0,
                    budget_ms: 1,
                });
            }
            Backend::execute_timed(&self.inner, timed, config)
        }

        fn device_snapshot(&self) -> Device {
            self.inner.device().clone()
        }
    }

    #[test]
    fn clean_backend_is_bit_identical_through_the_executor() {
        let m = Machine::new(Device::ibmq_rome(3));
        let direct = m.execute(&bell(), &cfg(5)).unwrap();
        let exec = ResilientExecutor::new(Arc::new(Machine::new(Device::ibmq_rome(3))));
        let batch = exec.execute(&bell(), &cfg(5)).unwrap();
        assert_eq!(batch.counts, direct);
        assert!(batch.is_complete());
        assert_eq!(exec.stats().attempts, 1);
    }

    #[test]
    fn zero_shot_request_passes_through_unchanged() {
        // The bare machine answers a 0-shot request with empty counts;
        // the executor must dispatch it and return the same, alone and in
        // a batch, over a fault-free FaultyBackend too.
        let m = Machine::new(Device::ibmq_rome(3));
        let timed = transpiler::schedule(&bell(), m.device(), transpiler::SchedulePolicy::Alap);
        let zero = ExecutionConfig { shots: 0, ..cfg(5) };
        let bare = Backend::execute_timed(&m, &timed, &zero).unwrap();
        let faulty = FaultyBackend::new(m.clone(), FaultProfile::none(), 1);
        for inner in [Arc::new(m) as Arc<dyn Backend>, Arc::new(faulty)] {
            let exec = ResilientExecutor::new(inner);
            assert_eq!(exec.execute_timed(&timed, &zero).unwrap(), bare);
            let jobs = [JobSpec {
                timed: &timed,
                config: zero,
            }; 2];
            for result in exec.execute_batch(&jobs) {
                assert_eq!(result.unwrap(), bare);
            }
            let s = exec.stats();
            assert_eq!((s.requests, s.attempts, s.exhausted), (3, 3, 0));
        }
    }

    #[test]
    fn retries_recover_from_transient_failures() {
        let backend = FailNTimes {
            inner: Machine::new(Device::ibmq_rome(3)),
            remaining: Mutex::new(2),
        };
        let exec = ResilientExecutor::new(Arc::new(backend));
        let batch = exec.execute(&bell(), &cfg(5)).unwrap();
        assert_eq!(batch.delivered_shots(), 240);
        let s = exec.stats();
        assert_eq!(s.attempts, 3);
        assert_eq!(s.transient_errors, 2);
        assert!(s.total_backoff_ms > 0.0);
    }

    #[test]
    fn budget_exhaustion_returns_typed_error() {
        let backend = FailNTimes {
            inner: Machine::new(Device::ibmq_rome(3)),
            remaining: Mutex::new(100),
        };
        let exec = ResilientExecutor::new(Arc::new(backend));
        let err = exec.execute(&bell(), &cfg(5)).unwrap_err();
        let ExecError::RetriesExhausted { attempts, last } = err else {
            panic!("expected RetriesExhausted");
        };
        assert_eq!(attempts, 4);
        assert!(last.is_transient());
        // The exhausted error itself is not transient: nesting retry
        // loops must not multiply budgets.
        assert!(!ExecError::RetriesExhausted { attempts, last }.is_transient());
        assert_eq!(exec.stats().exhausted, 1);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let m = Machine::new(Device::all_to_all(27, 1));
        let exec = ResilientExecutor::new(Arc::new(m));
        let mut c = Circuit::new(27);
        for q in 0..27 {
            c.h(q as u32);
        }
        c.measure_all();
        let err = exec.execute(&c, &cfg(1)).unwrap_err();
        assert!(matches!(err, ExecError::TooManyActiveQubits { .. }));
        assert_eq!(exec.stats().attempts, 1);
    }

    #[test]
    fn truncated_batches_accumulate_to_full_delivery() {
        let profile = FaultProfile {
            shot_truncation: 1.0,
            truncation_floor: 0.5,
            ..FaultProfile::none()
        };
        let backend = FaultyBackend::new(Machine::new(Device::ibmq_rome(3)), profile, 3);
        let exec = ResilientExecutor::new(Arc::new(backend));
        let batch = exec.execute(&bell(), &cfg(9)).unwrap();
        // Every attempt truncates, but top-ups close the gap (4 attempts
        // at ≥50% each always cover 100%).
        assert_eq!(batch.delivered_shots(), 240);
        assert_eq!(batch.requested_shots, 240);
        let s = exec.stats();
        assert!(s.partial_batches >= 1);
        assert!(s.attempts >= 2);
    }

    #[test]
    fn partial_acceptance_below_full_but_above_floor() {
        // One attempt only, always truncated to ~50-100%: accepted as
        // partial under the default 0.5 floor.
        let profile = FaultProfile {
            shot_truncation: 1.0,
            truncation_floor: 0.5,
            ..FaultProfile::none()
        };
        let backend = FaultyBackend::new(Machine::new(Device::ibmq_rome(3)), profile, 3);
        let exec = ResilientExecutor::with_policy(Arc::new(backend), RetryPolicy::no_retries());
        let batch = exec.execute(&bell(), &cfg(9)).unwrap();
        assert!(batch.delivered_shots() < 240);
        assert!(batch.delivered_fraction() >= 0.5 - 1e-9);
        assert_eq!(exec.stats().partial_accepted, 1);
    }

    #[test]
    fn dropout_batches_are_discarded_and_retried() {
        let profile = FaultProfile {
            readout_dropout: 1.0,
            ..FaultProfile::none()
        };
        let backend = FaultyBackend::new(Machine::new(Device::ibmq_rome(3)), profile, 3);
        let exec = ResilientExecutor::new(Arc::new(backend));
        let err = exec.execute(&bell(), &cfg(9)).unwrap_err();
        assert!(matches!(err, ExecError::RetriesExhausted { .. }));
        assert_eq!(exec.stats().dropout_discards, 4);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_seed_sensitive() {
        let policy = RetryPolicy::default();
        let a = policy.backoff_schedule(42, 6);
        let b = policy.backoff_schedule(42, 6);
        assert_eq!(a, b, "same seed must give the same schedule");
        let c = policy.backoff_schedule(43, 6);
        assert_ne!(a, c, "different seeds must jitter differently");
        // Exponential growth up to the cap, jitter within ±25%.
        for (i, d) in a.iter().enumerate() {
            let nominal = (10.0 * 2.0f64.powi(i as i32)).min(1_000.0);
            assert!(*d >= nominal * 0.75 - 1e-9 && *d <= nominal * 1.25 + 1e-9);
        }
        assert!(a[5] > a[0], "later delays must be longer");
    }

    #[test]
    fn poisoned_stats_lock_recovers_instead_of_cascading() {
        // Regression: a panic while holding the stats mutex (a worker
        // thread dying mid-increment under catch_unwind) poisoned the
        // lock, and every later `stats()`/`execute()` call panicked on
        // `.expect("stats lock")`. Counters have no cross-field
        // invariants, so recovery must take the stored value.
        let exec = Arc::new(ResilientExecutor::new(Arc::new(Machine::new(
            Device::ibmq_rome(3),
        ))));
        exec.execute(&bell(), &cfg(5)).unwrap();

        // Poison the mutex: panic while holding the guard.
        let poisoner = Arc::clone(&exec);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = poisoner.stats.lock().unwrap();
            panic!("worker dies holding the stats lock");
        }));
        assert!(exec.stats.is_poisoned(), "the panic must have poisoned it");

        // The executor keeps serving and keeps counting.
        let before = exec.stats();
        assert_eq!(before.requests, 1);
        exec.execute(&bell(), &cfg(6)).unwrap();
        assert_eq!(exec.stats().requests, 2);
        exec.reset_stats();
        assert_eq!(exec.stats(), FaultStats::default());
    }

    #[test]
    fn executor_runs_are_reproducible_under_fixed_seed() {
        let run = || -> (Counts, FaultStats) {
            let backend = FaultyBackend::new(
                Machine::new(Device::ibmq_rome(3)),
                FaultProfile::lossy(),
                21,
            );
            let exec = ResilientExecutor::new(Arc::new(backend));
            let mut counts = Counts::new(2);
            for i in 0..10 {
                if let Ok(b) = exec.execute(&bell(), &cfg(100 + i)) {
                    counts.merge(&b.counts);
                }
            }
            (counts, exec.stats())
        };
        let (c1, s1) = run();
        let (c2, s2) = run();
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn invalid_policies_are_rejected_with_typed_errors() {
        let backend = || Arc::new(Machine::new(Device::ibmq_rome(3))) as Arc<dyn Backend>;
        let zero = RetryPolicy { max_attempts: 0 };
        assert_eq!(zero.validate(), Err(RetryPolicyError::ZeroAttempts));
        assert!(ResilientExecutor::try_with_policy(backend(), zero).is_err());
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy::no_retries().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid RetryPolicy")]
    fn with_policy_panics_on_invalid_config() {
        let backend = Arc::new(Machine::new(Device::ibmq_rome(3)));
        let _ = ResilientExecutor::with_policy(backend, RetryPolicy { max_attempts: 0 });
    }

    #[test]
    fn expired_deadline_fails_fast_without_dispatching() {
        let exec = ResilientExecutor::new(Arc::new(Machine::new(Device::ibmq_rome(3))))
            .with_deadline(Deadline::virtual_only(0));
        let err = exec.execute(&bell(), &cfg(5)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::DeadlineExceeded { budget_ms: 0, .. }
        ));
        let s = exec.stats();
        assert_eq!(s.attempts, 0, "no backend attempt once expired");
        assert_eq!(s.deadline_aborts, 1);
    }

    #[test]
    fn cancellation_stops_the_retry_loop() {
        let deadline = Deadline::none();
        deadline.token().cancel();
        let exec = ResilientExecutor::new(Arc::new(Machine::new(Device::ibmq_rome(3))))
            .with_deadline(deadline);
        assert_eq!(
            exec.execute(&bell(), &cfg(5)).unwrap_err(),
            ExecError::Cancelled
        );
        assert_eq!(exec.stats().deadline_aborts, 1);
    }

    #[test]
    fn backoff_is_clamped_to_the_remaining_budget() {
        // Always-failing backend, virtual deadline smaller than the full
        // backoff schedule: the loop must stop with DeadlineExceeded, and
        // the charged backoff must never exceed the budget.
        let backend = FailNTimes {
            inner: Machine::new(Device::ibmq_rome(3)),
            remaining: Mutex::new(100),
        };
        let policy = RetryPolicy { max_attempts: 16 };
        let budget_ms = 25;
        let exec = ResilientExecutor::with_policy(Arc::new(backend), policy)
            .with_deadline(Deadline::virtual_only(budget_ms));
        let err = exec.execute(&bell(), &cfg(5)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::DeadlineExceeded { budget_ms: 25, .. }
        ));
        let s = exec.stats();
        assert!(
            s.total_backoff_ms <= budget_ms as f64 + 1e-9,
            "charged {} ms against a {budget_ms} ms budget",
            s.total_backoff_ms
        );
        assert!(s.attempts >= 1, "work proceeded until the budget ran out");
        assert_eq!(s.deadline_aborts, 1);
    }

    #[test]
    fn virtual_deadline_trips_at_the_same_point_across_runs() {
        // Determinism of the cancellation point: two identical runs must
        // make the same number of attempts before the deadline trips.
        let run = || {
            let backend = FailNTimes {
                inner: Machine::new(Device::ibmq_rome(3)),
                remaining: Mutex::new(100),
            };
            let policy = RetryPolicy { max_attempts: 16 };
            let exec = ResilientExecutor::with_policy(Arc::new(backend), policy)
                .with_deadline(Deadline::virtual_only(40));
            let _ = exec.execute(&bell(), &cfg(77));
            exec.stats()
        };
        assert_eq!(run(), run());
    }
}
