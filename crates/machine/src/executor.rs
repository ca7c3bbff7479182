//! The noisy trajectory executor — "the quantum machine" of this stack.
//!
//! Executes a [`TimedCircuit`] under the device noise model by Monte-Carlo
//! trajectories. Each trajectory draws one realization of every stochastic
//! process (static detunings, OU paths, gate/readout error events) and
//! replays the circuit's compiled op stream ([`CompiledPlan`]) on the
//! engine the plan routed to — the CHP stabilizer tableau for Clifford
//! circuits under Pauli-expressible noise, the dense SoA state vector
//! otherwise (see [`crate::engine`]). Shots are distributed over
//! trajectories.
//!
//! The crucial property: DD pulses inserted by ADAPT are ordinary gates
//! here. Echo cancellation of the coherent detuning, its degradation at
//! long pulse spacing, and the extra depolarizing cost of each pulse all
//! emerge from the simulation rather than being modeled directly — on
//! *both* engines (the CHP path tracks idle phases in a toggling frame,
//! so X/Y pulses echo them out exactly as the dense path does).

use crate::backend::{JobSpec, ShotBatch};
use crate::engine::{EngineCounters, EnginePolicy, EngineStats, SimEngine, Trajectory};
use crate::fork::{fork_table, UnitForks};
use crate::noise::MemoCursor;
use crate::plan::{CompiledPlan, PlanCache, PlanCacheStats, RunKey};
use device::{Device, SeedSpawner};
use qcirc::{Circuit, Counts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use statevec::SimError;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use transpiler::{try_schedule, ScheduleError, SchedulePolicy, TimedCircuit};

/// Relative std-dev of the per-CNOT crosstalk kick around its calibrated
/// coupling (state-dependent ZZ fluctuation).
pub const CROSSTALK_JITTER: f64 = 1.0;

/// Execution errors — the workspace-wide taxonomy for everything that can
/// go wrong between a circuit and its counts.
///
/// Variants split into two classes: *permanent* failures (the same request
/// will fail again: oversized circuits, simulator bugs, malformed
/// schedules) and *transient* failures (a retry may succeed: flaky
/// backend jobs, timeouts). [`ExecError::is_transient`] is the class
/// predicate retry loops key off.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The circuit touches more qubits than the dense simulator can hold.
    TooManyActiveQubits {
        /// Number of active qubits in the circuit.
        active: usize,
        /// Simulator limit.
        limit: usize,
    },
    /// Underlying simulator error.
    Sim(SimError),
    /// The circuit could not be scheduled (malformed timings).
    Schedule(ScheduleError),
    /// A backend job failed in a way a retry may fix (queue hiccup,
    /// control-electronics glitch, injected fault).
    JobFailed {
        /// Backend-assigned job index.
        job: u64,
        /// Human-readable failure cause.
        reason: String,
    },
    /// A backend job exceeded its wall-clock budget.
    Timeout {
        /// Backend-assigned job index.
        job: u64,
        /// The budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// A retry loop gave up: every attempt failed transiently.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
        /// The error from the final attempt.
        last: Box<ExecError>,
    },
    /// The request's [`crate::Deadline`] expired before it could finish.
    /// Not transient: retrying would only burn more of a budget that is
    /// already gone — the caller must re-submit with a fresh deadline.
    DeadlineExceeded {
        /// Time counted against the budget when the check tripped, ms.
        elapsed_ms: u64,
        /// The budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// The request was cooperatively cancelled via its
    /// [`crate::CancelToken`]. Not transient by design.
    Cancelled,
}

impl ExecError {
    /// Whether a retry of the same request may succeed.
    ///
    /// [`ExecError::RetriesExhausted`] is deliberately *not* transient:
    /// it already represents an exhausted retry budget, and treating it as
    /// retryable would let nested retry loops multiply their budgets.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ExecError::JobFailed { .. } | ExecError::Timeout { .. }
        )
    }

    /// Stable snake_case tag per variant, used as the metric suffix for
    /// per-kind error accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::TooManyActiveQubits { .. } => "too_many_active_qubits",
            ExecError::Sim(_) => "sim",
            ExecError::Schedule(_) => "schedule",
            ExecError::JobFailed { .. } => "job_failed",
            ExecError::Timeout { .. } => "timeout",
            ExecError::RetriesExhausted { .. } => "retries_exhausted",
            ExecError::DeadlineExceeded { .. } => "deadline_exceeded",
            ExecError::Cancelled => "cancelled",
        }
    }

    /// Whether the error is an interruption of the request — the caller's
    /// deadline expired or it was cancelled — rather than a failure of
    /// the backend. Interruptions are neither retried nor treated as
    /// device unavailability: the work is simply abandoned.
    pub fn is_interruption(&self) -> bool {
        matches!(
            self,
            ExecError::DeadlineExceeded { .. } | ExecError::Cancelled
        )
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::TooManyActiveQubits { active, limit } => {
                write!(
                    f,
                    "{active} active qubits exceed the simulator limit of {limit}"
                )
            }
            ExecError::Sim(e) => write!(f, "simulation error: {e}"),
            ExecError::Schedule(e) => write!(f, "scheduling error: {e}"),
            ExecError::JobFailed { job, reason } => {
                write!(f, "job {job} failed transiently: {reason}")
            }
            ExecError::Timeout { job, budget_ms } => {
                write!(f, "job {job} exceeded its {budget_ms} ms budget")
            }
            ExecError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last error: {last}")
            }
            ExecError::DeadlineExceeded {
                elapsed_ms,
                budget_ms,
            } => {
                write!(
                    f,
                    "deadline exceeded: {elapsed_ms} ms elapsed against a {budget_ms} ms budget"
                )
            }
            ExecError::Cancelled => write!(f, "request cancelled"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}

impl From<ScheduleError> for ExecError {
    fn from(e: ScheduleError) -> Self {
        ExecError::Schedule(e)
    }
}

/// Knobs for one execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionConfig {
    /// Total measurement shots.
    pub shots: u64,
    /// Independent noise realizations; shots are spread across them.
    pub trajectories: u32,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (`0` = use all available cores). Both the auto and
    /// explicit settings are capped by [`ExecutionConfig::trajectories`]
    /// — one thread per trajectory is the maximum useful parallelism —
    /// and floored at 1. The thread count never affects results: shots
    /// are partitioned per trajectory with per-trajectory derived seeds,
    /// so any worker count produces bit-identical counts.
    pub threads: usize,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            shots: 8192,
            trajectories: 128,
            seed: 0,
            threads: 0,
        }
    }
}

impl ExecutionConfig {
    /// Convenience constructor with a specific seed.
    pub fn seeded(seed: u64) -> Self {
        ExecutionConfig {
            seed,
            ..Default::default()
        }
    }

    /// Budget-reduced configuration for inner search loops.
    pub fn fast(seed: u64) -> Self {
        ExecutionConfig {
            shots: 2048,
            trajectories: 48,
            seed,
            threads: 0,
        }
    }
}

/// Enables/disables individual noise channels — the ablation knobs used
/// by the `ablation_noise` experiment and the error-budget diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseToggles {
    /// Depolarizing gate errors (1q and 2q).
    pub gate_err: bool,
    /// Readout bit flips.
    pub readout_err: bool,
    /// Coherent idling detuning (static + OU).
    pub idle_coherent: bool,
    /// Spectator crosstalk from active CNOT links.
    pub idle_crosstalk: bool,
    /// Stochastic T1/white-dephasing Pauli floor.
    pub idle_floor: bool,
    /// Permit the CHP engine to Pauli-twirl the coherent idle channels
    /// (detuning/crosstalk) at frame-mixing gates. When `false` and a
    /// coherent channel is on, circuits are never routed to the
    /// stabilizer engine — the knob that flips routing eligibility (see
    /// [`crate::engine::pauli_expressible`]).
    pub coherent_twirl: bool,
}

impl Default for NoiseToggles {
    fn default() -> Self {
        NoiseToggles {
            gate_err: true,
            readout_err: true,
            idle_coherent: true,
            idle_crosstalk: true,
            idle_floor: true,
            coherent_twirl: true,
        }
    }
}

impl NoiseToggles {
    /// Everything off: the executor becomes an (expensive) ideal sampler.
    /// The twirl stays permitted — with no coherent channel enabled it
    /// never fires, so eligible circuits still take the CHP fast path.
    pub fn none() -> Self {
        NoiseToggles {
            gate_err: false,
            readout_err: false,
            idle_coherent: false,
            idle_crosstalk: false,
            idle_floor: false,
            coherent_twirl: true,
        }
    }
}

/// A device bound to the trajectory executor.
///
/// # Examples
///
/// ```
/// use device::Device;
/// use machine::{ExecutionConfig, Machine};
/// use qcirc::Circuit;
///
/// let machine = Machine::new(Device::ibmq_rome(7));
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).measure_all();
/// let counts = machine
///     .execute(&c, &ExecutionConfig { shots: 512, trajectories: 16, seed: 1, threads: 1 })
///     .unwrap();
/// assert_eq!(counts.total(), 512);
/// // Bell correlations survive the (mild) noise.
/// let agree = counts.get(0b00) + counts.get(0b11);
/// assert!(agree > 400);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    device: Device,
    toggles: NoiseToggles,
    /// Engine-routing policy ([`EnginePolicy::Auto`] unless pinned).
    policy: EnginePolicy,
    /// LRU of compiled plans, shared by every clone of this machine so
    /// batch workers and repeated executions reuse each other's work.
    plans: Arc<PlanCache>,
    /// Engine-routing counters, shared across clones like the cache.
    engines: Arc<EngineCounters>,
}

impl Machine {
    /// Binds the executor to a device with all noise channels enabled.
    pub fn new(device: Device) -> Self {
        Machine {
            device,
            toggles: NoiseToggles::default(),
            policy: EnginePolicy::Auto,
            plans: Arc::new(PlanCache::default()),
            engines: Arc::new(EngineCounters::default()),
        }
    }

    /// Binds the executor with selected noise channels (ablation studies).
    pub fn with_toggles(device: Device, toggles: NoiseToggles) -> Self {
        Machine {
            device,
            toggles,
            policy: EnginePolicy::Auto,
            plans: Arc::new(PlanCache::default()),
            engines: Arc::new(EngineCounters::default()),
        }
    }

    /// Pins the engine-routing policy (builder style). Forcing the dense
    /// engine is how channel-validation tests and cross-engine
    /// equivalence checks obtain a reference run.
    pub fn with_engine_policy(mut self, policy: EnginePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active noise toggles.
    pub fn toggles(&self) -> &NoiseToggles {
        &self.toggles
    }

    /// The active engine-routing policy.
    pub fn engine_policy(&self) -> EnginePolicy {
        self.policy
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Effectiveness counters of this machine's plan cache (shared across
    /// clones).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Engine-routing split and last-batch worker count (shared across
    /// clones).
    pub fn engine_stats(&self) -> EngineStats {
        self.engines.snapshot()
    }

    /// Schedules (ALAP) and executes a plain circuit.
    ///
    /// # Errors
    ///
    /// See [`Machine::execute_timed`].
    pub fn execute(
        &self,
        circuit: &Circuit,
        config: &ExecutionConfig,
    ) -> Result<Counts, ExecError> {
        let timed = try_schedule(circuit, &self.device, SchedulePolicy::Alap)?;
        self.execute_timed(&timed, config)
    }

    /// Executes a timed circuit under the device noise model.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::TooManyActiveQubits`] when the circuit touches
    /// more qubits than the dense simulator supports, or a wrapped
    /// [`SimError`] on internal failures.
    pub fn execute_timed(
        &self,
        timed: &TimedCircuit,
        config: &ExecutionConfig,
    ) -> Result<Counts, ExecError> {
        let _span = crate::metrics::metrics().execute_us.time();
        let (_, compiled) = self.plan_for(timed)?;
        let runs = trajectory_runs(config);
        // Capped at one thread per trajectory: extra workers would only
        // idle (and results are thread-count invariant anyway).
        let threads = thread_budget(config.threads).min(runs.len()).max(1);

        let run_range = |range: std::ops::Range<usize>| -> Result<Counts, ExecError> {
            let mut counts = Counts::new(timed.num_clbits());
            for &(seed, shots) in &runs[range] {
                if shots == 0 {
                    continue;
                }
                let mut rng = StdRng::seed_from_u64(seed);
                let c = crate::engine::run_trajectory(self, &compiled, shots, &mut rng)?;
                counts.merge(&c);
            }
            Ok(counts)
        };

        if threads <= 1 {
            return run_range(0..runs.len());
        }
        let chunk = runs.len().div_ceil(threads);
        let results: Vec<Result<Counts, ExecError>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(runs.len());
                if lo >= hi {
                    break;
                }
                let run = &run_range;
                handles.push(scope.spawn(move || run(lo..hi)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("trajectory worker panicked"))
                .collect()
        });
        let mut counts = Counts::new(timed.num_clbits());
        for r in results {
            counts.merge(&r?);
        }
        Ok(counts)
    }

    /// Counts one execution, fetches (or compiles) its plan and records
    /// which engine it routed to. Returns the plan with its cache key.
    fn plan_for(&self, timed: &TimedCircuit) -> Result<(u64, Arc<CompiledPlan>), ExecError> {
        let m = crate::metrics::metrics();
        m.executions.inc();
        let (key, compiled) = self
            .plans
            .lookup(timed, &self.device, &self.toggles, self.policy)?;
        match compiled.engine {
            SimEngine::Chp => {
                self.engines.chp.fetch_add(1, Ordering::Relaxed);
                m.engine_chp.inc();
            }
            SimEngine::StateVector => {
                self.engines.statevec.fetch_add(1, Ordering::Relaxed);
                m.engine_statevec.inc();
            }
        }
        Ok((key, compiled))
    }

    /// Executes a slice of jobs trajectory-major, preserving the per-job
    /// result order, and simulates each distinct run at most once.
    ///
    /// Every job's plan is compiled first, in submission order. A job's
    /// counts are a pure function of its plan and its run key (seed,
    /// shots, trajectories; see [`RunKey`]), so a job repeating an earlier
    /// job of the batch takes that job's result, `Ok` or `Err`, and a job
    /// whose plan's replay slot holds its run key takes the kept counts.
    /// Only the rest simulate, and each successful one refills its plan's
    /// slot. Then, for each trajectory seed, the trajectories of every
    /// job deriving that seed run back to back through one
    /// [`MemoCursor`] memo, so a batch on common random numbers (a
    /// neighbourhood's masks all carry the same seed) computes each
    /// Box–Muller normal once instead of once per job. A work unit is one
    /// seed and a contiguous slice of its jobs:
    /// with `S` seeds and a thread budget `B` (the largest per-job
    /// request, `0` counting as all cores), each seed's jobs are cut into
    /// `⌈B/S⌉` slices, and up to `B` scoped workers claim units. Each unit
    /// owns its memo and drops it when done. Within a unit, a job whose
    /// op stream starts like an earlier job's resumes that job's
    /// trajectory after their longest common op prefix (see
    /// `crate::fork`); the fork table that picks the earlier job is built
    /// once per batch.
    ///
    /// Results are bit-identical to executing the jobs serially: a memo
    /// hit returns exactly the normal the stream would compute there and
    /// leaves the stream where a plain run leaves it, a resumed trajectory
    /// holds exactly the state and stream position the job's own run
    /// reaches there, and a job's counts are integer sums over its
    /// trajectories, whatever the order. A failing job reports the error
    /// of its earliest failing trajectory, as [`Machine::execute_timed`]
    /// does.
    pub(crate) fn execute_batch_jobs(
        &self,
        jobs: &[JobSpec<'_>],
    ) -> Vec<Result<ShotBatch, ExecError>> {
        let m = crate::metrics::metrics();
        m.batches.inc();
        m.batch_jobs.add(jobs.len() as u64);
        m.batch_fanout.record(jobs.len() as u64);
        let plans: Vec<Result<(u64, Arc<CompiledPlan>), ExecError>> =
            jobs.iter().map(|j| self.plan_for(j.timed)).collect();

        // How each job gets its counts (a job whose plan failed has no
        // runs, and keeps `Simulate`).
        let mut first_of: HashMap<(u64, RunKey), usize> = HashMap::new();
        let mut sources: Vec<Source> = Vec::with_capacity(jobs.len());
        for (job, spec) in jobs.iter().enumerate() {
            let source = match &plans[job] {
                Err(_) => Source::Simulate,
                Ok((key, _)) => {
                    let run = RunKey::of(&spec.config);
                    match first_of.entry((*key, run)) {
                        Entry::Occupied(first) => Source::SameAs(*first.get()),
                        Entry::Vacant(slot) => {
                            slot.insert(job);
                            self.plans
                                .replay(*key, run)
                                .map_or(Source::Simulate, Source::Replay)
                        }
                    }
                }
            };
            sources.push(source);
        }
        let replays = sources
            .iter()
            .filter(|s| !matches!(s, Source::Simulate))
            .count() as u64;
        self.engines
            .batch_replays
            .fetch_add(replays, Ordering::Relaxed);
        m.batch_replays.add(replays);

        // Where each simulated job resumes an earlier one: the same for
        // every seed, so built once.
        let table = fork_table(
            &jobs
                .iter()
                .zip(&plans)
                .zip(&sources)
                .map(|((spec, plan), source)| match (plan, source) {
                    (Ok((_, plan)), Source::Simulate) => Some((&**plan, spec.config.seed)),
                    _ => None,
                })
                .collect::<Vec<_>>(),
        );

        // Each trajectory seed with the runs deriving it, in submission order.
        let mut seeds: Vec<(u64, Vec<Run>)> = Vec::new();
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        for (job, spec) in jobs.iter().enumerate() {
            if plans[job].is_err() || !matches!(sources[job], Source::Simulate) {
                continue;
            }
            for (traj, (seed, shots)) in trajectory_runs(&spec.config).into_iter().enumerate() {
                if shots == 0 {
                    continue;
                }
                let slot = *slot_of.entry(seed).or_insert_with(|| {
                    seeds.push((seed, Vec::new()));
                    seeds.len() - 1
                });
                seeds[slot].1.push(Run { job, traj, shots });
            }
        }
        let budget = jobs
            .iter()
            .map(|j| thread_budget(j.config.threads))
            .max()
            .unwrap_or(1);
        let slices = budget.div_ceil(seeds.len().max(1));
        let units: Vec<(u64, &[Run])> = seeds
            .iter()
            .flat_map(|(seed, runs)| {
                runs.chunks(runs.len().div_ceil(slices))
                    .map(move |slice| (*seed, slice))
            })
            .collect();
        let workers = budget.min(units.len());
        self.engines
            .batch_workers
            .store(workers as u64, Ordering::Relaxed);
        m.batch_workers.set(workers as i64);

        let tallies: Vec<Mutex<JobTally>> = jobs
            .iter()
            .map(|j| {
                Mutex::new(JobTally {
                    counts: Counts::new(j.timed.num_clbits()),
                    error: None,
                })
            })
            .collect();
        let run_unit = |&(seed, runs): &(u64, &[Run])| {
            let mut memo = Vec::new();
            let jobs: Vec<usize> = runs.iter().map(|run| run.job).collect();
            let mut forks = UnitForks::new(&jobs, &table);
            let mut forked = 0;
            for (i, run) in runs.iter().enumerate() {
                let (_, plan) = plans[run.job]
                    .as_ref()
                    .expect("only compiled jobs have runs");
                let (mut rng, start) = match forks.resume(i) {
                    Some((traj, gen, pos)) => {
                        forked += traj.pos() as u64;
                        (MemoCursor::resume(gen, pos, &mut memo), Ok(traj))
                    }
                    None => {
                        let mut rng = MemoCursor::new(StdRng::seed_from_u64(seed), &mut memo);
                        let start = Trajectory::start(self, plan, &mut rng);
                        (rng, start)
                    }
                };
                let result = start.and_then(|mut traj| {
                    for at in forks.save_points(i) {
                        traj.advance(plan, at, &mut rng)?;
                        forks.save(i, at, &traj, &rng);
                    }
                    traj.advance(plan, plan.op_count(), &mut rng)?;
                    traj.finish(plan, run.shots, &mut rng)
                });
                m.normal_memo_hits.add(rng.hits());
                m.normal_memo_misses.add(rng.misses());
                tallies[run.job]
                    .lock()
                    .expect("batch tally lock")
                    .add(run.traj, result);
            }
            self.engines.forked_ops.fetch_add(forked, Ordering::Relaxed);
            m.batch_forked_ops.add(forked);
        };

        if workers <= 1 {
            units.iter().for_each(run_unit);
        } else {
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                            run_unit(unit);
                        }
                    });
                }
            });
        }

        let mut results: Vec<Result<ShotBatch, ExecError>> = Vec::with_capacity(jobs.len());
        for (((plan, source), tally), job) in plans.into_iter().zip(sources).zip(tallies).zip(jobs)
        {
            let result = plan.and_then(|(key, _)| match source {
                Source::SameAs(first) => results[first].clone(),
                Source::Replay(counts) => Ok(ShotBatch::complete(counts, job.config.shots)),
                Source::Simulate => {
                    let tally = tally.into_inner().expect("batch tally lock");
                    match tally.error {
                        Some((_, e)) => Err(e),
                        None => {
                            self.plans
                                .remember(key, RunKey::of(&job.config), &tally.counts);
                            Ok(ShotBatch::complete(tally.counts, job.config.shots))
                        }
                    }
                }
            });
            results.push(result);
        }
        results
    }
}

/// How a batch job with a compiled plan gets its counts.
enum Source {
    /// Its trajectories run in this batch.
    Simulate,
    /// The earlier job at this index has the same plan and run key.
    SameAs(usize),
    /// Its plan's replay slot kept these counts for its run key.
    Replay(Counts),
}

/// One trajectory of one batch job: the job's index, the trajectory's
/// index within the job, and its shots.
struct Run {
    job: usize,
    traj: usize,
    shots: u64,
}

/// A batch job's counts merged over its finished trajectories, and the
/// error of its earliest failing trajectory (the one a serial run stops
/// at).
struct JobTally {
    counts: Counts,
    error: Option<(usize, ExecError)>,
}

impl JobTally {
    fn add(&mut self, traj: usize, result: Result<Counts, ExecError>) {
        match result {
            Ok(c) => self.counts.merge(&c),
            Err(e) => {
                if self.error.as_ref().is_none_or(|&(t, _)| traj < t) {
                    self.error = Some((traj, e));
                }
            }
        }
    }
}

/// Each trajectory's `(seed, shots)`: seeds derived from the master seed
/// by trajectory index, shots spread evenly (the last trajectories may
/// get fewer, or none).
fn trajectory_runs(config: &ExecutionConfig) -> Vec<(u64, u64)> {
    let trajectories = config.trajectories.max(1);
    let shots_per_traj = config.shots.div_ceil(trajectories as u64).max(1);
    let spawner = SeedSpawner::new(config.seed);
    let mut remaining = config.shots;
    (0..trajectories)
        .map(|i| {
            let shots = remaining.min(shots_per_traj);
            remaining -= shots;
            (spawner.derive(i as u64), shots)
        })
        .collect()
}

/// A thread request resolved to a count: `0` means every available core.
fn thread_budget(threads: usize) -> usize {
    if threads == 0 {
        available_cores()
    } else {
        threads
    }
}

/// The host's available parallelism, read once per process: the standard
/// library re-reads the cgroup files on every call, tens of µs each, and
/// every `threads: 0` execution asks.
fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcirc::Gate;
    use std::collections::BTreeMap;

    fn cfg(seed: u64) -> ExecutionConfig {
        ExecutionConfig {
            shots: 2000,
            trajectories: 40,
            seed,
            threads: 1,
        }
    }

    fn fidelity(ideal: &BTreeMap<u64, f64>, counts: &Counts) -> f64 {
        let mut tvd = 0.0;
        let mut seen = std::collections::BTreeSet::new();
        for (&k, &p) in ideal {
            tvd += (p - counts.probability(k)).abs();
            seen.insert(k);
        }
        for (k, _) in counts.iter() {
            if !seen.contains(&k) {
                tvd += counts.probability(k);
            }
        }
        1.0 - tvd / 2.0
    }

    #[test]
    fn noiseless_limit_reproduces_ideal_distribution() {
        // A machine with negligible noise: use tiny circuit and compare
        // against the ideal Bell distribution within sampling error.
        let m = Machine::new(Device::ibmq_guadalupe(1));
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let counts = m.execute(&c, &cfg(5)).unwrap();
        let ideal = statevec::ideal_distribution(&c).unwrap();
        let f = fidelity(&ideal, &counts);
        assert!(f > 0.9, "short Bell circuit should stay high fidelity: {f}");
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let m = Machine::new(Device::ibmq_rome(9));
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let a = m.execute(&c, &cfg(7)).unwrap();
        let b = m.execute(&c, &cfg(7)).unwrap();
        assert_eq!(a, b);
        let mut cfg4 = cfg(7);
        cfg4.threads = 4;
        let d = m.execute(&c, &cfg4).unwrap();
        assert_eq!(a, d);
    }

    #[test]
    fn different_seeds_differ() {
        let m = Machine::new(Device::ibmq_rome(9));
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let a = m.execute(&c, &cfg(1)).unwrap();
        let b = m.execute(&c, &cfg(2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn long_idle_degrades_fidelity() {
        // Ramsey-style: H — idle — H should decay with idle time.
        let m = Machine::new(Device::ibmq_london(3));
        let run = |idle_ns: f64| -> f64 {
            let mut c = Circuit::new(1);
            c.h(0);
            c.delay(idle_ns, 0);
            c.h(0);
            c.measure(0, 0);
            let counts = m.execute(&c, &cfg(11)).unwrap();
            counts.probability(0) // survival of |0⟩
        };
        let short = run(50.0);
        let long = run(20_000.0);
        assert!(
            short > long + 0.05,
            "idling must hurt: short {short}, long {long}"
        );
    }

    #[test]
    fn spin_echo_recovers_fidelity() {
        // The core DD physics end-to-end: H — idle — X — idle — X — idle…
        // echoes out the quasi-static detuning.
        let m = Machine::new(Device::ibmq_london(3));
        let idle = 20_000.0;
        let free = {
            let mut c = Circuit::new(1);
            c.h(0);
            c.delay(idle, 0);
            c.h(0).measure(0, 0);
            m.execute(&c, &cfg(13)).unwrap().probability(0)
        };
        let echoed = {
            let mut c = Circuit::new(1);
            c.h(0);
            // Dense XY4: 10 repetitions so the pulse spacing stays well
            // inside the OU correlation time.
            let seg = idle / 40.0;
            for _ in 0..10 {
                for g in [Gate::X, Gate::Y, Gate::X, Gate::Y] {
                    c.delay(seg, 0);
                    c.gate(g, &[0]);
                }
            }
            c.h(0).measure(0, 0);
            m.execute(&c, &cfg(13)).unwrap().probability(0)
        };
        assert!(
            echoed > free + 0.05,
            "DD must beat free evolution: free {free}, echoed {echoed}"
        );
    }

    #[test]
    fn dd_pulses_cost_fidelity_when_noise_is_absent_target() {
        // On a qubit idling in |0⟩ (insensitive to dephasing), DD only
        // adds pulse errors.
        let m = Machine::new(Device::ibmq_london(3));
        let idle = 20_000.0;
        let plain = {
            let mut c = Circuit::new(1);
            c.delay(idle, 0);
            c.measure(0, 0);
            m.execute(&c, &cfg(17)).unwrap().probability(0)
        };
        let with_pulses = {
            let mut c = Circuit::new(1);
            let reps = 40;
            let seg = idle / (4.0 * reps as f64);
            for _ in 0..reps {
                for g in [Gate::X, Gate::Y, Gate::X, Gate::Y] {
                    c.delay(seg, 0);
                    c.gate(g, &[0]);
                }
            }
            c.measure(0, 0);
            m.execute(&c, &cfg(17)).unwrap().probability(0)
        };
        assert!(
            plain > with_pulses,
            "pulse errors must show: plain {plain}, pulsed {with_pulses}"
        );
    }

    #[test]
    fn crosstalk_from_neighbor_cnots_hurts_idle_qubit() {
        // §3.2: an idle qubit loses fidelity when CNOTs run nearby. Find a
        // spectator strongly coupled to a link, idle it in |+⟩ while the
        // link fires repeatedly.
        let dev = Device::ibmq_guadalupe(21);
        let cal = dev.calibration().clone();
        let topo = dev.topology().clone();
        // Pick the (qubit, link) combination with maximal |chi|.
        let mut best = (0u32, device::LinkId(0), 0.0f64);
        for q in 0..16u32 {
            for (l, chi) in cal.crosstalk_on(q) {
                if chi.abs() > best.2.abs() {
                    best = (q, l, chi);
                }
            }
        }
        let (victim, link, chi) = best;
        assert!(chi.abs() > 0.1, "calibration should have a strong coupling");
        let (a, b) = topo.link_endpoints(link);
        let m = Machine::new(dev);
        let run = |with_cnots: bool| -> f64 {
            let mut c = Circuit::new(16);
            c.h(victim);
            // Pin the preparation before the burst (ALAP would otherwise
            // delay it past the CNOTs, hiding the crosstalk).
            c.barrier(&[victim, a, b]);
            for _ in 0..12 {
                if with_cnots {
                    c.cx(a, b);
                } else {
                    c.delay(400.0, a);
                }
            }
            // Wait out the same wall-clock on the victim, then unwind.
            c.barrier(&[victim, a, b]);
            c.h(victim);
            c.measure(victim, 0);
            let counts = m.execute(&c, &cfg(23)).unwrap();
            counts.probability(0)
        };
        let quiet = run(false);
        let noisy = run(true);
        assert!(
            quiet > noisy + 0.03,
            "concurrent CNOTs must hurt the spectator: quiet {quiet}, noisy {noisy}"
        );
    }

    #[test]
    fn readout_error_shows_on_trivial_circuit() {
        let m = Machine::new(Device::ibmq_toronto(2));
        let mut c = Circuit::new(1);
        c.measure(0, 0);
        let counts = m.execute(&c, &cfg(3)).unwrap();
        let p1 = counts.probability(1);
        let expected = m.device().qubit(0).err_readout;
        assert!(p1 > 0.0, "readout flips must occur");
        assert!(
            (p1 - expected).abs() < 0.05,
            "p1 {p1} vs calibrated {expected}"
        );
    }

    #[test]
    fn too_many_active_qubits_rejected() {
        let dev = Device::all_to_all(27, 1);
        let m = Machine::new(dev);
        let mut c = Circuit::new(27);
        for q in 0..27 {
            c.h(q as u32);
        }
        c.measure_all();
        let err = m.execute(&c, &cfg(1)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::TooManyActiveQubits { active: 27, .. }
        ));
    }

    #[test]
    fn inactive_qubits_do_not_count_against_limit() {
        // 27-qubit register but only 2 active qubits.
        let m = Machine::new(Device::ibmq_toronto(4));
        let mut c = Circuit::new(27);
        c.h(12).cx(12, 13).measure(12, 0).measure(13, 1);
        let counts = m.execute(&c, &cfg(9)).unwrap();
        assert_eq!(counts.total(), 2000);
    }

    #[test]
    fn noise_free_executor_matches_ideal_on_transpiled_circuit() {
        // Regression: ALAP schedules once reversed zero-duration RZ chains,
        // which silently corrupted every transpiled execution.
        use transpiler::{transpile, TranspileOptions};
        let dev = Device::ibmq_toronto(2021);
        let mut c = Circuit::new(5);
        c.x(4).h(4);
        for q in 0..4 {
            c.h(q);
        }
        c.cx(0, 4).cx(2, 4).cx(3, 4);
        for q in 0..4 {
            c.h(q);
            c.measure(q, q);
        }
        let t = transpile(&c, &dev, &TranspileOptions::default());
        let m = Machine::with_toggles(dev, NoiseToggles::none());
        let counts = m
            .execute_timed(
                &t.timed,
                &ExecutionConfig {
                    shots: 64,
                    trajectories: 2,
                    seed: 1,
                    threads: 1,
                },
            )
            .unwrap();
        assert_eq!(counts.get(0b1101), 64, "{counts}");
    }

    #[test]
    fn explicit_thread_counts_are_capped_and_deterministic() {
        // An absurd explicit thread count must behave exactly like the
        // trajectory-capped one (and not spawn hundreds of idle workers).
        let m = Machine::new(Device::ibmq_rome(9));
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let mut base = cfg(7);
        base.trajectories = 2;
        let a = m.execute(&c, &base).unwrap();
        let mut huge = base;
        huge.threads = 512;
        let b = m.execute(&c, &huge).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_zero_thread_request_resolves_to_the_available_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(thread_budget(0), cores);
        assert_eq!(thread_budget(0), cores, "the second read is the cached one");
        assert_eq!(thread_budget(3), 3);
    }

    #[test]
    fn repeated_executions_hit_the_plan_cache() {
        let m = Machine::new(Device::ibmq_rome(9));
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        m.execute(&c, &cfg(1)).unwrap();
        m.execute(&c, &cfg(2)).unwrap();
        m.execute(&c, &cfg(3)).unwrap();
        let stats = m.plan_cache_stats();
        assert_eq!(stats.misses, 1, "one structure, one compile");
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn clones_share_the_plan_cache() {
        let m = Machine::new(Device::ibmq_rome(9));
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        m.execute(&c, &cfg(1)).unwrap();
        let clone = m.clone();
        clone.execute(&c, &cfg(2)).unwrap();
        assert_eq!(m.plan_cache_stats().hits, 1);
    }

    #[test]
    fn cached_plan_does_not_change_results() {
        let m = Machine::new(Device::ibmq_rome(9));
        let fresh = Machine::new(Device::ibmq_rome(9));
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let warm = m.execute(&c, &cfg(7)).unwrap(); // miss
        let hit = m.execute(&c, &cfg(7)).unwrap(); // hit
        let cold = fresh.execute(&c, &cfg(7)).unwrap();
        assert_eq!(warm, hit);
        assert_eq!(warm, cold);
    }

    #[test]
    fn shots_land_exactly() {
        let m = Machine::new(Device::ibmq_rome(2));
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0);
        for shots in [1u64, 7, 100, 1001] {
            let counts = m
                .execute(
                    &c,
                    &ExecutionConfig {
                        shots,
                        trajectories: 8,
                        seed: 3,
                        threads: 1,
                    },
                )
                .unwrap();
            assert_eq!(counts.total(), shots);
        }
    }
}
