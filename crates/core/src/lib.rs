//! # adapt — Adaptive Dynamical Decoupling
//!
//! Rust reproduction of **ADAPT** (Das, Tannu, Dangwal, Qureshi —
//! MICRO 2021): a post-compile framework that mitigates idling errors by
//! applying dynamical-decoupling sequences to exactly the subset of qubits
//! that benefit from them.
//!
//! The pipeline, mirroring Fig. 7/11 of the paper:
//!
//! 1. transpile the program (external: the `transpiler` crate);
//! 2. build the [`gst::GateSequenceTable`] to locate idle windows;
//! 3. construct a [`decoy`] circuit with a known ideal output;
//! 4. run the localized [`search`] over DD masks on the decoy;
//! 5. [`dd::insert_dd`] the winning mask into the real program and run it.
//!
//! The four competing policies of §5.6 are available through
//! [`Policy`] / [`Adapt::run_policy`].
//!
//! # Examples
//!
//! ```no_run
//! use adapt::{Adapt, AdaptConfig, Policy};
//! use device::Device;
//! use machine::Machine;
//! use qcirc::Circuit;
//!
//! let machine = Machine::new(Device::ibmq_guadalupe(42));
//! let adapt = Adapt::new(machine);
//! let mut program = Circuit::new(4);
//! program.h(0).cx(0, 1).t(1).cx(1, 2).cx(2, 3).measure_all();
//! let cfg = AdaptConfig::default();
//! let run = adapt.run_policy(&program, Policy::Adapt, &cfg)?;
//! println!("mask {} fidelity {:.3}", run.mask, run.fidelity);
//! # Ok::<(), adapt::AdaptError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dd;
pub mod decoy;
pub mod gst;
pub mod heuristic;
pub mod metrics;
pub mod search;

pub use dd::{DdConfig, DdConfigError, DdMask, DdProtocol, IdleAnalysis};
pub use decoy::{Decoy, DecoyKind};
pub use gst::GateSequenceTable;
pub use heuristic::{heuristic_mask, HeuristicMask, QubitAssessment};
pub use search::{DegradedGroup, MaskScore, SearchError, SearchResult, EXHAUSTIVE_MAX_QUBITS};

use device::Device;
use machine::{Backend, Deadline, ExecError, ExecutionConfig, Machine};
use qcirc::{Circuit, Counts};
use statevec::SimError;
use std::collections::BTreeMap;
use std::sync::Arc;
use transpiler::{transpile, TranspileOptions, TranspiledCircuit};

/// Largest program (in qubits) [`Policy::RuntimeBest`] will sweep. The
/// oracle runs all `2^N` masks on the *real* program, so it is held to a
/// tighter bound than the decoy-only [`EXHAUSTIVE_MAX_QUBITS`].
pub const RUNTIME_BEST_MAX_QUBITS: usize = 16;

/// The competing DD policies of §5.6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Baseline: no DD anywhere.
    NoDd,
    /// DD on every program qubit in every idle window.
    AllDd,
    /// ADAPT: decoy-driven localized search for the best subset.
    Adapt,
    /// Oracle: exhaustive sweep of all `2^N` masks on the *real* program,
    /// keeping the best. Requires the true answer, so it is an upper
    /// bound, not a deployable policy.
    RuntimeBest,
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Policy::NoDd => write!(f, "No-DD"),
            Policy::AllDd => write!(f, "All-DD"),
            Policy::Adapt => write!(f, "ADAPT"),
            Policy::RuntimeBest => write!(f, "Runtime-Best"),
        }
    }
}

/// Errors from the framework.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptError {
    /// Machine execution failed.
    Exec(ExecError),
    /// Decoy construction failed.
    Decoy(decoy::DecoyError),
    /// Ideal-output simulation failed.
    Sim(SimError),
    /// A mask sweep was rejected (oversized request).
    Search(SearchError),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::Exec(e) => write!(f, "execution failed: {e}"),
            AdaptError::Decoy(e) => write!(f, "decoy construction failed: {e}"),
            AdaptError::Sim(e) => write!(f, "ideal simulation failed: {e}"),
            AdaptError::Search(e) => write!(f, "mask search failed: {e}"),
        }
    }
}

impl std::error::Error for AdaptError {}

impl From<ExecError> for AdaptError {
    fn from(e: ExecError) -> Self {
        AdaptError::Exec(e)
    }
}

impl From<decoy::DecoyError> for AdaptError {
    fn from(e: decoy::DecoyError) -> Self {
        AdaptError::Decoy(e)
    }
}

impl From<SimError> for AdaptError {
    fn from(e: SimError) -> Self {
        AdaptError::Sim(e)
    }
}

impl From<SearchError> for AdaptError {
    fn from(e: SearchError) -> Self {
        // Plain execution failures keep their established variant so
        // existing `AdaptError::Exec` matchers (retry loops, availability
        // checks) continue to work unchanged.
        match e {
            SearchError::Exec(e) => AdaptError::Exec(e),
            other => AdaptError::Search(other),
        }
    }
}

/// Framework configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// DD protocol and insertion parameters.
    pub dd: DdConfig,
    /// Decoy construction strategy (SDC with 4 seeds by default).
    pub decoy_kind: DecoyKind,
    /// Localized-search neighborhood size (4 in the paper).
    pub neighborhood: usize,
    /// Commit the OR of the top-2 neighborhood masks (§4.3).
    pub top2_merge: bool,
    /// Execution budget per decoy evaluation.
    pub search_exec: ExecutionConfig,
    /// Execution budget for the final program run.
    pub final_exec: ExecutionConfig,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            dd: DdConfig::default(),
            decoy_kind: DecoyKind::default(),
            neighborhood: 4,
            top2_merge: true,
            search_exec: ExecutionConfig {
                shots: 2048,
                trajectories: 48,
                seed: 0xDEC0,
                threads: 0,
            },
            final_exec: ExecutionConfig {
                shots: 8192,
                trajectories: 96,
                seed: 0xF1DE,
                threads: 0,
            },
        }
    }
}

impl AdaptConfig {
    /// Default configuration with a specific DD protocol.
    pub fn with_protocol(protocol: DdProtocol) -> Self {
        AdaptConfig {
            dd: DdConfig::for_protocol(protocol),
            ..Default::default()
        }
    }
}

/// Result of running a program under one policy.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// Which policy produced this run.
    pub policy: Policy,
    /// The DD mask that was applied.
    pub mask: DdMask,
    /// Measured output histogram.
    pub counts: Counts,
    /// Program fidelity (1 − TVD against the ideal output).
    pub fidelity: f64,
    /// DD pulses inserted into the final program.
    pub pulse_count: usize,
    /// Decoy/oracle executions attempted while finding the mask —
    /// scored runs plus runs lost to backend availability (see
    /// [`SearchResult::decoy_runs`]).
    pub search_runs: usize,
    /// Neighborhoods that fell back to all-DD during the search because
    /// the backend was unavailable (always empty for non-ADAPT policies
    /// and healthy backends).
    pub degraded: Vec<DegradedGroup>,
}

/// The ADAPT framework bound to an execution backend.
///
/// The backend may be a pristine [`Machine`], a fault-injecting
/// [`machine::FaultyBackend`], or a [`machine::ResilientExecutor`]
/// retrying around one — the pipeline is identical. The device view used
/// for compilation and DD timing is snapshotted at construction, exactly
/// as a compiler on real hardware works from the calibration data of its
/// era even if the device drifts mid-run.
#[derive(Clone)]
pub struct Adapt {
    backend: Arc<dyn Backend>,
    device: Device,
}

impl std::fmt::Debug for Adapt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Adapt")
            .field("device", &self.device)
            .finish_non_exhaustive()
    }
}

impl Adapt {
    /// Creates the framework over a pristine machine.
    pub fn new(machine: Machine) -> Self {
        Adapt::with_backend(Arc::new(machine))
    }

    /// Creates the framework over any backend (faulty, resilient, ...).
    pub fn with_backend(backend: Arc<dyn Backend>) -> Self {
        let device = backend.device_snapshot();
        Adapt { backend, device }
    }

    /// The backend programs execute on.
    pub fn backend(&self) -> &dyn Backend {
        self.backend.as_ref()
    }

    /// The compile-time device snapshot.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Exact noise-free output distribution of a logical program.
    ///
    /// # Errors
    ///
    /// Fails when the program's active set exceeds the dense simulator.
    pub fn ideal_output(&self, program: &Circuit) -> Result<BTreeMap<u64, f64>, AdaptError> {
        let (compact, _) = program.compacted();
        Ok(statevec::ideal_distribution(&compact)?)
    }

    /// Transpiles a program for this backend's device snapshot with the
    /// paper's compile configuration, [`TranspileOptions::default`]:
    /// noise-adaptive placement, ALAP scheduling (§2.4) and the peephole
    /// optimizer. The mask service keys its cache on the same options.
    /// No field of the config changes how a program compiles.
    pub fn compile(&self, program: &Circuit, _cfg: &AdaptConfig) -> TranspiledCircuit {
        transpile(program, &self.device, &TranspileOptions::default())
    }

    /// Runs the decoy-driven localized search and returns the chosen mask
    /// (steps ①–③ of Fig. 7).
    ///
    /// # Errors
    ///
    /// Propagates decoy-construction and execution failures.
    pub fn choose_mask(
        &self,
        compiled: &TranspiledCircuit,
        num_program_qubits: usize,
        cfg: &AdaptConfig,
    ) -> Result<SearchResult, AdaptError> {
        let decoy = decoy::make_decoy(&compiled.timed, cfg.decoy_kind)?;
        self.choose_mask_with_decoy(compiled, &decoy, num_program_qubits, cfg)
    }

    /// [`Self::choose_mask`] with a caller-supplied decoy.
    ///
    /// Decoy construction is deterministic per compiled program, so a
    /// caching layer that already holds the decoy (a warm service path
    /// re-searching after an epoch invalidation, say) can skip rebuilding
    /// it and still get bit-identical results.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn choose_mask_with_decoy(
        &self,
        compiled: &TranspiledCircuit,
        decoy: &decoy::Decoy,
        num_program_qubits: usize,
        cfg: &AdaptConfig,
    ) -> Result<SearchResult, AdaptError> {
        self.choose_mask_with_decoy_deadline(
            compiled,
            decoy,
            num_program_qubits,
            cfg,
            Deadline::none(),
        )
    }

    /// [`Self::choose_mask_with_decoy`] under a request [`Deadline`].
    ///
    /// The deadline is checked between neighborhoods, between decoy
    /// batches and before the referee step. When it expires (or the
    /// request is cancelled) the search stops early and returns its
    /// conservative partial result — completed neighborhoods keep their
    /// OR-merged bits, unvisited qubits fall back to all-DD — with
    /// [`SearchResult::partial`] set. A partial result never has the
    /// referee's mask substitution applied: the conservative committed
    /// mask stands.
    ///
    /// # Errors
    ///
    /// Propagates execution failures; an interruption before *any*
    /// evaluation completes surfaces as the typed
    /// [`ExecError::DeadlineExceeded`]/[`ExecError::Cancelled`].
    pub fn choose_mask_with_decoy_deadline(
        &self,
        compiled: &TranspiledCircuit,
        decoy: &decoy::Decoy,
        num_program_qubits: usize,
        cfg: &AdaptConfig,
        deadline: Deadline,
    ) -> Result<SearchResult, AdaptError> {
        let ctx = search::SearchContext::new(
            self.backend.as_ref(),
            self.device.clone(),
            decoy,
            &compiled.initial_layout,
            cfg.dd,
            cfg.search_exec,
            num_program_qubits,
        )
        .with_deadline(deadline);
        // Order program qubits most-idle-first (on their physical wires).
        let gst = GateSequenceTable::build(&compiled.timed);
        let mut order: Vec<u32> = (0..num_program_qubits as u32).collect();
        order.sort_by(|&a, &b| {
            let ia = gst.total_idle_ns(compiled.initial_layout.phys_of(a));
            let ib = gst.total_idle_ns(compiled.initial_layout.phys_of(b));
            ib.partial_cmp(&ia).expect("idle times are finite")
        });
        let mut result = search::localized_search(&ctx, &order, cfg.neighborhood, cfg.top2_merge)?;
        // Referee step: localized commitment can lock in a bad early
        // decision (it evaluates each neighborhood with later qubits
        // unprotected). Score the committed mask against the two global
        // extremes on the decoy — one batch of three runs on top of the
        // ≤ 4·N search budget — and keep the best. An extreme whose run
        // is unavailable simply drops out of the contest; if even the
        // committed mask cannot be re-scored, it stands as selected.
        // Skipped on an interrupted search, and abandoned if the deadline
        // expires before or during it: the referee is an optimization,
        // and the conservative committed mask must stand.
        if result.partial {
            return Ok(result);
        }
        let referee = ctx.sweep(&[
            result.best,
            DdMask::all(num_program_qubits),
            DdMask::none(num_program_qubits),
        ])?;
        result.evaluations.extend_from_slice(&referee.scored);
        result.unavailable_runs += referee.unavailable.len();
        if referee.interruption.is_some() {
            result.partial = true;
        } else if let Ok(best) = referee.best() {
            result.best = best.mask;
        }
        Ok(result)
    }

    /// Inserts `mask`'s DD into a compiled program and executes it,
    /// scoring fidelity against `ideal`.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    pub fn run_with_mask(
        &self,
        compiled: &TranspiledCircuit,
        ideal: &BTreeMap<u64, f64>,
        mask: DdMask,
        cfg: &AdaptConfig,
    ) -> Result<(Counts, f64, usize), AdaptError> {
        let wires = dd::mask_to_wires(mask, &compiled.initial_layout);
        let inserted = dd::insert_dd(&compiled.timed, &self.device, &wires, &cfg.dd);
        let batch = self
            .backend
            .execute_timed(&inserted.timed, &cfg.final_exec)?;
        let fidelity = metrics::fidelity(ideal, &batch.counts);
        Ok((batch.counts, fidelity, inserted.pulse_count))
    }

    /// The Runtime-Best oracle (§5.6) over `masks`: scores each mask on
    /// the program itself at the search budget, against its exact output
    /// `ideal`, and re-runs the best at the final budget. The first best
    /// score wins ties, and a mask lost to backend availability drops out
    /// of the sweep. [`PolicyRun::search_runs`] counts every mask
    /// attempted.
    ///
    /// # Errors
    ///
    /// Propagates execution failures, including an interruption at any
    /// point of the sweep: the oracle never stands behind a partial
    /// sweep. Fails when no mask scored.
    pub fn runtime_best(
        &self,
        compiled: &TranspiledCircuit,
        ideal: &BTreeMap<u64, f64>,
        masks: &[DdMask],
        cfg: &AdaptConfig,
    ) -> Result<PolicyRun, AdaptError> {
        let ctx = search::SearchContext::for_program(
            self.backend.as_ref(),
            self.device.clone(),
            compiled,
            ideal,
            cfg.dd,
            cfg.search_exec,
        );
        let sweep = ctx.sweep(masks)?;
        if let Some(e) = sweep.interruption {
            return Err(e.into());
        }
        let best = sweep.best()?;
        Ok(PolicyRun {
            search_runs: sweep.scored.len() + sweep.unavailable.len(),
            ..self.final_run(Policy::RuntimeBest, compiled, ideal, best.mask, cfg)?
        })
    }

    /// The run every policy ends with: `mask`'s DD in the program at the
    /// final budget, with no search runs or degraded groups recorded.
    fn final_run(
        &self,
        policy: Policy,
        compiled: &TranspiledCircuit,
        ideal: &BTreeMap<u64, f64>,
        mask: DdMask,
        cfg: &AdaptConfig,
    ) -> Result<PolicyRun, AdaptError> {
        let (counts, fidelity, pulse_count) = self.run_with_mask(compiled, ideal, mask, cfg)?;
        Ok(PolicyRun {
            policy,
            mask,
            counts,
            fidelity,
            pulse_count,
            search_runs: 0,
            degraded: Vec::new(),
        })
    }

    /// Compiles and executes a program under one policy (§5.6), returning
    /// the applied mask, output counts and fidelity.
    ///
    /// # Errors
    ///
    /// Propagates compilation/decoy/execution failures. Returns
    /// [`SearchError::TooLarge`] (wrapped in [`AdaptError::Search`]) when
    /// `Policy::RuntimeBest` is requested for programs larger than
    /// [`RUNTIME_BEST_MAX_QUBITS`] qubits (the oracle sweep is
    /// exponential).
    pub fn run_policy(
        &self,
        program: &Circuit,
        policy: Policy,
        cfg: &AdaptConfig,
    ) -> Result<PolicyRun, AdaptError> {
        let n = program.num_qubits();
        // Reject an oversized oracle sweep before compiling or simulating
        // anything.
        if policy == Policy::RuntimeBest && n > RUNTIME_BEST_MAX_QUBITS {
            return Err(SearchError::TooLarge {
                qubits: n,
                limit: RUNTIME_BEST_MAX_QUBITS,
            }
            .into());
        }
        let compiled = self.compile(program, cfg);
        let ideal = self.ideal_output(program)?;
        let (mask, search_runs, degraded) = match policy {
            Policy::NoDd => (DdMask::none(n), 0, Vec::new()),
            Policy::AllDd => (DdMask::all(n), 0, Vec::new()),
            Policy::Adapt => {
                let result = self.choose_mask(&compiled, n, cfg)?;
                let runs = result.decoy_runs();
                (result.best, runs, result.degraded)
            }
            Policy::RuntimeBest => {
                return self.runtime_best(&compiled, &ideal, &DdMask::enumerate_all(n), cfg);
            }
        };
        Ok(PolicyRun {
            search_runs,
            degraded,
            ..self.final_run(policy, &compiled, &ideal, mask, cfg)?
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::Device;

    fn small_cfg() -> AdaptConfig {
        AdaptConfig {
            search_exec: ExecutionConfig {
                shots: 400,
                trajectories: 16,
                seed: 3,
                threads: 1,
            },
            final_exec: ExecutionConfig {
                shots: 800,
                trajectories: 24,
                seed: 4,
                threads: 1,
            },
            ..Default::default()
        }
    }

    fn program() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0)
            .t(0)
            .cx(0, 1)
            .t(1)
            .cx(1, 2)
            .t(2)
            .cx(0, 1)
            .measure_all();
        c
    }

    #[test]
    fn policies_produce_expected_masks() {
        let adapt = Adapt::new(Machine::new(Device::ibmq_guadalupe(17)));
        let cfg = small_cfg();
        let c = program();
        let no_dd = adapt.run_policy(&c, Policy::NoDd, &cfg).unwrap();
        assert_eq!(no_dd.mask, DdMask::none(3));
        assert_eq!(no_dd.pulse_count, 0);
        assert_eq!(no_dd.search_runs, 0);
        let all_dd = adapt.run_policy(&c, Policy::AllDd, &cfg).unwrap();
        assert_eq!(all_dd.mask, DdMask::all(3));
        let ad = adapt.run_policy(&c, Policy::Adapt, &cfg).unwrap();
        assert!(ad.search_runs > 0 && ad.search_runs <= 4 * 3);
    }

    #[test]
    fn fidelities_are_probabilities() {
        let adapt = Adapt::new(Machine::new(Device::ibmq_guadalupe(17)));
        let cfg = small_cfg();
        let c = program();
        for policy in [Policy::NoDd, Policy::AllDd, Policy::Adapt] {
            let run = adapt.run_policy(&c, policy, &cfg).unwrap();
            assert!(
                (0.0..=1.0).contains(&run.fidelity),
                "{policy}: fidelity {}",
                run.fidelity
            );
            assert_eq!(run.counts.total(), cfg.final_exec.shots);
        }
    }

    #[test]
    fn runtime_best_sweeps_the_mask_space() {
        let adapt = Adapt::new(Machine::new(Device::ibmq_london(29)));
        let mut cfg = small_cfg();
        cfg.search_exec.shots = 300;
        cfg.search_exec.trajectories = 12;
        let mut c = Circuit::new(2);
        c.h(0).t(0).cx(0, 1).cx(0, 1).cx(0, 1).measure_all();
        let rb = adapt.run_policy(&c, Policy::RuntimeBest, &cfg).unwrap();
        assert_eq!(rb.search_runs, 4); // 2^2 masks swept
    }

    /// Charges 10 ms of virtual time per run against `deadline` and
    /// refuses to run once it has expired.
    struct DeadlineCharging {
        inner: Machine,
        deadline: Deadline,
    }

    impl Backend for DeadlineCharging {
        fn execute_timed(
            &self,
            timed: &transpiler::TimedCircuit,
            config: &ExecutionConfig,
        ) -> Result<machine::ShotBatch, ExecError> {
            self.deadline.check()?;
            self.deadline.charge_ms(10.0);
            Backend::execute_timed(&self.inner, timed, config)
        }

        fn device_snapshot(&self) -> Device {
            self.inner.device().clone()
        }
    }

    #[test]
    fn interrupted_runtime_best_sweep_is_an_error() {
        // Expired before the first mask, and after three of the eight.
        for budget_ms in [0, 25] {
            let adapt = Adapt::with_backend(Arc::new(DeadlineCharging {
                inner: Machine::new(Device::ibmq_guadalupe(17)),
                deadline: Deadline::virtual_only(budget_ms),
            }));
            let err = adapt
                .run_policy(&program(), Policy::RuntimeBest, &small_cfg())
                .unwrap_err();
            assert!(
                matches!(err, AdaptError::Exec(ExecError::DeadlineExceeded { .. })),
                "{err}"
            );
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        // Two machines: on one, the second search would replay the
        // first's batch runs.
        let adapt = Adapt::new(Machine::new(Device::ibmq_guadalupe(17)));
        let again = Adapt::new(Machine::new(Device::ibmq_guadalupe(17)));
        let cfg = small_cfg();
        let c = program();
        let a = adapt.run_policy(&c, Policy::Adapt, &cfg).unwrap();
        let b = again.run_policy(&c, Policy::Adapt, &cfg).unwrap();
        assert_eq!(a.mask, b.mask);
        assert_eq!(a.fidelity, b.fidelity);
    }

    #[test]
    fn ideal_output_matches_statevec_on_logical_circuit() {
        let adapt = Adapt::new(Machine::new(Device::ibmq_guadalupe(17)));
        let c = program();
        let ideal = adapt.ideal_output(&c).unwrap();
        let direct = statevec::ideal_distribution(&c).unwrap();
        assert_eq!(ideal.len(), direct.len());
        for (k, v) in &direct {
            assert!((v - ideal[k]).abs() < 1e-12);
        }
    }
}
