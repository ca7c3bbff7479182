//! Shared experiment infrastructure: budgets, policy sweeps, the
//! Runtime-Best oracle with a bounded mask budget, and per-mask fidelity
//! sweeps.

use adapt::search::SearchContext;
use adapt::{Adapt, AdaptConfig, DdMask, DdProtocol, Policy};
use benchmarks::BenchmarkSpec;
use device::hash::Fnv1aLegacy;
use device::{Device, SeedSpawner};
use machine::{
    ExecutionConfig, FaultProfile, FaultStats, FaultyBackend, Machine, ResilientExecutor,
    RetryPolicy,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use transpiler::TranspiledCircuit;

/// Experiment-wide budget knobs. `quick` mode cuts shots/trajectories and
/// oracle sweeps so the full suite finishes on a laptop-class core; the
/// full mode matches the budgets recorded in EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentCfg {
    /// Master seed for the whole experiment.
    pub seed: u64,
    /// Reduced-budget mode.
    pub quick: bool,
    /// Resume from checkpoint files left by a killed run.
    pub resume: bool,
    /// Fault-injection profile backends run under.
    pub fault_profile: FaultProfile,
    /// Name of the fault profile (for manifests and summaries).
    pub fault_name: &'static str,
}

impl ExperimentCfg {
    /// CLI usage, printed on argument errors.
    pub const USAGE: &'static str =
        "usage: <experiment> [--quick] [--seed N] [--resume] [--faults none|flaky|lossy|brutal]\n\
        \n\
        --quick          reduced shot/trajectory budgets (laptop-scale pass)\n\
        --seed N         master seed for the whole experiment (default 2021)\n\
        --resume         skip datapoints recorded in results/*.partial.csv checkpoints\n\
        --faults NAME    run backends under a seeded fault-injection profile";

    /// Defaults for a given seed: full budgets, no resume, no faults.
    pub fn new(seed: u64, quick: bool) -> Self {
        ExperimentCfg {
            seed,
            quick,
            resume: false,
            fault_profile: FaultProfile::none(),
            fault_name: "none",
        }
    }

    /// Parses command-line style arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or bad values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut cfg = ExperimentCfg::new(2021, false);
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => cfg.quick = true,
                "--resume" => cfg.resume = true,
                "--seed" => {
                    let v = args.next().ok_or("--seed needs an integer argument")?;
                    cfg.seed = v
                        .parse()
                        .map_err(|_| format!("--seed needs an integer, got {v:?}"))?;
                }
                "--faults" => {
                    let v = args.next().ok_or("--faults needs a profile name")?;
                    let profile = FaultProfile::by_name(&v).ok_or_else(|| {
                        format!(
                            "unknown fault profile {v:?} (expected one of: {})",
                            FaultProfile::known_names().join(", ")
                        )
                    })?;
                    cfg.fault_profile = profile;
                    cfg.fault_name = FaultProfile::known_names()
                        .iter()
                        .find(|n| **n == v)
                        .expect("profile name just resolved");
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cfg)
    }

    /// Reads the flags from the process command line; prints usage and
    /// exits with status 2 on errors instead of panicking.
    pub fn from_args() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(cfg) => cfg,
            Err(msg) => {
                eprintln!("error: {msg}\n{}", Self::USAGE);
                std::process::exit(2);
            }
        }
    }

    /// Whether fault injection is active.
    pub fn faults_enabled(&self) -> bool {
        self.fault_name != "none"
    }

    /// Where CSVs land.
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from("results")
    }

    /// Execution budget for characterization probes (small circuits).
    pub fn probe_exec(&self, seed: u64) -> ExecutionConfig {
        if self.quick {
            ExecutionConfig {
                shots: 600,
                trajectories: 30,
                seed,
                threads: 0,
            }
        } else {
            ExecutionConfig {
                shots: 2000,
                trajectories: 100,
                seed,
                threads: 0,
            }
        }
    }

    /// Framework configuration for application-level experiments.
    pub fn adapt_cfg(&self, protocol: DdProtocol, seed: u64) -> AdaptConfig {
        let spawner = SeedSpawner::new(seed);
        let (s_shots, s_traj, f_shots, f_traj) = if self.quick {
            (768, 24, 1536, 48)
        } else {
            (2048, 48, 6144, 96)
        };
        AdaptConfig {
            dd: adapt::DdConfig::for_protocol(protocol),
            search_exec: ExecutionConfig {
                shots: s_shots,
                trajectories: s_traj,
                seed: spawner.derive(1),
                threads: 0,
            },
            final_exec: ExecutionConfig {
                shots: f_shots,
                trajectories: f_traj,
                seed: spawner.derive(2),
                threads: 0,
            },
            ..Default::default()
        }
    }

    /// Cap on Runtime-Best oracle candidates: exhaustive up to this many
    /// masks, random-sampled beyond (the paper sweeps exhaustively on
    /// hardware; we bound the sweep and note it in EXPERIMENTS.md).
    pub fn oracle_budget(&self) -> usize {
        if self.quick {
            32
        } else {
            96
        }
    }
}

/// Running totals of backend faults and retries across a whole suite
/// invocation, printed by `all_experiments` at the end of a faulty run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SuiteFaultSummary {
    /// Policy sweeps that executed under fault injection.
    pub sweeps: u64,
    /// Search neighborhoods that degraded to the all-DD fallback.
    pub degraded_groups: u64,
    /// Accumulated retry-layer statistics.
    pub stats: FaultStats,
}

impl std::fmt::Display for SuiteFaultSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} faulty policy sweeps, {} neighborhoods degraded to all-DD",
            self.sweeps, self.degraded_groups
        )?;
        write!(f, "retry layer: {}", self.stats)
    }
}

static SUITE_FAULTS: Mutex<Option<SuiteFaultSummary>> = Mutex::new(None);

/// Folds one sweep's retry statistics and degradation count into the
/// process-wide summary.
pub fn note_fault_stats(stats: FaultStats, degraded_groups: u64) {
    let mut guard = SUITE_FAULTS.lock().expect("fault summary lock");
    let s = guard.get_or_insert_with(SuiteFaultSummary::default);
    s.sweeps += 1;
    s.degraded_groups += degraded_groups;
    s.stats.requests += stats.requests;
    s.stats.attempts += stats.attempts;
    s.stats.transient_errors += stats.transient_errors;
    s.stats.dropout_discards += stats.dropout_discards;
    s.stats.partial_batches += stats.partial_batches;
    s.stats.partial_accepted += stats.partial_accepted;
    s.stats.exhausted += stats.exhausted;
    s.stats.stale_batches += stats.stale_batches;
    s.stats.total_backoff_ms += stats.total_backoff_ms;
}

/// The process-wide fault summary, if any sweep ran with faults enabled.
pub fn suite_fault_summary() -> Option<SuiteFaultSummary> {
    *SUITE_FAULTS.lock().expect("fault summary lock")
}

/// Builds the execution stack for one sweep: a pristine machine when
/// faults are off, otherwise a seeded [`FaultyBackend`] behind a
/// [`ResilientExecutor`] (returned too, for stats collection).
pub fn make_adapt(
    device: &Device,
    cfg: &ExperimentCfg,
    seed: u64,
) -> (Adapt, Option<Arc<ResilientExecutor>>) {
    let machine = Machine::new(device.clone());
    if !cfg.faults_enabled() {
        return (Adapt::new(machine), None);
    }
    let faulty = FaultyBackend::new(machine, cfg.fault_profile, seed);
    // Experiments are long: give the retry loop a little extra headroom
    // over the library default so a whole-suite run rarely exhausts.
    let policy = RetryPolicy { max_attempts: 6 };
    let exec = Arc::new(ResilientExecutor::with_policy(Arc::new(faulty), policy));
    (Adapt::with_backend(exec.clone()), Some(exec))
}

/// Relative fidelities of the four policies for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Absolute baseline fidelity (No-DD).
    pub baseline: f64,
    /// All-DD fidelity relative to baseline.
    pub all_dd_rel: f64,
    /// ADAPT fidelity relative to baseline.
    pub adapt_rel: f64,
    /// Runtime-Best fidelity relative to baseline (`None` when skipped).
    pub runtime_best_rel: Option<f64>,
    /// Mask ADAPT chose.
    pub adapt_mask: String,
    /// Decoy executions ADAPT spent.
    pub adapt_search_runs: usize,
    /// Search neighborhoods that degraded to all-DD (0 on healthy
    /// backends).
    pub degraded_groups: usize,
}

/// Runs No-DD / All-DD / ADAPT (and optionally a bounded Runtime-Best
/// oracle) for one benchmark on one device.
///
/// # Panics
///
/// Panics on framework errors — experiments are expected to run on valid
/// configurations.
pub fn policy_sweep(
    device: &Device,
    bench: &BenchmarkSpec,
    protocol: DdProtocol,
    cfg: &ExperimentCfg,
    with_oracle: bool,
) -> BenchResult {
    let spawner = SeedSpawner::new(cfg.seed ^ Fnv1aLegacy::hash(bench.name.as_bytes()));
    let (adapt, resilient) = make_adapt(device, cfg, spawner.derive(11));
    let acfg = cfg.adapt_cfg(protocol, spawner.derive(7));

    let no_dd = adapt
        .run_policy(&bench.circuit, Policy::NoDd, &acfg)
        .expect("No-DD run");
    let all_dd = adapt
        .run_policy(&bench.circuit, Policy::AllDd, &acfg)
        .expect("All-DD run");
    let ad = adapt
        .run_policy(&bench.circuit, Policy::Adapt, &acfg)
        .expect("ADAPT run");
    for g in &ad.degraded {
        println!("    [degraded] {}: {g}", bench.name);
    }

    let baseline = no_dd.fidelity.max(1e-4);
    let runtime_best_rel = with_oracle.then(|| {
        oracle_best(&adapt, bench, &acfg, cfg.oracle_budget(), spawner.derive(9)) / baseline
    });

    if let Some(exec) = resilient {
        note_fault_stats(exec.stats(), ad.degraded.len() as u64);
    }

    BenchResult {
        name: bench.name.to_string(),
        baseline: no_dd.fidelity,
        all_dd_rel: all_dd.fidelity / baseline,
        adapt_rel: ad.fidelity / baseline,
        runtime_best_rel,
        adapt_mask: ad.mask.to_string(),
        adapt_search_runs: ad.search_runs,
        degraded_groups: ad.degraded.len(),
    }
}

/// Bounded Runtime-Best oracle: sweeps all masks when `2^n ≤ budget`,
/// otherwise [`sample_masks`]'s seeded sample, through
/// [`Adapt::runtime_best`]. Returns the winner's *final-budget* fidelity.
///
/// # Panics
///
/// Panics on framework errors, like [`policy_sweep`].
pub fn oracle_best(
    adapt: &Adapt,
    bench: &BenchmarkSpec,
    acfg: &AdaptConfig,
    budget: usize,
    seed: u64,
) -> f64 {
    let n = bench.circuit.num_qubits();
    let compiled = adapt.compile(&bench.circuit, acfg);
    let ideal = adapt.ideal_output(&bench.circuit).expect("ideal output");
    let masks = if n <= 16 && (1usize << n) <= budget {
        DdMask::enumerate_all(n)
    } else {
        sample_masks(n, budget, seed)
    };
    adapt
        .runtime_best(&compiled, &ideal, &masks, acfg)
        .expect("oracle run")
        .fidelity
}

/// `budget` distinct `n`-qubit masks: none and all first, then seeded
/// random masks. `budget` must not exceed `2^n`.
pub fn sample_masks(n: usize, budget: usize, seed: u64) -> Vec<DdMask> {
    use rand::Rng;
    let mut rng = SeedSpawner::new(seed).rng();
    let mut masks = vec![DdMask::none(n), DdMask::all(n)];
    while masks.len() < budget {
        let m = DdMask::from_bits(rng.gen(), n);
        if !masks.contains(&m) {
            masks.push(m);
        }
    }
    masks
}

/// Each mask's fidelity through `ctx`, scored as one batch.
///
/// # Panics
///
/// Panics when a run fails.
pub fn fidelities(ctx: &SearchContext<'_>, masks: &[DdMask]) -> Vec<f64> {
    ctx.score_batch(masks)
        .into_iter()
        .map(|r| r.expect("mask run").fidelity)
        .collect()
}

/// Each mask's fidelity on the compiled program itself, against its
/// exact output `ideal`, at the search budget: the real side of the
/// real-vs-decoy studies.
///
/// # Panics
///
/// Panics when a run fails.
pub fn real_fidelities(
    adapt: &Adapt,
    compiled: &TranspiledCircuit,
    ideal: &BTreeMap<u64, f64>,
    acfg: &AdaptConfig,
    masks: &[DdMask],
) -> Vec<f64> {
    let ctx = SearchContext::for_program(
        adapt.backend(),
        adapt.device().clone(),
        compiled,
        ideal,
        acfg.dd,
        acfg.search_exec,
    );
    fidelities(&ctx, masks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::suite::by_name;

    #[test]
    fn quick_sweep_produces_sane_numbers() {
        let cfg = ExperimentCfg::new(1, true);
        let dev = Device::ibmq_guadalupe(cfg.seed);
        let bench = by_name("QFT-5").unwrap();
        let r = policy_sweep(&dev, &bench, DdProtocol::Xy4, &cfg, false);
        assert!(r.baseline > 0.0 && r.baseline <= 1.0);
        assert!(r.all_dd_rel > 0.0);
        assert!(r.adapt_rel > 0.0);
        assert!(r.adapt_search_runs <= 4 * 5 + 3);
        assert_eq!(r.adapt_mask.len(), 5);
    }

    fn parse(args: &[&str]) -> Result<ExperimentCfg, String> {
        ExperimentCfg::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parse_accepts_all_flags() {
        let cfg = parse(&["--quick", "--seed", "99", "--resume", "--faults", "lossy"]).unwrap();
        assert!(cfg.quick);
        assert!(cfg.resume);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.fault_name, "lossy");
        assert!(cfg.faults_enabled());
        assert_eq!(cfg.fault_profile, machine::FaultProfile::lossy());
    }

    #[test]
    fn parse_defaults_are_clean() {
        let cfg = parse(&[]).unwrap();
        assert_eq!(cfg.seed, 2021);
        assert!(!cfg.quick && !cfg.resume && !cfg.faults_enabled());
    }

    #[test]
    fn parse_rejects_bad_input_with_messages() {
        assert!(parse(&["--wat"]).unwrap_err().contains("unknown argument"));
        assert!(parse(&["--seed"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--seed", "abc"]).unwrap_err().contains("integer"));
        let e = parse(&["--faults", "cosmic"]).unwrap_err();
        assert!(e.contains("cosmic") && e.contains("lossy"), "{e}");
    }

    #[test]
    fn faulty_sweep_completes_and_reports() {
        // ≥10% transient failures plus a mid-search staleness event: the
        // sweep must complete without panicking and the summary must see
        // retry activity.
        let mut cfg = ExperimentCfg::new(3, true);
        cfg.fault_profile = machine::FaultProfile::lossy();
        cfg.fault_name = "lossy";
        let dev = Device::ibmq_guadalupe(cfg.seed);
        let bench = by_name("QFT-5").unwrap();
        let r = policy_sweep(&dev, &bench, DdProtocol::Xy4, &cfg, false);
        assert!(r.baseline > 0.0 && r.baseline <= 1.0);
        assert!(r.adapt_rel > 0.0);
        let summary = suite_fault_summary().expect("faulty sweep recorded stats");
        assert!(summary.sweeps >= 1);
        assert!(summary.stats.requests > 0);
        assert!(summary.stats.attempts >= summary.stats.requests);
    }

    #[test]
    fn faulty_sweep_fidelity_close_to_clean_at_same_seed() {
        // The resilient stack retries transient failures and tops up
        // truncated batches under derived seeds, so fidelity stays close
        // to (not necessarily identical to) the fault-free run.
        let clean_cfg = ExperimentCfg::new(3, true);
        let mut faulty_cfg = clean_cfg;
        faulty_cfg.fault_profile = machine::FaultProfile::lossy();
        faulty_cfg.fault_name = "lossy";
        let dev = Device::ibmq_toronto(clean_cfg.seed);
        let bench = by_name("QFT-6A").unwrap();
        let clean = policy_sweep(&dev, &bench, DdProtocol::Xy4, &clean_cfg, false);
        let faulty = policy_sweep(&dev, &bench, DdProtocol::Xy4, &faulty_cfg, false);
        let d_base = (faulty.baseline - clean.baseline).abs();
        assert!(
            d_base < 0.05,
            "faulty baseline {} vs clean {}",
            faulty.baseline,
            clean.baseline
        );
        let d_all = (faulty.all_dd_rel * faulty.baseline.max(1e-4)
            - clean.all_dd_rel * clean.baseline.max(1e-4))
        .abs();
        assert!(d_all < 0.05, "All-DD fidelity drifted {d_all} under faults");
        // ADAPT may pick a different mask when neighborhoods degrade to
        // the all-DD fallback; the requirement is that faults never cost
        // more than 5 fidelity points against the fault-free run.
        let clean_adapt = clean.adapt_rel * clean.baseline.max(1e-4);
        let faulty_adapt = faulty.adapt_rel * faulty.baseline.max(1e-4);
        assert!(
            faulty_adapt >= clean_adapt - 0.05,
            "faulty ADAPT fidelity {faulty_adapt} vs clean {clean_adapt}"
        );
    }
}
