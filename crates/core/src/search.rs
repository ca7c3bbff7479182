//! DD-mask search (§4.3 of the paper).
//!
//! The mask space is `2^N` for an `N`-qubit program. ADAPT avoids the
//! exponential sweep with a **localized search**: qubits are processed in
//! neighborhoods of 4, each neighborhood's 16 combinations are evaluated
//! exhaustively on the decoy circuit, and the top-2 masks are merged
//! bitwise-OR (the "conservative estimate") before moving on — at most
//! `4·N` decoy executions overall, linear in qubits.
//!
//! Both searches score a candidate mask by inserting the DD sequence into
//! the *decoy* schedule, executing it on the noisy machine, and measuring
//! fidelity against the decoy's known ideal output. All candidates share
//! one execution seed (common random numbers), so scores differ by mask
//! effect rather than by sampling luck.
//!
//! # Execution-plan pipeline
//!
//! Scoring is built on three layers of reuse so the hot loop pays only
//! per-mask marginal cost:
//!
//! 1. the decoy's idle-window analysis ([`crate::dd::IdleAnalysis`]) is
//!    computed once per [`SearchContext`] and shared by every mask;
//! 2. each neighborhood's masks are submitted as **one batch** through
//!    [`Backend::execute_batch`], which pristine machines execute with
//!    scoped worker threads;
//! 3. the machine's plan cache recognizes repeated circuit structures,
//!    so recompilation is skipped across retries and repeated searches.
//!
//! Batching is bit-identical to serial scoring by the
//! [`Backend::execute_batch`] determinism contract.
//!
//! On top of the batching, the machine's simulator-routing layer gives
//! the search its biggest constant factor: a fully Clifford decoy
//! ([`Decoy::is_clifford`]) stays Clifford after DD-mask insertion (the
//! inserted pulses are X/Y), so every candidate-mask execution routes to
//! the CHP stabilizer engine — polynomial per trajectory instead of
//! `O(2^n)`. Seeded decoys keep their surviving non-Clifford phases and
//! score on the dense state-vector engine instead; the search logic is
//! identical either way, only throughput differs.

use crate::dd::{
    analyze_idle_windows, insert_dd_prepared, mask_to_wires, DdConfig, DdMask, IdleAnalysis,
};
use crate::decoy::Decoy;
use device::Device;
use machine::{Backend, Deadline, ExecError, ExecutionConfig, JobSpec};
use std::sync::OnceLock;
use transpiler::Layout;

/// Pre-resolved handles into the global metrics registry
/// (`adapt_search_<name>`). Observational only: the seeded search path
/// never reads these back.
struct SearchMetrics {
    searches: adapt_obs::Counter,
    decoy_runs_scored: adapt_obs::Counter,
    decoy_runs_unavailable: adapt_obs::Counter,
    degraded_groups: adapt_obs::Counter,
    /// Searches stopped early by deadline expiry or cancellation.
    searches_interrupted: adapt_obs::Counter,
    neighborhood_us: adapt_obs::Histogram,
}

fn search_metrics() -> &'static SearchMetrics {
    static M: OnceLock<SearchMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = adapt_obs::global();
        SearchMetrics {
            searches: r.counter("adapt_search_searches_total"),
            decoy_runs_scored: r.counter("adapt_search_decoy_runs_scored_total"),
            decoy_runs_unavailable: r.counter("adapt_search_decoy_runs_unavailable_total"),
            degraded_groups: r.counter("adapt_search_degraded_groups_total"),
            searches_interrupted: r.counter("adapt_search_interrupted_total"),
            neighborhood_us: r.histogram("adapt_search_neighborhood_us"),
        }
    })
}

/// One scored mask.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskScore {
    /// The candidate mask.
    pub mask: DdMask,
    /// Decoy fidelity achieved with it.
    pub fidelity: f64,
}

/// A neighborhood whose decoy evaluations could not complete within the
/// backend's availability (transient failures that outlasted every
/// retry). The search degrades gracefully: such a group falls back to
/// the conservative all-DD assignment instead of aborting the run.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedGroup {
    /// The program qubits of the unavailable neighborhood.
    pub qubits: Vec<u32>,
    /// The backend error that degraded the group (the first unavailable
    /// run, when several failed).
    pub reason: String,
}

impl std::fmt::Display for DegradedGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "neighborhood {:?} fell back to all-DD: {}",
            self.qubits, self.reason
        )
    }
}

/// Search output.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The selected mask.
    pub best: DdMask,
    /// Every evaluated mask with its decoy fidelity, in evaluation order.
    pub evaluations: Vec<MaskScore>,
    /// Neighborhoods that fell back to all-DD because the backend was
    /// unavailable for their decoy runs (empty on a healthy backend).
    pub degraded: Vec<DegradedGroup>,
    /// Decoy evaluations abandoned for backend availability (each one
    /// consumed retry budget but produced no score).
    pub unavailable_runs: usize,
    /// The search was interrupted (deadline expired or cancelled) before
    /// every neighborhood was evaluated. The mask is still valid and
    /// conservative: bits committed by completed neighborhoods are kept
    /// (their bitwise-OR merge), every unvisited qubit falls back to
    /// all-DD, and the unvisited groups are listed in
    /// [`SearchResult::degraded`].
    pub partial: bool,
}

impl SearchResult {
    /// Number of decoy executions the search *attempted*: scored runs
    /// plus runs abandoned for backend availability. The paper's
    /// "≤ 4·N decoy executions" budget (§4.3) is about work spent, and
    /// an unavailable run spends its execution (and retry) budget even
    /// though it produces no score — so it counts.
    pub fn decoy_runs(&self) -> usize {
        self.evaluations.len() + self.unavailable_runs
    }

    /// Whether any neighborhood degraded to its all-DD fallback.
    pub fn is_degraded(&self) -> bool {
        !self.degraded.is_empty()
    }

    /// The evaluations sorted best-first.
    pub fn ranked(&self) -> Vec<MaskScore> {
        let mut v = self.evaluations.clone();
        v.sort_by(|a, b| {
            b.fidelity
                .partial_cmp(&a.fidelity)
                .expect("fidelities are finite")
        });
        v
    }
}

/// Largest program (in qubits) [`exhaustive_search`] will sweep: the
/// `2^N` enumeration would not terminate in reasonable time beyond this.
pub const EXHAUSTIVE_MAX_QUBITS: usize = 20;

/// Errors from a mask search.
///
/// Splits request-shaped failures (the sweep is infeasible for this many
/// qubits) from backend failures, so long-running callers — worker pools,
/// services — can reject an oversized request instead of crashing.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The requested sweep is infeasible for this many program qubits.
    TooLarge {
        /// Program qubits in the request.
        qubits: usize,
        /// Largest supported program for this sweep.
        limit: usize,
    },
    /// Backend execution failed.
    Exec(ExecError),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::TooLarge { qubits, limit } => write!(
                f,
                "mask sweep over {qubits} program qubits exceeds the {limit}-qubit limit"
            ),
            SearchError::Exec(e) => write!(f, "search execution failed: {e}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<ExecError> for SearchError {
    fn from(e: ExecError) -> Self {
        SearchError::Exec(e)
    }
}

/// Whether an execution error means "the backend is (currently)
/// unavailable" as opposed to "this request can never work". Transient
/// errors and exhausted retry budgets degrade the search; permanent
/// errors abort it.
pub(crate) fn is_availability(e: &ExecError) -> bool {
    e.is_transient() || matches!(e, ExecError::RetriesExhausted { .. })
}

/// Everything needed to score a mask on the decoy.
///
/// Construct with [`SearchContext::new`]. The context owns the
/// once-per-decoy idle-window analysis: the first score computes it,
/// every later mask (serial or batched) reuses it.
pub struct SearchContext<'a> {
    backend: &'a dyn Backend,
    device: Device,
    decoy: &'a Decoy,
    layout: &'a Layout,
    dd: DdConfig,
    exec: ExecutionConfig,
    num_program_qubits: usize,
    /// The request deadline searches through this context check at their
    /// cancellation points. Defaults to [`Deadline::none`].
    deadline: Deadline,
    /// Lazily-built idle-window analysis of the decoy schedule, shared
    /// by every mask scored through this context.
    idle: OnceLock<IdleAnalysis>,
}

impl std::fmt::Debug for SearchContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchContext")
            .field("dd", &self.dd)
            .field("exec", &self.exec)
            .field("num_program_qubits", &self.num_program_qubits)
            .finish_non_exhaustive()
    }
}

impl<'a> SearchContext<'a> {
    /// Binds a search to a backend, decoy and execution budget.
    ///
    /// `device` is the view used for DD insertion timing — deliberately
    /// the *compile-time* calibration under staleness, as on real
    /// hardware. `layout` maps mask bits (program qubits) to physical
    /// wires; `num_program_qubits` is the mask width.
    pub fn new(
        backend: &'a dyn Backend,
        device: Device,
        decoy: &'a Decoy,
        layout: &'a Layout,
        dd: DdConfig,
        exec: ExecutionConfig,
        num_program_qubits: usize,
    ) -> Self {
        SearchContext {
            backend,
            device,
            decoy,
            layout,
            dd,
            exec,
            num_program_qubits,
            deadline: Deadline::none(),
            idle: OnceLock::new(),
        }
    }

    /// Binds a request deadline: [`localized_search`] checks it between
    /// neighborhoods, [`exhaustive_search`] between batches, and both
    /// stop early (returning a conservative partial result) when it
    /// expires or is cancelled.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The bound deadline ([`Deadline::none`] unless set).
    pub fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// The backend decoy runs execute on.
    pub fn backend(&self) -> &dyn Backend {
        self.backend
    }

    /// The device view used for DD insertion timing.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The decoy circuit being scored against.
    pub fn decoy(&self) -> &Decoy {
        self.decoy
    }

    /// The program's initial layout.
    pub fn layout(&self) -> &Layout {
        self.layout
    }

    /// DD protocol/parameters being inserted.
    pub fn dd(&self) -> &DdConfig {
        &self.dd
    }

    /// Execution budget per decoy run.
    pub fn exec(&self) -> &ExecutionConfig {
        &self.exec
    }

    /// Number of program qubits (mask width).
    pub fn num_program_qubits(&self) -> usize {
        self.num_program_qubits
    }

    /// The decoy's idle-window analysis, built on first use.
    fn analysis(&self) -> &IdleAnalysis {
        self.idle
            .get_or_init(|| analyze_idle_windows(&self.decoy.timed, &self.device, &self.dd))
    }

    /// Builds the decoy schedule with `mask`'s DD pulses spliced in.
    fn prepare(&self, mask: DdMask) -> transpiler::TimedCircuit {
        let wires = mask_to_wires(mask, self.layout);
        insert_dd_prepared(&self.decoy.timed, self.analysis(), &wires).timed
    }

    /// Scores one mask: decoy fidelity under that DD assignment. Partial
    /// batches are scored as delivered — their counts are weighted by
    /// the shots that actually arrived.
    ///
    /// # Errors
    ///
    /// Propagates backend execution failures.
    pub fn score(&self, mask: DdMask) -> Result<MaskScore, ExecError> {
        let timed = self.prepare(mask);
        let batch = self.backend.execute_timed(&timed, &self.exec)?;
        let fidelity = crate::metrics::fidelity(&self.decoy.ideal, &batch.counts);
        Ok(MaskScore { mask, fidelity })
    }

    /// Scores a slice of masks as one backend batch, returning one
    /// result per mask in input order.
    ///
    /// Every job carries the context's execution config (common random
    /// numbers across candidates). By the [`Backend::execute_batch`]
    /// determinism contract the results are bit-identical to calling
    /// [`SearchContext::score`] on each mask in order.
    pub fn score_batch(&self, masks: &[DdMask]) -> Vec<Result<MaskScore, ExecError>> {
        let prepared: Vec<transpiler::TimedCircuit> =
            masks.iter().map(|&m| self.prepare(m)).collect();
        let jobs: Vec<JobSpec<'_>> = prepared
            .iter()
            .map(|timed| JobSpec {
                timed,
                config: self.exec,
            })
            .collect();
        self.backend
            .execute_batch(&jobs)
            .into_iter()
            .zip(masks)
            .map(|(r, &mask)| {
                r.map(|batch| MaskScore {
                    mask,
                    fidelity: crate::metrics::fidelity(&self.decoy.ideal, &batch.counts),
                })
            })
            .collect()
    }
}

/// How many masks to submit per backend batch in the exhaustive sweep —
/// bounds peak memory (each in-flight mask holds a pulse-padded copy of
/// the decoy schedule) while keeping workers saturated.
const EXHAUSTIVE_BATCH: usize = 64;

/// Exhaustively scores all `2^N` masks (the Runtime-Best oracle uses the
/// same sweep on the real circuit). Masks are submitted in batches of
/// `EXHAUSTIVE_BATCH`, which pristine machines score in parallel.
///
/// # Errors
///
/// Returns [`SearchError::TooLarge`] for more than
/// [`EXHAUSTIVE_MAX_QUBITS`] program qubits (the sweep would not
/// terminate in reasonable time), and propagates machine execution
/// failures — a typed rejection either way, so a worker pool serving
/// search requests never crashes on an oversized program.
pub fn exhaustive_search(ctx: &SearchContext<'_>) -> Result<SearchResult, SearchError> {
    let n = ctx.num_program_qubits;
    if n > EXHAUSTIVE_MAX_QUBITS {
        return Err(SearchError::TooLarge {
            qubits: n,
            limit: EXHAUSTIVE_MAX_QUBITS,
        });
    }
    let mtr = search_metrics();
    mtr.searches.inc();
    let mut evaluations = Vec::new();
    let mut unavailable_runs = 0;
    let mut last_unavailable = None;
    let mut interruption: Option<ExecError> = None;
    'sweep: for chunk in DdMask::enumerate_all(n).chunks(EXHAUSTIVE_BATCH) {
        // Cooperative cancellation point between batch submissions.
        if let Err(e) = ctx.deadline.check() {
            interruption = Some(e);
            break;
        }
        for outcome in ctx.score_batch(chunk) {
            match outcome {
                Ok(score) => {
                    mtr.decoy_runs_scored.inc();
                    evaluations.push(score);
                }
                // The deadline tripped mid-batch: keep what scored,
                // stop sweeping.
                Err(e) if e.is_interruption() => {
                    interruption = Some(e);
                    break 'sweep;
                }
                // A mask whose runs outlasted the retry budget drops out
                // of the sweep; the remaining candidates still compete.
                Err(e) if is_availability(&e) => {
                    unavailable_runs += 1;
                    mtr.decoy_runs_unavailable.inc();
                    last_unavailable = Some(e);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
    if let Some(ref e) = interruption {
        mtr.searches_interrupted.inc();
        // Nothing scored before the interruption: there is no mask to
        // stand behind, so the interruption propagates as an error.
        if evaluations.is_empty() {
            return Err(SearchError::Exec(e.clone()));
        }
    }
    if evaluations.is_empty() {
        return Err(SearchError::Exec(last_unavailable.unwrap_or(
            ExecError::JobFailed {
                job: 0,
                reason: "no masks to evaluate".to_string(),
            },
        )));
    }
    // First-evaluated wins ties, matching the stable ranking used by the
    // localized search.
    let mut best = evaluations[0];
    for e in &evaluations[1..] {
        if e.fidelity > best.fidelity {
            best = *e;
        }
    }
    Ok(SearchResult {
        best: best.mask,
        evaluations,
        degraded: Vec::new(),
        unavailable_runs,
        partial: interruption.is_some(),
    })
}

/// ADAPT's localized search.
///
/// `qubit_order` determines how program qubits are grouped into
/// neighborhoods of `neighborhood` qubits (the paper uses 4); pass the
/// GST's most-idle-first order for the default behaviour. When
/// `top2_merge` is set, each neighborhood commits the bitwise OR of its
/// two best local masks (§4.3), otherwise just the best.
///
/// Each neighborhood's `2^|group|` candidate masks are submitted as one
/// [`Backend::execute_batch`] — pristine machines score them with
/// worker threads; stateful backends (fault injectors, retry wrappers)
/// run them serially in order. Either way the scores are bit-identical
/// to a serial mask-by-mask loop.
///
/// # Errors
///
/// Propagates machine execution failures.
///
/// # Panics
///
/// Panics when `neighborhood` is 0 or exceeds 16 bits.
///
/// # Graceful degradation
///
/// A neighborhood with *any* decoy run lost to backend availability
/// (transient errors that outlast every retry) does not abort the
/// search: its qubits fall back to the conservative all-DD assignment —
/// protection is never *silently* dropped by a flaky backend — and the
/// group is reported in [`SearchResult::degraded`]. Every mask of the
/// group is still attempted (they are submitted together as one batch),
/// so completed evaluations are reported and every lost run is counted
/// in [`SearchResult::unavailable_runs`]. Permanent errors still
/// propagate.
pub fn localized_search(
    ctx: &SearchContext<'_>,
    qubit_order: &[u32],
    neighborhood: usize,
    top2_merge: bool,
) -> Result<SearchResult, ExecError> {
    assert!(neighborhood > 0 && neighborhood <= 16, "neighborhood size");
    let mtr = search_metrics();
    mtr.searches.inc();
    let n = ctx.num_program_qubits;
    let mut committed = DdMask::none(n);
    let mut evaluations = Vec::new();
    let mut degraded = Vec::new();
    let mut unavailable_runs = 0;
    let mut interruption: Option<ExecError> = None;

    let groups: Vec<&[u32]> = qubit_order.chunks(neighborhood).collect();
    let mut visited = 0;
    while visited < groups.len() {
        let group = groups[visited];
        // Cooperative cancellation point: checked before each
        // neighborhood's batch is submitted.
        if let Err(e) = ctx.deadline.check() {
            interruption = Some(e);
            break;
        }
        let _neighborhood_span = mtr.neighborhood_us.time();
        // All 2^|group| settings of this neighborhood's bits, with
        // already-committed bits fixed and future bits at 0, scored as
        // one batch.
        let masks: Vec<DdMask> = (0u64..(1 << group.len()))
            .map(|combo| {
                let mut mask = committed;
                for (bit_pos, &q) in group.iter().enumerate() {
                    mask = mask.with(q as usize, combo >> bit_pos & 1 == 1);
                }
                mask
            })
            .collect();
        let mut local: Vec<MaskScore> = Vec::with_capacity(masks.len());
        let mut group_outage: Option<String> = None;
        for outcome in ctx.score_batch(&masks) {
            match outcome {
                Ok(score) => {
                    mtr.decoy_runs_scored.inc();
                    local.push(score);
                    evaluations.push(score);
                }
                // The deadline tripped mid-batch: this neighborhood is
                // incomplete and falls into the all-DD sweep below.
                Err(e) if e.is_interruption() => {
                    interruption = Some(e);
                    break;
                }
                Err(e) if is_availability(&e) => {
                    unavailable_runs += 1;
                    mtr.decoy_runs_unavailable.inc();
                    if group_outage.is_none() {
                        group_outage = Some(e.to_string());
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if interruption.is_some() {
            break;
        }
        visited += 1;
        if let Some(reason) = group_outage {
            // Degrade this neighborhood: all-DD fallback.
            mtr.degraded_groups.inc();
            for &q in group {
                committed = committed.with(q as usize, true);
            }
            degraded.push(DegradedGroup {
                qubits: group.to_vec(),
                reason,
            });
            continue;
        }
        local.sort_by(|a, b| {
            b.fidelity
                .partial_cmp(&a.fidelity)
                .expect("fidelities are finite")
        });
        let mut winner = local[0].mask;
        if top2_merge && local.len() > 1 {
            winner = winner.union(local[1].mask);
        }
        // Commit only this neighborhood's bits.
        for &q in group {
            committed = committed.with(q as usize, winner.is_set(q as usize));
        }
    }

    // Interrupted: the committed mask (the OR-merge of every completed
    // neighborhood) stands, and every unvisited qubit falls back to the
    // conservative all-DD assignment — a cancelled search never silently
    // drops protection.
    if let Some(ref e) = interruption {
        mtr.searches_interrupted.inc();
        for group in &groups[visited..] {
            mtr.degraded_groups.inc();
            for &q in *group {
                committed = committed.with(q as usize, true);
            }
            degraded.push(DegradedGroup {
                qubits: group.to_vec(),
                reason: format!("search interrupted: {e}"),
            });
        }
    }

    Ok(SearchResult {
        best: committed,
        evaluations,
        degraded,
        unavailable_runs,
        partial: interruption.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoy::{make_decoy, DecoyKind};
    use device::Device;
    use machine::Machine;
    use qcirc::Circuit;
    use transpiler::{transpile, TranspileOptions};

    /// Builds a small program with real idle structure on Guadalupe.
    fn context_fixture() -> (Machine, Decoy, Layout, usize) {
        let dev = Device::ibmq_guadalupe(31);
        let mut c = Circuit::new(3);
        c.h(0).t(1).cx(0, 1).t(0).cx(1, 2).cx(0, 1).measure_all();
        let t = transpile(&c, &dev, &TranspileOptions::default());
        let decoy = make_decoy(&t.timed, DecoyKind::Seeded { max_seed_qubits: 2 }).unwrap();
        let machine = Machine::new(dev);
        (machine, decoy, t.initial_layout, 3)
    }

    fn exec() -> ExecutionConfig {
        ExecutionConfig {
            shots: 600,
            trajectories: 24,
            seed: 5,
            threads: 1,
        }
    }

    fn ctx_over<'a>(
        backend: &'a dyn Backend,
        device: Device,
        decoy: &'a Decoy,
        layout: &'a Layout,
        n: usize,
    ) -> SearchContext<'a> {
        SearchContext::new(
            backend,
            device,
            decoy,
            layout,
            DdConfig::default(),
            exec(),
            n,
        )
    }

    #[test]
    fn exhaustive_covers_all_masks_and_picks_argmax() {
        let (machine, decoy, layout, n) = context_fixture();
        let ctx = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n);
        let r = exhaustive_search(&ctx).unwrap();
        assert_eq!(r.decoy_runs(), 8);
        let max_fid = r
            .evaluations
            .iter()
            .map(|e| e.fidelity)
            .fold(f64::MIN, f64::max);
        let best_fid = r
            .evaluations
            .iter()
            .find(|e| e.mask == r.best)
            .expect("best was evaluated")
            .fidelity;
        assert_eq!(best_fid, max_fid);
    }

    #[test]
    fn exhaustive_rejects_oversized_programs_with_typed_error() {
        let (machine, decoy, layout, _) = context_fixture();
        let ctx = ctx_over(&machine, machine.device().clone(), &decoy, &layout, 21);
        let err = exhaustive_search(&ctx).unwrap_err();
        assert_eq!(
            err,
            SearchError::TooLarge {
                qubits: 21,
                limit: EXHAUSTIVE_MAX_QUBITS
            }
        );
        // The guard fires before any decoy execution is attempted.
        assert!(err.to_string().contains("21 program qubits"));
    }

    #[test]
    fn scores_are_deterministic_given_seed() {
        let (machine, decoy, layout, n) = context_fixture();
        let ctx = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n);
        let a = ctx.score(DdMask::all(n)).unwrap();
        let b = ctx.score(DdMask::all(n)).unwrap();
        assert_eq!(a.fidelity, b.fidelity);
    }

    #[test]
    fn score_batch_is_bit_identical_to_serial_scoring() {
        let (machine, decoy, layout, n) = context_fixture();
        let ctx = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n);
        let masks = DdMask::enumerate_all(n);
        let batched = ctx.score_batch(&masks);
        for (outcome, &mask) in batched.iter().zip(&masks) {
            let serial = ctx.score(mask).unwrap();
            let got = outcome.as_ref().unwrap();
            assert_eq!(got.mask, serial.mask);
            assert_eq!(got.fidelity, serial.fidelity, "mask {mask}");
        }
    }

    #[test]
    fn score_batch_parallel_workers_match_serial() {
        // Explicit threads > 1 routes the batch through the machine's
        // scoped-worker pool; scores must not move by a single bit.
        let (machine, decoy, layout, n) = context_fixture();
        let par = SearchContext::new(
            &machine,
            machine.device().clone(),
            &decoy,
            &layout,
            DdConfig::default(),
            ExecutionConfig {
                threads: 4,
                ..exec()
            },
            n,
        );
        let ser = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n);
        let masks = DdMask::enumerate_all(n);
        for (p, s) in par.score_batch(&masks).iter().zip(ser.score_batch(&masks)) {
            assert_eq!(p.as_ref().unwrap().fidelity, s.unwrap().fidelity);
        }
    }

    #[test]
    fn localized_search_is_linear_in_qubits() {
        let (machine, decoy, layout, n) = context_fixture();
        let ctx = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n);
        let order: Vec<u32> = (0..n as u32).collect();
        // Neighborhood 2 over 3 qubits: 4 + 2·... chunks of [2,1] → 4+2=6.
        let r = localized_search(&ctx, &order, 2, true).unwrap();
        assert_eq!(r.decoy_runs(), 6);
        // Neighborhood 4 (single chunk of 3): 8 evaluations ≤ 4·N = 12.
        let r4 = localized_search(&ctx, &order, 4, true).unwrap();
        assert_eq!(r4.decoy_runs(), 8);
        assert!(r4.decoy_runs() <= 4 * n);
    }

    #[test]
    fn localized_with_full_neighborhood_matches_exhaustive_best_score() {
        let (machine, decoy, layout, n) = context_fixture();
        let ctx = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n);
        let order: Vec<u32> = (0..n as u32).collect();
        let ex = exhaustive_search(&ctx).unwrap();
        let loc = localized_search(&ctx, &order, 4, false).unwrap();
        // One neighborhood spanning everything without merge = exhaustive.
        assert_eq!(loc.best, ex.best);
    }

    #[test]
    fn top2_merge_is_superset_of_best() {
        let (machine, decoy, layout, n) = context_fixture();
        let ctx = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n);
        let order: Vec<u32> = (0..n as u32).collect();
        let plain = localized_search(&ctx, &order, 4, false).unwrap();
        let merged = localized_search(&ctx, &order, 4, true).unwrap();
        // The merged mask contains every bit of the locally-best mask.
        assert_eq!(merged.best.bits() & plain.best.bits(), plain.best.bits());
    }

    /// A backend that fails (transiently) on scripted call indices.
    struct ScriptedFailures {
        inner: Machine,
        calls: std::sync::atomic::AtomicU64,
        fail_calls: std::ops::Range<u64>,
        permanent: bool,
    }

    impl machine::Backend for ScriptedFailures {
        fn execute(
            &self,
            circuit: &qcirc::Circuit,
            config: &ExecutionConfig,
        ) -> Result<machine::ShotBatch, ExecError> {
            let timed = transpiler::schedule(
                circuit,
                self.inner.device(),
                transpiler::SchedulePolicy::Alap,
            );
            self.execute_timed(&timed, config)
        }

        fn execute_timed(
            &self,
            timed: &transpiler::TimedCircuit,
            config: &ExecutionConfig,
        ) -> Result<machine::ShotBatch, ExecError> {
            let i = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if self.fail_calls.contains(&i) {
                if self.permanent {
                    return Err(ExecError::TooManyActiveQubits {
                        active: 99,
                        limit: 25,
                    });
                }
                return Err(ExecError::JobFailed {
                    job: i,
                    reason: "scripted outage".to_string(),
                });
            }
            machine::Backend::execute_timed(&self.inner, timed, config)
        }

        fn device_snapshot(&self) -> Device {
            self.inner.device().clone()
        }
    }

    #[test]
    fn unavailable_neighborhood_degrades_to_all_dd() {
        let (machine, decoy, layout, n) = context_fixture();
        let backend = ScriptedFailures {
            inner: machine.clone(),
            calls: std::sync::atomic::AtomicU64::new(0),
            fail_calls: 0..1, // first decoy run of the first group fails
            permanent: false,
        };
        let ctx = ctx_over(&backend, machine.device().clone(), &decoy, &layout, n);
        let order: Vec<u32> = (0..n as u32).collect();
        let r = localized_search(&ctx, &order, 2, true).unwrap();
        // Group [0, 1] degraded: its bits fall back to all-DD.
        assert!(r.is_degraded());
        assert_eq!(r.degraded.len(), 1);
        assert_eq!(r.degraded[0].qubits, vec![0, 1]);
        assert!(r.best.is_set(0) && r.best.is_set(1));
        assert_eq!(r.unavailable_runs, 1);
        // The whole batch was attempted: the degraded group's other 3
        // masks still scored, plus the second group's ([2]) 2 runs.
        assert_eq!(r.evaluations.len(), 5);
        assert_eq!(r.decoy_runs(), 6);
    }

    #[test]
    fn degraded_search_still_covers_every_qubit() {
        // Even a total outage yields a valid (all-DD) mask, never a panic.
        let (machine, decoy, layout, n) = context_fixture();
        let backend = ScriptedFailures {
            inner: machine.clone(),
            calls: std::sync::atomic::AtomicU64::new(0),
            fail_calls: 0..u64::MAX,
            permanent: false,
        };
        let ctx = ctx_over(&backend, machine.device().clone(), &decoy, &layout, n);
        let order: Vec<u32> = (0..n as u32).collect();
        let r = localized_search(&ctx, &order, 2, true).unwrap();
        assert_eq!(r.degraded.len(), 2);
        for q in 0..n {
            assert!(r.best.is_set(q), "qubit {q} must keep DD protection");
        }
        // Every one of the 4 + 2 attempted runs was lost to availability.
        assert!(r.evaluations.is_empty());
        assert_eq!(r.unavailable_runs, 6);
        assert_eq!(r.decoy_runs(), 6);
    }

    #[test]
    fn permanent_errors_abort_the_search() {
        let (machine, decoy, layout, n) = context_fixture();
        let backend = ScriptedFailures {
            inner: machine.clone(),
            calls: std::sync::atomic::AtomicU64::new(0),
            fail_calls: 0..u64::MAX,
            permanent: true,
        };
        let ctx = ctx_over(&backend, machine.device().clone(), &decoy, &layout, n);
        let order: Vec<u32> = (0..n as u32).collect();
        let err = localized_search(&ctx, &order, 2, true).unwrap_err();
        assert!(matches!(err, ExecError::TooManyActiveQubits { .. }));
    }

    #[test]
    fn exhaustive_skips_unavailable_masks() {
        let (machine, decoy, layout, n) = context_fixture();
        let backend = ScriptedFailures {
            inner: machine.clone(),
            calls: std::sync::atomic::AtomicU64::new(0),
            fail_calls: 2..4, // two of the eight masks unavailable
            permanent: false,
        };
        let ctx = ctx_over(&backend, machine.device().clone(), &decoy, &layout, n);
        let r = exhaustive_search(&ctx).unwrap();
        assert_eq!(r.evaluations.len(), 6);
        assert_eq!(r.unavailable_runs, 2);
        // Attempted = scored + unavailable: the full 2^3 sweep.
        assert_eq!(r.decoy_runs(), 8);
    }

    /// A backend that charges a fixed virtual cost per decoy run against
    /// a shared deadline and refuses to run once it has expired — the
    /// shape a `ResilientExecutor` bound to the same deadline presents.
    struct DeadlineCharging {
        inner: Machine,
        deadline: Deadline,
        charge_ms: f64,
    }

    impl machine::Backend for DeadlineCharging {
        fn execute(
            &self,
            circuit: &qcirc::Circuit,
            config: &ExecutionConfig,
        ) -> Result<machine::ShotBatch, ExecError> {
            let timed = transpiler::schedule(
                circuit,
                self.inner.device(),
                transpiler::SchedulePolicy::Alap,
            );
            self.execute_timed(&timed, config)
        }

        fn execute_timed(
            &self,
            timed: &transpiler::TimedCircuit,
            config: &ExecutionConfig,
        ) -> Result<machine::ShotBatch, ExecError> {
            self.deadline.check()?;
            self.deadline.charge_ms(self.charge_ms);
            machine::Backend::execute_timed(&self.inner, timed, config)
        }

        fn device_snapshot(&self) -> Device {
            self.inner.device().clone()
        }
    }

    fn deadline_ctx<'a>(
        machine: &Machine,
        backend: &'a dyn Backend,
        decoy: &'a Decoy,
        layout: &'a Layout,
        n: usize,
        deadline: &Deadline,
    ) -> SearchContext<'a> {
        ctx_over(backend, machine.device().clone(), decoy, layout, n)
            .with_deadline(deadline.clone())
    }

    #[test]
    fn deadline_between_neighborhoods_keeps_completed_merge() {
        // 10 ms per decoy run against a 35 ms budget: the first group's
        // 4 runs complete (charges hit 40 ms), the second group is never
        // visited and falls back to all-DD.
        let (machine, decoy, layout, n) = context_fixture();
        let deadline = Deadline::virtual_only(35);
        let backend = DeadlineCharging {
            inner: machine.clone(),
            deadline: deadline.clone(),
            charge_ms: 10.0,
        };
        let ctx = deadline_ctx(&machine, &backend, &decoy, &layout, n, &deadline);
        let order: Vec<u32> = (0..n as u32).collect();
        let r = localized_search(&ctx, &order, 2, true).unwrap();
        assert!(r.partial);
        assert_eq!(r.evaluations.len(), 4, "first neighborhood completed");
        assert_eq!(r.degraded.len(), 1);
        assert_eq!(r.degraded[0].qubits, vec![2]);
        assert!(r.degraded[0].reason.contains("interrupted"));
        assert!(r.best.is_set(2), "unvisited qubit keeps DD protection");

        // The completed neighborhood's commitment matches an
        // uninterrupted run of the same group (same seed).
        let clean = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n);
        let full = localized_search(&clean, &order, 2, true).unwrap();
        for q in 0..2 {
            assert_eq!(r.best.is_set(q), full.best.is_set(q));
        }
    }

    #[test]
    fn deadline_mid_batch_degrades_the_open_neighborhood() {
        // 25 ms budget: the check before the first group's 4th run trips
        // at 30 ms charged. Both the open group and the unvisited one
        // fall back to all-DD.
        let (machine, decoy, layout, n) = context_fixture();
        let deadline = Deadline::virtual_only(25);
        let backend = DeadlineCharging {
            inner: machine.clone(),
            deadline: deadline.clone(),
            charge_ms: 10.0,
        };
        let ctx = deadline_ctx(&machine, &backend, &decoy, &layout, n, &deadline);
        let order: Vec<u32> = (0..n as u32).collect();
        let r = localized_search(&ctx, &order, 2, true).unwrap();
        assert!(r.partial);
        assert_eq!(r.evaluations.len(), 3, "three runs scored before expiry");
        assert_eq!(r.degraded.len(), 2);
        for q in 0..n {
            assert!(r.best.is_set(q), "qubit {q} must keep DD protection");
        }
    }

    #[test]
    fn cancelled_search_returns_all_dd_without_executing() {
        let (machine, decoy, layout, n) = context_fixture();
        let deadline = Deadline::none();
        deadline.cancel();
        let ctx = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n)
            .with_deadline(deadline);
        let order: Vec<u32> = (0..n as u32).collect();
        let r = localized_search(&ctx, &order, 2, true).unwrap();
        assert!(r.partial);
        assert!(r.evaluations.is_empty());
        for q in 0..n {
            assert!(r.best.is_set(q));
        }
    }

    #[test]
    fn interrupted_searches_are_deterministic_in_virtual_time() {
        let (machine, decoy, layout, n) = context_fixture();
        let run = || {
            let deadline = Deadline::virtual_only(25);
            let backend = DeadlineCharging {
                inner: machine.clone(),
                deadline: deadline.clone(),
                charge_ms: 10.0,
            };
            let ctx = deadline_ctx(&machine, &backend, &decoy, &layout, n, &deadline);
            let order: Vec<u32> = (0..n as u32).collect();
            localized_search(&ctx, &order, 2, true).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.partial, b.partial);
    }

    #[test]
    fn exhaustive_keeps_scored_masks_on_interruption() {
        let (machine, decoy, layout, n) = context_fixture();
        let deadline = Deadline::virtual_only(45);
        let backend = DeadlineCharging {
            inner: machine.clone(),
            deadline: deadline.clone(),
            charge_ms: 10.0,
        };
        let ctx = deadline_ctx(&machine, &backend, &decoy, &layout, n, &deadline);
        let r = exhaustive_search(&ctx).unwrap();
        assert!(r.partial);
        assert_eq!(r.evaluations.len(), 5, "five of eight masks scored");

        // Born-expired: nothing scored, so the interruption propagates.
        let dead = Deadline::virtual_only(0);
        let backend = DeadlineCharging {
            inner: machine.clone(),
            deadline: dead.clone(),
            charge_ms: 10.0,
        };
        let ctx = deadline_ctx(&machine, &backend, &decoy, &layout, n, &dead);
        let err = exhaustive_search(&ctx).unwrap_err();
        assert!(matches!(
            err,
            SearchError::Exec(ExecError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn ranked_is_sorted() {
        let (machine, decoy, layout, n) = context_fixture();
        let ctx = ctx_over(&machine, machine.device().clone(), &decoy, &layout, n);
        let r = exhaustive_search(&ctx).unwrap();
        let ranked = r.ranked();
        for w in ranked.windows(2) {
            assert!(w[0].fidelity >= w[1].fidelity);
        }
    }
}
