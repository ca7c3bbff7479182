//! The mask-recommendation service: bounded queue, worker pool,
//! admission control and provenance-carrying responses.
//!
//! # Determinism contract
//!
//! Every fresh search runs on a backend stack built *per request* and
//! seeded purely from the request's [`MaskKey`] fingerprint and the
//! service seed: a fresh [`FaultyBackend`] over a clone of the device's
//! epoch machine, wrapped in a [`ResilientExecutor`]. The search's decoy
//! batches go through both wrappers to the machine's batch engine,
//! whether faults are on or off: the fault draws are keyed by each job's
//! address, and retries run in rounds of smaller batches. The search
//! outcome is therefore a pure function of `(service seed, key, budget)`
//! — two services built from the same seed return bit-identical masks
//! and fidelities for the same key, whether the answer comes from cache
//! or a fresh search, and regardless of worker count, queue order or
//! which worker picks the job up. (Clones of an epoch machine share its
//! plan cache, so a later search may replay a run an earlier one made;
//! a replayed run's counts equal a simulated one's.)
//!
//! # Failure containment
//!
//! Worker panics are caught per request: the client gets a typed
//! [`ServiceError::Internal`], the panic counter increments, and the
//! worker thread keeps serving. A panicking searcher's
//! [`SearchTicket`] is released by its Drop
//! impl, so blocked waiters never deadlock — one of them becomes the new
//! searcher.

use crate::breaker::{Admission, BreakerState, HealthTracker, Transition};
use crate::cache::{
    logical_hash, program_fingerprint, same_program, CachedMask, MaskCache, MaskCacheStats,
    MaskKey, SearchTicket, StaleKey, TieredLookup,
};
use crate::persist::{PersistConfig, PersistStats, Persister, RecoveryReport};
use crate::registry::{DeviceId, DeviceRegistry};
use crate::sched::TenantScheduler;
use crate::tenancy::{QuotaBook, Tenancy, TenancyConfig, TenantId};
use adapt::decoy::make_decoy;
use adapt::search::MAX_NEIGHBORHOOD;
use adapt::{
    heuristic_mask, Adapt, AdaptConfig, AdaptError, DdConfig, DdMask, DdProtocol, DecoyKind, Policy,
};
use machine::{Deadline, ExecutionConfig, FaultProfile, FaultyBackend, Machine, ResilientExecutor};
use qcirc::{OpKind, MAX_CLBITS};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use transpiler::{transpile, TranspileOptions};

/// Which rungs of the degradation ladder a request may use.
///
/// The ladder (DESIGN §13) orders answers by cost and quality: a cached
/// fresh mask beats a within-bound stale mask beats the calibration-only
/// heuristic beats all-DD. [`TierPolicy::Auto`] walks it by deadline;
/// the pinned policies exist for callers with hard requirements
/// (benchmark baselines want search-only; an interactive explorer may
/// want heuristic-only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TierPolicy {
    /// Serve from whichever tier the deadline affords: inline search
    /// when the remaining budget is at least the service's
    /// [`TierConfig::min_search_ms`], otherwise a stale or heuristic
    /// answer immediately (scheduling a background refine).
    #[default]
    Auto,
    /// Never search inline *or* in the background for this request:
    /// cache hit, within-bound stale value, or the heuristic answer.
    HeuristicOnly,
    /// Never serve stale or heuristic answers: cache hit or inline
    /// search, exactly the pre-ladder behavior.
    SearchOnly,
}

/// Decoy-execution budget of one mask search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchBudget {
    /// Shots per decoy evaluation.
    pub shots: u64,
    /// Noise trajectories per decoy evaluation.
    pub trajectories: u32,
    /// Localized-search neighborhood size (4 in the paper).
    pub neighborhood: usize,
    /// Which tiers of the degradation ladder this request may use.
    pub tier: TierPolicy,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            shots: 256,
            trajectories: 8,
            neighborhood: 4,
            tier: TierPolicy::default(),
        }
    }
}

/// Most shots a search budget may ask per decoy evaluation: 2^20. The
/// sampling error of a fidelity, near `1/√shots`, is ~0.1% here, and a
/// search checks its deadline only between batches, so more shots would
/// only hold a worker longer.
pub const MAX_SHOTS: u64 = 1 << 20;

/// Most noise trajectories a search budget may ask per decoy
/// evaluation: 4,096, 512 times the default. The executor lays out a
/// seed per trajectory before running one, and each is a full noisy
/// simulation, so the count bounds a search's memory and its time
/// between deadline checks.
pub const MAX_TRAJECTORIES: u32 = 4096;

/// The most delay a request circuit may carry, in ns, summed over its
/// delay ops: 1 ms, about ten times the longest mean T1 of the device
/// profiles (105 µs), so a longer idle adds nothing but full
/// relaxation. Serving it costs well under a second (the noise model
/// integrates idle time in 40 ns steps).
pub const MAX_DELAY_NS: f64 = 1e6;

/// A [`SearchBudget`] the service cannot run a search with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetError {
    /// A field lies outside `1..=max`: zero runs no search, and past
    /// `max` a search holds a worker or its memory without bound.
    OutOfRange {
        /// The field's name.
        field: &'static str,
        /// The value asked for.
        value: u64,
        /// The largest value served.
        max: u64,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let BudgetError::OutOfRange { field, value, max } = self;
        write!(f, "search budget has {field} = {value}, outside 1..={max}")
    }
}

impl std::error::Error for BudgetError {}

impl SearchBudget {
    /// Rejects budgets no search can run with: `shots`, `trajectories`
    /// and `neighborhood` must lie in `1..=` [`MAX_SHOTS`],
    /// [`MAX_TRAJECTORIES`] and [`adapt::search::MAX_NEIGHBORHOOD`]. A
    /// [`TierPolicy::HeuristicOnly`] budget is exempt: it never searches.
    ///
    /// # Errors
    ///
    /// The first field out of range, as a typed [`BudgetError`].
    pub fn validate(&self) -> Result<(), BudgetError> {
        if self.tier == TierPolicy::HeuristicOnly {
            return Ok(());
        }
        let fields = [
            ("shots", self.shots, MAX_SHOTS),
            (
                "trajectories",
                self.trajectories.into(),
                MAX_TRAJECTORIES.into(),
            ),
            (
                "neighborhood",
                self.neighborhood as u64,
                MAX_NEIGHBORHOOD as u64,
            ),
        ];
        match fields
            .into_iter()
            .find(|&(_, v, max)| !(1..=max).contains(&v))
        {
            Some((field, value, max)) => Err(BudgetError::OutOfRange { field, value, max }),
            None => Ok(()),
        }
    }
}

/// The admission rule for a request circuit on `device`, which has
/// `device_qubits` qubits (`None`: unregistered, which the worker
/// answers as [`ServiceError::DeviceNotServed`]). One pass over the ops
/// checks what would panic or hold a worker: a width in
/// `1..=device_qubits`, at most [`MAX_CLBITS`] classical bits (an
/// outcome word), finite gate parameters, and finite, non-negative
/// delays summing to at most [`MAX_DELAY_NS`].
///
/// # Errors
///
/// [`ServiceError::InvalidConfig`] naming the first violation.
pub fn check_circuit(
    circuit: &qcirc::Circuit,
    device: DeviceId,
    device_qubits: Option<usize>,
) -> Result<(), ServiceError> {
    let (width, clbits) = (circuit.num_qubits(), circuit.num_clbits());
    let mut delay_ns = 0.0;
    let reason = if width == 0 {
        "a circuit needs at least one qubit".to_string()
    } else if let Some(qubits) = device_qubits.filter(|&qubits| width > qubits) {
        format!("{width}-qubit circuit does not fit on {device} ({qubits} qubits)")
    } else if clbits > MAX_CLBITS {
        format!("{clbits} classical bits exceed the {MAX_CLBITS}-bit outcome register")
    } else if let Some(reason) = circuit.iter().find_map(|instr| match instr.kind {
        OpKind::Gate(g) if g.params().iter().any(|p| !p.is_finite()) => {
            Some(format!("{g} has a non-finite parameter"))
        }
        OpKind::Delay(ns) if !(ns >= 0.0 && ns.is_finite()) => Some(format!("delay of {ns} ns")),
        OpKind::Delay(ns) => {
            delay_ns += ns;
            (delay_ns > MAX_DELAY_NS).then(|| format!("delays sum past {MAX_DELAY_NS} ns"))
        }
        _ => None,
    }) {
        reason
    } else {
        return Ok(());
    };
    Err(invalid(reason))
}

/// Bound of the background-refine lane; refines past it are dropped
/// (their single-flight tickets released) rather than queued without
/// limit.
const REFINE_QUEUE_CAPACITY: usize = 8;

/// How many workers may run refine searches at once. Refines are
/// strictly lower priority than client jobs: a worker only picks one up
/// when the client queue is empty.
const REFINE_CONCURRENCY: usize = 1;

/// How many hot keys [`MaskService::prewarm_epoch`] re-characterizes
/// against the next epoch's calibration.
const PREWARM_TOP_K: usize = 4;

/// Tuning of the degradation ladder (tiers 0–2). The defaults disable
/// every new behavior — `min_search_ms = 0` means [`TierPolicy::Auto`]
/// always searches inline and `max_stale_epochs = 0` means nothing is
/// ever served stale — so a config that never mentions tiers behaves
/// exactly like the pre-ladder service, bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierConfig {
    /// Minimum remaining deadline (ms) for an [`TierPolicy::Auto`]
    /// request to attempt an inline search; below it the request is
    /// answered from cache/stale/heuristic without blocking. `0`
    /// disables the downgrade entirely.
    pub min_search_ms: u64,
    /// How many epochs behind a superseded cache value may be and still
    /// be served as [`Provenance::StaleServed`]. `0` disables stale
    /// serving.
    pub max_stale_epochs: u64,
}

/// The rung of the degradation ladder a request is served from, as
/// chosen by [`choose_rung`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The device's breaker is open: serve the key's cached mask, else
    /// the conservative all-DD mask, without touching the backend or the
    /// cache counters.
    Breaker,
    /// Look the key up, waiting out an in-flight search; serve a stale
    /// value at most `max_stale` epochs old (refining it in the
    /// background); search inline on a miss.
    Search {
        /// Staleness bound of the lookup (0: never stale).
        max_stale: u64,
    },
    /// Answer at once: a cache hit, a stale value at most `max_stale`
    /// epochs old, or the tier-0 heuristic. A search ticket the lookup
    /// hands out goes to the background refine lane when `refine` is
    /// set, and is dropped (releasing the key) otherwise.
    Instant {
        /// Staleness bound of the lookup (0: never stale).
        max_stale: u64,
        /// Whether the key may be refined in the background.
        refine: bool,
    },
}

/// Which rung of the ladder answers a request (DESIGN §13): a pure
/// function of the breaker's admission verdict, the request's tier
/// policy, the deadline budget left (`None`: unbounded) and the ladder
/// tuning.
///
/// - An open breaker always gets [`Rung::Breaker`].
/// - [`TierPolicy::SearchOnly`] always searches and never serves stale.
/// - [`TierPolicy::HeuristicOnly`] never searches and never refines.
/// - [`TierPolicy::Auto`] searches when at least
///   [`TierConfig::min_search_ms`] remain, and otherwise answers at once
///   and refines in the background.
pub fn choose_rung(
    admission: Admission,
    tier: TierPolicy,
    remaining_ms: Option<u64>,
    tiers: &TierConfig,
) -> Rung {
    let max_stale = tiers.max_stale_epochs;
    let fits_search = remaining_ms.is_none_or(|ms| ms >= tiers.min_search_ms);
    match (admission, tier) {
        (Admission::Fallback, _) => Rung::Breaker,
        (_, TierPolicy::SearchOnly) => Rung::Search { max_stale: 0 },
        (_, TierPolicy::Auto) if fits_search => Rung::Search { max_stale },
        (_, TierPolicy::Auto) => Rung::Instant {
            max_stale,
            refine: true,
        },
        (_, TierPolicy::HeuristicOnly) => Rung::Instant {
            max_stale,
            refine: false,
        },
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Devices to register (each starts at calibration epoch 0).
    pub devices: Vec<DeviceId>,
    /// Worker threads (min 1).
    pub workers: usize,
    /// Admission bound: requests beyond this queue depth are rejected.
    pub queue_capacity: usize,
    /// Mask-cache capacity (LRU entries).
    pub cache_capacity: usize,
    /// Root seed: devices, searches and fault injection all derive from
    /// it deterministically.
    pub seed: u64,
    /// Fault profile every per-request backend is built with.
    pub fault_profile: FaultProfile,
    /// Decoy construction mode (part of the cache key).
    pub decoy: DecoyKind,
    /// Default budget for [`Request::Execute`]-triggered searches.
    pub default_budget: SearchBudget,
    /// Degradation-ladder tuning (tier 0 heuristic, tier 1
    /// stale-while-revalidate, tier 2 proactive refresh). The default
    /// disables all three — see [`TierConfig`].
    pub tiers: TierConfig,
    /// Run a per-device circuit breaker ([`HealthTracker`]; its tuning
    /// is fixed, see [`crate::breaker`]). Off by default: breaker
    /// decisions couple requests to each other (an open breaker changes
    /// what *other* keys' requests get back), which intentionally trades
    /// the service's pure per-key determinism for failure isolation —
    /// opt in where that trade is wanted (production, the chaos
    /// harness).
    pub breaker: bool,
    /// Run the service on virtual time instead of wall time. Request
    /// deadlines count charged virtual time only
    /// ([`Deadline::virtual_only`] instead of [`Deadline::within_ms`]),
    /// and tenant quota buckets refill only when
    /// [`MaskService::advance_quota_ms`] advances the clock. Expiry and
    /// quota admission are then pure functions of the seeded schedule,
    /// so both replay bit-identically — the mode the chaos and replay
    /// harnesses and the deterministic tests run in.
    pub virtual_time: bool,
    /// Metrics registry the service publishes `adapt_service_*` metrics
    /// into. Defaults to a fresh private registry, so every service
    /// instance keeps isolated counters (and [`MaskService::stats`] is
    /// exact per instance even with many services in one process); pass
    /// [`adapt_obs::global()`] to export into the process-wide registry
    /// instead. A disabled (noop) registry is replaced with a fresh
    /// private one at start — the service's own accounting must work.
    pub registry: Arc<adapt_obs::Registry>,
    /// Multi-tenant policy: per-tenant fairness weights and token-bucket
    /// admission quotas. The default gives every tenant weight 1 and no
    /// quota, so a config that never mentions tenancy schedules exactly
    /// like a single shared lane (strict class priority and EDF still
    /// apply).
    pub tenancy: TenancyConfig,
    /// Durability: checksummed snapshot + write-ahead journal of the
    /// mask cache (DESIGN §17). Disabled by default; set
    /// [`PersistConfig::dir`] to recover the warm set across restarts.
    pub persist: PersistConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            devices: vec![DeviceId::Guadalupe],
            workers: 2,
            queue_capacity: 32,
            cache_capacity: crate::cache::DEFAULT_MASK_CACHE_CAPACITY,
            seed: 2021,
            fault_profile: FaultProfile::none(),
            decoy: DecoyKind::default(),
            default_budget: SearchBudget::default(),
            tiers: TierConfig::default(),
            breaker: false,
            virtual_time: false,
            registry: Arc::new(adapt_obs::Registry::new()),
            tenancy: TenancyConfig::default(),
            persist: PersistConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Rejects configurations the service cannot run with (an invalid
    /// default search budget or tenancy policy).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] naming the first violation.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.default_budget.validate().map_err(invalid)?;
        self.tenancy.validate().map_err(invalid)?;
        Ok(())
    }
}

/// A unit of work submitted to the service.
#[derive(Debug, Clone)]
pub enum Request {
    /// Find (or fetch) the best DD mask for `circuit` on `device`.
    RecommendMask {
        /// Logical program.
        circuit: qcirc::Circuit,
        /// Target device.
        device: DeviceId,
        /// DD protocol the mask will be realized with.
        protocol: DdProtocol,
        /// Search budget (only consulted on a cache miss).
        budget: SearchBudget,
        /// Time budget for the whole request (queue wait included),
        /// `None` for unbounded. An expired deadline is honoured at
        /// every layer: born-expired submissions are rejected without
        /// enqueueing, queued jobs whose deadline lapses are dropped
        /// (counted, not executed), and a search overrunning mid-flight
        /// is cut short into a conservative partial mask.
        deadline_ms: Option<u64>,
        /// Which tenant submitted this and in which priority class it
        /// rides. Drives per-tenant admission quotas and the worker
        /// pool's weighted-fair EDF scheduling; the default is the
        /// anonymous tenant in the standard class.
        tenancy: Tenancy,
    },
    /// Execute `circuit` on `device` under `policy` (ADAPT consults the
    /// mask cache like a recommendation would).
    Execute {
        /// Logical program.
        circuit: qcirc::Circuit,
        /// Target device.
        device: DeviceId,
        /// DD policy to apply.
        policy: Policy,
        /// Time budget for the whole request; see
        /// [`Request::RecommendMask::deadline_ms`].
        deadline_ms: Option<u64>,
        /// Tenant identity and priority class; see
        /// [`Request::RecommendMask::tenancy`].
        tenancy: Tenancy,
    },
}

impl Request {
    /// The device this request targets.
    pub fn device(&self) -> DeviceId {
        match self {
            Request::RecommendMask { device, .. } | Request::Execute { device, .. } => *device,
        }
    }

    /// The logical program this request is about.
    pub fn circuit(&self) -> &qcirc::Circuit {
        match self {
            Request::RecommendMask { circuit, .. } | Request::Execute { circuit, .. } => circuit,
        }
    }

    /// The request's time budget, if any.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            Request::RecommendMask { deadline_ms, .. } | Request::Execute { deadline_ms, .. } => {
                *deadline_ms
            }
        }
    }

    /// Who submitted the request and how urgently it should be served.
    pub fn tenancy(&self) -> Tenancy {
        match self {
            Request::RecommendMask { tenancy, .. } | Request::Execute { tenancy, .. } => *tenancy,
        }
    }
}

/// How a recommendation was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Served from the mask cache (possibly after coalescing behind a
    /// concurrent identical search).
    CacheHit,
    /// A fresh search ran to completion for this request.
    FreshSearch,
    /// A fresh search ran, but at least one neighborhood degraded to the
    /// conservative all-DD fallback (backend unavailability).
    DegradedAllDd,
    /// The request's deadline expired mid-search: completed
    /// neighborhoods keep their merged bits, the rest fall back to
    /// all-DD. Partial masks are served but never cached — the next
    /// request for the key searches afresh with its own budget.
    PartialSearch,
    /// The device's circuit breaker is open; the backend was not
    /// touched. The mask is the cached one when available, otherwise
    /// the conservative all-DD mask. Never cached.
    BreakerFallback,
    /// The tier-0 calibration-only heuristic answered because the
    /// deadline could not fit a search (or the budget pinned
    /// [`TierPolicy::HeuristicOnly`]). Deterministic, zero decoy runs,
    /// never cached — a background refine upgrades the key when the
    /// tier policy allows.
    Heuristic,
    /// A superseded-epoch cache value within the configured staleness
    /// bound, served while a background refine re-searches the key at
    /// the current epoch. Never cached at the requested epoch.
    StaleServed {
        /// How many epochs behind the current calibration the served
        /// mask is (≥ 1).
        age_epochs: u64,
    },
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::CacheHit => write!(f, "cache-hit"),
            Provenance::FreshSearch => write!(f, "fresh-search"),
            Provenance::DegradedAllDd => write!(f, "degraded-all-dd"),
            Provenance::PartialSearch => write!(f, "partial-search"),
            Provenance::BreakerFallback => write!(f, "breaker-fallback"),
            Provenance::Heuristic => write!(f, "heuristic"),
            Provenance::StaleServed { age_epochs } => write!(f, "stale-served:{age_epochs}"),
        }
    }
}

/// Per-request wall-clock accounting (microseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// Time spent queued before a worker picked the request up.
    pub queued_us: u64,
    /// Time the worker spent serving it.
    pub service_us: u64,
}

impl Timing {
    /// Queue + service time.
    pub fn total_us(&self) -> u64 {
        self.queued_us + self.service_us
    }
}

/// A mask recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recommendation {
    /// The cache key the request resolved to.
    pub key: MaskKey,
    /// The recommended mask.
    pub mask: DdMask,
    /// Decoy fidelity the mask scored when it was searched.
    pub decoy_fidelity: f64,
    /// Decoy executions the (original) search attempted.
    pub decoy_runs: usize,
    /// How this response was produced.
    pub provenance: Provenance,
    /// Whether the underlying search had degraded neighborhoods (carried
    /// by cache hits too, unlike [`Provenance::DegradedAllDd`] which
    /// marks the searching request itself).
    pub degraded: bool,
    /// Request timing.
    pub timing: Timing,
}

/// A completed execution.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Target device.
    pub device: DeviceId,
    /// Calibration epoch the program ran under.
    pub epoch: u64,
    /// Policy that was applied.
    pub policy: Policy,
    /// Mask the policy settled on.
    pub mask: DdMask,
    /// Program fidelity against the ideal output.
    pub fidelity: f64,
    /// DD pulses inserted into the final program.
    pub pulse_count: usize,
    /// Mask provenance when the policy consulted the cache (ADAPT only).
    pub provenance: Option<Provenance>,
    /// Request timing.
    pub timing: Timing,
}

/// A service response.
#[derive(Debug, Clone)]
pub enum Response {
    /// Answer to [`Request::RecommendMask`].
    Mask(Recommendation),
    /// Answer to [`Request::Execute`].
    Execution(Execution),
}

impl Response {
    /// Request timing, whichever variant.
    pub fn timing(&self) -> Timing {
        match self {
            Response::Mask(r) => r.timing,
            Response::Execution(e) => e.timing,
        }
    }
}

/// Typed service failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control: the queue is full. Back off for about
    /// `retry_after_ms` and resubmit.
    Rejected {
        /// Queue depth observed at rejection.
        queue_depth: usize,
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// The requested device is not in this service's registry.
    DeviceNotServed(DeviceId),
    /// The request's deadline expired before a full answer could be
    /// produced — at submission (born expired), while queued (dropped
    /// unexecuted), or after service when the answer would have arrived
    /// late and carried no conservative-fallback tag.
    DeadlineExceeded {
        /// Time counted against the budget when the request was given
        /// up on.
        elapsed_ms: u64,
        /// The request's budget.
        budget_ms: u64,
    },
    /// Admission control: the submitting tenant's token-bucket rate
    /// limit is exhausted. The request was not enqueued; back off for
    /// about `retry_after_ms` (when one full token will have refilled)
    /// and resubmit.
    QuotaExhausted {
        /// The rate-limited tenant.
        tenant: TenantId,
        /// Time until the bucket refills one token.
        retry_after_ms: u64,
    },
    /// The device's circuit breaker is open and the request is an
    /// execution, which no conservative mask can stand in for. Back off
    /// for about `retry_after_ms`, or retarget.
    DeviceUnhealthy {
        /// The device whose breaker is open.
        device: DeviceId,
        /// Suggested client backoff before resubmitting.
        retry_after_ms: u64,
    },
    /// The service configuration failed validation at start, or a
    /// request failed the admission rule at submit.
    InvalidConfig {
        /// The first violation found.
        reason: String,
    },
    /// The search or execution failed (typed, including
    /// [`adapt::SearchError::TooLarge`] for oversized sweeps).
    Failed(AdaptError),
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The worker serving this request panicked; the pool survived and
    /// the panic was counted.
    Internal {
        /// Best-effort panic payload.
        reason: String,
    },
    /// The response channel was dropped without an answer (should not
    /// happen while the service is running).
    Lost,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected {
                queue_depth,
                retry_after_ms,
            } => write!(
                f,
                "rejected: queue full at depth {queue_depth}, retry after ~{retry_after_ms} ms"
            ),
            ServiceError::DeviceNotServed(id) => write!(f, "device {id} is not served"),
            ServiceError::DeadlineExceeded {
                elapsed_ms,
                budget_ms,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ms} ms elapsed against a {budget_ms} ms budget"
            ),
            ServiceError::QuotaExhausted {
                tenant,
                retry_after_ms,
            } => write!(
                f,
                "tenant {tenant} quota exhausted, retry after ~{retry_after_ms} ms"
            ),
            ServiceError::DeviceUnhealthy {
                device,
                retry_after_ms,
            } => write!(
                f,
                "device {device} is unhealthy (breaker open), retry after ~{retry_after_ms} ms"
            ),
            ServiceError::InvalidConfig { reason } => {
                write!(f, "invalid service configuration: {reason}")
            }
            ServiceError::Failed(e) => write!(f, "request failed: {e}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Internal { reason } => write!(f, "internal worker failure: {reason}"),
            ServiceError::Lost => write!(f, "response channel lost"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<AdaptError> for ServiceError {
    fn from(e: AdaptError) -> Self {
        ServiceError::Failed(e)
    }
}

/// [`ServiceError::InvalidConfig`] with `reason`.
fn invalid(reason: impl std::fmt::Display) -> ServiceError {
    ServiceError::InvalidConfig {
        reason: reason.to_string(),
    }
}

/// Service-wide counters (all monotonic since start).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests that passed admission control (queued, or answered on
    /// the submitting thread).
    pub accepted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Rejections because the queue was full.
    pub rejected_queue: u64,
    /// Rejections because the request's deadline was already expired at
    /// submission.
    pub rejected_deadline: u64,
    /// Rejections because the submitting tenant's token-bucket quota
    /// was exhausted.
    pub rejected_quota: u64,
    /// Requests completed (ok or typed error).
    pub completed: u64,
    /// Of `completed`, the requests [`MaskService::submit`] answered on
    /// the submitting thread from the serving map, without a worker.
    pub inline_hits: u64,
    /// Requests answered with a typed error.
    pub failed: u64,
    /// Fresh searches executed (cache misses that ran to completion).
    pub searches: u64,
    /// Worker panics caught (pool kept serving).
    pub worker_panics: u64,
    /// Queued jobs whose deadline expired before a worker reached them
    /// (answered with the typed error, never executed).
    pub deadline_dropped: u64,
    /// Requests answered with [`ServiceError::DeadlineExceeded`]
    /// (dropped-in-queue, interrupted in flight, or finished late with
    /// no conservative-fallback tag).
    pub deadline_exceeded: u64,
    /// Searches cut short by their deadline and served as conservative
    /// partial masks (not cached).
    pub partial_searches: u64,
    /// Requests served the breaker's cached/all-DD fallback mask.
    pub breaker_fallbacks: u64,
    /// Circuit-breaker trips (closed → open).
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries (half-open probe succeeded).
    pub breaker_recoveries: u64,
    /// Requests answered by the tier-0 calibration-only heuristic.
    pub heuristic_served: u64,
    /// Requests answered from the superseded-epoch stale store.
    pub stale_served: u64,
    /// Refine jobs accepted into the background lane.
    pub refines_enqueued: u64,
    /// Refine searches that completed and upgraded their cache entry.
    pub refines_completed: u64,
    /// Refine jobs dropped (lane full or disabled, epoch moved on, or
    /// the search failed); their single-flight tickets were released.
    pub refines_dropped: u64,
    /// Hot keys scheduled for next-epoch characterization by
    /// [`MaskService::prewarm_epoch`].
    pub prewarm_scheduled: u64,
    /// [`logical_hash`] computations on the request path: one per
    /// program the program book does not hold yet (in `resolve` or in
    /// [`MaskService::logical_hash_of`]). A hit on a booked program adds
    /// none, at any epoch.
    pub logical_hashes: u64,
    /// Deepest queue observed at submission.
    pub peak_queue_depth: usize,
}

/// The service's `adapt_service_*` metric handles, resolved once at
/// start. These *are* the service counters — [`MaskService::stats`]
/// reads them back — so the registry they live in is always enabled.
struct Metrics {
    /// Submissions received (accepted + rejected).
    requests: adapt_obs::Counter,
    accepted: adapt_obs::Counter,
    rejected: adapt_obs::Counter,
    rejected_queue: adapt_obs::Counter,
    rejected_deadline: adapt_obs::Counter,
    rejected_quota: adapt_obs::Counter,
    completed: adapt_obs::Counter,
    inline_hits: adapt_obs::Counter,
    failed: adapt_obs::Counter,
    searches: adapt_obs::Counter,
    worker_panics: adapt_obs::Counter,
    deadline_dropped: adapt_obs::Counter,
    deadline_exceeded: adapt_obs::Counter,
    partial_searches: adapt_obs::Counter,
    /// Resolved by name from the same registry the [`HealthTracker`]
    /// publishes into, so `stats()` can read the breaker counters back.
    breaker_fallbacks: adapt_obs::Counter,
    breaker_trips: adapt_obs::Counter,
    breaker_recoveries: adapt_obs::Counter,
    heuristic_served: adapt_obs::Counter,
    stale_served: adapt_obs::Counter,
    refines_enqueued: adapt_obs::Counter,
    refines_completed: adapt_obs::Counter,
    refines_dropped: adapt_obs::Counter,
    prewarm_scheduled: adapt_obs::Counter,
    logical_hashes: adapt_obs::Counter,
    /// Enqueue-to-upgrade latency of completed refines.
    refine_us: adapt_obs::Histogram,
    queue_depth: adapt_obs::Gauge,
    peak_queue_depth: adapt_obs::Gauge,
    queued_us: adapt_obs::Histogram,
    service_us: adapt_obs::Histogram,
    request_us: adapt_obs::Histogram,
    /// Total service time of completed requests, for the backpressure
    /// retry-after estimate.
    service_us_total: adapt_obs::Counter,
    /// Service time and count of requests that actually ran a search
    /// (fresh, degraded, or partial provenance) — the population a
    /// rejected client about to trigger a search belongs to, which is
    /// what the retry-after estimate should be based on. Sub-ms cache
    /// and heuristic hits are excluded so they cannot drag the mean
    /// down (the old bug).
    fresh_service_us_total: adapt_obs::Counter,
    fresh_completed: adapt_obs::Counter,
}

impl Metrics {
    fn for_registry(r: &adapt_obs::Registry) -> Self {
        Metrics {
            requests: r.counter("adapt_service_requests_total"),
            accepted: r.counter("adapt_service_accepted_total"),
            rejected: r.counter("adapt_service_rejected_total"),
            rejected_queue: r.counter("adapt_service_rejected_queue_total"),
            rejected_deadline: r.counter("adapt_service_rejected_deadline_total"),
            rejected_quota: r.counter("adapt_service_rejected_quota_total"),
            completed: r.counter("adapt_service_completed_total"),
            inline_hits: r.counter("adapt_service_inline_hits_total"),
            failed: r.counter("adapt_service_failed_total"),
            searches: r.counter("adapt_service_searches_total"),
            worker_panics: r.counter("adapt_service_worker_panics_total"),
            deadline_dropped: r.counter("adapt_service_deadline_dropped_total"),
            deadline_exceeded: r.counter("adapt_service_deadline_exceeded_total"),
            partial_searches: r.counter("adapt_service_partial_searches_total"),
            breaker_fallbacks: r.counter("adapt_service_breaker_fallbacks_total"),
            breaker_trips: r.counter("adapt_service_breaker_trips_total"),
            breaker_recoveries: r.counter("adapt_service_breaker_recoveries_total"),
            heuristic_served: r.counter("adapt_service_heuristic_served_total"),
            stale_served: r.counter("adapt_service_stale_served_total"),
            refines_enqueued: r.counter("adapt_service_refines_enqueued_total"),
            refines_completed: r.counter("adapt_service_refines_completed_total"),
            refines_dropped: r.counter("adapt_service_refines_dropped_total"),
            prewarm_scheduled: r.counter("adapt_service_prewarm_scheduled_total"),
            logical_hashes: r.counter("adapt_service_logical_hashes_total"),
            refine_us: r.histogram("adapt_service_refine_us"),
            queue_depth: r.gauge("adapt_service_queue_depth"),
            peak_queue_depth: r.gauge("adapt_service_peak_queue_depth"),
            queued_us: r.histogram("adapt_service_queued_us"),
            service_us: r.histogram("adapt_service_service_us"),
            request_us: r.histogram("adapt_service_request_us"),
            service_us_total: r.counter("adapt_service_service_us_total"),
            fresh_service_us_total: r.counter("adapt_service_fresh_service_us_total"),
            fresh_completed: r.counter("adapt_service_fresh_completed_total"),
        }
    }
}

/// The per-tenant `adapt_service_tenant_*` metrics. Each tenant gets a
/// lazily-created private registry; [`MaskService::render_tenant_metrics`]
/// merges them into one exposition with a `tenant="tN"` label per series
/// (the same `inject_label` machinery the fleet uses for shard labels).
struct TenantMetrics {
    registry: Arc<adapt_obs::Registry>,
    accepted: adapt_obs::Counter,
    rejected_quota: adapt_obs::Counter,
    completed: adapt_obs::Counter,
    deadline_exceeded: adapt_obs::Counter,
    inflight: adapt_obs::Gauge,
    request_us: adapt_obs::Histogram,
}

impl TenantMetrics {
    fn new() -> Self {
        let registry = Arc::new(adapt_obs::Registry::new());
        TenantMetrics {
            accepted: registry.counter("adapt_service_tenant_accepted_total"),
            rejected_quota: registry.counter("adapt_service_tenant_rejected_quota_total"),
            completed: registry.counter("adapt_service_tenant_completed_total"),
            deadline_exceeded: registry.counter("adapt_service_tenant_deadline_exceeded_total"),
            inflight: registry.gauge("adapt_service_tenant_inflight"),
            request_us: registry.histogram("adapt_service_tenant_request_us"),
            registry,
        }
    }
}

struct Job {
    request: Request,
    reply: Sender<Result<Response, ServiceError>>,
    enqueued: Instant,
    deadline: Deadline,
    /// Breaker verdict taken at submission, under the queue lock, so
    /// admission order is submission order.
    admission: Admission,
}

/// One queued background-refine search: the single-flight ticket for
/// the target key plus everything the search needs. Dropping the job
/// drops the ticket, releasing the key.
struct RefineJob {
    ticket: SearchTicket,
    /// The program compiled for the key's epoch.
    compiled: Arc<transpiler::TranspiledCircuit>,
    /// Qubits of the logical program.
    qubits: usize,
    budget: SearchBudget,
    enqueued: Instant,
}

struct QueueState {
    /// The multi-tenant ready queue: strict class priority, weighted-
    /// fair round-robin across tenants within a class, EDF within a
    /// tenant's lane (replaces the old FIFO deque).
    jobs: TenantScheduler<Job>,
    /// Per-tenant token buckets consulted at admission, under this same
    /// lock so accept/reject order equals submission order.
    quotas: QuotaBook,
    /// Low-priority refine lane: a worker only pops from it when `jobs`
    /// is empty and fewer than `REFINE_CONCURRENCY` refines are running.
    refine: VecDeque<RefineJob>,
    /// Refine searches currently executing on workers.
    refine_active: usize,
    /// Chaos hook: a disabled refiner drops incoming and queued refine
    /// jobs (tickets released) instead of running them.
    refiner_enabled: bool,
}

impl QueueState {
    fn new(tenancy: TenancyConfig, virtual_time: bool) -> Self {
        QueueState {
            jobs: TenantScheduler::new(),
            quotas: QuotaBook::new(tenancy, virtual_time),
            refine: VecDeque::new(),
            refine_active: 0,
            refiner_enabled: true,
        }
    }
}

struct Queue {
    state: Mutex<QueueState>,
    available: Condvar,
    /// Signalled whenever the refine lane may have gone idle (empty
    /// deque and nothing executing) — [`MaskService::drain_refines`]
    /// waits on it.
    refine_idle: Condvar,
}

impl Queue {
    fn new(tenancy: TenancyConfig, virtual_time: bool) -> Self {
        Queue {
            state: Mutex::new(QueueState::new(tenancy, virtual_time)),
            available: Condvar::new(),
            refine_idle: Condvar::new(),
        }
    }
}

/// Everything the worker threads share.
struct Shared {
    config: ServiceConfig,
    registry: DeviceRegistry,
    cache: Arc<MaskCache>,
    queue: Queue,
    metrics: Metrics,
    /// The (always enabled) registry backing [`Shared::metrics`].
    obs: Arc<adapt_obs::Registry>,
    /// Per-device circuit breakers.
    health: HealthTracker,
    /// Runtime per-device fault-profile overrides (chaos schedules flip
    /// these mid-run); devices not in the map use the config profile.
    fault_overrides: Mutex<HashMap<DeviceId, FaultProfile>>,
    /// Bounded LRU book of recently resolved logical programs by device
    /// and [`program_fingerprint`], holding at most `cache_capacity`
    /// programs. It is the resolution memo: each entry keeps its
    /// program's [`logical_hash`] and compiled circuit for the newest
    /// epoch, so [`resolve`] answers a repeat without hashing or
    /// transpiling. [`MaskService::prewarm_epoch`] also rebuilds hot
    /// keys' programs from it (a [`StaleKey`] alone cannot) and leaves
    /// their next-epoch resolutions in it.
    programs: Mutex<ProgramBook>,
    /// Lazily-created per-tenant metric sets, merged into one
    /// tenant-labelled exposition by
    /// [`MaskService::render_tenant_metrics`].
    tenant_metrics: Mutex<BTreeMap<TenantId, Arc<TenantMetrics>>>,
    /// Durability engine (`None` when persistence is disabled): journal
    /// sink target, snapshot writer, recovery reporter.
    persist: Option<Arc<Persister>>,
    shutdown: AtomicBool,
}

/// The (lazily-created) metric set of `tenant`.
fn tenant_metrics(shared: &Shared, tenant: TenantId) -> Arc<TenantMetrics> {
    Arc::clone(
        lock(&shared.tenant_metrics)
            .entry(tenant)
            .or_insert_with(|| Arc::new(TenantMetrics::new())),
    )
}

/// A logical program on one device, `(device, program_fingerprint)`: the
/// key of the [`ProgramBook`].
type ProgramKey = (DeviceId, u64);

/// One transpile of a logical program against one calibration epoch.
#[derive(Clone)]
struct Resolution {
    epoch: u64,
    compiled: Arc<transpiler::TranspiledCircuit>,
    /// [`machine::structural_hash`] of `compiled.timed`.
    circuit_hash: u64,
}

impl Resolution {
    /// Transpiles `circuit` for `machine`, the device at `epoch`.
    fn new(circuit: &qcirc::Circuit, epoch: u64, machine: &Machine) -> Self {
        let compiled = transpile(circuit, machine.device(), &TranspileOptions::default());
        Resolution {
            epoch,
            circuit_hash: machine::structural_hash(&compiled.timed),
            compiled: Arc::new(compiled),
        }
    }
}

/// A book entry: the program, its persisted identity and its
/// resolutions.
struct Program {
    circuit: qcirc::Circuit,
    /// [`logical_hash`] of `circuit`, computed once when the entry was
    /// made.
    logical_hash: u64,
    /// The resolution at the newest epoch a request resolved it at;
    /// `None` for a program booked by [`MaskService::logical_hash_of`]
    /// that no request has resolved yet.
    resolution: Option<Resolution>,
    /// A resolution at a later epoch, made by
    /// [`MaskService::prewarm_epoch`]; the first request at that epoch
    /// promotes it to `resolution`.
    prewarmed: Option<Resolution>,
    /// Last-use stamp backing the LRU policy.
    stamp: u64,
}

/// Bounded LRU book of logical programs by device and
/// [`program_fingerprint`], each with its [`logical_hash`] and its
/// resolution at the newest epoch a request resolved it at (the
/// [`PlanCache`](machine::PlanCache) stamp idiom: every hit touches its
/// entry, eviction drops the smallest stamp). Entries match only a
/// circuit equal bit for bit, so two programs colliding on one
/// fingerprint never share a resolution or a logical hash.
#[derive(Default)]
struct ProgramBook {
    map: HashMap<ProgramKey, Program>,
    /// Monotonic use counter backing the LRU policy.
    tick: u64,
}

impl ProgramBook {
    /// The entry of `circuit` under `key`, touched as most recently used.
    fn touch(&mut self, key: &ProgramKey, circuit: &qcirc::Circuit) -> Option<&mut Program> {
        self.tick += 1;
        let entry = self.map.get_mut(key)?;
        entry.stamp = self.tick;
        Some(entry).filter(|p| same_program(&p.circuit, circuit))
    }

    /// What the book holds for `circuit` at `epoch`: its logical hash,
    /// and its resolution at `epoch` if one is booked (a prewarmed one is
    /// promoted).
    fn lookup(
        &mut self,
        key: &ProgramKey,
        circuit: &qcirc::Circuit,
        epoch: u64,
    ) -> Option<(u64, Option<Resolution>)> {
        let entry = self.touch(key, circuit)?;
        if let Some(prewarmed) = entry.prewarmed.take_if(|r| r.epoch == epoch) {
            entry.resolution = Some(prewarmed);
        }
        let resolution = entry.resolution.as_ref().filter(|r| r.epoch == epoch);
        Some((entry.logical_hash, resolution.cloned()))
    }

    /// The logical hash of `circuit` if it is booked under `key`; the
    /// entry is not touched.
    fn logical_hash(&self, key: &ProgramKey, circuit: &qcirc::Circuit) -> Option<u64> {
        let entry = self.map.get(key)?;
        same_program(&entry.circuit, circuit).then_some(entry.logical_hash)
    }

    /// The program of `device` whose logical hash is `logical`, touched:
    /// its key, its circuit and its prewarmed resolution at `epoch`, if
    /// any. A scan of the whole book, so for [`MaskService::prewarm_epoch`]
    /// only.
    fn find(
        &mut self,
        device: DeviceId,
        logical: u64,
        epoch: u64,
    ) -> Option<(ProgramKey, qcirc::Circuit, Option<Resolution>)> {
        self.tick += 1;
        let (key, entry) = self
            .map
            .iter_mut()
            .find(|(key, p)| key.0 == device && p.logical_hash == logical)?;
        entry.stamp = self.tick;
        let prewarmed = entry.prewarmed.clone().filter(|r| r.epoch == epoch);
        Some((*key, entry.circuit.clone(), prewarmed))
    }

    /// Keeps `resolution` of `circuit` as its prewarmed resolution, when
    /// the program is still booked under `key` and not resolved at that
    /// epoch or a later one.
    fn prewarm(&mut self, key: &ProgramKey, circuit: &qcirc::Circuit, resolution: Resolution) {
        if let Some(entry) = self.map.get_mut(key) {
            let older = entry.resolution.as_ref();
            if same_program(&entry.circuit, circuit)
                && older.is_none_or(|older| resolution.epoch > older.epoch)
            {
                entry.prewarmed = Some(resolution);
            }
        }
    }

    /// Records `circuit` (whose logical hash is `logical`) under `key`
    /// with `resolution`, if any, evicting the least recently used
    /// program when the book is full. An entry for the same program
    /// keeps whichever resolution is of the newer epoch; a different
    /// program colliding on `key` replaces it.
    fn record(
        &mut self,
        key: ProgramKey,
        circuit: &qcirc::Circuit,
        logical: u64,
        resolution: Option<Resolution>,
        capacity: usize,
    ) {
        if capacity == 0 {
            return;
        }
        self.tick += 1;
        let stamp = self.tick;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.stamp = stamp;
            if !same_program(&entry.circuit, circuit) {
                *entry = Program {
                    circuit: circuit.clone(),
                    logical_hash: logical,
                    resolution,
                    prewarmed: None,
                    stamp,
                };
            } else if let Some(resolution) = resolution {
                let older = entry.resolution.as_ref();
                if older.is_none_or(|older| resolution.epoch >= older.epoch) {
                    entry.prewarmed.take_if(|r| r.epoch <= resolution.epoch);
                    entry.resolution = Some(resolution);
                }
            }
            return;
        }
        if self.map.len() >= capacity {
            if let Some(&lru) = self.map.iter().min_by_key(|(_, p)| p.stamp).map(|(k, _)| k) {
                self.map.remove(&lru);
            }
        }
        self.map.insert(
            key,
            Program {
                circuit: circuit.clone(),
                logical_hash: logical,
                resolution,
                prewarmed: None,
                stamp,
            },
        );
    }
}

/// Response handle returned by [`MaskService::submit`]: the answer
/// itself when `submit` answered a cache hit on the caller's thread,
/// else the channel a worker answers on.
#[derive(Debug)]
pub struct Pending(PendingAnswer);

#[derive(Debug)]
enum PendingAnswer {
    Ready(Result<Response, ServiceError>),
    Queued(Receiver<Result<Response, ServiceError>>),
}

impl Pending {
    /// The answer: at once when `submit` answered the request on the
    /// caller's thread, else once a worker answers it (blocking until
    /// then).
    pub fn wait(self) -> Result<Response, ServiceError> {
        match self.0 {
            PendingAnswer::Ready(answer) => answer,
            PendingAnswer::Queued(rx) => rx.recv().unwrap_or(Err(ServiceError::Lost)),
        }
    }
}

/// The long-running mask-recommendation service (see crate docs).
pub struct MaskService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Background snapshot thread (`None` when persistence is disabled
    /// or the interval is 0) and its kill-switch.
    persist_thread: Option<JoinHandle<()>>,
    persist_stop: Arc<(Mutex<bool>, Condvar)>,
}

impl std::fmt::Debug for MaskService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaskService")
            .field("workers", &self.workers.len())
            .field("devices", &self.shared.registry.devices())
            .finish_non_exhaustive()
    }
}

impl MaskService {
    /// Builds the registry and starts the worker pool.
    ///
    /// # Panics
    ///
    /// On an invalid configuration; use [`Self::try_start`] to get the
    /// typed [`ServiceError::InvalidConfig`] instead.
    pub fn start(config: ServiceConfig) -> Self {
        match Self::try_start(config) {
            Ok(service) => service,
            Err(e) => panic!("invalid service config: {e}"),
        }
    }

    /// [`Self::start`] with configuration validation surfaced as a
    /// typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when the configuration fails
    /// [`ServiceConfig::validate`].
    pub fn try_start(config: ServiceConfig) -> Result<Self, ServiceError> {
        config.validate()?;
        let registry = DeviceRegistry::new(&config.devices, config.seed);
        // The obs registry doubles as the service's own accounting, so a
        // disabled one is swapped for a private enabled registry.
        let obs = if config.registry.is_enabled() {
            Arc::clone(&config.registry)
        } else {
            Arc::new(adapt_obs::Registry::new())
        };
        let cache = Arc::new(MaskCache::with_registry(config.cache_capacity, &obs));
        let health = HealthTracker::new(config.breaker, &config.devices, &obs);
        // Durability: replay snapshot + journal into the fresh cache and
        // registry (quarantining anything that fails validation), then
        // install the journal sink — recovery restores must not journal
        // themselves into the WAL they are compacting.
        let persist = match &config.persist.dir {
            Some(dir) => {
                let p = Persister::new(dir, config.persist.fsync, &obs)
                    .map_err(|e| invalid(format_args!("persist dir {}: {e}", dir.display())))?;
                let p = Arc::new(p);
                p.recover(&cache, &registry)
                    .map_err(|e| ServiceError::Internal {
                        reason: format!("durability recovery failed: {e}"),
                    })?;
                p.install(&cache);
                Some(p)
            }
            None => None,
        };
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            registry,
            cache,
            queue: Queue::new(config.tenancy.clone(), config.virtual_time),
            metrics: Metrics::for_registry(&obs),
            obs,
            health,
            fault_overrides: Mutex::new(HashMap::new()),
            programs: Mutex::new(ProgramBook::default()),
            tenant_metrics: Mutex::new(BTreeMap::new()),
            persist,
            shutdown: AtomicBool::new(false),
            config,
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("adapt-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        let persist_stop: Arc<(Mutex<bool>, Condvar)> =
            Arc::new((Mutex::new(false), Condvar::new()));
        let interval_ms = shared.config.persist.snapshot_interval_ms;
        let persist_thread = (shared.persist.is_some() && interval_ms > 0).then(|| {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&persist_stop);
            std::thread::Builder::new()
                .name("adapt-persist".to_string())
                .spawn(move || persist_loop(&shared, &stop, Duration::from_millis(interval_ms)))
                .expect("spawn persist thread")
        });
        Ok(MaskService {
            shared,
            workers,
            persist_thread,
            persist_stop,
        })
    }

    /// Submits a request: the admission rule ([`check_circuit`],
    /// [`SearchBudget::validate`] and the DD protocol's own check), then
    /// admission control. A recommendation whose program is resolved at
    /// the device's current epoch and whose key is cached is answered on
    /// the calling thread, with the same admission, answer and counters
    /// as through a worker (DESIGN §10); every other request is queued.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when the request fails the
    /// admission rule, [`ServiceError::Rejected`] when the queue is at
    /// capacity (the request was *not* enqueued — back off and resubmit;
    /// the hint is the larger of the queue-drain estimate and the target
    /// device's breaker-open hint), [`ServiceError::DeadlineExceeded`]
    /// when the request's deadline is already expired at submission (not
    /// enqueued), and [`ServiceError::ShuttingDown`] after
    /// [`Self::shutdown`] began.
    pub fn submit(&self, request: Request) -> Result<Pending, ServiceError> {
        let device = request.device();
        let qubits = self.shared.registry.num_qubits(device);
        check_circuit(request.circuit(), device, qubits)?;
        if let Request::RecommendMask {
            budget, protocol, ..
        } = &request
        {
            budget.validate().map_err(invalid)?;
            protocol.validate().map_err(invalid)?;
        }
        let cached = cached_resolution(&self.shared, &request);
        self.enqueue(request, cached)
    }

    /// Admission control, for a request that passed the admission rule;
    /// then the answer on this thread when `cached` resolves it to a
    /// cached key, else the queue.
    fn enqueue(&self, request: Request, cached: Option<Resolved>) -> Result<Pending, ServiceError> {
        let shared = &self.shared;
        let tenant = request.tenancy().tenant;
        let deadline = match request.deadline_ms() {
            Some(b) if shared.config.virtual_time => Deadline::virtual_only(b),
            Some(b) => Deadline::within_ms(b),
            None => Deadline::none(),
        };
        let mut state = lock(&shared.queue.state);
        let admission = self.admit(&mut state, &request, &deadline)?;
        let Some(r) = cached else {
            let pending = push(shared, &mut state, request, deadline, admission);
            drop(state);
            count_accepted(shared, tenant);
            shared.queue.available.notify_one();
            return Ok(pending);
        };
        drop(state);
        count_accepted(shared, tenant);
        let inline = answer(shared, &request, &deadline, admission, 0, || {
            cached_answer(shared, &request, &r, &deadline, admission).map(Ok)
        });
        if let Some(reply) = inline {
            shared.metrics.inline_hits.inc();
            return Ok(Pending(PendingAnswer::Ready(reply)));
        }
        // The key left the serving map after the check: a worker answers
        // it, under the admission it already took.
        let pending = push(
            shared,
            &mut lock(&shared.queue.state),
            request,
            deadline,
            admission,
        );
        shared.queue.available.notify_one();
        Ok(pending)
    }

    /// The admission checks, in order, under the queue lock: shutdown,
    /// queue depth, a deadline expired before submission, the tenant's
    /// quota draw and the breaker's verdict, which is returned. Each
    /// rejection is counted.
    fn admit(
        &self,
        state: &mut QueueState,
        request: &Request,
        deadline: &Deadline,
    ) -> Result<Admission, ServiceError> {
        let shared = &self.shared;
        let device = request.device();
        let tenant = request.tenancy().tenant;
        // Checked under the queue lock: shutdown drains the queue while
        // holding it, so a submit can never slip a job in after the
        // drain.
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        let depth = state.jobs.len();
        shared.metrics.requests.inc();
        if depth >= shared.config.queue_capacity {
            shared.metrics.rejected.inc();
            shared.metrics.rejected_queue.inc();
            return Err(ServiceError::Rejected {
                queue_depth: depth,
                retry_after_ms: self
                    .retry_after_ms(depth)
                    .max(shared.health.retry_hint_ms(device)),
            });
        }
        // A born-expired deadline never earns a queue slot.
        if deadline.check().is_err() {
            shared.metrics.rejected.inc();
            shared.metrics.rejected_deadline.inc();
            shared.metrics.deadline_exceeded.inc();
            return Err(deadline_error(deadline));
        }
        // The tenant's token bucket is drawn under the queue lock too, so
        // accept/reject order is exactly submission order — what makes
        // quota rejections replay bit-identically in virtual-time mode.
        if let Err(retry_after_ms) = state.quotas.try_take(tenant) {
            shared.metrics.rejected.inc();
            shared.metrics.rejected_quota.inc();
            tenant_metrics(shared, tenant).rejected_quota.inc();
            return Err(ServiceError::QuotaExhausted {
                tenant,
                retry_after_ms,
            });
        }
        // The breaker verdict is taken under the queue lock, so the
        // admission sequence (which drives cooldown counting and probe
        // hand-out) is exactly the accepted-submission order.
        Ok(shared.health.admit(device))
    }

    /// Submits and waits (convenience for sequential clients).
    ///
    /// # Errors
    ///
    /// See [`Self::submit`] and [`Pending::wait`].
    pub fn call(&self, request: Request) -> Result<Response, ServiceError> {
        self.submit(request)?.wait()
    }

    /// Drifts `device` to its next calibration epoch and invalidates all
    /// cached masks of older epochs. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DeviceNotServed`] for unregistered devices.
    pub fn advance_epoch(&self, device: DeviceId) -> Result<u64, ServiceError> {
        let epoch = self
            .shared
            .registry
            .advance_epoch(device)
            .ok_or(ServiceError::DeviceNotServed(device))?;
        self.shared.cache.invalidate_before(device, epoch);
        Ok(epoch)
    }

    /// Current calibration epoch of `device`.
    pub fn epoch(&self, device: DeviceId) -> Option<u64> {
        self.shared.registry.epoch(device)
    }

    /// The persisted [`logical_hash`] of `circuit` on `device`: the
    /// program book's copy when the program is booked, else computed
    /// (and counted in [`ServiceStats::logical_hashes`]) and booked
    /// without a resolution. A fleet shard checks ownership with it, so
    /// a program is hashed once: the request's resolve reads the hash
    /// this call booked.
    pub fn logical_hash_of(&self, device: DeviceId, circuit: &qcirc::Circuit) -> u64 {
        let shared = &self.shared;
        let program = (device, program_fingerprint(circuit));
        if let Some(logical) = lock(&shared.programs).logical_hash(&program, circuit) {
            return logical;
        }
        let logical = hash_program(shared, circuit);
        let capacity = shared.config.cache_capacity;
        lock(&shared.programs).record(program, circuit, logical, None, capacity);
        logical
    }

    /// Schedules background characterization of `device`'s hottest keys
    /// against its *next* calibration epoch — call right before the
    /// epoch is advanced, so the hot working set is already cached when
    /// [`Self::advance_epoch`] invalidates the current one and drift
    /// never turns into a cold-miss storm. Uses the top four identities
    /// of the cache's hot-key ring whose logical program is still in the
    /// program book (found by a scan of the book, at most
    /// `cache_capacity` entries). Each program's next-epoch transpile is
    /// kept in its book entry, so the first request after the advance
    /// does not transpile it again. Returns how many refines were
    /// scheduled (keys already cached, already in flight, or with a full
    /// refine lane are skipped).
    ///
    /// # Errors
    ///
    /// [`ServiceError::DeviceNotServed`] for unregistered devices.
    pub fn prewarm_epoch(&self, device: DeviceId) -> Result<usize, ServiceError> {
        let shared = &self.shared;
        let (next_epoch, machine) = shared
            .registry
            .peek_next_epoch(device)
            .ok_or(ServiceError::DeviceNotServed(device))?;
        let hot = shared.cache.hot_keys(device, PREWARM_TOP_K);
        let mut scheduled = 0usize;
        for stale_key in hot {
            let logical = stale_key.logical_hash;
            let found = lock(&shared.programs).find(device, logical, next_epoch);
            let Some((program, circuit, prewarmed)) = found else {
                continue;
            };
            // Kept beside the current epoch's resolution, which requests
            // keep hitting until the epoch advances; the first request
            // after that promotes it.
            let resolution = prewarmed.unwrap_or_else(|| {
                let resolution = Resolution::new(&circuit, next_epoch, &machine);
                lock(&shared.programs).prewarm(&program, &circuit, resolution.clone());
                resolution
            });
            let r = Resolved::new(shared, device, logical, stale_key.protocol, resolution);
            if let Some(ticket) = MaskCache::try_ticket(&shared.cache, r.key, r.stale_key) {
                let budget = shared.config.default_budget;
                if enqueue_refine(shared, ticket, &r.compiled, circuit.num_qubits(), budget) {
                    scheduled += 1;
                }
            }
        }
        shared.metrics.prewarm_scheduled.add(scheduled as u64);
        Ok(scheduled)
    }

    /// Blocks until the background-refine lane is idle: no queued refine
    /// jobs and none executing. The deterministic harnesses use it as a
    /// barrier between scenario phases, so which refines have landed is
    /// a function of the scenario script rather than of scheduling.
    pub fn drain_refines(&self) {
        let mut state = lock(&self.shared.queue.state);
        while !(state.refine.is_empty() && state.refine_active == 0) {
            state = self
                .shared
                .queue
                .refine_idle
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Enables or disables the background-refine lane. Disabling drops
    /// every queued refine job (their single-flight tickets are
    /// released, so blocked or future lookups can re-own the keys) and
    /// makes later enqueues no-ops — the chaos harness kills the lane
    /// mid-run with this and asserts the service degrades to heuristic
    /// answers instead of wedging.
    pub fn set_refiner_enabled(&self, enabled: bool) {
        let dropped = {
            let mut state = lock(&self.shared.queue.state);
            state.refiner_enabled = enabled;
            if enabled {
                Vec::new()
            } else {
                state.refine.drain(..).collect::<Vec<_>>()
            }
        };
        if !dropped.is_empty() {
            self.shared
                .metrics
                .refines_dropped
                .add(dropped.len() as u64);
        }
        drop(dropped); // tickets release outside the queue lock
        self.shared.queue.refine_idle.notify_all();
    }

    /// Service-wide counters.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.shared.metrics;
        ServiceStats {
            accepted: m.accepted.get(),
            rejected: m.rejected.get(),
            rejected_queue: m.rejected_queue.get(),
            rejected_deadline: m.rejected_deadline.get(),
            rejected_quota: m.rejected_quota.get(),
            completed: m.completed.get(),
            inline_hits: m.inline_hits.get(),
            failed: m.failed.get(),
            searches: m.searches.get(),
            worker_panics: m.worker_panics.get(),
            deadline_dropped: m.deadline_dropped.get(),
            deadline_exceeded: m.deadline_exceeded.get(),
            partial_searches: m.partial_searches.get(),
            breaker_fallbacks: m.breaker_fallbacks.get(),
            breaker_trips: m.breaker_trips.get(),
            breaker_recoveries: m.breaker_recoveries.get(),
            heuristic_served: m.heuristic_served.get(),
            stale_served: m.stale_served.get(),
            refines_enqueued: m.refines_enqueued.get(),
            refines_completed: m.refines_completed.get(),
            refines_dropped: m.refines_dropped.get(),
            prewarm_scheduled: m.prewarm_scheduled.get(),
            logical_hashes: m.logical_hashes.get(),
            peak_queue_depth: m.peak_queue_depth.get().max(0) as usize,
        }
    }

    /// Current breaker state of `device` (`None` for devices this
    /// service does not serve).
    pub fn breaker_state(&self, device: DeviceId) -> Option<BreakerState> {
        self.shared.health.state(device)
    }

    /// The full breaker transition log, in decision order. With a
    /// deterministic load (single client, single worker, seeded faults,
    /// virtual deadlines) two identical runs produce identical logs —
    /// the chaos harness asserts exactly that.
    pub fn breaker_transitions(&self) -> Vec<Transition> {
        self.shared.health.transitions()
    }

    /// Replaces the fault profile that per-request backends for
    /// `device` are built with (the config profile applies where no
    /// override is set). Chaos schedules flip these mid-run to make a
    /// device storm, die, or recover; only requests *submitted after*
    /// the call see the new profile.
    pub fn set_fault_profile(&self, device: DeviceId, profile: FaultProfile) {
        lock(&self.shared.fault_overrides).insert(device, profile);
    }

    /// Removes the fault-profile override of `device`, restoring the
    /// config profile.
    pub fn clear_fault_profile(&self, device: DeviceId) {
        lock(&self.shared.fault_overrides).remove(&device);
    }

    /// The (always enabled) metrics registry this service publishes
    /// `adapt_service_*` metrics into. Render it with
    /// [`adapt_obs::Registry::render_prometheus`] /
    /// [`adapt_obs::Registry::render_json`].
    pub fn metrics_registry(&self) -> Arc<adapt_obs::Registry> {
        Arc::clone(&self.shared.obs)
    }

    /// Mask-cache counters.
    pub fn cache_stats(&self) -> MaskCacheStats {
        self.shared.cache.stats()
    }

    /// Publishes a durability snapshot immediately (also resetting the
    /// journal). The deterministic harnesses use this instead of waiting
    /// out the background interval. Returns the record count.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when persistence is disabled,
    /// [`ServiceError::Internal`] when the write failed (the previous
    /// snapshot, if any, is still published).
    pub fn snapshot_now(&self) -> Result<usize, ServiceError> {
        let Some(p) = &self.shared.persist else {
            return Err(invalid(
                "persistence is not enabled (PersistConfig::dir is None)",
            ));
        };
        p.snapshot(&self.shared.cache, &self.shared.registry)
            .map_err(|e| ServiceError::Internal {
                reason: format!("snapshot failed: {e}"),
            })
    }

    /// Persistence counters (`None` when persistence is disabled).
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.shared.persist.as_ref().map(|p| p.stats())
    }

    /// What startup recovery restored and quarantined (`None` when
    /// persistence is disabled).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.shared.persist.as_ref().and_then(|p| p.last_recovery())
    }

    /// Stops accepting work, drains the queue with
    /// [`ServiceError::ShuttingDown`] replies, and joins the workers.
    /// Returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Answer queued-but-unserved requests so no client blocks
        // forever, and drop queued refines (tickets released).
        let dropped_refines = {
            let mut state = lock(&self.shared.queue.state);
            for job in state.jobs.drain() {
                tenant_metrics(&self.shared, job.request.tenancy().tenant)
                    .inflight
                    .add(-1);
                let _ = job.reply.send(Err(ServiceError::ShuttingDown));
            }
            self.shared.metrics.queue_depth.set(0);
            state.refine.drain(..).collect::<Vec<_>>()
        };
        self.shared
            .metrics
            .refines_dropped
            .add(dropped_refines.len() as u64);
        drop(dropped_refines);
        self.shared.queue.available.notify_all();
        self.shared.queue.refine_idle.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Durability epilogue, after the workers are gone (no more
        // inserts): stop the background snapshotter, then publish one
        // final snapshot so a clean shutdown recovers the whole warm set.
        {
            let (stop, cvar) = &*self.persist_stop;
            *lock(stop) = true;
            cvar.notify_all();
        }
        if let Some(h) = self.persist_thread.take() {
            let _ = h.join();
        }
        if let Some(p) = &self.shared.persist {
            let _ = p.snapshot(&self.shared.cache, &self.shared.registry);
        }
    }

    /// Advances the virtual quota clock by `ms`: refills every tenant's
    /// token bucket as if `ms` milliseconds of wall time had passed.
    /// Only meaningful with [`ServiceConfig::virtual_time`] set (it is a
    /// no-op otherwise) — the trace-replay harness drives admission
    /// entirely from this, so quota rejections are a pure function of
    /// the replayed schedule.
    pub fn advance_quota_ms(&self, ms: f64) {
        lock(&self.shared.queue.state).quotas.advance_ms(ms);
    }

    /// One Prometheus exposition of every tenant's
    /// `adapt_service_tenant_*` series, each labelled `tenant="tN"` —
    /// the same label-injection machinery the fleet uses for
    /// shard labels. Empty until the first tenant-attributed event.
    pub fn render_tenant_metrics(&self) -> String {
        let parts: Vec<(String, String)> = lock(&self.shared.tenant_metrics)
            .iter()
            .map(|(tenant, tm)| (tenant.to_string(), tm.registry.render_prometheus()))
            .collect();
        adapt_obs::merge_expositions("tenant", &parts)
    }

    /// Depth-proportional backoff hint: the observed mean service time
    /// tells a rejected client roughly when a queue slot frees up.
    fn retry_after_ms(&self, depth: usize) -> u64 {
        let m = &self.shared.metrics;
        let workers = self.shared.config.workers.max(1) as u64;
        retry_estimate_ms(
            depth as u64,
            workers,
            m.fresh_service_us_total.get(),
            m.fresh_completed.get(),
            m.service_us_total.get(),
            m.completed.get(),
        )
    }
}

/// The retry-after estimate behind [`ServiceError::Rejected`]: how long
/// `depth` queued requests take to drain across `workers` workers at the
/// observed mean service time.
///
/// The mean is taken over *search-running* completions only
/// (fresh/degraded/partial provenance). A rejected client is by
/// definition behind a full queue, and what fills queues is search work
/// — averaging in sub-ms cache and heuristic hits (the old behavior)
/// told clients to retry orders of magnitude too early, turning one
/// rejection into a retry storm. Falls back to the all-tier mean before
/// any search has completed, and to 50 ms per request with no data at
/// all.
fn retry_estimate_ms(
    depth: u64,
    workers: u64,
    fresh_us_total: u64,
    fresh_completed: u64,
    all_us_total: u64,
    all_completed: u64,
) -> u64 {
    let mean_us = fresh_us_total
        .checked_div(fresh_completed)
        .or_else(|| all_us_total.checked_div(all_completed))
        .unwrap_or(50_000);
    ((depth * mean_us) / workers.max(1) / 1000).max(1)
}

impl Drop for MaskService {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

enum Work {
    Client(Job),
    Refine(RefineJob),
}

/// Background snapshot loop: publish a snapshot every `interval` until
/// the kill-switch fires. Snapshot I/O errors are counted (in
/// `adapt_service_persist_snapshot_failures_total`) and retried on the
/// next tick — a full disk must degrade durability, not serving.
fn persist_loop(shared: &Arc<Shared>, stop: &Arc<(Mutex<bool>, Condvar)>, interval: Duration) {
    let (flag, cvar) = &**stop;
    let mut stopped = lock(flag);
    loop {
        if *stopped {
            return;
        }
        stopped = cvar
            .wait_timeout(stopped, interval)
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .0;
        if *stopped {
            return;
        }
        drop(stopped);
        if let Some(p) = &shared.persist {
            let _ = p.snapshot(&shared.cache, &shared.registry);
        }
        stopped = lock(flag);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (work, more_work) = {
            let mut state = lock(&shared.queue.state);
            loop {
                if let Some((_tenant, job)) = state.jobs.pop(&shared.config.tenancy) {
                    shared.metrics.queue_depth.set(state.jobs.len() as i64);
                    // Lost-wakeup guard: this worker may have absorbed
                    // two notifications (a submit's and a refine
                    // enqueue's) while it held one wait slot. If
                    // eligible work remains — more client jobs, or a
                    // refine with a free slot — pass the signal on so a
                    // still-parked sibling picks it up.
                    let more = !state.jobs.is_empty()
                        || (state.refine_active < REFINE_CONCURRENCY && !state.refine.is_empty());
                    break (Work::Client(job), more);
                }
                // Refines are strictly lower priority: only an otherwise
                // idle worker picks one up, and at most
                // `REFINE_CONCURRENCY` run at once so a refine burst can
                // never starve the client lane of the whole pool.
                if state.refine_active < REFINE_CONCURRENCY {
                    if let Some(refine) = state.refine.pop_front() {
                        state.refine_active += 1;
                        let more =
                            state.refine_active < REFINE_CONCURRENCY && !state.refine.is_empty();
                        break (Work::Refine(refine), more);
                    }
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                state = shared
                    .queue
                    .available
                    .wait(state)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        if more_work {
            shared.queue.available.notify_one();
        }
        let job = match work {
            Work::Client(job) => job,
            Work::Refine(refine) => {
                // A panicking refine must not kill the worker: the
                // unwind drops the job (releasing the ticket) and is
                // counted like any other worker panic.
                if catch_unwind(AssertUnwindSafe(|| run_refine(shared, refine))).is_err() {
                    shared.metrics.worker_panics.inc();
                }
                let mut state = lock(&shared.queue.state);
                state.refine_active -= 1;
                let idle = state.refine.is_empty() && state.refine_active == 0;
                drop(state);
                if idle {
                    shared.queue.refine_idle.notify_all();
                }
                // Another queued refine may now be eligible.
                shared.queue.available.notify_one();
                continue;
            }
        };
        let queued_us = job.enqueued.elapsed().as_micros() as u64;
        let (request, deadline, admission) = (&job.request, &job.deadline, job.admission);
        let reply = answer(shared, request, deadline, admission, queued_us, || {
            Some(handle_request(
                shared, request, queued_us, deadline, admission,
            ))
        });
        // A client that dropped its Pending just doesn't read the answer.
        if let Some(reply) = reply {
            let _ = job.reply.send(reply);
        }
    }
}

/// Queues an admitted request for the workers and returns its handle.
fn push(
    shared: &Shared,
    state: &mut QueueState,
    request: Request,
    deadline: Deadline,
    admission: Admission,
) -> Pending {
    let (tx, rx) = channel();
    let tenancy = request.tenancy();
    let key_us = deadline.edf_key_us();
    let job = Job {
        request,
        reply: tx,
        enqueued: Instant::now(),
        deadline,
        admission,
    };
    state.jobs.push(tenancy.tenant, tenancy.class, key_us, job);
    let depth = state.jobs.len() as i64;
    shared.metrics.queue_depth.set(depth);
    shared.metrics.peak_queue_depth.set_max(depth);
    Pending(PendingAnswer::Queued(rx))
}

/// Counts a request that passed admission control, service-wide and
/// for `tenant`, which has one more request in flight until
/// [`answer`] answers it.
fn count_accepted(shared: &Shared, tenant: TenantId) {
    let tm = tenant_metrics(shared, tenant);
    tm.accepted.inc();
    tm.inflight.add(1);
    shared.metrics.accepted.inc();
}

/// Answers one admitted request, with all of its bookkeeping: the
/// lapsed-deadline check, `serve` under `catch_unwind`, the service and
/// tenant metrics, the breaker's verdict ([`record_health`]) and the
/// deadline boundary ([`finalize_deadline`]). It is the one answering
/// path: a worker runs it for each job it pops, serving with
/// [`handle_request`], and [`MaskService::submit`] runs it on the
/// caller's thread, serving with [`cached_answer`]. `None` when `serve`
/// returns `None`, which only the caller's thread does (the key left
/// the serving map): nothing was counted, and the request goes to the
/// queue.
fn answer(
    shared: &Shared,
    request: &Request,
    deadline: &Deadline,
    admission: Admission,
    queued_us: u64,
    serve: impl FnOnce() -> Option<Result<Response, ServiceError>>,
) -> Option<Result<Response, ServiceError>> {
    let device = request.device();
    let tm = tenant_metrics(shared, request.tenancy().tenant);
    let m = &shared.metrics;
    // A deadline that lapsed while the job sat queued: counted and
    // answered with the typed error, never executed.
    if deadline.check().is_err() {
        m.completed.inc();
        m.failed.inc();
        m.deadline_dropped.inc();
        m.deadline_exceeded.inc();
        m.queued_us.record(queued_us);
        tm.completed.inc();
        tm.deadline_exceeded.inc();
        tm.inflight.add(-1);
        tm.request_us.record(queued_us);
        if admission == Admission::Probe {
            shared.health.probe_inconclusive(device);
        }
        return Some(Err(deadline_error(deadline)));
    }
    let served = Instant::now();
    let outcome = match catch_unwind(AssertUnwindSafe(serve)) {
        Ok(None) => return None,
        Ok(Some(result)) => Ok(result),
        Err(payload) => Err(payload),
    };
    let service_us = served.elapsed().as_micros() as u64;
    m.completed.inc();
    m.service_us_total.add(service_us);
    m.queued_us.record(queued_us);
    m.service_us.record(service_us);
    m.request_us.record(queued_us + service_us);
    // Health is judged on the raw outcome, before any late-response
    // conversion: breaker transitions then depend only on the seeded
    // search outcomes and the admission order, not on wall-clock
    // luck.
    record_health(shared, device, admission, &outcome);
    let reply = match outcome {
        Ok(result) => {
            let result = finalize_deadline(result, deadline, m);
            if result.is_err() {
                m.failed.inc();
            }
            result
        }
        Err(payload) => {
            m.worker_panics.inc();
            m.failed.inc();
            let reason = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".to_string());
            Err(ServiceError::Internal { reason })
        }
    };
    // Only search-running completions feed the retry-after
    // estimator: a rejected client is waiting behind search work,
    // not behind cache hits (see `retry_estimate_ms`).
    if reply.as_ref().is_ok_and(|r| disposition_of(r).searched) {
        m.fresh_service_us_total.add(service_us);
        m.fresh_completed.inc();
    }
    tm.completed.inc();
    if matches!(reply, Err(ServiceError::DeadlineExceeded { .. })) {
        tm.deadline_exceeded.inc();
    }
    tm.inflight.add(-1);
    tm.request_us.record(queued_us + service_us);
    Some(reply)
}

/// The typed deadline error, with the numbers read off the deadline
/// itself.
fn deadline_error(deadline: &Deadline) -> ServiceError {
    ServiceError::DeadlineExceeded {
        elapsed_ms: deadline.elapsed_ms(),
        budget_ms: deadline.budget_ms().unwrap_or(0),
    }
}

/// What the service does with an answer of one provenance.
#[derive(Debug, Clone, Copy, Default)]
struct Disposition {
    /// The answer is itself a conservative deadline or breaker outcome:
    /// it may be served after the deadline, and it is never cached.
    conservative: bool,
    /// A search ran for it, so its service time feeds the retry-after
    /// estimate (see `retry_estimate_ms`).
    searched: bool,
    /// What it tells the device's breaker: `Some(failure)`, or `None`
    /// when it says nothing about device health.
    verdict: Option<bool>,
}

/// The provenance table (DESIGN §13): the one place that decides, per
/// provenance, deadline crossing and caching, the retry-after estimate
/// and the breaker verdict.
fn disposition(provenance: Provenance) -> Disposition {
    let row = |conservative, searched, verdict| Disposition {
        conservative,
        searched,
        verdict,
    };
    match provenance {
        Provenance::CacheHit => row(false, false, None),
        Provenance::FreshSearch => row(false, true, Some(false)),
        Provenance::DegradedAllDd => row(false, true, Some(true)),
        Provenance::PartialSearch => row(true, true, None),
        Provenance::BreakerFallback => row(true, false, None),
        Provenance::Heuristic => row(true, false, None),
        Provenance::StaleServed { .. } => row(true, false, None),
    }
}

/// The disposition of a response: its provenance's row. An execution
/// ran the program on the backend whatever its mask's provenance, so a
/// successful one always tells the breaker the device works.
fn disposition_of(response: &Response) -> Disposition {
    match response {
        Response::Mask(r) => disposition(r.provenance),
        Response::Execution(e) => Disposition {
            verdict: Some(false),
            ..e.provenance.map_or(Disposition::default(), disposition)
        },
    }
}

/// Feeds one request outcome into the device's breaker: the response's
/// verdict from the provenance table, a typed failure or a worker panic
/// (the device's stack brought a worker down) as a failure, and any
/// other error as inconclusive.
fn record_health(
    shared: &Shared,
    device: DeviceId,
    admission: Admission,
    outcome: &Result<Result<Response, ServiceError>, Box<dyn std::any::Any + Send>>,
) {
    let verdict: Option<bool> = match outcome {
        Err(_) | Ok(Err(ServiceError::Failed(_))) => Some(true),
        Ok(Ok(response)) => disposition_of(response).verdict,
        Ok(Err(_)) => None,
    };
    match (admission, verdict) {
        (Admission::Probe, Some(failure)) => shared.health.record_probe(device, failure),
        (Admission::Probe, None) => shared.health.probe_inconclusive(device),
        (Admission::Proceed, Some(failure)) => shared.health.record(device, failure),
        _ => {}
    }
}

/// Boundary enforcement of the deadline contract: a response may cross
/// the deadline only if it is itself a conservative outcome (see
/// [`disposition`]) or a typed error. Anything else that finished late
/// is converted to [`ServiceError::DeadlineExceeded`], so "no full
/// response after its deadline" holds by construction.
fn finalize_deadline(
    result: Result<Response, ServiceError>,
    deadline: &Deadline,
    metrics: &Metrics,
) -> Result<Response, ServiceError> {
    let late = match &result {
        Ok(response) => !disposition_of(response).conservative && deadline.check().is_err(),
        // In-flight interruptions surface as the executor's typed error
        // wrapped in Failed; unwrap them to the service-level variant.
        Err(ServiceError::Failed(AdaptError::Exec(e))) => e.is_interruption(),
        Err(_) => false,
    };
    if late {
        metrics.deadline_exceeded.inc();
        Err(deadline_error(deadline))
    } else {
        result
    }
}

/// A worker's answer to `request`: resolves it (transpiling a program
/// the book does not hold at the current epoch), then recommends a mask
/// from the ladder or executes it.
fn handle_request(
    shared: &Arc<Shared>,
    request: &Request,
    queued_us: u64,
    deadline: &Deadline,
    admission: Admission,
) -> Result<Response, ServiceError> {
    let served = Instant::now();
    let timing = || Timing {
        queued_us,
        service_us: served.elapsed().as_micros() as u64,
    };
    match request {
        Request::RecommendMask {
            circuit,
            device,
            protocol,
            budget,
            ..
        } => {
            let (epoch, machine) = snapshot(shared, *device)?;
            let r = resolve(shared, circuit, *device, epoch, &machine, *protocol);
            let (cached, provenance) =
                recommend(shared, circuit, &r, &machine, *budget, deadline, admission)?;
            Ok(mask_response(r.key, cached, provenance, timing()))
        }
        Request::Execute {
            circuit,
            device,
            policy,
            ..
        } => {
            // An execution has to touch the backend; there is no
            // conservative mask to serve in its place while the breaker
            // is open.
            if admission == Admission::Fallback {
                return Err(ServiceError::DeviceUnhealthy {
                    device: *device,
                    retry_after_ms: shared.health.retry_hint_ms(*device),
                });
            }
            let exec = execute(shared, circuit, *device, *policy, deadline, admission)?;
            Ok(Response::Execution(Execution {
                timing: timing(),
                ..exec
            }))
        }
    }
}

/// The resolution that lets [`MaskService::submit`] answer `request` on
/// the caller's thread: a recommendation whose program is booked at the
/// device's current epoch, with its [`MaskKey`] in the serving map. It
/// transpiles nothing, hashes no unbooked program and counts no cache
/// lookup; a request it returns `None` for goes to the queue, and its
/// worker resolves and looks it up as before.
fn cached_resolution(shared: &Shared, request: &Request) -> Option<Resolved> {
    let Request::RecommendMask {
        circuit,
        device,
        protocol,
        ..
    } = request
    else {
        return None;
    };
    let epoch = shared.registry.epoch(*device)?;
    let program = (*device, program_fingerprint(circuit));
    let (logical, resolution) = lock(&shared.programs).lookup(&program, circuit, epoch)?;
    let r = Resolved::new(shared, *device, logical, *protocol, resolution?);
    shared.cache.peek(&r.key).is_some().then_some(r)
}

/// The caller's-thread answer to a recommendation [`cached_resolution`]
/// resolved to `r`: the rung [`choose_rung`] picks, served from the
/// serving map alone — a cache hit, or under an open breaker the cached
/// mask as its fallback. It never searches and never waits. `None` when
/// the key has left the map since the check; nothing was counted.
fn cached_answer(
    shared: &Shared,
    request: &Request,
    r: &Resolved,
    deadline: &Deadline,
    admission: Admission,
) -> Option<Response> {
    let Request::RecommendMask { budget, .. } = request else {
        return None;
    };
    let served = Instant::now();
    let tiers = &shared.config.tiers;
    let (cached, provenance) =
        match choose_rung(admission, budget.tier, deadline.remaining_ms(), tiers) {
            // The tracker already counted this fallback when it handed
            // out the admission.
            Rung::Breaker => (shared.cache.peek(&r.key)?, Provenance::BreakerFallback),
            Rung::Search { .. } | Rung::Instant { .. } => {
                (shared.cache.hit(r.key, r.stale_key)?, Provenance::CacheHit)
            }
        };
    let timing = Timing {
        queued_us: 0,
        service_us: served.elapsed().as_micros() as u64,
    };
    Some(mask_response(r.key, cached, provenance, timing))
}

/// The response recommending `cached`, the mask served for `key`.
fn mask_response(
    key: MaskKey,
    cached: CachedMask,
    provenance: Provenance,
    timing: Timing,
) -> Response {
    Response::Mask(Recommendation {
        key,
        mask: cached.mask,
        decoy_fidelity: cached.decoy_fidelity,
        decoy_runs: cached.decoy_runs,
        provenance,
        degraded: cached.degraded,
        timing,
    })
}

/// The current calibration epoch of `device` and its machine.
fn snapshot(shared: &Shared, device: DeviceId) -> Result<(u64, Machine), ServiceError> {
    shared
        .registry
        .snapshot(device)
        .ok_or(ServiceError::DeviceNotServed(device))
}

/// A logical program resolved against one calibration epoch: the
/// compiled circuit and both of its cache identities.
struct Resolved {
    compiled: Arc<transpiler::TranspiledCircuit>,
    key: MaskKey,
    stale_key: StaleKey,
}

impl Resolved {
    /// The cache identities of `resolution`, a resolution of the program
    /// on `device` whose logical hash is `logical`.
    fn new(
        shared: &Shared,
        device: DeviceId,
        logical: u64,
        protocol: DdProtocol,
        resolution: Resolution,
    ) -> Self {
        let key = MaskKey {
            device,
            epoch: resolution.epoch,
            circuit_hash: resolution.circuit_hash,
            protocol,
            decoy: shared.config.decoy,
        };
        Resolved {
            compiled: resolution.compiled,
            key,
            stale_key: key.stale_key(logical),
        }
    }
}

/// Resolves `circuit` against `machine` (the device at `epoch`) and
/// builds its [`MaskKey`] and [`StaleKey`]. The program book memoizes
/// both the transpile and the [`logical_hash`]: a program already
/// resolved at `epoch` costs its [`program_fingerprint`], one book lookup
/// and a circuit comparison. A booked program at a new epoch reuses its
/// logical hash (and its prewarmed resolution, if any); only an unbooked
/// program is hashed. A miss transpiles outside the book's lock and
/// records the result, so a transpile that panics leaves the book as it
/// was.
fn resolve(
    shared: &Shared,
    circuit: &qcirc::Circuit,
    device: DeviceId,
    epoch: u64,
    machine: &Machine,
    protocol: DdProtocol,
) -> Resolved {
    let program = (device, program_fingerprint(circuit));
    let booked = lock(&shared.programs).lookup(&program, circuit, epoch);
    let (logical, resolution) = match booked {
        Some((logical, Some(resolution))) => (logical, resolution),
        booked => {
            let logical =
                booked.map_or_else(|| hash_program(shared, circuit), |(logical, _)| logical);
            let resolution = Resolution::new(circuit, epoch, machine);
            lock(&shared.programs).record(
                program,
                circuit,
                logical,
                Some(resolution.clone()),
                shared.config.cache_capacity,
            );
            (logical, resolution)
        }
    };
    Resolved::new(shared, device, logical, protocol, resolution)
}

/// [`logical_hash`] of `circuit`, counted in
/// [`ServiceStats::logical_hashes`].
fn hash_program(shared: &Shared, circuit: &qcirc::Circuit) -> u64 {
    shared.metrics.logical_hashes.inc();
    logical_hash(circuit)
}

/// Builds the deterministic per-request backend stack for `key` (see the
/// module-level determinism contract). The request's deadline bounds the
/// retry ladder: backoff is clamped to the remaining budget and charged
/// against it, and an expired deadline fails attempts fast with the
/// typed error instead of climbing further.
fn backend_for(
    shared: &Shared,
    machine: Machine,
    device: DeviceId,
    fingerprint: u64,
    deadline: &Deadline,
) -> Adapt {
    let seed = shared.config.seed ^ fingerprint.rotate_left(17);
    let profile = lock(&shared.fault_overrides)
        .get(&device)
        .copied()
        .unwrap_or(shared.config.fault_profile);
    let faulty = FaultyBackend::new(machine, profile, seed);
    let resilient = ResilientExecutor::new(Arc::new(faulty)).with_deadline(deadline.clone());
    Adapt::with_backend(Arc::new(resilient))
}

fn adapt_config(
    shared: &Shared,
    protocol: DdProtocol,
    budget: SearchBudget,
    fingerprint: u64,
) -> AdaptConfig {
    let exec = ExecutionConfig {
        shots: budget.shots,
        trajectories: budget.trajectories,
        // Workers provide the parallelism; single-threaded trajectories
        // keep each request cheap and trivially deterministic.
        threads: 1,
        seed: shared.config.seed ^ fingerprint,
    };
    AdaptConfig {
        dd: DdConfig::for_protocol(protocol),
        decoy_kind: shared.config.decoy,
        neighborhood: budget.neighborhood.max(1),
        search_exec: exec,
        final_exec: exec,
        ..AdaptConfig::default()
    }
}

/// Accepts `ticket`'s key into the background-refine lane. Returns
/// whether the job was queued; a full or disabled lane (or a shutting-
/// down service) drops the ticket instead — releasing the key — and
/// counts the drop. Never blocks.
fn enqueue_refine(
    shared: &Arc<Shared>,
    ticket: SearchTicket,
    compiled: &Arc<transpiler::TranspiledCircuit>,
    qubits: usize,
    budget: SearchBudget,
) -> bool {
    let job = RefineJob {
        ticket,
        compiled: Arc::clone(compiled),
        qubits,
        budget,
        enqueued: Instant::now(),
    };
    let mut state = lock(&shared.queue.state);
    let accepted = !shared.shutdown.load(Ordering::SeqCst)
        && state.refiner_enabled
        && state.refine.len() < REFINE_QUEUE_CAPACITY;
    if accepted {
        state.refine.push_back(job);
    }
    drop(state);
    if accepted {
        shared.metrics.refines_enqueued.inc();
        shared.queue.available.notify_one();
    } else {
        // The job was not queued: it drops when this function returns
        // (after the queue lock is released), and its ticket releases
        // the key to future lookups.
        shared.metrics.refines_dropped.inc();
    }
    accepted
}

/// Executes one background refine: a full (deadline-free) search for the
/// ticket's key, publishing the result through the single-flight
/// protocol. The search is seeded exactly like an inline one, so the
/// upgraded cache entry is bit-identical to what a foreground search of
/// the same key and budget would have produced. Skipped (ticket
/// released, drop counted) when the device's epoch has moved past the
/// key — a refine of yesterday's calibration helps nobody.
fn run_refine(shared: &Arc<Shared>, job: RefineJob) {
    let key = job.ticket.key();
    // Current-epoch refines (stale-serve upgrades) use the live machine;
    // next-epoch refines (prewarm) characterize against the peeked one.
    let machine = match shared.registry.snapshot(key.device) {
        Some((epoch, machine)) if epoch == key.epoch => Some(machine),
        _ => shared
            .registry
            .peek_next_epoch(key.device)
            .and_then(|(next, machine)| (next == key.epoch).then_some(machine)),
    };
    let searched = machine.and_then(|machine| {
        let fingerprint = key.fingerprint();
        let deadline = Deadline::none();
        let adapt = backend_for(shared, machine, key.device, fingerprint, &deadline);
        let cfg = adapt_config(shared, key.protocol, job.budget, fingerprint);
        let decoy = make_decoy(&job.compiled.timed, cfg.decoy_kind).ok()?;
        adapt
            .choose_mask_with_decoy_deadline(&job.compiled, &decoy, job.qubits, &cfg, deadline)
            .ok()
    });
    match searched {
        Some(result) if !result.partial => {
            job.ticket.complete(cached_from(&result));
            shared.metrics.refines_completed.inc();
            shared
                .metrics
                .refine_us
                .record(job.enqueued.elapsed().as_micros() as u64);
        }
        // The epoch moved on, the search failed, or (impossibly, with no
        // deadline) it came back partial: release the key by dropping
        // the ticket, count the drop.
        _ => shared.metrics.refines_dropped.inc(),
    }
}

/// The cache value a completed search result publishes — shared by the
/// inline and refine paths so both produce identical entries.
fn cached_from(result: &adapt::SearchResult) -> CachedMask {
    let decoy_fidelity = result
        .evaluations
        .iter()
        .filter(|s| s.mask == result.best)
        .map(|s| s.fidelity)
        .next_back()
        .unwrap_or(0.0);
    CachedMask {
        mask: result.best,
        decoy_fidelity,
        decoy_runs: result.decoy_runs(),
        degraded: result.is_degraded(),
    }
}

/// Serves a mask for the resolved program from the rung [`choose_rung`]
/// picks — the one place the ladder's rungs meet the cache. `machine`
/// must be the epoch snapshot `r` was resolved against.
fn recommend(
    shared: &Arc<Shared>,
    circuit: &qcirc::Circuit,
    r: &Resolved,
    machine: &Machine,
    budget: SearchBudget,
    deadline: &Deadline,
    admission: Admission,
) -> Result<(CachedMask, Provenance), ServiceError> {
    let tiers = &shared.config.tiers;
    let (max_stale, block, refine) =
        match choose_rung(admission, budget.tier, deadline.remaining_ms(), tiers) {
            // The tracker already counted this fallback when it handed
            // out the admission.
            Rung::Breaker => {
                let all_dd = CachedMask {
                    mask: DdMask::all(circuit.num_qubits()),
                    decoy_fidelity: 0.0,
                    decoy_runs: 0,
                    degraded: true,
                };
                let cached = shared.cache.peek(&r.key).unwrap_or(all_dd);
                return Ok((cached, Provenance::BreakerFallback));
            }
            Rung::Search { max_stale } => (max_stale, true, true),
            Rung::Instant { max_stale, refine } => (max_stale, false, refine),
        };
    // A ticket the rung may not refine drops here, releasing the key.
    let refine_with = |ticket: Option<SearchTicket>| {
        if let Some(ticket) = ticket.filter(|_| refine) {
            enqueue_refine(shared, ticket, &r.compiled, circuit.num_qubits(), budget);
        }
    };
    Ok(
        match MaskCache::lookup(&shared.cache, r.key, r.stale_key, max_stale, block) {
            TieredLookup::Hit(cached) => (cached, Provenance::CacheHit),
            TieredLookup::Stale {
                value,
                age_epochs,
                refresh,
            } => {
                refine_with(refresh);
                shared.metrics.stale_served.inc();
                (value, Provenance::StaleServed { age_epochs })
            }
            TieredLookup::Miss(Some(ticket)) if block => {
                search_inline(shared, circuit, r, machine, budget, deadline, ticket)?
            }
            // Tier 0: answer from calibration alone, instantly.
            TieredLookup::Miss(ticket) => {
                refine_with(ticket);
                let h = heuristic_mask(&r.compiled, machine.device(), circuit.num_qubits());
                shared.metrics.heuristic_served.inc();
                let cached = CachedMask {
                    mask: h.mask,
                    decoy_fidelity: 0.0,
                    decoy_runs: 0,
                    degraded: false,
                };
                (cached, Provenance::Heuristic)
            }
        },
    )
}

/// The inline (blocking) search a request runs when it owns the key's
/// single-flight ticket and its deadline affords one. `machine` must be
/// the epoch snapshot `r` was resolved against.
fn search_inline(
    shared: &Arc<Shared>,
    circuit: &qcirc::Circuit,
    r: &Resolved,
    machine: &Machine,
    budget: SearchBudget,
    deadline: &Deadline,
    ticket: SearchTicket,
) -> Result<(CachedMask, Provenance), ServiceError> {
    // This request owns the search. Any failure drops the ticket,
    // releasing the key to coalesced waiters.
    let key = r.key;
    let adapt = backend_for(
        shared,
        machine.clone(),
        key.device,
        key.fingerprint(),
        deadline,
    );
    let cfg = adapt_config(shared, key.protocol, budget, key.fingerprint());
    let decoy = make_decoy(&r.compiled.timed, cfg.decoy_kind)
        .map_err(|e| ServiceError::Failed(e.into()))?;
    let result = adapt.choose_mask_with_decoy_deadline(
        &r.compiled,
        &decoy,
        circuit.num_qubits(),
        &cfg,
        deadline.clone(),
    )?;
    shared.metrics.searches.inc();
    let cached = cached_from(&result);
    let provenance = if result.partial {
        shared.metrics.partial_searches.inc();
        Provenance::PartialSearch
    } else if cached.degraded {
        Provenance::DegradedAllDd
    } else {
        Provenance::FreshSearch
    };
    if disposition(provenance).conservative {
        // A deadline-truncated mask is served but never cached: dropping
        // the ticket releases the key, so the next request (or a
        // coalesced waiter) searches afresh with its own budget. Caching
        // it would let one tight deadline poison every later request for
        // the key.
        drop(ticket);
    } else {
        ticket.complete(cached);
    }
    Ok((cached, provenance))
}

fn execute(
    shared: &Arc<Shared>,
    circuit: &qcirc::Circuit,
    device: DeviceId,
    policy: Policy,
    deadline: &Deadline,
    admission: Admission,
) -> Result<Execution, ServiceError> {
    let n = circuit.num_qubits();
    let budget = shared.config.default_budget;
    let protocol = DdProtocol::default();
    let (epoch, machine) = snapshot(shared, device)?;
    let (mask, fidelity, pulse_count, provenance) = if policy == Policy::RuntimeBest {
        // Runtime-Best delegates to the framework sweep (its
        // oversized-program rejection surfaces as a typed error here).
        let fingerprint = 0x5EED_0DD5u64 ^ (epoch << 32);
        let adapt = backend_for(shared, machine, device, fingerprint, deadline);
        let cfg = adapt_config(shared, protocol, budget, fingerprint);
        let run = adapt.run_policy(circuit, policy, &cfg)?;
        (run.mask, run.fidelity, run.pulse_count, None)
    } else {
        // ADAPT goes through the ladder like a recommendation; the fixed
        // policies skip straight to the final run.
        let r = resolve(shared, circuit, device, epoch, &machine, protocol);
        let (mask, provenance) = match policy {
            Policy::Adapt => {
                let (cached, provenance) =
                    recommend(shared, circuit, &r, &machine, budget, deadline, admission)?;
                (cached.mask, Some(provenance))
            }
            Policy::NoDd => (DdMask::none(n), None),
            _ => (DdMask::all(n), None),
        };
        // The final run is seeded from the same key material as the
        // search, so executions are deterministic per (device, epoch,
        // circuit) too.
        let fingerprint = r.key.fingerprint();
        let adapt = backend_for(shared, machine, device, fingerprint ^ 0xEC5E_C0DE, deadline);
        let cfg = adapt_config(shared, protocol, budget, fingerprint);
        let ideal = adapt.ideal_output(circuit)?;
        let (_counts, fidelity, pulse_count) =
            adapt.run_with_mask(&r.compiled, &ideal, mask, &cfg)?;
        (mask, fidelity, pulse_count, provenance)
    };
    Ok(Execution {
        device,
        epoch,
        policy,
        mask,
        fidelity,
        pulse_count,
        provenance,
        timing: Timing::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The skewed-mix regression the old estimator got wrong: 990
    /// sub-ms cache hits and 10 two-second searches. The all-tier mean
    /// (~20.9 ms) would tell a client behind 8 queued searches to retry
    /// in ~83 ms — two orders of magnitude early. The fresh-tier mean
    /// says ~8 s, which is when a slot actually frees up.
    #[test]
    fn retry_estimate_uses_fresh_tier_mean_under_skewed_mix() {
        let fresh_us = 10 * 2_000_000u64; // 10 searches, 2 s each
        let cache_us = 990 * 900u64; // 990 cache hits, 0.9 ms each
        let est = retry_estimate_ms(8, 2, fresh_us, 10, fresh_us + cache_us, 1000);
        assert_eq!(est, 8_000, "8 searches / 2 workers at 2 s each");
        // The old all-tier estimate for comparison: far too optimistic.
        let old = retry_estimate_ms(8, 2, 0, 0, fresh_us + cache_us, 1000);
        assert!(old < 100, "all-tier mean collapses to {old} ms");
    }

    #[test]
    fn retry_estimate_falls_back_without_fresh_data() {
        // No fresh completions yet: all-tier mean.
        assert_eq!(retry_estimate_ms(4, 1, 0, 0, 400_000, 4), 400);
        // No data at all: 50 ms per queued request.
        assert_eq!(retry_estimate_ms(4, 1, 0, 0, 0, 0), 200);
        // Never zero, and worker count of zero is clamped.
        assert_eq!(retry_estimate_ms(0, 0, 0, 0, 0, 0), 1);
    }

    fn ghz(n: usize) -> qcirc::Circuit {
        let mut c = qcirc::Circuit::new(n);
        c.h(0);
        for q in 1..n as u32 {
            c.cx(q - 1, q);
        }
        c.measure_all();
        c
    }

    fn rome_service() -> MaskService {
        MaskService::start(ServiceConfig {
            devices: vec![DeviceId::Rome],
            workers: 1,
            cache_capacity: 8,
            ..ServiceConfig::default()
        })
    }

    fn small_recommend(circuit: &qcirc::Circuit) -> Request {
        Request::RecommendMask {
            circuit: circuit.clone(),
            device: DeviceId::Rome,
            protocol: DdProtocol::default(),
            budget: SearchBudget {
                shots: 64,
                trajectories: 2,
                neighborhood: 4,
                tier: TierPolicy::default(),
            },
            deadline_ms: None,
            tenancy: Default::default(),
        }
    }

    /// `circuit` resolved at the device's current epoch.
    fn resolve_now(svc: &MaskService, circuit: &qcirc::Circuit) -> Resolved {
        let (epoch, machine) = snapshot(&svc.shared, DeviceId::Rome).expect("served");
        let protocol = DdProtocol::default();
        resolve(
            &svc.shared,
            circuit,
            DeviceId::Rome,
            epoch,
            &machine,
            protocol,
        )
    }

    fn rome_machine() -> Machine {
        let registry = DeviceRegistry::new(&[DeviceId::Rome], 7);
        registry.snapshot(DeviceId::Rome).expect("registered").1
    }

    /// A two-qubit program whose only angle is `angle`.
    fn rz_program(angle: f64) -> qcirc::Circuit {
        let mut c = qcirc::Circuit::new(2);
        c.h(0).rz(angle, 0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn program_book_evicts_the_least_recently_used_program() {
        let machine = rome_machine();
        let (a, b, c) = (ghz(2), ghz(3), ghz(4));
        let key = |circuit: &qcirc::Circuit| (DeviceId::Rome, program_fingerprint(circuit));
        let mut book = ProgramBook::default();
        for circuit in [&a, &b] {
            let resolution = Resolution::new(circuit, 0, &machine);
            book.record(
                key(circuit),
                circuit,
                logical_hash(circuit),
                Some(resolution),
                2,
            );
        }
        let (logical, hit) = book.lookup(&key(&a), &a, 0).expect("A is booked");
        assert!(hit.is_some(), "A is a hit");
        assert_eq!(logical, logical_hash(&a));
        let resolution = Resolution::new(&c, 0, &machine);
        book.record(key(&c), &c, logical_hash(&c), Some(resolution), 2);
        assert_eq!(
            book.logical_hash(&key(&b), &b),
            None,
            "B was least recently used"
        );
        assert_eq!(book.logical_hash(&key(&a), &a), Some(logical_hash(&a)));
        assert_eq!(book.logical_hash(&key(&c), &c), Some(logical_hash(&c)));
    }

    #[test]
    fn programs_colliding_on_one_hash_never_share_a_resolution() {
        let machine = rome_machine();
        let (a, b) = (ghz(3), ghz(4));
        let forced = (DeviceId::Rome, 42);
        let mut book = ProgramBook::default();
        let ra = Resolution::new(&a, 0, &machine);
        book.record(forced, &a, logical_hash(&a), Some(ra), 8);
        assert!(book.lookup(&forced, &b, 0).is_none());
        assert_eq!(book.logical_hash(&forced, &b), None);
        let rb = Resolution::new(&b, 0, &machine);
        book.record(forced, &b, logical_hash(&b), Some(rb.clone()), 8);
        assert!(book.lookup(&forced, &a, 0).is_none());
        let (logical, hit) = book.lookup(&forced, &b, 0).expect("B is booked");
        let hit = hit.expect("B is resolved");
        assert!(Arc::ptr_eq(&hit.compiled, &rb.compiled));
        assert_eq!(logical, logical_hash(&b));
        assert_ne!(logical, logical_hash(&a), "no shared logical hash");

        // Signed zeros compare equal under `PartialEq`, yet they are two
        // programs with two logical hashes.
        let (pos, neg) = (rz_program(0.0), rz_program(-0.0));
        assert_eq!(pos, neg);
        let rpos = Resolution::new(&pos, 0, &machine);
        book.record(forced, &pos, logical_hash(&pos), Some(rpos), 8);
        assert!(book.lookup(&forced, &neg, 0).is_none());
        assert_eq!(book.logical_hash(&forced, &neg), None);
        assert_eq!(book.logical_hash(&forced, &pos), Some(logical_hash(&pos)));
    }

    #[test]
    fn a_program_resolves_once_per_epoch() {
        let svc = rome_service();
        let circuit = ghz(4);
        let first = resolve_now(&svc, &circuit);
        let second = resolve_now(&svc, &circuit);
        assert!(
            Arc::ptr_eq(&first.compiled, &second.compiled),
            "no second transpile"
        );
        assert_eq!(first.key, second.key);

        let epoch = svc.advance_epoch(DeviceId::Rome).expect("served");
        let fresh = resolve_now(&svc, &circuit);
        assert!(!Arc::ptr_eq(&first.compiled, &fresh.compiled));
        assert_eq!(fresh.key.epoch, epoch);
        let (_, machine) = snapshot(&svc.shared, DeviceId::Rome).expect("served");
        let compiled = transpile(&circuit, machine.device(), &TranspileOptions::default());
        assert_eq!(
            fresh.key.circuit_hash,
            machine::structural_hash(&compiled.timed)
        );
        assert_eq!(fresh.stale_key, first.stale_key, "same program identity");
        let again = resolve_now(&svc, &circuit);
        assert!(
            Arc::ptr_eq(&fresh.compiled, &again.compiled),
            "new epoch memo"
        );

        // A late resolution at the old epoch does not displace the newer one.
        let late = Resolution {
            epoch: first.key.epoch,
            compiled: first.compiled,
            circuit_hash: first.key.circuit_hash,
        };
        let program = (DeviceId::Rome, program_fingerprint(&circuit));
        let logical = first.stale_key.logical_hash;
        lock(&svc.shared.programs).record(program, &circuit, logical, Some(late), 8);
        let kept = resolve_now(&svc, &circuit);
        assert!(Arc::ptr_eq(&fresh.compiled, &kept.compiled));
    }

    #[test]
    fn prewarm_keeps_the_current_epoch_resolution() {
        let svc = rome_service();
        let circuit = ghz(4);
        svc.call(small_recommend(&circuit)).expect("served");
        let before = resolve_now(&svc, &circuit);
        assert_eq!(svc.prewarm_epoch(DeviceId::Rome).expect("served"), 1);
        svc.drain_refines();
        let after = resolve_now(&svc, &circuit);
        assert!(Arc::ptr_eq(&before.compiled, &after.compiled), "memo hit");
    }

    #[test]
    fn the_first_request_after_the_advance_takes_the_prewarmed_resolution() {
        let svc = rome_service();
        let circuit = ghz(4);
        svc.call(small_recommend(&circuit)).expect("served");
        assert_eq!(svc.prewarm_epoch(DeviceId::Rome).expect("served"), 1);
        svc.drain_refines();
        let prewarmed = lock(&svc.shared.programs)
            .map
            .values()
            .find_map(|p| p.prewarmed.clone())
            .expect("kept beside the current resolution");
        let epoch = svc.advance_epoch(DeviceId::Rome).expect("served");
        assert_eq!(prewarmed.epoch, epoch);
        let after = resolve_now(&svc, &circuit);
        assert!(
            Arc::ptr_eq(&prewarmed.compiled, &after.compiled),
            "promoted, not transpiled again"
        );
        assert_eq!(after.key.epoch, epoch);
        assert_eq!(after.key.circuit_hash, prewarmed.circuit_hash);
    }

    #[test]
    fn hits_on_a_booked_program_compute_no_logical_hash() {
        let svc = rome_service();
        let circuit = ghz(4);
        svc.call(small_recommend(&circuit)).expect("served");
        assert_eq!(svc.stats().logical_hashes, 1, "hashed once, on the miss");
        for _ in 0..5 {
            svc.call(small_recommend(&circuit)).expect("served");
        }
        let logical = svc.logical_hash_of(DeviceId::Rome, &circuit);
        assert_eq!(logical, logical_hash(&circuit));
        svc.advance_epoch(DeviceId::Rome).expect("served");
        let fresh = resolve_now(&svc, &circuit);
        assert_eq!(fresh.stale_key.logical_hash, logical);
        assert_eq!(svc.stats().logical_hashes, 1, "warmed hits add none");
        assert_eq!(
            svc.logical_hash_of(DeviceId::Rome, &ghz(3)),
            logical_hash(&ghz(3))
        );
        assert_eq!(
            svc.stats().logical_hashes,
            2,
            "an unbooked program is hashed"
        );
        // ... once: the ownership check booked it for the request.
        let mut ghz3 = small_recommend(&ghz(3));
        if let Request::RecommendMask { budget, .. } = &mut ghz3 {
            budget.tier = TierPolicy::HeuristicOnly;
        }
        svc.call(ghz3).expect("served");
        assert_eq!(svc.stats().logical_hashes, 2, "booked by the check");
        assert_eq!(
            svc.logical_hash_of(DeviceId::Rome, &ghz(3)),
            logical_hash(&ghz(3))
        );
        assert_eq!(svc.stats().logical_hashes, 2);
    }

    #[test]
    fn signed_zero_programs_keep_their_own_logical_hash() {
        let svc = rome_service();
        let (pos, neg) = (rz_program(0.0), rz_program(-0.0));
        assert_ne!(logical_hash(&pos), logical_hash(&neg));
        for circuit in [&pos, &neg, &pos, &neg] {
            let r = resolve_now(&svc, circuit);
            assert_eq!(r.stale_key.logical_hash, logical_hash(circuit));
            assert_eq!(
                svc.logical_hash_of(DeviceId::Rome, circuit),
                logical_hash(circuit)
            );
        }
        assert_eq!(svc.stats().logical_hashes, 2, "one per program");
    }

    /// A program the admission rule refuses: a NaN delay cannot be
    /// scheduled, so `transpile` panics on it. Sent through `enqueue`,
    /// it reaches a worker and panics it mid-request.
    fn nan_delay_program() -> qcirc::Circuit {
        let mut c = ghz(4);
        c.delay(f64::NAN, 2);
        c
    }

    #[test]
    fn a_transpile_panic_leaves_no_book_entry() {
        let svc = rome_service();
        let request = small_recommend(&nan_delay_program());
        let err = svc.enqueue(request, None).and_then(Pending::wait);
        assert!(
            matches!(err, Err(ServiceError::Internal { .. })),
            "got {err:?}"
        );
        assert!(!svc.shared.programs.is_poisoned());
        assert!(lock(&svc.shared.programs).map.is_empty());
    }

    #[test]
    fn worker_panic_is_contained_and_the_pool_keeps_serving() {
        // One worker: if the panic killed the thread — or poisoned a
        // shared lock into a panic cascade — the follow-up request could
        // never complete.
        let svc = rome_service();
        let err = svc
            .enqueue(small_recommend(&nan_delay_program()), None)
            .and_then(Pending::wait)
            .expect_err("unschedulable program must fail");
        assert!(
            matches!(err, ServiceError::Internal { .. }),
            "panic must surface as a typed Internal error, got {err:?}"
        );
        let stats = svc.stats();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.failed, 1);

        // The same worker thread must still serve the next request.
        match svc.call(small_recommend(&ghz(4))) {
            Ok(Response::Mask(rec)) => assert_eq!(rec.provenance, Provenance::FreshSearch),
            other => panic!("pool must survive the panic, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.worker_panics, 1, "no further panics");
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn the_submit_check_never_transpiles() {
        let svc = rome_service();
        let circuit = ghz(4);
        let request = small_recommend(&circuit);
        assert!(cached_resolution(&svc.shared, &request).is_none(), "cold");
        assert!(lock(&svc.shared.programs).map.is_empty(), "not booked");
        svc.call(request.clone()).expect("served");
        let warm = cached_resolution(&svc.shared, &request).expect("cached");
        assert_eq!(warm.key, resolve_now(&svc, &circuit).key);

        let epoch = svc.advance_epoch(DeviceId::Rome).expect("served");
        assert!(cached_resolution(&svc.shared, &request).is_none());
        let program = (DeviceId::Rome, program_fingerprint(&circuit));
        let booked = lock(&svc.shared.programs).lookup(&program, &circuit, epoch);
        assert!(
            booked.is_some_and(|(_, resolution)| resolution.is_none()),
            "no resolution at the new epoch: nothing was transpiled"
        );
        assert_eq!(svc.cache_stats().lookups, 1, "the worker's, on the miss");
    }

    #[test]
    fn a_panic_answering_on_the_callers_thread_is_contained() {
        let svc = rome_service();
        let request = small_recommend(&ghz(4));
        let reply = answer(
            &svc.shared,
            &request,
            &Deadline::none(),
            Admission::Proceed,
            0,
            || panic!("answering failed"),
        );
        assert_eq!(
            reply.map(|r| r.map(|_| ())),
            Some(Err(ServiceError::Internal {
                reason: "answering failed".to_string()
            }))
        );
        let stats = svc.stats();
        assert_eq!(
            (stats.worker_panics, stats.failed, stats.completed),
            (1, 1, 1)
        );
    }

    #[test]
    fn quota_exhausted_display_names_the_tenant() {
        let e = ServiceError::QuotaExhausted {
            tenant: TenantId(9),
            retry_after_ms: 120,
        };
        let s = e.to_string();
        assert!(s.contains("t9") && s.contains("120"), "got: {s}");
    }
}
