//! # adapt-service — the mask-recommendation serving layer
//!
//! ADAPT (MICRO 2021) finds a per-program DD mask with ≤ 4·N decoy
//! executions, and that mask stays valid for a whole calibration epoch
//! (§6.4). A deployment therefore wants a *service*: search once per
//! `(device, epoch, circuit, protocol, decoy)` and answer every later
//! request from cache until drift invalidates it. This crate is that
//! service, built on the fault/resilience substrate (`machine::fault`,
//! `machine::resilient`) and the compiled-plan cache (`machine::plan`):
//!
//! - [`DeviceRegistry`]: named hardware presets ([`DeviceId`]), each
//!   advancing through seeded calibration epochs via the existing drift
//!   model, handing out [`Machine`](machine::Machine) clones that share
//!   one plan cache per device+epoch.
//! - [`MaskCache`]: LRU-bounded, epoch-keyed, with single-flight
//!   deduplication — K concurrent identical requests trigger exactly one
//!   search.
//! - [`MaskService`]: a bounded request queue served by a worker pool,
//!   with admission control (typed [`ServiceError::Rejected`]
//!   backpressure), per-request panic containment, and responses
//!   carrying mask [`Provenance`] and [`Timing`].
//! - Deadline propagation: a request may carry a `deadline_ms` budget
//!   that is honoured at every layer — born-expired submissions are
//!   rejected, queued jobs whose budget lapses are dropped unexecuted,
//!   and a search overrunning mid-flight stops at its next neighborhood
//!   boundary and serves a conservative partial mask
//!   ([`Provenance::PartialSearch`], never cached).
//! - Per-device circuit breakers ([`HealthTracker`], opt-in via
//!   [`ServiceConfig::breaker`]): a device failing most of its recent
//!   searches trips open, and its requests fail fast
//!   ([`ServiceError::DeviceUnhealthy`]) or get the cached/all-DD
//!   conservative mask ([`Provenance::BreakerFallback`]) until a
//!   half-open probe closes the breaker again.
//! - A three-tier degradation ladder (opt-in via
//!   [`ServiceConfig::tiers`]): the pure [`choose_rung`] picks, per
//!   request, the breaker fallback, a blocking search, or an instant
//!   answer — a superseded-epoch value within a staleness bound
//!   ([`Provenance::StaleServed`]) or the calibration-only heuristic
//!   ([`Provenance::Heuristic`]) while a bounded low-priority lane
//!   refines the key. Only completed searches are ever cached.
//!   [`MaskService::prewarm_epoch`] re-characterizes the hottest keys
//!   against the *next* calibration epoch before drift lands, so an
//!   epoch advance never causes a cold-miss storm; per-request
//!   [`SearchBudget::tier`] ([`TierPolicy`]) pins a request to
//!   heuristic-only or search-only.
//! - Multi-tenant scheduling (opt-in via [`ServiceConfig::tenancy`]):
//!   every request carries a [`Tenancy`] (tenant id + strictly-ordered
//!   [`PriorityClass`]), admission draws per-tenant token buckets
//!   (typed [`ServiceError::QuotaExhausted`] with a refill hint), and
//!   the worker pool serves a deadline-aware ready queue
//!   ([`sched::TenantScheduler`]) — strict class priority, weighted-
//!   fair round-robin across tenants within a class, EDF within a
//!   tenant's lane, with the refine lane strictly below all classes.
//!   Per-tenant `adapt_service_tenant_*` metrics merge into one
//!   `tenant`-labelled exposition via
//!   [`MaskService::render_tenant_metrics`].
//! - Durability (opt-in via [`ServiceConfig::persist`]): the warm set
//!   survives restarts through a CRC32-checksummed snapshot plus a
//!   write-ahead journal ([`persist`]). Recovery quarantines corrupt
//!   records (typed [`PersistError`], counted, never a panic), demotes
//!   superseded-epoch entries to the stale store, and serves the rest
//!   bit-identically to pre-crash responses; a background snapshot
//!   thread with a kill-switch and write-temp-fsync-rename atomicity
//!   keeps the on-disk image fresh, and a `machine::fault`-style seeded
//!   storage-fault injector ([`persist::StorageFaultPlan`]) backs the
//!   bench harness's `crash` scenario.
//!
//! Responses are deterministic: for one service seed, the answer for a
//! given [`MaskKey`] is bit-identical whether it comes from a fresh
//! search or the cache, regardless of concurrency (see the determinism
//! contract in [`service`]).
//!
//! # Example
//!
//! ```
//! use adapt_service::{DeviceId, MaskService, Request, SearchBudget, ServiceConfig};
//! use adapt::DdProtocol;
//!
//! let service = MaskService::start(ServiceConfig {
//!     devices: vec![DeviceId::Rome],
//!     workers: 2,
//!     ..ServiceConfig::default()
//! });
//! let mut c = qcirc::Circuit::new(3);
//! c.h(0).cx(0, 1).cx(1, 2).measure_all();
//! let budget = SearchBudget {
//!     shots: 64,
//!     trajectories: 2,
//!     ..SearchBudget::default()
//! };
//! let first = service
//!     .call(Request::RecommendMask {
//!         circuit: c.clone(),
//!         device: DeviceId::Rome,
//!         protocol: DdProtocol::Xy4,
//!         budget,
//!         deadline_ms: None,
//!         tenancy: Default::default(),
//!     })
//!     .expect("recommend");
//! # let _ = first;
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod breaker;
pub mod cache;
pub mod persist;
pub mod registry;
pub mod sched;
pub mod service;
pub mod tenancy;

pub use breaker::{
    Admission, BreakerConfig, BreakerFallback, BreakerState, HealthTracker, Transition,
};
pub use cache::{
    logical_hash, CacheEvent, CachedMask, MaskCache, MaskCacheStats, MaskKey, SearchTicket,
    StaleKey, TieredLookup,
};
pub use persist::{
    CrashPoint, PersistConfig, PersistError, PersistStats, Persister, RecoveryReport,
    StorageFaultCounts, StorageFaultPlan, StorageFaultProfile,
};
pub use registry::{DeviceId, DeviceRegistry};
pub use sched::TenantScheduler;
pub use service::{
    choose_rung, BudgetError, Execution, MaskService, Pending, Provenance, Recommendation, Request,
    Response, Rung, SearchBudget, ServiceConfig, ServiceError, ServiceStats, TierConfig,
    TierPolicy, Timing,
};
pub use tenancy::{
    PriorityClass, QuotaBook, Tenancy, TenancyConfig, TenantId, TenantQuota, TenantSpec,
};
