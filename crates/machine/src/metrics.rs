//! Pre-resolved handles into the process-wide [`adapt_obs`] registry.
//!
//! Handles are resolved once (first use) so the executor's hot path
//! pays only relaxed atomic adds. Names follow the workspace
//! convention `adapt_machine_<name>`. Metrics are observational only:
//! nothing in the seeded execution path reads them back.

use adapt_obs::{Counter, Gauge, Histogram};
use std::sync::OnceLock;

/// Bucket bounds for batch fan-out (jobs per batch) — counts, not µs.
const FANOUT_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

pub(crate) struct Metrics {
    /// Executions started (`Machine::execute_timed` and every batch job).
    pub executions: Counter,
    /// Wall time per `Machine::execute_timed`, µs.
    pub execute_us: Histogram,
    pub plan_hits: Counter,
    pub plan_misses: Counter,
    pub plan_evictions: Counter,
    /// Executions routed to the CHP stabilizer engine.
    pub engine_chp: Counter,
    /// Executions routed to the dense state-vector engine.
    pub engine_statevec: Counter,
    /// Batch submissions and total jobs fanned out.
    pub batches: Counter,
    pub batch_jobs: Counter,
    /// Jobs per batch (distribution of fan-out width).
    pub batch_fanout: Histogram,
    /// Worker threads of the most recent batch.
    pub batch_workers: Gauge,
    /// Batch jobs served without simulating (see `EngineStats::batch_replays`).
    pub batch_replays: Counter,
    /// Ops batch trajectories skipped by resuming an earlier job's
    /// trajectory (see `EngineStats::forked_ops`).
    pub batch_forked_ops: Counter,
    /// Batch trajectories' normals served from, or computed into, their
    /// seed's memo (added once per trajectory).
    pub normal_memo_hits: Counter,
    pub normal_memo_misses: Counter,
    /// Resilient-executor accounting.
    pub retry_requests: Counter,
    pub retry_attempts: Counter,
    pub retry_job_failed: Counter,
    pub retry_timeout: Counter,
    pub retry_exhausted: Counter,
    pub retry_backoff_us: Counter,
    /// Requests abandoned mid-retry-loop for deadline/cancellation.
    pub deadline_aborts: Counter,
    pub dropout_discards: Counter,
    pub partial_batches: Counter,
    pub stale_batches: Counter,
}

pub(crate) fn metrics() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = adapt_obs::global();
        Metrics {
            executions: r.counter("adapt_machine_executions_total"),
            execute_us: r.histogram("adapt_machine_execute_us"),
            plan_hits: r.counter("adapt_machine_plan_cache_hits_total"),
            plan_misses: r.counter("adapt_machine_plan_cache_misses_total"),
            plan_evictions: r.counter("adapt_machine_plan_cache_evictions_total"),
            engine_chp: r.counter("adapt_machine_engine_chp_total"),
            engine_statevec: r.counter("adapt_machine_engine_statevec_total"),
            batches: r.counter("adapt_machine_batches_total"),
            batch_jobs: r.counter("adapt_machine_batch_jobs_total"),
            batch_fanout: r.histogram_with_buckets("adapt_machine_batch_fanout", FANOUT_BUCKETS),
            batch_workers: r.gauge("adapt_machine_batch_workers"),
            batch_replays: r.counter("adapt_machine_batch_replays_total"),
            batch_forked_ops: r.counter("adapt_machine_batch_forked_ops_total"),
            normal_memo_hits: r.counter("adapt_machine_normal_memo_hits_total"),
            normal_memo_misses: r.counter("adapt_machine_normal_memo_misses_total"),
            retry_requests: r.counter("adapt_machine_retry_requests_total"),
            retry_attempts: r.counter("adapt_machine_retry_attempts_total"),
            retry_job_failed: r.counter("adapt_machine_retry_errors_job_failed_total"),
            retry_timeout: r.counter("adapt_machine_retry_errors_timeout_total"),
            retry_exhausted: r.counter("adapt_machine_retry_exhausted_total"),
            retry_backoff_us: r.counter("adapt_machine_retry_backoff_us_total"),
            deadline_aborts: r.counter("adapt_machine_deadline_aborts_total"),
            dropout_discards: r.counter("adapt_machine_dropout_discards_total"),
            partial_batches: r.counter("adapt_machine_partial_batches_total"),
            stale_batches: r.counter("adapt_machine_stale_batches_total"),
        }
    })
}

impl Metrics {
    /// The per-kind retry counter for a transient error
    /// (see `ExecError::kind`).
    pub fn retry_error(&self, kind: &str) -> &Counter {
        match kind {
            "timeout" => &self.retry_timeout,
            _ => &self.retry_job_failed,
        }
    }
}
