//! CI smoke check of the observability layer.
//!
//! Two assertions, both cheap enough for every CI run:
//!
//! 1. **Recording stays cheap**: incrementing a counter and recording a
//!    histogram sample on an enabled registry must cost nanoseconds —
//!    bounded against the no-op registry baseline — so instrumentation
//!    can sit on hot paths (plan-cache lookups, per-execution timing)
//!    without showing up in the `search` benchmarks.
//! 2. **The pipeline is wired**: one small recommendation driven through
//!    the full stack (service → search → resilient executor → machine)
//!    must leave non-zero `adapt_service_*`, `adapt_search_*` and
//!    `adapt_machine_*` counters in the global registry (among them the
//!    ops the search's batches skipped through prefix forks), and the
//!    Prometheus exposition must parse.
//!
//! Exits nonzero (panics) when either property breaks.

use adapt_obs::{parse_prometheus, sample_value, Registry};
use std::time::Instant;

fn main() {
    overhead();
    workload();
    println!("metrics smoke: ok");
}

/// Bounds the per-op recording cost of an enabled registry against the
/// no-op baseline. The bound is deliberately generous (hundreds of
/// nanoseconds of headroom on an atomics-only path) so the check never
/// flakes on loaded CI machines while still catching an accidental
/// lock or allocation on the hot path.
fn overhead() {
    const OPS: u64 = 1_000_000;
    let time_ops = |registry: &Registry| {
        let ops = registry.counter("smoke_ops_total");
        let lat = registry.histogram("smoke_us");
        let t0 = Instant::now();
        for i in 0..OPS {
            ops.inc();
            lat.record(i % 4096);
        }
        t0.elapsed().as_nanos() as f64 / OPS as f64
    };
    let real = Registry::new();
    let noop = Registry::noop();
    time_ops(&real); // warm-up
    let real_ns = time_ops(&real);
    let noop_ns = time_ops(&noop);
    println!("  overhead: {real_ns:.1} ns/op enabled vs {noop_ns:.1} ns/op noop");
    assert!(
        real_ns - noop_ns < 250.0,
        "recording must stay within 250 ns/op of the noop baseline \
         (got {real_ns:.1} vs {noop_ns:.1}) — did a lock or allocation \
         land on the hot path?"
    );
}

/// Drives one recommendation through the full stack and checks that
/// every instrumented layer recorded into the global registry.
fn workload() {
    use adapt_service::{DeviceId, MaskService, Request, SearchBudget, ServiceConfig, TierPolicy};
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 2,
        registry: adapt_obs::global(),
        ..ServiceConfig::default()
    });
    let mut circuit = qcirc::Circuit::new(3);
    circuit.h(0).cx(0, 1).cx(1, 2).measure_all();
    svc.call(Request::RecommendMask {
        circuit,
        device: DeviceId::Rome,
        protocol: adapt::DdProtocol::Xy4,
        budget: SearchBudget {
            shots: 64,
            trajectories: 2,
            neighborhood: 4,
            tier: TierPolicy::default(),
        },
        deadline_ms: None,
        tenancy: Default::default(),
    })
    .expect("recommendation");

    let prom = adapt_obs::global().render_prometheus();
    let samples = parse_prometheus(&prom).expect("exposition must parse");
    for name in [
        "adapt_service_requests_total",
        "adapt_service_searches_total",
        "adapt_service_cache_lookups_total",
        "adapt_search_searches_total",
        "adapt_search_decoy_runs_scored_total",
        "adapt_machine_executions_total",
        "adapt_machine_retry_requests_total",
        "adapt_machine_batch_forked_ops_total",
    ] {
        let v = sample_value(&samples, name).unwrap_or(0.0);
        assert!(v > 0.0, "{name} must be non-zero, exposition:\n{prom}");
    }
    println!(
        "  workload: {} series exported, adapt_service_requests_total = {}",
        samples.len(),
        sample_value(&samples, "adapt_service_requests_total").unwrap_or(0.0)
    );
}
