//! Concurrency contracts of the mask service: single-flight
//! deduplication, drift-triggered epoch invalidation, and bit-identical
//! cache-hit vs fresh-search responses under one seed.

use adapt::DdProtocol;
use adapt_service::{
    DeviceId, MaskService, Provenance, Request, Response, SearchBudget, ServiceConfig, TierPolicy,
};
use machine::FaultProfile;

fn small_budget() -> SearchBudget {
    SearchBudget {
        shots: 64,
        trajectories: 2,
        neighborhood: 4,
        tier: TierPolicy::default(),
    }
}

fn service(devices: Vec<DeviceId>, workers: usize, profile: FaultProfile) -> MaskService {
    MaskService::start(ServiceConfig {
        devices,
        workers,
        queue_capacity: 64,
        cache_capacity: 32,
        seed: 2021,
        fault_profile: profile,
        ..ServiceConfig::default()
    })
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

fn recommend(circuit: &qcirc::Circuit, device: DeviceId) -> Request {
    Request::RecommendMask {
        circuit: circuit.clone(),
        device,
        protocol: DdProtocol::Xy4,
        budget: small_budget(),
        deadline_ms: None,
        tenancy: Default::default(),
    }
}

fn unwrap_mask(r: Response) -> adapt_service::Recommendation {
    match r {
        Response::Mask(rec) => rec,
        Response::Execution(_) => panic!("expected a mask response"),
    }
}

#[test]
fn k_concurrent_identical_requests_trigger_exactly_one_search() {
    const K: usize = 8;
    let svc = service(vec![DeviceId::Rome], 4, FaultProfile::none());
    let circuit = ghz(4);

    // Burst-submit K identical requests before waiting on any reply, so
    // several workers race on the same key.
    let pending: Vec<_> = (0..K)
        .map(|_| {
            svc.submit(recommend(&circuit, DeviceId::Rome))
                .expect("queue has room for the burst")
        })
        .collect();
    let recs: Vec<_> = pending
        .into_iter()
        .map(|p| unwrap_mask(p.wait().expect("recommendation")))
        .collect();

    let stats = svc.stats();
    let cache = svc.cache_stats();
    assert_eq!(
        stats.searches, 1,
        "K identical requests must share one search"
    );
    assert_eq!(cache.misses, 1);
    assert_eq!(cache.hits, K as u64 - 1);
    assert_eq!(stats.worker_panics, 0);

    // Exactly one response is the searcher's; the rest are cache hits,
    // and every response carries the identical mask.
    let fresh = recs
        .iter()
        .filter(|r| r.provenance != Provenance::CacheHit)
        .count();
    assert_eq!(fresh, 1);
    for r in &recs {
        assert_eq!(r.mask, recs[0].mask);
        assert_eq!(r.decoy_fidelity.to_bits(), recs[0].decoy_fidelity.to_bits());
        assert_eq!(r.key, recs[0].key);
    }
}

#[test]
fn drift_tick_invalidates_the_epoch_and_forces_a_fresh_search() {
    let svc = service(vec![DeviceId::Rome], 2, FaultProfile::none());
    let circuit = ghz(4);

    let first = unwrap_mask(
        svc.call(recommend(&circuit, DeviceId::Rome))
            .expect("first"),
    );
    assert_eq!(first.provenance, Provenance::FreshSearch);
    assert_eq!(first.key.epoch, 0);
    let second = unwrap_mask(
        svc.call(recommend(&circuit, DeviceId::Rome))
            .expect("second"),
    );
    assert_eq!(second.provenance, Provenance::CacheHit);

    assert_eq!(svc.advance_epoch(DeviceId::Rome), Ok(1));
    assert_eq!(svc.cache_stats().invalidated, 1, "epoch-0 entry dropped");

    let third = unwrap_mask(
        svc.call(recommend(&circuit, DeviceId::Rome))
            .expect("third"),
    );
    assert_eq!(
        third.provenance,
        Provenance::FreshSearch,
        "stale mask must not be served"
    );
    assert_eq!(third.key.epoch, 1);
    assert_eq!(svc.stats().searches, 2);
}

#[test]
fn cache_hit_and_fresh_search_are_bit_identical_at_one_seed() {
    // Run under fault injection: determinism must survive retries,
    // truncation and drift, not just the happy path.
    let circuit = ghz(4);

    // Service A answers the key twice: fresh, then cached.
    let a = service(vec![DeviceId::Rome], 2, FaultProfile::flaky());
    let a_fresh = unwrap_mask(
        a.call(recommend(&circuit, DeviceId::Rome))
            .expect("a fresh"),
    );
    let a_hit = unwrap_mask(a.call(recommend(&circuit, DeviceId::Rome)).expect("a hit"));
    assert_eq!(a_fresh.provenance, Provenance::FreshSearch);
    assert_eq!(a_hit.provenance, Provenance::CacheHit);

    // Service B (same seed, fresh process-state) answers it cold.
    let b = service(vec![DeviceId::Rome], 3, FaultProfile::flaky());
    let b_fresh = unwrap_mask(
        b.call(recommend(&circuit, DeviceId::Rome))
            .expect("b fresh"),
    );
    assert_eq!(b_fresh.provenance, Provenance::FreshSearch);

    for other in [&a_hit, &b_fresh] {
        assert_eq!(
            a_fresh.key, other.key,
            "same circuit+device must key identically"
        );
        assert_eq!(a_fresh.mask, other.mask, "mask must be bit-identical");
        assert_eq!(
            a_fresh.decoy_fidelity.to_bits(),
            other.decoy_fidelity.to_bits(),
            "fidelity must be bit-identical"
        );
        assert_eq!(a_fresh.decoy_runs, other.decoy_runs);
    }
}

#[test]
fn queue_overflow_rejects_with_typed_backpressure() {
    // One worker and a tiny queue: the burst must overflow.
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 1,
        queue_capacity: 2,
        cache_capacity: 8,
        seed: 5,
        fault_profile: FaultProfile::none(),
        ..ServiceConfig::default()
    });
    // Distinct circuits so nothing coalesces and every job costs a search.
    let circuits: Vec<_> = (2..=5).map(ghz).collect();
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for c in circuits.iter().cycle().take(12) {
        match svc.submit(recommend(c, DeviceId::Rome)) {
            Ok(p) => accepted.push(p),
            Err(adapt_service::ServiceError::Rejected {
                queue_depth,
                retry_after_ms,
            }) => {
                assert_eq!(queue_depth, 2);
                assert!(retry_after_ms >= 1);
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(rejected > 0, "a 12-deep burst must overflow a 2-slot queue");
    assert_eq!(svc.stats().rejected, rejected as u64);
    for p in accepted {
        p.wait().expect("accepted requests complete");
    }
    assert_eq!(svc.stats().worker_panics, 0);
}

#[test]
fn per_service_registries_keep_stats_isolated_and_exportable() {
    // Two services in one process: counters must not bleed between them
    // (each config defaults to a fresh private registry), and each
    // service's registry must render its own numbers.
    let a = service(vec![DeviceId::Rome], 2, FaultProfile::none());
    let b = service(vec![DeviceId::Rome], 2, FaultProfile::none());

    let circuit = ghz(4);
    unwrap_mask(a.call(recommend(&circuit, DeviceId::Rome)).expect("a"));
    unwrap_mask(a.call(recommend(&circuit, DeviceId::Rome)).expect("a hit"));
    assert_eq!(a.stats().accepted, 2);
    assert_eq!(b.stats().accepted, 0, "b's counters must stay untouched");

    let samples = adapt_obs::parse_prometheus(&a.metrics_registry().render_prometheus())
        .expect("exposition parses");
    let get = |n: &str| adapt_obs::sample_value(&samples, n).unwrap_or(0.0) as u64;
    assert_eq!(get("adapt_service_requests_total"), 2);
    assert_eq!(get("adapt_service_searches_total"), 1);
    assert_eq!(get("adapt_service_cache_hits_total"), 1);
    assert_eq!(get("adapt_service_cache_lookups_total"), 2);
    let stats = a.cache_stats();
    assert_eq!(stats.hits + stats.misses, stats.lookups);
}
