//! Cache hits answered on the submitting thread: `submit` answers a
//! recommendation whose program is resolved at the device's current
//! epoch and whose key is cached, with the admission, answer and
//! counters a worker would give it; everything else goes to the queue.

use adapt::{DdMask, DdProtocol};
use adapt_service::{
    BreakerState, DeviceId, MaskService, Provenance, Recommendation, Request, Response,
    SearchBudget, ServiceConfig, ServiceError, Tenancy, TenancyConfig, TenantId, TenantQuota,
    TenantSpec, TierPolicy,
};
use machine::FaultProfile;
use std::time::{Duration, Instant};

fn tagged(n: u32, tag: usize) -> qcirc::Circuit {
    let mut c = qcirc::Circuit::new(n as usize);
    for q in 0..n {
        if tag & (1 << q) != 0 {
            c.x(q);
        }
    }
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    c
}

fn small_budget() -> SearchBudget {
    SearchBudget {
        shots: 64,
        trajectories: 2,
        neighborhood: 4,
        tier: TierPolicy::default(),
    }
}

/// A search at the largest budget, which holds the worker for at least
/// `deadline_ms` (a search notices its deadline between decoy batches).
fn slow(tag: usize, deadline_ms: u64) -> Request {
    let budget = SearchBudget {
        shots: 1 << 20,
        trajectories: 4096,
        ..small_budget()
    };
    recommend_with(
        tagged(4, tag),
        budget,
        Some(deadline_ms),
        Tenancy::default(),
    )
}

fn recommend(tag: usize) -> Request {
    recommend_with(tagged(4, tag), small_budget(), None, Tenancy::default())
}

fn recommend_with(
    circuit: qcirc::Circuit,
    budget: SearchBudget,
    deadline_ms: Option<u64>,
    tenancy: Tenancy,
) -> Request {
    Request::RecommendMask {
        circuit,
        device: DeviceId::Rome,
        protocol: DdProtocol::Xy4,
        budget,
        deadline_ms,
        tenancy,
    }
}

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 1,
        ..ServiceConfig::default()
    }
}

fn unwrap_mask(r: Result<Response, ServiceError>) -> Recommendation {
    match r {
        Ok(Response::Mask(rec)) => rec,
        other => panic!("expected a mask response, got {other:?}"),
    }
}

/// Blocks until the only worker has taken every queued job.
fn wait_until_dequeued(svc: &MaskService) {
    let depth = svc.metrics_registry().gauge("adapt_service_queue_depth");
    let started = Instant::now();
    while depth.get() > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "never dequeued"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_warm_key_is_answered_while_the_only_worker_searches() {
    let svc = MaskService::start(one_worker());
    let warm = unwrap_mask(svc.call(recommend(1)));
    assert_eq!(warm.provenance, Provenance::FreshSearch);

    let cold = svc.submit(slow(2, 1_000)).expect("admitted");
    wait_until_dequeued(&svc);
    let hit = unwrap_mask(svc.call(recommend(1)));
    assert_eq!(hit.provenance, Provenance::CacheHit);
    assert_eq!((hit.key, hit.mask), (warm.key, warm.mask));
    assert_eq!(hit.timing.queued_us, 0, "never queued");
    let stats = svc.stats();
    assert_eq!(stats.inline_hits, 1);
    assert_eq!(
        (stats.completed, stats.searches),
        (2, 1),
        "the cold search is still running"
    );

    unwrap_mask(cold.wait());
    assert_eq!(svc.stats().completed, 3);
}

/// After a drift tick the program is not resolved at the new epoch, so
/// `submit` leaves the formerly cached key to the worker: it returns
/// having looked nothing up, and the worker transpiles and searches.
#[test]
fn after_an_epoch_advance_a_worker_answers_the_formerly_cached_key() {
    let svc = MaskService::start(one_worker());
    unwrap_mask(svc.call(recommend(1)));
    assert_eq!(
        unwrap_mask(svc.call(recommend(1))).provenance,
        Provenance::CacheHit
    );
    assert_eq!(svc.stats().inline_hits, 1);

    let cold = svc.submit(slow(2, 1_000)).expect("admitted");
    wait_until_dequeued(&svc);
    svc.advance_epoch(DeviceId::Rome).expect("served");
    let (cache, stats) = (svc.cache_stats(), svc.stats());
    let drifted = svc.submit(recommend(1)).expect("admitted");
    // The worker is still searching, so nothing below moved on the
    // submitting thread: no lookup, no search, no answer.
    let (cache_after, stats_after) = (svc.cache_stats(), svc.stats());
    assert_eq!(cache_after.lookups, cache.lookups);
    assert_eq!(stats_after.searches, stats.searches);
    assert_eq!(stats_after.completed, stats.completed);
    assert_eq!(stats_after.inline_hits, 1);

    unwrap_mask(cold.wait());
    let fresh = unwrap_mask(drifted.wait());
    assert_eq!(fresh.provenance, Provenance::FreshSearch);
    assert_eq!(fresh.key.epoch, 1);
    assert!(fresh.timing.queued_us > 0, "it waited behind the search");
    let stats = svc.stats();
    assert_eq!(stats.inline_hits, 1);
    assert_eq!(stats.searches, 3);
}

#[test]
fn each_inline_hit_counts_one_lookup_and_one_hit() {
    let svc = MaskService::start(one_worker());
    unwrap_mask(svc.call(recommend(1)));
    let before = svc.cache_stats();
    for n in 1..=5 {
        let hit = unwrap_mask(svc.call(recommend(1)));
        assert_eq!(hit.provenance, Provenance::CacheHit);
        let after = svc.cache_stats();
        assert_eq!(after.lookups, before.lookups + n, "hit {n}");
        assert_eq!(after.hits, before.hits + n, "hit {n}");
        assert_eq!(after.misses, before.misses);
    }
    let stats = svc.stats();
    assert_eq!(
        (stats.inline_hits, stats.completed, stats.accepted),
        (5, 6, 6)
    );
}

/// The tenant's second request with a one-token bucket, on a cold key
/// (queued) and on a warm one (answered inline).
fn second_request_with_one_token(warm: bool) -> Result<Response, ServiceError> {
    let mut tenancy = TenancyConfig::default();
    let quota = TenantQuota {
        rate_per_s: 0.001,
        burst: 1.0,
    };
    let spec = TenantSpec {
        weight: 1,
        quota: Some(quota),
    };
    tenancy.tenants.insert(TenantId(7), spec);
    let svc = MaskService::start(ServiceConfig {
        tenancy,
        virtual_time: true,
        ..one_worker()
    });
    if warm {
        unwrap_mask(svc.call(recommend(1)));
    }
    let limited = || recommend_with(tagged(4, 1), small_budget(), None, Tenancy::tenant(7));
    let first = unwrap_mask(svc.call(limited()));
    let want = if warm {
        Provenance::CacheHit
    } else {
        Provenance::FreshSearch
    };
    assert_eq!(first.provenance, want);
    let second = svc.call(limited());
    let stats = svc.stats();
    assert_eq!(stats.inline_hits, u64::from(warm));
    assert_eq!(stats.rejected_quota, 1);
    second
}

#[test]
fn a_one_token_tenant_is_refused_its_second_hit_as_through_the_queue() {
    let inline = second_request_with_one_token(true);
    assert!(
        matches!(
            inline,
            Err(ServiceError::QuotaExhausted {
                tenant: TenantId(7),
                ..
            })
        ),
        "{inline:?}"
    );
    assert_eq!(
        format!("{inline:?}"),
        format!("{:?}", second_request_with_one_token(false))
    );
}

#[test]
fn under_an_open_breaker_a_hit_is_the_breaker_fallback() {
    let svc = MaskService::start(ServiceConfig {
        breaker: true,
        ..one_worker()
    });
    let warm = unwrap_mask(svc.call(recommend(1)));
    assert_ne!(warm.mask, DdMask::all(4), "a searched mask, not all-DD");
    svc.set_fault_profile(
        DeviceId::Rome,
        FaultProfile {
            transient_failure: 1.0,
            ..FaultProfile::none()
        },
    );
    // Fully degraded searches count against the device until its
    // breaker opens.
    let mut tag = 2;
    while svc.breaker_state(DeviceId::Rome) != Some(BreakerState::Open) {
        let rec = unwrap_mask(svc.call(recommend(tag)));
        assert_eq!(rec.provenance, Provenance::DegradedAllDd);
        tag += 1;
        assert!(tag < 12, "the breaker never opened");
    }
    let fallback = unwrap_mask(svc.call(recommend(1)));
    assert_eq!(fallback.provenance, Provenance::BreakerFallback);
    assert_eq!((fallback.key, fallback.mask), (warm.key, warm.mask));
    assert_eq!(fallback.timing.queued_us, 0);
    let stats = svc.shutdown();
    assert_eq!((stats.inline_hits, stats.breaker_fallbacks), (1, 1));
    assert_eq!(
        stats.searches,
        tag as u64 - 1,
        "the fallback touched no backend"
    );
}
