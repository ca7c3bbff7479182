//! Multi-tenant scheduling end to end: property tests over the
//! weighted-fair / EDF discipline, token-bucket admission through the
//! full service, the UDD config-time rejection, and a concurrency
//! stress that would deadlock under the old lost-wakeup condvar
//! protocol.

use adapt::DdProtocol;
use adapt_service::{
    DeviceId, MaskService, PriorityClass, Provenance, Request, Response, SearchBudget,
    ServiceConfig, ServiceError, Tenancy, TenancyConfig, TenantId, TenantQuota, TenantScheduler,
    TenantSpec, TierConfig, TierPolicy,
};
use proptest::prelude::*;
use std::sync::Arc;

fn small_circuit(tag: usize) -> qcirc::Circuit {
    let mut c = qcirc::Circuit::new(4);
    for q in 0..4 {
        if tag & (1 << q) != 0 {
            c.x(q);
        }
    }
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    c
}

fn ladder_config(tenancy: TenancyConfig) -> ServiceConfig {
    ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 2,
        queue_capacity: 256,
        seed: 7,
        virtual_time: true,
        // No finite deadline fits a search: deadline-carrying requests
        // answer instantly from the heuristic tier.
        tiers: TierConfig {
            min_search_ms: 600_000,
            max_stale_epochs: 2,
        },
        tenancy,
        ..ServiceConfig::default()
    }
}

fn request(tag: usize, tenancy: Tenancy, tier: TierPolicy, deadline_ms: Option<u64>) -> Request {
    Request::RecommendMask {
        circuit: small_circuit(tag),
        device: DeviceId::Rome,
        protocol: DdProtocol::Xy4,
        budget: SearchBudget {
            shots: 32,
            trajectories: 1,
            neighborhood: 2,
            tier,
        },
        deadline_ms,
        tenancy,
    }
}

// --- scheduler properties ---------------------------------------------------

/// A scenario: per-tenant weight and backlog size, all in one class.
fn scenario_strategy() -> impl Strategy<Value = Vec<(u32, usize)>> {
    prop::collection::vec((1u32..5, 1usize..12), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Starvation-freedom: while a tenant stays backlogged, the number
    /// of consecutive dequeues granted to *other* tenants never exceeds
    /// the sum of the other tenants' weights — every backlogged tenant
    /// is reached within one full ring turn.
    #[test]
    fn weighted_fair_round_robin_never_starves(scenario in scenario_strategy()) {
        let mut config = TenancyConfig::default();
        let mut sched = TenantScheduler::new();
        let total_weight: u32 = scenario.iter().map(|(w, _)| *w).sum();
        let mut remaining = vec![0usize; scenario.len()];
        for (i, &(weight, backlog)) in scenario.iter().enumerate() {
            config.tenants.insert(
                TenantId(i as u32),
                TenantSpec { weight, quota: None },
            );
            for j in 0..backlog {
                sched.push(TenantId(i as u32), PriorityClass::Standard, j as u64, (i, j));
            }
            remaining[i] = backlog;
        }
        let mut gap = vec![0u32; scenario.len()];
        while let Some((tenant, _)) = sched.pop(&config) {
            let t = tenant.0 as usize;
            remaining[t] -= 1;
            gap[t] = 0;
            for (i, g) in gap.iter_mut().enumerate() {
                if i != t && remaining[i] > 0 {
                    *g += 1;
                    let bound = total_weight - scenario[i].0;
                    prop_assert!(
                        *g <= bound,
                        "tenant {i} (weight {}) waited {} dequeues, bound {bound}",
                        scenario[i].0,
                        *g
                    );
                }
            }
        }
        prop_assert!(remaining.iter().all(|&r| r == 0), "everything drains");
    }

    /// EDF with a deterministic tie-break: a single tenant's lane pops
    /// in exactly (key, submission order) — i.e. a stable sort by key —
    /// and two schedulers fed the same pushes agree item for item.
    #[test]
    fn edf_pops_are_a_stable_sort_by_deadline(keys in prop::collection::vec(0u64..8, 0..40)) {
        let mut a = TenantScheduler::new();
        let mut b = TenantScheduler::new();
        for (i, &k) in keys.iter().enumerate() {
            a.push(TenantId(0), PriorityClass::Standard, k, i);
            b.push(TenantId(0), PriorityClass::Standard, k, i);
        }
        let config = TenancyConfig::default();
        let mut expected: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(k, _)| k); // stable: ties keep submit order
        let popped_a: Vec<usize> =
            std::iter::from_fn(|| a.pop(&config).map(|(_, i)| i)).collect();
        let popped_b: Vec<usize> =
            std::iter::from_fn(|| b.pop(&config).map(|(_, i)| i)).collect();
        let want: Vec<usize> = expected.into_iter().map(|(_, i)| i).collect();
        prop_assert_eq!(&popped_a, &want, "EDF must be a stable sort by key");
        prop_assert_eq!(popped_a, popped_b, "identical pushes give identical schedules");
    }
}

// --- quota admission through the full service -------------------------------

#[test]
fn quota_rejections_and_virtual_refill_through_the_service() {
    let mut tenancy = TenancyConfig::default();
    tenancy.tenants.insert(
        TenantId(3),
        TenantSpec {
            weight: 1,
            quota: Some(TenantQuota {
                rate_per_s: 10.0,
                burst: 2.0,
            }),
        },
    );
    let svc = MaskService::start(ladder_config(tenancy));
    let metered = Tenancy::with_class(3, PriorityClass::Interactive);
    let call = |svc: &MaskService, tag: usize| {
        svc.call(request(tag, metered, TierPolicy::HeuristicOnly, Some(250)))
    };

    // Burst of 2 admitted, the rest rejected with a refill hint.
    assert!(call(&svc, 1).is_ok());
    assert!(call(&svc, 2).is_ok());
    for tag in 3..5 {
        match call(&svc, tag) {
            Err(ServiceError::QuotaExhausted {
                tenant,
                retry_after_ms,
            }) => {
                assert_eq!(tenant, TenantId(3));
                assert_eq!(retry_after_ms, 100, "1 token at 10/s is 100 ms away");
            }
            other => panic!("expected quota rejection, got {other:?}"),
        }
    }
    // An unmetered tenant is untouched by tenant 3's empty bucket.
    assert!(svc
        .call(request(
            9,
            Tenancy::tenant(4),
            TierPolicy::HeuristicOnly,
            Some(250)
        ))
        .is_ok());

    // Virtual time refills deterministically: +100 ms buys one token.
    svc.advance_quota_ms(100.0);
    assert!(call(&svc, 5).is_ok());
    assert!(matches!(
        call(&svc, 6),
        Err(ServiceError::QuotaExhausted { .. })
    ));

    let exposition = svc.render_tenant_metrics();
    for needle in [
        "adapt_service_tenant_rejected_quota_total",
        "tenant=\"t3\"",
        "tenant=\"t4\"",
    ] {
        assert!(
            exposition.contains(needle),
            "missing {needle} in:\n{exposition}"
        );
    }
    let stats = svc.shutdown();
    assert_eq!(stats.rejected_quota, 3);
    assert_eq!(stats.accepted, 4);
}

// --- config-time validation -------------------------------------------------

#[test]
fn odd_udd_pulse_count_is_rejected_at_submission() {
    let svc = MaskService::start(ladder_config(TenancyConfig::default()));
    let result = svc.call(Request::RecommendMask {
        circuit: small_circuit(1),
        device: DeviceId::Rome,
        protocol: DdProtocol::Udd { pulses: 5 },
        budget: SearchBudget::default(),
        deadline_ms: None,
        tenancy: Tenancy::default(),
    });
    match result {
        Err(ServiceError::InvalidConfig { reason }) => {
            assert!(
                reason.contains("odd"),
                "reason should name the defect: {reason}"
            );
        }
        other => panic!("odd UDD must be a typed config error, got {other:?}"),
    }
    // The even count passes the same gate (and rides the inline path).
    let ok = svc.call(Request::RecommendMask {
        circuit: small_circuit(1),
        device: DeviceId::Rome,
        protocol: DdProtocol::Udd { pulses: 4 },
        budget: SearchBudget {
            shots: 32,
            trajectories: 1,
            neighborhood: 2,
            tier: TierPolicy::Auto,
        },
        deadline_ms: None,
        tenancy: Tenancy::default(),
    });
    assert!(ok.is_ok(), "even UDD request must be served: {ok:?}");
    let stats = svc.shutdown();
    assert_eq!(
        stats.worker_panics, 0,
        "validation happens before any worker"
    );
}

#[test]
fn invalid_tenancy_config_fails_startup() {
    let mut tenancy = TenancyConfig::default();
    tenancy.tenants.insert(
        TenantId(0),
        TenantSpec {
            weight: 0,
            quota: None,
        },
    );
    match MaskService::try_start(ladder_config(tenancy)) {
        Err(ServiceError::InvalidConfig { reason }) => {
            assert!(
                reason.contains("weight"),
                "reason names the field: {reason}"
            );
        }
        other => panic!("zero weight must fail validation, got {other:?}"),
    }
}

// --- condvar stress ----------------------------------------------------------

/// Hammers the queue from many submitters while the heuristic tier
/// schedules background refines on the same worker pool. Every call
/// must complete: under the old protocol a worker could consume the
/// only pending notification and then park with client jobs still
/// queued (lost wakeup) once refine work and client work interleaved.
#[test]
fn concurrent_submitters_never_lose_a_wakeup() {
    let svc = Arc::new(MaskService::start(ladder_config(TenancyConfig::default())));
    let submitters = 4;
    let per_thread = 40;
    let handles: Vec<_> = (0..submitters)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    // A small hot set so refine single-flight dedups and
                    // most answers race a pending refine.
                    let tag = (t + i) % 6;
                    let class = PriorityClass::ALL[(t + i) % 3];
                    let tenancy = Tenancy::with_class(t as u32, class);
                    let rec = svc
                        .call(request(tag, tenancy, TierPolicy::Auto, Some(250)))
                        .expect("stress call completes");
                    match rec {
                        Response::Mask(rec) => assert!(matches!(
                            rec.provenance,
                            Provenance::Heuristic | Provenance::CacheHit
                        )),
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread");
    }
    svc.drain_refines();
    let svc = Arc::into_inner(svc).expect("all submitters joined");
    let stats = svc.shutdown();
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(
        stats.completed,
        (submitters * per_thread) as u64,
        "every submitted job is answered"
    );
}
