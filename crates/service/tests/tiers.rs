//! Degradation-ladder contracts: tier-0 heuristic answers under tight
//! deadlines, tier-1 stale-while-revalidate with background upgrade,
//! single-flight refine dedup, "never cached as fresh" for heuristic
//! and stale responses, and budget/tier-config validation.

use adapt::DdProtocol;
use adapt_service::{
    DeviceId, MaskService, Provenance, Request, Response, SearchBudget, ServiceConfig,
    ServiceError, TierConfig, TierPolicy,
};

fn budget(tier: TierPolicy) -> SearchBudget {
    SearchBudget {
        shots: 64,
        trajectories: 2,
        neighborhood: 4,
        tier,
    }
}

/// A ladder-enabled service: virtual deadlines (so expiry is
/// schedule-pure), a 10-minute search floor (every bounded deadline is
/// "too tight", forcing tier 0/1), and a 2-epoch staleness bound.
fn tiered_service(devices: Vec<DeviceId>) -> MaskService {
    MaskService::start(ServiceConfig {
        devices,
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 32,
        seed: 2021,
        virtual_time: true,
        tiers: TierConfig {
            min_search_ms: 600_000,
            max_stale_epochs: 2,
        },
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

fn recommend(
    circuit: &qcirc::Circuit,
    device: DeviceId,
    tier: TierPolicy,
    deadline_ms: Option<u64>,
) -> Request {
    Request::RecommendMask {
        circuit: circuit.clone(),
        device,
        protocol: DdProtocol::Xy4,
        budget: budget(tier),
        deadline_ms,
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
fn tight_deadline_on_cold_cache_gets_a_heuristic_answer_then_upgrades() {
    let svc = tiered_service(vec![DeviceId::Rome]);
    let circuit = ghz(4);

    // Cold key, 50 ms deadline, 600 s search floor: tier 0 answers.
    let rec = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::Auto,
            Some(50),
        ))
        .expect("heuristic answer"),
    );
    assert_eq!(rec.provenance, Provenance::Heuristic);
    assert_eq!(rec.decoy_runs, 0, "tier 0 runs no decoys");
    assert_eq!(rec.mask.num_qubits(), 4);

    // The cold ticket went to the background refiner: once drained, the
    // key is cached with a *real* search result.
    svc.drain_refines();
    let warm = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::Auto,
            Some(50),
        ))
        .expect("upgraded answer"),
    );
    assert_eq!(warm.provenance, Provenance::CacheHit);
    assert!(warm.decoy_runs > 0, "the upgrade came from a real search");

    let stats = svc.stats();
    assert_eq!(stats.heuristic_served, 1);
    assert_eq!(stats.refines_completed, 1);
    assert_eq!(stats.searches, 0, "no inline search ever ran");
    assert_eq!(stats.worker_panics, 0);

    // The refined entry must be bit-identical to what an unbounded
    // inline search of the same key+budget would produce.
    let svc2 = tiered_service(vec![DeviceId::Rome]);
    let fresh = unwrap_mask(
        svc2.call(recommend(&circuit, DeviceId::Rome, TierPolicy::Auto, None))
            .expect("inline search"),
    );
    assert_eq!(fresh.provenance, Provenance::FreshSearch);
    assert_eq!(fresh.mask, warm.mask);
    assert_eq!(
        fresh.decoy_fidelity.to_bits(),
        warm.decoy_fidelity.to_bits()
    );
}

#[test]
fn heuristic_and_stale_answers_are_never_cached_as_fresh() {
    let svc = tiered_service(vec![DeviceId::Rome]);
    let circuit = ghz(4);

    // Tier-0 answer: nothing may land in the serving map from it.
    let rec = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::HeuristicOnly,
            Some(50),
        ))
        .expect("heuristic answer"),
    );
    assert_eq!(rec.provenance, Provenance::Heuristic);
    assert_eq!(svc.cache_stats().len, 0, "heuristic answers are not cached");

    // Warm the key for real, advance the epoch, serve stale: the stale
    // value must not be re-cached at the new epoch either.
    let fresh = unwrap_mask(
        svc.call(recommend(&circuit, DeviceId::Rome, TierPolicy::Auto, None))
            .expect("fresh search"),
    );
    assert_eq!(fresh.provenance, Provenance::FreshSearch);
    svc.set_refiner_enabled(false); // keep the refine from completing
    svc.advance_epoch(DeviceId::Rome).expect("advance");
    let stale = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::Auto,
            Some(50),
        ))
        .expect("stale answer"),
    );
    assert_eq!(stale.provenance, Provenance::StaleServed { age_epochs: 1 });
    assert_eq!(stale.mask, fresh.mask, "stale serves the superseded mask");
    assert_eq!(
        svc.cache_stats().len,
        0,
        "the stale value must not reappear in the serving map"
    );
}

#[test]
fn stale_is_served_within_bound_and_refused_beyond_it() {
    let svc = tiered_service(vec![DeviceId::Rome]);
    let circuit = ghz(4);
    unwrap_mask(
        svc.call(recommend(&circuit, DeviceId::Rome, TierPolicy::Auto, None))
            .expect("warm the key"),
    );
    svc.set_refiner_enabled(false);

    // Ages 1 and 2 are inside the bound.
    for age in 1..=2u64 {
        svc.advance_epoch(DeviceId::Rome).expect("advance");
        let rec = unwrap_mask(
            svc.call(recommend(
                &circuit,
                DeviceId::Rome,
                TierPolicy::Auto,
                Some(50),
            ))
            .expect("stale answer"),
        );
        assert_eq!(rec.provenance, Provenance::StaleServed { age_epochs: age });
    }

    // Age 3 exceeds max_stale_epochs = 2: the ladder falls to tier 0.
    svc.advance_epoch(DeviceId::Rome).expect("advance");
    let rec = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::Auto,
            Some(50),
        ))
        .expect("heuristic answer"),
    );
    assert_eq!(rec.provenance, Provenance::Heuristic);
    assert_eq!(svc.stats().stale_served, 2);
}

#[test]
fn a_hot_stale_key_schedules_exactly_one_refine() {
    let svc = tiered_service(vec![DeviceId::Rome]);
    let circuit = ghz(4);
    unwrap_mask(
        svc.call(recommend(&circuit, DeviceId::Rome, TierPolicy::Auto, None))
            .expect("warm the key"),
    );
    svc.advance_epoch(DeviceId::Rome).expect("advance");

    // A burst of tight-deadline requests for the now-stale key: all are
    // served stale, and the single-flight ticket ensures only one
    // refine job is enqueued for the flight group.
    let pending: Vec<_> = (0..6)
        .map(|_| {
            svc.submit(recommend(
                &circuit,
                DeviceId::Rome,
                TierPolicy::Auto,
                Some(250),
            ))
            .expect("queue has room")
        })
        .collect();
    for p in pending {
        let rec = unwrap_mask(p.wait().expect("stale answer"));
        assert!(
            matches!(
                rec.provenance,
                Provenance::StaleServed { age_epochs: 1 } | Provenance::CacheHit
            ),
            "got {:?}",
            rec.provenance
        );
    }
    svc.drain_refines();
    let stats = svc.stats();
    assert_eq!(
        stats.refines_enqueued, 1,
        "single-flight must dedupe the refine stampede: {stats:?}"
    );
    assert_eq!(stats.refines_completed, 1);

    // After the refine lands, the key serves as a plain hit.
    let rec = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::Auto,
            Some(250),
        ))
        .expect("hit"),
    );
    assert_eq!(rec.provenance, Provenance::CacheHit);
}

#[test]
fn search_only_tier_never_serves_stale_or_heuristic() {
    let svc = tiered_service(vec![DeviceId::Rome]);
    let circuit = ghz(4);
    unwrap_mask(
        svc.call(recommend(&circuit, DeviceId::Rome, TierPolicy::Auto, None))
            .expect("warm the key"),
    );
    svc.set_refiner_enabled(false);
    svc.advance_epoch(DeviceId::Rome).expect("advance");

    // SearchOnly with no deadline: a full fresh search at the new epoch,
    // even though a within-bound stale value exists.
    let rec = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::SearchOnly,
            None,
        ))
        .expect("fresh search"),
    );
    assert_eq!(rec.provenance, Provenance::FreshSearch);
    assert_eq!(svc.stats().stale_served, 0);
    assert_eq!(svc.stats().heuristic_served, 0);
}

#[test]
fn prewarm_makes_an_epoch_advance_a_non_event_for_hot_keys() {
    let svc = tiered_service(vec![DeviceId::Rome]);
    let circuit = ghz(4);
    // Make the key hot at epoch 0.
    for _ in 0..3 {
        unwrap_mask(
            svc.call(recommend(&circuit, DeviceId::Rome, TierPolicy::Auto, None))
                .expect("warm the key"),
        );
    }
    // Characterize it against epoch 1 before drift lands.
    let scheduled = svc.prewarm_epoch(DeviceId::Rome).expect("prewarm");
    assert_eq!(scheduled, 1);
    svc.drain_refines();
    svc.advance_epoch(DeviceId::Rome).expect("advance");

    // The very first post-advance request hits — no stale, no heuristic,
    // no cold miss.
    let rec = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::Auto,
            Some(50),
        ))
        .expect("prewarmed hit"),
    );
    assert_eq!(rec.provenance, Provenance::CacheHit);
    assert!(rec.decoy_runs > 0, "the prewarmed entry is a real search");
    let stats = svc.stats();
    assert_eq!(stats.prewarm_scheduled, 1);
    assert_eq!(stats.refines_completed, 1);
    assert_eq!(stats.heuristic_served, 0);
    assert_eq!(stats.stale_served, 0);
}

#[test]
fn killing_the_refiner_degrades_gracefully_instead_of_wedging() {
    let svc = tiered_service(vec![DeviceId::Rome]);
    let circuit = ghz(4);
    svc.set_refiner_enabled(false);

    // Cold + tight deadline with a dead refiner: heuristic answer, the
    // refine is dropped (ticket released), and drain returns instantly.
    let rec = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::Auto,
            Some(50),
        ))
        .expect("heuristic answer"),
    );
    assert_eq!(rec.provenance, Provenance::Heuristic);
    svc.drain_refines();
    let stats = svc.stats();
    assert_eq!(stats.refines_enqueued, 0);
    assert!(stats.refines_dropped >= 1);

    // Re-enabling the lane restores upgrades: the key is not wedged by
    // the dropped ticket.
    svc.set_refiner_enabled(true);
    let rec = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::Auto,
            Some(50),
        ))
        .expect("heuristic again"),
    );
    assert_eq!(rec.provenance, Provenance::Heuristic);
    svc.drain_refines();
    assert_eq!(svc.stats().refines_completed, 1);
    let rec = unwrap_mask(
        svc.call(recommend(
            &circuit,
            DeviceId::Rome,
            TierPolicy::Auto,
            Some(50),
        ))
        .expect("upgraded"),
    );
    assert_eq!(rec.provenance, Provenance::CacheHit);
}

#[test]
fn zero_budgets_are_rejected_with_a_typed_error() {
    // Config-level: a service cannot start with an unusable default.
    let bad = ServiceConfig {
        default_budget: SearchBudget {
            trajectories: 0,
            ..SearchBudget::default()
        },
        ..ServiceConfig::default()
    };
    match MaskService::try_start(bad) {
        Err(ServiceError::InvalidConfig { reason }) => {
            assert!(reason.contains("trajectories"), "got: {reason}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }

    // Request-level: a zero-shot budget is bounced at submit.
    let svc = tiered_service(vec![DeviceId::Rome]);
    let err = svc
        .submit(recommend(&ghz(3), DeviceId::Rome, TierPolicy::Auto, None))
        .and_then(|p| p.wait().map(|_| ()))
        .and(
            svc.submit(Request::RecommendMask {
                circuit: ghz(3),
                device: DeviceId::Rome,
                protocol: DdProtocol::Xy4,
                budget: SearchBudget {
                    shots: 0,
                    ..SearchBudget::default()
                },
                deadline_ms: None,
                tenancy: Default::default(),
            })
            .map(|_| ()),
        )
        .expect_err("zero shots must be rejected");
    assert!(matches!(err, ServiceError::InvalidConfig { .. }));

    // But a HeuristicOnly budget with zero search parameters is fine —
    // it never searches. (A cold key: ghz(5) was not warmed above.)
    let rec = unwrap_mask(
        svc.call(Request::RecommendMask {
            circuit: ghz(5),
            device: DeviceId::Rome,
            protocol: DdProtocol::Xy4,
            budget: SearchBudget {
                shots: 0,
                trajectories: 0,
                neighborhood: 0,
                tier: TierPolicy::HeuristicOnly,
            },
            deadline_ms: Some(50),
            tenancy: Default::default(),
        })
        .expect("heuristic-only answer"),
    );
    assert_eq!(rec.provenance, Provenance::Heuristic);
}
