//! Deadline-propagation and circuit-breaker behaviour of the service:
//! born-expired submissions, queue-lapsed drops, mid-search partial
//! masks, breaker trip/fallback/probe/recovery, and config validation.

use adapt::{DdMask, DdProtocol, Policy};
use adapt_service::{
    BreakerConfig, BreakerFallback, BreakerState, DeviceId, MaskService, Provenance, Request,
    Response, SearchBudget, ServiceConfig, ServiceError, TierPolicy,
};
use machine::{FaultProfile, RetryPolicy};

fn ghz(n: u32) -> qcirc::Circuit {
    let mut c = qcirc::Circuit::new(n as usize);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    c
}

/// A distinct circuit per tag (distinct structural hash → distinct
/// cache key → every request runs a fresh search). The tag is applied
/// as an X-gate bitmask — single X per qubit, so the transpiler cannot
/// cancel them into a collision.
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

/// A budget whose search runs far longer than the few-millisecond
/// deadlines the deadline tests race it against.
fn slow_budget() -> SearchBudget {
    SearchBudget {
        shots: 2048,
        trajectories: 64,
        neighborhood: 4,
        tier: TierPolicy::default(),
    }
}

fn recommend(circuit: qcirc::Circuit, device: DeviceId, deadline_ms: Option<u64>) -> Request {
    recommend_with(circuit, device, small_budget(), deadline_ms)
}

fn recommend_with(
    circuit: qcirc::Circuit,
    device: DeviceId,
    budget: SearchBudget,
    deadline_ms: Option<u64>,
) -> Request {
    Request::RecommendMask {
        circuit,
        device,
        protocol: DdProtocol::Xy4,
        budget,
        deadline_ms,
        tenancy: Default::default(),
    }
}

fn unwrap_mask(r: Response) -> adapt_service::Recommendation {
    match r {
        Response::Mask(rec) => rec,
        other => panic!("expected a mask response, got {other:?}"),
    }
}

/// A device whose every job fails: retries exhaust, searches degrade to
/// the conservative all-DD mask, and the breaker sees failures.
fn dead_profile() -> FaultProfile {
    FaultProfile {
        transient_failure: 1.0,
        ..FaultProfile::none()
    }
}

#[test]
fn born_expired_submission_is_rejected_without_enqueue() {
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 1,
        ..ServiceConfig::default()
    });
    let err = svc
        .submit(recommend(ghz(3), DeviceId::Rome, Some(0)))
        .expect_err("a zero budget is expired at submission");
    assert!(
        matches!(err, ServiceError::DeadlineExceeded { budget_ms: 0, .. }),
        "expected the typed deadline error, got {err:?}"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.accepted, 0, "the job must never have been enqueued");
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.rejected_deadline, 1);
    assert_eq!(stats.deadline_dropped, 0);
    assert_eq!(stats.searches, 0);
}

#[test]
fn deadline_lapsing_in_queue_drops_the_job_uncounted_unexecuted() {
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Guadalupe],
        workers: 1,
        ..ServiceConfig::default()
    });
    // The slow job occupies the single worker for several milliseconds
    // (a fresh 8-qubit search on the 16-qubit device); the 1 ms job
    // behind it expires queued.
    let slow = svc
        .submit(recommend_with(
            ghz(8),
            DeviceId::Guadalupe,
            slow_budget(),
            None,
        ))
        .expect("submit slow");
    // Wait for the worker to take the slow job: the scheduler is
    // deadline-aware now, so a tight-deadline job submitted while the
    // slow one is still *queued* would (correctly) jump ahead of it
    // and run instead of expiring behind it.
    let depth = svc.metrics_registry().gauge("adapt_service_queue_depth");
    while depth.get() > 0 {
        std::thread::yield_now();
    }
    let doomed = svc
        .submit(recommend(ghz(4), DeviceId::Guadalupe, Some(1)))
        .expect("accepted at submission — not yet expired");
    assert!(slow.wait().is_ok(), "the slow job itself succeeds");
    let err = doomed.wait().expect_err("expired while queued");
    assert!(
        matches!(err, ServiceError::DeadlineExceeded { budget_ms: 1, .. }),
        "expected the typed deadline error, got {err:?}"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.deadline_dropped, 1);
    assert_eq!(
        stats.searches, 1,
        "the dropped job must not have run its search"
    );
}

#[test]
fn deadline_mid_search_serves_a_conservative_partial_mask_and_skips_the_cache() {
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Guadalupe],
        workers: 1,
        ..ServiceConfig::default()
    });
    // Generous enough to be dequeued and start searching, far too tight
    // for the full search (hundreds of decoy simulations).
    let circuit = ghz(7);
    let budget = slow_budget();
    let rec = unwrap_mask(
        svc.call(Request::RecommendMask {
            circuit: circuit.clone(),
            device: DeviceId::Guadalupe,
            protocol: DdProtocol::Xy4,
            budget,
            deadline_ms: Some(5),
            tenancy: Default::default(),
        })
        .expect("a mid-search expiry serves the conservative partial mask"),
    );
    assert_eq!(rec.provenance, Provenance::PartialSearch);
    assert!(rec.degraded, "unvisited neighborhoods are all-DD");
    // Partial masks are never cached: the same key searches afresh.
    let retry = unwrap_mask(
        svc.call(Request::RecommendMask {
            circuit,
            device: DeviceId::Guadalupe,
            protocol: DdProtocol::Xy4,
            budget,
            deadline_ms: None,
            tenancy: Default::default(),
        })
        .expect("unbounded retry"),
    );
    assert_ne!(
        retry.provenance,
        Provenance::CacheHit,
        "the partial result must not have been cached"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.partial_searches, 1);
    assert_eq!(stats.searches, 2);
}

#[test]
fn breaker_trips_serves_conservative_fallback_and_recovers_via_probe() {
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 1,
        breaker: BreakerConfig {
            window: 4,
            min_samples: 2,
            failure_threshold: 1.0,
            cooldown_requests: 2,
            fallback: BreakerFallback::ConservativeMask,
            ..BreakerConfig::enabled()
        },
        ..ServiceConfig::default()
    });
    svc.set_fault_profile(DeviceId::Rome, dead_profile());
    // Two fully-degraded searches fill min_samples and trip the breaker.
    for tag in 0..2 {
        let rec = unwrap_mask(
            svc.call(recommend(tagged(4, tag), DeviceId::Rome, None))
                .expect("degraded ok"),
        );
        assert_eq!(rec.provenance, Provenance::DegradedAllDd);
    }
    assert_eq!(svc.breaker_state(DeviceId::Rome), Some(BreakerState::Open));
    // First denied admission: the conservative fallback, backend
    // untouched (searches counter must not move).
    let rec = unwrap_mask(
        svc.call(recommend(tagged(4, 2), DeviceId::Rome, None))
            .expect("fallback ok"),
    );
    assert_eq!(rec.provenance, Provenance::BreakerFallback);
    assert_eq!(
        rec.mask,
        DdMask::all(4),
        "nothing cached for this key, so the fallback is all-DD"
    );
    assert_eq!(rec.decoy_runs, 0);
    // Heal the device; the second denied admission converts into the
    // half-open probe, which runs for real, succeeds, and closes.
    svc.clear_fault_profile(DeviceId::Rome);
    let rec = unwrap_mask(
        svc.call(recommend(tagged(4, 3), DeviceId::Rome, None))
            .expect("probe ok"),
    );
    assert_eq!(rec.provenance, Provenance::FreshSearch);
    assert_eq!(
        svc.breaker_state(DeviceId::Rome),
        Some(BreakerState::Closed)
    );
    let transitions: Vec<_> = svc.breaker_transitions().iter().map(|t| t.to).collect();
    assert_eq!(
        transitions,
        vec![
            BreakerState::Open,
            BreakerState::HalfOpen,
            BreakerState::Closed
        ]
    );
    let stats = svc.shutdown();
    assert_eq!(stats.breaker_trips, 1);
    assert_eq!(stats.breaker_recoveries, 1);
    assert_eq!(stats.breaker_fallbacks, 1);
    assert_eq!(stats.searches, 3, "the fallback never touched the backend");
}

#[test]
fn open_breaker_in_fail_fast_mode_rejects_at_submission() {
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 1,
        breaker: BreakerConfig {
            window: 4,
            min_samples: 1,
            failure_threshold: 1.0,
            cooldown_requests: 100,
            open_retry_hint_ms: 321,
            fallback: BreakerFallback::FailFast,
            ..BreakerConfig::enabled()
        },
        ..ServiceConfig::default()
    });
    svc.set_fault_profile(DeviceId::Rome, dead_profile());
    let rec = unwrap_mask(
        svc.call(recommend(tagged(4, 0), DeviceId::Rome, None))
            .expect("degraded ok"),
    );
    assert_eq!(rec.provenance, Provenance::DegradedAllDd);
    assert_eq!(svc.breaker_state(DeviceId::Rome), Some(BreakerState::Open));
    let err = svc
        .submit(recommend(tagged(4, 1), DeviceId::Rome, None))
        .expect_err("open breaker fails fast at submission");
    assert_eq!(
        err,
        ServiceError::DeviceUnhealthy {
            device: DeviceId::Rome,
            retry_after_ms: 321
        }
    );
    let stats = svc.shutdown();
    assert_eq!(stats.rejected_breaker, 1);
    assert_eq!(stats.searches, 1);
}

#[test]
fn invalid_configs_surface_typed_errors_instead_of_panics() {
    let bad_retry = ServiceConfig {
        retry: RetryPolicy { max_attempts: 0 },
        ..ServiceConfig::default()
    };
    assert!(matches!(
        MaskService::try_start(bad_retry),
        Err(ServiceError::InvalidConfig { .. })
    ));
    let bad_breaker = ServiceConfig {
        breaker: BreakerConfig {
            window: 0,
            ..BreakerConfig::enabled()
        },
        ..ServiceConfig::default()
    };
    assert!(matches!(
        MaskService::try_start(bad_breaker),
        Err(ServiceError::InvalidConfig { .. })
    ));
    // A disabled breaker never validates its tuning: it cannot act.
    let disabled = ServiceConfig {
        breaker: BreakerConfig {
            window: 0,
            ..BreakerConfig::disabled()
        },
        ..ServiceConfig::default()
    };
    let svc = MaskService::try_start(disabled).expect("disabled breaker tuning is ignored");
    svc.shutdown();
}

/// Every execution runs the program on the backend, so a successful one
/// is a success verdict for the breaker. Under Execute-only traffic a
/// minority of failures must therefore never trip it.
#[test]
fn successful_executions_keep_the_breaker_closed() {
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 1,
        breaker: BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_threshold: 0.5,
            fallback: BreakerFallback::ConservativeMask,
            ..BreakerConfig::enabled()
        },
        ..ServiceConfig::default()
    });
    let mut failures = 0;
    for tag in 0..24 {
        // Every fourth request runs while the device is dead: a quarter
        // of any window fails.
        if tag % 4 == 3 {
            svc.set_fault_profile(DeviceId::Rome, dead_profile());
        } else {
            svc.clear_fault_profile(DeviceId::Rome);
        }
        match svc.call(Request::Execute {
            circuit: tagged(4, tag),
            device: DeviceId::Rome,
            policy: Policy::NoDd,
            deadline_ms: None,
            tenancy: Default::default(),
        }) {
            Ok(Response::Execution(e)) => assert_eq!(e.mask, DdMask::none(4)),
            Err(ServiceError::Failed(_)) => failures += 1,
            other => panic!("request {tag}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(failures, 6, "exactly the dead-device executions fail");
    assert_eq!(
        svc.breaker_state(DeviceId::Rome),
        Some(BreakerState::Closed)
    );
    assert_eq!(svc.shutdown().breaker_trips, 0);
}

/// Both request kinds naming a program wider than the device.
fn too_wide_requests(device: DeviceId) -> [Request; 2] {
    let wide = ghz(device.build(0).num_qubits() as u32 + 4);
    [
        recommend(wide.clone(), device, None),
        Request::Execute {
            circuit: wide,
            device,
            policy: Policy::Adapt,
            deadline_ms: None,
            tenancy: Default::default(),
        },
    ]
}

#[test]
fn circuits_wider_than_their_device_are_rejected_not_panicked() {
    // Regression: the transpiler's layout assert used to fire on the
    // worker, which answered `Internal` and counted a worker panic.
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Guadalupe],
        ..ServiceConfig::default()
    });
    for request in too_wide_requests(DeviceId::Guadalupe) {
        match svc.submit(request) {
            Err(ServiceError::InvalidConfig { reason }) => assert_eq!(
                reason,
                "20-qubit circuit does not fit on guadalupe (16 qubits)"
            ),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
    // A program as wide as the device is still served.
    match svc.call(Request::Execute {
        circuit: ghz(16),
        device: DeviceId::Guadalupe,
        policy: Policy::NoDd,
        deadline_ms: None,
        tenancy: Default::default(),
    }) {
        Ok(Response::Execution(e)) => assert_eq!(e.mask, DdMask::none(16)),
        other => panic!("expected an execution, got {other:?}"),
    }
    let stats = svc.shutdown();
    assert_eq!(stats.worker_panics, 0);
}

/// Both request kinds for `circuit` on `device`.
fn both_kinds(circuit: qcirc::Circuit, device: DeviceId) -> [Request; 2] {
    [
        recommend(circuit.clone(), device, None),
        Request::Execute {
            circuit,
            device,
            policy: Policy::Adapt,
            deadline_ms: None,
            tenancy: Default::default(),
        },
    ]
}

#[test]
fn non_finite_gate_parameters_are_rejected_not_panicked() {
    // Regression: an `RZ(NaN)` reached the search, whose fidelities came
    // out NaN and panicked the worker.
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        ..ServiceConfig::default()
    });
    for angle in [f64::NAN, f64::INFINITY] {
        let mut c = ghz(3);
        c.rz(angle, 1);
        for request in both_kinds(c, DeviceId::Rome) {
            match svc.submit(request) {
                Err(ServiceError::InvalidConfig { reason }) => {
                    assert!(reason.ends_with("has a non-finite parameter"), "{reason}")
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }
    // A finite angle is still served.
    let mut c = ghz(3);
    c.rz(0.25, 1);
    match svc.call(recommend(c, DeviceId::Rome, None)) {
        Ok(Response::Mask(_)) => {}
        other => panic!("expected a mask, got {other:?}"),
    }
    let stats = svc.shutdown();
    assert_eq!(stats.worker_panics, 0);
}

#[test]
fn classical_registers_wider_than_64_bits_are_rejected_not_panicked() {
    // Regression: outcomes are 64-bit words, and a 65-bit register
    // overflowed a shift in the sampler (a worker panic in debug builds).
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        ..ServiceConfig::default()
    });
    let mut wide = qcirc::Circuit::with_clbits(3, 65);
    wide.h(0).cx(0, 1).measure(1, 64);
    for request in both_kinds(wide, DeviceId::Rome) {
        match svc.submit(request) {
            Err(ServiceError::InvalidConfig { reason }) => assert_eq!(
                reason,
                "65 classical bits exceed the 64-bit outcome register"
            ),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
    // Exactly 64 bits is still served.
    let mut full = qcirc::Circuit::with_clbits(3, 64);
    full.h(0).cx(0, 1).measure(1, 63);
    match svc.call(recommend(full, DeviceId::Rome, None)) {
        Ok(Response::Mask(_)) => {}
        other => panic!("expected a mask, got {other:?}"),
    }
    let stats = svc.shutdown();
    assert_eq!(stats.worker_panics, 0);
}
