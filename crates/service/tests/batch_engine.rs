//! A service search runs its decoy jobs through the machine's batch
//! engine, behind the fault and retry wrappers every request gets.
//!
//! The machine's batch counters live in the global registry, so this
//! file holds a single test: its own binary, with no other test moving
//! the counters.

use adapt::DdProtocol;
use adapt_service::{
    DeviceId, MaskService, Provenance, Request, Response, SearchBudget, ServiceConfig,
};

fn ghz(n: usize) -> qcirc::Circuit {
    let mut c = qcirc::Circuit::new(n);
    c.h(0);
    for q in 1..n as u32 {
        c.cx(q - 1, q);
    }
    c.measure_all();
    c
}

#[test]
fn fresh_searches_take_the_batch_engine() {
    let registry = adapt_obs::global();
    let jobs = registry.counter("adapt_machine_batch_jobs_total");
    let replays = registry.counter("adapt_machine_batch_replays_total");
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        ..ServiceConfig::default()
    });
    let (jobs_before, replays_before) = (jobs.get(), replays.get());
    // A 4-qubit program is one neighbourhood of all 16 masks, so the
    // referee's three runs (the committed mask and both extremes) repeat
    // runs the search already made on the same seed.
    let response = svc.call(Request::RecommendMask {
        circuit: ghz(4),
        device: DeviceId::Rome,
        protocol: DdProtocol::Xy4,
        budget: SearchBudget {
            shots: 64,
            trajectories: 2,
            ..SearchBudget::default()
        },
        deadline_ms: None,
        tenancy: Default::default(),
    });
    let Ok(Response::Mask(rec)) = response else {
        panic!("expected a mask, got {response:?}");
    };
    assert_eq!(rec.provenance, Provenance::FreshSearch);
    assert!(rec.decoy_runs > 0);
    assert!(
        jobs.get() - jobs_before >= rec.decoy_runs as u64,
        "{} batch jobs for {} decoy runs",
        jobs.get() - jobs_before,
        rec.decoy_runs
    );
    assert!(
        replays.get() > replays_before,
        "the referee's repeats replayed"
    );
    assert_eq!(svc.shutdown().worker_panics, 0);
}
