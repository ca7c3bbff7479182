//! End-to-end fleet tests: real sockets, two shards, one router.
//!
//! Everything here leans on the fleet determinism contract — all shards
//! run the same service seed, so a response is a pure function of
//! `(seed, key, budget)` and rerouting may change *where* an answer is
//! computed but never *what* it is.

use adapt::DdProtocol;
use adapt_fleet::ring::route_key;
use adapt_fleet::{
    FleetMap, FleetRouter, Ring, RouterConfig, ShardClient, ShardConfig, ShardId, ShardServer,
    ShardState,
};
use adapt_service::{
    logical_hash, DeviceId, Request, Response, SearchBudget, ServiceConfig, ServiceError,
    TierPolicy,
};
use machine::WireDeadline;

const SEED: u64 = 1117;
const SHARD_IDS: [ShardId; 2] = [ShardId(1), ShardId(8)];

/// GHZ prefixed with a per-qubit X bitmask: distinct `tag` → distinct
/// structural hash, so every tag is its own cache key and ring key.
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

fn request(tag: usize) -> Request {
    Request::RecommendMask {
        circuit: tagged(3, tag),
        device: DeviceId::Guadalupe,
        protocol: DdProtocol::Cpmg,
        budget: SearchBudget {
            shots: 32,
            trajectories: 2,
            neighborhood: 2,
            tier: TierPolicy::default(),
        },
        deadline_ms: None,
        tenancy: Default::default(),
    }
}

fn ring_key(req: &Request) -> u64 {
    match req {
        Request::RecommendMask {
            circuit, device, ..
        }
        | Request::Execute {
            circuit, device, ..
        } => route_key(*device, logical_hash(circuit)),
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        devices: vec![DeviceId::Guadalupe],
        workers: 1,
        seed: SEED,
        virtual_time: true,
        ..ServiceConfig::default()
    }
}

fn start_shard(shard: ShardId, ring: &Ring, map: &FleetMap) -> ShardServer {
    ShardServer::start(ShardConfig {
        shard,
        service: service_config(),
        max_frame_bytes: 1 << 20,
        fleet: Some((ring.clone(), map.clone())),
    })
    .expect("shard starts")
}

fn start_fleet() -> (Vec<ShardServer>, Ring, FleetMap) {
    let ring = Ring::new(SHARD_IDS);
    let map = FleetMap::new();
    let shards = SHARD_IDS
        .iter()
        .map(|&s| start_shard(s, &ring, &map))
        .collect();
    (shards, ring, map)
}

/// The semantic identity of a mask response: everything except
/// wall-clock timing, which legitimately differs between shards.
fn mask_digest(response: &Response) -> String {
    match response {
        Response::Mask(r) => format!(
            "{:?}|{:?}|{:016x}|{}|{:?}",
            r.key,
            r.mask,
            r.decoy_fidelity.to_bits(),
            r.decoy_runs,
            r.provenance
        ),
        Response::Execution(_) => panic!("expected a mask recommendation"),
    }
}

fn metric_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn forwarding_lands_keys_on_their_ring_owner_with_identical_answers() {
    let (shards, ring, _map) = start_fleet();

    // Find a tag owned by each shard so both directions get exercised.
    let mut covered = 0u32;
    for tag in 0..16 {
        let req = request(tag);
        let owner = ring.owner(ring_key(&req)).unwrap();
        let non_owner = shards.iter().find(|s| s.shard() != owner).unwrap();
        let owner_server = shards.iter().find(|s| s.shard() == owner).unwrap();

        // Enter through the WRONG shard: the frame must take the
        // forwarding hop and come back with the owner's answer.
        let mut entry = ShardClient::new(non_owner.addr());
        let via_forward = entry
            .call(&req, WireDeadline::unbounded())
            .expect("forwarded call succeeds");

        // The same request straight at the owner must answer
        // identically (now as a cache hit on the same instance).
        let mut direct = ShardClient::new(owner_server.addr());
        let via_owner = direct
            .call(&req, WireDeadline::unbounded())
            .expect("direct call succeeds");

        match (&via_forward, &via_owner) {
            (Response::Mask(f), Response::Mask(o)) => {
                assert_eq!(f.key, o.key);
                assert_eq!(f.mask, o.mask);
                assert_eq!(f.decoy_fidelity.to_bits(), o.decoy_fidelity.to_bits());
            }
            _ => panic!("expected mask recommendations"),
        }
        covered |= 1 << SHARD_IDS.iter().position(|&s| s == owner).unwrap();
        if covered == 0b11 && tag >= 3 {
            break;
        }
    }
    assert_eq!(covered, 0b11, "tags 0..16 never covered both shards");

    // Every entry through a non-owner counts a forward on that shard.
    let total_forwards: u64 = shards
        .iter()
        .map(|s| {
            let mut c = ShardClient::new(s.addr());
            metric_value(&c.metrics().unwrap(), "adapt_fleet_forwards_total")
        })
        .sum();
    assert!(
        total_forwards >= 4,
        "expected forwards, saw {total_forwards}"
    );

    for shard in shards {
        let report = shard.stop();
        assert_eq!(report.stats.worker_panics, 0);
    }
}

#[test]
fn router_reroutes_deterministically_across_kill_and_restart() {
    let (mut shards, ring, map) = start_fleet();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.shard(), s.addr())).collect();
    let router = FleetRouter::new(
        RouterConfig {
            failure_threshold: 1,
            cooldown_requests: 4,
            max_attempts: 2,
        },
        &endpoints,
    );

    // A key owned by the shard we are about to kill.
    let victim = shards[0].shard();
    let tag = (0..64)
        .find(|&t| ring.owner(ring_key(&request(t))).unwrap() == victim)
        .expect("some tag lands on the victim");
    let req = request(tag);

    let steady = router.call(req.clone()).expect("steady call");
    assert_eq!(steady.shard, victim);
    assert!(!steady.rerouted);
    let steady_digest = mask_digest(&steady.response);

    // Kill the owner. The router must fail over to the surviving shard
    // and — same seed — get the bit-identical semantic answer.
    let report = shards.remove(0).stop();
    assert_eq!(report.stats.worker_panics, 0);
    let failover = router.call(req.clone()).expect("failover call");
    assert_eq!(failover.shard, shards[0].shard());
    assert!(failover.rerouted);
    assert_eq!(mask_digest(&failover.response), steady_digest);

    // One transport failure (threshold 1) opened the victim's breaker:
    // the next call skips it without paying a connection attempt.
    let state = router
        .shard_states()
        .into_iter()
        .find(|&(s, _)| s == victim)
        .unwrap()
        .1;
    assert!(matches!(state, ShardState::Open { .. }), "got {state:?}");
    let again = router.call(req.clone()).expect("fail-fast call");
    assert!(again.rerouted);

    // Restart the shard under the same identity and seed, re-point the
    // router: ownership must return, with the same answer as ever.
    let reborn = start_shard(victim, &ring, &map);
    router.set_endpoint(victim, reborn.addr());
    shards.insert(0, reborn);
    let recovered = router.call(req).expect("post-restart call");
    assert_eq!(recovered.shard, victim);
    assert!(!recovered.rerouted);
    assert_eq!(mask_digest(&recovered.response), steady_digest);

    for shard in shards {
        assert_eq!(shard.stop().stats.worker_panics, 0);
    }
}

#[test]
fn fleet_metrics_merge_with_per_shard_labels() {
    let (shards, _ring, _map) = start_fleet();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.shard(), s.addr())).collect();
    let router = FleetRouter::new(RouterConfig::default(), &endpoints);
    router.call(request(5)).expect("one routed call");

    let doc = router.metrics();
    for label in ["shard=\"1\"", "shard=\"8\"", "shard=\"router\""] {
        assert!(doc.contains(label), "missing {label} in:\n{doc}");
    }
    assert!(doc.contains("adapt_service_accepted_total{shard=\"1\"}"));
    assert!(doc.contains("adapt_fleet_router_routed_total{shard=\"router\"} 1"));
    // Merging must not duplicate TYPE headers per shard.
    let type_lines = doc
        .lines()
        .filter(|l| l.starts_with("# TYPE adapt_fleet_frames_total "))
        .count();
    assert_eq!(type_lines, 1);

    for shard in shards {
        shard.stop();
    }
}

#[test]
fn born_expired_wire_deadline_is_rejected_typed_not_served() {
    let (shards, _ring, _map) = start_fleet();
    let mut client = ShardClient::new(shards[0].addr());

    // 40 ms granted upstream, 40 ms already spent: the deadline crosses
    // the wire as Some(0) remaining and must be refused at admission —
    // never silently reinterpreted as unbounded.
    let spent = WireDeadline {
        budget_ms: Some(40),
        elapsed_ms: 40,
    };
    match client.call(&request(9), spent) {
        Err(adapt_fleet::ClientError::Service(ServiceError::DeadlineExceeded { .. })) => {}
        other => panic!("expected a typed deadline rejection, got {other:?}"),
    }

    for shard in shards {
        shard.stop();
    }
}
