//! End-to-end fleet tests: real sockets, two shards, one router.
//!
//! Everything here leans on the fleet determinism contract — all shards
//! run the same service seed, so a response is a pure function of
//! `(seed, key, budget)` and rerouting may change *where* an answer is
//! computed but never *what* it is.

use adapt::DdProtocol;
use adapt_fleet::ring::route_key;
use adapt_fleet::{
    ClientError, FleetError, FleetMap, FleetRouter, Ring, RouterConfig, ShardClient, ShardConfig,
    ShardId, ShardServer,
};
use adapt_service::{
    logical_hash, BreakerState, DeviceId, Request, Response, SearchBudget, ServiceConfig,
    ServiceError, TierPolicy, MAX_DELAY_NS,
};
use machine::WireDeadline;
use std::net::SocketAddr;
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

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
    recommend(tagged(3, tag))
}

fn recommend(circuit: qcirc::Circuit) -> Request {
    Request::RecommendMask {
        circuit,
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

fn breaker_state(router: &FleetRouter, shard: ShardId) -> BreakerState {
    let states = router.shard_states();
    states.into_iter().find(|&(s, _)| s == shard).unwrap().1
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
fn an_owner_shard_hashes_a_served_program_no_more() {
    let (shards, ring, _map) = start_fleet();
    let req = request(5);
    let owner = ring.owner(ring_key(&req)).unwrap();
    let owner_server = shards.iter().find(|s| s.shard() == owner).unwrap();
    let hashes = || owner_server.service().stats().logical_hashes;
    let mut client = ShardClient::new(owner_server.addr());
    let first = client
        .call(&req, WireDeadline::unbounded())
        .expect("served");
    // Once, by the ownership check, which books the program for the
    // resolve.
    let after_first = hashes();
    assert_eq!(after_first, 1, "hashed {after_first} times");

    // Repeats, and a repeat after a drift tick, find the program in the
    // book for both the ownership check and the resolve.
    for _ in 0..3 {
        let again = client
            .call(&req, WireDeadline::unbounded())
            .expect("served");
        match (&first, &again) {
            (Response::Mask(f), Response::Mask(a)) => assert_eq!((f.key, f.mask), (a.key, a.mask)),
            _ => panic!("expected mask recommendations"),
        }
    }
    owner_server
        .service()
        .advance_epoch(DeviceId::Guadalupe)
        .expect("served");
    client
        .call(&req, WireDeadline::unbounded())
        .expect("served");
    assert_eq!(hashes(), after_first, "no hash after the first request");

    for shard in shards {
        shard.stop();
    }
}

#[test]
fn router_reroutes_deterministically_across_kill_and_restart() {
    let (mut shards, ring, map) = start_fleet();
    let endpoints: Vec<_> = shards.iter().map(|s| (s.shard(), s.addr())).collect();
    let router = FleetRouter::new(RouterConfig::default(), &endpoints);

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
    // and — same seed — get the bit-identical semantic answer, each of
    // the three times it takes to open the victim's breaker: searched
    // afresh the first time, from the stand-in's cache after that.
    let report = shards.remove(0).stop();
    assert_eq!(report.stats.worker_panics, 0);
    let cached_digest = steady_digest.replace("|FreshSearch", "|CacheHit");
    for want in [&steady_digest, &cached_digest, &cached_digest] {
        let failover = router.call(req.clone()).expect("failover call");
        assert_eq!(failover.shard, shards[0].shard());
        assert!(failover.rerouted);
        assert_eq!(&mask_digest(&failover.response), want);
    }

    // Three consecutive transport failures opened the victim's breaker:
    // the next call skips it without paying a connection attempt.
    assert_eq!(breaker_state(&router, victim), BreakerState::Open);
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

/// A request frame whose pieces reach the shard far apart is still
/// served. The shard polls its stop flag with a 25 ms read timeout;
/// that poll must not drop the part of a frame already read. Split
/// after the header, the shard used to read the payload as the next
/// header and answer a wire error; split before the checksum trailer,
/// it lost the whole frame and the client waited forever.
#[test]
fn a_frame_split_across_the_poll_timeout_is_still_served() {
    use adapt_fleet::wire;
    use adapt_fleet::FrameKind;
    use std::io::Write;
    use std::time::Duration;

    let shard = ShardServer::start(ShardConfig::standalone(ShardId(3), service_config()))
        .expect("shard starts");
    let payload = wire::encode_request(&request(0), WireDeadline::unbounded());
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, FrameKind::Request, 0, &payload).expect("encode");
    for split in [wire::HEADER_BYTES, frame.len() - 4] {
        let mut stream = std::net::TcpStream::connect(shard.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        // A lost frame shows as this timeout instead of a hung test.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        stream.write_all(&frame[..split]).expect("first part");
        std::thread::sleep(Duration::from_millis(200));
        stream.write_all(&frame[split..]).expect("second part");
        let (header, body) = wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_BYTES)
            .unwrap_or_else(|e| panic!("split at byte {split}: no reply ({e:?})"));
        assert_eq!(
            header.kind,
            FrameKind::Response,
            "split at byte {split}: {:?}",
            wire::decode_error(&body)
        );
        assert!(matches!(
            wire::decode_response(&body),
            Ok(Response::Mask(_))
        ));
    }
    shard.stop();
}

/// A routed request keeps its delays. The router keys a request by the
/// `logical_hash` of the program it was given; the shard must search
/// that same program, so its answer is the one a local `MaskService`
/// gives for it, not the one for the program with its delay stripped.
#[test]
fn a_delay_crosses_the_wire_and_keys_the_same_program() {
    let mut circuit = tagged(3, 0);
    let stripped = circuit.clone();
    circuit.delay(96.0, 1);
    assert_ne!(logical_hash(&circuit), logical_hash(&stripped));
    let local = adapt_service::MaskService::try_start(service_config()).expect("service starts");
    let key_of = |circuit: &qcirc::Circuit| match local.call(recommend(circuit.clone())) {
        Ok(Response::Mask(r)) => r.key,
        other => panic!("expected a mask recommendation, got {other:?}"),
    };
    let (want, stripped_key) = (key_of(&circuit), key_of(&stripped));
    assert_ne!(want.circuit_hash, stripped_key.circuit_hash);
    local.shutdown();

    let shard = ShardServer::start(ShardConfig::standalone(ShardId(3), service_config()))
        .expect("shard starts");
    let mut client = ShardClient::new(shard.addr());
    match client.call(&recommend(circuit.clone()), WireDeadline::unbounded()) {
        Ok(Response::Mask(r)) => assert_eq!(r.key, want),
        other => panic!("expected a mask recommendation, got {other:?}"),
    }
    // The shard booked the program the router hashed, delay included:
    // its logical hash comes from the book, not from hashing again.
    let hashes = shard.service().stats().logical_hashes;
    assert_eq!(
        shard
            .service()
            .logical_hash_of(DeviceId::Guadalupe, &circuit),
        logical_hash(&circuit)
    );
    assert_eq!(shard.service().stats().logical_hashes, hashes);
    assert_eq!(shard.stop().stats.worker_panics, 0);
}

/// Requests the service's admission rule refuses, each `recommend`
/// with one field changed, and the part of the reason that names it.
fn unservable_requests() -> Vec<(&'static str, Request)> {
    let with_circuit = |edit: &dyn Fn(&mut qcirc::Circuit)| {
        let mut circuit = tagged(3, 0);
        edit(&mut circuit);
        recommend(circuit)
    };
    let with_budget = |edit: &dyn Fn(&mut SearchBudget)| {
        let mut request = request(0);
        if let Request::RecommendMask { budget, .. } = &mut request {
            edit(budget);
        }
        request
    };
    let mut out = Vec::new();
    for (names, ns) in [
        ("delay of NaN", f64::NAN),
        ("delay of -1", -1.0),
        ("delays sum past", 1e300),
    ] {
        out.push((
            names,
            with_circuit(&|c| {
                c.delay(ns, 1);
            }),
        ));
    }
    out.push((
        "delays sum past",
        with_circuit(&|c| {
            c.delay(MAX_DELAY_NS, 1).delay(1.0, 2);
        }),
    ));
    out.push((
        "non-finite parameter",
        with_circuit(&|c| {
            c.rz(f64::NAN, 0);
        }),
    ));
    out.push(("at least one qubit", recommend(qcirc::Circuit::new(0))));
    out.push(("does not fit", recommend(tagged(17, 0))));
    for n in [0, 17] {
        out.push(("neighborhood", with_budget(&|b| b.neighborhood = n)));
    }
    for n in [0, u64::MAX] {
        out.push(("shots", with_budget(&|b| b.shots = n)));
    }
    for n in [0, u32::MAX] {
        out.push(("trajectories", with_budget(&|b| b.trajectories = n)));
    }
    out
}

/// A shard refuses every request the service's admission rule refuses,
/// as the typed `InvalidConfig` a local `submit` answers, accepts none
/// of them, and keeps serving. No worker panics: the rule runs before
/// the queue. (A 65-bit classical register never gets that far: the
/// wire decoder keeps `qcirc::MAX_CLBITS` on it.)
#[test]
fn a_shard_refuses_what_submit_refuses() {
    let shard = ShardServer::start(ShardConfig::standalone(ShardId(3), service_config()))
        .expect("shard starts");
    let mut client = ShardClient::new(shard.addr());
    for (names, request) in unservable_requests() {
        match client.call(&request, WireDeadline::unbounded()) {
            Err(ClientError::Service(ServiceError::InvalidConfig { reason })) => {
                assert!(reason.contains(names), "want {names:?}, got {reason:?}")
            }
            other => panic!("{names}: expected InvalidConfig, got {other:?}"),
        }
    }
    let mut wide = qcirc::Circuit::with_clbits(3, 65);
    wide.h(0).measure(0, 64);
    match client.call(&recommend(wide), WireDeadline::unbounded()) {
        Err(ClientError::Service(ServiceError::Internal { reason })) => {
            assert!(reason.contains("creg of 65 bits"), "{reason}")
        }
        other => panic!("65 clbits: expected the wire's refusal, got {other:?}"),
    }
    assert_eq!(shard.service().stats().accepted, 0);
    assert!(matches!(
        client.call(&request(1), WireDeadline::unbounded()),
        Ok(Response::Mask(_))
    ));
    let stats = shard.stop().stats;
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.worker_panics, 0);
}

/// Every frame a shard sends is checksummed, a successful reply
/// included, so a mask corrupted in flight is a typed error at the
/// router rather than a wrong answer.
#[test]
fn a_shards_success_reply_carries_the_checksum_flag() {
    use adapt_fleet::wire;
    use adapt_fleet::FrameKind;

    let shard = ShardServer::start(ShardConfig::standalone(ShardId(3), service_config()))
        .expect("shard starts");
    let mut stream = std::net::TcpStream::connect(shard.addr()).expect("connect");
    let payload = wire::encode_request(&request(1), WireDeadline::unbounded());
    wire::write_frame(&mut stream, FrameKind::Request, 0, &payload).expect("send");
    let (header, body) =
        wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_BYTES).expect("reply");
    assert_eq!(header.kind, FrameKind::Response);
    assert_eq!(header.flags & wire::FLAG_CHECKSUM, wire::FLAG_CHECKSUM);
    assert!(matches!(
        wire::decode_response(&body),
        Ok(Response::Mask(_))
    ));
    shard.stop();
}

/// How long a test waits on a call into a fleet with a stalled shard
/// before it fails; a call that hangs would otherwise hang the test.
const WATCHDOG: Duration = Duration::from_secs(30);

/// The budget of a bounded request aimed at a stalled shard.
const BUDGET_MS: u64 = 100;

/// How long a bounded call with [`BUDGET_MS`] may take at most: the
/// budget, the client's 1 s reply margin, and 400 ms of slack for a
/// busy host. Two budgets and two margins are 2.2 s.
const ONE_BUDGET_BOUND: Duration = Duration::from_millis(BUDGET_MS + 1000 + 400);

/// Runs `call` on its own thread and waits at most [`WATCHDOG`] for it.
fn watched<T: Send + 'static>(call: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(call()));
    match rx.recv_timeout(WATCHDOG) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("no answer within {WATCHDOG:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("the watched call panicked"),
    }
}

/// A shard that takes connections and reads request frames, but never
/// replies. Its threads end with the test process.
fn stalled_shard() -> SocketAddr {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            std::thread::spawn(move || {
                while adapt_fleet::wire::read_frame(&mut stream, 1 << 20).is_ok() {}
            });
        }
    });
    addr
}

/// A fleet of the two ring shards where the first stalls and the second
/// serves, plus a [`BUDGET_MS`]-bounded request the stalled shard owns.
fn stalled_fleet() -> (SocketAddr, ShardServer, Ring, FleetMap, Request) {
    let ring = Ring::new(SHARD_IDS);
    let map = FleetMap::new();
    let live = start_shard(SHARD_IDS[1], &ring, &map);
    let tag = (0..64)
        .find(|&t| ring.owner(ring_key(&request(t))) == Some(SHARD_IDS[0]))
        .expect("some tag lands on the stalled shard");
    let mut req = request(tag);
    if let Request::RecommendMask { deadline_ms, .. } = &mut req {
        *deadline_ms = Some(BUDGET_MS);
    }
    (stalled_shard(), live, ring, map, req)
}

/// A bounded call whose ring owner takes the request and never replies
/// gives up on it after its budget plus the client's margin. The budget
/// is then spent, so the call ends there rather than granting the next
/// shard a second budget. Each timeout counts against the stalled
/// shard's breaker; the third opens it, and the fourth call skips the
/// shard and fails over to the live one at once.
#[test]
fn a_stalled_owner_fails_over_and_opens_its_breaker() {
    let (stalled, live, _ring, _map, req) = stalled_fleet();
    let endpoints = [(SHARD_IDS[0], stalled), (SHARD_IDS[1], live.addr())];
    let router = FleetRouter::new(RouterConfig::default(), &endpoints);
    for n in 1..=4 {
        let (r, q) = (router.clone(), req.clone());
        let sent = Instant::now();
        let routed = watched(move || r.call(q));
        if n <= 3 {
            // It waited out the stalled shard's budget, and no more.
            assert!(
                matches!(routed, Err(FleetError::AllShardsDown { attempts: 1, .. })),
                "call {n}: {routed:?}"
            );
            assert!(sent.elapsed() >= Duration::from_millis(BUDGET_MS));
            assert!(sent.elapsed() < ONE_BUDGET_BOUND, "call {n}");
        } else {
            let routed = routed.expect("failover call");
            assert_eq!(routed.shard, SHARD_IDS[1]);
            assert!(routed.rerouted);
        }
        let want = if n < 3 {
            BreakerState::Closed
        } else {
            BreakerState::Open
        };
        assert_eq!(breaker_state(&router, SHARD_IDS[0]), want, "call {n}");
    }
    let router_doc = router.registry().render_prometheus();
    assert_eq!(
        metric_value(&router_doc, "adapt_fleet_router_failfast_skips_total"),
        1
    );
    assert_eq!(live.stop().stats.worker_panics, 0);
}

/// A bounded call whose first two shards both stall spends one budget
/// in all: the time the first attempt took is charged before the
/// second, which is never made once the budget is gone. Each attempt
/// used to get the whole budget again, so the call waited two budgets
/// and two margins.
#[test]
fn failover_past_stalled_shards_keeps_one_budget() {
    let endpoints = [
        (SHARD_IDS[0], stalled_shard()),
        (SHARD_IDS[1], stalled_shard()),
    ];
    let router = FleetRouter::new(RouterConfig::default(), &endpoints);
    let mut req = request(3);
    if let Request::RecommendMask { deadline_ms, .. } = &mut req {
        *deadline_ms = Some(BUDGET_MS);
    }
    let sent = Instant::now();
    let routed = watched(move || router.call(req));
    let took = sent.elapsed();
    assert!(
        matches!(routed, Err(FleetError::AllShardsDown { attempts: 1, .. })),
        "{routed:?}"
    );
    assert!(took >= Duration::from_millis(BUDGET_MS));
    assert!(took < ONE_BUDGET_BOUND, "took {took:?}");
}

/// A shard asked for a key whose owner in the fleet map is stalled gives
/// up on the forwarding hop after the request's budget plus the margin,
/// serves the key itself, and counts the failed forward.
#[test]
fn a_stalled_forward_target_is_served_locally() {
    use adapt_fleet::{wire, FrameKind};

    let (stalled, entry, _ring, map, req) = stalled_fleet();
    map.set(SHARD_IDS[0], stalled);
    let payload = wire::encode_request(&req, WireDeadline::fresh(req.deadline_ms()));
    let addr = entry.addr();
    // A raw connection with no read timeout: the shard's own hop bound
    // is under test, not the client's.
    let (kind, body) = watched(move || {
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        wire::write_frame(&mut stream, FrameKind::Request, 0, &payload).expect("send");
        let (header, body) =
            wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME_BYTES).expect("reply");
        (header.kind, body)
    });
    assert_eq!(kind, FrameKind::Response, "{:?}", wire::decode_error(&body));
    assert!(matches!(
        wire::decode_response(&body),
        Ok(Response::Mask(_))
    ));
    let doc = ShardClient::new(addr).metrics().expect("metrics");
    assert_eq!(metric_value(&doc, "adapt_fleet_forward_failures_total"), 1);
    assert_eq!(metric_value(&doc, "adapt_fleet_forwards_total"), 0);
    assert_eq!(entry.stop().stats.worker_panics, 0);
}

/// The fleet scrape reads each shard's exposition with a bound, so a
/// stalled shard is skipped rather than hanging the scrape.
#[test]
fn fleet_metrics_skip_a_stalled_shard() {
    let (stalled, live, _ring, _map, _req) = stalled_fleet();
    let endpoints = [(SHARD_IDS[0], stalled), (SHARD_IDS[1], live.addr())];
    let router = FleetRouter::new(RouterConfig::default(), &endpoints);
    let doc = watched(move || router.metrics());
    assert!(doc.contains("shard=\"8\""), "live shard missing in:\n{doc}");
    assert!(doc.contains("shard=\"router\""));
    assert!(
        !doc.contains("shard=\"1\""),
        "stalled shard scraped:\n{doc}"
    );
    live.stop();
}
