//! **Fleet chaos** — runs the `adapt-fleet` shard fabric end to end:
//! real sockets, whole-shard kills and restarts, and a 1→2→4-shard
//! scaling curve.
//!
//! Three phases, all over loopback TCP:
//!
//! 1. **Scaling.** For each shard count (1 and 2 in `--quick`, plus 4 in
//!    full mode) a fresh fleet is started and a fixed number of
//!    closed-loop client threads drive distinct-key `RecommendMask`
//!    requests through the [`FleetRouter`]. Every shard runs the same
//!    seed under a flaky fault profile with *real* (slept) retry
//!    backoff, so request latency is wait-dominated and shards overlap
//!    their sleeps — the regime where adding shards buys throughput
//!    even on a single-core host. Keys are chosen owner-balanced per
//!    ring so the curve measures shard parallelism, not hash luck. Full
//!    mode asserts 4-shard aggregate throughput ≥ 2.5× the 1-shard
//!    baseline.
//! 2. **Chaos.** A two-shard fleet serves a warmed key pool
//!    sequentially; one shard is killed mid-run (`ShardServer::stop`
//!    shuts its sockets down abruptly, like a crash). Invariants:
//!    every orphaned key is served by exactly the shard
//!    `owner_among(key, live)` predicts (deterministic rerouting), the
//!    failover answers are semantically identical to the dead shard's
//!    (fleet determinism: same seed → same mask), and the healthy
//!    shard's p99 over its own keys stays within 2× its steady-state
//!    p99 (+5 ms scheduler epsilon). The shard is then restarted under
//!    its old identity — ownership must return, again bit-identically.
//! 3. **Replay.** The whole chaos phase runs a second time from
//!    scratch; the per-shard response logs (provenance, mask, fidelity
//!    bits — everything except wall-clock timing) must match the first
//!    run line for line.
//!
//! Zero worker panics are tolerated anywhere. Results land in
//! `results/BENCH_fleet.json`; the scaling entries use the same schema
//! block (`shards`/`requests`/`throughput_rps`/`latency_ms`) as the
//! single-instance `fleet_baseline` block `service_loadgen` writes into
//! `BENCH_service.json`, so the two files compose into one curve.

use crate::runner::ExperimentCfg;
use adapt::DdProtocol;
use adapt_fleet::ring::route_key;
use adapt_fleet::{FleetMap, FleetRouter, Ring, RouterConfig, ShardConfig, ShardId, ShardServer};
use adapt_service::{
    logical_hash, DeviceId, Request, Response, SearchBudget, ServiceConfig, TierPolicy,
};
use machine::{FaultProfile, RetryPolicy};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Qubits in the workload circuits (Clifford, so the CHP fast path
/// serves them and CPU stays far below the slept retry backoff).
const QUBITS: u32 = 6;
/// Closed-loop client threads during the scaling phase.
const CLIENTS: usize = 8;

/// GHZ prefixed with a per-qubit {I, X, Z, XZ} stamp drawn from two tag
/// bits: 4^QUBITS structurally distinct circuits, each its own cache
/// key and ring key, all Clifford.
fn tagged(tag: usize) -> qcirc::Circuit {
    let mut c = qcirc::Circuit::new(QUBITS as usize);
    for q in 0..QUBITS {
        match (tag >> (2 * q)) & 3 {
            1 => {
                c.x(q);
            }
            2 => {
                c.z(q);
            }
            3 => {
                c.x(q);
                c.z(q);
            }
            _ => {}
        }
    }
    c.h(0);
    for q in 0..QUBITS - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    c
}

fn budget() -> SearchBudget {
    SearchBudget {
        shots: 32,
        trajectories: 2,
        neighborhood: 4,
        tier: TierPolicy::default(),
    }
}

fn request(tag: usize) -> Request {
    Request::RecommendMask {
        circuit: tagged(tag),
        device: DeviceId::Guadalupe,
        protocol: DdProtocol::Cpmg,
        budget: budget(),
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

/// Every backend job flips a coin on failing or timing out, and the
/// retry executor *sleeps* its backoff: latency becomes wait-dominated,
/// which is what makes shard count — not core count — the throughput
/// lever this harness measures.
fn service_config(cfg: &ExperimentCfg) -> ServiceConfig {
    ServiceConfig {
        devices: vec![DeviceId::Guadalupe],
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 256,
        seed: cfg.seed,
        fault_profile: FaultProfile {
            transient_failure: 0.35,
            timeout: 0.10,
            ..FaultProfile::none()
        },
        retry: RetryPolicy {
            sleep: true,
            ..RetryPolicy::default()
        },
        default_budget: budget(),
        virtual_time: true,
        ..ServiceConfig::default()
    }
}

fn shard_ids(n: usize) -> Vec<ShardId> {
    (0..n as u32).map(|i| ShardId(i * 7 + 1)).collect()
}

fn start_fleet(cfg: &ExperimentCfg, n: usize) -> (Vec<ShardServer>, Ring, FleetMap) {
    let ring = Ring::new(shard_ids(n));
    let map = FleetMap::new();
    let shards = shard_ids(n)
        .into_iter()
        .map(|shard| {
            ShardServer::start(ShardConfig {
                shard,
                service: service_config(cfg),
                max_frame_bytes: 1 << 20,
                fleet: Some((ring.clone(), map.clone())),
            })
            .expect("shard starts")
        })
        .collect();
    (shards, ring, map)
}

/// `per_shard` tags per ring member, scanning tag space from `salt`:
/// the returned workload is owner-balanced, so makespan is bounded by
/// per-shard work rather than by the hash distribution's worst bucket.
fn balanced_tags(ring: &Ring, per_shard: usize, salt: usize) -> Vec<usize> {
    let mut left: BTreeMap<ShardId, usize> =
        ring.shards().iter().map(|&s| (s, per_shard)).collect();
    let mut tags = Vec::with_capacity(per_shard * ring.len());
    for tag in salt..salt + (1 << (2 * QUBITS as usize)) {
        if tags.len() == per_shard * ring.len() {
            break;
        }
        let owner = ring.owner(ring_key(&request(tag))).expect("nonempty ring");
        let slot = left.get_mut(&owner).expect("owner in ring");
        if *slot > 0 {
            *slot -= 1;
            tags.push(tag);
        }
    }
    assert_eq!(
        tags.len(),
        per_shard * ring.len(),
        "tag space too small to balance {per_shard} keys per shard"
    );
    tags
}

/// Everything except wall-clock timing: the replay-stable identity of a
/// response.
fn full_digest(tag: usize, response: &Response) -> String {
    match response {
        Response::Mask(r) => format!(
            "{tag}|{:?}|{:?}|{:016x}|{}",
            r.provenance,
            r.mask,
            r.decoy_fidelity.to_bits(),
            r.decoy_runs
        ),
        Response::Execution(_) => panic!("workload is RecommendMask-only"),
    }
}

/// The seed-determined part only (no provenance): what must agree
/// between a shard and its failover stand-in.
fn semantic_digest(response: &Response) -> String {
    match response {
        Response::Mask(r) => format!("{:?}|{:016x}", r.mask, r.decoy_fidelity.to_bits()),
        Response::Execution(_) => panic!("workload is RecommendMask-only"),
    }
}

struct ScalingPoint {
    shards: usize,
    requests: usize,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn scaling_point(cfg: &ExperimentCfg, n: usize, per_shard_keys: usize) -> ScalingPoint {
    let (shards, ring, _map) = start_fleet(cfg, n);
    let endpoints: Vec<_> = shards.iter().map(|s| (s.shard(), s.addr())).collect();
    let router = FleetRouter::new(RouterConfig::default(), &endpoints);
    let tags = Arc::new(balanced_tags(&ring, per_shard_keys, 0));
    let requests = tags.len();

    let next = Arc::new(AtomicUsize::new(0));
    let latencies = Arc::new(Mutex::new(Vec::with_capacity(requests)));
    let t0 = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let router = router.clone();
            let tags = Arc::clone(&tags);
            let next = Arc::clone(&next);
            let latencies = Arc::clone(&latencies);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tags.len() {
                    return;
                }
                let sent = Instant::now();
                router
                    .call(request(tags[i]))
                    .expect("scaling call succeeds");
                latencies
                    .lock()
                    .unwrap()
                    .push(sent.elapsed().as_micros() as u64);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let mut latencies_us = Arc::try_unwrap(latencies)
        .expect("clients joined")
        .into_inner()
        .unwrap();
    latencies_us.sort_unstable();
    for shard in shards {
        let report = shard.stop();
        assert_eq!(report.stats.worker_panics, 0, "{} panicked", report.shard);
    }
    let point = ScalingPoint {
        shards: n,
        requests,
        throughput_rps: requests as f64 / elapsed.max(1e-9),
        p50_ms: adapt_obs::percentile(&latencies_us, 0.50) / 1000.0,
        p99_ms: adapt_obs::percentile(&latencies_us, 0.99) / 1000.0,
    };
    println!(
        "  {} shard(s): {} requests in {elapsed:.2} s ({:.1} req/s), p50 {:.1} ms, p99 {:.1} ms",
        point.shards, point.requests, point.throughput_rps, point.p50_ms, point.p99_ms
    );
    point
}

/// One full chaos pass (steady → kill → restart); run twice for the
/// replay comparison.
struct ChaosReport {
    /// Response log per serving shard, in serving order — the replay
    /// unit (a digest never names wall-clock time).
    per_shard: BTreeMap<ShardId, Vec<String>>,
    steady_p50_ms: f64,
    steady_p99_ms: f64,
    /// Healthy-shard-owned latencies while the victim was down.
    degraded_p99_ms: f64,
    rerouted: usize,
    worker_panics: u64,
}

fn run_chaos(cfg: &ExperimentCfg, rounds: usize) -> ChaosReport {
    let (mut shards, ring, map) = start_fleet(cfg, 2);
    let endpoints: Vec<_> = shards.iter().map(|s| (s.shard(), s.addr())).collect();
    let router = FleetRouter::new(
        RouterConfig {
            failure_threshold: 1,
            cooldown_requests: 4,
            max_attempts: 2,
        },
        &endpoints,
    );
    let victim = shards[0].shard();
    let healthy = shards[1].shard();
    // A warmed pool, half owned by each shard; requests are sequential
    // so every breaker decision and cache state is a pure function of
    // the schedule — that is what makes the replay comparison exact.
    let tags = balanced_tags(&ring, 6, 0);

    let mut report = ChaosReport {
        per_shard: BTreeMap::new(),
        steady_p50_ms: 0.0,
        steady_p99_ms: 0.0,
        degraded_p99_ms: 0.0,
        rerouted: 0,
        worker_panics: 0,
    };
    let mut steady_us: Vec<u64> = Vec::new();
    let mut steady_healthy_us: Vec<u64> = Vec::new();
    let mut degraded_healthy_us: Vec<u64> = Vec::new();
    let mut semantic: BTreeMap<usize, String> = BTreeMap::new();

    // Steady state: warm every key, then serve it hot.
    for _ in 0..rounds {
        for &tag in &tags {
            let sent = Instant::now();
            let routed = router.call(request(tag)).expect("steady call");
            let us = sent.elapsed().as_micros() as u64;
            steady_us.push(us);
            assert!(!routed.rerouted, "no reroutes before the kill");
            if routed.shard == healthy {
                steady_healthy_us.push(us);
            }
            semantic
                .entry(tag)
                .or_insert_with(|| semantic_digest(&routed.response));
            report
                .per_shard
                .entry(routed.shard)
                .or_default()
                .push(full_digest(tag, &routed.response));
        }
    }

    // Kill the victim mid-run: sockets die abruptly, the fleet map
    // forgets it, in-pool router connections go stale.
    let dead = shards.remove(0).stop();
    report.worker_panics += dead.stats.worker_panics;
    for _ in 0..rounds {
        for &tag in &tags {
            let req = request(tag);
            let owner = ring.owner(ring_key(&req)).unwrap();
            let sent = Instant::now();
            let routed = router.call(req).expect("kill-phase call");
            let us = sent.elapsed().as_micros() as u64;
            if owner == victim {
                // Deterministic failover: exactly the shard a ring
                // without the victim would name — and, same seed, the
                // semantically identical answer the victim gave.
                let stand_in = Ring::owner_among(
                    ring_key(&request(tag)),
                    ring.shards().iter().copied().filter(|&s| s != victim),
                )
                .unwrap();
                assert_eq!(routed.shard, stand_in, "non-deterministic reroute");
                assert!(routed.rerouted);
                assert_eq!(
                    semantic_digest(&routed.response),
                    semantic[&tag],
                    "failover answer diverged for tag {tag}"
                );
                report.rerouted += 1;
            } else {
                assert_eq!(routed.shard, healthy);
                assert!(!routed.rerouted);
                degraded_healthy_us.push(us);
            }
            report
                .per_shard
                .entry(routed.shard)
                .or_default()
                .push(full_digest(tag, &routed.response));
        }
    }

    // Restart under the old identity: a fresh service (same seed, cold
    // cache) on a fresh port. Ownership must return at once.
    let reborn = ShardServer::start(ShardConfig {
        shard: victim,
        service: service_config(cfg),
        max_frame_bytes: 1 << 20,
        fleet: Some((ring.clone(), map.clone())),
    })
    .expect("restart");
    router.set_endpoint(victim, reborn.addr());
    shards.insert(0, reborn);
    for _ in 0..rounds.div_ceil(2) {
        for &tag in &tags {
            let req = request(tag);
            let owner = ring.owner(ring_key(&req)).unwrap();
            let routed = router.call(req).expect("post-restart call");
            assert_eq!(routed.shard, owner, "ownership must return after restart");
            assert!(!routed.rerouted);
            assert_eq!(
                semantic_digest(&routed.response),
                semantic[&tag],
                "restarted shard diverged for tag {tag}"
            );
            report
                .per_shard
                .entry(routed.shard)
                .or_default()
                .push(full_digest(tag, &routed.response));
        }
    }

    for shard in shards {
        let r = shard.stop();
        report.worker_panics += r.stats.worker_panics;
    }

    steady_us.sort_unstable();
    steady_healthy_us.sort_unstable();
    degraded_healthy_us.sort_unstable();
    report.steady_p50_ms = adapt_obs::percentile(&steady_us, 0.50) / 1000.0;
    report.steady_p99_ms = adapt_obs::percentile(&steady_us, 0.99) / 1000.0;
    report.degraded_p99_ms = adapt_obs::percentile(&degraded_healthy_us, 0.99) / 1000.0;

    // The kill must not drag the healthy shard's own keys down: its p99
    // while the victim is dead stays within 2× its steady-state p99
    // (plus a 5 ms epsilon for scheduler noise at sub-ms latencies).
    let steady_healthy_p99 = adapt_obs::percentile(&steady_healthy_us, 0.99);
    let degraded_p99 = adapt_obs::percentile(&degraded_healthy_us, 0.99);
    assert!(
        degraded_p99 <= 2.0 * steady_healthy_p99 + 5_000.0,
        "healthy-shard p99 degraded under the kill: {:.1} ms vs {:.1} ms steady",
        degraded_p99 / 1000.0,
        steady_healthy_p99 / 1000.0
    );
    assert_eq!(report.worker_panics, 0, "a shard worker panicked");
    assert!(report.rerouted > 0, "the kill phase must exercise failover");
    report
}

/// Runs the fleet chaos harness and writes `results/BENCH_fleet.json`.
///
/// # Panics
///
/// Panics (failing the CI job) on any violated invariant: a worker
/// panic, a non-deterministic reroute, a failover or replay divergence,
/// a degraded healthy-shard p99, or — in full mode — a 4-shard scaling
/// factor below 2.5×.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Fleet chaos: sharded wire service under kill/restart ==");

    println!("  scaling curve (owner-balanced keys, slept retries):");
    let shard_counts: &[usize] = if cfg.quick { &[1, 2] } else { &[1, 2, 4] };
    let per_shard_keys = if cfg.quick { 12 } else { 14 };
    let scaling: Vec<ScalingPoint> = shard_counts
        .iter()
        // Equal aggregate request count per point, so throughput is
        // comparable: total = per_shard_keys * max_shards for every n.
        .map(|&n| {
            let keys = per_shard_keys * shard_counts.last().unwrap() / n;
            scaling_point(cfg, n, keys)
        })
        .collect();
    let speedup = scaling.last().unwrap().throughput_rps / scaling[0].throughput_rps.max(1e-9);
    println!(
        "  {}-shard speedup over 1 shard: {speedup:.2}x",
        scaling.last().unwrap().shards
    );
    if !cfg.quick {
        assert!(
            speedup >= 2.5,
            "4-shard throughput must reach 2.5x the 1-shard baseline, got {speedup:.2}x"
        );
    }

    let rounds = if cfg.quick { 2 } else { 3 };
    println!("  chaos pass 1 (steady -> kill -> restart):");
    let first = run_chaos(cfg, rounds);
    println!(
        "    steady p50 {:.1} ms / p99 {:.1} ms; {} rerouted during the kill, \
         healthy-shard p99 {:.1} ms",
        first.steady_p50_ms, first.steady_p99_ms, first.rerouted, first.degraded_p99_ms
    );
    println!("  chaos pass 2 (replay):");
    let second = run_chaos(cfg, rounds);
    assert_eq!(
        first.per_shard, second.per_shard,
        "per-shard response logs must replay bit-identically"
    );
    let replayed: usize = first.per_shard.values().map(Vec::len).sum();
    println!(
        "    {replayed} responses across {} shards replayed bit-identically",
        first.per_shard.len()
    );

    write_json(cfg, &scaling, speedup, &first, replayed);
}

fn write_json(
    cfg: &ExperimentCfg,
    scaling: &[ScalingPoint],
    speedup: f64,
    chaos: &ChaosReport,
    replayed: usize,
) {
    let out_dir = cfg.out_dir();
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let points: Vec<String> = scaling
        .iter()
        .map(|p| {
            format!(
                "{{ \"shards\": {}, \"requests\": {}, \"throughput_rps\": {:.2}, \
                 \"latency_ms\": {{ \"p50\": {:.2}, \"p99\": {:.2} }} }}",
                p.shards, p.requests, p.throughput_rps, p.p50_ms, p.p99_ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"quick\": {},\n  \"seed\": {},\n  \
         \"scaling\": [\n    {}\n  ],\n  \
         \"scaling_speedup_vs_1\": {speedup:.2},\n  \
         \"chaos\": {{ \"steady_ms\": {{ \"p50\": {:.2}, \"p99\": {:.2} }}, \
         \"healthy_shard_p99_ms_during_kill\": {:.2}, \
         \"rerouted_requests\": {}, \"reroutes_deterministic\": true, \
         \"failover_semantics_identical\": true, \"worker_panics\": {} }},\n  \
         \"replay\": {{ \"per_shard_digests_match\": true, \"responses\": {replayed} }}\n}}\n",
        cfg.quick,
        cfg.seed,
        points.join(",\n    "),
        chaos.steady_p50_ms,
        chaos.steady_p99_ms,
        chaos.degraded_p99_ms,
        chaos.rerouted,
        chaos.worker_panics,
    );
    let path = out_dir.join("BENCH_fleet.json");
    std::fs::write(&path, json).expect("write BENCH_fleet.json");
    println!("  wrote {}", path.display());
}
