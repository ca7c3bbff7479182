//! **Fleet chaos** — runs the `adapt-fleet` shard fabric end to end:
//! real sockets, whole-shard kills and restarts, and a CPU-bound
//! scaling curve over shards and workers.
//!
//! Three phases, all over loopback TCP:
//!
//! 1. **Scaling.** Each point starts a fresh fleet with faults off and
//!    drives the same number of distinct-key `RecommendMask` requests
//!    through the [`FleetRouter`] from a fixed pool of closed-loop
//!    client threads. Every request is a fresh search and nothing
//!    sleeps, so a point measures CPU-bound search and serving. Two
//!    axes: shards at one worker each (1 and 2 in `--quick`, plus 4 in
//!    full mode), and workers on one shard (1 and 2). Keys are chosen
//!    owner-balanced per ring, so the shard axis measures shard
//!    parallelism, not hash luck. Full mode asserts that 2 shards serve
//!    at least 1.1× the 1-shard throughput.
//! 2. **Chaos.** A two-shard fleet whose backends fail at random serves
//!    a warmed key pool sequentially; one shard is killed mid-run
//!    (`ShardServer::stop` shuts its sockets down abruptly, like a
//!    crash). Invariants: every orphaned key is served by exactly the
//!    shard `owner_among(key, live)` predicts (deterministic
//!    rerouting), the failover answers are semantically identical to
//!    the dead shard's (fleet determinism: same seed → same mask), and
//!    the healthy shard's p99 over its own keys stays within 2× its
//!    steady-state p99 (+5 ms scheduler epsilon). The shard is then
//!    restarted under its old identity — ownership must return, again
//!    bit-identically.
//! 3. **Replay.** The chaos phase runs [`twice`] from
//!    scratch; the per-shard response logs (provenance, mask, fidelity
//!    bits — everything except wall-clock timing) must match line for
//!    line. The replay digest covers them, shards in ring-id order.
//!
//! Zero worker panics are tolerated anywhere. Results land in
//! `results/BENCH_fleet.json`; the scaling entries are
//! [`load_point`]s, like the single-instance
//! `fleet_baseline` of `BENCH_service.json`, so the two files compose
//! into one curve.

use super::{
    ghz_xz, latency_ms, load_point, response_line, semantic, small_budget, twice, write_report,
    Json, Replay,
};
use crate::runner::ExperimentCfg;
use adapt::DdProtocol;
use adapt_fleet::ring::route_key;
use adapt_fleet::{FleetMap, FleetRouter, Ring, RouterConfig, ShardConfig, ShardId, ShardServer};
use adapt_service::{logical_hash, DeviceId, Request, SearchBudget, ServiceConfig};
use machine::FaultProfile;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Qubits in the workload circuits (Clifford, so the CHP fast path
/// serves them).
const QUBITS: u32 = 6;
/// Closed-loop client threads during the scaling phase: enough to keep
/// every worker of the largest fleet busy.
const CLIENTS: usize = 8;
/// Full-mode floor on 2-shard over 1-shard throughput (see
/// EXPERIMENTS.md, "Fleet chaos", for the runs it was set from). It
/// measures CPU parallelism, so it is checked only on a host with at
/// least two cores: one core cannot run two single-worker shards faster
/// than one.
const MIN_SHARD_SPEEDUP: f64 = 1.1;

fn request(tag: usize, budget: SearchBudget) -> Request {
    Request::RecommendMask {
        circuit: ghz_xz(QUBITS, tag),
        device: DeviceId::Guadalupe,
        protocol: DdProtocol::Cpmg,
        budget,
        deadline_ms: None,
        tenancy: Default::default(),
    }
}

/// The ring key the router derives for [`request`]`(tag)`.
fn ring_key(tag: usize) -> u64 {
    route_key(DeviceId::Guadalupe, logical_hash(&ghz_xz(QUBITS, tag)))
}

/// The chaos phase's shards: every backend job flips a coin on failing
/// or timing out, so retries, virtual backoff and the degradation
/// ladder all run while shards die and come back.
fn chaos_config(cfg: &ExperimentCfg) -> ServiceConfig {
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
        default_budget: small_budget(),
        virtual_time: true,
        ..ServiceConfig::default()
    }
}

/// The scaling phase's shards: faults off and `workers` workers each,
/// so throughput is bounded by CPU, not by retries.
fn scaling_config(cfg: &ExperimentCfg, workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        fault_profile: FaultProfile::none(),
        ..chaos_config(cfg)
    }
}

fn shard_ids(n: usize) -> Vec<ShardId> {
    (0..n as u32).map(|i| ShardId(i * 7 + 1)).collect()
}

fn start_fleet(n: usize, service: &ServiceConfig) -> (Vec<ShardServer>, Ring, FleetMap) {
    let ring = Ring::new(shard_ids(n));
    let map = FleetMap::new();
    let shards = shard_ids(n)
        .into_iter()
        .map(|shard| {
            ShardServer::start(ShardConfig {
                shard,
                service: service.clone(),
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
        let owner = ring.owner(ring_key(tag)).expect("nonempty ring");
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

/// One point of the scaling curve: `requests` fresh searches over
/// `shards` shards of `workers` workers each. Returns its throughput and
/// its [`load_point`] report.
fn scaling_point(
    cfg: &ExperimentCfg,
    shards: usize,
    workers: usize,
    requests: usize,
) -> (f64, Json) {
    let (servers, ring, _map) = start_fleet(shards, &scaling_config(cfg, workers));
    let endpoints: Vec<_> = servers.iter().map(|s| (s.shard(), s.addr())).collect();
    let router = FleetRouter::new(RouterConfig::default(), &endpoints);
    let tags = balanced_tags(&ring, requests / shards, 0);

    // Closed-loop clients pull the next tag until none are left.
    let next = AtomicUsize::new(0);
    let latencies = Mutex::new(Vec::with_capacity(tags.len()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                while let Some(&tag) = tags.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let sent = Instant::now();
                    // The default budget (256 shots x 8 trajectories), so
                    // the search outweighs the trip through wire and router.
                    let req = request(tag, SearchBudget::default());
                    router.call(req).expect("scaling call succeeds");
                    let us = sent.elapsed().as_micros() as u64;
                    latencies.lock().unwrap().push(us);
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let latencies_us = latencies.into_inner().unwrap();
    for server in servers {
        let report = server.stop();
        assert_eq!(report.stats.worker_panics, 0, "{} panicked", report.shard);
    }
    let throughput_rps = tags.len() as f64 / elapsed.max(1e-9);
    println!(
        "    {shards} shard(s) x {workers} worker(s): {} requests in {:.0} ms, {throughput_rps:.1} req/s",
        tags.len(),
        elapsed * 1000.0
    );
    (
        throughput_rps,
        load_point(shards, workers, &latencies_us, throughput_rps),
    )
}

/// One full chaos pass (steady → kill → restart); run twice for the
/// replay comparison.
#[derive(Default)]
struct ChaosReport {
    /// Response log per serving shard, in serving order — the replay
    /// unit (a digest never names wall-clock time).
    per_shard: BTreeMap<ShardId, Vec<String>>,
    steady_us: Vec<u64>,
    /// Healthy-shard-owned latencies while the victim was down.
    degraded_healthy_us: Vec<u64>,
    rerouted: usize,
    worker_panics: u64,
}

impl Replay for ChaosReport {
    fn lines(&self) -> Vec<&String> {
        self.per_shard.values().flatten().collect()
    }
    /// Lines per shard: with the flattened lines, this pins each
    /// shard's own log.
    fn counters(&self) -> String {
        let lens = self.per_shard.iter().map(|(shard, log)| (shard, log.len()));
        format!("{:?}", lens.collect::<Vec<_>>())
    }
}

fn run_chaos(cfg: &ExperimentCfg, rounds: usize) -> ChaosReport {
    let (mut shards, ring, map) = start_fleet(2, &chaos_config(cfg));
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

    let mut report = ChaosReport::default();
    let mut steady_healthy_us: Vec<u64> = Vec::new();
    let mut answers: BTreeMap<usize, String> = BTreeMap::new();

    // Steady state: warm every key, then serve it hot.
    for _ in 0..rounds {
        for &tag in &tags {
            let sent = Instant::now();
            let routed = router
                .call(request(tag, small_budget()))
                .expect("steady call");
            let us = sent.elapsed().as_micros() as u64;
            report.steady_us.push(us);
            assert!(!routed.rerouted, "no reroutes before the kill");
            if routed.shard == healthy {
                steady_healthy_us.push(us);
            }
            let line = response_line(tag, &routed.response);
            answers.entry(tag).or_insert_with(|| semantic(&line));
            report.per_shard.entry(routed.shard).or_default().push(line);
        }
    }

    // Kill the victim mid-run: sockets die abruptly, the fleet map
    // forgets it, in-pool router connections go stale.
    let dead = shards.remove(0).stop();
    report.worker_panics += dead.stats.worker_panics;
    for _ in 0..rounds {
        for &tag in &tags {
            let owner = ring.owner(ring_key(tag)).unwrap();
            let sent = Instant::now();
            let routed = router
                .call(request(tag, small_budget()))
                .expect("kill-phase call");
            let us = sent.elapsed().as_micros() as u64;
            if owner == victim {
                // Deterministic failover: exactly the shard a ring
                // without the victim would name — and, same seed, the
                // semantically identical answer the victim gave.
                let stand_in = Ring::owner_among(
                    ring_key(tag),
                    ring.shards().iter().copied().filter(|&s| s != victim),
                )
                .unwrap();
                assert_eq!(routed.shard, stand_in, "non-deterministic reroute");
                assert!(routed.rerouted);
                assert_eq!(
                    semantic(&response_line(tag, &routed.response)),
                    answers[&tag],
                    "failover answer diverged for tag {tag}"
                );
                report.rerouted += 1;
            } else {
                assert_eq!(routed.shard, healthy);
                assert!(!routed.rerouted);
                report.degraded_healthy_us.push(us);
            }
            let line = response_line(tag, &routed.response);
            report.per_shard.entry(routed.shard).or_default().push(line);
        }
    }

    // Restart under the old identity: a fresh service (same seed, cold
    // cache) on a fresh port. Ownership must return at once.
    let reborn = ShardServer::start(ShardConfig {
        shard: victim,
        service: chaos_config(cfg),
        max_frame_bytes: 1 << 20,
        fleet: Some((ring.clone(), map.clone())),
    })
    .expect("restart");
    router.set_endpoint(victim, reborn.addr());
    shards.insert(0, reborn);
    for _ in 0..rounds.div_ceil(2) {
        for &tag in &tags {
            let owner = ring.owner(ring_key(tag)).unwrap();
            let routed = router
                .call(request(tag, small_budget()))
                .expect("post-restart call");
            assert_eq!(routed.shard, owner, "ownership must return after restart");
            assert!(!routed.rerouted);
            let line = response_line(tag, &routed.response);
            assert_eq!(
                semantic(&line),
                answers[&tag],
                "restarted shard diverged for tag {tag}"
            );
            report.per_shard.entry(routed.shard).or_default().push(line);
        }
    }

    for shard in shards {
        let r = shard.stop();
        report.worker_panics += r.stats.worker_panics;
    }

    report.steady_us.sort_unstable();
    steady_healthy_us.sort_unstable();
    report.degraded_healthy_us.sort_unstable();

    // The kill must not drag the healthy shard's own keys down: its p99
    // while the victim is dead stays within 2× its steady-state p99
    // (plus a 5 ms epsilon for scheduler noise at sub-ms latencies).
    let steady_healthy_p99 = adapt_obs::percentile(&steady_healthy_us, 0.99);
    let degraded_p99 = adapt_obs::percentile(&report.degraded_healthy_us, 0.99);
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
/// Panics on any violated invariant: a worker
/// panic, a non-deterministic reroute, a failover or replay divergence,
/// a degraded healthy-shard p99, or — in full mode on a host with at
/// least two cores — 2-shard throughput below 1.1× the 1-shard point's.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Fleet chaos: sharded wire service under kill/restart ==");

    println!("  scaling curve (faults off, owner-balanced fresh searches):");
    // The same number of requests at every point (divisible by every
    // shard count), so throughputs compare; each point runs for a
    // measurable time. The keys differ: each ring gets its own
    // owner-balanced set.
    let requests = if cfg.quick { 256 } else { 768 };
    let shard_counts: &[usize] = if cfg.quick { &[1, 2] } else { &[1, 2, 4] };
    let mut throughput = BTreeMap::new();
    let mut points = Vec::new();
    let axes = shard_counts.iter().map(|&n| (n, 1)).chain([(1, 2)]);
    for (shards, workers) in axes {
        let (rps, point) = scaling_point(cfg, shards, workers, requests);
        throughput.insert((shards, workers), rps);
        points.push(point);
    }
    let speedup = |key| throughput[&key] / throughput[&(1, 1)].max(1e-9);
    let (shard_speedup, worker_speedup) = (speedup((2, 1)), speedup((1, 2)));
    println!(
        "    speedup vs 1x1: {shard_speedup:.2}x at 2 shards, {worker_speedup:.2}x at 2 workers"
    );
    if !cfg.quick {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        if cores >= 2 {
            assert!(
                shard_speedup >= MIN_SHARD_SPEEDUP,
                "2-shard throughput must reach {MIN_SHARD_SPEEDUP}x the 1-shard point, got {shard_speedup:.2}x"
            );
        } else {
            println!("    shard-speedup bar skipped: it needs 2 cores, the host has {cores}");
        }
    }

    let rounds = if cfg.quick { 2 } else { 3 };
    println!("  chaos pass (steady -> kill -> restart), run twice:");
    let chaos = twice("fleet chaos", || run_chaos(cfg, rounds));
    write_report(
        cfg,
        "BENCH_fleet.json",
        vec![
            ("scaling", Json::Arr(points)),
            ("shard_speedup_vs_1", Json::Num(shard_speedup, 2)),
            ("worker_speedup_vs_1", Json::Num(worker_speedup, 2)),
            (
                "chaos",
                Json::obj([
                    ("steady_ms", latency_ms(&chaos.steady_us)),
                    (
                        "healthy_shard_ms_during_kill",
                        latency_ms(&chaos.degraded_healthy_us),
                    ),
                    ("rerouted_requests", chaos.rerouted.into()),
                    ("reroutes_deterministic", true.into()),
                    ("failover_semantics_identical", true.into()),
                    ("worker_panics", chaos.worker_panics.into()),
                ]),
            ),
            (
                "replay",
                Json::obj([
                    ("per_shard_digests_match", true.into()),
                    ("responses", chaos.lines().len().into()),
                ]),
            ),
        ],
        chaos.lines(),
    );
}
