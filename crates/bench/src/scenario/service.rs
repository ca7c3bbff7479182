//! **Service load generation** — drives the `adapt-service` worker pool
//! with a seeded open-loop workload and records serving metrics.
//!
//! The workload mixes small paper benchmarks over a skewed device
//! population (Guadalupe-heavy, like a popular production backend),
//! interleaves a minority of `Execute` requests among the
//! `RecommendMask` traffic, and fires one calibration-drift tick
//! mid-run so epoch invalidation is exercised under load. Requests are
//! submitted in bursts against a deliberately small queue, so admission
//! control (typed `Rejected` backpressure) triggers too.
//!
//! After the run, every distinct cache key is replayed against a *fresh*
//! service built from the same seed: responses must be bit-identical to
//! the originals whether they were served from cache or fresh search
//! (the service's determinism contract). Then the
//! [warm-restart drill](super::warm_restart) answers every distinct
//! key once on a durable service, restarts it from disk, and reports
//! the share served from the recovered cache. The run fails loudly
//! when any worker panicked, the cache hit rate lands at or below 50%,
//! a replayed key diverges, or the warm restart recovers under 90%.
//! Its replay digest covers the sorted key → answer set (which
//! requests the small queue rejects depends on worker timing, so the
//! served sequence is never digested). Metrics land in
//! `results/BENCH_service.json`, and the process-wide observability
//! registry (service, mask-cache, plan-cache, search and
//! resilient-executor metrics in one document) is rendered to
//! `results/BENCH_service_metrics.prom` / `.json`.
//!
//! The main service publishes into [`adapt_obs::global()`]; the
//! bit-identity replay service keeps the default private registry so its
//! traffic does not pollute the exported counters.

use super::{
    budget, latency_ms, load_point, recommend, service_config, stats_json, warm_restart,
    write_report, Json,
};
use crate::runner::ExperimentCfg;
use adapt_service::{
    DeviceId, MaskKey, MaskService, Request, Response, SearchBudget, ServiceConfig, ServiceError,
    TierPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// One observed answer for a cache key, for bit-identity auditing.
#[derive(Clone, Copy, PartialEq)]
struct Observed {
    mask: adapt::DdMask,
    fidelity_bits: u64,
    bench: usize,
    device: DeviceId,
}

const DEVICES: [DeviceId; 3] = [DeviceId::Guadalupe, DeviceId::Toronto, DeviceId::Rome];

/// Worker threads of the load-generation service.
const WORKERS: usize = 4;

/// [`WORKERS`] workers over [`DEVICES`]. The queue is smaller than a
/// submission burst: workers that fall behind make admission control
/// visible in the rejection metrics.
fn loadgen_config(cfg: &ExperimentCfg) -> ServiceConfig {
    service_config(cfg, &DEVICES, WORKERS, 6, 64)
}

/// Runs the load generation and writes `results/BENCH_service.json`.
///
/// # Panics
///
/// Panics when a worker panics, the cache hit rate is ≤ 50%, a response
/// for one key diverges within the run, the fresh-service replay is not
/// bit-identical to the original responses, or the warm-restart drill
/// fails.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Service loadgen: skewed open-loop workload on the mask service ==");
    let budget = budget(cfg.quick, TierPolicy::default());
    let total_requests: usize = if cfg.quick { 72 } else { 200 };
    let burst = 8;
    let benches = benchmarks::suite::table1_suite();
    // The main service exports into the process-wide registry, alongside
    // the machine/search metrics its backends record there.
    let svc = MaskService::start(ServiceConfig {
        registry: adapt_obs::global(),
        ..loadgen_config(cfg)
    });
    // Client-observed end-to-end latency, mirrored into the registry so
    // the JSON percentiles below and the exposition describe the same
    // samples.
    let client_hist = adapt_obs::global().histogram("adapt_loadgen_client_request_us");

    // Skewed device popularity: one hot device dominates, so the cache
    // concentrates where the traffic is.
    let pick_device = |r: f64| {
        if r < 0.70 {
            DeviceId::Guadalupe
        } else if r < 0.90 {
            DeviceId::Toronto
        } else {
            DeviceId::Rome
        }
    };

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x10AD_6E4E);
    let mut latencies_us: Vec<u64> = Vec::with_capacity(total_requests);
    // Time-to-first-usable-response: wall-clock from the first submit to
    // the first Ok the client sees. On a cold cache this is dominated by
    // the first search, so it is the number a deployment's cold-start
    // SLO actually constrains.
    let mut ttfur_us: Option<u64> = None;
    let mut observed: HashMap<MaskKey, Observed> = HashMap::new();
    let mut rejected = 0usize;
    let mut failed = 0usize;
    let mut executions = 0usize;
    let drift_at = total_requests * 3 / 5;
    let mut drifted = false;
    let t0 = Instant::now();

    let mut submitted = 0usize;
    while submitted < total_requests {
        if !drifted && submitted >= drift_at {
            // Mid-run calibration drift on the hot device: every cached
            // Guadalupe mask of epoch 0 must be invalidated under load.
            let epoch = svc
                .advance_epoch(DeviceId::Guadalupe)
                .expect("guadalupe is registered");
            println!("  drift tick: guadalupe -> epoch {epoch}");
            drifted = true;
        }
        let n = burst.min(total_requests - submitted);
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            let device = pick_device(rng.gen::<f64>());
            let bench = rng.gen_range(0..benches.len());
            let circuit = benches[bench].circuit.clone();
            let request = if rng.gen_bool(0.15) {
                let policy = if rng.gen_bool(0.5) {
                    adapt::Policy::Adapt
                } else {
                    adapt::Policy::AllDd
                };
                Request::Execute {
                    circuit,
                    device,
                    policy,
                    deadline_ms: None,
                    tenancy: Default::default(),
                }
            } else {
                recommend(circuit, device, budget, None)
            };
            submitted += 1;
            match svc.submit(request) {
                Ok(p) => pending.push((p, bench, device)),
                Err(ServiceError::Rejected { .. }) => rejected += 1,
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        for (p, bench, device) in pending {
            match p.wait() {
                Ok(resp) => {
                    ttfur_us.get_or_insert_with(|| t0.elapsed().as_micros() as u64);
                    latencies_us.push(resp.timing().total_us());
                    client_hist.record(resp.timing().total_us());
                    match resp {
                        Response::Mask(rec) => {
                            let entry = Observed {
                                mask: rec.mask,
                                fidelity_bits: rec.decoy_fidelity.to_bits(),
                                bench,
                                device,
                            };
                            // In-run consistency: one key, one answer.
                            if let Some(prev) = observed.insert(rec.key, entry) {
                                assert!(prev == entry, "responses diverged for key {:?}", rec.key);
                            }
                        }
                        Response::Execution(_) => executions += 1,
                    }
                }
                Err(ServiceError::Failed(_)) => failed += 1,
                Err(e) => panic!("unexpected response error: {e}"),
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let stats = svc.stats();
    let cache = svc.cache_stats();
    let served = latencies_us.len();
    latencies_us.sort_unstable();
    let throughput = served as f64 / elapsed.max(1e-9);
    let ttfur_ms = ttfur_us.unwrap_or(0) as f64 / 1000.0;
    assert_eq!(stats.worker_panics, 0, "worker pool must survive the run");
    assert!(
        cache.hit_rate() > 0.5,
        "skewed workload must be cache-dominated: {cache:?}"
    );

    // Replay every distinct key against a fresh same-seed service: the
    // bit-identity contract says cache hits and fresh searches agree.
    let replayed = replay_bit_identity(cfg, budget, &benches, &observed);
    println!("  bit-identity: {replayed} keys replayed on a fresh service, all identical");

    // Warm-restart drill: the durable counterpart of the cold-miss
    // storm — how much of the storm a persisted cache absorbs. Every
    // distinct (benchmark, device, protocol) answers once at epoch 0.
    let mut pairs: Vec<(usize, DeviceId)> =
        observed.values().map(|o| (o.bench, o.device)).collect();
    pairs.sort_by_key(|&(bench, device)| (bench, device as u8));
    pairs.dedup();
    let requests: Vec<Request> = pairs
        .iter()
        .map(|&(bench, device)| recommend(benches[bench].circuit.clone(), device, budget, None))
        .collect();
    let warm = warm_restart(loadgen_config(cfg), "service_warm_restart", &requests);
    println!(
        "  warm restart: {:.0}% of distinct keys served from the recovered cache",
        warm.hit_rate() * 100.0
    );

    // The pinned answer set: every audited key with its mask and
    // fidelity bits, sorted by key.
    let mut answers: Vec<String> = observed
        .iter()
        .map(|(key, o)| format!("{key:?} {} {:016x}", o.mask, o.fidelity_bits))
        .collect();
    answers.sort_unstable();

    let out_dir = cfg.out_dir();
    write_report(
        cfg,
        "BENCH_service.json",
        vec![
            ("faults", cfg.fault_name.into()),
            ("workers", WORKERS.into()),
            ("devices", DEVICES.map(|d| d.name()).to_vec().into()),
            (
                "requests",
                Json::obj([
                    ("submitted", total_requests.into()),
                    ("served", served.into()),
                    ("rejected", rejected.into()),
                    ("failed", failed.into()),
                    ("executions", executions.into()),
                ]),
            ),
            ("throughput_rps", Json::Num(throughput, 2)),
            ("latency_ms", latency_ms(&latencies_us)),
            (
                "fleet_baseline",
                load_point(1, WORKERS, &latencies_us, throughput),
            ),
            ("time_to_first_usable_ms", Json::Num(ttfur_ms, 2)),
            // Cold-miss storm: requests that piled up behind another
            // caller's in-flight search for the same key (single-flight
            // coalescing), each a redundant search without dedup.
            ("cold_miss_storm", cache.coalesced.into()),
            ("warm_restart_hit_rate", Json::Num(warm.hit_rate(), 4)),
            (
                "rejection_rate",
                Json::Num(rejected as f64 / total_requests as f64, 4),
            ),
            (
                "cache",
                Json::obj([
                    ("hits", cache.hits.into()),
                    ("misses", cache.misses.into()),
                    ("coalesced", cache.coalesced.into()),
                    ("evictions", cache.evictions.into()),
                    ("invalidated", cache.invalidated.into()),
                    ("hit_rate", Json::Num(cache.hit_rate(), 4)),
                ]),
            ),
            ("stats", stats_json(&stats)),
            ("bit_identical_keys", replayed.into()),
        ],
        &answers,
    );

    render_registry(&out_dir, &latencies_us, &client_hist);
}

/// Renders the process-wide registry — service, mask-cache, plan-cache,
/// search and resilient-executor metrics in one document — and
/// sanity-checks the exposition before writing it next to the benchmark
/// JSON.
///
/// # Panics
///
/// Panics when the exposition does not parse, a core counter that the
/// run must have driven is zero, or the registry histogram disagrees
/// with the exact sample percentiles (the bucket upper bound may
/// over-estimate but never under-report).
fn render_registry(
    out_dir: &std::path::Path,
    latencies_us: &[u64],
    client_hist: &adapt_obs::Histogram,
) {
    let registry = adapt_obs::global();
    let prom = registry.render_prometheus();
    let samples = adapt_obs::parse_prometheus(&prom).expect("exposition must parse");
    let get = |name: &str| adapt_obs::sample_value(&samples, name).unwrap_or(0.0);
    for name in [
        "adapt_service_requests_total",
        "adapt_service_searches_total",
        "adapt_service_cache_lookups_total",
        "adapt_search_searches_total",
        "adapt_search_decoy_runs_scored_total",
        "adapt_machine_executions_total",
        "adapt_machine_plan_cache_misses_total",
        "adapt_machine_retry_requests_total",
    ] {
        assert!(
            get(name) > 0.0,
            "the loadgen run must have driven {name}, exposition:\n{prom}"
        );
    }
    for q in [0.50, 0.99] {
        let exact = adapt_obs::percentile(latencies_us, q);
        let bucket = client_hist.percentile_us(q);
        assert!(
            exact <= bucket,
            "registry histogram p{} ({bucket} µs) under-reports the exact \
             sample percentile ({exact} µs)",
            q * 100.0
        );
    }
    let prom_path = out_dir.join("BENCH_service_metrics.prom");
    std::fs::write(&prom_path, &prom).expect("write metrics exposition");
    let json_path = out_dir.join("BENCH_service_metrics.json");
    std::fs::write(&json_path, registry.render_json()).expect("write metrics json");
    println!(
        "  wrote {} and {} ({} series)",
        prom_path.display(),
        json_path.display(),
        samples.len()
    );
}

/// Replays every observed key on a cold same-seed service and checks
/// bit-identity. Returns the number of keys replayed.
fn replay_bit_identity(
    cfg: &ExperimentCfg,
    budget: SearchBudget,
    benches: &[benchmarks::BenchmarkSpec],
    observed: &HashMap<MaskKey, Observed>,
) -> usize {
    let fresh = MaskService::start(loadgen_config(cfg));
    // Epochs only move forward, so replay epoch 0 keys first, then tick
    // each drifted device and replay its epoch 1 keys, and so on.
    let max_epoch = observed.keys().map(|k| k.epoch).max().unwrap_or(0);
    let mut replayed = 0usize;
    for epoch in 0..=max_epoch {
        if epoch > 0 {
            for device in DEVICES {
                if observed
                    .keys()
                    .any(|k| k.device == device && k.epoch >= epoch)
                {
                    fresh.advance_epoch(device).expect("device registered");
                }
            }
        }
        for (key, prev) in observed.iter().filter(|(k, _)| k.epoch == epoch) {
            let circuit = benches[prev.bench].circuit.clone();
            let resp = fresh
                .call(recommend(circuit, prev.device, budget, None))
                .expect("replay recommendation");
            let Response::Mask(rec) = resp else {
                panic!("replay returned a non-mask response");
            };
            assert_eq!(rec.key, *key, "replayed key mismatch (registry drifted?)");
            assert_eq!(rec.mask, prev.mask, "mask not bit-identical on replay");
            assert_eq!(
                rec.decoy_fidelity.to_bits(),
                prev.fidelity_bits,
                "fidelity not bit-identical on replay"
            );
            replayed += 1;
        }
    }
    let stats = fresh.stats();
    assert_eq!(stats.worker_panics, 0, "replay service must not panic");
    // A cold service answers each distinct key with one fresh search, so
    // comparing against the original run covers cache-hit vs
    // fresh-search equality in both directions.
    assert_eq!(
        stats.searches as usize, replayed,
        "replay must search every key once"
    );
    replayed
}
