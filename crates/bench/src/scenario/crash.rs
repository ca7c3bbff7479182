//! **Crash chaos** — kills, corrupts, and restarts the durable mask
//! service (`adapt_service::persist`, DESIGN.md §17) and checks the
//! §17 recovery contract end to end:
//!
//! 1. **Clean restart.** The [warm-restart drill](super::warm_restart):
//!    a persisted service serves a tagged key pool, shuts down (final
//!    snapshot), and restarts from disk: every key must come back with
//!    a bit-identical response, and the warm-restart hit rate must be
//!    ≥ 90%.
//! 2. **Drift restart.** Calibration epochs advance before the
//!    shutdown: the reborn registry must replay to the same epoch and
//!    the superseded entries must land in the stale store, never be
//!    served as fresh.
//! 3. **Corruption storm.** Repeated rounds of seeded storage damage
//!    ([`StorageFaultPlan`] — tail truncation, bit flips, torn
//!    publishes, stray staging temps) are applied to the snapshot and
//!    journal of a cleanly shut-down service. Every recovery must
//!    quarantine the injected corruption (typed, counted, zero panics)
//!    and the reborn service must answer the whole key pool
//!    bit-identically to the undamaged reference — lost entries
//!    re-search to the same seeded answer. The whole storm runs
//!    [`twice`] from scratch under the same seed: damage
//!    schedule, quarantine counts, and the full response log must
//!    match exactly; the replay digest covers the log.
//! 4. **Mid-snapshot kill.** Snapshots killed between temp write and
//!    rename (both crash points) must leave the previous snapshot
//!    published and fully recoverable.
//! 5. **Fleet restart.** A persisted shard is killed abruptly
//!    (`ShardServer::stop`) and restarted under its old identity with
//!    the same persist directory: wire responses must be cache hits,
//!    bit-identical to pre-kill answers.
//!
//! Zero worker panics are tolerated anywhere. Results land in
//! `results/BENCH_crash.json` (`zero_panics`, `corruption_quarantined`,
//! `replay_bit_identical`, `warm_restart_hit_rate` are the keys CI
//! checks).

use super::{
    durable, ghz_xz, recommend, response_line, scratch_dir, semantic, small_budget, twice,
    warm_restart, write_report, Json, Replay,
};
use crate::runner::ExperimentCfg;
use adapt::DdProtocol;
use adapt_fleet::{FleetRouter, RouterConfig, ShardConfig, ShardId, ShardServer};
use adapt_service::persist::{
    decode_store, flip_bit, journal_path, snapshot_path, staging_path, truncate_tail, CrashPoint,
    Persister, StorageFaultCounts, StorageFaultPlan, StorageFaultProfile, JOURNAL_MAGIC,
    SNAPSHOT_MAGIC,
};
use adapt_service::{
    DeviceId, DeviceRegistry, MaskCache, MaskService, Provenance, Request, Response, ServiceConfig,
};
use std::path::PathBuf;
use std::sync::Arc;

const QUBITS: u32 = 5;
const DEVICE: DeviceId = DeviceId::Rome;

fn request(tag: usize) -> Request {
    recommend(ghz_xz(QUBITS, tag), DEVICE, small_budget(), None)
}

/// The single-device service of every phase, before [`durable`].
fn service_config(cfg: &ExperimentCfg) -> ServiceConfig {
    ServiceConfig {
        devices: vec![DEVICE],
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 64,
        seed: cfg.seed,
        default_budget: small_budget(),
        ..ServiceConfig::default()
    }
}

/// The service of every phase, [`durable`] over `dir`.
fn durable_config(cfg: &ExperimentCfg, dir: PathBuf) -> ServiceConfig {
    durable(service_config(cfg), dir)
}

fn call_mask(svc: &MaskService, tag: usize) -> Response {
    svc.call(request(tag)).expect("recommendation")
}

// ---------------------------------------------------------------------------
// Phase 1+2: clean restart, drift restart
// ---------------------------------------------------------------------------

/// The warm-restart drill over the key pool. Returns the pre-restart
/// response lines (the undamaged reference of the storm) and the hit
/// rate.
fn clean_restart(cfg: &ExperimentCfg, keys: usize) -> (Vec<String>, f64) {
    let requests: Vec<Request> = (0..keys).map(request).collect();
    let drill = warm_restart(service_config(cfg), "crash_clean", &requests);
    assert_eq!(
        drill.warmed, keys,
        "every key must be cached before the restart"
    );
    let hit_rate = drill.hit_rate();
    (drill.lines.into_iter().flatten().collect(), hit_rate)
}

fn drift_restart(cfg: &ExperimentCfg, keys: usize) -> u64 {
    let dir = scratch_dir("drift", cfg.seed);
    let svc = MaskService::start(durable_config(cfg, dir.clone()));
    for t in 0..keys {
        let _ = call_mask(&svc, t);
    }
    svc.advance_epoch(DEVICE).expect("advance");
    svc.advance_epoch(DEVICE).expect("advance");
    let epoch = svc.epoch(DEVICE).expect("epoch");
    let mut panics = svc.shutdown().worker_panics;

    let reborn = MaskService::start(durable_config(cfg, dir));
    let report = reborn.recovery_report().expect("recovery ran");
    assert_eq!(
        reborn.epoch(DEVICE),
        Some(epoch),
        "registry epoch must replay from the snapshot"
    );
    assert_eq!(report.epoch_advances, 2);
    assert_eq!(report.quarantined, 0);
    assert!(
        report.recovered_stale + report.demoted_stale >= 1,
        "superseded entries must recover as stale, not fresh: {report:?}"
    );
    assert_eq!(report.recovered_warm, 0, "epoch-0 entries served as fresh");
    // Current-epoch requests still answer (fresh searches at epoch 2).
    let _ = call_mask(&reborn, 0);
    let stats = reborn.cache_stats();
    assert_eq!(
        stats.hits + stats.misses + stats.stale_served,
        stats.lookups,
        "cache accounting broken after drift recovery: {stats:?}"
    );
    panics += reborn.shutdown().worker_panics;
    panics
}

// ---------------------------------------------------------------------------
// Phase 3: corruption storm, run twice
// ---------------------------------------------------------------------------

#[derive(Default)]
struct StormOutcome {
    rounds: usize,
    damage: StorageFaultCounts,
    quarantined: usize,
    /// Full response log across all rounds — the replay unit.
    log: Vec<String>,
    worker_panics: u64,
}

impl Replay for StormOutcome {
    fn lines(&self) -> Vec<&String> {
        self.log.iter().collect()
    }
    fn counters(&self) -> String {
        format!("{:?} quarantined={}", self.damage, self.quarantined)
    }
}

/// One storm: per round, warm + cleanly shut down a durable service,
/// apply the seeded damage the plan draws for the round's snapshot and
/// journal ops, restart, and serve the whole pool again.
fn corruption_storm(
    cfg: &ExperimentCfg,
    keys: usize,
    rounds: usize,
    reference: &[String],
) -> StormOutcome {
    let plan = StorageFaultPlan::new(StorageFaultProfile::gremlin(), cfg.seed ^ 0xC4A5_4CA0);
    let mut out = StormOutcome {
        rounds,
        ..StormOutcome::default()
    };
    for round in 0..rounds {
        let dir = scratch_dir(&format!("storm_{round}"), cfg.seed);
        let svc = MaskService::start(durable_config(cfg, dir.clone()));
        for t in 0..keys {
            let _ = call_mask(&svc, t);
        }
        out.worker_panics += svc.shutdown().worker_panics;

        // Seeded damage, one plan op per persisted file. Torn publishes
        // truncate the published file to the kept fraction; kills leave
        // a stray truncated staging temp for recovery to sweep.
        let mut predicted = 0usize;
        for (file, magic) in [
            (snapshot_path(&dir), SNAPSHOT_MAGIC),
            (journal_path(&dir), JOURNAL_MAGIC),
        ] {
            let faults = plan.faults_for(plan.next_op());
            out.damage.record(&faults);
            if let Some(keep) = faults.torn_write {
                truncate_tail(&file, 1.0 - keep).expect("torn publish");
            }
            if let Some(frac) = faults.truncate_tail {
                truncate_tail(&file, frac).expect("truncate tail");
            }
            if let Some(draw) = faults.bit_flip {
                let _ = flip_bit(&file, draw).expect("flip bit");
            }
            if faults.kill_before_rename {
                let bytes = std::fs::read(&file).expect("read for staging");
                let half = bytes.len() / 2;
                std::fs::write(staging_path(&file), &bytes[..half]).expect("stray temp");
            }
            // Decode the damaged bytes with the store codec itself: the
            // recovery pass must quarantine *exactly* these regions —
            // 100% of the injected corruption, nothing phantom.
            let (_, errors) =
                decode_store(&std::fs::read(&file).expect("read damaged file"), magic);
            predicted += errors.len();
        }

        let reborn = MaskService::start(durable_config(cfg, dir.clone()));
        let report = reborn.recovery_report().expect("recovery ran");
        out.quarantined += report.quarantined;
        assert_eq!(
            report.quarantined, predicted,
            "round {round}: recovery must quarantine exactly the injected \
             corruption: {report:?}"
        );
        assert!(
            !staging_path(&snapshot_path(&dir)).exists(),
            "stray temp survived"
        );
        // Recovered-or-researched, every answer matches the undamaged
        // reference bit for bit.
        for (t, undamaged) in reference.iter().enumerate().take(keys) {
            let d = response_line(t, &call_mask(&reborn, t));
            assert_eq!(
                semantic(&d),
                semantic(undamaged),
                "round {round}: response diverged after corruption recovery"
            );
            out.log.push(d);
        }
        out.worker_panics += reborn.shutdown().worker_panics;
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        out.damage.total() > 0,
        "the gremlin profile must injure at least one round (ops={})",
        out.damage.ops
    );
    assert!(
        out.quarantined > 0,
        "the storm must exercise the quarantine path ({})",
        out.damage
    );
    out
}

// ---------------------------------------------------------------------------
// Phase 4: mid-snapshot kills
// ---------------------------------------------------------------------------

/// Kills a snapshot at both crash points and proves the previously
/// published snapshot stays the recoverable truth. Returns the number
/// of kill points exercised.
fn mid_snapshot_kill(cfg: &ExperimentCfg, keys: usize) -> usize {
    use adapt::{DdMask, DecoyKind};
    use adapt_service::{CachedMask, MaskKey};

    let dir = scratch_dir("midkill", cfg.seed);
    let obs = adapt_obs::Registry::new();
    let registry = DeviceRegistry::new(&[DEVICE], cfg.seed);
    let cache = Arc::new(MaskCache::with_registry(64, &obs));
    for t in 0..keys as u64 {
        cache.insert(
            MaskKey {
                device: DEVICE,
                epoch: 0,
                circuit_hash: t,
                protocol: DdProtocol::Xy4,
                decoy: DecoyKind::Clifford,
            },
            CachedMask {
                mask: DdMask::from_bits(t + 1, QUBITS as usize),
                decoy_fidelity: 0.5 + t as f64 / 100.0,
                decoy_runs: 4,
                degraded: false,
            },
        );
    }
    let persister = Persister::new(&dir, false, &obs).expect("persister");
    persister
        .snapshot(&cache, &registry)
        .expect("clean snapshot");
    let published = std::fs::read(snapshot_path(&dir)).expect("read snapshot");

    let kill_points = [
        CrashPoint::MidTempWrite { keep: 32 },
        CrashPoint::BeforeRename,
    ];
    for &crash in &kill_points {
        persister
            .snapshot_with_crash(&cache, &registry, crash)
            .expect_err("injected kill must fail the snapshot");
        assert_eq!(
            std::fs::read(snapshot_path(&dir)).expect("read snapshot"),
            published,
            "{crash:?} must not disturb the published snapshot"
        );
    }

    // The untouched snapshot recovers completely in a fresh process.
    let obs2 = adapt_obs::Registry::new();
    let registry2 = DeviceRegistry::new(&[DEVICE], cfg.seed);
    let cache2 = Arc::new(MaskCache::with_registry(64, &obs2));
    let persister2 = Persister::new(&dir, false, &obs2).expect("persister");
    let report = persister2.recover(&cache2, &registry2).expect("recover");
    assert_eq!(report.recovered_warm, keys);
    assert_eq!(report.quarantined, 0);
    let _ = std::fs::remove_dir_all(&dir);
    kill_points.len()
}

// ---------------------------------------------------------------------------
// Phase 5: fleet warm restart
// ---------------------------------------------------------------------------

/// A persisted shard killed abruptly and reborn under its old identity
/// and persist directory: wire answers must be warm and bit-identical.
/// Returns the warm hits and the worker panics.
fn fleet_restart(cfg: &ExperimentCfg, keys: usize) -> (usize, u64) {
    let dir = scratch_dir("fleet", cfg.seed);
    let shard_id = ShardId(11);
    let start = |cfg: &ExperimentCfg| {
        ShardServer::start(ShardConfig {
            shard: shard_id,
            service: durable_config(cfg, dir.clone()),
            max_frame_bytes: 1 << 20,
            fleet: None,
        })
        .expect("shard starts")
    };
    let shard = start(cfg);
    let router = FleetRouter::new(RouterConfig::default(), &[(shard_id, shard.addr())]);
    let before: Vec<String> = (0..keys)
        .map(|t| response_line(t, &router.call(request(t)).expect("warm call").response))
        .collect();
    // Abrupt stop: sockets die like a crash; the final snapshot is the
    // service's shutdown path, same as a SIGTERM drain.
    let report = shard.stop();
    let mut panics = report.stats.worker_panics;

    let reborn = start(cfg);
    router.set_endpoint(shard_id, reborn.addr());
    let mut warm_hits = 0usize;
    for (t, b) in before.iter().enumerate() {
        let routed = router.call(request(t)).expect("post-restart call");
        if let Response::Mask(r) = &routed.response {
            warm_hits += usize::from(r.provenance == Provenance::CacheHit);
        }
        assert_eq!(
            semantic(&response_line(t, &routed.response)),
            semantic(b),
            "fleet restart changed the answer for tag {t}"
        );
    }
    panics += reborn.stop().stats.worker_panics;
    assert!(
        warm_hits * 10 >= keys * 9,
        "fleet warm restart must serve >=90% from the recovered cache: {warm_hits}/{keys}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    (warm_hits, panics)
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Runs the crash-chaos harness and writes `results/BENCH_crash.json`.
///
/// # Panics
///
/// Panics on any violated §17 invariant: a worker panic, a quarantine
/// miss on injected corruption, a response that is not bit-identical
/// after recovery, a warm-restart hit rate below 90%, or a storm replay
/// divergence.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Crash chaos: durable mask service under kill/corrupt/restart ==");
    let keys = if cfg.quick { 6 } else { 12 };
    let rounds = if cfg.quick { 4 } else { 8 };
    let mut worker_panics = 0u64;

    println!("  phase 1: clean shutdown -> warm restart ({keys} keys)");
    let (reference, hit_rate) = clean_restart(cfg, keys);

    println!("  phase 2: drift -> restart (epoch replay, stale demotion)");
    worker_panics += drift_restart(cfg, keys.min(4));

    println!("  phase 3: corruption storm ({rounds} rounds, gremlin profile), run twice");
    let storm = twice("corruption storm", || {
        let storm = corruption_storm(cfg, keys, rounds, &reference);
        worker_panics += storm.worker_panics;
        storm
    });

    println!("  phase 4: mid-snapshot kills (both crash points)");
    let kill_points = mid_snapshot_kill(cfg, keys.min(5));

    println!("  phase 5: fleet shard kill -> warm restart");
    let fleet_keys = keys.min(6);
    let (fleet_hits, fleet_panics) = fleet_restart(cfg, fleet_keys);
    worker_panics += fleet_panics;

    assert_eq!(worker_panics, 0, "a service worker panicked");
    let d = &storm.damage;
    write_report(
        cfg,
        "BENCH_crash.json",
        vec![
            ("zero_panics", (worker_panics == 0).into()),
            ("warm_restart_hit_rate", Json::Num(hit_rate, 4)),
            (
                "clean_restart",
                Json::obj([
                    ("keys", reference.len().into()),
                    ("bit_identical", true.into()),
                ]),
            ),
            (
                "corruption",
                Json::obj([
                    ("rounds", storm.rounds.into()),
                    ("ops", d.ops.into()),
                    ("torn", d.torn.into()),
                    ("truncated", d.truncated.into()),
                    ("flipped", d.flipped.into()),
                    ("stray_temps", d.kills.into()),
                    ("quarantined_records", storm.quarantined.into()),
                    ("corruption_quarantined", true.into()),
                    ("answers_bit_identical", true.into()),
                ]),
            ),
            ("mid_snapshot_kill_points_survived", kill_points.into()),
            (
                "fleet_restart",
                Json::obj([
                    ("keys", fleet_keys.into()),
                    ("warm_hits", fleet_hits.into()),
                    ("bit_identical", true.into()),
                ]),
            ),
            (
                "replay",
                Json::obj([
                    ("replay_bit_identical", true.into()),
                    ("responses", storm.log.len().into()),
                ]),
            ),
        ],
        storm.lines(),
    );
}
