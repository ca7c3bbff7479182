//! Durability contracts at the service boundary (DESIGN.md §17):
//! warm-set restarts serve bit-identical responses, registry epochs
//! replay from the snapshot, corruption quarantines instead of
//! panicking, and recovered entries still obey the staleness ladder —
//! the stale-store capacity bound and the
//! `hits + misses + stale_served == lookups` accounting invariant.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use adapt::{DdMask, DdProtocol, DecoyKind};
use adapt_service::cache::TieredLookup;
use adapt_service::persist::{journal_path, snapshot_path};
use adapt_service::{
    CachedMask, DeviceId, DeviceRegistry, MaskCache, MaskKey, MaskService, PersistConfig,
    Persister, Provenance, Request, Response, SearchBudget, ServiceConfig,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("adapt_persist_integration")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persist_service(dir: &Path, devices: Vec<DeviceId>) -> MaskService {
    MaskService::start(ServiceConfig {
        devices,
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 32,
        seed: 2021,
        persist: PersistConfig {
            // Long interval: snapshots in these tests come from
            // `snapshot_now` / shutdown, not the background thread.
            snapshot_interval_ms: 600_000,
            ..PersistConfig::at(dir.to_path_buf())
        },
        ..ServiceConfig::default()
    })
}

fn tagged(tag: u32) -> qcirc::Circuit {
    let mut c = qcirc::Circuit::new(5);
    c.h(0);
    for q in 1..5u32 {
        c.cx(q - 1, q);
    }
    // Distinct structure per tag so every circuit is its own cache key.
    for q in 0..5u32 {
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
    c.measure_all();
    c
}

fn budget() -> SearchBudget {
    SearchBudget {
        shots: 32,
        trajectories: 2,
        neighborhood: 4,
        ..SearchBudget::default()
    }
}

fn recommend(service: &MaskService, tag: u32) -> adapt_service::Recommendation {
    match service
        .call(Request::RecommendMask {
            circuit: tagged(tag),
            device: DeviceId::Rome,
            protocol: DdProtocol::Xy4,
            budget: budget(),
            deadline_ms: None,
            tenancy: Default::default(),
        })
        .expect("recommend")
    {
        Response::Mask(r) => r,
        other => panic!("expected mask response, got {other:?}"),
    }
}

#[test]
fn warm_set_survives_restart_with_bit_identical_responses() {
    let dir = tmp("warm_restart");
    const K: u32 = 4;

    let service = persist_service(&dir, vec![DeviceId::Rome]);
    let before: Vec<(DdMask, f64, usize)> = (0..K)
        .map(|t| {
            let r = recommend(&service, t);
            (r.mask, r.decoy_fidelity, r.decoy_runs)
        })
        .collect();
    service.shutdown();
    assert!(snapshot_path(&dir).exists(), "shutdown writes a snapshot");

    let service = persist_service(&dir, vec![DeviceId::Rome]);
    let report = service.recovery_report().expect("recovery ran");
    assert_eq!(report.recovered_warm, K as usize);
    assert_eq!(report.quarantined, 0);
    for (t, (mask, fidelity, runs)) in before.iter().enumerate() {
        let r = recommend(&service, t as u32);
        assert_eq!(
            r.provenance,
            Provenance::CacheHit,
            "recovered entry {t} must serve from cache"
        );
        assert_eq!(&r.mask, mask, "mask for circuit {t} changed across restart");
        assert_eq!(r.decoy_fidelity.to_bits(), fidelity.to_bits());
        assert_eq!(r.decoy_runs, *runs);
    }
    service.shutdown();
}

#[test]
fn registry_epochs_replay_and_superseded_entries_demote_to_stale() {
    let dir = tmp("epoch_replay");

    let service = persist_service(&dir, vec![DeviceId::Rome]);
    let _ = recommend(&service, 0);
    let _ = recommend(&service, 1);
    // Two calibration drifts: the warm entries demote to the stale
    // store pre-shutdown, and the snapshot records both advances.
    service.advance_epoch(DeviceId::Rome).expect("advance");
    service.advance_epoch(DeviceId::Rome).expect("advance");
    let epoch_before = service.epoch(DeviceId::Rome).expect("epoch");
    assert_eq!(epoch_before, 2);
    service.shutdown();

    let service = persist_service(&dir, vec![DeviceId::Rome]);
    assert_eq!(
        service.epoch(DeviceId::Rome),
        Some(epoch_before),
        "registry epoch must replay from the snapshot"
    );
    let report = service.recovery_report().expect("recovery ran");
    assert!(
        report.recovered_stale + report.demoted_stale >= 1,
        "superseded entries must land in the stale store: {report:?}"
    );
    assert_eq!(report.epoch_advances, 2);
    assert_eq!(report.quarantined, 0);
    service.shutdown();
}

#[test]
fn corrupted_snapshot_record_is_quarantined_not_fatal() {
    let dir = tmp("quarantine");
    const K: u32 = 3;

    let service = persist_service(&dir, vec![DeviceId::Rome]);
    for t in 0..K {
        let _ = recommend(&service, t);
    }
    service.shutdown();

    // Flip one bit inside the last record's body (the snapshot lays out
    // epoch records first, then warm entries, so the tail is a warm
    // record). Its CRC fails; everything before it must survive.
    let path = snapshot_path(&dir);
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    std::fs::write(&path, &bytes).expect("re-write corrupted snapshot");

    let service = persist_service(&dir, vec![DeviceId::Rome]);
    let report = service.recovery_report().expect("recovery ran");
    assert_eq!(report.quarantined, 1, "exactly one record fails its CRC");
    assert_eq!(report.recovered_warm, K as usize - 1);
    // The service keeps serving: survivors from cache, the quarantined
    // key by a fresh search that is bit-identical (determinism
    // contract) to the pre-crash answer.
    for t in 0..K {
        let r = recommend(&service, t);
        assert!(
            matches!(
                r.provenance,
                Provenance::CacheHit | Provenance::FreshSearch | Provenance::DegradedAllDd
            ),
            "unexpected provenance for {t}: {:?}",
            r.provenance
        );
    }
    service.shutdown();
}

#[test]
fn snapshot_now_requires_persistence_to_be_enabled() {
    let service = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 1,
        ..ServiceConfig::default()
    });
    assert!(service.persist_stats().is_none());
    assert!(service.recovery_report().is_none());
    let err = service.snapshot_now().expect_err("persistence disabled");
    assert!(
        err.to_string().contains("persistence is not enabled"),
        "unexpected error: {err}"
    );
    service.shutdown();
}

/// Reloaded-then-demoted entries obey the stale-store capacity bound,
/// and the cache accounting invariant holds across the whole
/// recover → demote → lookup cycle.
#[test]
fn invalidate_after_recovery_respects_stale_bound_and_accounting() {
    let dir = tmp("demote_bound");
    let obs = adapt_obs::Registry::new();
    let registry = DeviceRegistry::new(&[DeviceId::Rome], 7);
    let cache = Arc::new(MaskCache::with_tiers(16, 2, 8, &obs));

    let key = |hash: u64| MaskKey {
        device: DeviceId::Rome,
        epoch: 0,
        circuit_hash: hash,
        protocol: DdProtocol::Xy4,
        decoy: DecoyKind::Clifford,
    };
    let value = |bits: u64| CachedMask {
        mask: DdMask::from_bits(bits, 5),
        decoy_fidelity: 0.75,
        decoy_runs: 8,
        degraded: false,
    };
    for h in 0..4u64 {
        cache.insert(key(h), value(h + 1));
    }
    let persister = Persister::new(&dir, false, &obs).expect("persister");
    let records = persister.snapshot(&cache, &registry).expect("snapshot");
    assert_eq!(records, 1 + 4, "one epoch record plus four warm entries");

    // Fresh process: recover, then drift demotes every reloaded entry.
    let obs2 = adapt_obs::Registry::new();
    let registry2 = DeviceRegistry::new(&[DeviceId::Rome], 7);
    let cache2 = Arc::new(MaskCache::with_tiers(16, 2, 8, &obs2));
    let persister2 = Persister::new(&dir, false, &obs2).expect("persister");
    let report = persister2.recover(&cache2, &registry2).expect("recover");
    assert_eq!(report.recovered_warm, 4);
    assert_eq!(report.quarantined, 0);

    let demoted = cache2.invalidate_before(DeviceId::Rome, 1);
    assert_eq!(demoted, 4);
    let stats = cache2.stats();
    assert!(
        stats.stale_len <= stats.stale_capacity,
        "stale store over capacity: {} > {}",
        stats.stale_len,
        stats.stale_capacity
    );
    assert_eq!(stats.stale_capacity, 2);

    // Exercise all three lookup outcomes against the recovered cache.
    // Stale serve: a demoted survivor within the staleness bound.
    let mut stale_served = 0;
    for h in 0..4u64 {
        let k1 = MaskKey { epoch: 1, ..key(h) };
        // `insert` records the synthetic stale identity
        // `stale_key(circuit_hash)`, so the epoch-1 request matches the
        // demoted entry through the same key.
        match MaskCache::lookup(&cache2, k1, k1.stale_key(h), 2, true) {
            TieredLookup::Stale {
                value: v, refresh, ..
            } => {
                stale_served += 1;
                assert_eq!(v.mask, value(h + 1).mask);
                // Play the background refiner: publish the value at the
                // requested epoch so the key warms up.
                refresh
                    .expect("first stale serve owns the refine")
                    .complete(v);
            }
            TieredLookup::Miss(Some(ticket)) => ticket.complete(value(h + 1)),
            other => panic!("epoch-1 key cannot be warm yet: {other:?}"),
        }
    }
    assert!(
        stale_served >= 1,
        "bounded stale store must still serve survivors"
    );
    // Hit: the completed searches above are warm at epoch 1 now.
    for h in 0..4u64 {
        let k1 = MaskKey { epoch: 1, ..key(h) };
        match MaskCache::lookup(&cache2, k1, k1.stale_key(h), 0, true) {
            TieredLookup::Hit(v) => assert_eq!(v.mask, value(h + 1).mask),
            other => panic!("epoch-1 key {h} must be warm: {other:?}"),
        }
    }

    let stats = cache2.stats();
    assert_eq!(
        stats.hits + stats.misses + stats.stale_served,
        stats.lookups,
        "accounting invariant broken: {stats:?}"
    );
    assert!(stats.stale_len <= stats.stale_capacity);
    let _ = journal_path(&dir);
}
