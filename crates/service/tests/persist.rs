//! Durability contracts at the service boundary (DESIGN.md §17):
//! warm-set restarts serve bit-identical responses, registry epochs
//! replay from the snapshot, corruption quarantines instead of
//! panicking, and recovered entries still obey the staleness ladder —
//! the stale-store capacity bound and the
//! `hits + misses + stale_served == lookups` accounting invariant.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use adapt::{DdMask, DdProtocol, DecoyKind};
use adapt_service::cache::{TieredLookup, DEFAULT_STALE_CAPACITY};
use adapt_service::persist::{
    decode_store, encode_record, journal_path, snapshot_path, PersistRecord, JOURNAL_MAGIC,
    PERSIST_VERSION, SNAPSHOT_MAGIC,
};
use adapt_service::{
    CachedMask, DeviceId, DeviceRegistry, MaskCache, MaskKey, MaskService, PersistConfig,
    Persister, Provenance, Request, Response, SearchBudget, ServiceConfig, StaleKey,
};
use proptest::prelude::*;

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
    // Two more warm entries than the stale store holds.
    let warm = DEFAULT_STALE_CAPACITY as u64 + 2;
    let cache = Arc::new(MaskCache::with_registry(2 * warm as usize, &obs));

    let key = |hash: u64| MaskKey {
        device: DeviceId::Rome,
        epoch: 0,
        circuit_hash: hash,
        protocol: DdProtocol::Xy4,
        decoy: DecoyKind::Clifford,
    };
    let value = |bits: u64| CachedMask {
        mask: DdMask::from_bits(bits, 7),
        decoy_fidelity: 0.75,
        decoy_runs: 8,
        degraded: false,
    };
    for h in 0..warm {
        cache.insert(key(h), value(h + 1));
    }
    let persister = Persister::new(&dir, false, &obs).expect("persister");
    let records = persister.snapshot(&cache, &registry).expect("snapshot");
    assert_eq!(
        records,
        1 + warm as usize,
        "one epoch record plus the warm entries"
    );

    // Fresh process: recover, then drift demotes every reloaded entry.
    let obs2 = adapt_obs::Registry::new();
    let registry2 = DeviceRegistry::new(&[DeviceId::Rome], 7);
    let cache2 = Arc::new(MaskCache::with_registry(2 * warm as usize, &obs2));
    let persister2 = Persister::new(&dir, false, &obs2).expect("persister");
    let report = persister2.recover(&cache2, &registry2).expect("recover");
    assert_eq!(report.recovered_warm, warm as usize);
    assert_eq!(report.quarantined, 0);

    let demoted = cache2.invalidate_before(DeviceId::Rome, 1);
    assert_eq!(demoted, warm as usize);
    let stats = cache2.stats();
    assert!(
        stats.stale_len <= stats.stale_capacity,
        "stale store over capacity: {} > {}",
        stats.stale_len,
        stats.stale_capacity
    );
    assert_eq!(stats.stale_capacity, 64);
    assert_eq!(stats.stale_len, 64);

    // Exercise all three lookup outcomes against the recovered cache.
    // Stale serve: a demoted survivor within the staleness bound.
    let mut stale_served = 0;
    for h in 0..warm {
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
    for h in 0..warm {
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

// --- golden byte digests ----------------------------------------------------
//
// Round trips pass even when encoder and decoder change a format
// together; these pins do not. Each entry is the FNV-1a 64 digest of
// one encoded record (or published file), recorded from format
// version 1. A mismatch means the on-disk format changed: that needs a
// `PERSIST_VERSION` bump, not a new digest.

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn assert_golden(what: &str, encodings: &[Vec<u8>], golden: &[u64]) {
    let got: Vec<u64> = encodings.iter().map(|b| fnv64(b)).collect();
    let changed: Vec<usize> = (0..got.len().max(golden.len()))
        .filter(|&i| got.get(i) != golden.get(i))
        .collect();
    assert!(
        changed.is_empty(),
        "{what}: encoded bytes changed at sample indices {changed:?}; digests now {got:#018x?}"
    );
}

/// All four record kinds: a `Warm` record for every protocol (cycling
/// every decoy kind), a `Stale` record with `Udd` and `Seeded`
/// payloads, an `Epoch` and an `Invalidate`.
fn record_corpus() -> Vec<PersistRecord> {
    let protocols = [
        DdProtocol::Xy4,
        DdProtocol::IbmqDd,
        DdProtocol::Cpmg,
        DdProtocol::Xy8,
        DdProtocol::Udd { pulses: 6 },
    ];
    let decoys = [
        DecoyKind::Clifford,
        DecoyKind::CnotOnly,
        DecoyKind::Seeded { max_seed_qubits: 3 },
    ];
    let value = |i: usize| CachedMask {
        mask: DdMask::from_bits(0b1_0110_1001 >> i, 9),
        decoy_fidelity: 0.625 + i as f64 / 64.0,
        decoy_runs: 5 * i + 2,
        degraded: i.is_multiple_of(2),
    };
    let mut records: Vec<PersistRecord> = protocols
        .iter()
        .enumerate()
        .map(|(i, &protocol)| PersistRecord::Warm {
            key: MaskKey {
                device: DeviceId::ALL[i % DeviceId::ALL.len()],
                epoch: i as u64,
                circuit_hash: 0xdead_beef_0000_0000 | i as u64,
                protocol,
                decoy: decoys[i % decoys.len()],
            },
            logical_hash: 0x1234 + i as u64,
            value: value(i),
        })
        .collect();
    records.push(PersistRecord::Stale {
        key: StaleKey {
            device: DeviceId::Paris,
            logical_hash: 0xfeed,
            protocol: DdProtocol::Udd { pulses: 8 },
            decoy: DecoyKind::Seeded { max_seed_qubits: 2 },
        },
        value: value(5),
        epoch: 11,
    });
    records.push(PersistRecord::Epoch {
        device: DeviceId::Guadalupe,
        epoch: 9,
    });
    records.push(PersistRecord::Invalidate {
        device: DeviceId::Toronto,
        min_epoch: 4,
    });
    records
}

#[test]
fn record_bytes_are_pinned() {
    let encodings: Vec<Vec<u8>> = record_corpus().iter().map(encode_record).collect();
    assert_golden("encode_record", &encodings, &RECORD_GOLDEN);
}

/// A published snapshot (file header, epoch record, warm records in
/// recency order) and the empty journal it resets, byte for byte.
#[test]
fn published_store_bytes_are_pinned() {
    let dir = tmp("golden_store");
    let obs = adapt_obs::Registry::noop();
    let registry = DeviceRegistry::new(&[DeviceId::Rome], 7);
    let cache = MaskCache::with_registry(16, &obs);
    for h in 0..2u64 {
        cache.insert(
            MaskKey {
                device: DeviceId::Rome,
                epoch: 0,
                circuit_hash: 0xabc0 + h,
                protocol: DdProtocol::Xy8,
                decoy: DecoyKind::CnotOnly,
            },
            CachedMask {
                mask: DdMask::from_bits(0b101 << h, 5),
                decoy_fidelity: 0.8125,
                decoy_runs: 9,
                degraded: h == 1,
            },
        );
    }
    let persister = Persister::new(&dir, false, &obs).expect("persister");
    persister.snapshot(&cache, &registry).expect("snapshot");
    let files = [snapshot_path(&dir), journal_path(&dir)]
        .map(|path| std::fs::read(path).expect("read published file"));
    assert_golden("snapshot", &files, &STORE_GOLDEN);
}

const RECORD_GOLDEN: [u64; 8] = [
    0xf656_4f69_f5ca_a1d4,
    0xc72e_edf9_fdf8_d7be,
    0x0a33_811b_d6f8_55f0,
    0x6ec1_590d_1a75_df3d,
    0xb5e6_9f6c_e977_a388,
    0x6054_4979_2310_0817,
    0x224f_836b_b271_0143,
    0x6733_98ee_6824_3e59,
];
const STORE_GOLDEN: [u64; 2] = [0x40ac_9032_55e5_0c5b, 0x0bda_2915_ae6d_f086];

// --- untrusted bytes ----------------------------------------------------------

/// A store file holding every golden record.
fn golden_store() -> Vec<u8> {
    let mut buf = SNAPSHOT_MAGIC.to_le_bytes().to_vec();
    buf.push(PERSIST_VERSION);
    for rec in record_corpus() {
        buf.extend_from_slice(&encode_record(&rec));
    }
    buf
}

/// Decodes `bytes` as both store kinds. Each outcome must be records
/// plus typed quarantine reasons; a panic fails the test.
fn decode_both(bytes: &[u8]) {
    for magic in [SNAPSHOT_MAGIC, JOURNAL_MAGIC] {
        let (records, errors) = decode_store(bytes, magic);
        // Every record costs at least its 8-byte frame plus a body.
        assert!(records.len() + errors.len() <= bytes.len() / 8 + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_store_bytes_never_panic(
        header in any::<bool>(),
        tail in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        // Half the cases get a valid header, so the record framing and
        // bodies see arbitrary bytes too.
        let mut bytes = Vec::new();
        if header {
            bytes.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
            bytes.push(PERSIST_VERSION);
        }
        bytes.extend_from_slice(&tail);
        decode_both(&bytes);
    }

    #[test]
    fn mutated_golden_store_never_panics(at in any::<usize>(), byte in any::<u8>()) {
        let clean = golden_store();
        let mut overwritten = clean.clone();
        overwritten[at % clean.len()] = byte;
        decode_both(&overwritten);
        decode_both(&clean[..at % clean.len()]);
    }
}

/// Record bodies whose checksum still matches reach the field decoders:
/// rewrite one body byte, then re-stamp the CRC, so a corrupt tag,
/// length or mask width is decoded rather than caught by the checksum.
#[test]
fn rechecksummed_record_corruption_is_typed() {
    use adapt_service::codec::crc32;
    for rec in record_corpus() {
        let clean = encode_record(&rec);
        for at in 8..clean.len() {
            for byte in [0x00, 0x41, 0xff] {
                let mut framed = clean.clone();
                framed[at] = byte;
                let crc = crc32(&framed[8..]);
                framed[4..8].copy_from_slice(&crc.to_le_bytes());
                let mut store = SNAPSHOT_MAGIC.to_le_bytes().to_vec();
                store.push(PERSIST_VERSION);
                store.extend_from_slice(&framed);
                let (records, errors) = decode_store(&store, SNAPSHOT_MAGIC);
                assert_eq!(records.len() + errors.len(), 1);
            }
        }
    }
}
