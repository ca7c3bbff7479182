//! Crash-safe durability for the [`MaskCache`] warm set.
//!
//! Every mask in the cache is the product of an expensive adaptive
//! search tied to a calibration epoch, so a process restart that drops
//! the warm set turns into a cold-miss storm (PR 6/9 measured exactly
//! that). This module makes a restart a non-event:
//!
//! - **Snapshot**: a periodic, atomically-published image of the whole
//!   cache (serving map, stale store, and per-device registry epochs) in
//!   a length-prefixed binary format written through [`crate::codec`],
//!   the byte codec the fleet wire uses too. Every record is
//!   CRC32-checksummed and version-tagged.
//! - **Write-ahead journal**: an append-only log of the cache mutations
//!   between snapshots — inserts and epoch invalidations — emitted in
//!   mutation order from under the cache lock, so replay reconstructs
//!   the exact pre-crash state.
//! - **Recovery**: replays snapshot + journal. Any record failing
//!   checksum / version / length validation is **quarantined** — typed
//!   [`PersistError`], counted in `adapt_service_persist_*` metrics,
//!   never a panic, never served. Entries whose epoch predates the
//!   registry's current epoch drop into the stale store (the DESIGN §13
//!   staleness contract); current entries come back as warm hits,
//!   bit-identical to pre-crash responses.
//! - **Crash-point injection**: [`CrashPoint`] simulates process death
//!   inside [`atomic_write_with_crash`] (torn temp writes, kills before
//!   rename), and [`StorageFaultPlan`] is a `machine::fault`-style
//!   seeded corruption campaign (truncated tails, bit flips) for the
//!   bench harness's `crash` scenario.

use crate::cache::{CachedMask, MaskCache, MaskKey, StaleKey};
use crate::codec::{
    crc32, get_decoy_kind, get_device, get_mask, get_mask_key, get_protocol, put_decoy_kind,
    put_device, put_mask, put_mask_key, put_protocol, unknown_tag, CodecError, Reader, Writer,
};
use crate::registry::{DeviceId, DeviceRegistry};
use device::SeedSpawner;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Snapshot file magic: `b"ADSP"` little-endian.
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"ADSP");

/// Journal file magic: `b"ADWL"` little-endian.
pub const JOURNAL_MAGIC: u32 = u32::from_le_bytes(*b"ADWL");

/// Format version, tagged on the file header and on every record.
pub const PERSIST_VERSION: u8 = 1;

/// Plausibility bound on a single record's body length. A length field
/// above this is treated as framing corruption (a bit flip in the
/// length itself) and quarantines the remainder of the file — past a
/// corrupt length there is no trustworthy record boundary.
pub const MAX_RECORD_BYTES: u32 = 4096;

const SNAPSHOT_FILE: &str = "snapshot.bin";
const JOURNAL_FILE: &str = "journal.wal";

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Typed validation failure of one persisted record (or file header).
/// Every variant is a quarantine reason — recovery counts it and moves
/// on; no corrupt input panics or reaches the serving map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// File header magic did not match the expected store type.
    BadMagic {
        /// The magic read from the file.
        got: u32,
        /// The magic this store requires.
        expected: u32,
    },
    /// File or record version is newer than this build understands.
    BadVersion(u8),
    /// Stored CRC32 does not match the record body.
    ChecksumMismatch {
        /// CRC32 stored alongside the record.
        expected: u32,
        /// CRC32 recomputed over the body as read.
        got: u32,
    },
    /// A record length field exceeds [`MAX_RECORD_BYTES`]; framing is
    /// untrustworthy from this point on.
    Oversize {
        /// The implausible length read.
        len: u32,
    },
    /// A field failed to decode: the file ends inside a record (torn
    /// write / truncated tail), or a body holds an unknown tag, an
    /// unknown device, invalid UTF-8, a too-wide mask or leftover bytes.
    Codec(CodecError),
    /// A record names a device this registry does not serve.
    UnservedDevice(DeviceId),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic { got, expected } => {
                write!(f, "bad store magic {got:#010x} (expected {expected:#010x})")
            }
            PersistError::BadVersion(v) => write!(f, "unsupported persist version {v}"),
            PersistError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "record checksum mismatch: stored {expected:#010x}, computed {got:#010x}"
                )
            }
            PersistError::Oversize { len } => {
                write!(
                    f,
                    "implausible record length {len} (max {MAX_RECORD_BYTES})"
                )
            }
            PersistError::Codec(e) => write!(f, "{e}"),
            PersistError::UnservedDevice(d) => write!(f, "device {:?} is not served", d.name()),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

fn put_cached(w: &mut Writer, v: &CachedMask) {
    put_mask(w, v.mask);
    w.f64(v.decoy_fidelity);
    w.u64(v.decoy_runs as u64);
    w.bool(v.degraded);
}

fn get_cached(r: &mut Reader<'_>) -> Result<CachedMask, CodecError> {
    Ok(CachedMask {
        mask: get_mask(r)?,
        decoy_fidelity: r.f64()?,
        decoy_runs: r.u64()? as usize,
        degraded: r.bool()?,
    })
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

const REC_WARM: u8 = 1;
const REC_STALE: u8 = 2;
const REC_EPOCH: u8 = 3;
const REC_INVALIDATE: u8 = 4;

/// One persisted record. Snapshots carry `Epoch` + `Warm` + `Stale`;
/// the journal carries `Warm` (inserts) + `Invalidate` (drift).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PersistRecord {
    /// A serving-map entry at its search epoch.
    Warm {
        /// The full cache key.
        key: MaskKey,
        /// Logical-circuit hash, reconstructing the entry's [`StaleKey`].
        logical_hash: u64,
        /// The cached search outcome.
        value: CachedMask,
    },
    /// A stale-store entry (superseded epoch).
    Stale {
        /// Epoch-independent identity.
        key: StaleKey,
        /// The superseded value.
        value: CachedMask,
        /// Epoch the value was searched at.
        epoch: u64,
    },
    /// A device's calibration epoch at snapshot time. Recovery replays
    /// the registry's seeded drift forward to this epoch before
    /// classifying entries.
    Epoch {
        /// The device.
        device: DeviceId,
        /// Its epoch at snapshot time.
        epoch: u64,
    },
    /// A drift invalidation (journal only): entries of `device` below
    /// `min_epoch` were demoted to the stale store.
    Invalidate {
        /// The device that drifted.
        device: DeviceId,
        /// The new minimum fresh epoch.
        min_epoch: u64,
    },
}

/// Encodes `rec` as one framed record: `[len u32][crc32 u32][body]`,
/// where the CRC covers the body and the body starts with the format
/// version and record tag.
pub fn encode_record(rec: &PersistRecord) -> Vec<u8> {
    let mut body = Writer::with_capacity(64);
    body.u8(PERSIST_VERSION);
    match rec {
        PersistRecord::Warm {
            key,
            logical_hash,
            value,
        } => {
            body.u8(REC_WARM);
            put_mask_key(&mut body, key);
            body.u64(*logical_hash);
            put_cached(&mut body, value);
        }
        PersistRecord::Stale { key, value, epoch } => {
            body.u8(REC_STALE);
            put_device(&mut body, key.device);
            body.u64(key.logical_hash);
            put_protocol(&mut body, key.protocol);
            put_decoy_kind(&mut body, key.decoy);
            put_cached(&mut body, value);
            body.u64(*epoch);
        }
        PersistRecord::Epoch { device, epoch } => {
            body.u8(REC_EPOCH);
            put_device(&mut body, *device);
            body.u64(*epoch);
        }
        PersistRecord::Invalidate { device, min_epoch } => {
            body.u8(REC_INVALIDATE);
            put_device(&mut body, *device);
            body.u64(*min_epoch);
        }
    }
    let body = body.as_bytes();
    let mut framed = Writer::with_capacity(body.len() + 8);
    framed.u32(body.len() as u32);
    framed.u32(crc32(body));
    framed.bytes(body);
    framed.into_bytes()
}

fn decode_body(body: &[u8]) -> Result<PersistRecord, PersistError> {
    let mut r = Reader::new(body);
    let version = r.u8()?;
    if version > PERSIST_VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let rec = match r.u8()? {
        REC_WARM => PersistRecord::Warm {
            key: get_mask_key(&mut r)?,
            logical_hash: r.u64()?,
            value: get_cached(&mut r)?,
        },
        REC_STALE => PersistRecord::Stale {
            key: StaleKey {
                device: get_device(&mut r)?,
                logical_hash: r.u64()?,
                protocol: get_protocol(&mut r)?,
                decoy: get_decoy_kind(&mut r)?,
            },
            value: get_cached(&mut r)?,
            epoch: r.u64()?,
        },
        REC_EPOCH => PersistRecord::Epoch {
            device: get_device(&mut r)?,
            epoch: r.u64()?,
        },
        REC_INVALIDATE => PersistRecord::Invalidate {
            device: get_device(&mut r)?,
            min_epoch: r.u64()?,
        },
        tag => unknown_tag("record", tag)?,
    };
    r.finish()?;
    Ok(rec)
}

/// Decodes a whole store file (header + record stream). Returns every
/// record that validated and every quarantine reason encountered.
///
/// Damage containment: a checksum or body-decode failure quarantines
/// that one record and continues (the length framing is still
/// trustworthy); a truncated or implausible length quarantines the
/// remainder of the file — past a corrupt length there is no record
/// boundary to resynchronize on.
pub fn decode_store(buf: &[u8], expected_magic: u32) -> (Vec<PersistRecord>, Vec<PersistError>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    if buf.is_empty() {
        return (records, errors);
    }
    let mut r = Reader::new(buf);
    if let Err(e) = read_store_header(&mut r, expected_magic) {
        errors.push(e);
        return (records, errors);
    }
    while r.has_remaining() {
        match read_record(&mut r) {
            Ok(Ok(rec)) => records.push(rec),
            Ok(Err(e)) => errors.push(e),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    (records, errors)
}

/// A store file's 5-byte header: magic, then format version.
fn put_store_header(w: &mut Writer, magic: u32) {
    w.u32(magic);
    w.u8(PERSIST_VERSION);
}

fn read_store_header(r: &mut Reader<'_>, expected: u32) -> Result<(), PersistError> {
    let got = r.u32()?;
    if got != expected {
        return Err(PersistError::BadMagic { got, expected });
    }
    match r.u8()? {
        v if v <= PERSIST_VERSION => Ok(()),
        v => Err(PersistError::BadVersion(v)),
    }
}

/// Reads one framed record. The outer error means the framing itself is
/// lost (stop decoding); the inner one quarantines just this record.
fn read_record(r: &mut Reader<'_>) -> Result<Result<PersistRecord, PersistError>, PersistError> {
    let len = r.u32()?;
    if len > MAX_RECORD_BYTES {
        return Err(PersistError::Oversize { len });
    }
    let expected = r.u32()?;
    let body = r.take(len as usize)?;
    let got = crc32(body);
    if got != expected {
        return Ok(Err(PersistError::ChecksumMismatch { expected, got }));
    }
    Ok(decode_body(body))
}

// ---------------------------------------------------------------------------
// Atomic publication + crash points
// ---------------------------------------------------------------------------

/// Where [`atomic_write_with_crash`] simulates process death. `None`
/// performs the full write-temp → fsync → rename sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// No injected crash.
    #[default]
    None,
    /// Die after writing only `keep` bytes of the temp file (torn
    /// write). The previously published file is untouched.
    MidTempWrite {
        /// Bytes of the payload that reach the temp file.
        keep: usize,
    },
    /// Die after the temp file is complete (and synced) but before the
    /// rename publishes it.
    BeforeRename,
}

/// The temp-file sibling `atomic_write` stages into before renaming.
/// Recovery ignores (and removes) leftovers at this path.
pub fn staging_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically publishes `bytes` at `path`: write a temp sibling, fsync
/// it (when `fsync`), rename over the target, then best-effort fsync
/// the directory. Readers never observe a half-written file.
pub fn atomic_write(path: &Path, bytes: &[u8], fsync: bool) -> io::Result<()> {
    atomic_write_with_crash(path, bytes, fsync, CrashPoint::None).map(|_| ())
}

/// [`atomic_write`] with an injected [`CrashPoint`]. Returns `true` when
/// the file was published (renamed), `false` when the simulated crash
/// fired first — in which case the previously published file, if any,
/// is intact and a torn or orphaned temp sibling may remain, exactly as
/// a real kill would leave things.
pub fn atomic_write_with_crash(
    path: &Path,
    bytes: &[u8],
    fsync: bool,
    crash: CrashPoint,
) -> io::Result<bool> {
    let tmp = staging_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        if let CrashPoint::MidTempWrite { keep } = crash {
            f.write_all(&bytes[..keep.min(bytes.len())])?;
            f.flush()?;
            return Ok(false);
        }
        f.write_all(bytes)?;
        f.flush()?;
        if fsync {
            f.sync_all()?;
        }
    }
    if crash == CrashPoint::BeforeRename {
        return Ok(false);
    }
    fs::rename(&tmp, path)?;
    if fsync {
        if let Some(parent) = path.parent() {
            if let Ok(dir) = fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Seeded storage-fault injection (machine::fault idiom)
// ---------------------------------------------------------------------------

/// Per-class probabilities of seeded storage damage, mirroring
/// `machine::FaultProfile` for the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaultProfile {
    /// Probability a write is torn partway through the temp file.
    pub torn_write: f64,
    /// Probability a persisted file loses a fraction of its tail
    /// (truncated append / lost sectors).
    pub truncate_tail: f64,
    /// Probability a random persisted bit flips (media corruption).
    pub bit_flip: f64,
    /// Probability the process dies after the temp file is complete but
    /// before the rename publishes it.
    pub kill_before_rename: f64,
}

impl StorageFaultProfile {
    /// No injected damage.
    pub fn none() -> Self {
        StorageFaultProfile {
            torn_write: 0.0,
            truncate_tail: 0.0,
            bit_flip: 0.0,
            kill_before_rename: 0.0,
        }
    }

    /// Crash-shaped damage: torn writes and unpublished temps dominate.
    pub fn torn() -> Self {
        StorageFaultProfile {
            torn_write: 0.5,
            truncate_tail: 0.25,
            bit_flip: 0.0,
            kill_before_rename: 0.25,
        }
    }

    /// Media-gremlin damage: bit flips on top of crash shapes.
    pub fn gremlin() -> Self {
        StorageFaultProfile {
            torn_write: 0.25,
            truncate_tail: 0.25,
            bit_flip: 0.5,
            kill_before_rename: 0.25,
        }
    }

    /// Parses a profile by name (see [`Self::known_names`]).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "torn" => Some(Self::torn()),
            "gremlin" => Some(Self::gremlin()),
            _ => None,
        }
    }

    /// Every name [`Self::by_name`] accepts.
    pub fn known_names() -> &'static [&'static str] {
        &["none", "torn", "gremlin"]
    }
}

/// The damage drawn for one storage operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageFaults {
    /// `Some(keep_fraction)`: tear the write, keeping this fraction of
    /// the payload (in `[0, 1)`).
    pub torn_write: Option<f64>,
    /// `Some(drop_fraction)`: truncate this fraction off the file tail
    /// (in `(0, 0.5]`).
    pub truncate_tail: Option<f64>,
    /// `Some(draw)`: flip bit `draw % (len · 8)` of the file.
    pub bit_flip: Option<u64>,
    /// Die between fsync and rename.
    pub kill_before_rename: bool,
}

impl StorageFaults {
    /// Whether any damage fires for this operation.
    pub fn any(&self) -> bool {
        self.torn_write.is_some()
            || self.truncate_tail.is_some()
            || self.bit_flip.is_some()
            || self.kill_before_rename
    }
}

/// A seeded per-operation storage-damage schedule: `faults_for(op)` is a
/// pure function of `(seed, op)`, so two plans with the same seed injure
/// the same operations identically — the property the `crash`
/// scenario's replay-determinism assertion rests on.
#[derive(Debug)]
pub struct StorageFaultPlan {
    profile: StorageFaultProfile,
    spawner: SeedSpawner,
    next_op: AtomicU64,
}

impl StorageFaultPlan {
    /// Creates a plan drawing from `profile` under `seed`.
    pub fn new(profile: StorageFaultProfile, seed: u64) -> Self {
        StorageFaultPlan {
            profile,
            spawner: SeedSpawner::new(seed),
            next_op: AtomicU64::new(0),
        }
    }

    /// The profile this plan draws from.
    pub fn profile(&self) -> StorageFaultProfile {
        self.profile
    }

    /// Hands out the next operation index (for callers that damage a
    /// stream of files in sequence).
    pub fn next_op(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// The damage drawn for operation `op`. Every fault class draws
    /// unconditionally so each class has a fixed position in the stream:
    /// changing one probability never shifts another class's draws.
    pub fn faults_for(&self, op: u64) -> StorageFaults {
        let mut state = self.spawner.derive(op);
        let torn = unit_draw(&mut state);
        let torn_frac = unit_draw(&mut state);
        let trunc = unit_draw(&mut state);
        let trunc_frac = unit_draw(&mut state);
        let flip = unit_draw(&mut state);
        let flip_draw = splitmix64(&mut state);
        let kill = unit_draw(&mut state);
        StorageFaults {
            torn_write: (torn < self.profile.torn_write).then_some(torn_frac),
            truncate_tail: (trunc < self.profile.truncate_tail).then_some(0.05 + 0.45 * trunc_frac),
            bit_flip: (flip < self.profile.bit_flip).then_some(flip_draw),
            kill_before_rename: kill < self.profile.kill_before_rename,
        }
    }
}

/// Tallies of applied storage damage, for harness reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageFaultCounts {
    /// Operations examined.
    pub ops: u64,
    /// Torn writes applied.
    pub torn: u64,
    /// Tail truncations applied.
    pub truncated: u64,
    /// Bits flipped.
    pub flipped: u64,
    /// Kills before rename.
    pub kills: u64,
}

impl StorageFaultCounts {
    /// Records one drawn operation into the tallies.
    pub fn record(&mut self, faults: &StorageFaults) {
        self.ops += 1;
        self.torn += faults.torn_write.is_some() as u64;
        self.truncated += faults.truncate_tail.is_some() as u64;
        self.flipped += faults.bit_flip.is_some() as u64;
        self.kills += faults.kill_before_rename as u64;
    }

    /// Total damage events across all classes.
    pub fn total(&self) -> u64 {
        self.torn + self.truncated + self.flipped + self.kills
    }
}

impl fmt::Display for StorageFaultCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops={} torn={} truncated={} flipped={} kills={}",
            self.ops, self.torn, self.truncated, self.flipped, self.kills
        )
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_draw(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Truncates `drop_fraction` (clamped to `[0, 1]`) off the tail of the
/// file at `path`, returning how many bytes were removed. Simulates a
/// lost append / torn tail on an already-persisted file.
pub fn truncate_tail(path: &Path, drop_fraction: f64) -> io::Result<u64> {
    let len = fs::metadata(path)?.len();
    let drop = ((len as f64) * drop_fraction.clamp(0.0, 1.0)) as u64;
    let keep = len.saturating_sub(drop.max(1)).min(len);
    let f = fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep)?;
    Ok(len - keep)
}

/// Flips one bit of the file at `path` (bit index `draw % (len · 8)`),
/// returning the flipped bit index, or `None` for an empty file.
/// Simulates in-place media corruption.
pub fn flip_bit(path: &Path, draw: u64) -> io::Result<Option<u64>> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(None);
    }
    let bit = draw % (bytes.len() as u64 * 8);
    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
    fs::write(path, &bytes)?;
    Ok(Some(bit))
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Durability configuration, carried on `ServiceConfig`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PersistConfig {
    /// Directory holding `snapshot.bin` + `journal.wal`. `None` (the
    /// default) disables persistence entirely.
    pub dir: Option<PathBuf>,
    /// Interval of the background snapshot thread, in milliseconds.
    /// `0` disables the thread: snapshots then happen only at recovery,
    /// clean shutdown, and explicit `snapshot_now` calls.
    pub snapshot_interval_ms: u64,
    /// Whether to fsync files and directories on publication. Tests and
    /// benches turn this off; production leaves it on.
    pub fsync: bool,
}

impl PersistConfig {
    /// A config persisting into `dir` with production defaults (5 s
    /// snapshot interval, fsync on).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: Some(dir.into()),
            snapshot_interval_ms: 5_000,
            fsync: true,
        }
    }

    /// Whether persistence is enabled.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }
}

/// Path of the snapshot file inside a persist directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Path of the write-ahead journal inside a persist directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join(JOURNAL_FILE)
}

// ---------------------------------------------------------------------------
// Metrics / reports
// ---------------------------------------------------------------------------

/// Observability mirrors of the persistence counters
/// (`adapt_service_persist_*`).
#[derive(Default)]
struct PersistMetrics {
    snapshots: adapt_obs::Counter,
    snapshot_failures: adapt_obs::Counter,
    snapshot_records: adapt_obs::Counter,
    journal_records: adapt_obs::Counter,
    journal_failures: adapt_obs::Counter,
    recoveries: adapt_obs::Counter,
    recovered_warm: adapt_obs::Counter,
    recovered_stale: adapt_obs::Counter,
    demoted_stale: adapt_obs::Counter,
    quarantined: adapt_obs::Counter,
}

impl PersistMetrics {
    fn for_registry(r: &adapt_obs::Registry) -> Self {
        PersistMetrics {
            snapshots: r.counter("adapt_service_persist_snapshots_total"),
            snapshot_failures: r.counter("adapt_service_persist_snapshot_failures_total"),
            snapshot_records: r.counter("adapt_service_persist_snapshot_records_total"),
            journal_records: r.counter("adapt_service_persist_journal_records_total"),
            journal_failures: r.counter("adapt_service_persist_journal_failures_total"),
            recoveries: r.counter("adapt_service_persist_recoveries_total"),
            recovered_warm: r.counter("adapt_service_persist_recovered_warm_total"),
            recovered_stale: r.counter("adapt_service_persist_recovered_stale_total"),
            demoted_stale: r.counter("adapt_service_persist_demoted_stale_total"),
            quarantined: r.counter("adapt_service_persist_quarantined_total"),
        }
    }
}

/// Readable snapshot of the persistence counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Snapshots successfully published.
    pub snapshots: u64,
    /// Snapshot attempts that failed with an I/O error.
    pub snapshot_failures: u64,
    /// Records written across all published snapshots.
    pub snapshot_records: u64,
    /// Journal records appended since startup.
    pub journal_records: u64,
    /// Journal appends that failed with an I/O error.
    pub journal_failures: u64,
    /// Recovery passes performed (one per startup with persistence on).
    pub recoveries: u64,
    /// Entries restored into the serving map.
    pub recovered_warm: u64,
    /// Stale-store entries restored.
    pub recovered_stale: u64,
    /// Warm records demoted to the stale store because their epoch
    /// predated the registry (DESIGN §13 staleness contract).
    pub demoted_stale: u64,
    /// Records quarantined by validation (checksum / version / length /
    /// tag / device failures). Never served, never a panic.
    pub quarantined: u64,
}

/// What one recovery pass did, in order of the pipeline: decode →
/// quarantine → epoch replay → classify → restore.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Entries restored into the serving map at their original epoch.
    pub recovered_warm: usize,
    /// Stale-store entries restored as stale.
    pub recovered_stale: usize,
    /// Warm records whose epoch predated the registry's current epoch,
    /// demoted into the stale store instead of served as fresh.
    pub demoted_stale: usize,
    /// Records (or file regions) quarantined by validation.
    pub quarantined: usize,
    /// Journal records replayed on top of the snapshot.
    pub journal_records: usize,
    /// Registry epoch advances replayed from persisted epoch records.
    pub epoch_advances: u64,
    /// Every quarantine reason, in encounter order.
    pub errors: Vec<PersistError>,
}

// ---------------------------------------------------------------------------
// Persister
// ---------------------------------------------------------------------------

/// The durability engine: owns the persist directory, the open journal
/// handle, and the persistence metrics. `MaskService` drives it —
/// recovery at startup, journal appends from the cache's event sink,
/// periodic + shutdown snapshots.
pub struct Persister {
    dir: PathBuf,
    fsync: bool,
    wal: Mutex<Option<fs::File>>,
    metrics: PersistMetrics,
    report: Mutex<Option<RecoveryReport>>,
}

impl fmt::Debug for Persister {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Persister")
            .field("dir", &self.dir)
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

impl Persister {
    /// Opens (creating if needed) the persist directory and mirrors the
    /// persistence counters into `registry`.
    pub fn new(dir: &Path, fsync: bool, registry: &adapt_obs::Registry) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Persister {
            dir: dir.to_path_buf(),
            fsync,
            wal: Mutex::new(None),
            metrics: PersistMetrics::for_registry(registry),
            report: Mutex::new(None),
        })
    }

    /// The snapshot file this persister publishes.
    pub fn snapshot_file(&self) -> PathBuf {
        snapshot_path(&self.dir)
    }

    /// The journal file this persister appends to.
    pub fn journal_file(&self) -> PathBuf {
        journal_path(&self.dir)
    }

    /// Replays snapshot + journal into `cache` and `registry`,
    /// quarantining everything that fails validation, then compacts:
    /// publishes a fresh snapshot of the recovered state and resets the
    /// journal. Returns what happened; also retrievable later via
    /// [`Self::last_recovery`].
    ///
    /// Must run before [`Self::install`] — restores do not re-journal.
    pub fn recover(
        &self,
        cache: &MaskCache,
        registry: &DeviceRegistry,
    ) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        // A stray temp sibling is a write that never published; the
        // rename never happened, so it holds no committed state.
        let _ = fs::remove_file(staging_path(&self.snapshot_file()));

        let snap_bytes = read_optional(&self.snapshot_file())?;
        let (snap_records, snap_errors) = decode_store(&snap_bytes, SNAPSHOT_MAGIC);
        report.errors.extend(snap_errors);

        let wal_bytes = read_optional(&self.journal_file())?;
        let (wal_records, wal_errors) = decode_store(&wal_bytes, JOURNAL_MAGIC);
        report.journal_records = wal_records.len();
        report.errors.extend(wal_errors);

        for rec in snap_records.iter().chain(wal_records.iter()) {
            self.apply(rec, cache, registry, &mut report);
        }
        report.quarantined = report.errors.len();

        self.metrics.recoveries.inc();
        self.metrics
            .recovered_warm
            .add(report.recovered_warm as u64);
        self.metrics
            .recovered_stale
            .add(report.recovered_stale as u64);
        self.metrics.demoted_stale.add(report.demoted_stale as u64);
        self.metrics.quarantined.add(report.quarantined as u64);

        // Compact: the recovered state becomes the new snapshot and the
        // journal restarts empty (with its open append handle).
        self.snapshot(cache, registry)?;

        *lock(&self.report) = Some(report.clone());
        Ok(report)
    }

    /// The report of the last [`Self::recover`] pass, if any.
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        lock(&self.report).clone()
    }

    fn apply(
        &self,
        rec: &PersistRecord,
        cache: &MaskCache,
        registry: &DeviceRegistry,
        report: &mut RecoveryReport,
    ) {
        match *rec {
            PersistRecord::Epoch { device, epoch }
            | PersistRecord::Invalidate {
                device,
                min_epoch: epoch,
            } => {
                if registry.epoch(device).is_none() {
                    report.errors.push(PersistError::UnservedDevice(device));
                    return;
                }
                // The registry's drift is seeded: advancing to the
                // persisted epoch reproduces the pre-crash machine
                // exactly, which is what keeps recovered responses
                // bit-identical.
                while registry.epoch(device).is_some_and(|e| e < epoch) {
                    if registry.advance_epoch(device).is_none() {
                        break;
                    }
                    report.epoch_advances += 1;
                }
                if matches!(rec, PersistRecord::Invalidate { .. }) {
                    cache.invalidate_before(device, epoch);
                }
            }
            PersistRecord::Warm {
                key,
                logical_hash,
                value,
            } => {
                let Some(current) = registry.epoch(key.device) else {
                    report.errors.push(PersistError::UnservedDevice(key.device));
                    return;
                };
                let stale_key = key.stale_key(logical_hash);
                if key.epoch < current {
                    // §13: superseded epochs are never served as fresh.
                    cache.restore_stale(stale_key, value, key.epoch);
                    report.demoted_stale += 1;
                } else {
                    cache.restore_warm(key, stale_key, value);
                    report.recovered_warm += 1;
                }
            }
            PersistRecord::Stale { key, value, epoch } => {
                if registry.epoch(key.device).is_none() {
                    report.errors.push(PersistError::UnservedDevice(key.device));
                    return;
                }
                cache.restore_stale(key, value, epoch);
                report.recovered_stale += 1;
            }
        }
    }

    /// Installs the journal sink on `cache`: every insert and epoch
    /// invalidation from now on appends a record to the WAL, in
    /// mutation order (the sink runs under the cache lock).
    pub fn install(self: &Arc<Self>, cache: &MaskCache) {
        let p = Arc::clone(self);
        cache.set_journal(Some(Arc::new(move |ev| p.append_event(ev))));
    }

    fn append_event(&self, ev: &crate::cache::CacheEvent) {
        let rec = match *ev {
            crate::cache::CacheEvent::Insert {
                key,
                stale_key,
                value,
            } => PersistRecord::Warm {
                key,
                logical_hash: stale_key.logical_hash,
                value,
            },
            crate::cache::CacheEvent::InvalidateBefore { device, min_epoch } => {
                PersistRecord::Invalidate { device, min_epoch }
            }
        };
        let bytes = encode_record(&rec);
        let mut wal = lock(&self.wal);
        let Some(f) = wal.as_mut() else { return };
        match f.write_all(&bytes).and_then(|_| f.flush()) {
            Ok(()) => self.metrics.journal_records.inc(),
            Err(_) => self.metrics.journal_failures.inc(),
        }
    }

    /// Publishes a snapshot of the current cache + registry state and
    /// resets the journal. The export runs under the cache lock, so no
    /// journal event can land between the exported state and the
    /// journal reset (which would lose it). Returns the record count.
    pub fn snapshot(&self, cache: &MaskCache, registry: &DeviceRegistry) -> io::Result<usize> {
        let result = self.snapshot_inner(cache, registry, CrashPoint::None);
        match &result {
            Ok(n) => {
                self.metrics.snapshots.inc();
                self.metrics.snapshot_records.add(*n as u64);
            }
            Err(_) => self.metrics.snapshot_failures.inc(),
        }
        result
    }

    /// [`Self::snapshot`] with an injected [`CrashPoint`] — the
    /// `crash` scenario's mid-snapshot-kill phase. A crashed
    /// snapshot leaves the previous snapshot published and the journal
    /// untouched, and reports a failure rather than a publication.
    pub fn snapshot_with_crash(
        &self,
        cache: &MaskCache,
        registry: &DeviceRegistry,
        crash: CrashPoint,
    ) -> io::Result<usize> {
        if crash == CrashPoint::None {
            return self.snapshot(cache, registry);
        }
        self.snapshot_inner(cache, registry, crash)
    }

    fn snapshot_inner(
        &self,
        cache: &MaskCache,
        registry: &DeviceRegistry,
        crash: CrashPoint,
    ) -> io::Result<usize> {
        let epochs: Vec<(DeviceId, u64)> = registry
            .devices()
            .into_iter()
            .filter_map(|d| registry.epoch(d).map(|e| (d, e)))
            .collect();
        cache.with_export(|warm, stale| {
            let mut buf = Writer::with_capacity(64 * (warm.len() + stale.len() + epochs.len()) + 8);
            put_store_header(&mut buf, SNAPSHOT_MAGIC);
            let mut records = 0usize;
            for &(device, epoch) in &epochs {
                buf.bytes(&encode_record(&PersistRecord::Epoch { device, epoch }));
                records += 1;
            }
            for &(key, stale_key, value) in warm {
                buf.bytes(&encode_record(&PersistRecord::Warm {
                    key,
                    logical_hash: stale_key.logical_hash,
                    value,
                }));
                records += 1;
            }
            for &(key, value, epoch) in stale {
                buf.bytes(&encode_record(&PersistRecord::Stale { key, value, epoch }));
                records += 1;
            }
            let published =
                atomic_write_with_crash(&self.snapshot_file(), buf.as_bytes(), self.fsync, crash)?;
            if !published {
                // Simulated crash: the previous snapshot (if any) is
                // still the published truth and the journal still
                // covers everything since it.
                return Err(io::Error::other("snapshot crashed at injected crash point"));
            }
            self.reset_journal()?;
            Ok(records)
        })
    }

    fn reset_journal(&self) -> io::Result<()> {
        let mut wal = lock(&self.wal);
        let mut f = fs::File::create(self.journal_file())?;
        let mut header = Writer::with_capacity(5);
        put_store_header(&mut header, JOURNAL_MAGIC);
        f.write_all(header.as_bytes())?;
        f.flush()?;
        if self.fsync {
            f.sync_all()?;
        }
        *wal = Some(f);
        Ok(())
    }

    /// Current persistence counters.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            snapshots: self.metrics.snapshots.get(),
            snapshot_failures: self.metrics.snapshot_failures.get(),
            snapshot_records: self.metrics.snapshot_records.get(),
            journal_records: self.metrics.journal_records.get(),
            journal_failures: self.metrics.journal_failures.get(),
            recoveries: self.metrics.recoveries.get(),
            recovered_warm: self.metrics.recovered_warm.get(),
            recovered_stale: self.metrics.recovered_stale.get(),
            demoted_stale: self.metrics.demoted_stale.get(),
            quarantined: self.metrics.quarantined.get(),
        }
    }
}

fn read_optional(path: &Path) -> io::Result<Vec<u8>> {
    match fs::read(path) {
        Ok(b) => Ok(b),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt::{DdMask, DdProtocol, DecoyKind};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("adapt_persist_tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn mask(bits: u64) -> DdMask {
        DdMask::from_bits(bits, 5)
    }

    fn cached(bits: u64) -> CachedMask {
        CachedMask {
            mask: mask(bits),
            decoy_fidelity: 0.875,
            decoy_runs: 12,
            degraded: false,
        }
    }

    fn key(epoch: u64, hash: u64) -> MaskKey {
        MaskKey {
            device: DeviceId::Rome,
            epoch,
            circuit_hash: hash,
            protocol: DdProtocol::Xy4,
            decoy: DecoyKind::Seeded { max_seed_qubits: 4 },
        }
    }

    #[test]
    fn record_roundtrip_all_variants() {
        let recs = [
            PersistRecord::Warm {
                key: key(3, 77),
                logical_hash: 991,
                value: cached(0b10110),
            },
            PersistRecord::Stale {
                key: key(3, 77).stale_key(991),
                value: cached(0b1),
                epoch: 2,
            },
            PersistRecord::Epoch {
                device: DeviceId::Guadalupe,
                epoch: 9,
            },
            PersistRecord::Invalidate {
                device: DeviceId::Toronto,
                min_epoch: 4,
            },
        ];
        for rec in &recs {
            let framed = encode_record(rec);
            let mut r = Reader::new(&framed);
            let len = r.u32().expect("len") as usize;
            let crc = r.u32().expect("crc");
            let body = r.take(len).expect("body");
            assert_eq!(crc, crc32(body));
            assert_eq!(&decode_body(body).expect("decode"), rec);
        }
    }

    #[test]
    fn udd_and_every_decoy_roundtrip() {
        let mut k = key(1, 5);
        k.protocol = DdProtocol::Udd { pulses: 6 };
        for decoy in [
            DecoyKind::Clifford,
            DecoyKind::CnotOnly,
            DecoyKind::Seeded { max_seed_qubits: 3 },
        ] {
            k.decoy = decoy;
            let rec = PersistRecord::Warm {
                key: k,
                logical_hash: 8,
                value: cached(7),
            };
            let (records, errors) = decode_store(&store_with(&[rec]), SNAPSHOT_MAGIC);
            assert!(errors.is_empty(), "{errors:?}");
            assert_eq!(records, vec![rec]);
        }
    }

    #[test]
    fn too_wide_mask_is_a_typed_error() {
        let framed = encode_record(&PersistRecord::Warm {
            key: key(1, 5),
            logical_hash: 8,
            value: cached(7),
        });
        let mut body = framed[8..].to_vec();
        // version, tag, device "rome", epoch, hash, Xy4, Seeded, logical
        // hash, mask bits: the mask width follows.
        let width_at = 1 + 1 + (4 + 4) + 8 + 8 + 1 + (1 + 8) + 8 + 8;
        assert_eq!(body[width_at..width_at + 8], 5u64.to_le_bytes());
        body[width_at..width_at + 8].copy_from_slice(&65u64.to_le_bytes());
        assert_eq!(
            decode_body(&body),
            Err(PersistError::Codec(CodecError::MaskTooWide { width: 65 }))
        );
    }

    fn store_with(records: &[PersistRecord]) -> Vec<u8> {
        let mut buf = Writer::default();
        put_store_header(&mut buf, SNAPSHOT_MAGIC);
        for rec in records {
            buf.bytes(&encode_record(rec));
        }
        buf.into_bytes()
    }

    #[test]
    fn bit_flip_quarantines_exactly_one_record() {
        let recs = [
            PersistRecord::Epoch {
                device: DeviceId::Rome,
                epoch: 1,
            },
            PersistRecord::Warm {
                key: key(1, 42),
                logical_hash: 7,
                value: cached(3),
            },
            PersistRecord::Epoch {
                device: DeviceId::Paris,
                epoch: 2,
            },
        ];
        let clean = store_with(&recs);
        // Flip a bit inside the *middle* record's body.
        let first_len = encode_record(&recs[0]).len();
        let mut dirty = clean.clone();
        let target = 5 + first_len + 8 + 3; // header + rec0 + rec1 framing + offset into body
        dirty[target] ^= 0x10;
        let (records, errors) = decode_store(&dirty, SNAPSHOT_MAGIC);
        assert_eq!(records.len(), 2, "the two intact records survive");
        assert_eq!(errors.len(), 1);
        assert!(
            matches!(errors[0], PersistError::ChecksumMismatch { .. }),
            "{errors:?}"
        );
    }

    #[test]
    fn truncated_tail_quarantines_remainder() {
        let recs = [
            PersistRecord::Epoch {
                device: DeviceId::Rome,
                epoch: 1,
            },
            PersistRecord::Warm {
                key: key(1, 42),
                logical_hash: 7,
                value: cached(3),
            },
        ];
        let clean = store_with(&recs);
        let cut = clean.len() - 6;
        let (records, errors) = decode_store(&clean[..cut], SNAPSHOT_MAGIC);
        assert_eq!(records.len(), 1);
        assert!(
            matches!(
                errors[0],
                PersistError::Codec(CodecError::UnexpectedEof { .. })
            ),
            "{errors:?}"
        );
    }

    #[test]
    fn oversize_length_stops_decode() {
        let mut buf = store_with(&[]);
        buf.extend_from_slice(&(MAX_RECORD_BYTES + 1).to_le_bytes());
        buf.extend_from_slice(&[0; 4]);
        let (records, errors) = decode_store(&buf, SNAPSHOT_MAGIC);
        assert!(records.is_empty());
        assert!(
            matches!(errors[0], PersistError::Oversize { .. }),
            "{errors:?}"
        );
    }

    #[test]
    fn wrong_magic_and_future_version_quarantine_whole_file() {
        let buf = store_with(&[]);
        let (_, errors) = decode_store(&buf, JOURNAL_MAGIC);
        assert!(matches!(errors[0], PersistError::BadMagic { .. }));

        let mut future = store_with(&[]);
        future[4] = PERSIST_VERSION + 1;
        let (_, errors) = decode_store(&future, SNAPSHOT_MAGIC);
        assert!(matches!(errors[0], PersistError::BadVersion(_)));
    }

    #[test]
    fn atomic_write_publishes_and_crash_points_do_not() {
        let dir = tmp("atomic");
        let path = dir.join("x.bin");
        atomic_write(&path, b"first", false).expect("write");
        assert_eq!(fs::read(&path).expect("read"), b"first");

        let published = atomic_write_with_crash(
            &path,
            b"second",
            false,
            CrashPoint::MidTempWrite { keep: 2 },
        )
        .expect("torn");
        assert!(!published);
        assert_eq!(fs::read(&path).expect("read"), b"first", "target intact");
        assert_eq!(fs::read(staging_path(&path)).expect("tmp"), b"se");

        let published = atomic_write_with_crash(&path, b"third", false, CrashPoint::BeforeRename)
            .expect("norename");
        assert!(!published);
        assert_eq!(fs::read(&path).expect("read"), b"first", "target intact");

        atomic_write(&path, b"fourth", false).expect("write");
        assert_eq!(fs::read(&path).expect("read"), b"fourth");
    }

    #[test]
    fn storage_fault_plan_is_deterministic_and_tracks_profile() {
        let a = StorageFaultPlan::new(StorageFaultProfile::gremlin(), 11);
        let b = StorageFaultPlan::new(StorageFaultProfile::gremlin(), 11);
        let mut counts = StorageFaultCounts::default();
        for op in 0..4000 {
            let fa = a.faults_for(op);
            assert_eq!(fa, b.faults_for(op), "same seed, same damage");
            counts.record(&fa);
        }
        let rate = counts.flipped as f64 / counts.ops as f64;
        assert!(
            (rate - 0.5).abs() < 0.05,
            "bit-flip rate {rate} far from 0.5"
        );
        assert!(counts.torn > 0 && counts.truncated > 0 && counts.kills > 0);

        let none = StorageFaultPlan::new(StorageFaultProfile::none(), 11);
        assert!(!none.faults_for(0).any());
    }

    #[test]
    fn storage_profile_names_roundtrip() {
        for name in StorageFaultProfile::known_names() {
            assert!(StorageFaultProfile::by_name(name).is_some(), "{name}");
        }
        assert!(StorageFaultProfile::by_name("nope").is_none());
    }

    #[test]
    fn damage_helpers_injure_files() {
        let dir = tmp("damage");
        let path = dir.join("f.bin");
        fs::write(&path, vec![0u8; 100]).expect("write");
        let removed = truncate_tail(&path, 0.25).expect("truncate");
        assert_eq!(removed, 25);
        assert_eq!(fs::metadata(&path).expect("meta").len(), 75);

        let bit = flip_bit(&path, 9).expect("flip").expect("nonempty");
        assert_eq!(bit, 9);
        let bytes = fs::read(&path).expect("read");
        assert_eq!(bytes[1], 1 << 1);

        fs::write(&path, b"").expect("write");
        assert!(flip_bit(&path, 3).expect("flip").is_none());
    }
}
