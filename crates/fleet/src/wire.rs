//! The fleet wire protocol: a small, versioned, length-prefixed binary
//! framing over TCP.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic       0x4144464C ("ADFL"), little-endian u32
//! 4       1     version     protocol version (2; peers ≥ MIN_VERSION accepted)
//! 5       1     kind        frame type (FrameKind)
//! 6       1     flags       bit 0: FORWARDED; bit 1: CHECKSUM trailer
//! 7       1     reserved    must be 0
//! 8       4     length      payload length in bytes, little-endian
//! 12      len   payload     kind-specific body
//! ```
//!
//! With [`FLAG_CHECKSUM`] set, the declared length covers the payload
//! *plus* a 4-byte CRC32 trailer (the `adapt_service::persist` CRC —
//! one implementation across the durability and wire layers);
//! [`read_frame`] verifies and strips the trailer, turning in-flight
//! corruption into a typed [`WireError::ChecksumMismatch`] instead of a
//! garbled payload. The flag is opt-in per sender, so `MIN_VERSION`
//! peers that never set it are unaffected.
//!
//! # Versioning and extensions
//!
//! Version 2 appends an *extension block* to the request payload after
//! the fixed fields: a `u8` extension count, then per extension a `u8`
//! tag, a `u32` byte length, and that many bytes. Decoders skip
//! extensions with unknown tags by their length — new in-band fields
//! (tenancy today) ride through old-but-v2-aware peers untouched — and
//! a payload that ends before any extension block (a v1 sender) decodes
//! with default values for every extension. This is the one place the
//! protocol is deliberately tolerant; unknown *enum tags* inside known
//! fields are still typed errors (below).
//!
//! All integers are little-endian; `f64` payloads travel as their exact
//! IEEE-754 bit pattern (`to_bits`/`from_bits` — loss-free, including
//! NaN and infinities inside error payloads). Strings and circuits are
//! length-prefixed UTF-8; circuits travel as their OpenQASM rendering,
//! which `qcirc::qasm` round-trips exactly.
//!
//! Enums are encoded as a `u8` tag plus variant payload. Decoders
//! reject unknown tags with a typed [`WireError::UnknownTag`] rather
//! than guessing — a version bump is the upgrade path, silent
//! misdecodes are not. The exhaustive-match tests in
//! `tests/wire_roundtrip.rs` pin that every [`ServiceError`] variant
//! (and every error nested inside [`ServiceError::Failed`]) survives
//! encode → decode loss-free.
//!
//! The request deadline crosses the wire in-band as a
//! [`machine::WireDeadline`] — total budget plus time already counted
//! upstream — so a hop never resets the clock: the receiving shard
//! serves within `budget − upstream_elapsed`.

use adapt::decoy::DecoyError;
use adapt::{AdaptError, DdMask, DdProtocol, DecoyKind, Policy, SearchError};
use adapt_service::{
    DeviceId, Execution, MaskKey, PriorityClass, Provenance, Recommendation, Request, Response,
    SearchBudget, ServiceError, Tenancy, TenantId, TierPolicy, Timing,
};
use machine::{ExecError, WireDeadline, WIRE_DEADLINE_BYTES};
use qcirc::Gate;
use statevec::SimError;
use std::io::{Read, Write};
use transpiler::ScheduleError;

/// Frame magic: "ADFL" as a little-endian u32.
pub const MAGIC: u32 = 0x4144_464c;
/// Current protocol version. Version 2 added the request extension
/// block (tenancy in-band); v1 frames are still accepted and decode
/// with default tenancy.
pub const VERSION: u8 = 2;
/// Oldest protocol version this build still accepts.
pub const MIN_VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_BYTES: usize = 12;
/// Default cap on payload size; larger frames are rejected before
/// allocation.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 8 << 20;
/// Flag bit: this request was forwarded by a non-owning shard and must
/// be served locally (never re-forwarded), breaking forwarding cycles.
pub const FLAG_FORWARDED: u8 = 0x01;
/// Flag bit: the payload carries a 4-byte CRC32 trailer (included in
/// the declared length). Senders opt in per frame; v1 peers never set
/// it and decode unchanged.
pub const FLAG_CHECKSUM: u8 = 0x02;

/// Frame types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A service request ([`Request`] + [`WireDeadline`]).
    Request = 0x01,
    /// A successful service response ([`Response`]).
    Response = 0x02,
    /// A typed failure ([`ServiceError`]).
    Error = 0x03,
    /// Ask the shard for its Prometheus exposition (empty payload).
    MetricsRequest = 0x10,
    /// The exposition text (UTF-8).
    MetricsResponse = 0x11,
}

impl FrameKind {
    fn from_u8(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0x01 => FrameKind::Request,
            0x02 => FrameKind::Response,
            0x03 => FrameKind::Error,
            0x10 => FrameKind::MetricsRequest,
            0x11 => FrameKind::MetricsResponse,
            other => return Err(WireError::UnknownFrame(other)),
        })
    }
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame type.
    pub kind: FrameKind,
    /// Flag bits ([`FLAG_FORWARDED`]).
    pub flags: u8,
    /// Payload length in bytes.
    pub len: u32,
}

/// Typed wire-level failures: framing, versioning, and codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field did.
    UnexpectedEof {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes left in the buffer.
        have: usize,
    },
    /// The frame did not start with [`MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    UnknownFrame(u8),
    /// An enum tag no decoder for this version knows.
    UnknownTag {
        /// Which enum the tag belongs to.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A device name with no [`DeviceId`].
    BadDevice(String),
    /// The circuit payload failed to parse back from QASM.
    BadCircuit(String),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The payload length exceeds the configured frame cap.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The payload had bytes left after the last field.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A 16-byte deadline field was malformed.
    BadDeadline,
    /// The payload's CRC32 trailer did not match its content — the
    /// frame was corrupted in flight.
    ChecksumMismatch {
        /// CRC32 the sender appended.
        expected: u32,
        /// CRC32 recomputed over the payload as received.
        got: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, have } => {
                write!(
                    f,
                    "unexpected end of payload: needed {needed} bytes, {have} left"
                )
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownFrame(k) => write!(f, "unknown frame type {k:#04x}"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadDevice(name) => write!(f, "unknown device {name:?}"),
            WireError::BadCircuit(e) => write!(f, "circuit payload rejected: {e}"),
            WireError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            WireError::Oversize { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last field")
            }
            WireError::BadDeadline => write!(f, "malformed in-band deadline"),
            WireError::ChecksumMismatch { expected, got } => write!(
                f,
                "payload checksum mismatch: sender {expected:#010x}, received {got:#010x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------------

/// Append-only payload builder.
#[derive(Debug, Default)]
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn boolean(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a received payload.
struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn new(buf: &'a [u8]) -> Self {
        R { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(WireError::UnexpectedEof { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn boolean(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }
    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Whether any bytes remain — how decoders detect an optional
    /// trailing extension block.
    fn has_remaining(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Consume and discard `n` bytes (an unknown extension's payload).
    fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }

    /// Rejects payloads with unconsumed bytes — a framing bug upstream.
    fn finish(self) -> Result<(), WireError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(WireError::TrailingBytes { extra });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------------

fn put_device(w: &mut W, d: DeviceId) {
    w.str(d.name());
}

fn get_device(r: &mut R) -> Result<DeviceId, WireError> {
    let name = r.str()?;
    DeviceId::by_name(&name).ok_or(WireError::BadDevice(name))
}

fn put_protocol(w: &mut W, p: DdProtocol) {
    match p {
        DdProtocol::Xy4 => w.u8(0),
        DdProtocol::IbmqDd => w.u8(1),
        DdProtocol::Cpmg => w.u8(2),
        DdProtocol::Xy8 => w.u8(3),
        DdProtocol::Udd { pulses } => {
            w.u8(4);
            w.u32(pulses);
        }
    }
}

fn get_protocol(r: &mut R) -> Result<DdProtocol, WireError> {
    Ok(match r.u8()? {
        0 => DdProtocol::Xy4,
        1 => DdProtocol::IbmqDd,
        2 => DdProtocol::Cpmg,
        3 => DdProtocol::Xy8,
        4 => DdProtocol::Udd { pulses: r.u32()? },
        tag => {
            return Err(WireError::UnknownTag {
                what: "DdProtocol",
                tag,
            })
        }
    })
}

/// Request-extension tag: tenancy (u32 tenant id + u8 priority class).
const EXT_TENANCY: u8 = 1;

/// The tenancy extension body (not the tag/length envelope).
fn put_tenancy_body(w: &mut W, t: Tenancy) {
    w.u32(t.tenant.0);
    w.u8(match t.class {
        PriorityClass::Interactive => 0,
        PriorityClass::Standard => 1,
        PriorityClass::Batch => 2,
    });
}

fn get_tenancy_body(r: &mut R) -> Result<Tenancy, WireError> {
    let tenant = TenantId(r.u32()?);
    let class = match r.u8()? {
        0 => PriorityClass::Interactive,
        1 => PriorityClass::Standard,
        2 => PriorityClass::Batch,
        tag => {
            return Err(WireError::UnknownTag {
                what: "PriorityClass",
                tag,
            })
        }
    };
    Ok(Tenancy { tenant, class })
}

fn put_decoy_kind(w: &mut W, d: DecoyKind) {
    match d {
        DecoyKind::Clifford => w.u8(0),
        DecoyKind::CnotOnly => w.u8(1),
        DecoyKind::Seeded { max_seed_qubits } => {
            w.u8(2);
            w.u64(max_seed_qubits as u64);
        }
    }
}

fn get_decoy_kind(r: &mut R) -> Result<DecoyKind, WireError> {
    Ok(match r.u8()? {
        0 => DecoyKind::Clifford,
        1 => DecoyKind::CnotOnly,
        2 => DecoyKind::Seeded {
            max_seed_qubits: r.u64()? as usize,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "DecoyKind",
                tag,
            })
        }
    })
}

fn put_tier(w: &mut W, t: TierPolicy) {
    w.u8(match t {
        TierPolicy::Auto => 0,
        TierPolicy::HeuristicOnly => 1,
        TierPolicy::SearchOnly => 2,
    });
}

fn get_tier(r: &mut R) -> Result<TierPolicy, WireError> {
    Ok(match r.u8()? {
        0 => TierPolicy::Auto,
        1 => TierPolicy::HeuristicOnly,
        2 => TierPolicy::SearchOnly,
        tag => {
            return Err(WireError::UnknownTag {
                what: "TierPolicy",
                tag,
            })
        }
    })
}

fn put_budget(w: &mut W, b: &SearchBudget) {
    w.u64(b.shots);
    w.u32(b.trajectories);
    w.u64(b.neighborhood as u64);
    put_tier(w, b.tier);
}

fn get_budget(r: &mut R) -> Result<SearchBudget, WireError> {
    Ok(SearchBudget {
        shots: r.u64()?,
        trajectories: r.u32()?,
        neighborhood: r.u64()? as usize,
        tier: get_tier(r)?,
    })
}

fn put_policy(w: &mut W, p: Policy) {
    w.u8(match p {
        Policy::NoDd => 0,
        Policy::AllDd => 1,
        Policy::Adapt => 2,
        Policy::RuntimeBest => 3,
    });
}

fn get_policy(r: &mut R) -> Result<Policy, WireError> {
    Ok(match r.u8()? {
        0 => Policy::NoDd,
        1 => Policy::AllDd,
        2 => Policy::Adapt,
        3 => Policy::RuntimeBest,
        tag => {
            return Err(WireError::UnknownTag {
                what: "Policy",
                tag,
            })
        }
    })
}

fn put_mask(w: &mut W, m: DdMask) {
    w.u64(m.bits());
    w.u64(m.num_qubits() as u64);
}

fn get_mask(r: &mut R) -> Result<DdMask, WireError> {
    let bits = r.u64()?;
    let n = r.u64()? as usize;
    Ok(DdMask::from_bits(bits, n))
}

fn put_provenance(w: &mut W, p: Provenance) {
    match p {
        Provenance::CacheHit => w.u8(0),
        Provenance::FreshSearch => w.u8(1),
        Provenance::DegradedAllDd => w.u8(2),
        Provenance::PartialSearch => w.u8(3),
        Provenance::BreakerFallback => w.u8(4),
        Provenance::Heuristic => w.u8(5),
        Provenance::StaleServed { age_epochs } => {
            w.u8(6);
            w.u64(age_epochs);
        }
    }
}

fn get_provenance(r: &mut R) -> Result<Provenance, WireError> {
    Ok(match r.u8()? {
        0 => Provenance::CacheHit,
        1 => Provenance::FreshSearch,
        2 => Provenance::DegradedAllDd,
        3 => Provenance::PartialSearch,
        4 => Provenance::BreakerFallback,
        5 => Provenance::Heuristic,
        6 => Provenance::StaleServed {
            age_epochs: r.u64()?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "Provenance",
                tag,
            })
        }
    })
}

fn put_timing(w: &mut W, t: Timing) {
    w.u64(t.queued_us);
    w.u64(t.service_us);
}

fn get_timing(r: &mut R) -> Result<Timing, WireError> {
    Ok(Timing {
        queued_us: r.u64()?,
        service_us: r.u64()?,
    })
}

fn put_mask_key(w: &mut W, k: &MaskKey) {
    put_device(w, k.device);
    w.u64(k.epoch);
    w.u64(k.circuit_hash);
    put_protocol(w, k.protocol);
    put_decoy_kind(w, k.decoy);
}

fn get_mask_key(r: &mut R) -> Result<MaskKey, WireError> {
    Ok(MaskKey {
        device: get_device(r)?,
        epoch: r.u64()?,
        circuit_hash: r.u64()?,
        protocol: get_protocol(r)?,
        decoy: get_decoy_kind(r)?,
    })
}

fn put_deadline(w: &mut W, d: WireDeadline) {
    w.buf.extend_from_slice(&d.encode());
}

fn get_deadline(r: &mut R) -> Result<WireDeadline, WireError> {
    let bytes = r.take(WIRE_DEADLINE_BYTES)?;
    WireDeadline::decode(bytes).ok_or(WireError::BadDeadline)
}

// --- error taxonomy ---------------------------------------------------------

fn put_gate(w: &mut W, g: Gate) {
    match g {
        Gate::I => w.u8(0),
        Gate::X => w.u8(1),
        Gate::Y => w.u8(2),
        Gate::Z => w.u8(3),
        Gate::H => w.u8(4),
        Gate::S => w.u8(5),
        Gate::Sdg => w.u8(6),
        Gate::T => w.u8(7),
        Gate::Tdg => w.u8(8),
        Gate::SX => w.u8(9),
        Gate::SXdg => w.u8(10),
        Gate::RX(a) => {
            w.u8(11);
            w.f64(a);
        }
        Gate::RY(a) => {
            w.u8(12);
            w.f64(a);
        }
        Gate::RZ(a) => {
            w.u8(13);
            w.f64(a);
        }
        Gate::P(a) => {
            w.u8(14);
            w.f64(a);
        }
        Gate::U(t, p, l) => {
            w.u8(15);
            w.f64(t);
            w.f64(p);
            w.f64(l);
        }
        Gate::CX => w.u8(16),
        Gate::CZ => w.u8(17),
        Gate::Swap => w.u8(18),
    }
}

fn get_gate(r: &mut R) -> Result<Gate, WireError> {
    Ok(match r.u8()? {
        0 => Gate::I,
        1 => Gate::X,
        2 => Gate::Y,
        3 => Gate::Z,
        4 => Gate::H,
        5 => Gate::S,
        6 => Gate::Sdg,
        7 => Gate::T,
        8 => Gate::Tdg,
        9 => Gate::SX,
        10 => Gate::SXdg,
        11 => Gate::RX(r.f64()?),
        12 => Gate::RY(r.f64()?),
        13 => Gate::RZ(r.f64()?),
        14 => Gate::P(r.f64()?),
        15 => Gate::U(r.f64()?, r.f64()?, r.f64()?),
        16 => Gate::CX,
        17 => Gate::CZ,
        18 => Gate::Swap,
        tag => return Err(WireError::UnknownTag { what: "Gate", tag }),
    })
}

/// `SimError` tags. Tag 2 is reserved: it named a variant that no longer
/// exists, so it decodes as [`WireError::UnknownTag`].
fn put_sim_error(w: &mut W, e: &SimError) {
    match e {
        SimError::TooManyQubits { requested, limit } => {
            w.u8(0);
            w.u64(*requested as u64);
            w.u64(*limit as u64);
        }
        SimError::QubitOutOfRange { qubit, num_qubits } => {
            w.u8(1);
            w.u64(*qubit as u64);
            w.u64(*num_qubits as u64);
        }
        SimError::DuplicateOperand { qubit } => {
            w.u8(3);
            w.u64(*qubit as u64);
        }
    }
}

fn get_sim_error(r: &mut R) -> Result<SimError, WireError> {
    Ok(match r.u8()? {
        0 => SimError::TooManyQubits {
            requested: r.u64()? as usize,
            limit: r.u64()? as usize,
        },
        1 => SimError::QubitOutOfRange {
            qubit: r.u64()? as usize,
            num_qubits: r.u64()? as usize,
        },
        3 => SimError::DuplicateOperand {
            qubit: r.u64()? as usize,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "SimError",
                tag,
            })
        }
    })
}

fn put_schedule_error(w: &mut W, e: &ScheduleError) {
    match e {
        ScheduleError::NonFiniteTime {
            event,
            start_ns,
            end_ns,
        } => {
            w.u8(0);
            w.u64(*event as u64);
            w.f64(*start_ns);
            w.f64(*end_ns);
        }
        ScheduleError::NegativeDuration {
            event,
            start_ns,
            end_ns,
        } => {
            w.u8(1);
            w.u64(*event as u64);
            w.f64(*start_ns);
            w.f64(*end_ns);
        }
    }
}

fn get_schedule_error(r: &mut R) -> Result<ScheduleError, WireError> {
    Ok(match r.u8()? {
        0 => ScheduleError::NonFiniteTime {
            event: r.u64()? as usize,
            start_ns: r.f64()?,
            end_ns: r.f64()?,
        },
        1 => ScheduleError::NegativeDuration {
            event: r.u64()? as usize,
            start_ns: r.f64()?,
            end_ns: r.f64()?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "ScheduleError",
                tag,
            })
        }
    })
}

fn put_exec_error(w: &mut W, e: &ExecError) {
    match e {
        ExecError::TooManyActiveQubits { active, limit } => {
            w.u8(0);
            w.u64(*active as u64);
            w.u64(*limit as u64);
        }
        ExecError::Sim(s) => {
            w.u8(1);
            put_sim_error(w, s);
        }
        ExecError::Schedule(s) => {
            w.u8(2);
            put_schedule_error(w, s);
        }
        ExecError::JobFailed { job, reason } => {
            w.u8(3);
            w.u64(*job);
            w.str(reason);
        }
        ExecError::Timeout { job, budget_ms } => {
            w.u8(4);
            w.u64(*job);
            w.u64(*budget_ms);
        }
        ExecError::RetriesExhausted { attempts, last } => {
            w.u8(5);
            w.u32(*attempts);
            put_exec_error(w, last);
        }
        ExecError::DeadlineExceeded {
            elapsed_ms,
            budget_ms,
        } => {
            w.u8(6);
            w.u64(*elapsed_ms);
            w.u64(*budget_ms);
        }
        ExecError::Cancelled => w.u8(7),
    }
}

fn get_exec_error(r: &mut R) -> Result<ExecError, WireError> {
    Ok(match r.u8()? {
        0 => ExecError::TooManyActiveQubits {
            active: r.u64()? as usize,
            limit: r.u64()? as usize,
        },
        1 => ExecError::Sim(get_sim_error(r)?),
        2 => ExecError::Schedule(get_schedule_error(r)?),
        3 => ExecError::JobFailed {
            job: r.u64()?,
            reason: r.str()?,
        },
        4 => ExecError::Timeout {
            job: r.u64()?,
            budget_ms: r.u64()?,
        },
        5 => ExecError::RetriesExhausted {
            attempts: r.u32()?,
            last: Box::new(get_exec_error(r)?),
        },
        6 => ExecError::DeadlineExceeded {
            elapsed_ms: r.u64()?,
            budget_ms: r.u64()?,
        },
        7 => ExecError::Cancelled,
        tag => {
            return Err(WireError::UnknownTag {
                what: "ExecError",
                tag,
            })
        }
    })
}

fn put_decoy_error(w: &mut W, e: &DecoyError) {
    match e {
        DecoyError::UnsupportedGate(g) => {
            w.u8(0);
            put_gate(w, *g);
        }
        DecoyError::Sim(s) => {
            w.u8(1);
            put_sim_error(w, s);
        }
    }
}

fn get_decoy_error(r: &mut R) -> Result<DecoyError, WireError> {
    Ok(match r.u8()? {
        0 => DecoyError::UnsupportedGate(get_gate(r)?),
        1 => DecoyError::Sim(get_sim_error(r)?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "DecoyError",
                tag,
            })
        }
    })
}

fn put_search_error(w: &mut W, e: &SearchError) {
    match e {
        SearchError::TooLarge { qubits, limit } => {
            w.u8(0);
            w.u64(*qubits as u64);
            w.u64(*limit as u64);
        }
        SearchError::Exec(x) => {
            w.u8(1);
            put_exec_error(w, x);
        }
    }
}

fn get_search_error(r: &mut R) -> Result<SearchError, WireError> {
    Ok(match r.u8()? {
        0 => SearchError::TooLarge {
            qubits: r.u64()? as usize,
            limit: r.u64()? as usize,
        },
        1 => SearchError::Exec(get_exec_error(r)?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "SearchError",
                tag,
            })
        }
    })
}

fn put_adapt_error(w: &mut W, e: &AdaptError) {
    match e {
        AdaptError::Exec(x) => {
            w.u8(0);
            put_exec_error(w, x);
        }
        AdaptError::Decoy(d) => {
            w.u8(1);
            put_decoy_error(w, d);
        }
        AdaptError::Sim(s) => {
            w.u8(2);
            put_sim_error(w, s);
        }
        AdaptError::Search(s) => {
            w.u8(3);
            put_search_error(w, s);
        }
    }
}

fn get_adapt_error(r: &mut R) -> Result<AdaptError, WireError> {
    Ok(match r.u8()? {
        0 => AdaptError::Exec(get_exec_error(r)?),
        1 => AdaptError::Decoy(get_decoy_error(r)?),
        2 => AdaptError::Sim(get_sim_error(r)?),
        3 => AdaptError::Search(get_search_error(r)?),
        tag => {
            return Err(WireError::UnknownTag {
                what: "AdaptError",
                tag,
            })
        }
    })
}

fn put_service_error(w: &mut W, e: &ServiceError) {
    match e {
        ServiceError::Rejected {
            queue_depth,
            retry_after_ms,
        } => {
            w.u8(0);
            w.u64(*queue_depth as u64);
            w.u64(*retry_after_ms);
        }
        ServiceError::DeviceNotServed(d) => {
            w.u8(1);
            put_device(w, *d);
        }
        ServiceError::DeadlineExceeded {
            elapsed_ms,
            budget_ms,
        } => {
            w.u8(2);
            w.u64(*elapsed_ms);
            w.u64(*budget_ms);
        }
        ServiceError::DeviceUnhealthy {
            device,
            retry_after_ms,
        } => {
            w.u8(3);
            put_device(w, *device);
            w.u64(*retry_after_ms);
        }
        ServiceError::InvalidConfig { reason } => {
            w.u8(4);
            w.str(reason);
        }
        ServiceError::Failed(e) => {
            w.u8(5);
            put_adapt_error(w, e);
        }
        ServiceError::ShuttingDown => w.u8(6),
        ServiceError::Internal { reason } => {
            w.u8(7);
            w.str(reason);
        }
        ServiceError::Lost => w.u8(8),
        ServiceError::QuotaExhausted {
            tenant,
            retry_after_ms,
        } => {
            w.u8(9);
            w.u32(tenant.0);
            w.u64(*retry_after_ms);
        }
    }
}

fn get_service_error(r: &mut R) -> Result<ServiceError, WireError> {
    Ok(match r.u8()? {
        0 => ServiceError::Rejected {
            queue_depth: r.u64()? as usize,
            retry_after_ms: r.u64()?,
        },
        1 => ServiceError::DeviceNotServed(get_device(r)?),
        2 => ServiceError::DeadlineExceeded {
            elapsed_ms: r.u64()?,
            budget_ms: r.u64()?,
        },
        3 => ServiceError::DeviceUnhealthy {
            device: get_device(r)?,
            retry_after_ms: r.u64()?,
        },
        4 => ServiceError::InvalidConfig { reason: r.str()? },
        5 => ServiceError::Failed(get_adapt_error(r)?),
        6 => ServiceError::ShuttingDown,
        7 => ServiceError::Internal { reason: r.str()? },
        8 => ServiceError::Lost,
        9 => ServiceError::QuotaExhausted {
            tenant: TenantId(r.u32()?),
            retry_after_ms: r.u64()?,
        },
        tag => {
            return Err(WireError::UnknownTag {
                what: "ServiceError",
                tag,
            })
        }
    })
}

// ---------------------------------------------------------------------------
// Top-level payload codecs
// ---------------------------------------------------------------------------

/// Encode a request payload: the request body plus the in-band deadline.
///
/// The `deadline_ms` field *inside* the [`Request`] is not sent — the
/// [`WireDeadline`] is authoritative on the wire (it carries upstream
/// spend, which a bare `deadline_ms` cannot).
pub fn encode_request(req: &Request, deadline: WireDeadline) -> Vec<u8> {
    let mut w = W::default();
    put_deadline(&mut w, deadline);
    match req {
        Request::RecommendMask {
            circuit,
            device,
            protocol,
            budget,
            ..
        } => {
            w.u8(0);
            put_device(&mut w, *device);
            put_protocol(&mut w, *protocol);
            put_budget(&mut w, budget);
            w.str(&qcirc::qasm::to_qasm(circuit));
        }
        Request::Execute {
            circuit,
            device,
            policy,
            ..
        } => {
            w.u8(1);
            put_device(&mut w, *device);
            put_policy(&mut w, *policy);
            w.str(&qcirc::qasm::to_qasm(circuit));
        }
    }
    // Version-2 extension block (see module docs): count, then
    // tag/length-prefixed bodies. Tenancy is the only extension today.
    w.u8(1);
    w.u8(EXT_TENANCY);
    let mut body = W::default();
    put_tenancy_body(&mut body, req.tenancy());
    w.u32(body.buf.len() as u32);
    w.buf.extend_from_slice(&body.buf);
    w.buf
}

/// Decode a request payload into a service [`Request`] plus the in-band
/// deadline. The returned request's `deadline_ms` is already set to the
/// *remaining* budget (`budget − upstream elapsed`), so handing it
/// straight to [`adapt_service::MaskService::submit`] continues the
/// upstream clock; a born-expired deadline arrives as `Some(0)` and is
/// rejected by the service's admission check, not silently un-bounded.
///
/// # Errors
///
/// Any [`WireError`] the payload triggers, including trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<(Request, WireDeadline), WireError> {
    let mut r = R::new(payload);
    let deadline = get_deadline(&mut r)?;
    let remaining = deadline.remaining_ms();
    let tag = r.u8()?;
    let mut body = match tag {
        0 => {
            let device = get_device(&mut r)?;
            let protocol = get_protocol(&mut r)?;
            let budget = get_budget(&mut r)?;
            let qasm = r.str()?;
            let circuit =
                qcirc::qasm::from_qasm(&qasm).map_err(|e| WireError::BadCircuit(e.to_string()))?;
            Request::RecommendMask {
                circuit,
                device,
                protocol,
                budget,
                deadline_ms: remaining,
                tenancy: Tenancy::default(),
            }
        }
        1 => {
            let device = get_device(&mut r)?;
            let policy = get_policy(&mut r)?;
            let qasm = r.str()?;
            let circuit =
                qcirc::qasm::from_qasm(&qasm).map_err(|e| WireError::BadCircuit(e.to_string()))?;
            Request::Execute {
                circuit,
                device,
                policy,
                deadline_ms: remaining,
                tenancy: Tenancy::default(),
            }
        }
        tag => {
            return Err(WireError::UnknownTag {
                what: "Request",
                tag,
            })
        }
    };
    // Optional extension block: absent on a v1 payload (defaults
    // already in place), present on v2. Unknown extension tags are
    // skipped by their declared length; a known extension with a bad
    // body is still a typed error.
    if r.has_remaining() {
        let count = r.u8()?;
        for _ in 0..count {
            let ext = r.u8()?;
            let len = r.u32()? as usize;
            match ext {
                EXT_TENANCY => {
                    let bytes = r.take(len)?;
                    let mut er = R::new(bytes);
                    let tenancy = get_tenancy_body(&mut er)?;
                    er.finish()?;
                    match &mut body {
                        Request::RecommendMask { tenancy: t, .. }
                        | Request::Execute { tenancy: t, .. } => *t = tenancy,
                    }
                }
                _ => r.skip(len)?,
            }
        }
    }
    r.finish()?;
    Ok((body, deadline))
}

/// Encode a successful response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = W::default();
    match resp {
        Response::Mask(rec) => {
            w.u8(0);
            put_mask_key(&mut w, &rec.key);
            put_mask(&mut w, rec.mask);
            w.f64(rec.decoy_fidelity);
            w.u64(rec.decoy_runs as u64);
            put_provenance(&mut w, rec.provenance);
            w.boolean(rec.degraded);
            put_timing(&mut w, rec.timing);
        }
        Response::Execution(exec) => {
            w.u8(1);
            put_device(&mut w, exec.device);
            w.u64(exec.epoch);
            put_policy(&mut w, exec.policy);
            put_mask(&mut w, exec.mask);
            w.f64(exec.fidelity);
            w.u64(exec.pulse_count as u64);
            match exec.provenance {
                None => w.boolean(false),
                Some(p) => {
                    w.boolean(true);
                    put_provenance(&mut w, p);
                }
            }
            put_timing(&mut w, exec.timing);
        }
    }
    w.buf
}

/// Decode a response payload.
///
/// # Errors
///
/// Any [`WireError`] the payload triggers, including trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = R::new(payload);
    let resp = match r.u8()? {
        0 => Response::Mask(Recommendation {
            key: get_mask_key(&mut r)?,
            mask: get_mask(&mut r)?,
            decoy_fidelity: r.f64()?,
            decoy_runs: r.u64()? as usize,
            provenance: get_provenance(&mut r)?,
            degraded: r.boolean()?,
            timing: get_timing(&mut r)?,
        }),
        1 => Response::Execution(Execution {
            device: get_device(&mut r)?,
            epoch: r.u64()?,
            policy: get_policy(&mut r)?,
            mask: get_mask(&mut r)?,
            fidelity: r.f64()?,
            pulse_count: r.u64()? as usize,
            provenance: if r.boolean()? {
                Some(get_provenance(&mut r)?)
            } else {
                None
            },
            timing: get_timing(&mut r)?,
        }),
        tag => {
            return Err(WireError::UnknownTag {
                what: "Response",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(resp)
}

/// Encode a typed service error payload.
pub fn encode_error(err: &ServiceError) -> Vec<u8> {
    let mut w = W::default();
    put_service_error(&mut w, err);
    w.buf
}

/// Decode a typed service error payload.
///
/// # Errors
///
/// Any [`WireError`] the payload triggers, including trailing bytes.
pub fn decode_error(payload: &[u8]) -> Result<ServiceError, WireError> {
    let mut r = R::new(payload);
    let e = get_service_error(&mut r)?;
    r.finish()?;
    Ok(e)
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Transport-or-codec failure while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The bytes arrived but were not a valid frame.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::Wire(e) => write!(f, "bad frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Write one frame (header + payload) to `stream`. With
/// [`FLAG_CHECKSUM`] in `flags`, a CRC32 trailer is appended (and
/// counted in the declared length) so the receiver can detect in-flight
/// corruption.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn write_frame(
    stream: &mut impl Write,
    kind: FrameKind,
    flags: u8,
    payload: &[u8],
) -> std::io::Result<()> {
    let checksummed = flags & FLAG_CHECKSUM != 0;
    let len = payload.len() as u32 + if checksummed { 4 } else { 0 };
    let mut head = [0u8; HEADER_BYTES];
    head[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    head[4] = VERSION;
    head[5] = kind as u8;
    head[6] = flags;
    head[7] = 0;
    head[8..12].copy_from_slice(&len.to_le_bytes());
    stream.write_all(&head)?;
    stream.write_all(payload)?;
    if checksummed {
        stream.write_all(&adapt_service::persist::crc32(payload).to_le_bytes())?;
    }
    stream.flush()
}

/// Read one frame from `stream`, rejecting bad magic/version and
/// payloads over `max_payload` before allocating them.
///
/// # Errors
///
/// [`FrameError::Io`] on stream failures (including clean EOF),
/// [`FrameError::Wire`] on framing violations.
pub fn read_frame(
    stream: &mut impl Read,
    max_payload: u32,
) -> Result<(FrameHeader, Vec<u8>), FrameError> {
    let mut head = [0u8; HEADER_BYTES];
    stream.read_exact(&mut head)?;
    let magic = u32::from_le_bytes(head[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic).into());
    }
    if !(MIN_VERSION..=VERSION).contains(&head[4]) {
        return Err(WireError::BadVersion(head[4]).into());
    }
    let kind = FrameKind::from_u8(head[5])?;
    let flags = head[6];
    let len = u32::from_le_bytes(head[8..12].try_into().unwrap());
    if len > max_payload {
        return Err(WireError::Oversize {
            len,
            max: max_payload,
        }
        .into());
    }
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload)?;
    if flags & FLAG_CHECKSUM != 0 {
        if payload.len() < 4 {
            return Err(WireError::UnexpectedEof {
                needed: 4,
                have: payload.len(),
            }
            .into());
        }
        let trailer = payload.split_off(payload.len() - 4);
        let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let got = adapt_service::persist::crc32(&payload);
        if got != expected {
            return Err(WireError::ChecksumMismatch { expected, got }.into());
        }
    }
    // `len` reports the payload as returned (trailer verified + stripped).
    let len = payload.len() as u32;
    Ok((FrameHeader { kind, flags, len }, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_header_round_trips_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, FLAG_FORWARDED, b"abc").unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + 3);
        let (head, payload) = read_frame(&mut buf.as_slice(), 1024).unwrap();
        assert_eq!(head.kind, FrameKind::Request);
        assert_eq!(head.flags, FLAG_FORWARDED);
        assert_eq!(payload, b"abc");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Response, 0, b"").unwrap();
        let mut wrong_magic = buf.clone();
        wrong_magic[0] ^= 0xff;
        assert!(matches!(
            read_frame(&mut wrong_magic.as_slice(), 1024),
            Err(FrameError::Wire(WireError::BadMagic(_)))
        ));
        let mut wrong_version = buf.clone();
        wrong_version[4] = 99;
        assert!(matches!(
            read_frame(&mut wrong_version.as_slice(), 1024),
            Err(FrameError::Wire(WireError::BadVersion(99)))
        ));
    }

    #[test]
    fn oversize_payload_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 0, &[0u8; 64]).unwrap();
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 16),
            Err(FrameError::Wire(WireError::Oversize { len: 64, max: 16 }))
        ));
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let mut payload = encode_error(&ServiceError::Lost);
        payload.push(0);
        assert_eq!(
            decode_error(&payload),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn unknown_tags_are_typed_not_guessed() {
        assert_eq!(
            decode_error(&[250]),
            Err(WireError::UnknownTag {
                what: "ServiceError",
                tag: 250
            })
        );
    }

    #[test]
    fn request_deadline_is_remaining_budget_on_arrival() {
        let circuit = {
            let mut c = qcirc::Circuit::new(2);
            c.h(0).cx(0, 1);
            c
        };
        let req = Request::RecommendMask {
            circuit,
            device: DeviceId::Guadalupe,
            protocol: DdProtocol::Xy4,
            budget: SearchBudget::default(),
            deadline_ms: None,
            tenancy: Default::default(),
        };
        let wire = WireDeadline {
            budget_ms: Some(200),
            elapsed_ms: 60,
        };
        let payload = encode_request(&req, wire);
        let (decoded, deadline) = decode_request(&payload).unwrap();
        assert_eq!(deadline, wire);
        assert_eq!(decoded.deadline_ms(), Some(140));
    }

    fn tenancy_request(tenancy: Tenancy) -> Request {
        let mut c = qcirc::Circuit::new(2);
        c.h(0).cx(0, 1);
        Request::RecommendMask {
            circuit: c,
            device: DeviceId::Rome,
            protocol: DdProtocol::Xy4,
            budget: SearchBudget::default(),
            deadline_ms: None,
            tenancy,
        }
    }

    #[test]
    fn tenancy_rides_the_extension_block() {
        for tenancy in [
            Tenancy::default(),
            Tenancy::with_class(7, PriorityClass::Interactive),
            Tenancy::with_class(u32::MAX, PriorityClass::Batch),
        ] {
            let payload = encode_request(&tenancy_request(tenancy), WireDeadline::unbounded());
            let (decoded, _) = decode_request(&payload).unwrap();
            assert_eq!(decoded.tenancy(), tenancy);
        }
    }

    #[test]
    fn v1_payload_without_extensions_decodes_with_default_tenancy() {
        // A v1 sender's payload ends right after the qasm string. Build
        // one by truncating a v2 payload at its extension block: the
        // block is the last 1 + 1 + 4 + 5 bytes (count, tag, len, body).
        let tenancy = Tenancy::with_class(3, PriorityClass::Interactive);
        let payload = encode_request(&tenancy_request(tenancy), WireDeadline::unbounded());
        let v1 = &payload[..payload.len() - 11];
        let (decoded, _) = decode_request(v1).unwrap();
        assert_eq!(decoded.tenancy(), Tenancy::default());
    }

    #[test]
    fn unknown_extension_tags_are_skipped_not_fatal() {
        let tenancy = Tenancy::with_class(5, PriorityClass::Batch);
        let mut payload = encode_request(&tenancy_request(tenancy), WireDeadline::unbounded());
        // Rewrite the count to 2 and append an unknown extension
        // (tag 200, 3 opaque bytes) a future version might send.
        let count_at = payload.len() - 11;
        payload[count_at] = 2;
        payload.push(200);
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(&[0xde, 0xad, 0xbe]);
        let (decoded, _) = decode_request(&payload).unwrap();
        assert_eq!(decoded.tenancy(), tenancy, "known ext still decoded");
    }

    #[test]
    fn retired_sim_error_tag_is_unknown() {
        assert_eq!(
            get_sim_error(&mut R::new(&[2])),
            Err(WireError::UnknownTag {
                what: "SimError",
                tag: 2
            })
        );
    }

    #[test]
    fn quota_exhausted_round_trips() {
        let e = ServiceError::QuotaExhausted {
            tenant: TenantId(42),
            retry_after_ms: 250,
        };
        let payload = encode_error(&e);
        assert_eq!(decode_error(&payload).unwrap(), e);
    }

    #[test]
    fn v1_frames_are_still_accepted() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 0, b"abc").unwrap();
        buf[4] = 1; // a v1 peer's header
        let (head, payload) = read_frame(&mut buf.as_slice(), 1024).unwrap();
        assert_eq!(head.kind, FrameKind::Request);
        assert_eq!(payload, b"abc");
        buf[4] = 0; // below MIN_VERSION: rejected
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 1024),
            Err(FrameError::Wire(WireError::BadVersion(0)))
        ));
    }
}
