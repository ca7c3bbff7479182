//! The fleet wire protocol: a small, versioned, length-prefixed binary
//! framing over TCP.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//! 0       4     magic       0x4144464C ("ADFL"), little-endian u32
//! 4       1     version     protocol version (3; MIN_VERSION..=VERSION accepted)
//! 5       1     kind        frame type (FrameKind)
//! 6       1     flags       bit 0: FORWARDED; bit 1: CHECKSUM (always set)
//! 7       1     reserved    must be 0
//! 8       4     length      payload length in bytes, little-endian
//! 12      len   payload     kind-specific body
//! ```
//!
//! Every frame carries a 4-byte CRC32 trailer
//! ([`adapt_service::codec::crc32`], the CRC the durability store's
//! records carry too), marks it with [`FLAG_CHECKSUM`], and counts it in
//! the declared length. [`read_frame`] verifies and strips the trailer,
//! turning in-flight corruption into a typed
//! [`WireError::ChecksumMismatch`] instead of a garbled payload, and
//! refuses a frame without the flag as [`WireError::MissingChecksum`].
//! [`write_frame`] hands the header, payload and trailer to the stream
//! in one write.
//!
//! # Versioning and extensions
//!
//! Every request payload ends in an *extension block* after the fixed
//! fields: a `u8` extension count, then per extension a `u8` tag, a
//! `u32` byte length, and that many bytes. Decoders skip extensions with
//! unknown tags by their length, so new in-band fields (tenancy today)
//! ride through peers that predate them untouched. This is the one place
//! the protocol is deliberately tolerant; a payload that ends before the
//! block is truncated, and unknown *enum tags* inside known fields are
//! still typed errors (below).
//!
//! Every field goes through [`adapt_service::codec`], the byte codec
//! the durability store shares: little-endian integers, `f64` as its
//! exact IEEE-754 bit pattern (loss-free, including NaN and infinities
//! inside error payloads), length-prefixed UTF-8 strings, and one
//! encoding each for devices, protocols, decoy kinds, masks and cache
//! keys.
//!
//! # Circuit body
//!
//! Version 3 carries a request's circuit as a binary body (request tags
//! 0 and 1):
//!
//! ```text
//! u32 qubits, u32 clbits, u32 op count, then per op:
//!   u8 kind   0 gate (a gate tag, then each angle as f64 bits)
//!             1 measure (u32 clbit)   2 reset   3 delay (f64 ns)   4 barrier
//!   u32 operand count, then one u32 qubit index per operand
//! ```
//!
//! Every op, delays and the exact bits of every angle included, arrives
//! as it was sent. The decoder only decodes: it keeps `qcirc`'s register
//! width caps ([`qcirc::MAX_QUBITS`], [`qcirc::MAX_CLBITS`]), checks each
//! count against the bytes that remain before allocating for it, and
//! appends every op through [`Circuit::try_push`], so an out-of-range,
//! repeated or miscounted operand is a typed [`WireError::BadCircuit`]. Whether the circuit and
//! budget are servable (delays and angles included) is the service's
//! admission rule, [`adapt_service::check_circuit`], which every request
//! meets at [`adapt_service::MaskService::submit`].
//!
//! Versions 1 and 2 sent the circuit as OpenQASM text, which dropped
//! delays. Their frames are rejected as [`WireError::BadVersion`]: this
//! build replies only in version 3, which those peers reject in turn,
//! so no exchange with them could complete.
//!
//! Enums are encoded as a `u8` tag plus variant payload. Decoders
//! reject unknown tags with a typed [`CodecError::UnknownTag`] rather
//! than guessing — a version bump is the upgrade path, silent
//! misdecodes are not. The exhaustive-match tests in
//! `tests/wire_roundtrip.rs` pin that every [`ServiceError`] variant
//! (and every error nested inside [`ServiceError::Failed`]) survives
//! encode → decode loss-free; golden digests there pin every encoder's
//! bytes, and proptest properties feed every decoder arbitrary and
//! mutated bytes.
//!
//! The request deadline crosses the wire in-band as a
//! [`machine::WireDeadline`]: two `u64` fields, the total budget
//! (`u64::MAX` = unbounded) and the time already counted upstream. A
//! hop never resets the clock: the receiving shard serves within
//! `budget − upstream_elapsed`.

use adapt::decoy::DecoyError;
use adapt::{AdaptError, Policy, SearchError};
use adapt_service::codec::{
    crc32, get_device, get_mask, get_mask_key, get_protocol, put_device, put_mask, put_mask_key,
    put_protocol, unknown_tag, CodecError, Reader, Writer,
};
use adapt_service::{
    Execution, PriorityClass, Provenance, Recommendation, Request, Response, SearchBudget,
    ServiceError, Tenancy, TenantId, TierPolicy, Timing,
};
use machine::{ExecError, WireDeadline};
use qcirc::{Circuit, Clbit, Gate, Instruction, OpKind, Qubit};
use qcirc::{MAX_CLBITS, MAX_QUBITS};
use statevec::SimError;
use std::io::{Read, Write};
use transpiler::ScheduleError;

/// Frame magic: "ADFL" as a little-endian u32.
pub const MAGIC: u32 = 0x4144_464c;
/// Current protocol version. Version 2 added the request extension
/// block (tenancy in-band); version 3 sends request circuits as the
/// binary body (module docs).
pub const VERSION: u8 = 3;
/// Oldest protocol version this build still accepts.
pub const MIN_VERSION: u8 = 3;
/// Fixed frame-header size in bytes.
pub const HEADER_BYTES: usize = 12;
/// Default cap on payload size; larger frames are rejected before
/// allocation.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 8 << 20;
/// Flag bit: this request was forwarded by a non-owning shard and must
/// be served locally (never re-forwarded), breaking forwarding cycles.
pub const FLAG_FORWARDED: u8 = 0x01;
/// Flag bit: the payload carries a 4-byte CRC32 trailer (included in
/// the declared length). [`write_frame`] sets it on every frame, and
/// [`read_frame`] refuses a frame without it.
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
    /// A payload field failed to decode (short buffer, unknown tag,
    /// unknown device, bad UTF-8, too-wide mask, trailing bytes).
    Codec(CodecError),
    /// The frame did not start with [`MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    UnknownFrame(u8),
    /// The circuit body is not a valid circuit: a register wider than
    /// the import caps, or an op [`Circuit::try_push`] rejects.
    BadCircuit(String),
    /// The payload length exceeds the configured frame cap.
    Oversize {
        /// Declared payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The frame lacks [`FLAG_CHECKSUM`]: every version-3 frame carries
    /// the trailer.
    MissingChecksum,
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
            WireError::Codec(e) => write!(f, "{e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownFrame(k) => write!(f, "unknown frame type {k:#04x}"),
            WireError::BadCircuit(e) => write!(f, "circuit payload rejected: {e}"),
            WireError::Oversize { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::MissingChecksum => write!(f, "frame carries no checksum trailer"),
            WireError::ChecksumMismatch { expected, got } => write!(
                f,
                "payload checksum mismatch: sender {expected:#010x}, received {got:#010x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

// ---------------------------------------------------------------------------
// Domain codecs
// ---------------------------------------------------------------------------

/// Request-extension tag: tenancy (u32 tenant id + u8 priority class).
const EXT_TENANCY: u8 = 1;

/// The tenancy extension body (not the tag/length envelope).
fn put_tenancy_body(w: &mut Writer, t: Tenancy) {
    w.u32(t.tenant.0);
    w.u8(match t.class {
        PriorityClass::Interactive => 0,
        PriorityClass::Standard => 1,
        PriorityClass::Batch => 2,
    });
}

fn get_tenancy_body(r: &mut Reader<'_>) -> Result<Tenancy, CodecError> {
    let tenant = TenantId(r.u32()?);
    let class = match r.u8()? {
        0 => PriorityClass::Interactive,
        1 => PriorityClass::Standard,
        2 => PriorityClass::Batch,
        tag => unknown_tag("PriorityClass", tag)?,
    };
    Ok(Tenancy { tenant, class })
}

fn put_tier(w: &mut Writer, t: TierPolicy) {
    w.u8(match t {
        TierPolicy::Auto => 0,
        TierPolicy::HeuristicOnly => 1,
        TierPolicy::SearchOnly => 2,
    });
}

fn get_tier(r: &mut Reader<'_>) -> Result<TierPolicy, CodecError> {
    Ok(match r.u8()? {
        0 => TierPolicy::Auto,
        1 => TierPolicy::HeuristicOnly,
        2 => TierPolicy::SearchOnly,
        tag => unknown_tag("TierPolicy", tag)?,
    })
}

fn put_budget(w: &mut Writer, b: &SearchBudget) {
    w.u64(b.shots);
    w.u32(b.trajectories);
    w.u64(b.neighborhood as u64);
    put_tier(w, b.tier);
}

fn get_budget(r: &mut Reader<'_>) -> Result<SearchBudget, CodecError> {
    Ok(SearchBudget {
        shots: r.u64()?,
        trajectories: r.u32()?,
        neighborhood: r.u64()? as usize,
        tier: get_tier(r)?,
    })
}

fn put_policy(w: &mut Writer, p: Policy) {
    w.u8(match p {
        Policy::NoDd => 0,
        Policy::AllDd => 1,
        Policy::Adapt => 2,
        Policy::RuntimeBest => 3,
    });
}

fn get_policy(r: &mut Reader<'_>) -> Result<Policy, CodecError> {
    Ok(match r.u8()? {
        0 => Policy::NoDd,
        1 => Policy::AllDd,
        2 => Policy::Adapt,
        3 => Policy::RuntimeBest,
        tag => unknown_tag("Policy", tag)?,
    })
}

fn put_provenance(w: &mut Writer, p: Provenance) {
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

fn get_provenance(r: &mut Reader<'_>) -> Result<Provenance, CodecError> {
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
        tag => unknown_tag("Provenance", tag)?,
    })
}

fn put_timing(w: &mut Writer, t: Timing) {
    w.u64(t.queued_us);
    w.u64(t.service_us);
}

fn get_timing(r: &mut Reader<'_>) -> Result<Timing, CodecError> {
    Ok(Timing {
        queued_us: r.u64()?,
        service_us: r.u64()?,
    })
}

/// Sentinel budget for an unbounded deadline.
const UNBOUNDED_MS: u64 = u64::MAX;

fn put_deadline(w: &mut Writer, d: WireDeadline) {
    w.u64(d.budget_ms.unwrap_or(UNBOUNDED_MS));
    w.u64(d.elapsed_ms);
}

fn get_deadline(r: &mut Reader<'_>) -> Result<WireDeadline, CodecError> {
    let budget = r.u64()?;
    Ok(WireDeadline {
        budget_ms: (budget != UNBOUNDED_MS).then_some(budget),
        elapsed_ms: r.u64()?,
    })
}

// --- circuits ---------------------------------------------------------------

fn put_gate(w: &mut Writer, g: Gate) {
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

fn get_gate(r: &mut Reader<'_>) -> Result<Gate, CodecError> {
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
        tag => unknown_tag("Gate", tag)?,
    })
}

/// A length or count as its `u32` field, saturated: a count too large
/// for the field cannot be followed by that many items, so the decoder
/// fails on it instead of reading a truncated value.
fn put_count(w: &mut Writer, n: usize) {
    w.u32(u32::try_from(n).unwrap_or(u32::MAX));
}

/// Bytes of the smallest encoded op: its kind tag and operand count.
const MIN_OP_BYTES: usize = 1 + 4;
/// Bytes of one encoded qubit operand.
const OPERAND_BYTES: usize = 4;

/// Writes the binary circuit body (module docs).
fn put_circuit(w: &mut Writer, circuit: &Circuit) {
    put_count(w, circuit.num_qubits());
    put_count(w, circuit.num_clbits());
    put_count(w, circuit.len());
    for instr in circuit.iter() {
        match instr.kind {
            OpKind::Gate(g) => {
                w.u8(0);
                put_gate(w, g);
            }
            OpKind::Measure(c) => {
                w.u8(1);
                put_count(w, c.index());
            }
            OpKind::Reset => w.u8(2),
            OpKind::Delay(ns) => {
                w.u8(3);
                w.f64(ns);
            }
            OpKind::Barrier => w.u8(4),
        }
        put_count(w, instr.qubits.len());
        for q in &instr.qubits {
            put_count(w, q.index());
        }
    }
}

/// Reads a count of items that take at least `min_bytes` each, refusing
/// it before anything is allocated for it unless that many could fit in
/// the bytes that remain.
fn get_count(r: &mut Reader<'_>, min_bytes: usize) -> Result<usize, CodecError> {
    let count = r.u32()? as usize;
    let needed = count.saturating_mul(min_bytes);
    if needed > r.remaining() {
        return Err(CodecError::UnexpectedEof {
            needed,
            have: r.remaining(),
        });
    }
    Ok(count)
}

fn bad_circuit(e: impl std::fmt::Display) -> WireError {
    WireError::BadCircuit(e.to_string())
}

/// Reads the binary circuit body (module docs).
fn get_circuit(r: &mut Reader<'_>) -> Result<Circuit, WireError> {
    let num_qubits = r.u32()? as usize;
    let num_clbits = r.u32()? as usize;
    if num_qubits > MAX_QUBITS {
        return Err(bad_circuit(format_args!(
            "qreg of {num_qubits} qubits exceeds {MAX_QUBITS}"
        )));
    }
    if num_clbits > MAX_CLBITS {
        return Err(bad_circuit(format_args!(
            "creg of {num_clbits} bits exceeds {MAX_CLBITS}"
        )));
    }
    let ops = get_count(r, MIN_OP_BYTES)?;
    let mut circuit = Circuit::with_clbits(num_qubits, num_clbits);
    for _ in 0..ops {
        let kind = match r.u8()? {
            0 => OpKind::Gate(get_gate(r)?),
            1 => OpKind::Measure(Clbit::new(r.u32()?)),
            2 => OpKind::Reset,
            3 => OpKind::Delay(r.f64()?),
            4 => OpKind::Barrier,
            tag => unknown_tag("OpKind", tag)?,
        };
        let operands = get_count(r, OPERAND_BYTES)?;
        let mut qubits = Vec::with_capacity(operands);
        for _ in 0..operands {
            qubits.push(Qubit::new(r.u32()?));
        }
        circuit
            .try_push(Instruction { kind, qubits })
            .map_err(bad_circuit)?;
    }
    Ok(circuit)
}

// --- error taxonomy ---------------------------------------------------------

/// `SimError` tags. Tag 2 is reserved: it named a variant that no longer
/// exists, so it decodes as [`CodecError::UnknownTag`].
fn put_sim_error(w: &mut Writer, e: &SimError) {
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

fn get_sim_error(r: &mut Reader<'_>) -> Result<SimError, CodecError> {
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
        tag => unknown_tag("SimError", tag)?,
    })
}

fn put_schedule_error(w: &mut Writer, e: &ScheduleError) {
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

fn get_schedule_error(r: &mut Reader<'_>) -> Result<ScheduleError, CodecError> {
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
        tag => unknown_tag("ScheduleError", tag)?,
    })
}

fn put_exec_error(w: &mut Writer, e: &ExecError) {
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

/// Longest `RetriesExhausted` chain a decoder follows. The decode
/// recurses per link, so without a bound a frame repeating the 5-byte
/// link would overflow the stack; real retry chains nest a few deep.
const MAX_RETRY_NESTING: u32 = 32;

fn get_exec_error(r: &mut Reader<'_>, depth: u32) -> Result<ExecError, CodecError> {
    Ok(match r.u8()? {
        0 => ExecError::TooManyActiveQubits {
            active: r.u64()? as usize,
            limit: r.u64()? as usize,
        },
        1 => ExecError::Sim(get_sim_error(r)?),
        2 => ExecError::Schedule(get_schedule_error(r)?),
        3 => ExecError::JobFailed {
            job: r.u64()?,
            reason: r.str()?.to_string(),
        },
        4 => ExecError::Timeout {
            job: r.u64()?,
            budget_ms: r.u64()?,
        },
        5 if depth == MAX_RETRY_NESTING => {
            return Err(CodecError::TooDeep {
                what: "ExecError",
                limit: MAX_RETRY_NESTING,
            })
        }
        5 => ExecError::RetriesExhausted {
            attempts: r.u32()?,
            last: Box::new(get_exec_error(r, depth + 1)?),
        },
        6 => ExecError::DeadlineExceeded {
            elapsed_ms: r.u64()?,
            budget_ms: r.u64()?,
        },
        7 => ExecError::Cancelled,
        tag => unknown_tag("ExecError", tag)?,
    })
}

fn put_decoy_error(w: &mut Writer, e: &DecoyError) {
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

fn get_decoy_error(r: &mut Reader<'_>) -> Result<DecoyError, CodecError> {
    Ok(match r.u8()? {
        0 => DecoyError::UnsupportedGate(get_gate(r)?),
        1 => DecoyError::Sim(get_sim_error(r)?),
        tag => unknown_tag("DecoyError", tag)?,
    })
}

fn put_search_error(w: &mut Writer, e: &SearchError) {
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

fn get_search_error(r: &mut Reader<'_>) -> Result<SearchError, CodecError> {
    Ok(match r.u8()? {
        0 => SearchError::TooLarge {
            qubits: r.u64()? as usize,
            limit: r.u64()? as usize,
        },
        1 => SearchError::Exec(get_exec_error(r, 0)?),
        tag => unknown_tag("SearchError", tag)?,
    })
}

fn put_adapt_error(w: &mut Writer, e: &AdaptError) {
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

fn get_adapt_error(r: &mut Reader<'_>) -> Result<AdaptError, CodecError> {
    Ok(match r.u8()? {
        0 => AdaptError::Exec(get_exec_error(r, 0)?),
        1 => AdaptError::Decoy(get_decoy_error(r)?),
        2 => AdaptError::Sim(get_sim_error(r)?),
        3 => AdaptError::Search(get_search_error(r)?),
        tag => unknown_tag("AdaptError", tag)?,
    })
}

fn put_service_error(w: &mut Writer, e: &ServiceError) {
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

fn get_service_error(r: &mut Reader<'_>) -> Result<ServiceError, CodecError> {
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
        4 => ServiceError::InvalidConfig {
            reason: r.str()?.to_string(),
        },
        5 => ServiceError::Failed(get_adapt_error(r)?),
        6 => ServiceError::ShuttingDown,
        7 => ServiceError::Internal {
            reason: r.str()?.to_string(),
        },
        8 => ServiceError::Lost,
        9 => ServiceError::QuotaExhausted {
            tenant: TenantId(r.u32()?),
            retry_after_ms: r.u64()?,
        },
        tag => unknown_tag("ServiceError", tag)?,
    })
}

// ---------------------------------------------------------------------------
// Top-level payload codecs
// ---------------------------------------------------------------------------

/// Request tag: `RecommendMask`.
const REQ_RECOMMEND: u8 = 0;
/// Request tag: `Execute`.
const REQ_EXECUTE: u8 = 1;

/// Encode a request payload: the request body plus the in-band deadline.
///
/// The `deadline_ms` field *inside* the [`Request`] is not sent — the
/// [`WireDeadline`] is authoritative on the wire (it carries upstream
/// spend, which a bare `deadline_ms` cannot).
pub fn encode_request(req: &Request, deadline: WireDeadline) -> Vec<u8> {
    let mut w = Writer::default();
    put_deadline(&mut w, deadline);
    match req {
        Request::RecommendMask {
            circuit,
            device,
            protocol,
            budget,
            ..
        } => {
            w.u8(REQ_RECOMMEND);
            put_device(&mut w, *device);
            put_protocol(&mut w, *protocol);
            put_budget(&mut w, budget);
            put_circuit(&mut w, circuit);
        }
        Request::Execute {
            circuit,
            device,
            policy,
            ..
        } => {
            w.u8(REQ_EXECUTE);
            put_device(&mut w, *device);
            put_policy(&mut w, *policy);
            put_circuit(&mut w, circuit);
        }
    }
    // Extension block (see module docs): count, then tag/length-prefixed
    // bodies. Tenancy is the only extension today.
    w.u8(1);
    w.u8(EXT_TENANCY);
    let mut body = Writer::default();
    put_tenancy_body(&mut body, req.tenancy());
    w.u32(body.as_bytes().len() as u32);
    w.bytes(body.as_bytes());
    w.into_bytes()
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
    let mut r = Reader::new(payload);
    let deadline = get_deadline(&mut r)?;
    let remaining = deadline.remaining_ms();
    let mut body = match r.u8()? {
        REQ_RECOMMEND => {
            let device = get_device(&mut r)?;
            let protocol = get_protocol(&mut r)?;
            let budget = get_budget(&mut r)?;
            let circuit = get_circuit(&mut r)?;
            Request::RecommendMask {
                circuit,
                device,
                protocol,
                budget,
                deadline_ms: remaining,
                tenancy: Tenancy::default(),
            }
        }
        REQ_EXECUTE => {
            let device = get_device(&mut r)?;
            let policy = get_policy(&mut r)?;
            let circuit = get_circuit(&mut r)?;
            Request::Execute {
                circuit,
                device,
                policy,
                deadline_ms: remaining,
                tenancy: Tenancy::default(),
            }
        }
        tag => unknown_tag("Request", tag)?,
    };
    // Extension block: unknown extension tags are skipped by their
    // declared length; a known extension with a bad body is still a typed
    // error. An extension a payload leaves out keeps its default.
    for _ in 0..r.u8()? {
        let ext = r.u8()?;
        let len = r.u32()? as usize;
        match ext {
            EXT_TENANCY => {
                let mut er = Reader::new(r.take(len)?);
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
    r.finish()?;
    Ok((body, deadline))
}

/// Encode a successful response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = Writer::default();
    match resp {
        Response::Mask(rec) => {
            w.u8(0);
            put_mask_key(&mut w, &rec.key);
            put_mask(&mut w, rec.mask);
            w.f64(rec.decoy_fidelity);
            w.u64(rec.decoy_runs as u64);
            put_provenance(&mut w, rec.provenance);
            w.bool(rec.degraded);
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
                None => w.bool(false),
                Some(p) => {
                    w.bool(true);
                    put_provenance(&mut w, p);
                }
            }
            put_timing(&mut w, exec.timing);
        }
    }
    w.into_bytes()
}

/// Decode a response payload.
///
/// # Errors
///
/// Any [`WireError`] the payload triggers, including trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let resp = match r.u8()? {
        0 => Response::Mask(Recommendation {
            key: get_mask_key(&mut r)?,
            mask: get_mask(&mut r)?,
            decoy_fidelity: r.f64()?,
            decoy_runs: r.u64()? as usize,
            provenance: get_provenance(&mut r)?,
            degraded: r.bool()?,
            timing: get_timing(&mut r)?,
        }),
        1 => Response::Execution(Execution {
            device: get_device(&mut r)?,
            epoch: r.u64()?,
            policy: get_policy(&mut r)?,
            mask: get_mask(&mut r)?,
            fidelity: r.f64()?,
            pulse_count: r.u64()? as usize,
            provenance: if r.bool()? {
                Some(get_provenance(&mut r)?)
            } else {
                None
            },
            timing: get_timing(&mut r)?,
        }),
        tag => unknown_tag("Response", tag)?,
    };
    r.finish()?;
    Ok(resp)
}

/// Encode a typed service error payload.
pub fn encode_error(err: &ServiceError) -> Vec<u8> {
    let mut w = Writer::default();
    put_service_error(&mut w, err);
    w.into_bytes()
}

/// Decode a typed service error payload.
///
/// # Errors
///
/// Any [`WireError`] the payload triggers, including trailing bytes.
pub fn decode_error(payload: &[u8]) -> Result<ServiceError, WireError> {
    let mut r = Reader::new(payload);
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

/// Write one frame (header + payload + CRC32 trailer) to `stream`, with
/// `flags` and [`FLAG_CHECKSUM`] set. The trailer is counted in the
/// declared length so the receiver can detect in-flight corruption. The
/// frame is assembled in one buffer and handed to the stream in one
/// `write_all`: one syscall per frame on a socket.
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
    let mut frame = Writer::with_capacity(HEADER_BYTES + payload.len() + 4);
    frame.u32(MAGIC);
    frame.u8(VERSION);
    frame.u8(kind as u8);
    frame.u8(flags | FLAG_CHECKSUM);
    frame.u8(0);
    frame.u32(payload.len() as u32 + 4);
    frame.bytes(payload);
    frame.u32(crc32(payload));
    stream.write_all(frame.as_bytes())?;
    stream.flush()
}

/// Read one frame from `stream`, rejecting bad magic/version, a missing
/// checksum flag and payloads over `max_payload` before allocating
/// them, then verifying and stripping the CRC32 trailer.
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
    if flags & FLAG_CHECKSUM == 0 {
        return Err(WireError::MissingChecksum.into());
    }
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
    let at = payload.len().saturating_sub(4);
    let expected = Reader::new(&payload[at..]).u32().map_err(WireError::from)?;
    payload.truncate(at);
    let got = crc32(&payload);
    if got != expected {
        return Err(WireError::ChecksumMismatch { expected, got }.into());
    }
    // `len` reports the payload as returned (trailer verified + stripped).
    let len = payload.len() as u32;
    Ok((FrameHeader { kind, flags, len }, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt::DdProtocol;
    use adapt_service::DeviceId;

    #[test]
    fn frame_header_round_trips_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, FLAG_FORWARDED, b"abc").unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + 3 + 4);
        let (head, payload) = read_frame(&mut buf.as_slice(), 1024).unwrap();
        assert_eq!(head.kind, FrameKind::Request);
        assert_eq!(head.flags, FLAG_FORWARDED | FLAG_CHECKSUM);
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
            Err(FrameError::Wire(WireError::Oversize { len: 68, max: 16 }))
        ));
    }

    #[test]
    fn trailing_bytes_are_a_typed_error() {
        let mut payload = encode_error(&ServiceError::Lost);
        payload.push(0);
        assert_eq!(
            decode_error(&payload),
            Err(WireError::Codec(CodecError::TrailingBytes { extra: 1 }))
        );
    }

    #[test]
    fn unknown_tags_are_typed_not_guessed() {
        assert_eq!(
            decode_error(&[250]),
            Err(WireError::Codec(CodecError::UnknownTag {
                what: "ServiceError",
                tag: 250
            }))
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

    #[test]
    fn deadline_round_trips_exactly_and_a_short_field_is_eof() {
        for wd in [
            WireDeadline::unbounded(),
            WireDeadline::fresh(Some(250)),
            WireDeadline {
                budget_ms: Some(100),
                elapsed_ms: 37,
            },
            WireDeadline {
                budget_ms: Some(5),
                elapsed_ms: 5_000,
            },
            WireDeadline {
                budget_ms: None,
                elapsed_ms: 123,
            },
        ] {
            let payload = encode_request(&tenancy_request(Tenancy::default()), wd);
            assert_eq!(decode_request(&payload).unwrap().1, wd);
        }
        assert_eq!(
            decode_request(&[0; 15]).err(),
            Some(WireError::Codec(CodecError::UnexpectedEof {
                needed: 8,
                have: 7
            }))
        );
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
    fn a_payload_without_the_extension_block_is_truncated() {
        // Cut a payload at its extension block: the block is the last
        // 1 + 1 + 4 + 5 bytes (count, tag, len, body).
        let tenancy = Tenancy::with_class(3, PriorityClass::Interactive);
        let payload = encode_request(&tenancy_request(tenancy), WireDeadline::unbounded());
        let bare = &payload[..payload.len() - 11];
        assert_eq!(
            decode_request(bare).err(),
            Some(WireError::Codec(CodecError::UnexpectedEof {
                needed: 1,
                have: 0
            }))
        );
        // An empty block is the whole of it: every extension keeps its
        // default.
        let mut empty = bare.to_vec();
        empty.push(0);
        let (decoded, _) = decode_request(&empty).unwrap();
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

    /// A `RecommendMask` payload around a hand-built circuit body.
    fn request_with_body(body: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::default();
        put_deadline(&mut w, WireDeadline::unbounded());
        w.u8(REQ_RECOMMEND);
        put_device(&mut w, DeviceId::Rome);
        put_protocol(&mut w, DdProtocol::Xy4);
        put_budget(&mut w, &SearchBudget::default());
        body(&mut w);
        w.u8(0); // no extensions
        w.into_bytes()
    }

    /// A circuit body header: widths and op count.
    fn head(w: &mut Writer, qubits: u32, clbits: u32, ops: u32) {
        w.u32(qubits);
        w.u32(clbits);
        w.u32(ops);
    }

    /// One gate op with the given operands.
    fn gate_op(w: &mut Writer, gate: Gate, operands: &[u32]) {
        w.u8(0);
        put_gate(w, gate);
        w.u32(operands.len() as u32);
        for &q in operands {
            w.u32(q);
        }
    }

    fn is_eof(r: Result<(Request, WireDeadline), WireError>) -> bool {
        matches!(r, Err(WireError::Codec(CodecError::UnexpectedEof { .. })))
    }

    fn is_bad_circuit(r: Result<(Request, WireDeadline), WireError>) -> bool {
        matches!(r, Err(WireError::BadCircuit(_)))
    }

    #[test]
    fn a_hand_built_circuit_body_decodes() {
        let payload = request_with_body(|w| {
            head(w, 2, 2, 2);
            gate_op(w, Gate::H, &[0]);
            gate_op(w, Gate::CX, &[0, 1]);
        });
        let mut want = qcirc::Circuit::new(2);
        want.h(0).cx(0, 1);
        match decode_request(&payload) {
            Ok((Request::RecommendMask { circuit, .. }, _)) => assert_eq!(circuit, want),
            other => panic!("want a RecommendMask, got {other:?}"),
        }
    }

    #[test]
    fn counts_past_the_remaining_bytes_are_refused_before_allocation() {
        // An op count no payload of this size can hold: every op takes
        // at least MIN_OP_BYTES.
        let ops = request_with_body(|w| head(w, 2, 2, u32::MAX));
        assert_eq!(
            decode_request(&ops).err(),
            Some(WireError::Codec(CodecError::UnexpectedEof {
                needed: u32::MAX as usize * MIN_OP_BYTES,
                have: 1,
            }))
        );
        // An operand count past the end, on an op that fits.
        let operands = request_with_body(|w| {
            head(w, 2, 2, 1);
            w.u8(2); // reset
            w.u32(1 << 30);
        });
        assert_eq!(
            decode_request(&operands).err(),
            Some(WireError::Codec(CodecError::UnexpectedEof {
                needed: (1 << 30) * OPERAND_BYTES,
                have: 1,
            }))
        );
        // Counts that fit but bytes that do not arrive are still EOF.
        assert!(is_eof(decode_request(&request_with_body(|w| {
            head(w, 2, 2, 3);
            gate_op(w, Gate::H, &[0]);
        }))));
    }

    #[test]
    fn register_widths_keep_the_qcirc_caps() {
        let widths =
            |qubits, clbits| decode_request(&request_with_body(|w| head(w, qubits, clbits, 0)));
        assert!(widths(MAX_QUBITS as u32, MAX_CLBITS as u32).is_ok());
        assert!(is_bad_circuit(widths(MAX_QUBITS as u32 + 1, 1)));
        assert!(is_bad_circuit(widths(u32::MAX, 1)));
        assert!(is_bad_circuit(widths(1, MAX_CLBITS as u32 + 1)));
    }

    #[test]
    fn an_unknown_op_tag_is_typed() {
        let payload = request_with_body(|w| {
            head(w, 2, 2, 1);
            w.u8(5);
            w.u32(0);
        });
        assert_eq!(
            decode_request(&payload).err(),
            Some(WireError::Codec(CodecError::UnknownTag {
                what: "OpKind",
                tag: 5
            }))
        );
    }

    #[test]
    fn ops_try_push_rejects_are_bad_circuits() {
        let one_op = |op: &dyn Fn(&mut Writer)| {
            decode_request(&request_with_body(|w| {
                head(w, 2, 1, 1);
                op(w);
            }))
        };
        // Out-of-range qubit, wrong arity, duplicate operand.
        assert!(is_bad_circuit(one_op(&|w| gate_op(w, Gate::X, &[2]))));
        assert!(is_bad_circuit(one_op(&|w| gate_op(w, Gate::CX, &[0]))));
        assert!(is_bad_circuit(one_op(&|w| gate_op(w, Gate::CX, &[1, 1]))));
        // Out-of-range clbit, and a measure on two qubits.
        let measure = |clbit: u32, operands: &[u32]| {
            let operands = operands.to_vec();
            move |w: &mut Writer| {
                w.u8(1);
                w.u32(clbit);
                w.u32(operands.len() as u32);
                for &q in &operands {
                    w.u32(q);
                }
            }
        };
        assert!(one_op(&measure(0, &[1])).is_ok());
        assert!(is_bad_circuit(one_op(&measure(1, &[1]))));
        assert!(is_bad_circuit(one_op(&measure(0, &[0, 1]))));
    }

    /// The decoder does not judge delays: any `f64`, the values the
    /// service's admission rule refuses included, decodes bit for bit.
    #[test]
    fn every_delay_decodes_bit_for_bit() {
        let delays = [
            96.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            1e300,
            adapt_service::MAX_DELAY_NS,
            adapt_service::MAX_DELAY_NS,
        ];
        let payload = request_with_body(|w| {
            head(w, 2, 0, delays.len() as u32);
            for &ns in &delays {
                w.u8(3);
                w.f64(ns);
                w.u32(1);
                w.u32(1);
            }
        });
        let circuit = match decode_request(&payload) {
            Ok((Request::RecommendMask { circuit, .. }, _)) => circuit,
            other => panic!("want a RecommendMask, got {other:?}"),
        };
        let got: Vec<u64> = circuit
            .iter()
            .map(|i| match &i.kind {
                OpKind::Delay(ns) => ns.to_bits(),
                other => panic!("want a delay, got {other:?}"),
            })
            .collect();
        let want: Vec<u64> = delays.iter().map(|ns| ns.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn retired_sim_error_tag_is_unknown() {
        assert_eq!(
            get_sim_error(&mut Reader::new(&[2])),
            Err(CodecError::UnknownTag {
                what: "SimError",
                tag: 2
            })
        );
    }

    #[test]
    fn retry_chains_decode_to_a_bound_not_to_a_stack_overflow() {
        let chain = |links: u32| {
            let mut e = ExecError::Cancelled;
            for _ in 0..links {
                e = ExecError::RetriesExhausted {
                    attempts: 2,
                    last: Box::new(e),
                };
            }
            ServiceError::Failed(AdaptError::Exec(e))
        };
        let deepest = chain(MAX_RETRY_NESTING);
        assert_eq!(decode_error(&encode_error(&deepest)), Ok(deepest));
        let too_deep = Err(WireError::Codec(CodecError::TooDeep {
            what: "ExecError",
            limit: MAX_RETRY_NESTING,
        }));
        assert_eq!(
            decode_error(&encode_error(&chain(MAX_RETRY_NESTING + 1))),
            too_deep
        );
        // A hostile payload: Failed(Exec(...)) around a million links.
        let mut hostile = vec![5, 0];
        for _ in 0..1_000_000 {
            hostile.extend_from_slice(&[5, 2, 0, 0, 0]);
        }
        hostile.push(7);
        assert_eq!(decode_error(&hostile), too_deep);
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
    fn frames_before_the_binary_circuit_body_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 0, b"abc").unwrap();
        let (head, payload) = read_frame(&mut buf.as_slice(), 1024).unwrap();
        assert_eq!(head.kind, FrameKind::Request);
        assert_eq!(payload, b"abc");
        // Versions 1 and 2 sent OpenQASM request bodies.
        for old in 0..MIN_VERSION {
            buf[4] = old;
            assert!(matches!(
                read_frame(&mut buf.as_slice(), 1024),
                Err(FrameError::Wire(WireError::BadVersion(v))) if v == old
            ));
        }
    }
}
