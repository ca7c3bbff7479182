//! Wire-codec fidelity: every [`ServiceError`] variant — and every
//! error type reachable through [`ServiceError::Failed`] — round-trips
//! encode → decode loss-free.
//!
//! Coverage is pinned by *exhaustive matches*: each error enum has a
//! `variant_index` function whose `match` has no wildcard arm, so
//! adding a variant upstream breaks this file at compile time, and the
//! tests assert the sample sets hit every index. A new variant can
//! therefore never silently fall through to a generic code — the codec
//! and the samples must both be extended before the workspace builds
//! again.

use adapt::decoy::DecoyError;
use adapt::{AdaptError, DdMask, DdProtocol, DecoyKind, Policy, SearchError};
use adapt_fleet::wire::{
    decode_error, decode_request, decode_response, encode_error, encode_request, encode_response,
};
use adapt_service::{
    DeviceId, Execution, MaskKey, Provenance, Recommendation, Request, Response, SearchBudget,
    ServiceError, TenantId, TierPolicy, Timing,
};
use machine::{ExecError, WireDeadline};
use statevec::SimError;
use transpiler::ScheduleError;

// --- exhaustiveness pins (no wildcard arms!) -------------------------------

const SERVICE_ERROR_VARIANTS: usize = 10;
fn service_error_index(e: &ServiceError) -> usize {
    match e {
        ServiceError::Rejected { .. } => 0,
        ServiceError::DeviceNotServed(_) => 1,
        ServiceError::DeadlineExceeded { .. } => 2,
        ServiceError::DeviceUnhealthy { .. } => 3,
        ServiceError::InvalidConfig { .. } => 4,
        ServiceError::Failed(_) => 5,
        ServiceError::ShuttingDown => 6,
        ServiceError::Internal { .. } => 7,
        ServiceError::Lost => 8,
        ServiceError::QuotaExhausted { .. } => 9,
    }
}

const EXEC_ERROR_VARIANTS: usize = 8;
fn exec_error_index(e: &ExecError) -> usize {
    match e {
        ExecError::TooManyActiveQubits { .. } => 0,
        ExecError::Sim(_) => 1,
        ExecError::Schedule(_) => 2,
        ExecError::JobFailed { .. } => 3,
        ExecError::Timeout { .. } => 4,
        ExecError::RetriesExhausted { .. } => 5,
        ExecError::DeadlineExceeded { .. } => 6,
        ExecError::Cancelled => 7,
    }
}

const ADAPT_ERROR_VARIANTS: usize = 4;
fn adapt_error_index(e: &AdaptError) -> usize {
    match e {
        AdaptError::Exec(_) => 0,
        AdaptError::Decoy(_) => 1,
        AdaptError::Sim(_) => 2,
        AdaptError::Search(_) => 3,
    }
}

const SIM_ERROR_VARIANTS: usize = 3;
fn sim_error_index(e: &SimError) -> usize {
    match e {
        SimError::TooManyQubits { .. } => 0,
        SimError::QubitOutOfRange { .. } => 1,
        SimError::DuplicateOperand { .. } => 2,
    }
}

const SCHEDULE_ERROR_VARIANTS: usize = 2;
fn schedule_error_index(e: &ScheduleError) -> usize {
    match e {
        ScheduleError::NonFiniteTime { .. } => 0,
        ScheduleError::NegativeDuration { .. } => 1,
    }
}

const DECOY_ERROR_VARIANTS: usize = 2;
fn decoy_error_index(e: &DecoyError) -> usize {
    match e {
        DecoyError::UnsupportedGate(_) => 0,
        DecoyError::Sim(_) => 1,
    }
}

const SEARCH_ERROR_VARIANTS: usize = 2;
fn search_error_index(e: &SearchError) -> usize {
    match e {
        SearchError::TooLarge { .. } => 0,
        SearchError::Exec(_) => 1,
    }
}

const PROVENANCE_VARIANTS: usize = 7;
fn provenance_index(p: &Provenance) -> usize {
    match p {
        Provenance::CacheHit => 0,
        Provenance::FreshSearch => 1,
        Provenance::DegradedAllDd => 2,
        Provenance::PartialSearch => 3,
        Provenance::BreakerFallback => 4,
        Provenance::Heuristic => 5,
        Provenance::StaleServed { .. } => 6,
    }
}

// --- sample sets ------------------------------------------------------------

fn sim_error_samples() -> Vec<SimError> {
    vec![
        SimError::TooManyQubits {
            requested: 40,
            limit: 26,
        },
        SimError::QubitOutOfRange {
            qubit: 17,
            num_qubits: 16,
        },
        SimError::DuplicateOperand { qubit: 5 },
    ]
}

fn schedule_error_samples() -> Vec<ScheduleError> {
    vec![
        ScheduleError::NonFiniteTime {
            event: 3,
            start_ns: 12.5,
            end_ns: f64::INFINITY,
        },
        ScheduleError::NegativeDuration {
            event: 9,
            start_ns: 100.0,
            end_ns: 50.0,
        },
    ]
}

fn exec_error_samples() -> Vec<ExecError> {
    let mut samples = vec![
        ExecError::TooManyActiveQubits {
            active: 30,
            limit: 26,
        },
        ExecError::JobFailed {
            job: 41,
            reason: "injected: control-electronics glitch".to_string(),
        },
        ExecError::Timeout {
            job: 7,
            budget_ms: 250,
        },
        // Recursive payload: a retry loop that exhausted on a nested
        // transient failure.
        ExecError::RetriesExhausted {
            attempts: 4,
            last: Box::new(ExecError::RetriesExhausted {
                attempts: 2,
                last: Box::new(ExecError::JobFailed {
                    job: 3,
                    reason: "flaky".to_string(),
                }),
            }),
        },
        ExecError::DeadlineExceeded {
            elapsed_ms: 260,
            budget_ms: 250,
        },
        ExecError::Cancelled,
    ];
    samples.extend(sim_error_samples().into_iter().map(ExecError::Sim));
    samples.extend(
        schedule_error_samples()
            .into_iter()
            .map(ExecError::Schedule),
    );
    samples
}

fn decoy_error_samples() -> Vec<DecoyError> {
    let mut samples = vec![
        DecoyError::UnsupportedGate(qcirc::Gate::T),
        DecoyError::UnsupportedGate(qcirc::Gate::RZ(0.718281828)),
        DecoyError::UnsupportedGate(qcirc::Gate::U(0.1, -2.5, 3.25)),
    ];
    samples.extend(sim_error_samples().into_iter().map(DecoyError::Sim));
    samples
}

fn search_error_samples() -> Vec<SearchError> {
    let mut samples = vec![SearchError::TooLarge {
        qubits: 24,
        limit: 16,
    }];
    samples.extend(exec_error_samples().into_iter().map(SearchError::Exec));
    samples
}

fn adapt_error_samples() -> Vec<AdaptError> {
    let mut samples = Vec::new();
    samples.extend(exec_error_samples().into_iter().map(AdaptError::Exec));
    samples.extend(decoy_error_samples().into_iter().map(AdaptError::Decoy));
    samples.extend(sim_error_samples().into_iter().map(AdaptError::Sim));
    samples.extend(search_error_samples().into_iter().map(AdaptError::Search));
    samples
}

fn service_error_samples() -> Vec<ServiceError> {
    let mut samples = vec![
        ServiceError::Rejected {
            queue_depth: 32,
            retry_after_ms: 40,
        },
        ServiceError::DeviceNotServed(DeviceId::London),
        ServiceError::DeadlineExceeded {
            elapsed_ms: 251,
            budget_ms: 250,
        },
        ServiceError::DeviceUnhealthy {
            device: DeviceId::Toronto,
            retry_after_ms: 500,
        },
        ServiceError::InvalidConfig {
            reason: "retry policy has max_attempts = 0".to_string(),
        },
        ServiceError::ShuttingDown,
        ServiceError::Internal {
            reason: "worker panicked: index out of bounds".to_string(),
        },
        ServiceError::Lost,
        ServiceError::QuotaExhausted {
            tenant: TenantId(17),
            retry_after_ms: 125,
        },
    ];
    samples.extend(adapt_error_samples().into_iter().map(ServiceError::Failed));
    samples
}

fn assert_covers(name: &str, indices: &[usize], variants: usize) {
    let mut seen = vec![false; variants];
    for &i in indices {
        seen[i] = true;
    }
    for (i, s) in seen.iter().enumerate() {
        assert!(*s, "{name}: no sample for variant index {i}");
    }
}

// --- the fidelity tests -----------------------------------------------------

#[test]
fn every_service_error_variant_round_trips_loss_free() {
    let samples = service_error_samples();
    assert_covers(
        "ServiceError",
        &samples.iter().map(service_error_index).collect::<Vec<_>>(),
        SERVICE_ERROR_VARIANTS,
    );
    for original in &samples {
        let decoded = decode_error(&encode_error(original)).unwrap();
        assert_eq!(&decoded, original, "lossy round-trip for {original}");
    }
}

#[test]
fn every_nested_error_enum_is_fully_sampled() {
    // The nested taxonomies all travel inside ServiceError::Failed;
    // pin that the sample sets exercise every variant of each.
    assert_covers(
        "ExecError",
        &exec_error_samples()
            .iter()
            .map(exec_error_index)
            .collect::<Vec<_>>(),
        EXEC_ERROR_VARIANTS,
    );
    assert_covers(
        "AdaptError",
        &adapt_error_samples()
            .iter()
            .map(adapt_error_index)
            .collect::<Vec<_>>(),
        ADAPT_ERROR_VARIANTS,
    );
    assert_covers(
        "SimError",
        &sim_error_samples()
            .iter()
            .map(sim_error_index)
            .collect::<Vec<_>>(),
        SIM_ERROR_VARIANTS,
    );
    assert_covers(
        "ScheduleError",
        &schedule_error_samples()
            .iter()
            .map(schedule_error_index)
            .collect::<Vec<_>>(),
        SCHEDULE_ERROR_VARIANTS,
    );
    assert_covers(
        "DecoyError",
        &decoy_error_samples()
            .iter()
            .map(decoy_error_index)
            .collect::<Vec<_>>(),
        DECOY_ERROR_VARIANTS,
    );
    assert_covers(
        "SearchError",
        &search_error_samples()
            .iter()
            .map(search_error_index)
            .collect::<Vec<_>>(),
        SEARCH_ERROR_VARIANTS,
    );
}

#[test]
fn nan_float_payloads_survive_bit_exactly() {
    // NaN != NaN, so PartialEq cannot certify this case; re-encoding
    // the decoded value and comparing bytes can. f64 payloads travel as
    // raw IEEE-754 bits, so even a NaN's exact bit pattern survives.
    let nan_error = ServiceError::Failed(AdaptError::Exec(ExecError::Schedule(
        ScheduleError::NonFiniteTime {
            event: 0,
            start_ns: f64::NAN,
            end_ns: f64::NEG_INFINITY,
        },
    )));
    let bytes = encode_error(&nan_error);
    let decoded = decode_error(&bytes).unwrap();
    assert_eq!(encode_error(&decoded), bytes);
}

#[test]
fn every_provenance_variant_round_trips_in_responses() {
    let provenances = [
        Provenance::CacheHit,
        Provenance::FreshSearch,
        Provenance::DegradedAllDd,
        Provenance::PartialSearch,
        Provenance::BreakerFallback,
        Provenance::Heuristic,
        Provenance::StaleServed { age_epochs: 3 },
    ];
    assert_covers(
        "Provenance",
        &provenances.iter().map(provenance_index).collect::<Vec<_>>(),
        PROVENANCE_VARIANTS,
    );
    for (i, &provenance) in provenances.iter().enumerate() {
        let response = Response::Mask(Recommendation {
            key: MaskKey {
                device: DeviceId::Guadalupe,
                epoch: 5,
                circuit_hash: 0xfeed_f00d_dead_beef,
                protocol: DdProtocol::Udd { pulses: 6 },
                decoy: DecoyKind::Seeded { max_seed_qubits: 2 },
            },
            mask: DdMask::from_bits(0b1011, 4),
            decoy_fidelity: 0.987654321,
            decoy_runs: 19,
            provenance,
            degraded: i % 2 == 0,
            timing: Timing {
                queued_us: 120,
                service_us: 4_567,
            },
        });
        let decoded = decode_response(&encode_response(&response)).unwrap();
        match (&response, &decoded) {
            (Response::Mask(a), Response::Mask(b)) => assert_eq!(a, b),
            _ => panic!("variant changed in flight"),
        }
    }
}

#[test]
fn execution_responses_round_trip() {
    for provenance in [None, Some(Provenance::CacheHit)] {
        let response = Response::Execution(Execution {
            device: DeviceId::Paris,
            epoch: 2,
            policy: Policy::Adapt,
            mask: DdMask::from_bits(0b0110, 4),
            fidelity: 0.875,
            pulse_count: 14,
            provenance,
            timing: Timing {
                queued_us: 9,
                service_us: 210,
            },
        });
        let decoded = decode_response(&encode_response(&response)).unwrap();
        match (&response, &decoded) {
            (Response::Execution(a), Response::Execution(b)) => {
                assert_eq!(a.device, b.device);
                assert_eq!(a.epoch, b.epoch);
                assert_eq!(a.policy, b.policy);
                assert_eq!(a.mask, b.mask);
                assert_eq!(a.fidelity.to_bits(), b.fidelity.to_bits());
                assert_eq!(a.pulse_count, b.pulse_count);
                assert_eq!(a.provenance, b.provenance);
                assert_eq!(a.timing, b.timing);
            }
            _ => panic!("variant changed in flight"),
        }
    }
}

#[test]
fn requests_round_trip_including_circuit_and_deadline() {
    let circuit = benchmarks::ghz(4);
    for (request, wire) in [
        (
            Request::RecommendMask {
                circuit: circuit.clone(),
                device: DeviceId::Rome,
                protocol: DdProtocol::Cpmg,
                budget: SearchBudget {
                    shots: 128,
                    trajectories: 4,
                    neighborhood: 4,
                    tier: TierPolicy::SearchOnly,
                },
                deadline_ms: None,
                tenancy: Default::default(),
            },
            WireDeadline {
                budget_ms: Some(400),
                elapsed_ms: 150,
            },
        ),
        (
            Request::Execute {
                circuit: circuit.clone(),
                device: DeviceId::Guadalupe,
                policy: Policy::RuntimeBest,
                deadline_ms: None,
                tenancy: Default::default(),
            },
            WireDeadline::unbounded(),
        ),
    ] {
        let payload = encode_request(&request, wire);
        let (decoded, deadline) = decode_request(&payload).unwrap();
        assert_eq!(deadline, wire);
        assert_eq!(decoded.deadline_ms(), wire.remaining_ms());
        match (&request, &decoded) {
            (
                Request::RecommendMask {
                    circuit: c1,
                    device: d1,
                    protocol: p1,
                    budget: b1,
                    ..
                },
                Request::RecommendMask {
                    circuit: c2,
                    device: d2,
                    protocol: p2,
                    budget: b2,
                    ..
                },
            ) => {
                assert_eq!(d1, d2);
                assert_eq!(p1, p2);
                assert_eq!(b1, b2);
                // The circuit's structural identity survives the hop —
                // the property routing and caching key on.
                assert_eq!(
                    adapt_service::logical_hash(c1),
                    adapt_service::logical_hash(c2)
                );
            }
            (
                Request::Execute {
                    circuit: c1,
                    device: d1,
                    policy: p1,
                    ..
                },
                Request::Execute {
                    circuit: c2,
                    device: d2,
                    policy: p2,
                    ..
                },
            ) => {
                assert_eq!(d1, d2);
                assert_eq!(p1, p2);
                assert_eq!(
                    adapt_service::logical_hash(c1),
                    adapt_service::logical_hash(c2)
                );
            }
            _ => panic!("request variant changed in flight"),
        }
    }
}

/// Each op of `circuit` as bits: its name, every angle, delay or clbit
/// as its exact bit pattern, then the operands. Two circuits with equal
/// `op_bits` are equal bit for bit, NaN payloads and the sign of zero
/// included, which `PartialEq` on `f64` cannot tell.
fn op_bits(circuit: &qcirc::Circuit) -> Vec<(&'static str, Vec<u64>, Vec<usize>)> {
    use qcirc::OpKind;
    circuit
        .iter()
        .map(|instr| {
            let (name, bits) = match instr.kind {
                OpKind::Gate(g) => (g.name(), g.params().iter().map(|p| p.to_bits()).collect()),
                OpKind::Measure(c) => ("measure", vec![c.index() as u64]),
                OpKind::Reset => ("reset", vec![]),
                OpKind::Delay(ns) => ("delay", vec![ns.to_bits()]),
                OpKind::Barrier => ("barrier", vec![]),
            };
            (name, bits, instr.qubits.iter().map(|q| q.index()).collect())
        })
        .collect()
}

/// A circuit holding every `OpKind`, every gate, the angles a text
/// rendering can lose (`-0.0`, a NaN with a payload, both infinities),
/// and delays of `-0.0` and the least subnormal.
fn every_op_circuit() -> qcirc::Circuit {
    use qcirc::{Gate, Instruction, OpKind, Qubit};
    let odd_nan = f64::from_bits(0x7ff8_0000_dead_beef);
    let mut c = qcirc::Circuit::with_clbits(3, 2);
    c.h(0).x(1).y(2).z(0).s(1).sdg(2).t(0).tdg(1).sx(2);
    c.gate(Gate::I, &[0]).gate(Gate::SXdg, &[1]);
    c.rz(-0.0, 0).rx(odd_nan, 1).ry(f64::INFINITY, 2);
    c.gate(Gate::P(f64::NEG_INFINITY), &[0]);
    c.gate(Gate::U(0.1, f64::NAN, -2.5e-300), &[1]);
    c.cx(0, 1).cz(1, 2).swap(2, 0);
    c.delay(96.0, 1).delay(-0.0, 2).delay(5e-324, 0);
    c.barrier_all();
    c.push(Instruction {
        kind: OpKind::Barrier,
        qubits: vec![Qubit::new(2), Qubit::new(0)],
    });
    c.push(Instruction {
        kind: OpKind::Reset,
        qubits: vec![Qubit::new(1)],
    });
    c.measure(2, 1).measure(0, 0);
    c
}

#[test]
fn every_op_kind_round_trips_bit_for_bit() {
    let circuit = every_op_circuit();
    let names: std::collections::BTreeSet<_> = op_bits(&circuit).iter().map(|op| op.0).collect();
    for name in ["measure", "reset", "delay", "barrier"] {
        assert!(names.contains(name), "no {name} sampled");
    }
    assert_eq!(names.len(), 19 + 4, "every gate and every other OpKind");
    for request in [
        Request::RecommendMask {
            circuit: circuit.clone(),
            device: DeviceId::Guadalupe,
            protocol: DdProtocol::Xy4,
            budget: SearchBudget::default(),
            deadline_ms: None,
            tenancy: Default::default(),
        },
        Request::Execute {
            circuit: circuit.clone(),
            device: DeviceId::Rome,
            policy: Policy::Adapt,
            deadline_ms: None,
            tenancy: Default::default(),
        },
    ] {
        let (decoded, _) =
            decode_request(&encode_request(&request, WireDeadline::unbounded())).expect("decodes");
        let (Request::RecommendMask { circuit: back, .. } | Request::Execute { circuit: back, .. }) =
            &decoded;
        assert_eq!(
            (back.num_qubits(), back.num_clbits()),
            (circuit.num_qubits(), circuit.num_clbits())
        );
        assert_eq!(op_bits(back), op_bits(&circuit));
        assert_eq!(
            adapt_service::logical_hash(back),
            adapt_service::logical_hash(&circuit)
        );
    }
}

// --- checksummed frames (the CRC32 trailer every frame carries) ------------

mod checksum_frames {
    use adapt_fleet::wire::{
        read_frame, write_frame, FrameError, FrameKind, WireError, FLAG_CHECKSUM, HEADER_BYTES,
        MAGIC, VERSION,
    };
    use adapt_service::CodecError;

    fn checksummed_frame(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, 0, payload).unwrap();
        buf
    }

    #[test]
    fn checksummed_frame_round_trips_and_reports_stripped_length() {
        let payload = b"adaptive dynamical decoupling";
        let buf = checksummed_frame(payload);
        // The trailer is counted in the declared length on the wire...
        assert_eq!(buf.len(), HEADER_BYTES + payload.len() + 4);
        let (head, got) = read_frame(&mut buf.as_slice(), 1024).unwrap();
        // ...but the returned header reports the stripped payload.
        assert_eq!(head.len as usize, payload.len());
        assert_eq!(head.flags & FLAG_CHECKSUM, FLAG_CHECKSUM);
        assert_eq!(got, payload);
    }

    #[test]
    fn every_payload_bit_flip_is_a_typed_checksum_mismatch() {
        let payload = b"mask-cache fill for epoch 3";
        let clean = checksummed_frame(payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[HEADER_BYTES + byte] ^= 1 << bit;
                match read_frame(&mut buf.as_slice(), 1024) {
                    Err(FrameError::Wire(WireError::ChecksumMismatch { expected, got })) => {
                        assert_ne!(expected, got);
                    }
                    other => {
                        panic!("flip byte {byte} bit {bit}: want ChecksumMismatch, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn trailer_bit_flips_are_also_checksum_mismatches() {
        let payload = b"trailer under test";
        let clean = checksummed_frame(payload);
        let trailer_start = HEADER_BYTES + payload.len();
        for byte in trailer_start..clean.len() {
            let mut buf = clean.clone();
            buf[byte] ^= 0x40;
            match read_frame(&mut buf.as_slice(), 1024) {
                Err(FrameError::Wire(WireError::ChecksumMismatch { .. })) => {}
                other => panic!("trailer flip at {byte}: want ChecksumMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn checksum_flag_with_room_for_no_trailer_is_unexpected_eof() {
        // Hand-roll a frame that claims FLAG_CHECKSUM but whose declared
        // length cannot even hold the 4-byte trailer.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        buf.push(FrameKind::Request as u8);
        buf.push(FLAG_CHECKSUM);
        buf.push(0);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xAA, 0xBB]);
        match read_frame(&mut buf.as_slice(), 1024) {
            Err(FrameError::Wire(WireError::Codec(CodecError::UnexpectedEof {
                needed: 4,
                have: 2,
            }))) => {}
            other => panic!("want UnexpectedEof {{4, 2}}, got {other:?}"),
        }
    }

    #[test]
    fn unchecksummed_frames_are_refused() {
        // Every v3 frame carries the trailer: a frame whose header lacks
        // FLAG_CHECKSUM is refused before its payload is read, even when
        // the payload would decode.
        let payload = b"unchecked peer";
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        buf.push(FrameKind::Response as u8);
        buf.push(0);
        buf.push(0);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload);
        match read_frame(&mut buf.as_slice(), 1024) {
            Err(FrameError::Wire(WireError::MissingChecksum)) => {}
            other => panic!("want MissingChecksum, got {other:?}"),
        }
        // The same frame with the flag and its trailer reads.
        buf[6] = FLAG_CHECKSUM;
        buf[8..12].copy_from_slice(&(payload.len() as u32 + 4).to_le_bytes());
        buf.extend_from_slice(&adapt_service::codec::crc32(payload).to_le_bytes());
        assert_eq!(buf, {
            let mut written = Vec::new();
            write_frame(&mut written, FrameKind::Response, 0, payload).unwrap();
            written
        });
        assert_eq!(read_frame(&mut buf.as_slice(), 1024).unwrap().1, payload);
    }
}

// --- golden byte digests ----------------------------------------------------
//
// Round trips pass even when encoder and decoder change a format
// together; these pins do not. Each entry is the FNV-1a 64 digest of
// one encoded payload (or frame). The request and frame digests were
// recorded from the v3 codec (binary circuit bodies), the rest from v2.
// A mismatch means a byte format changed: that needs a version bump,
// not a new digest.

mod golden {
    use super::*;
    use adapt_fleet::wire::{write_frame, FrameKind, FLAG_FORWARDED};
    use adapt_service::{PriorityClass, Tenancy};

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

    const PROTOCOLS: [DdProtocol; 5] = [
        DdProtocol::Xy4,
        DdProtocol::IbmqDd,
        DdProtocol::Cpmg,
        DdProtocol::Xy8,
        DdProtocol::Udd { pulses: 6 },
    ];
    const DECOYS: [DecoyKind; 3] = [
        DecoyKind::Clifford,
        DecoyKind::CnotOnly,
        DecoyKind::Seeded { max_seed_qubits: 2 },
    ];
    const POLICIES: [Policy; 4] = [
        Policy::NoDd,
        Policy::AllDd,
        Policy::Adapt,
        Policy::RuntimeBest,
    ];
    const PROVENANCES: [Provenance; 7] = [
        Provenance::CacheHit,
        Provenance::FreshSearch,
        Provenance::DegradedAllDd,
        Provenance::PartialSearch,
        Provenance::BreakerFallback,
        Provenance::Heuristic,
        Provenance::StaleServed { age_epochs: 3 },
    ];

    /// Both request variants, each with the default tenancy and with an
    /// explicit one, under a bounded and an unbounded deadline.
    pub(super) fn request_corpus() -> Vec<Vec<u8>> {
        let circuit = benchmarks::ghz(3);
        let mut out = Vec::new();
        for tenancy in [
            Tenancy::default(),
            Tenancy::with_class(42, PriorityClass::Interactive),
        ] {
            let recommend = Request::RecommendMask {
                circuit: circuit.clone(),
                device: DeviceId::Toronto,
                protocol: DdProtocol::Udd { pulses: 4 },
                budget: SearchBudget {
                    shots: 256,
                    trajectories: 8,
                    neighborhood: 3,
                    tier: TierPolicy::HeuristicOnly,
                },
                deadline_ms: None,
                tenancy,
            };
            let execute = Request::Execute {
                circuit: circuit.clone(),
                device: DeviceId::London,
                policy: Policy::AllDd,
                deadline_ms: None,
                tenancy,
            };
            for request in [&recommend, &execute] {
                for deadline in [
                    WireDeadline::unbounded(),
                    WireDeadline {
                        budget_ms: Some(300),
                        elapsed_ms: 45,
                    },
                ] {
                    out.push(encode_request(request, deadline));
                }
            }
        }
        out
    }

    /// `Response::Mask` for every provenance (cycling every protocol and
    /// decoy through the key), then `Response::Execution` for every
    /// policy without a provenance and for every provenance.
    pub(super) fn response_corpus() -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for (i, &provenance) in PROVENANCES.iter().enumerate() {
            out.push(encode_response(&Response::Mask(Recommendation {
                key: MaskKey {
                    device: DeviceId::ALL[i % DeviceId::ALL.len()],
                    epoch: i as u64,
                    circuit_hash: 0x0123_4567_89ab_cdef ^ i as u64,
                    protocol: PROTOCOLS[i % PROTOCOLS.len()],
                    decoy: DECOYS[i % DECOYS.len()],
                },
                mask: DdMask::from_bits(0b1011_0110 >> i, 8),
                decoy_fidelity: 0.5 + i as f64 / 16.0,
                decoy_runs: 3 * i + 1,
                provenance,
                degraded: i % 2 == 1,
                timing: Timing {
                    queued_us: 10 * i as u64,
                    service_us: 1_000 + i as u64,
                },
            })));
        }
        let provenances = POLICIES.iter().map(|_| None).chain(PROVENANCES.map(Some));
        let policies = POLICIES.iter().chain(std::iter::repeat(&Policy::Adapt));
        for (i, (&policy, provenance)) in policies.zip(provenances).enumerate() {
            out.push(encode_response(&Response::Execution(Execution {
                device: DeviceId::ALL[i % DeviceId::ALL.len()],
                epoch: 7 + i as u64,
                policy,
                mask: DdMask::from_bits(i as u64, 5),
                fidelity: 1.0 / (i as f64 + 2.0),
                pulse_count: 4 * i,
                provenance,
                timing: Timing {
                    queued_us: i as u64,
                    service_us: 250 + i as u64,
                },
            })));
        }
        out
    }

    pub(super) fn error_corpus() -> Vec<Vec<u8>> {
        service_error_samples().iter().map(encode_error).collect()
    }

    /// One forwarded request frame (header, payload, CRC).
    pub(super) fn frame_corpus() -> Vec<Vec<u8>> {
        let mut frame = Vec::new();
        write_frame(
            &mut frame,
            FrameKind::Request,
            FLAG_FORWARDED,
            &request_corpus()[1],
        )
        .unwrap();
        vec![frame]
    }

    #[test]
    fn request_bytes_are_pinned() {
        assert_golden("encode_request", &request_corpus(), &REQUEST_GOLDEN);
    }

    #[test]
    fn response_bytes_are_pinned() {
        assert_golden("encode_response", &response_corpus(), &RESPONSE_GOLDEN);
    }

    #[test]
    fn error_bytes_are_pinned() {
        assert_golden("encode_error", &error_corpus(), &ERROR_GOLDEN);
    }

    #[test]
    fn checksummed_frame_bytes_are_pinned() {
        assert_golden("write_frame", &frame_corpus(), &FRAME_GOLDEN);
    }

    const REQUEST_GOLDEN: [u64; 8] = [
        0xf2a7_c4e7_36b6_6817,
        0x80e4_41cb_2a2d_61b9,
        0x3804_62d6_97bd_f58e,
        0xd8bd_516c_8135_a270,
        0x3c6a_d637_f0c7_3472,
        0x62d9_f919_c3f7_2ab8,
        0x4f0b_e97d_5c91_1bc3,
        0xed6e_9765_103d_1861,
    ];
    const RESPONSE_GOLDEN: [u64; 18] = [
        0xeeea_d624_4e37_a9ed,
        0x593a_be16_7acf_6b83,
        0xd988_3d62_3078_b1b5,
        0x664e_e3b8_2f4a_01fa,
        0xba92_194f_23e5_7514,
        0x14f6_5047_71ee_60dc,
        0x9800_56ff_4e13_61e0,
        0x00b8_ca06_ecd6_a8de,
        0x1f92_dba6_b558_1285,
        0x2682_ea60_2c31_86bf,
        0x93cc_8e1f_2ebd_085f,
        0x3871_7083_0dcd_d76f,
        0x010c_cdbf_1996_8822,
        0x61c9_1168_5ed3_cc4d,
        0x04e1_8ce5_2cb9_3976,
        0x7b6c_0396_6e81_d4a8,
        0x9b9f_a85b_6a3a_213f,
        0x94e3_1e74_8829_0618,
    ];
    const ERROR_GOLDEN: [u64; 41] = [
        0x153f_aedb_3b09_92d7,
        0xfd4d_e565_9468_3dc8,
        0xfba1_cab7_f23c_3804,
        0xc711_1b92_cba7_46dd,
        0xe2bc_b111_ee06_6adc,
        0xaf63_bb4c_8601_b479,
        0x1584_7e6d_51f0_7fa3,
        0xaf63_c54c_8601_c577,
        0xe1a0_f56a_af20_c2d8,
        0x754b_4da9_9879_1ea4,
        0x6d9a_0d0b_2a51_a58e,
        0x1fe3_ba50_fc4c_0891,
        0x3120_1a9c_814b_c58c,
        0x32c1_dbb3_155c_8a2b,
        0xadfd_b218_5387_4245,
        0xe0ef_8360_45e1_fffb,
        0x5397_2792_837a_3257,
        0x8362_22d0_5334_fbd5,
        0x94fc_7755_ba71_e07d,
        0x5da0_eea4_7baf_7bdc,
        0x35e9_9a55_f3a9_6c4a,
        0x284e_636b_6e58_9b84,
        0x9440_ea4f_b7d0_7281,
        0xd870_d3e3_8441_4fd0,
        0x8606_76ae_e406_1554,
        0x73da_2722_299c_002a,
        0x6bb0_99b7_78cf_0bc0,
        0xf908_f585_3b36_d964,
        0xd7e0_ec7f_991e_9e3a,
        0x50d4_3354_3775_ba93,
        0x4787_751f_cd51_e63c,
        0x411e_4c46_8297_4516,
        0x1e80_5cf1_9aa7_b0f9,
        0xd965_c50b_1140_0e24,
        0x3bd0_6c3d_d523_f093,
        0x4739_2c55_fd76_89dd,
        0x3b36_f113_c22c_d723,
        0x8d02_8a76_db51_6b9f,
        0x553c_803c_d033_5c1d,
        0xdac3_6f4a_723e_f145,
        0x3c89_82dd_5fee_f094,
    ];
    const FRAME_GOLDEN: [u64; 1] = [0x5ffa_fa9c_1629_fedc];
}

// --- untrusted bytes ----------------------------------------------------------

/// A `Response::Mask` whose mask-width field claims 65 qubits — one more
/// than a `DdMask` holds — is a typed error, not a panic in the reply
/// path every `ShardClient` call decodes.
#[test]
fn too_wide_mask_in_a_response_is_a_typed_error() {
    let response = Response::Mask(Recommendation {
        key: MaskKey {
            device: DeviceId::Rome,
            epoch: 1,
            circuit_hash: 2,
            protocol: DdProtocol::Xy4,
            decoy: DecoyKind::Clifford,
        },
        mask: DdMask::from_bits(0b101, 3),
        decoy_fidelity: 0.5,
        decoy_runs: 4,
        provenance: Provenance::CacheHit,
        degraded: false,
        timing: Timing {
            queued_us: 0,
            service_us: 0,
        },
    });
    let mut bytes = encode_response(&response);
    // tag, device "rome", epoch, circuit hash, Xy4, Clifford, mask bits:
    // the mask width follows.
    let width_at = 1 + (4 + 4) + 8 + 8 + 1 + 1 + 8;
    assert_eq!(bytes[width_at..width_at + 8], 3u64.to_le_bytes());
    bytes[width_at..width_at + 8].copy_from_slice(&65u64.to_le_bytes());
    assert_eq!(
        decode_response(&bytes).err(),
        Some(adapt_fleet::WireError::Codec(
            adapt_service::CodecError::MaskTooWide { width: 65 }
        ))
    );
}

mod fuzz {
    use super::golden;
    use adapt_fleet::wire::{
        decode_error, decode_request, decode_response, read_frame, DEFAULT_MAX_FRAME_BYTES,
    };
    use proptest::prelude::*;

    /// Runs every payload decoder and the frame reader over `bytes`.
    /// Each must return `Ok` or a typed error; a panic fails the test.
    fn decode_everything(bytes: &[u8]) {
        let _ = decode_request(bytes);
        let _ = decode_response(bytes);
        let _ = decode_error(bytes);
        if let Ok((head, payload)) = read_frame(&mut &bytes[..], DEFAULT_MAX_FRAME_BYTES) {
            // The payload allocation is bounded by the input, never by
            // the declared length alone.
            assert!(payload.len() <= bytes.len());
            assert_eq!(head.len as usize, payload.len());
        }
    }

    /// Every golden encoding: requests, responses, errors and a frame.
    fn corpus() -> Vec<Vec<u8>> {
        let mut all = golden::request_corpus();
        all.extend(golden::response_corpus());
        all.extend(golden::error_corpus());
        all.extend(golden::frame_corpus());
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
            decode_everything(&bytes);
        }

        #[test]
        fn mutated_golden_bytes_never_panic(
            pick in any::<usize>(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let corpus = corpus();
            let clean = &corpus[pick % corpus.len()];
            let mut overwritten = clean.clone();
            overwritten[at % clean.len()] = byte;
            decode_everything(&overwritten);
            decode_everything(&clean[..at % clean.len()]);
        }
    }
}
