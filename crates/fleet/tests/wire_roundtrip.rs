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

const SIM_ERROR_VARIANTS: usize = 4;
fn sim_error_index(e: &SimError) -> usize {
    match e {
        SimError::TooManyQubits { .. } => 0,
        SimError::QubitOutOfRange { .. } => 1,
        SimError::InvalidAmplitudes => 2,
        SimError::DuplicateOperand { .. } => 3,
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
        SimError::InvalidAmplitudes,
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
                // The circuit's structural identity survives the QASM
                // hop — the property routing and caching key on.
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

// --- checksummed frames (FLAG_CHECKSUM trailer) ----------------------------

mod checksum_frames {
    use adapt_fleet::wire::{
        read_frame, write_frame, FrameError, FrameKind, WireError, FLAG_CHECKSUM, HEADER_BYTES,
        MAGIC, VERSION,
    };

    fn checksummed_frame(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, FLAG_CHECKSUM, payload).unwrap();
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
            Err(FrameError::Wire(WireError::UnexpectedEof { needed: 4, have: 2 })) => {}
            other => panic!("want UnexpectedEof {{4, 2}}, got {other:?}"),
        }
    }

    #[test]
    fn unchecksummed_frames_from_older_peers_still_decode() {
        // A MIN_VERSION peer never sets FLAG_CHECKSUM; corruption is not
        // detected (that is the pre-v2-flag contract) but clean frames
        // must keep decoding unchanged.
        let payload = b"legacy peer";
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Response, 0, payload).unwrap();
        assert_eq!(buf.len(), HEADER_BYTES + payload.len());
        let (head, got) = read_frame(&mut buf.as_slice(), 1024).unwrap();
        assert_eq!(head.flags & FLAG_CHECKSUM, 0);
        assert_eq!(got, payload);
    }
}
