//! Golden values of [`adapt_service::logical_hash`].
//!
//! The hash is a persisted format, not an internal detail: it is the
//! program identity inside every [`adapt_service::StaleKey`] the
//! write-ahead journal and snapshots store, and the fleet ring places
//! programs by it (`route_key`). A rewrite of the hash must reproduce
//! these values bit for bit; a mismatch means recovered stale entries
//! and fleet placement silently change meaning.

use adapt_service::logical_hash;
use benchmarks::{paper_suite, table1_suite};
use qcirc::{Circuit, Gate, Instruction, OpKind, Qubit};

/// Pinned `logical_hash` of every benchmark program, by paper name.
const SUITE: [(&str, u64); 14] = [
    ("BV-7", 0x0f62_1727_d40e_7eb5),
    ("BV-8", 0xf818_3638_2d60_6cc6),
    ("QFT-6A", 0xfe21_9306_b4a4_95f2),
    ("QFT-6B", 0x99b8_57d4_ccd8_749d),
    ("QFT-7A", 0xd54a_605c_202f_8c0c),
    ("QFT-7B", 0xe9f5_4db8_c89a_bf15),
    ("QAOA-8A", 0xdf4b_c3c2_e25a_3755),
    ("QAOA-8B", 0x37e7_08ec_d421_ae23),
    ("QAOA-10A", 0x227b_0c28_7867_cade),
    ("QAOA-10B", 0xda55_8f5a_af61_e962),
    ("QPEA-5", 0x9bf8_34f8_32b3_7a52),
    ("QFT-5", 0xdffc_3673_57ea_8eeb),
    ("QAOA-5", 0xa26d_1a23_a7c5_8968),
    ("Adder", 0x9b6f_22d1_13cd_86a5),
];

/// A program with every instruction kind (gate, measure, reset, delay,
/// barrier), parameterized `U`/`RX`/`RZ` gates, a negative-zero angle
/// and distinct quantum and classical register sizes.
fn every_op_kind() -> Circuit {
    let mut c = Circuit::with_clbits(3, 2);
    c.h(0).cx(0, 1).rx(0.25, 1).rz(-0.0, 2).rz(-1.5, 0);
    c.gate(Gate::U(1.0, -0.5, std::f64::consts::PI), &[2]);
    c.delay(120.5, 1).barrier(&[0, 1, 2]);
    c.push(Instruction {
        kind: OpKind::Reset,
        qubits: vec![Qubit::new(2)],
    });
    c.measure(0, 1).measure(1, 0);
    c
}

#[test]
fn suite_programs_hash_to_their_pinned_values() {
    let programs: Vec<_> = paper_suite().into_iter().chain(table1_suite()).collect();
    let got: Vec<(&str, u64)> = programs
        .iter()
        .map(|b| (b.name, logical_hash(&b.circuit)))
        .collect();
    assert_eq!(got, SUITE, "logical_hash moved on a suite program");
}

#[test]
fn every_op_kind_hashes_to_its_pinned_value() {
    assert_eq!(logical_hash(&every_op_kind()), 0x0c27_54eb_e993_5224);
}

#[test]
fn negative_zero_angle_is_not_positive_zero() {
    let mut pos = Circuit::new(1);
    pos.rz(0.0, 0);
    let mut neg = Circuit::new(1);
    neg.rz(-0.0, 0);
    assert_ne!(logical_hash(&pos), logical_hash(&neg));
}
