//! [`adapt_service::logical_hash`] writes its bytes itself instead of
//! formatting each instruction's `Debug` text. These properties hold it
//! to the reference it replaced: FNV-1a (the legacy multiplier) over the
//! register sizes and `format!("{instr:?}")` of every instruction. The
//! reference lives here only.

use adapt_service::logical_hash;
use device::hash::Fnv1aLegacy;
use proptest::prelude::*;
use qcirc::{Circuit, Clbit, Gate, Instruction, OpKind, Qubit};

/// The hash as it was first defined: the `Debug` rendering as bytes.
fn reference(circuit: &Circuit) -> u64 {
    let mut h = Fnv1aLegacy::new();
    h.mix(&(circuit.num_qubits() as u64).to_le_bytes());
    h.mix(&(circuit.num_clbits() as u64).to_le_bytes());
    for instr in circuit.instructions() {
        h.mix(format!("{instr:?}").as_bytes());
    }
    h.finish()
}

/// Floats where `{:?}` changes notation or spelling: signed zeros, NaN,
/// infinities, subnormals, and both sides of the switches to exponent
/// form (below 1e-4, from 1e16 up).
const SPECIAL: [f64; 18] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -2.225e-308,
    f64::MIN_POSITIVE,
    1e-7,
    -1e-5,
    1e-4,
    0.1,
    1.0,
    -std::f64::consts::PI,
    9_999_999_999_999_998.0,
    1e16,
    -1.5e300,
    f64::MAX,
];

/// Every gate, its angles set to `x`.
fn every_gate(x: f64) -> [Gate; 19] {
    [
        Gate::I,
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
        Gate::SX,
        Gate::SXdg,
        Gate::RX(x),
        Gate::RY(x),
        Gate::RZ(x),
        Gate::P(x),
        Gate::U(x, -x, x * 0.5),
        Gate::CX,
        Gate::CZ,
        Gate::Swap,
    ]
}

/// A register wide enough for every `u32` qubit and clbit index.
fn widest(extra: usize) -> Circuit {
    let width = u32::MAX as usize + 1 + extra;
    Circuit::with_clbits(width, width + 1)
}

fn qubits(indices: &[u32]) -> Vec<Qubit> {
    indices.iter().copied().map(Qubit::new).collect()
}

#[test]
fn every_kind_and_special_float_hashes_like_its_debug_text() {
    for x in SPECIAL {
        let mut c = widest(0);
        for gate in every_gate(x) {
            let operands: &[u32] = if gate.arity() == 2 {
                &[u32::MAX, 0]
            } else {
                &[4_294_967_294]
            };
            c.push(Instruction::gate(gate, qubits(operands)));
        }
        for kind in [
            OpKind::Measure(Clbit::new(u32::MAX)),
            OpKind::Measure(Clbit::new(0)),
            OpKind::Reset,
            OpKind::Delay(x),
        ] {
            c.push(Instruction {
                kind,
                qubits: qubits(&[1_000_000_007]),
            });
        }
        for operands in [&[][..], &[9], &[0, 10, 4_000_000_000]] {
            c.push(Instruction {
                kind: OpKind::Barrier,
                qubits: qubits(operands),
            });
        }
        assert_eq!(logical_hash(&c), reference(&c), "angles and delays {x:?}");
    }
}

fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => (0..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        3 => any::<u64>().prop_map(f64::from_bits),
        2 => -10.0..10.0f64,
        1 => (any::<f64>(), -30i32..30).prop_map(|(m, e)| m * 10f64.powi(e)),
    ]
}

fn index() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..16, 0u32..=u32::MAX,]
}

fn gate() -> impl Strategy<Value = Gate> {
    (0usize..19, float(), float(), float()).prop_map(|(i, a, b, c)| match every_gate(a)[i] {
        Gate::U(..) => Gate::U(a, b, c),
        g => g,
    })
}

fn op_kind() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        4 => gate().prop_map(OpKind::Gate),
        1 => index().prop_map(|c| OpKind::Measure(Clbit::new(c))),
        1 => Just(OpKind::Reset),
        1 => float().prop_map(OpKind::Delay),
        1 => Just(OpKind::Barrier),
    ]
}

/// A valid instruction: operands match the gate's arity and never repeat.
fn instruction() -> impl Strategy<Value = Instruction> {
    (
        op_kind(),
        index(),
        index(),
        prop::collection::vec(index(), 0..5),
    )
        .prop_map(|(kind, a, b, spread)| {
            let operands = match &kind {
                OpKind::Gate(g) if g.arity() == 2 => vec![a, if b == a { a ^ 1 } else { b }],
                OpKind::Barrier => {
                    let mut seen = Vec::new();
                    for q in spread {
                        if !seen.contains(&q) {
                            seen.push(q);
                        }
                    }
                    seen
                }
                _ => vec![a],
            };
            Instruction {
                kind,
                qubits: qubits(&operands),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_circuits_hash_like_their_debug_text(
        extra in 0usize..1_000_000,
        instrs in prop::collection::vec(instruction(), 0..24),
    ) {
        let mut c = widest(extra);
        for instr in instrs {
            c.push(instr);
        }
        prop_assert_eq!(logical_hash(&c), reference(&c));
    }

    #[test]
    fn small_registers_hash_like_their_debug_text(
        n in 2usize..6,
        ops in prop::collection::vec((0usize..19, float(), 0usize..6, 0usize..6), 0..40),
    ) {
        let mut c = Circuit::new(n);
        for (i, x, q, step) in ops {
            let gate = every_gate(x)[i];
            let q0 = q % n;
            let mut operands = vec![q0 as u32];
            if gate.arity() == 2 {
                operands.push(((q0 + 1 + step % (n - 1)) % n) as u32);
            }
            c.push(Instruction::gate(gate, qubits(&operands)));
        }
        prop_assert_eq!(logical_hash(&c), reference(&c));
    }
}
