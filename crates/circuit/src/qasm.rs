//! OpenQASM 2.0 export and import.
//!
//! Interoperability with the wider tooling ecosystem (Qiskit, QASMBench —
//! the suites the paper draws its workloads from): [`to_qasm`] emits any
//! circuit in this stack's gate set; [`from_qasm`] parses the subset of
//! OpenQASM 2.0 those circuits round-trip through (single quantum and
//! classical register, standard-library gates).

use crate::circuit::{Circuit, Clbit, Instruction, OpKind, Qubit};
use crate::gate::Gate;
use std::fmt::Write as _;

/// Serializes a circuit as OpenQASM 2.0.
///
/// Delays become `barrier`-free comments (QASM 2.0 has no timed delay);
/// everything else maps to the standard library.
///
/// # Examples
///
/// ```
/// use qcirc::{qasm, Circuit};
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1).measure_all();
/// let text = qasm::to_qasm(&c);
/// assert!(text.contains("cx q[0], q[1];"));
/// let back = qasm::from_qasm(&text).unwrap();
/// assert_eq!(back, c);
/// ```
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "OPENQASM 2.0;");
    let _ = writeln!(out, "include \"qelib1.inc\";");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    let _ = writeln!(out, "creg c[{}];", circuit.num_clbits());
    for instr in circuit.iter() {
        let qs: Vec<String> = instr
            .qubits
            .iter()
            .map(|q| format!("q[{}]", q.index()))
            .collect();
        match &instr.kind {
            OpKind::Gate(g) => {
                let name = qasm_gate_name(*g);
                let params = g.params();
                if params.is_empty() {
                    let _ = writeln!(out, "{} {};", name, qs.join(", "));
                } else {
                    // Rust's Display prints the shortest exact round-trip form.
                    let ps: Vec<String> = params.iter().map(|p| format!("{p}")).collect();
                    let _ = writeln!(out, "{}({}) {};", name, ps.join(","), qs.join(", "));
                }
            }
            OpKind::Measure(c) => {
                let _ = writeln!(out, "measure {} -> c[{}];", qs[0], c.index());
            }
            OpKind::Reset => {
                let _ = writeln!(out, "reset {};", qs[0]);
            }
            OpKind::Delay(ns) => {
                // QASM 2.0 has no delay; annotate so round-trips warn.
                let _ = writeln!(out, "// delay {ns:.1} ns on {}", qs[0]);
            }
            OpKind::Barrier => {
                let _ = writeln!(out, "barrier {};", qs.join(", "));
            }
        }
    }
    out
}

fn qasm_gate_name(g: Gate) -> &'static str {
    match g {
        Gate::I => "id",
        Gate::X => "x",
        Gate::Y => "y",
        Gate::Z => "z",
        Gate::H => "h",
        Gate::S => "s",
        Gate::Sdg => "sdg",
        Gate::T => "t",
        Gate::Tdg => "tdg",
        Gate::SX => "sx",
        Gate::SXdg => "sxdg",
        Gate::RX(_) => "rx",
        Gate::RY(_) => "ry",
        Gate::RZ(_) => "rz",
        Gate::P(_) => "p",
        Gate::U(..) => "u",
        Gate::CX => "cx",
        Gate::CZ => "cz",
        Gate::Swap => "swap",
    }
}

/// Errors raised by the QASM parser, located by line and column.
#[derive(Debug, Clone, PartialEq)]
pub enum QasmError {
    /// A statement could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the offending token.
        column: usize,
        /// What went wrong.
        message: String,
    },
    /// The file declares something this importer does not support.
    Unsupported {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the construct.
        column: usize,
        /// The unsupported construct.
        construct: String,
    },
    /// A `creg` is wider than the 64-bit outcome word.
    TooManyClbits {
        /// 1-based line number.
        line: usize,
        /// 1-based column of the register name.
        column: usize,
        /// Declared register width.
        requested: usize,
    },
}

impl std::fmt::Display for QasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QasmError::Syntax {
                line,
                column,
                message,
            } => write!(f, "line {line}, column {column}: {message}"),
            QasmError::Unsupported {
                line,
                column,
                construct,
            } => {
                write!(
                    f,
                    "line {line}, column {column}: unsupported construct {construct}"
                )
            }
            QasmError::TooManyClbits {
                line,
                column,
                requested,
            } => write!(
                f,
                "line {line}, column {column}: creg of {requested} bits exceeds {MAX_CLBITS}"
            ),
        }
    }
}

impl std::error::Error for QasmError {}

/// Widest accepted `creg`: the width of [`Counts`](crate::Counts) and of
/// every simulator's outcome word.
const MAX_CLBITS: usize = u64::BITS as usize;

/// Source location of the statement being parsed; locates error tokens by
/// their offset inside the statement slice.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    /// 1-based line number.
    line: usize,
    /// 1-based column where the statement starts.
    col: usize,
    /// The statement slice (tokens passed to error helpers must be
    /// subslices of it for exact columns; anything else falls back to the
    /// statement start).
    stmt: &'a str,
}

impl<'a> Ctx<'a> {
    /// Column of `token` within the source line.
    fn col_of(&self, token: &str) -> usize {
        let base = self.stmt.as_ptr() as usize;
        let tok = token.as_ptr() as usize;
        if tok >= base && tok <= base + self.stmt.len() {
            self.col + (tok - base)
        } else {
            self.col
        }
    }

    fn syntax(&self, token: &str, message: impl Into<String>) -> QasmError {
        QasmError::Syntax {
            line: self.line,
            column: self.col_of(token),
            message: message.into(),
        }
    }

    fn unsupported(&self, token: &str, construct: impl Into<String>) -> QasmError {
        QasmError::Unsupported {
            line: self.line,
            column: self.col_of(token),
            construct: construct.into(),
        }
    }
}

/// Parses the OpenQASM 2.0 subset produced by [`to_qasm`]: one `qreg`,
/// one `creg`, standard-library gates, `measure`, `reset`, `barrier`.
///
/// # Errors
///
/// Returns [`QasmError`] on malformed lines or unsupported constructs
/// (custom gate definitions, conditionals, multiple registers), located
/// by line and column.
pub fn from_qasm(text: &str) -> Result<Circuit, QasmError> {
    let mut circuit: Option<Circuit> = None;
    let mut num_qubits = 0usize;
    let mut num_clbits = 0usize;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = raw.split("//").next().unwrap_or("");
        let mut offset = 0usize;
        for piece_raw in code.split(';') {
            let piece = piece_raw.trim();
            // Column where the trimmed statement starts, 1-based.
            let col = offset + (piece_raw.len() - piece_raw.trim_start().len()) + 1;
            offset += piece_raw.len() + 1; // account for the ';'
            if piece.is_empty() {
                continue;
            }
            let ctx = Ctx {
                line,
                col,
                stmt: piece,
            };
            if piece.starts_with("OPENQASM") || piece.starts_with("include") {
                continue;
            }
            if let Some(rest) = piece.strip_prefix("qreg") {
                num_qubits = parse_reg_size(rest, &ctx)?;
                continue;
            }
            if let Some(rest) = piece.strip_prefix("creg") {
                num_clbits = parse_reg_size(rest, &ctx)?;
                if num_clbits > MAX_CLBITS {
                    return Err(QasmError::TooManyClbits {
                        line,
                        column: ctx.col_of(rest.trim_start()),
                        requested: num_clbits,
                    });
                }
                continue;
            }
            if piece.starts_with("gate ") || piece.starts_with("if") || piece.starts_with("opaque")
            {
                let construct = piece.split_whitespace().next().unwrap_or("?");
                return Err(ctx.unsupported(piece, construct));
            }
            let c = circuit.get_or_insert_with(|| Circuit::with_clbits(num_qubits, num_clbits));
            parse_statement(c, piece, &ctx)?;
        }
    }
    Ok(circuit.unwrap_or_else(|| Circuit::with_clbits(num_qubits, num_clbits)))
}

fn parse_reg_size(rest: &str, ctx: &Ctx<'_>) -> Result<usize, QasmError> {
    let rest = rest.trim();
    let open = rest
        .find('[')
        .ok_or_else(|| ctx.syntax(rest, "expected register size"))?;
    let close = rest
        .find(']')
        .ok_or_else(|| ctx.syntax(rest, "unterminated register size"))?;
    let digits = &rest[open + 1..close];
    digits
        .parse()
        .map_err(|_| ctx.syntax(digits, "bad register size"))
}

fn parse_index(token: &str, ctx: &Ctx<'_>) -> Result<u32, QasmError> {
    let open = token
        .find('[')
        .ok_or_else(|| ctx.syntax(token, format!("expected indexed operand, got {token:?}")))?;
    let close = token
        .find(']')
        .ok_or_else(|| ctx.syntax(token, "unterminated index"))?;
    let digits = &token[open + 1..close];
    digits
        .parse()
        .map_err(|_| ctx.syntax(digits, format!("bad index in {token:?}")))
}

fn parse_statement(c: &mut Circuit, stmt: &str, ctx: &Ctx<'_>) -> Result<(), QasmError> {
    if let Some(rest) = stmt.strip_prefix("measure") {
        let mut parts = rest.split("->");
        let q = parse_index(parts.next().unwrap_or("").trim(), ctx)?;
        let cl = parse_index(parts.next().unwrap_or("").trim(), ctx)?;
        c.try_push(Instruction {
            kind: OpKind::Measure(Clbit::new(cl)),
            qubits: vec![Qubit::new(q)],
        })
        .map_err(|e| ctx.syntax(stmt, e.to_string()))?;
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("reset") {
        let q = parse_index(rest.trim(), ctx)?;
        c.try_push(Instruction {
            kind: OpKind::Reset,
            qubits: vec![Qubit::new(q)],
        })
        .map_err(|e| ctx.syntax(stmt, e.to_string()))?;
        return Ok(());
    }
    if let Some(rest) = stmt.strip_prefix("barrier") {
        let qubits: Result<Vec<Qubit>, QasmError> = rest
            .split(',')
            .map(|t| parse_index(t.trim(), ctx).map(Qubit::new))
            .collect();
        c.try_push(Instruction {
            kind: OpKind::Barrier,
            qubits: qubits?,
        })
        .map_err(|e| ctx.syntax(stmt, e.to_string()))?;
        return Ok(());
    }
    // Gate: name[(params)] operands.
    let (head, operands) = match stmt.find(|ch: char| ch.is_whitespace()) {
        Some(i) => stmt.split_at(i),
        None => return Err(ctx.syntax(stmt, format!("bare statement {stmt:?}"))),
    };
    let (name, params) = match head.find('(') {
        Some(i) => {
            let close = head
                .rfind(')')
                .ok_or_else(|| ctx.syntax(head, "unterminated parameter list"))?;
            let plist = &head[i + 1..close];
            let params: Result<Vec<f64>, _> =
                plist.split(',').map(|p| p.trim().parse::<f64>()).collect();
            (
                &head[..i],
                params.map_err(|_| ctx.syntax(plist, "bad gate parameter"))?,
            )
        }
        None => (head, Vec::new()),
    };
    let qubits: Result<Vec<u32>, QasmError> = operands
        .split(',')
        .map(|t| parse_index(t.trim(), ctx))
        .collect();
    let qubits = qubits?;
    let gate =
        gate_from_name(name, &params).ok_or_else(|| ctx.unsupported(name, name.to_string()))?;
    c.try_push(Instruction::gate(
        gate,
        qubits.into_iter().map(Qubit::new).collect(),
    ))
    .map_err(|e| ctx.syntax(stmt, e.to_string()))
}

fn gate_from_name(name: &str, params: &[f64]) -> Option<Gate> {
    let g = match (name, params) {
        ("id", []) => Gate::I,
        ("x", []) => Gate::X,
        ("y", []) => Gate::Y,
        ("z", []) => Gate::Z,
        ("h", []) => Gate::H,
        ("s", []) => Gate::S,
        ("sdg", []) => Gate::Sdg,
        ("t", []) => Gate::T,
        ("tdg", []) => Gate::Tdg,
        ("sx", []) => Gate::SX,
        ("sxdg", []) => Gate::SXdg,
        ("rx", [t]) => Gate::RX(*t),
        ("ry", [t]) => Gate::RY(*t),
        ("rz", [t]) => Gate::RZ(*t),
        ("p", [t]) | ("u1", [t]) => Gate::P(*t),
        ("u", [t, p, l]) | ("u3", [t, p, l]) => Gate::U(*t, *p, *l),
        ("cx", []) => Gate::CX,
        ("cz", []) => Gate::CZ,
        ("swap", []) => Gate::Swap,
        _ => return None,
    };
    Some(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0)
            .t(1)
            .rz(0.375, 2)
            .cx(0, 1)
            .cz(1, 2)
            .swap(0, 2)
            .barrier(&[0, 1])
            .measure(0, 0)
            .measure(1, 2);
        c
    }

    #[test]
    fn roundtrip_preserves_circuit_exactly() {
        let c = sample();
        let text = to_qasm(&c);
        let back = from_qasm(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn header_and_registers_emitted() {
        let text = to_qasm(&sample());
        assert!(text.starts_with("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("creg c[3];"));
    }

    #[test]
    fn parameterized_gates_roundtrip_with_precision() {
        let mut c = Circuit::new(1);
        c.rz(std::f64::consts::PI / 7.0, 0)
            .rx(-1.25, 0)
            .gate(Gate::U(0.1, 0.2, 0.3), &[0]);
        let back = from_qasm(&to_qasm(&c)).unwrap();
        for (a, b) in c.iter().zip(back.iter()) {
            match (a.as_gate(), b.as_gate()) {
                (Some(ga), Some(gb)) => {
                    for (pa, pb) in ga.params().iter().zip(gb.params().iter()) {
                        assert!((pa - pb).abs() < 1e-10);
                    }
                }
                other => panic!("gate mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn parses_qiskit_style_u1_u3_aliases() {
        let text = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nu1(0.5) q[0];\nu3(0.1,0.2,0.3) q[0];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.len(), 2);
        assert!(
            matches!(c.instructions()[0].as_gate(), Some(Gate::P(t)) if (t - 0.5).abs() < 1e-12)
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "OPENQASM 2.0;\n// a comment\nqreg q[2];\ncreg c[2];\n\nh q[0]; // trailing\ncx q[0], q[1];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn unsupported_constructs_reported_with_line_and_column() {
        let text = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\ngate foo a { x a; }\n";
        match from_qasm(text).unwrap_err() {
            QasmError::Unsupported {
                line,
                column,
                construct,
            } => {
                assert_eq!(line, 4);
                assert_eq!(column, 1);
                assert_eq!(construct, "gate");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn syntax_errors_reported_with_line() {
        let text = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\ncx q[0] q[1];\n";
        assert!(matches!(
            from_qasm(text),
            Err(QasmError::Syntax { line: 4, .. })
        ));
    }

    #[test]
    fn bad_operand_column_points_at_token() {
        // `q1` (no index) starts at column 4 of line 4.
        let text = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\ncx q1, q[1];\n";
        match from_qasm(text).unwrap_err() {
            QasmError::Syntax {
                line,
                column,
                message,
            } => {
                assert_eq!(line, 4);
                assert_eq!(column, 4);
                assert!(message.contains("indexed operand"), "{message}");
            }
            other => panic!("expected Syntax, got {other:?}"),
        }
    }

    #[test]
    fn bad_index_column_points_at_digits() {
        // The non-numeric index `xx` starts at column 5 of line 4.
        let text = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[xx];\n";
        match from_qasm(text).unwrap_err() {
            QasmError::Syntax { line, column, .. } => {
                assert_eq!(line, 4);
                assert_eq!(column, 5);
            }
            other => panic!("expected Syntax, got {other:?}"),
        }
    }

    #[test]
    fn bad_register_size_located() {
        // `banana` starts at column 8 of line 2.
        let text = "OPENQASM 2.0;\nqreg q[banana];\n";
        match from_qasm(text).unwrap_err() {
            QasmError::Syntax {
                line,
                column,
                message,
            } => {
                assert_eq!(line, 2);
                assert_eq!(column, 8);
                assert_eq!(message, "bad register size");
            }
            other => panic!("expected Syntax, got {other:?}"),
        }
    }

    #[test]
    fn creg_wider_than_the_outcome_word_is_rejected() {
        let text = "qreg q[1]; creg c[70]; x q[0]; measure q[0] -> c[69];";
        assert_eq!(
            from_qasm(text).unwrap_err(),
            QasmError::TooManyClbits {
                line: 1,
                column: 17,
                requested: 70
            }
        );
        let text = "qreg q[1]; creg c[64]; x q[0]; measure q[0] -> c[63];";
        assert_eq!(from_qasm(text).unwrap().num_clbits(), 64);
    }

    #[test]
    fn unterminated_parameter_list_located() {
        let text = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nrz(0.5 q[0];\n";
        match from_qasm(text).unwrap_err() {
            QasmError::Syntax {
                line,
                column,
                message,
            } => {
                assert_eq!(line, 4);
                assert_eq!(column, 1);
                assert_eq!(message, "unterminated parameter list");
            }
            other => panic!("expected Syntax, got {other:?}"),
        }
    }

    #[test]
    fn unknown_gate_column_points_at_name() {
        // Statement starts mid-line after a prior statement on line 4.
        let text = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0]; warp q[1];\n";
        match from_qasm(text).unwrap_err() {
            QasmError::Unsupported {
                line,
                column,
                construct,
            } => {
                assert_eq!(line, 4);
                assert_eq!(column, 9);
                assert_eq!(construct, "warp");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn error_display_includes_line_and_column() {
        let err = from_qasm("OPENQASM 2.0;\nqreg q[banana];\n").unwrap_err();
        assert_eq!(err.to_string(), "line 2, column 8: bad register size");
    }

    #[test]
    fn out_of_range_operand_rejected() {
        let text = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[5];\n";
        assert!(from_qasm(text).is_err());
    }

    #[test]
    fn semantics_preserved_through_roundtrip() {
        let c = benchmarks_shape();
        let back = from_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(c, back);
    }

    fn benchmarks_shape() -> Circuit {
        // A QFT-like circuit with every gate family.
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
            c.p(0.3 * (q as f64 + 1.0), q);
        }
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        c.sx(0).sdg(1).tdg(2).y(3);
        c.measure_all();
        c
    }
}
