//! Calibration-only DD mask heuristic — the zero-decoy tier-0 answer.
//!
//! ADAPT's decoy search (§4) finds the best mask but costs up to 4·N
//! decoy executions, far too slow for a cold cache miss under a tight
//! serving deadline. Calibration data alone, however, already predicts
//! *where* DD helps: a qubit benefits from decoupling when it idles for
//! a significant fraction of its dephasing time. That is the insertion
//! strategy studied by Niu & Todri-Sanial (arXiv:2204.14251): gate each
//! qubit on its `T_idle/T2` ratio.
//!
//! [`heuristic_mask`] reproduces that gate as a deterministic
//! `O(qubits)` pass over the compiled schedule and the device
//! calibration — no execution, no randomness, no search. Program qubit
//! `p` (on physical wire `layout.phys_of(p)`) gets DD exactly when its
//! DD-eligible idle time (interior + trailing windows of at least 1 ns,
//! the same windows [`insert_dd`](crate::dd::insert_dd) would pad) is at
//! least 0.001 of the wire's `T2`: a qubit idling for ≥ 0.1 % of its
//! dephasing time is worth decoupling. Qubits that barely idle, or idle
//! only in leading `|0⟩` windows, gain nothing from pulses.
//!
//! The result is strictly better than the all-DD fallback a deadline
//! would otherwise force — it never pulses a qubit with no eligible
//! idle window — and is served by the mask service as
//! [`Provenance::Heuristic`](../../adapt_service/enum.Provenance.html)
//! whenever the deadline cannot fit a search.

use crate::gst::GateSequenceTable;
use crate::DdMask;
use device::Device;
use transpiler::TranspiledCircuit;

/// Minimum `T_idle/T2` ratio for applying DD to a qubit (0.001 in the
/// insertion-strategy study).
const T2_THRESHOLD_RATIO: f64 = 0.001;

/// Idle windows shorter than this (ns) are ignored when summing a wire's
/// DD-eligible idle time — too short to host even one pulse pair.
const MIN_IDLE_WINDOW_NS: f64 = 1.0;

/// Per-qubit evidence behind one heuristic decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QubitAssessment {
    /// Program qubit index.
    pub program_qubit: u32,
    /// Physical wire hosting it (initial layout).
    pub physical_qubit: u32,
    /// DD-eligible idle time (ns) on the wire.
    pub idle_ns: f64,
    /// `T_idle/T2` ratio the idle-ratio gate compared.
    pub idle_t2_ratio: f64,
    /// Whether the qubit made it into the mask.
    pub dd: bool,
}

/// A heuristic mask with its per-qubit evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicMask {
    /// The selected program-qubit mask.
    pub mask: DdMask,
    /// One assessment per program qubit, in qubit order.
    pub assessments: Vec<QubitAssessment>,
}

/// Computes the tier-0 mask for `compiled` on `device` (see module
/// docs). Deterministic: the result is a pure function of the compiled
/// schedule and the device calibration, so two runs — or two replicas —
/// always agree bit-for-bit.
pub fn heuristic_mask(
    compiled: &TranspiledCircuit,
    device: &Device,
    num_program_qubits: usize,
) -> HeuristicMask {
    let gst = GateSequenceTable::build(&compiled.timed);
    let cal = device.calibration();
    let topo = device.topology();
    let mut mask = DdMask::none(num_program_qubits);
    let mut assessments = Vec::with_capacity(num_program_qubits);
    for p in 0..num_program_qubits as u32 {
        let q = compiled.initial_layout.phys_of(p);
        let idle_ns: f64 = gst
            .dd_eligible_windows(q, MIN_IDLE_WINDOW_NS)
            .iter()
            .map(|w| w.duration_ns())
            .sum();
        let t2_ns = cal.qubit(q).t2_us * 1_000.0;
        let idle_t2_ratio = if t2_ns > 0.0 { idle_ns / t2_ns } else { 0.0 };
        debug_assert!(q < topo.num_qubits() as u32, "layout maps inside topology");
        let dd = idle_t2_ratio >= T2_THRESHOLD_RATIO;
        if dd {
            mask = mask.with(p as usize, true);
        }
        assessments.push(QubitAssessment {
            program_qubit: p,
            physical_qubit: q,
            idle_ns,
            idle_t2_ratio,
            dd,
        });
    }
    HeuristicMask { mask, assessments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transpiler::{transpile, TranspileOptions};

    fn compiled_on(dev: &Device, c: &qcirc::Circuit) -> TranspiledCircuit {
        transpile(c, dev, &TranspileOptions::default())
    }

    /// A GHZ chain leaves early qubits idling while the entanglement
    /// front moves on — the classic ADAPT victim circuit.
    fn ghz(n: usize) -> qcirc::Circuit {
        let mut c = qcirc::Circuit::new(n);
        c.h(0);
        for q in 0..n as u32 - 1 {
            c.cx(q, q + 1);
        }
        c.measure_all();
        c
    }

    #[test]
    fn idle_heavy_qubits_get_dd_and_busy_ones_do_not() {
        let dev = Device::ibmq_guadalupe(7);
        let c = ghz(6);
        let h = heuristic_mask(&compiled_on(&dev, &c), &dev, 6);
        assert_eq!(h.mask.num_qubits(), 6);
        assert!(
            h.mask.count_ones() >= 1,
            "a GHZ chain idles long enough for the default ratio gate: {:?}",
            h.assessments
        );
        // Evidence rows agree with the mask bit for bit.
        for a in &h.assessments {
            assert_eq!(h.mask.is_set(a.program_qubit as usize), a.dd);
            assert_eq!(a.dd, a.idle_t2_ratio >= T2_THRESHOLD_RATIO);
            assert!(a.idle_ns >= 0.0 && a.idle_t2_ratio >= 0.0);
        }
    }

    #[test]
    fn is_deterministic() {
        let dev = Device::ibmq_toronto(3);
        let c = ghz(5);
        let a = heuristic_mask(&compiled_on(&dev, &c), &dev, 5);
        let b = heuristic_mask(&compiled_on(&dev, &c), &dev, 5);
        assert_eq!(a, b);
    }
}
