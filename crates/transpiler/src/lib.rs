//! # transpiler — NISQ compilation pipeline
//!
//! Lowers logical circuits to hardware-executable, timestamped programs:
//!
//! 1. [`decompose`]: rewrite into the IBMQ physical basis {RZ, SX, X, CX};
//! 2. [`layout`]: noise-adaptive initial placement (Murali et al. style);
//! 3. [`route`](mod@route): SABRE-style SWAP insertion for restricted connectivity;
//! 4. [`optimize`]: peephole cancellation (RZ merging, X·X / CX·CX);
//! 5. [`schedule`](mod@schedule): ASAP/ALAP timestamps from per-link calibration
//!    latencies, producing the [`TimedCircuit`] that ADAPT's Gate Sequence
//!    Table is built from.
//!
//! # Examples
//!
//! ```
//! use device::Device;
//! use qcirc::Circuit;
//! use transpiler::{transpile, TranspileOptions};
//!
//! let mut c = Circuit::new(3);
//! c.h(0).cx(0, 2).measure_all();
//! let dev = Device::ibmq_guadalupe(42);
//! let t = transpile(&c, &dev, &TranspileOptions::default());
//! assert!(t.timed.total_ns() > 0.0);
//! // Every two-qubit gate respects device coupling.
//! for e in t.timed.events() {
//!     if e.instr.is_two_qubit_gate() {
//!         let a = e.instr.qubits[0].index() as u32;
//!         let b = e.instr.qubits[1].index() as u32;
//!         assert!(dev.topology().are_connected(a, b));
//!     }
//! }
//! ```

#![warn(missing_docs)]

pub mod decompose;
pub mod layout;
pub mod optimize;
pub mod route;
pub mod schedule;

pub use decompose::decompose_circuit;
pub use layout::{noise_adaptive_layout, Layout};
pub use optimize::optimize_circuit;
pub use route::{route, RoutedCircuit};
pub use schedule::{
    schedule, try_schedule, IdleKind, IdleWindow, ScheduleError, SchedulePolicy, TimedCircuit,
    TimedInstruction,
};

use device::Device;
use qcirc::Circuit;

/// Initial-placement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutStrategy {
    /// Program qubit `i` on physical qubit `i`.
    Trivial,
    /// Error-aware greedy placement (the paper's compile configuration).
    #[default]
    NoiseAdaptive,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TranspileOptions {
    /// Placement strategy.
    pub layout: LayoutStrategy,
    /// Scheduling direction (ALAP by default, as in §2.4).
    pub scheduling: SchedulePolicy,
    /// Skip the peephole optimizer (kept on by default).
    pub skip_optimization: bool,
}

/// A compiled program: physical, optimized, timestamped.
#[derive(Debug, Clone)]
pub struct TranspiledCircuit {
    /// The physical circuit in program order.
    pub circuit: Circuit,
    /// Timestamped schedule of the same instructions.
    pub timed: TimedCircuit,
    /// Placement before the first instruction.
    pub initial_layout: Layout,
    /// Placement after the last instruction.
    pub final_layout: Layout,
    /// SWAPs inserted during routing.
    pub swap_count: usize,
}

/// Runs the full pipeline.
///
/// # Panics
///
/// Panics when the circuit does not fit on the device.
pub fn transpile(
    circuit: &Circuit,
    device: &Device,
    options: &TranspileOptions,
) -> TranspiledCircuit {
    let decomposed = decompose_circuit(circuit);
    let initial = match options.layout {
        LayoutStrategy::Trivial => Layout::trivial(decomposed.num_qubits()),
        LayoutStrategy::NoiseAdaptive => noise_adaptive_layout(&decomposed, device),
    };
    let routed = route(&decomposed, device, initial);
    let physical = if options.skip_optimization {
        routed.circuit
    } else {
        optimize_circuit(&routed.circuit)
    };
    let timed = schedule(&physical, device, options.scheduling);
    TranspiledCircuit {
        circuit: physical,
        timed,
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        swap_count: routed.swap_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::Device;

    fn bv(n: usize, secret: u64) -> Circuit {
        let mut c = Circuit::new(n);
        let anc = (n - 1) as u32;
        c.x(anc).h(anc);
        for q in 0..anc {
            c.h(q);
        }
        for q in 0..anc {
            if secret >> q & 1 == 1 {
                c.cx(q, anc);
            }
        }
        for q in 0..anc {
            c.h(q);
            c.measure(q, q);
        }
        c
    }

    #[test]
    fn full_pipeline_preserves_bv_answer() {
        let dev = Device::ibmq_guadalupe(3);
        let secret = 0b01101u64;
        let c = bv(6, secret);
        let t = transpile(&c, &dev, &TranspileOptions::default());
        let dist = statevec::ideal_distribution(&t.circuit).unwrap();
        // BV answers its secret deterministically.
        assert_eq!(dist.len(), 1);
        assert!((dist[&secret] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pipeline_respects_coupling_with_all_strategies() {
        let dev = Device::ibmq_rome(2);
        let c = bv(5, 0b1011);
        for layout in [LayoutStrategy::Trivial, LayoutStrategy::NoiseAdaptive] {
            for scheduling in [SchedulePolicy::Asap, SchedulePolicy::Alap] {
                let t = transpile(
                    &c,
                    &dev,
                    &TranspileOptions {
                        layout,
                        scheduling,
                        skip_optimization: false,
                    },
                );
                for e in t.timed.events() {
                    if e.instr.is_two_qubit_gate() {
                        let a = e.instr.qubits[0].index() as u32;
                        let b = e.instr.qubits[1].index() as u32;
                        assert!(dev.topology().are_connected(a, b));
                    }
                }
            }
        }
    }

    #[test]
    fn optimization_shrinks_routed_circuits() {
        let dev = Device::ibmq_rome(2);
        let c = bv(5, 0b1111);
        let unopt = transpile(
            &c,
            &dev,
            &TranspileOptions {
                skip_optimization: true,
                ..Default::default()
            },
        );
        let opt = transpile(&c, &dev, &TranspileOptions::default());
        assert!(opt.circuit.len() <= unopt.circuit.len());
    }

    #[test]
    fn swaps_make_programs_longer_than_all_to_all() {
        // Fig 3b's premise: restricted connectivity inflates duration.
        let line = Device::ibmq_rome(1);
        let full = Device::all_to_all(5, 1);
        let c = bv(5, 0b1111);
        let t_line = transpile(&c, &line, &TranspileOptions::default());
        let t_full = transpile(&c, &full, &TranspileOptions::default());
        assert!(t_line.swap_count > 0);
        assert_eq!(t_full.swap_count, 0);
        assert!(t_line.timed.total_ns() > t_full.timed.total_ns());
    }

    #[test]
    fn qubits_idle_substantially_on_real_programs() {
        // Table 1's observation: "qubits remain idle on an average more
        // than 50% of the time".
        let dev = Device::ibmq_rome(4);
        let c = bv(5, 0b1011);
        let t = transpile(&c, &dev, &TranspileOptions::default());
        let phys: Vec<u32> = (0..5u32).map(|p| t.initial_layout.phys_of(p)).collect();
        let mean_idle: f64 = phys.iter().map(|&q| t.timed.idle_fraction(q)).sum::<f64>() / 5.0;
        assert!(mean_idle > 0.3, "mean idle fraction {mean_idle}");
    }
}
