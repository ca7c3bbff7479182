//! Helpers for the single-qubit characterization experiments (§3, §6.4):
//! schedule an idle-probe circuit, optionally splice a DD sequence into
//! the probe's idle window, execute, and report the survival probability
//! of the correct (all-zeros) outcome.

use adapt::dd::{insert_dd, DdConfig};
use machine::{ExecutionConfig, Machine};
use qcirc::Circuit;
use transpiler::{decompose_circuit, schedule, SchedulePolicy};

/// Runs a characterization circuit on the machine and returns the
/// probability of the ideal outcome `0` (probe fidelity).
///
/// The circuit is decomposed and ASAP-scheduled (ASAP keeps the prepared
/// state exposed during the idle window). With `dd`, that DD sequence is
/// inserted into every eligible idle window of `probe_wire` before
/// execution; without it the probe evolves freely.
///
/// # Panics
///
/// Panics on executor errors (probe circuits are tiny and valid).
pub fn probe_fidelity(
    machine: &Machine,
    circuit: &Circuit,
    probe_wire: u32,
    dd: Option<DdConfig>,
    exec: &ExecutionConfig,
) -> f64 {
    let physical = decompose_circuit(circuit);
    let mut timed = schedule(&physical, machine.device(), SchedulePolicy::Asap);
    if let Some(dd) = dd {
        timed = insert_dd(&timed, machine.device(), &[probe_wire], &dd).timed;
    }
    let counts = machine
        .execute_timed(&timed, exec)
        .expect("probe execution");
    counts.probability(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::characterization::idle_probe;
    use device::Device;

    #[test]
    fn dd_probe_beats_free_probe_on_long_idle() {
        let machine = Machine::new(Device::ibmq_london(3));
        let c = idle_probe(5, 0, std::f64::consts::FRAC_PI_2, 12_000.0);
        let exec = ExecutionConfig {
            shots: 1500,
            trajectories: 60,
            seed: 9,
            threads: 1,
        };
        let free = probe_fidelity(&machine, &c, 0, None, &exec);
        let xy4 = DdConfig::for_protocol(adapt::DdProtocol::Xy4);
        let dd = probe_fidelity(&machine, &c, 0, Some(xy4), &exec);
        assert!(dd > free, "XY4 {dd} must beat free {free} at 12µs idle");
    }
}
