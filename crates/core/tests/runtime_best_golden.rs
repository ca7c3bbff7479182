//! Golden pins of the Runtime-Best oracle (`Policy::RuntimeBest`).
//!
//! The oracle sweeps every mask of a small program on the program
//! itself at the search budget, keeps the first best score, and re-runs
//! the winner at the final budget. Each case pins the chosen mask, the
//! bits of its final fidelity and the sweep's `search_runs`, on a
//! pristine `Machine` and behind `ResilientExecutor(FaultyBackend)` with
//! the flaky profile (whose faults follow each run's address, so the
//! pin also fixes which runs fail and are retried under fresh seeds).
//!
//! A mismatch means the oracle's answer changed: fix the code, do not
//! re-pin.

use adapt::{Adapt, AdaptConfig, Policy};
use device::Device;
use machine::{ExecutionConfig, FaultProfile, FaultyBackend, Machine, ResilientExecutor};
use std::sync::Arc;

fn cfg() -> AdaptConfig {
    AdaptConfig {
        search_exec: ExecutionConfig {
            shots: 256,
            trajectories: 8,
            seed: 0x0AC1E,
            threads: 1,
        },
        final_exec: ExecutionConfig {
            shots: 512,
            trajectories: 16,
            seed: 0xF1A1,
            threads: 1,
        },
        ..AdaptConfig::default()
    }
}

const PROGRAMS: [&str; 2] = ["Adder", "QFT-5"];

fn devices() -> [Device; 2] {
    [Device::ibmq_guadalupe(21), Device::ibmq_toronto(21)]
}

/// `(mask bits, fidelity bits, search_runs)` per program × device, in
/// `PROGRAMS`-major order.
fn sweep(make: impl Fn(Device) -> Adapt) -> Vec<(u64, u64, usize)> {
    let mut out = Vec::new();
    for name in PROGRAMS {
        let bench = benchmarks::suite::by_name(name).expect("suite program");
        for device in devices() {
            let run = make(device)
                .run_policy(&bench.circuit, Policy::RuntimeBest, &cfg())
                .expect("Runtime-Best run");
            assert_eq!(run.policy, Policy::RuntimeBest);
            out.push((run.mask.bits(), run.fidelity.to_bits(), run.search_runs));
        }
    }
    out
}

#[test]
fn runtime_best_on_a_pristine_machine_is_pinned() {
    let got = sweep(|device| Adapt::new(Machine::new(device)));
    let golden = [
        (0b0110, 0x3fe3_1fff_ffff_fffe, 16),
        (0b0011, 0x3fe4_8fff_ffff_fffe, 16),
        (0b1_0011, 0x3fd9_9fff_ffff_fff4, 32),
        (0b1_0110, 0x3fd3_9fff_ffff_fff4, 32),
    ];
    assert_eq!(got, golden, "Runtime-Best answers changed: {got:#x?}");
}

#[test]
fn runtime_best_behind_flaky_retries_is_pinned() {
    let got = sweep(|device| {
        let faulty = FaultyBackend::new(Machine::new(device), FaultProfile::flaky(), 0xF1A4);
        Adapt::with_backend(Arc::new(ResilientExecutor::new(Arc::new(faulty))))
    });
    let golden = [
        (0b0010, 0x3fe1_afff_ffff_fffe, 16),
        (0b0011, 0x3fe4_8fff_ffff_fffe, 16),
        (0b1_0011, 0x3fd9_9fff_ffff_fff4, 32),
        (0b1_0111, 0x3fe3_4fff_ffff_fffa, 32),
    ];
    assert_eq!(got, golden, "Runtime-Best answers changed: {got:#x?}");
}
