//! ADAPT on an unreliable machine: the Guadalupe-16 model behind seeded
//! fault injection (the `lossy` profile: ≥10% transient job failures,
//! timeouts, truncated shot batches, readout dropouts, and one mid-run
//! calibration-staleness event) with automatic retry/backoff.
//!
//! The pipeline completes anyway — neighborhoods whose decoy runs outlast
//! the retry budget degrade to all-DD instead of aborting — and the
//! example ends with the retry/degradation ledger.
//!
//! ```sh
//! cargo run --release --example faulty_backend
//! ```

use adapt_suite::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2021;
    let machine = Machine::new(Device::ibmq_guadalupe(seed));
    println!("machine: {}", machine.device());

    // Wrap the machine in a deterministic fault injector, then wrap THAT
    // in the retrying executor. Keeping our own handle to the executor
    // lets us read its fault ledger after the run.
    let profile = FaultProfile::lossy();
    println!(
        "faults:  lossy ({}% job failures, {}% timeouts, {}% truncated batches)",
        (profile.transient_failure * 100.0) as u32,
        (profile.timeout * 100.0) as u32,
        (profile.shot_truncation * 100.0) as u32,
    );
    let faulty = FaultyBackend::new(machine, profile, seed ^ 0xFA17);
    let exec = Arc::new(ResilientExecutor::with_policy(
        Arc::new(faulty),
        RetryPolicy { max_attempts: 6 },
    ));
    let framework = Adapt::with_backend(exec.clone());

    let program = benchmarks::qft_bench(5, 3);
    println!(
        "program: QFT-5, {} gates, depth {}\n",
        program.gate_count(),
        program.depth()
    );

    let cfg = AdaptConfig::default();
    for policy in [Policy::NoDd, Policy::AllDd, Policy::Adapt] {
        let run = framework.run_policy(&program, policy, &cfg)?;
        println!(
            "{:12}  fidelity {:.3}   mask {}   ({} DD pulses, {} decoy runs)",
            run.policy.to_string(),
            run.fidelity,
            run.mask,
            run.pulse_count,
            run.search_runs,
        );
        for group in &run.degraded {
            println!("              [degraded] {group}");
        }
    }

    let stats = exec.stats();
    println!("\n== retry/degradation summary ==");
    println!("{stats}");
    println!(
        "({} requests took {} attempts; {:.0} ms of backoff charged)",
        stats.requests, stats.attempts, stats.total_backoff_ms
    );
    Ok(())
}
