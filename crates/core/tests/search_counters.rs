//! The process-wide `adapt_search_decoy_runs_{scored,unavailable}_total`
//! counters account for every decoy run a search reports, the referee's
//! included, and program-side sweeps (the Runtime-Best oracle) touch
//! neither.
//!
//! The counters live in the global registry, so this file holds a single
//! test: its own binary, with no other test moving the counters.

use adapt::{Adapt, AdaptConfig, Policy};
use machine::{Backend, ExecutionConfig, FaultProfile, FaultyBackend, Machine};
use std::sync::Arc;

#[test]
fn decoy_run_counters_equal_the_searches_decoy_runs() {
    let registry = adapt_obs::global();
    let scored = registry.counter("adapt_search_decoy_runs_scored_total");
    let unavailable = registry.counter("adapt_search_decoy_runs_unavailable_total");
    let cfg = AdaptConfig {
        search_exec: ExecutionConfig {
            shots: 128,
            trajectories: 4,
            seed: 0xC0C0,
            threads: 1,
        },
        final_exec: ExecutionConfig {
            shots: 128,
            trajectories: 4,
            seed: 0xF1F1,
            threads: 1,
        },
        ..AdaptConfig::default()
    };
    let device = device::Device::ibmq_guadalupe(5);
    // A pristine machine, and a flaky backend with no retry layer, whose
    // transient failures reach the search as unavailable runs.
    let backends: [Arc<dyn Backend>; 2] = [
        Arc::new(Machine::new(device.clone())),
        Arc::new(FaultyBackend::new(
            Machine::new(device),
            FaultProfile::flaky(),
            0xF1A4,
        )),
    ];
    let (scored_before, unavailable_before) = (scored.get(), unavailable.get());
    let (mut evaluations, mut lost) = (0, 0);
    for backend in backends {
        let adapt = Adapt::with_backend(backend);
        for name in ["QFT-5", "BV-7"] {
            let program = benchmarks::suite::by_name(name).expect("suite program");
            let compiled = adapt.compile(&program.circuit, &cfg);
            let result = adapt
                .choose_mask(&compiled, program.num_qubits, &cfg)
                .expect("search");
            evaluations += result.evaluations.len() as u64;
            lost += result.unavailable_runs as u64;
        }
    }
    assert!(lost > 0, "the flaky backend lost some decoy runs");
    assert_eq!(scored.get() - scored_before, evaluations);
    assert_eq!(unavailable.get() - unavailable_before, lost);

    // The oracle sweeps the program itself: no decoy runs.
    let adapt = Adapt::new(Machine::new(device::Device::ibmq_rome(5)));
    let program = benchmarks::suite::by_name("Adder").expect("suite program");
    let (scored_before, unavailable_before) = (scored.get(), unavailable.get());
    let run = adapt
        .run_policy(&program.circuit, Policy::RuntimeBest, &cfg)
        .expect("oracle");
    assert_eq!(run.search_runs, 16);
    assert_eq!(scored.get(), scored_before);
    assert_eq!(unavailable.get(), unavailable_before);
}
