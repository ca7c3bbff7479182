//! Runs the serving-stack scenarios (see `bench_harness::scenario`):
//! `scenarios [--quick] [--seed N] [--faults NAME] [name…]`, where each
//! name is one of `service`, `chaos`, `tiered`, `tenancy`, `fleet`,
//! `crash`; no name runs all six. Exits nonzero when a scenario's
//! invariant breaks, and with status 2 on bad arguments.
use bench_harness::runner::ExperimentCfg;
use bench_harness::scenario::ALL;

fn main() {
    let (names, flags): (Vec<String>, Vec<String>) = std::env::args()
        .skip(1)
        .partition(|a| ALL.iter().any(|(name, _)| name == a));
    let cfg = ExperimentCfg::parse(flags).unwrap_or_else(|msg| {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "error: {msg}\nscenario names: {}\n{}",
            names.join(", "),
            ExperimentCfg::USAGE
        );
        std::process::exit(2);
    });
    for (name, run) in ALL {
        if names.is_empty() || names.iter().any(|n| n == name) {
            run(&cfg);
        }
    }
}
