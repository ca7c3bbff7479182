//! **Fig. 8** — Application fidelity of QFT-6 and BV-6 on IBMQ-Toronto
//! under *every* DD mask (all 64 combinations). Shows the paper's central
//! observation: neither "no DD" (000000) nor "DD on all" (111111) is
//! optimal, and the best mask is workload-specific.

use crate::report::{Csv, Table};
use crate::runner::{real_fidelities, ExperimentCfg};
use adapt::{Adapt, DdMask};
use benchmarks::{bernstein_vazirani, qft_bench};
use device::{Device, SeedSpawner};
use machine::Machine;

/// Runs the experiment.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Fig 8: all 64 DD masks for QFT-6 and BV-6 (Toronto) ==");
    let spawner = SeedSpawner::new(cfg.seed ^ 0xF168);
    let dev = Device::ibmq_toronto(cfg.seed);
    let adapt = Adapt::new(Machine::new(dev));
    let acfg = cfg.adapt_cfg(adapt::DdProtocol::Xy4, spawner.derive(3));

    let workloads = [
        ("QFT-6", qft_bench(6, 5)),
        ("BV-6", bernstein_vazirani(6, 0b10110)),
    ];
    let mut csv = Csv::create(&cfg.out_dir(), "fig08", &["mask", "workload", "fidelity"]);
    let mut summary = Table::new(&[
        "workload",
        "baseline",
        "all-DD",
        "best mask",
        "best",
        "all-DD rel",
        "best rel",
    ]);
    // Sweep at search budget (64 runs per workload), mirroring the paper's
    // per-mask executions.
    let masks = DdMask::enumerate_all(6);
    for (name, circuit) in workloads {
        let compiled = adapt.compile(&circuit, &acfg);
        let ideal = adapt.ideal_output(&circuit).expect("ideal");
        let real = real_fidelities(&adapt, &compiled, &ideal, &acfg, &masks);
        let fids: Vec<(DdMask, f64)> = masks.iter().copied().zip(real).collect();
        for (mask, f) in &fids {
            csv.rowd(&[&mask.bits(), &name, f]);
        }
        let baseline = fids[0].1;
        let all_dd = fids[63].1;
        let (best_mask, best) = fids
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .copied()
            .expect("64 masks");
        summary.row_owned(vec![
            name.to_string(),
            format!("{baseline:.3}"),
            format!("{all_dd:.3}"),
            best_mask.to_string(),
            format!("{best:.3}"),
            format!("{:.2}x", all_dd / baseline.max(1e-4)),
            format!("{:.2}x", best / baseline.max(1e-4)),
        ]);
    }
    summary.print();
    csv.flush().expect("write fig08.csv");
}
