//! **Ablation: decoy construction** — CDC vs CNOT-only vs SDC with
//! varying seed budgets: correlation with the real circuit and entropy of
//! the decoy's ideal output (§4.2.3's motivation for seeding).

use crate::report::{Csv, Table};
use crate::runner::{fidelities, real_fidelities, ExperimentCfg};
use adapt::decoy::{make_decoy, DecoyKind};
use adapt::search::SearchContext;
use adapt::{metrics, Adapt, DdMask};
use benchmarks::suite::by_name;
use device::{Device, SeedSpawner};
use machine::Machine;

/// Runs the ablation.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Ablation: decoy kinds (QFT-6A on Paris) ==");
    let spawner = SeedSpawner::new(cfg.seed ^ 0xAB1C);
    let dev = Device::ibmq_paris(cfg.seed);
    let machine = Machine::new(dev);
    let adapt = Adapt::new(machine.clone());
    let bench = by_name("QFT-6A").expect("QFT-6A exists");
    let acfg = cfg.adapt_cfg(adapt::DdProtocol::Xy4, spawner.derive(1));
    let compiled = adapt.compile(&bench.circuit, &acfg);
    let ideal = adapt.ideal_output(&bench.circuit).expect("ideal");

    // Real-circuit fidelity per mask (reference ranking).
    let masks = DdMask::enumerate_all(6);
    let real = real_fidelities(&adapt, &compiled, &ideal, &acfg, &masks);

    let kinds = [
        ("CDC (all Clifford)", DecoyKind::Clifford),
        ("CNOT-only", DecoyKind::CnotOnly),
        ("SDC, 2 seeds", DecoyKind::Seeded { max_seed_qubits: 2 }),
        ("SDC, 4 seeds", DecoyKind::Seeded { max_seed_qubits: 4 }),
        ("SDC, 6 seeds", DecoyKind::Seeded { max_seed_qubits: 6 }),
    ];
    let mut table = Table::new(&["decoy", "spearman", "output entropy (bits)", "seeds kept"]);
    let mut csv = Csv::create(
        &cfg.out_dir(),
        "ablation_decoy",
        &["decoy", "spearman", "entropy_bits", "non_clifford"],
    );
    for (label, kind) in kinds {
        let decoy = make_decoy(&compiled.timed, kind).expect("decoy");
        let ctx = SearchContext::new(
            &machine,
            machine.device().clone(),
            &decoy,
            &compiled.initial_layout,
            acfg.dd,
            // Decorrelate decoy noise realizations from the real sweeps.
            machine::ExecutionConfig {
                seed: acfg.search_exec.seed ^ 0x5EED_DEC0,
                ..acfg.search_exec
            },
            6,
        );
        let rho = metrics::spearman(&real, &fidelities(&ctx, &masks));
        let entropy = metrics::entropy_bits(&decoy.ideal);
        table.row_owned(vec![
            label.to_string(),
            format!("{rho:.2}"),
            format!("{entropy:.2}"),
            decoy.non_clifford_count.to_string(),
        ]);
        csv.rowd(&[&label, &rho, &entropy, &decoy.non_clifford_count]);
    }
    table.print();
    csv.flush().expect("write ablation_decoy.csv");
}
