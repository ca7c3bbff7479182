//! **Table 2** — Decoy quality: Spearman correlation between real and
//! decoy fidelities (CDC vs SDC) across DD masks, plus SDC ideal-output
//! simulation time and a large-circuit scalability check.

use crate::report::{Csv, Table};
use crate::runner::{fidelities, real_fidelities, sample_masks, ExperimentCfg};
use adapt::decoy::{decoy_ideal_distribution, make_decoy, DecoyKind};
use adapt::search::SearchContext;
use adapt::{metrics, Adapt, DdMask};
use benchmarks::suite::by_name;
use device::{Device, SeedSpawner};
use machine::Machine;
use std::time::Instant;

/// Runs the experiment.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Table 2: CDC vs SDC correlation with the real circuit ==");
    let spawner = SeedSpawner::new(cfg.seed ^ 0x7AB2);
    let cases: [(&str, Device); 4] = [
        ("Adder", Device::ibmq_rome(cfg.seed)),
        ("QFT-6A", Device::ibmq_paris(cfg.seed)),
        ("QAOA-8A", Device::ibmq_paris(cfg.seed)),
        ("QAOA-10A", Device::ibmq_paris(cfg.seed)),
    ];

    let mut table = Table::new(&[
        "Benchmark",
        "Platform",
        "CDC-corr",
        "SDC-corr",
        "SDC-SimTime",
    ]);
    let mut csv = Csv::create(
        &cfg.out_dir(),
        "table2",
        &[
            "benchmark",
            "platform",
            "cdc_corr",
            "sdc_corr",
            "sdc_sim_ms",
        ],
    );

    for (bi, (name, dev)) in cases.into_iter().enumerate() {
        let bench = by_name(name).expect("known benchmark");
        let machine = Machine::new(dev.clone());
        let adapt = Adapt::new(machine.clone());
        let acfg = cfg.adapt_cfg(adapt::DdProtocol::Xy4, spawner.derive(bi as u64));
        let compiled = adapt.compile(&bench.circuit, &acfg);
        let ideal = adapt.ideal_output(&bench.circuit).expect("ideal");
        let n = bench.num_qubits;

        // Mask sample: exhaustive for small programs, seeded subset above.
        let masks: Vec<DdMask> = if (1usize << n) <= 32 {
            DdMask::enumerate_all(n)
        } else {
            let budget = if cfg.quick { 12 } else { 32 };
            sample_masks(n, budget, spawner.derive(50 + bi as u64))
        };

        // Real-circuit fidelities per mask (search budget).
        let real = real_fidelities(&adapt, &compiled, &ideal, &acfg, &masks);

        let corr_for = |kind: DecoyKind| -> f64 {
            let decoy = make_decoy(&compiled.timed, kind).expect("decoy");
            let ctx = SearchContext::new(
                &machine,
                machine.device().clone(),
                &decoy,
                &compiled.initial_layout,
                acfg.dd,
                // Decoy runs are separate machine executions: decorrelate
                // their noise realizations from the real-circuit sweeps.
                machine::ExecutionConfig {
                    seed: acfg.search_exec.seed ^ 0x5EED_DEC0,
                    ..acfg.search_exec
                },
                n,
            );
            // One batched submission per decoy kind: the backend sees all
            // masks at once and may score them in parallel.
            metrics::spearman(&real, &fidelities(&ctx, &masks))
        };

        let cdc = corr_for(DecoyKind::Clifford);
        let sdc = corr_for(DecoyKind::Seeded { max_seed_qubits: 4 });

        // SDC ideal-output simulation time.
        let sdc_decoy =
            make_decoy(&compiled.timed, DecoyKind::Seeded { max_seed_qubits: 4 }).expect("decoy");
        let t0 = Instant::now();
        let _ = decoy_ideal_distribution(&sdc_decoy.timed).expect("ideal decoy sim");
        let sim_ms = t0.elapsed().as_secs_f64() * 1000.0;

        table.row_owned(vec![
            name.to_string(),
            dev.name().to_string(),
            format!("{cdc:.2}"),
            format!("{sdc:.2}"),
            format!("{sim_ms:.1} ms"),
        ]);
        csv.rowd(&[&name, &dev.name(), &cdc, &sdc, &sim_ms]);
    }
    table.print();

    // Scalability check (paper: 100-qubit QAOA SDC in 330 s for 100k
    // shots on Qiskit's extended stabilizer simulator): sample 100k shots
    // of a 100-qubit QAOA Clifford decoy through the CHP tableau. The
    // exact-distribution path is skipped — a 100-qubit Clifford output
    // spans an affine subspace too large to enumerate — so this exercises
    // the sampling path the framework would use at that scale.
    let t0 = Instant::now();
    let n_big = 100usize;
    let big = benchmarks::qaoa_maxcut(n_big, &benchmarks::ring_edges(n_big), 0.4, 0.7, 1);
    // The classical-register type packs outcomes into 64 bits; re-measure
    // the first 64 qubits only (the tableau evolution still spans all 100).
    let mut big64 = qcirc::Circuit::with_clbits(n_big, 64);
    for instr in big.iter() {
        if !matches!(instr.kind, qcirc::OpKind::Measure(_)) {
            big64.push(instr.clone());
        }
    }
    for q in 0..64u32 {
        big64.measure(q, q);
    }
    let big = big64;
    let decomposed = transpiler::decompose_circuit(&big);
    let clifford = adapt::decoy::to_stabilizer_circuit(&cliffordize(&decomposed))
        .expect("rounded circuit is Clifford");
    let shots = if cfg.quick { 5_000 } else { 100_000 };
    let mut rng = SeedSpawner::new(spawner.derive(99)).rng();
    let counts = stab::sample_counts(&clifford, shots, &mut rng).expect("CHP sampling");
    println!(
        "  scalability: {n_big}-qubit QAOA CDC, {} shots via CHP in {:.1} s ({} distinct outcomes)",
        counts.total(),
        t0.elapsed().as_secs_f64(),
        counts.distinct()
    );
    csv.flush().expect("write table2.csv");
}

/// Rounds every RZ in a basis circuit to the nearest Clifford angle.
fn cliffordize(c: &qcirc::Circuit) -> qcirc::Circuit {
    use qcirc::{Gate, Instruction, OpKind};
    let mut out = qcirc::Circuit::with_clbits(c.num_qubits(), c.num_clbits());
    for instr in c.iter() {
        match &instr.kind {
            OpKind::Gate(Gate::RZ(t)) => {
                out.push(Instruction::gate(
                    Gate::RZ(adapt::decoy::round_to_clifford_angle(*t)),
                    instr.qubits.clone(),
                ));
            }
            _ => {
                out.push(instr.clone());
            }
        }
    }
    out
}
