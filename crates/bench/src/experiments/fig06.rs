//! **Fig. 6** — Relative fidelity of one spectator qubit against one
//! active link across calibration cycles: DD that helps in one cycle can
//! hurt in the next.

use crate::probes::probe_fidelity;
use crate::report::{Csv, Table};
use crate::runner::ExperimentCfg;
use adapt::{DdConfig, DdProtocol};
use benchmarks::characterization::{idle_probe_with_cnots, theta_grid};
use device::{Device, SeedSpawner};
use machine::Machine;

/// Runs the experiment.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Fig 6: DD effectiveness across calibration cycles (Toronto) ==");
    let spawner = SeedSpawner::new(cfg.seed ^ 0xF166);
    let base = Device::ibmq_toronto(cfg.seed);
    // The paper studies Qubit-12 against Link 17-18; use that pair when it
    // couples in our calibration, otherwise fall back to qubit 12's
    // strongest link so the plot is informative.
    let q = 12u32;
    let paper_link = base
        .topology()
        .link_between(17, 18)
        .expect("17-18 is a Toronto link");
    let link = if base.calibration().crosstalk(q, paper_link).abs() > 0.05 {
        paper_link
    } else {
        base.calibration()
            .crosstalk_on(q)
            .into_iter()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("finite"))
            .map(|(l, _)| l)
            .unwrap_or(paper_link)
    };
    let (a, b) = base.topology().link_endpoints(link);
    println!("  spectator q{q}, active link {a}-{b}");

    let thetas = theta_grid(if cfg.quick { 5 } else { 9 });
    let mut table = Table::new(&["theta", "cycle-1 rel", "cycle-2 rel"]);
    let mut csv = Csv::create(
        &cfg.out_dir(),
        "fig06",
        &["theta", "cycle", "free", "dd", "relative"],
    );
    let mut rows: Vec<Vec<String>> = thetas.iter().map(|t| vec![format!("{t:.2}")]).collect();
    for cycle in 0..2u64 {
        let dev = base.at_calibration_cycle(cycle);
        println!(
            "  cycle {}: chi(q{q}, {a}-{b}) = {:+.2} rad/us",
            cycle + 1,
            dev.calibration().crosstalk(q, link)
        );
        let machine = Machine::new(dev.clone());
        let xy4 = Some(DdConfig::for_protocol(DdProtocol::Xy4));
        let reps = (8000.0 / dev.link(link).dur_ns).round() as usize;
        for (ti, &theta) in thetas.iter().enumerate() {
            let c = idle_probe_with_cnots(27, q, theta, a, b, reps);
            let exec = cfg.probe_exec(spawner.derive(cycle * 100 + ti as u64));
            let free = probe_fidelity(&machine, &c, q, None, &exec);
            let dd = probe_fidelity(&machine, &c, q, xy4, &exec);
            let rel = dd / free.max(1e-6);
            rows[ti].push(format!("{rel:.2}x"));
            csv.rowd(&[&theta, &cycle, &free, &dd, &rel]);
        }
    }
    for row in rows {
        table.row_owned(row);
    }
    table.print();
    csv.flush().expect("write fig06.csv");
}
