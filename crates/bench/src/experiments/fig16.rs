//! **Fig. 16** — Mean probe fidelity vs idle time for each DD protocol
//! (free vs XY4 vs IBMQ-DD) over qubit–link combinations on
//! IBMQ-Guadalupe. The paper's finding: XY4 overtakes the sparse IBMQ-DD
//! sequence as idle windows grow, because long gaps between the two X
//! pulses let (finite-correlation-time) noise re-accumulate.

use crate::probes::probe_fidelity;
use crate::report::{Csv, Table};
use crate::runner::ExperimentCfg;
use adapt::{DdConfig, DdProtocol};
use benchmarks::characterization::idle_probe_with_cnots;
use device::{Device, SeedSpawner};
use machine::Machine;

/// Runs the experiment.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Fig 16: DD protocol comparison vs idle time (Guadalupe) ==");
    let spawner = SeedSpawner::new(cfg.seed ^ 0xF1616);
    let dev = Device::ibmq_guadalupe(cfg.seed);
    let machine = Machine::new(dev.clone());
    let combos = dev.topology().qubit_link_combinations();
    // Subsample combinations to keep the sweep tractable.
    let stride = if cfg.quick { 16 } else { 6 };
    let sample: Vec<_> = combos.iter().step_by(stride).copied().collect();
    println!(
        "  {} of {} combinations, theta = pi/2",
        sample.len(),
        combos.len()
    );

    let mut table = Table::new(&["idle(us)", "free", "XY4", "IBMQ-DD"]);
    let mut csv = Csv::create(
        &cfg.out_dir(),
        "fig16",
        &["idle_us", "free", "xy4", "ibmq_dd"],
    );
    let xy4 = DdConfig::for_protocol(DdProtocol::Xy4);
    // The standalone protocol of Fig. 16: two pulses over the whole
    // window, no conservative segmenting.
    let standalone_ibmq = DdConfig {
        protocol: DdProtocol::IbmqDd,
        segment_ns: f64::INFINITY,
    };
    for (ii, idle_us) in [1.0f64, 2.0, 4.0, 8.0, 12.0].into_iter().enumerate() {
        let mut sums = [0.0f64; 3];
        for (ci, &(q, link)) in sample.iter().enumerate() {
            let (a, b) = dev.topology().link_endpoints(link);
            let reps = (idle_us * 1000.0 / dev.link(link).dur_ns).round().max(1.0) as usize;
            let c = idle_probe_with_cnots(16, q, std::f64::consts::FRAC_PI_2, a, b, reps);
            let exec = cfg.probe_exec(spawner.derive((ii * 1000 + ci) as u64));
            sums[0] += probe_fidelity(&machine, &c, q, None, &exec);
            sums[1] += probe_fidelity(&machine, &c, q, Some(xy4), &exec);
            sums[2] += probe_fidelity(&machine, &c, q, Some(standalone_ibmq), &exec);
        }
        let n = sample.len() as f64;
        let (free, xy4, ibmq) = (sums[0] / n, sums[1] / n, sums[2] / n);
        table.row_owned(vec![
            format!("{idle_us:.0}"),
            format!("{free:.3}"),
            format!("{xy4:.3}"),
            format!("{ibmq:.3}"),
        ]);
        csv.rowd(&[&idle_us, &free, &xy4, &ibmq]);
    }
    table.print();
    csv.flush().expect("write fig16.csv");
}
