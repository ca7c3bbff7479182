//! **Fig. 5** — Distribution of the *relative* fidelity (DD / free) of an
//! idle probe over all 700 qubit–link combinations on IBMQ-Toronto. The
//! paper's headline: DD helps up to ~4x and hurts down to ~0.2x, so
//! applying it indiscriminately is unsafe.

use crate::probes::probe_fidelity;
use crate::report::{text_histogram, Csv};
use crate::runner::ExperimentCfg;
use adapt::{DdConfig, DdProtocol};
use benchmarks::characterization::{idle_probe_with_cnots, theta_grid};
use device::{Device, SeedSpawner};
use machine::Machine;

/// Runs the experiment.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Fig 5: relative fidelity with DD over 700 qubit-link combos (Toronto) ==");
    let spawner = SeedSpawner::new(cfg.seed ^ 0xF165);
    let dev = Device::ibmq_toronto(cfg.seed);
    let machine = Machine::new(dev.clone());
    let xy4 = Some(DdConfig::for_protocol(DdProtocol::Xy4));
    let combos = dev.topology().qubit_link_combinations();
    let thetas = if cfg.quick {
        vec![std::f64::consts::FRAC_PI_2]
    } else {
        theta_grid(3)
    };
    let mut csv = Csv::create(
        &cfg.out_dir(),
        "fig05",
        &["qubit", "link_a", "link_b", "relative_fidelity"],
    );
    let mut rels = Vec::with_capacity(combos.len());
    for (ci, &(q, link)) in combos.iter().enumerate() {
        let (a, b) = dev.topology().link_endpoints(link);
        let reps = (8000.0 / dev.link(link).dur_ns).round() as usize;
        let mut free_sum = 0.0;
        let mut dd_sum = 0.0;
        for (ti, &theta) in thetas.iter().enumerate() {
            let c = idle_probe_with_cnots(27, q, theta, a, b, reps);
            let exec = cfg.probe_exec(spawner.derive((ci * 8 + ti) as u64));
            free_sum += probe_fidelity(&machine, &c, q, None, &exec);
            dd_sum += probe_fidelity(&machine, &c, q, xy4, &exec);
        }
        let rel = dd_sum / free_sum.max(1e-6);
        rels.push(rel);
        csv.rowd(&[&q, &a, &b, &rel]);
    }
    let best = rels.iter().cloned().fold(f64::MIN, f64::max);
    let worst = rels.iter().cloned().fold(f64::MAX, f64::min);
    let below = rels.iter().filter(|&&r| r < 1.0).count();
    println!(
        "  {} combos: DD best {best:.2}x, worst {worst:.2}x, hurts on {below} ({:.0}%)",
        rels.len(),
        below as f64 * 100.0 / rels.len() as f64
    );
    println!("{}", text_histogram(&rels, 0.0, 2.0, 16));
    csv.flush().expect("write fig05.csv");
}
