//! **Fig. 4** — Characterizing idling errors and DD:
//! (c) probe fidelity vs θ, free vs DD, 1.2 µs idle on IBMQ-London;
//! (f) the same under crosstalk from concurrent CNOTs, 2.4 µs idle;
//! (g,h) fidelity distribution over every qubit–link combination on
//! IBMQ-Guadalupe, 8 µs idle, without and with DD.

use crate::probes::probe_fidelity;
use crate::report::{text_histogram, Csv, Table};
use crate::runner::ExperimentCfg;
use adapt::{DdConfig, DdProtocol};
use benchmarks::characterization::{idle_probe, idle_probe_with_cnots, theta_grid};
use device::{Device, SeedSpawner};
use machine::Machine;

/// Runs all four panels.
pub fn run(cfg: &ExperimentCfg) {
    let spawner = SeedSpawner::new(cfg.seed ^ 0xF1604);
    part_c(cfg, &spawner);
    part_f(cfg, &spawner);
    parts_gh(cfg, &spawner);
}

fn part_c(cfg: &ExperimentCfg, spawner: &SeedSpawner) {
    println!("\n== Fig 4c: free vs DD probe fidelity vs theta (London, 1.2us idle) ==");
    let machine = Machine::new(Device::ibmq_london(cfg.seed));
    let xy4 = Some(DdConfig::for_protocol(DdProtocol::Xy4));
    let mut table = Table::new(&["theta", "free", "XY4-DD"]);
    let mut csv = Csv::create(&cfg.out_dir(), "fig04c", &["theta", "free", "dd"]);
    for (i, theta) in theta_grid(9).into_iter().enumerate() {
        let c = idle_probe(5, 0, theta, 1200.0);
        let exec = cfg.probe_exec(spawner.derive(100 + i as u64));
        let free = probe_fidelity(&machine, &c, 0, None, &exec);
        let dd = probe_fidelity(&machine, &c, 0, xy4, &exec);
        table.row_owned(vec![
            format!("{theta:.2}"),
            format!("{free:.3}"),
            format!("{dd:.3}"),
        ]);
        csv.rowd(&[&theta, &free, &dd]);
    }
    table.print();
    csv.flush().expect("write fig04c.csv");
}

fn part_f(cfg: &ExperimentCfg, spawner: &SeedSpawner) {
    println!("\n== Fig 4f: probe fidelity under crosstalk from CNOTs (London, 2.4us) ==");
    let dev = Device::ibmq_london(cfg.seed);
    // Use the spectator/link pair with the strongest coupling.
    let (probe, link) = strongest_pair(&dev);
    let (a, b) = dev.topology().link_endpoints(link);
    println!(
        "  probe q{probe}, active link {a}-{b}, chi={:.2} rad/us",
        dev.calibration().crosstalk(probe, link)
    );
    let machine = Machine::new(dev.clone());
    let xy4 = Some(DdConfig::for_protocol(DdProtocol::Xy4));
    // ~2.4 µs of CNOT activity.
    let reps = (2400.0 / dev.link(link).dur_ns).round() as usize;
    let mut table = Table::new(&["theta", "free", "XY4-DD"]);
    let mut csv = Csv::create(&cfg.out_dir(), "fig04f", &["theta", "free", "dd"]);
    let mut worst_free: f64 = 1.0;
    let mut worst_dd: f64 = 1.0;
    for (i, theta) in theta_grid(5).into_iter().enumerate() {
        let c = idle_probe_with_cnots(5, probe, theta, a, b, reps);
        let exec = cfg.probe_exec(spawner.derive(200 + i as u64));
        let free = probe_fidelity(&machine, &c, probe, None, &exec);
        let dd = probe_fidelity(&machine, &c, probe, xy4, &exec);
        worst_free = worst_free.min(free);
        worst_dd = worst_dd.min(dd);
        table.row_owned(vec![
            format!("{theta:.2}"),
            format!("{free:.3}"),
            format!("{dd:.3}"),
        ]);
        csv.rowd(&[&theta, &free, &dd]);
    }
    table.print();
    println!("  worst-case: free {worst_free:.3}, DD {worst_dd:.3}");
    csv.flush().expect("write fig04f.csv");
}

fn parts_gh(cfg: &ExperimentCfg, spawner: &SeedSpawner) {
    println!("\n== Fig 4g,h: fidelity over all qubit-link combos (Guadalupe, 8us idle) ==");
    let dev = Device::ibmq_guadalupe(cfg.seed);
    let machine = Machine::new(dev.clone());
    let xy4 = Some(DdConfig::for_protocol(DdProtocol::Xy4));
    let combos = dev.topology().qubit_link_combinations();
    println!("  {} combinations", combos.len());
    let thetas = if cfg.quick {
        theta_grid(3)
    } else {
        theta_grid(5)
    };
    let mut csv = Csv::create(
        &cfg.out_dir(),
        "fig04gh",
        &["qubit", "link_a", "link_b", "theta", "free", "dd"],
    );
    let mut free_all = Vec::new();
    let mut dd_all = Vec::new();
    for (ci, &(q, link)) in combos.iter().enumerate() {
        let (a, b) = dev.topology().link_endpoints(link);
        let reps = (8000.0 / dev.link(link).dur_ns).round() as usize;
        for (ti, &theta) in thetas.iter().enumerate() {
            let c = idle_probe_with_cnots(16, q, theta, a, b, reps);
            let exec = cfg.probe_exec(spawner.derive(300 + (ci * 16 + ti) as u64));
            let free = probe_fidelity(&machine, &c, q, None, &exec);
            let dd = probe_fidelity(&machine, &c, q, xy4, &exec);
            free_all.push(free);
            dd_all.push(dd);
            csv.rowd(&[&q, &a, &b, &theta, &free, &dd]);
        }
    }
    let stats = |v: &[f64]| -> (f64, f64) {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        (mean, min)
    };
    let (fm, fw) = stats(&free_all);
    let (dm, dw) = stats(&dd_all);
    println!(
        "  (g) free evolution: mean {:.1}%  worst {:.1}%",
        fm * 100.0,
        fw * 100.0
    );
    println!("{}", text_histogram(&free_all, 0.0, 1.0, 10));
    println!(
        "  (h) with XY4 DD:    mean {:.1}%  worst {:.1}%",
        dm * 100.0,
        dw * 100.0
    );
    println!("{}", text_histogram(&dd_all, 0.0, 1.0, 10));
    csv.flush().expect("write fig04gh.csv");
}

/// The (spectator, link) pair with the strongest |crosstalk| on a device.
pub fn strongest_pair(dev: &Device) -> (u32, device::LinkId) {
    let mut best = (0u32, device::LinkId(0), 0.0f64);
    for q in 0..dev.num_qubits() as u32 {
        for (l, chi) in dev.calibration().crosstalk_on(q) {
            if chi.abs() > best.2.abs() {
                best = (q, l, chi);
            }
        }
    }
    (best.0, best.1)
}
