//! **Ablation: noise model** — validates the DESIGN.md claim that DD's
//! benefit requires *coherent, correlated* idling noise: with only
//! stochastic Pauli channels, DD cannot help; and the OU correlation time
//! controls the XY4-vs-IBMQ-DD gap.

use crate::report::{Csv, Table};
use crate::runner::ExperimentCfg;
use adapt::{Adapt, Policy};
use benchmarks::suite::by_name;
use device::{Device, SeedSpawner};
use machine::{Machine, NoiseToggles};

/// Runs the ablation.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Ablation: which noise channels make DD worthwhile (QFT-6A, Toronto) ==");
    let spawner = SeedSpawner::new(cfg.seed ^ 0xAB1A);
    let dev = Device::ibmq_toronto(cfg.seed);
    let bench = by_name("QFT-6A").expect("QFT-6A exists");
    let acfg = cfg.adapt_cfg(adapt::DdProtocol::Xy4, spawner.derive(1));

    let cases: Vec<(&str, NoiseToggles)> = vec![
        ("full model", NoiseToggles::default()),
        (
            "no crosstalk",
            NoiseToggles {
                idle_crosstalk: false,
                ..NoiseToggles::default()
            },
        ),
        (
            "no coherent idle noise",
            NoiseToggles {
                idle_coherent: false,
                idle_crosstalk: false,
                ..NoiseToggles::default()
            },
        ),
        (
            "stochastic (Pauli) noise only",
            NoiseToggles {
                idle_coherent: false,
                idle_crosstalk: false,
                ..NoiseToggles::default()
            },
        ),
    ];
    let mut table = Table::new(&["noise model", "No-DD", "All-DD", "All-DD rel"]);
    let mut csv = Csv::create(
        &cfg.out_dir(),
        "ablation_noise",
        &["case", "no_dd", "all_dd", "rel"],
    );
    for (label, toggles) in cases {
        let adapt = Adapt::new(Machine::with_toggles(dev.clone(), toggles));
        let no_dd = adapt
            .run_policy(&bench.circuit, Policy::NoDd, &acfg)
            .expect("NoDD");
        let all_dd = adapt
            .run_policy(&bench.circuit, Policy::AllDd, &acfg)
            .expect("AllDD");
        let rel = all_dd.fidelity / no_dd.fidelity.max(1e-4);
        table.row_owned(vec![
            label.to_string(),
            format!("{:.3}", no_dd.fidelity),
            format!("{:.3}", all_dd.fidelity),
            format!("{rel:.2}x"),
        ]);
        csv.rowd(&[&label, &no_dd.fidelity, &all_dd.fidelity, &rel]);
    }
    table.print();

    println!("\n-- OU correlation time vs protocol gap (probe, 8us idle) --");
    let mut table = Table::new(&["tau_c (us)", "free", "XY4", "IBMQ-DD", "XY4 - IBMQ-DD"]);
    let mut csv2 = Csv::create(
        &cfg.out_dir(),
        "ablation_noise_tau",
        &["tau_us", "free", "xy4", "ibmq_dd"],
    );
    use crate::probes::probe_fidelity;
    use adapt::{DdConfig, DdProtocol};
    let base = Device::ibmq_guadalupe(cfg.seed);
    let (probe, link) = super::fig04::strongest_pair(&base);
    let (a, b) = base.topology().link_endpoints(link);
    for (ti, tau_us) in [0.5f64, 1.0, 2.0, 4.0].into_iter().enumerate() {
        let dev = base.with_adjusted_qubits(|q| q.ou_tau_ns = tau_us * 1000.0);
        let machine = Machine::new(dev.clone());
        let reps = (8000.0 / dev.link(link).dur_ns).round() as usize;
        let c = benchmarks::characterization::idle_probe_with_cnots(
            16,
            probe,
            std::f64::consts::FRAC_PI_2,
            a,
            b,
            reps,
        );
        let exec = cfg.probe_exec(spawner.derive(40 + ti as u64));
        let free = probe_fidelity(&machine, &c, probe, None, &exec);
        let xy4 = probe_fidelity(
            &machine,
            &c,
            probe,
            Some(DdConfig::for_protocol(DdProtocol::Xy4)),
            &exec,
        );
        let ibmq = probe_fidelity(
            &machine,
            &c,
            probe,
            Some(DdConfig::for_protocol(DdProtocol::IbmqDd)),
            &exec,
        );
        table.row_owned(vec![
            format!("{tau_us:.1}"),
            format!("{free:.3}"),
            format!("{xy4:.3}"),
            format!("{ibmq:.3}"),
            format!("{:+.3}", xy4 - ibmq),
        ]);
        csv2.rowd(&[&tau_us, &free, &xy4, &ibmq]);
    }
    table.print();
    csv.flush().expect("write ablation_noise.csv");
    csv2.flush().expect("write ablation_noise_tau.csv");
}
