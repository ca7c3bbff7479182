//! **Ablation: DD protocol zoo** — the paper's XY4/IBMQ-DD pair plus the
//! CPMG, XY8 and UDD extensions, compared on the Fig. 16 probe and at the
//! application level (QFT-6A, ADAPT policy).

use crate::probes::probe_fidelity;
use crate::report::{Csv, Table};
use crate::runner::ExperimentCfg;
use adapt::{Adapt, AdaptConfig, DdConfig, DdProtocol, Policy};
use benchmarks::characterization::idle_probe_with_cnots;
use benchmarks::suite::by_name;
use device::{Device, SeedSpawner};
use machine::Machine;

const PROTOCOLS: [DdProtocol; 5] = [
    DdProtocol::Xy4,
    DdProtocol::Xy8,
    DdProtocol::IbmqDd,
    DdProtocol::Cpmg,
    DdProtocol::Udd { pulses: 8 },
];

/// Runs the ablation.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Ablation: DD protocol zoo (XY4 / XY8 / IBMQ-DD / CPMG / UDD-8) ==");
    let spawner = SeedSpawner::new(cfg.seed ^ 0xAB1D);
    let dev = Device::ibmq_guadalupe(cfg.seed);
    let machine = Machine::new(dev.clone());
    let (probe, link) = super::fig04::strongest_pair(&dev);
    let (a, b) = dev.topology().link_endpoints(link);
    println!("  probe q{probe} vs CNOTs on {a}-{b}");

    let mut table = Table::new(&["idle(us)", "XY4", "XY8", "IBMQ-DD", "CPMG", "UDD-8"]);
    let mut csv = Csv::create(
        &cfg.out_dir(),
        "ablation_protocols",
        &["idle_us", "xy4", "xy8", "ibmq_dd", "cpmg", "udd8"],
    );
    for (ti, idle_us) in [2.0f64, 8.0, 16.0].into_iter().enumerate() {
        let reps = (idle_us * 1000.0 / dev.link(link).dur_ns).round().max(1.0) as usize;
        let c = idle_probe_with_cnots(16, probe, std::f64::consts::FRAC_PI_2, a, b, reps);
        let exec = cfg.probe_exec(spawner.derive(ti as u64));
        let mut row = vec![format!("{idle_us:.0}")];
        let mut record = vec![format!("{idle_us}")];
        for protocol in PROTOCOLS {
            let dd = DdConfig {
                protocol,
                // Standalone comparison (no conservative segmenting).
                segment_ns: f64::INFINITY,
            };
            let f = probe_fidelity(&machine, &c, probe, Some(dd), &exec);
            row.push(format!("{f:.3}"));
            record.push(format!("{f:.4}"));
        }
        table.row_owned(row);
        csv.row(&record);
    }
    table.print();

    println!("\n-- application level: QFT-6A under ADAPT per protocol --");
    let bench = by_name("QFT-6A").expect("QFT-6A exists");
    let adapt = Adapt::new(machine);
    let mut table = Table::new(&["protocol", "ADAPT fidelity", "mask", "pulses"]);
    let mut csv2 = Csv::create(
        &cfg.out_dir(),
        "ablation_protocols_app",
        &["protocol", "fidelity", "mask", "pulses"],
    );
    for protocol in PROTOCOLS {
        let acfg = AdaptConfig {
            dd: DdConfig::for_protocol(protocol),
            ..cfg.adapt_cfg(protocol, spawner.derive(50))
        };
        let run = adapt
            .run_policy(&bench.circuit, Policy::Adapt, &acfg)
            .expect("adapt run");
        table.row_owned(vec![
            protocol.to_string(),
            format!("{:.3}", run.fidelity),
            run.mask.to_string(),
            run.pulse_count.to_string(),
        ]);
        csv2.rowd(&[
            &protocol.to_string(),
            &run.fidelity,
            &run.mask,
            &run.pulse_count,
        ]);
    }
    table.print();
    csv.flush().expect("write ablation_protocols.csv");
    csv2.flush().expect("write ablation_protocols_app.csv");
}
