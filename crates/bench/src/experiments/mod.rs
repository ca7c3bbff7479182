//! One module per table/figure of the ADAPT paper, plus ablations.
//!
//! Every module exposes `run(&ExperimentCfg)`: it prints the paper-style
//! rows to stdout and writes a CSV into `results/`. The
//! `all_experiments` binary chains them in order.

pub mod ablation_decoy;
pub mod ablation_noise;
pub mod ablation_protocols;
pub mod ablation_search;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig08;
pub mod fig09;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod search_perf;
pub mod table1;
pub mod table2;
pub mod table5;

use crate::checkpoint::{config_hash, Checkpoint};
use crate::report::Table;
use crate::runner::{policy_sweep, ExperimentCfg};
use adapt::DdProtocol;
use device::Device;

/// Shared driver for the Fig. 13/14/15-style policy comparisons: runs the
/// four policies per benchmark, prints relative fidelities, and writes
/// `results/<stem>.csv`.
///
/// Datapoints stream to a [`Checkpoint`] as they complete: a killed run
/// leaves `results/<stem>.partial.csv` + manifest behind, and re-running
/// with `--resume` skips every completed benchmark.
pub fn policy_figure(
    cfg: &ExperimentCfg,
    device: &Device,
    names: &[&str],
    protocol: DdProtocol,
    with_oracle: bool,
    stem: &str,
) {
    let header = [
        "benchmark",
        "protocol",
        "baseline",
        "all_dd_rel",
        "adapt_rel",
        "runtime_best_rel",
        "adapt_mask",
        "decoy_runs",
        "degraded_groups",
    ];
    let cfg_hash = config_hash(&[
        &cfg.quick.to_string(),
        &protocol.to_string(),
        &names.join("+"),
        &with_oracle.to_string(),
        cfg.fault_name,
    ]);
    let mut ck = Checkpoint::open(
        &cfg.out_dir(),
        stem,
        &header,
        cfg.seed,
        cfg_hash,
        cfg.resume,
    )
    .expect("open experiment checkpoint");
    if ck.resumed_rows() > 0 {
        println!(
            "  (resume: {} of {} datapoints already complete)",
            ck.resumed_rows(),
            names.len()
        );
    }
    for name in names {
        if ck.is_done(name) {
            continue;
        }
        let bench = benchmarks::suite::by_name(name).expect("known benchmark");
        let r = policy_sweep(device, &bench, protocol, cfg, with_oracle);
        ck.record(
            name,
            vec![
                r.name.clone(),
                protocol.to_string(),
                format!("{:.4}", r.baseline),
                format!("{:.4}", r.all_dd_rel),
                format!("{:.4}", r.adapt_rel),
                r.runtime_best_rel
                    .map(|v| format!("{v:.4}"))
                    .unwrap_or_default(),
                r.adapt_mask,
                r.adapt_search_runs.to_string(),
                r.degraded_groups.to_string(),
            ],
        )
        .expect("stream datapoint to checkpoint");
    }

    // Render the table (and summary geomeans) from the checkpoint rows so
    // resumed datapoints appear exactly like freshly computed ones.
    let mut table = Table::new(&[
        "benchmark",
        "baseline",
        "All-DD",
        "ADAPT",
        "Runtime-Best",
        "ADAPT mask",
        "decoys",
    ]);
    let mut all_rels = Vec::new();
    let mut adapt_rels = Vec::new();
    let mut rb_rels = Vec::new();
    for (_, cells) in ck.rows() {
        let baseline: f64 = cells[2].parse().unwrap_or(0.0);
        let all_dd: f64 = cells[3].parse().unwrap_or(0.0);
        let adapt_rel: f64 = cells[4].parse().unwrap_or(0.0);
        all_rels.push(all_dd);
        adapt_rels.push(adapt_rel);
        if let Ok(rb) = cells[5].parse::<f64>() {
            rb_rels.push(rb);
        }
        table.row_owned(vec![
            cells[0].clone(),
            format!("{baseline:.3}"),
            format!("{all_dd:.2}x"),
            format!("{adapt_rel:.2}x"),
            if cells[5].is_empty() {
                "-".into()
            } else {
                format!("{:.2}x", cells[5].parse::<f64>().unwrap_or(0.0))
            },
            cells[6].clone(),
            cells[7].clone(),
        ]);
    }
    use adapt::metrics::geomean;
    table.row_owned(vec![
        "GMean".into(),
        String::new(),
        format!("{:.2}x", geomean(&all_rels)),
        format!("{:.2}x", geomean(&adapt_rels)),
        if rb_rels.is_empty() {
            "-".into()
        } else {
            format!("{:.2}x", geomean(&rb_rels))
        },
        String::new(),
        String::new(),
    ]);
    table.print();
    ck.finalize().expect("write policy figure csv");
}
