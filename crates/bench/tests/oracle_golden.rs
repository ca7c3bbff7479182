//! Golden pins of the experiments' bounded Runtime-Best oracle
//! (`runner::oracle_best`): one program small enough for the exhaustive
//! sweep and one above the budget, which scores the seeded none/all +
//! distinct-random sample. Each pin is the bits of the winner's
//! final-budget fidelity.
//!
//! A mismatch means the oracle's answer changed: fix the code, do not
//! re-pin.

use adapt::DdProtocol;
use bench_harness::runner::{make_adapt, oracle_best};
use bench_harness::ExperimentCfg;
use benchmarks::suite::by_name;
use device::Device;

fn oracle_bits(name: &str, device: Device, budget: usize) -> u64 {
    let cfg = ExperimentCfg::new(2021, true);
    let bench = by_name(name).expect("suite program");
    let (adapt, _) = make_adapt(&device, &cfg, 0x0AC1);
    let acfg = cfg.adapt_cfg(DdProtocol::Xy4, 0x5EED);
    oracle_best(&adapt, &bench, &acfg, budget, 0x5A3F).to_bits()
}

#[test]
fn exhaustive_oracle_is_pinned() {
    // 2^4 = 16 masks fit the budget of 32: every mask is scored.
    let got = oracle_bits("Adder", Device::ibmq_rome(7), 32);
    assert_eq!(
        got,
        0x3fdf_d555_5555_5550,
        "oracle fidelity now {:?}",
        f64::from_bits(got)
    );
}

#[test]
fn sampled_oracle_is_pinned() {
    // 2^6 = 64 masks exceed the budget of 12: none, all and ten seeded
    // distinct masks are scored.
    let got = oracle_bits("QFT-6A", Device::ibmq_paris(7), 12);
    assert_eq!(
        got,
        0x3fc8_3fff_ffff_ffe0,
        "oracle fidelity now {:?}",
        f64::from_bits(got)
    );
}
