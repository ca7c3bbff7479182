//! Golden pins of the tier-0 calibration-only heuristic.
//!
//! [`heuristic_mask`] is a pure function of the compiled schedule and
//! the device calibration. These pins fix its mask and the exact bits of
//! every qubit's `T_idle/T2` ratio for each suite program (Table 1 and
//! the paper suite) on every device preset it fits, so a change to the
//! heuristic's thresholds, its idle-window sum or the compile pipeline
//! it reads shows up as a changed FNV-1a 64 digest.
//!
//! A mismatch means the tier-0 answer changed: fix the code, do not
//! re-pin.

use adapt::heuristic_mask;
use device::Device;
use transpiler::{transpile, TranspileOptions};

fn fnv64(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn presets() -> [(&'static str, Device); 5] {
    [
        ("guadalupe", Device::ibmq_guadalupe(7)),
        ("paris", Device::ibmq_paris(7)),
        ("toronto", Device::ibmq_toronto(7)),
        ("rome", Device::ibmq_rome(7)),
        ("london", Device::ibmq_london(7)),
    ]
}

/// One digest per (preset, program) pair that fits, presets outermost,
/// programs in suite order.
fn digests() -> Vec<(String, u64)> {
    let programs: Vec<_> = benchmarks::table1_suite()
        .into_iter()
        .chain(benchmarks::paper_suite())
        .collect();
    let mut out = Vec::new();
    for (device_name, dev) in presets() {
        for spec in &programs {
            if spec.num_qubits > dev.num_qubits() {
                continue;
            }
            let compiled = transpile(&spec.circuit, &dev, &TranspileOptions::default());
            let h = heuristic_mask(&compiled, &dev, spec.num_qubits);
            let mut d = fnv64(FNV_OFFSET, &h.mask.bits().to_le_bytes());
            for a in &h.assessments {
                d = fnv64(d, &a.idle_t2_ratio.to_bits().to_le_bytes());
            }
            out.push((format!("{}@{device_name}", spec.name), d));
        }
    }
    out
}

const GOLDEN: [u64; 50] = [
    // guadalupe
    0xa1a9_6d19_6f47_543c,
    0x1921_91b1_cb07_4ea3,
    0x6042_2096_c314_f270,
    0x2778_a50a_9c49_7dec,
    0x37d4_4e5b_a792_a8ad,
    0xa743_68d2_d092_c476,
    0xa743_68d2_d092_c476,
    0xb87e_05c0_a428_5aa0,
    0xb87e_05c0_a428_5aa0,
    0xc812_7641_e623_886c,
    0x55ce_85f1_52a5_858f,
    0xc804_7909_31a3_bd5f,
    0xff7d_593a_2a98_9f30,
    0x2c3c_f9b7_34c6_0ae6,
    // paris
    0x299a_6dde_4c1b_4cd2,
    0xbef8_628f_f957_6332,
    0x4ec0_5261_f568_b628,
    0x43fc_4ac4_d6ee_8051,
    0xd81d_c58b_ad02_a354,
    0xd65b_c046_8ae5_891b,
    0xd65b_c046_8ae5_891b,
    0x7e42_320f_753e_2e8d,
    0x7e42_320f_753e_2e8d,
    0xa126_918e_48b8_f6ce,
    0x4818_16c2_cc14_d406,
    0x50ba_23fe_fb79_4327,
    0xff73_9930_847f_3caa,
    0x517b_8ef6_ff2b_2528,
    // toronto
    0x4545_e31d_3406_dc8f,
    0xd858_10ba_53b2_fc3d,
    0x981a_c11f_eeb9_036d,
    0xe7bb_7d72_ca26_e649,
    0x38cd_2dcf_6491_0770,
    0x09e7_ecb1_540f_b452,
    0x09e7_ecb1_540f_b452,
    0x8167_c0a1_d203_dffd,
    0x8167_c0a1_d203_dffd,
    0xa4f9_85a3_bdb4_451f,
    0xf651_50ea_6c7e_927b,
    0x4af7_7376_54c4_1b6b,
    0xd948_4735_a119_eedc,
    0x89f7_99b2_82f9_e095,
    // rome
    0xf18b_29b9_696c_5853,
    0x528d_ac75_9eaf_ba72,
    0x952f_ecbb_afe6_adc0,
    0x9baa_dcc8_566b_2f3e,
    // london
    0x4cac_7094_5745_08e3,
    0x87d8_ddc7_2bfe_9a3f,
    0x9f8d_adc8_38f4_fa05,
    0x822b_7dc6_eb5b_5b4f,
];

#[test]
fn heuristic_masks_and_idle_ratios_are_pinned() {
    let got = digests();
    let changed: Vec<&str> = got
        .iter()
        .enumerate()
        .filter(|&(i, (_, d))| GOLDEN.get(i) != Some(d))
        .map(|(_, (name, _))| name.as_str())
        .collect();
    assert!(
        changed.is_empty() && got.len() == GOLDEN.len(),
        "heuristic answers changed for {changed:?}; digests now {:#018x?}",
        got.iter().map(|(_, d)| *d).collect::<Vec<_>>()
    );
}
