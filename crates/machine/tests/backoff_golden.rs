//! Golden pins of the default retry backoff schedule.
//!
//! [`RetryPolicy::delay_ms`] is a pure function of the policy, the
//! execution seed and the attempt number. These pins fix the exact bits
//! of the default policy's delay after attempts 0–5 under five seeds, so
//! a change to the base delay, growth factor, ceiling, jitter fraction or
//! the jitter draw itself shows up here.
//!
//! A mismatch means the schedule changed: fix the code, do not re-pin.

use machine::RetryPolicy;

const SEEDS: [u64; 5] = [0, 1, 42, 2021, 0xDEAD_BEEF];

const GOLDEN: [[u64; 6]; 5] = [
    [
        0x4027_a3a9_e2db_8039,
        0x4037_8767_2117_925d,
        0x4047_b295_11fe_b126,
        0x404e_a1fb_fa87_d1e8,
        0x4063_5ded_3ca0_ca78,
        0x4073_d5e7_61da_b126,
    ],
    [
        0x4022_fa72_7734_cf12,
        0x4034_66d9_851b_3d6d,
        0x4047_4431_f3bc_654f,
        0x4054_9718_7161_a372,
        0x405e_a6de_0b4f_c0aa,
        0x4078_3dd4_585a_d746,
    ],
    [
        0x4026_5a14_90df_637a,
        0x4036_11e0_dd79_edf9,
        0x4041_0c56_8164_6c75,
        0x4053_4684_551c_4d84,
        0x4063_2468_e24d_e8a2,
        0x4075_64e9_310a_1d64,
    ],
    [
        0x4022_b7b5_eef4_25a2,
        0x4038_36b4_bf47_4d82,
        0x4042_60a4_c76e_b24f,
        0x4053_95b9_7ada_1f24,
        0x4061_a44a_3270_df6c,
        0x4076_468b_da79_5f65,
    ],
    [
        0x4026_b4d3_3dfe_c199,
        0x4034_9b6c_edf8_9f81,
        0x4040_f7ef_36d5_58ed,
        0x4057_588d_b991_d6b3,
        0x4061_02bb_8d24_8244,
        0x4078_a040_4cb5_97f6,
    ],
];

#[test]
fn default_backoff_delays_are_pinned() {
    let policy = RetryPolicy::default();
    let got: Vec<[u64; 6]> = SEEDS
        .iter()
        .map(|&seed| std::array::from_fn(|a| policy.delay_ms(seed, a as u32).to_bits()))
        .collect();
    assert_eq!(got, GOLDEN, "backoff delays changed; bits now {got:#018x?}");
}
