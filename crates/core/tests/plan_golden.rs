//! Golden digests of the counts that DD-inserted decoys produce.
//!
//! Every execution is a pure function of `(schedule, device, toggles,
//! seed)`, so any change to plan compilation that alters a single draw
//! or probability shows up here as a changed FNV-1a 64 digest. The pins
//! cover Clifford and seeded decoys of three suite programs on Guadalupe
//! and Toronto, No-DD / All-DD / one partial mask under XY4 and IBMQ-DD,
//! the default noise toggles plus a crosstalk-only and a floor-only
//! variant, runs through both `execute_timed` and a batch, and the plan
//! cache's hits and misses over one `choose_mask`.
//!
//! A mismatch means trajectories changed: fix the code, do not re-pin.

use adapt::dd::{analyze_idle_windows, insert_dd_prepared, mask_to_wires};
use adapt::decoy::make_decoy;
use adapt::{Adapt, AdaptConfig, DdConfig, DdMask, DdProtocol, DecoyKind};
use device::Device;
use machine::{Backend, ExecutionConfig, JobSpec, Machine, NoiseToggles};
use qcirc::Counts;
use transpiler::{transpile, TranspileOptions};

fn fnv64(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_counts(h: u64, counts: &Counts) -> u64 {
    let mut h = fnv64(h, &(counts.num_bits() as u64).to_le_bytes());
    for (outcome, n) in counts.iter() {
        h = fnv64(h, &outcome.to_le_bytes());
        h = fnv64(h, &n.to_le_bytes());
    }
    h
}

fn assert_golden(what: &str, got: &[u64], golden: &[u64]) {
    let changed: Vec<usize> = (0..got.len().max(golden.len()))
        .filter(|&i| got.get(i) != golden.get(i))
        .collect();
    assert!(
        changed.is_empty(),
        "{what}: counts changed at sample indices {changed:?}; digests now {got:#018x?}"
    );
}

const PROGRAMS: [&str; 3] = ["BV-7", "QFT-6A", "QAOA-8A"];

fn devices() -> [Device; 2] {
    [Device::ibmq_guadalupe(4), Device::ibmq_toronto(4)]
}

const DECOYS: [DecoyKind; 2] = [
    DecoyKind::Clifford,
    DecoyKind::Seeded { max_seed_qubits: 4 },
];

const PROTOCOLS: [DdProtocol; 2] = [DdProtocol::Xy4, DdProtocol::IbmqDd];

fn toggle_variants() -> [NoiseToggles; 3] {
    [
        NoiseToggles::default(),
        NoiseToggles {
            idle_crosstalk: true,
            ..NoiseToggles::none()
        },
        NoiseToggles {
            idle_floor: true,
            ..NoiseToggles::none()
        },
    ]
}

const EXEC: ExecutionConfig = ExecutionConfig {
    shots: 96,
    trajectories: 4,
    seed: 0x601D,
    threads: 1,
};

/// One digest per (program, device, decoy, protocol, toggles), in that
/// nesting order, each over the No-DD, All-DD and alternating-mask
/// counts. Returns the `execute_timed` digests and the batch digests.
fn decoy_digests() -> (Vec<u64>, Vec<u64>) {
    let (mut serial, mut batched) = (Vec::new(), Vec::new());
    for name in PROGRAMS {
        let spec = benchmarks::suite::by_name(name).expect("suite program");
        let n = spec.num_qubits;
        let masks = [
            DdMask::none(n),
            DdMask::all(n),
            DdMask::from_bits(0x5555_5555_5555_5555 & ((1 << n) - 1), n),
        ];
        for device in devices() {
            let compiled = transpile(&spec.circuit, &device, &TranspileOptions::default());
            for kind in DECOYS {
                let decoy = make_decoy(&compiled.timed, kind).expect("decoy builds");
                for protocol in PROTOCOLS {
                    let analysis = analyze_idle_windows(
                        &decoy.timed,
                        &device,
                        &DdConfig::for_protocol(protocol),
                    );
                    let inserted: Vec<_> = masks
                        .iter()
                        .map(|&m| {
                            let wires = mask_to_wires(m, &compiled.initial_layout);
                            insert_dd_prepared(&decoy.timed, &analysis, &wires).timed
                        })
                        .collect();
                    for toggles in toggle_variants() {
                        let machine = Machine::with_toggles(device.clone(), toggles);
                        let mut h = FNV_OFFSET;
                        for timed in &inserted {
                            let counts = machine.execute_timed(timed, &EXEC).expect("executes");
                            h = digest_counts(h, &counts);
                        }
                        serial.push(h);

                        let jobs: Vec<JobSpec<'_>> = inserted
                            .iter()
                            .map(|timed| JobSpec {
                                timed,
                                config: EXEC,
                            })
                            .collect();
                        let fresh = Machine::with_toggles(device.clone(), toggles);
                        let h = Backend::execute_batch(&fresh, &jobs)
                            .into_iter()
                            .fold(FNV_OFFSET, |h, r| {
                                digest_counts(h, &r.expect("batch job executes").counts)
                            });
                        batched.push(h);
                    }
                }
            }
        }
    }
    (serial, batched)
}

const DECOY_GOLDEN: [u64; 72] = [
    0x45133b58142a2a72,
    0x2a4efa2ba0d239d2,
    0xc3657c768bafe9b0,
    0xb121d6664bc1c517,
    0x6d390faad957782f,
    0xb491f6285f86b03a,
    0x45133b58142a2a72,
    0x2a4efa2ba0d239d2,
    0xc3657c768bafe9b0,
    0xb121d6664bc1c517,
    0x6d390faad957782f,
    0xb491f6285f86b03a,
    0xd230bc28fe929a79,
    0x58994a307f0a3a33,
    0xbea6fb27209ae5b3,
    0x0caeaa899c9611bb,
    0x58994a307f0a3a33,
    0x562a82519378205a,
    0xd230bc28fe929a79,
    0x58994a307f0a3a33,
    0xbea6fb27209ae5b3,
    0x0caeaa899c9611bb,
    0x58994a307f0a3a33,
    0x562a82519378205a,
    0xf788cb985fad4bd2,
    0xc92f0bd56fe92d89,
    0x502d8e7793edc757,
    0x035a3c0f604c7e7b,
    0x534d79e8d468a3dd,
    0x018ccc95c7a0cb9d,
    0xd3648d129902ffb1,
    0x2f822357055e4b62,
    0x49ec6e2be4a4e40d,
    0xf8455a91992f733f,
    0x656ba677c43a0e76,
    0x528a1eb52333b073,
    0xb611c8511b4626c3,
    0x58965fbcf1e723cd,
    0x9741969f3a8be71b,
    0xd1d206e5ebe6acfa,
    0x0d0afb092e49b54f,
    0xe25327a14ec98a45,
    0x0cdf2dd8283cfca2,
    0xf19a5347957a4227,
    0x553560455ba1a7ea,
    0x2461c7ee25c6ba0a,
    0xafd9a819b9ae5508,
    0x974d467f095aaab4,
    0xd443258b4fd9fcd7,
    0xebaf0722589693da,
    0x5800cc4752483f21,
    0xe99d24befad70256,
    0xd9eb86779e2f4c9a,
    0xa79fd4a71abadd09,
    0x1cd787fc8c55f437,
    0x5acf54c97b69e931,
    0x10ef7190a0e02bce,
    0x1e30655a7ca5cb2a,
    0xd66889b9bd6d287b,
    0x87df15aee4e57a2d,
    0x3a6ef8ce7c1dafb6,
    0x78fc1d72023eb71b,
    0xeb3f77e832c47917,
    0xe91a7ee51daa9894,
    0xa4970d558d983df7,
    0x9f51fc19b441c52e,
    0x512448570b561c5c,
    0x0b533207f28093c0,
    0x6829f5caba056768,
    0xd52d9a759f3c4c33,
    0xcc178dff40a8025c,
    0xef12483a4ce492c7,
];

#[test]
fn dd_inserted_decoy_counts_are_pinned() {
    let (serial, batched) = decoy_digests();
    assert_eq!(serial.len(), 72);
    assert_golden("execute_timed", &serial, &DECOY_GOLDEN);
    assert_golden("execute_batch", &batched, &DECOY_GOLDEN);
}

/// `(hits, misses, chosen mask bits, digest of every evaluation's mask
/// and fidelity bits)` per (program, decoy) on Guadalupe under XY4.
const CHOOSE_MASK_GOLDEN: [(u64, u64, u64, u64); 4] = [
    (16, 11, 0x4f, 0x4ca8f6c5caca12a1),
    (16, 11, 0x4f, 0x4ca8f6c5caca12a1),
    (3, 20, 0x27, 0x00bb070780f57888),
    (3, 20, 0x0, 0x46d87cd6a0ad1ada),
];

#[test]
fn choose_mask_plan_cache_traffic_is_pinned() {
    let mut got = Vec::new();
    for name in ["BV-7", "QFT-6A"] {
        let spec = benchmarks::suite::by_name(name).expect("suite program");
        for kind in DECOYS {
            let machine = Machine::new(Device::ibmq_guadalupe(4));
            let adapt = Adapt::new(machine.clone());
            let cfg = AdaptConfig {
                decoy_kind: kind,
                search_exec: EXEC,
                ..AdaptConfig::with_protocol(DdProtocol::Xy4)
            };
            let compiled = adapt.compile(&spec.circuit, &cfg);
            let result = adapt
                .choose_mask(&compiled, spec.num_qubits, &cfg)
                .expect("search runs");
            let stats = machine.plan_cache_stats();
            let evals = result.evaluations.iter().fold(FNV_OFFSET, |h, s| {
                let h = fnv64(h, &s.mask.bits().to_le_bytes());
                fnv64(h, &s.fidelity.to_bits().to_le_bytes())
            });
            got.push((stats.hits, stats.misses, result.best.bits(), evals));
        }
    }
    assert_eq!(
        got.as_slice(),
        CHOOSE_MASK_GOLDEN.as_slice(),
        "choose_mask traffic changed; now {got:#x?}"
    );
}
