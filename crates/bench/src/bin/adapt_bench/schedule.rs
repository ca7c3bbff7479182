//! The seeded inputs. `--seed` drives the order of searches, arrival
//! times and key picks; the program under test only ever sees what these
//! functions generate.
//!
//! Device calibrations and search execution seeds are *not* driven by
//! `--seed`. A calibration draw moves layout and routing and with them
//! the work itself (one search's cost changes tenfold between draws), and
//! an execution seed decides which masks a search visits, and with them
//! its peak memory (by a seventh across seeds), so runs on different
//! seeds would measure different work. The search workloads use one
//! fixed calibration per device and [`EXECUTION_ROOT`]'s seeds, and every
//! service runs on [`SERVICE_SEED`].

use adapt_service::DeviceId;
use benchmarks::BenchmarkSpec;
use device::{Device, SeedSpawner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The devices every workload targets: the paper's Guadalupe plus the two
/// 27-qubit Falcons.
pub const DEVICES: [DeviceId; 3] = [DeviceId::Guadalupe, DeviceId::Toronto, DeviceId::Paris];

/// Calibration seed root of the search workloads' devices.
const CALIBRATION_ROOT: u64 = 2021;

/// Root of the search workloads' execution seeds, one per round.
pub const EXECUTION_ROOT: u64 = 2021;

/// Seed of every service the serving workloads start: calibrations and
/// search seeds of the served keys.
pub const SERVICE_SEED: u64 = 2021;

/// Largest program searched with a seeded decoy, which runs on the dense
/// engine. Beyond it the cost of one search swings from 1 to 15 s with
/// how much routing on a calibration grows the active set (QAOA-10B), so
/// a single search would outweigh a run.
pub const SDC_MAX_QUBITS: usize = 8;

/// Zipf exponent of key popularity in the serving workloads.
const ZIPF_S: f64 = 1.1;

/// A derived seed for one labelled use of the run seed.
pub fn derive(seed: u64, label: u64) -> u64 {
    SeedSpawner::new(seed).derive(label)
}

/// The search workloads' devices, in [`DEVICES`] order.
pub fn calibrated_devices() -> Vec<Device> {
    DEVICES
        .iter()
        .enumerate()
        .map(|(i, id)| id.build(derive(CALIBRATION_ROOT, i as u64)))
        .collect()
}

/// Every `(program, device)` pair where the device can host the program.
/// Sending a program to a device with fewer qubits is a client error the
/// layout stage does not reject cleanly, so pairs are filtered here.
pub fn pairs(programs: &[BenchmarkSpec]) -> Vec<(usize, DeviceId)> {
    let sizes: Vec<usize> = DEVICES.iter().map(|&d| d.build(0).num_qubits()).collect();
    programs
        .iter()
        .enumerate()
        .flat_map(|(p, spec)| {
            DEVICES
                .iter()
                .zip(&sizes)
                .filter(move |&(_, &size)| size >= spec.num_qubits)
                .map(move |(&d, _)| (p, d))
        })
        .collect()
}

/// The serving workloads' key space: every program of both paper suites
/// with at most [`SDC_MAX_QUBITS`] qubits (the service searches with
/// seeded decoys), on every device. Key order is fixed, so it also fixes
/// which keys are popular.
pub fn hot_programs() -> Vec<BenchmarkSpec> {
    benchmarks::suite::paper_suite()
        .into_iter()
        .chain(benchmarks::suite::table1_suite())
        .filter(|b| b.num_qubits <= SDC_MAX_QUBITS)
        .collect()
}

/// `0..n` in a seeded order.
pub fn shuffled(seed: u64, label: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(derive(seed, label));
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.gen_range(0..i + 1));
    }
    idx
}

/// How often each of `keys` ranks appears among `total` picks under
/// Zipf([`ZIPF_S`]): expected counts, rounded by largest remainder, with
/// every key at least once (`total >= keys`).
pub fn zipf_counts(keys: usize, total: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let sum: f64 = weights.iter().sum();
    let spare = (total - keys) as f64;
    let exact: Vec<f64> = weights.iter().map(|w| spare * w / sum).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| 1 + *e as usize).collect();
    let mut order: Vec<usize> = (0..keys).collect();
    order.sort_by(|&a, &b| (exact[b].fract()).total_cmp(&exact[a].fract()));
    let short = total - counts.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// The picks of block `block`: every key as often as [`zipf_counts`]
/// says, in a seeded order. Each block of a workload thus carries the
/// same key mix, and the seed moves only where each pick falls.
pub fn block_picks(seed: u64, block: u64, keys: usize, total: usize) -> Vec<usize> {
    let picks: Vec<usize> = zipf_counts(keys, total)
        .into_iter()
        .enumerate()
        .flat_map(|(k, c)| std::iter::repeat_n(k, c))
        .collect();
    shuffled(seed, 0xB10C_0000 ^ block, picks.len())
        .into_iter()
        .map(|i| picks[i])
        .collect()
}

/// Open-loop arrivals: Poisson at `rate_per_s` for `seconds`, keys from
/// consecutive one-second blocks of [`block_picks`]. Returns `(due_ns,
/// key)` in send order.
pub fn poisson_schedule(
    seed: u64,
    rate_per_s: f64,
    seconds: u64,
    keys: usize,
) -> Vec<(u64, usize)> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 0xA771_7A15));
    let block = rate_per_s.round() as usize;
    let horizon_ns = seconds as f64 * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(block * seconds as usize + 16);
    let mut picks = Vec::new();
    loop {
        // Exponential inter-arrival gap; 1 − u keeps ln away from 0.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate_per_s * 1e9;
        if t >= horizon_ns {
            return out;
        }
        if picks.is_empty() {
            picks = block_picks(seed, (out.len() / block) as u64, keys, block);
            picks.reverse();
        }
        out.push((t as u64, picks.pop().expect("refilled when empty")));
    }
}

/// `k` distinct indices out of `0..n`, sorted: the replay sample.
pub fn sample(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut idx = shuffled(seed, 0x5A3F_1E00, n);
    idx.truncate(k.min(n));
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seeded_schedule_is_deterministic() {
        let a = poisson_schedule(7, 1000.0, 2, 36);
        assert_eq!(a, poisson_schedule(7, 1000.0, 2, 36));
        assert_ne!(a, poisson_schedule(8, 1000.0, 2, 36));
        // About rate × seconds arrivals, in time order, keys in range.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.iter().all(|&(t, k)| t < 2_000_000_000 && k < 36));
        assert_eq!(block_picks(7, 3, 36, 150), block_picks(7, 3, 36, 150));
        assert_ne!(block_picks(7, 3, 36, 150), block_picks(7, 4, 36, 150));
        assert_eq!(sample(7, 36, 12), sample(7, 36, 12));
        assert_eq!(sample(7, 36, 12).len(), 12);
    }

    #[test]
    fn blocks_carry_every_key_in_zipf_proportion() {
        let counts = zipf_counts(36, 150);
        assert_eq!(counts.iter().sum::<usize>(), 150);
        assert!(counts.iter().all(|&c| c >= 1));
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert!(counts[0] > 10 * counts[35]);
        let mut picks = block_picks(1, 0, 36, 150);
        picks.sort_unstable();
        let mut expected: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
            .collect();
        expected.sort_unstable();
        assert_eq!(picks, expected);
    }

    #[test]
    fn pairs_only_fit_programs_on_devices() {
        let programs = hot_programs();
        assert_eq!(programs.len(), 12);
        let keys = pairs(&programs);
        assert_eq!(keys.len(), 36);
        let mut big = programs[0].clone();
        big.num_qubits = 20;
        assert_eq!(pairs(&[big]).len(), 2, "20 qubits fit only the Falcons");
    }
}
