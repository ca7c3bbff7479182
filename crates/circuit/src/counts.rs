//! Measurement-outcome histograms.
//!
//! Every executor in the stack (ideal state-vector, noisy trajectory
//! machine, stabilizer samplers) reports results as [`Counts`]: a histogram
//! of classical bitstrings. The ADAPT metrics layer turns these into
//! probability distributions for TVD/fidelity computations.

use std::collections::BTreeMap;
use std::fmt;

/// Histogram of measured classical bitstrings.
///
/// Bitstrings are stored little-endian in a `u64`: bit `k` is classical bit
/// `k`. At most 64 classical bits are supported, far beyond the benchmark
/// sizes in the paper (≤ 10 measured qubits).
///
/// # Examples
///
/// ```
/// use qcirc::counts::Counts;
/// let mut counts = Counts::new(2);
/// counts.record(0b01);
/// counts.record(0b01);
/// counts.record(0b10);
/// assert_eq!(counts.total(), 3);
/// assert_eq!(counts.get(0b01), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Counts {
    num_bits: usize,
    map: BTreeMap<u64, u64>,
    total: u64,
}

impl Counts {
    /// Creates an empty histogram over `num_bits` classical bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_bits > 64`.
    pub fn new(num_bits: usize) -> Self {
        assert!(num_bits <= 64, "at most 64 classical bits supported");
        Counts {
            num_bits,
            map: BTreeMap::new(),
            total: 0,
        }
    }

    /// Number of classical bits per outcome.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Records one occurrence of `outcome`.
    pub fn record(&mut self, outcome: u64) {
        self.record_many(outcome, 1);
    }

    /// Records `n` occurrences of `outcome`.
    pub fn record_many(&mut self, outcome: u64, n: u64) {
        debug_assert!(
            self.num_bits == 64 || outcome < (1u64 << self.num_bits),
            "outcome {outcome:#b} exceeds {} bits",
            self.num_bits
        );
        if n == 0 {
            return;
        }
        *self.map.entry(outcome).or_insert(0) += n;
        self.total += n;
    }

    /// Total number of recorded shots.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for a specific outcome (0 when absent).
    pub fn get(&self, outcome: u64) -> u64 {
        self.map.get(&outcome).copied().unwrap_or(0)
    }

    /// Empirical probability of an outcome.
    pub fn probability(&self, outcome: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.get(outcome) as f64 / self.total as f64
        }
    }

    /// Iterates over `(outcome, count)` pairs in outcome order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of distinct outcomes observed.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Shannon entropy of the empirical distribution, in bits.
    ///
    /// ADAPT's seeded decoy circuits are designed to produce *low-entropy*
    /// outputs (§4.2.3) so that idling errors visibly perturb them.
    pub fn entropy_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let t = self.total as f64;
        -self
            .map
            .values()
            .map(|&v| {
                let p = v as f64 / t;
                p * p.log2()
            })
            .sum::<f64>()
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics when bit widths differ.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(
            self.num_bits, other.num_bits,
            "cannot merge histograms of different widths"
        );
        for (k, v) in other.iter() {
            self.record_many(k, v);
        }
    }

    /// Renders an outcome as a bitstring, most-significant bit first
    /// (Qiskit convention: classical bit 0 is the rightmost character).
    pub fn format_outcome(&self, outcome: u64) -> String {
        (0..self.num_bits)
            .rev()
            .map(|b| if outcome >> b & 1 == 1 { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", self.format_outcome(k), v)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<u64> for Counts {
    /// Builds a 64-bit-wide histogram from raw outcomes. Use
    /// [`Counts::new`] + [`Counts::record`] when the width matters.
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut c = Counts::new(64);
        for o in iter {
            c.record(o);
        }
        c
    }
}

impl Extend<u64> for Counts {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for o in iter {
            self.record(o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut c = Counts::new(3);
        c.record(0);
        c.record_many(5, 9);
        assert_eq!(c.total(), 10);
        assert_eq!(c.get(5), 9);
        assert_eq!(c.get(1), 0);
        assert!((c.probability(5) - 0.9).abs() < 1e-12);
        assert_eq!(c.distinct(), 2);
    }

    #[test]
    fn empty_histogram_behaves() {
        let c = Counts::new(2);
        assert_eq!(c.total(), 0);
        assert_eq!(c.probability(0), 0.0);
        assert_eq!(c.entropy_bits(), 0.0);
    }

    #[test]
    fn entropy_of_uniform_and_point_mass() {
        let mut uniform = Counts::new(2);
        for o in 0..4 {
            uniform.record_many(o, 25);
        }
        assert!((uniform.entropy_bits() - 2.0).abs() < 1e-12);

        let mut point = Counts::new(2);
        point.record_many(3, 100);
        assert!(point.entropy_bits() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::new(2);
        a.record(1);
        let mut b = Counts::new(2);
        b.record(1);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.get(1), 2);
        assert_eq!(a.get(2), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merge_rejects_width_mismatch() {
        let mut a = Counts::new(2);
        a.merge(&Counts::new(3));
    }

    #[test]
    fn formatting_is_msb_first() {
        let c = Counts::new(4);
        assert_eq!(c.format_outcome(0b0011), "0011");
        assert_eq!(c.format_outcome(0b1000), "1000");
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut c: Counts = [1u64, 1, 3].into_iter().collect();
        c.extend([3u64, 3]);
        assert_eq!(c.get(1), 2);
        assert_eq!(c.get(3), 3);
    }
}
