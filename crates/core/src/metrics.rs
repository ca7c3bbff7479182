//! Reliability metrics (§5.4 of the paper).
//!
//! Program fidelity is `1 − TVD(P, Q)` between the ideal output
//! distribution `P` and the measured distribution `Q`. Decoy quality is
//! assessed with Spearman's rank correlation between real-circuit and
//! decoy-circuit fidelities across DD masks (§4.2.2); summaries use the
//! geometric mean (Table 5).

use qcirc::Counts;
use std::collections::BTreeMap;

/// Total Variation Distance between an exact distribution and an empirical
/// histogram (Eq. 2).
///
/// # Examples
///
/// ```
/// use adapt::metrics::{fidelity, tvd};
/// use qcirc::Counts;
/// use std::collections::BTreeMap;
///
/// let ideal: BTreeMap<u64, f64> = [(0b00, 0.5), (0b11, 0.5)].into();
/// let mut counts = Counts::new(2);
/// counts.record_many(0b00, 50);
/// counts.record_many(0b11, 50);
/// assert!(tvd(&ideal, &counts) < 1e-12);
/// assert!((fidelity(&ideal, &counts) - 1.0).abs() < 1e-12);
/// ```
pub fn tvd(ideal: &BTreeMap<u64, f64>, measured: &Counts) -> f64 {
    let mut d = 0.0;
    for (&k, &p) in ideal {
        d += (p - measured.probability(k)).abs();
    }
    for (k, _) in measured.iter() {
        if !ideal.contains_key(&k) {
            d += measured.probability(k);
        }
    }
    d / 2.0
}

/// Program fidelity `1 − TVD` (Eq. 3). 1 means identical distributions.
pub fn fidelity(ideal: &BTreeMap<u64, f64>, measured: &Counts) -> f64 {
    1.0 - tvd(ideal, measured)
}

/// Fractional ranks (average rank for ties), 1-based.
fn ranks(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite values"));
    let mut r = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

/// Spearman's rank correlation coefficient.
///
/// Returns 0 for degenerate inputs (length < 2 or zero variance in either
/// series).
///
/// # Panics
///
/// Panics when the slices have different lengths.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must have equal length");
    if xs.len() < 2 {
        return 0.0;
    }
    let rx = ranks(xs);
    let ry = ranks(ys);
    pearson(&rx, &ry)
}

/// Pearson correlation on raw values (used on ranks by [`spearman`]).
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "series must have equal length");
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        return 0.0;
    }
    cov / (vx.sqrt() * vy.sqrt())
}

/// Geometric mean of positive values; zero/negative entries are clamped to
/// a small floor so a single catastrophic benchmark cannot zero the
/// summary (matches common practice for relative-fidelity tables).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-6).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Shannon entropy (bits) of an exact distribution.
pub fn entropy_bits(dist: &BTreeMap<u64, f64>) -> f64 {
    -dist
        .values()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.log2())
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(u64, f64)]) -> BTreeMap<u64, f64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn tvd_identical_and_disjoint() {
        let p = dist(&[(0, 0.5), (3, 0.5)]);
        let mut c = Counts::new(2);
        c.record_many(0, 5);
        c.record_many(3, 5);
        assert!(tvd(&p, &c) < 1e-12);

        let mut d = Counts::new(2);
        d.record_many(1, 10);
        assert!((tvd(&p, &d) - 1.0).abs() < 1e-12);
        assert!(fidelity(&p, &d).abs() < 1e-12);
    }

    #[test]
    fn tvd_partial_overlap() {
        let p = dist(&[(0, 1.0)]);
        let mut c = Counts::new(1);
        c.record_many(0, 75);
        c.record_many(1, 25);
        assert!((tvd(&p, &c) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [10.0, 20.0, 30.0, 40.0];
        let down = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((spearman(&xs, &down) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone nonlinear map preserves ρ = 1.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| x.exp()).collect();
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let xs = [1.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 1.0, 2.0, 3.0];
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-12);
        let zs = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(spearman(&xs, &zs), 0.0);
    }

    #[test]
    fn spearman_near_zero_for_uncorrelated() {
        // Deterministic scrambled series.
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..100).map(|i| ((i * 7919) % 100) as f64).collect();
        assert!(spearman(&xs, &ys).abs() < 0.25);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        // Floored, not zeroed.
        assert!(geomean(&[0.0, 4.0]) > 0.0);
    }

    #[test]
    fn entropy_of_point_and_uniform() {
        assert!(entropy_bits(&dist(&[(0, 1.0)])) < 1e-12);
        let u = dist(&[(0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)]);
        assert!((entropy_bits(&u) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn spearman_length_mismatch_panics() {
        spearman(&[1.0], &[1.0, 2.0]);
    }
}
