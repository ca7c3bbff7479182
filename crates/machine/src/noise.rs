//! Noise processes driving the trajectory executor.
//!
//! The central modeling decision (see DESIGN.md): idling errors are a
//! **coherent, slowly-fluctuating Z rotation**, not a stochastic Pauli
//! channel. Dynamical decoupling is an echo technique — it can only cancel
//! noise that stays correlated between pulses — so representing the
//! dephasing as an explicit detuning process lets the simulated DD pulses
//! produce (im)perfect echo cancellation for exactly the physical reasons
//! the paper discusses: XY4's dense pulses refocus the process up to its
//! correlation time, while the sparse IBMQ-DD sequence leaves long
//! unprotected gaps (§6.4), and every inserted pulse pays gate error.

use device::QubitCalibration;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Gaussian sample via Box–Muller (avoids a rand_distr dependency). It
/// consumes exactly two words of the stream and never returns NaN
/// (`u1 ≥ 1e-12`, so the logarithm is finite).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A random stream that also hands out standard normals.
///
/// The default [`NormalSource::normal`] is [`standard_normal`], and
/// [`StdRng`] keeps it, so code generic over this trait runs exactly the
/// plain Box–Muller path on a plain generator. [`MemoCursor`] overrides it
/// to share normals between runs of one trajectory seed.
pub trait NormalSource: Rng {
    /// One standard normal, drawn from the next two words of the stream.
    fn normal(&mut self) -> f64 {
        standard_normal(self)
    }
}

impl NormalSource for StdRng {}

/// A trajectory seed's [`StdRng`] that memoises its normals by stream
/// position, so runs of that seed through different op streams compute
/// each Box–Muller normal once.
///
/// The memo holds, at index `p`, the normal of words `p` and `p + 1` of the
/// seed's stream, or NaN when none was computed there. An entry is a pure
/// function of the seed and `p`, so any run of the seed may fill it and
/// any other may read it. On a hit the cursor returns the stored value and
/// still steps the generator two words, so the stream, every later draw
/// and the final generator state are exactly those of a plain run.
///
/// # Examples
///
/// ```
/// use machine::noise::{MemoCursor, NormalSource};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut memo = Vec::new();
/// let first = MemoCursor::new(StdRng::seed_from_u64(3), &mut memo).normal();
/// let mut again = MemoCursor::new(StdRng::seed_from_u64(3), &mut memo);
/// assert_eq!(again.normal(), first);
/// assert_eq!((again.hits(), again.misses()), (1, 0));
/// assert_eq!(again.into_rng(), {
///     let mut plain = StdRng::seed_from_u64(3);
///     plain.normal();
///     plain
/// });
/// ```
#[derive(Debug)]
pub struct MemoCursor<'m> {
    rng: StdRng,
    /// Words drawn from `rng` so far: the stream position of the next draw.
    pos: usize,
    memo: &'m mut Vec<f64>,
    hits: u64,
    misses: u64,
}

impl<'m> MemoCursor<'m> {
    /// Starts a run of the stream `rng` (freshly seeded) over `memo`, which
    /// must only ever hold normals of that same seed.
    pub fn new(rng: StdRng, memo: &'m mut Vec<f64>) -> Self {
        MemoCursor {
            rng,
            pos: 0,
            memo,
            hits: 0,
            misses: 0,
        }
    }

    /// Resumes a run of the memo's seed at stream position `pos`, with the
    /// generator as a run left it there (see [`MemoCursor::checkpoint`]).
    pub(crate) fn resume(rng: StdRng, pos: usize, memo: &'m mut Vec<f64>) -> Self {
        MemoCursor {
            pos,
            ..MemoCursor::new(rng, memo)
        }
    }

    /// The generator and its stream position, for a later run to resume
    /// from.
    pub(crate) fn checkpoint(&self) -> (StdRng, usize) {
        (self.rng.clone(), self.pos)
    }

    /// Normals served from the memo so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Normals computed (and stored) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The underlying generator, in the state a plain run would leave.
    pub fn into_rng(self) -> StdRng {
        self.rng
    }
}

impl RngCore for MemoCursor<'_> {
    fn next_u64(&mut self) -> u64 {
        self.pos += 1;
        self.rng.next_u64()
    }
}

impl NormalSource for MemoCursor<'_> {
    fn normal(&mut self) -> f64 {
        let p = self.pos;
        match self.memo.get(p) {
            Some(&v) if !v.is_nan() => {
                self.rng.next_u64();
                self.rng.next_u64();
                self.pos += 2;
                self.hits += 1;
                v
            }
            _ => {
                let v = standard_normal(self);
                if self.memo.len() <= p {
                    self.memo.resize(p + 1, f64::NAN);
                }
                self.memo[p] = v;
                self.misses += 1;
                v
            }
        }
    }
}

/// Pauli-twirl probability of a coherent `RZ(theta)`: the twirled
/// channel applies `Z` with probability `sin²(θ/2)` and identity
/// otherwise. This is exactly the diagonal of the channel in the Pauli
/// basis, so the twirl preserves Z-basis populations and (in
/// expectation) the off-diagonal damping `cos θ` of the original
/// rotation. Used by the CHP engine when flushing pending idle phases
/// (see [`crate::engine`]).
pub fn z_twirl_probability(theta: f64) -> f64 {
    let s = (theta / 2.0).sin();
    s * s
}

/// Per-trajectory detuning of one qubit: a quasi-static offset plus an
/// Ornstein–Uhlenbeck fluctuation, in rad/µs.
///
/// # Examples
///
/// ```
/// use device::{Device, SeedSpawner};
/// use machine::noise::QubitDetuning;
///
/// let dev = Device::ibmq_guadalupe(1);
/// let mut rng = SeedSpawner::new(7).rng();
/// let mut d = QubitDetuning::sample(dev.qubit(0), &mut rng);
/// // Integrating the detuning over 1µs yields a phase in radians.
/// let phase = d.advance(1000.0, &mut rng);
/// assert!(phase.abs() < 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct QubitDetuning {
    /// Static offset for this trajectory (rad/µs).
    pub static_offset: f64,
    /// Current OU value (rad/µs).
    ou_value: f64,
    /// OU stationary standard deviation (rad/µs).
    ou_sigma: f64,
    /// OU correlation time (ns).
    ou_tau_ns: f64,
    /// Integration sub-step (ns).
    step_ns: f64,
    /// OU decay `exp(-step_ns/τ)` over one full sub-step.
    step_decay: f64,
    /// `sqrt(1 - step_decay²)`: the full sub-step's diffusion per unit σ.
    step_unit: f64,
    /// The last partial sub-step seen, as `f64::to_bits` (NaN bits until
    /// the first one), and its `(decay, unit)`: DD-padded windows repeat
    /// one pulse spacing, so the same remainder comes back window after
    /// window.
    rem_bits: u64,
    rem_decay: f64,
    rem_unit: f64,
}

impl QubitDetuning {
    /// Draws a fresh trajectory realization from qubit calibration.
    pub fn sample<R: NormalSource + ?Sized>(cal: &QubitCalibration, rng: &mut R) -> Self {
        let step_ns = 40.0;
        let (step_decay, step_unit) = ou_step(step_ns, cal.ou_tau_ns);
        QubitDetuning {
            static_offset: cal.static_sigma * rng.normal(),
            ou_value: cal.ou_sigma * rng.normal(),
            ou_sigma: cal.ou_sigma,
            ou_tau_ns: cal.ou_tau_ns,
            step_ns,
            step_decay,
            step_unit,
            rem_bits: f64::NAN.to_bits(),
            rem_decay: 0.0,
            rem_unit: 0.0,
        }
    }

    /// Advances the process by `dt_ns` and returns the accumulated phase
    /// (radians) contributed by the static offset and the OU fluctuation
    /// over that interval. Crosstalk contributions are added by the caller
    /// (they depend on which links are active when).
    pub fn advance<R: NormalSource + ?Sized>(&mut self, dt_ns: f64, rng: &mut R) -> f64 {
        if dt_ns <= 0.0 {
            return 0.0;
        }
        let mut phase = self.static_offset * dt_ns / 1000.0;
        let mut remaining = dt_ns;
        while remaining > 0.0 {
            let step = remaining.min(self.step_ns);
            // Trapezoidal phase contribution of the OU value over the step.
            let before = self.ou_value;
            let (decay, unit) = if step == self.step_ns {
                (self.step_decay, self.step_unit)
            } else {
                if step.to_bits() != self.rem_bits {
                    (self.rem_decay, self.rem_unit) = ou_step(step, self.ou_tau_ns);
                    self.rem_bits = step.to_bits();
                }
                (self.rem_decay, self.rem_unit)
            };
            let diffusion = self.ou_sigma * unit;
            self.ou_value = before * decay + diffusion * rng.normal();
            phase += 0.5 * (before + self.ou_value) * step / 1000.0;
            remaining -= step;
        }
        phase
    }

    /// Current OU value (rad/µs) — exposed for tests and diagnostics.
    pub fn ou_value(&self) -> f64 {
        self.ou_value
    }
}

/// Exact OU transition over `step` ns: the decay `exp(-step/τ)` and the
/// diffusion per unit stationary σ, `sqrt(1 - decay²)`.
fn ou_step(step: f64, tau_ns: f64) -> (f64, f64) {
    let decay = (-step / tau_ns).exp();
    (decay, (1.0 - decay * decay).sqrt())
}

/// Stochastic (non-echoable) idling floor: amplitude damping and white
/// dephasing, Pauli-twirled. Returns flip probabilities for an idle
/// interval of `dt_ns`.
///
/// The probabilities follow the standard Pauli-twirl of the thermal
/// relaxation channel: `p_x = p_y = (1 − e^{−t/T1})/4` and
/// `p_z = (1 − e^{−t/Tφ})/2 · w` where `1/Tφ = 1/T2 − 1/(2·T1)` and `w`
/// is the white-noise fraction of pure dephasing not already captured by
/// the coherent detuning process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PauliFloor {
    /// X-flip probability.
    pub px: f64,
    /// Y-flip probability.
    pub py: f64,
    /// Z-flip probability.
    pub pz: f64,
}

/// Fraction of pure dephasing treated as uncorrelated white noise (the
/// rest lives in the coherent detuning process above).
pub const WHITE_DEPHASING_FRACTION: f64 = 0.25;

impl PauliFloor {
    /// Computes the floor for an idle interval.
    pub fn for_idle(cal: &QubitCalibration, dt_ns: f64) -> Self {
        let dt_us = dt_ns / 1000.0;
        let p_relax = 1.0 - (-dt_us / cal.t1_us).exp();
        let inv_tphi = (1.0 / cal.t2_us - 0.5 / cal.t1_us).max(0.0);
        let p_deph = 1.0 - (-dt_us * inv_tphi * WHITE_DEPHASING_FRACTION).exp();
        PauliFloor {
            px: p_relax / 4.0,
            py: p_relax / 4.0,
            pz: p_deph / 2.0,
        }
    }

    /// Samples which Pauli (if any) to apply: 0 = none, 1 = X, 2 = Y,
    /// 3 = Z.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
        let r: f64 = rng.gen();
        if r < self.px {
            1
        } else if r < self.px + self.py {
            2
        } else if r < self.px + self.py + self.pz {
            3
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::{Device, SeedSpawner};

    fn cal() -> QubitCalibration {
        *Device::ibmq_toronto(3).qubit(5)
    }

    #[test]
    fn normal_moments() {
        let mut rng = SeedSpawner::new(1).rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn detuning_static_offset_varies_per_trajectory() {
        let c = cal();
        let mut rng = SeedSpawner::new(2).rng();
        let a = QubitDetuning::sample(&c, &mut rng).static_offset;
        let b = QubitDetuning::sample(&c, &mut rng).static_offset;
        assert_ne!(a, b);
    }

    #[test]
    fn phase_scales_linearly_with_static_offset() {
        let c = cal();
        let mut rng = SeedSpawner::new(3).rng();
        let mut d = QubitDetuning::sample(&c, &mut rng);
        d.static_offset = 2.0; // rad/µs
                               // Suppress the OU part to isolate the static contribution.
        d.ou_value = 0.0;
        d.ou_sigma = 0.0;
        let phase = d.advance(500.0, &mut rng); // 0.5 µs
        assert!((phase - 1.0).abs() < 1e-9, "phase {phase}");
    }

    #[test]
    fn ou_process_is_mean_reverting_with_right_variance() {
        let c = cal();
        let mut rng = SeedSpawner::new(4).rng();
        let mut d = QubitDetuning::sample(&c, &mut rng);
        d.static_offset = 0.0;
        let mut values = Vec::new();
        for _ in 0..20_000 {
            d.advance(100.0, &mut rng);
            values.push(d.ou_value());
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / values.len() as f64;
        let expected = c.ou_sigma * c.ou_sigma;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!(
            (var - expected).abs() / expected < 0.15,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn ou_correlation_decays_with_lag() {
        let c = cal();
        let mut rng = SeedSpawner::new(5).rng();
        let mut d = QubitDetuning::sample(&c, &mut rng);
        d.static_offset = 0.0;
        let mut vals = Vec::new();
        for _ in 0..40_000 {
            d.advance(50.0, &mut rng);
            vals.push(d.ou_value());
        }
        let corr = |lag: usize| -> f64 {
            let n = vals.len() - lag;
            let m = vals.iter().sum::<f64>() / vals.len() as f64;
            let cov: f64 = (0..n)
                .map(|i| (vals[i] - m) * (vals[i + lag] - m))
                .sum::<f64>()
                / n as f64;
            let var: f64 = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / vals.len() as f64;
            cov / var
        };
        let short = corr(2); // lag 100ns ≪ τ
        let long = corr((c.ou_tau_ns as usize / 50) * 4); // lag 4τ
        assert!(short > 0.8, "short-lag correlation {short}");
        assert!(long < 0.3, "long-lag correlation {long}");
    }

    #[test]
    fn remainder_memo_is_bit_identical_to_recomputing() {
        // The reference: today's loop with the partial step's transition
        // computed afresh every time.
        fn reference(d: &mut QubitDetuning, dt_ns: f64, rng: &mut StdRng) -> f64 {
            let mut phase = d.static_offset * dt_ns / 1000.0;
            let mut remaining = dt_ns;
            while remaining > 0.0 {
                let step = remaining.min(d.step_ns);
                let before = d.ou_value;
                let (decay, unit) = ou_step(step, d.ou_tau_ns);
                d.ou_value = before * decay + d.ou_sigma * unit * standard_normal(rng);
                phase += 0.5 * (before + d.ou_value) * step / 1000.0;
                remaining -= step;
            }
            phase
        }
        let c = cal();
        let mut rng = SeedSpawner::new(8).rng();
        let mut memo = QubitDetuning::sample(&c, &mut rng);
        let mut plain = memo.clone();
        let mut r_plain = rng.clone();
        for dt in [
            100.0, 100.0, 70.0, 100.0, 30.0, 30.0, 40.0, 0.5, 1000.0, 100.0,
        ] {
            let a = memo.advance(dt, &mut rng);
            let b = reference(&mut plain, dt, &mut r_plain);
            assert_eq!(a.to_bits(), b.to_bits(), "phase over {dt} ns");
            assert_eq!(memo.ou_value.to_bits(), plain.ou_value.to_bits());
        }
        assert_eq!(rng, r_plain);
    }

    #[test]
    fn zero_interval_accumulates_nothing() {
        let c = cal();
        let mut rng = SeedSpawner::new(6).rng();
        let mut d = QubitDetuning::sample(&c, &mut rng);
        assert_eq!(d.advance(0.0, &mut rng), 0.0);
        assert_eq!(d.advance(-5.0, &mut rng), 0.0);
    }

    #[test]
    fn pauli_floor_grows_with_time_and_saturates() {
        let c = cal();
        let short = PauliFloor::for_idle(&c, 100.0);
        let long = PauliFloor::for_idle(&c, 100_000.0);
        assert!(short.px < long.px);
        assert!(long.px <= 0.25 + 1e-12);
        assert!(long.pz <= 0.5 + 1e-12);
        assert!(short.px > 0.0);
    }

    #[test]
    fn pauli_floor_sampling_respects_probabilities() {
        let floor = PauliFloor {
            px: 0.1,
            py: 0.1,
            pz: 0.2,
        };
        let mut rng = SeedSpawner::new(7).rng();
        let mut histo = [0u32; 4];
        let n = 50_000;
        for _ in 0..n {
            histo[floor.sample(&mut rng) as usize] += 1;
        }
        assert!((histo[0] as f64 / n as f64 - 0.6).abs() < 0.02);
        assert!((histo[1] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((histo[3] as f64 / n as f64 - 0.2).abs() < 0.015);
    }
}
