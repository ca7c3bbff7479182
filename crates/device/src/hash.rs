//! The workspace's two non-cryptographic hashes: FNV-1a 64 for stable
//! byte-string keys and digests, and SplitMix64 for seed streams and
//! avalanche mixing.
//!
//! FNV-1a comes with two multipliers. [`Fnv1a`] is standard FNV-1a 64.
//! [`Fnv1aLegacy`] multiplies by the FNV prime with one zero digit too
//! many (`0x1000_0000_01b3` against `0x100_0000_01b3`): `logical_hash`, the scenario replay digests,
//! checkpoint config hashes and the seeds of registry devices and
//! experiment benchmarks were built with it, and their values are pinned
//! (goldens, `results/replay_digests.json`, the quick CSV digests), so
//! they keep it.
//!
//! Both sit on the serving request path (`logical_hash`, `route_key`)
//! and the workspace builds without LTO, so every helper is `#[inline]`.

use std::fmt;

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0100_0000_01b3;
/// The multiplier of [`Fnv1aLegacy`]: `FNV_PRIME` with one more zero
/// digit.
const LEGACY_PRIME: u64 = 0x1000_0000_01b3;
/// SplitMix64's increment (the golden-ratio gamma).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// An FNV-1a 64 hash state multiplying by `PRIME`; use it as [`Fnv1a`]
/// or [`Fnv1aLegacy`]. Formatted text can be written into it
/// (`write!`), so a value's `Debug` form hashes without allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1aWith<const PRIME: u64>(u64);

/// Standard FNV-1a 64.
pub type Fnv1a = Fnv1aWith<FNV_PRIME>;
/// FNV-1a 64 over the legacy multiplier (see the module docs).
pub type Fnv1aLegacy = Fnv1aWith<LEGACY_PRIME>;

impl<const PRIME: u64> Fnv1aWith<PRIME> {
    /// The empty-input state.
    #[inline]
    pub const fn new() -> Self {
        Fnv1aWith(FNV_OFFSET)
    }

    /// Folds `bytes` into the state.
    #[inline]
    pub fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The hash of everything mixed so far.
    #[inline]
    pub const fn finish(self) -> u64 {
        self.0
    }

    /// The hash of `bytes` alone.
    #[inline]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::new();
        h.mix(bytes);
        h.finish()
    }
}

impl<const PRIME: u64> Default for Fnv1aWith<PRIME> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const PRIME: u64> fmt::Write for Fnv1aWith<PRIME> {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.mix(s.as_bytes());
        Ok(())
    }
}

/// One SplitMix64 step: advances `state` by the golden-ratio gamma and
/// returns the avalanche-mixed new state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`splitmix64`] as a pure function: the output of one step from
/// state `x`.
#[inline]
pub fn splitmix64_of(mut x: u64) -> u64 {
    splitmix64(&mut x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn the_legacy_variant_differs_only_in_its_multiplier() {
        assert_eq!(Fnv1aLegacy::hash(b""), 0xcbf2_9ce4_8422_2325);
        let expected = (0xcbf2_9ce4_8422_2325u64 ^ 0x61).wrapping_mul(LEGACY_PRIME);
        assert_eq!(Fnv1aLegacy::hash(b"a"), expected);
        assert_ne!(Fnv1aLegacy::hash(b"a"), Fnv1a::hash(b"a"));
    }

    #[test]
    fn written_text_hashes_like_its_bytes() {
        let (mut standard, mut legacy) = (Fnv1a::new(), Fnv1aLegacy::new());
        write!(standard, "{}-{:?}", 7, "x").unwrap();
        write!(legacy, "{}-{:?}", 7, "x").unwrap();
        assert_eq!(standard.finish(), Fnv1a::hash(b"7-\"x\""));
        assert_eq!(legacy.finish(), Fnv1aLegacy::hash(b"7-\"x\""));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of SplitMix64 seeded with 0 (Vigna's
        // reference implementation).
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64_of(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(state, GOLDEN_GAMMA.wrapping_mul(2));
    }
}
