//! Rendezvous (highest-random-weight) hashing of route keys onto
//! shards.
//!
//! Every `(key, shard)` pair gets a pseudo-random 64-bit weight from a
//! splitmix64 mix; a key is owned by the shard with the highest weight.
//! Two properties fall out of the construction, both pinned by the
//! property tests in `tests/ring_props.rs`:
//!
//! - **Order independence.** Ownership depends only on the *set* of
//!   shards (the argmax over a set), never on insertion order.
//! - **Exact minimal movement.** When one shard joins, the only keys
//!   that move are the ones the new shard now wins; when one leaves,
//!   the only keys that move are the ones it owned. In expectation a
//!   join/leave of one among N remaps K/N of K keys — the classic
//!   consistent-hashing bound.
//!
//! Weights also give each key a full deterministic *preference order*
//! over shards ([`Ring::ranked`]): the failover order the router walks
//! when the owner is down. Rerouting around a dead shard is therefore
//! exactly "owner among the live subset" — deterministic, and identical
//! to what a ring built without the dead shard would compute.

use adapt_service::DeviceId;
use device::hash::{splitmix64_of, Fnv1a};

/// A shard's identity in the fleet. Stable across restarts: a shard
/// that dies and comes back keeps its id (and thus its key ownership).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

/// The 64-bit route key for a request: the target device mixed with the
/// structural (`adapt_service::logical_hash`) hash of the circuit.
/// Epoch is deliberately *not* part of the key — a device's keys stay
/// on their shard across calibration epochs, so the owning shard's
/// cache keeps its history (and its stale-serve ladder) through drift.
pub fn route_key(device: DeviceId, logical_hash: u64) -> u64 {
    // FNV-1a over the stable device name, then avalanche together with
    // the circuit hash.
    let dev = Fnv1a::hash(device.name().as_bytes());
    splitmix64_of(dev ^ splitmix64_of(logical_hash))
}

/// The pseudo-random weight of `(key, shard)` — the rendezvous score.
fn weight(key: u64, shard: ShardId) -> u64 {
    splitmix64_of(key ^ splitmix64_of(0x5bd1_e995 ^ u64::from(shard.0)))
}

/// A rendezvous-hash ring: the set of shards a fleet routes across.
///
/// # Examples
///
/// ```
/// use adapt_fleet::ring::{Ring, ShardId};
///
/// let ring = Ring::new([ShardId(0), ShardId(1), ShardId(2)]);
/// let owner = ring.owner(42).unwrap();
/// // Ownership is a function of the shard *set*: insertion order is
/// // irrelevant.
/// let same = Ring::new([ShardId(2), ShardId(0), ShardId(1)]);
/// assert_eq!(same.owner(42), Some(owner));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    /// Sorted, deduplicated shard set.
    shards: Vec<ShardId>,
}

impl Ring {
    /// A ring over the given shards (duplicates collapsed).
    pub fn new<I: IntoIterator<Item = ShardId>>(shards: I) -> Self {
        let mut shards: Vec<ShardId> = shards.into_iter().collect();
        shards.sort_unstable();
        shards.dedup();
        Ring { shards }
    }

    /// Adds a shard; `false` if it was already present.
    pub fn add(&mut self, shard: ShardId) -> bool {
        match self.shards.binary_search(&shard) {
            Ok(_) => false,
            Err(pos) => {
                self.shards.insert(pos, shard);
                true
            }
        }
    }

    /// Removes a shard; `false` if it was not present.
    pub fn remove(&mut self, shard: ShardId) -> bool {
        match self.shards.binary_search(&shard) {
            Ok(pos) => {
                self.shards.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether the shard is in the ring.
    pub fn contains(&self, shard: ShardId) -> bool {
        self.shards.binary_search(&shard).is_ok()
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard set, ascending.
    pub fn shards(&self) -> &[ShardId] {
        &self.shards
    }

    /// The shard owning `key`: the rendezvous argmax over the ring.
    /// `None` on an empty ring. Ties (vanishingly rare with 64-bit
    /// weights) break toward the lower shard id, deterministically.
    pub fn owner(&self, key: u64) -> Option<ShardId> {
        Self::owner_among(key, self.shards.iter().copied())
    }

    /// The owner of `key` among an arbitrary subset of shards — what
    /// failover routing computes when some shards are down. For any
    /// subset S, `owner_among(key, S)` equals `Ring::new(S).owner(key)`.
    pub fn owner_among<I: IntoIterator<Item = ShardId>>(key: u64, shards: I) -> Option<ShardId> {
        shards
            .into_iter()
            .max_by_key(|&s| (weight(key, s), std::cmp::Reverse(s)))
    }

    /// Every shard ranked by descending weight for `key`: the key's
    /// deterministic failover order. `ranked(key)[0]` is the owner; a
    /// router that walks this list skipping dead shards lands exactly
    /// where `owner_among(key, live)` points.
    pub fn ranked(&self, key: u64) -> Vec<ShardId> {
        let mut ranked = self.shards.clone();
        ranked.sort_by_key(|&s| (std::cmp::Reverse(weight(key, s)), s));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = Ring::new([]);
        assert!(ring.is_empty());
        assert_eq!(ring.owner(7), None);
        assert!(ring.ranked(7).is_empty());
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = Ring::new([ShardId(3)]);
        for key in 0..64u64 {
            assert_eq!(ring.owner(key), Some(ShardId(3)));
        }
    }

    #[test]
    fn duplicates_collapse() {
        let ring = Ring::new([ShardId(1), ShardId(1), ShardId(0)]);
        assert_eq!(ring.shards(), &[ShardId(0), ShardId(1)]);
    }

    #[test]
    fn ranked_head_is_owner_and_tail_is_live_subset_owner() {
        let ring = Ring::new((0..5).map(ShardId));
        for key in 0..256u64 {
            let ranked = ring.ranked(key);
            assert_eq!(ranked.len(), 5);
            assert_eq!(Some(ranked[0]), ring.owner(key));
            // Skipping the owner, the next-ranked shard is the owner
            // among the remaining set — the failover invariant.
            let live: Vec<ShardId> = ring
                .shards()
                .iter()
                .copied()
                .filter(|&s| s != ranked[0])
                .collect();
            assert_eq!(
                Some(ranked[1]),
                Ring::owner_among(key, live.iter().copied())
            );
        }
    }

    #[test]
    fn route_key_separates_devices() {
        // Same circuit hash on different devices must not collapse to
        // one route key (devices spread across shards).
        let h = 0xdead_beefu64;
        let keys: Vec<u64> = DeviceId::ALL.iter().map(|&d| route_key(d, h)).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }
}
