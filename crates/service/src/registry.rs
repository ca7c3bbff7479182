//! Device registry: named hardware presets advancing through seeded
//! calibration epochs.
//!
//! A deployment serves several machines at once, and each machine's
//! calibration drifts: IBMQ-style backends recalibrate roughly daily, and
//! a mask chosen under yesterday's calibration is stale today (PAPER §6.4
//! measures exactly this decay). The registry models that lifecycle with
//! the existing drift machinery — every *epoch* of a device is
//! [`Device::at_calibration_cycle`] of the base preset, so epoch `k` is a
//! pure function of `(preset, seed, k)` and two registries built from the
//! same seed agree bit-for-bit on every epoch's calibration.
//!
//! Each registered device carries a base [`Machine`] per epoch. Lookups
//! hand out *clones* of that machine: clones share the epoch's
//! [`PlanCache`](machine::PlanCache), so every worker serving the same
//! device+epoch reuses the same compiled execution plans. Advancing an
//! epoch swaps in a fresh machine (plans are calibration-dependent, so the
//! old cache must not leak into the new epoch).

use device::hash::Fnv1aLegacy;
use device::{Device, SeedSpawner};
use machine::Machine;
use std::collections::HashMap;
use std::sync::Mutex;

/// A servable hardware preset.
///
/// The closed set keeps registry state `Copy`-keyed and lets workloads
/// name devices in configs and JSON without string plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceId {
    /// 16-qubit IBMQ-Guadalupe.
    Guadalupe,
    /// 27-qubit IBMQ-Paris (Falcon).
    Paris,
    /// 27-qubit IBMQ-Toronto (Falcon).
    Toronto,
    /// 5-qubit IBMQ-Rome (line).
    Rome,
    /// 5-qubit IBMQ-London (T).
    London,
}

impl DeviceId {
    /// Every servable preset.
    pub const ALL: [DeviceId; 5] = [
        DeviceId::Guadalupe,
        DeviceId::Paris,
        DeviceId::Toronto,
        DeviceId::Rome,
        DeviceId::London,
    ];

    /// Stable lowercase name (CLI flags, JSON, cache-key provenance).
    pub fn name(self) -> &'static str {
        match self {
            DeviceId::Guadalupe => "guadalupe",
            DeviceId::Paris => "paris",
            DeviceId::Toronto => "toronto",
            DeviceId::Rome => "rome",
            DeviceId::London => "london",
        }
    }

    /// Parses [`Self::name`] back (case-insensitive).
    pub fn by_name(name: &str) -> Option<DeviceId> {
        DeviceId::ALL
            .into_iter()
            .find(|id| id.name().eq_ignore_ascii_case(name))
    }

    /// Builds the epoch-0 device for this preset.
    pub fn build(self, seed: u64) -> Device {
        match self {
            DeviceId::Guadalupe => Device::ibmq_guadalupe(seed),
            DeviceId::Paris => Device::ibmq_paris(seed),
            DeviceId::Toronto => Device::ibmq_toronto(seed),
            DeviceId::Rome => Device::ibmq_rome(seed),
            DeviceId::London => Device::ibmq_london(seed),
        }
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One registered device at its current calibration epoch.
#[derive(Debug)]
struct EpochState {
    /// Epoch-0 device; every later epoch derives from it.
    base: Device,
    /// Current calibration epoch (0 at registration).
    epoch: u64,
    /// Machine bound to the current epoch's calibration. Clones handed to
    /// workers share its plan cache.
    machine: Machine,
}

/// The set of devices a [`MaskService`](crate::MaskService) serves, each
/// at its own calibration epoch.
#[derive(Debug)]
pub struct DeviceRegistry {
    entries: Mutex<HashMap<DeviceId, EpochState>>,
}

impl DeviceRegistry {
    /// Registers `devices`, each seeded from a stable per-preset stream
    /// derived from `seed` (registration *order* does not affect any
    /// device's calibration).
    pub fn new(devices: &[DeviceId], seed: u64) -> Self {
        let spawner = SeedSpawner::new(seed);
        // (Legacy) FNV-1a of the preset name: a stable u64 label per device, so
        // registration order never shifts any device's seed stream.
        let label = |id: DeviceId| Fnv1aLegacy::hash(id.name().as_bytes());
        let entries = devices
            .iter()
            .map(|&id| {
                let base = id.build(spawner.derive(label(id)));
                let machine = Machine::new(base.clone());
                (
                    id,
                    EpochState {
                        base,
                        epoch: 0,
                        machine,
                    },
                )
            })
            .collect();
        DeviceRegistry {
            entries: Mutex::new(entries),
        }
    }

    /// The registered devices, in stable [`DeviceId::ALL`] order.
    pub fn devices(&self) -> Vec<DeviceId> {
        let entries = self.lock();
        DeviceId::ALL
            .into_iter()
            .filter(|id| entries.contains_key(id))
            .collect()
    }

    /// Current calibration epoch of `id`, or `None` when unregistered.
    pub fn epoch(&self, id: DeviceId) -> Option<u64> {
        self.lock().get(&id).map(|s| s.epoch)
    }

    /// Physical qubits of `id` (every epoch keeps the base preset's
    /// coupling map), or `None` when unregistered.
    pub fn num_qubits(&self, id: DeviceId) -> Option<usize> {
        self.lock().get(&id).map(|s| s.base.num_qubits())
    }

    /// Current `(epoch, machine)` of `id`. The machine is a clone sharing
    /// the epoch's plan cache with every other clone handed out for it.
    pub fn snapshot(&self, id: DeviceId) -> Option<(u64, Machine)> {
        self.lock().get(&id).map(|s| (s.epoch, s.machine.clone()))
    }

    /// Advances `id` to its next calibration epoch: the device drifts via
    /// [`Device::at_calibration_cycle`] and the machine (with its
    /// calibration-dependent plan cache) is rebuilt. Returns the new
    /// epoch, or `None` when unregistered.
    pub fn advance_epoch(&self, id: DeviceId) -> Option<u64> {
        let mut entries = self.lock();
        let state = entries.get_mut(&id)?;
        state.epoch += 1;
        state.machine = Machine::new(state.base.at_calibration_cycle(state.epoch));
        Some(state.epoch)
    }

    /// Builds the machine `id` *will* run at its next calibration epoch,
    /// without advancing anything: epoch `k+1` is a pure function of the
    /// base preset, so proactive pre-epoch refresh can characterize
    /// against tomorrow's calibration today. The returned `(epoch,
    /// machine)` pair matches what [`Self::snapshot`] will report right
    /// after the next [`Self::advance_epoch`] (modulo the plan cache,
    /// which advance rebuilds fresh).
    pub fn peek_next_epoch(&self, id: DeviceId) -> Option<(u64, Machine)> {
        let entries = self.lock();
        let state = entries.get(&id)?;
        let next = state.epoch + 1;
        Some((next, Machine::new(state.base.at_calibration_cycle(next))))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<DeviceId, EpochState>> {
        // A poisoned registry only means a worker died mid-lookup; the
        // map itself is always consistent (mutations are single-write).
        self.entries
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for id in DeviceId::ALL {
            assert_eq!(DeviceId::by_name(id.name()), Some(id));
        }
        assert_eq!(DeviceId::by_name("GUADALUPE"), Some(DeviceId::Guadalupe));
        assert_eq!(DeviceId::by_name("andromeda"), None);
    }

    #[test]
    fn epochs_advance_and_drift_deterministically() {
        let reg = DeviceRegistry::new(&[DeviceId::Rome, DeviceId::London], 7);
        assert_eq!(reg.epoch(DeviceId::Rome), Some(0));
        assert_eq!(reg.epoch(DeviceId::Guadalupe), None);
        assert_eq!(reg.advance_epoch(DeviceId::Rome), Some(1));
        assert_eq!(reg.epoch(DeviceId::Rome), Some(1));
        assert_eq!(reg.epoch(DeviceId::London), Some(0));

        // Same seed elsewhere, even with a different device mix, lands on
        // bit-identical calibration at the same epoch.
        let other = DeviceRegistry::new(&[DeviceId::Rome], 7);
        other.advance_epoch(DeviceId::Rome);
        let (e1, m1) = reg.snapshot(DeviceId::Rome).expect("registered");
        let (e2, m2) = other.snapshot(DeviceId::Rome).expect("registered");
        assert_eq!((e1, e2), (1, 1));
        assert_eq!(m1.device().calibration(), m2.device().calibration());
    }

    #[test]
    fn peek_next_epoch_previews_without_advancing() {
        let reg = DeviceRegistry::new(&[DeviceId::Rome], 11);
        let (next, peeked) = reg.peek_next_epoch(DeviceId::Rome).expect("registered");
        assert_eq!(next, 1);
        assert_eq!(reg.epoch(DeviceId::Rome), Some(0), "peek must not advance");
        assert_eq!(reg.advance_epoch(DeviceId::Rome), Some(1));
        let (_, actual) = reg.snapshot(DeviceId::Rome).expect("registered");
        assert_eq!(
            peeked.device().calibration(),
            actual.device().calibration(),
            "the peeked calibration must be the one advance lands on"
        );
        assert_eq!(reg.peek_next_epoch(DeviceId::Guadalupe).map(|p| p.0), None);
    }

    /// Epoch-advance boundary: snapshots racing `at_calibration_cycle`
    /// must always observe a *consistent* pair — the machine's
    /// calibration cycle equals the reported epoch — and epochs must be
    /// monotone per observer. A torn read (old machine with new epoch or
    /// vice versa) would let a worker cache a mask under the wrong key.
    #[test]
    fn snapshot_racing_advance_is_never_torn() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let reg = Arc::new(DeviceRegistry::new(&[DeviceId::Rome], 5));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last_epoch = 0u64;
                    let mut observed = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let (epoch, machine) = reg.snapshot(DeviceId::Rome).expect("registered");
                        assert_eq!(
                            machine.device().calibration().cycle,
                            epoch,
                            "snapshot handed out a machine from a different epoch"
                        );
                        assert!(epoch >= last_epoch, "epochs ran backwards");
                        last_epoch = epoch;
                        observed += 1;
                    }
                    observed
                })
            })
            .collect();
        for _ in 0..25 {
            reg.advance_epoch(DeviceId::Rome);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().expect("reader") > 0, "reader observed snapshots");
        }
        assert_eq!(reg.epoch(DeviceId::Rome), Some(25));
    }

    #[test]
    fn snapshot_clones_share_one_plan_cache_per_epoch() {
        let reg = DeviceRegistry::new(&[DeviceId::Rome], 3);
        let (_, a) = reg.snapshot(DeviceId::Rome).expect("registered");
        let (_, b) = reg.snapshot(DeviceId::Rome).expect("registered");
        let mut c = qcirc::Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let cfg = machine::ExecutionConfig {
            shots: 16,
            trajectories: 2,
            seed: 1,
            threads: 1,
        };
        a.execute(&c, &cfg).expect("execute");
        b.execute(&c, &cfg).expect("execute");
        // The second machine's identical circuit hits the first's plan.
        assert!(b.plan_cache_stats().hits >= 1);

        // Advancing the epoch rebuilds the machine: fresh cache.
        reg.advance_epoch(DeviceId::Rome);
        let (_, fresh) = reg.snapshot(DeviceId::Rome).expect("registered");
        let stats = fresh.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }
}
