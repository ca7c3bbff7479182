//! Circuit breakers: one closed/open/half-open state machine
//! ([`Breaker`]) at two tunings. A sick device must not drag healthy
//! ones down, and a dead shard must not cost every request a connection
//! attempt. The [`HealthTracker`] keeps a [`Breaker`] per device at
//! [`BreakerTuning::DEVICE`], the fleet router one per shard at
//! [`BreakerTuning::SHARD`]. Device numbers shown:
//!
//! ```text
//!             failure fraction ≥ 0.5
//!            (with ≥ 4 outcomes of the last 8)
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                        │
//!     │ probe succeeds          2nd denied admission
//!     │                                        ▼
//!     └──────────────────────────────────  HalfOpen
//!                   probe fails ──▶ Open  (one probe at a time)
//! ```
//!
//! Outcomes count only while closed: a success arriving after the trip
//! does not close the breaker, only the probe does. An open device
//! breaker serves the conservative fallback ([`Admission::Fallback`]);
//! it never rejects a recommendation.
//!
//! # Determinism
//!
//! All breaker decisions are functions of the *sequence of admissions
//! and outcomes* — the open→half-open cooldown is counted in denied
//! admissions, not wall time. Under a single worker and a seeded fault
//! schedule, two identical runs therefore produce identical transition
//! logs (asserted by the chaos harness). The device breaker is **off by
//! default** ([`crate::ServiceConfig::breaker`] is `false`): its
//! admission decisions couple requests to each other, which
//! intentionally trades the service's pure per-key determinism for
//! failure isolation — opt in where that trade is wanted.

use crate::registry::DeviceId;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// A breaker's fixed tuning: [`Self::DEVICE`] or [`Self::SHARD`].
#[derive(Debug, Clone, Copy)]
pub struct BreakerTuning {
    /// Sliding-window length of outcomes.
    pub window: usize,
    /// Minimum outcomes in the window before the breaker may trip.
    pub min_samples: usize,
    /// Failure fraction (within the window) at which a closed breaker
    /// trips open.
    pub trip_fraction: f64,
    /// The denied admission, counted since the breaker opened, that
    /// becomes the half-open probe (a request-count cooldown keeps
    /// transitions deterministic; wall time would not).
    pub probe_on_denial: u64,
    /// `retry_after_ms` hint for requests aimed at a breaker that is not
    /// closed.
    pub retry_hint_ms: u64,
}

impl BreakerTuning {
    /// A served device (the diagram in the module docs).
    pub const DEVICE: BreakerTuning = BreakerTuning {
        window: 8,
        min_samples: 4,
        trip_fraction: 0.5,
        probe_on_denial: 2,
        retry_hint_ms: 200,
    };

    /// A shard's transport, as the router sees it: three consecutive
    /// failures open it, and the 65th request after that probes it.
    pub const SHARD: BreakerTuning = BreakerTuning {
        window: 3,
        min_samples: 3,
        trip_fraction: 1.0,
        probe_on_denial: 65,
        retry_hint_ms: 0,
    };
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, outcomes are recorded.
    Closed,
    /// Tripped: requests are denied (served the conservative fallback,
    /// or skipped by the router).
    Open,
    /// Cooling down: exactly one probe request runs for real; its
    /// outcome decides Closed vs Open.
    HalfOpen,
}

impl BreakerState {
    /// Stable gauge encoding: 0 = closed, 1 = open, 2 = half-open.
    pub fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// A breaker's verdict for one admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed (or disabled): run the request normally.
    Proceed,
    /// Breaker half-open and this request won the probe slot: run it for
    /// real; its outcome closes or re-opens the breaker.
    Probe,
    /// Breaker open (or half-open with the probe slot taken): do not
    /// touch the backend. The service serves the cached/all-DD
    /// fallback; the router skips the shard.
    Fallback,
}

/// One closed/open/half-open state machine (see module docs), held
/// under its owner's lock.
#[derive(Debug)]
pub struct Breaker {
    tuning: BreakerTuning,
    state: BreakerState,
    /// Sliding window of outcomes; `true` = failure.
    window: VecDeque<bool>,
    /// Admissions denied since the breaker opened (cooldown counter).
    denied_since_open: u64,
    /// A half-open probe is currently in flight.
    probe_in_flight: bool,
}

impl Breaker {
    /// A closed breaker with an empty window.
    pub fn new(tuning: BreakerTuning) -> Self {
        Breaker {
            tuning,
            state: BreakerState::Closed,
            window: VecDeque::with_capacity(tuning.window + 1),
            denied_since_open: 0,
            probe_in_flight: false,
        }
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The `retry_after_ms` hint while not closed, 0 while closed.
    pub fn retry_hint_ms(&self) -> u64 {
        match self.state {
            BreakerState::Closed => 0,
            BreakerState::Open | BreakerState::HalfOpen => self.tuning.retry_hint_ms,
        }
    }

    /// Admission decision for one request. An open breaker counts the
    /// denial, and the [`BreakerTuning::probe_on_denial`]th goes
    /// half-open as the probe.
    pub fn admit(&mut self) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Proceed,
            BreakerState::Open => {
                self.denied_since_open += 1;
                if self.denied_since_open < self.tuning.probe_on_denial {
                    return Admission::Fallback;
                }
                self.state = BreakerState::HalfOpen;
                self.probe_in_flight = true;
                Admission::Probe
            }
            BreakerState::HalfOpen if self.probe_in_flight => Admission::Fallback,
            BreakerState::HalfOpen => {
                self.probe_in_flight = true;
                Admission::Probe
            }
        }
    }

    /// Records the outcome of an [`Admission::Proceed`] request; a
    /// window at or past the trip fraction opens the breaker. Ignored
    /// unless closed: a pre-trip request finishing late must not
    /// double-trip, and its success must not close an open breaker.
    pub fn record(&mut self, failure: bool) {
        if self.state != BreakerState::Closed {
            return;
        }
        self.window.push_back(failure);
        if self.window.len() > self.tuning.window {
            self.window.pop_front();
        }
        let samples = self.window.len();
        let failures = self.window.iter().filter(|&&f| f).count();
        if samples >= self.tuning.min_samples
            && failures as f64 / samples as f64 >= self.tuning.trip_fraction
        {
            self.open();
        }
    }

    /// Records the outcome of an [`Admission::Probe`] request: success
    /// closes the breaker, failure re-opens it (with a fresh cooldown).
    pub fn record_probe(&mut self, failure: bool) {
        self.probe_in_flight = false;
        if failure {
            self.open();
        } else {
            self.state = BreakerState::Closed;
        }
    }

    /// Releases the probe slot without a verdict (the probe was
    /// interrupted by its deadline, or could not reach a conclusion):
    /// the breaker stays half-open and the next admission probes again.
    pub fn probe_inconclusive(&mut self) {
        self.probe_in_flight = false;
    }

    fn open(&mut self) {
        self.state = BreakerState::Open;
        self.denied_since_open = 0;
        self.window.clear();
    }
}

/// One recorded state transition, in global sequence order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Global sequence number (0-based) across all devices.
    pub seq: u64,
    /// Device whose breaker moved.
    pub device: DeviceId,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

impl std::fmt::Display for Transition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{} {}: {} -> {}",
            self.seq, self.device, self.from, self.to
        )
    }
}

struct DeviceHealth {
    breaker: Breaker,
    state_gauge: adapt_obs::Gauge,
}

/// Aggregate breaker counters, mirrored into `adapt_service_breaker_*`.
struct BreakerMetrics {
    trips: adapt_obs::Counter,
    probes: adapt_obs::Counter,
    recoveries: adapt_obs::Counter,
    fallbacks: adapt_obs::Counter,
}

/// Everything guarded by one lock: per-device health plus the
/// transition log (kept together so the log order matches the decisions
/// exactly).
struct TrackerState {
    devices: HashMap<DeviceId, DeviceHealth>,
    transitions: Vec<Transition>,
}

/// Per-device circuit breakers at [`BreakerTuning::DEVICE`] (see module
/// docs).
pub struct HealthTracker {
    /// When false the tracker admits everything and records nothing.
    enabled: bool,
    state: Mutex<TrackerState>,
    metrics: BreakerMetrics,
}

impl std::fmt::Debug for HealthTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthTracker")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl HealthTracker {
    /// Builds a tracker for `devices`, publishing per-device state
    /// gauges (`adapt_service_breaker_state_<device>`: 0 = closed,
    /// 1 = open, 2 = half-open) and aggregate counters into `registry`.
    /// A tracker that is not `enabled` admits every request.
    pub fn new(enabled: bool, devices: &[DeviceId], registry: &adapt_obs::Registry) -> Self {
        let devices = devices
            .iter()
            .map(|&id| {
                let state_gauge =
                    registry.gauge(&format!("adapt_service_breaker_state_{}", id.name()));
                state_gauge.set(BreakerState::Closed.gauge_value());
                let breaker = Breaker::new(BreakerTuning::DEVICE);
                (
                    id,
                    DeviceHealth {
                        breaker,
                        state_gauge,
                    },
                )
            })
            .collect();
        HealthTracker {
            enabled,
            state: Mutex::new(TrackerState {
                devices,
                transitions: Vec::new(),
            }),
            metrics: BreakerMetrics {
                trips: registry.counter("adapt_service_breaker_trips_total"),
                probes: registry.counter("adapt_service_breaker_probes_total"),
                recoveries: registry.counter("adapt_service_breaker_recoveries_total"),
                fallbacks: registry.counter("adapt_service_breaker_fallbacks_total"),
            },
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TrackerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `step` on `device`'s breaker under the lock, then logs the
    /// transition it made, if any, to the log, the state gauge and the
    /// trip/recovery counters. `None` when the tracker is disabled or
    /// does not know the device.
    fn step<R>(&self, device: DeviceId, step: impl FnOnce(&mut Breaker) -> R) -> Option<R> {
        if !self.enabled {
            return None;
        }
        let mut ts = self.lock();
        let TrackerState {
            devices,
            transitions,
        } = &mut *ts;
        let health = devices.get_mut(&device)?;
        let from = health.breaker.state();
        let out = step(&mut health.breaker);
        let to = health.breaker.state();
        if from != to {
            health.state_gauge.set(to.gauge_value());
            transitions.push(Transition {
                seq: transitions.len() as u64,
                device,
                from,
                to,
            });
            match (from, to) {
                (BreakerState::Closed, BreakerState::Open) => self.metrics.trips.inc(),
                (_, BreakerState::Closed) => self.metrics.recoveries.inc(),
                _ => {}
            }
        }
        Some(out)
    }

    /// Admission decision for one request aimed at `device`. Unknown
    /// devices (not in this tracker) always proceed — the service
    /// rejects them later as not-served.
    pub fn admit(&self, device: DeviceId) -> Admission {
        let admission = self
            .step(device, Breaker::admit)
            .unwrap_or(Admission::Proceed);
        match admission {
            Admission::Proceed => {}
            Admission::Probe => self.metrics.probes.inc(),
            Admission::Fallback => self.metrics.fallbacks.inc(),
        }
        admission
    }

    /// Records the outcome of a normally-admitted ([`Admission::Proceed`])
    /// backend-touching request. `failure` means a typed error *or* a
    /// search that degraded to the all-DD fallback — both are symptoms
    /// of a device that cannot serve its decoy runs.
    pub fn record(&self, device: DeviceId, failure: bool) {
        self.step(device, |b| b.record(failure));
    }

    /// Records the outcome of an [`Admission::Probe`] request (see
    /// [`Breaker::record_probe`]).
    pub fn record_probe(&self, device: DeviceId, failure: bool) {
        self.step(device, |b| b.record_probe(failure));
    }

    /// Releases `device`'s probe slot without a verdict (see
    /// [`Breaker::probe_inconclusive`]).
    pub fn probe_inconclusive(&self, device: DeviceId) {
        self.step(device, Breaker::probe_inconclusive);
    }

    /// Current state of `device`'s breaker (None for unknown devices).
    pub fn state(&self, device: DeviceId) -> Option<BreakerState> {
        self.lock().devices.get(&device).map(|h| h.breaker.state())
    }

    /// The `retry_after_ms` hint a request for `device` should carry
    /// while its breaker is not closed (0 when closed/unknown/disabled).
    pub fn retry_hint_ms(&self, device: DeviceId) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.lock()
            .devices
            .get(&device)
            .map_or(0, |h| h.breaker.retry_hint_ms())
    }

    /// The full transition log, in decision order.
    pub fn transitions(&self) -> Vec<Transition> {
        self.lock().transitions.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(enabled: bool) -> HealthTracker {
        HealthTracker::new(
            enabled,
            &[DeviceId::Guadalupe, DeviceId::Rome],
            &adapt_obs::Registry::new(),
        )
    }

    /// Trips `dev` with the device tuning's 4-sample minimum of failures.
    fn trip(t: &HealthTracker, dev: DeviceId) {
        for _ in 0..4 {
            assert_eq!(t.admit(dev), Admission::Proceed);
            t.record(dev, true);
        }
        assert_eq!(t.state(dev), Some(BreakerState::Open));
    }

    #[test]
    fn disabled_tracker_admits_everything_and_never_trips() {
        let t = tracker(false);
        for _ in 0..100 {
            assert_eq!(t.admit(DeviceId::Rome), Admission::Proceed);
            t.record(DeviceId::Rome, true);
        }
        assert_eq!(t.state(DeviceId::Rome), Some(BreakerState::Closed));
        assert_eq!(t.retry_hint_ms(DeviceId::Rome), 0);
        assert!(t.transitions().is_empty());
    }

    /// The two fixed tunings, by their observable effects. The device's:
    /// 8-outcome window, 4-sample minimum, trip at half failing, probe on
    /// the second denied admission, 200 ms hint while not closed.
    #[test]
    fn the_tuning_constants_are_pinned() {
        let t = tracker(true);
        let dev = DeviceId::Rome;
        // 3 failures of 3 samples: below the 4-sample minimum.
        for _ in 0..3 {
            assert_eq!(t.admit(dev), Admission::Proceed);
            t.record(dev, true);
        }
        assert_eq!(t.state(dev), Some(BreakerState::Closed));
        assert_eq!(t.retry_hint_ms(dev), 0);
        // The 4th of 4 trips.
        t.record(dev, true);
        assert_eq!(t.state(dev), Some(BreakerState::Open));
        assert_eq!(t.retry_hint_ms(dev), 200);
        // The first denied admission gets the fallback, the second
        // becomes the probe.
        assert_eq!(t.admit(dev), Admission::Fallback);
        assert_eq!(t.admit(dev), Admission::Probe);
        assert_eq!(t.state(dev), Some(BreakerState::HalfOpen));
        assert_eq!(t.retry_hint_ms(dev), 200);
        t.record_probe(dev, false);
        assert_eq!(t.retry_hint_ms(dev), 0);

        // Five successes, then three failures: 1 of 6, 2 of 7, 3 of 8,
        // never half the samples so far.
        let other = DeviceId::Guadalupe;
        for failure in [false, false, false, false, false, true, true, true] {
            t.record(other, failure);
            assert_eq!(t.state(other), Some(BreakerState::Closed));
        }
        // A fourth failure pushes the oldest success out of the 8-wide
        // window: 4 of 8 is exactly the threshold.
        t.record(other, true);
        assert_eq!(t.state(other), Some(BreakerState::Open));

        // The shard tuning: three consecutive failures open it, the 65th
        // admission after that probes, one probe at a time, no hint.
        let mut b = Breaker::new(BreakerTuning::SHARD);
        // Two failures and a success, then two more failures: never
        // three in a row.
        for failure in [true, true, false, true, true] {
            assert_eq!(b.admit(), Admission::Proceed);
            b.record(failure);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        b.record(true);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.retry_hint_ms(), 0);
        // A late success from before the trip does not close it.
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        // 64 denials, then the probe; while it is out, others are denied.
        for _ in 0..64 {
            assert_eq!(b.admit(), Admission::Fallback);
        }
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(), Admission::Fallback);
        // A failed probe re-opens with a fresh cooldown.
        b.record_probe(true);
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 0..64 {
            assert_eq!(b.admit(), Admission::Fallback);
        }
        assert_eq!(b.admit(), Admission::Probe);
        b.record_probe(false);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_trips_after_windowed_failures_and_recovers_via_probe() {
        let t = tracker(true);
        let dev = DeviceId::Rome;
        // Four failures meet the minimum and trip the breaker.
        trip(&t, dev);
        // The first denied admission serves the conservative mask.
        assert_eq!(t.admit(dev), Admission::Fallback);
        // The second denied admission converts to the half-open probe.
        assert_eq!(t.admit(dev), Admission::Probe);
        assert_eq!(t.state(dev), Some(BreakerState::HalfOpen));
        // While the probe is out, others still get the fallback.
        assert_eq!(t.admit(dev), Admission::Fallback);
        // Probe succeeds: closed again, window reset.
        t.record_probe(dev, false);
        assert_eq!(t.state(dev), Some(BreakerState::Closed));
        assert_eq!(t.admit(dev), Admission::Proceed);
        // The other device never moved.
        assert_eq!(t.state(DeviceId::Guadalupe), Some(BreakerState::Closed));
        let log = t.transitions();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.iter().map(|tr| tr.to).collect::<Vec<_>>(),
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ]
        );
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let t = tracker(true);
        let dev = DeviceId::Rome;
        trip(&t, dev);
        assert_eq!(t.admit(dev), Admission::Fallback);
        assert_eq!(t.admit(dev), Admission::Probe);
        t.record_probe(dev, true);
        assert_eq!(t.state(dev), Some(BreakerState::Open));
        // Cooldown restarts: one more denial before the next probe.
        assert_eq!(t.admit(dev), Admission::Fallback);
        assert_eq!(t.admit(dev), Admission::Probe);
    }

    #[test]
    fn inconclusive_probe_keeps_half_open_and_reprobes() {
        let t = tracker(true);
        let dev = DeviceId::Rome;
        trip(&t, dev);
        assert_eq!(t.admit(dev), Admission::Fallback);
        assert_eq!(t.admit(dev), Admission::Probe);
        t.probe_inconclusive(dev);
        assert_eq!(t.state(dev), Some(BreakerState::HalfOpen));
        assert_eq!(t.admit(dev), Admission::Probe);
    }

    #[test]
    fn mixed_outcomes_below_threshold_never_trip() {
        let t = tracker(true);
        let dev = DeviceId::Guadalupe;
        // One failure in four: a quarter of any full window, below the
        // one-half threshold.
        for i in 0..64 {
            assert_eq!(t.admit(dev), Admission::Proceed);
            t.record(dev, i % 4 == 0);
        }
        assert_eq!(t.state(dev), Some(BreakerState::Closed));
        assert!(t.transitions().is_empty());
    }
}
