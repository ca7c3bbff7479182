//! Per-device circuit breakers and health tracking.
//!
//! A sick device must not drag healthy ones down: without a breaker,
//! every request aimed at a flapping device climbs the full retry
//! ladder, holding a worker for the whole climb. The [`HealthTracker`]
//! watches a sliding window of backend-touching outcomes per device and
//! runs the classic three-state machine:
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
//! The tuning is fixed: an 8-outcome window, at least 4 samples before
//! a trip, a trip at half of them failing, a probe on the second denied
//! admission, and a 200 ms `retry_after_ms` hint while not closed. An
//! open breaker always serves the conservative fallback
//! ([`Admission::Fallback`]); it never rejects a recommendation.
//!
//! # Determinism
//!
//! All breaker decisions are functions of the *sequence of admissions
//! and outcomes* — the open→half-open cooldown is counted in denied
//! admissions, not wall time. Under a single worker and a seeded fault
//! schedule, two identical runs therefore produce identical transition
//! logs (asserted by the chaos harness). The breaker is **off by
//! default** ([`crate::ServiceConfig::breaker`] is `false`): its
//! admission decisions couple requests to each other, which
//! intentionally trades the service's pure per-key determinism for
//! failure isolation — opt in where that trade is wanted.

use crate::registry::DeviceId;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Sliding-window length of per-device outcomes.
const WINDOW: usize = 8;
/// Minimum outcomes in the window before the breaker may trip.
const MIN_SAMPLES: usize = 4;
/// Failure fraction (within the window) at which a closed breaker trips
/// open.
const FAILURE_THRESHOLD: f64 = 0.5;
/// Denied admissions an open breaker waits before moving to half-open
/// (a request-count cooldown keeps transitions deterministic; wall time
/// would not).
const COOLDOWN_REQUESTS: u64 = 2;
/// `retry_after_ms` hint for requests aimed at a breaker that is not
/// closed.
const OPEN_RETRY_HINT_MS: u64 = 200;

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, outcomes are recorded.
    Closed,
    /// Tripped: requests get the conservative fallback.
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

/// The tracker's verdict for one admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed (or disabled): run the request normally.
    Proceed,
    /// Breaker half-open and this request won the probe slot: run it for
    /// real; its outcome closes or re-opens the breaker.
    Probe,
    /// Breaker open (or half-open with the probe slot taken): serve the
    /// cached/all-DD fallback without touching the backend.
    Fallback,
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
    state: BreakerState,
    /// Sliding window of outcomes; `true` = failure.
    window: VecDeque<bool>,
    /// Admissions denied since the breaker opened (cooldown counter).
    denied_since_open: u64,
    /// A half-open probe is currently in flight.
    probe_in_flight: bool,
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

/// Per-device circuit breakers (see module docs).
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
                (
                    id,
                    DeviceHealth {
                        state: BreakerState::Closed,
                        window: VecDeque::new(),
                        denied_since_open: 0,
                        probe_in_flight: false,
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

    fn transition(ts: &mut TrackerState, device: DeviceId, to: BreakerState) {
        let seq = ts.transitions.len() as u64;
        let health = ts.devices.get_mut(&device).expect("registered device");
        let from = health.state;
        if from == to {
            return;
        }
        health.state = to;
        health.state_gauge.set(to.gauge_value());
        ts.transitions.push(Transition {
            seq,
            device,
            from,
            to,
        });
    }

    /// Admission decision for one request aimed at `device`. Unknown
    /// devices (not in this tracker) always proceed — the service
    /// rejects them later as not-served.
    pub fn admit(&self, device: DeviceId) -> Admission {
        if !self.enabled {
            return Admission::Proceed;
        }
        let mut ts = self.lock();
        let Some(health) = ts.devices.get_mut(&device) else {
            return Admission::Proceed;
        };
        match health.state {
            BreakerState::Closed => Admission::Proceed,
            BreakerState::Open => {
                health.denied_since_open += 1;
                if health.denied_since_open >= COOLDOWN_REQUESTS {
                    health.probe_in_flight = true;
                    Self::transition(&mut ts, device, BreakerState::HalfOpen);
                    self.metrics.probes.inc();
                    return Admission::Probe;
                }
                self.denied()
            }
            BreakerState::HalfOpen => {
                if health.probe_in_flight {
                    self.denied()
                } else {
                    health.probe_in_flight = true;
                    self.metrics.probes.inc();
                    Admission::Probe
                }
            }
        }
    }

    /// The open-breaker response: the conservative fallback.
    fn denied(&self) -> Admission {
        self.metrics.fallbacks.inc();
        Admission::Fallback
    }

    /// Records the outcome of a normally-admitted ([`Admission::Proceed`])
    /// backend-touching request. `failure` means a typed error *or* a
    /// search that degraded to the all-DD fallback — both are symptoms
    /// of a device that cannot serve its decoy runs.
    pub fn record(&self, device: DeviceId, failure: bool) {
        if !self.enabled {
            return;
        }
        let mut ts = self.lock();
        let Some(health) = ts.devices.get_mut(&device) else {
            return;
        };
        if health.state != BreakerState::Closed {
            // A pre-trip request finishing late must not double-trip.
            return;
        }
        health.window.push_back(failure);
        while health.window.len() > WINDOW {
            health.window.pop_front();
        }
        let samples = health.window.len();
        let failures = health.window.iter().filter(|&&f| f).count();
        if samples >= MIN_SAMPLES && failures as f64 / samples as f64 >= FAILURE_THRESHOLD {
            health.denied_since_open = 0;
            health.window.clear();
            Self::transition(&mut ts, device, BreakerState::Open);
            self.metrics.trips.inc();
        }
    }

    /// Records the outcome of an [`Admission::Probe`] request: success
    /// closes the breaker, failure re-opens it (with a fresh cooldown).
    pub fn record_probe(&self, device: DeviceId, failure: bool) {
        if !self.enabled {
            return;
        }
        let mut ts = self.lock();
        let Some(health) = ts.devices.get_mut(&device) else {
            return;
        };
        health.probe_in_flight = false;
        if failure {
            health.denied_since_open = 0;
            Self::transition(&mut ts, device, BreakerState::Open);
        } else {
            health.window.clear();
            Self::transition(&mut ts, device, BreakerState::Closed);
            self.metrics.recoveries.inc();
        }
    }

    /// Releases the probe slot without a verdict (the probe was
    /// interrupted by its deadline, or could not reach a conclusion):
    /// the breaker stays half-open and the next admission probes again.
    pub fn probe_inconclusive(&self, device: DeviceId) {
        if !self.enabled {
            return;
        }
        let mut ts = self.lock();
        if let Some(health) = ts.devices.get_mut(&device) {
            health.probe_in_flight = false;
        }
    }

    /// Current state of `device`'s breaker (None for unknown devices).
    pub fn state(&self, device: DeviceId) -> Option<BreakerState> {
        self.lock().devices.get(&device).map(|h| h.state)
    }

    /// The `retry_after_ms` hint a request for `device` should carry
    /// while its breaker is not closed (0 when closed/unknown/disabled).
    pub fn retry_hint_ms(&self, device: DeviceId) -> u64 {
        if !self.enabled {
            return 0;
        }
        match self.state(device) {
            Some(BreakerState::Open | BreakerState::HalfOpen) => OPEN_RETRY_HINT_MS,
            _ => 0,
        }
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

    /// Trips `dev` with `MIN_SAMPLES` failures.
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

    /// The fixed tuning, by its observable effects: 8-outcome window,
    /// 4-sample minimum, trip at half failing, probe on the second
    /// denied admission, 200 ms hint while not closed.
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
