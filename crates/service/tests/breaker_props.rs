//! Property tests over the circuit-breaker state machine at its fixed
//! tuning: an all-success outcome stream can never trip a breaker, and
//! any finite failure burst is always recovered from within the probe
//! budget once the device is healthy again. Every scenario is a pure
//! function of the printed inputs, so a failing case replays exactly.

use adapt_service::{Admission, BreakerState, DeviceId, HealthTracker};
use proptest::prelude::*;

/// The breaker's outcome window.
const WINDOW: usize = 8;
/// Outcomes the window needs before it may trip.
const MIN_SAMPLES: usize = 4;
/// Denied admissions before the half-open probe.
const COOLDOWN_REQUESTS: usize = 2;

fn tracker() -> HealthTracker {
    HealthTracker::new(true, &[DeviceId::Rome], &adapt_obs::Registry::new())
}

/// One healthy round-trip: admit, and answer whatever slot was handed
/// out with a success.
fn healthy_step(t: &HealthTracker, dev: DeviceId) {
    match t.admit(dev) {
        Admission::Proceed => t.record(dev, false),
        Admission::Probe => t.record_probe(dev, false),
        Admission::Fallback => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_success_traffic_never_trips(n in 0usize..256) {
        let t = tracker();
        let dev = DeviceId::Rome;
        for _ in 0..n {
            prop_assert_eq!(t.admit(dev), Admission::Proceed);
            t.record(dev, false);
        }
        prop_assert_eq!(t.state(dev), Some(BreakerState::Closed));
        prop_assert!(t.transitions().is_empty());
    }

    #[test]
    fn finite_failure_burst_always_returns_to_closed(
        burst in 1usize..128,
        tail in prop::collection::vec(any::<bool>(), 0..16),
    ) {
        let t = tracker();
        let dev = DeviceId::Rome;
        // The sick phase: a failure burst, then an arbitrary outcome
        // tail (`true` = failure) that can leave any window behind.
        // Outcomes are always recorded in the same step, so no probe
        // slot is ever left dangling.
        for failure in std::iter::repeat_n(true, burst).chain(tail) {
            match t.admit(dev) {
                Admission::Proceed => t.record(dev, failure),
                Admission::Probe => t.record_probe(dev, failure),
                Admission::Fallback => {}
            }
        }
        // The device heals. From any reachable state the breaker must
        // close for good within the probe budget. A closed window still
        // holding fewer than `MIN_SAMPLES` failures can trip on the
        // healthy outcomes that complete it (at most `MIN_SAMPLES - 2`
        // of them: 2 of 4 is already half), then the open breaker takes
        // at most `COOLDOWN_REQUESTS` admissions, the last of which is the
        // half-open probe that closes it.
        let budget = MIN_SAMPLES - 2 + COOLDOWN_REQUESTS;
        let mut last_unclosed = None;
        for step in 0..budget + 4 * WINDOW {
            if t.state(dev) != Some(BreakerState::Closed) {
                last_unclosed = Some(step);
            }
            healthy_step(&t, dev);
        }
        prop_assert!(
            last_unclosed.is_none_or(|step| step < budget),
            "breaker still {:?} at healthy admission {:?} (budget {})",
            t.state(dev),
            last_unclosed,
            budget
        );
        prop_assert_eq!(t.state(dev), Some(BreakerState::Closed));
    }
}
