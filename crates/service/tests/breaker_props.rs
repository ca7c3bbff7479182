//! Property tests over the circuit-breaker state machine at both of its
//! fixed tunings, the device's and the shard's: an all-success outcome
//! stream can never trip a breaker, and any finite failure burst is
//! always recovered from within the probe budget once the device or
//! shard is healthy again. Every scenario is a pure function of the
//! printed inputs, so a failing case replays exactly.

use adapt_service::{Admission, Breaker, BreakerState, BreakerTuning};
use proptest::prelude::*;

/// Each tuning, with the most healthy outcomes that can still trip a
/// closed window a failure stream left behind. A device window of fewer
/// than 4 outcomes trips on the healthy ones that complete it, at most
/// 2 of them (2 failures of 4 is already half); a shard trips only when
/// every outcome in its window failed, so a healthy one never trips it.
const TUNINGS: [(BreakerTuning, usize); 2] =
    [(BreakerTuning::DEVICE, 2), (BreakerTuning::SHARD, 0)];

/// One round-trip: admit, and answer whatever slot was handed out.
fn step(b: &mut Breaker, failure: bool) {
    match b.admit() {
        Admission::Proceed => b.record(failure),
        Admission::Probe => b.record_probe(failure),
        Admission::Fallback => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn all_success_traffic_never_trips(which in 0usize..2, n in 0usize..256) {
        let mut b = Breaker::new(TUNINGS[which].0);
        for _ in 0..n {
            prop_assert_eq!(b.admit(), Admission::Proceed);
            b.record(false);
            prop_assert_eq!(b.state(), BreakerState::Closed);
        }
    }

    #[test]
    fn finite_failure_burst_always_returns_to_closed(
        which in 0usize..2,
        burst in 1usize..128,
        tail in prop::collection::vec(any::<bool>(), 0..16),
    ) {
        let (tuning, late_trips) = TUNINGS[which];
        let mut b = Breaker::new(tuning);
        // The sick phase: a failure burst, then an arbitrary outcome
        // tail (`true` = failure) that can leave any window behind.
        // Outcomes are always recorded in the same step, so no probe
        // slot is ever left dangling.
        for failure in std::iter::repeat_n(true, burst).chain(tail) {
            step(&mut b, failure);
        }
        // The device or shard heals. From any reachable state the
        // breaker must close for good within the probe budget: the
        // healthy outcomes that can still trip a closed window, then the
        // open breaker's `probe_on_denial` admissions, the last of which
        // is the half-open probe that closes it.
        let budget = late_trips + tuning.probe_on_denial as usize;
        let mut last_unclosed = None;
        for step_no in 0..budget + 4 * tuning.window {
            if b.state() != BreakerState::Closed {
                last_unclosed = Some(step_no);
            }
            step(&mut b, false);
        }
        prop_assert!(
            last_unclosed.is_none_or(|step_no| step_no < budget),
            "breaker still {:?} at healthy admission {:?} (budget {})",
            b.state(),
            last_unclosed,
            budget
        );
        prop_assert_eq!(b.state(), BreakerState::Closed);
    }
}
