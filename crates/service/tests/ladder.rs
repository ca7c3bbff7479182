//! The degradation-ladder decision, `choose_rung`, against the DESIGN
//! §13 rules: exhaustive over breaker admission × tier policy × deadline
//! class (none, below, equal to, above `min_search_ms`), plus a property
//! test over the millisecond values.

use adapt_service::{choose_rung, Admission, Rung, TierConfig, TierPolicy};
use proptest::prelude::*;

const ADMISSIONS: [Admission; 3] = [Admission::Proceed, Admission::Probe, Admission::Fallback];

const TIERS: [TierPolicy; 3] = [
    TierPolicy::Auto,
    TierPolicy::HeuristicOnly,
    TierPolicy::SearchOnly,
];

fn ladder(min_search_ms: u64, max_stale_epochs: u64) -> TierConfig {
    TierConfig {
        min_search_ms,
        max_stale_epochs,
    }
}

/// Asserts every §13 rule for one decision.
fn check(admission: Admission, tier: TierPolicy, remaining_ms: Option<u64>, tiers: &TierConfig) {
    let rung = choose_rung(admission, tier, remaining_ms, tiers);
    let ctx = format!(
        "{admission:?} {tier:?} remaining {remaining_ms:?} min {} stale {}",
        tiers.min_search_ms, tiers.max_stale_epochs
    );
    // An open breaker always answers from the breaker rung, and nothing
    // else ever does.
    if admission == Admission::Fallback {
        assert_eq!(rung, Rung::Breaker, "{ctx}");
        return;
    }
    // A half-open probe runs for real, exactly like a closed breaker.
    assert_eq!(
        rung,
        choose_rung(Admission::Proceed, tier, remaining_ms, tiers),
        "{ctx}"
    );
    let max_stale = tiers.max_stale_epochs;
    let affords_search = remaining_ms.is_none_or(|ms| ms >= tiers.min_search_ms);
    let want = match tier {
        // Never a stale or instant answer.
        TierPolicy::SearchOnly => Rung::Search { max_stale: 0 },
        // Never a search, never a refine.
        TierPolicy::HeuristicOnly => Rung::Instant {
            max_stale,
            refine: false,
        },
        TierPolicy::Auto if affords_search => Rung::Search { max_stale },
        TierPolicy::Auto => Rung::Instant {
            max_stale,
            refine: true,
        },
    };
    assert_eq!(rung, want, "{ctx}");
}

#[test]
fn every_admission_tier_and_deadline_class_follows_the_table() {
    for min in [1u64, 250, 600_000] {
        for max_stale in [0u64, 2] {
            let tiers = ladder(min, max_stale);
            for remaining in [None, Some(min - 1), Some(min), Some(min + 1)] {
                for admission in ADMISSIONS {
                    for tier in TIERS {
                        check(admission, tier, remaining, &tiers);
                    }
                }
            }
            // The boundary itself: exactly `min_search_ms` left searches.
            let auto = |ms| choose_rung(Admission::Proceed, TierPolicy::Auto, Some(ms), &tiers);
            assert_eq!(auto(min), Rung::Search { max_stale });
            assert!(matches!(auto(min - 1), Rung::Instant { refine: true, .. }));
        }
    }
}

#[test]
fn the_default_ladder_always_searches_and_never_serves_stale() {
    let tiers = TierConfig::default();
    for remaining in [None, Some(0), Some(1), Some(u64::MAX)] {
        for tier in [TierPolicy::Auto, TierPolicy::SearchOnly] {
            assert_eq!(
                choose_rung(Admission::Proceed, tier, remaining, &tiers),
                Rung::Search { max_stale: 0 }
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_table_holds_for_any_deadline_and_search_floor(
        min in 0u64..1_000_000,
        remaining in 0u64..2_000_000,
        bounded in any::<bool>(),
        max_stale in 0u64..5,
        admission in 0usize..3,
        tier in 0usize..3,
    ) {
        let remaining = bounded.then_some(remaining);
        check(ADMISSIONS[admission], TIERS[tier], remaining, &ladder(min, max_stale));
    }
}
