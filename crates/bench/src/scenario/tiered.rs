//! **Tiered loadgen** — drives the degradation ladder end to end and
//! proves its latency contract: a cold cache under 250 ms deadlines
//! answers instantly from the heuristic tier, stale-while-revalidate
//! bridges calibration drift, and proactive prewarm makes an epoch
//! advance a non-event for the hot set.
//!
//! The run is a fixed six-phase schedule, submitted strictly
//! sequentially under virtual deadlines so every tier decision is a pure
//! function of the seed:
//!
//! * **P1 cold burst** — the hot Guadalupe set under 250 ms deadlines on
//!   an empty cache. Every answer must be `heuristic` (tier 0), and the
//!   first request per key schedules exactly one background refine.
//! * **P2 upgrade** — after `drain_refines`, the same requests are
//!   `cache-hit`: the refine lane upgraded every key to a full search
//!   result without any client ever waiting on one.
//! * **P3 fresh searches** — deadline-free requests search inline
//!   (`fresh-search`), exactly the pre-ladder behavior.
//! * **P4 sick device** — Rome goes dead: completed-but-degraded
//!   searches (`degraded-all-dd`) trip its breaker (`breaker-fallback`),
//!   and a tight-deadline half-open probe is cut short into a
//!   `partial-search` mask.
//! * **P5 drift** — an epoch advance turns the hot set stale; 250 ms
//!   requests are served `stale-served:1` while the refine lane
//!   re-characterizes, then hit fresh entries after a drain.
//! * **P6 prewarm** — `prewarm_epoch` re-searches the hot set against
//!   the *next* calibration before it lands, so the post-advance
//!   requests are immediate `cache-hit`s: no cold-miss storm, zero
//!   heuristic fallbacks.
//!
//! Asserted invariants (the run fails when any does not hold): all
//! seven `Provenance` variants are exercised; ≥ 99 % of the 250 ms
//! cohort is answered within its wall-clock deadline; zero worker
//! panics; heuristic and stale answers are tagged and never re-served as
//! fresh (`cache-hit` / `fresh-search` responses always carry decoy
//! evidence, heuristic answers never do); and the whole schedule runs
//! [`twice`], bit-identically. Results land in
//! `results/BENCH_tiered.json`.

use super::{
    budget, dead_device, ghz_x, latency_ms, recommend, schedule_pure, service_config, stats_json,
    twice, write_report, Json, Replay,
};
use crate::runner::ExperimentCfg;
use adapt_service::{
    DeviceId, MaskService, Provenance, Recommendation, Response, ServiceConfig, ServiceStats,
    TierConfig, TierPolicy,
};
use std::collections::{BTreeMap, BTreeSet};

/// Everything one scheduled run produces. `digest`, `tier_mix` and
/// `stats` are wall-clock-free and must be bit-identical across two
/// same-seed runs; the latency vectors are reported but never compared.
#[derive(Default)]
struct RunReport {
    /// One line per response: `step device provenance mask
    /// fidelity-bits decoy-runs`.
    digest: Vec<String>,
    /// Client-observed latencies (µs) of the P1 cold burst.
    cold_latencies_us: Vec<u64>,
    /// Deadline-carrying requests seen / answered within their wall
    /// deadline.
    deadline_cohort: usize,
    within_deadline: usize,
    /// Responses by provenance display name.
    tier_mix: BTreeMap<String, u64>,
    /// Background-upgrade latency off the service's
    /// `adapt_service_refine_us` histogram (wall clock; reported only).
    upgrade_ms: Option<Json>,
    stats: ServiceStats,
}

impl Replay for RunReport {
    fn lines(&self) -> Vec<&String> {
        self.digest.iter().collect()
    }
    fn counters(&self) -> String {
        schedule_pure(&self.stats)
    }
}

fn ladder_config(cfg: &ExperimentCfg) -> ServiceConfig {
    ServiceConfig {
        // Expiry as a pure function of the seeded schedule: two
        // identical runs ladder at identical points.
        virtual_time: true,
        breaker: true,
        tiers: TierConfig {
            // No finite client deadline fits a cold search, so every
            // deadline-carrying request rides the ladder; deadline-free
            // requests search inline as before.
            min_search_ms: 600_000,
            max_stale_epochs: 2,
        },
        ..service_config(cfg, &[DeviceId::Guadalupe, DeviceId::Rome], 2, 16, 64)
    }
}

/// The deadline (ms) the cold-start SLO cohort carries.
const SLO_MS: u64 = 250;

/// Where, under which tier policy and with which deadline a request
/// goes.
type Target = (DeviceId, TierPolicy, Option<u64>);

/// The hot set's requests: Guadalupe, any tier, the SLO deadline.
const HOT: Target = (DeviceId::Guadalupe, TierPolicy::Auto, Some(SLO_MS));

/// Runs the fixed six-phase schedule once and collects the report.
fn run_schedule(cfg: &ExperimentCfg) -> RunReport {
    let svc = MaskService::start(ladder_config(cfg));
    let hot: Vec<qcirc::Circuit> = [1usize, 2, 4, 8].iter().map(|&t| ghz_x(6, t)).collect();
    let cold_rounds = if cfg.quick { 6 } else { 10 };
    let mut report = RunReport::default();

    let mut ask = |step: &str, circuit: &qcirc::Circuit, target: Target| -> Recommendation {
        let (device, tier, deadline_ms) = target;
        let request = recommend(
            circuit.clone(),
            device,
            budget(cfg.quick, tier),
            deadline_ms,
        );
        let rec = match svc.call(request) {
            Ok(Response::Mask(rec)) => rec,
            other => panic!("tiered loadgen {step}: unexpected response {other:?}"),
        };
        // The SLO contract is over the 250 ms cohort; the 8 ms breaker
        // probes are deliberately sacrificial and stay out of it.
        if deadline_ms == Some(SLO_MS) {
            report.deadline_cohort += 1;
            if rec.timing.total_us() <= SLO_MS * 1000 {
                report.within_deadline += 1;
            }
        }
        *report
            .tier_mix
            .entry(rec.provenance.to_string())
            .or_default() += 1;
        // Tagged-provenance / cache-hygiene contract: anything served as
        // a (possibly stale) search result carries decoy evidence; a
        // heuristic answer never does, so it can never be mistaken for —
        // or re-served as — a fresh search.
        match rec.provenance {
            Provenance::CacheHit | Provenance::FreshSearch | Provenance::StaleServed { .. } => {
                assert!(
                    rec.decoy_runs > 0,
                    "{step}: a search-tier answer must carry decoy evidence: {rec:?}"
                );
            }
            Provenance::Heuristic => {
                assert_eq!(
                    rec.decoy_runs, 0,
                    "{step}: a heuristic answer must not claim decoy evidence"
                );
            }
            _ => {}
        }
        report.digest.push(format!(
            "{step} {} {} {} {:016x} {}",
            device.name(),
            rec.provenance,
            rec.mask,
            rec.decoy_fidelity.to_bits(),
            rec.decoy_runs
        ));
        rec
    };

    // P1a: cold-start SLO sampling. Heuristic-pinned requests are never
    // cached and never refined, so every round stays a true cold answer
    // — repeats cannot race a background upgrade. They live on Rome so
    // the sampling traffic cannot hijack Guadalupe's hot-key ranking.
    for _ in 0..cold_rounds {
        for tag in [17usize, 18, 20, 24] {
            let rec = ask(
                "p1-cold",
                &ghz_x(5, tag),
                (DeviceId::Rome, TierPolicy::HeuristicOnly, Some(SLO_MS)),
            );
            assert_eq!(
                rec.provenance,
                Provenance::Heuristic,
                "a cold cache under a tight deadline must answer from tier 0"
            );
            report.cold_latencies_us.push(rec.timing.total_us());
        }
    }
    // P1b: the hot set goes cold-miss once each. The miss owns the
    // single-flight ticket and schedules the background upgrade.
    for c in &hot {
        let rec = ask("p1-hot-cold", c, HOT);
        assert_eq!(
            rec.provenance,
            Provenance::Heuristic,
            "a cold hot-set request under a tight deadline must answer from tier 0"
        );
        report.cold_latencies_us.push(rec.timing.total_us());
    }
    assert_eq!(
        svc.stats().refines_enqueued,
        hot.len() as u64,
        "each cold miss must schedule exactly one refine"
    );

    // P2: upgrade. The refine lane finishes; the same requests now hit
    // full search results without any client having waited.
    svc.drain_refines();
    for c in &hot {
        let rec = ask("p2-upgraded", c, HOT);
        assert_eq!(rec.provenance, Provenance::CacheHit);
    }

    // P3: deadline-free requests search inline, pre-ladder behavior.
    for tag in [3usize, 5] {
        let rec = ask(
            "p3-fresh",
            &ghz_x(6, tag),
            (DeviceId::Guadalupe, TierPolicy::Auto, None),
        );
        assert_eq!(rec.provenance, Provenance::FreshSearch);
    }

    // P4: Rome dies. Deadline-free searches complete degraded and feed
    // the breaker; once open, requests get the conservative fallback and
    // a tight-deadline half-open probe is cut into a partial mask.
    svc.set_fault_profile(DeviceId::Rome, dead_device());
    for idx in 0..16usize {
        let deadline = (idx >= 4 && idx % 4 == 1).then_some(8);
        // SearchOnly pins the probe to the search path: the ladder would
        // otherwise answer an 8 ms deadline from tier 0.
        let tier = if deadline.is_some() {
            TierPolicy::SearchOnly
        } else {
            TierPolicy::Auto
        };
        ask(
            "p4-sick",
            &ghz_x(5, idx % 32),
            (DeviceId::Rome, tier, deadline),
        );
    }

    // P5: drift lands on the hot set. Stale copies bridge the gap while
    // the refine lane re-characterizes at the new epoch.
    svc.advance_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    for c in &hot {
        let rec = ask("p5-stale", c, HOT);
        assert!(
            matches!(rec.provenance, Provenance::StaleServed { age_epochs: 1 }),
            "drift within the staleness bound must serve stale, got {:?}",
            rec.provenance
        );
    }
    svc.drain_refines();
    for c in &hot {
        let rec = ask("p5-refreshed", c, HOT);
        assert_eq!(rec.provenance, Provenance::CacheHit);
    }

    // P6: prewarm the hot set against the *next* epoch, then advance.
    // The drift is a non-event: immediate hits, no heuristic fallback.
    let scheduled = svc
        .prewarm_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    assert_eq!(scheduled, hot.len(), "the whole hot set must prewarm");
    svc.drain_refines();
    let heuristic_before = svc.stats().heuristic_served;
    svc.advance_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    for c in &hot {
        let rec = ask("p6-prewarmed", c, HOT);
        assert_eq!(
            rec.provenance,
            Provenance::CacheHit,
            "a prewarmed epoch advance must not cause a cold-miss storm"
        );
    }
    assert_eq!(
        svc.stats().heuristic_served,
        heuristic_before,
        "zero heuristic fallbacks after a prewarmed advance"
    );

    let refine_hist = svc.metrics_registry().histogram("adapt_service_refine_us");
    // Bucket upper bounds (an overflow-bucket rank reports null).
    let ms = |q| Json::Num(refine_hist.percentile_us(q) / 1000.0, 3);
    report.upgrade_ms = Some(Json::obj([
        ("n", refine_hist.count().into()),
        ("p50", ms(0.50)),
        ("p99", ms(0.99)),
    ]));
    report.cold_latencies_us.sort_unstable();
    report.stats = svc.shutdown();
    report
}

/// Runs the tiered loadgen and writes `results/BENCH_tiered.json`.
///
/// # Panics
///
/// Panics when any invariant in the module docs does not hold.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Tiered loadgen: the degradation ladder under 250 ms deadlines ==");
    println!(
        "  six-phase schedule (cold burst, upgrade, fresh, sick device, drift, prewarm), run twice"
    );
    let report = twice("tiered loadgen", || run_schedule(cfg));

    // Every rung of the ladder — all seven provenance variants — fired.
    let expected: BTreeSet<String> = [
        Provenance::CacheHit,
        Provenance::FreshSearch,
        Provenance::DegradedAllDd,
        Provenance::PartialSearch,
        Provenance::BreakerFallback,
        Provenance::Heuristic,
        Provenance::StaleServed { age_epochs: 1 },
    ]
    .iter()
    .map(|p| p.to_string())
    .collect();
    let served: BTreeSet<String> = report.tier_mix.keys().cloned().collect();
    assert_eq!(
        served, expected,
        "the schedule must exercise every provenance variant"
    );
    assert_eq!(report.stats.worker_panics, 0, "zero panics across the run");

    // The cold-start SLO: the deadline cohort is answered in time.
    let within_rate = report.within_deadline as f64 / report.deadline_cohort.max(1) as f64;
    assert!(
        within_rate >= 0.99,
        "within-deadline rate {:.4} below the 99% SLO ({} of {})",
        within_rate,
        report.within_deadline,
        report.deadline_cohort
    );

    let tier_mix = report.tier_mix.iter();
    write_report(
        cfg,
        "BENCH_tiered.json",
        vec![
            ("faults", cfg.fault_name.into()),
            ("slo_deadline_ms", SLO_MS.into()),
            ("cold_start_ms", latency_ms(&report.cold_latencies_us)),
            (
                "within_deadline",
                Json::obj([
                    ("cohort", report.deadline_cohort.into()),
                    ("within", report.within_deadline.into()),
                    ("rate", Json::Num(within_rate, 4)),
                ]),
            ),
            ("tier_mix", tier_mix.map(|(p, &n)| (p.clone(), n)).collect()),
            (
                "upgrade_latency_ms",
                report.upgrade_ms.clone().expect("set by the run"),
            ),
            ("stats", stats_json(&report.stats)),
            ("deterministic_replay", true.into()),
        ],
        report.lines(),
    );
}
