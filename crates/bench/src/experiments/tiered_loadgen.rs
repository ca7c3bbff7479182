//! **Tiered loadgen** — drives the degradation ladder end to end and
//! proves the PR-6 latency contract: a cold cache under 250 ms deadlines
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
//! Asserted invariants (the binary exits nonzero when any fails): all
//! seven `Provenance` variants are exercised; ≥ 99 % of the 250 ms
//! cohort is answered within its wall-clock deadline; zero worker
//! panics; heuristic and stale answers are tagged and never re-served as
//! fresh (`cache-hit` / `fresh-search` responses always carry decoy
//! evidence, heuristic answers never do); and the whole schedule replays
//! bit-identically from the same seed. Results land in
//! `results/BENCH_tiered.json`.

use crate::report::replay_digest;
use crate::runner::ExperimentCfg;
use adapt::DdProtocol;
use adapt_service::{
    BreakerConfig, BreakerFallback, DeviceId, MaskService, Provenance, Recommendation, Request,
    Response, SearchBudget, ServiceConfig, ServiceStats, TierConfig, TierPolicy,
};
use machine::FaultProfile;
use std::collections::BTreeSet;

/// Everything one scheduled run produces. `digest`, `provenances` and
/// `stats` are wall-clock-free and must be bit-identical across two
/// same-seed runs; the latency vectors are reported but never compared.
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
    /// Display names of every provenance served.
    provenances: BTreeSet<String>,
    /// Responses by tier class, in ladder order.
    heuristic: u64,
    stale: u64,
    cache_hits: u64,
    fresh: u64,
    degraded: u64,
    partial: u64,
    fallback: u64,
    /// Background-upgrade latency (µs) percentiles off the service's
    /// `adapt_service_refine_us` histogram (wall clock; reported only).
    upgrade_p50_us: f64,
    upgrade_p99_us: f64,
    prewarm_scheduled: usize,
    stats: ServiceStats,
}

/// GHZ prefixed with a per-qubit X bitmask: distinct `tag` → distinct
/// structural hash (single X per qubit, so the transpiler cannot cancel
/// pairs back into a collision).
fn tagged(n: u32, tag: usize) -> qcirc::Circuit {
    let mut c = qcirc::Circuit::new(n as usize);
    for q in 0..n {
        if tag & (1 << q) != 0 {
            c.x(q);
        }
    }
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    c
}

/// A device whose every backend job fails: searches degrade to all-DD
/// and the breaker sees failures.
fn dead_profile() -> FaultProfile {
    FaultProfile {
        transient_failure: 1.0,
        ..FaultProfile::none()
    }
}

fn budget(cfg: &ExperimentCfg, tier: TierPolicy) -> SearchBudget {
    SearchBudget {
        shots: if cfg.quick { 64 } else { 128 },
        trajectories: if cfg.quick { 2 } else { 4 },
        neighborhood: 4,
        tier,
    }
}

fn service_config(cfg: &ExperimentCfg) -> ServiceConfig {
    ServiceConfig {
        devices: vec![DeviceId::Guadalupe, DeviceId::Rome],
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 64,
        seed: cfg.seed,
        fault_profile: cfg.fault_profile,
        default_budget: budget(cfg, TierPolicy::default()),
        // Expiry as a pure function of the seeded schedule: two
        // identical runs ladder at identical points.
        virtual_time: true,
        breaker: BreakerConfig {
            window: 8,
            min_samples: 4,
            failure_threshold: 0.5,
            cooldown_requests: 2,
            open_retry_hint_ms: 200,
            fallback: BreakerFallback::ConservativeMask,
            ..BreakerConfig::enabled()
        },
        tiers: TierConfig {
            // No finite client deadline fits a cold search, so every
            // deadline-carrying request rides the ladder; deadline-free
            // requests search inline as before.
            min_search_ms: 600_000,
            max_stale_epochs: 2,
            ..TierConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// The deadline (ms) the cold-start SLO cohort carries.
const SLO_MS: u64 = 250;

/// Runs the fixed six-phase schedule once and collects the report.
fn run_schedule(cfg: &ExperimentCfg) -> RunReport {
    let svc = MaskService::start(service_config(cfg));
    let hot: Vec<qcirc::Circuit> = [1usize, 2, 4, 8].iter().map(|&t| tagged(6, t)).collect();
    let cold_rounds = if cfg.quick { 6 } else { 10 };
    let mut report = RunReport {
        digest: Vec::new(),
        cold_latencies_us: Vec::new(),
        deadline_cohort: 0,
        within_deadline: 0,
        provenances: BTreeSet::new(),
        heuristic: 0,
        stale: 0,
        cache_hits: 0,
        fresh: 0,
        degraded: 0,
        partial: 0,
        fallback: 0,
        upgrade_p50_us: 0.0,
        upgrade_p99_us: 0.0,
        prewarm_scheduled: 0,
        stats: ServiceStats::default(),
    };

    let mut ask = |svc: &MaskService,
                   step: &str,
                   circuit: &qcirc::Circuit,
                   device: DeviceId,
                   tier: TierPolicy,
                   deadline_ms: Option<u64>|
     -> Recommendation {
        let rec = match svc.call(Request::RecommendMask {
            circuit: circuit.clone(),
            device,
            protocol: DdProtocol::Xy4,
            budget: budget(cfg, tier),
            deadline_ms,
            tenancy: Default::default(),
        }) {
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
        report.provenances.insert(rec.provenance.to_string());
        match rec.provenance {
            Provenance::Heuristic => report.heuristic += 1,
            Provenance::StaleServed { .. } => report.stale += 1,
            Provenance::CacheHit => report.cache_hits += 1,
            Provenance::FreshSearch => report.fresh += 1,
            Provenance::DegradedAllDd => report.degraded += 1,
            Provenance::PartialSearch => report.partial += 1,
            Provenance::BreakerFallback => report.fallback += 1,
        }
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
                &svc,
                "p1-cold",
                &tagged(5, tag),
                DeviceId::Rome,
                TierPolicy::HeuristicOnly,
                Some(SLO_MS),
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
        let rec = ask(
            &svc,
            "p1-hot-cold",
            c,
            DeviceId::Guadalupe,
            TierPolicy::Auto,
            Some(SLO_MS),
        );
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
        let rec = ask(
            &svc,
            "p2-upgraded",
            c,
            DeviceId::Guadalupe,
            TierPolicy::Auto,
            Some(SLO_MS),
        );
        assert_eq!(rec.provenance, Provenance::CacheHit);
    }

    // P3: deadline-free requests search inline, pre-ladder behavior.
    for tag in [3usize, 5] {
        let rec = ask(
            &svc,
            "p3-fresh",
            &tagged(6, tag),
            DeviceId::Guadalupe,
            TierPolicy::Auto,
            None,
        );
        assert_eq!(rec.provenance, Provenance::FreshSearch);
    }

    // P4: Rome dies. Deadline-free searches complete degraded and feed
    // the breaker; once open, requests get the conservative fallback and
    // a tight-deadline half-open probe is cut into a partial mask.
    svc.set_fault_profile(DeviceId::Rome, dead_profile());
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
            &svc,
            "p4-sick",
            &tagged(5, idx % 32),
            DeviceId::Rome,
            tier,
            deadline,
        );
    }

    // P5: drift lands on the hot set. Stale copies bridge the gap while
    // the refine lane re-characterizes at the new epoch.
    svc.advance_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    for c in &hot {
        let rec = ask(
            &svc,
            "p5-stale",
            c,
            DeviceId::Guadalupe,
            TierPolicy::Auto,
            Some(SLO_MS),
        );
        assert!(
            matches!(rec.provenance, Provenance::StaleServed { age_epochs: 1 }),
            "drift within the staleness bound must serve stale, got {:?}",
            rec.provenance
        );
    }
    svc.drain_refines();
    for c in &hot {
        let rec = ask(
            &svc,
            "p5-refreshed",
            c,
            DeviceId::Guadalupe,
            TierPolicy::Auto,
            Some(SLO_MS),
        );
        assert_eq!(rec.provenance, Provenance::CacheHit);
    }

    // P6: prewarm the hot set against the *next* epoch, then advance.
    // The drift is a non-event: immediate hits, no heuristic fallback.
    let scheduled = svc
        .prewarm_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    assert_eq!(scheduled, hot.len(), "the whole hot set must prewarm");
    report.prewarm_scheduled = scheduled;
    svc.drain_refines();
    let heuristic_before = svc.stats().heuristic_served;
    svc.advance_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    for c in &hot {
        let rec = ask(
            &svc,
            "p6-prewarmed",
            c,
            DeviceId::Guadalupe,
            TierPolicy::Auto,
            Some(SLO_MS),
        );
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
    report.upgrade_p50_us = refine_hist.percentile_us(0.50);
    report.upgrade_p99_us = refine_hist.percentile_us(0.99);
    report.cold_latencies_us.sort_unstable();
    report.stats = svc.shutdown();
    report
}

/// Runs the tiered loadgen and writes `results/BENCH_tiered.json`.
///
/// # Panics
///
/// Panics (failing the CI job) when any invariant in the module docs
/// does not hold.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Tiered loadgen: the degradation ladder under 250 ms deadlines ==");
    println!(
        "  run 1: six-phase schedule (cold burst, upgrade, fresh, sick device, drift, prewarm)"
    );
    let report = run_schedule(cfg);

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
    assert_eq!(
        report.provenances, expected,
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

    println!("  run 2: determinism replay (identical seed and schedule)");
    let replay = run_schedule(cfg);
    assert_eq!(
        report.digest, replay.digest,
        "responses must be bit-identical across identical runs"
    );
    assert_eq!(
        (
            report.stats.searches,
            report.stats.heuristic_served,
            report.stats.stale_served,
            report.stats.refines_enqueued,
            report.stats.refines_completed,
            report.stats.refines_dropped,
            report.stats.prewarm_scheduled,
            report.stats.partial_searches,
            report.stats.breaker_fallbacks,
        ),
        (
            replay.stats.searches,
            replay.stats.heuristic_served,
            replay.stats.stale_served,
            replay.stats.refines_enqueued,
            replay.stats.refines_completed,
            replay.stats.refines_dropped,
            replay.stats.prewarm_scheduled,
            replay.stats.partial_searches,
            replay.stats.breaker_fallbacks,
        ),
        "counters must be reproducible across identical runs"
    );

    let cold_p50 = adapt_obs::percentile(&report.cold_latencies_us, 0.50) / 1000.0;
    let cold_p99 = adapt_obs::percentile(&report.cold_latencies_us, 0.99) / 1000.0;
    println!(
        "  cold start: p50 {cold_p50:.2} ms, p99 {cold_p99:.2} ms against a {SLO_MS} ms deadline \
         ({} of {} in time, {:.1}%)",
        report.within_deadline,
        report.deadline_cohort,
        within_rate * 100.0
    );
    println!(
        "  tier mix: {} heuristic / {} stale / {} hits / {} fresh / {} degraded / \
         {} partial / {} fallback",
        report.heuristic,
        report.stale,
        report.cache_hits,
        report.fresh,
        report.degraded,
        report.partial,
        report.fallback
    );
    println!(
        "  background upgrades: {} refines ({} prewarm), p50 {:.1} ms, p99 {:.1} ms",
        report.stats.refines_completed,
        report.prewarm_scheduled,
        report.upgrade_p50_us / 1000.0,
        report.upgrade_p99_us / 1000.0
    );

    write_json(cfg, &report, within_rate, cold_p50, cold_p99);
}

fn write_json(cfg: &ExperimentCfg, report: &RunReport, within_rate: f64, p50: f64, p99: f64) {
    let out_dir = cfg.out_dir();
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let provenances: Vec<String> = report
        .provenances
        .iter()
        .map(|p| format!("\"{p}\""))
        .collect();
    let stats = &report.stats;
    let digest = replay_digest(&report.digest);
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"quick\": {},\n  \"seed\": {},\n  \"faults\": \"{}\",\n  \
         \"slo_deadline_ms\": {SLO_MS},\n  \
         \"cold_start_ms\": {{ \"p50\": {p50:.3}, \"p99\": {p99:.3} }},\n  \
         \"within_deadline\": {{ \"cohort\": {}, \"within\": {}, \"rate\": {within_rate:.4} }},\n  \
         \"tier_mix\": {{ \"heuristic\": {}, \"stale_served\": {}, \"cache_hits\": {}, \
         \"fresh_searches\": {}, \"degraded_all_dd\": {}, \"partial_searches\": {}, \
         \"breaker_fallbacks\": {} }},\n  \
         \"upgrade_latency_ms\": {{ \"p50\": {:.3}, \"p99\": {:.3} }},\n  \
         \"refines\": {{ \"enqueued\": {}, \"completed\": {}, \"dropped\": {}, \
         \"prewarm_scheduled\": {} }},\n  \
         \"provenance_coverage\": [{}],\n  \
         \"worker_panics\": {},\n  \"deterministic_replay\": true,\n  \
         \"replay_digest\": \"{}\"\n}}\n",
        cfg.quick,
        cfg.seed,
        cfg.fault_name,
        report.deadline_cohort,
        report.within_deadline,
        report.heuristic,
        report.stale,
        report.cache_hits,
        report.fresh,
        report.degraded,
        report.partial,
        report.fallback,
        report.upgrade_p50_us / 1000.0,
        report.upgrade_p99_us / 1000.0,
        stats.refines_enqueued,
        stats.refines_completed,
        stats.refines_dropped,
        stats.prewarm_scheduled,
        provenances.join(", "),
        stats.worker_panics,
        digest,
    );
    let path = out_dir.join("BENCH_tiered.json");
    std::fs::write(&path, json).expect("write BENCH_tiered.json");
    println!("  wrote {} (replay digest {digest})", path.display());
}
