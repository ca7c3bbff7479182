//! **Trace replay** — drives the multi-tenant scheduler end to end with
//! a seeded synthetic trace and proves the PR-9 tenancy contract:
//! per-tenant token-bucket admission, strict class priority with
//! weighted-fair round-robin across tenants, and a schedule that
//! replays bit-identically from the same seed.
//!
//! Three phases, each against a fresh service:
//!
//! * **Replay** — a diurnal (sinusoidal-rate) arrival process over a
//!   heavy-tailed (zipf) tenant population submits a seeded corpus
//!   (GHZ / QFT / QAOA / BV / adder, 5-qubit class so every device
//!   preset can serve it) across all five devices. Interactive and
//!   standard tenants carry deadlines and ride the heuristic tier;
//!   batch tenants are deadline-free and search inline. Quotas run on
//!   *virtual* time (`advance_quota_ms` per step), so every admission
//!   decision — including each `QuotaExhausted` retry hint — is a pure
//!   function of the seed. The whole event digest is replayed on a
//!   second run and must be bit-identical.
//! * **Skew** — a 10:1 two-tenant load (majority batch flood vs a
//!   minority interactive tenant) on one device. The minority tenant's
//!   p99 must stay within 2× its *solo* p99: strict class priority
//!   bounds the damage a flood can do to head-of-line blocking only.
//! * **Fairness** — two equal-weight same-class tenants submit equal
//!   backlogs back to back. Round-robin interleaves them, so their
//!   makespans (≈ throughputs) must agree within 1.5×; a FIFO queue
//!   would finish the first tenant in half the time of the second.
//!
//! Asserted invariants (the binary exits nonzero when any fails): the
//! top class meets a ≥ 99 % SLO; quota rejections fire and only for the
//! quota-bearing tenant; per-tenant metrics render with `tenant`
//! labels; zero worker panics; skew ratio ≤ 2; fairness ratio ≤ 1.5;
//! and the replay digest plus all scheduling counters are bit-identical
//! across two same-seed runs. Results land in
//! `results/BENCH_tenancy.json`.

use crate::report::replay_digest;
use crate::runner::ExperimentCfg;
use adapt::DdProtocol;
use adapt_obs::percentile;
use adapt_service::{
    DeviceId, MaskService, Pending, PriorityClass, Request, Response, SearchBudget, ServiceConfig,
    ServiceError, ServiceStats, Tenancy, TenancyConfig, TenantId, TenantQuota, TenantSpec,
    TierConfig, TierPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Tenants in the replay population (zipf-popular, tenant 0 hottest).
fn tenant_count(cfg: &ExperimentCfg) -> u32 {
    if cfg.quick {
        6
    } else {
        10
    }
}

/// Trace steps; each step is one 100 ms tick of virtual quota time.
fn step_count(cfg: &ExperimentCfg) -> usize {
    if cfg.quick {
        240
    } else {
        480
    }
}

/// Class assignment: the two hottest tenants are interactive, the next
/// two standard, the tail batch.
fn class_of(tenant: u32) -> PriorityClass {
    match tenant {
        0 | 1 => PriorityClass::Interactive,
        2 | 3 => PriorityClass::Standard,
        _ => PriorityClass::Batch,
    }
}

/// Deadline contract per class: interactive 250 ms, standard 1 s,
/// batch unbounded.
fn deadline_of(class: PriorityClass) -> Option<u64> {
    match class {
        PriorityClass::Interactive => Some(250),
        PriorityClass::Standard => Some(1000),
        PriorityClass::Batch => None,
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

/// The replay corpus: the paper's 5-qubit-class programs, servable by
/// every preset including the 5-qubit Rome/London.
fn corpus() -> Vec<(&'static str, qcirc::Circuit)> {
    let mut ghz = qcirc::Circuit::new(5);
    ghz.h(0);
    for q in 0..4 {
        ghz.cx(q, q + 1);
    }
    ghz.measure_all();
    vec![
        ("GHZ-5", ghz),
        ("QFT-5", benchmarks::qft_bench(5, 11)),
        (
            "QAOA-5",
            benchmarks::qaoa_maxcut(5, &benchmarks::ring_edges(5), 0.4, 0.7, 1),
        ),
        ("BV-5", benchmarks::bernstein_vazirani(5, 0b1011)),
        ("Adder", benchmarks::adder4(true, true, false)),
    ]
}

/// GHZ prefixed with a per-qubit X bitmask: distinct `tag` → distinct
/// cache key, so skew/fairness jobs never collide in the single-flight
/// cache and every job costs one full search.
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

/// Tenant 0 carries a tight token bucket (0.5 tokens per 100 ms step,
/// burst 2) so quota rejections fire deterministically; tenant 1 is a
/// weight-4 heavy hitter; everyone else runs the default spec. Refills
/// run on virtual time, driven by [`MaskService::advance_quota_ms`].
fn tenancy_config() -> TenancyConfig {
    let mut tenancy = TenancyConfig::default();
    tenancy.tenants.insert(
        TenantId(0),
        TenantSpec {
            weight: 1,
            quota: Some(TenantQuota {
                rate_per_s: 5.0,
                burst: 2.0,
            }),
        },
    );
    tenancy.tenants.insert(
        TenantId(1),
        TenantSpec {
            weight: 4,
            quota: None,
        },
    );
    tenancy
}

fn replay_config(cfg: &ExperimentCfg) -> ServiceConfig {
    ServiceConfig {
        devices: DeviceId::ALL.to_vec(),
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 256,
        seed: cfg.seed,
        fault_profile: cfg.fault_profile,
        default_budget: budget(cfg, TierPolicy::default()),
        // Expiry and quota refill as pure functions of the seeded
        // schedule.
        virtual_time: true,
        // No finite deadline fits a cold search: deadline-carrying
        // requests ride the ladder, deadline-free ones search inline.
        tiers: TierConfig {
            min_search_ms: 600_000,
            max_stale_epochs: 2,
            ..TierConfig::default()
        },
        tenancy: tenancy_config(),
        ..ServiceConfig::default()
    }
}

/// Per-tenant tallies for the replay phase.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct TenantTally {
    submitted: u64,
    completed: u64,
    rejected_quota: u64,
    slo_cohort: u64,
    slo_within: u64,
}

/// Everything one replay run produces. `digest`, `per_tenant` and the
/// counter tuple are wall-clock-free and must be bit-identical across
/// two same-seed runs; latency vectors are reported, never compared.
struct RunReport {
    /// One line per trace event (response or typed rejection).
    digest: Vec<String>,
    per_tenant: BTreeMap<u32, TenantTally>,
    /// Client-observed latencies (µs) by priority class, in
    /// [`PriorityClass::ALL`] order.
    class_latencies_us: [Vec<u64>; 3],
    /// Rendered per-tenant exposition (content is wall-clock-bearing;
    /// only names/labels are asserted on).
    tenant_metrics: String,
    stats: ServiceStats,
}

/// Zipf(1.2) tenant pick: rank 0 is the hottest.
fn pick_tenant(rng: &mut StdRng, tenants: u32) -> u32 {
    let weights: Vec<f64> = (0..tenants)
        .map(|r| 1.0 / f64::from(r + 1).powf(1.2))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut roll = rng.gen::<f64>() * total;
    for (rank, w) in weights.iter().enumerate() {
        roll -= w;
        if roll <= 0.0 {
            return rank as u32;
        }
    }
    tenants - 1
}

/// Guadalupe-heavy device population, like a popular production backend.
fn pick_device(roll: f64) -> DeviceId {
    match roll {
        r if r < 0.36 => DeviceId::Guadalupe,
        r if r < 0.52 => DeviceId::Paris,
        r if r < 0.68 => DeviceId::Toronto,
        r if r < 0.84 => DeviceId::Rome,
        _ => DeviceId::London,
    }
}

/// Runs the seeded trace once and collects the report.
fn run_replay(cfg: &ExperimentCfg) -> RunReport {
    let svc = MaskService::start(replay_config(cfg));
    let corpus = corpus();
    let tenants = tenant_count(cfg);
    let steps = step_count(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7E4A_CE00);
    let mut report = RunReport {
        digest: Vec::new(),
        per_tenant: BTreeMap::new(),
        class_latencies_us: [Vec::new(), Vec::new(), Vec::new()],
        tenant_metrics: String::new(),
        stats: ServiceStats::default(),
    };

    for step in 0..steps {
        // One 100 ms tick of virtual quota time per step.
        svc.advance_quota_ms(100.0);
        // Diurnal load shape: two sinusoidal "days" across the trace.
        let phase = std::f64::consts::TAU * step as f64 / (steps as f64 / 2.0);
        let lambda = 1.0 + 0.9 * phase.sin();
        let arrivals = lambda.floor() as usize + usize::from(rng.gen::<f64>() < lambda.fract());
        for _ in 0..arrivals {
            let tenant = pick_tenant(&mut rng, tenants);
            let class = class_of(tenant);
            let deadline_ms = deadline_of(class);
            // Deadline-carrying requests pin to the (deterministic,
            // never-cached, never-refined) heuristic tier; batch
            // requests search inline and populate the cache.
            let tier = if deadline_ms.is_some() {
                TierPolicy::HeuristicOnly
            } else {
                TierPolicy::Auto
            };
            let device = pick_device(rng.gen::<f64>());
            let (name, circuit) = &corpus[rng.gen_range(0..corpus.len())];
            let tally = report.per_tenant.entry(tenant).or_default();
            tally.submitted += 1;
            let result = svc.call(Request::RecommendMask {
                circuit: circuit.clone(),
                device,
                protocol: DdProtocol::Xy4,
                budget: budget(cfg, tier),
                deadline_ms,
                tenancy: Tenancy::with_class(tenant, class),
            });
            match result {
                Ok(Response::Mask(rec)) => {
                    tally.completed += 1;
                    if let Some(budget_ms) = deadline_ms {
                        tally.slo_cohort += 1;
                        if rec.timing.total_us() <= budget_ms * 1000 {
                            tally.slo_within += 1;
                        }
                    }
                    report.class_latencies_us[class.index()].push(rec.timing.total_us());
                    report.digest.push(format!(
                        "{step} t{tenant} {} {name} {} {} {} {:016x} {}",
                        class.name(),
                        device.name(),
                        rec.provenance,
                        rec.mask,
                        rec.decoy_fidelity.to_bits(),
                        rec.decoy_runs
                    ));
                }
                Err(ServiceError::QuotaExhausted {
                    tenant: rejected,
                    retry_after_ms,
                }) => {
                    assert_eq!(
                        rejected,
                        TenantId(tenant),
                        "a quota rejection must name the submitting tenant"
                    );
                    tally.rejected_quota += 1;
                    report.digest.push(format!(
                        "{step} t{tenant} {} {name} quota-exhausted retry={retry_after_ms}",
                        class.name()
                    ));
                }
                other => panic!("trace replay step {step}: unexpected response {other:?}"),
            }
        }
    }

    report.tenant_metrics = svc.render_tenant_metrics();
    report.stats = svc.shutdown();
    report
}

/// The skew phase: a 10:1 batch flood must not starve the minority
/// interactive tenant. Returns (solo_p99_us, contended_p99_us).
fn run_skew(cfg: &ExperimentCfg) -> (f64, f64) {
    let config = ServiceConfig {
        devices: vec![DeviceId::Guadalupe],
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 256,
        seed: cfg.seed,
        fault_profile: cfg.fault_profile,
        default_budget: budget(cfg, TierPolicy::default()),
        ..ServiceConfig::default()
    };
    let minority_jobs = 12usize;
    let majority_jobs = 120usize; // 10:1

    let minority_request = |tag: usize| Request::RecommendMask {
        circuit: tagged(5, 0x200 + tag),
        device: DeviceId::Guadalupe,
        protocol: DdProtocol::Xy4,
        budget: budget(cfg, TierPolicy::Auto),
        deadline_ms: None,
        tenancy: Tenancy::with_class(9, PriorityClass::Interactive),
    };
    let wait_latencies = |pendings: Vec<Pending>| -> Vec<u64> {
        let mut us: Vec<u64> = pendings
            .into_iter()
            .map(|p| match p.wait() {
                Ok(Response::Mask(rec)) => rec.timing.total_us(),
                other => panic!("skew phase: unexpected response {other:?}"),
            })
            .collect();
        us.sort_unstable();
        us
    };

    // Solo baseline: the minority tenant has the service to itself.
    let svc = MaskService::start(config.clone());
    let pendings: Vec<Pending> = (0..minority_jobs)
        .map(|tag| svc.submit(minority_request(tag)).expect("solo admit"))
        .collect();
    let solo_us = wait_latencies(pendings);
    svc.shutdown();

    // Contended: the majority tenant floods first, then the minority
    // submits the identical backlog into the contention.
    let svc = MaskService::start(config);
    let flood: Vec<Pending> = (0..majority_jobs)
        .map(|tag| {
            svc.submit(Request::RecommendMask {
                circuit: tagged(5, 0x1000 + tag),
                device: DeviceId::Guadalupe,
                protocol: DdProtocol::Xy4,
                budget: budget(cfg, TierPolicy::Auto),
                deadline_ms: None,
                tenancy: Tenancy::with_class(1, PriorityClass::Batch),
            })
            .expect("flood admit")
        })
        .collect();
    let pendings: Vec<Pending> = (0..minority_jobs)
        .map(|tag| svc.submit(minority_request(tag)).expect("contended admit"))
        .collect();
    let contended_us = wait_latencies(pendings);
    for p in flood {
        p.wait().expect("flood job completes");
    }
    svc.shutdown();

    (percentile(&solo_us, 0.99), percentile(&contended_us, 0.99))
}

/// The fairness phase: two equal-weight same-class tenants submit equal
/// backlogs back to back; round-robin must interleave them. Returns the
/// per-tenant makespans (µs) in submission order.
fn run_fairness(cfg: &ExperimentCfg) -> (u64, u64) {
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Guadalupe],
        workers: 2,
        queue_capacity: 128,
        cache_capacity: 256,
        seed: cfg.seed,
        fault_profile: cfg.fault_profile,
        default_budget: budget(cfg, TierPolicy::default()),
        ..ServiceConfig::default()
    });
    let jobs = 15usize;
    let submit_backlog = |tenant: u32, base: usize| -> Vec<Pending> {
        (0..jobs)
            .map(|tag| {
                svc.submit(Request::RecommendMask {
                    circuit: tagged(5, base + tag),
                    device: DeviceId::Guadalupe,
                    protocol: DdProtocol::Xy4,
                    budget: budget(cfg, TierPolicy::Auto),
                    deadline_ms: None,
                    tenancy: Tenancy::with_class(tenant, PriorityClass::Batch),
                })
                .expect("fairness admit")
            })
            .collect()
    };
    // Tenant 5's whole backlog is queued before tenant 6's first job:
    // FIFO would drain 5 completely first; round-robin alternates.
    let first = submit_backlog(5, 0x2000);
    let second = submit_backlog(6, 0x4000);
    // All submits land before any meaningful drain (searches are slow
    // relative to submission), so completion offset ≈ timing.total_us.
    let makespan = |pendings: Vec<Pending>| -> u64 {
        pendings
            .into_iter()
            .map(|p| match p.wait() {
                Ok(Response::Mask(rec)) => rec.timing.total_us(),
                other => panic!("fairness phase: unexpected response {other:?}"),
            })
            .max()
            .unwrap_or(0)
    };
    let first_us = makespan(first);
    let second_us = makespan(second);
    svc.shutdown();
    (first_us, second_us)
}

/// Runs the trace-replay harness and writes `results/BENCH_tenancy.json`.
///
/// # Panics
///
/// Panics (failing the CI job) when any invariant in the module docs
/// does not hold.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Trace replay: multi-tenant scheduling under a seeded diurnal trace ==");
    let tenants = tenant_count(cfg);
    println!(
        "  run 1: {} steps, {} tenants (zipf popularity), 5 devices, 5-circuit corpus",
        step_count(cfg),
        tenants
    );
    let report = run_replay(cfg);

    assert_eq!(report.stats.worker_panics, 0, "zero panics across the run");

    // The top class meets its SLO.
    let interactive: TenantTally = report
        .per_tenant
        .iter()
        .filter(|(t, _)| class_of(**t) == PriorityClass::Interactive)
        .fold(TenantTally::default(), |mut acc, (_, t)| {
            acc.slo_cohort += t.slo_cohort;
            acc.slo_within += t.slo_within;
            acc
        });
    let top_attainment = interactive.slo_within as f64 / interactive.slo_cohort.max(1) as f64;
    assert!(
        top_attainment >= 0.99,
        "interactive SLO attainment {:.4} below 99% ({} of {})",
        top_attainment,
        interactive.slo_within,
        interactive.slo_cohort
    );

    // Quota admission fired, and only for the quota-bearing tenant.
    assert!(
        report.stats.rejected_quota > 0,
        "the tight tenant-0 bucket must reject under the diurnal peak"
    );
    for (tenant, tally) in &report.per_tenant {
        if *tenant == 0 {
            assert!(tally.rejected_quota > 0, "tenant 0 must see rejections");
        } else {
            assert_eq!(
                tally.rejected_quota, 0,
                "tenant {tenant} has no quota and must never be rejected for one"
            );
        }
    }
    let digest_rejections: u64 = report.per_tenant.values().map(|t| t.rejected_quota).sum();
    assert_eq!(
        digest_rejections, report.stats.rejected_quota,
        "per-tenant tallies must reconcile with the service counter"
    );

    // Per-tenant metrics render under the tenant label.
    for needle in [
        "adapt_service_tenant_accepted_total",
        "adapt_service_tenant_rejected_quota_total",
        "tenant=\"t0\"",
    ] {
        assert!(
            report.tenant_metrics.contains(needle),
            "tenant exposition must contain {needle}"
        );
    }

    println!("  run 2: determinism replay (identical seed and trace)");
    let replay = run_replay(cfg);
    assert_eq!(
        report.digest, replay.digest,
        "trace events must be bit-identical across identical runs"
    );
    assert_eq!(
        report.per_tenant, replay.per_tenant,
        "per-tenant tallies must be reproducible"
    );
    assert_eq!(
        (
            report.stats.accepted,
            report.stats.rejected,
            report.stats.rejected_quota,
            report.stats.completed,
            report.stats.searches,
            report.stats.heuristic_served,
        ),
        (
            replay.stats.accepted,
            replay.stats.rejected,
            replay.stats.rejected_quota,
            replay.stats.completed,
            replay.stats.searches,
            replay.stats.heuristic_served,
        ),
        "scheduling counters must be reproducible across identical runs"
    );

    println!("  skew: 120 batch jobs vs 12 interactive jobs (10:1), 4 workers");
    let (solo_p99_us, contended_p99_us) = run_skew(cfg);
    // Floor the denominator at 500 µs so a near-instant solo baseline
    // cannot turn scheduler-independent noise into a ratio failure.
    let skew_ratio = contended_p99_us / solo_p99_us.max(500.0);
    println!(
        "    minority p99: solo {:.2} ms, contended {:.2} ms, ratio {skew_ratio:.2}",
        solo_p99_us / 1000.0,
        contended_p99_us / 1000.0
    );
    assert!(
        skew_ratio <= 2.0,
        "minority-tenant p99 degraded {skew_ratio:.2}x under the flood (bound 2.0)"
    );

    println!("  fairness: two equal backlogs submitted back to back, 2 workers");
    let (first_us, second_us) = run_fairness(cfg);
    let fairness_ratio = first_us.max(second_us) as f64 / first_us.min(second_us).max(1) as f64;
    println!(
        "    makespans {:.2} ms / {:.2} ms, max/min throughput ratio {fairness_ratio:.2}",
        first_us as f64 / 1000.0,
        second_us as f64 / 1000.0
    );
    assert!(
        fairness_ratio <= 1.5,
        "equal-weight tenants diverged {fairness_ratio:.2}x (bound 1.5)"
    );

    let mut sorted = report.class_latencies_us.clone();
    for lane in &mut sorted {
        lane.sort_unstable();
    }
    for (class, lane) in PriorityClass::ALL.iter().zip(&sorted) {
        println!(
            "  {}: {} served, p50 {:.2} ms, p99 {:.2} ms",
            class.name(),
            lane.len(),
            percentile(lane, 0.50) / 1000.0,
            percentile(lane, 0.99) / 1000.0
        );
    }

    write_json(
        cfg,
        &report,
        &sorted,
        top_attainment,
        (solo_p99_us, contended_p99_us, skew_ratio),
        (first_us, second_us, fairness_ratio),
    );
}

fn write_json(
    cfg: &ExperimentCfg,
    report: &RunReport,
    sorted_class_us: &[Vec<u64>; 3],
    top_attainment: f64,
    (solo_p99_us, contended_p99_us, skew_ratio): (f64, f64, f64),
    (first_us, second_us, fairness_ratio): (u64, u64, f64),
) {
    let out_dir = cfg.out_dir();
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let per_tenant: Vec<String> = report
        .per_tenant
        .iter()
        .map(|(tenant, t)| {
            // Deadline-free (batch) tenants have no SLO cohort: null.
            let attainment = if t.slo_cohort == 0 {
                "null".to_string()
            } else {
                format!("{:.4}", t.slo_within as f64 / t.slo_cohort as f64)
            };
            format!(
                "    {{ \"tenant\": \"t{tenant}\", \"class\": \"{}\", \"submitted\": {}, \
                 \"completed\": {}, \"rejected_quota\": {}, \"slo_attainment\": {attainment} }}",
                class_of(*tenant).name(),
                t.submitted,
                t.completed,
                t.rejected_quota
            )
        })
        .collect();
    let per_class: Vec<String> = PriorityClass::ALL
        .iter()
        .zip(sorted_class_us)
        .map(|(class, lane)| {
            format!(
                "    \"{}\": {{ \"count\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }}",
                class.name(),
                lane.len(),
                percentile(lane, 0.50) / 1000.0,
                percentile(lane, 0.99) / 1000.0
            )
        })
        .collect();
    let stats = &report.stats;
    let digest = replay_digest(&report.digest);
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"quick\": {},\n  \"seed\": {},\n  \"faults\": \"{}\",\n  \
         \"steps\": {},\n  \"tenants\": {},\n  \
         \"requests\": {{ \"accepted\": {}, \"rejected_quota\": {}, \"completed\": {}, \
         \"searches\": {}, \"heuristic_served\": {} }},\n  \
         \"slo\": {{ \"top_class\": \"interactive\", \"attainment\": {top_attainment:.4} }},\n  \
         \"per_tenant\": [\n{}\n  ],\n  \
         \"per_class\": {{\n{}\n  }},\n  \
         \"skew\": {{ \"majority_to_minority\": 10, \"solo_p99_ms\": {:.3}, \
         \"contended_p99_ms\": {:.3}, \"ratio\": {skew_ratio:.3}, \"bound\": 2.0 }},\n  \
         \"fairness\": {{ \"makespan_a_ms\": {:.3}, \"makespan_b_ms\": {:.3}, \
         \"throughput_ratio\": {fairness_ratio:.3}, \"bound\": 1.5 }},\n  \
         \"worker_panics\": {},\n  \"deterministic_replay\": true,\n  \
         \"replay_digest\": \"{}\"\n}}\n",
        cfg.quick,
        cfg.seed,
        cfg.fault_name,
        step_count(cfg),
        tenant_count(cfg),
        stats.accepted,
        stats.rejected_quota,
        stats.completed,
        stats.searches,
        stats.heuristic_served,
        per_tenant.join(",\n"),
        per_class.join(",\n"),
        solo_p99_us / 1000.0,
        contended_p99_us / 1000.0,
        first_us as f64 / 1000.0,
        second_us as f64 / 1000.0,
        stats.worker_panics,
        digest,
    );
    let path = out_dir.join("BENCH_tenancy.json");
    std::fs::write(&path, json).expect("write BENCH_tenancy.json");
    println!("  wrote {} (replay digest {digest})", path.display());
}
