//! **Trace replay** — drives the multi-tenant scheduler end to end with
//! a seeded synthetic trace and proves the tenancy contract:
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
//!   function of the seed. The whole trace runs
//!   [`twice`], bit-identically.
//! * **Skew** — a 10:1 two-tenant load (majority batch flood vs a
//!   minority interactive tenant) on one device. The minority tenant's
//!   p99 must stay within 2× its *solo* p99: strict class priority
//!   bounds the damage a flood can do to head-of-line blocking only.
//! * **Fairness** — two equal-weight same-class tenants submit equal
//!   backlogs back to back. Round-robin interleaves them, so their
//!   makespans (≈ throughputs) must agree within 1.5×; a FIFO queue
//!   would finish the first tenant in half the time of the second.
//!
//! Asserted invariants (the run fails when any does not hold): the
//! top class meets a ≥ 99 % SLO; quota rejections fire and only for the
//! quota-bearing tenant; per-tenant metrics render with `tenant`
//! labels; zero worker panics; skew ratio ≤ 2; fairness ratio ≤ 1.5;
//! and the replay digest plus all scheduling counters are bit-identical
//! across two same-seed runs. Results land in
//! `results/BENCH_tenancy.json`.

use super::{
    budget, ghz_x, latency_ms, schedule_pure, service_config, stats_json, twice, write_report,
    Json, Replay,
};
use crate::runner::ExperimentCfg;
use adapt::DdProtocol;
use adapt_obs::percentile;
use adapt_service::{
    DeviceId, MaskService, Pending, PriorityClass, Request, Response, ServiceConfig, ServiceError,
    ServiceStats, Tenancy, TenancyConfig, TenantId, TenantQuota, TenantSpec, TierConfig,
    TierPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Tenants in the replay population (zipf-popular, tenant 0 hottest)
/// and trace steps (each one 100 ms tick of virtual quota time).
fn trace_size(cfg: &ExperimentCfg) -> (u32, usize) {
    if cfg.quick {
        (6, 240)
    } else {
        (10, 480)
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

/// An XY4 recommendation from `tenant` in `class`; the skew and
/// fairness phases give every job its own [`ghz_x`] key, so none
/// collide in the single-flight cache and each costs one full search.
fn request(
    cfg: &ExperimentCfg,
    circuit: qcirc::Circuit,
    device: DeviceId,
    tier: TierPolicy,
    deadline_ms: Option<u64>,
    (tenant, class): (u32, PriorityClass),
) -> Request {
    Request::RecommendMask {
        circuit,
        device,
        protocol: DdProtocol::Xy4,
        budget: budget(cfg.quick, tier),
        deadline_ms,
        tenancy: Tenancy::with_class(tenant, class),
    }
}

/// The replay corpus: the paper's 5-qubit-class programs, servable by
/// every preset including the 5-qubit Rome/London.
fn corpus() -> Vec<(&'static str, qcirc::Circuit)> {
    vec![
        ("GHZ-5", ghz_x(5, 0)),
        ("QFT-5", benchmarks::qft_bench(5, 11)),
        (
            "QAOA-5",
            benchmarks::qaoa_maxcut(5, &benchmarks::ring_edges(5), 0.4, 0.7, 1),
        ),
        ("BV-5", benchmarks::bernstein_vazirani(5, 0b1011)),
        ("Adder", benchmarks::adder4(true, true, false)),
    ]
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
        ..service_config(cfg, &DeviceId::ALL, 2, 64, 256)
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
/// schedule-pure counters are wall-clock-free and must be bit-identical
/// across two same-seed runs; latency vectors are reported, never
/// compared.
#[derive(Default)]
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

impl Replay for RunReport {
    fn lines(&self) -> Vec<&String> {
        self.digest.iter().collect()
    }
    fn counters(&self) -> String {
        format!("{} {:?}", schedule_pure(&self.stats), self.per_tenant)
    }
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
    let (tenants, steps) = trace_size(cfg);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7E4A_CE00);
    let mut report = RunReport::default();

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
            let result = svc.call(request(
                cfg,
                circuit.clone(),
                device,
                tier,
                deadline_ms,
                (tenant, class),
            ));
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

/// Submits one deadline-free Guadalupe job per tag from `tenant`.
fn submit_jobs(
    cfg: &ExperimentCfg,
    svc: &MaskService,
    tags: std::ops::Range<usize>,
    tenant: (u32, PriorityClass),
) -> Vec<Pending> {
    tags.map(|tag| {
        let job = request(
            cfg,
            ghz_x(5, tag),
            DeviceId::Guadalupe,
            TierPolicy::Auto,
            None,
            tenant,
        );
        svc.submit(job).expect("admit")
    })
    .collect()
}

/// Waits for every job and returns its client latency (µs), in order.
fn wait_latencies(phase: &str, pendings: Vec<Pending>) -> Vec<u64> {
    pendings
        .into_iter()
        .map(|p| match p.wait() {
            Ok(Response::Mask(rec)) => rec.timing.total_us(),
            other => panic!("{phase} phase: unexpected response {other:?}"),
        })
        .collect()
}

/// The skew phase: a 10:1 batch flood must not starve the minority
/// interactive tenant. Returns the minority's sorted latencies (µs),
/// solo and contended.
fn run_skew(cfg: &ExperimentCfg) -> (Vec<u64>, Vec<u64>) {
    let minority = (9, PriorityClass::Interactive);
    let minority_tags = 0x200..0x200 + 12;
    let sorted = |mut us: Vec<u64>| {
        us.sort_unstable();
        us
    };

    // Solo baseline: the minority tenant has the service to itself.
    let config = service_config(cfg, &[DeviceId::Guadalupe], 4, 256, 256);
    let svc = MaskService::start(config.clone());
    let pendings = submit_jobs(cfg, &svc, minority_tags.clone(), minority);
    let solo_us = sorted(wait_latencies("skew", pendings));
    svc.shutdown();

    // Contended: the majority tenant floods first (10:1), then the
    // minority submits the identical backlog into the contention.
    let svc = MaskService::start(config);
    let flood = submit_jobs(cfg, &svc, 0x1000..0x1000 + 120, (1, PriorityClass::Batch));
    let pendings = submit_jobs(cfg, &svc, minority_tags, minority);
    let contended_us = sorted(wait_latencies("skew", pendings));
    wait_latencies("flood", flood);
    svc.shutdown();

    (solo_us, contended_us)
}

/// The fairness phase: two equal-weight same-class tenants submit equal
/// backlogs back to back; round-robin must interleave them. Returns the
/// per-tenant makespans (µs) in submission order.
fn run_fairness(cfg: &ExperimentCfg) -> (u64, u64) {
    let svc = MaskService::start(service_config(cfg, &[DeviceId::Guadalupe], 2, 128, 256));
    // Tenant 5's whole backlog is queued before tenant 6's first job:
    // FIFO would drain 5 completely first; round-robin alternates.
    let first = submit_jobs(cfg, &svc, 0x2000..0x2000 + 15, (5, PriorityClass::Batch));
    let second = submit_jobs(cfg, &svc, 0x4000..0x4000 + 15, (6, PriorityClass::Batch));
    // All submits land before any meaningful drain (searches are slow
    // relative to submission), so completion offset ≈ timing.total_us.
    let makespan = |pendings| {
        let us = wait_latencies("fairness", pendings);
        us.into_iter().max().unwrap_or(0)
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
/// Panics when any invariant in the module docs does not hold.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Trace replay: multi-tenant scheduling under a seeded diurnal trace ==");
    let (tenants, steps) = trace_size(cfg);
    println!(
        "  trace: {} steps, {} tenants (zipf popularity), 5 devices, 5-circuit corpus, run twice",
        steps, tenants
    );
    let report = twice("trace replay", || run_replay(cfg));

    assert_eq!(report.stats.worker_panics, 0, "zero panics across the run");

    // The top class meets its SLO.
    let top = report
        .per_tenant
        .iter()
        .filter(|(t, _)| class_of(**t) == PriorityClass::Interactive);
    let (cohort, within) = top.fold((0, 0), |(c, w), (_, t)| {
        (c + t.slo_cohort, w + t.slo_within)
    });
    let top_attainment = within as f64 / cohort.max(1) as f64;
    assert!(
        top_attainment >= 0.99,
        "interactive SLO attainment {top_attainment:.4} below 99% ({within} of {cohort})"
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

    println!("  skew: 120 batch jobs vs 12 interactive jobs (10:1), 4 workers");
    let (solo_us, contended_us) = run_skew(cfg);
    let (solo_p99_us, contended_p99_us) =
        (percentile(&solo_us, 0.99), percentile(&contended_us, 0.99));
    // Floor the denominator at 500 µs so a near-instant solo baseline
    // cannot turn scheduler-independent noise into a ratio failure.
    let skew_ratio = contended_p99_us / solo_p99_us.max(500.0);
    assert!(
        skew_ratio <= 2.0,
        "minority-tenant p99 degraded {skew_ratio:.2}x under the flood (bound 2.0)"
    );

    println!("  fairness: two equal backlogs submitted back to back, 2 workers");
    let (first_us, second_us) = run_fairness(cfg);
    let fairness_ratio = first_us.max(second_us) as f64 / first_us.min(second_us).max(1) as f64;
    assert!(
        fairness_ratio <= 1.5,
        "equal-weight tenants diverged {fairness_ratio:.2}x (bound 1.5)"
    );

    let per_tenant = report.per_tenant.iter().map(|(tenant, t)| {
        // Deadline-free (batch) tenants have no SLO cohort: null.
        let attainment = t.slo_within as f64 / t.slo_cohort as f64;
        Json::obj([
            ("tenant", format!("t{tenant}").into()),
            ("class", class_of(*tenant).name().into()),
            ("submitted", t.submitted.into()),
            ("completed", t.completed.into()),
            ("rejected_quota", t.rejected_quota.into()),
            ("slo_attainment", Json::Num(attainment, 4)),
        ])
    });
    let lanes = PriorityClass::ALL.iter().zip(&report.class_latencies_us);
    let per_class = lanes.map(|(class, lane)| (class.name(), latency_ms(lane)));
    let ms = |us: f64| Json::Num(us / 1000.0, 3);
    write_report(
        cfg,
        "BENCH_tenancy.json",
        vec![
            ("faults", cfg.fault_name.into()),
            ("steps", steps.into()),
            ("tenants", tenants.into()),
            (
                "slo",
                Json::obj([
                    ("top_class", "interactive".into()),
                    ("attainment", Json::Num(top_attainment, 4)),
                ]),
            ),
            ("per_tenant", Json::Arr(per_tenant.collect())),
            ("per_class_ms", per_class.collect()),
            (
                "skew",
                Json::obj([
                    ("majority_to_minority", 10u32.into()),
                    ("solo_ms", latency_ms(&solo_us)),
                    ("contended_ms", latency_ms(&contended_us)),
                    ("ratio", Json::Num(skew_ratio, 3)),
                    ("bound", Json::Num(2.0, 1)),
                ]),
            ),
            (
                "fairness",
                Json::obj([
                    ("makespan_a_ms", ms(first_us as f64)),
                    ("makespan_b_ms", ms(second_us as f64)),
                    ("throughput_ratio", Json::Num(fairness_ratio, 3)),
                    ("bound", Json::Num(1.5, 1)),
                ]),
            ),
            ("stats", stats_json(&report.stats)),
            ("deterministic_replay", true.into()),
        ],
        report.lines(),
    );
}
