//! **Chaos soak** — drives the mask service through a seeded fault
//! schedule and proves the PR-5 resilience invariants hold end to end.
//!
//! Three devices play fixed roles for the whole soak:
//!
//! * **Guadalupe** stays healthy — the control group. Its requests cycle
//!   a small circuit pool (so the cache is exercised), a mid-run drift
//!   tick invalidates its epoch, and a sprinkle of generous virtual
//!   deadlines rides along without ever expiring.
//! * **Toronto** flaps: sick (every backend job fails) for the first
//!   quarter of the run, healthy for the second, sick again for the
//!   third, healthy to the end. Its breaker must trip during each sick
//!   window and be closed again — via a successful half-open probe —
//!   by the end.
//! * **Rome** is permanently dead (`transient_failure: 1.0`). Its
//!   breaker must trip and still be open when the soak ends; denied
//!   admissions are served the conservative all-DD fallback, and probe
//!   requests carrying tight virtual deadlines are cut short into
//!   partial (uncached) masks.
//!
//! Deadlines run on the service's `virtual_time` clock and requests
//! are submitted strictly sequentially, so expiry — and therefore every
//! breaker decision — is a pure function of the seeded schedule: the
//! whole chaos phase is replayed a second time and the two transition
//! logs, response digests and counter sets must match exactly.
//!
//! Asserted invariants (the binary exits nonzero when any fails):
//!
//! 1. zero worker panics and no untyped (`Internal`) errors anywhere;
//! 2. the deadline contract: every typed deadline error the client saw
//!    is accounted by `deadline_exceeded`, partial masks by
//!    `partial_searches`, fallbacks by `breaker_fallbacks` — and each
//!    path fired at least once;
//! 3. Toronto trips and recovers (final state closed), Rome trips and
//!    stays open, Guadalupe's breaker never moves;
//! 4. healthy-device p99 during chaos stays within 2× the no-chaos
//!    baseline (plus a 5 ms epsilon for scheduling noise on
//!    millisecond-scale latencies);
//! 5. two identical chaos runs are bit-identical (transitions, response
//!    digests, counters).
//!
//! A fourth phase soaks the PR-6 degradation ladder: a tiered service
//! warms four hot keys, drifts an epoch so stale-while-revalidate serves
//! superseded masks while the refine lane re-searches them, then has its
//! refiner lane killed mid-run (`set_refiner_enabled(false)`) and drifts
//! past the staleness bound — requests must degrade stale → heuristic
//! without a panic or a wedge, and the whole phase must replay
//! bit-identically.
//!
//! Results land in `results/BENCH_chaos.json`.

use crate::report::replay_digest;
use crate::runner::ExperimentCfg;
use adapt::DdProtocol;
use adapt_service::{
    BreakerConfig, BreakerFallback, BreakerState, DeviceId, MaskService, Provenance, Request,
    Response, SearchBudget, ServiceConfig, ServiceError, ServiceStats, TierConfig, TierPolicy,
};
use machine::FaultProfile;
use std::path::Path;

/// One scheduled request of the soak.
struct Tick {
    device: DeviceId,
    circuit: qcirc::Circuit,
    deadline_ms: Option<u64>,
}

/// Everything one phase run produces, for invariants and determinism
/// comparison.
struct PhaseReport {
    /// Client-observed latencies (µs, sorted) for Guadalupe responses.
    guad_latencies_us: Vec<u64>,
    /// One line per Ok response: `device provenance mask fidelity-bits`.
    /// Wall-clock timings are excluded, so two seeded runs must agree.
    digest: Vec<String>,
    /// Breaker transition log, rendered.
    transitions: Vec<String>,
    /// Final per-device breaker states.
    final_states: Vec<(DeviceId, Option<BreakerState>)>,
    stats: ServiceStats,
    /// Typed errors the client saw, by class.
    err_deadline: u64,
    err_unhealthy: u64,
    err_failed: u64,
    err_rejected: u64,
    /// Ok responses by provenance class.
    ok_partial: u64,
    ok_fallback: u64,
}

const DEVICES: [DeviceId; 3] = [DeviceId::Guadalupe, DeviceId::Toronto, DeviceId::Rome];

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

/// A device whose every backend job fails: searches degrade to all-DD,
/// the breaker sees failures, and retry backoff charges virtual time.
fn dead_profile() -> FaultProfile {
    FaultProfile {
        transient_failure: 1.0,
        ..FaultProfile::none()
    }
}

fn budget(cfg: &ExperimentCfg) -> SearchBudget {
    if cfg.quick {
        SearchBudget {
            shots: 64,
            trajectories: 2,
            neighborhood: 4,
            tier: TierPolicy::default(),
        }
    } else {
        SearchBudget {
            shots: 128,
            trajectories: 4,
            neighborhood: 4,
            tier: TierPolicy::default(),
        }
    }
}

fn service_config(cfg: &ExperimentCfg) -> ServiceConfig {
    ServiceConfig {
        devices: DEVICES.to_vec(),
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 64,
        seed: cfg.seed,
        fault_profile: cfg.fault_profile,
        default_budget: budget(cfg),
        // Expiry as a pure function of the seeded schedule: two
        // identical runs cancel at identical points.
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
        ..ServiceConfig::default()
    }
}

/// The deterministic request schedule: tick t targets Guadalupe on
/// even ticks, Toronto on `t % 4 == 1`, Rome on `t % 4 == 3`.
fn build_schedule(total: usize) -> Vec<Tick> {
    // Four hot Guadalupe keys — cache hits dominate, like production.
    let guad_pool = [1usize, 2, 4, 8];
    let mut guad_idx = 0usize;
    let mut toronto_idx = 0usize;
    let mut rome_idx = 0usize;
    (0..total)
        .map(|t| match t % 4 {
            1 => {
                let idx = toronto_idx;
                toronto_idx += 1;
                Tick {
                    device: DeviceId::Toronto,
                    // Distinct key per request: sick-phase outcomes must
                    // reach the backend (cache hits are inconclusive to
                    // the breaker).
                    circuit: tagged(5, idx % 32),
                    deadline_ms: None,
                }
            }
            3 => {
                let idx = rome_idx;
                rome_idx += 1;
                Tick {
                    device: DeviceId::Rome,
                    circuit: tagged(5, idx % 32),
                    // After the trip (the first four requests feed it),
                    // every fourth request carries a budget far below
                    // one retry ladder (base backoff 10 ms): a probe
                    // drawing it is cut short into a partial mask.
                    deadline_ms: (idx >= 4 && idx % 4 == 1).then_some(8),
                }
            }
            _ => {
                let idx = guad_idx;
                guad_idx += 1;
                Tick {
                    device: DeviceId::Guadalupe,
                    circuit: tagged(6, guad_pool[idx % guad_pool.len()]),
                    // One born-expired submission (typed rejection, never
                    // enqueued) and a sprinkle of generous deadlines that
                    // a healthy device never comes close to.
                    deadline_ms: match idx {
                        2 => Some(0),
                        i if i % 5 == 3 => Some(100),
                        _ => None,
                    },
                }
            }
        })
        .collect()
}

/// Toronto's availability at tick `t`: sick in the first and third
/// quarters of the run, healthy otherwise.
fn toronto_sick(t: usize, total: usize) -> bool {
    t < total / 4 || (total / 2..3 * total / 4).contains(&t)
}

/// Runs one phase over `plan`. `chaos: false` replays only the
/// Guadalupe ticks with no fault overrides (the latency baseline);
/// `chaos: true` runs the full schedule with Rome dead throughout and
/// Toronto flapping.
fn run_phase(cfg: &ExperimentCfg, plan: &[Tick], chaos: bool) -> PhaseReport {
    let svc = MaskService::start(service_config(cfg));
    if chaos {
        svc.set_fault_profile(DeviceId::Rome, dead_profile());
    }
    let total = plan.len();
    let mut toronto_was_sick = false;
    let mut report = PhaseReport {
        guad_latencies_us: Vec::new(),
        digest: Vec::new(),
        transitions: Vec::new(),
        final_states: Vec::new(),
        stats: ServiceStats::default(),
        err_deadline: 0,
        err_unhealthy: 0,
        err_failed: 0,
        err_rejected: 0,
        ok_partial: 0,
        ok_fallback: 0,
    };
    for (t, tick) in plan.iter().enumerate() {
        if !chaos && tick.device != DeviceId::Guadalupe {
            continue;
        }
        if chaos && tick.device == DeviceId::Toronto {
            let sick = toronto_sick(t, total);
            if sick != toronto_was_sick {
                if sick {
                    svc.set_fault_profile(DeviceId::Toronto, dead_profile());
                } else {
                    svc.clear_fault_profile(DeviceId::Toronto);
                }
                toronto_was_sick = sick;
            }
        }
        if t == total / 2 {
            // Mid-run calibration drift on the healthy device, in both
            // phases so the latency comparison stays apples-to-apples.
            svc.advance_epoch(DeviceId::Guadalupe)
                .expect("guadalupe is registered");
        }
        // Strictly sequential submission: the admission order — and
        // with it every breaker decision — is the schedule order.
        let result = svc.call(Request::RecommendMask {
            circuit: tick.circuit.clone(),
            device: tick.device,
            protocol: DdProtocol::Xy4,
            budget: budget(cfg),
            deadline_ms: tick.deadline_ms,
            tenancy: Default::default(),
        });
        match result {
            Ok(Response::Mask(rec)) => {
                if tick.device == DeviceId::Guadalupe {
                    report.guad_latencies_us.push(rec.timing.total_us());
                }
                match rec.provenance {
                    Provenance::PartialSearch => report.ok_partial += 1,
                    Provenance::BreakerFallback => report.ok_fallback += 1,
                    _ => {}
                }
                report.digest.push(format!(
                    "{} {} {} {:016x}",
                    tick.device.name(),
                    rec.provenance,
                    rec.mask,
                    rec.decoy_fidelity.to_bits()
                ));
            }
            Ok(Response::Execution(_)) => unreachable!("recommendations return masks"),
            Err(ServiceError::DeadlineExceeded { .. }) => report.err_deadline += 1,
            Err(ServiceError::DeviceUnhealthy { .. }) => report.err_unhealthy += 1,
            Err(ServiceError::Failed(_)) => report.err_failed += 1,
            Err(ServiceError::Rejected { .. }) => report.err_rejected += 1,
            Err(e) => panic!("untyped error escaped the service at tick {t}: {e}"),
        }
    }
    report.transitions = svc
        .breaker_transitions()
        .iter()
        .map(|tr| tr.to_string())
        .collect();
    report.final_states = DEVICES.iter().map(|&d| (d, svc.breaker_state(d))).collect();
    report.stats = svc.shutdown();
    report.guad_latencies_us.sort_unstable();
    report
}

/// What one tiered-ladder phase run produces, for invariants and
/// determinism comparison (wall-clock excluded throughout).
struct TieredReport {
    /// One line per response: `step provenance mask fidelity-bits`.
    digest: Vec<String>,
    stats: ServiceStats,
}

/// Phase D: the degradation-ladder soak. Four hot Guadalupe keys are
/// warmed, an epoch advance turns them stale (served within the bound
/// while the refine lane upgrades them), the refiner is killed mid-run,
/// and two further drifts push the stale copies past the bound so
/// requests fall through to the instant heuristic. Tight deadlines run
/// in virtual mode, so every tier decision is schedule-pure.
fn run_tiered_phase(cfg: &ExperimentCfg) -> TieredReport {
    let svc = MaskService::start(ServiceConfig {
        tiers: TierConfig {
            // A deadline below this cannot fit a search; deadline-free
            // requests search as usual.
            min_search_ms: 1_000,
            max_stale_epochs: 2,
            ..TierConfig::default()
        },
        ..service_config(cfg)
    });
    let circuits: Vec<qcirc::Circuit> = [1usize, 2, 4, 8].iter().map(|&t| tagged(6, t)).collect();
    let mut report = TieredReport {
        digest: Vec::new(),
        stats: ServiceStats::default(),
    };
    let mut ask = |svc: &MaskService, step: &str, c: &qcirc::Circuit, deadline_ms: Option<u64>| {
        let rec = match svc.call(Request::RecommendMask {
            circuit: c.clone(),
            device: DeviceId::Guadalupe,
            protocol: DdProtocol::Xy4,
            budget: budget(cfg),
            deadline_ms,
            tenancy: Default::default(),
        }) {
            Ok(Response::Mask(rec)) => rec,
            other => panic!("tiered phase {step}: unexpected response {other:?}"),
        };
        report.digest.push(format!(
            "{step} {} {} {:016x}",
            rec.provenance,
            rec.mask,
            rec.decoy_fidelity.to_bits()
        ));
        rec.provenance
    };

    // D1: warm the hot set — four fresh searches.
    for c in &circuits {
        assert_eq!(ask(&svc, "warm", c, None), Provenance::FreshSearch);
    }
    // D2: drift lands. Stale copies serve instantly within the bound
    // while the refine lane re-searches each key in the background.
    svc.advance_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    for c in &circuits {
        assert!(
            matches!(
                ask(&svc, "stale", c, None),
                Provenance::StaleServed { age_epochs: 1 }
            ),
            "superseded entries within the bound must serve stale"
        );
    }
    svc.drain_refines();
    for c in &circuits {
        assert_eq!(
            ask(&svc, "refined", c, None),
            Provenance::CacheHit,
            "the refine lane must have upgraded every stale key"
        );
    }
    // D3: kill the refiner lane mid-run, then drift again. Stale serving
    // must keep working; the refresh attempts are dropped, not wedged.
    svc.set_refiner_enabled(false);
    svc.advance_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    for c in &circuits {
        assert!(
            matches!(
                ask(&svc, "unrefreshed", c, None),
                Provenance::StaleServed { age_epochs: 1 }
            ),
            "a dead refiner must not stop stale serving"
        );
    }
    // D4: two more drifts push the stale copies past the bound. A tight
    // (virtual) deadline cannot fit a search, so the ladder bottoms out
    // at the instant heuristic.
    for _ in 0..2 {
        svc.advance_epoch(DeviceId::Guadalupe)
            .expect("guadalupe is registered");
    }
    for c in &circuits {
        assert_eq!(
            ask(&svc, "floor", c, Some(100)),
            Provenance::Heuristic,
            "past the staleness bound, a tight deadline must get the heuristic"
        );
    }
    report.stats = svc.shutdown();
    report
}

/// Phase D invariants: the ladder degraded in order, nothing panicked,
/// and the counters account every step.
fn check_tiered_invariants(report: &TieredReport) {
    let stats = &report.stats;
    assert_eq!(stats.worker_panics, 0, "tiered soak must not panic");
    assert_eq!(report.digest.len(), 20, "4 keys × 5 steps");
    assert_eq!(stats.stale_served, 8, "D2 + D3 each serve 4 stale answers");
    assert_eq!(stats.heuristic_served, 4, "D4 serves 4 heuristic answers");
    assert_eq!(
        stats.refines_completed, 4,
        "the live refiner must upgrade all 4 hot keys"
    );
    assert!(
        stats.refines_dropped >= 4,
        "the killed refiner must drop refresh attempts, not queue them: {stats:?}"
    );
}

fn state_of(report: &PhaseReport, device: DeviceId) -> Option<BreakerState> {
    report
        .final_states
        .iter()
        .find(|(d, _)| *d == device)
        .and_then(|(_, s)| *s)
}

/// Closed→open trips of one device, read off the transition log.
fn trips_of(report: &PhaseReport, device: DeviceId) -> usize {
    let needle = format!("{}: closed -> open", device.name());
    report
        .transitions
        .iter()
        .filter(|t| t.contains(&needle))
        .count()
}

/// Runs the soak and writes `results/BENCH_chaos.json`.
///
/// # Panics
///
/// Panics (failing the CI job) when any invariant in the module docs
/// does not hold.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Chaos soak: deadlines + circuit breakers under a seeded fault schedule ==");
    let total = if cfg.quick { 64 } else { 128 };
    let plan = build_schedule(total);

    println!(
        "  phase A: no-chaos baseline ({} guadalupe requests)",
        plan.iter()
            .filter(|t| t.device == DeviceId::Guadalupe)
            .count()
    );
    let baseline = run_phase(cfg, &plan, false);
    assert_eq!(baseline.stats.worker_panics, 0, "baseline must not panic");
    assert!(
        baseline.transitions.is_empty(),
        "no breaker may move without chaos: {:?}",
        baseline.transitions
    );

    println!("  phase B: chaos soak ({total} requests, rome dead, toronto flapping)");
    let chaos = run_phase(cfg, &plan, true);
    check_invariants(&baseline, &chaos);

    println!("  phase C: determinism replay (identical seed and schedule)");
    let replay = run_phase(cfg, &plan, true);
    assert_eq!(
        chaos.transitions, replay.transitions,
        "breaker transitions must be reproducible across identical runs"
    );
    assert_eq!(
        chaos.digest, replay.digest,
        "responses must be bit-identical across identical runs"
    );
    assert_eq!(
        (
            chaos.stats.deadline_exceeded,
            chaos.stats.partial_searches,
            chaos.stats.breaker_fallbacks,
            chaos.stats.breaker_trips,
            chaos.stats.breaker_recoveries,
            chaos.stats.searches
        ),
        (
            replay.stats.deadline_exceeded,
            replay.stats.partial_searches,
            replay.stats.breaker_fallbacks,
            replay.stats.breaker_trips,
            replay.stats.breaker_recoveries,
            replay.stats.searches
        ),
        "counters must be reproducible across identical runs"
    );

    let base_p99 = adapt_obs::percentile(&baseline.guad_latencies_us, 0.99);
    let chaos_p99 = adapt_obs::percentile(&chaos.guad_latencies_us, 0.99);
    println!(
        "  guadalupe p99: {:.1} ms baseline vs {:.1} ms under chaos; \
         toronto trips {} (final {:?}), rome trips {} (final {:?})",
        base_p99 / 1000.0,
        chaos_p99 / 1000.0,
        trips_of(&chaos, DeviceId::Toronto),
        state_of(&chaos, DeviceId::Toronto),
        trips_of(&chaos, DeviceId::Rome),
        state_of(&chaos, DeviceId::Rome),
    );
    println!(
        "  {} transitions, {} partial masks, {} fallbacks, {} deadline errors, 0 panics",
        chaos.transitions.len(),
        chaos.stats.partial_searches,
        chaos.stats.breaker_fallbacks,
        chaos.stats.deadline_exceeded,
    );

    println!("  phase D: refiner-kill tiered soak (stale-while-revalidate under drift)");
    let tiered = run_tiered_phase(cfg);
    check_tiered_invariants(&tiered);
    let tiered_replay = run_tiered_phase(cfg);
    assert_eq!(
        tiered.digest, tiered_replay.digest,
        "tiered responses must be bit-identical across identical runs"
    );
    assert_eq!(
        (
            tiered.stats.stale_served,
            tiered.stats.heuristic_served,
            tiered.stats.refines_completed,
            tiered.stats.refines_dropped,
            tiered.stats.searches
        ),
        (
            tiered_replay.stats.stale_served,
            tiered_replay.stats.heuristic_served,
            tiered_replay.stats.refines_completed,
            tiered_replay.stats.refines_dropped,
            tiered_replay.stats.searches
        ),
        "tiered counters must be reproducible across identical runs"
    );
    println!(
        "  ladder: {} stale served, {} refined, {} heuristic, {} refresh drops after the kill",
        tiered.stats.stale_served,
        tiered.stats.refines_completed,
        tiered.stats.heuristic_served,
        tiered.stats.refines_dropped,
    );

    write_json(cfg, &cfg.out_dir(), total, &baseline, &chaos, &tiered);
}

/// The soak invariants (module docs, items 1–4).
fn check_invariants(baseline: &PhaseReport, chaos: &PhaseReport) {
    let stats = &chaos.stats;
    // 1. Nothing panicked, nothing escaped untyped (untyped errors
    //    already panicked inside run_phase).
    assert_eq!(stats.worker_panics, 0, "workers must survive the soak");

    // 2. Deadline contract. Every typed deadline error the client saw
    //    is in the counter and vice versa — a response that slipped out
    //    past its deadline without the conservative tag would break
    //    this accounting (the service converts it before replying).
    assert_eq!(
        chaos.err_deadline, stats.deadline_exceeded,
        "every deadline expiry must surface as exactly one typed error"
    );
    assert_eq!(chaos.ok_partial, stats.partial_searches);
    assert_eq!(chaos.ok_fallback, stats.breaker_fallbacks);
    assert!(
        stats.rejected_deadline >= 1,
        "the born-expired submission must be rejected without enqueue"
    );
    assert!(
        stats.partial_searches >= 1,
        "a deadline-cut probe must serve a partial conservative mask"
    );
    assert!(
        stats.breaker_fallbacks >= 1,
        "open breakers must serve the conservative fallback"
    );

    // 3. Breaker trajectories per role.
    assert!(
        trips_of(chaos, DeviceId::Toronto) >= 1,
        "the flapping device must trip at least once: {:?}",
        chaos.transitions
    );
    assert_eq!(
        state_of(chaos, DeviceId::Toronto),
        Some(BreakerState::Closed),
        "the flapping device must recover by the end: {:?}",
        chaos.transitions
    );
    assert!(stats.breaker_recoveries >= 1, "recovery requires a probe");
    assert!(
        trips_of(chaos, DeviceId::Rome) >= 1,
        "the dead device must trip: {:?}",
        chaos.transitions
    );
    assert_eq!(
        state_of(chaos, DeviceId::Rome),
        Some(BreakerState::Open),
        "the dead device's breaker must still be open at the end"
    );
    assert!(
        !chaos
            .transitions
            .iter()
            .any(|t| t.contains(DeviceId::Guadalupe.name())),
        "the healthy device's breaker must never move: {:?}",
        chaos.transitions
    );

    // 4. The sick devices must not drag the healthy one down. The 5 ms
    //    epsilon absorbs scheduler noise on millisecond-scale samples.
    let base_p99 = adapt_obs::percentile(&baseline.guad_latencies_us, 0.99);
    let chaos_p99 = adapt_obs::percentile(&chaos.guad_latencies_us, 0.99);
    assert!(
        chaos_p99 <= 2.0 * base_p99 + 5_000.0,
        "healthy-device p99 degraded under chaos: {:.1} ms vs {:.1} ms baseline",
        chaos_p99 / 1000.0,
        base_p99 / 1000.0
    );
}

fn write_json(
    cfg: &ExperimentCfg,
    out_dir: &Path,
    total: usize,
    baseline: &PhaseReport,
    chaos: &PhaseReport,
    tiered: &TieredReport,
) {
    std::fs::create_dir_all(out_dir).expect("create results dir");
    let pct = |v: &[u64], q: f64| adapt_obs::percentile(v, q) / 1000.0;
    let stats = &chaos.stats;
    let transitions: Vec<String> = chaos
        .transitions
        .iter()
        .map(|t| format!("\"{t}\""))
        .collect();
    let states: Vec<String> = chaos
        .final_states
        .iter()
        .map(|(d, s)| {
            format!(
                "\"{}\": \"{}\"",
                d.name(),
                s.map(|s| s.to_string()).unwrap_or_default()
            )
        })
        .collect();
    let digest = replay_digest(
        chaos
            .transitions
            .iter()
            .chain(&chaos.digest)
            .chain(&tiered.digest),
    );
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"quick\": {},\n  \"seed\": {},\n  \"faults\": \"{}\",\n  \
         \"ticks\": {total},\n  \
         \"baseline_guadalupe_ms\": {{ \"p50\": {:.2}, \"p99\": {:.2} }},\n  \
         \"chaos_guadalupe_ms\": {{ \"p50\": {:.2}, \"p99\": {:.2} }},\n  \
         \"requests\": {{ \"accepted\": {}, \"completed\": {}, \"searches\": {}, \
         \"rejected_deadline\": {}, \"rejected_breaker\": {}, \"rejected_queue\": {} }},\n  \
         \"deadlines\": {{ \"exceeded\": {}, \"dropped_in_queue\": {}, \"partial_searches\": {} }},\n  \
         \"breaker\": {{ \"trips\": {}, \"recoveries\": {}, \"fallbacks\": {}, \
         \"toronto_trips\": {}, \"rome_trips\": {} }},\n  \
         \"final_breaker_states\": {{ {} }},\n  \
         \"transitions\": [{}],\n  \
         \"tiered\": {{ \"stale_served\": {}, \"refines_completed\": {}, \
         \"refines_dropped\": {}, \"heuristic_served\": {}, \"responses\": {} }},\n  \
         \"worker_panics\": {},\n  \"deterministic_replay\": true,\n  \
         \"replay_digest\": \"{}\"\n}}\n",
        cfg.quick,
        cfg.seed,
        cfg.fault_name,
        pct(&baseline.guad_latencies_us, 0.50),
        pct(&baseline.guad_latencies_us, 0.99),
        pct(&chaos.guad_latencies_us, 0.50),
        pct(&chaos.guad_latencies_us, 0.99),
        stats.accepted,
        stats.completed,
        stats.searches,
        stats.rejected_deadline,
        stats.rejected_breaker,
        stats.rejected_queue,
        stats.deadline_exceeded,
        stats.deadline_dropped,
        stats.partial_searches,
        stats.breaker_trips,
        stats.breaker_recoveries,
        stats.breaker_fallbacks,
        trips_of(chaos, DeviceId::Toronto),
        trips_of(chaos, DeviceId::Rome),
        states.join(", "),
        transitions.join(", "),
        tiered.stats.stale_served,
        tiered.stats.refines_completed,
        tiered.stats.refines_dropped,
        tiered.stats.heuristic_served,
        tiered.digest.len(),
        stats.worker_panics,
        digest,
    );
    let path = out_dir.join("BENCH_chaos.json");
    std::fs::write(&path, json).expect("write BENCH_chaos.json");
    println!("  wrote {} (replay digest {digest})", path.display());
}
