//! **Chaos soak** — drives the mask service through a seeded fault
//! schedule and proves the resilience invariants hold end to end.
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
//! whole chaos phase runs [`twice`] and the two transition logs,
//! response digests and counter sets must match exactly.
//!
//! Asserted invariants (the run fails when any does not hold):
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
//! A third phase soaks the degradation ladder: a tiered service warms
//! four hot keys, drifts an epoch so stale-while-revalidate serves
//! superseded masks while the refine lane re-searches them, then has its
//! refiner lane killed mid-run (`set_refiner_enabled(false)`) and drifts
//! past the staleness bound — requests must degrade stale → heuristic
//! without a panic or a wedge, and the whole phase must replay
//! bit-identically.
//!
//! Results land in `results/BENCH_chaos.json`.

use super::{
    budget, dead_device, ghz_x, latency_ms, recommend, schedule_pure, service_config, stats_json,
    twice, write_report, Json, Replay,
};
use crate::runner::ExperimentCfg;
use adapt_service::{
    BreakerState, DeviceId, MaskService, Provenance, Response, ServiceConfig, ServiceError,
    ServiceStats, TierConfig, TierPolicy,
};

/// One scheduled request of the soak.
struct Tick {
    device: DeviceId,
    circuit: qcirc::Circuit,
    deadline_ms: Option<u64>,
}

/// Everything one phase run produces, for invariants and determinism
/// comparison.
#[derive(Default)]
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
    /// Typed deadline errors the client saw.
    err_deadline: u64,
    /// Ok responses by provenance class.
    ok_partial: u64,
    ok_fallback: u64,
}

impl Replay for PhaseReport {
    fn lines(&self) -> Vec<&String> {
        self.transitions.iter().chain(&self.digest).collect()
    }
    fn counters(&self) -> String {
        let transitions = self.transitions.len();
        format!("{} transitions={transitions}", schedule_pure(&self.stats))
    }
}

const DEVICES: [DeviceId; 3] = [DeviceId::Guadalupe, DeviceId::Toronto, DeviceId::Rome];

fn soak_config(cfg: &ExperimentCfg) -> ServiceConfig {
    ServiceConfig {
        // Expiry as a pure function of the seeded schedule: two
        // identical runs cancel at identical points.
        virtual_time: true,
        breaker: true,
        ..service_config(cfg, &DEVICES, 2, 8, 64)
    }
}

/// The deterministic request schedule: tick t targets Guadalupe on
/// even ticks (its `t / 2`-th request), Toronto on `t % 4 == 1` and
/// Rome on `t % 4 == 3` (each its `t / 4`-th).
fn build_schedule(total: usize) -> Vec<Tick> {
    // Four hot Guadalupe keys — cache hits dominate, like production.
    let guad_pool = [1usize, 2, 4, 8];
    (0..total)
        .map(|t| match t % 4 {
            1 => Tick {
                device: DeviceId::Toronto,
                // Distinct key per request: sick-phase outcomes must
                // reach the backend (cache hits are inconclusive to the
                // breaker).
                circuit: ghz_x(5, t / 4 % 32),
                deadline_ms: None,
            },
            3 => Tick {
                device: DeviceId::Rome,
                circuit: ghz_x(5, t / 4 % 32),
                // After the trip (the first four requests feed it), every
                // fourth request carries a budget far below one retry
                // ladder (base backoff 10 ms): a probe drawing it is cut
                // short into a partial mask.
                deadline_ms: (t / 4 >= 4 && t / 4 % 4 == 1).then_some(8),
            },
            _ => Tick {
                device: DeviceId::Guadalupe,
                circuit: ghz_x(6, guad_pool[t / 2 % guad_pool.len()]),
                // One born-expired submission (typed rejection, never
                // enqueued) and a sprinkle of generous deadlines that a
                // healthy device never comes close to.
                deadline_ms: match t / 2 {
                    2 => Some(0),
                    i if i % 5 == 3 => Some(100),
                    _ => None,
                },
            },
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
    let svc = MaskService::start(soak_config(cfg));
    if chaos {
        svc.set_fault_profile(DeviceId::Rome, dead_device());
    }
    let total = plan.len();
    let mut toronto_was_sick = false;
    let mut report = PhaseReport::default();
    for (t, tick) in plan.iter().enumerate() {
        if !chaos && tick.device != DeviceId::Guadalupe {
            continue;
        }
        if chaos && tick.device == DeviceId::Toronto {
            let sick = toronto_sick(t, total);
            if sick != toronto_was_sick {
                if sick {
                    svc.set_fault_profile(DeviceId::Toronto, dead_device());
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
        let result = svc.call(recommend(
            tick.circuit.clone(),
            tick.device,
            budget(cfg.quick, TierPolicy::default()),
            tick.deadline_ms,
        ));
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
            Err(
                ServiceError::DeviceUnhealthy { .. }
                | ServiceError::Failed(_)
                | ServiceError::Rejected { .. },
            ) => {}
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

impl Replay for TieredReport {
    fn lines(&self) -> Vec<&String> {
        self.digest.iter().collect()
    }
    fn counters(&self) -> String {
        schedule_pure(&self.stats)
    }
}

/// Phase C: the degradation-ladder soak. Four hot Guadalupe keys are
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
        },
        ..soak_config(cfg)
    });
    let circuits: Vec<qcirc::Circuit> = [1usize, 2, 4, 8].iter().map(|&t| ghz_x(6, t)).collect();
    let mut digest = Vec::new();
    let mut ask = |step: &str, c: &qcirc::Circuit, deadline_ms: Option<u64>| {
        let budget = budget(cfg.quick, TierPolicy::default());
        let rec = match svc.call(recommend(
            c.clone(),
            DeviceId::Guadalupe,
            budget,
            deadline_ms,
        )) {
            Ok(Response::Mask(rec)) => rec,
            other => panic!("tiered phase {step}: unexpected response {other:?}"),
        };
        digest.push(format!(
            "{step} {} {} {:016x}",
            rec.provenance,
            rec.mask,
            rec.decoy_fidelity.to_bits()
        ));
        rec.provenance
    };

    // C1: warm the hot set — four fresh searches.
    for c in &circuits {
        assert_eq!(ask("warm", c, None), Provenance::FreshSearch);
    }
    // C2: drift lands. Stale copies serve instantly within the bound
    // while the refine lane re-searches each key in the background.
    svc.advance_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    for c in &circuits {
        assert!(
            matches!(
                ask("stale", c, None),
                Provenance::StaleServed { age_epochs: 1 }
            ),
            "superseded entries within the bound must serve stale"
        );
    }
    svc.drain_refines();
    for c in &circuits {
        assert_eq!(
            ask("refined", c, None),
            Provenance::CacheHit,
            "the refine lane must have upgraded every stale key"
        );
    }
    // C3: kill the refiner lane mid-run, then drift again. Stale serving
    // must keep working; the refresh attempts are dropped, not wedged.
    svc.set_refiner_enabled(false);
    svc.advance_epoch(DeviceId::Guadalupe)
        .expect("guadalupe is registered");
    for c in &circuits {
        assert!(
            matches!(
                ask("unrefreshed", c, None),
                Provenance::StaleServed { age_epochs: 1 }
            ),
            "a dead refiner must not stop stale serving"
        );
    }
    // C4: two more drifts push the stale copies past the bound. A tight
    // (virtual) deadline cannot fit a search, so the ladder bottoms out
    // at the instant heuristic.
    for _ in 0..2 {
        svc.advance_epoch(DeviceId::Guadalupe)
            .expect("guadalupe is registered");
    }
    for c in &circuits {
        assert_eq!(
            ask("floor", c, Some(100)),
            Provenance::Heuristic,
            "past the staleness bound, a tight deadline must get the heuristic"
        );
    }
    TieredReport {
        digest,
        stats: svc.shutdown(),
    }
}

/// Phase C invariants: the ladder degraded in order, nothing panicked,
/// and the counters account every step.
fn check_tiered_invariants(report: &TieredReport) {
    let stats = &report.stats;
    assert_eq!(stats.worker_panics, 0, "tiered soak must not panic");
    assert_eq!(report.digest.len(), 20, "4 keys × 5 steps");
    assert_eq!(stats.stale_served, 8, "C2 + C3 each serve 4 stale answers");
    assert_eq!(stats.heuristic_served, 4, "C4 serves 4 heuristic answers");
    assert_eq!(
        stats.refines_completed, 4,
        "the live refiner must upgrade all 4 hot keys"
    );
    assert!(
        stats.refines_dropped >= 4,
        "the killed refiner must drop refresh attempts, not queue them: {stats:?}"
    );
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
/// Panics when any invariant in the module docs does not hold.
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

    println!("  phase B: chaos soak ({total} requests, rome dead, toronto flapping), run twice");
    let chaos = twice("chaos soak", || run_phase(cfg, &plan, true));
    check_invariants(&baseline, &chaos);

    println!("  phase C: refiner-kill tiered soak (stale-while-revalidate under drift), run twice");
    let tiered = twice("tiered soak", || run_tiered_phase(cfg));
    check_tiered_invariants(&tiered);

    let states = chaos.final_states.iter().map(|(d, s)| {
        let state = s.map(|s| s.to_string()).unwrap_or_default();
        (d.name(), state)
    });
    write_report(
        cfg,
        "BENCH_chaos.json",
        vec![
            ("faults", cfg.fault_name.into()),
            ("ticks", total.into()),
            (
                "baseline_guadalupe_ms",
                latency_ms(&baseline.guad_latencies_us),
            ),
            ("chaos_guadalupe_ms", latency_ms(&chaos.guad_latencies_us)),
            ("toronto_trips", trips_of(&chaos, DeviceId::Toronto).into()),
            ("rome_trips", trips_of(&chaos, DeviceId::Rome).into()),
            ("final_breaker_states", states.collect()),
            ("transitions", chaos.transitions.clone().into()),
            ("stats", stats_json(&chaos.stats)),
            (
                "tiered",
                Json::obj([
                    ("responses", tiered.digest.len().into()),
                    ("stats", stats_json(&tiered.stats)),
                ]),
            ),
            ("deterministic_replay", true.into()),
        ],
        chaos.lines().into_iter().chain(tiered.lines()),
    );
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
    let state_of = |device| {
        chaos
            .final_states
            .iter()
            .find(|f| f.0 == device)
            .and_then(|f| f.1)
    };
    assert!(
        trips_of(chaos, DeviceId::Toronto) >= 1,
        "the flapping device must trip at least once: {:?}",
        chaos.transitions
    );
    assert_eq!(
        state_of(DeviceId::Toronto),
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
        state_of(DeviceId::Rome),
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
