//! The service's admission rule: `submit` refuses every request field no
//! worker could serve before it takes a queue slot, with the typed
//! `InvalidConfig`, and the rule itself ([`check_circuit`] and
//! [`SearchBudget::validate`]) never panics, whatever the fields.

use adapt::search::MAX_NEIGHBORHOOD;
use adapt::DdProtocol;
use adapt_service::{
    check_circuit, DeviceId, MaskService, Request, SearchBudget, ServiceConfig, ServiceError,
    TierPolicy, MAX_DELAY_NS, MAX_SHOTS, MAX_TRAJECTORIES,
};
use proptest::prelude::*;
use qcirc::{Circuit, Gate, OpKind, MAX_CLBITS};

fn ghz(n: u32) -> Circuit {
    let mut c = Circuit::new(n as usize);
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    c.measure_all();
    c
}

fn recommend(circuit: Circuit, budget: SearchBudget) -> Request {
    Request::RecommendMask {
        circuit,
        device: DeviceId::Rome,
        protocol: DdProtocol::Xy4,
        budget,
        deadline_ms: None,
        tenancy: Default::default(),
    }
}

/// A servable budget on Rome.
fn small_budget() -> SearchBudget {
    SearchBudget {
        shots: 64,
        trajectories: 2,
        neighborhood: 4,
        tier: TierPolicy::default(),
    }
}

/// Requests the admission rule refuses on 5-qubit Rome, each a GHZ
/// recommendation with one field changed, and the part of the reason
/// that names it.
fn unservable_requests() -> Vec<(&'static str, Request)> {
    let with_op = |op: &dyn Fn(&mut Circuit)| {
        let mut c = ghz(3);
        op(&mut c);
        recommend(c, small_budget())
    };
    let with_budget = |edit: &dyn Fn(&mut SearchBudget)| {
        let mut budget = small_budget();
        edit(&mut budget);
        recommend(ghz(3), budget)
    };
    let mut wide_creg = Circuit::with_clbits(3, MAX_CLBITS + 1);
    wide_creg.h(0).measure(0, MAX_CLBITS as u32);
    let mut out = vec![
        (
            "delay of NaN",
            with_op(&|c| {
                c.delay(f64::NAN, 1);
            }),
        ),
        (
            "delay of -1",
            with_op(&|c| {
                c.delay(-1.0, 1);
            }),
        ),
        (
            "delays sum past",
            with_op(&|c| {
                c.delay(1e300, 1);
            }),
        ),
        (
            "delays sum past",
            with_op(&|c| {
                c.delay(MAX_DELAY_NS, 1).delay(1.0, 2);
            }),
        ),
        (
            "non-finite parameter",
            with_op(&|c| {
                c.rz(f64::NAN, 0);
            }),
        ),
        ("65 classical bits", recommend(wide_creg, small_budget())),
        (
            "at least one qubit",
            recommend(Circuit::new(0), small_budget()),
        ),
        ("does not fit", recommend(ghz(6), small_budget())),
    ];
    for n in [0, MAX_NEIGHBORHOOD + 1] {
        out.push(("neighborhood", with_budget(&|b| b.neighborhood = n)));
    }
    for n in [0, u64::MAX] {
        out.push(("shots", with_budget(&|b| b.shots = n)));
    }
    for n in [0, u32::MAX] {
        out.push(("trajectories", with_budget(&|b| b.trajectories = n)));
    }
    out
}

#[test]
fn submit_refuses_unservable_requests_before_the_queue() {
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Rome],
        workers: 1,
        ..ServiceConfig::default()
    });
    for (names, request) in unservable_requests() {
        match svc.submit(request) {
            Err(ServiceError::InvalidConfig { reason }) => {
                assert!(reason.contains(names), "want {names:?}, got {reason:?}")
            }
            other => panic!("{names}: expected InvalidConfig, got {other:?}"),
        }
    }
    let samples = adapt_obs::parse_prometheus(&svc.metrics_registry().render_prometheus())
        .expect("exposition parses");
    let get = |name: &str| adapt_obs::sample_value(&samples, name).unwrap_or(0.0);
    assert_eq!(get("adapt_service_requests_total"), 0.0);
    assert_eq!(get("adapt_service_queue_depth"), 0.0);
    let stats = svc.shutdown();
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.peak_queue_depth, 0);
    assert_eq!(stats.worker_panics, 0);
}

/// The rule at its edges: every bound is inclusive.
#[test]
fn the_circuit_rule_admits_its_bounds_and_nothing_past_them() {
    let delays = |delays: &[f64]| {
        let mut c = Circuit::new(2);
        for &ns in delays {
            c.delay(ns, 1);
        }
        check_circuit(&c, DeviceId::Rome, Some(5))
    };
    assert!(delays(&[96.0, -0.0]).is_ok());
    assert!(delays(&[MAX_DELAY_NS]).is_ok());
    for ns in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 1e300] {
        assert!(delays(&[ns]).is_err(), "delay of {ns} ns");
    }
    // Each within the bound, their sum past it.
    assert!(delays(&[MAX_DELAY_NS, 1.0]).is_err());
    assert!(delays(&[MAX_DELAY_NS / 2.0; 3]).is_err());

    assert!(check_circuit(&ghz(5), DeviceId::Rome, Some(5)).is_ok());
    assert!(check_circuit(&ghz(6), DeviceId::Rome, Some(5)).is_err());
    // An unregistered device bounds no width; the worker answers it.
    assert!(check_circuit(&ghz(6), DeviceId::Rome, None).is_ok());
    assert!(check_circuit(&Circuit::new(0), DeviceId::Rome, None).is_err());
    let creg = |clbits: usize| {
        let c = Circuit::with_clbits(2, clbits);
        check_circuit(&c, DeviceId::Rome, Some(5))
    };
    assert!(creg(MAX_CLBITS).is_ok());
    assert!(creg(MAX_CLBITS + 1).is_err());
}

#[test]
fn the_budget_rule_admits_its_bounds_and_exempts_heuristic_only() {
    let max = SearchBudget {
        shots: MAX_SHOTS,
        trajectories: MAX_TRAJECTORIES,
        neighborhood: MAX_NEIGHBORHOOD,
        tier: TierPolicy::SearchOnly,
    };
    assert_eq!(max.validate(), Ok(()));
    for past in [
        SearchBudget {
            shots: MAX_SHOTS + 1,
            ..max
        },
        SearchBudget {
            trajectories: MAX_TRAJECTORIES + 1,
            ..max
        },
        SearchBudget {
            neighborhood: MAX_NEIGHBORHOOD + 1,
            ..max
        },
    ] {
        assert!(past.validate().is_err(), "{past:?}");
        let heuristic = SearchBudget {
            tier: TierPolicy::HeuristicOnly,
            ..past
        };
        assert_eq!(heuristic.validate(), Ok(()));
    }
}

/// Any `f64`: every bit pattern, the edge values, and a spread around
/// the delay bound.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        0.0..2.0 * MAX_DELAY_NS,
        -1.0..1.0f64,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(MAX_DELAY_NS),
    ]
}

/// One op: a kind selector, a qubit and a clbit (reduced modulo the
/// widths), and a value for its angle or delay.
fn any_op() -> impl Strategy<Value = (u8, u32, u32, f64)> {
    (0u8..5, any::<u32>(), any::<u32>(), any_f64())
}

/// A circuit of `width` qubits and `clbits` classical bits with `ops`.
fn build(width: usize, clbits: usize, ops: &[(u8, u32, u32, f64)]) -> Circuit {
    let mut c = Circuit::with_clbits(width, clbits);
    if width == 0 {
        return c;
    }
    for &(kind, q, clbit, value) in ops {
        let q = q % width as u32;
        match kind {
            0 => c.rz(value, q),
            1 => c.gate(Gate::U(value, 0.5, value), &[q]),
            2 if clbits > 0 => c.measure(q, clbit % clbits as u32),
            3 => c.h(q),
            _ => c.delay(value, q),
        };
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_budget_rule_never_panics_and_ok_means_in_bounds(
        shots in prop_oneof![any::<u64>(), 0..=MAX_SHOTS + 1],
        trajectories in prop_oneof![any::<u32>(), 0..=MAX_TRAJECTORIES + 1],
        neighborhood in prop_oneof![any::<usize>(), 0..=MAX_NEIGHBORHOOD + 1],
        tier in 0usize..3,
    ) {
        let tier = [TierPolicy::Auto, TierPolicy::HeuristicOnly, TierPolicy::SearchOnly][tier];
        let budget = SearchBudget { shots, trajectories, neighborhood, tier };
        if budget.validate().is_ok() && tier != TierPolicy::HeuristicOnly {
            prop_assert!((1..=MAX_SHOTS).contains(&shots));
            prop_assert!((1..=MAX_TRAJECTORIES).contains(&trajectories));
            prop_assert!((1..=MAX_NEIGHBORHOOD).contains(&neighborhood));
        }
    }

    #[test]
    fn the_circuit_rule_never_panics_and_ok_means_in_bounds(
        width in 0usize..8,
        clbits in 0usize..MAX_CLBITS + 4,
        device_qubits in prop_oneof![(1usize..8).prop_map(Some), Just(None)],
        ops in prop::collection::vec(any_op(), 0..12),
    ) {
        let circuit = build(width, clbits, &ops);
        if check_circuit(&circuit, DeviceId::Rome, device_qubits).is_ok() {
            prop_assert!(width >= 1);
            prop_assert!(device_qubits.is_none_or(|q| width <= q));
            prop_assert!(clbits <= MAX_CLBITS);
            let mut delay_ns = 0.0;
            for instr in circuit.iter() {
                match &instr.kind {
                    OpKind::Gate(g) => {
                        prop_assert!(g.params().iter().all(|p| p.is_finite()), "{g}");
                    }
                    OpKind::Delay(ns) => {
                        prop_assert!(ns.is_finite() && *ns >= 0.0, "delay of {ns}");
                        delay_ns += ns;
                    }
                    _ => {}
                }
            }
            prop_assert!(delay_ns <= MAX_DELAY_NS, "delays sum to {delay_ns}");
        }
    }
}
