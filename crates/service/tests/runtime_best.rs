//! `Request::Execute` with `Policy::RuntimeBest`: the service delegates
//! to the framework's oracle sweep. Pins its answer on a small program
//! and checks that an oversized program is a typed rejection, not a
//! worker panic.

use adapt::{AdaptError, Policy, SearchError};
use adapt_service::{DeviceId, MaskService, Request, Response, ServiceConfig, ServiceError};

fn ghz(n: usize) -> qcirc::Circuit {
    let mut c = qcirc::Circuit::new(n);
    c.h(0);
    for q in 1..n as u32 {
        c.cx(q - 1, q);
    }
    c.measure_all();
    c
}

fn execute(circuit: qcirc::Circuit, device: DeviceId) -> Request {
    Request::Execute {
        circuit,
        device,
        policy: Policy::RuntimeBest,
        deadline_ms: None,
        tenancy: Default::default(),
    }
}

#[test]
fn runtime_best_execution_is_pinned_and_oversized_programs_are_rejected() {
    let svc = MaskService::start(ServiceConfig {
        devices: vec![DeviceId::Guadalupe, DeviceId::Toronto],
        ..ServiceConfig::default()
    });
    match svc.call(execute(ghz(4), DeviceId::Guadalupe)) {
        Ok(Response::Execution(e)) => {
            assert_eq!(e.policy, Policy::RuntimeBest);
            assert_eq!(e.provenance, None);
            assert_eq!(
                (e.mask.bits(), e.fidelity.to_bits()),
                (0b0101, 0x3fea_bfff_ffff_ffff),
                "Runtime-Best answer changed: mask {} fidelity {}",
                e.mask,
                e.fidelity
            );
        }
        other => panic!("expected an execution, got {other:?}"),
    }
    // 27 qubits would also overflow the dense simulator: the size check
    // must come before any compile or simulation.
    for qubits in [17, 27] {
        match svc.call(execute(ghz(qubits), DeviceId::Toronto)) {
            Err(ServiceError::Failed(AdaptError::Search(e))) => {
                assert_eq!(e, SearchError::TooLarge { qubits, limit: 16 })
            }
            other => panic!("expected a TooLarge rejection for {qubits} qubits, got {other:?}"),
        }
    }
    assert_eq!(svc.shutdown().worker_panics, 0);
}
