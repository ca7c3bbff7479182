//! Layer probes for the traced run: the workload's own inputs pushed
//! through one layer's public entry point at a time, timed from outside.
//! They give every workload an absolute cost per layer, including the
//! layers its timed phase reaches only inside the service.

use crate::report::{median, Outcome};
use adapt::decoy::make_decoy;
use adapt::{dd, DdConfig, DdMask, DecoyKind};
use adapt_service::{DeviceId, Request, SearchBudget};
use device::Device;
use machine::{CompiledPlan, EnginePolicy, ExecutionConfig, Machine, NoiseToggles, WireDeadline};
use qcirc::Circuit;
use std::hint::black_box;
use std::time::Instant;
use transpiler::{transpile, TranspileOptions};

/// Timed repeats per input; the reported value is the median over all.
const REPS: usize = 5;

/// Inputs per probe, sampled from the workload's own.
pub const PROBE_INPUTS: usize = 8;

pub struct ProbeInput {
    pub circuit: Circuit,
    pub device: Device,
    pub device_id: DeviceId,
    pub decoy: DecoyKind,
}

fn time<T>(samples: &mut Vec<f64>, scale: f64, f: impl Fn() -> T) {
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64() * scale);
    }
}

/// Runs every probe over `inputs` and records the `PER_LAYER` probe
/// metrics into `out`.
pub fn run(inputs: &[ProbeInput], budget: SearchBudget, out: &mut Outcome) {
    let (mut transpile_us, mut decoy_ms, mut insert_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plan_us, mut job_ms) = (Vec::new(), Vec::new());
    let (mut encode_us, mut decode_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let dd_cfg = DdConfig::default();
    let exec = ExecutionConfig {
        shots: budget.shots,
        trajectories: budget.trajectories,
        seed: 0x9B0B,
        threads: 1,
    };
    for input in inputs {
        let opts = TranspileOptions::default();
        time(&mut transpile_us, 1e6, || {
            transpile(&input.circuit, &input.device, &opts)
        });
        let compiled = transpile(&input.circuit, &input.device, &opts);
        time(&mut decoy_ms, 1e3, || {
            make_decoy(&compiled.timed, input.decoy)
        });
        let Ok(decoy) = make_decoy(&compiled.timed, input.decoy) else {
            out.check("probe decoy builds", false);
            continue;
        };
        let analysis = dd::analyze_idle_windows(&decoy.timed, &input.device, &dd_cfg);
        let wires = dd::mask_to_wires(
            DdMask::all(input.circuit.num_qubits()),
            &compiled.initial_layout,
        );
        time(&mut insert_us, 1e6, || {
            dd::insert_dd_prepared(&decoy.timed, &analysis, &wires)
        });
        let inserted = dd::insert_dd_prepared(&decoy.timed, &analysis, &wires).timed;
        let toggles = NoiseToggles::default();
        time(&mut plan_us, 1e6, || {
            CompiledPlan::build(&inserted, &input.device, &toggles, EnginePolicy::Auto)
        });
        // The first execution compiles the plan; the timed ones reuse it,
        // as a search's later masks do.
        let machine = Machine::new(input.device.clone());
        let warm = machine.execute_timed(&inserted, &exec);
        out.check("probe job executes", warm.is_ok());
        time(&mut job_ms, 1e3, || machine.execute_timed(&inserted, &exec));

        let request = Request::RecommendMask {
            circuit: input.circuit.clone(),
            device: input.device_id,
            protocol: dd_cfg.protocol,
            budget,
            deadline_ms: None,
            tenancy: Default::default(),
        };
        let wire_deadline = WireDeadline::fresh(None);
        time(&mut encode_us, 1e6, || {
            adapt_fleet::wire::encode_request(&request, wire_deadline)
        });
        let payload = adapt_fleet::wire::encode_request(&request, wire_deadline);
        bytes.push(payload.len() as f64);
        time(&mut decode_us, 1e6, || {
            adapt_fleet::wire::decode_request(&payload)
        });
        out.check(
            "probe wire round trip",
            adapt_fleet::wire::decode_request(&payload).is_ok(),
        );
    }
    out.set("transpiler.transpile_us", median(&mut transpile_us), "us");
    out.set("decoy.build_ms", median(&mut decoy_ms), "ms");
    out.set("dd.insert_us", median(&mut insert_us), "us");
    out.set("machine.plan_build_us", median(&mut plan_us), "us");
    out.set("machine.job_ms", median(&mut job_ms), "ms");
    out.set("wire.encode_us", median(&mut encode_us), "us");
    out.set("wire.decode_us", median(&mut decode_us), "us");
    out.set("wire.request_bytes", median(&mut bytes), "bytes");
}
