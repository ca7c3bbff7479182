//! **Search performance smoke** — exercises the compiled-plan cache, the
//! simulator-routing layer, and the batched mask-scoring path end to end,
//! and records throughput numbers for the perf trajectory.
//!
//! Runs the localized ADAPT search on IBMQ-Guadalupe twice on one
//! machine using a fully Clifford decoy, so every scored candidate routes
//! to the CHP stabilizer engine — the configuration that makes
//! double-digit masks/s possible. The second pass must be served from the
//! plan cache (the binary fails loudly when the hit counter stays at
//! zero, so CI catches a regression in the routing-keyed cache). A
//! scoring step then runs one neighborhood's 16 masks serially and as one
//! batch on the CHP path (bit-identity checked), re-scores the same masks
//! through a seeded decoy on the state-vector engine for the routing
//! split, and writes `results/BENCH_search.json` (schema 2).
//!
//! In full (non-`--quick`) mode the binary asserts the performance
//! contract from the roadmap: batched CHP scoring sustains ≥ 10 masks/s
//! on QFT-10, and at least one decoy execution actually routed to CHP.

use crate::runner::ExperimentCfg;
use adapt::decoy::{make_decoy, DecoyKind};
use adapt::search::{localized_search, SearchContext};
use adapt::{DdConfig, DdMask, DdProtocol};
use device::Device;
use machine::{ExecutionConfig, Machine};
use std::time::Instant;
use transpiler::{transpile, TranspileOptions};

/// Minimum batched CHP throughput (masks/s) asserted in full mode.
const FULL_MODE_MASKS_PER_S_FLOOR: f64 = 10.0;

/// Runs the smoke check and writes `results/BENCH_search.json`.
///
/// # Panics
///
/// Panics (failing the CI job) when the second search records no plan
/// cache hits, when batched scoring diverges from serial scoring, when no
/// execution routed to the CHP engine, or — in full mode — when batched
/// CHP scoring falls below `FULL_MODE_MASKS_PER_S_FLOOR`.
pub fn run(cfg: &ExperimentCfg) {
    println!("\n== Search perf: plan cache + engine routing + scoring throughput ==");
    // Guadalupe's 16-wire topology. QFT-10 is the headline configuration
    // recorded in EXPERIMENTS.md; quick mode drops to QFT-8 so the smoke
    // suite stays laptop-sized.
    let n = if cfg.quick { 8usize } else { 10 };
    let dev = Device::ibmq_guadalupe(cfg.seed);
    let machine = Machine::new(dev.clone());
    let t = transpile(
        &benchmarks::qft_bench(n, 42),
        &dev,
        &TranspileOptions::default(),
    );
    // The headline decoy is fully Clifford: DD insertion only adds X/Y
    // pulses, so every candidate mask stays CHP-eligible.
    let cdc = make_decoy(&t.timed, DecoyKind::Clifford).expect("clifford decoy");
    assert!(cdc.is_clifford(), "CDC must be CHP-eligible");
    // The seeded decoy keeps non-Clifford phases → dense engine.
    let sdc = make_decoy(&t.timed, DecoyKind::Seeded { max_seed_qubits: 4 }).expect("seeded decoy");
    assert!(!sdc.is_clifford(), "SDC must exercise the dense engine");
    let (shots, trajectories) = if cfg.quick { (128, 4) } else { (256, 8) };
    let exec = |threads: usize| ExecutionConfig {
        shots,
        trajectories,
        seed: cfg.seed ^ 0x5EED_DEC0,
        threads,
    };
    let ctx = |decoy, threads: usize| {
        SearchContext::new(
            &machine,
            dev.clone(),
            decoy,
            &t.initial_layout,
            DdConfig::for_protocol(DdProtocol::Xy4),
            exec(threads),
            n,
        )
    };

    // Two identical searches on one machine: the first populates the
    // plan cache, the second must hit it for every decoy circuit.
    let order: Vec<u32> = (0..n as u32).collect();
    let serial_ctx = ctx(&cdc, 1);
    let t0 = Instant::now();
    let first = localized_search(&serial_ctx, &order, 4, true).expect("first search");
    let first_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let after_first = machine.plan_cache_stats();
    let t0 = Instant::now();
    let second = localized_search(&serial_ctx, &order, 4, true).expect("second search");
    let second_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let stats = machine.plan_cache_stats();
    assert_eq!(first.best, second.best, "repeated search must be stable");
    println!(
        "  search: first {first_ms:.0} ms ({} compilations), second {second_ms:.0} ms, \
         cache {}/{} hits ({:.0}%)",
        after_first.misses,
        stats.hits,
        stats.hits + stats.misses,
        stats.hit_rate() * 100.0
    );
    assert!(
        stats.hits > after_first.hits,
        "second search recorded no plan-cache hits: {stats:?}"
    );

    // Mask-scoring throughput on the CHP path: one neighborhood's 16
    // masks, serial vs batched submission. The results must be
    // bit-identical however the thread budget is split.
    let masks: Vec<DdMask> = (0u64..16).map(|bits| DdMask::from_bits(bits, n)).collect();
    let t0 = Instant::now();
    let serial: Vec<_> = masks
        .iter()
        .map(|&m| serial_ctx.score(m).expect("serial score"))
        .collect();
    let serial_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    // The thread budget the batches request: at least four workers, so the
    // batched path is exercised (and reported) even on a one-core host.
    let batch_budget = host_threads.max(4);
    let batched_ctx = ctx(&cdc, batch_budget);
    let t0 = Instant::now();
    let batched: Vec<_> = batched_ctx
        .score_batch(&masks)
        .into_iter()
        .map(|r| r.expect("batched score"))
        .collect();
    let batched_ms = t0.elapsed().as_secs_f64() * 1000.0;
    for (s, b) in serial.iter().zip(&batched) {
        assert_eq!(s.mask, b.mask);
        assert_eq!(
            s.fidelity.to_bits(),
            b.fidelity.to_bits(),
            "batched scoring diverged from serial on mask {}",
            s.mask
        );
    }
    // The batch layout actually used, read back from the engine counters
    // rather than assumed from the host — this is what the report records.
    let engines_after_chp = machine.engine_stats();
    let batch_workers = engines_after_chp.last_batch_workers;
    let batch_job_threads = engines_after_chp.last_batch_job_threads;
    let per_s = |ms: f64| masks.len() as f64 / (ms / 1000.0).max(1e-9);
    let chp_serial_per_s = per_s(serial_ms);
    let chp_batched_per_s = per_s(batched_ms);
    println!(
        "  chp scoring: serial {serial_ms:.0} ms ({chp_serial_per_s:.1} masks/s), \
         batched {batched_ms:.0} ms ({chp_batched_per_s:.1} masks/s, \
         {batch_workers} workers x {batch_job_threads} threads), bit-identical"
    );

    // The same masks through the seeded decoy: non-Clifford phases force
    // the state-vector engine, giving the CHP-vs-dense routing split.
    let dense_ctx = ctx(&sdc, batch_budget);
    let t0 = Instant::now();
    let dense: Vec<_> = dense_ctx
        .score_batch(&masks)
        .into_iter()
        .map(|r| r.expect("dense score"))
        .collect();
    let dense_ms = t0.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(dense.len(), masks.len());
    let dense_per_s = per_s(dense_ms);
    let engines = machine.engine_stats();
    println!(
        "  statevector scoring: batched {dense_ms:.0} ms ({dense_per_s:.1} masks/s); \
         engine split: {} chp / {} statevector executions",
        engines.chp_executions, engines.statevec_executions
    );
    assert!(
        engines.chp_executions > 0,
        "no decoy execution routed to CHP: {engines:?}"
    );
    assert!(
        engines.statevec_executions > 0,
        "seeded decoy never reached the state-vector engine: {engines:?}"
    );
    if !cfg.quick {
        assert!(
            chp_batched_per_s >= FULL_MODE_MASKS_PER_S_FLOOR,
            "batched CHP scoring below the {FULL_MODE_MASKS_PER_S_FLOOR} masks/s floor: \
             {chp_batched_per_s:.1} masks/s"
        );
        println!("  floor: {chp_batched_per_s:.1} masks/s >= {FULL_MODE_MASKS_PER_S_FLOOR} OK");
    }

    let out_dir = cfg.out_dir();
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let json = format!(
        "{{\n  \"schema\": 2,\n  \"device\": \"{}\",\n  \"benchmark\": \"QFT-{n}\",\n  \
         \"shots\": {shots},\n  \"trajectories\": {trajectories},\n  \"host_threads\": {host_threads},\n  \
         \"batch\": {{ \"budget\": {batch_budget}, \"workers\": {batch_workers}, \"job_threads\": {batch_job_threads} }},\n  \
         \"engines\": {{ \"chp_executions\": {}, \"statevec_executions\": {} }},\n  \
         \"search\": {{ \"decoy\": \"clifford\", \"engine\": \"chp\", \"first_ms\": {first_ms:.1}, \
         \"second_ms\": {second_ms:.1}, \"decoy_runs\": {}, \"cache\": {{ \"hits\": {}, \
         \"misses\": {}, \"evictions\": {}, \"hit_rate\": {:.4} }} }},\n  \
         \"mask_scoring\": {{ \"masks\": {}, \"chp\": {{ \"serial_ms\": {serial_ms:.1}, \
         \"batched_ms\": {batched_ms:.1}, \"serial_masks_per_s\": {chp_serial_per_s:.2}, \
         \"batched_masks_per_s\": {chp_batched_per_s:.2}, \"bit_identical\": true }}, \
         \"statevector\": {{ \"batched_ms\": {dense_ms:.1}, \
         \"batched_masks_per_s\": {dense_per_s:.2} }} }}\n}}\n",
        dev.name(),
        engines.chp_executions,
        engines.statevec_executions,
        first.decoy_runs(),
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.hit_rate(),
        masks.len(),
    );
    let path = out_dir.join("BENCH_search.json");
    std::fs::write(&path, json).expect("write BENCH_search.json");
    println!("  wrote {}", path.display());
}
