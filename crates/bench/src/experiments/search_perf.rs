//! **Search performance smoke** — exercises the compiled-plan cache, the
//! simulator-routing layer, and the batched mask-scoring path end to end,
//! and records throughput numbers for the perf trajectory.
//!
//! Runs the localized ADAPT search on IBMQ-Guadalupe twice on one
//! machine using a fully Clifford decoy, so every scored candidate routes
//! to the CHP stabilizer engine — the configuration that makes
//! double-digit masks/s possible. The second pass must be served from the
//! plan cache (the binary fails loudly when the hit counter stays at
//! zero, so CI catches a regression in the routing-keyed cache), and its
//! batch jobs repeat the first pass's runs, so the machine replays them.
//! The first pass's batch jobs must also fork: resume an earlier job's
//! trajectory after their shared op prefix (`search.forked_ops`).
//! A scoring step then runs one neighborhood's 16 masks serially and as
//! one batch on the CHP path (bit-identity checked, normal-memo hit rate
//! recorded), repeats a batch on its machine to check that it is
//! replayed bit for bit, re-scores the same masks through a seeded decoy
//! on the state-vector engine for the routing split, and writes
//! `results/BENCH_search.json` (schema 2). Each scoring pass runs
//! five times, each time on a fresh machine so that it simulates,
//! and every repeat must agree bit for bit; the report gives the median,
//! min and max time of each pass, and the throughputs follow the median.
//!
//! In full (non-`--quick`) mode the binary asserts the performance
//! contract from the roadmap: batched CHP scoring sustains ≥ 10 masks/s
//! (median) on QFT-10, and at least one decoy execution actually routed
//! to CHP.

use crate::runner::ExperimentCfg;
use crate::scenario::Json;
use adapt::decoy::{make_decoy, DecoyKind};
use adapt::search::{localized_search, MaskScore, SearchContext};
use adapt::{DdConfig, DdMask, DdProtocol};
use device::Device;
use machine::{ExecutionConfig, Machine};
use std::time::Instant;
use transpiler::{transpile, TranspileOptions};

/// Minimum batched CHP throughput (masks/s) asserted in full mode.
const FULL_MODE_MASKS_PER_S_FLOOR: f64 = 10.0;
/// Timed repeats of each scoring pass.
const REPEATS: usize = 5;

/// Median, min and max wall time of a pass's repeats, in ms.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut ms: Vec<f64>) -> Spread {
        ms.sort_by(f64::total_cmp);
        Spread {
            median: ms[ms.len() / 2],
            min: ms[0],
            max: ms[ms.len() - 1],
        }
    }

    /// `<name>: median, <name>_min: min, <name>_max: max`, as report
    /// fields.
    fn fields(&self, name: &str) -> [(String, Json); 3] {
        let ms = |v| Json::Num(v, 1);
        [
            (name.to_string(), ms(self.median)),
            (format!("{name}_min"), ms(self.min)),
            (format!("{name}_max"), ms(self.max)),
        ]
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.0} ms [{:.0}-{:.0}]", self.median, self.min, self.max)
    }
}

/// Runs `pass` once on each of `machines`, timing each run. Returns the
/// outputs in machine order and the spread of their times.
fn timed_on<'m, T>(
    machines: &'m [Machine],
    mut pass: impl FnMut(&'m Machine) -> T,
) -> (Vec<T>, Spread) {
    let mut ms = Vec::with_capacity(machines.len());
    let out = machines
        .iter()
        .map(|machine| {
            let t0 = Instant::now();
            let out = pass(machine);
            ms.push(t0.elapsed().as_secs_f64() * 1000.0);
            out
        })
        .collect();
    (out, Spread::of(ms))
}

/// Panics unless every repeat's scores equal `reference`'s bit for bit,
/// one score per mask.
fn assert_bit_identical(what: &str, reference: &[MaskScore], repeats: &[Vec<MaskScore>]) {
    for scores in repeats {
        assert_eq!(
            scores.len(),
            reference.len(),
            "{what} scored a different mask count"
        );
        for (r, s) in reference.iter().zip(scores) {
            assert_eq!(r.mask, s.mask);
            assert_eq!(
                r.fidelity.to_bits(),
                s.fidelity.to_bits(),
                "{what} diverged on mask {}",
                s.mask
            );
        }
    }
}

/// The process-wide normal-memo `(hits, misses)` counters of the machine
/// crate.
fn normal_memo_counts() -> (u64, u64) {
    let r = adapt_obs::global();
    (
        r.counter("adapt_machine_normal_memo_hits_total").get(),
        r.counter("adapt_machine_normal_memo_misses_total").get(),
    )
}

/// Runs the smoke check and writes `results/BENCH_search.json`.
///
/// # Panics
///
/// Panics (failing the CI job) when the second search records no plan
/// cache hits, when the first search's batches fork no trajectory, when
/// batched scoring diverges from serial scoring, when the
/// batched CHP pass takes no normal from the per-seed memo, when a
/// repeated batch is not replayed in full and bit for bit, when no
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
    let ctx = |machine, decoy, threads: usize| {
        SearchContext::new(
            machine,
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
    let search_ctx = ctx(&machine, &cdc, 1);
    let t0 = Instant::now();
    let first = localized_search(&search_ctx, &order, 4, true).expect("first search");
    let first_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let after_first = machine.plan_cache_stats();
    let first_replays = machine.engine_stats().batch_replays;
    // Ops the first search's batch jobs skipped by resuming an earlier
    // job's trajectory after their shared op prefix.
    let forked_ops = machine.engine_stats().forked_ops;
    let t0 = Instant::now();
    let second = localized_search(&search_ctx, &order, 4, true).expect("second search");
    let second_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let stats = machine.plan_cache_stats();
    let search_replays = machine.engine_stats().batch_replays;
    assert_eq!(first.best, second.best, "repeated search must be stable");
    println!(
        "  search: first {first_ms:.0} ms ({} compilations, {first_replays} of {} runs \
         replayed, {forked_ops} ops forked), second {second_ms:.0} ms ({} replayed), \
         cache {}/{} hits ({:.0}%)",
        after_first.misses,
        first.decoy_runs(),
        search_replays - first_replays,
        stats.hits,
        stats.hits + stats.misses,
        stats.hit_rate() * 100.0
    );
    assert!(
        stats.hits > after_first.hits,
        "second search recorded no plan-cache hits: {stats:?}"
    );
    assert!(
        forked_ops > 0,
        "no batch job of the first search resumed another job's trajectory"
    );

    // The scoring passes below run on fresh machines: on `machine`,
    // every mask of the first neighbourhood would replay the searches'
    // runs, and the throughput would not measure simulation.
    let fresh = || -> Vec<Machine> { (0..REPEATS).map(|_| Machine::new(dev.clone())).collect() };
    let (serial_machines, batched_machines, dense_machines) = (fresh(), fresh(), fresh());

    // Mask-scoring throughput on the CHP path: one neighborhood's 16
    // masks, serial vs batched submission. The results must be
    // bit-identical however the thread budget is split.
    let masks: Vec<DdMask> = (0u64..16).map(|bits| DdMask::from_bits(bits, n)).collect();
    println!("  scoring passes: median [min-max] of {REPEATS} runs, each on a fresh machine");
    let (serial, serial_ms) = timed_on(&serial_machines, |m| {
        let serial_ctx = ctx(m, &cdc, 1);
        let scores = masks.iter().map(|&mask| serial_ctx.score(mask));
        scores.collect::<Result<Vec<_>, _>>().expect("serial score")
    });
    assert_eq!(serial[0].len(), masks.len(), "serial scoring lost a mask");
    assert_bit_identical("repeated serial scoring", &serial[0], &serial);
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    // The thread budget the batches request: at least four workers, so the
    // batched path is exercised (and reported) even on a one-core host.
    let batch_budget = host_threads.max(4);
    let score_batch = |ctx: &SearchContext<'_>| -> Vec<MaskScore> {
        let scores = ctx.score_batch(&masks).into_iter();
        scores.collect::<Result<_, _>>().expect("batched score")
    };
    let memo_before = normal_memo_counts();
    let (batched, batched_ms) = timed_on(&batched_machines, |m| {
        score_batch(&ctx(m, &cdc, batch_budget))
    });
    let memo_after = normal_memo_counts();
    assert_bit_identical("batched scoring", &serial[0], &batched);
    assert!(
        batched_machines
            .iter()
            .all(|m| m.engine_stats().batch_replays == 0),
        "the batched pass on a fresh machine must simulate every mask"
    );
    // The batch's worker count, read back from the engine counters rather
    // than assumed from the host — this is what the report records.
    let batched_machine = &batched_machines[0];
    let batch_workers = batched_machine.engine_stats().last_batch_workers;
    // The 16 masks share trajectory seeds, so the batch serves normals
    // from the per-seed memo; the check below only asks that it does.
    let (hits, misses) = (memo_after.0 - memo_before.0, memo_after.1 - memo_before.1);
    let memo_hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let per_s = |spread: &Spread| masks.len() as f64 / (spread.median / 1000.0).max(1e-9);
    let chp_serial_per_s = per_s(&serial_ms);
    let chp_batched_per_s = per_s(&batched_ms);
    println!(
        "  chp scoring: serial {serial_ms} ({chp_serial_per_s:.1} masks/s), \
         batched {batched_ms} ({chp_batched_per_s:.1} masks/s, \
         {batch_workers} workers), bit-identical; normal memo hit rate {memo_hit_rate:.3} \
         ({hits} hits / {misses} misses)"
    );
    assert!(
        memo_hit_rate > 0.0,
        "the batched CHP pass served no normal from the per-seed memo"
    );

    // The same batch again on a machine that ran it: every job repeats a
    // run the machine has made, so it is replayed, bit for bit.
    let t0 = Instant::now();
    let repeated = score_batch(&ctx(batched_machine, &cdc, batch_budget));
    let repeat_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let repeat_replays = batched_machine.engine_stats().batch_replays;
    assert_bit_identical("replayed scoring", &serial[0], &[repeated]);
    assert_eq!(
        repeat_replays,
        masks.len() as u64,
        "the repeated batch must be replayed in full"
    );
    println!(
        "  repeated batch: {repeat_replays} of {} masks replayed in {repeat_ms:.1} ms, \
         bit-identical",
        masks.len()
    );

    // The same masks through the seeded decoy: non-Clifford phases force
    // the state-vector engine, giving the CHP-vs-dense routing split.
    let (dense, dense_ms) = timed_on(&dense_machines, |m| {
        score_batch(&ctx(m, &sdc, batch_budget))
    });
    assert_eq!(dense[0].len(), masks.len(), "dense scoring lost a mask");
    assert_bit_identical("repeated dense scoring", &dense[0], &dense);
    let dense_per_s = per_s(&dense_ms);
    // The split over the two searches and one dense pass.
    let (searched, densed) = (machine.engine_stats(), dense_machines[0].engine_stats());
    let (chp_executions, statevec_executions) = (
        searched.chp_executions + densed.chp_executions,
        searched.statevec_executions + densed.statevec_executions,
    );
    println!(
        "  statevector scoring: batched {dense_ms} ({dense_per_s:.1} masks/s); \
         engine split: {chp_executions} chp / {statevec_executions} statevector executions"
    );
    assert!(
        chp_executions > 0,
        "no decoy execution routed to CHP: {searched:?} {densed:?}"
    );
    assert!(
        statevec_executions > 0,
        "seeded decoy never reached the state-vector engine: {densed:?}"
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
    let num = Json::Num;
    let chp: Json = serial_ms
        .fields("serial_ms")
        .into_iter()
        .chain(batched_ms.fields("batched_ms"))
        .chain([
            ("serial_masks_per_s".to_string(), num(chp_serial_per_s, 2)),
            ("batched_masks_per_s".to_string(), num(chp_batched_per_s, 2)),
            ("bit_identical".to_string(), true.into()),
            ("normal_memo_hit_rate".to_string(), num(memo_hit_rate, 4)),
            ("repeat_replays".to_string(), repeat_replays.into()),
        ])
        .collect();
    let statevector: Json = dense_ms
        .fields("batched_ms")
        .into_iter()
        .chain([("batched_masks_per_s".to_string(), num(dense_per_s, 2))])
        .collect();
    let report = Json::obj([
        ("schema", 2u32.into()),
        ("device", dev.name().into()),
        ("benchmark", format!("QFT-{n}").into()),
        ("shots", shots.into()),
        ("trajectories", trajectories.into()),
        ("host_threads", host_threads.into()),
        (
            "batch",
            Json::obj([
                ("budget", batch_budget.into()),
                ("workers", batch_workers.into()),
            ]),
        ),
        (
            "engines",
            Json::obj([
                ("chp_executions", chp_executions.into()),
                ("statevec_executions", statevec_executions.into()),
            ]),
        ),
        (
            "search",
            Json::obj([
                ("decoy", "clifford".into()),
                ("engine", "chp".into()),
                ("first_ms", num(first_ms, 1)),
                ("second_ms", num(second_ms, 1)),
                ("decoy_runs", first.decoy_runs().into()),
                ("replays", search_replays.into()),
                ("forked_ops", forked_ops.into()),
                (
                    "cache",
                    Json::obj([
                        ("hits", stats.hits.into()),
                        ("misses", stats.misses.into()),
                        ("evictions", stats.evictions.into()),
                        ("hit_rate", num(stats.hit_rate(), 4)),
                    ]),
                ),
            ]),
        ),
        (
            "mask_scoring",
            Json::obj([
                ("masks", masks.len().into()),
                ("repeats", REPEATS.into()),
                ("chp", chp),
                ("statevector", statevector),
            ]),
        ),
    ]);
    let path = out_dir.join("BENCH_search.json");
    std::fs::write(&path, report.render()).expect("write BENCH_search.json");
    println!("  wrote {}", path.display());
}
