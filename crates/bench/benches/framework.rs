//! Criterion benchmarks of the ADAPT framework itself: decoy
//! construction, DD insertion, one noisy trajectory execution, the
//! full localized mask search serial vs batched (worker threads score a
//! neighborhood's masks in parallel), and the fleet wire's request codec
//! and frame round trip.

use adapt::dd::{insert_dd, DdConfig, DdMask, DdProtocol};
use adapt::decoy::{make_decoy, DecoyKind};
use adapt::search::{localized_search, SearchContext};
use adapt_fleet::wire::{self, FrameKind};
use adapt_service::{DeviceId, Request, SearchBudget};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use device::Device;
use machine::{ExecutionConfig, Machine, WireDeadline};
use std::hint::black_box;
use transpiler::{transpile, TranspileOptions};

fn bench_decoy(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoy");
    let dev = Device::ibmq_toronto(5);
    let t = transpile(
        &benchmarks::qft_bench(6, 42),
        &dev,
        &TranspileOptions::default(),
    );
    for (name, kind) in [
        ("cdc", DecoyKind::Clifford),
        ("cnot_only", DecoyKind::CnotOnly),
        ("sdc4", DecoyKind::Seeded { max_seed_qubits: 4 }),
    ] {
        group.bench_function(BenchmarkId::new("make_qft6", name), |b| {
            b.iter(|| black_box(make_decoy(black_box(&t.timed), kind).expect("decoy")));
        });
    }
    group.finish();
}

fn bench_dd_insertion(c: &mut Criterion) {
    let mut group = c.benchmark_group("dd_insert");
    let dev = Device::ibmq_toronto(5);
    let t = transpile(
        &benchmarks::qft_bench(6, 42),
        &dev,
        &TranspileOptions::default(),
    );
    let wires = adapt::dd::mask_to_wires(DdMask::all(6), &t.initial_layout);
    for protocol in [DdProtocol::Xy4, DdProtocol::IbmqDd, DdProtocol::Cpmg] {
        group.bench_function(BenchmarkId::new("qft6_all", protocol.to_string()), |b| {
            b.iter(|| {
                black_box(insert_dd(
                    black_box(&t.timed),
                    &dev,
                    &wires,
                    &DdConfig::for_protocol(protocol),
                ))
            });
        });
    }
    group.finish();
}

fn bench_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("machine");
    group.sample_size(10);
    let dev = Device::ibmq_toronto(5);
    let machine = Machine::new(dev.clone());
    for name in ["BV-7", "QFT-6A"] {
        let bench = benchmarks::suite::by_name(name).expect("known");
        let t = transpile(&bench.circuit, &dev, &TranspileOptions::default());
        group.bench_function(BenchmarkId::new("8_trajectories", name), |b| {
            b.iter(|| {
                black_box(
                    machine
                        .execute_timed(
                            &t.timed,
                            &ExecutionConfig {
                                shots: 256,
                                trajectories: 8,
                                seed: 1,
                                threads: 1,
                            },
                        )
                        .expect("execution"),
                )
            });
        });
    }
    group.finish();
}

/// Localized mask search on the 16-wire IBMQ-Guadalupe (QFT-8 program,
/// 2 neighborhoods of 4 → 32 decoy executions per search), serial vs
/// batched. With the batch path each neighborhood's 16 masks go down as
/// one submission and the machine scores them on worker threads; on a
/// multi-core host the `threads/4` line is expected to run ≥2× faster
/// than `threads/1` while returning bit-identical results (see the
/// determinism property test). The program is QFT-8 rather than QFT-16
/// because XY4 pads the 16-qubit schedule with ~52k pulses, pushing one
/// decoy execution to ~a minute — unusable as a benchmark iteration.
/// Each iteration searches on a fresh machine, as a new program would:
/// on one machine, every iteration after the first would replay the
/// first one's batch runs instead of simulating them.
fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("search");
    group.sample_size(10);
    let n = 8usize;
    let dev = Device::ibmq_guadalupe(7);
    let t = transpile(
        &benchmarks::qft_bench(n, 42),
        &dev,
        &TranspileOptions::default(),
    );
    let decoy = make_decoy(&t.timed, DecoyKind::Seeded { max_seed_qubits: 4 }).expect("decoy");
    let order: Vec<u32> = (0..n as u32).collect();
    for threads in [1usize, 4] {
        group.bench_function(BenchmarkId::new("localized_qft8_guadalupe", threads), |b| {
            b.iter(|| {
                let machine = Machine::new(dev.clone());
                let ctx = SearchContext::new(
                    &machine,
                    dev.clone(),
                    &decoy,
                    &t.initial_layout,
                    DdConfig::for_protocol(DdProtocol::Xy4),
                    ExecutionConfig {
                        shots: 128,
                        trajectories: 4,
                        seed: 11,
                        threads,
                    },
                    n,
                );
                black_box(localized_search(&ctx, &order, 4, true).expect("search"))
            });
        });
    }
    group.finish();
}

/// The fleet wire's per-request CPU work: `encode_request` and
/// `decode_request` of a mask request for each `paper_suite()` program
/// of at most 8 qubits (the programs `adapt_bench`'s serving workloads
/// send), and a `write_frame` → `read_frame` round trip (CRC included) of
/// that payload through a `Vec` buffer (no socket).
fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    let deadline = WireDeadline::fresh(Some(250));
    for bench in benchmarks::suite::paper_suite()
        .into_iter()
        .filter(|b| b.num_qubits <= 8)
    {
        let request = Request::RecommendMask {
            circuit: bench.circuit,
            device: DeviceId::Guadalupe,
            protocol: DdProtocol::Xy4,
            budget: SearchBudget::default(),
            deadline_ms: None,
            tenancy: Default::default(),
        };
        let payload = wire::encode_request(&request, deadline);
        group.bench_function(BenchmarkId::new("encode_request", bench.name), |b| {
            b.iter(|| black_box(wire::encode_request(black_box(&request), deadline)));
        });
        group.bench_function(BenchmarkId::new("decode_request", bench.name), |b| {
            b.iter(|| black_box(wire::decode_request(black_box(&payload)).expect("decodes")));
        });
        group.bench_function(BenchmarkId::new("frame_round_trip", bench.name), |b| {
            let mut buf = Vec::with_capacity(payload.len() + 2 * wire::HEADER_BYTES);
            b.iter(|| {
                buf.clear();
                wire::write_frame(&mut buf, FrameKind::Request, 0, &payload)
                    .expect("a Vec takes every write");
                black_box(
                    wire::read_frame(&mut buf.as_slice(), wire::DEFAULT_MAX_FRAME_BYTES)
                        .expect("reads back"),
                )
            });
        });
    }
    group.finish();
}

/// Recording cost of the observability facade, enabled vs noop. The
/// `search` group above runs with instrumentation live (its inner loops
/// increment `adapt_search_*`/`adapt_machine_*` metrics), so these
/// numbers document what that instrumentation adds per operation: a
/// handful of relaxed atomic ops, nanoseconds against search iterations
/// measured in milliseconds.
fn bench_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    for (name, registry) in [
        ("enabled", adapt_obs::Registry::new()),
        ("noop", adapt_obs::Registry::noop()),
    ] {
        let counter = registry.counter("bench_ops_total");
        let hist = registry.histogram("bench_us");
        group.bench_function(BenchmarkId::new("counter_inc", name), |b| {
            b.iter(|| counter.inc());
        });
        group.bench_function(BenchmarkId::new("histogram_record", name), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(997);
                hist.record(black_box(i % 4096));
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decoy,
    bench_dd_insertion,
    bench_execution,
    bench_search,
    bench_wire,
    bench_obs
);
criterion_main!(benches);
