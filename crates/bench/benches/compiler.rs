//! Criterion benchmarks of the transpiler pipeline: decomposition,
//! routing/layout, peephole optimization and scheduling on the paper's
//! workloads and machines, and of the two program identities the
//! service computes before it can look a compiled program up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use device::Device;
use std::hint::black_box;
use transpiler::{transpile, TranspileOptions};

fn bench_transpile(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpile");
    group.sample_size(30);
    let toronto = Device::ibmq_toronto(3);
    for bench in benchmarks::paper_suite() {
        if !matches!(bench.name, "BV-8" | "QFT-7A" | "QAOA-10B") {
            continue;
        }
        group.bench_with_input(
            BenchmarkId::new("toronto", bench.name),
            &bench,
            |b, bench| {
                b.iter(|| {
                    black_box(transpile(
                        black_box(&bench.circuit),
                        &toronto,
                        &TranspileOptions::default(),
                    ))
                });
            },
        );
    }
    group.finish();
}

fn bench_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("passes");
    let qft = benchmarks::qft_bench(7, 19);
    group.bench_function("decompose_qft7", |b| {
        b.iter(|| black_box(transpiler::decompose_circuit(black_box(&qft))));
    });
    let decomposed = transpiler::decompose_circuit(&qft);
    group.bench_function("optimize_qft7", |b| {
        b.iter(|| black_box(transpiler::optimize_circuit(black_box(&decomposed))));
    });
    let dev = Device::ibmq_toronto(3);
    group.bench_function("noise_adaptive_layout_qft7", |b| {
        b.iter(|| black_box(transpiler::noise_adaptive_layout(&decomposed, &dev)));
    });
    let t = transpile(&qft, &dev, &TranspileOptions::default());
    group.bench_function("gst_build_qft7", |b| {
        b.iter(|| black_box(adapt::GateSequenceTable::build(&t.timed)));
    });
    group.finish();
}

/// The service's program identities on every paper program: the
/// persisted `logical_hash` (paid once per program, and by the fleet
/// router per request) and the in-memory `program_fingerprint` (paid by
/// every request the program book answers).
fn bench_program_identity(c: &mut Criterion) {
    let suite = benchmarks::paper_suite();
    let mut group = c.benchmark_group("logical_hash");
    for bench in &suite {
        group.bench_with_input(
            BenchmarkId::from_parameter(bench.name),
            &bench.circuit,
            |b, circuit| b.iter(|| black_box(adapt_service::logical_hash(black_box(circuit)))),
        );
    }
    group.finish();
    let mut group = c.benchmark_group("program_fingerprint");
    for bench in &suite {
        group.bench_with_input(
            BenchmarkId::from_parameter(bench.name),
            &bench.circuit,
            |b, circuit| {
                b.iter(|| black_box(adapt_service::program_fingerprint(black_box(circuit))))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_transpile,
    bench_passes,
    bench_program_identity
);
criterion_main!(benches);
