//! Criterion benchmarks of the simulation substrates: the dense
//! state-vector kernels the engine calls, CHP tableau sampling at application and scalability
//! sizes (the Table 2 "SimTime" axis), per-gate and terminal-sampling
//! costs of the CHP tableau, and Heisenberg-propagation expectations as
//! the seed count grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcirc::math::C64;
use qcirc::{Circuit, Gate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use statevec::{SimError, SoaStateVector};
use std::hint::black_box;

fn ghz_clifford(n: usize) -> Circuit {
    // `Counts` holds at most 64 classical bits.
    let mut c = Circuit::with_clbits(n, n.min(64));
    c.h(0);
    for q in 0..(n - 1) as u32 {
        c.cx(q, q + 1);
    }
    for q in 0..n.min(64) as u32 {
        c.measure(q, q);
    }
    c
}

/// Each kernel the dense engine calls, one layer per iteration: a gate on
/// every qubit (1q) or on every neighbour pair (2q).
fn bench_statevec(c: &mut Criterion) {
    type Kernel<'a> = &'a dyn Fn(&mut SoaStateVector, usize) -> Result<(), SimError>;
    let h = Gate::H.unitary1().expect("1q");
    let cx = Gate::CX.unitary2().expect("2q");
    let (d0, d1) = (C64::cis(-0.3), C64::cis(0.3));
    // (kernel, qubits per gate, the gate on qubit q and up)
    let kernels: [(&str, usize, Kernel); 5] = [
        ("apply1", 1, &|sv, q| sv.apply1(&h, q)),
        ("apply_diag1", 1, &|sv, q| sv.apply_diag1(d0, d1, q)),
        ("apply_antidiag1", 1, &|sv, q| {
            sv.apply_antidiag1(C64::ONE, C64::ONE, q)
        }),
        ("apply_cx", 2, &|sv, q| sv.apply_cx(q, q + 1)),
        ("apply2", 2, &|sv, q| sv.apply2(&cx, q, q + 1)),
    ];
    let mut group = c.benchmark_group("statevec");
    for (name, arity, gate) in kernels {
        for &n in &[10usize, 14, 18] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                let mut sv = SoaStateVector::try_new(n).expect("small");
                b.iter(|| {
                    for q in 0..=n - arity {
                        gate(black_box(&mut sv), q).expect("in range");
                    }
                });
            });
        }
    }
    group.finish();
}

fn bench_chp(c: &mut Criterion) {
    let mut group = c.benchmark_group("chp");
    group.sample_size(20);
    for &n in &[27usize, 64, 100] {
        let circuit = ghz_clifford(n);
        group.bench_with_input(BenchmarkId::new("sample_100_shots", n), &n, |b, _| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| black_box(stab::sample_counts(&circuit, 100, &mut rng).expect("Clifford")));
        });
        group.bench_with_input(BenchmarkId::new("exact_distribution", n), &n, |b, _| {
            b.iter(|| black_box(stab::exact_distribution(&circuit).expect("Clifford")));
        });
    }
    // Gate cost on the packed columns, one layer of n (or n − 1) gates per
    // iteration: one word per column up to 32 qubits (n = 16), two at
    // n = 40.
    for &n in &[16usize, 40] {
        let mut t = scrambled(n);
        group.bench_with_input(BenchmarkId::new("h", n), &n, |b, &n| {
            b.iter(|| (0..n).for_each(|q| t.h(black_box(q))));
        });
        group.bench_with_input(BenchmarkId::new("s", n), &n, |b, &n| {
            b.iter(|| (0..n).for_each(|q| t.s(black_box(q))));
        });
        group.bench_with_input(BenchmarkId::new("cx", n), &n, |b, &n| {
            b.iter(|| (0..n - 1).for_each(|q| t.cx(black_box(q), q + 1)));
        });
        // Terminal sampling as the CHP engine does it: one symbolic pass
        // over every qubit, then 32 shots of draws and parities.
        group.bench_with_input(BenchmarkId::new("terminal_32_shots", n), &n, |b, &n| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                let outcomes = t.clone().measure_symbolic(0..n);
                let mut acc = 0u64;
                for _ in 0..32 {
                    let mut drawn = 0u64;
                    for (i, o) in outcomes.iter().enumerate() {
                        acc ^= (o.sample(&mut drawn, &mut rng) as u64) << (i % 64);
                    }
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// A stabilizer state with entangled, signed rows: H on every qubit, a
/// CX ladder, S on every other qubit.
fn scrambled(n: usize) -> stab::Tableau {
    let mut t = stab::Tableau::new(n);
    for q in 0..n {
        t.h(q);
    }
    for q in 0..n - 1 {
        t.cx(q, q + 1);
    }
    for q in (0..n).step_by(2) {
        t.s(q);
    }
    t
}

fn bench_heisenberg(c: &mut Criterion) {
    let mut group = c.benchmark_group("heisenberg");
    group.sample_size(20);
    for &seeds in &[0usize, 2, 4, 6] {
        // 40-qubit circuit, beyond dense reach, with `seeds` branch points.
        let n = 40usize;
        let mut circuit = Circuit::new(n);
        circuit.h(0);
        for q in 0..(n - 1) as u32 {
            circuit.cx(q, q + 1);
        }
        for s in 0..seeds {
            circuit.rz(0.3 + s as f64 * 0.2, (s * 5) as u32);
        }
        for q in 0..8u32 {
            circuit.measure(q, q);
        }
        group.bench_with_input(
            BenchmarkId::new("distribution_8_measured", seeds),
            &seeds,
            |b, _| {
                b.iter(|| {
                    black_box(stab::heisenberg::output_distribution(&circuit).expect("supported"))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_statevec, bench_chp, bench_heisenberg);
criterion_main!(benches);
