//! Criterion benchmarks of the simulation substrates: the dense
//! state-vector kernels the engine calls, the per-channel noise draws
//! both engines make, CHP tableau sampling at application and scalability
//! sizes (the Table 2 "SimTime" axis), per-gate and terminal-sampling
//! costs of the CHP tableau, Heisenberg-propagation expectations as the
//! seed count grows, and plan compilation of the search's decoy inputs.

use adapt::dd::{insert_dd, mask_to_wires, DdConfig, DdMask};
use adapt::decoy::{make_decoy, DecoyKind};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use device::Device;
use machine::noise::{standard_normal, MemoCursor, NormalSource, PauliFloor, QubitDetuning};
use machine::{routing_key, CompiledPlan, EnginePolicy, NoiseToggles};
use qcirc::math::C64;
use qcirc::{Circuit, Gate};
use rand::rngs::StdRng;
use rand::SeedableRng;
use statevec::{SimError, SoaStateVector};
use std::hint::black_box;
use transpiler::{transpile, TranspileOptions};

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

/// The noise channels' draws, 1024 per iteration where a single draw is
/// too short to time: a Box–Muller normal, the same normal served from a
/// filled per-seed memo, a Pauli-floor sample, and the OU detuning
/// integrated over a 1 µs idle window (25 sub-steps of 40 ns).
fn bench_noise(c: &mut Criterion) {
    const DRAWS: usize = 1024;
    let dev = Device::ibmq_toronto(3);
    let mut group = c.benchmark_group("noise");
    group.bench_function("standard_normal_x1024", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| (0..DRAWS).map(|_| standard_normal(&mut rng)).sum::<f64>());
    });
    group.bench_function("memo_hit_normal_x1024", |b| {
        let mut memo = Vec::new();
        let mut fill = MemoCursor::new(StdRng::seed_from_u64(7), &mut memo);
        (0..DRAWS).for_each(|_| {
            fill.normal();
        });
        b.iter(|| {
            let mut rng = MemoCursor::new(StdRng::seed_from_u64(7), &mut memo);
            let sum = (0..DRAWS).map(|_| rng.normal()).sum::<f64>();
            assert_eq!(rng.misses(), 0, "every draw is a memo hit");
            sum
        });
    });
    group.bench_function("pauli_floor_sample_x1024", |b| {
        let floor = PauliFloor::for_idle(dev.qubit(0), 1000.0);
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            (0..DRAWS)
                .map(|_| u64::from(floor.sample(&mut rng)))
                .sum::<u64>()
        });
    });
    group.bench_function("detuning_advance_1us", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut detuning = QubitDetuning::sample(dev.qubit(0), &mut rng);
        b.iter(|| detuning.advance(black_box(1000.0), &mut rng));
    });
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

/// Plan compilation of what a search scores: the All-DD (XY4) decoy of a
/// suite program on Guadalupe, for a Clifford decoy (lowered to the CHP
/// stream) and a seeded one (lowered to the dense stream). `build` is one
/// `CompiledPlan::build`, `routing_key` the plan-cache key every lookup
/// computes; each iteration does 100 of them.
fn bench_plan(c: &mut Criterion) {
    const REPS: usize = 100;
    let device = Device::ibmq_guadalupe(4);
    let toggles = NoiseToggles::default();
    let mut group = c.benchmark_group("plan");
    let inputs = [
        ("cdc_qaoa8a", "QAOA-8A", DecoyKind::Clifford),
        (
            "sdc_qft7a",
            "QFT-7A",
            DecoyKind::Seeded { max_seed_qubits: 4 },
        ),
    ];
    for (name, program, kind) in inputs {
        let spec = benchmarks::suite::by_name(program).expect("suite program");
        let compiled = transpile(&spec.circuit, &device, &TranspileOptions::default());
        let decoy = make_decoy(&compiled.timed, kind).expect("decoy builds");
        let wires = mask_to_wires(DdMask::all(spec.num_qubits), &compiled.initial_layout);
        let timed = insert_dd(&decoy.timed, &device, &wires, &DdConfig::default()).timed;
        group.bench_function(format!("build_x100/{name}"), |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    black_box(CompiledPlan::build(
                        black_box(&timed),
                        &device,
                        &toggles,
                        EnginePolicy::Auto,
                    ))
                    .expect("plan builds");
                }
            });
        });
        group.bench_function(format!("routing_key_x100/{name}"), |b| {
            b.iter(|| {
                (0..REPS)
                    .map(|_| routing_key(black_box(&timed), &toggles, EnginePolicy::Auto))
                    .fold(0, u64::wrapping_add)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_statevec,
    bench_noise,
    bench_chp,
    bench_heisenberg,
    bench_plan
);
criterion_main!(benches);
