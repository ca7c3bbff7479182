//! `search-cdc` and `search-sdc`: one caller runs cold mask searches
//! back to back, each on a fresh `Machine` as a new program would get.
//!
//! A round is every `(program, device)` pair once, in a seeded order and
//! with the round's own fixed execution seed; rounds repeat until
//! `--seconds` have passed, so every run measures the same program mix.
//! The first [`PREFIX_ROUNDS`] rounds are the reference prefix: their
//! counts and mask quality are the same for every seed, their digest for
//! every run of one seed.

use crate::probe::{self, ProbeInput, PROBE_INPUTS};
use crate::report::{median, pct_ms, peak_rss_mb, trim_heap, Counters, Digest, Outcome};
use crate::schedule::{self, DEVICES};
use crate::trace::{EngineBusy, Span, TracedBackend, Tracer};
use crate::{host, RunOpts, REPLAY_SAMPLE, SETUP_REPEATS, SPEED_SAMPLES};
use adapt::decoy::{make_decoy, to_stabilizer_circuit};
use adapt::search::SearchContext;
use adapt::{Adapt, AdaptConfig, AdaptError, DdConfig, DdMask, DdProtocol, DecoyKind};
use adapt_service::SearchBudget;
use benchmarks::BenchmarkSpec;
use device::Device;
use machine::{Backend, ExecutionConfig, Machine};
use std::sync::Arc;
use std::time::Instant;

/// What one search produced.
struct Searched {
    latency_ns: u64,
    digest: u64,
    decoy_runs: usize,
    /// Chosen-mask and All-DD decoy fidelity, re-scored after timing on a
    /// held-out execution seed, when asked for.
    rescored: Option<(f64, f64)>,
    counters: Counters,
    busy: EngineBusy,
}

fn config(decoy: DecoyKind, exec_seed: u64) -> AdaptConfig {
    let budget = SearchBudget::default();
    AdaptConfig {
        dd: DdConfig::for_protocol(DdProtocol::Xy4),
        decoy_kind: decoy,
        neighborhood: budget.neighborhood,
        top2_merge: true,
        search_exec: ExecutionConfig {
            shots: budget.shots,
            trajectories: budget.trajectories,
            seed: exec_seed,
            // One trajectory thread, as the service runs each search: its
            // workers supply the parallelism.
            threads: 1,
        },
        ..AdaptConfig::default()
    }
}

/// Rounds every run completes; the reference prefix.
const PREFIX_ROUNDS: u64 = 3;

fn device_index(id: adapt_service::DeviceId) -> usize {
    DEVICES
        .iter()
        .position(|&d| d == id)
        .expect("pairs only name DEVICES")
}

/// One timed search: compile, decoy construction, mask choice. Spans go
/// to `tracer` (a no-op when disabled). With `heldout`, the chosen mask
/// and All-DD are re-scored on that budget afterwards, untimed.
fn search(
    program: &BenchmarkSpec,
    device: &Device,
    cfg: &AdaptConfig,
    heldout: Option<ExecutionConfig>,
    tracer: &Arc<Tracer>,
) -> Result<Searched, AdaptError> {
    let n = program.num_qubits;
    let (root, choose) = (tracer.alloc(), tracer.alloc());
    let machine = Machine::new(device.clone());
    let traced = tracer.enabled().then(|| {
        Arc::new(TracedBackend::new(
            machine.clone(),
            tracer.clone(),
            choose,
            root,
        ))
    });
    let backend: Arc<dyn Backend> = match &traced {
        Some(t) => t.clone(),
        None => Arc::new(machine.clone()),
    };
    let adapt = Adapt::with_backend(backend);

    let before = Counters::read();
    let t0 = Instant::now();
    let compiled = adapt.compile(&program.circuit, cfg);
    let t1 = Instant::now();
    let decoy = make_decoy(&compiled.timed, cfg.decoy_kind);
    let t2 = Instant::now();
    let result = match &decoy {
        Ok(d) => adapt.choose_mask_with_decoy(&compiled, d, n, cfg),
        Err(e) => Err(AdaptError::Decoy(e.clone())),
    };
    let t3 = Instant::now();
    let counters = Counters::read().since(before);

    for (id, parent, name, a, b) in [
        (root, 0, "search", t0, t3),
        (tracer.alloc(), root, "transpiler.transpile", t0, t1),
        (tracer.alloc(), root, "decoy.build", t1, t2),
        (choose, root, "search.choose_mask", t2, t3),
    ] {
        tracer.push(Span {
            id,
            parent,
            request: root,
            name,
            start_ns: tracer.at_ns(a),
            end_ns: tracer.at_ns(b),
            synthesized: false,
        });
    }
    let result = result?;
    let decoy = decoy?;

    let mut digest = Digest::default();
    digest.word(n as u64);
    digest.word(result.best.bits());
    for e in &result.evaluations {
        digest.word(e.mask.bits());
        digest.word(e.fidelity.to_bits());
    }
    let rescored = heldout.map(|exec| {
        let ctx = SearchContext::new(
            &machine,
            device.clone(),
            &decoy,
            &compiled.initial_layout,
            cfg.dd,
            exec,
            n,
        );
        let scores = ctx.score_batch(&[result.best, DdMask::all(n)]);
        let fid = |i: usize| scores[i].as_ref().map_or(f64::NAN, |s| s.fidelity);
        (fid(0), fid(1))
    });
    Ok(Searched {
        latency_ns: t3.duration_since(t0).as_nanos() as u64,
        digest: digest.finish(),
        decoy_runs: result.decoy_runs(),
        rescored,
        counters,
        busy: traced.map(|t| t.busy()).unwrap_or_default(),
    })
}

/// Runs one search workload with decoy kind `decoy`.
pub fn run(decoy: DecoyKind, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    // The CDC workload searches the whole Table-4 suite; the SDC one only
    // the programs whose seeded decoy keeps non-Clifford gates, which are
    // the ones that reach the dense engine, up to `SDC_MAX_QUBITS`.
    let programs: Vec<BenchmarkSpec> = benchmarks::suite::paper_suite()
        .into_iter()
        .filter(|b| {
            decoy == DecoyKind::Clifford
                || (to_stabilizer_circuit(&b.circuit).is_none()
                    && b.num_qubits <= schedule::SDC_MAX_QUBITS)
        })
        .collect();
    let inputs = schedule::pairs(&programs);
    let devices = schedule::calibrated_devices();
    let device = |d| &devices[device_index(d)];
    // Round `r` searches with its own execution seed. Prefix rounds
    // re-score on a held-out seed with four times the search's budget,
    // so the quality metric is not dominated by scoring noise.
    let exec_seed = |label: u64| schedule::derive(schedule::EXECUTION_ROOT, label);
    let config_of = |round: u64| config(decoy, exec_seed(round));
    let heldout = |round: u64| ExecutionConfig {
        shots: 4 * SearchBudget::default().shots,
        trajectories: 4 * SearchBudget::default().trajectories,
        seed: exec_seed(round ^ 0x4E1D_0017),
        threads: 1,
    };
    let quiet = Arc::new(Tracer::new(false));

    // Set-up warms every program with one search.
    let set_up = |out: &mut Outcome| {
        let t = Instant::now();
        let cfg = config_of(u64::MAX);
        for (p, program) in programs.iter().enumerate() {
            if let Some(&(_, d)) = inputs.iter().find(|&&(q, _)| q == p) {
                let warm = search(program, device(d), &cfg, None, &quiet);
                out.check("warm-up search succeeds", warm.is_ok());
            }
        }
        t.elapsed().as_secs_f64() * host::speed(SPEED_SAMPLES)
    };
    let mut setup = vec![set_up(&mut out)];

    let tracer = Arc::new(Tracer::new(opts.trace));
    // Every search's input and latency, with the index of the kernel
    // sample taken right after it.
    let mut timed: Vec<(usize, u64, usize)> = Vec::new();
    let mut speeds = Vec::new();
    // Per prefix search: round, input, digest.
    let mut reference: Vec<(u64, usize, u64)> = Vec::new();
    let mut prefix = Counters::default();
    let mut busy = EngineBusy::default();
    let (mut fid_best, mut fid_gain) = (Vec::new(), Vec::new());
    let mut decoy_runs = 0usize;
    let start = Instant::now();
    let mut round = 0u64;
    while round < PREFIX_ROUNDS || start.elapsed().as_secs_f64() < opts.seconds as f64 {
        let cfg = config_of(round);
        let rescore = (round < PREFIX_ROUNDS).then(|| heldout(round));
        for i in schedule::shuffled(opts.seed, round, inputs.len()) {
            let (p, d) = inputs[i];
            out.attempted += 1;
            let searched = search(&programs[p], device(d), &cfg, rescore, &tracer);
            trim_heap();
            speeds.push(host::sample());
            match searched {
                Ok(s) => {
                    timed.push((i, s.latency_ns, speeds.len() - 1));
                    decoy_runs += s.decoy_runs;
                    busy.add(&s.busy);
                    if let Some((best, all)) = s.rescored {
                        reference.push((round, i, s.digest));
                        prefix.add(s.counters);
                        fid_best.push(best);
                        fid_gain.push(best - all);
                    }
                }
                Err(e) => {
                    eprintln!("search of {} on {d} failed: {e}", programs[p].name);
                    out.failed += 1;
                }
            }
        }
        round += 1;
    }
    out.set("peak_rss_mb", peak_rss_mb(), "MB");

    // Replay a sample of the prefix untraced on fresh machines: the
    // digests must match, so tracing changed nothing and searches are
    // deterministic.
    let complete = reference.len() as u64 == PREFIX_ROUNDS * inputs.len() as u64;
    let same = complete
        && schedule::sample(opts.seed, reference.len(), REPLAY_SAMPLE)
            .into_iter()
            .all(|j| {
                let (round, i, digest) = reference[j];
                let (p, d) = inputs[i];
                search(&programs[p], device(d), &config_of(round), None, &quiet)
                    .is_ok_and(|s| s.digest == digest)
            });
    out.check("replayed searches are bit-identical", same);
    let mut digest = Digest::default();
    reference.iter().for_each(|&(_, _, w)| digest.word(w));
    out.digest = digest.finish();
    while setup.len() < SETUP_REPEATS {
        setup.push(set_up(&mut out));
    }

    // Each search is scaled by the median of three kernel samples: the
    // ones right before and right after it, and the next. One sample
    // alone followed the searches' slowdowns less closely.
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); inputs.len()];
    let mut search_ns = 0u64;
    for &(i, ns, k) in &timed {
        let mut near = speeds[k.saturating_sub(1)..(k + 2).min(speeds.len())].to_vec();
        let scaled = (ns as f64 * median(&mut near)) as u64;
        latencies[i].push(scaled);
        search_ns += scaled;
    }
    // The host's speed drifts by tens of percent over seconds, so the
    // timing metrics start from each input's median latency over the
    // rounds: throughput is a round of inputs at those medians.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.check(
        "re-scored fidelities are finite",
        fid_best.iter().chain(&fid_gain).all(|f| f.is_finite()),
    );
    let mut typical: Vec<u64> = latencies
        .iter_mut()
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.sort_unstable();
            l[adapt_obs::nearest_rank(0.5, l.len() as u64) as usize - 1]
        })
        .collect();
    typical.sort_unstable();
    let mut all: Vec<u64> = latencies.concat();
    all.sort_unstable();
    out.set("setup_s", median(&mut setup), "s");
    let typical_s: f64 = typical.iter().map(|&ns| ns as f64 / 1e9).sum();
    out.set(
        "throughput_per_s",
        typical.len() as f64 / typical_s.max(1e-9),
        "1/s",
    );
    out.set("latency_ms_p50", pct_ms(&typical, 0.50), "ms");
    out.set("latency_ms_p90", pct_ms(&typical, 0.90), "ms");
    out.set("latency_ms_p99", pct_ms(&all, 0.99), "ms");
    out.set("mask_fidelity", mean(&fid_best), "frac");
    out.set("mask_gain", mean(&fid_gain), "frac");
    out.set("rounds", round as f64, "count");
    out.set("host.speed", median(&mut speeds), "x");
    let search_s = search_ns as f64 / 1e9;

    prefix.report(&mut out);
    out.set(
        "search.masks_per_s",
        decoy_runs as f64 / search_s.max(1e-9),
        "1/s",
    );
    if opts.trace {
        // Batch wall time per job, so parallel jobs share it.
        for (name, ns, jobs) in [
            ("machine.chp_job_ms", busy.chp_ns, busy.chp_jobs),
            (
                "machine.statevec_job_ms",
                busy.statevec_ns,
                busy.statevec_jobs,
            ),
        ] {
            if jobs > 0 {
                out.set(name, ns as f64 / 1e6 / jobs as f64, "ms");
            }
        }
        out.set(
            "statevec.computed_gb_per_s",
            busy.statevec_bytes / 1e9 / (busy.statevec_ns as f64 / 1e9).max(1e-9),
            "GB/s",
        );
        out.set(
            "statevec.active_qubits_mean",
            busy.statevec_active_qubits as f64 / busy.statevec_jobs.max(1) as f64,
            "qubits",
        );
        let probes: Vec<ProbeInput> = schedule::sample(opts.seed ^ 1, inputs.len(), PROBE_INPUTS)
            .into_iter()
            .map(|i| {
                let (p, d) = inputs[i];
                ProbeInput {
                    circuit: programs[p].circuit.clone(),
                    device: device(d).clone(),
                    device_id: d,
                    decoy,
                }
            })
            .collect();
        probe::run(&probes, SearchBudget::default(), &mut out);
        out.spans = tracer.take_spans();
        out.trace_overhead_ns = tracer.overhead_ns();
    }
    out
}
