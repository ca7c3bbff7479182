//! `serve-hot` and `serve-drift`: the mask service answering the same 36
//! keys, once as a pure cache-hit path under open-loop load, once through
//! the fleet with calibration drift forcing fresh searches.

use crate::awake::KeepAwake;
use crate::probe::{self, ProbeInput, PROBE_INPUTS};
use crate::report::{median, pct_ms, peak_rss_mb, Counters, Digest, Outcome};
use crate::schedule::{self, DEVICES};
use crate::trace::{Span, Tracer};
use crate::{host, RunOpts, REPLAY_SAMPLE, SETUP_REPEATS, SPEED_SAMPLES};
use adapt::{DdProtocol, DecoyKind};
use adapt_fleet::{FleetRouter, RouterConfig, ShardConfig, ShardId, ShardServer};
use adapt_service::{
    DeviceId, DeviceRegistry, MaskKey, MaskService, PersistConfig, Provenance, Recommendation,
    Request, Response, SearchBudget, ServiceConfig, ServiceError, Timing,
};
use benchmarks::BenchmarkSpec;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Offered load of `serve-hot`.
const HOT_RATE_PER_S: f64 = 1000.0;
/// Requests between calibration ticks in `serve-drift`.
const DRIFT_WINDOW: usize = 150;
/// Windows every `serve-drift` run completes: its reference prefix, two
/// cycles of ticks over the three devices.
const DRIFT_PREFIX_WINDOWS: u64 = 6;
/// Seconds one cycle of three windows takes on an unloaded host.
/// A run is `--seconds / DRIFT_CYCLE_S` cycles, never fewer than the
/// prefix, rather than as many as fit in `--seconds`: each epoch brings a
/// new calibration and so a different amount of search work (one cycle
/// takes 2.2 s, the next 4 s), and a run that stopped one cycle earlier
/// would measure a different mix.
const DRIFT_CYCLE_S: u64 = 3;
/// Closed-loop callers of `serve-drift`.
const DRIFT_CALLERS: usize = 2;

/// The 36 `(program, device)` keys both serving workloads draw from.
struct Keys {
    programs: Vec<BenchmarkSpec>,
    pairs: Vec<(usize, DeviceId)>,
}

impl Keys {
    fn new() -> Self {
        let programs = schedule::hot_programs();
        let pairs = schedule::pairs(&programs);
        Keys { programs, pairs }
    }

    fn request(&self, k: usize) -> Request {
        let (p, device) = self.pairs[k];
        Request::RecommendMask {
            circuit: self.programs[p].circuit.clone(),
            device,
            protocol: DdProtocol::Xy4,
            budget: SearchBudget::default(),
            deadline_ms: None,
            tenancy: Default::default(),
        }
    }

    /// Probe inputs: a seeded sample of the keys on the service's own
    /// epoch-0 devices.
    fn probes(&self, seed: u64, decoy: DecoyKind) -> Vec<ProbeInput> {
        let registry = DeviceRegistry::new(&DEVICES, schedule::SERVICE_SEED);
        schedule::sample(seed ^ 1, self.pairs.len(), PROBE_INPUTS)
            .into_iter()
            .map(|k| {
                let (p, device_id) = self.pairs[k];
                let (_, machine) = registry
                    .snapshot(device_id)
                    .expect("every key's device is registered");
                ProbeInput {
                    circuit: self.programs[p].circuit.clone(),
                    device: machine.device().clone(),
                    device_id,
                    decoy,
                }
            })
            .collect()
    }
}

fn service_config(workers: usize, queue_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        devices: DEVICES.to_vec(),
        workers,
        queue_capacity,
        seed: schedule::SERVICE_SEED,
        ..ServiceConfig::default()
    }
}

/// `cfg` with a metrics registry of its own: clones of one config share
/// its registry, and with it every counter `MaskService::stats` reads.
fn own_registry(cfg: &ServiceConfig) -> ServiceConfig {
    ServiceConfig {
        registry: Arc::new(adapt_obs::Registry::new()),
        ..cfg.clone()
    }
}

/// Every answer seen, per cache key (which carries the epoch).
#[derive(Default)]
struct Answers {
    by_key: HashMap<MaskKey, (usize, u64, u64)>,
    conflicts: u64,
}

impl Answers {
    fn record(&mut self, k: usize, rec: &Recommendation) {
        let answer = (k, rec.mask.bits(), rec.decoy_fidelity.to_bits());
        if *self.by_key.entry(rec.key).or_insert(answer) != answer {
            self.conflicts += 1;
        }
    }

    fn digest(&self) -> u64 {
        let mut entries: Vec<(u64, u64, u64)> = self
            .by_key
            .iter()
            .map(|(key, &(_, mask, fid))| (key.fingerprint(), mask, fid))
            .collect();
        entries.sort_unstable();
        let mut d = Digest::default();
        for (fp, mask, fid) in entries {
            d.word(fp);
            d.word(mask);
            d.word(fid);
        }
        d.finish()
    }

    /// Mean fidelity over the observed keys, summed in a fixed order so
    /// the value repeats to the last bit.
    fn mean_fidelity(&self) -> f64 {
        let mut fids: Vec<f64> = self
            .by_key
            .values()
            .map(|&(_, _, fid)| f64::from_bits(fid))
            .collect();
        fids.sort_by(f64::total_cmp);
        fids.iter().sum::<f64>() / fids.len().max(1) as f64
    }
}

/// Asks a fresh service built from `cfg` for a seeded sample of the
/// observed keys, ticking its devices to each key's epoch, and compares
/// the answers bit for bit.
fn replay(cfg: ServiceConfig, keys: &Keys, answers: &Answers, seed: u64) -> bool {
    let mut observed: Vec<(&MaskKey, &(usize, u64, u64))> = answers.by_key.iter().collect();
    observed.sort_by_key(|(key, _)| (key.epoch, key.fingerprint()));
    let mut picks: Vec<(&MaskKey, &(usize, u64, u64))> =
        schedule::sample(seed, observed.len(), REPLAY_SAMPLE)
            .into_iter()
            .map(|i| observed[i])
            .collect();
    picks.sort_by_key(|(key, _)| (key.epoch, key.fingerprint()));
    let fresh = MaskService::start(cfg);
    let mut same = !picks.is_empty();
    for (key, &(k, mask, fid)) in picks {
        while fresh.epoch(key.device).is_some_and(|e| e < key.epoch) {
            same &= fresh.advance_epoch(key.device).is_ok();
        }
        same &= matches!(
            fresh.call(keys.request(k)),
            Ok(Response::Mask(rec)) if rec.key == *key
                && rec.mask.bits() == mask
                && rec.decoy_fidelity.to_bits() == fid
        );
    }
    fresh.shutdown();
    same
}

fn push_synthesized(tracer: &Tracer, root: u64, from_ns: u64, timing: Timing) {
    let queued_end = from_ns + timing.queued_us * 1000;
    for (name, a, b) in [
        ("queue.wait", from_ns, queued_end),
        (
            "service.work",
            queued_end,
            queued_end + timing.service_us * 1000,
        ),
    ] {
        tracer.push(Span {
            id: tracer.alloc(),
            parent: root,
            request: root,
            name,
            start_ns: a,
            end_ns: b,
            synthesized: true,
        });
    }
}

/// One closed-loop call.
struct Call<R> {
    key: usize,
    start: Instant,
    end: Instant,
    result: R,
}

/// Sends `picks` from `callers` closed-loop callers, each waiting for its
/// answer before taking the next pick; returns the calls in pick order.
fn closed_loop<R: Send>(
    callers: usize,
    picks: &[usize],
    call: impl Fn(usize) -> R + Sync,
) -> Vec<Call<R>> {
    let next = AtomicUsize::new(0);
    let mut calls: Vec<(usize, Call<R>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = picks.get(i) else {
                            return mine;
                        };
                        let start = Instant::now();
                        let result = call(key);
                        let end = Instant::now();
                        mine.push((
                            i,
                            Call {
                                key,
                                start,
                                end,
                                result,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop caller panicked"))
            .collect()
    });
    calls.sort_by_key(|(i, _)| *i);
    calls.into_iter().map(|(_, c)| c).collect()
}

/// Asks for every key once from two closed-loop callers, so the cache is
/// warm before timing starts. Returns the answers and how many of them
/// were fresh searches.
fn warm<E: Send>(
    keys: &Keys,
    call: impl Fn(usize) -> Result<Response, E> + Sync,
) -> (Answers, usize) {
    let all: Vec<usize> = (0..keys.pairs.len()).collect();
    let mut answers = Answers::default();
    let mut fresh = 0;
    for c in closed_loop(2, &all, call) {
        if let Ok(Response::Mask(rec)) = c.result {
            fresh += usize::from(rec.provenance == Provenance::FreshSearch);
            answers.record(c.key, &rec);
        }
    }
    (answers, fresh)
}

/// Records the latency percentiles and the service-side timing extras.
/// `blocks` splits the timed phase into stretches; p50 and p90 are
/// medians over the blocks' own percentiles, because the host's speed
/// drifts over seconds and a block sees one stretch of it. p99 pools
/// every sample.
fn report_latency(out: &mut Outcome, blocks: &mut [Vec<u64>], timings: &[Timing]) {
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    for b in blocks.iter_mut().filter(|b| !b.is_empty()) {
        b.sort_unstable();
        p50.push(pct_ms(b, 0.50));
        p90.push(pct_ms(b, 0.90));
    }
    let mut all = blocks.concat();
    all.sort_unstable();
    out.set("latency_ms_p50", median(&mut p50), "ms");
    out.set("latency_ms_p90", median(&mut p90), "ms");
    out.set("latency_ms_p99", pct_ms(&all, 0.99), "ms");
    let mut queued: Vec<u64> = timings.iter().map(|t| t.queued_us * 1000).collect();
    let mut service: Vec<u64> = timings.iter().map(|t| t.service_us * 1000).collect();
    queued.sort_unstable();
    service.sort_unstable();
    for (name, v) in [("queued", &queued), ("service", &service)] {
        out.set(
            &format!("service.{name}_us_p50"),
            pct_ms(v, 0.5) * 1e3,
            "us",
        );
        out.set(
            &format!("service.{name}_us_p90"),
            pct_ms(v, 0.9) * 1e3,
            "us",
        );
    }
}

/// `serve-hot`: open-loop Poisson arrivals on warmed keys.
pub fn run_hot(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let keys = Keys::new();
    let cfg = service_config(2, 256);

    // Set-up starts the service and warms every key. It runs once before
    // timing and again after it, so the measured run holds one set-up's
    // memory.
    let set_up = |out: &mut Outcome| {
        // Sampled before the service starts, so no program thread runs
        // beside the kernel.
        let speed = host::speed(SPEED_SAMPLES);
        let t = Instant::now();
        let svc = MaskService::start(own_registry(&cfg));
        let (answers, fresh) = warm(&keys, |k| svc.call(keys.request(k)));
        out.check("warm-up searches every key", fresh == keys.pairs.len());
        (svc, answers, t.elapsed().as_secs_f64() * speed)
    };
    let (svc, mut answers, first) = set_up(&mut out);
    let mut setup = vec![first];

    // Arrivals per second of due times, each due relative to its second.
    let mut seconds = vec![Vec::new(); opts.seconds as usize];
    for (due_ns, k) in
        schedule::poisson_schedule(opts.seed, HOT_RATE_PER_S, opts.seconds, keys.pairs.len())
    {
        seconds[(due_ns / 1_000_000_000) as usize].push((due_ns % 1_000_000_000, k));
    }
    let tracer = Tracer::new(opts.trace);
    let (stats0, cache0, counters0) = (svc.stats(), svc.cache_stats(), Counters::read());
    // Latencies per second. Each second's arrivals run open loop; once
    // all are answered the workers are idle, the host's speed is sampled
    // and the second's latencies are scaled by it. With the CPUs kept
    // awake, a hit's latency is mostly the worker's own CPU work.
    let mut latencies = Vec::with_capacity(seconds.len());
    let (mut speeds, mut elapsed) = (Vec::new(), 0.0f64);
    let mut timings = Vec::new();
    let (mut lateness, mut submit) = (Vec::new(), Vec::new());
    let awake = KeepAwake::start();
    for arrivals in &seconds {
        let mut second = Vec::with_capacity(arrivals.len());
        let base = Instant::now();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|s| {
            let (svc, keys) = (&svc, &keys);
            s.spawn(move || {
                for &(due_ns, k) in arrivals {
                    let due = base + Duration::from_nanos(due_ns);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let pending = svc.submit(keys.request(k));
                    let submitted = Instant::now();
                    if tx.send((k, due, sent, submitted, pending)).is_err() {
                        return;
                    }
                }
            });
            for (k, due, sent, submitted, pending) in rx {
                out.attempted += 1;
                let Ok(Ok(Response::Mask(rec))) = pending.map(|p| p.wait()) else {
                    out.failed += 1;
                    continue;
                };
                answers.record(k, &rec);
                let t = rec.timing;
                let end = submitted + Duration::from_micros(t.total_us());
                second.push(end.duration_since(due).as_nanos() as u64);
                lateness.push(sent.duration_since(due).as_nanos() as u64);
                submit.push(submitted.duration_since(sent).as_nanos() as u64);
                timings.push(t);
                if tracer.enabled() {
                    let root = tracer.alloc();
                    for (id, parent, name, a, b) in [
                        (root, 0, "loadgen.request", due, end),
                        (tracer.alloc(), root, "loadgen.lateness", due, sent),
                        (tracer.alloc(), root, "admission.submit", sent, submitted),
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
                    push_synthesized(&tracer, root, tracer.at_ns(submitted), t);
                }
            }
        });
        elapsed += base.elapsed().as_secs_f64();
        let speed = host::speed(SPEED_SAMPLES);
        latencies.push(
            second
                .into_iter()
                .map(|ns| (ns as f64 * speed) as u64)
                .collect::<Vec<u64>>(),
        );
        speeds.push(speed);
    }
    drop(awake);
    let (stats, cache) = (svc.stats(), svc.cache_stats());
    Counters::read().since(counters0).report(&mut out);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    svc.shutdown();

    out.check("one answer per key and epoch", answers.conflicts == 0);
    out.check(
        "replayed keys are bit-identical",
        replay(own_registry(&cfg), &keys, &answers, opts.seed),
    );
    out.digest = answers.digest();
    while setup.len() < SETUP_REPEATS {
        let (svc, _, secs) = set_up(&mut out);
        svc.shutdown();
        setup.push(secs);
    }
    out.set("setup_s", median(&mut setup), "s");
    // The offered rate, which the host's speed does not scale.
    out.set(
        "throughput_per_s",
        timings.len() as f64 / elapsed.max(1e-9),
        "1/s",
    );
    out.set("host.speed", median(&mut speeds), "x");
    report_latency(&mut out, &mut latencies, &timings);
    out.set("mask_fidelity", answers.mean_fidelity(), "frac");
    lateness.sort_unstable();
    submit.sort_unstable();
    out.set(
        "loadgen.lateness_us_p99",
        pct_ms(&lateness, 0.99) * 1e3,
        "us",
    );
    out.set("service.submit_us_p50", pct_ms(&submit, 0.5) * 1e3, "us");
    out.set(
        "service.fresh_searches",
        (stats.searches - stats0.searches) as f64,
        "count",
    );
    out.set(
        "service.rejected",
        (stats.rejected - stats0.rejected) as f64,
        "count",
    );
    out.set(
        "service.peak_queue_depth",
        stats.peak_queue_depth as f64,
        "count",
    );
    out.set(
        "service.coalesced",
        (cache.coalesced - cache0.coalesced) as f64,
        "count",
    );
    let lookups = (cache.lookups - cache0.lookups).max(1);
    out.set(
        "service.cache_hit_rate",
        (cache.hits - cache0.hits) as f64 / lookups as f64,
        "frac",
    );
    if opts.trace {
        probe::run(
            &keys.probes(opts.seed, cfg.decoy),
            SearchBudget::default(),
            &mut out,
        );
        out.spans = tracer.take_spans();
        out.trace_overhead_ns = tracer.overhead_ns();
    }
    out
}

/// A two-shard fleet with persistence under `dir`.
struct Fleet {
    shards: Vec<ShardServer>,
    router: FleetRouter,
}

impl Fleet {
    fn start(cfg: &ServiceConfig, dir: &Path) -> Result<Fleet, ServiceError> {
        let _ = std::fs::remove_dir_all(dir);
        let shards = (0..2u32)
            .map(|i| {
                // No background snapshot thread: `run_drift` snapshots
                // every shard at the end of each cycle, so no program
                // thread works while the host's speed is sampled.
                let service = ServiceConfig {
                    persist: PersistConfig {
                        dir: Some(dir.join(format!("shard-{i}"))),
                        snapshot_interval_ms: 0,
                        fsync: false,
                    },
                    ..own_registry(cfg)
                };
                ShardServer::start(ShardConfig::standalone(ShardId(i), service))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let endpoints: Vec<_> = shards.iter().map(|s| (s.shard(), s.addr())).collect();
        let router = FleetRouter::new(RouterConfig::default(), &endpoints);
        Ok(Fleet { shards, router })
    }

    fn stop(self) {
        for shard in self.shards {
            shard.stop();
        }
    }

    fn sum<T: std::ops::Add<Output = T> + Default>(&self, f: impl Fn(&MaskService) -> T) -> T {
        self.shards
            .iter()
            .map(|s| f(s.service()))
            .fold(T::default(), |a, b| a + b)
    }
}

/// `serve-drift`: closed-loop callers through the fleet router, with a
/// calibration tick on both shards before every [`DRIFT_WINDOW`]
/// requests.
pub fn run_drift(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let keys = Keys::new();
    let cfg = service_config(1, 64);
    let dir = opts.out.join(format!("persist-{}", std::process::id()));

    // Set-up starts both shards and the router and warms every key; it
    // runs once before timing and again after it.
    let set_up = |out: &mut Outcome| {
        // Sampled before the shards start, so no program thread runs
        // beside the kernel.
        let speed = host::speed(SPEED_SAMPLES);
        let t = Instant::now();
        let fleet = Fleet::start(&cfg, &dir);
        let (answers, fresh) = match &fleet {
            Ok(fleet) => warm(&keys, |k| {
                fleet.router.call(keys.request(k)).map(|r| r.response)
            }),
            Err(e) => {
                eprintln!("fleet start failed: {e}");
                (Answers::default(), 0)
            }
        };
        out.check("warm-up searches every key", fresh == keys.pairs.len());
        (fleet, answers, t.elapsed().as_secs_f64() * speed)
    };
    let (fleet, mut answers, first) = set_up(&mut out);
    let Ok(fleet) = fleet else {
        return out;
    };
    let mut setup = vec![first];

    let tracer = Tracer::new(opts.trace);
    let searches0 = fleet.sum(|s| s.stats().searches);
    let journal = |f: &Fleet| f.sum(|s| s.persist_stats().map_or(0, |p| p.journal_records));
    let snapshots = |f: &Fleet| f.sum(|s| s.persist_stats().map_or(0, |p| p.snapshots));
    let (journal0, snapshots0, counters0) = (journal(&fleet), snapshots(&fleet), Counters::read());
    let cache0: Vec<_> = fleet
        .shards
        .iter()
        .map(|s| s.service().cache_stats())
        .collect();
    let rejected0 = fleet.sum(|s| s.stats().rejected);
    // Call wall times per cycle of three windows, one tick of each
    // device, ending with a snapshot of every shard. Each cycle's times
    // are scaled by the host speed sampled after its windows: then every
    // call has returned and no snapshot is due, so the shards' workers
    // are idle and only their accept and connection threads wake, to
    // poll. Percentiles and the rate pool the cycles, which differ in
    // work: each epoch's calibration brings its own search costs.
    let (mut latencies, mut cycle, mut cycle_ns) = (Vec::new(), Vec::new(), 0u64);
    let (mut speeds, mut cycle_speeds, mut scaled_s) = (Vec::new(), Vec::new(), 0.0f64);
    let (mut timings, mut overhead) = (Vec::new(), Vec::new());
    let mut rerouted = 0u64;
    let mut prefix = None;
    let windows = (opts.seconds / DRIFT_CYCLE_S * DEVICES.len() as u64).max(DRIFT_PREFIX_WINDOWS);
    for window in 0..windows {
        // Each window opens with a tick, so every window re-searches one
        // device's keys.
        let device = DEVICES[window as usize % DEVICES.len()];
        let window_start = Instant::now();
        for shard in &fleet.shards {
            let ticked = shard.service().advance_epoch(device);
            out.check("epoch ticks", ticked.is_ok());
        }
        let root = tracer.alloc();
        tracer.push(Span {
            id: root,
            parent: 0,
            request: root,
            name: "epoch.tick",
            start_ns: tracer.at_ns(window_start),
            end_ns: tracer.now_ns(),
            synthesized: false,
        });
        let picks = schedule::block_picks(opts.seed, window, keys.pairs.len(), DRIFT_WINDOW);
        for call in closed_loop(DRIFT_CALLERS, &picks, |k| {
            fleet.router.call(keys.request(k))
        }) {
            out.attempted += 1;
            let Ok(routed) = call.result else {
                out.failed += 1;
                continue;
            };
            let Response::Mask(rec) = routed.response else {
                out.failed += 1;
                continue;
            };
            rerouted += u64::from(routed.rerouted);
            answers.record(call.key, &rec);
            let wall = call.end.duration_since(call.start).as_nanos() as u64;
            let total_ns = rec.timing.total_us() * 1000;
            cycle.push(wall);
            timings.push(rec.timing);
            overhead.push(wall.saturating_sub(total_ns));
            if tracer.enabled() {
                let root = tracer.alloc();
                let (a, b) = (tracer.at_ns(call.start), tracer.at_ns(call.end));
                tracer.push(Span {
                    id: root,
                    parent: 0,
                    request: root,
                    name: "fleet.call",
                    start_ns: a,
                    end_ns: b,
                    synthesized: false,
                });
                // Where inside the call the shard's time fell is unknown;
                // the wire and router overhead is split evenly around it.
                let from = a + (b - a).saturating_sub(total_ns) / 2;
                push_synthesized(&tracer, root, from, rec.timing);
            }
        }
        let cycle_end = (window + 1) % DEVICES.len() as u64 == 0;
        if cycle_end {
            for shard in &fleet.shards {
                let ok = shard.service().snapshot_now().is_ok();
                out.check("snapshots succeed", ok);
            }
        }
        cycle_ns += window_start.elapsed().as_nanos() as u64;
        cycle_speeds.extend((0..SPEED_SAMPLES).map(|_| host::sample()));
        if cycle_end {
            let speed = median(&mut cycle_speeds);
            latencies.extend(cycle.drain(..).map(|ns| (ns as f64 * speed) as u64));
            scaled_s += cycle_ns as f64 / 1e9 * speed;
            speeds.push(speed);
            cycle_speeds.clear();
            cycle_ns = 0;
        }
        if window + 1 == DRIFT_PREFIX_WINDOWS {
            prefix = Some((
                Counters::read().since(counters0),
                fleet.sum(|s| s.stats().searches) - searches0,
                journal(&fleet) - journal0,
                answers.digest(),
                answers.mean_fidelity(),
            ));
        }
    }
    let (counters, fresh, journal_records, digest, fidelity) =
        prefix.expect("the loop runs the prefix");
    counters.report(&mut out);
    out.set("service.fresh_searches", fresh as f64, "count");
    out.set("persist.journal_records", journal_records as f64, "count");
    out.set(
        "persist.snapshots",
        (snapshots(&fleet) - snapshots0) as f64,
        "count",
    );
    let (mut hits, mut lookups, mut coalesced) = (0, 0, 0);
    for (shard, before) in fleet.shards.iter().zip(&cache0) {
        let c = shard.service().cache_stats();
        hits += c.hits - before.hits;
        lookups += c.lookups - before.lookups;
        coalesced += c.coalesced - before.coalesced;
    }
    out.set(
        "service.cache_hit_rate",
        hits as f64 / lookups.max(1) as f64,
        "frac",
    );
    out.set("service.coalesced", coalesced as f64, "count");
    out.set(
        "service.rejected",
        (fleet.sum(|s| s.stats().rejected) - rejected0) as f64,
        "count",
    );
    let peak = fleet
        .shards
        .iter()
        .map(|s| s.service().stats().peak_queue_depth);
    out.set(
        "service.peak_queue_depth",
        peak.max().unwrap_or(0) as f64,
        "count",
    );
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    if opts.trace {
        let mut snapshot_ms: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let ok = fleet.shards[0].service().snapshot_now().is_ok();
                out.check("snapshot probe succeeds", ok);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        out.set("persist.snapshot_ms", median(&mut snapshot_ms), "ms");
    }
    fleet.stop();

    out.check("one answer per key and epoch", answers.conflicts == 0);
    out.check(
        "replayed keys are bit-identical",
        replay(own_registry(&cfg), &keys, &answers, opts.seed),
    );
    out.digest = digest;
    while setup.len() < SETUP_REPEATS {
        let (fleet, _, secs) = set_up(&mut out);
        if let Ok(fleet) = fleet {
            fleet.stop();
        }
        setup.push(secs);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.set("setup_s", median(&mut setup), "s");
    out.set(
        "throughput_per_s",
        latencies.len() as f64 / scaled_s.max(1e-9),
        "1/s",
    );
    out.set("host.speed", median(&mut speeds), "x");
    report_latency(&mut out, &mut [latencies], &timings);
    out.set("mask_fidelity", fidelity, "frac");
    overhead.sort_unstable();
    out.set("fleet.overhead_us_p50", pct_ms(&overhead, 0.5) * 1e3, "us");
    out.set("fleet.rerouted", rerouted as f64, "count");
    if opts.trace {
        probe::run(
            &keys.probes(opts.seed, cfg.decoy),
            SearchBudget::default(),
            &mut out,
        );
        out.spans = tracer.take_spans();
        out.trace_overhead_ns = tracer.overhead_ns();
    }
    out
}
