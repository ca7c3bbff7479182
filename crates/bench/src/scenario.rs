//! # Serving-stack scenarios
//!
//! Six seeded scenarios drive the mask service, the shard fleet and the
//! durability layer end to end, one submodule each, each writing
//! `results/BENCH_<name>.json`: [`service`] (open-loop load,
//! bit-identity, warm restart), [`chaos`] (deadlines and breakers under
//! faults), [`tiered`] (the degradation ladder), [`tenancy`] (quotas and
//! fair scheduling), [`fleet`] (shard kill/restart, scaling) and
//! [`crash`] (recovery from kills and storage corruption).
//!
//! `cargo run --release -p bench-harness --bin scenarios -- --quick
//! [name…]` runs the named scenarios (all six when none is named); each
//! panics, failing the run, when one of its invariants breaks.
//!
//! Each scenario is a plain function of its seeded schedule. This
//! module holds what they share: the circuit families and budgets they
//! submit, the response digest lines, [`twice`] (the two-run
//! determinism check), the warm-restart drill, and the ordered JSON
//! writer behind every `results/BENCH_*.json`. Every report carries a
//! `replay_digest` ([`replay_digest`] over the scenario's digest lines);
//! the quick-mode values are pinned in `results/replay_digests.json`.

pub mod chaos;
pub mod crash;
pub mod fleet;
pub mod service;
pub mod tenancy;
pub mod tiered;

use crate::report::replay_digest;
use crate::runner::ExperimentCfg;
use adapt::DdProtocol;
use adapt_service::{
    BreakerConfig, BreakerFallback, DeviceId, MaskService, PersistConfig, Provenance, Request,
    Response, SearchBudget, ServiceConfig, ServiceStats, TierPolicy,
};
use machine::FaultProfile;
use qcirc::Circuit;
use std::fmt::Write as _;
use std::path::PathBuf;

/// A scenario's entry point: runs it and writes its report.
pub type Scenario = fn(&ExperimentCfg);

/// Every scenario by name, in the order a run without names takes.
pub const ALL: [(&str, Scenario); 6] = [
    ("service", service::run),
    ("chaos", chaos::run),
    ("tiered", tiered::run),
    ("tenancy", tenancy::run),
    ("fleet", fleet::run),
    ("crash", crash::run),
];

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// An `n`-qubit GHZ circuit with a per-qubit prefix stamp.
fn stamped_ghz(n: u32, stamp: impl Fn(&mut Circuit, u32)) -> Circuit {
    let mut c = Circuit::new(n as usize);
    for q in 0..n {
        stamp(&mut c, q);
    }
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    c
}

/// GHZ prefixed with an X on every qubit whose `tag` bit is set:
/// distinct tags (below `2^n`) give distinct logical hashes, so each is
/// its own cache key. One X per qubit, so the transpiler cannot cancel
/// pairs back into a collision.
pub fn ghz_x(n: u32, tag: usize) -> Circuit {
    stamped_ghz(n, |c, q| {
        if (tag >> q) & 1 == 1 {
            c.x(q);
        }
    })
}

/// GHZ prefixed with a per-qubit {I, X, Z, XZ} stamp drawn from two
/// `tag` bits per qubit: `4^n` distinct Clifford circuits, each its own
/// cache key and ring key.
pub fn ghz_xz(n: u32, tag: usize) -> Circuit {
    stamped_ghz(n, |c, q| {
        let bits = (tag >> (2 * q)) & 3;
        if bits & 1 == 1 {
            c.x(q);
        }
        if bits & 2 == 2 {
            c.z(q);
        }
    })
}

/// The search budget of the request-mix scenarios: 64 shots × 2
/// trajectories in quick mode, 128 × 4 in full, neighborhood 4.
pub fn budget(quick: bool, tier: TierPolicy) -> SearchBudget {
    SearchBudget {
        shots: if quick { 64 } else { 128 },
        trajectories: if quick { 2 } else { 4 },
        neighborhood: 4,
        tier,
    }
}

/// The fixed budget of the fleet and crash scenarios (32 shots × 2
/// trajectories in both modes): they measure recovery and routing, not
/// search quality.
pub fn small_budget() -> SearchBudget {
    SearchBudget {
        shots: 32,
        ..budget(true, TierPolicy::default())
    }
}

/// An XY4 mask recommendation under the default tenancy.
pub fn recommend(
    circuit: Circuit,
    device: DeviceId,
    budget: SearchBudget,
    deadline_ms: Option<u64>,
) -> Request {
    Request::RecommendMask {
        circuit,
        device,
        protocol: DdProtocol::Xy4,
        budget,
        deadline_ms,
        tenancy: Default::default(),
    }
}

/// A device whose every backend job fails: searches degrade to all-DD,
/// the breaker sees failures, and retry backoff charges virtual time.
pub fn dead_device() -> FaultProfile {
    FaultProfile {
        transient_failure: 1.0,
        ..FaultProfile::none()
    }
}

/// The breaker of the chaos and tiered scenarios: trips on half of an
/// 8-request window (4 samples minimum), probes after 2 requests, and
/// serves the conservative fallback mask while open.
pub fn tripwire_breaker() -> BreakerConfig {
    BreakerConfig {
        window: 8,
        min_samples: 4,
        failure_threshold: 0.5,
        cooldown_requests: 2,
        open_retry_hint_ms: 200,
        fallback: BreakerFallback::ConservativeMask,
        ..BreakerConfig::enabled()
    }
}

/// `config` made durable under `dir`. Snapshots come from the shutdown
/// path and explicit calls only (long interval, no fsync), so the
/// on-disk state is a pure function of the schedule.
pub fn durable(config: ServiceConfig, dir: PathBuf) -> ServiceConfig {
    ServiceConfig {
        persist: PersistConfig {
            snapshot_interval_ms: 600_000,
            fsync: false,
            ..PersistConfig::at(dir)
        },
        ..config
    }
}

/// An empty scratch directory for one durable phase, under the system
/// temp dir.
pub fn scratch_dir(name: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("adapt_scenarios")
        .join(format!("{name}_{seed:016x}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Digests and the determinism replay
// ---------------------------------------------------------------------------

/// The wall-clock-free identity of a mask response,
/// `tag|provenance|mask|fidelity bits|decoy runs`: the digest line of
/// the fleet and crash scenarios.
///
/// # Panics
///
/// Panics on an execution response.
pub fn response_line(tag: usize, response: &Response) -> String {
    match response {
        Response::Mask(r) => format!(
            "{tag}|{:?}|{:?}|{:016x}|{}",
            r.provenance,
            r.mask,
            r.decoy_fidelity.to_bits(),
            r.decoy_runs
        ),
        Response::Execution(_) => panic!("workload is RecommendMask-only"),
    }
}

/// A [`response_line`] without its provenance field: equal for a cache
/// hit and the fresh search it stands in for.
pub fn semantic(line: &str) -> String {
    let mut parts: Vec<&str> = line.split('|').collect();
    parts.remove(1);
    parts.join("|")
}

/// What a seeded phase leaves behind for its determinism replay.
pub trait Replay {
    /// Wall-clock-free digest lines, in schedule order.
    fn lines(&self) -> Vec<&String>;
    /// Everything else the schedule determines (counters, tallies), in
    /// a stable rendering such as `Debug`.
    fn counters(&self) -> String;
}

/// Runs a seeded phase twice and returns the first run.
///
/// # Panics
///
/// Panics when the two runs' digest lines or counters differ.
pub fn twice<R: Replay>(what: &str, mut run: impl FnMut() -> R) -> R {
    let first = run();
    let second = run();
    assert_eq!(
        first.lines(),
        second.lines(),
        "{what}: responses must be bit-identical across identical runs"
    );
    assert_eq!(
        first.counters(),
        second.counters(),
        "{what}: counters must be reproducible across identical runs"
    );
    first
}

/// Every [`ServiceStats`] counter by name, and whether a sequential,
/// virtual-time schedule fully determines it (admission, searches, the
/// deadline and breaker paths, every tier of the degradation ladder).
fn stats_fields(s: &ServiceStats) -> [(&'static str, u64, bool); 23] {
    [
        ("accepted", s.accepted, true),
        ("rejected", s.rejected, true),
        ("rejected_queue", s.rejected_queue, false),
        ("rejected_breaker", s.rejected_breaker, false),
        ("rejected_deadline", s.rejected_deadline, false),
        ("rejected_quota", s.rejected_quota, true),
        ("completed", s.completed, true),
        ("failed", s.failed, false),
        ("searches", s.searches, true),
        ("worker_panics", s.worker_panics, false),
        ("deadline_dropped", s.deadline_dropped, false),
        ("deadline_exceeded", s.deadline_exceeded, true),
        ("partial_searches", s.partial_searches, true),
        ("breaker_fallbacks", s.breaker_fallbacks, true),
        ("breaker_trips", s.breaker_trips, true),
        ("breaker_recoveries", s.breaker_recoveries, true),
        ("heuristic_served", s.heuristic_served, true),
        ("stale_served", s.stale_served, true),
        ("refines_enqueued", s.refines_enqueued, true),
        ("refines_completed", s.refines_completed, true),
        ("refines_dropped", s.refines_dropped, true),
        ("prewarm_scheduled", s.prewarm_scheduled, true),
        ("peak_queue_depth", s.peak_queue_depth as u64, false),
    ]
}

/// The schedule-pure [`ServiceStats`] counters, rendered for [`twice`].
pub fn schedule_pure(stats: &ServiceStats) -> String {
    let pure = stats_fields(stats).into_iter().filter(|f| f.2);
    format!(
        "{:?}",
        pure.map(|(name, v, _)| (name, v)).collect::<Vec<_>>()
    )
}

/// Every [`ServiceStats`] counter, as a report object.
pub fn stats_json(stats: &ServiceStats) -> Json {
    let fields = stats_fields(stats).into_iter();
    fields.map(|(name, v, _)| (name, v)).collect()
}

/// A service over `devices` with the scenario's seed, fault profile and
/// [`budget`], and the given pool and capacities.
pub fn service_config(
    cfg: &ExperimentCfg,
    devices: &[DeviceId],
    workers: usize,
    queue_capacity: usize,
    cache_capacity: usize,
) -> ServiceConfig {
    ServiceConfig {
        devices: devices.to_vec(),
        workers,
        queue_capacity,
        cache_capacity,
        seed: cfg.seed,
        fault_profile: cfg.fault_profile,
        default_budget: budget(cfg.quick, TierPolicy::default()),
        ..ServiceConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Warm restart
// ---------------------------------------------------------------------------

/// Outcome of the [`warm_restart`] drill.
pub struct WarmRestart {
    /// Warm-pass [`response_line`] per request; `None` where the answer
    /// was not cached (a failure, or a partial or fallback mask).
    pub lines: Vec<Option<String>>,
    /// Requests whose warm-pass answer the cache stored.
    pub warmed: usize,
    /// Of those, answered from the recovered cache after the restart.
    pub hits: usize,
}

impl WarmRestart {
    /// `hits / warmed`.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.warmed.max(1) as f64
    }
}

/// The warm-restart drill (DESIGN.md §17): `config`, made durable over
/// a fresh scratch directory, answers every request once, shuts down
/// cleanly (final snapshot) and restarts from disk; the reborn service
/// then answers every cached request again.
///
/// # Panics
///
/// Panics when a worker panics, the clean restart quarantines anything,
/// a cached request fails or changes its answer after the restart, or
/// fewer than 90% of the cached requests hit the recovered cache.
pub fn warm_restart(config: ServiceConfig, name: &str, requests: &[Request]) -> WarmRestart {
    let dir = scratch_dir(name, config.seed);
    let config = durable(config, dir.clone());
    let warm = MaskService::start(config.clone());
    let lines: Vec<Option<String>> = requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let resp = warm.call(req.clone()).ok()?;
            let Response::Mask(rec) = &resp else {
                return None;
            };
            let cached = matches!(
                rec.provenance,
                Provenance::CacheHit | Provenance::FreshSearch | Provenance::DegradedAllDd
            );
            cached.then(|| response_line(i, &resp))
        })
        .collect();
    assert_eq!(warm.shutdown().worker_panics, 0, "warm pass must not panic");

    let reborn = MaskService::start(config);
    let report = reborn.recovery_report().expect("persistence is enabled");
    assert_eq!(report.quarantined, 0, "clean restart must not quarantine");
    let mut hits = 0;
    for (i, before) in lines.iter().enumerate() {
        let Some(before) = before else { continue };
        let resp = reborn
            .call(requests[i].clone())
            .expect("a cached request answers after restart");
        if let Response::Mask(rec) = &resp {
            hits += usize::from(rec.provenance == Provenance::CacheHit);
        }
        assert_eq!(
            semantic(&response_line(i, &resp)),
            semantic(before),
            "warm restart changed the answer to request {i}"
        );
    }
    assert_eq!(
        reborn.shutdown().worker_panics,
        0,
        "reborn service must not panic"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let drill = WarmRestart {
        warmed: lines.iter().flatten().count(),
        lines,
        hits,
    };
    assert!(
        drill.hit_rate() >= 0.9,
        "clean shutdown must recover >=90% of the warm set: {hits}/{} (report {report:?})",
        drill.warmed
    );
    drill
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// A JSON value. Objects keep their keys in insertion order, so a
/// report reads in the order its scenario wrote it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(i128),
    /// A number with a fixed count of decimals; `null` when not finite.
    Num(f64, usize),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with ordered keys.
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from {
    ($($t:ty => $arm:ident($conv:expr)),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$arm($conv(v))
            }
        })*
    };
}
json_from! {
    bool => Bool(|v| v),
    u32 => Int(i128::from),
    u64 => Int(i128::from),
    usize => Int(|v| v as i128),
    &str => Str(str::to_string),
    String => Str(|v| v),
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// `(key, value)` pairs collect into an object, in order.
impl<K: Into<String>, V: Into<Json>> FromIterator<(K, V)> for Json {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Json {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }
}

impl Json {
    /// An object with `fields` in order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        fields.into_iter().collect()
    }

    /// Renders the value. The top-level object puts one key per line,
    /// arrays of objects one element per line, everything else inline.
    pub fn render(&self) -> String {
        self.render_at(0) + "\n"
    }

    fn render_at(&self, depth: usize) -> String {
        match self {
            Json::Bool(b) => b.to_string(),
            Json::Int(i) => i.to_string(),
            Json::Num(v, _) if !v.is_finite() => "null".to_string(),
            Json::Num(v, d) => format!("{v:.d$}"),
            Json::Str(s) => quote(s),
            Json::Arr(items) => {
                let tall = items.iter().any(|v| matches!(v, Json::Obj(_)));
                let parts = items.iter().map(|v| v.render_at(depth + 1));
                join(parts.collect(), tall, depth, ("[", "]"))
            }
            Json::Obj(fields) => {
                let parts = fields
                    .iter()
                    .map(|(k, v)| format!("{}: {}", quote(k), v.render_at(depth + 1)));
                join(parts.collect(), depth == 0, depth, ("{ ", " }"))
            }
        }
    }
}

/// `parts` between the brackets: one per line at `depth + 1` when
/// `tall`, else inline.
fn join(parts: Vec<String>, tall: bool, depth: usize, (open, close): (&str, &str)) -> String {
    let (open_tight, close_tight) = (open.trim(), close.trim());
    if parts.is_empty() {
        format!("{open_tight}{close_tight}")
    } else if tall {
        let pad = "  ".repeat(depth + 1);
        let body = parts.join(&format!(",\n{pad}"));
        format!(
            "{open_tight}\n{pad}{body}\n{}{close_tight}",
            "  ".repeat(depth)
        )
    } else {
        format!("{open}{}{close}", parts.join(", "))
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{ "n", "p50", "p99" }` in milliseconds over latency samples in µs
/// (nearest rank, [`adapt_obs::percentile`]).
pub fn latency_ms(samples_us: &[u64]) -> Json {
    let mut sorted = samples_us.to_vec();
    sorted.sort_unstable();
    let ms = |q| Json::Num(adapt_obs::percentile(&sorted, q) / 1000.0, 3);
    Json::obj([
        ("n", sorted.len().into()),
        ("p50", ms(0.50)),
        ("p99", ms(0.99)),
    ])
}

/// One point of the throughput curve over shards and workers per
/// shard. `BENCH_service.json`'s single-instance baseline and
/// `BENCH_fleet.json`'s scaling entries share it, so the two files
/// compose into one curve.
pub fn load_point(
    shards: usize,
    workers: usize,
    latencies_us: &[u64],
    throughput_rps: f64,
) -> Json {
    Json::obj([
        ("shards", shards.into()),
        ("workers", workers.into()),
        ("requests", latencies_us.len().into()),
        ("throughput_rps", Json::Num(throughput_rps, 2)),
        ("latency_ms", latency_ms(latencies_us)),
    ])
}

/// Writes `results/<file>` and prints it: `schema`, `quick` and
/// `seed`, then `fields`, then the replay digest of `lines`.
pub fn write_report<'a>(
    cfg: &ExperimentCfg,
    file: &str,
    fields: Vec<(&str, Json)>,
    lines: impl IntoIterator<Item = &'a String>,
) {
    let digest = replay_digest(lines);
    let mut all = vec![
        ("schema".to_string(), Json::Int(2)),
        ("quick".to_string(), cfg.quick.into()),
        ("seed".to_string(), cfg.seed.into()),
    ];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    all.push(("replay_digest".to_string(), digest.clone().into()));
    let out_dir = cfg.out_dir();
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    let path = out_dir.join(file);
    let report = Json::Obj(all).render();
    std::fs::write(&path, &report).expect("write scenario report");
    print!("{report}");
    println!("  wrote {} (replay digest {digest})", path.display());
}
