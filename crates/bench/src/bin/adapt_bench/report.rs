//! Metric definitions, the statistics behind them, and the run record.

use crate::json;
use crate::trace::Span;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// A metric the benchmark reports, with its unit.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The end-to-end metrics of every untraced run; `BENCHMARK.json` lists
/// the same names with their bounds.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput_per_s", "1/s"),
    m("latency_ms_p50", "ms"),
    m("latency_ms_p90", "ms"),
    m("mask_fidelity", "frac"),
    m("peak_rss_mb", "MB"),
    m("success_frac", "frac"),
];

/// The per-layer metrics of every traced run. Each workload reports all
/// of them; a layer the workload does not run reports a zero count,
/// share or rate, never a zero time.
pub const PER_LAYER: &[MetricDef] = &[
    // Probes: the workload's own inputs pushed through one layer's
    // public entry point, medians over repeats.
    m("transpiler.transpile_us", "us"),
    m("decoy.build_ms", "ms"),
    m("dd.insert_us", "us"),
    m("machine.plan_build_us", "us"),
    m("machine.job_ms", "ms"),
    m("wire.encode_us", "us"),
    m("wire.decode_us", "us"),
    m("wire.request_bytes", "bytes"),
    // Self-time shares of the root spans (see `trace::LAYERS`).
    m("transpiler.self_frac", "frac"),
    m("decoy.self_frac", "frac"),
    m("search.self_frac", "frac"),
    m("machine.self_frac", "frac"),
    m("loadgen.self_frac", "frac"),
    m("admission.self_frac", "frac"),
    m("queue.self_frac", "frac"),
    m("service.self_frac", "frac"),
    m("fleet.self_frac", "frac"),
    m("epoch.self_frac", "frac"),
    // Exact counts over the run's reference prefix.
    m("search.searches", "count"),
    m("search.decoy_runs", "count"),
    m("machine.chp_jobs", "count"),
    m("machine.statevec_jobs", "count"),
    m("service.fresh_searches", "count"),
    m("persist.journal_records", "count"),
    // Rates and ratios over the whole measured phase.
    m("search.masks_per_s", "1/s"),
    m("machine.plan_hit_rate", "frac"),
    m("statevec.computed_gb_per_s", "GB/s"),
    m("statevec.active_qubits_mean", "qubits"),
    m("service.cache_hit_rate", "frac"),
    m("service.coalesced", "count"),
    m("service.rejected", "count"),
    m("service.peak_queue_depth", "count"),
    m("persist.snapshots", "count"),
    m("fleet.rerouted", "count"),
    m("trace.overhead_frac", "frac"),
    m("trace.self_sum_frac", "frac"),
];

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks and whether each passed.
    pub checks: Vec<(String, bool)>,
    /// Hash of every mask and fidelity bit pattern of the reference
    /// prefix: equal for equal seeds, traced or not.
    pub digest: u64,
    /// Every value measured, by metric name: the contract metrics plus
    /// workload-specific extras that are printed and recorded only.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub spans: Vec<Span>,
    /// Time the traced run spent recording spans and classifying jobs.
    pub trace_overhead_ns: u64,
}

/// The process-wide `adapt_search_*` and `adapt_machine_*` counters the
/// program already keeps. Differences between two reads count the work
/// in between, including searches run inside a service.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub searches: u64,
    pub decoy_runs: u64,
    pub chp_jobs: u64,
    pub statevec_jobs: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

impl Counters {
    pub fn read() -> Self {
        let r = adapt_obs::global();
        let get = |name: &str| r.counter(name).get();
        Counters {
            searches: get("adapt_search_searches_total"),
            decoy_runs: get("adapt_search_decoy_runs_scored_total")
                + get("adapt_search_decoy_runs_unavailable_total"),
            chp_jobs: get("adapt_machine_engine_chp_total"),
            statevec_jobs: get("adapt_machine_engine_statevec_total"),
            plan_hits: get("adapt_machine_plan_cache_hits_total"),
            plan_misses: get("adapt_machine_plan_cache_misses_total"),
        }
    }

    pub fn since(self, before: Counters) -> Counters {
        Counters {
            searches: self.searches - before.searches,
            decoy_runs: self.decoy_runs - before.decoy_runs,
            chp_jobs: self.chp_jobs - before.chp_jobs,
            statevec_jobs: self.statevec_jobs - before.statevec_jobs,
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
        }
    }

    pub fn add(&mut self, o: Counters) {
        self.searches += o.searches;
        self.decoy_runs += o.decoy_runs;
        self.chp_jobs += o.chp_jobs;
        self.statevec_jobs += o.statevec_jobs;
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
    }

    /// Records the reference-prefix counts into `out`.
    pub fn report(&self, out: &mut Outcome) {
        out.set("search.searches", self.searches as f64, "count");
        out.set("search.decoy_runs", self.decoy_runs as f64, "count");
        out.set("machine.chp_jobs", self.chp_jobs as f64, "count");
        out.set("machine.statevec_jobs", self.statevec_jobs as f64, "count");
        let lookups = (self.plan_hits + self.plan_misses).max(1);
        out.set(
            "machine.plan_hit_rate",
            self.plan_hits as f64 / lookups as f64,
            "frac",
        );
    }
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records one outcome of check `name`; a check made several times
    /// passes only if every outcome did.
    pub fn check(&mut self, name: &str, passed: bool) {
        if !passed {
            eprintln!("check failed: {name}");
        }
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, ok)) => *ok &= passed,
            None => self.checks.push((name.to_string(), passed)),
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }
}

/// Whether `name` is a well-formed metric name: at most 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds.
pub fn pct_ms(sorted_ns: &[u64], q: f64) -> f64 {
    adapt_obs::percentile(sorted_ns, q) / 1e6
}

/// Median of a sample (nearest rank), in the sample's own unit.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n => values[adapt_obs::nearest_rank(0.5, n as u64) as usize - 1],
    }
}

/// Quartiles `[q1, q2, q3]` by Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method), so spreads computed here and by
/// a Python reader agree. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let len = d.len();
    if len < 2 {
        return None;
    }
    let m = len as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // Negative for tiny samples: Python extrapolates there too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    Some(out)
}

/// FNV-1a over 64-bit words: the output digest.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Returns the heap's free pages to the system, so each search starts
/// from the same resident set, as a new process would. Without it, which
/// pages the allocator kept after earlier searches moved a search
/// workload's peak by several megabytes between runs of one seed.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            // malloc_trim(3), from the C library `std` links.
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers and only releases memory
        // the allocator holds free; any thread may call it at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The result line the benchmark prints last: the end-to-end metrics of
/// an untraced run, or the per-layer metrics of a traced one.
pub fn result_line(o: &Outcome, traced: bool) -> String {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = o.metrics.get(d.name).map_or(0.0, |&(v, _)| v);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(d.name),
                json::num(v),
                json::quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Appends one run record (a single JSON line) to `DIR/runs.jsonl`; the
/// `--compare` reader pairs these by workload and seed.
pub fn append_record(
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    o: &Outcome,
) -> std::io::Result<()> {
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|(name, ok)| format!("{}: {ok}", json::quote(name)))
        .collect();
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, &(v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(v),
                json::quote(unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {traced}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"output_digest\": \"{:016x}\", \
         \"checks\": {{{}}}, \"metrics\": {{{}}}}}",
        json::quote(workload),
        o.correct(),
        o.attempted,
        o.failed,
        o.digest,
        checks.join(", "),
        metrics.join(", ")
    );
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))?;
    f.write_all(format!("{line}\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let ns: Vec<u64> = (1..=10).map(|i| i * 1_000_000).collect();
        assert_eq!(pct_ms(&ns, 0.5), 5.0);
        assert_eq!(pct_ms(&ns, 0.9), 9.0);
        assert_eq!(pct_ms(&ns, 0.91), 10.0);
        assert_eq!(pct_ms(&ns[..2], 0.5), 1.0);
        assert_eq!(pct_ms(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        for bad in ["", ".x", "a b", "a/b", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad:?} passed");
        }
        let mut names = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(d.name), "bad metric name {:?}", d.name);
            assert!(names.insert(d.name), "duplicate metric {:?}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
        }
        for layer in crate::trace::LAYERS {
            let name = format!("{layer}.self_frac");
            assert!(names.contains(name.as_str()), "{name} is not a metric");
        }
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = crate::json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = spec
                .get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap(),
                        m.get("unit").unwrap().as_str().unwrap(),
                    )
                })
                .collect();
            let ours: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
            assert_eq!(listed, ours, "{key} in BENCHMARK.json");
        }
    }
}
