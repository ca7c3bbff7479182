//! `adapt-obs`: a lightweight, dependency-free metrics + tracing facade.
//!
//! The crates in this workspace each grew their own ad-hoc counters
//! (plan-cache stats, resilient-executor fault stats, service request
//! counters). This crate gives them one vocabulary:
//!
//! - [`Counter`] — monotonically increasing `u64`
//! - [`Gauge`] — signed instantaneous value (queue depth, cache size)
//! - [`Histogram`] — fixed-bucket latency histogram in microseconds
//! - [`SpanTimer`] — RAII scope timer recording into a histogram
//!   (see the [`span!`] macro)
//!
//! all owned by a [`Registry`]. The hot path is a single atomic
//! add/store on a pre-resolved handle — registration (name lookup)
//! happens once, recording never takes a lock. A [`Registry::noop`]
//! registry hands out inert handles so overhead can be measured and
//! bounded against a true baseline.
//!
//! Naming convention: `adapt_<crate>_<name>`, e.g.
//! `adapt_service_requests_total`, `adapt_machine_plan_cache_hits_total`.
//!
//! **Determinism contract:** metrics are observational only. Nothing in
//! the seeded execution path may read a metric back and branch on it;
//! registries collect, render ([`Registry::render_prometheus`] /
//! [`Registry::render_json`]) and nothing else.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Percentiles (nearest-rank)
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an **ascending-sorted** sample.
///
/// For `q ∈ (0, 1]` the nearest-rank definition takes the element at
/// rank `⌈q·n⌉` (1-based); `q = 0` maps to the minimum. An empty sample
/// yields `0.0` rather than panicking (an all-rejected load-test run
/// produces no latencies).
///
/// ```
/// use adapt_obs::percentile;
/// assert_eq!(percentile(&[], 0.5), 0.0);
/// assert_eq!(percentile(&[7], 0.99), 7.0);
/// // n=2: p50 is the FIRST element under nearest-rank (rank ⌈0.5·2⌉ = 1),
/// // where midpoint-rounding index math would wrongly pick the second.
/// assert_eq!(percentile(&[10, 20], 0.5), 10.0);
/// ```
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len() as u64;
    if n == 0 {
        return 0.0;
    }
    sorted[(nearest_rank(q, n) - 1) as usize] as f64
}

/// 1-based nearest rank `⌈q·n⌉` clamped into `[1, n]`, so `q = 0` and
/// floating-point spill at `q = 1` both stay in range. The single
/// definition behind every percentile in the suite ([`percentile`],
/// [`Histogram::percentile_us`], the bench harness reports): keeping one
/// copy is what guarantees `percentile(samples, q) <=
/// hist.percentile_us(q)` can be asserted across layers.
///
/// `n` must be nonzero; callers handle the empty-sample case themselves
/// (their zero-value conventions differ).
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    debug_assert!(n > 0, "nearest_rank is undefined for an empty sample");
    let q = q.clamp(0.0, 1.0);
    ((q * n as f64).ceil() as u64).clamp(1, n.max(1))
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Monotonic counter handle. Cloning shares the underlying cell; a
/// handle from [`Registry::noop`] ignores writes and reads 0.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// An inert counter, useful as a default before wiring a registry.
    pub fn noop() -> Self {
        Counter(None)
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// Instantaneous signed value (queue depth, cache length, peak marks).
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    pub fn noop() -> Self {
        Gauge(None)
    }

    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(n, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Raise the gauge to `v` if `v` is larger (high-water marks).
    #[inline]
    pub fn set_max(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Default latency buckets in microseconds: 50µs … 5s.
pub const DEFAULT_BUCKETS_US: &[u64] = &[
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000,
];

struct HistogramCore {
    /// Upper bounds (inclusive) of the finite buckets, ascending.
    bounds: Vec<u64>,
    /// One count per finite bucket plus a trailing +Inf bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// Fixed-bucket latency histogram recording microsecond samples.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// Record one sample (microseconds): two relaxed atomic adds plus a
    /// branchless bucket search over a small fixed array.
    #[inline]
    pub fn record(&self, us: u64) {
        if let Some(h) = &self.0 {
            let idx = h.bounds.partition_point(|&b| b < us);
            h.counts[idx].fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(us, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Start a scope timer; the elapsed time is recorded on drop.
    pub fn time(&self) -> SpanTimer {
        SpanTimer {
            hist: self.clone(),
            start: Instant::now(),
        }
    }

    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded samples, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Ordering::Relaxed))
    }

    /// Nearest-rank percentile resolved to the upper bound of the
    /// bucket holding that rank — an upper estimate consistent with the
    /// exact-sample [`percentile`] (`percentile(samples, q) <=
    /// hist.percentile_us(q)` always holds for the same samples).
    /// Returns `f64::INFINITY` when the rank lands in the overflow
    /// bucket and `0.0` when the histogram is empty.
    pub fn percentile_us(&self, q: f64) -> f64 {
        let Some(h) = &self.0 else { return 0.0 };
        let total = h.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let rank = nearest_rank(q, total);
        let mut seen = 0u64;
        for (i, c) in h.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return h.bounds.get(i).map_or(f64::INFINITY, |&b| b as f64);
            }
        }
        f64::INFINITY
    }
}

/// RAII scope timer returned by [`Histogram::time`] / the [`span!`]
/// macro. Records elapsed microseconds into its histogram on drop.
pub struct SpanTimer {
    hist: Histogram,
    start: Instant,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros() as u64;
        self.hist.record(us);
    }
}

/// Scoped timer: `let _span = span!(hist);` or
/// `let _span = span!(registry, "adapt_core_neighborhood_us");`
/// records the scope's wall time into the histogram when the guard
/// drops.
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        $registry.histogram($name).time()
    };
    ($hist:expr) => {
        $hist.time()
    };
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

/// Named-metric registry. Registration takes a short-lived lock; the
/// returned handles record lock-free. A disabled (`noop`) registry
/// hands out inert handles and renders an empty document.
pub struct Registry {
    inner: Mutex<Inner>,
    enabled: bool,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            enabled: true,
        }
    }

    /// A registry whose handles do nothing — the baseline for overhead
    /// measurements and the default for components run without
    /// observability wired up.
    pub fn noop() -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
            enabled: false,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Metric maps are append-only and always valid; recover from
        // poisoning rather than cascading a panic.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::noop();
        }
        let mut inner = self.lock();
        let cell = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter(Some(cell))
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.enabled {
            return Gauge::noop();
        }
        let mut inner = self.lock();
        let cell = inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)))
            .clone();
        Gauge(Some(cell))
    }

    /// Get or register the histogram `name` with [`DEFAULT_BUCKETS_US`].
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with_buckets(name, DEFAULT_BUCKETS_US)
    }

    /// Get or register the histogram `name` with explicit bucket upper
    /// bounds (ascending, microseconds). Bounds are fixed at first
    /// registration; later calls reuse the existing buckets.
    pub fn histogram_with_buckets(&self, name: &str, bounds_us: &[u64]) -> Histogram {
        if !self.enabled {
            return Histogram::noop();
        }
        debug_assert!(bounds_us.windows(2).all(|w| w[0] < w[1]));
        let mut inner = self.lock();
        let core = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(HistogramCore {
                    bounds: bounds_us.to_vec(),
                    counts: (0..=bounds_us.len()).map(|_| AtomicU64::new(0)).collect(),
                    sum: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })
            })
            .clone();
        Histogram(Some(core))
    }

    /// Render every metric in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, c) in &inner.counters {
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {}\n", c.load(Ordering::Relaxed)));
        }
        for (name, g) in &inner.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {}\n", g.load(Ordering::Relaxed)));
        }
        for (name, h) in &inner.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, count) in h.counts.iter().enumerate() {
                cumulative += count.load(Ordering::Relaxed);
                let le = h
                    .bounds
                    .get(i)
                    .map_or_else(|| "+Inf".to_string(), |b| b.to_string());
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum.load(Ordering::Relaxed)));
            out.push_str(&format!(
                "{name}_count {}\n",
                h.count.load(Ordering::Relaxed)
            ));
        }
        out
    }

    /// Render every metric as a JSON object (hand-rolled; names are
    /// `[a-z0-9_]` by convention so no escaping is required).
    pub fn render_json(&self) -> String {
        let inner = self.lock();
        let mut parts = Vec::new();
        let mut counters = Vec::new();
        for (name, c) in &inner.counters {
            counters.push(format!("\"{name}\":{}", c.load(Ordering::Relaxed)));
        }
        parts.push(format!("\"counters\":{{{}}}", counters.join(",")));
        let mut gauges = Vec::new();
        for (name, g) in &inner.gauges {
            gauges.push(format!("\"{name}\":{}", g.load(Ordering::Relaxed)));
        }
        parts.push(format!("\"gauges\":{{{}}}", gauges.join(",")));
        let mut hists = Vec::new();
        for (name, h) in &inner.histograms {
            let buckets: Vec<String> = h
                .counts
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let le = h
                        .bounds
                        .get(i)
                        .map_or_else(|| "\"+Inf\"".to_string(), |b| b.to_string());
                    format!("[{le},{}]", c.load(Ordering::Relaxed))
                })
                .collect();
            hists.push(format!(
                "\"{name}\":{{\"sum_us\":{},\"count\":{},\"buckets\":[{}]}}",
                h.sum.load(Ordering::Relaxed),
                h.count.load(Ordering::Relaxed),
                buckets.join(",")
            ));
        }
        parts.push(format!("\"histograms\":{{{}}}", hists.join(",")));
        format!("{{{}}}", parts.join(","))
    }
}

/// Parse a Prometheus text exposition into `(sample_name, value)`
/// pairs (labels kept as part of the name). Returns an error naming
/// the first malformed line — the `metrics-smoke` CI gate uses this to
/// assert the exposition stays well formed.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `name{labels} value` or `name value`; the value is the text
        // after the last space.
        let Some((name, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no value in {line:?}", lineno + 1));
        };
        let value: f64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value {value:?}: {e}", lineno + 1))?;
        if name.is_empty() {
            return Err(format!("line {}: empty metric name", lineno + 1));
        }
        samples.push((name.to_string(), value));
    }
    Ok(samples)
}

/// Look up a parsed sample by exact name.
pub fn sample_value(samples: &[(String, f64)], name: &str) -> Option<f64> {
    samples.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

// ---------------------------------------------------------------------------
// Exposition merging (fleet aggregation)
// ---------------------------------------------------------------------------

/// Re-render a Prometheus exposition with `key="value"` added as the
/// first label of every sample line. Comment lines (`# TYPE`, `# HELP`)
/// pass through untouched; existing labels (histogram `le`) are kept
/// after the injected one.
///
/// This is the per-instance half of fleet aggregation: each shard's
/// samples gain a `shard="N"` label, so identical metric names from
/// many registries stop colliding when the documents are merged.
pub fn inject_label(exposition: &str, key: &str, value: &str) -> String {
    let mut out = String::with_capacity(exposition.len() + 64);
    for line in exposition.lines() {
        let trimmed = line.trim_end();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            out.push_str(trimmed);
            out.push('\n');
            continue;
        }
        let Some((name_part, value_part)) = trimmed.rsplit_once(' ') else {
            // Not a sample line; preserve rather than drop.
            out.push_str(trimmed);
            out.push('\n');
            continue;
        };
        if let Some((name, rest)) = name_part.split_once('{') {
            // `name{existing...} value` → `name{key="v",existing...} value`
            out.push_str(&format!("{name}{{{key}=\"{value}\",{rest} {value_part}\n"));
        } else {
            out.push_str(&format!("{name_part}{{{key}=\"{value}\"}} {value_part}\n"));
        }
    }
    out
}

/// Merge several Prometheus expositions into one document. Each part is
/// `(label_value, exposition)`: its samples gain `label_key="label_value"`
/// (see [`inject_label`]) and metric families are grouped so every
/// `# TYPE` line appears exactly once, with the member samples from all
/// parts underneath it in part order. Families are emitted in sorted
/// name order, matching [`Registry::render_prometheus`]'s deterministic
/// per-registry ordering.
///
/// Label values should be distinct per part (shard ids); a repeated
/// value is not an error but yields indistinguishable duplicate samples.
pub fn merge_expositions(label_key: &str, parts: &[(String, String)]) -> String {
    // family name → (TYPE comment line, sample lines from all parts)
    let mut families: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
    for (label_value, exposition) in parts {
        let labeled = inject_label(exposition, label_key, label_value);
        let mut current: Option<String> = None;
        for line in labeled.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let family = rest.split(' ').next().unwrap_or(rest).to_string();
                families
                    .entry(family.clone())
                    .or_insert_with(|| (line.to_string(), Vec::new()));
                current = Some(family);
                continue;
            }
            if line.starts_with('#') {
                continue; // HELP and friends: dropped in the merged view.
            }
            // A sample line. Attribute it to the family the enclosing
            // TYPE block declared; a stray untyped sample gets its own
            // family keyed (and sorted) by its metric name.
            let family = current
                .clone()
                .unwrap_or_else(|| line.split(['{', ' ']).next().unwrap_or(line).to_string());
            families
                .entry(family)
                .or_insert_with(|| (String::new(), Vec::new()))
                .1
                .push(line.to_string());
        }
    }
    let mut out = String::new();
    for (_, (type_line, samples)) in families {
        if !type_line.is_empty() {
            out.push_str(&type_line);
            out.push('\n');
        }
        for s in samples {
            out.push_str(&s);
            out.push('\n');
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide registry. Library crates (machine, core) record
/// here; components that need isolated accounting (one service per
/// test, a replay service) take an explicit `Arc<Registry>` instead.
pub fn global() -> Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new())).clone()
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_prometheus_ordering_is_pinned() {
        // The exposition is a deterministic function of registry
        // contents: counters first, then gauges, then histograms, each
        // section in BTreeMap (lexicographic) name order. Fleet merging
        // relies on this — pin the exact bytes.
        let r = Registry::new();
        r.counter("b_requests_total").add(3);
        r.counter("a_errors_total").inc();
        r.gauge("z_depth").set(7);
        let h = r.histogram_with_buckets("m_latency_us", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(5000);
        let expected = "\
# TYPE a_errors_total counter\n\
a_errors_total 1\n\
# TYPE b_requests_total counter\n\
b_requests_total 3\n\
# TYPE z_depth gauge\n\
z_depth 7\n\
# TYPE m_latency_us histogram\n\
m_latency_us_bucket{le=\"10\"} 1\n\
m_latency_us_bucket{le=\"100\"} 2\n\
m_latency_us_bucket{le=\"+Inf\"} 3\n\
m_latency_us_sum 5055\n\
m_latency_us_count 3\n";
        assert_eq!(r.render_prometheus(), expected);
    }

    #[test]
    fn inject_label_rewrites_bare_and_labeled_samples() {
        let text = "# TYPE a counter\na 1\n# TYPE h histogram\nh_bucket{le=\"10\"} 2\nh_sum 9\nh_count 2\n";
        let labeled = inject_label(text, "shard", "3");
        assert_eq!(
            labeled,
            "# TYPE a counter\n\
             a{shard=\"3\"} 1\n\
             # TYPE h histogram\n\
             h_bucket{shard=\"3\",le=\"10\"} 2\n\
             h_sum{shard=\"3\"} 9\n\
             h_count{shard=\"3\"} 2\n"
        );
        // The labeled document still parses.
        let samples = parse_prometheus(&labeled).unwrap();
        assert_eq!(sample_value(&samples, "a{shard=\"3\"}"), Some(1.0));
    }

    #[test]
    fn merge_expositions_dedups_type_lines_and_keeps_part_order() {
        let r0 = Registry::new();
        r0.counter("adapt_requests_total").add(5);
        r0.gauge("adapt_queue_depth").set(2);
        let r1 = Registry::new();
        r1.counter("adapt_requests_total").add(7);
        r1.counter("adapt_forwards_total").inc();
        let merged = merge_expositions(
            "shard",
            &[
                ("0".to_string(), r0.render_prometheus()),
                ("1".to_string(), r1.render_prometheus()),
            ],
        );
        // One TYPE line per family, families sorted, same-name samples
        // from both shards disambiguated by label, shard order stable.
        assert_eq!(
            merged,
            "# TYPE adapt_forwards_total counter\n\
             adapt_forwards_total{shard=\"1\"} 1\n\
             # TYPE adapt_queue_depth gauge\n\
             adapt_queue_depth{shard=\"0\"} 2\n\
             # TYPE adapt_requests_total counter\n\
             adapt_requests_total{shard=\"0\"} 5\n\
             adapt_requests_total{shard=\"1\"} 7\n"
        );
        assert!(parse_prometheus(&merged).is_ok());
    }

    #[test]
    fn percentile_empty_is_zero_not_panic() {
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn percentile_singleton_is_the_element_at_every_q() {
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[42], q), 42.0);
        }
    }

    #[test]
    fn percentile_n2_uses_nearest_rank_not_midpoint_rounding() {
        // rank ⌈0.5·2⌉ = 1 → the FIRST element; the old
        // `((n-1) as f64 * q).round()` indexing picked the second.
        assert_eq!(percentile(&[10, 20], 0.5), 10.0);
        assert_eq!(percentile(&[10, 20], 0.51), 20.0);
        assert_eq!(percentile(&[10, 20], 0.99), 20.0);
        assert_eq!(percentile(&[10, 20], 0.0), 10.0);
        assert_eq!(percentile(&[10, 20], 1.0), 20.0);
    }

    #[test]
    fn percentile_n100_matches_textbook_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
    }

    #[test]
    fn nearest_rank_is_the_single_shared_definition() {
        // The exact-sample and histogram percentiles both defer to
        // `nearest_rank`; spot-check the rank math at the edges the
        // n=0/1/2/100 tests above pin down behaviorally.
        assert_eq!(nearest_rank(0.0, 1), 1);
        assert_eq!(nearest_rank(1.0, 1), 1);
        assert_eq!(nearest_rank(0.5, 2), 1);
        assert_eq!(nearest_rank(0.51, 2), 2);
        assert_eq!(nearest_rank(0.99, 100), 99);
        assert_eq!(nearest_rank(0.999, 100), 100);
        // Out-of-range q clamps instead of panicking or escaping [1, n].
        assert_eq!(nearest_rank(-3.0, 10), 1);
        assert_eq!(nearest_rank(7.0, 10), 10);
    }

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("adapt_test_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same cell.
        assert_eq!(r.counter("adapt_test_total").get(), 5);

        let g = r.gauge("adapt_test_depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set_max(10);
        g.set_max(3);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn noop_registry_records_nothing() {
        let r = Registry::noop();
        let c = r.counter("adapt_test_total");
        c.add(100);
        assert_eq!(c.get(), 0);
        let h = r.histogram("adapt_test_us");
        h.record(1_000);
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_us(0.5), 0.0);
        assert!(r.render_prometheus().is_empty());
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let r = Registry::new();
        let h = r.histogram_with_buckets("adapt_test_us", &[10, 100, 1_000]);
        for us in [5, 50, 500, 5_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_us(), 5_555);
        // Ranks 1..4 land in buckets ≤10, ≤100, ≤1000, +Inf.
        assert_eq!(h.percentile_us(0.25), 10.0);
        assert_eq!(h.percentile_us(0.5), 100.0);
        assert_eq!(h.percentile_us(0.75), 1_000.0);
        assert!(h.percentile_us(0.99).is_infinite());
        // The histogram estimate upper-bounds the exact sample value.
        let exact = [5u64, 50, 500, 5_000];
        for q in [0.25, 0.5, 0.75, 0.99] {
            assert!(percentile(&exact, q) <= h.percentile_us(q));
        }
    }

    #[test]
    fn span_timer_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("adapt_test_span_us");
        {
            let _span = span!(h);
            std::hint::black_box(0u64);
        }
        {
            let _span = span!(r, "adapt_test_span_us");
        }
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn prometheus_render_parses_and_exposes_values() {
        let r = Registry::new();
        r.counter("adapt_test_requests_total").add(7);
        r.gauge("adapt_test_queue_depth").set(3);
        let h = r.histogram_with_buckets("adapt_test_us", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);

        let text = r.render_prometheus();
        let samples = parse_prometheus(&text).expect("well-formed exposition");
        assert_eq!(
            sample_value(&samples, "adapt_test_requests_total"),
            Some(7.0)
        );
        assert_eq!(sample_value(&samples, "adapt_test_queue_depth"), Some(3.0));
        assert_eq!(
            sample_value(&samples, "adapt_test_us_bucket{le=\"10\"}"),
            Some(1.0)
        );
        assert_eq!(
            sample_value(&samples, "adapt_test_us_bucket{le=\"100\"}"),
            Some(2.0)
        );
        assert_eq!(
            sample_value(&samples, "adapt_test_us_bucket{le=\"+Inf\"}"),
            Some(3.0)
        );
        assert_eq!(sample_value(&samples, "adapt_test_us_count"), Some(3.0));
        assert_eq!(sample_value(&samples, "adapt_test_us_sum"), Some(555.0));
    }

    #[test]
    fn json_render_is_valid_enough_to_eyeball() {
        let r = Registry::new();
        r.counter("adapt_test_total").inc();
        r.histogram_with_buckets("adapt_test_us", &[10]).record(3);
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"adapt_test_total\":1"));
        assert!(json.contains("\"sum_us\":3"));
        assert!(json.contains("[\"+Inf\",0]"));
    }

    #[test]
    fn parse_prometheus_rejects_garbage() {
        assert!(parse_prometheus("adapt_x 1\nnot-a-sample\n").is_err());
        assert!(parse_prometheus("adapt_x notanumber\n").is_err());
        assert!(parse_prometheus("# comment only\n").unwrap().is_empty());
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("adapt_obs_selftest_total");
        c.inc();
        assert!(global().counter("adapt_obs_selftest_total").get() >= 1);
    }
}
