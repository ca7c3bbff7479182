//! In-memory spans recorded from the benchmark's side of every call, and
//! the one wrapper the benchmark puts around the program: a
//! [`TracedBackend`] that times `machine::Backend` batches.
//!
//! Nothing here reaches inside the program. A span covers a call the
//! benchmark makes or a backend call it wraps; spans rebuilt from a
//! response's `Timing` are marked `synthesized`. Each root span is one
//! search or one request, and a layer's self time is its span's duration
//! minus the union of its children's intervals.

use crate::json;
use machine::{Backend, ExecError, ExecutionConfig, JobSpec, Machine, ShotBatch, SimEngine};
use qcirc::{Circuit, OpKind};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use transpiler::TimedCircuit;

/// Layers the spans are attributed to, by the span name's prefix before
/// the first `.`. Each becomes a `<layer>.self_frac` metric.
pub const LAYERS: &[&str] = &[
    "transpiler",
    "decoy",
    "search",
    "machine",
    "loadgen",
    "admission",
    "queue",
    "service",
    "fleet",
    "epoch",
];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// The root span's id: the search or request this span belongs to.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rebuilt from a response's `Timing` rather than timed here.
    pub synthesized: bool,
}

/// Span recorder. Disabled, it only hands out ids and timestamps, so the
/// untraced path runs the same benchmark code minus the bookkeeping.
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Time spent inside the recording calls themselves.
    overhead_ns: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            t0: Instant::now(),
            enabled,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer started.
    pub fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// A fresh span id, so children can name a parent recorded later.
    pub fn alloc(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        if !self.enabled {
            return;
        }
        let t = Instant::now();
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(span);
        self.add_overhead(t);
    }

    /// Charges the time since `since` to the tracing overhead.
    pub fn add_overhead(&self, since: Instant) {
        self.overhead_ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn overhead_ns(&self) -> u64 {
        self.overhead_ns.load(Ordering::Relaxed)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock poisoned"))
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover. Overlapping children (a batch's parallel jobs,
/// say) are counted once, by the union of their clipped intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            dur - covered.min(dur)
        })
        .collect()
}

/// Per-layer self time as a share of the total root-span time, plus the
/// sum of all self times over that total (1.0 when the spans nest
/// cleanly). Layers without spans report 0.
pub fn layer_shares(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let selfs = self_times(spans);
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum();
    let mut by_layer: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for (s, &ns) in spans.iter().zip(&selfs) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        if let Some(total) = by_layer.get_mut(layer) {
            *total += ns;
        }
    }
    let denom = root_ns.max(1) as f64;
    let sum: u64 = selfs.iter().sum();
    (
        by_layer
            .into_iter()
            .map(|(l, ns)| (l, ns as f64 / denom))
            .collect(),
        sum as f64 / denom,
    )
}

/// Writes the spans as one JSON document.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\": {}, \"seed\": {seed}, \"time_unit\": \"ns\", \"spans\": [",
        json::quote(workload)
    )?;
    for (i, s) in spans.iter().enumerate() {
        write!(
            out,
            "{}\n{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start\": {}, \
             \"end\": {}, \"synthesized\": {}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.parent,
            s.request,
            json::quote(s.name),
            s.start_ns,
            s.end_ns,
            s.synthesized
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

/// Busy time and work per engine, as seen from outside the machine.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineBusy {
    pub chp_ns: u64,
    pub chp_jobs: u64,
    pub statevec_ns: u64,
    pub statevec_jobs: u64,
    /// Bytes a dense engine computes by model, not measurement: every
    /// gate reads and writes all `2^k` amplitudes of 16 bytes once per
    /// trajectory, for the job's active set of `k` qubits.
    pub statevec_bytes: f64,
    pub statevec_active_qubits: u64,
}

impl EngineBusy {
    pub fn add(&mut self, o: &EngineBusy) {
        self.chp_ns += o.chp_ns;
        self.chp_jobs += o.chp_jobs;
        self.statevec_ns += o.statevec_ns;
        self.statevec_jobs += o.statevec_jobs;
        self.statevec_bytes += o.statevec_bytes;
        self.statevec_active_qubits += o.statevec_active_qubits;
    }
}

/// A `Backend` around a pristine [`Machine`] that records a
/// `machine.batch` span per `execute_batch` and splits the batch's wall
/// time across engines by `machine::select_engine`. Results are the
/// machine's own, untouched.
pub struct TracedBackend {
    machine: Machine,
    tracer: Arc<Tracer>,
    parent: u64,
    request: u64,
    busy: Mutex<EngineBusy>,
}

impl TracedBackend {
    pub fn new(machine: Machine, tracer: Arc<Tracer>, parent: u64, request: u64) -> Self {
        TracedBackend {
            machine,
            tracer,
            parent,
            request,
            busy: Mutex::new(EngineBusy::default()),
        }
    }

    pub fn busy(&self) -> EngineBusy {
        *self.busy.lock().expect("engine busy lock poisoned")
    }

    fn account(&self, name: &'static str, start: Instant, end: Instant, jobs: &[JobSpec<'_>]) {
        let t = Instant::now();
        let mut b = EngineBusy::default();
        for job in jobs {
            match machine::engine::select_engine(
                job.timed,
                self.machine.toggles(),
                self.machine.engine_policy(),
            ) {
                SimEngine::Chp => b.chp_jobs += 1,
                SimEngine::StateVector => {
                    let (k, gates) = active_set_and_gates(job.timed);
                    b.statevec_jobs += 1;
                    b.statevec_active_qubits += k as u64;
                    b.statevec_bytes += f64::from(job.config.trajectories.max(1))
                        * gates as f64
                        * 2f64.powi(k as i32)
                        * 32.0;
                }
            }
        }
        // A batch's wall time is shared by its jobs; a mixed batch is split
        // by job count.
        let ns = end.duration_since(start).as_nanos() as u64;
        let n = (b.chp_jobs + b.statevec_jobs).max(1);
        b.chp_ns = ns * b.chp_jobs / n;
        b.statevec_ns = ns - b.chp_ns;
        self.busy.lock().expect("engine busy lock poisoned").add(&b);
        let span = Span {
            id: self.tracer.alloc(),
            parent: self.parent,
            request: self.request,
            name,
            start_ns: self.tracer.at_ns(start),
            end_ns: self.tracer.at_ns(end),
            synthesized: false,
        };
        self.tracer.add_overhead(t);
        self.tracer.push(span);
    }
}

/// The simulated qubits of a schedule (touched by anything but delays and
/// barriers, as the machine's plan compaction counts them) and its gate
/// count.
fn active_set_and_gates(timed: &TimedCircuit) -> (usize, usize) {
    let mut active = vec![false; timed.num_qubits()];
    let mut gates = 0;
    for e in timed.events() {
        if matches!(e.instr.kind, OpKind::Delay(_) | OpKind::Barrier) {
            continue;
        }
        if matches!(e.instr.kind, OpKind::Gate(_)) {
            gates += 1;
        }
        for q in &e.instr.qubits {
            active[q.index()] = true;
        }
    }
    (active.iter().filter(|&&a| a).count(), gates)
}

impl Backend for TracedBackend {
    fn execute(&self, circuit: &Circuit, config: &ExecutionConfig) -> Result<ShotBatch, ExecError> {
        let timed = transpiler::try_schedule(
            circuit,
            self.machine.device(),
            transpiler::SchedulePolicy::Alap,
        )?;
        self.execute_timed(&timed, config)
    }

    fn execute_timed(
        &self,
        timed: &TimedCircuit,
        config: &ExecutionConfig,
    ) -> Result<ShotBatch, ExecError> {
        let start = Instant::now();
        let out = Backend::execute_timed(&self.machine, timed, config);
        let end = Instant::now();
        let job = JobSpec {
            timed,
            config: *config,
        };
        self.account("machine.exec", start, end, &[job]);
        out
    }

    fn execute_batch(&self, jobs: &[JobSpec<'_>]) -> Vec<Result<ShotBatch, ExecError>> {
        let start = Instant::now();
        let out = Backend::execute_batch(&self.machine, jobs);
        let end = Instant::now();
        self.account("machine.batch", start, end, jobs);
        out
    }

    fn device_snapshot(&self) -> device::Device {
        self.machine.device().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "search.x",
            start_ns,
            end_ns,
            synthesized: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Two overlapping children cover [10, 50]; a third sticks out
            // past the parent's end and is clipped to [90, 100].
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 90, 130),
            // A grandchild only affects its own parent.
            span(5, 2, 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 20, 40, 5]);
    }

    #[test]
    fn nested_spans_sum_to_the_root() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 2, 10, 30)];
        let (shares, sum) = layer_shares(&spans);
        assert_eq!(sum, 1.0);
        assert_eq!(shares["search"], 1.0);
        assert_eq!(shares["fleet"], 0.0);
    }
}
