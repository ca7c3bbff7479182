//! Compiled execution plans, engine routing and the plan cache.
//!
//! Executing a [`TimedCircuit`] requires a
//! *compilation* step before any trajectory runs: find the active qubits,
//! compact them into dense simulator indices, extract the crosstalk
//! episodes every spectator sees from the schedule's two-qubit activity,
//! decide whether the fast terminal-measurement sampling path applies —
//! and, since the simulator-routing refactor, pick the engine
//! ([`SimEngine`]) and lower the event stream
//! into that engine's op list. None of that depends on seeds, shots or
//! trajectories — only on the circuit structure, the device calibration
//! and the noise toggles — yet the executor used to redo it for every
//! execution.
//!
//! That matters because ADAPT's search hot loop executes *structurally
//! identical* circuits over and over: every mask evaluation of a
//! neighborhood runs the same decoy with different DD pulses, and the
//! same decoy+mask circuit recurs across retries, referee runs and
//! repeated experiments. This module gives that work a first-class home:
//!
//! - [`CompiledPlan`]: the immutable output of compilation, including the
//!   lowered per-engine op stream. Dense lowering fuses consecutive
//!   one-qubit gates into single matrices (diagonal gates additionally
//!   fuse *across* Pauli channels, which are invariant under diagonal
//!   conjugation because the floor has `px == py` and gate errors
//!   depolarize uniformly) and classifies each kernel as
//!   diagonal/anti-diagonal/full so the SoA simulator can use its cheap
//!   specialized paths.
//!
//!   Every search mask is a new schedule, so a build runs for most
//!   lookups, and it is one linear pass. The walk lowers each event
//!   straight into the selected engine's stream, fusing dense one-qubit
//!   gates in place and classifying kernels once at the end. Crosstalk
//!   overlaps come from a per-qubit sweep: episodes are in start order
//!   (events are, see [`TimedCircuit::from_events`]) and a qubit's idle
//!   windows only move forward, so a cursor skips for good the episodes
//!   that ended before a window, and the scan stops at the first episode
//!   that starts after it. The overlaps of all windows share one arena,
//!   `CompiledPlan::overlaps`, and Pauli floors are memoised by
//!   (qubit, duration) within a build. The result is the same op stream,
//!   bit for bit, that testing every episode against every window gave.
//! - [`structural_hash`]: a cheap, collision-resistant fingerprint of a
//!   timed circuit covering the *full* event stream (kinds, gate
//!   parameters, operands, timestamps). The full stream is deliberate:
//!   DD pulses can activate a previously idle wire and can break the
//!   terminal-measurement property, so any "summary" key would wrongly
//!   share plans between masks.
//! - [`routing_key`]: the cache key — the structural hash mixed with the
//!   noise-toggle fingerprint and the *selected engine*. Keying the
//!   engine in means a noise-model edit that flips a circuit's routing
//!   eligibility changes the key, so a cached plan can never be replayed
//!   on the wrong engine.
//! - [`PlanCache`]: a small LRU keyed by [`routing_key`], shared by all
//!   clones of a [`Machine`](crate::Machine), with hit/miss counters so
//!   cache effectiveness is observable. Each entry also keeps the counts
//!   of its plan's last successful batch run, which later batch jobs
//!   with the same seed, shots and trajectories replay instead of
//!   simulating (see [`Backend::execute_batch`](crate::Backend::execute_batch)).

use crate::engine::{
    lower_clifford1, lower_clifford2, select_engine, CliffGate1, CliffGate2, EnginePolicy,
    SimEngine,
};
use crate::executor::{ExecError, ExecutionConfig, NoiseToggles};
use crate::noise::PauliFloor;
use device::{Calibration, Device, QubitCalibration};
use qcirc::math::{Mat2, Mat4};
use qcirc::{Counts, Gate, OpKind};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard};
use transpiler::TimedCircuit;

/// Default number of plans a [`PlanCache`] retains.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// Off-diagonal magnitudes below this classify a matrix as (anti)diagonal.
const KERNEL_CLASS_TOL: f64 = 1e-12;

/// An accumulated idle window on one compact qubit, with everything the
/// trajectory runner needs precomputed: which stochastic processes are
/// enabled, the crosstalk overlap weights, and the Pauli floor.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IdleOp {
    /// Compact qubit index.
    pub q: u16,
    /// Window length in nanoseconds.
    pub dt_ns: f64,
    /// Whether the coherent detuning process advances over this window.
    pub detune: bool,
    /// The range of [`CompiledPlan::overlaps`] holding this window's
    /// `(episode index into the trajectory's jitter table, chi·overlap/1000)`
    /// entries, one per crosstalk episode intersecting it.
    pub xtalk: Range<u32>,
    /// Stochastic T1/white-dephasing floor over the window, when enabled.
    pub floor: Option<PauliFloor>,
}

/// A one-qubit unitary after fusion, classified for the SoA fast paths.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kernel1 {
    /// General 2×2 unitary.
    Full(Mat2),
    /// Diagonal: `diag(d0, d1)`.
    Diag(qcirc::math::C64, qcirc::math::C64),
    /// Anti-diagonal: `[[0, a01], [a10, 0]]`.
    AntiDiag(qcirc::math::C64, qcirc::math::C64),
}

/// A two-qubit unitary classified for the SoA fast paths.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kernel2 {
    /// General 4×4 unitary (boxed: the named fast paths dominate, and an
    /// inline matrix would quadruple the size of every plan op).
    Full(Box<Mat4>),
    /// Controlled-X (first operand is the control).
    Cx,
    /// Controlled-Z.
    Cz,
    /// Swap.
    Swap,
}

/// One step of the dense-engine op stream.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DenseOp {
    /// Idle-noise window.
    Idle(IdleOp),
    /// Fused/classified one-qubit unitary.
    K1 { q: u16, k: Kernel1 },
    /// Classified two-qubit unitary.
    K2 { a: u16, b: u16, k: Kernel2 },
    /// Depolarizing one-qubit gate-error channel.
    Err1 { q: u16, p: f64 },
    /// Depolarizing two-qubit gate-error channel (`reps` = 3 for Swap).
    Err2 { a: u16, b: u16, p: f64, reps: u8 },
    /// Stochastic floor over a gate's duration.
    Floor { q: u16, floor: PauliFloor },
    /// Mid-circuit measurement into clbit `c` with readout-flip prob.
    Measure { q: u16, c: u16, p_flip: f64 },
    /// Qubit reset.
    Reset { q: u16 },
}

/// One step of the CHP-engine op stream. Mirrors [`DenseOp`] with gates
/// lowered to tableau Cliffords; the runner adds the toggling-frame
/// phase twirl on top (see [`crate::engine`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CliffOp {
    /// Idle-noise window.
    Idle(IdleOp),
    /// One-qubit Clifford.
    G1 { q: u16, g: CliffGate1 },
    /// Two-qubit Clifford.
    G2 { a: u16, b: u16, g: CliffGate2 },
    /// Depolarizing one-qubit gate-error channel.
    Err1 { q: u16, p: f64 },
    /// Depolarizing two-qubit gate-error channel.
    Err2 { a: u16, b: u16, p: f64, reps: u8 },
    /// Stochastic floor over a gate's duration.
    Floor { q: u16, floor: PauliFloor },
    /// Mid-circuit measurement.
    Measure { q: u16, c: u16, p_flip: f64 },
    /// Qubit reset.
    Reset { q: u16 },
}

/// The seed/shot-independent part of an execution, computed once per
/// (circuit structure, noise toggles, engine policy): qubit compaction,
/// crosstalk episodes, terminal-measurement classification, the selected
/// engine and its lowered op stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    /// Physical qubit → compact simulator index (None when inactive).
    pub compact_of: Vec<Option<usize>>,
    /// Compact simulator index → physical qubit.
    pub phys_of: Vec<u32>,
    /// Per compact qubit: `(start_ns, end_ns, chi rad/µs)` crosstalk
    /// episodes from concurrently firing two-qubit gates, in start order.
    pub xtalk: Vec<Vec<(f64, f64, f64)>>,
    /// Whether the fast measurement-terminated sampling path applies
    /// (no gate/reset follows a measurement on the same qubit).
    pub terminal_measurements: bool,
    /// The engine this plan is lowered for. Baked into [`routing_key`],
    /// so a cached plan can never run on the other engine.
    pub engine: SimEngine,
    /// Classical register width (for `Counts`).
    pub(crate) num_clbits: usize,
    /// Deferred terminal measurements: `(compact qubit, clbit, p_flip)`.
    pub(crate) deferred: Vec<(u16, u16, f64)>,
    /// Whether trajectories sample per-qubit detunings.
    pub(crate) needs_detuning: bool,
    /// Whether trajectories sample per-episode crosstalk jitter.
    pub(crate) needs_jitter: bool,
    /// The overlap arena: every idle window's crosstalk entries, back to
    /// back in op order; each [`IdleOp::xtalk`] is a range into it.
    pub(crate) overlaps: Vec<(u32, f64)>,
    /// Dense-engine op stream (empty when routed to CHP).
    pub(crate) dense: Vec<DenseOp>,
    /// CHP-engine op stream (empty when routed dense).
    pub(crate) cliff: Vec<CliffOp>,
}

/// Engine-neutral lowering step, specialized into [`DenseOp`] or
/// [`CliffOp`] as soon as it is emitted.
enum Step {
    Idle(IdleOp),
    Gate1 { q: u16, g: Gate },
    Gate2 { a: u16, b: u16, g: Gate },
    Err1 { q: u16, p: f64 },
    Err2 { a: u16, b: u16, p: f64, reps: u8 },
    Floor { q: u16, floor: PauliFloor },
    Measure { q: u16, c: u16, p_flip: f64 },
    Reset { q: u16 },
}

impl CompiledPlan {
    /// Compiles a timed circuit against a device under the given noise
    /// toggles and routing policy: active-set compaction, crosstalk
    /// episode extraction, terminal-measurement analysis, engine
    /// selection and op-stream lowering.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::TooManyActiveQubits`] when the circuit
    /// touches more qubits than the simulators support. The cap applies
    /// uniformly to both engines: routing must never change which
    /// circuits are accepted.
    pub fn build(
        timed: &TimedCircuit,
        device: &Device,
        toggles: &NoiseToggles,
        policy: EnginePolicy,
    ) -> Result<CompiledPlan, ExecError> {
        Self::build_for(
            timed,
            device,
            toggles,
            select_engine(timed, toggles, policy),
        )
    }

    /// [`CompiledPlan::build`] for an engine already selected.
    fn build_for(
        timed: &TimedCircuit,
        device: &Device,
        toggles: &NoiseToggles,
        engine: SimEngine,
    ) -> Result<CompiledPlan, ExecError> {
        let n_phys = timed.num_qubits();
        let mut active = vec![false; n_phys];
        for e in timed.events() {
            if !matches!(e.instr.kind, OpKind::Delay(_) | OpKind::Barrier) {
                for q in &e.instr.qubits {
                    active[q.index()] = true;
                }
            }
        }
        let phys_of: Vec<u32> = active
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| i as u32)
            .collect();
        if phys_of.len() > statevec::MAX_QUBITS {
            return Err(ExecError::TooManyActiveQubits {
                active: phys_of.len(),
                limit: statevec::MAX_QUBITS,
            });
        }
        let mut compact_of = vec![None; n_phys];
        for (c, &p) in phys_of.iter().enumerate() {
            compact_of[p as usize] = Some(c);
        }

        // Crosstalk episodes per active qubit, in event (start) order.
        let topo = device.topology();
        let cal = device.calibration();
        let mut xtalk = vec![Vec::new(); phys_of.len()];
        for (start, end, a, b) in timed.two_qubit_activity() {
            let Some(link) = topo.link_between(a, b) else {
                continue; // uncoupled 2q gates carry no spectator crosstalk
            };
            for (ci, &p) in phys_of.iter().enumerate() {
                let chi = cal.crosstalk(p, link);
                if chi != 0.0 {
                    xtalk[ci].push((start, end, chi));
                }
            }
        }

        let mut plan = CompiledPlan {
            compact_of,
            phys_of,
            xtalk,
            terminal_measurements: is_terminal_measured(timed),
            engine,
            num_clbits: timed.num_clbits(),
            deferred: Vec::new(),
            needs_detuning: toggles.idle_coherent,
            needs_jitter: toggles.idle_crosstalk,
            overlaps: Vec::new(),
            dense: Vec::new(),
            cliff: Vec::new(),
        };
        plan.lower(timed, device, toggles);
        Ok(plan)
    }

    /// Walks the event stream once, maintaining each qubit's frame time,
    /// and lowers every event straight into the selected engine's op
    /// stream. All timing is structural, so the entire walk happens at
    /// compile time; trajectories just replay the op list.
    fn lower(&mut self, timed: &TimedCircuit, device: &Device, toggles: &NoiseToggles) {
        let cal = device.calibration();
        let mut st = Lowering::new(self.phys_of.len());
        for e in timed.events() {
            let compact = |i: usize| self.compact_of[e.instr.qubits[i].index()].expect("active");
            match &e.instr.kind {
                OpKind::Gate(g) => {
                    let pair = [compact(0), e.instr.qubits.get(1).map_or(0, |_| compact(1))];
                    let qs = &pair[..e.instr.qubits.len()];
                    for &q in qs {
                        st.idle(self, toggles, cal, q, e.start_ns);
                    }
                    match *qs {
                        [q] => {
                            let phys = self.phys_of[q];
                            st.push(self, Step::Gate1 { q: q as u16, g: *g });
                            let dur = device.gate_duration(*g, &[phys]);
                            if dur > 0.0 && toggles.gate_err {
                                let p = cal.qubit(phys).err_1q;
                                st.push(self, Step::Err1 { q: q as u16, p });
                            }
                        }
                        [a, b] => {
                            let (a16, b16) = (a as u16, b as u16);
                            st.push(
                                self,
                                Step::Gate2 {
                                    a: a16,
                                    b: b16,
                                    g: *g,
                                },
                            );
                            if toggles.gate_err {
                                let p = device
                                    .cnot_error(self.phys_of[a], self.phys_of[b])
                                    .unwrap_or(device.profile().cnot_err_mean);
                                // SWAP = 3 CNOTs worth of error opportunities.
                                let reps = if matches!(g, Gate::Swap) { 3 } else { 1 };
                                st.push(
                                    self,
                                    Step::Err2 {
                                        a: a16,
                                        b: b16,
                                        p,
                                        reps,
                                    },
                                );
                            }
                        }
                        _ => unreachable!("gates are one- or two-qubit"),
                    }
                    // Decoherence does not pause during gates: the T1/white
                    // floor also applies over the gate duration (otherwise
                    // dense DD trains would artificially shield qubits from
                    // relaxation).
                    let dur = e.end_ns - e.start_ns;
                    if dur > 0.0 && toggles.idle_floor {
                        for &q in qs {
                            let floor = st.floors.get(cal.qubit(self.phys_of[q]), q, dur);
                            st.push(self, Step::Floor { q: q as u16, floor });
                        }
                    }
                    for &q in qs {
                        st.frame[q] = e.end_ns;
                    }
                }
                OpKind::Measure(c) => {
                    let q = compact(0);
                    st.idle(self, toggles, cal, q, e.start_ns);
                    st.frame[q] = e.end_ns;
                    let p_flip = if toggles.readout_err {
                        cal.qubit(self.phys_of[q]).err_readout
                    } else {
                        0.0
                    };
                    let (q, c) = (q as u16, c.index() as u16);
                    if self.terminal_measurements {
                        self.deferred.push((q, c, p_flip));
                    } else {
                        st.push(self, Step::Measure { q, c, p_flip });
                    }
                }
                OpKind::Reset => {
                    let q = compact(0);
                    st.idle(self, toggles, cal, q, e.start_ns);
                    st.push(self, Step::Reset { q: q as u16 });
                    st.frame[q] = e.end_ns;
                }
                OpKind::Delay(_) | OpKind::Barrier => {}
            }
        }
        // Fused products (e.g. RZ·SX·RZ → full 2×2) classify on their
        // final shape, not their parts.
        for op in &mut self.dense {
            if let DenseOp::K1 { k, .. } = op {
                if let Kernel1::Full(m) = *k {
                    *k = classify1(m);
                }
            }
        }
    }

    /// Number of active (simulated) qubits.
    pub fn active_qubits(&self) -> usize {
        self.phys_of.len()
    }

    /// Length of the op stream of the plan's engine.
    pub(crate) fn op_count(&self) -> usize {
        match self.engine {
            SimEngine::Chp => self.cliff.len(),
            SimEngine::StateVector => self.dense.len(),
        }
    }
}

/// One build's walk state beside the plan being filled, per compact
/// qubit: the frame time, the crosstalk sweep cursor and the dense fusion
/// slot; plus the floor memo.
struct Lowering {
    frame: Vec<f64>,
    cursor: Vec<usize>,
    /// Index into `CompiledPlan::dense` of the qubit's open `K1` kernel,
    /// and what has happened on the qubit since.
    slot: Vec<Option<(usize, FuseState)>>,
    floors: FloorMemo,
}

impl Lowering {
    fn new(k: usize) -> Self {
        Lowering {
            frame: vec![0.0; k],
            cursor: vec![0; k],
            slot: vec![None; k],
            floors: FloorMemo(Vec::new()),
        }
    }

    /// Emits qubit `q`'s idle window up to `until`, if any: its overlaps go
    /// to the plan's arena via the crosstalk sweep.
    fn idle(
        &mut self,
        plan: &mut CompiledPlan,
        toggles: &NoiseToggles,
        cal: &Calibration,
        q: usize,
        until: f64,
    ) {
        let t0 = self.frame[q];
        let dt = until - t0;
        if dt <= 1e-9 {
            self.frame[q] = t0.max(until);
            return;
        }
        let first = plan.overlaps.len() as u32;
        if toggles.idle_crosstalk {
            // The per-trajectory jitter factor is applied at run time by
            // episode index.
            let eps = &plan.xtalk[q];
            sweep_overlaps(eps, &mut self.cursor[q], t0, until, &mut plan.overlaps);
        }
        let xtalk = first..plan.overlaps.len() as u32;
        let floor = toggles
            .idle_floor
            .then(|| self.floors.get(cal.qubit(plan.phys_of[q]), q, dt));
        if toggles.idle_coherent || floor.is_some() || !xtalk.is_empty() {
            let idle = IdleOp {
                q: q as u16,
                dt_ns: dt,
                detune: toggles.idle_coherent,
                xtalk,
                floor,
            };
            self.push(plan, Step::Idle(idle));
        }
        self.frame[q] = until;
    }

    /// Appends one step to the plan's engine stream. On the dense stream
    /// one-qubit gates fuse into the qubit's open kernel in place (see
    /// [`FuseState`]); classification waits until the walk ends. CHP gates
    /// are guaranteed lowerable: engine selection already verified
    /// [`crate::engine::clifford_lowerable`] on the same event stream.
    fn push(&mut self, plan: &mut CompiledPlan, step: Step) {
        if plan.engine == SimEngine::Chp {
            plan.cliff.push(match step {
                Step::Idle(idle) => CliffOp::Idle(idle),
                Step::Gate1 { q, g } => CliffOp::G1 {
                    q,
                    g: lower_clifford1(g).expect("checked by clifford_lowerable"),
                },
                Step::Gate2 { a, b, g } => CliffOp::G2 {
                    a,
                    b,
                    g: lower_clifford2(g).expect("checked by clifford_lowerable"),
                },
                Step::Err1 { q, p } => CliffOp::Err1 { q, p },
                Step::Err2 { a, b, p, reps } => CliffOp::Err2 { a, b, p, reps },
                Step::Floor { q, floor } => CliffOp::Floor { q, floor },
                Step::Measure { q, c, p_flip } => CliffOp::Measure { q, c, p_flip },
                Step::Reset { q } => CliffOp::Reset { q },
            });
            return;
        }
        let ops = &mut plan.dense;
        // A Pauli channel or an idle window (a diagonal RZ plus maybe a
        // Pauli floor) leaves the qubit's kernel open to diagonal gates.
        let mut pauli_only = |q: u16| {
            if let Some((idx, _)) = self.slot[q as usize] {
                self.slot[q as usize] = Some((idx, FuseState::PauliOnly));
            }
        };
        let op = match step {
            Step::Gate1 { q, g } => {
                let m = g.unitary1().expect("one-qubit gate has a 2x2 unitary");
                let fusible = match self.slot[q as usize] {
                    Some((idx, FuseState::Clean)) => Some(idx),
                    Some((idx, FuseState::PauliOnly)) if is_diagonal(&m) => Some(idx),
                    _ => None,
                };
                if let Some(idx) = fusible {
                    if let DenseOp::K1 {
                        k: Kernel1::Full(prev),
                        ..
                    } = &mut ops[idx]
                    {
                        *prev = m * *prev;
                        return;
                    }
                }
                self.slot[q as usize] = Some((ops.len(), FuseState::Clean));
                DenseOp::K1 {
                    q,
                    k: Kernel1::Full(m),
                }
            }
            Step::Gate2 { a, b, g } => {
                self.slot[a as usize] = None;
                self.slot[b as usize] = None;
                let k = match g {
                    Gate::CX => Kernel2::Cx,
                    Gate::CZ => Kernel2::Cz,
                    Gate::Swap => Kernel2::Swap,
                    _ => Kernel2::Full(Box::new(
                        g.unitary2().expect("two-qubit gate has a 4x4 unitary"),
                    )),
                };
                DenseOp::K2 { a, b, k }
            }
            Step::Idle(idle) => {
                pauli_only(idle.q);
                DenseOp::Idle(idle)
            }
            Step::Err1 { q, p } => {
                pauli_only(q);
                DenseOp::Err1 { q, p }
            }
            Step::Err2 { a, b, p, reps } => {
                pauli_only(a);
                pauli_only(b);
                DenseOp::Err2 { a, b, p, reps }
            }
            Step::Floor { q, floor } => {
                pauli_only(q);
                DenseOp::Floor { q, floor }
            }
            Step::Measure { q, c, p_flip } => {
                self.slot[q as usize] = None;
                DenseOp::Measure { q, c, p_flip }
            }
            Step::Reset { q } => {
                self.slot[q as usize] = None;
                DenseOp::Reset { q }
            }
        };
        ops.push(op);
    }
}

/// Slots of the [`FloorMemo`] table.
const FLOOR_MEMO_SLOTS: usize = 128;

/// [`PauliFloor::for_idle`] memoised within one build by (compact qubit,
/// duration bits), in a direct-mapped table: durations repeat across DD
/// windows and gates (95% of lookups hit on the search workloads), equal
/// inputs give equal bits, and a slot collision only costs a
/// recomputation. The table is allocated on first use, so a build with
/// the floor toggled off never makes it.
struct FloorMemo(Vec<Option<(usize, u64, PauliFloor)>>);

impl FloorMemo {
    fn get(&mut self, cal: &QubitCalibration, q: usize, dt: f64) -> PauliFloor {
        const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
        if self.0.is_empty() {
            self.0 = vec![None; FLOOR_MEMO_SLOTS];
        }
        let bits = dt.to_bits();
        let slot = ((bits ^ (q as u64).wrapping_mul(MIX)).wrapping_mul(MIX)
            >> (64 - FLOOR_MEMO_SLOTS.trailing_zeros())) as usize;
        match self.0[slot] {
            Some((sq, sb, floor)) if (sq, sb) == (q, bits) => floor,
            _ => {
                let floor = PauliFloor::for_idle(cal, dt);
                self.0[slot] = Some((q, bits, floor));
                floor
            }
        }
    }
}

/// Appends `(episode, chi·overlap/1000)` to `out` for every episode of
/// `eps` that overlaps the window `[t0, t1]`, in episode order.
///
/// `eps` must be start-sorted, and a qubit's windows never start earlier
/// than its previous one ended, so `cursor` skips for good every leading
/// episode that ended by `t0`, and the scan stops at the first episode
/// that starts at or after `t1`. Ends need not be monotone: an episode
/// past the cursor that already ended gets the same overlap test as in a
/// full scan, and fails it. The output is bit-identical to testing every
/// episode.
fn sweep_overlaps(
    eps: &[(f64, f64, f64)],
    cursor: &mut usize,
    t0: f64,
    t1: f64,
    out: &mut Vec<(u32, f64)>,
) {
    while eps.get(*cursor).is_some_and(|&(_, e, _)| e <= t0) {
        *cursor += 1;
    }
    for (ei, &(s, e, chi)) in eps.iter().enumerate().skip(*cursor) {
        if s >= t1 {
            break;
        }
        let overlap = (e.min(t1) - s.max(t0)).max(0.0);
        if overlap > 0.0 {
            out.push((ei as u32, chi * overlap / 1000.0));
        }
    }
}

/// Fusion bookkeeping: what has happened on a qubit since its last
/// fusible one-qubit unitary.
#[derive(Clone, Copy, PartialEq)]
enum FuseState {
    /// Nothing — any unitary may fuse onto the slot.
    Clean,
    /// Only Pauli channels / diagonal idle phases — a *diagonal* unitary
    /// may still fuse backward across them (diagonal conjugation leaves
    /// the uniform-XY and depolarizing channels invariant, and commutes
    /// exactly with the idle `RZ`).
    PauliOnly,
}

fn is_diagonal(m: &Mat2) -> bool {
    m.at(0, 1).norm_sqr() < KERNEL_CLASS_TOL * KERNEL_CLASS_TOL
        && m.at(1, 0).norm_sqr() < KERNEL_CLASS_TOL * KERNEL_CLASS_TOL
}

fn is_antidiagonal(m: &Mat2) -> bool {
    m.at(0, 0).norm_sqr() < KERNEL_CLASS_TOL * KERNEL_CLASS_TOL
        && m.at(1, 1).norm_sqr() < KERNEL_CLASS_TOL * KERNEL_CLASS_TOL
}

fn classify1(m: Mat2) -> Kernel1 {
    if is_diagonal(&m) {
        Kernel1::Diag(m.at(0, 0), m.at(1, 1))
    } else if is_antidiagonal(&m) {
        Kernel1::AntiDiag(m.at(0, 1), m.at(1, 0))
    } else {
        Kernel1::Full(m)
    }
}

/// True when no gate/reset follows a measurement on the same qubit.
fn is_terminal_measured(timed: &TimedCircuit) -> bool {
    let mut measured = vec![false; timed.num_qubits()];
    for e in timed.events() {
        match e.instr.kind {
            OpKind::Measure(_) => measured[e.instr.qubits[0].index()] = true,
            OpKind::Gate(_) | OpKind::Reset => {
                if e.instr.qubits.iter().any(|q| measured[q.index()]) {
                    return false;
                }
            }
            OpKind::Delay(_) | OpKind::Barrier => {}
        }
    }
    true
}

/// SplitMix64-style avalanche combiner for the structural hash.
pub(crate) struct StructuralHasher {
    state: u64,
}

impl StructuralHasher {
    pub(crate) fn new() -> Self {
        StructuralHasher {
            state: 0x5851_F42D_4C95_7F2D,
        }
    }

    pub(crate) fn mix(&mut self, v: u64) {
        let mut z = self.state ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.state = z ^ (z >> 31);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.state
    }
}

/// Fingerprints the complete structure of a timed circuit: register
/// sizes plus, for every event, its kind, gate (with exact parameter
/// bits), operands and start/end timestamps (exact `f64` bits).
///
/// Two circuits with equal hashes are — up to the negligible 64-bit
/// collision probability — structurally identical, so they compile to
/// the same [`CompiledPlan`] on a given device. The hash deliberately
/// covers events that do *not* affect the plan (e.g. exact rotation
/// angles): over-keying only costs spurious misses, while under-keying
/// would silently execute the wrong plan.
pub fn structural_hash(timed: &TimedCircuit) -> u64 {
    let mut h = StructuralHasher::new();
    h.mix(timed.num_qubits() as u64);
    h.mix(timed.num_clbits() as u64);
    for e in timed.events() {
        match &e.instr.kind {
            OpKind::Gate(g) => {
                h.mix(1);
                mix_gate(&mut h, g);
            }
            OpKind::Measure(c) => {
                h.mix(2);
                h.mix(c.index() as u64);
            }
            OpKind::Reset => h.mix(3),
            OpKind::Delay(ns) => {
                h.mix(4);
                h.mix(ns.to_bits());
            }
            OpKind::Barrier => h.mix(5),
        }
        h.mix(e.instr.qubits.len() as u64);
        for q in &e.instr.qubits {
            h.mix(q.index() as u64);
        }
        h.mix(e.start_ns.to_bits());
        h.mix(e.end_ns.to_bits());
    }
    h.finish()
}

fn mix_gate(h: &mut StructuralHasher, g: &Gate) {
    // The mnemonic is unique per variant; parameterized variants also
    // mix their exact angle bits.
    let mut word = 0u64;
    for b in g.name().bytes() {
        word = word << 8 | b as u64;
    }
    h.mix(word);
    match g {
        Gate::RX(a) | Gate::RY(a) | Gate::RZ(a) | Gate::P(a) => h.mix(a.to_bits()),
        Gate::U(a, b, c) => {
            h.mix(a.to_bits());
            h.mix(b.to_bits());
            h.mix(c.to_bits());
        }
        _ => {}
    }
}

fn toggles_fingerprint(t: &NoiseToggles) -> u64 {
    (t.gate_err as u64)
        | (t.readout_err as u64) << 1
        | (t.idle_coherent as u64) << 2
        | (t.idle_crosstalk as u64) << 3
        | (t.idle_floor as u64) << 4
        | (t.coherent_twirl as u64) << 5
}

/// The plan-cache key: [`structural_hash`] mixed with the noise-toggle
/// fingerprint and the engine the circuit routes to under `policy`.
///
/// Keying the toggles in is required because lowering now bakes channel
/// probabilities into the op stream; keying the *engine* in is the
/// routing-determinism contract — a noise-model edit that flips a
/// circuit's CHP eligibility (e.g. disabling
/// [`NoiseToggles::coherent_twirl`] while coherent idling is on) changes
/// the key, so stale cached plans can never cross engines.
pub fn routing_key(timed: &TimedCircuit, toggles: &NoiseToggles, policy: EnginePolicy) -> u64 {
    key_for(timed, toggles, select_engine(timed, toggles, policy))
}

/// [`routing_key`] for an engine already selected.
fn key_for(timed: &TimedCircuit, toggles: &NoiseToggles, engine: SimEngine) -> u64 {
    let mut h = StructuralHasher::new();
    h.mix(structural_hash(timed));
    h.mix(toggles_fingerprint(toggles));
    h.mix(match engine {
        SimEngine::StateVector => 1,
        SimEngine::Chp => 2,
    });
    h.finish()
}

/// Cache effectiveness counters, observable via
/// [`PlanCache::stats`] / [`Machine::plan_cache_stats`](crate::Machine::plan_cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Plans evicted to respect the capacity bound.
    pub evictions: u64,
    /// Plans currently resident.
    pub len: usize,
    /// Maximum resident plans.
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Hit fraction of all lookups (1.0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What a job's counts depend on besides its compiled plan: the seed,
/// shot and trajectory counts of its [`ExecutionConfig`]. `threads` is
/// left out, because counts are thread-count invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    seed: u64,
    shots: u64,
    trajectories: u32,
}

impl RunKey {
    pub(crate) fn of(config: &ExecutionConfig) -> Self {
        RunKey {
            seed: config.seed,
            shots: config.shots,
            trajectories: config.trajectories,
        }
    }
}

/// One resident plan.
#[derive(Debug)]
struct Entry {
    plan: Arc<CompiledPlan>,
    /// Last-use stamp backing the LRU policy.
    stamp: u64,
    /// The counts of the plan's last successful batch run, with its key.
    replay: Option<(RunKey, Counts)>,
}

#[derive(Debug)]
struct CacheInner {
    /// routing key → resident plan.
    map: HashMap<u64, Entry>,
    /// Monotonic use counter backing the LRU policy.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A thread-safe LRU cache of [`CompiledPlan`]s keyed by
/// [`routing_key`].
///
/// Capacity is small (default [`DEFAULT_PLAN_CACHE_CAPACITY`]) because
/// the working set is small: a search touches one decoy circuit times a
/// handful of DD masks per neighborhood. Eviction scans for the least
/// recently used entry — O(capacity), trivial at this size.
///
/// Compilation *failures* are never cached: an oversized circuit errors
/// on every lookup, exactly as it did without the cache.
///
/// Each entry also holds one replay slot: the counts of the plan's last
/// successful batch run and that run's seed, shots and trajectories. A
/// slot lives and dies with its plan, so the memory it holds is bounded
/// by the capacity too; [`PlanCache::clear`] drops every slot.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl PlanCache {
    /// Creates a cache retaining at most `capacity` plans (min 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Returns the plan for `timed` under the given noise toggles and
    /// routing policy, compiling (and caching) on a miss, with the
    /// plan's [`routing_key`], which names its replay slot.
    ///
    /// # Errors
    ///
    /// Propagates [`CompiledPlan::build`] failures; errors are not
    /// cached.
    pub(crate) fn lookup(
        &self,
        timed: &TimedCircuit,
        device: &Device,
        toggles: &NoiseToggles,
        policy: EnginePolicy,
    ) -> Result<(u64, Arc<CompiledPlan>), ExecError> {
        let m = crate::metrics::metrics();
        let engine = select_engine(timed, toggles, policy);
        let key = key_for(timed, toggles, engine);
        {
            let mut inner = self.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.stamp = tick;
                let plan = Arc::clone(&entry.plan);
                inner.hits += 1;
                m.plan_hits.inc();
                return Ok((key, plan));
            }
            inner.misses += 1;
            m.plan_misses.inc();
        }
        // Compile outside the lock: concurrent batch workers missing on
        // different circuits must not serialize on each other's compiles.
        let plan = Arc::new(CompiledPlan::build_for(timed, device, toggles, engine)?);
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&key) {
            if let Some(&lru) = inner
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(k, _)| k)
            {
                inner.map.remove(&lru);
                inner.evictions += 1;
                m.plan_evictions.inc();
            }
        }
        inner.map.insert(
            key,
            Entry {
                plan: Arc::clone(&plan),
                stamp: tick,
                replay: None,
            },
        );
        Ok((key, plan))
    }

    /// The counts kept in `key`'s replay slot, if the plan is resident
    /// and its last successful batch run was `run`.
    pub(crate) fn replay(&self, key: u64, run: RunKey) -> Option<Counts> {
        match &self.lock().map.get(&key)?.replay {
            Some((kept, counts)) if *kept == run => Some(counts.clone()),
            _ => None,
        }
    }

    /// Keeps `counts` as the result of `run` in `key`'s replay slot. A
    /// plan evicted since its lookup gets no slot back.
    pub(crate) fn remember(&self, key: u64, run: RunKey, counts: &Counts) {
        if let Some(entry) = self.lock().map.get_mut(&key) {
            entry.replay = Some((run, counts.clone()));
        }
    }

    /// The cache map and counters are always internally consistent (no
    /// invariants span a panic point), so recover from poisoning instead
    /// of cascading a worker panic into every later execution.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.lock();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }

    /// Drops every cached plan and resets the counters.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.tick = 0;
        inner.hits = 0;
        inner.misses = 0;
        inner.evictions = 0;
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qcirc::Circuit;
    use transpiler::{try_schedule, SchedulePolicy};

    /// The full scan [`sweep_overlaps`] replaces: every episode tested
    /// against the window.
    fn naive_overlaps(eps: &[(f64, f64, f64)], t0: f64, t1: f64) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        for (ei, &(s, e, chi)) in eps.iter().enumerate() {
            let overlap = (e.min(t1) - s.max(t0)).max(0.0);
            if overlap > 0.0 {
                out.push((ei as u32, chi * overlap / 1000.0));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sweep_matches_naive_scan(
            raw in prop::collection::vec((0.0..1000.0f64, 0.0..300.0f64, -3.0..3.0f64), 0..40),
            extra in prop::collection::vec(0.0..1400.0f64, 0..20),
            steps in prop::collection::vec((0usize..4, 0usize..3), 1..40),
        ) {
            // Start-sorted episodes with independently drawn lengths, so
            // their ends are not monotone.
            let mut eps: Vec<(f64, f64, f64)> =
                raw.iter().map(|&(s, len, chi)| (s, s + len, chi)).collect();
            eps.sort_by(|a, b| a.0.total_cmp(&b.0));
            // Window edges: every episode start and end, so windows touch
            // episodes exactly, plus free points.
            let mut times: Vec<f64> = eps.iter().flat_map(|&(s, e, _)| [s, e]).chain(extra).collect();
            times.sort_by(f64::total_cmp);
            // Walk forward: each window spans `len` edges (0 = zero
            // length) and the next starts `gap` edges after it ends (0 =
            // touching).
            let (mut i, mut cursor, mut out) = (0, 0, Vec::new());
            for (len, gap) in steps {
                let (Some(&t0), Some(&t1)) = (times.get(i), times.get(i + len)) else { break };
                let first = out.len();
                sweep_overlaps(&eps, &mut cursor, t0, t1, &mut out);
                let want = naive_overlaps(&eps, t0, t1);
                let bits = |v: &[(u32, f64)]| v.iter().map(|&(ei, x)| (ei, x.to_bits())).collect::<Vec<_>>();
                prop_assert_eq!(bits(&out[first..]), bits(&want), "window [{}, {}]", t0, t1);
                i += len + gap;
            }
        }
    }

    #[test]
    fn floor_memo_returns_for_idle_bits() {
        // More distinct keys than slots, each asked for three times, so
        // hits, misses and slot collisions all occur.
        let dev = Device::ibmq_toronto(3);
        let mut memo = FloorMemo(Vec::new());
        for _ in 0..3 {
            for q in 0..5usize {
                let cal = dev.qubit(q as u32);
                for i in 0..100 {
                    let dt = 35.5 + 0.1 * f64::from(i) * f64::from(i);
                    let got = memo.get(cal, q, dt);
                    let want = PauliFloor::for_idle(cal, dt);
                    let bits = |f: PauliFloor| [f.px.to_bits(), f.py.to_bits(), f.pz.to_bits()];
                    assert_eq!(bits(got), bits(want), "qubit {q}, dt {dt}");
                }
            }
        }
    }

    fn timed_of(c: &Circuit, dev: &Device) -> TimedCircuit {
        try_schedule(c, dev, SchedulePolicy::Alap).unwrap()
    }

    fn build_default(timed: &TimedCircuit, dev: &Device) -> CompiledPlan {
        CompiledPlan::build(timed, dev, &NoiseToggles::default(), EnginePolicy::Auto).unwrap()
    }

    #[test]
    fn structural_hash_is_stable_and_sensitive() {
        let dev = Device::ibmq_rome(3);
        let mut a = Circuit::new(2);
        a.h(0).cx(0, 1).measure_all();
        let ta = timed_of(&a, &dev);
        assert_eq!(structural_hash(&ta), structural_hash(&ta.clone()));

        // A different gate on the same wires at the same times hashes
        // differently.
        let mut b = Circuit::new(2);
        b.x(0).cx(0, 1).measure_all();
        let tb = timed_of(&b, &dev);
        assert_ne!(structural_hash(&ta), structural_hash(&tb));

        // Rotation parameter changes are structural too.
        let mut r1 = Circuit::new(1);
        r1.rx(0.5, 0).measure(0, 0);
        let mut r2 = Circuit::new(1);
        r2.rx(0.25, 0).measure(0, 0);
        assert_ne!(
            structural_hash(&timed_of(&r1, &dev)),
            structural_hash(&timed_of(&r2, &dev))
        );
    }

    #[test]
    fn hash_covers_register_sizes() {
        let t1 = TimedCircuit::from_events(3, 1, Vec::new());
        let t2 = TimedCircuit::from_events(4, 1, Vec::new());
        let t3 = TimedCircuit::from_events(3, 2, Vec::new());
        assert_ne!(structural_hash(&t1), structural_hash(&t2));
        assert_ne!(structural_hash(&t1), structural_hash(&t3));
    }

    #[test]
    fn plan_matches_legacy_compile_semantics() {
        let dev = Device::ibmq_toronto(4);
        let mut c = Circuit::new(27);
        c.h(12).cx(12, 13).measure(12, 0).measure(13, 1);
        let timed = timed_of(&c, &dev);
        let plan = build_default(&timed, &dev);
        assert_eq!(plan.active_qubits(), 2);
        assert_eq!(plan.phys_of, vec![12, 13]);
        assert_eq!(plan.compact_of[12], Some(0));
        assert_eq!(plan.compact_of[13], Some(1));
        assert_eq!(plan.compact_of[0], None);
        assert!(plan.terminal_measurements);
    }

    #[test]
    fn clifford_circuit_routes_to_chp_and_back() {
        let dev = Device::ibmq_rome(3);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let timed = timed_of(&c, &dev);
        let auto = build_default(&timed, &dev);
        assert_eq!(auto.engine, SimEngine::Chp);
        assert!(auto.dense.is_empty());
        assert!(!auto.cliff.is_empty());

        let forced = CompiledPlan::build(
            &timed,
            &dev,
            &NoiseToggles::default(),
            EnginePolicy::ForceStateVector,
        )
        .unwrap();
        assert_eq!(forced.engine, SimEngine::StateVector);
        assert!(!forced.dense.is_empty());
        assert!(forced.cliff.is_empty());

        // Non-Clifford circuits route dense even under Auto.
        let mut t = Circuit::new(1);
        t.h(0).t(0).measure(0, 0);
        let plan = build_default(&timed_of(&t, &dev), &dev);
        assert_eq!(plan.engine, SimEngine::StateVector);
    }

    #[test]
    fn dense_lowering_fuses_one_qubit_runs() {
        // RZ·SX·RZ chains at identical timestamps (the transpiler's
        // canonical 1q decomposition shape) must fuse to one kernel.
        let dev = Device::ibmq_rome(3);
        let mut c = Circuit::new(1);
        c.rz(0.3, 0).sx(0).rz(0.7, 0).measure(0, 0);
        let timed = timed_of(&c, &dev);
        let plan = CompiledPlan::build(
            &timed,
            &dev,
            &NoiseToggles::none(),
            EnginePolicy::ForceStateVector,
        )
        .unwrap();
        let k1s = plan
            .dense
            .iter()
            .filter(|op| matches!(op, DenseOp::K1 { .. }))
            .count();
        assert_eq!(
            k1s, 1,
            "RZ·SX·RZ must fuse into one kernel: {:?}",
            plan.dense
        );
    }

    #[test]
    fn diagonal_gates_fuse_across_pauli_channels() {
        // With gate errors on, SX is followed by an Err1 channel; the
        // trailing RZ (diagonal) must still fuse backward across it.
        let dev = Device::ibmq_rome(3);
        let mut c = Circuit::new(1);
        c.sx(0).rz(0.7, 0).measure(0, 0);
        let timed = timed_of(&c, &dev);
        let toggles = NoiseToggles {
            gate_err: true,
            ..NoiseToggles::none()
        };
        let plan =
            CompiledPlan::build(&timed, &dev, &toggles, EnginePolicy::ForceStateVector).unwrap();
        let k1s = plan
            .dense
            .iter()
            .filter(|op| matches!(op, DenseOp::K1 { .. }))
            .count();
        assert_eq!(k1s, 1, "diagonal must fuse across Err1: {:?}", plan.dense);
        // A non-diagonal follow-up must NOT fuse across the channel.
        let mut c2 = Circuit::new(1);
        c2.sx(0).sx(0).measure(0, 0);
        let plan2 = CompiledPlan::build(
            &timed_of(&c2, &dev),
            &dev,
            &toggles,
            EnginePolicy::ForceStateVector,
        )
        .unwrap();
        let k1s2 = plan2
            .dense
            .iter()
            .filter(|op| matches!(op, DenseOp::K1 { .. }))
            .count();
        assert_eq!(k1s2, 2, "SX must not cross Err1: {:?}", plan2.dense);
    }

    #[test]
    fn kernels_classify_into_fast_paths() {
        let dev = Device::ibmq_rome(3);
        let mut c = Circuit::new(2);
        c.rz(0.3, 0); // diagonal
        c.x(1); // anti-diagonal
        c.cx(0, 1);
        c.swap(0, 1);
        c.measure_all();
        let timed = timed_of(&c, &dev);
        let plan = CompiledPlan::build(
            &timed,
            &dev,
            &NoiseToggles::none(),
            EnginePolicy::ForceStateVector,
        )
        .unwrap();
        let mut saw = (false, false, false, false);
        for op in &plan.dense {
            match op {
                DenseOp::K1 {
                    k: Kernel1::Diag(..),
                    ..
                } => saw.0 = true,
                DenseOp::K1 {
                    k: Kernel1::AntiDiag(..),
                    ..
                } => saw.1 = true,
                DenseOp::K2 { k: Kernel2::Cx, .. } => saw.2 = true,
                DenseOp::K2 {
                    k: Kernel2::Swap, ..
                } => saw.3 = true,
                _ => {}
            }
        }
        assert_eq!(saw, (true, true, true, true), "{:?}", plan.dense);
    }

    #[test]
    fn routing_key_covers_engine_eligibility() {
        // Satellite: a noise-model edit that flips a circuit from CHP to
        // state-vector must change the cache key.
        let dev = Device::ibmq_rome(3);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let timed = timed_of(&c, &dev);
        let twirl_on = NoiseToggles::default();
        let twirl_off = NoiseToggles {
            coherent_twirl: false,
            ..NoiseToggles::default()
        };
        assert_eq!(
            select_engine(&timed, &twirl_on, EnginePolicy::Auto),
            SimEngine::Chp
        );
        assert_eq!(
            select_engine(&timed, &twirl_off, EnginePolicy::Auto),
            SimEngine::StateVector
        );
        assert_ne!(
            routing_key(&timed, &twirl_on, EnginePolicy::Auto),
            routing_key(&timed, &twirl_off, EnginePolicy::Auto),
            "eligibility flip must change the plan-cache key"
        );
        // Policy is part of the key too (same toggles, different engine).
        assert_ne!(
            routing_key(&timed, &twirl_on, EnginePolicy::Auto),
            routing_key(&timed, &twirl_on, EnginePolicy::ForceStateVector),
        );
    }

    #[test]
    fn cache_separates_flipped_eligibility() {
        let dev = Device::ibmq_rome(3);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let timed = timed_of(&c, &dev);
        let cache = PlanCache::default();
        let twirl_off = NoiseToggles {
            coherent_twirl: false,
            ..NoiseToggles::default()
        };
        let a = cache
            .lookup(&timed, &dev, &NoiseToggles::default(), EnginePolicy::Auto)
            .unwrap()
            .1;
        let b = cache
            .lookup(&timed, &dev, &twirl_off, EnginePolicy::Auto)
            .unwrap()
            .1;
        assert_eq!(a.engine, SimEngine::Chp);
        assert_eq!(b.engine, SimEngine::StateVector);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "flipped eligibility must not share plans");
        assert_eq!(stats.len, 2);
    }

    #[test]
    fn oversized_circuit_is_rejected_and_not_cached() {
        let dev = Device::all_to_all(27, 1);
        let mut c = Circuit::new(27);
        for q in 0..27 {
            c.h(q as u32);
        }
        c.measure_all();
        let timed = timed_of(&c, &dev);
        let cache = PlanCache::new(4);
        for _ in 0..2 {
            let err = cache
                .lookup(&timed, &dev, &NoiseToggles::default(), EnginePolicy::Auto)
                .unwrap_err();
            assert!(matches!(err, ExecError::TooManyActiveQubits { .. }));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "failures must not be cached");
        assert_eq!(stats.len, 0);
    }

    #[test]
    fn cache_hits_on_identical_structure() {
        let dev = Device::ibmq_rome(3);
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let timed = timed_of(&c, &dev);
        let cache = PlanCache::default();
        let t = NoiseToggles::default();
        let a = cache
            .lookup(&timed, &dev, &t, EnginePolicy::Auto)
            .unwrap()
            .1;
        let b = cache
            .lookup(&timed.clone(), &dev, &t, EnginePolicy::Auto)
            .unwrap()
            .1;
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let dev = Device::ibmq_rome(3);
        let circuits: Vec<TimedCircuit> = (1..=3)
            .map(|k| {
                let mut c = Circuit::new(2);
                for _ in 0..k {
                    c.x(0);
                }
                c.measure_all();
                timed_of(&c, &dev)
            })
            .collect();
        let cache = PlanCache::new(2);
        let t = NoiseToggles::default();
        let p = EnginePolicy::Auto;
        cache.lookup(&circuits[0], &dev, &t, p).unwrap(); // {0}
        cache.lookup(&circuits[1], &dev, &t, p).unwrap(); // {0,1}
        cache.lookup(&circuits[0], &dev, &t, p).unwrap(); // touch 0
        cache.lookup(&circuits[2], &dev, &t, p).unwrap(); // evicts 1
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 2);
        // 0 survived (hit), 1 was evicted (miss again).
        cache.lookup(&circuits[0], &dev, &t, p).unwrap();
        cache.lookup(&circuits[1], &dev, &t, p).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
    }

    #[test]
    fn replay_slots_live_and_die_with_their_plans() {
        let dev = Device::ibmq_rome(3);
        let circuits: Vec<TimedCircuit> = (1..=3)
            .map(|k| {
                let mut c = Circuit::new(2);
                for _ in 0..k {
                    c.x(0);
                }
                c.measure_all();
                timed_of(&c, &dev)
            })
            .collect();
        let cache = PlanCache::new(2);
        let t = NoiseToggles::default();
        let p = EnginePolicy::Auto;
        let run = RunKey::of(&ExecutionConfig::seeded(1));
        let mut counts = Counts::new(2);
        counts.record_many(0b01, 5);

        let (k0, _) = cache.lookup(&circuits[0], &dev, &t, p).unwrap();
        assert_eq!(cache.replay(k0, run), None, "a new plan has an empty slot");
        cache.remember(k0, run, &counts);
        assert_eq!(cache.replay(k0, run), Some(counts.clone()));
        let other = RunKey::of(&ExecutionConfig::seeded(2));
        assert_eq!(cache.replay(k0, other), None);

        // Two newer plans evict the first, and its slot with it.
        cache.lookup(&circuits[1], &dev, &t, p).unwrap();
        cache.lookup(&circuits[2], &dev, &t, p).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.replay(k0, run), None);
        // A run finishing after its plan left keeps nothing.
        cache.remember(k0, run, &counts);
        assert_eq!(cache.lookup(&circuits[0], &dev, &t, p).unwrap().0, k0);
        assert_eq!(cache.replay(k0, run), None);

        cache.remember(k0, run, &counts);
        cache.clear();
        assert_eq!(cache.replay(k0, run), None);
    }

    #[test]
    fn clear_resets_everything() {
        let dev = Device::ibmq_rome(3);
        let mut c = Circuit::new(1);
        c.h(0).measure(0, 0);
        let timed = timed_of(&c, &dev);
        let cache = PlanCache::default();
        cache
            .lookup(&timed, &dev, &NoiseToggles::default(), EnginePolicy::Auto)
            .unwrap();
        cache.clear();
        let stats = cache.stats();
        assert_eq!(
            stats,
            PlanCacheStats {
                capacity: DEFAULT_PLAN_CACHE_CAPACITY,
                ..Default::default()
            }
        );
    }
}
