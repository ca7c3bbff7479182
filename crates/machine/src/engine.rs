//! The simulator-routing engine: one trajectory, two substrates.
//!
//! Every execution compiles to a [`CompiledPlan`]
//! whose lowered op stream runs on one of two engines:
//!
//! - [`SimEngine::Chp`] — the `stabilizer` crate's Aaronson–Gottesman
//!   tableau. Selected when every gate of the scheduled circuit is
//!   Clifford-lowerable *and* the machine's noise channels are
//!   Pauli-expressible (see [`pauli_expressible`]). Decoy circuits are
//!   classically cheap by construction (PAPER.md §1); this engine makes
//!   the executor exploit that instead of paying dense Monte-Carlo price.
//! - [`SimEngine::StateVector`] — the dense fallback, rebuilt on
//!   [`statevec::SoaStateVector`] with fused/classified kernels from the
//!   plan lowering.
//!
//! # Coherent phases on the stabilizer engine: the toggling-frame twirl
//!
//! The idle-noise model is *coherent* (arbitrary-angle Z rotations from
//! detuning and spectator crosstalk), which a tableau cannot represent
//! directly. Instead of giving up Clifford routing whenever those
//! channels are on, the CHP runner tracks each qubit's accumulated idle
//! phase `θ_q` in software as a *pending* `RZ(θ_q)` and commutes it
//! through the circuit exactly where algebra allows:
//!
//! - diagonal gates (Z, S, S†, CZ, Clifford RZ) commute: keep `θ`;
//! - X and Y (DD pulses!) conjugate `RZ(θ)` to `RZ(−θ)`: negate `θ` —
//!   this is precisely the echo cancellation DD relies on, preserved
//!   *exactly*;
//! - SWAP exchanges pending phases; a CX control keeps its phase;
//! - frame-mixing gates (H, √X, √X†, CX target) force a *flush*: the
//!   pending `RZ(θ)` is Pauli-twirled into a stochastic Z with
//!   probability `sin²(θ/2)` (see [`crate::noise::z_twirl_probability`]),
//!   then `θ := 0`;
//! - measurement/reset clear `θ` exactly (a Z rotation commutes with
//!   Z-basis collapse up to global phase);
//! - stochastic X/Y Pauli events (gate errors, the T1/T2 floor) negate
//!   `θ` like their coherent counterparts.
//!
//! The only approximation is the loss of coherent interference *at flush
//! points*; between flushes the signed phase arithmetic is exact, so DD
//! sequences echo out detuning on this engine for the same reason they
//! do on hardware. With coherent channels disabled the twirl never fires
//! and the engine is exact. Machines can opt out of the approximation via
//! [`NoiseToggles::coherent_twirl`] or pin the dense engine with
//! [`EnginePolicy::ForceStateVector`].
//!
//! # Terminal sampling on the CHP engine: one symbolic pass
//!
//! When a plan's measurements are terminal, a CHP trajectory evolves one
//! tableau and then samples its shots from it. It measures the deferred
//! qubits once, in `plan.deferred` order, with
//! [`Tableau::measure_symbolic`]: each outcome comes back as an affine form
//! `constant ^ parity(mask & drawn)` over the random outcomes before it.
//! Each shot then draws, per deferred measurement and in order, one
//! `bool` if that outcome is random and one `f64` for the readout flip,
//! and evaluates the forms.
//!
//! Those are exactly the draws that measuring a fresh tableau clone per
//! shot would make, because whether an outcome is random depends only on
//! the tableau's X/Z bits, never on earlier outcomes. The forms are exact,
//! so counts are bit-identical to the clone-per-shot loop they replace.
//!
//! # One-qubit ops on the dense engine: the monomial frame
//!
//! Most ops of a dense trajectory are one-qubit *monomials*: diagonal
//! (idle `RZ` phases, Z-type kernels) or anti-diagonal (every X/Y DD
//! pulse). The dense runner holds one pending monomial per qubit, either
//! `diag(c0, c1)` or `[[0, c0], [c1, 0]]`, and composes into it instead
//! of making a pass over the `2^k` amplitudes. Products of monomials are
//! monomials, so composing costs two complex multiplies.
//!
//! - **Absorbed:** idle phases, `Kernel1::Diag`, `Kernel1::AntiDiag`, and
//!   every Pauli the `Err1`/`Err2`/`Floor`/idle-floor channels sample.
//! - **`Kernel1::Full`:** applied once as `m · pending`.
//! - **Flushed** (applied as one diagonal or anti-diagonal pass): both
//!   operands before a two-qubit gate, the qubit before a `Measure` or
//!   `Reset`, and every qubit when the op stream ends, before
//!   normalization and sampling.
//!
//! Unitaries on different qubits commute, and a qubit's measurement
//! statistics do not depend on unitaries pending on other qubits, so the
//! flushed state equals the eagerly evolved one up to floating-point
//! rounding. Random draws happen in the same order and number as an eager
//! run would make them, so trajectories and outputs are unchanged.
//!
//! # Determinism contract
//!
//! Each engine's results are a pure function of `(plan, seed)`. The two
//! engines agree in distribution but not bit-for-bit, so the plan cache
//! keys routing eligibility into its hash
//! ([`crate::plan::routing_key`]): a given key always takes one engine,
//! and a noise-model edit that flips eligibility changes the key instead
//! of silently reusing a stale plan across engines.

use crate::executor::{ExecError, Machine, NoiseToggles, CROSSTALK_JITTER};
use crate::noise::{standard_normal, z_twirl_probability, QubitDetuning};
use crate::plan::{CliffOp, CompiledPlan, DenseOp, IdleOp, Kernel1, Kernel2};
use qcirc::math::{Mat2, C64};
use qcirc::{Counts, Gate};
use rand::rngs::StdRng;
use rand::Rng;
use stab::Tableau;
use statevec::SoaStateVector;
use std::f64::consts::FRAC_PI_2;
use std::sync::atomic::{AtomicU64, Ordering};
use transpiler::TimedCircuit;

/// Which simulation substrate a compiled plan runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimEngine {
    /// Dense state-vector Monte-Carlo (SoA kernels).
    StateVector,
    /// Aaronson–Gottesman stabilizer tableau with the toggling-frame
    /// phase twirl for coherent idle channels.
    Chp,
}

impl SimEngine {
    /// Stable snake_case tag, used in metrics and benchmark reports.
    pub fn tag(self) -> &'static str {
        match self {
            SimEngine::StateVector => "statevector",
            SimEngine::Chp => "chp",
        }
    }
}

/// Routing policy of a [`Machine`]: how plans pick their engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnginePolicy {
    /// Route eligible circuits to the CHP engine, fall back to dense.
    #[default]
    Auto,
    /// Always use the dense state-vector engine (validation/debugging,
    /// and the reference side of cross-engine equivalence tests).
    ForceStateVector,
}

/// Whether the machine's enabled noise channels can be expressed as
/// Pauli channels on the stabilizer engine.
///
/// Gate errors, readout flips and the T1/T2 floor are Pauli channels
/// already. The coherent idle channels (detuning, crosstalk) are not,
/// but the toggling-frame twirl makes them admissible when
/// [`NoiseToggles::coherent_twirl`] permits the approximation.
pub fn pauli_expressible(toggles: &NoiseToggles) -> bool {
    (!toggles.idle_coherent && !toggles.idle_crosstalk) || toggles.coherent_twirl
}

/// One-qubit Clifford tableau op a gate lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CliffGate1 {
    I,
    X,
    Y,
    Z,
    H,
    S,
    Sdg,
    Sx,
    Sxdg,
}

/// Two-qubit Clifford tableau op a gate lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CliffGate2 {
    Cx,
    Cz,
    Swap,
}

/// Lowers a one-qubit gate to a tableau op, `None` when non-Clifford.
/// `RZ`/`P` at quarter-turn angles (tolerance 1e-9 rad, matching the
/// decoy layer's Clifford rounding) lower to I/S/Z/S†.
pub(crate) fn lower_clifford1(g: Gate) -> Option<CliffGate1> {
    match g {
        Gate::I => Some(CliffGate1::I),
        Gate::X => Some(CliffGate1::X),
        Gate::Y => Some(CliffGate1::Y),
        Gate::Z => Some(CliffGate1::Z),
        Gate::H => Some(CliffGate1::H),
        Gate::S => Some(CliffGate1::S),
        Gate::Sdg => Some(CliffGate1::Sdg),
        Gate::SX => Some(CliffGate1::Sx),
        Gate::SXdg => Some(CliffGate1::Sxdg),
        Gate::RZ(t) | Gate::P(t) => {
            let k = (t / FRAC_PI_2).round();
            if (t - k * FRAC_PI_2).abs() > 1e-9 {
                return None;
            }
            Some(match k.rem_euclid(4.0) as u64 {
                0 => CliffGate1::I,
                1 => CliffGate1::S,
                2 => CliffGate1::Z,
                _ => CliffGate1::Sdg,
            })
        }
        _ => None,
    }
}

/// Lowers a two-qubit gate to a tableau op, `None` when non-Clifford.
pub(crate) fn lower_clifford2(g: Gate) -> Option<CliffGate2> {
    match g {
        Gate::CX => Some(CliffGate2::Cx),
        Gate::CZ => Some(CliffGate2::Cz),
        Gate::Swap => Some(CliffGate2::Swap),
        _ => None,
    }
}

/// Whether every gate of the scheduled circuit lowers to a tableau op.
pub fn clifford_lowerable(timed: &TimedCircuit) -> bool {
    timed.events().iter().all(|e| match &e.instr.kind {
        qcirc::OpKind::Gate(g) => match e.instr.qubits.len() {
            1 => lower_clifford1(*g).is_some(),
            2 => lower_clifford2(*g).is_some(),
            _ => false,
        },
        _ => true,
    })
}

/// Decides the engine for a scheduled circuit under a machine's noise
/// toggles and routing policy. The active-qubit cap applies uniformly to
/// both engines (checked during plan compilation, not here).
pub fn select_engine(
    timed: &TimedCircuit,
    toggles: &NoiseToggles,
    policy: EnginePolicy,
) -> SimEngine {
    if policy == EnginePolicy::ForceStateVector {
        return SimEngine::StateVector;
    }
    if pauli_expressible(toggles) && clifford_lowerable(timed) {
        SimEngine::Chp
    } else {
        SimEngine::StateVector
    }
}

/// Per-machine routing counters, shared by all clones (like the plan
/// cache) so batch workers report into one place.
#[derive(Debug, Default)]
pub(crate) struct EngineCounters {
    pub chp: AtomicU64,
    pub statevec: AtomicU64,
    pub batch_workers: AtomicU64,
    pub batch_job_threads: AtomicU64,
}

impl EngineCounters {
    pub fn snapshot(&self) -> EngineStats {
        EngineStats {
            chp_executions: self.chp.load(Ordering::Relaxed),
            statevec_executions: self.statevec.load(Ordering::Relaxed),
            last_batch_workers: self.batch_workers.load(Ordering::Relaxed),
            last_batch_job_threads: self.batch_job_threads.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of a machine's engine-routing split and the thread layout of
/// its most recent batch (see [`Machine::engine_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Executions routed to the CHP stabilizer engine.
    pub chp_executions: u64,
    /// Executions routed to the dense state-vector engine.
    pub statevec_executions: u64,
    /// Scoped worker threads used by the most recent `execute_batch`.
    pub last_batch_workers: u64,
    /// Trajectory threads granted to each job of that batch.
    pub last_batch_job_threads: u64,
}

/// Runs one noise realization of a compiled plan on its engine.
pub(crate) fn run_trajectory(
    machine: &Machine,
    plan: &CompiledPlan,
    shots: u64,
    rng: &mut StdRng,
) -> Result<Counts, ExecError> {
    match plan.engine {
        SimEngine::StateVector => run_trajectory_dense(machine, plan, shots, rng),
        SimEngine::Chp => run_trajectory_chp(machine, plan, shots, rng),
    }
}

/// Per-trajectory stochastic context shared by both engines: sampled
/// detunings (when the coherent channel is on) and per-episode crosstalk
/// jitter (when the crosstalk channel is on).
struct IdleContext {
    detuning: Vec<QubitDetuning>,
    jitter: Vec<Vec<f64>>,
}

impl IdleContext {
    fn sample(machine: &Machine, plan: &CompiledPlan, rng: &mut StdRng) -> Self {
        let cal = machine.device().calibration();
        let detuning = if plan.needs_detuning {
            plan.phys_of
                .iter()
                .map(|&p| QubitDetuning::sample(cal.qubit(p), rng))
                .collect()
        } else {
            Vec::new()
        };
        // Per-trajectory, per-CNOT-episode jitter: the phase kick a
        // spectator receives depends on the (shot-varying) state of the
        // gate qubits, so each episode's amplitude fluctuates around the
        // calibrated coupling. Dense DD can echo this out; sparse DD
        // cannot (Fig. 16 of the paper).
        let jitter = if plan.needs_jitter {
            plan.xtalk
                .iter()
                .map(|eps| {
                    eps.iter()
                        .map(|_| 1.0 + CROSSTALK_JITTER * standard_normal(rng))
                        .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        IdleContext { detuning, jitter }
    }

    /// The coherent phase accumulated over one idle window.
    fn phase(&mut self, idle: &IdleOp, rng: &mut StdRng) -> f64 {
        let q = idle.q as usize;
        let mut phase = if idle.detune {
            self.detuning[q].advance(idle.dt_ns, rng)
        } else {
            0.0
        };
        for &(ei, chi_overlap) in &idle.xtalk {
            phase += chi_overlap * self.jitter[q][ei as usize];
        }
        phase
    }
}

/// A pending one-qubit operator of the dense frame: `diag(c0, c1)`, or
/// `[[0, c0], [c1, 0]]` when `anti`. Monomial matrices are closed under
/// multiplication, so a run of diagonal and anti-diagonal ops on one qubit
/// collapses to a single one of these, and reaches the state vector as
/// one kernel pass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Monomial {
    anti: bool,
    c0: C64,
    c1: C64,
}

impl Monomial {
    const IDENTITY: Monomial = Monomial {
        anti: false,
        c0: C64::ONE,
        c1: C64::ONE,
    };

    /// Left-multiplies by `diag(d0, d1)`.
    fn diag(&mut self, d0: C64, d1: C64) {
        self.c0 = d0 * self.c0;
        self.c1 = d1 * self.c1;
    }

    /// Left-multiplies by `[[0, a01], [a10, 0]]`.
    fn antidiag(&mut self, a01: C64, a10: C64) {
        (self.c0, self.c1) = (a01 * self.c1, a10 * self.c0);
        self.anti = !self.anti;
    }

    /// Left-multiplies by a Pauli index (0 = I, 1 = X, 2 = Y, 3 = Z).
    fn pauli(&mut self, which: u8) {
        match which {
            // X = antidiag(1, 1); Y = antidiag(-i, i); Z = diag(1, -1).
            1 => self.antidiag(C64::ONE, C64::ONE),
            2 => self.antidiag(C64::new(0.0, -1.0), C64::I),
            3 => self.diag(C64::ONE, C64::real(-1.0)),
            _ => {}
        }
    }

    fn matrix(&self) -> Mat2 {
        let z = C64::ZERO;
        if self.anti {
            Mat2::new([[z, self.c0], [self.c1, z]])
        } else {
            Mat2::new([[self.c0, z], [z, self.c1]])
        }
    }
}

/// The state vector plus one pending [`Monomial`] per qubit: one-qubit
/// diagonal and anti-diagonal ops compose into the frame, and reach the
/// amplitudes only when a flush point needs them (see the module docs).
struct DenseFrame {
    sv: SoaStateVector,
    pending: Vec<Monomial>,
}

impl DenseFrame {
    fn new(k: usize) -> Result<Self, statevec::SimError> {
        Ok(DenseFrame {
            sv: SoaStateVector::try_new(k)?,
            pending: vec![Monomial::IDENTITY; k],
        })
    }

    /// Applies qubit `q`'s pending operator to the amplitudes as one
    /// diagonal or anti-diagonal pass; a no-op for the exact identity.
    fn flush(&mut self, q: usize) -> Result<(), statevec::SimError> {
        let m = std::mem::replace(&mut self.pending[q], Monomial::IDENTITY);
        if m == Monomial::IDENTITY {
            Ok(())
        } else if m.anti {
            self.sv.apply_antidiag1(m.c0, m.c1, q)
        } else {
            self.sv.apply_diag1(m.c0, m.c1, q)
        }
    }

    /// Flushes every qubit, leaving the state vector fully evolved.
    fn into_state(mut self) -> Result<SoaStateVector, statevec::SimError> {
        for q in 0..self.pending.len() {
            self.flush(q)?;
        }
        Ok(self.sv)
    }
}

/// Runs the plan's dense op stream through the [`DenseFrame`], returning
/// the evolved (unnormalized) state and the mid-circuit classical record.
fn evolve_dense(
    ops: &[DenseOp],
    k: usize,
    ctx: &mut IdleContext,
    rng: &mut StdRng,
) -> Result<(SoaStateVector, u64), statevec::SimError> {
    let mut f = DenseFrame::new(k)?;
    let mut clbits = 0u64;
    for op in ops {
        match op {
            DenseOp::Idle(idle) => {
                let q = idle.q as usize;
                let phase = ctx.phase(idle, rng);
                if phase != 0.0 {
                    f.pending[q].diag(C64::cis(-phase / 2.0), C64::cis(phase / 2.0));
                }
                if let Some(floor) = &idle.floor {
                    f.pending[q].pauli(floor.sample(rng));
                }
            }
            DenseOp::K1 { q, k } => {
                let q = *q as usize;
                match k {
                    Kernel1::Full(m) => {
                        let u = *m * f.pending[q].matrix();
                        f.pending[q] = Monomial::IDENTITY;
                        f.sv.apply1(&u, q)?;
                    }
                    Kernel1::Diag(d0, d1) => f.pending[q].diag(*d0, *d1),
                    Kernel1::AntiDiag(a01, a10) => f.pending[q].antidiag(*a01, *a10),
                }
            }
            DenseOp::K2 { a, b, k } => {
                let (a, b) = (*a as usize, *b as usize);
                f.flush(a)?;
                f.flush(b)?;
                match k {
                    Kernel2::Full(m) => f.sv.apply2(m, a, b)?,
                    Kernel2::Cx => f.sv.apply_cx(a, b)?,
                    Kernel2::Cz => f.sv.apply_cz(a, b)?,
                    Kernel2::Swap => f.sv.apply_swap(a, b)?,
                }
            }
            DenseOp::Err1 { q, p } => {
                if rng.gen::<f64>() < *p {
                    f.pending[*q as usize].pauli(rng.gen_range(1..4));
                }
            }
            DenseOp::Err2 { a, b, p, reps } => {
                for _ in 0..*reps {
                    if rng.gen::<f64>() < *p {
                        // One of the 15 non-identity two-qubit Paulis.
                        let idx = rng.gen_range(1..16);
                        f.pending[*a as usize].pauli((idx & 3) as u8);
                        f.pending[*b as usize].pauli((idx >> 2) as u8);
                    }
                }
            }
            DenseOp::Floor { q, floor } => f.pending[*q as usize].pauli(floor.sample(rng)),
            DenseOp::Measure { q, c, p_flip } => {
                let q = *q as usize;
                f.flush(q)?;
                let mut bit = f.sv.measure(q, rng)?;
                if rng.gen::<f64>() < *p_flip {
                    bit = !bit;
                }
                if bit {
                    clbits |= 1 << *c;
                } else {
                    clbits &= !(1 << *c);
                }
            }
            DenseOp::Reset { q } => {
                let q = *q as usize;
                f.flush(q)?;
                f.sv.reset(q, rng)?;
            }
        }
    }
    Ok((f.into_state()?, clbits))
}

/// Dense-engine trajectory over the plan's lowered kernel stream.
fn run_trajectory_dense(
    machine: &Machine,
    plan: &CompiledPlan,
    shots: u64,
    rng: &mut StdRng,
) -> Result<Counts, ExecError> {
    let mut ctx = IdleContext::sample(machine, plan, rng);
    let (mut sv, clbits) = evolve_dense(&plan.dense, plan.active_qubits(), &mut ctx, rng)?;

    let mut counts = Counts::new(plan.num_clbits);
    if plan.terminal_measurements {
        sv.normalize();
        for _ in 0..shots {
            let sample = sv.sample(rng);
            let mut out = 0u64;
            for &(q, c, p_flip) in &plan.deferred {
                let mut bit = sample >> q & 1 == 1;
                if rng.gen::<f64>() < p_flip {
                    bit = !bit;
                }
                if bit {
                    out |= 1 << c;
                }
            }
            counts.record(out);
        }
    } else {
        // Mid-circuit measurement: the trajectory fixed one outcome
        // record; honor shot count by replay-free repetition (callers
        // wanting independent mid-circuit shots raise `trajectories`).
        counts.record_many(clbits, shots);
    }
    Ok(counts)
}

/// Applies a stochastic Pauli to the tableau, commuting it through the
/// pending phase: X/Y anticommute with Z, so they negate `θ`.
fn chp_pauli1(tab: &mut Tableau, theta: &mut [f64], q: usize, which: u8) {
    match which {
        1 => {
            tab.x(q);
            theta[q] = -theta[q];
        }
        2 => {
            tab.y(q);
            theta[q] = -theta[q];
        }
        3 => tab.z(q),
        _ => {}
    }
}

/// Flushes a pending phase as a stochastic Z (the Pauli twirl of
/// `RZ(θ)`), consuming one uniform draw unless `θ` is exactly zero.
fn chp_flush(tab: &mut Tableau, theta: &mut [f64], q: usize, rng: &mut StdRng) {
    if theta[q] != 0.0 {
        if rng.gen::<f64>() < z_twirl_probability(theta[q]) {
            tab.z(q);
        }
        theta[q] = 0.0;
    }
}

/// CHP-engine trajectory: tableau evolution with the toggling-frame
/// phase twirl described in the module docs.
fn run_trajectory_chp(
    machine: &Machine,
    plan: &CompiledPlan,
    shots: u64,
    rng: &mut StdRng,
) -> Result<Counts, ExecError> {
    let k = plan.active_qubits();
    let mut tab = Tableau::new(k);
    let mut theta = vec![0.0f64; k];
    let mut ctx = IdleContext::sample(machine, plan, rng);
    let mut clbits = 0u64;
    for op in &plan.cliff {
        match op {
            CliffOp::Idle(idle) => {
                theta[idle.q as usize] += ctx.phase(idle, rng);
                if let Some(floor) = &idle.floor {
                    chp_pauli1(&mut tab, &mut theta, idle.q as usize, floor.sample(rng));
                }
            }
            CliffOp::G1 { q, g } => {
                let q = *q as usize;
                match g {
                    CliffGate1::I => {}
                    // Diagonal: commutes with the pending RZ.
                    CliffGate1::Z => tab.z(q),
                    CliffGate1::S => tab.s(q),
                    CliffGate1::Sdg => tab.sdg(q),
                    // X-like: conjugates RZ(θ) to RZ(−θ) — the echo.
                    CliffGate1::X => {
                        tab.x(q);
                        theta[q] = -theta[q];
                    }
                    CliffGate1::Y => {
                        tab.y(q);
                        theta[q] = -theta[q];
                    }
                    // Frame-mixing: flush, then apply.
                    CliffGate1::H => {
                        chp_flush(&mut tab, &mut theta, q, rng);
                        tab.h(q);
                    }
                    CliffGate1::Sx => {
                        chp_flush(&mut tab, &mut theta, q, rng);
                        tab.sx(q);
                    }
                    CliffGate1::Sxdg => {
                        chp_flush(&mut tab, &mut theta, q, rng);
                        tab.sxdg(q);
                    }
                }
            }
            CliffOp::G2 { a, b, g } => {
                let (a, b) = (*a as usize, *b as usize);
                match g {
                    CliffGate2::Cx => {
                        // RZ commutes with the control; the target frame
                        // mixes under the conditional X.
                        chp_flush(&mut tab, &mut theta, b, rng);
                        tab.cx(a, b);
                    }
                    CliffGate2::Cz => tab.cz(a, b),
                    CliffGate2::Swap => {
                        tab.swap(a, b);
                        theta.swap(a, b);
                    }
                }
            }
            CliffOp::Err1 { q, p } => {
                if rng.gen::<f64>() < *p {
                    chp_pauli1(&mut tab, &mut theta, *q as usize, rng.gen_range(1..4));
                }
            }
            CliffOp::Err2 { a, b, p, reps } => {
                for _ in 0..*reps {
                    if rng.gen::<f64>() < *p {
                        let idx = rng.gen_range(1..16);
                        chp_pauli1(&mut tab, &mut theta, *a as usize, (idx & 3) as u8);
                        chp_pauli1(&mut tab, &mut theta, *b as usize, (idx >> 2) as u8);
                    }
                }
            }
            CliffOp::Floor { q, floor } => {
                chp_pauli1(&mut tab, &mut theta, *q as usize, floor.sample(rng));
            }
            CliffOp::Measure { q, c, p_flip } => {
                let q = *q as usize;
                // The pending Z rotation commutes with Z-basis collapse
                // (global phase on the surviving branch): clear exactly.
                theta[q] = 0.0;
                let mut bit = tab.measure(q, rng).bit();
                if rng.gen::<f64>() < *p_flip {
                    bit = !bit;
                }
                if bit {
                    clbits |= 1 << *c;
                } else {
                    clbits &= !(1 << *c);
                }
            }
            CliffOp::Reset { q } => {
                let q = *q as usize;
                theta[q] = 0.0;
                if tab.measure(q, rng).bit() {
                    tab.x(q);
                }
            }
        }
    }

    let mut counts = Counts::new(plan.num_clbits);
    if plan.terminal_measurements {
        // Pending phases are diagonal: they cannot change Z-basis
        // probabilities, so terminal sampling ignores them exactly. One
        // symbolic pass gives every deferred outcome as an affine form in
        // the random ones (at most one per active qubit, and the plan caps
        // those at `statevec::MAX_QUBITS` ≤ 64, so each form's `u64` mask
        // holds them all); each shot then only draws and evaluates.
        let outcomes = tab.measure_symbolic(plan.deferred.iter().map(|&(q, _, _)| q as usize));
        for _ in 0..shots {
            let mut drawn = 0u64;
            let mut out = 0u64;
            for (o, &(_, c, p_flip)) in outcomes.iter().zip(&plan.deferred) {
                let mut bit = o.sample(&mut drawn, rng);
                if rng.gen::<f64>() < p_flip {
                    bit = !bit;
                }
                if bit {
                    out |= 1 << c;
                }
            }
            counts.record(out);
        }
    } else {
        counts.record_many(clbits, shots);
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::PauliFloor;
    use crate::plan::IdleOp;
    use device::Device;
    use proptest::prelude::*;
    use qcirc::math::Mat4;
    use rand::SeedableRng;

    /// The reference the frame must match: every op applied to the
    /// amplitudes as soon as it is seen, with the plain SoA kernels.
    fn evolve_eager(
        ops: &[DenseOp],
        k: usize,
        ctx: &mut IdleContext,
        rng: &mut StdRng,
    ) -> (SoaStateVector, u64) {
        fn pauli(sv: &mut SoaStateVector, q: usize, which: u8) {
            match which {
                1 => sv.apply_antidiag1(C64::ONE, C64::ONE, q).unwrap(),
                2 => sv.apply_antidiag1(C64::new(0.0, -1.0), C64::I, q).unwrap(),
                3 => sv.apply_diag1(C64::ONE, C64::real(-1.0), q).unwrap(),
                _ => {}
            }
        }
        let mut sv = SoaStateVector::try_new(k).unwrap();
        let mut clbits = 0u64;
        for op in ops {
            match op {
                DenseOp::Idle(idle) => {
                    let q = idle.q as usize;
                    let phase = ctx.phase(idle, rng);
                    if phase != 0.0 {
                        let (d0, d1) = (C64::cis(-phase / 2.0), C64::cis(phase / 2.0));
                        sv.apply_diag1(d0, d1, q).unwrap();
                    }
                    if let Some(floor) = &idle.floor {
                        pauli(&mut sv, q, floor.sample(rng));
                    }
                }
                DenseOp::K1 { q, k } => match k {
                    Kernel1::Full(m) => sv.apply1(m, *q as usize).unwrap(),
                    Kernel1::Diag(d0, d1) => sv.apply_diag1(*d0, *d1, *q as usize).unwrap(),
                    Kernel1::AntiDiag(a, b) => sv.apply_antidiag1(*a, *b, *q as usize).unwrap(),
                },
                DenseOp::K2 { a, b, k } => {
                    let (a, b) = (*a as usize, *b as usize);
                    match k {
                        Kernel2::Full(m) => sv.apply2(m, a, b),
                        Kernel2::Cx => sv.apply_cx(a, b),
                        Kernel2::Cz => sv.apply_cz(a, b),
                        Kernel2::Swap => sv.apply_swap(a, b),
                    }
                    .unwrap()
                }
                DenseOp::Err1 { q, p } => {
                    if rng.gen::<f64>() < *p {
                        pauli(&mut sv, *q as usize, rng.gen_range(1..4));
                    }
                }
                DenseOp::Err2 { a, b, p, reps } => {
                    for _ in 0..*reps {
                        if rng.gen::<f64>() < *p {
                            let idx = rng.gen_range(1..16);
                            pauli(&mut sv, *a as usize, (idx & 3) as u8);
                            pauli(&mut sv, *b as usize, (idx >> 2) as u8);
                        }
                    }
                }
                DenseOp::Floor { q, floor } => pauli(&mut sv, *q as usize, floor.sample(rng)),
                DenseOp::Measure { q, c, p_flip } => {
                    let mut bit = sv.measure(*q as usize, rng).unwrap();
                    if rng.gen::<f64>() < *p_flip {
                        bit = !bit;
                    }
                    if bit {
                        clbits |= 1 << *c;
                    } else {
                        clbits &= !(1 << *c);
                    }
                }
                DenseOp::Reset { q } => sv.reset(*q as usize, rng).unwrap(),
            }
        }
        (sv, clbits)
    }

    /// A detuning/jitter context with coherent and crosstalk channels on.
    fn idle_context(k: usize, seed: u64) -> IdleContext {
        let dev = Device::ibmq_toronto(3);
        let mut rng = StdRng::seed_from_u64(seed);
        IdleContext {
            detuning: (0..k)
                .map(|q| QubitDetuning::sample(dev.qubit(q as u32), &mut rng))
                .collect(),
            jitter: (0..k)
                .map(|_| (0..3).map(|_| 1.0 + standard_normal(&mut rng)).collect())
                .collect(),
        }
    }

    const HIGH_FLOOR: PauliFloor = PauliFloor {
        px: 0.2,
        py: 0.15,
        pz: 0.25,
    };

    /// One raw draw: `(kind, qubit, offset to a second qubit, x, y, p)`.
    type RawOp = (u8, u16, u16, f64, f64, f64);

    /// Maps a raw draw onto a dense op over `k` qubits, covering every
    /// `DenseOp`, `Kernel1` and `Kernel2` variant.
    fn dense_op(k: u16, (kind, q, d, x, y, p): RawOp) -> DenseOp {
        let q = q % k;
        let b = (q + 1 + d % k.max(2)) % k;
        let kind = if k < 2 || b == q { kind % 5 } else { kind };
        match kind {
            0 => DenseOp::Idle(IdleOp {
                q,
                dt_ns: 40.0 + 400.0 * p,
                detune: d % 2 == 0,
                xtalk: vec![((d % 3) as u32, 0.3 * x)],
                floor: (p > 0.3).then_some(HIGH_FLOOR),
            }),
            1 => DenseOp::K1 {
                q,
                k: Kernel1::Full(Gate::U(x, y, p).unitary1().unwrap()),
            },
            2 => DenseOp::K1 {
                q,
                k: Kernel1::Diag(C64::cis(x), C64::cis(y)),
            },
            3 => DenseOp::K1 {
                q,
                k: Kernel1::AntiDiag(C64::cis(x), C64::cis(y)),
            },
            4 => DenseOp::Err1 {
                q,
                p: 0.5 + p / 2.0,
            },
            5 => DenseOp::Floor {
                q,
                floor: HIGH_FLOOR,
            },
            6 => DenseOp::Measure {
                q,
                c: q,
                p_flip: p / 4.0,
            },
            7 => DenseOp::Reset { q },
            8 => {
                let local = Gate::U(x, y, p).unitary1().unwrap();
                let m: Mat4 =
                    Gate::CX.unitary2().unwrap() * local.kron(&Gate::RY(y).unitary1().unwrap());
                DenseOp::K2 {
                    a: q,
                    b,
                    k: Kernel2::Full(Box::new(m)),
                }
            }
            9 => DenseOp::K2 {
                a: q,
                b,
                k: Kernel2::Cx,
            },
            10 => DenseOp::K2 {
                a: q,
                b,
                k: Kernel2::Cz,
            },
            11 => DenseOp::K2 {
                a: q,
                b,
                k: Kernel2::Swap,
            },
            _ => DenseOp::Err2 {
                a: q,
                b,
                p: 0.5 + p / 2.0,
                reps: 1 + (d % 3) as u8,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn frame_matches_eager_kernels(
            k in 1u16..7,
            raw in prop::collection::vec(
                (0u8..13, 0u16..6, 0u16..6, -3.0..3.0f64, -3.0..3.0f64, 0.0..1.0f64),
                1..80,
            ),
            seed in any::<u64>(),
        ) {
            let ops: Vec<DenseOp> = raw.into_iter().map(|r| dense_op(k, r)).collect();
            let n = k as usize;
            let (mut r_frame, mut r_eager) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut ctx = idle_context(n, seed ^ 1);
            let (frame, c_frame) = evolve_dense(&ops, n, &mut ctx, &mut r_frame).unwrap();
            let mut ctx = idle_context(n, seed ^ 1);
            let (eager, c_eager) = evolve_eager(&ops, n, &mut ctx, &mut r_eager);

            prop_assert_eq!(&r_frame, &r_eager, "the frame must consume the same draws");
            prop_assert_eq!(c_frame, c_eager);
            // Align the global phase on the overlap, then compare amplitudes.
            let overlap = (0..1u64 << n).fold(C64::ZERO, |acc, i| {
                acc + eager.amplitude(i).conj() * frame.amplitude(i)
            });
            let phase = overlap.scale(1.0 / overlap.norm());
            for i in 0..1u64 << n {
                let (e, f) = (eager.amplitude(i) * phase, frame.amplitude(i));
                prop_assert!(f.approx_eq(e, 1e-12), "amplitude {}: frame {:?} vs eager {:?}", i, f, e);
            }
        }
    }

    #[test]
    fn clifford_lowering_covers_quarter_angles() {
        use std::f64::consts::PI;
        assert_eq!(lower_clifford1(Gate::RZ(0.0)), Some(CliffGate1::I));
        assert_eq!(lower_clifford1(Gate::RZ(FRAC_PI_2)), Some(CliffGate1::S));
        assert_eq!(lower_clifford1(Gate::RZ(PI)), Some(CliffGate1::Z));
        assert_eq!(lower_clifford1(Gate::RZ(-FRAC_PI_2)), Some(CliffGate1::Sdg));
        assert_eq!(lower_clifford1(Gate::RZ(2.0 * PI)), Some(CliffGate1::I));
        assert_eq!(lower_clifford1(Gate::RZ(0.3)), None);
        assert_eq!(lower_clifford1(Gate::P(FRAC_PI_2)), Some(CliffGate1::S));
        assert_eq!(lower_clifford1(Gate::T), None);
        assert_eq!(lower_clifford2(Gate::CX), Some(CliffGate2::Cx));
    }

    #[test]
    fn pauli_expressibility_follows_toggles() {
        let mut t = NoiseToggles::default();
        assert!(pauli_expressible(&t), "twirl permits coherent channels");
        t.coherent_twirl = false;
        assert!(!pauli_expressible(&t), "coherent channels without twirl");
        t.idle_coherent = false;
        t.idle_crosstalk = false;
        assert!(pauli_expressible(&t), "pure Pauli noise is always eligible");
    }
}
