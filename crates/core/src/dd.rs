//! Dynamical-decoupling protocols and pulse insertion (§4.4.3).
//!
//! Two protocols from the paper plus a CPMG extension:
//!
//! - **XY4**: continuous repetition of X–Y–X–Y with a 10 ns free-evolution
//!   buffer after each pulse; inserted back-to-back while the idle window
//!   has room (Fig. 12a/b).
//! - **IBMQ-DD**: two X(π)/X(−π) pulses placed evenly in the window with
//!   delay slots `τ/4 – X – τ/2 – X – τ/4` (Fig. 12c/d, Eq. 4); long
//!   windows are split into segments so the pulse spacing stays bounded
//!   (the "conservative manner" of §6.4).
//! - **CPMG**: the classic two-pulse Y echo, same placement as IBMQ-DD —
//!   an extension beyond the paper's two protocols.
//!
//! Pulses are inserted *at exact timestamps* into the scheduled circuit,
//! so the trajectory executor sees precisely the pulse spacing each
//! protocol produces — which is what differentiates them under
//! finite-correlation-time noise.

use crate::gst::GateSequenceTable;
use device::Device;
use qcirc::{Gate, Instruction, Qubit};
use std::fmt;
use transpiler::{Layout, TimedCircuit, TimedInstruction};

/// A DD pulse protocol.
///
/// XY4 and IBMQ-DD are the paper's two protocols; CPMG, XY8 and UDD are
/// extensions in the direction of its "other DD sequences" future work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DdProtocol {
    /// Continuous X–Y–X–Y repetition.
    #[default]
    Xy4,
    /// IBM's evenly-spaced X(π)–X(−π) pair.
    IbmqDd,
    /// Evenly-spaced Y–Y echo pair (extension).
    Cpmg,
    /// Continuous X–Y–X–Y–Y–X–Y–X repetition: XY4 followed by its
    /// reflection, canceling pulse-error accumulation to first order
    /// (extension).
    Xy8,
    /// Uhrig DD: `pulses` X pulses at the sin² positions
    /// `t_j = T·sin²(πj / (2N+2))`, optimal against noise with a sharp
    /// high-frequency cutoff (extension).
    Udd {
        /// Number of pulses per idle window (must be even so the window
        /// composes to identity).
        pulses: u32,
    },
}

impl fmt::Display for DdProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdProtocol::Xy4 => write!(f, "XY4"),
            DdProtocol::IbmqDd => write!(f, "IBMQ-DD"),
            DdProtocol::Cpmg => write!(f, "CPMG"),
            DdProtocol::Xy8 => write!(f, "XY8"),
            DdProtocol::Udd { pulses } => write!(f, "UDD-{pulses}"),
        }
    }
}

/// Free-evolution buffer after each pulse (10 ns on IBM systems, per
/// Pokharel et al.).
const BUFFER_NS: f64 = 10.0;

/// Insertion parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdConfig {
    /// Pulse protocol.
    pub protocol: DdProtocol,
    /// Maximum segment length for the two-pulse protocols; longer windows
    /// are split so pulse spacing stays bounded (§6.4).
    pub segment_ns: f64,
}

impl Default for DdConfig {
    fn default() -> Self {
        DdConfig {
            protocol: DdProtocol::Xy4,
            segment_ns: 2000.0,
        }
    }
}

impl DdConfig {
    /// Config for a specific protocol with paper-default parameters.
    pub fn for_protocol(protocol: DdProtocol) -> Self {
        DdConfig {
            protocol,
            ..Default::default()
        }
    }
}

/// A [`DdProtocol`] that cannot produce a valid identity-composing pulse
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DdConfigError {
    /// `Udd { pulses }` with an odd count: an odd number of X pulses
    /// leaves a net X on the idle qubit instead of composing to
    /// identity.
    OddUddPulses {
        /// The rejected pulse count.
        pulses: u32,
    },
    /// `Udd { pulses: 0 }`: the protocol would insert nothing while
    /// claiming to protect the window.
    ZeroUddPulses,
}

impl fmt::Display for DdConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdConfigError::OddUddPulses { pulses } => write!(
                f,
                "UDD pulse count {pulses} is odd: the idle window would compose \
                 to a net X instead of identity"
            ),
            DdConfigError::ZeroUddPulses => {
                write!(f, "UDD pulse count 0 would insert no pulses at all")
            }
        }
    }
}

impl std::error::Error for DdConfigError {}

impl DdProtocol {
    /// Rejects protocol parameters that cannot compose an idle window to
    /// identity. Only [`DdProtocol::Udd`] carries parameters today: its
    /// pulse count must be even (documented on the variant) and
    /// non-zero; everything else is parameter-free and always valid.
    ///
    /// # Errors
    ///
    /// A typed [`DdConfigError`] naming the violation.
    pub fn validate(&self) -> Result<(), DdConfigError> {
        match *self {
            DdProtocol::Udd { pulses: 0 } => Err(DdConfigError::ZeroUddPulses),
            DdProtocol::Udd { pulses } if pulses % 2 == 1 => {
                Err(DdConfigError::OddUddPulses { pulses })
            }
            _ => Ok(()),
        }
    }
}

/// Which program qubits receive DD — the paper's bit-vector notation
/// where combination `000…0` is no DD and `111…1` is DD on every qubit.
///
/// # Examples
///
/// ```
/// use adapt::dd::DdMask;
/// let m: DdMask = "0101".parse().unwrap();
/// assert!(m.is_set(1) && m.is_set(3));
/// assert!(!m.is_set(0));
/// assert_eq!(m.to_string(), "0101");
/// assert_eq!(m.count_ones(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DdMask {
    bits: u64,
    num_qubits: usize,
}

impl DdMask {
    /// Mask with no qubit selected.
    pub fn none(num_qubits: usize) -> Self {
        assert!(num_qubits <= 64);
        DdMask {
            bits: 0,
            num_qubits,
        }
    }

    /// Mask with every qubit selected (the All-DD policy).
    pub fn all(num_qubits: usize) -> Self {
        assert!(num_qubits <= 64);
        let bits = if num_qubits == 64 {
            u64::MAX
        } else {
            (1u64 << num_qubits) - 1
        };
        DdMask { bits, num_qubits }
    }

    /// Mask from raw bits (bit `i` = program qubit `i`).
    pub fn from_bits(bits: u64, num_qubits: usize) -> Self {
        assert!(num_qubits <= 64);
        let cap = if num_qubits == 64 {
            u64::MAX
        } else {
            (1u64 << num_qubits) - 1
        };
        DdMask {
            bits: bits & cap,
            num_qubits,
        }
    }

    /// The raw bits.
    pub fn bits(self) -> u64 {
        self.bits
    }

    /// Number of program qubits the mask ranges over.
    pub fn num_qubits(self) -> usize {
        self.num_qubits
    }

    /// Whether program qubit `i` receives DD.
    pub fn is_set(self, i: usize) -> bool {
        self.bits >> i & 1 == 1
    }

    /// Returns a copy with qubit `i` set/cleared.
    pub fn with(self, i: usize, on: bool) -> Self {
        assert!(i < self.num_qubits);
        let bits = if on {
            self.bits | 1 << i
        } else {
            self.bits & !(1 << i)
        };
        DdMask { bits, ..self }
    }

    /// Number of selected qubits.
    pub fn count_ones(self) -> u32 {
        self.bits.count_ones()
    }

    /// Bitwise OR — the paper's conservative top-2 merge (§4.3: best
    /// predictions "1001" and "1011" merge to "1011").
    pub fn union(self, other: DdMask) -> DdMask {
        assert_eq!(self.num_qubits, other.num_qubits);
        DdMask {
            bits: self.bits | other.bits,
            num_qubits: self.num_qubits,
        }
    }

    /// Iterates over the selected qubit indices.
    pub fn iter_set(self) -> impl Iterator<Item = usize> {
        (0..self.num_qubits).filter(move |&i| self.is_set(i))
    }

    /// All `2^n` masks over `n` qubits in numeric order.
    ///
    /// # Panics
    ///
    /// Panics for `n > 20` (guard against accidental exponential loops).
    pub fn enumerate_all(num_qubits: usize) -> Vec<DdMask> {
        assert!(num_qubits <= 20, "enumerate_all over {num_qubits} qubits");
        (0..(1u64 << num_qubits))
            .map(|b| DdMask::from_bits(b, num_qubits))
            .collect()
    }
}

impl fmt::Display for DdMask {
    /// Renders as the paper's bit-string notation: character `j` is
    /// program qubit `j` (so "010100" selects qubits 1 and 3).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.num_qubits {
            write!(f, "{}", if self.is_set(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl std::str::FromStr for DdMask {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() || s.len() > 64 {
            return Err(format!("mask length {} not in 1..=64", s.len()));
        }
        let mut bits = 0u64;
        for (i, ch) in s.chars().enumerate() {
            match ch {
                '1' => bits |= 1 << i,
                '0' => {}
                other => return Err(format!("invalid mask character {other:?}")),
            }
        }
        Ok(DdMask {
            bits,
            num_qubits: s.len(),
        })
    }
}

/// Result of DD insertion.
#[derive(Debug, Clone)]
pub struct InsertedDd {
    /// The schedule with pulses spliced in.
    pub timed: TimedCircuit,
    /// Number of physical pulses added.
    pub pulse_count: usize,
}

/// Maps a program-qubit mask to the physical wires that host those
/// program qubits under `layout`.
pub fn mask_to_wires(mask: DdMask, layout: &Layout) -> Vec<u32> {
    mask.iter_set().map(|p| layout.phys_of(p as u32)).collect()
}

/// The mask-independent part of DD insertion, computed once per
/// schedule: the [`GateSequenceTable`] scan, the protocol's minimum
/// window length and every wire's eligible idle windows.
///
/// Splitting this out of [`insert_dd`] matters in the search hot loop,
/// where a neighborhood scores 16 masks against the *same* decoy
/// schedule: the schedule scan happens once via
/// [`analyze_idle_windows`], and each mask pays only the cheap
/// per-masked-wire padding pass of [`insert_dd_prepared`].
#[derive(Debug, Clone)]
pub struct IdleAnalysis {
    config: DdConfig,
    pulse_ns: f64,
    min_window_ns: f64,
    /// Per physical wire: eligible `(start_ns, end_ns)` windows.
    windows: Vec<Vec<(f64, f64)>>,
}

impl IdleAnalysis {
    /// The insertion parameters the analysis was built for.
    pub fn config(&self) -> &DdConfig {
        &self.config
    }

    /// Minimum idle-window length (ns) that fits one repetition of the
    /// protocol.
    pub fn min_window_ns(&self) -> f64 {
        self.min_window_ns
    }

    /// The eligible `(start_ns, end_ns)` windows of one physical wire.
    pub fn eligible_windows(&self, wire: u32) -> &[(f64, f64)] {
        &self.windows[wire as usize]
    }
}

/// Scans a schedule once for the idle windows eligible under `config`:
/// interior and trailing windows long enough to hold at least one
/// repetition of the protocol. Leading windows (qubit still `|0⟩`) are
/// skipped.
///
/// The result is valid for any DD mask over the same schedule — pass it
/// to [`insert_dd_prepared`] repeatedly.
pub fn analyze_idle_windows(
    timed: &TimedCircuit,
    device: &Device,
    config: &DdConfig,
) -> IdleAnalysis {
    let gst = GateSequenceTable::build(timed);
    let pulse_ns = device.calibration().sq_dur_ns;
    let min_window_ns = match config.protocol {
        DdProtocol::Xy4 => 4.0 * (pulse_ns + BUFFER_NS),
        DdProtocol::Xy8 => 8.0 * (pulse_ns + BUFFER_NS),
        DdProtocol::IbmqDd | DdProtocol::Cpmg => 2.0 * pulse_ns + 4.0 * BUFFER_NS,
        DdProtocol::Udd { pulses } => (pulses.max(2) as f64) * (pulse_ns + BUFFER_NS),
    };
    let windows = (0..timed.num_qubits() as u32)
        .map(|q| {
            gst.dd_eligible_windows(q, min_window_ns)
                .iter()
                .map(|w| (w.start_ns, w.end_ns))
                .collect()
        })
        .collect();
    IdleAnalysis {
        config: *config,
        pulse_ns,
        min_window_ns,
        windows,
    }
}

/// Pads the given wires' pre-analyzed idle windows with the configured
/// protocol — the cheap per-mask half of DD insertion. Only the masked
/// wires are touched; nothing is rescanned.
///
/// `analysis` must come from [`analyze_idle_windows`] over the same
/// `timed` schedule.
///
/// # Panics
///
/// Panics when a wire index exceeds the analyzed schedule's register.
pub fn insert_dd_prepared(
    timed: &TimedCircuit,
    analysis: &IdleAnalysis,
    wires: &[u32],
) -> InsertedDd {
    let mut events: Vec<TimedInstruction> = timed.events().to_vec();
    let mut pulse_count = 0usize;
    for &wire in wires {
        for &(start, end) in analysis.eligible_windows(wire) {
            pulse_count += fill_window(
                &mut events,
                wire,
                start,
                end,
                analysis.pulse_ns,
                &analysis.config,
            );
        }
    }
    InsertedDd {
        timed: TimedCircuit::from_events(timed.num_qubits(), timed.num_clbits(), events),
        pulse_count,
    }
}

/// Inserts the configured DD sequence into every eligible idle window of
/// the given physical wires.
///
/// Windows are taken from the [`GateSequenceTable`]: interior and trailing
/// idle periods long enough to hold at least one repetition of the
/// protocol. Leading windows (qubit still `|0⟩`) are skipped.
///
/// One-shot convenience over [`analyze_idle_windows`] +
/// [`insert_dd_prepared`]; callers inserting many masks into one
/// schedule should hold the analysis and call the prepared variant.
pub fn insert_dd(
    timed: &TimedCircuit,
    device: &Device,
    wires: &[u32],
    config: &DdConfig,
) -> InsertedDd {
    insert_dd_prepared(timed, &analyze_idle_windows(timed, device, config), wires)
}

/// Fills one idle window with the configured protocol; returns the number
/// of pulses placed.
fn fill_window(
    events: &mut Vec<TimedInstruction>,
    wire: u32,
    start: f64,
    end: f64,
    pulse_ns: f64,
    config: &DdConfig,
) -> usize {
    let mut placed = 0usize;
    let mut push = |gate: Gate, at: f64| {
        events.push(TimedInstruction {
            instr: Instruction::gate(gate, vec![Qubit::new(wire)]),
            start_ns: at,
            end_ns: at + pulse_ns,
        });
    };
    match config.protocol {
        DdProtocol::Xy4 | DdProtocol::Xy8 => {
            let pattern: &[Gate] = if config.protocol == DdProtocol::Xy4 {
                &[Gate::X, Gate::Y, Gate::X, Gate::Y]
            } else {
                &[
                    Gate::X,
                    Gate::Y,
                    Gate::X,
                    Gate::Y,
                    Gate::Y,
                    Gate::X,
                    Gate::Y,
                    Gate::X,
                ]
            };
            let rep = pattern.len() as f64 * (pulse_ns + BUFFER_NS);
            let mut t = start;
            while t + rep <= end + 1e-9 {
                for &gate in pattern {
                    push(gate, t);
                    t += pulse_ns + BUFFER_NS;
                    placed += 1;
                }
            }
        }
        DdProtocol::Udd { pulses } => {
            // Even pulse count keeps the window an identity; Uhrig spacing
            // t_j = T·sin²(πj / (2N+2)), pulse centered at t_j.
            let n_pulses = (pulses.max(2) & !1) as usize;
            let duration = end - start;
            if duration < n_pulses as f64 * (pulse_ns + BUFFER_NS) {
                return 0;
            }
            for j in 1..=n_pulses {
                let frac = (std::f64::consts::PI * j as f64 / (2.0 * n_pulses as f64 + 2.0))
                    .sin()
                    .powi(2);
                let center = start + frac * duration;
                let at = (center - pulse_ns / 2.0).max(start).min(end - pulse_ns);
                push(Gate::X, at);
                placed += 1;
            }
        }
        DdProtocol::IbmqDd | DdProtocol::Cpmg => {
            let gate = if config.protocol == DdProtocol::Cpmg {
                Gate::Y
            } else {
                Gate::X
            };
            let duration = end - start;
            let segments = (duration / config.segment_ns).ceil().max(1.0) as usize;
            let seg_len = duration / segments as f64;
            if seg_len < 2.0 * pulse_ns + 4.0 * BUFFER_NS {
                return 0;
            }
            for s in 0..segments {
                let s0 = start + s as f64 * seg_len;
                // Eq. 4: delay(τ/4) with τ = segment − 2 pulses.
                let tau4 = (seg_len - 2.0 * pulse_ns) / 4.0;
                // τ/4 – X(π) – τ/2 – X(−π) – τ/4. X(−π) equals X(π) up to
                // global phase; the distinction matters only for pulse-level
                // calibration robustness, which the gate-level model folds
                // into err_1q.
                push(gate, s0 + tau4);
                push(gate, s0 + tau4 + pulse_ns + 2.0 * tau4);
                placed += 2;
            }
        }
    }
    placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::Device;
    use qcirc::{Circuit, OpKind};
    use transpiler::{transpile, TranspileOptions};

    fn timed_with_idle(idle_ns: f64) -> (Device, TimedCircuit) {
        let dev = Device::ibmq_rome(1);
        let mut c = Circuit::new(2);
        // q1 busy-idles between two X gates.
        c.x(1);
        c.delay(idle_ns, 1);
        c.x(1).measure(1, 1);
        let t = transpile(
            &c,
            &dev,
            &TranspileOptions {
                layout: transpiler::LayoutStrategy::Trivial,
                scheduling: transpiler::SchedulePolicy::Asap,
                skip_optimization: true,
            },
        );
        (dev, t.timed)
    }

    #[test]
    fn mask_roundtrip_and_paper_notation() {
        let m: DdMask = "010100".parse().unwrap();
        assert_eq!(m.num_qubits(), 6);
        assert_eq!(m.iter_set().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(m.to_string(), "010100");
        assert_eq!(DdMask::all(6).to_string(), "111111");
        assert_eq!(DdMask::none(6).to_string(), "000000");
    }

    #[test]
    fn mask_parse_rejects_garbage() {
        assert!("01x1".parse::<DdMask>().is_err());
        assert!("".parse::<DdMask>().is_err());
    }

    #[test]
    fn conservative_merge_matches_paper_example() {
        // §4.3: "if the two best predictions are 1001 and 1011, the chosen
        // sequence is 1011".
        let a: DdMask = "1001".parse().unwrap();
        let b: DdMask = "1011".parse().unwrap();
        assert_eq!(a.union(b).to_string(), "1011");
    }

    #[test]
    fn enumerate_all_covers_space() {
        let all = DdMask::enumerate_all(4);
        assert_eq!(all.len(), 16);
        assert_eq!(all[0], DdMask::none(4));
        assert_eq!(all[15], DdMask::all(4));
    }

    #[test]
    fn xy4_fills_long_window_continuously() {
        let (dev, timed) = timed_with_idle(2000.0);
        let out = insert_dd(&timed, &dev, &[1], &DdConfig::default());
        // 2000ns window, 180ns per rep → 11 reps → 44 pulses.
        let reps = (2000.0f64 / (4.0 * 45.0)).floor() as usize;
        assert_eq!(out.pulse_count, 4 * reps);
        // Pulses alternate X and Y.
        let pulses: Vec<Gate> = out
            .timed
            .events()
            .iter()
            .filter(|e| {
                matches!(e.instr.kind, OpKind::Gate(Gate::X | Gate::Y))
                    && e.start_ns >= 35.0 - 1e-9
                    && e.end_ns < 2030.0
            })
            .map(|e| e.instr.as_gate().unwrap())
            .collect();
        assert!(pulses.len() >= 4);
        assert_eq!(pulses[0], Gate::X);
        assert_eq!(pulses[1], Gate::Y);
    }

    #[test]
    fn short_window_gets_no_pulses() {
        let (dev, timed) = timed_with_idle(100.0);
        let out = insert_dd(&timed, &dev, &[1], &DdConfig::default());
        assert_eq!(out.pulse_count, 0);
        assert_eq!(out.timed.events().len(), timed.events().len());
    }

    #[test]
    fn unselected_wire_untouched() {
        let (dev, timed) = timed_with_idle(2000.0);
        let out = insert_dd(&timed, &dev, &[0], &DdConfig::default());
        // Wire 0 never operates (Unused window) → nothing eligible.
        assert_eq!(out.pulse_count, 0);
    }

    #[test]
    fn ibmq_dd_places_two_pulses_per_segment_evenly() {
        let (dev, timed) = timed_with_idle(1000.0);
        let out = insert_dd(
            &timed,
            &dev,
            &[1],
            &DdConfig::for_protocol(DdProtocol::IbmqDd),
        );
        assert_eq!(out.pulse_count, 2);
        let pulses: Vec<&TimedInstruction> = out
            .timed
            .events()
            .iter()
            .filter(|e| {
                e.instr.as_gate() == Some(Gate::X) && e.start_ns > 35.0 && e.start_ns < 1030.0
            })
            .collect();
        assert_eq!(pulses.len(), 2);
        // Eq. 4 spacing: gap between pulses = τ/2 = 2·τ/4.
        let tau4 = (1000.0 - 70.0) / 4.0;
        let gap = pulses[1].start_ns - pulses[0].end_ns;
        assert!((gap - 2.0 * tau4).abs() < 1.0, "gap {gap}");
    }

    #[test]
    fn ibmq_dd_segments_long_windows() {
        let (dev, timed) = timed_with_idle(7000.0);
        let out = insert_dd(
            &timed,
            &dev,
            &[1],
            &DdConfig::for_protocol(DdProtocol::IbmqDd),
        );
        // 7000ns / 2000ns → 4 segments → 8 pulses.
        assert_eq!(out.pulse_count, 8);
    }

    #[test]
    fn validate_rejects_odd_udd_pulses() {
        let err = DdProtocol::Udd { pulses: 5 }.validate().unwrap_err();
        assert_eq!(err, DdConfigError::OddUddPulses { pulses: 5 });
        let err = DdProtocol::Udd { pulses: 3 }.validate().unwrap_err();
        assert_eq!(err, DdConfigError::OddUddPulses { pulses: 3 });
    }

    #[test]
    fn validate_rejects_zero_udd_pulses() {
        assert_eq!(
            DdProtocol::Udd { pulses: 0 }.validate(),
            Err(DdConfigError::ZeroUddPulses)
        );
    }

    #[test]
    fn validate_accepts_even_udd_and_parameter_free_protocols() {
        for protocol in [
            DdProtocol::Xy4,
            DdProtocol::IbmqDd,
            DdProtocol::Cpmg,
            DdProtocol::Xy8,
            DdProtocol::Udd { pulses: 2 },
            DdProtocol::Udd { pulses: 8 },
        ] {
            assert_eq!(protocol.validate(), Ok(()));
        }
    }

    #[test]
    fn cpmg_uses_y_pulses() {
        let (dev, timed) = timed_with_idle(1000.0);
        let out = insert_dd(
            &timed,
            &dev,
            &[1],
            &DdConfig::for_protocol(DdProtocol::Cpmg),
        );
        assert_eq!(out.pulse_count, 2);
        let y_count = out
            .timed
            .events()
            .iter()
            .filter(|e| e.instr.as_gate() == Some(Gate::Y))
            .count();
        assert_eq!(y_count, 2);
    }

    #[test]
    fn pulses_stay_inside_their_window() {
        let (dev, timed) = timed_with_idle(3000.0);
        for protocol in [DdProtocol::Xy4, DdProtocol::IbmqDd, DdProtocol::Cpmg] {
            let out = insert_dd(&timed, &dev, &[1], &DdConfig::for_protocol(protocol));
            let x_start = 35.0; // first X ends at 35; window starts there
            for e in out.timed.events() {
                if matches!(e.instr.kind, OpKind::Gate(Gate::X | Gate::Y))
                    && e.instr.qubits[0].index() == 1
                    && e.start_ns > x_start
                    && e.start_ns < 3035.0
                {
                    assert!(e.start_ns >= x_start - 1e-9);
                    assert!(e.end_ns <= 3035.0 + 1e-9, "pulse leaks at {}", e.end_ns);
                }
            }
        }
    }

    #[test]
    fn xy8_pattern_is_xy4_plus_reflection() {
        let (dev, timed) = timed_with_idle(1000.0);
        let out = insert_dd(&timed, &dev, &[1], &DdConfig::for_protocol(DdProtocol::Xy8));
        // 1000ns window, 8·45ns rep → 2 reps → 16 pulses.
        assert_eq!(out.pulse_count, 16);
        let pulses: Vec<Gate> = out
            .timed
            .events()
            .iter()
            .filter(|e| {
                matches!(e.instr.kind, OpKind::Gate(Gate::X | Gate::Y))
                    && e.start_ns >= 35.0 - 1e-9
                    && e.end_ns < 1035.0
            })
            .map(|e| e.instr.as_gate().unwrap())
            .collect();
        assert_eq!(
            &pulses[..8],
            &[
                Gate::X,
                Gate::Y,
                Gate::X,
                Gate::Y,
                Gate::Y,
                Gate::X,
                Gate::Y,
                Gate::X
            ]
        );
    }

    #[test]
    fn udd_places_even_pulses_at_sin_squared_positions() {
        let (dev, timed) = timed_with_idle(2000.0);
        let out = insert_dd(
            &timed,
            &dev,
            &[1],
            &DdConfig::for_protocol(DdProtocol::Udd { pulses: 6 }),
        );
        assert_eq!(out.pulse_count, 6);
        let starts: Vec<f64> = out
            .timed
            .events()
            .iter()
            .filter(|e| {
                e.instr.as_gate() == Some(Gate::X) && e.start_ns >= 35.0 - 1e-9 && e.end_ns < 2035.0
            })
            .map(|e| e.start_ns)
            .collect();
        assert_eq!(starts.len(), 6);
        // Strictly increasing and non-uniform (Uhrig spacing bunches
        // pulses toward the window edges).
        for w in starts.windows(2) {
            assert!(w[1] > w[0]);
        }
        let first_gap = starts[1] - starts[0];
        let mid_gap = starts[3] - starts[2];
        assert!(
            mid_gap > first_gap,
            "UDD gaps should widen toward the middle: {first_gap} vs {mid_gap}"
        );
    }

    #[test]
    fn udd_odd_request_rounds_down_to_even() {
        let (dev, timed) = timed_with_idle(2000.0);
        let out = insert_dd(
            &timed,
            &dev,
            &[1],
            &DdConfig::for_protocol(DdProtocol::Udd { pulses: 5 }),
        );
        assert_eq!(out.pulse_count, 4);
    }

    #[test]
    fn mask_to_wires_follows_layout() {
        let layout = Layout::from_assignment(vec![3, 1, 4], 5);
        let m: DdMask = "101".parse().unwrap();
        assert_eq!(mask_to_wires(m, &layout), vec![3, 4]);
    }

    #[test]
    fn total_makespan_unchanged_by_insertion() {
        let (dev, timed) = timed_with_idle(2000.0);
        let before = timed.total_ns();
        let out = insert_dd(&timed, &dev, &[1], &DdConfig::default());
        assert!((out.timed.total_ns() - before).abs() < 1e-6);
    }

    #[test]
    fn prepared_insertion_matches_one_shot_for_every_protocol() {
        let (dev, timed) = timed_with_idle(3000.0);
        for protocol in [
            DdProtocol::Xy4,
            DdProtocol::Xy8,
            DdProtocol::IbmqDd,
            DdProtocol::Cpmg,
            DdProtocol::Udd { pulses: 6 },
        ] {
            let config = DdConfig::for_protocol(protocol);
            let analysis = analyze_idle_windows(&timed, &dev, &config);
            for wires in [vec![], vec![0], vec![1], vec![0, 1]] {
                let one_shot = insert_dd(&timed, &dev, &wires, &config);
                let prepared = insert_dd_prepared(&timed, &analysis, &wires);
                assert_eq!(prepared.pulse_count, one_shot.pulse_count, "{protocol}");
                assert_eq!(prepared.timed, one_shot.timed, "{protocol} wires {wires:?}");
            }
        }
    }

    #[test]
    fn analysis_exposes_windows_and_threshold() {
        let (dev, timed) = timed_with_idle(2000.0);
        let config = DdConfig::default();
        let analysis = analyze_idle_windows(&timed, &dev, &config);
        // XY4 on Rome: 4 · (35 + 10) = 180 ns minimum.
        assert!((analysis.min_window_ns() - 180.0).abs() < 1e-9);
        assert_eq!(analysis.config().protocol, DdProtocol::Xy4);
        // Wire 1 has the 2000 ns interior window (plus any trailing one);
        // wire 0 never operates, so nothing is eligible.
        assert!(!analysis.eligible_windows(1).is_empty());
        assert!(analysis.eligible_windows(0).is_empty());
        for &(s, e) in analysis.eligible_windows(1) {
            assert!(e - s >= analysis.min_window_ns());
        }
    }
}
