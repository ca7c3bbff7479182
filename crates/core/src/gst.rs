//! The Gate Sequence Table (GST) — §4.4.2 of the paper.
//!
//! "The GST slices the compiled circuit into layers and captures the data
//! dependencies between the qubits in time … using timestamps generated by
//! physical gate latencies." Concretely: a per-qubit table of classified
//! idle windows built from a scheduled [`TimedCircuit`]. ADAPT queries it
//! to find every idle period eligible for DD insertion.

use transpiler::{IdleKind, IdleWindow, TimedCircuit};

/// One row of the GST: a qubit's idle windows.
#[derive(Debug, Clone)]
pub struct GstRow {
    /// Physical qubit index.
    pub qubit: u32,
    /// Idle windows between (and around) operations.
    pub idle: Vec<IdleWindow>,
    /// Fraction of the program the qubit spends idle.
    pub idle_fraction: f64,
}

/// The Gate Sequence Table of a scheduled circuit.
///
/// # Examples
///
/// ```
/// use adapt::gst::GateSequenceTable;
/// use device::Device;
/// use qcirc::Circuit;
/// use transpiler::{transpile, TranspileOptions};
///
/// let dev = Device::ibmq_rome(1);
/// let mut c = Circuit::new(3);
/// c.h(0).cx(0, 1).cx(1, 2).measure_all();
/// let t = transpile(&c, &dev, &TranspileOptions::default());
/// let gst = GateSequenceTable::build(&t.timed);
/// assert_eq!(gst.rows().len(), 5); // one row per physical qubit
/// assert!(gst.total_ns() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct GateSequenceTable {
    rows: Vec<GstRow>,
    total_ns: f64,
}

impl GateSequenceTable {
    /// Builds the table from a scheduled circuit.
    pub fn build(timed: &TimedCircuit) -> Self {
        let total_ns = timed.total_ns();
        let rows = (0..timed.num_qubits() as u32)
            .map(|q| {
                let idle = timed.idle_windows(q);
                // `TimedCircuit::idle_fraction` over the windows in hand.
                let idle_fraction = if total_ns <= 0.0 {
                    0.0
                } else {
                    idle.iter().map(|w| w.duration_ns()).sum::<f64>() / total_ns
                };
                GstRow {
                    qubit: q,
                    idle,
                    idle_fraction,
                }
            })
            .collect();
        GateSequenceTable { rows, total_ns }
    }

    /// All rows, indexed by physical qubit.
    pub fn rows(&self) -> &[GstRow] {
        &self.rows
    }

    /// Row for one qubit.
    ///
    /// # Panics
    ///
    /// Panics when `q` is out of range.
    pub fn row(&self, q: u32) -> &GstRow {
        &self.rows[q as usize]
    }

    /// Program makespan (ns).
    pub fn total_ns(&self) -> f64 {
        self.total_ns
    }

    /// Idle windows of a qubit that are eligible for DD insertion:
    /// interior and trailing windows of at least `min_ns` duration.
    /// Leading windows are skipped — the qubit still holds `|0⟩`, which is
    /// insensitive to dephasing, so pulses there can only add error.
    pub fn dd_eligible_windows(&self, q: u32, min_ns: f64) -> Vec<IdleWindow> {
        self.row(q)
            .idle
            .iter()
            .filter(|w| {
                matches!(w.kind, IdleKind::Interior | IdleKind::Trailing)
                    && w.duration_ns() >= min_ns
            })
            .copied()
            .collect()
    }

    /// Total idle time (ns) of a qubit across all windows.
    pub fn total_idle_ns(&self, q: u32) -> f64 {
        self.row(q).idle.iter().map(|w| w.duration_ns()).sum()
    }

    /// Qubits ordered by decreasing total idle time — used to pick SDC
    /// seed qubits and to order the localized search.
    pub fn qubits_by_idle_time(&self) -> Vec<u32> {
        let mut qs: Vec<u32> = (0..self.rows.len() as u32).collect();
        qs.sort_by(|&a, &b| {
            self.total_idle_ns(b)
                .partial_cmp(&self.total_idle_ns(a))
                .expect("idle times are finite")
        });
        qs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use device::Device;
    use qcirc::Circuit;
    use transpiler::{transpile, TranspileOptions};

    fn table_for(c: &Circuit) -> GateSequenceTable {
        let dev = Device::ibmq_rome(1);
        let t = transpile(c, &dev, &TranspileOptions::default());
        GateSequenceTable::build(&t.timed)
    }

    #[test]
    fn program_qubits_are_in_use() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let gst = table_for(&c);
        // Physical qubits hosting the program have operations.
        let used = gst
            .rows()
            .iter()
            .filter(|r| !r.idle.iter().any(|w| w.kind == IdleKind::Unused))
            .count();
        assert!(used >= 2);
    }

    #[test]
    fn idle_fractions_consistent_with_rows() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).cx(0, 1).measure_all();
        let gst = table_for(&c);
        for row in gst.rows() {
            let idle_sum: f64 = row.idle.iter().map(|w| w.duration_ns()).sum();
            assert!(
                (idle_sum / gst.total_ns() - row.idle_fraction).abs() < 1e-9,
                "row {} inconsistent",
                row.qubit
            );
        }
        // Every row equals the schedule's own answer bit for bit.
        for dev in [Device::ibmq_toronto(1), Device::ibmq_guadalupe(1)] {
            for bench in benchmarks::paper_suite() {
                let t = transpile(&bench.circuit, &dev, &TranspileOptions::default());
                let gst = GateSequenceTable::build(&t.timed);
                assert_eq!(gst.total_ns(), t.timed.total_ns());
                assert_eq!(gst.rows().len(), t.timed.num_qubits());
                for row in gst.rows() {
                    assert_eq!(row.idle, t.timed.idle_windows(row.qubit), "{}", bench.name);
                    assert_eq!(
                        row.idle_fraction.to_bits(),
                        t.timed.idle_fraction(row.qubit).to_bits(),
                        "{} q{}",
                        bench.name,
                        row.qubit
                    );
                }
            }
        }
    }

    #[test]
    fn eligible_windows_exclude_leading_and_short() {
        let dev = Device::ibmq_rome(1);
        let mut c = Circuit::new(2);
        // q1 idles while q0 runs two X gates (70ns: below a 100ns floor),
        // then both interact and q0 idles at the end.
        c.x(0).x(0).cx(0, 1).x(1).measure_all();
        let t = transpile(&c, &dev, &TranspileOptions::default());
        let gst = GateSequenceTable::build(&t.timed);
        for q in 0..2 {
            for w in gst.dd_eligible_windows(q, 100.0) {
                assert!(w.duration_ns() >= 100.0);
                assert!(!matches!(w.kind, IdleKind::Leading | IdleKind::Unused));
            }
        }
    }

    #[test]
    fn qubits_by_idle_time_is_sorted() {
        let mut c = Circuit::new(4);
        c.h(0)
            .cx(0, 1)
            .cx(1, 2)
            .cx(2, 3)
            .cx(1, 2)
            .cx(0, 1)
            .measure_all();
        let gst = table_for(&c);
        let order = gst.qubits_by_idle_time();
        for w in order.windows(2) {
            assert!(gst.total_idle_ns(w[0]) >= gst.total_idle_ns(w[1]));
        }
    }
}
