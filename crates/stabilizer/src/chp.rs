//! Aaronson–Gottesman CHP stabilizer tableau simulator.
//!
//! Simulates Clifford circuits (CX, CZ, SWAP, H, S, S†, X, Y, Z, √X, √X†)
//! in polynomial time and space — the engine behind ADAPT's Clifford Decoy
//! Circuits, whose ideal outputs must be classically computable
//! (Insight #1, §4.2 of the paper).
//!
//! The tableau follows Aaronson & Gottesman, *Improved simulation of
//! stabilizer circuits* (PRA 70, 052328): `2n` rows of X/Z bits plus a
//! sign bit; rows `0..n` are destabilizers, rows `n..2n` stabilizers.
//!
//! # Column layout
//!
//! The tableau is stored column-major and bit-packed in one flat
//! `Vec<u64>`: per qubit an X column and a Z column, each holding that
//! qubit's bit of all `2n` rows, then one sign column. A column is
//! `w = ⌈2n / 64⌉` words, so one word on every device of ≤ 32 qubits.
//! Row `r` is bit `r % 64` of word `r / 64`; padding bits past row `2n`
//! stay zero.
//!
//! A gate touches only its qubits' columns and the sign column, so it
//! costs `w` word operations instead of a walk over every row. For
//! example, `H` is `sign ^= x & z` and a swap of the X and Z columns, and
//! `CX` is `sign ^= xa & zb & !(xb ^ za); xb ^= xa; za ^= zb`.
//!
//! A random measurement multiplies every row with X on the measured qubit
//! by one pivot row (Aaronson–Gottesman's `rowsum`). That also runs
//! column by column: each row's phase exponent is kept mod 4 in two
//! bit-sliced words.
//!
//! # Symbolic measurement
//!
//! Whether a measurement is random depends only on the X/Z bits, never on
//! the signs. Measurement updates a sign by XOR with other signs plus a
//! phase term that again depends only on X/Z bits. So a list of qubits can
//! be measured once with each row sign carried as an affine form over
//! GF(2) in the random outcomes drawn so far:
//! [`Tableau::measure_symbolic`] returns every outcome as
//! `constant ^ parity(mask & drawn)`. Sampling terminal shots from those
//! forms costs a few draws and parities per shot, with no tableau clone,
//! and [`exact_distribution`] enumerates the `2^r` assignments of the `r`
//! random outcomes.

use qcirc::{Circuit, Counts, Gate, OpKind};
use rand::Rng;
use std::collections::BTreeMap;

/// The outcome of measuring a qubit on a stabilizer state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureKind {
    /// The outcome was determined by the state.
    Deterministic(bool),
    /// The outcome was uniformly random; the recorded bit was sampled.
    Random(bool),
}

impl MeasureKind {
    /// The measured bit.
    pub fn bit(self) -> bool {
        match self {
            MeasureKind::Deterministic(b) | MeasureKind::Random(b) => b,
        }
    }
}

/// One outcome of [`Tableau::measure_symbolic`]: the affine form
/// `constant ^ parity(mask & drawn)`, where bit `i` of `drawn` is the
/// `i`-th random outcome of the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolicOutcome {
    /// Whether this measurement draws a fresh random outcome; its mask is
    /// then that outcome's bit alone.
    random: bool,
    /// The outcome when every random outcome is 0.
    constant: bool,
    /// The random outcomes whose parity flips this one.
    mask: u64,
}

impl SymbolicOutcome {
    /// The outcome under the random outcomes `drawn`.
    pub fn eval(self, drawn: u64) -> bool {
        self.constant ^ ((self.mask & drawn).count_ones() & 1 == 1)
    }

    /// Samples the next outcome of a pass, in order: a random one draws
    /// one `bool` from `rng` (as [`Tableau::measure`] does) and records it
    /// in `drawn`; then the form is evaluated.
    pub fn sample<R: Rng + ?Sized>(self, drawn: &mut u64, rng: &mut R) -> bool {
        if self.random && rng.gen::<bool>() {
            *drawn |= self.mask;
        }
        self.eval(*drawn)
    }
}

/// Error raised when a non-Clifford instruction reaches the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct NonCliffordError {
    /// The offending gate.
    pub gate: Gate,
}

impl std::fmt::Display for NonCliffordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gate {} is not Clifford-simulable", self.gate)
    }
}

impl std::error::Error for NonCliffordError {}

/// A stabilizer state over `n` qubits, initially `|0…0⟩`.
///
/// # Examples
///
/// ```
/// use stab::chp::Tableau;
/// use rand::SeedableRng;
///
/// let mut t = Tableau::new(2);
/// t.h(0);
/// t.cx(0, 1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let a = t.measure(0, &mut rng).bit();
/// let b = t.measure(1, &mut rng).bit();
/// assert_eq!(a, b); // Bell pair: perfectly correlated
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tableau {
    n: usize,
    /// Words per column, `⌈2n / 64⌉`.
    w: usize,
    /// Column-major bits (see the module docs): qubit `q`'s X column
    /// starts at word `2q·w`, its Z column at `(2q + 1)·w`, and the sign
    /// column at `2n·w`.
    cols: Vec<u64>,
}

/// The low `k` bits of a word, all of them when `k ≥ 64`.
#[inline]
fn low_bits(k: usize) -> u64 {
    if k >= 64 {
        !0
    } else {
        (1 << k) - 1
    }
}

impl Tableau {
    /// Creates the `|0…0⟩` state: stabilizers `Z_i`, destabilizers `X_i`.
    pub fn new(n: usize) -> Self {
        let w = (2 * n).div_ceil(64);
        let mut t = Tableau {
            n,
            w,
            cols: vec![0; (2 * n + 1) * w],
        };
        for q in 0..n {
            t.set(t.xcol(q), q, true); // destabilizer X_q
            t.set(t.zcol(q), n + q, true); // stabilizer Z_q
        }
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// First word of qubit `q`'s X column.
    #[inline]
    fn xcol(&self, q: usize) -> usize {
        2 * q * self.w
    }

    /// First word of qubit `q`'s Z column.
    #[inline]
    fn zcol(&self, q: usize) -> usize {
        (2 * q + 1) * self.w
    }

    /// First word of the sign column.
    #[inline]
    fn scol(&self) -> usize {
        2 * self.n * self.w
    }

    /// Row `r`'s bit of the column starting at word `col`.
    #[inline]
    fn get(&self, col: usize, r: usize) -> bool {
        self.cols[col + r / 64] >> (r % 64) & 1 == 1
    }

    #[inline]
    fn set(&mut self, col: usize, r: usize, v: bool) {
        let word = &mut self.cols[col + r / 64];
        let bit = 1u64 << (r % 64);
        if v {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    #[inline]
    fn check(&self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range for {} qubits", self.n);
    }

    /// Replaces qubit `q`'s X and Z columns and the sign column, word by
    /// word, with `f(x, z, sign)`.
    #[inline]
    fn map1(&mut self, q: usize, f: impl Fn(u64, u64, u64) -> (u64, u64, u64)) {
        self.check(q);
        let (xc, zc, sc) = (self.xcol(q), self.zcol(q), self.scol());
        for i in 0..self.w {
            let (x, z, s) = f(self.cols[xc + i], self.cols[zc + i], self.cols[sc + i]);
            self.cols[xc + i] = x;
            self.cols[zc + i] = z;
            self.cols[sc + i] = s;
        }
    }

    /// Hadamard on qubit `q`: `sign ^= x & z`, then swap X and Z.
    pub fn h(&mut self, q: usize) {
        self.map1(q, |x, z, s| (z, x, s ^ (x & z)));
    }

    /// Phase gate S on qubit `q`: `sign ^= x & z; z ^= x`.
    pub fn s(&mut self, q: usize) {
        self.map1(q, |x, z, s| (x, z ^ x, s ^ (x & z)));
    }

    /// S† on qubit `q` (S·S·S): `sign ^= x & !z; z ^= x`.
    pub fn sdg(&mut self, q: usize) {
        self.map1(q, |x, z, s| (x, z ^ x, s ^ (x & !z)));
    }

    /// Pauli-Z on `q` (S²): `sign ^= x`.
    pub fn z(&mut self, q: usize) {
        self.map1(q, |x, z, s| (x, z, s ^ x));
    }

    /// Pauli-X on `q`: `sign ^= z`.
    pub fn x(&mut self, q: usize) {
        self.map1(q, |x, z, s| (x, z, s ^ z));
    }

    /// Pauli-Y on `q`: `sign ^= x ^ z`.
    pub fn y(&mut self, q: usize) {
        self.map1(q, |x, z, s| (x, z, s ^ x ^ z));
    }

    /// √X on `q` (H·S·H, exactly equal as matrices): `sign ^= z & !x;
    /// x ^= z`.
    pub fn sx(&mut self, q: usize) {
        self.map1(q, |x, z, s| (x ^ z, z, s ^ (z & !x)));
    }

    /// √X† on `q` (H·S†·H): `sign ^= x & z; x ^= z`.
    pub fn sxdg(&mut self, q: usize) {
        self.map1(q, |x, z, s| (x ^ z, z, s ^ (x & z)));
    }

    /// CNOT with control `a`, target `b`: `sign ^= xa & zb & !(xb ^ za);
    /// xb ^= xa; za ^= zb`.
    ///
    /// # Panics
    ///
    /// Panics when `a == b` or either is out of range. Circuits reject
    /// duplicate operands, so that is a caller bug; letting it through
    /// would clear qubit `a`'s X column.
    pub fn cx(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "CX needs two distinct qubits");
        self.check(a);
        self.check(b);
        let (xa, za) = (self.xcol(a), self.zcol(a));
        let (xb, zb) = (self.xcol(b), self.zcol(b));
        let sc = self.scol();
        let c = &mut self.cols;
        for i in 0..self.w {
            let (x_a, z_a, x_b, z_b) = (c[xa + i], c[za + i], c[xb + i], c[zb + i]);
            c[sc + i] ^= x_a & z_b & !(x_b ^ z_a);
            c[xb + i] = x_b ^ x_a;
            c[za + i] = z_a ^ z_b;
        }
    }

    /// CZ on `a`, `b` (H on target conjugating CX).
    ///
    /// # Panics
    ///
    /// As [`Tableau::cx`].
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cx(a, b);
        self.h(b);
    }

    /// SWAP via three CNOTs.
    ///
    /// # Panics
    ///
    /// As [`Tableau::cx`].
    pub fn swap(&mut self, a: usize, b: usize) {
        self.cx(a, b);
        self.cx(b, a);
        self.cx(a, b);
    }

    /// Applies a Clifford gate by name.
    ///
    /// # Errors
    ///
    /// Returns [`NonCliffordError`] for gates outside the Clifford group
    /// (including parameterized rotations — decoy circuits replace those
    /// before simulation).
    pub fn apply_gate(&mut self, gate: Gate, qubits: &[usize]) -> Result<(), NonCliffordError> {
        match gate {
            Gate::I => {}
            Gate::X => self.x(qubits[0]),
            Gate::Y => self.y(qubits[0]),
            Gate::Z => self.z(qubits[0]),
            Gate::H => self.h(qubits[0]),
            Gate::S => self.s(qubits[0]),
            Gate::Sdg => self.sdg(qubits[0]),
            Gate::SX => self.sx(qubits[0]),
            Gate::SXdg => self.sxdg(qubits[0]),
            Gate::CX => self.cx(qubits[0], qubits[1]),
            Gate::CZ => self.cz(qubits[0], qubits[1]),
            Gate::Swap => self.swap(qubits[0], qubits[1]),
            g => return Err(NonCliffordError { gate: g }),
        }
        Ok(())
    }

    /// Phase exponent contribution of multiplying Pauli terms, the `g`
    /// function of Aaronson–Gottesman: returns the exponent of `i`
    /// (mod 4, in {-1, 0, 1}) when `X^{x1}Z^{z1}` multiplies `X^{x2}Z^{z2}`.
    #[inline]
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => (z2 as i32) - (x2 as i32),
            (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1),
            (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)),
        }
    }

    /// The rows in `rows` whose X bit on qubit `q` is set, ascending.
    fn rows_with_x(
        &self,
        q: usize,
        rows: std::ops::Range<usize>,
    ) -> impl Iterator<Item = usize> + '_ {
        let col = &self.cols[self.xcol(q)..][..self.w];
        col.iter().enumerate().flat_map(move |(i, &word)| {
            let base = 64 * i;
            let lo = rows.start.saturating_sub(base);
            let hi = rows.end.saturating_sub(base);
            let mut bits = word & low_bits(hi) & !low_bits(lo);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let r = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    r
                })
            })
        })
    }

    /// The first stabilizer row with X on `q`: the pivot of a random
    /// measurement, `None` when the outcome is deterministic.
    fn random_pivot(&self, q: usize) -> Option<usize> {
        self.rows_with_x(q, self.n..2 * self.n).next()
    }

    /// Collapses a random measurement of `q` with pivot row `p` onto
    /// `outcome`. Every other row with X on `q` is multiplied by row `p`,
    /// except row `p − n`: it is overwritten with row `p` below, and its
    /// product with row `p` would carry an imaginary phase (they
    /// anticommute). Row `p` then becomes `(−1)^outcome Z_q`.
    fn collapse(&mut self, q: usize, p: usize, outcome: bool) {
        let (n, w, sc) = (self.n, self.w, self.scol());
        let sign_p = if self.get(sc, p) { !0 } else { 0 };
        for i in 0..w {
            let mut hit = self.cols[self.xcol(q) + i];
            for r in [p, p - n] {
                if r / 64 == i {
                    hit &= !(1 << (r % 64));
                }
            }
            if hit == 0 {
                continue;
            }
            // Each row's phase exponent mod 4, bit-sliced into (c1, c0),
            // starting at 2·sign_r + 2·sign_p.
            let (mut c0, mut c1) = (0u64, self.cols[sc + i] ^ sign_p);
            for j in 0..n {
                let (xc, zc) = (self.xcol(j) + i, self.zcol(j) + i);
                let (xp, zp) = (self.get(self.xcol(j), p), self.get(self.zcol(j), p));
                let (x, z) = (self.cols[xc], self.cols[zc]);
                // The rows where `g(row p, row r)` on qubit j is +1 and −1.
                let (plus, minus) = match (xp, zp) {
                    (false, false) => continue,
                    (true, true) => (z & !x, x & !z),
                    (true, false) => (z & x, z & !x),
                    (false, true) => (x & !z, x & z),
                };
                c1 ^= c0 & plus;
                c0 ^= plus;
                c1 ^= !c0 & minus;
                c0 ^= minus;
                if xp {
                    self.cols[xc] = x ^ hit;
                }
                if zp {
                    self.cols[zc] = z ^ hit;
                }
            }
            // The new sign is whether the exponent is 2 (it is even: the
            // rows commute with row p).
            let s = &mut self.cols[sc + i];
            *s = (*s & !hit) | (c1 & !c0 & hit);
        }
        for col in (0..=2 * n).map(|c| c * w) {
            let bit = self.get(col, p);
            self.set(col, p - n, bit);
            self.set(col, p, false);
        }
        self.set(self.zcol(q), p, true);
        self.set(sc, p, outcome);
    }

    /// The outcome of a deterministic measurement of `q`: the sign of the
    /// product of the stabilizers whose destabilizer partner has X on `q`
    /// (Aaronson–Gottesman's scratch row `2n`), multiplied in row order.
    fn deterministic_sign(&self, q: usize) -> bool {
        let n = self.n;
        let (mut sx, mut sz) = (vec![false; n], vec![false; n]);
        let mut sign = false;
        for i in self.rows_with_x(q, 0..n) {
            let s = n + i;
            let mut phase = 2 * (sign as i32) + 2 * (self.get(self.scol(), s) as i32);
            for j in 0..n {
                let (x, z) = (self.get(self.xcol(j), s), self.get(self.zcol(j), s));
                phase += Self::g(x, z, sx[j], sz[j]);
                sx[j] ^= x;
                sz[j] ^= z;
            }
            sign = phase.rem_euclid(4) == 2;
        }
        sign
    }

    /// Measures qubit `q` in the computational basis, collapsing the state.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> MeasureKind {
        self.measure_with(q, || rng.gen::<bool>())
    }

    /// Measures qubit `q`, forcing a random outcome to `forced`.
    pub fn measure_forced(&mut self, q: usize, forced: bool) -> MeasureKind {
        self.measure_with(q, || forced)
    }

    fn measure_with<F: FnOnce() -> bool>(&mut self, q: usize, sample: F) -> MeasureKind {
        self.check(q);
        match self.random_pivot(q) {
            Some(p) => {
                let outcome = sample();
                self.collapse(q, p, outcome);
                MeasureKind::Random(outcome)
            }
            None => MeasureKind::Deterministic(self.deterministic_sign(q)),
        }
    }

    /// Measures `qubits` in order, once, carrying every row sign as an
    /// affine form over GF(2) in the random outcomes so far (see the
    /// module docs), and returns each outcome's form.
    ///
    /// Sampling the outcomes in order with [`SymbolicOutcome::sample`]
    /// makes the same draws, and yields the same bits, as measuring a
    /// clone of this tableau qubit by qubit with [`Tableau::measure`].
    ///
    /// # Panics
    ///
    /// Panics when a qubit is out of range, or when more than 64 outcomes
    /// are random. At most one outcome per distinct measured qubit can be
    /// random: afterwards `±Z_q` stays in the stabilizer group, so later
    /// measurements of `q` are deterministic. States of ≤ 64 qubits never
    /// reach the limit.
    pub fn measure_symbolic(
        mut self,
        qubits: impl IntoIterator<Item = usize>,
    ) -> Vec<SymbolicOutcome> {
        let n = self.n;
        // The mask part of each stabilizer's sign form; the constant part
        // is the sign column, which evolves as if every random outcome were
        // 0. Only a row set to `±Z_q` by a random outcome gets a mask, and
        // such a row has no X bits: it is never a pivot, never multiplied
        // by one, and every other form stays constant. Bit `i` stands for
        // the `i`-th random outcome, and there are at most 64 of them (see
        // "Panics"), so a `u64` holds every mask.
        let mut masks = vec![0u64; n];
        let mut randoms = 0u32;
        qubits
            .into_iter()
            .map(|q| {
                self.check(q);
                match self.random_pivot(q) {
                    Some(p) => {
                        assert!(randoms < 64, "more than 64 random outcomes");
                        let var = 1u64 << randoms;
                        randoms += 1;
                        debug_assert_eq!(masks[p - n], 0, "a pivot's sign is constant");
                        self.collapse(q, p, false);
                        masks[p - n] = var;
                        SymbolicOutcome {
                            random: true,
                            constant: false,
                            mask: var,
                        }
                    }
                    None => SymbolicOutcome {
                        random: false,
                        constant: self.deterministic_sign(q),
                        mask: self.rows_with_x(q, 0..n).fold(0, |m, i| m ^ masks[i]),
                    },
                }
            })
            .collect()
    }

    /// Runs all Clifford instructions of a circuit, recording measurements
    /// into a classical-bit accumulator.
    ///
    /// # Errors
    ///
    /// Returns [`NonCliffordError`] on the first non-Clifford gate.
    pub fn run_circuit<R: Rng + ?Sized>(
        &mut self,
        circuit: &Circuit,
        clbits: &mut u64,
        rng: &mut R,
    ) -> Result<(), NonCliffordError> {
        for instr in circuit.iter() {
            match &instr.kind {
                OpKind::Gate(g) => {
                    let qs: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
                    self.apply_gate(*g, &qs)?;
                }
                OpKind::Measure(c) => {
                    let bit = self.measure(instr.qubits[0].index(), rng).bit();
                    if bit {
                        *clbits |= 1 << c.index();
                    } else {
                        *clbits &= !(1 << c.index());
                    }
                }
                OpKind::Reset => {
                    let q = instr.qubits[0].index();
                    if self.measure(q, rng).bit() {
                        self.x(q);
                    }
                }
                OpKind::Delay(_) | OpKind::Barrier => {}
            }
        }
        Ok(())
    }
}

/// Samples `shots` outcomes of a Clifford circuit.
///
/// Each shot replays the circuit on a fresh tableau (mid-circuit
/// measurement and reset therefore behave correctly).
///
/// # Errors
///
/// Returns [`NonCliffordError`] when the circuit contains a non-Clifford
/// gate.
pub fn sample_counts<R: Rng + ?Sized>(
    circuit: &Circuit,
    shots: u64,
    rng: &mut R,
) -> Result<Counts, NonCliffordError> {
    let mut counts = Counts::new(circuit.num_clbits());
    for _ in 0..shots {
        let mut t = Tableau::new(circuit.num_qubits());
        let mut clbits = 0u64;
        t.run_circuit(circuit, &mut clbits, rng)?;
        counts.record(clbits);
    }
    Ok(counts)
}

/// Computes the **exact** output distribution of a measurement-terminated
/// Clifford circuit.
///
/// One symbolic pass ([`Tableau::measure_symbolic`]) gives every
/// measured bit as an affine form in the `r` random outcomes; the output
/// is uniform over the images of their `2^r` assignments, so every
/// probability is an exact power of two. `r` ≤ the number of measured
/// qubits.
///
/// # Errors
///
/// Returns [`NonCliffordError`] when the circuit contains a non-Clifford
/// gate.
///
/// # Panics
///
/// Panics when more than 24 measurements are random (2^24 branches) —
/// decoy circuits in this stack measure ≤ ~16 qubits.
pub fn exact_distribution(circuit: &Circuit) -> Result<BTreeMap<u64, f64>, NonCliffordError> {
    // Split the circuit into its unitary prefix and its measurements.
    let mut t = Tableau::new(circuit.num_qubits());
    let mut measures: Vec<(usize, usize)> = Vec::new(); // (qubit, clbit)
    for instr in circuit.iter() {
        match &instr.kind {
            OpKind::Gate(g) => {
                let qs: Vec<usize> = instr.qubits.iter().map(|q| q.index()).collect();
                t.apply_gate(*g, &qs)?;
            }
            OpKind::Measure(c) => measures.push((instr.qubits[0].index(), c.index())),
            OpKind::Reset => {
                // A reset leaves |0⟩ whichever way its measurement falls,
                // so forcing a random outcome to 0 is exact.
                let q = instr.qubits[0].index();
                if t.measure_forced(q, false).bit() {
                    t.x(q);
                }
            }
            OpKind::Delay(_) | OpKind::Barrier => {}
        }
    }
    let outcomes = t.measure_symbolic(measures.iter().map(|&(q, _)| q));
    let r = outcomes.iter().filter(|o| o.random).count();
    assert!(
        r <= 24,
        "exact_distribution: too many random-measurement branches"
    );
    let prob = 0.5f64.powi(r as i32);
    let mut dist = BTreeMap::new();
    for drawn in 0..1u64 << r {
        let mut clbits = 0u64;
        for (o, &(_, c)) in outcomes.iter().zip(&measures) {
            if o.eval(drawn) {
                clbits |= 1 << c;
            }
        }
        *dist.entry(clbits).or_insert(0.0) += prob;
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qcirc::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC4F)
    }

    #[test]
    fn zero_state_measures_zero() {
        let mut t = Tableau::new(4);
        let mut r = rng();
        for q in 0..4 {
            let m = t.measure(q, &mut r);
            assert_eq!(m, MeasureKind::Deterministic(false));
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut t = Tableau::new(2);
        t.x(1);
        let mut r = rng();
        assert!(!t.measure(0, &mut r).bit());
        assert!(t.measure(1, &mut r).bit());
    }

    #[test]
    fn hadamard_measurement_random_then_sticky() {
        let mut r = rng();
        let mut saw = [false; 2];
        for _ in 0..50 {
            let mut t = Tableau::new(1);
            t.h(0);
            let m1 = t.measure(0, &mut r);
            assert!(matches!(m1, MeasureKind::Random(_)));
            let m2 = t.measure(0, &mut r);
            assert!(matches!(m2, MeasureKind::Deterministic(_)));
            assert_eq!(m1.bit(), m2.bit());
            saw[m1.bit() as usize] = true;
        }
        assert!(saw[0] && saw[1], "both outcomes should occur");
    }

    #[test]
    fn bell_pair_correlations() {
        let mut r = rng();
        for _ in 0..50 {
            let mut t = Tableau::new(2);
            t.h(0);
            t.cx(0, 1);
            let a = t.measure(0, &mut r).bit();
            let b = t.measure(1, &mut r).bit();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ghz_all_equal() {
        let mut r = rng();
        for _ in 0..30 {
            let mut t = Tableau::new(5);
            t.h(0);
            for q in 0..4 {
                t.cx(q, q + 1);
            }
            let bits: Vec<bool> = (0..5).map(|q| t.measure(q, &mut r).bit()).collect();
            assert!(bits.iter().all(|&b| b == bits[0]));
        }
    }

    #[test]
    fn z_phase_visible_through_h_basis() {
        // H Z H = X: |0⟩ → |1⟩.
        let mut t = Tableau::new(1);
        t.h(0);
        t.z(0);
        t.h(0);
        let mut r = rng();
        assert_eq!(t.measure(0, &mut r), MeasureKind::Deterministic(true));
    }

    #[test]
    fn s_gates_compose_to_z() {
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        t.s(0);
        t.h(0);
        let mut r = rng();
        assert_eq!(t.measure(0, &mut r), MeasureKind::Deterministic(true));
    }

    #[test]
    fn sdg_inverts_s() {
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        t.sdg(0);
        t.h(0);
        let mut r = rng();
        assert_eq!(t.measure(0, &mut r), MeasureKind::Deterministic(false));
    }

    #[test]
    fn sx_squared_is_x() {
        let mut t = Tableau::new(1);
        t.sx(0);
        t.sx(0);
        let mut r = rng();
        assert_eq!(t.measure(0, &mut r), MeasureKind::Deterministic(true));
    }

    #[test]
    fn y_is_xz_up_to_phase() {
        // Y|0⟩ = i|1⟩ → measures 1 deterministically.
        let mut t = Tableau::new(1);
        t.y(0);
        let mut r = rng();
        assert_eq!(t.measure(0, &mut r), MeasureKind::Deterministic(true));
    }

    #[test]
    fn swap_moves_excitation() {
        let mut t = Tableau::new(3);
        t.x(0);
        t.swap(0, 2);
        let mut r = rng();
        assert!(!t.measure(0, &mut r).bit());
        assert!(t.measure(2, &mut r).bit());
    }

    #[test]
    fn cz_creates_phase_kickback() {
        // H(0) H(1) CZ H(1): CZ in |+⟩|+⟩ then H maps to CX behaviour.
        let mut t = Tableau::new(2);
        t.x(0);
        t.h(1);
        t.cz(0, 1);
        t.h(1);
        // q0=1 so CZ→(after H conj)=CX flips q1.
        let mut r = rng();
        assert_eq!(t.measure(1, &mut r), MeasureKind::Deterministic(true));
    }

    #[test]
    fn non_clifford_rejected() {
        let mut t = Tableau::new(1);
        let err = t.apply_gate(Gate::T, &[0]).unwrap_err();
        assert_eq!(err.gate, Gate::T);
    }

    #[test]
    fn exact_distribution_bell() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let d = exact_distribution(&c).unwrap();
        assert_eq!(d.len(), 2);
        assert!((d[&0b00] - 0.5).abs() < 1e-12);
        assert!((d[&0b11] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_distribution_deterministic_circuit() {
        let mut c = Circuit::new(3);
        c.x(0).x(2).measure_all();
        let d = exact_distribution(&c).unwrap();
        assert_eq!(d.len(), 1);
        assert!((d[&0b101] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_distribution_uniform_over_subspace() {
        // H on both qubits: uniform over 4 outcomes.
        let mut c = Circuit::new(2);
        c.h(0).h(1).measure_all();
        let d = exact_distribution(&c).unwrap();
        assert_eq!(d.len(), 4);
        for p in d.values() {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_counts_matches_exact() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let exact = exact_distribution(&c).unwrap();
        let counts = sample_counts(&c, 4000, &mut rng()).unwrap();
        for (&outcome, &p) in &exact {
            let emp = counts.probability(outcome);
            assert!((emp - p).abs() < 0.05, "outcome {outcome}: {emp} vs {p}");
        }
    }

    #[test]
    fn matches_statevector_on_random_clifford_circuits() {
        use rand::seq::SliceRandom;
        let gates1 = [
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::SX,
        ];
        let mut r = rng();
        for trial in 0..25 {
            let n = 3 + trial % 3;
            let mut c = Circuit::new(n);
            for _ in 0..20 {
                if r.gen::<f64>() < 0.4 && n >= 2 {
                    let a = r.gen_range(0..n as u32);
                    let mut b = r.gen_range(0..n as u32);
                    while b == a {
                        b = r.gen_range(0..n as u32);
                    }
                    if r.gen::<bool>() {
                        c.cx(a, b);
                    } else {
                        c.cz(a, b);
                    }
                } else {
                    let g = *gates1.choose(&mut r).unwrap();
                    c.gate(g, &[r.gen_range(0..n as u32)]);
                }
            }
            c.measure_all();
            let exact = exact_distribution(&c).unwrap();
            let sv = statevec_reference(&c);
            assert_eq!(exact.len(), sv.len(), "support mismatch on trial {trial}");
            for (k, p) in &exact {
                let q = sv.get(k).copied().unwrap_or(0.0);
                assert!(
                    (p - q).abs() < 1e-9,
                    "trial {trial} outcome {k}: {p} vs {q}"
                );
            }
        }
    }

    fn statevec_reference(c: &Circuit) -> BTreeMap<u64, f64> {
        statevec::ideal_distribution(c).unwrap()
    }

    #[test]
    fn reset_in_run_circuit() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.push(qcirc::Instruction {
            kind: OpKind::Reset,
            qubits: vec![qcirc::Qubit::new(0)],
        });
        c.measure(0, 0);
        let counts = sample_counts(&c, 200, &mut rng()).unwrap();
        assert_eq!(counts.get(0), 200);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn cx_rejects_duplicate_operands() {
        Tableau::new(3).cx(1, 1);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn cz_rejects_duplicate_operands() {
        Tableau::new(3).cz(2, 2);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn swap_rejects_duplicate_operands() {
        Tableau::new(3).swap(0, 0);
    }

    /// One raw random op: `(kind, qubit, offset to a second qubit)`.
    type RawOp = (u8, usize, usize);

    /// Applies a raw op to `t`: one of the eleven gates, or a mid-circuit
    /// measurement (which gives the rows nontrivial signs).
    fn apply_raw(t: &mut Tableau, (kind, a, d): RawOp, rng: &mut StdRng) {
        let n = t.num_qubits();
        let a = a % n;
        let b = (a + 1 + d % n.saturating_sub(1).max(1)) % n;
        match kind {
            0 => t.h(a),
            1 => t.s(a),
            2 => t.sdg(a),
            3 => t.x(a),
            4 => t.y(a),
            5 => t.z(a),
            6 => t.sx(a),
            7 => t.sxdg(a),
            8 if b != a => t.cx(a, b),
            9 if b != a => t.cz(a, b),
            10 if b != a => t.swap(a, b),
            11 => {
                t.measure(a, rng);
            }
            _ => t.h(a),
        }
    }

    /// A random stabilizer state on `n` qubits.
    fn random_state(n: usize, ops: &[RawOp], rng: &mut StdRng) -> Tableau {
        let mut t = Tableau::new(n);
        for &op in ops {
            apply_raw(&mut t, op, rng);
        }
        t
    }

    /// Qubit counts on both sides of the one-word column boundary
    /// (`2n > 64` from 33 qubits on).
    fn arb_n() -> impl Strategy<Value = usize> {
        prop_oneof![8 => 1usize..9, 1 => Just(31usize), 1 => Just(32usize), 1 => Just(33usize), 1 => Just(40usize)]
    }

    /// The terminal sampler the symbolic pass replaces: a tableau clone per
    /// shot, each qubit measured in turn, one readout draw after each.
    fn sample_by_clone(t: &Tableau, qs: &[usize], shots: usize, rng: &mut StdRng) -> Vec<bool> {
        let mut bits = Vec::new();
        for _ in 0..shots {
            let mut shot = t.clone();
            for &q in qs {
                bits.push(shot.measure(q, rng).bit());
                let _readout: f64 = rng.gen();
            }
        }
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn symbolic_sampler_matches_clone_per_shot(
            n in arb_n(),
            ops in prop::collection::vec((0u8..13, 0usize..64, 0usize..64), 0..160),
            measured in prop::collection::vec(0usize..64, 1..48),
            seed in any::<u64>(),
        ) {
            let t = random_state(n, &ops, &mut StdRng::seed_from_u64(seed ^ 0x5EED));
            let qs: Vec<usize> = measured.iter().map(|q| q % n).collect();
            let shots = 8;
            let (mut r_clone, mut r_sym) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let expected = sample_by_clone(&t, &qs, shots, &mut r_clone);
            let outcomes = t.measure_symbolic(qs.iter().copied());
            let mut got = Vec::new();
            for _ in 0..shots {
                let mut drawn = 0u64;
                for o in &outcomes {
                    got.push(o.sample(&mut drawn, &mut r_sym));
                    let _readout: f64 = r_sym.gen();
                }
            }
            prop_assert_eq!(got, expected);
            prop_assert_eq!(&r_sym, &r_clone, "the pass must make the same draws");
        }

        #[test]
        fn single_pass_gates_equal_their_compositions(
            n in arb_n(),
            ops in prop::collection::vec((0u8..13, 0usize..64, 0usize..64), 0..160),
            q in 0usize..64,
            seed in any::<u64>(),
        ) {
            let t = random_state(n, &ops, &mut StdRng::seed_from_u64(seed));
            let q = q % n;
            let composed = |steps: &[fn(&mut Tableau, usize)]| {
                let mut c = t.clone();
                for step in steps {
                    step(&mut c, q);
                }
                c
            };
            let single = |gate: fn(&mut Tableau, usize)| composed(&[gate]);
            prop_assert_eq!(single(Tableau::sdg), composed(&[Tableau::s, Tableau::s, Tableau::s]));
            prop_assert_eq!(single(Tableau::z), composed(&[Tableau::s, Tableau::s]));
            prop_assert_eq!(single(Tableau::sx), composed(&[Tableau::h, Tableau::s, Tableau::h]));
            prop_assert_eq!(single(Tableau::sxdg), composed(&[Tableau::h, Tableau::sdg, Tableau::h]));
            prop_assert_eq!(single(Tableau::y), composed(&[Tableau::z, Tableau::x]));
        }
    }

    #[test]
    fn exact_distribution_is_exact_powers_of_two() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).h(2).s(2).h(2).x(3).measure_all();
        let d = exact_distribution(&c).unwrap();
        assert_eq!(d.len(), 4);
        assert!(d.values().all(|&p| p == 0.25));
        assert!(d.keys().all(|k| k & 0b1000 != 0 && (k & 1) == (k >> 1 & 1)));
    }

    #[test]
    fn large_register_smoke() {
        // 100-qubit GHZ: the scalability CDCs rely on.
        let n = 100;
        let mut t = Tableau::new(n);
        t.h(0);
        for q in 0..n - 1 {
            t.cx(q, q + 1);
        }
        let mut r = rng();
        let first = t.measure(0, &mut r).bit();
        for q in 1..n {
            assert_eq!(t.measure(q, &mut r).bit(), first);
        }
    }
}
