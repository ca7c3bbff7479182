//! Prefix forking: batch trajectories resume an earlier job's trajectory
//! where their op streams stop agreeing.
//!
//! A search neighbourhood scores its masks on one decoy with one set of
//! trajectory seeds. Masks that differ only on qubits whose first DD
//! window comes late compile to op streams that agree up to that window.
//! Up to the first op where two such plans differ, their runs of a seed
//! hold the same tableau or amplitudes, the same idle processes and the
//! same stream position. So a batch runs that prefix once: the earlier
//! job saves its [`Trajectory`] and generator after the shared prefix, and
//! the later job resumes the saved state instead of starting from op 0.
//! Every draw, and so every count, is the one the job's own run makes.
//!
//! [`fork_table`] picks, once per batch and for every seed, each job's
//! parent: the earlier job that shares its longest op prefix, among the
//! jobs whose trajectories start alike (same engine, qubits, crosstalk
//! episodes, sampled channels and clbits, and the same master seed).
//! Those jobs' op streams go into a radix tree in submission order, so a
//! job finds its parent by walking its own shared prefix once, comparing
//! each op's exact bits with the one earlier job that ran that stretch.
//! Ops past the shared prefix are never read, and nothing is hashed. An
//! idle op compares its crosstalk entries' contents, not their range in
//! the overlap arena.
//!
//! [`UnitForks`] applies the table to one work unit: a run resumes only a
//! parent run of the same unit, and a parent saves its state after each
//! op a later run of the unit resumes after. A saved state is dropped
//! when its last resuming run takes it.

use crate::engine::{SimEngine, Trajectory};
use crate::noise::{MemoCursor, PauliFloor};
use crate::plan::{CliffOp, CompiledPlan, DenseOp, IdleOp, Kernel1, Kernel2};
use qcirc::math::C64;
use rand::rngs::StdRng;
use std::collections::HashMap;

/// The largest dense state, in bytes of amplitudes, that a batch saves to
/// fork from. Jobs whose state is larger run every trajectory from op 0.
const DENSE_SNAPSHOT_CAP_BYTES: u128 = 256 << 10;

/// Where a batch job resumes: after op `at` of the trajectory of job
/// `parent`, an earlier job of the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fork {
    pub parent: usize,
    pub at: usize,
}

/// Builds a batch's fork table. `jobs[j]` is job `j`'s plan and master
/// seed when it simulates in this batch, `None` otherwise. Entry `j` of
/// the result is the job's fork, `None` when it shares no op with an
/// earlier job. A parent resumes strictly before its child's fork, so it
/// runs the op the child resumes after.
pub(crate) fn fork_table(jobs: &[Option<(&CompiledPlan, u64)>]) -> Vec<Option<Fork>> {
    let mut table = vec![None; jobs.len()];
    let mut tries: Vec<(&CompiledPlan, u64, PrefixTrie)> = Vec::new();
    let mut buf = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let Some((plan, seed)) = *job else { continue };
        if !forkable(plan) {
            continue;
        }
        let alike = |(first, s, _): &(&CompiledPlan, u64, PrefixTrie)| {
            *s == seed && same_start(first, plan)
        };
        let group = tries.iter().position(alike).unwrap_or_else(|| {
            tries.push((plan, seed, PrefixTrie::new()));
            tries.len() - 1
        });
        let plan_of = |k: usize| jobs[k].expect("in a trie").0;
        table[j] = tries[group].2.insert(j, plan, &plan_of, &mut buf);
    }
    table
}

/// Whether a plan's trajectories may be saved to fork from: CHP always,
/// the dense engine up to [`DENSE_SNAPSHOT_CAP_BYTES`] of amplitudes.
fn forkable(plan: &CompiledPlan) -> bool {
    match plan.engine {
        SimEngine::Chp => true,
        SimEngine::StateVector => {
            (16u128 << plan.active_qubits().min(100)) <= DENSE_SNAPSHOT_CAP_BYTES
        }
    }
}

/// Whether two plans' trajectories start alike: `Trajectory::start` draws
/// and allocates the same for both, so their runs of one seed agree for
/// as long as their ops do.
fn same_start(a: &CompiledPlan, b: &CompiledPlan) -> bool {
    let bits =
        |&(start, end, chi): &(f64, f64, f64)| [start.to_bits(), end.to_bits(), chi.to_bits()];
    a.engine == b.engine
        && a.phys_of == b.phys_of
        && a.needs_detuning == b.needs_detuning
        && a.needs_jitter == b.needs_jitter
        && a.num_clbits == b.num_clbits
        && a.xtalk.len() == b.xtalk.len()
        && a.xtalk
            .iter()
            .zip(&b.xtalk)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(e, f)| bits(e) == bits(f)))
}

/// The op streams of the jobs inserted so far, merged where they agree: a
/// radix tree whose edges are runs of ops, below an empty root edge (whose
/// job is never read). Each edge keeps the job that first ran it, which
/// resumed (if at all) before the edge starts.
struct PrefixTrie {
    nodes: Vec<Edge>,
}

/// The ops of job `job`'s stream from where the edge before it ends up
/// to `end`, and the edges that follow.
struct Edge {
    job: usize,
    end: usize,
    next: Vec<usize>,
}

impl PrefixTrie {
    fn new() -> Self {
        let root = Edge {
            job: 0,
            end: 0,
            next: Vec::new(),
        };
        PrefixTrie { nodes: vec![root] }
    }

    /// Inserts job `job` and returns its fork: the job, among those already
    /// in the trie, that shares its longest op prefix, and that prefix's
    /// length. Compares ops exactly, and only along the job's shared
    /// prefix and at the branch points it passes.
    fn insert<'p>(
        &mut self,
        job: usize,
        plan: &CompiledPlan,
        plan_of: &dyn Fn(usize) -> &'p CompiledPlan,
        buf: &mut Vec<u64>,
    ) -> Option<Fork> {
        let ops = plan.op_count();
        let (mut node, mut depth, mut fork) = (0, 0, None);
        while depth < ops {
            let follows = |e: &usize| same_op(plan_of(self.nodes[*e].job), plan, depth, buf);
            let Some(e) = self.nodes[node].next.iter().copied().find(follows) else {
                self.push(node, job, depth, ops);
                break;
            };
            let Edge {
                job: other, end, ..
            } = self.nodes[e];
            let mut shared = depth + 1;
            while shared < end.min(ops) && same_op(plan_of(other), plan, shared, buf) {
                shared += 1;
            }
            fork = Some(Fork {
                parent: other,
                at: shared,
            });
            if shared < end {
                // Split the edge where the streams part.
                let tail = self.nodes.len();
                let next = std::mem::replace(&mut self.nodes[e].next, vec![tail]);
                self.nodes.push(Edge {
                    job: other,
                    end,
                    next,
                });
                self.nodes[e].end = shared;
                if shared < ops {
                    self.push(e, job, shared, ops);
                }
                break;
            }
            (node, depth) = (e, end);
        }
        fork
    }

    /// Adds an edge for ops `start..end` of job `job` after edge `node`,
    /// which ends at `start`.
    fn push(&mut self, node: usize, job: usize, start: usize, end: usize) {
        debug_assert_eq!(self.nodes[node].end, start);
        let edge = self.nodes.len();
        self.nodes.push(Edge {
            job,
            end,
            next: Vec::new(),
        });
        self.nodes[node].next.push(edge);
    }
}

/// Whether op `i` of two plans of one engine is the same, bit for bit.
/// `buf` is scratch space.
fn same_op(a: &CompiledPlan, b: &CompiledPlan, i: usize, buf: &mut Vec<u64>) -> bool {
    fn same<O: OpBits>(
        (x, x_overlaps): (&O, &[(u32, f64)]),
        (y, y_overlaps): (&O, &[(u32, f64)]),
        buf: &mut Vec<u64>,
    ) -> bool {
        buf.clear();
        x.bits(x_overlaps, buf);
        let mut against = Against {
            words: buf,
            read: 0,
            same: true,
        };
        y.bits(y_overlaps, &mut against);
        against.same && against.read == buf.len()
    }
    if std::ptr::eq(a, b) {
        return true;
    }
    match a.engine {
        SimEngine::Chp => same((&a.cliff[i], &a.overlaps), (&b.cliff[i], &b.overlaps), buf),
        SimEngine::StateVector => same((&a.dense[i], &a.overlaps), (&b.dense[i], &b.overlaps), buf),
    }
}

/// Where an op's words go: a buffer, or a comparison with one.
trait Words {
    fn word(&mut self, w: u64);

    fn words<const N: usize>(&mut self, ws: [u64; N]) {
        for w in ws {
            self.word(w);
        }
    }
}

impl Words for Vec<u64> {
    fn word(&mut self, w: u64) {
        self.push(w);
    }
}

/// Checks words against an op already written out.
struct Against<'a> {
    words: &'a [u64],
    read: usize,
    same: bool,
}

impl Words for Against<'_> {
    fn word(&mut self, w: u64) {
        self.same &= self.words.get(self.read) == Some(&w);
        self.read += 1;
    }
}

/// An op written as words, with every float as its bits, so that two ops
/// run alike exactly when their words are equal.
trait OpBits {
    fn bits(&self, overlaps: &[(u32, f64)], out: &mut impl Words);
}

/// One word holding an op's tag and up to three small operands.
fn head(tag: u64, a: u64, b: u64, c: u64) -> u64 {
    tag | a << 8 | b << 24 | c << 40
}

fn idle_bits(idle: &IdleOp, overlaps: &[(u32, f64)], out: &mut impl Words) {
    let entries = &overlaps[idle.xtalk.start as usize..idle.xtalk.end as usize];
    out.word(head(
        0,
        idle.q.into(),
        idle.detune.into(),
        idle.floor.is_some().into(),
    ));
    out.word(idle.dt_ns.to_bits());
    if let Some(floor) = &idle.floor {
        floor_bits(floor, out);
    }
    out.word(entries.len() as u64);
    for &(episode, weight) in entries {
        out.words([episode.into(), weight.to_bits()]);
    }
}

fn floor_bits(floor: &PauliFloor, out: &mut impl Words) {
    out.words([floor.px.to_bits(), floor.py.to_bits(), floor.pz.to_bits()]);
}

fn c64_bits(z: C64, out: &mut impl Words) {
    out.words([z.re.to_bits(), z.im.to_bits()]);
}

impl OpBits for CliffOp {
    fn bits(&self, overlaps: &[(u32, f64)], out: &mut impl Words) {
        match self {
            CliffOp::Idle(idle) => idle_bits(idle, overlaps, out),
            CliffOp::G1 { q, g } => out.word(head(1, (*q).into(), *g as u64, 0)),
            CliffOp::G2 { a, b, g } => out.word(head(2, (*a).into(), (*b).into(), *g as u64)),
            CliffOp::Err1 { q, p } => out.words([head(3, (*q).into(), 0, 0), p.to_bits()]),
            CliffOp::Err2 { a, b, p, reps } => out.words([
                head(4, (*a).into(), (*b).into(), (*reps).into()),
                p.to_bits(),
            ]),
            CliffOp::Floor { q, floor } => {
                out.word(head(5, (*q).into(), 0, 0));
                floor_bits(floor, out);
            }
            CliffOp::Measure { q, c, p_flip } => {
                out.words([head(6, (*q).into(), (*c).into(), 0), p_flip.to_bits()])
            }
            CliffOp::Reset { q } => out.word(head(7, (*q).into(), 0, 0)),
        }
    }
}

impl OpBits for DenseOp {
    fn bits(&self, overlaps: &[(u32, f64)], out: &mut impl Words) {
        match self {
            DenseOp::Idle(idle) => idle_bits(idle, overlaps, out),
            DenseOp::K1 { q, k } => match k {
                Kernel1::Full(m) => {
                    out.word(head(1, (*q).into(), 0, 0));
                    for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        c64_bits(m.at(r, c), out);
                    }
                }
                Kernel1::Diag(d0, d1) | Kernel1::AntiDiag(d0, d1) => {
                    let anti = matches!(k, Kernel1::AntiDiag(..));
                    out.word(head(1, (*q).into(), 1 + u64::from(anti), 0));
                    c64_bits(*d0, out);
                    c64_bits(*d1, out);
                }
            },
            DenseOp::K2 { a, b, k } => {
                let kind = match k {
                    Kernel2::Full(_) => 0,
                    Kernel2::Cx => 1,
                    Kernel2::Cz => 2,
                    Kernel2::Swap => 3,
                };
                out.word(head(2, (*a).into(), (*b).into(), kind));
                if let Kernel2::Full(m) = k {
                    for r in 0..4 {
                        for c in 0..4 {
                            c64_bits(m.at(r, c), out);
                        }
                    }
                }
            }
            DenseOp::Err1 { q, p } => out.words([head(3, (*q).into(), 0, 0), p.to_bits()]),
            DenseOp::Err2 { a, b, p, reps } => out.words([
                head(4, (*a).into(), (*b).into(), (*reps).into()),
                p.to_bits(),
            ]),
            DenseOp::Floor { q, floor } => {
                out.word(head(5, (*q).into(), 0, 0));
                floor_bits(floor, out);
            }
            DenseOp::Measure { q, c, p_flip } => {
                out.words([head(6, (*q).into(), (*c).into(), 0), p_flip.to_bits()])
            }
            DenseOp::Reset { q } => out.word(head(7, (*q).into(), 0, 0)),
        }
    }
}

/// A trajectory saved after a shared prefix, with its generator and
/// stream position.
type Saved = (Trajectory, StdRng, usize);

/// The fork table applied to one work unit: one seed's runs, in
/// submission order.
pub(crate) struct UnitForks {
    /// Per run: the earlier run of the unit it resumes, and after which op.
    resume: Vec<Option<(usize, usize)>>,
    /// Per run: the ops after which it saves its state, ascending.
    save_at: Vec<Vec<usize>>,
    /// Per (run, op) that later runs resume after: the state once saved,
    /// and how many of those runs have yet to take it.
    slots: HashMap<(usize, usize), (Option<Saved>, usize)>,
}

impl UnitForks {
    /// Resolves the fork of each run against the batch's table, given each
    /// run's job; runs are in submission order, so `jobs` ascends.
    pub(crate) fn new(jobs: &[usize], table: &[Option<Fork>]) -> Self {
        let mut resume = vec![None; jobs.len()];
        let mut save_at = vec![Vec::new(); jobs.len()];
        let mut slots = HashMap::new();
        for (i, &job) in jobs.iter().enumerate() {
            let Some(fork) = table[job] else { continue };
            let p = jobs[..i].partition_point(|&j| j < fork.parent);
            if jobs.get(p) != Some(&fork.parent) {
                continue;
            }
            resume[i] = Some((p, fork.at));
            slots.entry((p, fork.at)).or_insert((None, 0)).1 += 1;
            save_at[p].push(fork.at);
        }
        for points in &mut save_at {
            points.sort_unstable();
            points.dedup();
        }
        UnitForks {
            resume,
            save_at,
            slots,
        }
    }

    /// The state run `run` resumes from, when its parent run saved one.
    /// The last run to take a state takes it without a copy.
    pub(crate) fn resume(&mut self, run: usize) -> Option<Saved> {
        let (saved, left) = self.slots.get_mut(&self.resume[run]?)?;
        *left -= 1;
        if *left == 0 {
            saved.take()
        } else {
            saved.clone()
        }
    }

    /// The ops after which run `run` must save its state, ascending; asked
    /// once per run.
    pub(crate) fn save_points(&mut self, run: usize) -> Vec<usize> {
        std::mem::take(&mut self.save_at[run])
    }

    /// Saves run `run`'s trajectory after op `at`, with its stream.
    pub(crate) fn save(&mut self, run: usize, at: usize, traj: &Trajectory, rng: &MemoCursor) {
        let (gen, pos) = rng.checkpoint();
        let slot = self
            .slots
            .get_mut(&(run, at))
            .expect("saved where a run resumes");
        slot.0 = Some((traj.clone(), gen, pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CliffGate1;
    use proptest::prelude::*;

    fn idle(q: u16, xtalk: std::ops::Range<u32>) -> CliffOp {
        CliffOp::Idle(IdleOp {
            q,
            dt_ns: 400.0,
            detune: true,
            xtalk,
            floor: None,
        })
    }

    fn pulse(q: u16) -> CliffOp {
        CliffOp::G1 {
            q,
            g: CliffGate1::X,
        }
    }

    /// A CHP plan over two qubits with one crosstalk episode each.
    fn plan(cliff: Vec<CliffOp>, overlaps: Vec<(u32, f64)>) -> CompiledPlan {
        CompiledPlan {
            compact_of: vec![Some(0), Some(1)],
            phys_of: vec![0, 1],
            xtalk: vec![vec![(0.0, 100.0, 0.5)]; 2],
            terminal_measurements: true,
            engine: SimEngine::Chp,
            num_clbits: 2,
            deferred: vec![(0, 0, 0.0), (1, 1, 0.0)],
            needs_detuning: true,
            needs_jitter: true,
            overlaps,
            dense: Vec::new(),
            cliff,
        }
    }

    fn table(plans: &[&CompiledPlan]) -> Vec<Option<Fork>> {
        let jobs: Vec<_> = plans.iter().map(|&p| Some((p, 7))).collect();
        fork_table(&jobs)
    }

    #[test]
    fn forks_at_the_first_differing_op() {
        let base = vec![pulse(0), idle(1, 0..1), pulse(1)];
        let a = plan(
            [base.clone(), vec![pulse(0), pulse(1)]].concat(),
            vec![(0, 0.1)],
        );
        let b = plan([base, vec![pulse(1), pulse(0)]].concat(), vec![(0, 0.1)]);
        assert_eq!(table(&[&a, &b]), [None, Some(Fork { parent: 0, at: 3 })]);
        // The same plan shares its whole stream.
        assert_eq!(table(&[&a, &a])[1], Some(Fork { parent: 0, at: 5 }));
    }

    #[test]
    fn equal_overlap_ranges_with_other_weights_share_no_prefix() {
        let ops = vec![idle(0, 0..1), pulse(0), pulse(1)];
        let a = plan(ops.clone(), vec![(0, 0.1)]);
        let b = plan(ops.clone(), vec![(0, 0.2)]);
        assert_eq!(table(&[&a, &b]), [None, None]);
        // Another episode index with the same weight differs too.
        let c = plan(ops, vec![(1, 0.1)]);
        assert_eq!(table(&[&a, &c]), [None, None]);
    }

    #[test]
    fn equal_overlap_contents_in_other_ranges_share_the_prefix() {
        let a = plan(vec![idle(0, 0..1), pulse(0)], vec![(0, 0.1), (0, 0.3)]);
        let b = plan(vec![idle(0, 1..2), pulse(1)], vec![(0, 0.3), (0, 0.1)]);
        assert_eq!(table(&[&a, &b])[1], Some(Fork { parent: 0, at: 1 }));
    }

    #[test]
    fn plans_that_start_differently_never_fork() {
        let ops = vec![pulse(0), pulse(1), pulse(0)];
        let a = plan(ops.clone(), Vec::new());
        let variants: [fn(&mut CompiledPlan); 6] = [
            |p| p.phys_of = vec![0, 2],
            |p| p.xtalk[1][0].2 = 0.25,
            |p| p.xtalk[1].push((200.0, 300.0, 0.5)),
            |p| p.needs_detuning = false,
            |p| p.needs_jitter = false,
            |p| p.num_clbits = 3,
        ];
        for (i, vary) in variants.iter().enumerate() {
            let mut b = a.clone();
            vary(&mut b);
            assert_eq!(table(&[&a, &b]), [None, None], "variant {i}");
        }
        // Another master seed is another set of trajectory seeds.
        let jobs = [Some((&a, 7)), Some((&a, 8))];
        assert_eq!(fork_table(&jobs), [None, None]);
        // A job that does not simulate is no parent.
        assert_eq!(fork_table(&[None, Some((&a, 7))]), [None, None]);
    }

    #[test]
    fn dense_states_above_the_cap_are_not_forkable() {
        let dense = |k: usize| CompiledPlan {
            engine: SimEngine::StateVector,
            phys_of: (0..k as u32).collect(),
            ..plan(Vec::new(), Vec::new())
        };
        assert!(forkable(&dense(14)), "2^14 amplitudes are 256 KiB");
        assert!(!forkable(&dense(15)));
        assert!(forkable(&CompiledPlan {
            phys_of: (0..40).collect(),
            ..plan(Vec::new(), Vec::new())
        }));
    }

    #[test]
    fn a_child_never_resumes_a_parent_that_skipped_its_fork() {
        // b forks from a after 3 ops; c shares only 2 with b (and a), and
        // b never ran those two ops, so c resumes a.
        let a = plan(vec![pulse(0), pulse(1), pulse(0), pulse(0)], Vec::new());
        let b = plan(vec![pulse(0), pulse(1), pulse(0), pulse(1)], Vec::new());
        let c = plan(vec![pulse(0), pulse(1), pulse(1)], Vec::new());
        assert_eq!(
            table(&[&a, &b, &c]),
            [
                None,
                Some(Fork { parent: 0, at: 3 }),
                Some(Fork { parent: 0, at: 2 })
            ]
        );
    }

    #[test]
    fn units_resume_only_parents_they_ran() {
        let table = [
            None,
            Some(Fork { parent: 0, at: 3 }),
            Some(Fork { parent: 0, at: 2 }),
            Some(Fork { parent: 1, at: 5 }),
        ];
        let unit = UnitForks::new(&[0, 1, 2, 3], &table);
        assert_eq!(
            unit.resume,
            [None, Some((0, 3)), Some((0, 2)), Some((1, 5))]
        );
        assert_eq!(unit.save_at, [vec![2, 3], vec![5], vec![], vec![]]);
        // A unit without job 0 runs jobs 1 and 2 from op 0.
        let unit = UnitForks::new(&[1, 2, 3], &table);
        assert_eq!(unit.resume, [None, None, Some((0, 5))]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_trie_finds_the_longest_shared_prefix(
            streams in prop::collection::vec(prop::collection::vec(0u16..3, 0..12), 1..10),
        ) {
            // Streams over three pulses.
            let op = |x: u16| match x {
                2 => CliffOp::G1 { q: 0, g: CliffGate1::Y },
                q => pulse(q),
            };
            let plans: Vec<CompiledPlan> = streams
                .iter()
                .map(|s| plan(s.iter().map(|&x| op(x)).collect(), Vec::new()))
                .collect();
            let got = table(&plans.iter().collect::<Vec<_>>());
            for (j, s) in streams.iter().enumerate() {
                let shared = |k: usize| {
                    s.iter().zip(&streams[k]).take_while(|(a, b)| a == b).count()
                };
                let longest = (0..j).map(shared).max().unwrap_or(0);
                match got[j] {
                    None => prop_assert_eq!(longest, 0, "job {}", j),
                    Some(Fork { parent, at }) => {
                        prop_assert_eq!(at, longest, "job {}", j);
                        prop_assert!(parent < j);
                        prop_assert_eq!(shared(parent), at);
                        if let Some(up) = got[parent] {
                            prop_assert!(up.at < at, "job {} resumes {} at {}", j, parent, up.at);
                        }
                    }
                }
            }
        }
    }
}
