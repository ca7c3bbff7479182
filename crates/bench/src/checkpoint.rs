//! Experiment checkpointing: streamed partial CSVs plus a manifest.
//!
//! Long experiment suites die for mundane reasons — a laptop sleeps, a
//! CI job hits its wall-clock limit, a flaky backend exhausts a retry
//! budget. A [`Checkpoint`] makes each datapoint durable the moment it is
//! computed: rows stream to `results/<stem>.partial.csv` (flushed per
//! row) and a line-based manifest at `results/<stem>.manifest` records
//! the experiment seed, a configuration hash, and the key of every
//! completed datapoint. Re-running with `--resume` skips completed keys;
//! a seed or configuration mismatch invalidates the checkpoint and
//! restarts from scratch (stale datapoints must never contaminate a
//! differently-configured run).
//!
//! Manifest format (one `key=value` per line, no dependencies needed):
//!
//! ```text
//! seed=2021
//! config=9a3f01c2e77b4d10
//! done=BV-7
//! done=QFT-6A
//! ```
//!
//! The `done=` line for a row is written *after* the row itself is
//! flushed, so a process killed mid-write loses at most the in-flight
//! datapoint: on resume, trailing rows without a matching `done=` entry
//! are discarded and recomputed.

use device::hash::Fnv1aLegacy;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// [Legacy](Fnv1aLegacy) FNV-1a hash of the configuration facets that
/// must match for a checkpoint to be resumable (budgets, protocol,
/// benchmark list, fault profile...). Order-sensitive by design.
pub fn config_hash(parts: &[&str]) -> u64 {
    let mut h = Fnv1aLegacy::new();
    for p in parts {
        h.mix(p.as_bytes());
        // Separate parts so ["ab","c"] != ["a","bc"].
        h.mix(&[0x1f]);
    }
    h.finish()
}

/// Why an existing checkpoint was ignored on a `--resume` request.
///
/// A mismatch is not an error — the experiment simply restarts from
/// scratch — but it must be *loud*: silently recomputing hours of work
/// looks identical to a successful resume until the wall-clock bill
/// arrives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeSkip {
    /// The manifest was written under a different experiment seed.
    SeedChanged {
        /// `seed=` value found in the manifest.
        old: String,
        /// Seed of the current run.
        new: u64,
    },
    /// The manifest was written under a different configuration hash.
    ConfigChanged {
        /// `config=` value found in the manifest.
        old: String,
        /// Configuration hash of the current run (hex, as in the manifest).
        new: u64,
    },
}

impl std::fmt::Display for ResumeSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeSkip::SeedChanged { old, new } => {
                write!(
                    f,
                    "seed changed, ignoring checkpoint (old={old}, new={new})"
                )
            }
            ResumeSkip::ConfigChanged { old, new } => write!(
                f,
                "config changed, ignoring checkpoint (old={old}, new={new:016x})"
            ),
        }
    }
}

/// A resumable, per-datapoint-durable CSV being written for one
/// experiment.
#[derive(Debug)]
pub struct Checkpoint {
    out_dir: PathBuf,
    stem: String,
    header: Vec<String>,
    partial: File,
    manifest: File,
    /// Completed datapoints in completion order: `(key, csv cells)`.
    rows: Vec<(String, Vec<String>)>,
    resumed: usize,
    ignored: Option<ResumeSkip>,
}

impl Checkpoint {
    /// Path of the streaming partial CSV for `stem`.
    pub fn partial_path(out_dir: &Path, stem: &str) -> PathBuf {
        out_dir.join(format!("{stem}.partial.csv"))
    }

    /// Path of the manifest for `stem`.
    pub fn manifest_path(out_dir: &Path, stem: &str) -> PathBuf {
        out_dir.join(format!("{stem}.manifest"))
    }

    /// Opens a checkpoint for `results/<stem>.csv`-style output.
    ///
    /// With `resume` set, a valid existing manifest (matching `seed` and
    /// `config`) reloads its completed rows so the caller can skip them;
    /// otherwise any stale checkpoint files are discarded and the
    /// experiment starts clean.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the checkpoint files.
    pub fn open(
        out_dir: &Path,
        stem: &str,
        header: &[&str],
        seed: u64,
        config: u64,
        resume: bool,
    ) -> io::Result<Self> {
        fs::create_dir_all(out_dir)?;
        let (rows, ignored) = if resume {
            let (rows, ignored) = load_completed(out_dir, stem, header.len(), seed, config);
            if let Some(skip) = &ignored {
                println!("  checkpoint {stem}: {skip}");
            }
            (rows, ignored)
        } else {
            (Vec::new(), None)
        };
        let resumed = rows.len();

        // Rewrite both files from the surviving prefix: this truncates
        // any half-written trailing row and normalizes stale content.
        let mut partial = File::create(Self::partial_path(out_dir, stem))?;
        writeln!(partial, "{}", header.join(","))?;
        let mut manifest = File::create(Self::manifest_path(out_dir, stem))?;
        writeln!(manifest, "seed={seed}")?;
        writeln!(manifest, "config={config:016x}")?;
        for (key, cells) in &rows {
            writeln!(partial, "{}", cells.join(","))?;
            writeln!(manifest, "done={key}")?;
        }
        partial.flush()?;
        manifest.flush()?;
        // Reopen in append mode so subsequent records stream.
        let partial = OpenOptions::new()
            .append(true)
            .open(Self::partial_path(out_dir, stem))?;
        let manifest = OpenOptions::new()
            .append(true)
            .open(Self::manifest_path(out_dir, stem))?;

        Ok(Checkpoint {
            out_dir: out_dir.to_path_buf(),
            stem: stem.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            partial,
            manifest,
            rows,
            resumed,
            ignored,
        })
    }

    /// Whether `key` was already completed (by this run or a resumed one).
    pub fn is_done(&self, key: &str) -> bool {
        self.rows.iter().any(|(k, _)| k == key)
    }

    /// Number of datapoints inherited from a previous run.
    pub fn resumed_rows(&self) -> usize {
        self.resumed
    }

    /// Why a requested resume ignored an existing checkpoint, if it did.
    /// `None` when resume succeeded, was not requested, or there was no
    /// prior checkpoint to ignore.
    pub fn ignored_checkpoint(&self) -> Option<&ResumeSkip> {
        self.ignored.as_ref()
    }

    /// All completed rows in completion order.
    pub fn rows(&self) -> &[(String, Vec<String>)] {
        &self.rows
    }

    /// Records one completed datapoint durably: the row is flushed to the
    /// partial CSV before its `done=` manifest entry is written.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    ///
    /// # Panics
    ///
    /// Panics when the cell count does not match the header or the key
    /// was already recorded.
    pub fn record(&mut self, key: &str, cells: Vec<String>) -> io::Result<()> {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        assert!(!self.is_done(key), "datapoint {key:?} recorded twice");
        writeln!(self.partial, "{}", cells.join(","))?;
        self.partial.flush()?;
        writeln!(self.manifest, "done={key}")?;
        self.manifest.flush()?;
        self.rows.push((key.to_string(), cells));
        Ok(())
    }

    /// Promotes the partial CSV to the final `results/<stem>.csv` and
    /// removes the checkpoint files. Returns the final path.
    ///
    /// The final CSV lands via write-temp + fsync + rename
    /// ([`adapt_service::persist::atomic_write`]) and the checkpoint
    /// files are removed only *after* the rename: a kill anywhere in
    /// `finalize` leaves either the durable final CSV or an intact
    /// partial + manifest pair to resume from — never a torn final file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the final file.
    pub fn finalize(self) -> io::Result<PathBuf> {
        self.finalize_with_crash(adapt_service::persist::CrashPoint::None)
    }

    /// `finalize` with an injectable crash point for durability tests.
    /// When the injected kill fires, the final CSV has not been
    /// published and the checkpoint files survive untouched.
    fn finalize_with_crash(self, crash: adapt_service::persist::CrashPoint) -> io::Result<PathBuf> {
        let path = self.out_dir.join(format!("{}.csv", self.stem));
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for (_, cells) in &self.rows {
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        let published =
            adapt_service::persist::atomic_write_with_crash(&path, out.as_bytes(), true, crash)?;
        if !published {
            // Injected kill: behave like the process died here — the
            // checkpoint files stay for the next run to resume.
            return Err(io::Error::other("finalize killed at injected crash point"));
        }
        let _ = fs::remove_file(Self::partial_path(&self.out_dir, &self.stem));
        let _ = fs::remove_file(Self::manifest_path(&self.out_dir, &self.stem));
        println!("  wrote {}", path.display());
        Ok(path)
    }
}

/// Loads the completed rows of a prior run. Returns no rows when the
/// checkpoint is absent or unparsable; when the checkpoint exists but was
/// produced under a different seed/configuration, also reports *why* it
/// was ignored so the caller can warn instead of silently recomputing.
fn load_completed(
    out_dir: &Path,
    stem: &str,
    header_len: usize,
    seed: u64,
    config: u64,
) -> (Vec<(String, Vec<String>)>, Option<ResumeSkip>) {
    let Ok(manifest) = fs::read_to_string(Checkpoint::manifest_path(out_dir, stem)) else {
        return (Vec::new(), None);
    };
    let Ok(partial) = fs::read_to_string(Checkpoint::partial_path(out_dir, stem)) else {
        return (Vec::new(), None);
    };
    let mut old_seed = String::new();
    let mut old_config = String::new();
    let mut done: Vec<String> = Vec::new();
    for line in manifest.lines() {
        if let Some(v) = line.strip_prefix("seed=") {
            old_seed = v.trim().to_string();
        } else if let Some(v) = line.strip_prefix("config=") {
            old_config = v.trim().to_string();
        } else if let Some(v) = line.strip_prefix("done=") {
            done.push(v.to_string());
        }
    }
    if old_seed != seed.to_string() {
        return (
            Vec::new(),
            Some(ResumeSkip::SeedChanged {
                old: old_seed,
                new: seed,
            }),
        );
    }
    if old_config != format!("{config:016x}") {
        return (
            Vec::new(),
            Some(ResumeSkip::ConfigChanged {
                old: old_config,
                new: config,
            }),
        );
    }
    // Data rows follow the header; the i-th row belongs to the i-th
    // `done=` key. A row without a matching key (killed mid-write) is
    // dropped and recomputed.
    let mut rows: Vec<Vec<String>> = partial
        .lines()
        .skip(1)
        .map(|l| l.split(',').map(|c| c.to_string()).collect())
        .collect();
    // A crash can truncate the file mid-row even after the row's
    // `done=` entry hit the manifest (the bytes, not the write order,
    // are what the disk kept). Such a row has fewer cells than the
    // header; resuming it would hand consumers a short row they index
    // out of bounds. Drop it — and anything after it — loudly and let
    // those datapoints recompute.
    if let Some(bad) = rows.iter().position(|r| r.len() != header_len) {
        println!(
            "  checkpoint {stem}: dropping {} malformed trailing row(s) \
             (row {} has {} of {} cells, truncated write?); recomputing them",
            rows.len() - bad,
            bad + 1,
            rows[bad].len(),
            header_len
        );
        rows.truncate(bad);
    }
    (done.into_iter().zip(rows).collect(), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("adapt_ckpt_tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const HDR: &[&str] = &["bench", "fidelity"];

    #[test]
    fn resume_reloads_completed_rows() {
        let dir = tmp("resume");
        let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 0xABCD, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "0.9".into()])
            .unwrap();
        ck.record("QFT-6A", vec!["QFT-6A".into(), "0.8".into()])
            .unwrap();
        drop(ck); // simulate a kill: no finalize

        let ck = Checkpoint::open(&dir, "exp", HDR, 7, 0xABCD, true).unwrap();
        assert_eq!(ck.resumed_rows(), 2);
        assert!(ck.is_done("BV-7"));
        assert!(ck.is_done("QFT-6A"));
        assert!(!ck.is_done("QAOA-8A"));
        assert_eq!(ck.rows()[1].1[1], "0.8");
    }

    #[test]
    fn seed_or_config_mismatch_invalidates() {
        let dir = tmp("mismatch");
        let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 0xABCD, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "0.9".into()])
            .unwrap();
        drop(ck);
        let other_seed = Checkpoint::open(&dir, "exp", HDR, 8, 0xABCD, true).unwrap();
        assert_eq!(other_seed.resumed_rows(), 0);
        assert_eq!(
            other_seed.ignored_checkpoint(),
            Some(&ResumeSkip::SeedChanged {
                old: "7".into(),
                new: 8,
            })
        );
        drop(other_seed);
        // (the failed resume rewrote the checkpoint under seed 8)
        let other_cfg = Checkpoint::open(&dir, "exp", HDR, 8, 0xEEEE, true).unwrap();
        assert_eq!(other_cfg.resumed_rows(), 0);
        assert_eq!(
            other_cfg.ignored_checkpoint(),
            Some(&ResumeSkip::ConfigChanged {
                old: format!("{:016x}", 0xABCDu64),
                new: 0xEEEE,
            })
        );
    }

    #[test]
    fn config_mismatch_reports_one_line_warning_not_silence() {
        let dir = tmp("warn");
        let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 0x1111, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "0.9".into()])
            .unwrap();
        drop(ck);

        // Same seed, different config hash: everything recomputes, and the
        // reason is surfaced (the `open` path prints its Display form).
        let ck = Checkpoint::open(&dir, "exp", HDR, 7, 0x2222, true).unwrap();
        assert_eq!(ck.resumed_rows(), 0);
        let skip = ck.ignored_checkpoint().expect("mismatch must be reported");
        let msg = skip.to_string();
        assert!(
            msg.contains("config changed, ignoring checkpoint"),
            "unexpected warning: {msg}"
        );
        assert!(msg.contains(&format!("old={:016x}", 0x1111u64)), "{msg}");
        assert!(msg.contains(&format!("new={:016x}", 0x2222u64)), "{msg}");

        // A matching re-open resumes cleanly with no warning.
        drop(ck);
        let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 0x2222, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "0.9".into()])
            .unwrap();
        drop(ck);
        let ck = Checkpoint::open(&dir, "exp", HDR, 7, 0x2222, true).unwrap();
        assert_eq!(ck.resumed_rows(), 1);
        assert_eq!(ck.ignored_checkpoint(), None);
    }

    #[test]
    fn without_resume_flag_checkpoint_restarts() {
        let dir = tmp("fresh");
        let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 1, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "0.9".into()])
            .unwrap();
        drop(ck);
        let ck = Checkpoint::open(&dir, "exp", HDR, 7, 1, false).unwrap();
        assert_eq!(ck.resumed_rows(), 0);
    }

    #[test]
    fn half_written_trailing_row_is_discarded() {
        let dir = tmp("torn");
        let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 1, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "0.9".into()])
            .unwrap();
        drop(ck);
        // Append a row that never got its done= entry (killed mid-write).
        let mut f = OpenOptions::new()
            .append(true)
            .open(Checkpoint::partial_path(&dir, "exp"))
            .unwrap();
        write!(f, "QFT-6A,0.").unwrap();
        drop(f);
        let ck = Checkpoint::open(&dir, "exp", HDR, 7, 1, true).unwrap();
        assert_eq!(ck.resumed_rows(), 1);
        assert!(!ck.is_done("QFT-6A"));
    }

    #[test]
    fn byte_truncated_trailing_row_is_dropped_and_recomputed() {
        let dir = tmp("truncated");
        const WIDE: &[&str] = &["bench", "policy", "fidelity"];
        let mut ck = Checkpoint::open(&dir, "exp", WIDE, 7, 1, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "adapt".into(), "0.9".into()])
            .unwrap();
        ck.record(
            "QFT-6A",
            vec!["QFT-6A".into(), "adapt".into(), "0.8".into()],
        )
        .unwrap();
        drop(ck);
        // Chop bytes off the end of the partial CSV so the trailing row
        // loses a whole column, even though its done= entry survived —
        // what a crash that lost the last page leaves behind.
        let path = Checkpoint::partial_path(&dir, "exp");
        let content = fs::read_to_string(&path).unwrap();
        fs::write(&path, &content[..content.len() - 10]).unwrap();

        // Before the cell-count validation this resume handed back a
        // 2-cell row for QFT-6A, and any consumer indexing past it
        // aborted the whole resumed run.
        let ck = Checkpoint::open(&dir, "exp", WIDE, 7, 1, true).unwrap();
        assert_eq!(ck.resumed_rows(), 1);
        assert!(ck.is_done("BV-7"));
        assert!(!ck.is_done("QFT-6A"), "truncated row must be recomputed");
        for (_, cells) in ck.rows() {
            assert_eq!(cells.len(), WIDE.len(), "resumed rows are whole");
        }
    }

    #[test]
    fn finalize_promotes_and_cleans_up() {
        let dir = tmp("final");
        let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 1, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "0.9".into()])
            .unwrap();
        let path = ck.finalize().unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert_eq!(content, "bench,fidelity\nBV-7,0.9\n");
        assert!(!Checkpoint::partial_path(&dir, "exp").exists());
        assert!(!Checkpoint::manifest_path(&dir, "exp").exists());
    }

    #[test]
    fn finalize_killed_before_rename_leaves_checkpoint_resumable() {
        use adapt_service::persist::CrashPoint;
        let dir = tmp("kill_finalize");
        let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 1, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "0.9".into()])
            .unwrap();
        ck.record("QFT-6A", vec!["QFT-6A".into(), "0.8".into()])
            .unwrap();

        // Kill between writing the temp file and renaming it into place:
        // the final CSV must not exist (not even partially written), and
        // the partial + manifest pair must survive for resume.
        let err = ck
            .finalize_with_crash(CrashPoint::BeforeRename)
            .expect_err("injected kill must surface as an error");
        assert!(err.to_string().contains("injected crash point"), "{err}");
        let final_path = dir.join("exp.csv");
        assert!(!final_path.exists(), "torn final CSV published");
        assert!(Checkpoint::partial_path(&dir, "exp").exists());
        assert!(Checkpoint::manifest_path(&dir, "exp").exists());

        // Resume sees every completed row, and a clean finalize then
        // publishes the identical final CSV and cleans up.
        let ck = Checkpoint::open(&dir, "exp", HDR, 7, 1, true).unwrap();
        assert_eq!(ck.resumed_rows(), 2);
        let path = ck.finalize().unwrap();
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            "bench,fidelity\nBV-7,0.9\nQFT-6A,0.8\n"
        );
        assert!(!Checkpoint::partial_path(&dir, "exp").exists());
        assert!(!Checkpoint::manifest_path(&dir, "exp").exists());
        // The clean finalize reused (and renamed away) the staging temp
        // the killed attempt left behind.
        assert!(!adapt_service::persist::staging_path(&final_path).exists());
    }

    #[test]
    fn config_hash_is_order_and_boundary_sensitive() {
        assert_ne!(config_hash(&["ab", "c"]), config_hash(&["a", "bc"]));
        assert_ne!(config_hash(&["a", "b"]), config_hash(&["b", "a"]));
        assert_eq!(config_hash(&["x", "y"]), config_hash(&["x", "y"]));
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_keys_are_rejected() {
        let dir = tmp("dup");
        let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 1, false).unwrap();
        ck.record("BV-7", vec!["BV-7".into(), "0.9".into()])
            .unwrap();
        let _ = ck.record("BV-7", vec!["BV-7".into(), "0.9".into()]);
    }

    /// Resume decoding fuzzed: whatever bytes the manifest and partial
    /// CSV hold, `open(.., resume = true)` returns, and every row it
    /// resumes is whole.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// The manifest lines that make a checkpoint resumable under
        /// seed 7 and config 1, so fuzzed rows get past the header check.
        const VALID_HEAD: &str = "seed=7\nconfig=0000000000000001\n";

        /// Byte strings built from the formats' own tokens and ASCII,
        /// with the odd arbitrary byte: manifest keys and row separators
        /// turn up often, and most strings stay valid UTF-8 (the rest
        /// exercise the unreadable-file path).
        fn bytes() -> impl Strategy<Value = Vec<u8>> {
            const TOKENS: &[&[u8]] = &[
                b"done=", b"seed=7", b"config=", b",", b"\n", b"\r", b"BV-7", b"0.9",
            ];
            let token = prop_oneof![
                1 => any::<u8>().prop_map(|b| vec![b]),
                4 => (0u8..128).prop_map(|b| vec![b]),
                8 => (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_vec()),
            ];
            prop::collection::vec(token, 0..32).prop_map(|parts| parts.concat())
        }

        /// A clean checkpoint's `(manifest, partial CSV)` bytes: three
        /// recorded rows.
        fn clean_files() -> (Vec<u8>, Vec<u8>) {
            let dir = tmp("fuzz_clean");
            let mut ck = Checkpoint::open(&dir, "exp", HDR, 7, 1, false).unwrap();
            for (key, fid) in [("BV-7", "0.9"), ("QFT-6A", "0.8"), ("QAOA-8A", "0.7")] {
                ck.record(key, vec![key.into(), fid.into()]).unwrap();
            }
            (
                fs::read(Checkpoint::manifest_path(&dir, "exp")).unwrap(),
                fs::read(Checkpoint::partial_path(&dir, "exp")).unwrap(),
            )
        }

        /// Resumes from the given bytes and checks every resumed row.
        fn resume_from(dir: &Path, manifest: &[u8], partial: &[u8]) {
            fs::create_dir_all(dir).unwrap();
            fs::write(Checkpoint::manifest_path(dir, "exp"), manifest).unwrap();
            fs::write(Checkpoint::partial_path(dir, "exp"), partial).unwrap();
            let ck = Checkpoint::open(dir, "exp", HDR, 7, 1, true).unwrap();
            assert_eq!(ck.resumed_rows(), ck.rows().len());
            for (key, cells) in ck.rows() {
                assert_eq!(cells.len(), HDR.len(), "resumed row {key:?} is not whole");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_checkpoint_bytes_never_panic(
                head in any::<bool>(),
                manifest in bytes(),
                partial in bytes(),
            ) {
                // Half the cases get a matching seed and config, so the
                // row decoding sees the arbitrary bytes too.
                let mut m = if head { VALID_HEAD.as_bytes().to_vec() } else { Vec::new() };
                m.extend_from_slice(&manifest);
                resume_from(&tmp("fuzz_arbitrary"), &m, &partial);
            }

            #[test]
            fn mutated_checkpoint_never_panics(
                in_manifest in any::<bool>(),
                at in any::<usize>(),
                byte in any::<u8>(),
            ) {
                let (manifest, partial) = clean_files();
                let dir = tmp("fuzz_mutated");
                let (mut target, other) = if in_manifest {
                    (manifest, partial)
                } else {
                    (partial, manifest)
                };
                let at = at % target.len();
                let cut = target[..at].to_vec();
                target[at] = byte;
                let pairs = [(&target, &other), (&cut, &other)];
                for (mutated, other) in pairs {
                    let (m, p) = if in_manifest { (mutated, other) } else { (other, mutated) };
                    resume_from(&dir, m, p);
                }
            }
        }
    }
}
