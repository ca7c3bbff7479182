//! `--compare BASE_DIR NEW_DIR`: the verdict on a change, from two sets of
//! untraced runs of the same benchmark.
//!
//! Per workload and end-to-end metric it reports each side's median and
//! quartiles and the share of seed-paired runs the new side won. A metric
//! is *unresolved* when either side's spread (quartile distance over the
//! median) exceeds the metric's bound in `BENCHMARK.json`, unless every
//! new run beats every base run; a *regression* when the new median is
//! worse than the base median by more than the bound; an *improvement*
//! only when the new side wins at least nine tenths of the pairs and the
//! medians differ by more than the base side's quartile distance.

use crate::json::{self, Json};
use crate::report::quartiles;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds() -> Result<Vec<Bound>, String> {
    let spec = json::parse(&read(Path::new("BENCHMARK.json"))?)?;
    spec.get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

/// The untraced run records in `dir/runs.jsonl`.
fn runs(dir: &Path) -> Result<Vec<Run>, String> {
    let text = read(&dir.join("runs.jsonl"))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec =
            json::parse(line).map_err(|e| format!("{} line {}: {e}", dir.display(), i + 1))?;
        if rec.get("trace").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        out.push(Run {
            workload: rec
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            seed: rec.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            metrics: rec
                .get("metrics")
                .map(Json::members)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    Ok(out)
}

/// Prints the comparison table; returns whether any metric regressed.
pub fn run(base_dir: &Path, new_dir: &Path) -> Result<bool, String> {
    let bounds = bounds()?;
    let (base, new) = (runs(base_dir)?, runs(new_dir)?);
    let workloads: BTreeSet<&str> = base
        .iter()
        .chain(&new)
        .map(|r| r.workload.as_str())
        .collect();
    println!(
        "{:<12} {:<17} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "won"
    );
    let mut regressed = false;
    for w in workloads {
        let side = |runs: &[Run]| -> Vec<(u64, BTreeMap<String, f64>)> {
            runs.iter()
                .filter(|r| r.workload == w)
                .map(|r| (r.seed, r.metrics.clone()))
                .collect()
        };
        let (b_runs, n_runs) = (side(&base), side(&new));
        for m in &bounds {
            let values = |runs: &[(u64, BTreeMap<String, f64>)]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|(_, v)| v.get(&m.name).copied())
                    .collect()
            };
            let (b, n) = (values(&b_runs), values(&n_runs));
            let (Some(bq), Some(nq)) = (quartiles(&b), quartiles(&n)) else {
                println!("{w:<12} {:<17} needs at least two runs per side", m.name);
                continue;
            };
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            // Pair runs by seed, each base run with the first unused new
            // run of the same seed.
            let mut used = vec![false; n_runs.len()];
            let (mut pairs, mut won) = (0usize, 0usize);
            for (seed, bv) in &b_runs {
                let hit = n_runs
                    .iter()
                    .enumerate()
                    .find(|(j, (s, _))| !used[*j] && s == seed);
                if let (Some((j, (_, nv))), Some(x)) = (hit, bv.get(&m.name)) {
                    used[j] = true;
                    if let Some(y) = nv.get(&m.name) {
                        pairs += 1;
                        won += usize::from(better(*y, *x));
                    }
                }
            }
            let change = (nq[1] - bq[1]) / bq[1].abs().max(1e-12);
            let worse_by = if m.lower_is_better { change } else { -change };
            let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs().max(1e-12);
            let all_better = n.iter().all(|&y| b.iter().all(|&x| better(y, x)));
            let verdict = if spread(bq) > m.bound || spread(nq) > m.bound {
                if all_better {
                    "improved (every run)"
                } else {
                    "unresolved"
                }
            } else if worse_by > m.bound {
                regressed = true;
                "REGRESSED"
            } else if pairs > 0 && won * 10 >= pairs * 9 && (nq[1] - bq[1]).abs() > bq[2] - bq[0] {
                "improved"
            } else {
                "no regression"
            };
            println!(
                "{w:<12} {:<17} {:>28} {:>28} {:>+7.1}% {:>6}  {verdict}",
                m.name,
                format!("{:.4} [{:.4}, {:.4}]", bq[1], bq[0], bq[2]),
                format!("{:.4} [{:.4}, {:.4}]", nq[1], nq[0], nq[2]),
                change * 100.0,
                format!("{won}/{pairs}"),
            );
        }
    }
    Ok(regressed)
}
