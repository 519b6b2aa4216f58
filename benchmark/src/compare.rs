//! `compare <a.json> <b.json>`: two sets of runs (as `set` writes them),
//! side by side on every workload × end-to-end metric, judged against the
//! bounds `BENCHMARK.json` fixes, the way the driver judges: one value per
//! run, medians and quartiles over the runs. `a` is the base (the parent
//! commit in an A/B); a set may hold any number of runs of a workload —
//! for the guide's ten alternating pairs, run `set` ten times into each
//! side's `--out`. With one run a side there is no spread to resolve.

use htm_gil_core::Json;

use crate::stats::Summary;
use crate::workloads::NAMES;

/// The benchmark's contract, embedded at build time so a binary always
/// judges by the bounds of its own commit.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub const SET_SCHEMA: &str = "htm-gil-benchmark-set/v1";

/// Simulated results: exact per seed, so at an equal seed any movement is
/// a behaviour change whatever the bound says (the bound only absorbs the
/// driver's seed-to-seed variation).
const EXACT_PER_SEED: [&str; 2] = ["sim_cycles", "sim_speedup_vs_gil"];

pub struct EndToEnd {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn end_to_end_metrics(benchmark_json: &str) -> Result<Vec<EndToEnd>, String> {
    let doc = Json::parse(benchmark_json)?;
    let list = doc.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k| m.get(k).and_then(Json::as_str).ok_or(format!("metric without {k}"));
            Ok(EndToEnd {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The base's own spread is wider than the bound, so "no worse than
    /// the bound" cannot be told from noise.
    Unresolved,
}

/// Judge one metric: `a` and `b` are each side's per-run values.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let worse_by = if higher_is_better {
        (sa.median - sb.median) / sa.median
    } else {
        (sb.median - sa.median) / sa.median
    };
    let better = |x: f64, than: f64| if higher_is_better { x > than } else { x < than };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if worse_by > bound {
        Verdict::Worse
    } else if sa.spread() > bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The untraced runs of `workload` in a set document.
fn runs_of<'a>(set: &'a Json, workload: &str) -> Vec<&'a Json> {
    set.get("runs")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace") == Some(&Json::Bool(false)))
        .collect()
}

fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64()).collect()
}

fn value_at_seed(runs: &[&Json], metric: &str, seed: u64) -> Option<f64> {
    runs.iter()
        .find(|r| r.get("seed").and_then(Json::as_u64) == Some(seed))
        .and_then(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
}

fn failed_share(runs: &[&Json]) -> f64 {
    let sum = |k| runs.iter().filter_map(|r| r.get(k).and_then(Json::as_f64)).sum::<f64>();
    sum("ops_failed") / sum("ops_attempted").max(1.0)
}

/// Print the comparison; `true` when nothing is worse and no workload
/// fails a higher share of its ops.
pub fn compare(a: &Json, b: &Json, metrics: &[EndToEnd]) -> bool {
    let mut good = true;
    println!(
        "{:<15} {:<24} {:>16} {:>16} {:>8} {:>6} {:>5}  verdict",
        "workload", "metric", "a (base) median", "b median", "b/a", "bound", "runs"
    );
    for workload in NAMES {
        let (ra, rb) = (runs_of(a, workload), runs_of(b, workload));
        if ra.is_empty() || rb.is_empty() {
            println!("{workload:<15} not in both sets, skipped");
            continue;
        }
        for m in metrics {
            let (xa, xb) = (values(&ra, &m.name), values(&rb, &m.name));
            if xa.is_empty() || xb.is_empty() {
                println!("{workload:<15} {:<24} missing on one side", m.name);
                good = false;
                continue;
            }
            let moved_at = EXACT_PER_SEED.contains(&m.name.as_str()).then(|| {
                ra.iter().filter_map(|r| r.get("seed").and_then(Json::as_u64)).find(|&seed| {
                    let at_b = value_at_seed(&rb, &m.name, seed);
                    at_b.is_some() && at_b != value_at_seed(&ra, &m.name, seed)
                })
            });
            let (verdict, note) = match moved_at.flatten() {
                Some(seed) => {
                    (Verdict::Worse, format!(" (moved at seed {seed}: behaviour change)"))
                }
                None => (judge(&xa, &xb, m.higher_is_better, m.bound), String::new()),
            };
            good &= verdict != Verdict::Worse;
            let (sa, sb) = (Summary::of(&xa), Summary::of(&xb));
            println!(
                "{workload:<15} {:<24} {:>16.6} {:>16.6} {:>8.4} {:>5.0}% {:>5}  {}{note}",
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                m.bound * 100.0,
                format!("{}/{}", sa.n, sb.n),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
        let (fa, fb) = (failed_share(&ra), failed_share(&rb));
        if fb > fa {
            println!("{workload:<15} ops_failed share rose from {fa:.4} to {fb:.4}: worse");
            good = false;
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_ok_worse_and_unresolved() {
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 3 % slower on a 10 % bound: ok. 15 % slower: worse.
        assert_eq!(judge(&tight, &[97.0, 97.5, 96.5], true, 0.10), Verdict::Ok);
        assert_eq!(judge(&tight, &[85.0, 86.0, 84.0], true, 0.10), Verdict::Worse);
        // For a lower-is-better metric the direction flips.
        assert_eq!(judge(&tight, &[115.0, 116.0], false, 0.10), Verdict::Worse);
        assert_eq!(judge(&tight, &[85.0, 86.0], false, 0.10), Verdict::Ok);
        // A base whose quartiles are 40 % apart cannot resolve a 10 % bound …
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(judge(&noisy, &[99.0, 101.0], true, 0.10), Verdict::Unresolved);
        // … unless every run of b beats every run of a.
        assert_eq!(judge(&noisy, &[130.0, 125.0], true, 0.10), Verdict::Ok);
    }

    fn run(workload: &str, seed: u64, failed: u64, metrics: &[(&str, f64)]) -> Json {
        let metrics = metrics
            .iter()
            .fold(Json::obj(), |acc, &(name, x)| acc.field(name, Json::obj().field("value", x)));
        Json::obj()
            .field("workload", workload)
            .field("seed", seed)
            .field("trace", false)
            .field("ops_attempted", 10u64)
            .field("ops_failed", failed)
            .field("metrics", metrics)
    }

    fn set(runs: Vec<Json>) -> Json {
        Json::obj().field("schema", SET_SCHEMA).field("runs", runs)
    }

    #[test]
    fn compare_fails_on_worse_on_moved_cycles_and_on_more_failed_ops() {
        let metrics = end_to_end_metrics(
            r#"{"end_to_end": [
                {"name": "sim_bytecodes_per_cpu_s", "unit": "bytecodes/s", "better": "higher", "bound": 0.25},
                {"name": "sim_cycles", "unit": "cycles", "better": "lower", "bound": 0.05}]}"#,
        )
        .expect("metrics");
        let base = |seed| {
            run("cg_htm", seed, 0, &[("sim_bytecodes_per_cpu_s", 10.0), ("sim_cycles", 500.0)])
        };
        assert!(compare(&set(vec![base(1)]), &set(vec![base(1)]), &metrics));
        // Slower beyond the bound.
        let slow = run("cg_htm", 1, 0, &[("sim_bytecodes_per_cpu_s", 7.0), ("sim_cycles", 500.0)]);
        assert!(!compare(&set(vec![base(1)]), &set(vec![slow]), &metrics));
        // Cycles moved by 0.2 % at an equal seed: inside the bound, still a
        // behaviour change.
        let moved =
            run("cg_htm", 1, 0, &[("sim_bytecodes_per_cpu_s", 10.0), ("sim_cycles", 501.0)]);
        assert!(!compare(&set(vec![base(1)]), &set(vec![moved]), &metrics));
        // The same movement at another seed is the seed's doing.
        let other_seed =
            run("cg_htm", 2, 0, &[("sim_bytecodes_per_cpu_s", 10.0), ("sim_cycles", 501.0)]);
        assert!(compare(&set(vec![base(1)]), &set(vec![other_seed]), &metrics));
        // A higher share of failed ops.
        let failing =
            run("cg_htm", 1, 1, &[("sim_bytecodes_per_cpu_s", 10.0), ("sim_cycles", 500.0)]);
        assert!(!compare(&set(vec![base(1)]), &set(vec![failing]), &metrics));
    }
}
