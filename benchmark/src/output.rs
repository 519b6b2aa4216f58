//! What a pass prints and writes. Everything written goes under `--out`.

use std::path::Path;

use htm_gil_core::Json;

use crate::run::PassResult;

pub const RUN_SCHEMA: &str = "htm-gil-benchmark-run/v1";

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric exactly `value` and `unit`.
pub fn result_line(r: &PassResult) -> String {
    let metrics = r.metrics.iter().fold(Json::obj(), |acc, m| {
        acc.field(m.name, Json::obj().field("value", m.value()).field("unit", m.unit))
    });
    Json::obj()
        .field("correct", r.ops_failed == 0)
        .field("attempted", r.ops_attempted)
        .field("failed", r.ops_failed)
        .field("metrics", metrics)
        .to_compact()
}

/// The run document `set` collects and `compare` reads: the result line's
/// content plus the samples behind every value.
pub fn run_document(workload: &str, seed: u64, seconds: f64, trace: bool, r: &PassResult) -> Json {
    let metrics = r.metrics.iter().fold(Json::obj(), |acc, m| {
        let samples = m.samples.iter().map(|&v| Json::from(v)).collect::<Vec<Json>>();
        let entry = Json::obj().field("value", m.value()).field("unit", m.unit);
        acc.field(m.name, entry.field("samples", samples))
    });
    Json::obj()
        .field("schema", RUN_SCHEMA)
        .field("workload", workload)
        .field("seed", seed)
        .field("seconds", seconds)
        .field("trace", trace)
        .field("repetitions", r.repetitions)
        .field("ops_attempted", r.ops_attempted)
        .field("ops_failed", r.ops_failed)
        .field("wall_s_per_repetition", r.wall_s_per_repetition)
        .field("peak_rss_mb", r.peak_rss_mb)
        .field("metrics", metrics)
}

pub fn print_human(workload: &str, seed: u64, trace: bool, points: usize, r: &PassResult) {
    println!(
        "== {workload}  seed {seed}  {} pass: {} repetitions x {points} point(s), on-CPU time ==",
        if trace { "traced" } else { "untraced" },
        r.repetitions,
    );
    for m in &r.metrics {
        let s = m.summary();
        println!(
            "  {:<36} {:>18.6} {:<12} quartiles {:.6} / {:.6} / {:.6}  n={}",
            m.name,
            m.value(),
            m.unit,
            s.q1,
            s.median,
            s.q3,
            s.n
        );
    }
    println!(
        "  information only, not metrics: wall time per repetition {:.4} s, VmHWM {:.1} MB",
        r.wall_s_per_repetition, r.peak_rss_mb
    );
    println!("  ops_attempted {}  ops_failed {}", r.ops_attempted, r.ops_failed);
    for why in &r.failures {
        println!("  FAILED {why}");
    }
}

pub fn write_json(dir: &Path, file: &str, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, doc.to_pretty() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  [json] {}", path.display());
    Ok(())
}
