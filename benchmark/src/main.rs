//! The repo's benchmark: host CPU time the simulator spends producing the
//! paper's simulated results. See README.md beside this package.
//!
//! ```text
//! htm-gil-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! htm-gil-benchmark set [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! htm-gil-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the driver's contract: one workload, one pass, the
//! result object as the last line of stdout. `set` runs all six workloads,
//! each in its own child process, one at a time, and appends their run
//! documents to `<out>/set.json`; `compare` judges two such files.

mod clock;
mod compare;
mod heap;
mod kernels;
mod output;
mod run;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use htm_gil_core::Json;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Defaults of the optional flags. `--out` is relative to the working
/// directory, never to where the binary was built: two checkouts measured
/// side by side cannot write into each other.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_OUT: &str = "benchmark/out";

struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => f.workload = Some(value.clone()),
            "--seed" => f.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                f.seconds =
                    value.parse().ok().filter(|s| *s > 0.0 && *s <= 600.0).ok_or_else(bad)?
            }
            "--trace" => {
                f.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => f.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(f)
}

fn run_file(workload: &str, trace: bool) -> String {
    format!("{workload}.trace{}.json", u8::from(trace))
}

/// One workload, one pass, in this process.
fn run_one(f: &Flags) -> Result<(), String> {
    let name = f.workload.as_deref().ok_or("--workload <name> is required")?;
    let w = workloads::build(name, false)
        .ok_or(format!("unknown workload {name:?}; one of {:?}", workloads::NAMES))?;
    let result = if f.trace {
        traced::traced_pass(&w, f.seed, f.seconds)?
    } else {
        run::end_to_end_pass(&w, f.seed, f.seconds)?
    };
    output::print_human(name, f.seed, f.trace, w.points.len(), &result);
    let doc = output::run_document(name, f.seed, f.seconds, f.trace, &result);
    output::write_json(&f.out, &run_file(name, f.trace), &doc)?;
    if let Some(tracer) = &result.tracer {
        output::write_json(&f.out, &format!("{name}.chrome-trace.json"), &tracer.to_chrome_json())?;
    }
    println!("{}", output::result_line(&result));
    Ok(())
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// All six workloads, each in its own child process, one at a time.
fn run_set(f: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let set_path = f.out.join("set.json");
    let mut runs = match read_json(&set_path) {
        Ok(doc) => doc.get("runs").and_then(Json::as_array).unwrap_or(&[]).to_vec(),
        Err(_) => Vec::new(),
    };
    let mut all_correct = true;
    let passes: &[bool] = if f.trace { &[false, true] } else { &[false] };
    for name in workloads::NAMES {
        for &trace in passes {
            let status = Command::new(&exe)
                .args(["--workload", name, "--seed", &f.seed.to_string()])
                .args([
                    "--seconds",
                    &f.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .arg("--out")
                .arg(&f.out)
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{name}: child exited with {status}"));
            }
            let doc = read_json(&f.out.join(run_file(name, trace)))?;
            all_correct &= doc.get("ops_failed").and_then(Json::as_u64) == Some(0);
            runs.push(doc);
        }
    }
    let set = Json::obj().field("schema", compare::SET_SCHEMA).field("runs", runs);
    output::write_json(&f.out, "set.json", &set)?;
    Ok(all_correct)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two set files".to_string());
    };
    let metrics = compare::end_to_end_metrics(compare::BENCHMARK_JSON)?;
    Ok(compare::compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?, &metrics))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("set") => parse_flags(&args[1..]).and_then(|f| run_set(&f)),
        _ => parse_flags(&args).and_then(|f| run_one(&f)).map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
