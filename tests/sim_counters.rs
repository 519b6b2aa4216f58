//! The simulated clock, held by a golden: for the six benchmark workloads
//! at the benchmark's default seed, every bit-reproducible counter a run
//! reports — summed over the workload's points — equals
//! `tests/golden/sim_counters.json` exactly. A host-side optimization
//! leaves every number here alone; a change that moves one is a behaviour
//! change and has to say so by regenerating the file (ROADMAP item 2a).
//! The simulated keys include the Fig. 8 cycle breakdown (`tx_begin_end`
//! … `other`, after the abort reasons), so a charge booked to the wrong
//! category fails here even when the clock it lands on is right.
//! The last nine keys of each workload are the exception that proves it:
//! deterministic counts of the host's own work (`Executor::host_counters`:
//! picks by kind, bursts and their bytecodes; `TxMemory::undo_pushes`; the
//! lease hits and misses; `TxMemory::dir_probes`) that a host-side change
//! *is* expected to move — and then to say by how much — and the task
//! server's p99, which the layer-share table of EXPERIMENTS.md "Host cost"
//! reads from here.
//!
//! The programs, sizes and the `VmConfig`/`ExecConfig` recipe are the
//! benchmark's own: `benchmark/src/workloads.rs` is compiled into this
//! test as a module, so the two cannot drift. The tiny sizes run in
//! tier 1; the full sizes (what `BENCHMARK.json` measures, `sim_cycles`
//! included) are `#[ignore]`d and run in `--release` by the CI
//! `benchmark` job.

#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod recipe;

#[path = "common/point_counters.rs"]
mod point_counters;

use htm_gil::core::Json;
use htm_gil::Executor;
use point_counters::point_counters;

const SEED: u64 = 1;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_counters.json");

/// `{workload: {counter: sum over the workload's points}}`.
fn measure(tiny: bool) -> Json {
    let mut doc = Json::obj();
    for name in recipe::NAMES {
        let w = recipe::build(name, tiny).expect("a benchmark workload");
        let mut sums: Vec<(&'static str, u64)> = Vec::new();
        for p in &w.points {
            let input = &w.inputs[p.input];
            let mut ex = Executor::new(
                &input.source,
                input.vm_config(SEED),
                input.profile.clone(),
                input.exec_config(p.mode, SEED),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", input.label));
            let report = ex.run().unwrap_or_else(|e| panic!("{}: {e}", input.label));
            if let Some(want) = &input.expected_stdout {
                assert_eq!(report.stdout, *want, "{}", input.label);
            }
            let point = point_counters(&ex, &report);
            if sums.is_empty() {
                sums = point;
            } else {
                sums.iter_mut().zip(point).for_each(|(sum, (_, v))| sum.1 += v);
            }
        }
        let entry = sums.into_iter().fold(Json::obj(), |o, (k, v)| o.field(k, v));
        doc = doc.field(name, entry);
    }
    doc
}

fn check(size: &str, tiny: bool) {
    let actual = measure(tiny);
    let golden = std::fs::read_to_string(GOLDEN)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text));
    if golden.as_ref().is_ok_and(|g| g.get(size) == Some(&actual)) {
        return;
    }
    let dump = format!("{}/sim_counters.{size}.json", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&dump, actual.to_pretty()).expect("write the measured counters");
    panic!(
        "simulated counters differ from the `{size}` section of {GOLDEN}\n\
         (golden: {})\nmeasured section written to {dump}",
        golden
            .map_or_else(|e| e, |g| g.get(size).map_or("section missing".into(), Json::to_pretty)),
    );
}

#[test]
fn tiny_sizes_match_the_golden() {
    check("tiny", true);
}

#[test]
#[ignore = "full benchmark sizes: run in --release (CI `benchmark` job)"]
fn full_sizes_match_the_golden() {
    check("full", false);
}
