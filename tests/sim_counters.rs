//! The simulated clock, held by one golden that this file alone reads and
//! writes: `tests/golden/sim_counters.json`, compared at 0 % tolerance. A
//! host-side optimization leaves every number in it alone; a change that
//! moves one is a behaviour change and has to say so by regenerating the
//! file (ROADMAP item 2). Its three sections:
//!
//! - **`tiny` and `full`**: for the six benchmark workloads at the
//!   benchmark's default seed, every bit-reproducible counter a run reports
//!   (`point_counters`), summed over the workload's points, then the two
//!   inputs of the benchmark's `sim_speedup_vs_gil`: `headline_cycles` and
//!   `headline_gil_cycles` (CI's `benchmark` job divides them and compares
//!   the benchmark's own ratio with `==`). The simulated keys include the
//!   Fig. 8 cycle breakdown (`tx_begin_end` … `other`, after the abort
//!   reasons), so a charge booked to the wrong category fails here even
//!   when the clock it lands on is right; one booked nowhere fails at
//!   every point, where `point_counters` holds the categories' sum to the
//!   threads' busy cycles (so do the oversubscribed runs). The eleven keys before the
//!   headline pair are the exception that proves it: deterministic counts
//!   of the host's own work (`Executor::host_counters`: picks by kind,
//!   bursts and their bytecodes, steps looked ahead and rewinds;
//!   `TxMemory::undo_pushes`; the lease hits and misses;
//!   `TxMemory::dir_probes`) that a host-side change *is* expected to move —
//!   and then to say by how much — and the task server's p99, which the
//!   layer-share table of EXPERIMENTS.md "Host cost" reads from here.
//! - **`oversubscribed`**: `elapsed_cycles` of the runs with more threads
//!   than hardware threads, by the label their assertion prints.
//!
//! The programs, sizes and the `VmConfig`/`ExecConfig` recipe are the
//! benchmark's own: `benchmark/src/workloads.rs` is compiled into this
//! test as a module, so the two cannot drift. The tiny sizes run in
//! tier 1; the full sizes (what `BENCHMARK.json` measures, `sim_cycles`
//! included) are `#[ignore]`d and run in `--release` by the CI
//! `benchmark` job.
//!
//! **Moving the clock on purpose.** Every section that differs is written
//! into one copy of the golden, `target/tmp/sim_counters.json`, so
//!
//! ```sh
//! cargo test --release --test sim_counters -- --include-ignored
//! cp target/tmp/sim_counters.json tests/golden/sim_counters.json
//! ```
//!
//! re-baselines all of it, and the diff of the golden is the review.

#[allow(dead_code)]
#[path = "../benchmark/src/workloads.rs"]
mod recipe;

#[path = "common/point_counters.rs"]
mod point_counters;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use htm_gil::core::Json;
use htm_gil::machine::ExploreCtl;
use htm_gil::{
    ExecConfig, Executor, LengthPolicy, MachineProfile, RunReport, RuntimeMode, SchedPath, VmConfig,
};
use point_counters::{assert_ledger_balances, point_counters};

const SEED: u64 = 1;
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_counters.json");
/// Where a run that measured something else writes the golden it would have.
const REWRITE: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/sim_counters.json");
/// What `benchmark/src/run.rs` divides for `sim_speedup_vs_gil`.
const HEADLINE_KEYS: [&str; 2] = ["headline_cycles", "headline_gil_cycles"];

/// The goldens a mismatch rewrote in this process, by where they went:
/// each is the golden it was read from with every mismatched section
/// replaced.
static REWRITTEN: Mutex<BTreeMap<PathBuf, Json>> = Mutex::new(BTreeMap::new());

/// Holds `measured` to section `section` of the golden at `golden`,
/// exactly. On a mismatch, the section is replaced in this process's
/// rewrite of that golden, and the rewrite is written whole to `rewrite`.
fn pin(golden: &Path, rewrite: &Path, section: &str, measured: Json) -> Result<(), String> {
    let committed = std::fs::read_to_string(golden)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .map_err(|e| format!("{}: {e}", golden.display()))?;
    if committed.get(section) == Some(&measured) {
        return Ok(());
    }
    let mut rewritten = REWRITTEN.lock().unwrap_or_else(PoisonError::into_inner);
    let Json::Obj(sections) = rewritten.entry(rewrite.to_path_buf()).or_insert(committed) else {
        return Err(format!("{}: not an object", golden.display()));
    };
    match sections.iter_mut().find(|(name, _)| name == section) {
        Some((_, held)) => *held = measured,
        None => sections.push((section.to_string(), measured)),
    }
    let doc = &rewritten[rewrite];
    std::fs::write(rewrite, format!("{}\n", doc.to_pretty()))
        .map_err(|e| format!("{}: {e}", rewrite.display()))?;
    Err(format!(
        "the simulated clock differs from the `{section}` section of {}; the golden as \
         measured is {} — copy it over the golden only when the change is meant to move \
         the simulated clock",
        golden.display(),
        rewrite.display(),
    ))
}

fn check(section: &str, measured: Json) {
    pin(Path::new(GOLDEN), Path::new(REWRITE), section, measured).unwrap_or_else(|e| panic!("{e}"));
}

/// The golden as committed.
fn golden() -> Json {
    let text = std::fs::read_to_string(GOLDEN).expect("the golden");
    Json::parse(&text).expect("the golden parses")
}

/// A run checked against `pinned` cycles stops at a few times them, so one
/// that loops ends in `RunError::CycleLimit` with its dump instead of
/// hanging the suite. A limit that is not reached moves nothing, host keys
/// included; a run nothing pins yet (a new section) gets none.
fn cycle_limit(pinned: Option<&Json>) -> u64 {
    pinned.and_then(Json::as_u64).map_or(0, |cycles| 4 * cycles)
}

fn run(input: &recipe::Input, mode: RuntimeMode, max_cycles: u64) -> (Executor, RunReport) {
    let cfg = ExecConfig { max_cycles, ..input.exec_config(mode, SEED) };
    let mut ex = Executor::new(&input.source, input.vm_config(SEED), input.profile.clone(), cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", input.label));
    let report = ex.run().unwrap_or_else(|e| panic!("{}: {e}", input.label));
    if let Some(want) = &input.expected_stdout {
        assert_eq!(report.stdout, *want, "{}", input.label);
    }
    (ex, report)
}

/// `{workload: {counter: sum over the workload's points}}`, each workload
/// ending in its headline pair: the cycles of the points that count toward
/// the speedup (`Workload::is_headline`), and the cycles of their inputs
/// under the GIL — the workload's own GIL point of an input where it has
/// one, else one GIL run, as the benchmark's oracle run measures it. No
/// run may take more than a few times the larger of the workload's two
/// pinned sums.
fn measure(tiny: bool) -> Json {
    let (mut doc, golden) = (Json::obj(), golden());
    for name in recipe::NAMES {
        let w = recipe::build(name, tiny).expect("a benchmark workload");
        let pinned = golden.get(if tiny { "tiny" } else { "full" }).and_then(|s| s.get(name));
        let limit = ["elapsed_cycles", "headline_gil_cycles"]
            .map(|k| cycle_limit(pinned.and_then(|w| w.get(k))))
            .into_iter()
            .max()
            .unwrap_or(0);
        let mut sums: Vec<(&'static str, u64)> = Vec::new();
        let mut gil_cycles: Vec<Option<u64>> = vec![None; w.inputs.len()];
        let mut headline = [0; 2];
        for p in &w.points {
            let (ex, report) = run(&w.inputs[p.input], p.mode, limit);
            if p.mode == RuntimeMode::Gil {
                gil_cycles[p.input] = Some(report.elapsed_cycles);
            }
            if w.is_headline(p) {
                headline[0] += report.elapsed_cycles;
            }
            let point = point_counters(&ex, &report);
            if sums.is_empty() {
                sums = point;
            } else {
                sums.iter_mut().zip(point).for_each(|(sum, (_, v))| sum.1 += v);
            }
        }
        for p in w.points.iter().filter(|p| w.is_headline(p)) {
            headline[1] += *gil_cycles[p.input].get_or_insert_with(|| {
                run(&w.inputs[p.input], RuntimeMode::Gil, limit).1.elapsed_cycles
            });
        }
        sums.extend(HEADLINE_KEYS.into_iter().zip(headline));
        let entry = sums.into_iter().fold(Json::obj(), |o, (k, v)| o.field(k, v));
        doc = doc.field(name, entry);
    }
    doc
}

#[test]
fn tiny_sizes_match_the_golden() {
    check("tiny", measure(true));
}

#[test]
#[ignore = "full benchmark sizes: run in --release (CI `benchmark` job)"]
fn full_sizes_match_the_golden() {
    check("full", measure(false));
}

/// `io_wait` sleepers and a contended `Mutex`: the park/sleep/wake edges.
const IO_SRC: &str = r#"
threads = []
6.times do |i|
  threads << Thread.new(i) do |tid|
    j = 0
    x = 0
    while j < 12
      io_wait(1 + tid % 3)
      k = 0
      while k < 40 * (tid + 1)
        x += k
        k += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts("done")
"#;

const MUTEX_SRC: &str = r#"
m = Mutex.new()
count = 0
threads = []
6.times do |i|
  threads << Thread.new() do
    j = 0
    while j < 60
      m.synchronize do
        count += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(count)
"#;

/// Oversubscribed runs (more threads than hardware threads, so quantum
/// hand-overs and slot preemptions happen while run-ahead streaks are
/// live) must report the same JSON with and without an empty-path
/// exploration controller. The controller changes no decision
/// (`tests/explore_replay_proptest.rs`), but its `explore_preempt` traffic
/// at every yield point drives the pin/horizon interaction the plain run
/// never touches. `elapsed_cycles` is pinned to what the full-scan
/// scheduler produced (the `oversubscribed` section), so a change that
/// moves both sides alike still fails.
#[test]
fn oversubscribed_runs_match_with_and_without_an_empty_path_controller() {
    let zec12 = MachineProfile::zec12;
    let xeon = MachineProfile::xeon_e3_1275_v3;
    let generic4 = || MachineProfile::generic(4);
    let while14 = workloads::micro::while_bench(14, 600).source;
    let while10 = workloads::micro::while_bench(10, 600).source;
    let iter14 = workloads::micro::iterator_bench(14, 300).source;
    let iter10 = workloads::micro::iterator_bench(10, 300).source;
    type Point<'a> = (&'a str, &'a str, fn() -> MachineProfile, usize);
    let points: [Point; 6] = [
        ("while", &while14, zec12, 14),
        ("while", &while10, xeon, 10),
        ("iterator", &iter14, zec12, 14),
        ("iterator", &iter10, xeon, 10),
        ("io", IO_SRC, generic4, 6),
        ("mutex", MUTEX_SRC, generic4, 6),
    ];
    let modes = [
        RuntimeMode::Gil,
        RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
        RuntimeMode::Htm { length: LengthPolicy::Dynamic },
    ];
    let (mut cycles, golden) = (Json::obj(), golden());
    for (name, source, profile, threads) in points {
        for mode in modes {
            let at = format!("{name} x{threads} on {} under {}", profile().name, mode.label());
            let limit = cycle_limit(golden.get("oversubscribed").and_then(|s| s.get(&at)));
            let run = |explore: Option<ExploreCtl>| {
                let profile = profile();
                let mut cfg = ExecConfig { max_cycles: limit, ..ExecConfig::new(mode, &profile) };
                cfg.explore = explore;
                let vm = VmConfig { max_threads: threads + 2, ..VmConfig::default() };
                let mut ex = Executor::new(source, vm, profile, cfg).expect("boot");
                let r = ex.run().unwrap_or_else(|e| panic!("{name} {}: {e}", mode.label()));
                assert_ledger_balances(&ex, &r);
                r
            };
            let bare = run(None);
            let ctl = run(Some(ExploreCtl::new(SchedPath::empty(), false)));
            assert_eq!(bare.to_json().to_compact(), ctl.to_json().to_compact(), "{at}");
            cycles = cycles.field(&at, bare.elapsed_cycles);
        }
    }
    check("oversubscribed", cycles);
}

/// The golden is exactly what `pin` writes: these sections in this order,
/// each workload keyed by `point_counters` and then the headline pair, in
/// the writer's bytes. A hand edit, an orphaned section or a stale key
/// fails here, in tier 1, even where only the ignored full sizes read it.
#[test]
fn the_golden_is_the_writers_output() {
    let (text, golden) = (std::fs::read_to_string(GOLDEN).expect("the golden"), golden());
    assert!(text == format!("{}\n", golden.to_pretty()), "{GOLDEN} is not in the writer's bytes");
    let names = |doc: &Json| match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        _ => panic!("not an object: {}", doc.to_compact()),
    };
    assert_eq!(names(&golden), ["tiny", "full", "oversubscribed"]);
    let profile = MachineProfile::zec12();
    let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
    let mut ex = Executor::new("puts(1)", VmConfig::default(), profile, cfg).expect("boot");
    let report = ex.run().expect("run");
    let keys: Vec<&str> = point_counters(&ex, &report).into_iter().map(|(k, _)| k).collect();
    let keys = [&keys[..], &HEADLINE_KEYS].concat();
    for size in ["tiny", "full"] {
        let section = golden.get(size).expect("a section");
        assert_eq!(names(section), recipe::NAMES, "{size}");
        for w in recipe::NAMES {
            assert_eq!(names(section.get(w).expect("a workload")), keys, "{size}.{w}");
        }
    }
}

/// `pin` on a scratch copy of the golden with one value off in each of two
/// sections: each mismatch rewrites the whole file with the measured
/// section in and the rest as it was, the second keeps the first's fix,
/// and the rewrite, copied back, passes.
#[test]
fn a_mismatch_rewrites_the_golden_whole_and_the_rewrite_passes() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sim_counters_round_trip");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (golden, rewrite) = (dir.join("golden.json"), dir.join("rewrite.json"));
    let text = std::fs::read_to_string(GOLDEN).expect("the golden");
    let committed = Json::parse(&text).expect("the golden parses");
    // What a run measured: the committed sections (tier 1 holds them to
    // the code); the scratch golden expects one cycle more in each.
    let measured = |section: &str| committed.get(section).expect("a section").clone();
    let off_by_one = |text: &str, key: &str, pinned: &Json| {
        let v = pinned.as_u64().expect("a pinned cycle count");
        let line = format!("{key:?}: {v},\n");
        assert_eq!(text.matches(&line).count(), 1, "{line}");
        text.replace(&line, &format!("{key:?}: {},\n", v + 1))
    };
    let tiny = measured("tiny");
    let Json::Obj(oversubscribed) = measured("oversubscribed") else { panic!("not an object") };
    let while_htm = tiny.get("while_htm").and_then(|w| w.get("elapsed_cycles"));
    let stale = off_by_one(&text, "elapsed_cycles", while_htm.expect("a workload section"));
    let (label, pinned) = &oversubscribed[0];
    let stale = off_by_one(&stale, label, pinned);
    let changed_lines = |a: &str, b: &str| a.lines().zip(b.lines()).filter(|(x, y)| x != y).count();
    assert_eq!(changed_lines(&text, &stale), 2);
    std::fs::write(&golden, &stale).expect("scratch golden");

    pin(&golden, &rewrite, "tiny", tiny.clone()).expect_err("`tiny` is off by one");
    let written = std::fs::read_to_string(&rewrite).expect("the rewrite");
    let doc = Json::parse(&written).expect("the rewrite parses");
    assert_eq!(doc.get("tiny"), Some(&tiny));
    assert_eq!(written.lines().count(), stale.lines().count());
    assert_eq!(changed_lines(&written, &text), 1, "only the stale `oversubscribed` line is left");
    pin(&golden, &rewrite, "full", measured("full")).expect("`full` matches");

    pin(&golden, &rewrite, "oversubscribed", measured("oversubscribed"))
        .expect_err("`oversubscribed` is off by one");
    assert_eq!(std::fs::read_to_string(&rewrite).expect("the rewrite"), text);

    std::fs::copy(&rewrite, &golden).expect("copy the rewrite back");
    for section in ["tiny", "full", "oversubscribed"] {
        pin(&golden, &rewrite, section, measured(section)).expect("the rewrite passes");
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch dir");
}
