//! The untraced pass over one workload, which yields the end-to-end
//! metrics, and what it shares with the traced pass (`traced.rs`): timing
//! one op and checking every `Executor::run` either pass makes.

use htm_gil_core::{heap_digest, Executor, RunError, RunReport, RuntimeMode};
use htm_sim::HtmStats;

use crate::clock::{peak_rss_mb, thread_cpu_ns};
use crate::heap::peak_heap_mb;
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::workloads::{Input, Workload};

/// How a metric's per-repetition samples become its one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    Median,
    /// The fastest repetition, for the end-to-end host timings: other
    /// tenants of the sandbox only ever *slow* a repetition, in episodes
    /// that can outlast a run, so the fastest one is the steadiest
    /// estimate of what the code costs (README "How steady it is").
    Highest,
    Lowest,
}

/// One reported number: its per-repetition samples (one sample for a
/// count or a peak) and how they summarize to a value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    pub pick: Pick,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric { name, unit, samples, pick: Pick::Median }
    }

    pub fn fastest(
        name: &'static str,
        unit: &'static str,
        samples: Vec<f64>,
        pick: Pick,
    ) -> Metric {
        Metric { name, unit, samples, pick }
    }

    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, vec![value])
    }

    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    pub fn value(&self) -> f64 {
        let extreme = |better: fn(f64, f64) -> f64| self.samples.iter().copied().reduce(better);
        match self.pick {
            Pick::Median => Some(self.summary().median),
            Pick::Highest => extreme(f64::max),
            Pick::Lowest => extreme(f64::min),
        }
        .expect("a metric has at least one sample")
    }
}

/// Everything one pass reports.
pub struct PassResult {
    pub repetitions: usize,
    /// One op = one `Executor::run` of a measured repetition.
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Why the first few failed ops failed.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Median wall seconds per repetition and the process's `VmHWM` —
    /// information only, not metrics.
    pub wall_s_per_repetition: f64,
    pub peak_rss_mb: f64,
    /// The traced pass's spans.
    pub tracer: Option<Tracer>,
}

/// What the one GIL-mode oracle run of an input produced.
struct Oracle {
    stdout: String,
    heap: String,
    cycles: u64,
}

/// Every simulated counter of one op; all repetitions must agree on it.
#[derive(PartialEq)]
struct SimCounts {
    cycles: u64,
    committed_insns: u64,
    wasted_insns: u64,
    gil_acquisitions: u64,
    length_adjustments: u64,
    allocations: u64,
    gc_runs: u64,
    htm: HtmStats,
}

impl SimCounts {
    fn of(r: &RunReport) -> SimCounts {
        SimCounts {
            cycles: r.elapsed_cycles,
            committed_insns: r.committed_insns,
            wasted_insns: r.wasted_insns,
            gil_acquisitions: r.gil_acquisitions,
            length_adjustments: r.length_adjustments,
            allocations: r.allocations,
            gc_runs: r.gc_runs,
            htm: r.htm.clone(),
        }
    }
}

/// Checks ops against the expected text, the GIL oracle and the first
/// repetition, and counts them.
pub struct Checker<'w> {
    workload: &'w Workload,
    oracles: Vec<Oracle>,
    /// Counters of each point's first checked op.
    first: Vec<Option<SimCounts>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl<'w> Checker<'w> {
    /// Runs every input once under the GIL — the oracle for all of the
    /// input's points — then one warm-up repetition. The warm-up's ops are
    /// not measured, so they are not counted either; their counters stay
    /// as the reference every measured repetition must equal.
    pub fn warmed_up(workload: &'w Workload, seed: u64) -> Result<Checker<'w>, String> {
        let mut oracles = Vec::new();
        for input in &workload.inputs {
            let (_, _, outcome) = timed_point(input, RuntimeMode::Gil, seed);
            let (ex, report) =
                outcome.map_err(|e| format!("{}: GIL oracle run failed: {e}", input.label))?;
            oracles.push(Oracle {
                heap: heap_digest(&ex.vm),
                stdout: report.stdout,
                cycles: report.elapsed_cycles,
            });
        }
        let first = workload.points.iter().map(|_| None).collect();
        let mut checker =
            Checker { workload, oracles, first, attempted: 0, failed: 0, failures: Vec::new() };
        plain_repetition(workload, seed, &mut checker);
        (checker.attempted, checker.failed) = (0, 0);
        checker.failures.clear();
        Ok(checker)
    }

    pub fn check(&mut self, point: usize, outcome: &Result<(Executor, RunReport), RunError>) {
        self.attempted += 1;
        let p = &self.workload.points[point];
        let input = &self.workload.inputs[p.input];
        let oracle = &self.oracles[p.input];
        let verdict = match outcome {
            Err(e) => Err(format!("run returned an error: {e}")),
            Ok((ex, r)) => {
                let counts = SimCounts::of(r);
                if input.expected_stdout.as_ref().is_some_and(|want| *want != r.stdout) {
                    Err(format!("stdout {:?} is not the expected text", r.stdout))
                } else if r.stdout != oracle.stdout {
                    Err(format!("stdout {:?} differs from the GIL oracle's", r.stdout))
                } else if heap_digest(&ex.vm) != oracle.heap {
                    Err("heap digest differs from the GIL oracle's".to_string())
                } else if self.first[point].as_ref().is_some_and(|f| *f != counts) {
                    Err("simulated counters differ from the first repetition's".to_string())
                } else {
                    self.first[point].get_or_insert(counts);
                    Ok(())
                }
            }
        };
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("{} {}: {why}", input.label, p.mode.label()));
            }
        }
    }
}

pub type Interval = (u64, u64);

/// One op, timed on the thread CPU clock: the interval inside
/// `Executor::new`, the interval inside `Executor::run`, and what came out.
/// Dropping the previous executor happens outside both intervals.
pub fn timed_point(
    input: &Input,
    mode: RuntimeMode,
    seed: u64,
) -> (Interval, Interval, Result<(Executor, RunReport), RunError>) {
    let vm_config = input.vm_config(seed);
    let cfg = input.exec_config(mode, seed);
    let profile = input.profile.clone();
    let t0 = thread_cpu_ns();
    let ex = Executor::new(&input.source, vm_config, profile, cfg);
    let t1 = thread_cpu_ns();
    match ex {
        Err(e) => ((t0, t1), (t1, t1), Err(e)),
        Ok(mut ex) => {
            let r = ex.run();
            let t2 = thread_cpu_ns();
            ((t0, t1), (t1, t2), r.map(|r| (ex, r)))
        }
    }
}

/// Sums over the points of one repetition.
#[derive(Default)]
pub struct RepTotals {
    setup_ns: u64,
    pub run_ns: u64,
    bytecodes: u64,
    cycles: u64,
    headline_cycles: u64,
    headline_gil_cycles: u64,
    wall_s: f64,
}

impl RepTotals {
    fn add(&mut self, w: &Workload, point: usize, oracles: &[Oracle], r: &RunReport) {
        let p = &w.points[point];
        self.bytecodes += r.committed_insns + r.wasted_insns;
        self.cycles += r.elapsed_cycles;
        if w.is_headline(p) {
            self.headline_cycles += r.elapsed_cycles;
            self.headline_gil_cycles += oracles[p.input].cycles;
        }
    }
}

/// One untraced repetition: every point once, nothing but the two clock
/// reads around each call.
pub fn plain_repetition(w: &Workload, seed: u64, checker: &mut Checker) -> RepTotals {
    let wall = std::time::Instant::now();
    let mut totals = RepTotals::default();
    for (i, p) in w.points.iter().enumerate() {
        let (setup, run, outcome) = timed_point(&w.inputs[p.input], p.mode, seed);
        totals.setup_ns += setup.1 - setup.0;
        totals.run_ns += run.1 - run.0;
        if let Ok((_, r)) = &outcome {
            totals.add(w, i, &checker.oracles, r);
        }
        checker.check(i, &outcome);
    }
    totals.wall_s = wall.elapsed().as_secs_f64();
    totals
}

/// The untraced pass: oracle runs, one warm-up repetition, then
/// repetitions until `seconds` of wall time have passed (at least two, so
/// the determinism check has something to compare).
pub fn end_to_end_pass(w: &Workload, seed: u64, seconds: f64) -> Result<PassResult, String> {
    let mut checker = Checker::warmed_up(w, seed)?;
    let start = std::time::Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        reps.push(plain_repetition(w, seed, &mut checker));
    }
    let last = reps.last().expect("at least two repetitions");
    let per_rep = |f: fn(&RepTotals) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let metrics = vec![
        Metric::fastest(
            "sim_bytecodes_per_cpu_s",
            "bytecodes/s",
            per_rep(|r| r.bytecodes as f64 / (r.run_ns as f64 / 1e9)),
            Pick::Highest,
        ),
        Metric::fastest("setup_s", "s", per_rep(|r| r.setup_ns as f64 / 1e9), Pick::Lowest),
        Metric::exact("peak_heap_mb", "MB", peak_heap_mb()),
        Metric::exact("sim_cycles", "cycles", last.cycles as f64),
        Metric::exact(
            "sim_speedup_vs_gil",
            "ratio",
            last.headline_gil_cycles as f64 / last.headline_cycles.max(1) as f64,
        ),
    ];
    Ok(PassResult {
        repetitions: reps.len(),
        ops_attempted: checker.attempted,
        ops_failed: checker.failed,
        failures: checker.failures,
        metrics,
        wall_s_per_repetition: crate::stats::median(&per_rep(|r| r.wall_s)),
        peak_rss_mb: peak_rss_mb(),
        tracer: None,
    })
}
