//! The six benchmark workloads, with their sizes pinned here.
//!
//! A workload is a list of *points* (one `Executor::new` + one
//! `Executor::run` each) over a list of *inputs* (a Ruby program on a
//! machine). Every workload is a closed loop by construction: one
//! simulator thread, each point starts when the previous one ends.
//! Why each workload is here is recorded in `BENCHMARK.json` and README.md.

use htm_gil_core::{ExecConfig, LengthPolicy, RuntimeMode};
use machine_sim::MachineProfile;
use ruby_vm::VmConfig;

pub const NAMES: [&str; 6] =
    ["while_htm", "cg_htm", "cg_gil", "webrick_xeon", "taskserver_htm", "fig4_sweep"];

pub const HTM_DYNAMIC: RuntimeMode = RuntimeMode::Htm { length: LengthPolicy::Dynamic };

/// stdout of `npb::cg(12, 16)` and `webrick::webrick(6, 1200)`; neither
/// has a closed form in `workloads`, so the text is pinned beside the size.
const CG_12_16_STDOUT: &str = "CG rho 402741";
const WEBRICK_6_1200_STDOUT: &str = "served 1200 bytes 269800";

/// One Ruby program on one machine.
pub struct Input {
    pub label: String,
    pub source: String,
    pub threads: usize,
    pub profile: MachineProfile,
    /// The text the program must print, where the size has one pinned
    /// (every full-size input; tiny self-test sizes rely on the oracle).
    pub expected_stdout: Option<String>,
}

/// One `Executor::new` + `Executor::run`.
pub struct Point {
    pub input: usize,
    pub mode: RuntimeMode,
}

pub struct Workload {
    pub inputs: Vec<Input>,
    pub points: Vec<Point>,
}

impl Workload {
    /// Points that count toward `sim_speedup_vs_gil`: the HTM-dynamic
    /// ones, or every point of a workload that has none (`cg_gil`: 1.0).
    pub fn is_headline(&self, p: &Point) -> bool {
        p.mode == HTM_DYNAMIC || self.points.iter().all(|q| q.mode != HTM_DYNAMIC)
    }
}

/// SplitMix64 finalizer: neighbouring `--seed` values give unrelated
/// simulator seeds.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Input {
    /// `--seed` feeds `VmConfig::conn_seed` (connection latencies of the
    /// task server) …
    pub fn vm_config(&self, seed: u64) -> VmConfig {
        VmConfig { max_threads: self.threads + 2, conn_seed: mix(seed), ..VmConfig::default() }
    }

    /// … and `ExecConfig::seed` (the Xeon's learning abort predictor).
    pub fn exec_config(&self, mode: RuntimeMode, seed: u64) -> ExecConfig {
        let mut cfg = ExecConfig::new(mode, &self.profile);
        cfg.seed = mix(seed);
        cfg
    }
}

fn single(input: Input, mode: RuntimeMode) -> Workload {
    Workload { inputs: vec![input], points: vec![Point { input: 0, mode }] }
}

fn input(w: workloads::Workload, profile: MachineProfile, expected: Option<String>) -> Input {
    Input {
        label: format!("{} {}t {}", w.name, w.threads, profile.name),
        source: w.source,
        threads: w.threads,
        profile,
        expected_stdout: expected,
    }
}

/// The Fig. 4 grid: {While, Iterator} × {zEC12, Xeon} × the five paper
/// modes × the machine's thread axis (6 + 5 counts) = 110 points.
fn fig4_sweep(tiny: bool) -> Workload {
    let iters = if tiny { 20 } else { 300 };
    let modes = [
        RuntimeMode::Gil,
        RuntimeMode::Htm { length: LengthPolicy::Fixed(1) },
        RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
        RuntimeMode::Htm { length: LengthPolicy::Fixed(256) },
        HTM_DYNAMIC,
    ];
    let mut inputs = Vec::new();
    let mut points = Vec::new();
    for (profile, axis) in [
        (MachineProfile::zec12(), &[1usize, 2, 4, 6, 8, 12][..]),
        (MachineProfile::xeon_e3_1275_v3(), &[1, 2, 4, 6, 8][..]),
    ] {
        let axis = if tiny { &axis[..2] } else { axis };
        for build in [workloads::micro::while_bench, workloads::micro::iterator_bench] {
            for mode in modes {
                for &n in axis {
                    let expected = workloads::micro::expected_output(n, iters);
                    let candidate = input(build(n, iters), profile.clone(), Some(expected));
                    let at = inputs.iter().position(|i: &Input| i.label == candidate.label);
                    let at = at.unwrap_or_else(|| {
                        inputs.push(candidate);
                        inputs.len() - 1
                    });
                    points.push(Point { input: at, mode });
                }
            }
        }
    }
    Workload { inputs, points }
}

/// Build a workload by name; `tiny` shrinks every size for the self-tests
/// (tiny numbers are never reported).
pub fn build(name: &str, tiny: bool) -> Option<Workload> {
    let z = MachineProfile::zec12;
    let full = |text: &str| (!tiny).then(|| text.to_string());
    Some(match name {
        "while_htm" => {
            let (n, iters) = if tiny { (2, 40) } else { (12, 16_000) };
            let expected = workloads::micro::expected_output(n, iters);
            let w = workloads::micro::while_bench(n, iters);
            single(input(w, z(), Some(expected)), HTM_DYNAMIC)
        }
        "cg_htm" | "cg_gil" => {
            let w = if tiny { workloads::npb::cg(2, 1) } else { workloads::npb::cg(12, 16) };
            let mode = if name == "cg_htm" { HTM_DYNAMIC } else { RuntimeMode::Gil };
            single(input(w, z(), full(CG_12_16_STDOUT)), mode)
        }
        "webrick_xeon" => {
            let w = if tiny {
                workloads::webrick::webrick(2, 8)
            } else {
                workloads::webrick::webrick(6, 1_200)
            };
            let xeon = MachineProfile::xeon_e3_1275_v3();
            single(input(w, xeon, full(WEBRICK_6_1200_STDOUT)), HTM_DYNAMIC)
        }
        "taskserver_htm" => {
            let (clients, workers, qbound, tasks) =
                if tiny { (2, 2, 4, 16) } else { (8, 4, 64, 2_400) };
            let expected = workloads::taskserver::expected_stdout(tasks);
            let w = workloads::taskserver::taskserver(clients, workers, qbound, tasks, false);
            single(input(w, z(), Some(expected)), HTM_DYNAMIC)
        }
        "fig4_sweep" => fig4_sweep(tiny),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_sweep_is_the_110_point_grid_over_22_inputs() {
        let w = build("fig4_sweep", false).expect("fig4_sweep");
        assert_eq!(w.points.len(), 110);
        assert_eq!(w.inputs.len(), 22);
        assert_eq!(w.points.iter().filter(|p| w.is_headline(p)).count(), 22);
        assert_eq!(w.points.iter().filter(|p| p.mode == RuntimeMode::Gil).count(), 22);
    }

    #[test]
    fn every_name_builds_and_unknown_names_do_not() {
        for name in NAMES {
            let w = build(name, true).unwrap_or_else(|| panic!("{name} must build"));
            assert!(!w.points.is_empty());
        }
        assert!(build("no_such_workload", true).is_none());
    }

    #[test]
    fn cg_gil_counts_its_only_point_toward_the_speedup() {
        let w = build("cg_gil", true).expect("cg_gil");
        assert!(w.is_headline(&w.points[0]));
    }

    #[test]
    fn seeds_reach_both_configs_and_differ() {
        let w = build("taskserver_htm", true).expect("taskserver_htm");
        let i = &w.inputs[0];
        assert_ne!(i.vm_config(1).conn_seed, i.vm_config(2).conn_seed);
        assert_ne!(i.exec_config(HTM_DYNAMIC, 1).seed, i.exec_config(HTM_DYNAMIC, 2).seed);
        assert_eq!(i.vm_config(1).max_threads, i.threads + 2);
    }
}
