//! # bench
//!
//! The experiment harness. An experiment is a value: a row of
//! [`figures::FIGURES`] — `fig4 fig5 fig6a fig6b fig7 fig8 fig9 ablations
//! extensions intext chaos taskserver` — whose `run` takes its size and
//! pool size as [`figures::Opts`] and returns the console text and the
//! artifact bytes as a [`figures::Output`]. Rows read no environment,
//! print nothing and write no file.
//!
//! The one binary, `figures`, is the only code that reads argv or touches
//! the file system: `figures list`, `figures <name>…|all [--quick]
//! [--jobs N|auto] [--report-json PATH]` (prints each row's text, writes
//! its artifacts under `bench-results/`) and `figures explore …` (the
//! schedule-space search of [`explore`]).
//!
//! Sweeps fan out through the [`runner`] module onto the [`pool`]:
//! independent simulation points run concurrently, but results — and
//! therefore every CSV/JSON byte — are collected in submission order,
//! identical at any pool size. `tests/artifacts.rs` holds every row to
//! that and, at full size, to the committed bytes under `bench-results/`.

pub mod chaos;
pub mod explore;
pub mod figures;
pub mod pool;
pub mod reporting;
pub mod runner;
pub mod taskserver;

use htm_gil_core::{ExecConfig, Executor, LengthPolicy, RunReport, RuntimeMode};
use htm_gil_stats::{Series, SeriesSet};
use machine_sim::MachineProfile;
use ruby_vm::VmConfig;
use workloads::Workload;

/// The paper's five throughput configurations (Figs. 5–7).
pub fn paper_modes() -> Vec<RuntimeMode> {
    vec![
        RuntimeMode::Gil,
        RuntimeMode::Htm { length: LengthPolicy::Fixed(1) },
        RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
        RuntimeMode::Htm { length: LengthPolicy::Fixed(256) },
        RuntimeMode::Htm { length: LengthPolicy::Dynamic },
    ]
}

/// Thread counts per machine, as in Fig. 5 ("1 to 2, 4, 6, and 8 on Xeon
/// …, and to 12 on zEC12").
pub fn thread_counts(profile: &MachineProfile) -> Vec<usize> {
    if profile.hw_threads() >= 12 {
        vec![1, 2, 4, 6, 8, 12]
    } else {
        vec![1, 2, 4, 6, 8]
    }
}

/// VM sizing for a workload: paper's enlarged heap, enough thread slots.
pub fn vm_config_for(threads: usize) -> VmConfig {
    VmConfig { max_threads: threads + 2, ..VmConfig::default() }
}

/// Run one workload in one mode on one machine; panics on failure (the
/// harness treats any failed run as a bug).
pub fn run_workload(w: &Workload, mode: RuntimeMode, profile: &MachineProfile) -> RunReport {
    let cfg = ExecConfig::new(mode, profile);
    run_workload_with(w, profile, cfg, vm_config_for(w.threads))
}

/// Run with explicit configurations (ablations).
pub fn run_workload_with(
    w: &Workload,
    profile: &MachineProfile,
    cfg: ExecConfig,
    vm_config: VmConfig,
) -> RunReport {
    let mut ex = Executor::new(&w.source, vm_config, profile.clone(), cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let report = ex.run().unwrap_or_else(|e| panic!("{} ({}): {e}", w.name, profile.name));
    reporting::record(w.name, &report);
    report
}

/// Throughput metric for normalization: requests/cycle for server
/// workloads, committed-work/cycle for fixed-work benchmarks.
pub fn throughput_of(w: &Workload, r: &RunReport) -> f64 {
    if w.requests > 0 {
        w.requests as f64 / r.elapsed_cycles.max(1) as f64
    } else {
        1.0 / r.elapsed_cycles.max(1) as f64
    }
}

/// Sweep a workload builder over an x axis (`"threads"`, or `"clients"`
/// for the server models) × the paper modes, producing a Fig. 5-style
/// panel normalized to the GIL at the first x, and beside it
/// HTM-dynamic's abort ratio (%) at each x, which Fig. 7 plots.
///
/// The `mode × x` points are independent simulations, so they fan out
/// through [`runner::sweep`]; results come back in submission order
/// (mode-major, x inner), so the assembled panel is byte-for-byte the
/// same at any pool size.
pub fn sweep_panel(
    jobs: usize,
    title: &str,
    axis: &str,
    profile: &MachineProfile,
    xs: &[usize],
    build: impl Fn(usize) -> Workload + Sync,
) -> (SeriesSet, Vec<f64>) {
    let points: Vec<(RuntimeMode, usize)> =
        paper_modes().into_iter().flat_map(|m| xs.iter().map(move |&n| (m, n))).collect();
    let results = runner::sweep(
        jobs,
        title,
        &points,
        |&(mode, n)| format!("{} {axis}={n}", mode.label()),
        |&(mode, n)| {
            let w = build(n);
            let r = run_workload(&w, mode, profile);
            (throughput_of(&w, &r), r.abort_ratio_pct())
        },
    );
    let unit = axis.trim_end_matches('s');
    let mut set = SeriesSet::new(title, axis, format!("throughput (1 = 1-{unit} GIL)"));
    let mut dynamic_aborts = Vec::new();
    for (mode, chunk) in paper_modes().into_iter().zip(results.chunks(xs.len())) {
        let mut s = Series::new(mode.label());
        for (&n, &(throughput, _)) in xs.iter().zip(chunk) {
            s.push(n as f64, throughput);
        }
        set.add(s);
        if mode == (RuntimeMode::Htm { length: LengthPolicy::Dynamic }) {
            dynamic_aborts = chunk.iter().map(|&(_, abort_pct)| abort_pct).collect();
        }
    }
    (set.normalize_to("GIL", xs[0] as f64), dynamic_aborts)
}

/// A panel as console text: table + chart.
pub fn panel_text(set: &SeriesSet) -> String {
    let mut xs: Vec<f64> =
        set.series.iter().flat_map(|s| s.points.iter().map(|&(x, _)| x)).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    let mut header: Vec<String> = vec!["threads".into()];
    header.extend(set.series.iter().map(|s| s.label.clone()));
    let hdr_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = htm_gil_stats::Table::new(&hdr_refs);
    for x in &xs {
        let mut row = vec![format!("{x}")];
        for s in &set.series {
            row.push(s.y_at(*x).map(|y| format!("{y:.2}")).unwrap_or_default());
        }
        table.row(&row);
    }
    format!(
        "\n== {} ==\n{}\n{}\n",
        set.title,
        table.render(),
        htm_gil_stats::ascii_chart(set, 56, 14)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_modes_are_the_five_figure_configs() {
        let labels: Vec<String> = paper_modes().iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["GIL", "HTM-1", "HTM-16", "HTM-256", "HTM-dynamic"]);
    }

    #[test]
    fn thread_counts_match_figure_axes() {
        assert_eq!(thread_counts(&MachineProfile::zec12()), vec![1, 2, 4, 6, 8, 12]);
        assert_eq!(thread_counts(&MachineProfile::xeon_e3_1275_v3()), vec![1, 2, 4, 6, 8]);
    }

    #[test]
    fn micro_workload_runs_in_two_modes() {
        let w = workloads::micro::while_bench(2, 60);
        let profile = MachineProfile::generic(4);
        let gil = run_workload(&w, RuntimeMode::Gil, &profile);
        let htm = run_workload(&w, RuntimeMode::Htm { length: LengthPolicy::Fixed(16) }, &profile);
        assert_eq!(gil.stdout, htm.stdout);
        assert_eq!(gil.stdout, workloads::micro::expected_output(2, 60));
    }
}
