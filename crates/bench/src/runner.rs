//! `bench::runner` — shared config-sweep scaffolding for every bench
//! binary.
//!
//! The bins (`fig4_micro` … `extensions`, `chaos`)
//! used to hand-roll the same three things: flag parsing, a serial loop
//! over their sweep points, and `RunReport` collection for
//! `--report-json`. This module centralizes them on top of the
//! [`crate::pool`] worker pool:
//!
//! * [`init_from_args`] — parses `--jobs <N|auto>` (default `1`; the
//!   `HTMGIL_JOBS` environment variable supplies a default the flag
//!   overrides) and delegates `--report-json <path>` to
//!   [`crate::reporting`]. Binaries call it first thing in `main`.
//! * [`sweep`] — fans the points of one sweep through the pool at the
//!   configured pool size and returns results in submission order.
//!   [`crate::reporting::record`] calls made inside a point (every
//!   [`crate::run_workload`] makes one) are captured per point and
//!   flushed to the collector in submission order, so `--report-json`
//!   documents are byte-identical at any `--jobs` value.
//! * Progress lines (one per completed point, to stderr, enabled only
//!   for real binaries via [`init_from_args`]) — stdout stays reserved
//!   for the paper-style tables and is identical at any pool size.
//!
//! The determinism contract is enforced by `tests/pool_determinism.rs`
//! (fig4/fig8/chaos artifacts at `--jobs 1` vs `--jobs 4` vs the
//! committed goldens) and `crates/bench/tests/runner_proptest.rs`
//! (ordering, loss/duplication, panic identity on random point sets).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::pool::{self, SweepError};
use crate::reporting;

/// Configured pool size (process-global, like the reporting collector).
static JOBS: AtomicUsize = AtomicUsize::new(1);
/// Whether completed points emit stderr progress lines (binaries only).
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Resolve `auto`: one worker per available hardware thread.
pub fn auto_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Set the pool size used by [`sweep`] (clamped to at least 1).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// Pool size [`sweep`] will use.
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed)
}

/// Parse the shared bench flags. `--jobs N` / `--jobs=N` / `--jobs auto`
/// picks the pool size (default: `HTMGIL_JOBS`, else 1); `--report-json`
/// is handled by [`reporting::init_from_args`]. Call first in `main`.
pub fn init_from_args() {
    reporting::init_from_args();
    PROGRESS.store(true, Ordering::Relaxed);
    if let Ok(v) = std::env::var("HTMGIL_JOBS") {
        if !v.is_empty() {
            set_jobs(parse_jobs(&v));
        }
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            match args.next() {
                Some(v) => set_jobs(parse_jobs(&v)),
                None => {
                    eprintln!("error: --jobs requires a count or 'auto'");
                    std::process::exit(2);
                }
            }
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            set_jobs(parse_jobs(v));
        }
    }
}

fn parse_jobs(v: &str) -> usize {
    if v == "auto" {
        auto_jobs()
    } else {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: --jobs takes a positive count or 'auto', got {v:?}");
                std::process::exit(2);
            }
        }
    }
}

/// Run one sweep's points through the pool at an explicit pool size and
/// return the results in submission order. Captured
/// [`reporting::record`] calls flush in submission order too. A panic
/// inside a point cancels the queue and surfaces as `Err` carrying the
/// point's identity.
pub fn try_sweep_with_jobs<P, R>(
    jobs: usize,
    title: &str,
    points: &[P],
    label: impl Fn(&P) -> String + Sync,
    run: impl Fn(&P) -> R + Sync,
) -> Result<Vec<R>, SweepError>
where
    P: Sync,
    R: Send,
{
    let total = points.len();
    let captured = pool::try_map_ordered(
        jobs,
        points,
        &label,
        |_, p| reporting::capture(|| run(p)),
        |completed, index| {
            if PROGRESS.load(Ordering::Relaxed) {
                eprintln!("  [{completed:>3}/{total}] {title}: {}", label(&points[index]));
            }
        },
    )?;
    let mut out = Vec::with_capacity(captured.len());
    for (r, records) in captured {
        reporting::flush_captured(records);
        out.push(r);
    }
    Ok(out)
}

/// [`try_sweep_with_jobs`] at the configured `--jobs` size, panicking
/// (with the point's identity) if any point panicked — sweep points
/// already treat failed runs as bugs.
pub fn sweep<P, R>(
    title: &str,
    points: &[P],
    label: impl Fn(&P) -> String + Sync,
    run: impl Fn(&P) -> R + Sync,
) -> Vec<R>
where
    P: Sync,
    R: Send,
{
    try_sweep_with_jobs(jobs(), title, points, label, run)
        .unwrap_or_else(|e| panic!("sweep '{title}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_parse_accepts_counts_and_auto() {
        assert_eq!(parse_jobs("1"), 1);
        assert_eq!(parse_jobs("12"), 12);
        assert!(parse_jobs("auto") >= 1);
    }

    #[test]
    fn sweep_is_ordered_at_explicit_pool_sizes() {
        let points: Vec<u64> = (0..12).collect();
        for jobs in [1, 4] {
            let out =
                try_sweep_with_jobs(jobs, "t", &points, |p| p.to_string(), |p| p + 100).unwrap();
            assert_eq!(out, (100..112).collect::<Vec<u64>>());
        }
    }
}
