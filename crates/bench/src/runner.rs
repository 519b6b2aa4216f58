//! `bench::runner` — the sweep every experiment row runs its points
//! through, on top of the [`crate::pool`] worker pool.
//!
//! [`sweep`] fans the points of one sweep through the pool at the pool
//! size the caller passes down (a row gets it in
//! [`crate::figures::Opts`]; nothing here is process-global) and returns
//! the results in submission order. [`crate::reporting::record`] calls
//! made inside a point (every [`crate::run_workload`] makes one) are
//! captured per point and handed to the calling thread's collection in
//! submission order, so a `--report-json` document is byte-identical at
//! any pool size.
//!
//! The determinism contract is enforced by `tests/artifacts.rs` (every
//! row's text and artifacts at pool sizes 1 and 4, and against the
//! committed files) and `crates/bench/tests/runner_proptest.rs`
//! (ordering, loss/duplication, panic identity on random point sets).

use crate::pool::{self, SweepError};
use crate::reporting;

/// Run one sweep's points through a pool of `jobs` workers and return
/// the results in submission order. Captured [`reporting::record`] calls
/// reach the caller's collection in submission order too. A panic inside
/// a point cancels the queue and surfaces as `Err` carrying the point's
/// identity.
pub fn try_sweep<P, R>(
    jobs: usize,
    points: &[P],
    label: impl Fn(&P) -> String + Sync,
    run: impl Fn(&P) -> R + Sync,
) -> Result<Vec<R>, SweepError>
where
    P: Sync,
    R: Send,
{
    // Whether anyone listens is a property of the calling thread; the
    // workers cannot see it, so it is read here and passed down.
    let collecting = reporting::collecting();
    let captured = pool::try_map_ordered(
        jobs,
        points,
        &label,
        |_, p| if collecting { reporting::capture(|| run(p)) } else { (run(p), Vec::new()) },
        |_, _| {},
    )?;
    let mut out = Vec::with_capacity(captured.len());
    for (r, records) in captured {
        reporting::replay(records);
        out.push(r);
    }
    Ok(out)
}

/// [`try_sweep`], panicking (with the point's identity) if any point
/// panicked — sweep points already treat failed runs as bugs.
pub fn sweep<P, R>(
    jobs: usize,
    title: &str,
    points: &[P],
    label: impl Fn(&P) -> String + Sync,
    run: impl Fn(&P) -> R + Sync,
) -> Vec<R>
where
    P: Sync,
    R: Send,
{
    try_sweep(jobs, points, label, run).unwrap_or_else(|e| panic!("sweep '{title}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_ordered_at_explicit_pool_sizes() {
        let points: Vec<u64> = (0..12).collect();
        for jobs in [1, 4] {
            let out = try_sweep(jobs, &points, |p| p.to_string(), |p| p + 100).unwrap();
            assert_eq!(out, (100..112).collect::<Vec<u64>>());
        }
    }
}
