//! `simpool` — a deterministic scoped-OS-thread worker pool for
//! independent simulation points.
//!
//! Every figure bin and the chaos sweep fan dozens-to-hundreds
//! of mutually independent `(workload, mode, threads, seed, knobs)`
//! simulation points through this pool. The contract that makes the
//! parallelism safe to gate CI on is **pool-size invariance**: results
//! are always collected and handed back in *submission order*, so every
//! artifact derived from them (CSV cells, JSON documents, normalized
//! series) is byte-identical for pool size 1, N, or `--jobs auto`. The
//! simulations themselves are deterministic and share no mutable state,
//! so the only ordering the pool has to defend is its own.
//!
//! Failure semantics: a panicking point never poisons the others
//! silently. Workers catch the unwind, a cancellation flag stops
//! handing out *new* points, already-started points run to completion,
//! and the sweep fails with the **lowest-index** failed point — which is
//! deterministic, because every point with a smaller index was already
//! handed out (the queue is strictly in submission order) and therefore
//! ran to its own verdict. `tests/runner_proptest.rs` hammers exactly
//! these properties.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A sweep failed: one of its points panicked.
#[derive(Debug)]
pub struct SweepError {
    /// Submission index of the failed point (lowest index when several
    /// points failed — deterministic at any pool size).
    pub index: usize,
    /// Human-readable identity of the point, from the sweep's labeller.
    pub label: String,
    /// The panic payload, stringified.
    pub payload: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep point #{} ({}) panicked: {}", self.index, self.label, self.payload)
    }
}

impl std::error::Error for SweepError {}

/// Run `run` over every point, `jobs` points concurrently, and return
/// the results **in submission order** regardless of completion order.
///
/// * `jobs == 1` executes inline on the calling thread (no spawns), and
///   larger pools are clamped to the number of points.
/// * `on_done(completed_so_far, index)` fires after each point finishes,
///   from whichever thread finished it (progress reporting only — it
///   must not write to artifacts).
/// * On a panic inside `run`, remaining queued points are cancelled and
///   the lowest-index failure is returned with `label(point)` identity.
pub fn try_map_ordered<P, R>(
    jobs: usize,
    points: &[P],
    label: impl Fn(&P) -> String + Sync,
    run: impl Fn(usize, &P) -> R + Sync,
    on_done: impl Fn(usize, usize) + Sync,
) -> Result<Vec<R>, SweepError>
where
    P: Sync,
    R: Send,
{
    if points.is_empty() {
        return Ok(Vec::new());
    }
    let jobs = jobs.clamp(1, points.len());
    let slots: Vec<Mutex<Option<Result<R, String>>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let worker = || {
        loop {
            if cancelled.load(Ordering::Relaxed) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= points.len() {
                break;
            }
            let out = catch_unwind(AssertUnwindSafe(|| run(i, &points[i])));
            let out = out.map_err(|p| {
                cancelled.store(true, Ordering::Relaxed);
                // `&*p`: downcast the payload itself, not the box around it.
                payload_text(&*p)
            });
            *slots[i].lock().expect("result slot") = Some(out);
            on_done(done.fetch_add(1, Ordering::Relaxed) + 1, i);
        }
    };
    if jobs == 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for n in 0..jobs {
                std::thread::Builder::new()
                    .name(format!("simpool-{n}"))
                    .spawn_scoped(s, worker)
                    .expect("spawn pool worker");
            }
        });
    }
    let mut out = Vec::with_capacity(points.len());
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner().expect("result slot") {
            Some(Ok(r)) => out.push(r),
            Some(Err(payload)) => {
                return Err(SweepError { index: i, label: label(&points[i]), payload });
            }
            // Only reachable after a cancellation: a later point was
            // never started. The failure that caused it sits at a lower
            // index and was returned above.
            None => unreachable!("unstarted point before any failure"),
        }
    }
    Ok(out)
}

/// Verdict of one point under [`try_map_ordered_pruned`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointOutcome<R> {
    /// Keep going: the point produced a result and the sweep continues.
    Continue(R),
    /// Stop here: the point produced a result that makes the rest of the
    /// sweep unnecessary (e.g. the first violating schedule under
    /// `--stop-first`). The result is kept; later points are dropped.
    Prune(R),
}

/// [`try_map_ordered`] with early exit: a point may return
/// [`PointOutcome::Prune`] to cancel the remainder of the sweep while
/// keeping its own result.
///
/// Returns submission-ordered slots: `Some` for every point up to and
/// including the **lowest-index** pruning point, `None` after it. The
/// output is pool-size invariant: the queue hands indices out strictly
/// in submission order and started points run to completion, so every
/// index below the first "event" (panic or prune) has a completed
/// `Continue` verdict at any pool size — and everything a bigger pool
/// happens to compute beyond the first prune is dropped, because a
/// 1-job pool would never have started it. A panic below the first
/// prune fails the sweep exactly like [`try_map_ordered`]; a panic
/// above it is discarded with the rest of the over-computation.
pub fn try_map_ordered_pruned<P, R>(
    jobs: usize,
    points: &[P],
    label: impl Fn(&P) -> String + Sync,
    run: impl Fn(usize, &P) -> PointOutcome<R> + Sync,
    on_done: impl Fn(usize, usize) + Sync,
) -> Result<Vec<Option<R>>, SweepError>
where
    P: Sync,
    R: Send,
{
    if points.is_empty() {
        return Ok(Vec::new());
    }
    let jobs = jobs.clamp(1, points.len());
    type Slot<R> = Mutex<Option<Result<(R, bool), String>>>;
    let slots: Vec<Slot<R>> = points.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let worker = || loop {
        if cancelled.load(Ordering::Relaxed) {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= points.len() {
            break;
        }
        let out = catch_unwind(AssertUnwindSafe(|| run(i, &points[i])));
        let out = match out {
            Ok(PointOutcome::Continue(r)) => Ok((r, false)),
            Ok(PointOutcome::Prune(r)) => {
                cancelled.store(true, Ordering::Relaxed);
                Ok((r, true))
            }
            Err(p) => {
                cancelled.store(true, Ordering::Relaxed);
                Err(payload_text(&*p))
            }
        };
        *slots[i].lock().expect("result slot") = Some(out);
        on_done(done.fetch_add(1, Ordering::Relaxed) + 1, i);
    };
    if jobs == 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            for n in 0..jobs {
                std::thread::Builder::new()
                    .name(format!("simpool-{n}"))
                    .spawn_scoped(s, worker)
                    .expect("spawn pool worker");
            }
        });
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(points.len());
    let mut pruned = false;
    for (i, slot) in slots.into_iter().enumerate() {
        if pruned {
            // Over-computation by a bigger pool: a 1-job sweep would
            // never have started this point. Drop it, verdict and all.
            out.push(None);
            continue;
        }
        match slot.into_inner().expect("result slot") {
            Some(Ok((r, prune))) => {
                pruned = prune;
                out.push(Some(r));
            }
            Some(Err(payload)) => {
                return Err(SweepError { index: i, label: label(&points[i]), payload });
            }
            // Unstarted: only possible after a cancellation, whose cause
            // (panic or prune) sits at a lower index and was handled.
            None => unreachable!("unstarted point before any failure or prune"),
        }
    }
    Ok(out)
}

fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let points: Vec<usize> = (0..25).collect();
        for jobs in [1, 2, 4, 8] {
            let out = try_map_ordered(
                jobs,
                &points,
                |p| p.to_string(),
                |_, p| {
                    // Early points sleep longer: completion order is the
                    // reverse of submission order under a big pool.
                    std::thread::sleep(std::time::Duration::from_micros(
                        (points.len() - p) as u64 * 40,
                    ));
                    p * 3
                },
                |_, _| {},
            )
            .unwrap();
            let want: Vec<usize> = points.iter().map(|p| p * 3).collect();
            assert_eq!(out, want, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let out: Vec<u32> =
            try_map_ordered(4, &[] as &[u8], |_| String::new(), |_, _| 0, |_, _| {}).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn lowest_index_panic_wins_at_any_pool_size() {
        let points: Vec<usize> = (0..40).collect();
        for jobs in [1, 3, 8] {
            let err = try_map_ordered(
                jobs,
                &points,
                |p| format!("point-{p}"),
                |_, p| {
                    if p % 7 == 3 {
                        panic!("boom at {p}");
                    }
                    *p
                },
                |_, _| {},
            )
            .unwrap_err();
            assert_eq!(err.index, 3, "jobs={jobs}");
            assert_eq!(err.label, "point-3");
            assert!(err.payload.contains("boom at 3"), "{}", err.payload);
        }
    }

    #[test]
    fn pruned_map_truncates_identically_at_any_pool_size() {
        let points: Vec<usize> = (0..30).collect();
        let mut expect: Vec<Option<usize>> = points.iter().map(|p| Some(p * 2)).collect();
        for slot in expect.iter_mut().skip(12) {
            *slot = None;
        }
        expect[11] = Some(22);
        for jobs in [1, 2, 4, 8] {
            let out = try_map_ordered_pruned(
                jobs,
                &points,
                |p| p.to_string(),
                |_, p| {
                    if *p == 11 {
                        PointOutcome::Prune(p * 2)
                    } else {
                        PointOutcome::Continue(p * 2)
                    }
                },
                |_, _| {},
            )
            .unwrap();
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn panic_below_the_first_prune_fails_the_pruned_sweep() {
        let points: Vec<usize> = (0..20).collect();
        for jobs in [1, 4] {
            let err = try_map_ordered_pruned(
                jobs,
                &points,
                |p| format!("pt-{p}"),
                |_, p| {
                    if *p == 5 {
                        panic!("kaboom");
                    }
                    if *p == 9 {
                        PointOutcome::Prune(*p)
                    } else {
                        PointOutcome::Continue(*p)
                    }
                },
                |_, _| {},
            )
            .unwrap_err();
            assert_eq!(err.index, 5, "jobs={jobs}");
        }
    }

    #[test]
    fn panic_beyond_the_first_prune_is_dropped_overcomputation() {
        // At jobs=1 point 3 prunes before point 7 ever starts, so a
        // panic at 7 must not surface at any pool size.
        let points: Vec<usize> = (0..8).collect();
        for jobs in [1, 4, 8] {
            let out = try_map_ordered_pruned(
                jobs,
                &points,
                |p| p.to_string(),
                |_, p| {
                    if *p == 3 {
                        return PointOutcome::Prune(*p);
                    }
                    if *p == 7 {
                        // Give the pruner time to win the race so the
                        // jobs=8 ordering matches jobs=1 semantics.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        panic!("late kaboom");
                    }
                    PointOutcome::Continue(*p)
                },
                |_, _| {},
            );
            let out = out.unwrap_or_else(|e| panic!("jobs={jobs}: {e}"));
            assert_eq!(out[3], Some(3), "jobs={jobs}");
            assert!(out[4..].iter().all(Option::is_none), "jobs={jobs}");
        }
    }

    #[test]
    fn pruned_map_without_prunes_matches_plain_map() {
        let points: Vec<usize> = (0..10).collect();
        let out = try_map_ordered_pruned(
            3,
            &points,
            |p| p.to_string(),
            |_, p| PointOutcome::Continue(p + 100),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(out, points.iter().map(|p| Some(p + 100)).collect::<Vec<_>>());
    }

    #[test]
    fn progress_counts_every_point_once() {
        let seen = AtomicUsize::new(0);
        let points: Vec<u32> = (0..17).collect();
        let out = try_map_ordered(
            4,
            &points,
            |p| p.to_string(),
            |_, p| *p,
            |completed, _| {
                seen.fetch_max(completed, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert_eq!(out.len(), 17);
        assert_eq!(seen.load(Ordering::Relaxed), 17);
    }
}
