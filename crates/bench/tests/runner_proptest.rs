//! Property tests for the sweep runner's ordering contract.
//!
//! For random point lists, pool sizes and per-point durations,
//! [`bench::runner::try_sweep`] must return exactly one result
//! per point, in submission order — no loss, no duplication, no
//! dependence on completion order. When points panic, the sweep must
//! fail with the identity (index, label, payload) of the **lowest**
//! panicking index, at any pool size: the pool hands indices out in
//! order, so every point below a failure was started and ran to its own
//! verdict.

use bench::pool::{try_map_ordered_pruned, PointOutcome};
use bench::runner::try_sweep;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    /// Results come back 1:1 and in submission order whatever the pool
    /// size and whatever each point's duration.
    #[test]
    fn ordered_complete_and_duplicate_free(
        delays_us in vec(0u64..200, 0..40),
        jobs in 1usize..9,
    ) {
        let points: Vec<(usize, u64)> =
            delays_us.iter().copied().enumerate().collect();
        let out = try_sweep(
            jobs,
            &points,
            |&(i, _)| i.to_string(),
            |&(i, d)| {
                std::thread::sleep(std::time::Duration::from_micros(d));
                i
            },
        )
        .expect("no point panics");
        let want: Vec<usize> = (0..points.len()).collect();
        prop_assert_eq!(out, want, "jobs={}", jobs);
    }

    /// A panicking point fails the sweep with the lowest panicking
    /// index's identity; panic-free sweeps succeed.
    #[test]
    fn worker_panic_surfaces_lowest_point_identity(
        fates in vec((0u8..10, 0u64..120), 1..40),
        jobs in 1usize..9,
    ) {
        // fate < 2 → the point panics (~20 % of points per case).
        let points: Vec<(usize, bool, u64)> = fates
            .iter()
            .enumerate()
            .map(|(i, &(fate, delay))| (i, fate < 2, delay))
            .collect();
        let result = try_sweep(
            jobs,
            &points,
            |&(i, _, _)| format!("point-{i}"),
            |&(i, panics, d)| {
                std::thread::sleep(std::time::Duration::from_micros(d));
                if panics {
                    panic!("injected failure at {i}");
                }
                i
            },
        );
        match points.iter().find(|&&(_, panics, _)| panics) {
            None => {
                let out = result.expect("no panicking point");
                prop_assert_eq!(out.len(), points.len());
            }
            Some(&(first, _, _)) => {
                let err = result.expect_err("a point panicked");
                prop_assert_eq!(err.index, first, "jobs={}", jobs);
                prop_assert_eq!(err.label, format!("point-{first}"));
                prop_assert!(
                    err.payload.contains(&format!("injected failure at {first}")),
                    "payload {:?} lost the panic message",
                    err.payload
                );
            }
        }
    }

    /// The pruned map truncates at the lowest-index pruning point and is
    /// pool-size invariant: whatever a bigger pool over-computes past
    /// the first prune is dropped, so the output always equals the
    /// 1-job reference — results for every index up to and including
    /// the first `Prune`, `None` after it.
    #[test]
    fn pruned_map_matches_the_serial_reference_at_any_pool_size(
        fates in vec((0u8..10, 0u64..120), 1..40),
        jobs in 2usize..9,
    ) {
        // fate < 2 → the point prunes (~20 % per case); the rest continue.
        let points: Vec<(usize, bool, u64)> = fates
            .iter()
            .enumerate()
            .map(|(i, &(fate, delay))| (i, fate < 2, delay))
            .collect();
        let run = |_: usize, &(i, prunes, d): &(usize, bool, u64)| {
            std::thread::sleep(std::time::Duration::from_micros(d));
            if prunes {
                PointOutcome::Prune(i * 10)
            } else {
                PointOutcome::Continue(i * 10)
            }
        };
        // Serial reference.
        let mut expect: Vec<Option<usize>> = Vec::new();
        for &(i, prunes, _) in &points {
            expect.push(Some(i * 10));
            if prunes {
                break;
            }
        }
        expect.resize(points.len(), None);
        let serial = try_map_ordered_pruned(
            1, &points, |&(i, _, _)| i.to_string(), run, |_, _| {},
        ).expect("no panics");
        prop_assert_eq!(&serial, &expect);
        let pooled = try_map_ordered_pruned(
            jobs, &points, |&(i, _, _)| i.to_string(), run, |_, _| {},
        ).expect("no panics");
        prop_assert_eq!(&pooled, &expect, "jobs={}", jobs);
    }

    /// Without any pruning point the pruned map degenerates to the plain
    /// ordered map: every slot filled, in submission order.
    #[test]
    fn pruned_map_without_prunes_is_complete_and_ordered(
        delays_us in vec(0u64..150, 0..30),
        jobs in 1usize..9,
    ) {
        let points: Vec<(usize, u64)> = delays_us.iter().copied().enumerate().collect();
        let out = try_map_ordered_pruned(
            jobs,
            &points,
            |&(i, _)| i.to_string(),
            |_, &(i, d)| {
                std::thread::sleep(std::time::Duration::from_micros(d));
                PointOutcome::Continue(i)
            },
            |_, _| {},
        )
        .expect("no panics");
        let want: Vec<Option<usize>> = (0..points.len()).map(Some).collect();
        prop_assert_eq!(out, want, "jobs={}", jobs);
    }
}
