//! Opt-in machine-readable run reports (`figures … --report-json PATH`).
//!
//! [`collect`] runs a closure and returns, beside its result, one JSON
//! document (schema `htm-gil-bench-report/v1`) holding every
//! [`RunReport`] the harness produced meanwhile, with the per-run abort
//! breakdowns by reason and by attributed VM structure. The collection
//! belongs to the calling thread: outside a [`collect`], [`record`] is a
//! no-op, so the tables and artifacts are unchanged, and two collections
//! on two threads never see each other's runs.

use std::cell::RefCell;

use htm_gil_core::{Json, RunReport};

thread_local! {
    /// The buffer [`record`] appends to on this thread: the collection
    /// of a [`collect`], or — around a pool worker's point — the point's
    /// own buffer, which the runner replays in submission order, the
    /// order a serial run would have produced.
    static CAPTURE: RefCell<Option<Vec<Json>>> = const { RefCell::new(None) };
}

/// Run `f` and return its result with the report document of every run
/// it made. `experiment` becomes the document's `binary` field: the
/// registry name of what ran, so two documents can be told apart.
pub fn collect<R>(experiment: &str, f: impl FnOnce() -> R) -> (R, Json) {
    let (r, runs) = capture(f);
    let doc = Json::obj()
        .field("schema", "htm-gil-bench-report/v1")
        .field("binary", experiment)
        .field("run_count", runs.len() as u64)
        .field("runs", Json::Arr(runs));
    (r, doc)
}

/// True when this thread is inside a [`collect`] (or a [`capture`]).
pub(crate) fn collecting() -> bool {
    CAPTURE.with(|c| c.borrow().is_some())
}

/// Capture one run; the harness calls this for every completed workload
/// run. A no-op unless the thread is collecting.
pub fn record(workload: &str, report: &RunReport) {
    CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.push(Json::obj().field("workload", workload).field("report", report.to_json()));
        }
    });
}

/// Run `f` with [`record`] calls diverted into a fresh buffer, and return
/// the result together with the captured entries. The thread's previous
/// buffer comes back afterwards — also if `f` panics, so a reused pool
/// worker never leaks a failed point's records into the next point, and
/// a point run inline (pool size 1) never loses its caller's collection.
pub(crate) fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Json>) {
    struct Restore(Option<Vec<Json>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAPTURE.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let restore = Restore(CAPTURE.with(|c| c.borrow_mut().replace(Vec::new())));
    let r = f();
    let buf = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
    drop(restore);
    (r, buf)
}

/// Append entries captured by [`capture`] to this thread's collection,
/// preserving the caller's (submission) order.
pub(crate) fn replay(entries: Vec<Json>) {
    CAPTURE.with(|c| {
        if let Some(buf) = c.borrow_mut().as_mut() {
            buf.extend(entries);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use htm_gil_core::RuntimeMode;
    use machine_sim::MachineProfile;

    #[test]
    fn collect_returns_the_runs_made_inside_it() {
        let w = workloads::micro::while_bench(2, 40);
        let profile = MachineProfile::generic(4);
        // run_workload records into the collection by itself.
        let (_, doc) = collect("unit-test", || crate::run_workload(&w, RuntimeMode::Gil, &profile));
        assert!(!collecting());
        let doc = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("htm-gil-bench-report/v1"));
        assert_eq!(doc.get("binary").unwrap().as_str(), Some("unit-test"));
        let runs = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(doc.get("run_count").unwrap().as_u64(), Some(1));
        let first = &runs[0];
        assert_eq!(first.get("workload").unwrap().as_str(), Some(w.name));
        let report = first.get("report").unwrap();
        assert_eq!(report.get("schema").unwrap().as_str(), Some("htm-gil-run-report/v1"));
        assert_eq!(report.get("mode").unwrap().as_str(), Some("GIL"));
    }

    #[test]
    fn sweeps_report_in_submission_order_at_any_pool_size() {
        let profile = MachineProfile::generic(4);
        let iters: Vec<usize> = vec![40, 10, 30, 20];
        let docs: Vec<String> = [1, 4]
            .into_iter()
            .map(|jobs| {
                let run = |&n: &usize| {
                    crate::run_workload(
                        &workloads::micro::while_bench(2, n),
                        RuntimeMode::Gil,
                        &profile,
                    )
                    .elapsed_cycles
                };
                collect("t", || crate::runner::sweep(jobs, "t", &iters, |n| n.to_string(), run))
                    .1
                    .to_pretty()
            })
            .collect();
        assert_eq!(docs[0], docs[1]);
        assert_eq!(Json::parse(&docs[0]).unwrap().get("run_count").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn record_outside_a_collection_is_a_noop() {
        let w = workloads::micro::while_bench(1, 10);
        let profile = MachineProfile::generic(2);
        let r = crate::run_workload(&w, RuntimeMode::Gil, &profile);
        record("nobody-listens", &r);
        assert!(!collecting());
    }
}
