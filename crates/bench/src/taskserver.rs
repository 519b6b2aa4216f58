//! Task-server latency sweep (library part).
//!
//! Sweeps the [`workloads::taskserver`] scenario over client count ×
//! queue configuration × runtime mode on the zEC12 profile and reports
//! the latency percentiles the scenario exists to measure: end-to-end
//! (enqueue → complete) and queue-wait (enqueue → dequeue) p50/p90/p99/
//! p999 in simulated cycles, plus the queue-depth/shed time series.
//!
//! The full sweep pushes ≥1M simulated requests through every point —
//! percentile tails mean nothing at micro-benchmark scale — so it is the
//! most expensive row of the registry (tens of minutes serial; use
//! `--jobs`), and the one whose full-size document is not committed.
//! `--quick` shrinks it to a smoke slice that also covers the shedding
//! policy.
//!
//! All points are independent, so the sweep fans out through
//! [`crate::runner::sweep`]; the document is assembled from the ordered
//! results and contains no wall-clock values, making
//! `taskserver_latency.json` byte-identical at any pool size —
//! `tests/artifacts.rs` asserts that on the quick slice.

use htm_gil_core::{Json, LengthPolicy, RuntimeMode};
use machine_sim::MachineProfile;
use workloads::taskserver::{expected_stdout, taskserver};

use crate::figures::{say, Opts, Output};
use crate::{run_workload, runner, throughput_of};

/// The runtime modes of the paper's server evaluation: the GIL baseline,
/// static TLE at the paper's fixed length, and the adaptive policy.
pub const MODES: [RuntimeMode; 3] = [
    RuntimeMode::Gil,
    RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
    RuntimeMode::Htm { length: LengthPolicy::Dynamic },
];

/// Client-count axis. Workers are provisioned at half the client count
/// (a client submits, waits on its connection, and submits again, so a
/// 2:1 ratio keeps both sides busy without starving either).
fn client_counts(q: bool) -> Vec<usize> {
    if q {
        vec![2, 4]
    } else {
        vec![4, 8, 12]
    }
}

/// Queue-bound axis: `(qbound, shed)`. The full sweep contrasts a tight
/// bound (heavy backpressure) with a loose one; the quick slice swaps
/// the loose point for a tiny shedding queue so the drop path stays
/// exercised in CI.
fn queue_configs(q: bool) -> Vec<(usize, bool)> {
    if q {
        vec![(2, true), (8, false)]
    } else {
        vec![(64, false), (512, false)]
    }
}

/// Tasks per point: ≥1M simulated requests in the full sweep, divisible
/// by every client count on the axis.
fn tasks_per_point(q: bool) -> usize {
    if q {
        504
    } else {
        1_008_000
    }
}

/// One sweep point.
struct Point {
    clients: usize,
    workers: usize,
    qbound: usize,
    shed: bool,
    mode: RuntimeMode,
}

/// The sweep's points: clients × queue configuration × mode.
fn points(q: bool) -> Vec<Point> {
    let mut points = Vec::new();
    for &clients in &client_counts(q) {
        for &(qbound, shed) in &queue_configs(q) {
            for mode in MODES {
                points.push(Point { clients, workers: (clients / 2).max(1), qbound, shed, mode });
            }
        }
    }
    points
}

fn point_label(p: &Point) -> String {
    let policy = if p.shed { "shed" } else { "block" };
    format!("c{} q{}/{policy} {}", p.clients, p.qbound, p.mode.label())
}

/// Run one point and fold its report into the artifact record. Non-shed
/// points are checked against the mode-independent expected output — a
/// lost or duplicated task fails the sweep, not just a test.
fn run_point(p: &Point, tasks: usize) -> Json {
    let profile = MachineProfile::zec12();
    let w = taskserver(p.clients, p.workers, p.qbound, tasks, p.shed);
    let r = run_workload(&w, p.mode, &profile);
    if !p.shed {
        assert_eq!(
            r.stdout,
            expected_stdout(tasks),
            "{}: task checksum diverged (lost or duplicated work)",
            point_label(p)
        );
    }
    let tl = r.task_latency.as_ref().expect("taskserver must report task latency");
    Json::obj()
        .field("clients", p.clients)
        .field("workers", p.workers)
        .field("qbound", p.qbound)
        .field("shed", p.shed)
        .field("mode", p.mode.label())
        .field("tasks", tasks as u64)
        .field("elapsed_cycles", r.elapsed_cycles)
        .field("throughput", throughput_of(&w, &r))
        .field("total_aborts", r.htm.total_aborts())
        .field("gil_acquisitions", r.gil_acquisitions)
        .field("task_latency", tl.to_json())
}

fn percentile(point: &Json, hist: &str, p: &str) -> u64 {
    point
        .get("task_latency")
        .and_then(|tl| tl.get(hist))
        .and_then(|h| h.get(p))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The `taskserver` row: the whole sweep as a per-point percentile table
/// and the `taskserver_latency.json` document.
pub fn run(o: &Opts) -> Output {
    let q = o.quick;
    let tasks = tasks_per_point(q);
    let points = points(q);

    let results =
        runner::sweep(o.jobs, "taskserver", &points, point_label, |p| run_point(p, tasks));

    let mut out = Output::default();
    say!(out, "== taskserver: latency percentiles ({tasks} tasks/point, cycles) ==");
    say!(
        out,
        "  {:<24} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "point",
        "e2e p50",
        "e2e p99",
        "queue p50",
        "queue p99",
        "shed"
    );
    for (p, rec) in points.iter().zip(&results) {
        say!(
            out,
            "  {:<24} {:>12} {:>12} {:>12} {:>12} {:>8}",
            point_label(p),
            percentile(rec, "e2e", "p50"),
            percentile(rec, "e2e", "p99"),
            percentile(rec, "queue_wait", "p50"),
            percentile(rec, "queue_wait", "p99"),
            rec.get("task_latency")
                .and_then(|tl| tl.get("shed"))
                .and_then(Json::as_u64)
                .unwrap_or(0),
        );
    }

    let report = Json::obj()
        .field("schema", "htm-gil-taskserver-latency/v1")
        .field("machine", MachineProfile::zec12().name)
        .field("quick", q)
        .field("tasks_per_point", tasks as u64)
        .field("points", results);
    out.artifacts.push(("taskserver_latency.json".into(), report.to_pretty()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_axis_task_counts_divide() {
        for q in [false, true] {
            let tasks = tasks_per_point(q);
            assert!(q || tasks >= 1_000_000, "full sweep must push >=1M requests per point");
            for c in client_counts(q) {
                assert_eq!(tasks % c, 0, "{tasks} tasks must divide among {c} clients");
            }
        }
    }

    #[test]
    fn point_labels_are_unique() {
        let mut labels: Vec<String> = points(true).iter().map(point_label).collect();
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n, "duplicate sweep labels");
    }
}
