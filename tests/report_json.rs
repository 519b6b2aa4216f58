//! Integration checks on the machine-readable run report (§5.6 shape).
//!
//! The paper's abort investigation (§5.6) found that on the NPB, most
//! transaction conflicts are read-set conflicts and the largest single
//! conflict source is object allocation (free-list head + heap/malloc
//! metadata). These tests re-derive that shape from the emitted JSON
//! document alone — exactly what an external consumer of
//! `--report-json` would see.

use htm_gil_core::{ExecConfig, Executor, Json, LengthPolicy, RunReport, RuntimeMode};
use machine_sim::MachineProfile;
use ruby_vm::VmConfig;

fn run(w: &workloads::Workload, mode: RuntimeMode) -> RunReport {
    let profile = MachineProfile::zec12();
    let cfg = ExecConfig::new(mode, &profile);
    let vm = VmConfig { max_threads: w.threads + 2, ..VmConfig::default() };
    let mut ex = Executor::new(&w.source, vm, profile, cfg).expect("boot");
    ex.run().expect("run")
}

fn npb_report_json(threads: usize) -> Json {
    let w = workloads::npb::cg(threads, 1);
    let report = run(&w, RuntimeMode::Htm { length: LengthPolicy::Dynamic });
    let json = report.to_json();
    // Round-trip through text so the assertions only use what a consumer
    // of the file would have.
    Json::parse(&json.to_pretty()).expect("self-emitted JSON must parse")
}

fn abort_count(doc: &Json, reason: &str) -> u64 {
    doc.get("htm")
        .and_then(|h| h.get("aborts"))
        .and_then(|a| a.get(reason))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

#[test]
fn npb_report_reproduces_section_5_6_shape() {
    let doc = npb_report_json(12);

    // Read-set conflicts dominate write-set conflicts (§5.6: "more than
    // 80% of the conflicts were detected at the read sets").
    let read = abort_count(&doc, "conflict-read");
    let write = abort_count(&doc, "conflict-write");
    assert!(read > 0, "expected conflict aborts on the NPB at 12 threads");
    assert!(
        read > write,
        "read-set conflicts ({read}) should dominate write-set conflicts ({write})"
    );

    // Allocation is the largest single conflict source (§5.6: "more than
    // half of the conflicts occurred during object allocation").
    // Allocation in the attribution map = free-list head (`allocator`)
    // plus the heap-slot pages and malloc metadata it hands out. Dooms on
    // the GIL word itself are excluded: those are the fallback mechanism
    // (a thread acquiring the GIL aborts every subscriber), not a data
    // conflict on a VM structure, and the paper's retry logic (Fig. 1)
    // likewise separates "GIL held" aborts from true conflicts.
    let sites = doc.get("conflict_sites").expect("conflict_sites object");
    let site = |k: &str| sites.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let alloc = site("allocator") + site("heap-slots") + site("malloc-area");
    let others = [
        ("running-thread", site("running-thread")),
        ("globals", site("globals")),
        ("inline-cache", site("inline-cache")),
        ("thread-struct", site("thread-struct")),
        ("stack", site("stack")),
    ];
    let (max_other_name, max_other) = others.iter().max_by_key(|(_, n)| *n).copied().unwrap();
    assert!(
        alloc > max_other,
        "allocation-path conflicts ({alloc}) should be the largest single \
         source, but {max_other_name} has {max_other}"
    );
    let total: u64 = alloc + others.iter().map(|(_, n)| n).sum::<u64>();
    assert!(
        alloc * 2 >= total,
        "allocation should account for at least half of attributed \
         conflicts ({alloc} of {total})"
    );
}

#[test]
fn report_json_totals_are_consistent() {
    let doc = npb_report_json(4);

    // Abort reasons sum to the advertised total.
    let reasons = [
        "conflict-read",
        "conflict-write",
        "overflow-read",
        "overflow-write",
        "explicit",
        "eager-predicted",
        "restricted",
    ];
    let sum: u64 = reasons.iter().map(|r| abort_count(&doc, r)).sum();
    assert_eq!(sum, abort_count(&doc, "total"));

    // begins = commits + aborts for the HTM engine.
    let htm = doc.get("htm").unwrap();
    let n = |k: &str| htm.get(k).and_then(|v| v.as_u64()).unwrap();
    assert_eq!(n("begins"), n("commits") + abort_count(&doc, "total"));

    // Every yield-point profile's per-reason counts sum to its total.
    for p in doc.get("yield_point_profiles").unwrap().as_array().unwrap() {
        let per: u64 = reasons
            .iter()
            .map(|r| p.get("aborts").unwrap().get(r).unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(Some(per), p.get("total_aborts").unwrap().as_u64());
        assert!(p.get("length").unwrap().as_u64().unwrap() >= 1);
    }

    // A non-server workload must not emit the task_latency section: its
    // document keeps the exact pre-taskserver schema.
    assert!(doc.get("task_latency").is_none(), "NPB report must not carry task_latency");
}

#[test]
fn report_json_exposes_lease_accounting() {
    let doc = npb_report_json(4);
    let htm = doc.get("htm").unwrap();
    let n = |k: &str| {
        htm.get(k).and_then(|v| v.as_u64()).unwrap_or_else(|| panic!("htm.{k} must be present"))
    };

    // The interpreter hot path runs leased in the default config, so a
    // real workload must record both grants and (hit) traffic, and every
    // transaction boundary bumps the epoch at least once.
    assert!(n("lease_misses") > 0, "try_lease is always counted, even when denied");
    assert!(n("lease_hits") > 0, "NPB under leases must serve some accesses from leases");
    assert!(
        n("epoch_bumps") >= n("begins"),
        "every begin/commit/abort/doom bumps the global lease epoch"
    );

    // Batched deltas are flushed before the report is emitted: the
    // mem_reads/mem_writes totals already contain the leased accesses, so
    // they bound the hit count.
    assert!(n("lease_hits") <= n("mem_reads") + n("mem_writes"));
}

#[test]
fn taskserver_latency_section_round_trips() {
    // Run the task server, emit the report as text, parse it back, and
    // check the latency section the way a dashboard consuming
    // `--report-json` would: field presence, percentile ordering, and
    // agreement between the counters and the histograms.
    let tasks = 48;
    let w = workloads::taskserver::taskserver(3, 2, 4, tasks, false);
    let report = run(&w, RuntimeMode::Htm { length: LengthPolicy::Dynamic });
    let doc = Json::parse(&report.to_json().to_pretty()).expect("self-emitted JSON must parse");

    let tl = doc.get("task_latency").expect("taskserver report must carry task_latency");
    let n = |k: &str| tl.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("field {k}"));
    assert_eq!(n("enqueued"), tasks as u64);
    assert_eq!(n("completed"), tasks as u64);
    assert_eq!(n("shed"), 0);

    for hist in ["e2e", "queue_wait"] {
        let h = tl.get(hist).unwrap_or_else(|| panic!("{hist} histogram"));
        let v =
            |k: &str| h.get(k).and_then(Json::as_u64).unwrap_or_else(|| panic!("{hist}.{k} field"));
        assert_eq!(v("count"), tasks as u64, "{hist} must have one sample per task");
        assert!(v("min") <= v("p50"), "{hist}: min <= p50");
        assert!(v("p50") <= v("p90"), "{hist}: p50 <= p90");
        assert!(v("p90") <= v("p99"), "{hist}: p90 <= p99");
        assert!(v("p99") <= v("p999"), "{hist}: p99 <= p999");
        assert!(v("p999") <= v("max"), "{hist}: p999 <= max");
        assert!(h.get("mean").and_then(Json::as_f64).expect("mean") > 0.0);
    }

    // Queue-depth time series: windows are ordered, the depth respects
    // the configured bound, and at least one window saw a queued task.
    assert!(tl.get("window_cycles").and_then(Json::as_u64).expect("window_cycles") > 0);
    let series = tl.get("queue_series").and_then(Json::as_array).expect("queue_series");
    assert!(!series.is_empty(), "queue series must not be empty");
    let mut last_start = None;
    let mut max_depth = 0;
    for wnd in series {
        let start = wnd.get("start_cycle").and_then(Json::as_u64).expect("start_cycle");
        if let Some(prev) = last_start {
            assert!(start > prev, "windows must be strictly ordered");
        }
        last_start = Some(start);
        max_depth = max_depth.max(wnd.get("max_depth").and_then(Json::as_u64).expect("max_depth"));
        wnd.get("sheds").and_then(Json::as_u64).expect("sheds");
    }
    assert!(max_depth >= 1, "some window must have seen a queued task");
    assert!(max_depth <= 4, "queue depth may never exceed the bound");
}

#[test]
fn bench_report_is_named_after_the_experiment() {
    // One `figures` binary writes every `--report-json` document, so the
    // `binary` field names the registry row that ran, not argv[0].
    let fig = bench::figures::find("intext").expect("a registry row");
    let opts = bench::figures::Opts { quick: true, jobs: 2 };
    let (_, doc) = bench::reporting::collect(fig.name, || (fig.run)(&opts));
    let doc = Json::parse(&doc.to_pretty()).expect("self-emitted JSON must parse");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("htm-gil-bench-report/v1"));
    assert_eq!(doc.get("binary").and_then(Json::as_str), Some("intext"));
    // 7 kernels × (1-thread and max-thread) × (GIL and HTM-dynamic).
    assert_eq!(doc.get("run_count").and_then(Json::as_u64), Some(28));
    assert_eq!(doc.get("runs").and_then(Json::as_array).map(<[Json]>::len), Some(28));
}
