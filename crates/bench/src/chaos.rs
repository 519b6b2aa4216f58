//! Chaos suite: fault-injection degradation sweep (library part).
//!
//! Sweeps the spurious-abort injection rate from 0 % to 100 % over the
//! While/Iterator micro-benchmarks, the NPB CG kernel and the WEBrick
//! server model, running each point under HTM-dynamic with the livelock
//! watchdog armed. Every run is differentially checked against the plain
//! GIL oracle (identical stdout + identical final global-heap digest) —
//! any divergence is a bug and aborts the sweep. A second, smaller sweep
//! arms the §5.6 timer-interrupt model at decreasing intervals.
//!
//! All points are independent `(workload, rate | interrupt-interval)`
//! configurations, so the whole sweep fans out through
//! [`crate::runner::sweep`]; per-point console lines and the emitted
//! JSON document are assembled from the ordered results, making
//! `chaos_degradation.json` byte-identical at any pool size —
//! `tests/artifacts.rs` asserts exactly that on the quick slice.
//!
//! The headline property — enforced numerically by `tests/chaos_suite.rs`
//! — is graceful degradation: as the rate approaches 100 %, throughput
//! converges toward the GIL baseline instead of collapsing, because the
//! watchdog stops paying per-attempt HTM overhead for doomed speculation.

use htm_gil_core::{oracle, ExecConfig, Json, LengthPolicy, RuntimeMode, SubscriptionPolicy};
use htm_sim::FaultPlan;
use machine_sim::MachineProfile;
use workloads::Workload;

use crate::figures::{say, Opts, Output};
use crate::{runner, throughput_of, vm_config_for};

/// Fixed injection seed: the whole suite is deterministic.
pub const SEED: u64 = 0x0DA1_2A09;

fn chaos_workloads(q: bool) -> Vec<Workload> {
    let threads = 4;
    let iters = if q { 150 } else { 1_000 };
    vec![
        workloads::micro::while_bench(threads, iters),
        workloads::micro::iterator_bench(threads, iters),
        workloads::npb::cg(threads, if q { 1 } else { 2 }),
        workloads::webrick::webrick(threads, if q { 8 } else { 40 }),
        chaos_taskserver(q),
    ]
}

/// The taskserver chaos subject: backpressure (no shedding), so stdout
/// and the final heap digest are mode-independent and the GIL
/// differential check applies. Shed points are excluded on purpose —
/// *which* tasks are shed is timing-dependent, so a shed run has no GIL
/// oracle.
fn chaos_taskserver(q: bool) -> Workload {
    workloads::taskserver::taskserver(3, 2, 4, if q { 24 } else { 240 }, false)
}

fn rates(q: bool) -> Vec<f64> {
    if q {
        vec![0.0, 0.25, 1.0]
    } else {
        vec![0.0, 0.05, 0.10, 0.25, 0.50, 0.75, 1.0]
    }
}

/// Interrupt intervals of the §5.6 pressure sweep (simulated cycles).
const INTERRUPT_INTERVALS: [u64; 3] = [200_000, 50_000, 10_000];

fn subject_cfg(profile: &MachineProfile, rate: f64, interrupt_interval: u64) -> ExecConfig {
    let mut cfg = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Dynamic }, profile);
    if rate > 0.0 {
        cfg.fault_plan = Some(FaultPlan::spurious(SEED, rate));
    }
    cfg.interrupt_interval = interrupt_interval;
    cfg.watchdog = true;
    cfg
}

/// Run one chaos point and oracle-check it; panics on divergence.
fn run_point(w: &Workload, profile: &MachineProfile, cfg: ExecConfig) -> (Json, f64) {
    let label = cfg.mode.label();
    let v = oracle::check_against_gil(&w.source, vm_config_for(w.threads), profile.clone(), cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    if let Some(m) = &v.mismatch {
        panic!("{} diverged from the GIL oracle under injection ({label}):\n{m}", w.name);
    }
    let rel = throughput_of(w, &v.subject) / throughput_of(w, &v.oracle);
    let point = Json::obj()
        .field("throughput", throughput_of(w, &v.subject))
        .field("relative_to_gil", rel)
        .field("spurious_aborts", v.subject.htm.spurious)
        .field("total_aborts", v.subject.htm.total_aborts())
        .field("watchdog_escalations", v.subject.watchdog_escalations)
        .field("gil_acquisitions", v.subject.gil_acquisitions)
        .field("capacity_aborts", v.subject.htm.overflow_read + v.subject.htm.overflow_write)
        .field("oracle_match", true);
    (point, rel)
}

/// Injection rates of the two design-space axes (subscription policy and
/// the constrained machine) — a smaller slice than the main sweep.
fn axis_rates(q: bool) -> Vec<f64> {
    if q {
        vec![0.0, 0.25]
    } else {
        vec![0.0, 0.25, 1.0]
    }
}

/// The safe subscription policies of the chaos axis, in column order.
const POLICIES: [SubscriptionPolicy; 2] =
    [SubscriptionPolicy::Eager, SubscriptionPolicy::LazyGuarded];

/// One enumerated sweep point: an injection-rate point of a workload, an
/// interrupt-pressure point (always on the While micro-benchmark), or
/// the combined taskserver point (injection *and* timer interrupts at
/// once — the worst-case chaos the latency pipeline must survive).
enum Point {
    Inject {
        workload: usize,
        rate: f64,
    },
    Interrupt {
        interval: u64,
    },
    TaskserverCombined,
    /// GIL-subscription policy axis (DESIGN.md §15) under injection,
    /// always on the While micro-benchmark. Only the two *safe* policies
    /// appear: plain `Lazy` diverges from the GIL oracle by design (the
    /// schedule explorer pins its counterexample), so a chaos point for
    /// it would be a tautological failure.
    Subscription {
        policy: SubscriptionPolicy,
        rate: f64,
    },
    /// Constrained-HTM machine axis: the FORTH-style 8-read/4-write-line
    /// geometry, where real capacity aborts stack on top of injection.
    Constrained {
        rate: f64,
    },
}

/// Fixed configuration of the combined taskserver point.
pub const TASKSERVER_COMBINED_RATE: f64 = 0.25;
/// Interrupt interval of the combined taskserver point (simulated cycles).
pub const TASKSERVER_COMBINED_INTERVAL: u64 = 50_000;

/// The `chaos` row: the full chaos sweep (injection rates × workloads,
/// then the interrupt-pressure sweep) as per-workload tables and the
/// `chaos_degradation.json` document.
pub fn run(o: &Opts) -> Output {
    let q = o.quick;
    let profile = MachineProfile::generic(4);
    let workloads = chaos_workloads(q);
    let rates = rates(q);
    let interrupt_workload = workloads::micro::while_bench(4, if q { 150 } else { 1_000 });

    let mut points: Vec<Point> = Vec::new();
    for wi in 0..workloads.len() {
        for &rate in &rates {
            points.push(Point::Inject { workload: wi, rate });
        }
    }
    for interval in INTERRUPT_INTERVALS {
        points.push(Point::Interrupt { interval });
    }
    points.push(Point::TaskserverCombined);
    let axis_rates = axis_rates(q);
    for policy in POLICIES {
        for &rate in &axis_rates {
            points.push(Point::Subscription { policy, rate });
        }
    }
    for &rate in &axis_rates {
        points.push(Point::Constrained { rate });
    }

    let constrained_profile = MachineProfile::constrained();
    let taskserver_workload = chaos_taskserver(q);
    let results = runner::sweep(
        o.jobs,
        "chaos",
        &points,
        |p| match p {
            Point::Inject { workload, rate } => {
                format!("{} rate={:.0}%", workloads[*workload].name, rate * 100.0)
            }
            Point::Interrupt { interval } => format!("interrupt interval={interval}"),
            Point::TaskserverCombined => "TaskServer inject+interrupt".to_string(),
            Point::Subscription { policy, rate } => {
                format!("sub={} rate={:.0}%", policy.label(), rate * 100.0)
            }
            Point::Constrained { rate } => format!("constrained rate={:.0}%", rate * 100.0),
        },
        |p| match p {
            Point::Inject { workload, rate } => {
                let w = &workloads[*workload];
                run_point(w, &profile, subject_cfg(&profile, *rate, 0))
            }
            Point::Interrupt { interval } => {
                run_point(&interrupt_workload, &profile, subject_cfg(&profile, 0.0, *interval))
            }
            Point::TaskserverCombined => run_point(
                &taskserver_workload,
                &profile,
                subject_cfg(&profile, TASKSERVER_COMBINED_RATE, TASKSERVER_COMBINED_INTERVAL),
            ),
            Point::Subscription { policy, rate } => {
                let mut cfg = subject_cfg(&profile, *rate, 0);
                cfg.subscription = *policy;
                run_point(&interrupt_workload, &profile, cfg)
            }
            Point::Constrained { rate } => {
                let cfg = subject_cfg(&constrained_profile, *rate, 0);
                run_point(&interrupt_workload, &constrained_profile, cfg)
            }
        },
    );

    // Assemble tables and the JSON document from the ordered results.
    let mut out = Output::default();
    let mut results = results.into_iter();
    let mut workload_reports = Vec::new();
    for w in &workloads {
        say!(out, "== chaos: {} ({} threads) ==", w.name, w.threads);
        say!(out, "  {:>6}  {:>8}  {:>10}  {:>9}", "rate", "rel-GIL", "spurious", "watchdog");
        let mut rate_points = Vec::new();
        for &rate in &rates {
            let (point, rel) = results.next().expect("one result per point");
            say!(
                out,
                "  {:>5.0}%  {:>8.2}  {:>10}  {:>9}",
                rate * 100.0,
                rel,
                point.get("spurious_aborts").and_then(Json::as_u64).unwrap_or(0),
                point.get("watchdog_escalations").and_then(Json::as_u64).unwrap_or(0),
            );
            rate_points.push(point.field("rate", rate));
        }
        workload_reports.push(
            Json::obj()
                .field("name", w.name)
                .field("threads", w.threads)
                .field("points", rate_points),
        );
    }
    // §5.6 interrupt-pressure sweep: shorter intervals kill more
    // in-flight transactions; output must stay oracle-identical.
    let mut interrupt_points = Vec::new();
    say!(out, "== chaos: interrupt pressure ({}) ==", interrupt_workload.name);
    for interval in INTERRUPT_INTERVALS {
        let (point, rel) = results.next().expect("one result per interrupt point");
        say!(out, "  interval {interval:>7}: rel-GIL {rel:.2}");
        interrupt_points.push(point.field("interrupt_interval", interval));
    }
    // Combined taskserver point: fault injection and timer interrupts at
    // once, differentially checked like everything else — the lifecycle
    // marks' escrow must keep the latency pipeline consistent while
    // transactions are being killed from two directions.
    let (combined, rel) = results.next().expect("the combined taskserver point");
    say!(out, "== chaos: {} inject+interrupt: rel-GIL {rel:.2} ==", taskserver_workload.name);
    let combined = combined
        .field("rate", TASKSERVER_COMBINED_RATE)
        .field("interrupt_interval", TASKSERVER_COMBINED_INTERVAL);
    // Subscription-policy axis: the two safe policies must degrade the
    // same way (LazyGuarded is observably eager — DESIGN.md §15).
    let mut subscription_points = Vec::new();
    say!(out, "== chaos: subscription axis ({}) ==", interrupt_workload.name);
    for policy in POLICIES {
        for &rate in &axis_rates {
            let (point, rel) = results.next().expect("one result per subscription point");
            say!(out, "  sub={:<12} rate {:>3.0}%: rel-GIL {rel:.2}", policy.label(), rate * 100.0);
            subscription_points.push(point.field("policy", policy.label()).field("rate", rate));
        }
    }
    // Constrained-machine axis: real capacity aborts stacked on
    // injection; the oracle check inside `run_point` already guarantees
    // every point matched the GIL on the same tiny geometry.
    let mut constrained_points = Vec::new();
    say!(out, "== chaos: constrained profile ({}) ==", interrupt_workload.name);
    for &rate in &axis_rates {
        let (point, rel) = results.next().expect("one result per constrained point");
        let caps = point.get("capacity_aborts").and_then(Json::as_u64).unwrap_or(0);
        say!(out, "  rate {:>3.0}%: rel-GIL {rel:.2} capacity-aborts {caps}", rate * 100.0);
        constrained_points.push(point.field("rate", rate));
    }
    let report = Json::obj()
        .field("suite", "chaos")
        .field("machine", profile.name)
        .field("seed", SEED)
        .field("quick", q)
        .field("mode", "HTM-dynamic")
        .field("workloads", workload_reports)
        .field("interrupt_pressure", interrupt_points)
        .field("taskserver_combined", combined)
        .field("subscription_axis", subscription_points)
        .field(
            "constrained_profile",
            Json::obj()
                .field("machine", constrained_profile.name)
                .field("points", constrained_points),
        );
    out.artifacts.push(("chaos_degradation.json".into(), report.to_pretty()));
    out
}
