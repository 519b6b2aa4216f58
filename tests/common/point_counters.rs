//! Every bit-reproducible counter one finished run reports, in the order
//! `tests/golden/sim_counters.json` keys them: what the golden sums per
//! workload (`tests/sim_counters.rs`) and what a boot that compiled its
//! program must share with one that did not (`tests/compile_once.rs`).

use htm_gil::core::Category;
use htm_gil::{Executor, RunReport};

/// The cycle ledger: every cycle on a thread's clock is booked to exactly
/// one Fig. 8 category — the check that holds where `debug_assert`s are
/// compiled out.
pub fn assert_ledger_balances(ex: &Executor, r: &RunReport) {
    let busy: u64 = (0..ex.sched.len()).map(|t| ex.sched.busy(t)).sum();
    assert_eq!(r.breakdown.total(), busy, "booked cycles vs busy cycles: {:?}", r.breakdown);
}

pub fn point_counters(ex: &Executor, r: &RunReport) -> Vec<(&'static str, u64)> {
    assert_ledger_balances(ex, r);
    let mut out = vec![
        ("elapsed_cycles", r.elapsed_cycles),
        ("committed_insns", r.committed_insns),
        ("wasted_insns", r.wasted_insns),
        ("gil_acquisitions", r.gil_acquisitions),
        ("length_adjustments", r.length_adjustments),
        ("allocations", r.allocations),
        ("gc_runs", r.gc_runs),
        ("reads", r.htm.reads),
        ("writes", r.htm.writes),
        ("begins", r.htm.begins),
        ("commits", r.htm.commits),
        ("nontx_dooms", r.htm.nontx_dooms),
        ("epoch_bumps", r.htm.epoch_bumps),
    ];
    out.extend(r.htm.abort_breakdown());
    // Where the simulated cycles went (Fig. 8): the category a charge lands
    // in, which `elapsed_cycles` alone cannot see.
    out.extend(Category::TABLE.map(|(c, key, _)| (key, r.breakdown[c])));
    // Host work, not simulated state: how the run was carved into
    // scheduler picks and bursts (burst length = bytecodes / bursts).
    let host = [
        "full_picks",
        "run_ahead_picks",
        "bursts",
        "burst_bytecodes",
        "lookahead_steps",
        "rewinds",
    ];
    out.extend(host.into_iter().zip(ex.host_counters()));
    // Undo records written (one a word a transaction writes, give or take
    // a mask reset), lease validations vs slow-path entries, directory
    // entries consulted and, where tasks are served, their p99.
    out.push(("undo_pushes", ex.vm.mem.undo_pushes()));
    out.push(("lease_hits", r.htm.lease_hits));
    out.push(("lease_misses", r.htm.lease_misses));
    out.push(("dir_probes", ex.vm.mem.dir_probes()));
    out.push(("task_p99_cycles", r.task_latency.as_ref().map_or(0, |t| t.e2e.p99)));
    out
}
