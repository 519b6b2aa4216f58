//! Pool-size invariance of the two harness outputs CI selects by name:
//! the task-server latency document and the schedule explorer's stats.
//!
//! `bench::runner::sweep` and the explorer's waves promise results in
//! submission order regardless of completion order, so the bytes derived
//! from them may not depend on the pool size — any divergence means
//! results leaked between slots or were reordered. Every registry row,
//! the task server included, gets the same check from the one loop in
//! `tests/artifacts.rs`.

use bench::figures::{find, Opts};

#[test]
fn taskserver_report_is_pool_size_invariant() {
    // The latency artifact carries percentile tables and queue-depth
    // time series derived from every point's run report; none of it may
    // depend on how the sweep was scheduled onto the worker pool.
    let run = find("taskserver").expect("a registry row").run;
    let serial = run(&Opts { quick: true, jobs: 1 });
    let pooled = run(&Opts { quick: true, jobs: 4 });
    assert!(serial == pooled, "taskserver output differs between pool sizes 1 and 4");
}

#[test]
fn explore_stats_are_pool_size_invariant() {
    // The exploration stats document deliberately carries no `jobs`
    // field: DFS wave membership, submission order, budget truncation
    // and `--stop-first` pruning are all deterministic, so the whole
    // search — executions, distinct paths, depths, violations — must
    // be byte-identical at any pool size.
    let params = bench::explore::SearchParams {
        budget: 40,
        max_preempt: 2,
        horizon: 24,
        ..bench::explore::SearchParams::default()
    };
    let targets = bench::explore::clean_targets(true);
    let pick = |id: &str| targets.iter().find(|t| t.id == id).expect("corpus target").clone();
    for target in [pick("mutex-counter/htm16"), pick("herd4/htm16")] {
        let serial = bench::explore::dfs(&target, &params, 1);
        let pooled = bench::explore::dfs(&target, &params, 4);
        assert_eq!(
            bench::explore::stats_json("dfs", &params, &[serial.stats]).to_pretty(),
            bench::explore::stats_json("dfs", &params, &[pooled.stats]).to_pretty(),
            "{}: exploration stats differ between jobs=1 and jobs=4",
            target.id
        );
    }
}

#[test]
fn explore_stop_first_is_pool_size_invariant() {
    // On the lazy-subscription hazard with --stop-first on, the pruned
    // pool map must stop at the same violation (and count the same
    // executions) at any pool size.
    let params = bench::explore::SearchParams {
        budget: 120,
        max_preempt: 2,
        horizon: 24,
        stop_first: true,
        ..bench::explore::SearchParams::default()
    };
    let target = bench::explore::lazy_sub_demo_target(true);
    let serial = bench::explore::dfs(&target, &params, 1);
    let pooled = bench::explore::dfs(&target, &params, 4);
    assert_eq!(serial.stats.violations, pooled.stats.violations);
    assert!(serial.stats.violations > 0);
    assert_eq!(
        serial.violations[0].minimized.to_hex(),
        pooled.violations[0].minimized.to_hex(),
        "stop-first found different counterexamples at different pool sizes"
    );
    assert_eq!(
        bench::explore::stats_json("dfs", &params, &[serial.stats]).to_pretty(),
        bench::explore::stats_json("dfs", &params, &[pooled.stats]).to_pretty(),
    );
}
