//! Lease differential: the line-lease access path against the per-word
//! one (`VmConfig::force_word_access`) must produce **identical** run
//! reports — same stdout, same cycle counts, same abort statistics, same
//! conflict attribution — for every workload shape and runtime mode.
//!
//! The comparison is on the report JSON, which contains only simulated
//! quantities, so one equality covers every counter the harness exposes.
//! The only fields allowed to differ are `lease_hits` / `lease_misses`,
//! which describe the access path itself (a per-word run records zero
//! hits); `epoch_bumps` is path-independent and stays in the comparison.
//! Leasing is a host-side representation change, and so is the leased
//! lookahead it enables (which a per-word run never takes); any
//! divergence here means one of them leaked into simulated behaviour.

use bench::{run_workload_with, vm_config_for};
use htm_gil_core::{ExecConfig, Json, LengthPolicy, RunReport, RuntimeMode};
use machine_sim::MachineProfile;
use ruby_vm::VmConfig;
use workloads::Workload;

const DYNAMIC: RuntimeMode = RuntimeMode::Htm { length: LengthPolicy::Dynamic };

/// The cycle limit of the GIL twin below: far past any run of the slices,
/// whose runs take at most 1.9 times their twin's cycles.
const TWIN_LIMIT: u64 = 100_000_000;

/// Run `w` in `mode` on the given access path, stopped at `max_cycles` (0:
/// never).
fn run(
    w: &Workload,
    profile: &MachineProfile,
    mode: RuntimeMode,
    word: bool,
    max_cycles: u64,
) -> RunReport {
    let cfg = ExecConfig { max_cycles, ..ExecConfig::new(mode, profile) };
    let vm_config = VmConfig { force_word_access: word, ..vm_config_for(w.threads) };
    run_workload_with(w, profile, cfg, vm_config)
}

/// Run `w` in `mode` on the given access path, stopped at `max_cycles`,
/// and return the report JSON, less the two counters that describe the
/// path itself.
fn report(
    w: &Workload,
    profile: &MachineProfile,
    mode: RuntimeMode,
    word: bool,
    max_cycles: u64,
) -> Json {
    without_lease_counters(run(w, profile, mode, word, max_cycles).to_json())
}

fn without_lease_counters(j: Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "lease_hits" && k != "lease_misses")
                .map(|(k, v)| (k, without_lease_counters(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(without_lease_counters).collect()),
        other => other,
    }
}

/// Both paths stop at a few times the cycles of their GIL twin (the
/// per-word path under the GIL), so a run that loops ends in
/// `RunError::CycleLimit` with its dump instead of hanging the suite; a
/// limit that is not reached moves nothing.
fn assert_paths_agree_on(w: &Workload, profile: &MachineProfile, mode: RuntimeMode) {
    let limit = 4 * run(w, profile, RuntimeMode::Gil, true, TWIN_LIMIT).elapsed_cycles;
    let report = |word| report(w, profile, mode, word, limit);
    let (want, got) = (report(false), report(true));
    if want == got {
        return;
    }
    // Point at the first differing field instead of dumping two blobs.
    let what = format!("{} on {} [{mode:?}] leased vs per-word", w.name, profile.name);
    let (Json::Obj(wf), Json::Obj(gf)) = (&want, &got) else {
        panic!("{what}: reports are not objects");
    };
    for ((wk, wv), (gk, gv)) in wf.iter().zip(gf.iter()) {
        assert_eq!(wk, gk, "{what}: field order diverged");
        assert_eq!(wv.to_compact(), gv.to_compact(), "{what}: paths disagree on {wk:?}");
    }
    panic!("{what}: reports differ but fields match?");
}

fn assert_paths_agree(w: &Workload, mode: RuntimeMode) {
    assert_paths_agree_on(w, &MachineProfile::zec12(), mode);
}

/// Quick slice: the micro-benchmarks, servers and all seven NPB kernels
/// at small scale, where conflicts, overflows and the GIL fallback all
/// fire.
fn quick_slice() -> Vec<Workload> {
    let mut slice = vec![
        workloads::micro::while_bench(4, 200),
        workloads::micro::iterator_bench(4, 120),
        workloads::webrick::webrick(3, 24),
        workloads::taskserver::taskserver(4, 2, 16, 48, false),
    ];
    slice.extend(workloads::npb_all(4, 1));
    slice
}

#[test]
fn fast_paths_match_reference_under_htm_dynamic() {
    for w in quick_slice() {
        assert_paths_agree(&w, DYNAMIC);
    }
}

#[test]
fn fast_paths_match_reference_under_htm_fixed() {
    for w in quick_slice() {
        assert_paths_agree(&w, RuntimeMode::Htm { length: LengthPolicy::Fixed(16) });
    }
}

#[test]
fn fast_paths_match_reference_under_gil() {
    for w in quick_slice() {
        assert_paths_agree(&w, RuntimeMode::Gil);
    }
}

#[test]
fn fast_paths_match_reference_on_the_other_quick_fig8_points() {
    // What `figures fig8 --quick` runs beyond the slice above: the
    // NPB at two threads, and the Xeon profile (64-byte lines, learning
    // predictor).
    for w in workloads::npb_all(2, 1) {
        assert_paths_agree(&w, DYNAMIC);
    }
    let xeon = MachineProfile::xeon_e3_1275_v3();
    for n in [2, 4] {
        for w in workloads::npb_all(n, 1) {
            assert_paths_agree_on(&w, &xeon, DYNAMIC);
        }
    }
}

#[test]
fn fast_paths_match_reference_in_single_thread_burst_regime() {
    // One live thread is where bursts run longest: both access paths must
    // leave every simulated number where the other puts it.
    for w in [workloads::micro::while_bench(1, 500), workloads::npb::cg(1, 1)] {
        assert_paths_agree(&w, DYNAMIC);
        assert_paths_agree(&w, RuntimeMode::Gil);
    }
}
