//! Self-tests of the benchmark against its own contract: `BENCHMARK.json`
//! and the code agree on every name and unit, the build profile has not
//! drifted from the root's, and the checks really catch a wrong result.
//! Runs use the tiny sizes, whose numbers are never reported.

use std::collections::BTreeMap;

use htm_gil_core::Json;

use crate::compare::BENCHMARK_JSON;
use crate::run::{end_to_end_pass, PassResult};
use crate::traced::traced_pass;
use crate::{output, workloads};

/// Tiny runs need no time budget: every pass makes its minimum of two
/// repetitions and stops.
const NO_TIME: f64 = 0.0;

fn name_is_well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

/// `(name, unit)` of every entry of one of `BENCHMARK.json`'s metric lists.
fn declared(list: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let text = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// `(name, unit)` of every metric in a pass's result line, in order.
fn reported(result: &PassResult) -> Vec<(String, String)> {
    let line = Json::parse(&output::result_line(result)).expect("result line parses");
    let Json::Obj(keys) = &line else { panic!("result line is an object") };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("metrics is an object") };
    metrics
        .iter()
        .map(|(name, m)| {
            let Json::Obj(fields) = m else { panic!("{name} is an object") };
            let fields: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(fields, ["value", "unit"], "{name}");
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} has a finite value");
            (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_string())
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn benchmark_json_names_are_well_formed_and_unique() {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workload_names: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
        .collect();
    assert_eq!(workload_names, workloads::NAMES);
    let mut names = workload_names;
    names.extend(declared("end_to_end").into_iter().map(|(n, _)| n));
    names.extend(declared("per_layer").into_iter().map(|(n, _)| n));
    for n in &names {
        assert!(name_is_well_formed(n), "{n:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*");
    }
    let unique: std::collections::BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    assert!(declared("end_to_end").iter().any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn every_declared_metric_appears_once_with_its_unit_on_every_workload() {
    for name in workloads::NAMES {
        let w = workloads::build(name, true).expect(name);
        let e2e = end_to_end_pass(&w, 1, NO_TIME).expect(name);
        assert_eq!(e2e.ops_failed, 0, "{name}: {:?}", e2e.failures);
        assert_eq!(e2e.ops_attempted as usize, e2e.repetitions * w.points.len());
        assert_eq!(sorted(reported(&e2e)), sorted(declared("end_to_end")), "{name} untraced");
        assert!(e2e.metrics.iter().all(|m| m.value() != 0.0), "{name}: a zero metric");

        let traced = traced_pass(&w, 1, NO_TIME).expect(name);
        assert_eq!(traced.ops_failed, 0, "{name}: {:?}", traced.failures);
        assert_eq!(sorted(reported(&traced)), sorted(declared("per_layer")), "{name} traced");
        let spans = traced.tracer.expect("the traced pass keeps its spans").spans;
        for span in [
            "ruby-lang.lex",
            "ruby-lang.parse",
            "ruby-vm.compile",
            "ruby-vm.finalize",
            "htm-sim.new",
            "ruby-vm.boot",
            "core.exec_new",
            "core.run",
            "ruby-vm.vm_only_run",
            "core.gil_run",
            "ruby-vm.gc",
            "core.report_json",
            "core.heap_digest",
        ] {
            assert!(spans.iter().any(|s| s.name == span), "{name}: no {span} span");
        }
    }
}

#[test]
fn a_wrong_expected_stdout_fails_every_op() {
    let mut w = workloads::build("while_htm", true).expect("while_htm");
    w.inputs[0].expected_stdout = Some("not what the program prints".to_string());
    let r = end_to_end_pass(&w, 1, NO_TIME).expect("the pass itself runs");
    assert_eq!(r.ops_failed, r.ops_attempted);
    assert!(r.failures[0].contains("not the expected text"), "{:?}", r.failures);
    assert!(output::result_line(&r).starts_with(r#"{"correct":false,"#));
}

#[test]
fn seeds_move_the_task_server_but_never_break_it() {
    let w = workloads::build("taskserver_htm", true).expect("taskserver_htm");
    let cycles = |seed| {
        let r = end_to_end_pass(&w, seed, NO_TIME).expect("pass");
        assert_eq!(r.ops_failed, 0, "seed {seed}: {:?}", r.failures);
        r.metrics.iter().find(|m| m.name == "sim_cycles").expect("sim_cycles").samples[0]
    };
    assert_eq!(cycles(1), cycles(1), "the same seed gives the same simulation");
    assert_ne!(cycles(1), cycles(2), "another seed gives other connection latencies");
}

/// `key = value` pairs of one `[section]` of a Cargo manifest, comments
/// and blank lines dropped.
fn manifest_section(manifest: &str, section: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != section)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (k, v) = l.split_once('=').unwrap_or_else(|| panic!("not key = value: {l}"));
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect()
}

#[test]
fn release_profile_equals_the_roots() {
    let ours = manifest_section(include_str!("../Cargo.toml"), "[profile.release]");
    let roots = manifest_section(include_str!("../../Cargo.toml"), "[profile.release]");
    assert!(roots.contains_key("lto"), "the root profile was not found");
    assert_eq!(ours, roots, "benchmark/Cargo.toml [profile.release] drifted from the root's");
}
