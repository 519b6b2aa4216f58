//! The traced pass over one workload, which yields the per-layer metrics:
//! spans around each layer's public entry points, the interpreter-only and
//! GIL-mode runs of every input, and the layer kernels.

use htm_gil_core::{heap_digest, RuntimeMode};
use htm_sim::{HtmStats, TxMemory};
use ruby_vm::{BlockOn, StepOk, Vm, Word};

use crate::clock::{peak_rss_mb, thread_cpu_ns};
use crate::kernels;
use crate::run::{plain_repetition, timed_point, Checker, Metric, PassResult};
use crate::spans::Tracer;
use crate::workloads::{Input, Workload};

/// Bytecodes a program retires when nothing but the interpreter runs it:
/// a cooperative round-robin loop over `Vm::step` — no executor, no
/// scheduler, no GIL, no transactions (the driver of
/// `crates/ruby-vm/tests/interp_e2e.rs`).
fn vm_only_run(vm: &mut Vm) -> Result<u64, String> {
    let mut blocked: Vec<Option<BlockOn>> = Vec::new();
    let mut bytecodes = 0u64;
    loop {
        blocked.resize(vm.threads.len(), None);
        let mut progressed = false;
        for (t, slot) in blocked.iter_mut().enumerate() {
            if vm.threads[t].finished {
                continue;
            }
            // Mutex, barrier and I/O waits just retry on the next round.
            if let Some(BlockOn::Join(target)) = *slot {
                if !vm.threads[target].finished {
                    continue;
                }
            }
            *slot = None;
            for _ in 0..1000 {
                vm.reset_step_counters();
                let outcome = vm.step(t).map_err(|e| format!("vm-only run: {e:?}"))?;
                bytecodes += u64::from(vm.step_insns);
                // No transaction can abort, so escrowed side effects
                // publish (or are dropped, for the executor's queues) now.
                vm.publish_method_bumps();
                vm.pending_wakes.clear();
                vm.pending_marks.clear();
                match outcome {
                    StepOk::Normal => progressed = true,
                    StepOk::Finished => {
                        progressed = true;
                        let ctx = &vm.threads[t];
                        let (obj, result) = (ctx.thread_obj, ctx.result.clone());
                        if obj != 0 {
                            // Publish completion into the Thread object,
                            // as the executor does.
                            vm.mem.write(t, obj + 2, Word::Int(1)).expect("thread state");
                            vm.mem.write(t, obj + 3, result).expect("thread result");
                        }
                        break;
                    }
                    StepOk::Spawned { .. } => {
                        progressed = true;
                        break;
                    }
                    StepOk::Block(b) => {
                        progressed |= !matches!(b, BlockOn::Join(_));
                        *slot = Some(b);
                        break;
                    }
                }
            }
        }
        if vm.threads.iter().all(|c| c.finished) {
            return Ok(bytecodes);
        }
        if !progressed {
            return Err("vm-only run: every live thread is blocked".to_string());
        }
    }
}

/// Per-repetition sums the traced pass turns into per-layer metrics.
#[derive(Default)]
struct TracedTotals {
    source_bytes: u64,
    tokens: u64,
    decoded_insns: u64,
    vm_only_ns: u64,
    vm_only_bytecodes: u64,
    gil_run_ns: u64,
    gil_bytecodes: u64,
    run_ns: u64,
    gc_calls: u64,
    /// Sums of the timed runs' reports (identical in every repetition).
    bytecodes: u64,
    committed_insns: u64,
    wasted_insns: u64,
    gil_acquisitions: u64,
    length_adjustments: u64,
    allocations: u64,
    gc_runs: u64,
    task_p99_cycles: u64,
    htm: HtmStats,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let t0 = thread_cpu_ns();
    let r = f();
    (r, t0, thread_cpu_ns())
}

/// One traced repetition: per point, each layer's public entry point
/// timed on the point's input, then the timed `Executor::new`/`run` with
/// spans; per input, the interpreter-only run and the GIL run.
fn traced_repetition(
    w: &Workload,
    seed: u64,
    checker: &mut Checker,
    tracer: &mut Tracer,
) -> Result<TracedTotals, String> {
    let mut tot = TracedTotals::default();
    let err = |what: &str, input: &Input, e: &dyn std::fmt::Display| {
        format!("{}: {what}: {e}", input.label)
    };
    for (i, p) in w.points.iter().enumerate() {
        let input = &w.inputs[p.input];
        let sources = [ruby_vm::prelude::PRELUDE, input.source.as_str()];
        tot.source_bytes += sources.iter().map(|s| s.len() as u64).sum::<u64>();

        let mut lex_ns = 0;
        let mut parse_ns = 0;
        let mut compile_ns = 0;
        let mut program = ruby_vm::Program::default();
        for src in sources {
            let (tokens, s, e) = timed(|| ruby_lang::Lexer::new(src).tokenize());
            tot.tokens += tokens.map_err(|e| err("lex", input, &e))?.len() as u64;
            lex_ns += e - s;
            let (ast, s, e) = timed(|| ruby_lang::parse_program(src));
            ast.map_err(|e| err("parse", input, &e))?;
            parse_ns += e - s;
            let (iseq, s, e) = timed(|| ruby_vm::compile::compile_source(src, &mut program));
            iseq.map_err(|e| err("compile", input, &e))?;
            compile_ns += e - s;
        }
        let ((), s, e) = timed(|| program.finalize());
        let finalize_ns = e - s;
        tot.decoded_insns += u64::from(program.total_insns());
        drop(program);

        let vm_config = input.vm_config(seed);
        let (vm, s, e) = timed(|| Vm::boot(&input.source, vm_config.clone(), &input.profile));
        let vm = vm.map_err(|e| err("boot", input, &e))?;
        let boot_ns = e - s;
        let (words, line_words) = (vm.layout.total_words, input.profile.cache.line_words());
        drop(vm);
        let (mem, s, e) =
            timed(|| TxMemory::new(words, line_words, vm_config.max_threads, Word::Uninit));
        let mem_new_ns = e - s;
        drop(mem);

        let (setup, run, outcome) = timed_point(input, p.mode, seed);
        // The separately timed layers are drawn inside the real
        // `Executor::new` span, end to end from its start.
        let at = setup.0;
        let exec_new = tracer.push("core.exec_new", setup.0, setup.1, None);
        let (boot, _) = tracer.place("ruby-vm.boot", exec_new, at, boot_ns);
        let (compile, after_compile) = tracer.place("ruby-vm.compile", boot, at, compile_ns);
        let (parse, _) = tracer.place("ruby-lang.parse", compile, at, parse_ns);
        tracer.place("ruby-lang.lex", parse, at, lex_ns);
        let (_, after_finalize) =
            tracer.place("ruby-vm.finalize", boot, after_compile, finalize_ns);
        tracer.place("htm-sim.new", boot, after_finalize, mem_new_ns);
        tracer.push("core.run", run.0, run.1, None);
        tot.run_ns += run.1 - run.0;

        checker.check(i, &outcome);
        let (mut ex, report) = outcome.map_err(|e| err("timed run", input, &e))?;
        let (json, s, e) = timed(|| report.to_json().to_compact());
        std::hint::black_box(json);
        tracer.push("core.report_json", s, e, None);
        let (digest, s, e) = timed(|| heap_digest(&ex.vm));
        std::hint::black_box(digest);
        tracer.push("core.heap_digest", s, e, None);
        // A mark phase over the finished heap (after the digest: marking
        // rewrites object headers).
        let (gc, s, e) = timed(|| ex.vm.gc(0));
        gc.map_err(|e| err("gc", input, &format!("{e:?}")))?;
        tracer.push("ruby-vm.gc", s, e, None);
        tot.gc_calls += 1;

        tot.bytecodes += report.committed_insns + report.wasted_insns;
        tot.committed_insns += report.committed_insns;
        tot.wasted_insns += report.wasted_insns;
        tot.gil_acquisitions += report.gil_acquisitions;
        tot.length_adjustments += report.length_adjustments;
        tot.allocations += report.allocations;
        tot.gc_runs += report.gc_runs;
        tot.task_p99_cycles += report.task_latency.as_ref().map_or(0, |t| t.e2e.p99);
        tot.htm.merge(&report.htm);
    }
    for input in &w.inputs {
        let vm = Vm::boot(&input.source, input.vm_config(seed), &input.profile);
        let mut vm = vm.map_err(|e| err("boot", input, &e))?;
        let (bytecodes, s, e) = timed(|| vm_only_run(&mut vm));
        tot.vm_only_bytecodes += bytecodes.map_err(|e| err("vm-only", input, &e))?;
        tot.vm_only_ns += e - s;
        tracer.push("ruby-vm.vm_only_run", s, e, None);
        if input.expected_stdout.as_ref().is_some_and(|want| *want != vm.stdout_text()) {
            return Err(err("vm-only", input, &"stdout is not the expected text"));
        }
        drop(vm);

        let (_, run, outcome) = timed_point(input, RuntimeMode::Gil, seed);
        let (_, report) = outcome.map_err(|e| err("GIL run", input, &e))?;
        tot.gil_run_ns += run.1 - run.0;
        tot.gil_bytecodes += report.committed_insns + report.wasted_insns;
        tracer.push("core.gil_run", run.0, run.1, None);
    }
    Ok(tot)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced pass: traced and untraced repetitions alternate until
/// `seconds` have passed (the untraced ones give the tracing overhead on
/// `core.run` from inside one process), then the layer kernels run once.
pub fn traced_pass(w: &Workload, seed: u64, seconds: f64) -> Result<PassResult, String> {
    let mut checker = Checker::warmed_up(w, seed)?;
    let mut tracer = Tracer::default();
    let start = std::time::Instant::now();
    let mut traced = Vec::new();
    let mut untraced_run_ns = Vec::new();
    let mut walls = Vec::new();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let wall = std::time::Instant::now();
        tracer.next_run();
        let tot = traced_repetition(w, seed, &mut checker, &mut tracer)?;
        traced.push((tracer.run_id(), tot));
        untraced_run_ns.push(plain_repetition(w, seed, &mut checker).run_ns as f64);
        walls.push(wall.elapsed().as_secs_f64());
    }

    let points = w.points.len() as f64;
    // (total, self) nanoseconds of each span name, per traced repetition.
    let span_sums: Vec<Vec<(&'static str, u64, u64)>> =
        traced.iter().map(|(id, _)| tracer.ns_by_name(*id)).collect();
    let span = |name: &'static str, pick_self: bool, per: &dyn Fn(&TracedTotals) -> f64| {
        traced
            .iter()
            .zip(&span_sums)
            .map(|((_, tot), sums)| {
                let (_, total, own) =
                    sums.iter().find(|(n, _, _)| *n == name).copied().unwrap_or((name, 0, 0));
                (if pick_self { own } else { total }) as f64 / per(tot)
            })
            .collect::<Vec<f64>>()
    };
    let per_point_us = |_: &TracedTotals| points * 1e3;
    let per_byte = |t: &TracedTotals| t.source_bytes as f64;
    let each = |f: &dyn Fn(&TracedTotals) -> f64| traced.iter().map(|(_, t)| f(t)).collect();
    // Per *committed* bytecode, so that rolled-back work counts as cost.
    let timed_ns_per_committed = |t: &TracedTotals| t.run_ns as f64 / t.committed_insns as f64;
    let gil_ns_per_bytecode = |t: &TracedTotals| t.gil_run_ns as f64 / t.gil_bytecodes as f64;
    let vm_ns_per_bytecode = |t: &TracedTotals| t.vm_only_ns as f64 / t.vm_only_bytecodes as f64;
    let (_, c) = traced.last().expect("at least two traced repetitions");
    let htm = &c.htm;
    let count = |name, v: u64| Metric::exact(name, "count", v as f64);

    let mut metrics = vec![
        Metric::new("ruby-lang.lex_ns_per_byte", "ns/B", span("ruby-lang.lex", false, &per_byte)),
        Metric::new(
            "ruby-lang.parse_ns_per_byte",
            "ns/B",
            span("ruby-lang.parse", true, &per_byte),
        ),
        count("ruby-lang.tokens", c.tokens),
        Metric::new("ruby-vm.compile_us", "us", span("ruby-vm.compile", false, &per_point_us)),
        Metric::new("ruby-vm.finalize_us", "us", span("ruby-vm.finalize", false, &per_point_us)),
        count("ruby-vm.decoded_insns", c.decoded_insns),
        Metric::new("ruby-vm.boot_us", "us", span("ruby-vm.boot", false, &per_point_us)),
        Metric::new("ruby-vm.boot_self_us", "us", span("ruby-vm.boot", true, &per_point_us)),
        Metric::new("htm-sim.new_us", "us", span("htm-sim.new", false, &per_point_us)),
        Metric::new("core.exec_new_self_us", "us", span("core.exec_new", true, &per_point_us)),
        Metric::new("ruby-vm.step_ns_per_bytecode", "ns/bytecode", each(&vm_ns_per_bytecode)),
        Metric::exact(
            "ruby-vm.words_per_bytecode",
            "ratio",
            ratio(htm.reads + htm.writes, c.bytecodes),
        ),
        Metric::exact(
            "ruby-vm.lease_hit_rate",
            "ratio",
            ratio(htm.lease_hits, htm.lease_hits + htm.lease_misses),
        ),
        count("ruby-vm.allocations", c.allocations),
        count("ruby-vm.gc_runs", c.gc_runs),
        Metric::new(
            "ruby-vm.gc_us_per_run",
            "us",
            span("ruby-vm.gc", false, &|t| t.gc_calls as f64 * 1e3),
        ),
        count("htm-sim.reads", htm.reads),
        count("htm-sim.writes", htm.writes),
        count("htm-sim.begins", htm.begins),
        Metric::exact("htm-sim.commit_ratio", "ratio", ratio(htm.commits, htm.begins)),
        count("htm-sim.aborts_conflict", htm.conflicts_read + htm.conflicts_write),
        count("htm-sim.aborts_capacity", htm.overflow_read + htm.overflow_write),
        count(
            "htm-sim.aborts_other",
            htm.explicit + htm.eager_predicted + htm.restricted + htm.spurious,
        ),
        count("htm-sim.epoch_bumps", htm.epoch_bumps),
        Metric::new("core.gil_run_ns_per_bytecode", "ns/bytecode", each(&gil_ns_per_bytecode)),
        Metric::new(
            "core.exec_overhead_ns_per_bytecode",
            "ns/bytecode",
            each(&|t| gil_ns_per_bytecode(t) - vm_ns_per_bytecode(t)),
        ),
        Metric::new(
            "core.htm_overhead_ns_per_bytecode",
            "ns/bytecode",
            each(&|t| timed_ns_per_committed(t) - gil_ns_per_bytecode(t)),
        ),
        Metric::exact("core.wasted_insn_share", "ratio", ratio(c.wasted_insns, c.bytecodes)),
        count("core.gil_acquisitions", c.gil_acquisitions),
        count("core.length_adjustments", c.length_adjustments),
        Metric::new("core.report_json_us", "us", span("core.report_json", false, &per_point_us)),
        Metric::new("core.heap_digest_us", "us", span("core.heap_digest", false, &per_point_us)),
        Metric::exact("core.task_p99_cycles", "cycles", c.task_p99_cycles as f64),
        // Traced over untraced `core.run` CPU time, pair by pair as they
        // alternated in this process: what recording the spans costs the
        // timed call.
        Metric::new(
            "core.run_trace_overhead",
            "ratio",
            traced
                .iter()
                .zip(&untraced_run_ns)
                .map(|((_, t), u)| t.run_ns as f64 / u - 1.0)
                .collect(),
        ),
    ];
    // `TxMemory` kernels at the line size of the workload's machine
    // (32 words on zEC12, 8 on the Xeon; the sweep's first input is zEC12).
    metrics.extend(kernels::all(w.inputs[0].profile.cache.line_words()));

    Ok(PassResult {
        repetitions: traced.len(),
        ops_attempted: checker.attempted,
        ops_failed: checker.failed,
        failures: checker.failures,
        metrics,
        wall_s_per_repetition: crate::stats::median(&walls),
        peak_rss_mb: peak_rss_mb(),
        tracer: Some(tracer),
    })
}
