//! Builtin (C-level) methods.
//!
//! These correspond to CRuby's C-implemented core methods: they execute as
//! one bytecode (`send`) with **no yield points inside** — exactly why the
//! paper sees footprint-overflow aborts in the regex library and method
//! invocation paths (§5.6). Their simulated-memory traffic (string
//! shadows, array buffers, table scans) is real; host-only work is charged
//! via `Vm::step_native_cost`.
//!
//! Blocking builtins (`Thread#join`, `Mutex#lock`, `Barrier#wait`,
//! `Kernel#io_wait`) abort the enclosing transaction with a *persistent*
//! reason when called transactionally — a system call cannot run inside an
//! HTM transaction — so the TLE runtime falls back to the GIL and the
//! operation re-executes there, mirroring CRuby's blocking regions.

use std::rc::Rc;
use std::sync::Arc;

use machine_sim::ThreadId;

use crate::interp::BResult;
use crate::object::MethodEntry;

use crate::value::{Addr, ObjKind, Word};
use crate::vm::{BlockOn, ThreadCtx, Vm, VmAbort, WakeKey};

/// Builtin function signature: (vm, thread, receiver, args, block proc).
pub type BFn = fn(&mut Vm, ThreadId, Word, &[Word], Addr) -> Result<BResult, VmAbort>;

/// Dispatch a builtin by id.
pub fn call(
    vm: &mut Vm,
    t: ThreadId,
    id: u32,
    recv: Word,
    args: &[Word],
    block: Addr,
) -> Result<BResult, VmAbort> {
    let f = vm.builtins[id as usize];
    vm.step_native_cost += 1; // the C-call transition itself
    f(vm, t, recv, args, block)
}

/// Register every builtin on the core classes. Boot-time only.
pub fn install(vm: &mut Vm) {
    fn reg(vm: &mut Vm, cls: Addr, name: &str, on_self: bool, f: BFn) {
        let id = vm.builtins.len() as u32;
        vm.builtins.push(f);
        vm.boot_define(cls, name, MethodEntry::Builtin(id), on_self);
    }
    let c = vm.classes.clone();
    // Kernel-ish methods on Object.
    reg(vm, c.object, "puts", false, bi_puts);
    reg(vm, c.object, "print", false, bi_print);
    reg(vm, c.object, "p", false, bi_p);
    reg(vm, c.object, "rand", false, bi_rand);
    reg(vm, c.object, "io_wait", false, bi_io_wait);
    reg(vm, c.object, "conn_wait", false, bi_conn_wait);
    reg(vm, c.object, "srv_mark", false, bi_srv_mark);
    reg(vm, c.object, "to_s", false, bi_to_s);
    reg(vm, c.object, "inspect", false, bi_inspect);
    reg(vm, c.object, "class", false, bi_class);
    reg(vm, c.object, "nil?", false, bi_nil_p);
    // Class.
    reg(vm, c.class_cls, "new", false, bi_class_new);
    reg(vm, c.class_cls, "name", false, bi_class_name);
    // Integer.
    reg(vm, c.integer, "to_i", false, bi_identity);
    reg(vm, c.integer, "to_f", false, bi_int_to_f);
    reg(vm, c.integer, "abs", false, bi_int_abs);
    // Float.
    reg(vm, c.float_cls, "to_f", false, bi_identity);
    reg(vm, c.float_cls, "to_i", false, bi_float_to_i);
    reg(vm, c.float_cls, "abs", false, bi_float_abs);
    reg(vm, c.float_cls, "floor", false, bi_float_floor);
    reg(vm, c.float_cls, "ceil", false, bi_float_ceil);
    reg(vm, c.float_cls, "round", false, bi_float_round);
    reg(vm, c.float_cls, "nan?", false, bi_float_nan);
    // Math (static).
    reg(vm, c.math, "sqrt", true, bi_math_sqrt);
    reg(vm, c.math, "sin", true, bi_math_sin);
    reg(vm, c.math, "cos", true, bi_math_cos);
    reg(vm, c.math, "exp", true, bi_math_exp);
    reg(vm, c.math, "log", true, bi_math_log);
    reg(vm, c.math, "pow", true, bi_math_pow);
    reg(vm, c.math, "pi", true, bi_math_pi);
    // String.
    reg(vm, c.string, "length", false, bi_str_len);
    reg(vm, c.string, "size", false, bi_str_len);
    reg(vm, c.string, "empty?", false, bi_str_empty);
    reg(vm, c.string, "to_i", false, bi_str_to_i);
    reg(vm, c.string, "to_f", false, bi_str_to_f);
    reg(vm, c.string, "to_s", false, bi_identity);
    reg(vm, c.string, "to_sym", false, bi_str_to_sym);
    reg(vm, c.string, "upcase", false, bi_str_upcase);
    reg(vm, c.string, "downcase", false, bi_str_downcase);
    reg(vm, c.string, "reverse", false, bi_str_reverse);
    reg(vm, c.string, "strip", false, bi_str_strip);
    reg(vm, c.string, "include?", false, bi_str_include);
    reg(vm, c.string, "start_with?", false, bi_str_start_with);
    reg(vm, c.string, "end_with?", false, bi_str_end_with);
    reg(vm, c.string, "index", false, bi_str_index);
    reg(vm, c.string, "split", false, bi_str_split);
    reg(vm, c.string, "sub", false, bi_str_sub);
    reg(vm, c.string, "gsub", false, bi_str_gsub);
    reg(vm, c.string, "slice", false, bi_str_slice);
    reg(vm, c.string, "dup", false, bi_str_dup);
    reg(vm, c.string, "*", false, bi_str_repeat);
    // Array.
    reg(vm, c.array, "new", true, bi_array_new);
    reg(vm, c.array, "length", false, bi_arr_len);
    reg(vm, c.array, "size", false, bi_arr_len);
    reg(vm, c.array, "empty?", false, bi_arr_empty);
    reg(vm, c.array, "push", false, bi_arr_push);
    reg(vm, c.array, "pop", false, bi_arr_pop);
    reg(vm, c.array, "shift", false, bi_arr_shift);
    reg(vm, c.array, "first", false, bi_arr_first);
    reg(vm, c.array, "last", false, bi_arr_last);
    reg(vm, c.array, "clear", false, bi_arr_clear);
    reg(vm, c.array, "include?", false, bi_arr_include);
    reg(vm, c.array, "index", false, bi_arr_index);
    reg(vm, c.array, "join", false, bi_arr_join);
    reg(vm, c.array, "sort!", false, bi_arr_sort_bang);
    reg(vm, c.array, "sort", false, bi_arr_sort);
    reg(vm, c.array, "min", false, bi_arr_min);
    reg(vm, c.array, "max", false, bi_arr_max);
    reg(vm, c.array, "dup", false, bi_arr_dup);
    reg(vm, c.array, "concat", false, bi_arr_concat);
    reg(vm, c.array, "delete_at", false, bi_arr_delete_at);
    // Hash.
    reg(vm, c.hash, "new", true, bi_hash_new);
    reg(vm, c.hash, "size", false, bi_hash_len);
    reg(vm, c.hash, "length", false, bi_hash_len);
    reg(vm, c.hash, "empty?", false, bi_hash_empty);
    reg(vm, c.hash, "key?", false, bi_hash_key_p);
    reg(vm, c.hash, "has_key?", false, bi_hash_key_p);
    reg(vm, c.hash, "keys", false, bi_hash_keys);
    reg(vm, c.hash, "values", false, bi_hash_values);
    reg(vm, c.hash, "delete", false, bi_hash_delete);
    // Range.
    reg(vm, c.range, "begin", false, bi_range_begin);
    reg(vm, c.range, "first", false, bi_range_begin);
    reg(vm, c.range, "end", false, bi_range_end);
    reg(vm, c.range, "last", false, bi_range_end);
    reg(vm, c.range, "exclude_end?", false, bi_range_excl);
    // Thread.
    reg(vm, c.thread_cls, "new", true, bi_thread_new);
    reg(vm, c.thread_cls, "current", true, bi_thread_current);
    reg(vm, c.thread_cls, "join", false, bi_thread_join);
    reg(vm, c.thread_cls, "value", false, bi_thread_value);
    reg(vm, c.thread_cls, "alive?", false, bi_thread_alive);
    // Mutex.
    reg(vm, c.mutex_cls, "new", true, bi_mutex_new);
    reg(vm, c.mutex_cls, "lock", false, bi_mutex_lock);
    reg(vm, c.mutex_cls, "unlock", false, bi_mutex_unlock);
    reg(vm, c.mutex_cls, "try_lock", false, bi_mutex_try_lock);
    // Barrier.
    reg(vm, c.barrier_cls, "new", true, bi_barrier_new);
    reg(vm, c.barrier_cls, "wait", false, bi_barrier_wait);
    // Regexp.
    reg(vm, c.regexp, "new", true, bi_regexp_new);
    reg(vm, c.regexp, "match", false, bi_regexp_match);
    reg(vm, c.regexp, "match?", false, bi_regexp_match_p);
    reg(vm, c.regexp, "source", false, bi_regexp_source);
    // Proc.
    reg(vm, c.proc_cls, "call", false, bi_proc_call);
    // Store (the Rails database stand-in).
    reg(vm, c.store, "create", true, crate::store::bi_store_create);
    reg(vm, c.store, "insert", false, crate::store::bi_store_insert);
    reg(vm, c.store, "count", false, crate::store::bi_store_count);
    reg(vm, c.store, "scan_eq", false, crate::store::bi_store_scan_eq);
    reg(vm, c.store, "all", false, crate::store::bi_store_all);
}

// ---- helpers ----------------------------------------------------------------

fn arg_int(vm: &mut Vm, args: &[Word], i: usize, what: &str) -> Result<i64, VmAbort> {
    args.get(i)
        .and_then(|w| w.as_int())
        .ok_or_else(|| vm.fatal(format!("{what} expects an Integer argument {i}")))
}

fn recv_slot(vm: &mut Vm, t: ThreadId, recv: &Word, kind: ObjKind) -> Result<Addr, VmAbort> {
    let slot = recv.as_obj().ok_or_else(|| vm.fatal(format!("receiver is not a {kind:?}")))?;
    if vm.kind_of(t, slot)? != kind {
        return Err(vm.fatal(format!("receiver is not a {kind:?}")));
    }
    Ok(slot)
}

fn str_arg(vm: &mut Vm, t: ThreadId, args: &[Word], i: usize) -> Result<Arc<str>, VmAbort> {
    let w = *args.get(i).ok_or_else(|| vm.fatal(format!("missing string argument {i}")))?;
    let slot = recv_slot(vm, t, &w, ObjKind::String)?;
    vm.string_content(t, slot)
}

/// Blocking is a system call: inside a transaction it must abort
/// persistently so the runtime falls back on the GIL.
fn forbid_in_tx(vm: &mut Vm, t: ThreadId) -> Result<(), VmAbort> {
    if vm.mem.in_tx(t) {
        return Err(vm.restricted(t));
    }
    Ok(())
}

// ---- Kernel ------------------------------------------------------------------

fn bi_puts(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    // Writing to stdout is I/O: CRuby releases the GIL around it, and an
    // aborted transaction must not leave phantom output — restricted.
    forbid_in_tx(vm, t)?;
    if args.is_empty() {
        vm.stdout.push(String::new());
    }
    for a in args {
        // `puts [1,2]` prints one element per line, like Ruby.
        if let Word::Obj(slot) = a {
            if vm.kind_of(t, *slot)? == ObjKind::Array {
                let n = vm.array_len(t, *slot)?;
                for i in 0..n {
                    let e = vm.array_get(t, *slot, i as i64)?;
                    let s = vm.display(t, &e)?;
                    vm.stdout.push(s);
                }
                continue;
            }
        }
        let s = vm.display(t, a)?;
        vm.stdout.push(s);
    }
    vm.step_native_cost += 50;
    Ok(BResult::Value(Word::Nil))
}

fn bi_print(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    // Writing to stdout is I/O: CRuby releases the GIL around it, and an
    // aborted transaction must not leave phantom output — restricted.
    forbid_in_tx(vm, t)?;
    let mut s = String::new();
    for a in args {
        vm.display_into(t, a, &mut s)?;
    }
    match vm.stdout.last_mut() {
        Some(last) => last.push_str(&s),
        None => vm.stdout.push(s),
    }
    vm.step_native_cost += 30;
    Ok(BResult::Value(Word::Nil))
}

fn bi_p(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    // Writing to stdout is I/O: CRuby releases the GIL around it, and an
    // aborted transaction must not leave phantom output — restricted.
    forbid_in_tx(vm, t)?;
    for a in args {
        let s = vm.inspect(t, a)?;
        vm.stdout.push(s);
    }
    vm.step_native_cost += 50;
    Ok(BResult::Value(args.first().copied().unwrap_or(Word::Nil)))
}

fn bi_rand(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let r = vm.next_rand(t);
    match args.first() {
        Some(Word::Int(n)) if *n > 0 => Ok(BResult::Value(Word::Int((r % *n as u64) as i64))),
        None => {
            let f = (r >> 11) as f64 / (1u64 << 53) as f64;
            Ok(BResult::Value(vm.make_float(t, f)?))
        }
        _ => Err(vm.fatal("rand expects a positive Integer or nothing")),
    }
}

fn bi_io_wait(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    forbid_in_tx(vm, t)?;
    let units = args.first().and_then(|w| w.as_int()).unwrap_or(1).max(1) as u32;
    Ok(BResult::Block(BlockOn::Io(units)))
}

fn bi_conn_wait(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    forbid_in_tx(vm, t)?;
    let conn = args.first().and_then(|w| w.as_int()).unwrap_or(0).max(0) as u64;
    let seq = args.get(1).and_then(|w| w.as_int()).unwrap_or(0).max(0) as u64;
    let units = vm.conn.latency_units(conn, seq, machine_sim::ConnEvent::Request);
    Ok(BResult::Block(BlockOn::Io(units)))
}

fn bi_srv_mark(
    vm: &mut Vm,
    _t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    // Deliberately NOT restricted: marks must be emittable from inside a
    // transaction (the executor escrows them until commit), otherwise every
    // latency observation would force a GIL fallback and perturb the very
    // timings being measured.
    let kind = args.first().and_then(|w| w.as_int()).unwrap_or(0).clamp(0, 255) as u8;
    let id = args.get(1).and_then(|w| w.as_int()).unwrap_or(0);
    vm.pending_marks.push((kind, id));
    vm.step_native_cost += 1;
    Ok(BResult::Value(Word::Nil))
}

fn bi_to_s(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let s = vm.build_text(|vm, out| vm.display_into(t, &recv, out))?;
    Ok(BResult::Value(vm.make_string(t, s)?))
}

fn bi_inspect(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let s = vm.inspect(t, &recv)?;
    Ok(BResult::Value(vm.make_string(t, s.into())?))
}

fn bi_class(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let cls = vm.class_of(t, &recv)?;
    Ok(BResult::Value(Word::Obj(cls)))
}

fn bi_nil_p(
    _vm: &mut Vm,
    _t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    Ok(BResult::Value(if recv == Word::Nil { Word::True } else { Word::False }))
}

fn bi_identity(
    _vm: &mut Vm,
    _t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    Ok(BResult::Value(recv))
}

// ---- Class --------------------------------------------------------------------

fn bi_class_new(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _args: &[Word],
    block: Addr,
) -> Result<BResult, VmAbort> {
    let cls = recv_slot(vm, t, &recv, ObjKind::Class)?;
    let obj = vm.make_object(t, cls)?;
    let init = vm.program.symbols.lookup("initialize").expect("interned");
    match vm.lookup_method(t, cls, init)? {
        Some(MethodEntry::Iseq(iseq)) => {
            Ok(BResult::Frame { iseq, self_w: obj, block, under: Some(obj), discard: true, ep: 0 })
        }
        Some(MethodEntry::Builtin(_)) => Err(vm.fatal("builtin initialize is not supported")),
        None => Ok(BResult::Value(obj)),
    }
}

fn bi_class_name(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let cls = recv_slot(vm, t, &recv, ObjKind::Class)?;
    let name = vm.rd(t, cls + 6)?;
    let s = match name {
        Word::Sym(s) => vm.symbols.name(s.id()),
        _ => "?",
    };
    Ok(BResult::Value(vm.make_string(t, s.into())?))
}

// ---- numerics -------------------------------------------------------------------

fn bi_int_to_f(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let i = recv.as_int().ok_or_else(|| vm.fatal("to_f on non-Integer"))?;
    Ok(BResult::Value(vm.make_float(t, i as f64)?))
}

fn bi_int_abs(
    vm: &mut Vm,
    _t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let i = recv.as_int().ok_or_else(|| vm.fatal("abs on non-Integer"))?;
    Ok(BResult::Value(Word::Int(i.abs())))
}

fn float_of(vm: &mut Vm, t: ThreadId, recv: &Word) -> Result<f64, VmAbort> {
    vm.as_number(t, recv)?.ok_or_else(|| vm.fatal("receiver is not numeric"))
}

fn bi_float_to_i(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let f = float_of(vm, t, &recv)?;
    Ok(BResult::Value(Word::Int(f.trunc() as i64)))
}

fn bi_float_abs(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let f = float_of(vm, t, &recv)?;
    Ok(BResult::Value(vm.make_float(t, f.abs())?))
}

fn bi_float_floor(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let f = float_of(vm, t, &recv)?;
    Ok(BResult::Value(Word::Int(f.floor() as i64)))
}

fn bi_float_ceil(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let f = float_of(vm, t, &recv)?;
    Ok(BResult::Value(Word::Int(f.ceil() as i64)))
}

fn bi_float_round(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let f = float_of(vm, t, &recv)?;
    match args.first().and_then(|w| w.as_int()) {
        Some(digits) => {
            let p = 10f64.powi(digits as i32);
            Ok(BResult::Value(vm.make_float(t, (f * p).round() / p)?))
        }
        None => Ok(BResult::Value(Word::Int(f.round() as i64))),
    }
}

fn bi_float_nan(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let f = float_of(vm, t, &recv)?;
    Ok(BResult::Value(if f.is_nan() { Word::True } else { Word::False }))
}

macro_rules! math_fn {
    ($name:ident, $op:expr) => {
        fn $name(
            vm: &mut Vm,
            t: ThreadId,
            _recv: Word,
            args: &[Word],
            _b: Addr,
        ) -> Result<BResult, VmAbort> {
            let x = vm
                .as_number(t, args.first().unwrap_or(&Word::Nil))?
                .ok_or_else(|| vm.fatal("Math function expects a numeric argument"))?;
            let f: fn(f64) -> f64 = $op;
            vm.step_native_cost += 20;
            Ok(BResult::Value(vm.make_float(t, f(x))?))
        }
    };
}

math_fn!(bi_math_sqrt, f64::sqrt);
math_fn!(bi_math_sin, f64::sin);
math_fn!(bi_math_cos, f64::cos);
math_fn!(bi_math_exp, f64::exp);
math_fn!(bi_math_log, f64::ln);

fn bi_math_pow(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let x = vm
        .as_number(t, args.first().unwrap_or(&Word::Nil))?
        .ok_or_else(|| vm.fatal("Math.pow expects numerics"))?;
    let y = vm
        .as_number(t, args.get(1).unwrap_or(&Word::Nil))?
        .ok_or_else(|| vm.fatal("Math.pow expects numerics"))?;
    vm.step_native_cost += 25;
    Ok(BResult::Value(vm.make_float(t, x.powf(y))?))
}

fn bi_math_pi(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    Ok(BResult::Value(vm.make_float(t, std::f64::consts::PI)?))
}

// ---- String ---------------------------------------------------------------------

fn self_string(vm: &mut Vm, t: ThreadId, recv: &Word) -> Result<(Addr, Arc<str>), VmAbort> {
    let slot = recv_slot(vm, t, recv, ObjKind::String)?;
    let s = vm.string_content(t, slot)?;
    Ok((slot, s))
}

fn bi_str_len(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    Ok(BResult::Value(Word::Int(s.len() as i64)))
}

fn bi_str_empty(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    Ok(BResult::Value(if s.is_empty() { Word::True } else { Word::False }))
}

fn bi_str_to_i(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let trimmed = s.trim_start();
    let mut end = 0;
    let bytes = trimmed.as_bytes();
    if !bytes.is_empty() && (bytes[0] == b'-' || bytes[0] == b'+') {
        end = 1;
    }
    while end < bytes.len() && bytes[end].is_ascii_digit() {
        end += 1;
    }
    let v = trimmed[..end].parse::<i64>().unwrap_or(0);
    Ok(BResult::Value(Word::Int(v)))
}

fn bi_str_to_f(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let v = s.trim().parse::<f64>().unwrap_or(0.0);
    Ok(BResult::Value(vm.make_float(t, v)?))
}

fn bi_str_to_sym(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let sym = vm.symbols.intern(&s);
    Ok(BResult::Value(Word::sym(sym)))
}

/// A String method making a new String: `$body` appends its text to `$out`.
macro_rules! str_map {
    ($name:ident, |$s:ident, $out:ident| $body:expr) => {
        fn $name(
            vm: &mut Vm,
            t: ThreadId,
            recv: Word,
            _a: &[Word],
            _b: Addr,
        ) -> Result<BResult, VmAbort> {
            let (_slot, $s) = self_string(vm, t, &recv)?;
            vm.step_native_cost += ($s.len() / 4) as u64;
            let text = vm.build_text(|_, $out| {
                $body;
                Ok(())
            })?;
            Ok(BResult::Value(vm.make_string(t, text)?))
        }
    };
}

str_map!(bi_str_upcase, |s, out| out.extend(s.chars().flat_map(char::to_uppercase)));
// `str::to_lowercase` is not char by char (a final sigma); ASCII is.
str_map!(bi_str_downcase, |s, out| match s.is_ascii() {
    true => out.extend(s.chars().map(|c| c.to_ascii_lowercase())),
    false => out.push_str(&s.to_lowercase()),
});
str_map!(bi_str_reverse, |s, out| out.extend(s.chars().rev()));
str_map!(bi_str_strip, |s, out| out.push_str(s.trim()));
str_map!(bi_str_dup, |s, out| out.push_str(&s));

fn bi_str_include(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let needle = str_arg(vm, t, args, 0)?;
    vm.step_native_cost += (s.len() / 4) as u64;
    Ok(BResult::Value(if s.contains(&*needle) { Word::True } else { Word::False }))
}

fn bi_str_start_with(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let needle = str_arg(vm, t, args, 0)?;
    Ok(BResult::Value(if s.starts_with(&*needle) { Word::True } else { Word::False }))
}

fn bi_str_end_with(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let needle = str_arg(vm, t, args, 0)?;
    Ok(BResult::Value(if s.ends_with(&*needle) { Word::True } else { Word::False }))
}

fn bi_str_index(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let needle = str_arg(vm, t, args, 0)?;
    vm.step_native_cost += (s.len() / 4) as u64;
    Ok(BResult::Value(match s.find(&*needle) {
        Some(i) => Word::Int(i as i64),
        None => Word::Nil,
    }))
}

fn bi_str_split(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    vm.step_native_cost += (s.len() / 2) as u64;
    let sep = if args.is_empty() { None } else { Some(str_arg(vm, t, args, 0)?) };
    let parts: &mut dyn Iterator<Item = &str> = match &sep {
        None => &mut s.split_whitespace(),
        Some(sep) => &mut s.split(&**sep),
    };
    let mut words = Vec::new();
    for p in parts {
        let w = vm.make_string(t, p.into())?;
        vm.temp_roots.push(w); // pin across the following allocs
        words.push(w);
    }
    Ok(BResult::Value(vm.make_array(t, &words)?))
}

/// Pattern for `sub`/`gsub`: literal string or Regexp.
fn sub_impl(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    all: bool,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let rep = str_arg(vm, t, args, 1)?;
    let pat =
        args.first().cloned().ok_or_else(|| vm.fatal("sub/gsub expects (pattern, replacement)"))?;
    let out = match &pat {
        Word::Obj(p) if vm.kind_of(t, *p)? == ObjKind::Regexp => {
            let re = vm.get_regex(t, *p)?;
            if all {
                let (o, _n, steps) = re.replace_all(&s, &rep, &mut vm.regex_scratch);
                vm.step_native_cost += steps as u64;
                o
            } else {
                let (o, _hit, steps) = re.replace_first(&s, &rep, &mut vm.regex_scratch);
                vm.step_native_cost += steps as u64;
                o
            }
        }
        _ => {
            let lit = str_arg(vm, t, args, 0)?;
            vm.step_native_cost += s.len() as u64;
            if all {
                s.replace(&*lit, &rep)
            } else {
                s.replacen(&*lit, &rep, 1)
            }
        }
    };
    Ok(BResult::Value(vm.make_string(t, out.into())?))
}

fn bi_str_sub(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    sub_impl(vm, t, recv, args, false)
}

fn bi_str_gsub(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    sub_impl(vm, t, recv, args, true)
}

fn bi_str_repeat(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let n = arg_int(vm, args, 0, "String#*")?.max(0) as usize;
    // The shadow `make_string` will ask for, before the text is built.
    vm.check_malloc(s.len().checked_mul(n).map_or(usize::MAX, |len| len.div_ceil(8)))?;
    let out = vm.build_text(|_, out| {
        (0..n).for_each(|_| out.push_str(&s));
        Ok(())
    })?;
    vm.step_native_cost += (out.len() / 4) as u64;
    Ok(BResult::Value(vm.make_string(t, out)?))
}

fn bi_str_slice(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (_slot, s) = self_string(vm, t, &recv)?;
    let start = arg_int(vm, args, 0, "slice")?;
    let len = args.get(1).and_then(|w| w.as_int()).unwrap_or(1);
    let n = s.len() as i64;
    let start = if start < 0 { n + start } else { start };
    if start < 0 || start > n || len < 0 {
        return Ok(BResult::Value(Word::Nil));
    }
    let end = (start + len).min(n);
    let out = &s[start as usize..end as usize];
    Ok(BResult::Value(vm.make_string(t, out.into())?))
}

// ---- Array -----------------------------------------------------------------------

fn bi_array_new(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let n = args.first().and_then(|w| w.as_int()).unwrap_or(0).max(0) as usize;
    let default = args.get(1).cloned().unwrap_or(Word::Nil);
    vm.check_malloc(n)?; // before the element list is built
    let elems = vec![default; n];
    Ok(BResult::Value(vm.make_array(t, &elems)?))
}

fn self_array(vm: &mut Vm, t: ThreadId, recv: &Word) -> Result<Addr, VmAbort> {
    recv_slot(vm, t, recv, ObjKind::Array)
}

fn bi_arr_len(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let n = vm.array_len(t, slot)?;
    Ok(BResult::Value(Word::Int(n as i64)))
}

fn bi_arr_empty(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let n = vm.array_len(t, slot)?;
    Ok(BResult::Value(if n == 0 { Word::True } else { Word::False }))
}

fn bi_arr_push(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    for &a in args {
        vm.array_push(t, slot, a)?;
    }
    Ok(BResult::Value(recv))
}

fn bi_arr_pop(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let n = vm.array_len(t, slot)?;
    if n == 0 {
        return Ok(BResult::Value(Word::Nil));
    }
    let w = vm.array_get(t, slot, n as i64 - 1)?;
    vm.wr(t, slot + 1, Word::Int(n as i64 - 1))?;
    Ok(BResult::Value(w))
}

fn bi_arr_shift(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let n = vm.array_len(t, slot)?;
    if n == 0 {
        return Ok(BResult::Value(Word::Nil));
    }
    let first = vm.array_get(t, slot, 0)?;
    for i in 1..n {
        let w = vm.array_get(t, slot, i as i64)?;
        vm.array_set(t, slot, i as i64 - 1, w)?;
    }
    vm.wr(t, slot + 1, Word::Int(n as i64 - 1))?;
    Ok(BResult::Value(first))
}

fn bi_arr_first(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    Ok(BResult::Value(vm.array_get(t, slot, 0)?))
}

fn bi_arr_last(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    Ok(BResult::Value(vm.array_get(t, slot, -1)?))
}

fn bi_arr_clear(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    vm.wr(t, slot + 1, Word::Int(0))?;
    Ok(BResult::Value(recv))
}

fn bi_arr_include(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let needle = args.first().cloned().unwrap_or(Word::Nil);
    let n = vm.array_len(t, slot)?;
    for i in 0..n {
        let w = vm.array_get(t, slot, i as i64)?;
        if vm.words_eq(t, &w, &needle)? {
            return Ok(BResult::Value(Word::True));
        }
    }
    Ok(BResult::Value(Word::False))
}

fn bi_arr_index(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let needle = args.first().cloned().unwrap_or(Word::Nil);
    let n = vm.array_len(t, slot)?;
    for i in 0..n {
        let w = vm.array_get(t, slot, i as i64)?;
        if vm.words_eq(t, &w, &needle)? {
            return Ok(BResult::Value(Word::Int(i as i64)));
        }
    }
    Ok(BResult::Value(Word::Nil))
}

fn bi_arr_join(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let sep = if args.is_empty() { "".into() } else { str_arg(vm, t, args, 0)? };
    let n = vm.array_len(t, slot)?;
    let out = vm.build_text(|vm, out| {
        for i in 0..n {
            if i > 0 {
                out.push_str(&sep);
            }
            let w = vm.array_get(t, slot, i as i64)?;
            vm.display_into(t, &w, out)?;
        }
        Ok(())
    })?;
    vm.step_native_cost += (out.len() / 4) as u64;
    Ok(BResult::Value(vm.make_string(t, out)?))
}

/// Sort key (numbers before anything; strings lexicographic).
fn sort_keys(vm: &mut Vm, t: ThreadId, slot: Addr) -> Result<Vec<(Word, SortKey)>, VmAbort> {
    let n = vm.array_len(t, slot)?;
    let mut keyed = Vec::with_capacity(n);
    for i in 0..n {
        let w = vm.array_get(t, slot, i as i64)?;
        let key = if let Some(f) = vm.as_number(t, &w)? {
            SortKey::Num(f)
        } else if let Word::Obj(s) = &w {
            if vm.kind_of(t, *s)? == ObjKind::String {
                SortKey::Str(vm.string_content(t, *s)?)
            } else {
                return Err(vm.fatal("cannot sort non-comparable elements"));
            }
        } else {
            return Err(vm.fatal("cannot sort non-comparable elements"));
        };
        keyed.push((w, key));
    }
    Ok(keyed)
}

#[derive(Debug, Clone, PartialEq)]
enum SortKey {
    Num(f64),
    Str(Arc<str>),
}

impl SortKey {
    fn cmp(&self, other: &SortKey) -> std::cmp::Ordering {
        match (self, other) {
            (SortKey::Num(a), SortKey::Num(b)) => a.total_cmp(b),
            (SortKey::Str(a), SortKey::Str(b)) => a.cmp(b),
            (SortKey::Num(_), SortKey::Str(_)) => std::cmp::Ordering::Less,
            (SortKey::Str(_), SortKey::Num(_)) => std::cmp::Ordering::Greater,
        }
    }
}

fn bi_arr_sort_bang(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let mut keyed = sort_keys(vm, t, slot)?;
    vm.step_native_cost += (keyed.len().max(1) as u64).ilog2() as u64 * keyed.len() as u64;
    keyed.sort_by(|a, b| a.1.cmp(&b.1));
    for (i, (w, _)) in keyed.into_iter().enumerate() {
        vm.array_set(t, slot, i as i64, w)?;
    }
    Ok(BResult::Value(recv))
}

fn bi_arr_sort(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let mut keyed = sort_keys(vm, t, slot)?;
    vm.step_native_cost += (keyed.len().max(1) as u64).ilog2() as u64 * keyed.len() as u64;
    keyed.sort_by(|a, b| a.1.cmp(&b.1));
    let sorted: Vec<Word> = keyed.into_iter().map(|(w, _)| w).collect();
    Ok(BResult::Value(vm.make_array(t, &sorted)?))
}

fn minmax(vm: &mut Vm, t: ThreadId, recv: Word, want_max: bool) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let keyed = sort_keys(vm, t, slot)?;
    let best = keyed.into_iter().reduce(|a, b| {
        let o = a.1.cmp(&b.1);
        let take_b =
            if want_max { o == std::cmp::Ordering::Less } else { o == std::cmp::Ordering::Greater };
        if take_b {
            b
        } else {
            a
        }
    });
    Ok(BResult::Value(best.map(|(w, _)| w).unwrap_or(Word::Nil)))
}

fn bi_arr_min(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    minmax(vm, t, recv, false)
}

fn bi_arr_max(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    minmax(vm, t, recv, true)
}

fn bi_arr_dup(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let n = vm.array_len(t, slot)?;
    let mut elems = Vec::with_capacity(n);
    for i in 0..n {
        elems.push(vm.array_get(t, slot, i as i64)?);
    }
    Ok(BResult::Value(vm.make_array(t, &elems)?))
}

fn bi_arr_concat(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let other = args.first().cloned().ok_or_else(|| vm.fatal("concat expects an Array"))?;
    let oslot = self_array(vm, t, &other)?;
    let n = vm.array_len(t, oslot)?;
    for i in 0..n {
        let w = vm.array_get(t, oslot, i as i64)?;
        vm.array_push(t, slot, w)?;
    }
    Ok(BResult::Value(recv))
}

fn bi_arr_delete_at(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_array(vm, t, &recv)?;
    let idx = arg_int(vm, args, 0, "delete_at")?;
    let n = vm.array_len(t, slot)? as i64;
    let idx = if idx < 0 { n + idx } else { idx };
    if idx < 0 || idx >= n {
        return Ok(BResult::Value(Word::Nil));
    }
    let removed = vm.array_get(t, slot, idx)?;
    for i in idx + 1..n {
        let w = vm.array_get(t, slot, i)?;
        vm.array_set(t, slot, i - 1, w)?;
    }
    vm.wr(t, slot + 1, Word::Int(n - 1))?;
    Ok(BResult::Value(removed))
}

// ---- Hash ------------------------------------------------------------------------

fn bi_hash_new(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    Ok(BResult::Value(vm.make_hash(t, &[])?))
}

fn self_hash(vm: &mut Vm, t: ThreadId, recv: &Word) -> Result<Addr, VmAbort> {
    recv_slot(vm, t, recv, ObjKind::Hash)
}

fn bi_hash_len(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_hash(vm, t, &recv)?;
    let n = vm.rd(t, slot + 1)?.as_int().unwrap_or(0);
    Ok(BResult::Value(Word::Int(n)))
}

fn bi_hash_empty(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_hash(vm, t, &recv)?;
    let n = vm.rd(t, slot + 1)?.as_int().unwrap_or(0);
    Ok(BResult::Value(if n == 0 { Word::True } else { Word::False }))
}

fn bi_hash_key_p(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_hash(vm, t, &recv)?;
    let key = args.first().cloned().unwrap_or(Word::Nil);
    let n = vm.rd(t, slot + 1)?.as_int().unwrap_or(0) as usize;
    let buf = vm.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
    for i in 0..n {
        let k = vm.rd(t, buf + 2 * i)?;
        if vm.words_eq(t, &k, &key)? {
            return Ok(BResult::Value(Word::True));
        }
    }
    Ok(BResult::Value(Word::False))
}

fn hash_collect(vm: &mut Vm, t: ThreadId, recv: Word, values: bool) -> Result<BResult, VmAbort> {
    let slot = self_hash(vm, t, &recv)?;
    let n = vm.rd(t, slot + 1)?.as_int().unwrap_or(0) as usize;
    let buf = vm.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(vm.rd(t, buf + 2 * i + usize::from(values))?);
    }
    Ok(BResult::Value(vm.make_array(t, &out)?))
}

fn bi_hash_keys(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    hash_collect(vm, t, recv, false)
}

fn bi_hash_values(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    hash_collect(vm, t, recv, true)
}

fn bi_hash_delete(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_hash(vm, t, &recv)?;
    let key = args.first().cloned().unwrap_or(Word::Nil);
    let n = vm.rd(t, slot + 1)?.as_int().unwrap_or(0) as usize;
    let buf = vm.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
    for i in 0..n {
        let k = vm.rd(t, buf + 2 * i)?;
        if vm.words_eq(t, &k, &key)? {
            let v = vm.rd(t, buf + 2 * i + 1)?;
            // Move the last pair into the gap.
            if i + 1 != n {
                let lk = vm.rd(t, buf + 2 * (n - 1))?;
                let lv = vm.rd(t, buf + 2 * (n - 1) + 1)?;
                vm.wr(t, buf + 2 * i, lk)?;
                vm.wr(t, buf + 2 * i + 1, lv)?;
            }
            vm.wr(t, slot + 1, Word::Int(n as i64 - 1))?;
            return Ok(BResult::Value(v));
        }
    }
    Ok(BResult::Value(Word::Nil))
}

// ---- Range -----------------------------------------------------------------------

fn self_range(vm: &mut Vm, t: ThreadId, recv: &Word) -> Result<Addr, VmAbort> {
    recv_slot(vm, t, recv, ObjKind::Range)
}

fn bi_range_begin(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_range(vm, t, &recv)?;
    Ok(BResult::Value(vm.rd(t, slot + 1)?))
}

fn bi_range_end(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_range(vm, t, &recv)?;
    Ok(BResult::Value(vm.rd(t, slot + 2)?))
}

fn bi_range_excl(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_range(vm, t, &recv)?;
    let e = vm.rd(t, slot + 3)?.as_int().unwrap_or(0);
    Ok(BResult::Value(if e != 0 { Word::True } else { Word::False }))
}

// ---- Thread ----------------------------------------------------------------------

fn bi_thread_new(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    block: Addr,
) -> Result<BResult, VmAbort> {
    // pthread_create is a system call: never inside a transaction.
    forbid_in_tx(vm, t)?;
    if block == 0 {
        return Err(vm.fatal("Thread.new requires a block"));
    }
    let new_tid = vm.threads.len();
    if new_tid >= vm.config.max_threads {
        return Err(vm.fatal(format!(
            "thread limit reached ({}); raise VmConfig::max_threads",
            vm.config.max_threads
        )));
    }
    // Thread object first (allocated by the spawner).
    let tobj_w = {
        let slot = vm.alloc_slot(t)?;
        vm.set_header(t, slot, ObjKind::Thread)?;
        vm.wr(t, slot + 1, Word::Int(new_tid as i64))?;
        vm.wr(t, slot + 2, Word::Int(0))?; // running
        vm.wr(t, slot + 3, Word::Nil)?;
        Word::Obj(slot)
    };
    let iseq = crate::bytecode::IseqId(vm.rd(t, block + 1)?.as_int().unwrap_or(0) as u32);
    let captured_fp = vm.rd(t, block + 2)?.as_int().unwrap_or(0) as Addr;
    let self_w = vm.rd(t, block + 3)?;
    // The spawner keeps running: the block's enclosing block frames must
    // be promoted to the heap before their stack words are reused.
    let captured_fp = vm.promote_env(t, captured_fp)?;
    let (stack_base, stack_end) = vm.layout.thread_stack(new_tid);
    let mut ctx = ThreadCtx {
        tid: new_tid,
        stack_base,
        stack_end,
        fp: stack_base,
        sp: stack_base,
        pc: 0,
        iseq,
        base: vm.program.base(iseq),
        finished: false,
        thread_obj: tobj_w.as_obj().unwrap(),
        result: Word::Nil,
        barrier_token: None,
        rand_state: ThreadCtx::rand_seed(new_tid),
    };
    vm.push_root_frame(&mut ctx, iseq, self_w, 0, captured_fp);
    // Pass Thread.new's arguments as block parameters.
    let nparams = vm.program.iseq(iseq).nparams;
    for (i, &a) in args.iter().take(nparams).enumerate() {
        vm.mem
            .write(new_tid, ctx.stack_base + crate::interp::FRAME_WORDS + i, a)
            .expect("thread arg write");
    }
    vm.threads.push(ctx);
    vm.step_native_cost += 400; // pthread_create
    Ok(BResult::Spawned { tid: new_tid, thread_obj: tobj_w })
}

fn bi_thread_current(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    if vm.threads[t].thread_obj == 0 {
        // Materializing the Thread object caches its address in host state
        // a rollback would not undo — do it under the GIL only.
        forbid_in_tx(vm, t)?;
    }
    if vm.threads[t].thread_obj == 0 {
        let slot = vm.alloc_slot(t)?;
        vm.set_header(t, slot, ObjKind::Thread)?;
        vm.wr(t, slot + 1, Word::Int(t as i64))?;
        vm.wr(t, slot + 2, Word::Int(0))?;
        vm.wr(t, slot + 3, Word::Nil)?;
        vm.threads[t].thread_obj = slot;
    }
    Ok(BResult::Value(Word::Obj(vm.threads[t].thread_obj)))
}

fn thread_target(vm: &mut Vm, t: ThreadId, recv: &Word) -> Result<(Addr, ThreadId), VmAbort> {
    let slot = recv_slot(vm, t, recv, ObjKind::Thread)?;
    let tid = vm.rd(t, slot + 1)?.as_int().unwrap_or(-1);
    if tid < 0 || tid as usize >= vm.threads.len() {
        return Err(vm.fatal("corrupt Thread object"));
    }
    Ok((slot, tid as usize))
}

fn bi_thread_join(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (slot, target) = thread_target(vm, t, &recv)?;
    let state = vm.rd(t, slot + 2)?.as_int().unwrap_or(0);
    if state == 1 {
        return Ok(BResult::Value(recv));
    }
    forbid_in_tx(vm, t)?;
    Ok(BResult::Block(BlockOn::Join(target)))
}

fn bi_thread_value(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (slot, target) = thread_target(vm, t, &recv)?;
    let state = vm.rd(t, slot + 2)?.as_int().unwrap_or(0);
    if state == 1 {
        return Ok(BResult::Value(vm.rd(t, slot + 3)?));
    }
    forbid_in_tx(vm, t)?;
    Ok(BResult::Block(BlockOn::Join(target)))
}

fn bi_thread_alive(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let (slot, _target) = thread_target(vm, t, &recv)?;
    let state = vm.rd(t, slot + 2)?.as_int().unwrap_or(0);
    Ok(BResult::Value(if state == 0 { Word::True } else { Word::False }))
}

// ---- Mutex -----------------------------------------------------------------------

fn bi_mutex_new(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = vm.alloc_slot(t)?;
    vm.set_header(t, slot, ObjKind::Mutex)?;
    vm.wr(t, slot + 1, Word::Nil)?;
    Ok(BResult::Value(Word::Obj(slot)))
}

fn self_mutex(vm: &mut Vm, t: ThreadId, recv: &Word) -> Result<Addr, VmAbort> {
    recv_slot(vm, t, recv, ObjKind::Mutex)
}

fn bi_mutex_lock(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_mutex(vm, t, &recv)?;
    let owner = vm.rd(t, slot + 1)?;
    match owner {
        Word::Nil => {
            // Uncontended: a transactional write is exactly how TLE wants
            // critical sections to compose — conflicts on the owner word
            // abort and serialize naturally.
            vm.wr(t, slot + 1, Word::Int(t as i64 + 1))?;
            Ok(BResult::Value(recv))
        }
        Word::Int(o) if o == t as i64 + 1 => Err(vm.fatal("deadlock; recursive locking")),
        _ => {
            // Contended: blocking is a system call.
            forbid_in_tx(vm, t)?;
            Ok(BResult::Block(BlockOn::Mutex(slot)))
        }
    }
}

fn bi_mutex_try_lock(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_mutex(vm, t, &recv)?;
    let owner = vm.rd(t, slot + 1)?;
    if owner == Word::Nil {
        vm.wr(t, slot + 1, Word::Int(t as i64 + 1))?;
        Ok(BResult::Value(Word::True))
    } else {
        Ok(BResult::Value(Word::False))
    }
}

fn bi_mutex_unlock(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = self_mutex(vm, t, &recv)?;
    let owner = vm.rd(t, slot + 1)?;
    if owner != Word::Int(t as i64 + 1) {
        return Err(vm.fatal("Attempt to unlock a mutex which is not locked by this thread"));
    }
    vm.wr(t, slot + 1, Word::Nil)?;
    vm.pending_wakes.push(WakeKey::Mutex(slot));
    Ok(BResult::Value(recv))
}

// ---- Barrier ---------------------------------------------------------------------

fn bi_barrier_new(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let n = arg_int(vm, args, 0, "Barrier.new")?;
    let slot = vm.alloc_slot(t)?;
    vm.set_header(t, slot, ObjKind::Barrier)?;
    vm.wr(t, slot + 1, Word::Int(n))?;
    vm.wr(t, slot + 2, Word::Int(0))?;
    vm.wr(t, slot + 3, Word::Int(0))?;
    Ok(BResult::Value(Word::Obj(slot)))
}

fn bi_barrier_wait(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    // The whole wait (arrival *and* wake re-check) is a blocking region:
    // it mutates host-side re-entry state (`barrier_token`) that a
    // transaction rollback would not restore, so it must only ever run
    // under the GIL — as CRuby's ConditionVariable would.
    forbid_in_tx(vm, t)?;
    let slot = recv_slot(vm, t, &recv, ObjKind::Barrier)?;
    // Re-entry after a wake: the generation moved on → pass through.
    if let Some((addr, gen)) = vm.threads[t].barrier_token {
        if addr == slot {
            let cur = vm.rd(t, slot + 3)?.as_int().unwrap_or(0);
            if cur != gen {
                vm.threads[t].barrier_token = None;
                return Ok(BResult::Value(Word::Nil));
            }
            return Ok(BResult::Block(BlockOn::Barrier(slot)));
        }
        vm.threads[t].barrier_token = None;
    }
    let n = vm.rd(t, slot + 1)?.as_int().unwrap_or(0);
    let arrived = vm.rd(t, slot + 2)?.as_int().unwrap_or(0);
    if arrived + 1 >= n {
        // Last arriver: release everyone.
        let gen = vm.rd(t, slot + 3)?.as_int().unwrap_or(0);
        vm.wr(t, slot + 2, Word::Int(0))?;
        vm.wr(t, slot + 3, Word::Int(gen + 1))?;
        vm.pending_wakes.push(WakeKey::Barrier(slot));
        Ok(BResult::Value(Word::Nil))
    } else {
        let gen = vm.rd(t, slot + 3)?.as_int().unwrap_or(0);
        vm.wr(t, slot + 2, Word::Int(arrived + 1))?;
        vm.threads[t].barrier_token = Some((slot, gen));
        Ok(BResult::Block(BlockOn::Barrier(slot)))
    }
}

// ---- Regexp ---------------------------------------------------------------------

impl Vm {
    /// Compile (or fetch from the host-side cache) the regex of a Regexp
    /// object.
    pub fn get_regex(
        &mut self,
        t: ThreadId,
        slot: Addr,
    ) -> Result<Rc<crate::regexlite::Regex>, VmAbort> {
        let w = self.rd(t, slot + 1)?;
        let pat = self.str_text(w)?;
        if let Some(r) = self.regex_cache.get(&*pat) {
            return Ok(Rc::clone(r));
        }
        let r =
            Rc::new(crate::regexlite::Regex::compile(&pat).map_err(|e| self.fatal(e.to_string()))?);
        self.regex_cache.insert(pat.to_string(), Rc::clone(&r));
        Ok(r)
    }
}

fn bi_regexp_new(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let pat = str_arg(vm, t, args, 0)?;
    crate::regexlite::Regex::compile(&pat).map_err(|e| vm.fatal(e.to_string()))?;
    let slot = vm.alloc_slot(t)?;
    vm.set_header(t, slot, ObjKind::Regexp)?;
    let id = vm.alloc_text(pat)?;
    vm.wr(t, slot + 1, Word::Str(id))?;
    Ok(BResult::Value(Word::Obj(slot)))
}

fn bi_regexp_source(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = recv_slot(vm, t, &recv, ObjKind::Regexp)?;
    let w = vm.rd(t, slot + 1)?;
    let pat = vm.str_text(w)?;
    Ok(BResult::Value(vm.make_string(t, pat)?))
}

/// Search the Regexp `recv` in the String `args[0]`; a hit's groups are
/// in `vm.regex_scratch`.
fn regexp_run(
    vm: &mut Vm,
    t: ThreadId,
    recv: &Word,
    args: &[Word],
) -> Result<Option<Arc<str>>, VmAbort> {
    let slot = recv_slot(vm, t, recv, ObjKind::Regexp)?;
    let re = vm.get_regex(t, slot)?;
    let subject = str_arg(vm, t, args, 0)?;
    let m = re.find(&subject, &mut vm.regex_scratch);
    // Charge the engine's work; the subject's shadow buffer was already
    // touched by str_arg → string_content.
    vm.step_native_cost += m.map_or(subject.len() + 1, |r| r.steps) as u64 * 2;
    Ok(m.map(|_| subject))
}

fn bi_regexp_match(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let Some(subject) = regexp_run(vm, t, &recv, args)? else {
        return Ok(BResult::Value(Word::Nil));
    };
    // Spans are char positions: a non-ASCII subject is walked for bytes.
    let ascii = subject.is_ascii();
    let byte_at = |i: usize| match ascii {
        true => i,
        false => subject.char_indices().nth(i).map_or(subject.len(), |(b, _)| b),
    };
    let ngroups = vm.regex_scratch.groups();
    let mut groups = Vec::with_capacity(ngroups);
    for g in 0..ngroups {
        groups.push(match vm.regex_scratch.group(g) {
            Some((s, e)) => {
                let w = vm.make_string(t, subject[byte_at(s)..byte_at(e)].into())?;
                // Pin: the next group's allocation may GC.
                vm.temp_roots.push(w);
                w
            }
            None => Word::Nil,
        });
    }
    let garr = vm.make_array(t, &groups)?;
    let slot = vm.alloc_slot(t)?;
    vm.set_header(t, slot, ObjKind::MatchData)?;
    vm.wr(t, slot + 1, garr)?;
    Ok(BResult::Value(Word::Obj(slot)))
}

fn bi_regexp_match_p(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let hit = regexp_run(vm, t, &recv, args)?.is_some();
    Ok(BResult::Value(if hit { Word::True } else { Word::False }))
}

// ---- Proc -----------------------------------------------------------------------

fn bi_proc_call(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = recv_slot(vm, t, &recv, ObjKind::Proc)?;
    let iseq = crate::bytecode::IseqId(vm.rd(t, slot + 1)?.as_int().unwrap_or(0) as u32);
    let captured_fp = vm.rd(t, slot + 2)?.as_int().unwrap_or(0) as Addr;
    let self_w = vm.rd(t, slot + 3)?;
    Ok(BResult::Frame { iseq, self_w, block: 0, under: None, discard: false, ep: captured_fp })
}
