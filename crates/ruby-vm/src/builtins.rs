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
///
/// A `gone` row names a builtin whose function was deleted because no
/// workload, figure or example called it. The row stays, as
/// [`MethodEntry::ABSENT`], at which lookup stops with nothing found (a
/// superclass's method of that name is not reached either): boot's
/// method tables are simulated memory, so dropping a row would shift
/// every later heap address and shorten `Vm::assoc_get`'s scans — it
/// moves the simulated clock.
pub fn install(vm: &mut Vm) {
    fn reg(vm: &mut Vm, cls: Addr, name: &str, on_self: bool, f: BFn) {
        let id = vm.builtins.len() as u32;
        vm.builtins.push(f);
        vm.boot_define(cls, name, MethodEntry::Builtin(id), on_self);
    }
    fn gone(vm: &mut Vm, cls: Addr, name: &str, on_self: bool) {
        vm.boot_define(cls, name, MethodEntry::ABSENT, on_self);
    }
    let c = vm.classes.clone();
    // Kernel-ish methods on Object.
    reg(vm, c.object, "puts", false, bi_puts);
    reg(vm, c.object, "print", false, bi_print);
    gone(vm, c.object, "p", false);
    gone(vm, c.object, "rand", false);
    reg(vm, c.object, "io_wait", false, bi_io_wait);
    reg(vm, c.object, "conn_wait", false, bi_conn_wait);
    reg(vm, c.object, "srv_mark", false, bi_srv_mark);
    reg(vm, c.object, "to_s", false, bi_to_s);
    gone(vm, c.object, "inspect", false);
    gone(vm, c.object, "class", false);
    reg(vm, c.object, "nil?", false, bi_nil_p);
    // Class.
    reg(vm, c.class_cls, "new", false, bi_class_new);
    gone(vm, c.class_cls, "name", false);
    // Integer.
    gone(vm, c.integer, "to_i", false);
    reg(vm, c.integer, "to_f", false, bi_int_to_f);
    gone(vm, c.integer, "abs", false);
    // Float.
    gone(vm, c.float_cls, "to_f", false);
    gone(vm, c.float_cls, "to_i", false);
    gone(vm, c.float_cls, "abs", false);
    gone(vm, c.float_cls, "floor", false);
    gone(vm, c.float_cls, "ceil", false);
    reg(vm, c.float_cls, "round", false, bi_float_round);
    gone(vm, c.float_cls, "nan?", false);
    // Math (static).
    gone(vm, c.math, "sqrt", true);
    gone(vm, c.math, "sin", true);
    gone(vm, c.math, "cos", true);
    gone(vm, c.math, "exp", true);
    gone(vm, c.math, "log", true);
    gone(vm, c.math, "pow", true);
    gone(vm, c.math, "pi", true);
    // String.
    reg(vm, c.string, "length", false, bi_str_len);
    gone(vm, c.string, "size", false);
    reg(vm, c.string, "empty?", false, bi_str_empty);
    reg(vm, c.string, "to_i", false, bi_str_to_i);
    gone(vm, c.string, "to_f", false);
    gone(vm, c.string, "to_s", false);
    gone(vm, c.string, "to_sym", false);
    gone(vm, c.string, "upcase", false);
    reg(vm, c.string, "downcase", false, bi_str_downcase);
    gone(vm, c.string, "reverse", false);
    gone(vm, c.string, "strip", false);
    gone(vm, c.string, "include?", false);
    gone(vm, c.string, "start_with?", false);
    gone(vm, c.string, "end_with?", false);
    gone(vm, c.string, "index", false);
    reg(vm, c.string, "split", false, bi_str_split);
    gone(vm, c.string, "sub", false);
    gone(vm, c.string, "gsub", false);
    gone(vm, c.string, "slice", false);
    reg(vm, c.string, "dup", false, bi_str_dup);
    gone(vm, c.string, "*", false);
    // Array.
    reg(vm, c.array, "new", true, bi_array_new);
    reg(vm, c.array, "length", false, bi_arr_len);
    gone(vm, c.array, "size", false);
    gone(vm, c.array, "empty?", false);
    gone(vm, c.array, "push", false);
    gone(vm, c.array, "pop", false);
    gone(vm, c.array, "shift", false);
    gone(vm, c.array, "first", false);
    gone(vm, c.array, "last", false);
    gone(vm, c.array, "clear", false);
    gone(vm, c.array, "include?", false);
    gone(vm, c.array, "index", false);
    gone(vm, c.array, "join", false);
    gone(vm, c.array, "sort!", false);
    gone(vm, c.array, "sort", false);
    gone(vm, c.array, "min", false);
    gone(vm, c.array, "max", false);
    gone(vm, c.array, "dup", false);
    gone(vm, c.array, "concat", false);
    gone(vm, c.array, "delete_at", false);
    // Hash.
    reg(vm, c.hash, "new", true, bi_hash_new);
    gone(vm, c.hash, "size", false);
    gone(vm, c.hash, "length", false);
    gone(vm, c.hash, "empty?", false);
    gone(vm, c.hash, "key?", false);
    gone(vm, c.hash, "has_key?", false);
    reg(vm, c.hash, "keys", false, bi_hash_keys);
    gone(vm, c.hash, "values", false);
    gone(vm, c.hash, "delete", false);
    // Range.
    reg(vm, c.range, "begin", false, bi_range_begin);
    gone(vm, c.range, "first", false);
    reg(vm, c.range, "end", false, bi_range_end);
    gone(vm, c.range, "last", false);
    reg(vm, c.range, "exclude_end?", false, bi_range_excl);
    // Thread.
    reg(vm, c.thread_cls, "new", true, bi_thread_new);
    gone(vm, c.thread_cls, "current", true);
    reg(vm, c.thread_cls, "join", false, bi_thread_join);
    gone(vm, c.thread_cls, "value", false);
    gone(vm, c.thread_cls, "alive?", false);
    // Mutex.
    reg(vm, c.mutex_cls, "new", true, bi_mutex_new);
    reg(vm, c.mutex_cls, "lock", false, bi_mutex_lock);
    reg(vm, c.mutex_cls, "unlock", false, bi_mutex_unlock);
    gone(vm, c.mutex_cls, "try_lock", false);
    // Barrier.
    reg(vm, c.barrier_cls, "new", true, bi_barrier_new);
    reg(vm, c.barrier_cls, "wait", false, bi_barrier_wait);
    // Regexp.
    reg(vm, c.regexp, "new", true, bi_regexp_new);
    reg(vm, c.regexp, "match", false, bi_regexp_match);
    gone(vm, c.regexp, "match?", false);
    gone(vm, c.regexp, "source", false);
    // Proc.
    gone(vm, c.proc_cls, "call", false);
    // Store (the Rails database stand-in).
    reg(vm, c.store, "create", true, crate::store::bi_store_create);
    reg(vm, c.store, "insert", false, crate::store::bi_store_insert);
    gone(vm, c.store, "count", false);
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

fn bi_nil_p(
    _vm: &mut Vm,
    _t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    Ok(BResult::Value(if recv == Word::Nil { Word::True } else { Word::False }))
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
        Some(MethodEntry::Iseq(iseq)) => Ok(BResult::Initialize { iseq, obj, block }),
        Some(MethodEntry::Builtin(_)) => Err(vm.fatal("builtin initialize is not supported")),
        None => Ok(BResult::Value(obj)),
    }
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

fn float_of(vm: &mut Vm, t: ThreadId, recv: &Word) -> Result<f64, VmAbort> {
    vm.as_number(t, recv)?.ok_or_else(|| vm.fatal("receiver is not numeric"))
}

/// `f` as an `Integer`, for the conversions that drop the fraction: NaN and
/// the infinities have none and raise Ruby's `FloatDomainError`. With no
/// Bignum, a finite value outside the `i64` range saturates.
fn float_to_int(vm: &mut Vm, f: f64) -> Result<BResult, VmAbort> {
    if f.is_finite() {
        return Ok(BResult::Value(Word::Int(f as i64)));
    }
    let what = if f.is_nan() {
        "NaN"
    } else if f > 0.0 {
        "Infinity"
    } else {
        "-Infinity"
    };
    Err(vm.fatal(format!("FloatDomainError: {what}")))
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
        None => float_to_int(vm, f.round()),
    }
}

// ---- String ---------------------------------------------------------------------

fn self_string(vm: &mut Vm, t: ThreadId, recv: &Word) -> Result<Arc<str>, VmAbort> {
    let slot = recv_slot(vm, t, recv, ObjKind::String)?;
    vm.string_content(t, slot)
}

fn bi_str_len(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let s = self_string(vm, t, &recv)?;
    Ok(BResult::Value(Word::Int(s.len() as i64)))
}

fn bi_str_empty(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let s = self_string(vm, t, &recv)?;
    Ok(BResult::Value(if s.is_empty() { Word::True } else { Word::False }))
}

fn bi_str_to_i(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let s = self_string(vm, t, &recv)?;
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

fn bi_str_downcase(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let s = self_string(vm, t, &recv)?;
    vm.step_native_cost += (s.len() / 4) as u64;
    // `str::to_lowercase` is not char by char (a final sigma); ASCII is.
    let text = vm.build_text(|_, out| {
        match s.is_ascii() {
            true => out.extend(s.chars().map(|c| c.to_ascii_lowercase())),
            false => out.push_str(&s.to_lowercase()),
        }
        Ok(())
    })?;
    Ok(BResult::Value(vm.make_string(t, text)?))
}

fn bi_str_split(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let s = self_string(vm, t, &recv)?;
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

/// `String#dup`: the prelude's `String#+` is `self.dup() << other`. The
/// copy shares the host text; `<<` gives a String a new one.
fn bi_str_dup(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let s = self_string(vm, t, &recv)?;
    vm.step_native_cost += (s.len() / 4) as u64;
    Ok(BResult::Value(vm.make_string(t, s)?))
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

fn bi_arr_len(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = recv_slot(vm, t, &recv, ObjKind::Array)?;
    let n = vm.array_len(t, slot)?;
    Ok(BResult::Value(Word::Int(n as i64)))
}

// ---- Hash ------------------------------------------------------------------------

fn bi_hash_new(
    vm: &mut Vm,
    t: ThreadId,
    _recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    Ok(BResult::Value(vm.make_hash(t)?))
}

/// `Hash#keys`, in insertion order: what the prelude's `Hash#each` and
/// `Hash#each_key` walk.
fn bi_hash_keys(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    _a: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = recv_slot(vm, t, &recv, ObjKind::Hash)?;
    let n = vm.rd(t, slot + 1)?.as_int().unwrap_or(0) as usize;
    let buf = vm.rd(t, slot + 3)?.as_int().unwrap_or(0) as Addr;
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        keys.push(vm.rd(t, buf + 2 * i)?);
    }
    Ok(BResult::Value(vm.make_array(t, &keys)?))
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

fn bi_regexp_match(
    vm: &mut Vm,
    t: ThreadId,
    recv: Word,
    args: &[Word],
    _b: Addr,
) -> Result<BResult, VmAbort> {
    let slot = recv_slot(vm, t, &recv, ObjKind::Regexp)?;
    let re = vm.get_regex(t, slot)?;
    let subject = str_arg(vm, t, args, 0)?;
    let m = re.find(&subject, &mut vm.regex_scratch);
    // Charge the engine's work; the subject's shadow buffer was already
    // touched by str_arg → string_content.
    vm.step_native_cost += m.map_or(subject.len() + 1, |r| r.steps) as u64 * 2;
    if m.is_none() {
        return Ok(BResult::Value(Word::Nil));
    }
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
