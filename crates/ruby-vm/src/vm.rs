//! The VM proper: configuration, thread contexts, boot, and the helpers
//! shared by the interpreter, heap and builtins (which are all `impl Vm`
//! blocks in their own modules).
//!
//! Every word the interpreter or the runtime touches goes through one
//! read helper and one write helper (`rd`, `rd_int`, `wr`, `rd_untimed`,
//! `wr_untimed` are their faces), and the memory's *state* — not the run
//! mode — picks one of three tiers (DESIGN.md §13): **0**, the memory is
//! quiescent: the inlined head of the full path, no lease consulted;
//! **1**, the thread holds a valid lease on the line: the leased path,
//! checked inline; **2**, neither: the full access plus a lease for the
//! next one, out of line. All three count and charge alike.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use htm_sim::{AbortReason, LineLease, MemoryImage, TxMemory};
use machine_sim::{MachineProfile, ThreadId};

use crate::bytecode::IseqId;
use crate::compile::CompileError;
use crate::layout::{ts, Layout};
use crate::program::{PoolLiteral, Program};
use crate::symbols::{SymId, SymbolTable};
use crate::value::{Addr, ObjKind, StrTable, Word};

thread_local! {
    /// Memory buffers of the last VM torn down on this thread, every word
    /// `Word::Uninit` ([`TxMemory::take_image`]); the next [`Vm::boot`]
    /// here builds its memory on them instead of allocating and filling a
    /// new one.
    static SPARE_IMAGE: RefCell<Option<MemoryImage<Word>>> = const { RefCell::new(None) };
}

/// Configuration knobs — each maps to a lever the paper turns.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Initial object-slot count (`RUBY_HEAP_MIN_SLOTS`; the paper raises
    /// it from 10 000 to 10 000 000 — we scale both ends down).
    pub heap_slots: usize,
    /// Hard cap on slots after growth.
    pub max_heap_slots: usize,
    /// Words in the malloc area.
    pub malloc_words: usize,
    /// Maximum concurrently-live threads.
    pub max_threads: usize,
    /// §4.4 #2: per-thread free lists, refilled in bulk from the global
    /// list ([`crate::heap::FREE_LIST_REFILL`] slots at a time).
    pub thread_local_free_lists: bool,
    /// HEAPPOOLS analogue: per-thread malloc arenas.
    pub malloc_thread_local: bool,
    /// §4.4 #4a: method inline caches filled only at the first miss.
    pub method_ic_fill_once: bool,
    /// §4.4 #4b: ivar inline caches guarded by ivar-table identity rather
    /// than class identity.
    pub ivar_ic_table_guard: bool,
    /// §4.4 #5: thread structs padded to dedicated cache lines.
    pub padded_thread_structs: bool,
    /// §5.6 extension: thread-local lazy sweeping over per-thread heap
    /// partitions (see `extensions`).
    pub tl_lazy_sweep: bool,
    /// §5.6 extension: per-thread inline-cache areas.
    pub thread_local_ics: bool,
    /// §7 what-if: CPython-style reference-count writes on every object
    /// store (the counts are decorative; the *traffic* is the point).
    pub refcount_writes: bool,
    /// Seed of the deterministic connection-latency model behind
    /// `Kernel#conn_wait` (task-server scenario).
    pub conn_seed: u64,
    /// Force the un-decoded reference interpreter (`Vm::step_slow`). The
    /// decoded fast path and this reference path must be observationally
    /// identical — `crates/bench/tests/decode_differential.rs` compares
    /// run reports across the two.
    pub slow_dispatch: bool,
    /// Disable the line-lease batched access path (tier 1): every
    /// `Vm::rd`/`Vm::wr` goes through the full per-word `TxMemory`
    /// accounting, whose head is tier 0. The leased and per-word paths
    /// must be observationally identical — the same differential test
    /// compares them, like the dispatch knob above.
    pub force_word_access: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            heap_slots: 40_000,
            max_heap_slots: 400_000,
            malloc_words: 400_000,
            max_threads: 16,
            thread_local_free_lists: true,
            malloc_thread_local: true,
            method_ic_fill_once: true,
            ivar_ic_table_guard: true,
            padded_thread_structs: true,
            tl_lazy_sweep: false,
            thread_local_ics: false,
            refcount_writes: false,
            conn_seed: 0xC0_11EC7,
            slow_dispatch: false,
            force_word_access: false,
        }
    }
}

impl VmConfig {
    /// The paper's *original CRuby* interpreter internals: global free
    /// list, global malloc, refill-every-miss caches, class-equality ivar
    /// guards, packed thread structs, small heap. Used by the "without
    /// conflict removal" ablations.
    pub fn original_cruby(mut self) -> Self {
        self.thread_local_free_lists = false;
        self.malloc_thread_local = false;
        self.method_ic_fill_once = false;
        self.ivar_ic_table_guard = false;
        self.padded_thread_structs = false;
        self
    }

    /// Small-heap variant (the paper's default 10 000-slot CRuby heap,
    /// scaled): triggers frequent GC.
    pub fn small_heap(mut self) -> Self {
        self.heap_slots = 4_000;
        // Leave growth headroom: delayed-reclamation schemes (the §5.6
        // thread-local sweep keeps each partition's garbage until its
        // owner allocates) retain more floating garbage.
        self.max_heap_slots = 200_000;
        self
    }
}

/// Fatal interpreter error (a Ruby exception would be raised; the subset
/// treats them as run-ending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError {
    pub msg: String,
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm error: {}", self.msg)
    }
}

impl std::error::Error for VmError {}

/// A step did not complete normally. Zero-sized, so `Result<Word, VmAbort>`
/// is a [`Word`] and `Result<(), VmAbort>` a byte: the *why* is a [`Stop`]
/// parked in the VM by whoever raised this ([`Vm::fatal`], [`Vm::tx_stop`])
/// and taken by the driver that sees the `Err` ([`Vm::take_stop`]) — the
/// condition code and the diagnostic block of the hardware's abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmAbort;

const _: () = assert!(std::mem::size_of::<Result<(), VmAbort>>() == 1);

/// Why a step stopped ([`VmAbort`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// The active transaction aborted (already rolled back); the TLE
    /// runtime decides whether to retry or fall back on the GIL.
    Tx(AbortReason),
    /// Fatal error — stops the run.
    Fatal(VmError),
}

/// What a thread is blocked on (the executor parks it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockOn {
    /// Mutex held by someone else; retry the instruction on wake.
    Mutex(Addr),
    /// Waiting for a thread to finish; retry on wake.
    Join(ThreadId),
    /// Blocking I/O with a simulated latency in I/O units (the executor
    /// multiplies by the profile's `io_latency`).
    Io(u32),
    /// Waiting on a barrier; retry on wake (generation check skips
    /// re-arrival).
    Barrier(Addr),
}

/// Result of executing one bytecode.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOk {
    Normal,
    /// The thread's root frame returned; `ThreadCtx::result` holds the
    /// value.
    Finished,
    /// A new VM thread was created (already registered); the executor must
    /// schedule it.
    Spawned {
        tid: ThreadId,
    },
    /// Block the thread; the instruction will be retried on wake unless
    /// noted otherwise.
    Block(BlockOn),
}

/// Wait-queue keys the executor uses to wake parked threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeKey {
    Mutex(Addr),
    Barrier(Addr),
}

/// Registers of one Ruby thread. Everything else (stack, frames, locals)
/// lives in simulated memory so transactions roll it back automatically.
#[derive(Debug, Clone)]
pub struct ThreadCtx {
    pub tid: ThreadId,
    pub stack_base: Addr,
    pub stack_end: Addr,
    /// Current frame base.
    pub fp: Addr,
    /// Next free stack word.
    pub sp: Addr,
    pub pc: usize,
    pub iseq: IseqId,
    /// Global-pc base of `iseq` in the pre-decoded stream (cached so the
    /// fast dispatcher fetches `decoded[base + pc]` without an indirection
    /// through the iseq table). Maintained by every frame transition.
    pub base: u32,
    pub finished: bool,
    /// Heap address of the Ruby `Thread` object (0 for the main thread
    /// until materialized).
    pub thread_obj: Addr,
    pub result: Word,
    /// Barrier re-entry token: (barrier addr, generation at arrival).
    pub barrier_token: Option<(Addr, i64)>,
    /// State of this thread's `Kernel#rand` stream (xorshift, seeded by
    /// [`ThreadCtx::rand_seed`]). A register like `pc`: one stream per
    /// thread, so the draws an aborted transaction takes back are its own
    /// and no other thread's.
    pub(crate) rand_state: u64,
}

impl ThreadCtx {
    /// Seed of thread `tid`'s `Kernel#rand` stream.
    pub(crate) fn rand_seed(tid: ThreadId) -> u64 {
        0x1234_5678_9abc_def0 ^ (tid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// Register snapshot taken at transaction begin; memory words roll back
/// via the undo log, registers via this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSnapshot {
    pub fp: Addr,
    pub sp: Addr,
    pub pc: usize,
    pub iseq: IseqId,
    pub(crate) rand_state: u64,
}

/// Well-known classes created at boot (heap addresses).
#[derive(Debug, Clone, Default)]
pub struct CoreClasses {
    pub object: Addr,
    pub class_cls: Addr,
    pub integer: Addr,
    pub float_cls: Addr,
    pub string: Addr,
    pub array: Addr,
    pub hash: Addr,
    pub range: Addr,
    pub symbol: Addr,
    pub nil_cls: Addr,
    pub true_cls: Addr,
    pub false_cls: Addr,
    pub thread_cls: Addr,
    pub mutex_cls: Addr,
    pub barrier_cls: Addr,
    pub regexp: Addr,
    pub matchdata: Addr,
    pub proc_cls: Addr,
    pub math: Addr,
    pub store: Addr,
    /// The top-level `main` object.
    pub main_obj: Addr,
}

/// Ways in the per-thread lease cache, direct-mapped by cache-line number;
/// the lookup is an index-and-compare at any size. Sized by measurement
/// (EXPERIMENTS.md, "Host cost") over the accesses that consult it at
/// all: a quiescent memory serves every word of a GIL run and 41 % of
/// `webrick_xeon`'s without one. Of the rest, sixteen ways hit on 99.7 %
/// (`while_htm`), 86 % (`cg_htm`), 80 % (`webrick_xeon`) and 74 %
/// (`taskserver_htm`); most misses are the first touch after a begin or
/// commit bumped the owner's epoch, so sixty-four ways lift those to
/// 88 %, 84 % and 75 % only. They gain 1–2 % of throughput on
/// `webrick_xeon` and `cg_htm` and lose 4 % on `while_htm`, 1 % on
/// `fig4_sweep` and `taskserver_htm`, so sixteen stay.
const LEASE_WAYS: usize = 16;
const LEASE_MASK: usize = LEASE_WAYS - 1;
/// The extra way behind the cache: a thread's pair for runtime-level words
/// (yield counter, interrupt flag — the thread-struct line), kept out of
/// the mapped ways so per-instruction counter traffic cannot thrash the
/// interpreter's hot lines.
const RUNTIME_WAY: usize = LEASE_WAYS;

/// One lease-cache way: the read and write leases a thread holds for one
/// line. The modes are separate tokens because `TxMemory` accounts read
/// and write footprints independently (a write lease must not serve
/// reads, or the read set would stop growing where the per-word path
/// grows it). `logged` is the write lease's mask of words already logged,
/// reset at every grant (`TxMemory::lease_write_logged`).
#[derive(Debug, Clone, Copy)]
pub struct LeasePair {
    rd: LineLease,
    wr: LineLease,
    logged: u64,
}

impl Default for LeasePair {
    fn default() -> Self {
        LeasePair { rd: LineLease::INVALID, wr: LineLease::INVALID, logged: 0 }
    }
}

/// The virtual machine.
pub struct Vm {
    pub mem: TxMemory<Word>,
    pub layout: Layout,
    /// Line → owner map registered at layout time and extended on heap
    /// growth; the executor uses it to attribute conflicting cache lines
    /// to VM structures (paper §5.6).
    pub attribution: crate::layout::AttributionMap,
    pub config: VmConfig,
    /// Shared with every VM booted from the same text, and read-only.
    pub program: Arc<Program>,
    /// `program`'s decoded stream (two runs there, the prelude's shared),
    /// flat and this VM's own: a fetch is one indexed load off the `Vm`.
    pub(crate) code: Vec<crate::decode::DecodedInsn>,
    /// Every name this VM knows: its own layer — what boot and the running
    /// program intern (class and builtin names, `String#to_sym`) — over the
    /// program's frozen table. No other VM sees the layer; the ids are the
    /// ones a private copy of the table would have handed out.
    pub symbols: SymbolTable,
    pub threads: Vec<ThreadCtx>,
    pub classes: CoreClasses,
    /// Captured `puts` output (per-run, used as the correctness oracle).
    pub stdout: Vec<String>,
    pub gvar_map: HashMap<SymId, usize>,
    pub const_map: HashMap<SymId, usize>,
    /// Literal pool resolved to heap objects at boot (shared, frozen).
    pub pooled_objs: Vec<Word>,
    /// Slot ranges: (base addr, slot count) — grows with the heap.
    pub slot_ranges: Vec<(Addr, usize)>,
    /// Leading slots of the boot range whose initial free-list words are
    /// written down in memory; the rest hold them by definition only (see
    /// `heap`: "the initial free list").
    pub(crate) threaded: usize,
    /// Text of the image's `Str` words (see [`crate::value`]).
    pub strings: StrTable,
    /// Compiled-regex cache keyed by pattern (host-side, like onig's).
    pub regex_cache: HashMap<String, Rc<crate::regexlite::Regex>>,
    /// The regex engine's working memory, reused by every search.
    pub(crate) regex_scratch: crate::regexlite::Scratch,
    /// Where [`Vm::build_text`] assembles a new string's text.
    text_scratch: String,
    /// Memory references made since [`Vm::reset_step_counters`] — by one
    /// step or one burst of them (the executor charges cycles from this).
    pub step_mem_refs: u32,
    /// Extra native cycles requested since then (regex, store…).
    pub step_native_cost: u64,
    /// Wakes emitted by the current step (mutex unlocks, barrier
    /// releases). Like [`Vm::pending_marks`] and
    /// [`Vm::pending_method_bumps`] a per-step output: whoever drives
    /// `step` or `burst` collects all three after every call (a burst ends
    /// with the step that emits a wake or a mark). The executor publishes
    /// them outside a transaction and escrows them inside one.
    pub pending_wakes: Vec<WakeKey>,
    /// GC statistics.
    pub gc_runs: u64,
    pub heap_grows: u64,
    /// Allocation counter (paper §5.6 attributes conflicts to allocation).
    pub allocations: u64,
    /// True while the GC mark/sweep itself runs (for cycle attribution).
    pub in_gc: bool,
    /// Builtin dispatch table (ids are indices; see `builtins::install`).
    pub builtins: Vec<crate::builtins::BFn>,
    /// Heap-promoted block environments (one chain per spawned thread);
    /// permanent GC roots. See `Vm::promote_env`.
    pub promoted_envs: Vec<(Addr, usize)>,
    /// Slot-count snapshot taken at the last mark phase: thread-local
    /// sweep partitions are computed from this frozen total so mid-cycle
    /// heap growth cannot shift partition boundaries (two threads
    /// sweeping the same slot would free live objects).
    pub gc_sweep_total: usize,
    /// Values alive only in Rust locals during the current step (popped
    /// operands being assembled into a new aggregate, a Proc in flight to
    /// a builtin, regex group strings…). The GC treats them as roots —
    /// the role CRuby's conservative C-stack scan plays. Cleared at the
    /// start of every step.
    pub temp_roots: Vec<Word>,
    /// Deterministic connection-latency model behind `Kernel#conn_wait`.
    pub conn: machine_sim::ConnModel,
    /// Server-scenario marks (`Kernel#srv_mark`: kind, task id) emitted by
    /// the current step.
    pub pending_marks: Vec<(u8, i64)>,
    /// Superinstruction gate: a decoded insn whose fusion bits intersect
    /// this mask may execute its fused pair in one step. The executor only
    /// raises it when fusion is invisible (single live thread, no active
    /// transaction, no trace sink); 0 disables fusion entirely.
    pub fuse_allowed: u8,
    /// Bytecodes retired since [`Vm::reset_step_counters`]: 1 per step, 2
    /// for a fused pair; the executor folds this into committed-insn
    /// accounting and cycle charging so fusion stays invisible.
    pub step_insns: u32,
    /// The profile's cycles per retired bytecode and per memory reference.
    step_unit: [u64; 2],
    /// Committed global method-table version. A versioned inline cache is
    /// valid only if the version half of its guard word matches
    /// [`Vm::effective_method_version`]; bumped when a method definition
    /// shadows or replaces a resolvable one.
    pub method_version: u32,
    /// Version bumps made by the current step (the method-table words
    /// themselves are simulated memory and roll back via the undo log).
    pub pending_method_bumps: u32,
    /// Version bumps the running thread's open transaction has made in
    /// earlier steps — a per-step input like [`Vm::fuse_allowed`], set by
    /// the executor from that transaction's escrow (0 outside one), so a
    /// thread sees its own uncommitted redefinitions and nobody else's.
    pub tx_method_bumps: u32,
    /// Per-thread line leases: [`LEASE_WAYS`] ways direct-mapped by line
    /// number for the interpreter, then [`RUNTIME_WAY`]. Stale entries are
    /// harmless — validity is re-checked against the memory's epoch on
    /// every use.
    pub(crate) leases: Vec<[LeasePair; LEASE_WAYS + 1]>,
    /// False when the batched lease path is disabled
    /// ([`VmConfig::force_word_access`], or `refcount_writes` — whose
    /// extra traffic per store needs the full path anyway): a miss then
    /// stores no lease, so every cached one stays `INVALID` and never hits.
    pub(crate) use_leases: bool,
    /// Why the call that just returned `Err(VmAbort)` stopped: parked by
    /// [`Vm::fatal`]/[`Vm::tx_stop`], empty again once the driver took it.
    /// Not speculative state — an abort parks it after the rollback.
    pub(crate) stop: Option<Stop>,
}

impl Drop for Vm {
    /// Hand the memory's buffers to the thread's spare slot — reset page by
    /// dirty page — instead of walking and freeing every word.
    fn drop(&mut self) {
        let image = self.mem.take_image(Word::Uninit);
        // A VM that outlives the thread-local frees its buffers instead.
        let _ = SPARE_IMAGE.try_with(|s| s.replace(Some(image)));
    }
}

impl Vm {
    /// Build a VM for `source`, compiled against the prelude, sized by
    /// `config`, with the cache geometry of `profile`.
    pub fn boot(
        source: &str,
        config: VmConfig,
        profile: &MachineProfile,
    ) -> Result<Vm, CompileError> {
        let (program, prelude_iseq, main_iseq) = Program::compiled(source)?;

        let line_words = profile.cache.line_words();
        let ic_copies = if config.thread_local_ics { config.max_threads } else { 1 };
        let layout = Layout::new(
            line_words,
            program.ic_count as usize,
            config.max_threads,
            config.heap_slots,
            config.malloc_words,
            config.padded_thread_structs,
            ic_copies,
        );
        let spare = SPARE_IMAGE.with(|s| s.borrow_mut().take());
        let mem = TxMemory::recycled(
            spare,
            layout.total_words,
            line_words,
            config.max_threads,
            Word::Uninit,
        );
        let attribution = crate::layout::AttributionMap::from_layout(&layout);
        let config_slots = config.heap_slots;
        let conn_seed = config.conn_seed;
        let use_leases = !config.force_word_access && !config.refcount_writes;
        let leases = vec![[LeasePair::default(); LEASE_WAYS + 1]; config.max_threads];
        let mut vm = Vm {
            mem,
            layout,
            attribution,
            config,
            symbols: SymbolTable::over(Arc::clone(&program.symbols)),
            code: program.decoded().collect(),
            program,
            threads: Vec::new(),
            classes: CoreClasses::default(),
            stdout: Vec::new(),
            gvar_map: HashMap::new(),
            const_map: HashMap::new(),
            pooled_objs: Vec::new(),
            slot_ranges: Vec::new(),
            threaded: 0,
            strings: StrTable::default(),
            regex_cache: HashMap::new(),
            regex_scratch: Default::default(),
            text_scratch: String::new(),
            step_mem_refs: 0,
            step_native_cost: 0,
            pending_wakes: Vec::new(),
            gc_runs: 0,
            heap_grows: 0,
            allocations: 0,
            in_gc: false,
            builtins: Vec::new(),
            promoted_envs: Vec::new(),
            gc_sweep_total: config_slots,
            temp_roots: Vec::new(),
            conn: machine_sim::ConnModel::new(conn_seed),
            pending_marks: Vec::new(),
            fuse_allowed: 0,
            step_insns: 1,
            step_unit: [profile.cost.dispatch, profile.cost.mem_ref],
            method_version: 0,
            pending_method_bumps: 0,
            tx_method_bumps: 0,
            leases,
            use_leases,
            stop: None,
        };
        vm.init_memory();
        vm.bootstrap_classes()?;
        vm.alloc_literal_pool()?;
        // Main thread runs the prelude first, then the program: chain by
        // running the prelude to completion synchronously at boot (it only
        // defines methods — cheap and conflict-free).
        vm.spawn_main(prelude_iseq);
        vm.run_to_completion_single(0).map_err(|VmAbort| CompileError {
            msg: format!("prelude failed: {:?}", vm.take_stop()),
        })?;
        // Reset the main thread onto the real program.
        vm.reset_thread(0, main_iseq);
        Ok(vm)
    }

    /// Initialize heap metadata and the free-list head.
    fn init_memory(&mut self) {
        let l = &self.layout;
        self.mem.poke(l.gil, Word::Int(0));
        self.mem.poke(l.running_thread, Word::Int(-1));
        // Nothing is sweepable until a mark phase has run: an unmarked
        // object is only garbage *after* GC marked the live ones.
        self.mem.poke(l.sweep_cursor, Word::Int(l.initial_slots as i64));
        self.mem.poke(l.malloc_bump, Word::Int(l.malloc_base as i64));
        self.mem.poke(l.malloc_end, Word::Int((l.malloc_base + l.malloc_words) as i64));
        for c in 0..crate::layout::MALLOC_CLASSES {
            self.mem.poke(l.malloc_class_base + c, Word::Int(0));
        }
        // Every slot is on the global free list, in address order; the
        // links themselves are written on demand (`Vm::thread_slots`).
        let base = l.slots_base;
        let n = l.initial_slots;
        self.slot_ranges.push((base, n));
        self.mem.poke(l.free_head, Word::Int(if n > 0 { base as i64 } else { 0 }));
        // Thread structs.
        for t in 0..l.max_threads {
            let s = l.thread_struct(t);
            self.mem.poke(s + ts::YIELD_COUNTER, Word::Int(0));
            self.mem.poke(s + ts::INTERRUPT, Word::Int(0));
            self.mem.poke(s + ts::TL_FREE_HEAD, Word::Int(0));
            self.mem.poke(s + ts::TL_MALLOC_BUMP, Word::Int(0));
            self.mem.poke(s + ts::TL_MALLOC_END, Word::Int(0));
            // Like the shared cursor: nothing is sweepable until a mark
            // phase has run, so park the cursor past the heap.
            self.mem.poke(s + ts::TL_SWEEP_CURSOR, Word::Int(l.initial_slots as i64));
            self.mem.poke(s + ts::SCRATCH, Word::Int(0));
            self.mem.poke(s + ts::RESERVED, Word::Int(0));
        }
    }

    /// Resolve pooled literals into shared heap objects.
    fn alloc_literal_pool(&mut self) -> Result<(), CompileError> {
        for i in 0..self.program.pooled.len() {
            let PoolLiteral::Float(f) = self.program.pooled[i];
            let slot = self.alloc_slot_boot("the literal pool")?;
            self.mem.poke(slot, Word::hdr(ObjKind::Float, false));
            self.mem.poke(slot + 1, Word::float(f));
            self.pooled_objs.push(Word::Obj(slot));
        }
        Ok(())
    }

    /// Register the main thread.
    fn spawn_main(&mut self, iseq: IseqId) {
        assert!(self.threads.is_empty());
        let (stack_base, stack_end) = self.layout.thread_stack(0);
        let mut ctx = ThreadCtx {
            tid: 0,
            stack_base,
            stack_end,
            fp: stack_base,
            sp: stack_base,
            pc: 0,
            iseq,
            base: self.program.base(iseq),
            finished: false,
            thread_obj: 0,
            result: Word::Nil,
            barrier_token: None,
            rand_state: ThreadCtx::rand_seed(0),
        };
        self.push_root_frame(&mut ctx, iseq, Word::Obj(self.classes.main_obj), 0, 0);
        self.threads.push(ctx);
    }

    /// Point an existing (finished) thread at a fresh iseq — used to chain
    /// prelude → program on the main thread.
    fn reset_thread(&mut self, tid: ThreadId, iseq: IseqId) {
        let (stack_base, stack_end) = self.layout.thread_stack(tid);
        let main_obj = self.classes.main_obj;
        let ctx = &mut self.threads[tid];
        ctx.stack_base = stack_base;
        ctx.stack_end = stack_end;
        ctx.fp = stack_base;
        ctx.sp = stack_base;
        ctx.pc = 0;
        ctx.iseq = iseq;
        ctx.base = self.program.base(iseq);
        ctx.finished = false;
        ctx.result = Word::Nil;
        let mut ctx = self.threads[tid].clone();
        self.push_root_frame(&mut ctx, iseq, Word::Obj(main_obj), 0, 0);
        self.threads[tid] = ctx;
    }

    /// Run thread `tid` to completion without transactions or scheduling —
    /// boot-time only (prelude execution).
    fn run_to_completion_single(&mut self, tid: ThreadId) -> Result<(), VmAbort> {
        // Single-threaded, transaction-free: superinstructions are
        // unobservable here, so always allow them.
        self.fuse_allowed = crate::decode::FUSE_ANY;
        let mut outcome = None;
        for _ in 0..50_000_000u64 {
            match self.step(tid) {
                Ok(StepOk::Normal) => continue,
                other => outcome = Some(other),
            }
            break;
        }
        self.fuse_allowed = 0;
        self.publish_method_bumps();
        match outcome {
            Some(Ok(StepOk::Finished)) => Ok(()),
            Some(Err(stopped)) => Err(stopped),
            Some(Ok(_)) => Err(self.fatal("prelude must not spawn or block")),
            None => Err(self.fatal("prelude did not terminate")),
        }
    }

    /// Take a register snapshot (transaction begin).
    pub fn snapshot(&self, tid: ThreadId) -> RegSnapshot {
        let c = &self.threads[tid];
        RegSnapshot { fp: c.fp, sp: c.sp, pc: c.pc, iseq: c.iseq, rand_state: c.rand_state }
    }

    /// Restore registers after an abort (memory already rolled back).
    pub fn restore(&mut self, tid: ThreadId, s: RegSnapshot) {
        let base = self.program.base(s.iseq);
        let c = &mut self.threads[tid];
        c.fp = s.fp;
        c.sp = s.sp;
        c.pc = s.pc;
        c.iseq = s.iseq;
        c.base = base;
        c.rand_state = s.rand_state;
    }

    // ---- memory access helpers (count refs for cycle charging) ----------
    //
    // Every word access of the interpreter and the runtime funnels through
    // `read_word`/`write_word`; the memory's state picks the tier (module
    // doc). `step_mem_refs` is counted before that choice, so simulated
    // cycle charges (and with them every figure golden) are byte-identical
    // whichever tier serves the access.

    /// One counted read. `TIMED` accesses are the interpreter's: they
    /// charge `step_mem_refs` and lease through the way cache. Untimed
    /// ones are the runtime's (yield counter, interrupt flag — the
    /// executor charges their cycles itself) and lease through
    /// [`RUNTIME_WAY`].
    #[inline(always)]
    pub(crate) fn read_word<const TIMED: bool, R>(
        &mut self,
        t: ThreadId,
        addr: Addr,
        f: impl FnOnce(&Word) -> R,
    ) -> Result<R, AbortReason> {
        if TIMED {
            self.step_mem_refs += 1;
        }
        if self.mem.quiescent() {
            return self.mem.read_with(t, addr, f);
        }
        let line = self.mem.line_of(addr);
        let way = if TIMED { line & LEASE_MASK } else { RUNTIME_WAY };
        let lease = &self.leases[t][way].rd;
        if self.mem.lease_valid(lease) && lease.covers(line) {
            return Ok(self.mem.lease_read_with(lease, addr, f));
        }
        self.read_miss(t, addr, way).map(|w| f(&w))
    }

    /// Tier 2 of a read: the full access, then a lease for the next one.
    #[cold]
    #[inline(never)]
    fn read_miss(&mut self, t: ThreadId, addr: Addr, way: usize) -> Result<Word, AbortReason> {
        let w = self.mem.read(t, addr)?;
        if self.use_leases {
            self.leases[t][way].rd = self.mem.try_lease(t, addr, false);
        }
        Ok(w)
    }

    /// One counted write; tiers and `TIMED` as in [`Self::read_word`].
    #[inline(always)]
    pub(crate) fn write_word<const TIMED: bool>(
        &mut self,
        t: ThreadId,
        addr: Addr,
        w: Word,
    ) -> Result<(), AbortReason> {
        if TIMED {
            self.step_mem_refs += 1;
        }
        let line = self.mem.line_of(addr);
        let way = if TIMED { line & LEASE_MASK } else { RUNTIME_WAY };
        if self.mem.quiescent() {
            if TIMED && self.config.refcount_writes {
                return self.write_miss(t, addr, w, way);
            }
            return self.mem.write(t, addr, w);
        }
        let pair = &mut self.leases[t][way];
        if self.mem.lease_valid(&pair.wr) && pair.wr.covers(line) {
            self.mem.lease_write_logged(&pair.wr, &mut pair.logged, addr, w);
            return Ok(());
        }
        self.write_miss(t, addr, w, way)
    }

    /// Tier 2 of a write — and the whole of an interpreter write under
    /// `refcount_writes`, which holds no lease and skips tier 0: a store
    /// CPython-style also reads the word it replaces and touches the
    /// referents' count words (see `extensions`).
    #[cold]
    #[inline(never)]
    fn write_miss(
        &mut self,
        t: ThreadId,
        addr: Addr,
        w: Word,
        way: usize,
    ) -> Result<(), AbortReason> {
        if way != RUNTIME_WAY && self.config.refcount_writes {
            // The caller's charge pays for this read; the write's follows.
            let old = self.mem.read(t, addr)?;
            if matches!(old, Word::Obj(_)) || matches!(w, Word::Obj(_)) {
                self.refcount_store(t, &old, &w)?;
            }
            self.step_mem_refs += 1;
        }
        self.mem.write(t, addr, w)?;
        if self.use_leases {
            let wr = self.mem.try_lease(t, addr, true);
            let pair = &mut self.leases[t][way];
            pair.wr = wr;
            pair.logged = self.mem.logged_on_grant(&wr, addr);
        }
        Ok(())
    }

    /// Stop with a fatal error: park the message, hand back the `Err`
    /// payload (`return Err(vm.fatal(..))`, `.ok_or_else(|| vm.fatal(..))`).
    #[cold]
    #[inline(never)]
    pub fn fatal(&mut self, msg: impl Into<String>) -> VmAbort {
        self.stop = Some(Stop::Fatal(VmError { msg: msg.into() }));
        VmAbort
    }

    /// Stop because `t`'s transaction aborted (already rolled back): the
    /// cold side of every access helper below.
    #[cold]
    #[inline(never)]
    pub(crate) fn tx_stop(&mut self, reason: AbortReason) -> VmAbort {
        self.stop = Some(Stop::Tx(reason));
        VmAbort
    }

    /// Stop because `t` attempted what no transaction may contain (GC, heap
    /// growth, blocking I/O): abort its transaction, park the reason.
    pub(crate) fn restricted(&mut self, t: ThreadId) -> VmAbort {
        let reason = self.mem.abort_restricted(t);
        self.tx_stop(reason)
    }

    /// The reason behind the `Err(VmAbort)` just seen, leaving none parked.
    /// `None` for an `Err` nobody parked a reason for: a bug in whoever
    /// raised it, for the driver to report.
    pub fn take_stop(&mut self) -> Option<Stop> {
        self.stop.take()
    }

    #[inline(always)]
    pub fn rd(&mut self, t: ThreadId, addr: Addr) -> Result<Word, VmAbort> {
        self.read_word::<true, _>(t, addr, |w| *w).map_err(|r| self.tx_stop(r))
    }

    /// [`Self::rd`] without the `step_mem_refs` charge — for runtime-level
    /// accesses (yield counters, interrupt flags) whose cycle cost the
    /// executor charges explicitly. Still one counted statistics access.
    #[inline]
    pub fn rd_untimed(&mut self, t: ThreadId, addr: Addr) -> Result<Word, AbortReason> {
        self.read_word::<false, _>(t, addr, |w| *w)
    }

    /// Read that classifies the word in place: `Ok(i)` for an immediate
    /// integer, `Err(word)` otherwise — one counted access either way. The
    /// arithmetic/compare superinstructions use it to reach the
    /// `(Int, Int)` fast lane.
    #[inline(always)]
    pub fn rd_int(&mut self, t: ThreadId, addr: Addr) -> Result<Result<i64, Word>, VmAbort> {
        self.read_word::<true, _>(t, addr, |w| w.as_int().ok_or(*w)).map_err(|r| self.tx_stop(r))
    }

    #[inline(always)]
    pub fn wr(&mut self, t: ThreadId, addr: Addr, w: Word) -> Result<(), VmAbort> {
        self.write_word::<true>(t, addr, w).map_err(|r| self.tx_stop(r))
    }

    /// [`Self::wr`] without the `step_mem_refs` charge (and without the
    /// `refcount_writes` hook, which no runtime-level word participates
    /// in) — the write-side companion of [`Self::rd_untimed`].
    #[inline]
    pub fn wr_untimed(&mut self, t: ThreadId, addr: Addr, w: Word) -> Result<(), AbortReason> {
        self.write_word::<false>(t, addr, w)
    }

    /// Address of inline-cache site `site` as seen by thread `t`
    /// (per-thread copies under the `thread_local_ics` extension).
    #[inline]
    pub fn ic_addr(&self, t: ThreadId, site: u32) -> Addr {
        if self.layout.ic_copies > 1 {
            self.layout.ic_base + 2 * (t * self.layout.ic_count + site as usize)
        } else {
            self.layout.ic(site)
        }
    }

    /// Assemble the text of a new string in the VM's reused buffer and
    /// share it: the one host allocation a string-making bytecode makes.
    pub(crate) fn build_text(
        &mut self,
        fill: impl FnOnce(&mut Vm, &mut String) -> Result<(), VmAbort>,
    ) -> Result<Arc<str>, VmAbort> {
        let mut buf = std::mem::take(&mut self.text_scratch);
        buf.clear();
        let text = fill(self, &mut buf).map(|()| Arc::from(&*buf));
        self.text_scratch = buf;
        text
    }

    /// Cycles the steps since [`Self::reset_step_counters`] cost: what the
    /// executor charges, and what [`Self::burst`] holds against its budget.
    pub fn step_cost(&self) -> u64 {
        self.step_unit[0] * u64::from(self.step_insns)
            + self.step_unit[1] * u64::from(self.step_mem_refs)
            + self.step_native_cost
    }

    /// Begin-of-step bookkeeping; returns counters for the executor.
    pub fn reset_step_counters(&mut self) {
        self.step_mem_refs = 0;
        self.step_native_cost = 0;
        self.step_insns = 1;
        self.temp_roots.clear();
    }

    /// Flag byte of the next instruction thread `t` will execute — the
    /// executor's one-load yield-point / fusion query.
    #[inline]
    pub fn insn_flags(&self, t: ThreadId) -> u8 {
        let c = &self.threads[t];
        self.code[c.base as usize + c.pc].flags
    }

    /// Method-table version as seen by the running step: the committed
    /// version plus the running thread's own uncommitted bumps.
    #[inline]
    pub fn effective_method_version(&self) -> u32 {
        self.method_version
            .wrapping_add(self.tx_method_bumps)
            .wrapping_add(self.pending_method_bumps)
    }

    /// Make the last step's version bumps the committed version — for a
    /// driver that runs no transactions (boot, a VM-only loop).
    #[inline]
    pub fn publish_method_bumps(&mut self) {
        let bumps = std::mem::take(&mut self.pending_method_bumps);
        self.method_version = self.method_version.wrapping_add(bumps);
    }

    /// Deterministic xorshift for `rand`: the next draw of `t`'s stream.
    pub(crate) fn next_rand(&mut self, t: ThreadId) -> u64 {
        let mut x = self.threads[t].rand_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.threads[t].rand_state = x;
        x
    }

    /// All output produced via `puts` so far, joined by newlines.
    pub fn stdout_text(&self) -> String {
        self.stdout.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_big_heap_all_removals() {
        let c = VmConfig::default();
        assert!(c.thread_local_free_lists);
        assert!(c.method_ic_fill_once);
        assert!(c.ivar_ic_table_guard);
        assert!(c.padded_thread_structs);
        assert!(c.heap_slots >= 10_000);
    }

    #[test]
    fn original_cruby_config_strips_removals() {
        let c = VmConfig::default().original_cruby();
        assert!(!c.thread_local_free_lists);
        assert!(!c.malloc_thread_local);
        assert!(!c.method_ic_fill_once);
        assert!(!c.ivar_ic_table_guard);
        assert!(!c.padded_thread_structs);
    }

    #[test]
    fn boot_runs_prelude_and_compiles_program() {
        let vm = Vm::boot("1 + 1", VmConfig::default(), &MachineProfile::generic(2)).unwrap();
        assert_eq!(vm.threads.len(), 1);
        assert!(!vm.threads[0].finished);
        // Core classes materialized.
        assert_ne!(vm.classes.object, 0);
        assert_ne!(vm.classes.integer, 0);
        assert_ne!(vm.classes.thread_cls, 0);
    }

    /// A heap the boot image does not fit in is a configuration error the
    /// caller gets back, wherever the boot free list runs dry.
    #[test]
    fn boot_on_too_small_a_heap_is_an_error_not_a_panic() {
        let floats = "x = 0.5 + 1.5 + 2.5 + 3.5 + 4.5 + 5.5 + 6.5 + 7.5 + 8.5 + 9.5";
        let boot = |heap_slots| {
            let cfg = VmConfig { heap_slots, ..VmConfig::default() };
            Vm::boot(floats, cfg, &MachineProfile::generic(2)).map(|_| ())
        };
        for (slots, dry_at) in [(0, "core classes"), (8, "core classes"), (24, "literal pool")] {
            let err = boot(slots).expect_err("the boot image cannot fit");
            assert!(err.msg.contains("heap too small"), "{slots} slots: {err}");
            assert!(err.msg.contains(dry_at), "{slots} slots: {err}");
        }
        assert_eq!(boot(64), Ok(()));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut vm = Vm::boot("x = 1", VmConfig::default(), &MachineProfile::generic(2)).unwrap();
        let snap = vm.snapshot(0);
        vm.threads[0].pc = 99;
        vm.threads[0].sp += 5;
        vm.restore(0, snap);
        assert_eq!(vm.threads[0].pc, snap.pc);
        assert_eq!(vm.threads[0].sp, snap.sp);
    }
}
