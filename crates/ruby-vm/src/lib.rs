//! # ruby-vm
//!
//! A from-scratch reimplementation of the parts of CRuby 1.9.3 that the
//! paper's GIL-elision experiments exercise: a compiler that emits YARV-like
//! stack bytecode as one flat stream of fixed-width instructions, the one
//! format the interpreter runs ([`decode`]), a slot heap with free-list
//! allocation and mark-&-lazy-sweep GC, method/ivar inline caches with the
//! paper's original and improved policies, Ruby threads with
//! `Mutex`/`Barrier`, and the builtin classes the workloads need (including
//! a small regex engine and a tiny relational store for the Rails model).
//!
//! ## The memory discipline that makes the reproduction work
//!
//! Every piece of shared VM state — the slot heap, malloc'd buffers, global
//! variables, constants, inline caches, class method tables, free-list
//! heads, per-thread structs, and even each thread's call stack — lives in
//! one simulated word-addressed [`htm_sim::TxMemory`]. Every interpreter
//! load and store goes through it, so:
//!
//! * transactions accumulate *exactly* the cache-line footprint the real
//!   interpreter would (stack writes included — the reason the paper's
//!   original coarse yield points overflow the zEC12's 8 KB write budget);
//! * the paper's conflict hot spots exist at real addresses: the global
//!   free-list head, inline-cache words, the running-thread global,
//!   malloc metadata, unpadded thread structs sharing a cache line;
//! * aborting a transaction restores interpreter state exactly (the stack
//!   words roll back via the undo log; the thread's registers are
//!   snapshotted by the TLE runtime).
//!
//! One deliberate simplification: string *content* is kept host-side, in the
//! VM's string table (see [`value`]), but every string carries a "shadow
//! buffer" in simulated memory sized to its byte length, and string/regex
//! operations touch that buffer — so string-heavy code (WEBrick parsing,
//! Rails templating) generates the same footprint (and the same overflow
//! aborts) it does in CRuby. See DESIGN.md §2.
//!
//! The crate is driven a burst of bytecodes at a time by the `core`
//! crate's executor ([`vm::Vm::burst`]); it never blocks the host thread.

pub mod builtins;
pub mod bytecode;
pub mod compile;
pub mod decode;
pub mod extensions;
pub mod heap;
pub mod interp;
pub mod layout;
pub mod object;
pub mod prelude;
pub mod program;
pub mod regexlite;
pub mod store;
pub mod symbols;
pub mod value;
pub mod vm;

pub use bytecode::{ISeq, IseqId};
pub use layout::{AttributionMap, LineOwner};
pub use program::Program;
pub use symbols::{SymId, SymbolTable};
pub use value::{ObjHeader, ObjKind, StrId, Word};
pub use vm::{BlockOn, StepOk, Stop, ThreadCtx, Vm, VmAbort, VmConfig, VmError};
