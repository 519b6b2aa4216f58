//! # htm-gil-core
//!
//! The paper's primary contribution, implemented over the `ruby-vm` +
//! `htm-sim` + `machine-sim` substrates:
//!
//! * **Transactional Lock Elision of the GIL** (paper §4.1, Figs. 1–2):
//!   interpreter slices between yield points run as hardware transactions
//!   that subscribe to the GIL word; aborted transactions retry and then
//!   fall back on the real GIL, which remains the safety net for GC,
//!   blocking operations and persistent aborts.
//! * **Dynamic per-yield-point transaction-length adjustment** (§4.3,
//!   Fig. 3): each yield point learns how many subsequent yield points its
//!   transactions may skip; lengths shrink geometrically (×0.75) while the
//!   site's abort ratio exceeds the machine's target (1 % on zEC12, 6 % on
//!   the Xeon) during a profiling period of 300 transactions.
//! * **Extended yield points** (§4.2): in HTM modes, `getlocal`,
//!   `getinstancevariable`, `getclassvariable`, `send`, `opt_plus`,
//!   `opt_minus`, `opt_mult` and `opt_aref` are yield points in addition
//!   to CRuby's loop back-edges and method/block exits.
//! * **Execution modes** for every baseline the paper compares against:
//!   the original GIL with its 250 ms timer thread, fixed transaction
//!   lengths (HTM-1/-16/-256), HTM-dynamic, a JRuby-like fine-grained
//!   locking VM, and an "ideal VM" (Java-NPB-like) with no VM-internal
//!   sharing.
//!
//! The [`exec::Executor`] drives everything deterministically over the
//! discrete-event scheduler and produces a [`report::RunReport`] with the
//! cycle breakdowns, abort statistics and throughput numbers each figure
//! of the paper needs.

pub mod config;
pub mod exec;
pub mod explore;
pub mod gil;
pub mod json;
pub mod latency;
pub mod locks;
pub mod oracle;
pub mod report;
pub mod tle;

pub use config::{ExecConfig, LengthPolicy, RuntimeMode, TleConstants, YieldPolicy};
pub use exec::{Executor, RunError};
pub use explore::{
    check_path, gil_expected, mismatch_of, run_path, shrink, ExploreTarget, PathRun, ShrinkResult,
};
pub use json::Json;
pub use latency::{LatencyRecorder, LatencyStats, QueueWindow, TaskLatencyReport};
pub use oracle::{check_against_gil, heap_digest, Expected, OracleVerdict};
pub use report::{Category, ConflictSite, CycleBreakdown, RunReport};
pub use tle::{LengthTables, SiteProfile, SubscriptionPolicy};
