//! # htm-gil
//!
//! Facade crate for the HTM-GIL reproduction of *Odaira, Castanos &
//! Tomari, "Eliminating Global Interpreter Locks in Ruby through Hardware
//! Transactional Memory" (PPoPP 2014)*.
//!
//! Re-exports the workspace's public API so examples and downstream users
//! need a single dependency:
//!
//! ```
//! use htm_gil::{Executor, ExecConfig, RuntimeMode, LengthPolicy, MachineProfile, VmConfig};
//!
//! let profile = MachineProfile::generic(4);
//! let cfg = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Dynamic }, &profile);
//! let mut ex = Executor::new("puts(1 + 1)", VmConfig::default(), profile, cfg).unwrap();
//! let report = ex.run().unwrap();
//! assert_eq!(report.stdout, "2");
//! ```
//!
//! Layer map (bottom-up):
//!
//! * [`machine`] — discrete-event multicore simulator and machine
//!   profiles (zEC12, Xeon E3-1275 v3);
//! * [`htm`] — best-effort transactional memory over a word-addressed
//!   heap (read/write sets, requester-wins conflicts, capacity aborts,
//!   the Intel learning predictor);
//! * [`lang`] / [`vm`] — the Ruby-subset front-end and the CRuby-1.9-like
//!   bytecode VM (slot heap, free lists, GC, inline caches, threads);
//! * [`core`] — **the paper's contribution**: GIL elision through
//!   transactional lock elision with dynamic per-yield-point transaction
//!   lengths, plus the GIL/fine-grained/ideal baselines;
//! * [`bench_workloads`] — the evaluation programs (micro, NPB, WEBrick,
//!   Rails, write-set probe);
//! * [`stats`] — series/tables/charts for the figure harnesses.

pub use htm_gil_core as core;
pub use htm_gil_stats as stats;
pub use htm_sim as htm;
pub use machine_sim as machine;
pub use ruby_lang as lang;
pub use ruby_vm as vm;
pub use workloads as bench_workloads;

pub use htm_gil_core::{
    ExecConfig, Executor, LengthPolicy, RunReport, RuntimeMode, SubscriptionPolicy, YieldPolicy,
};
pub use htm_sim::{FaultPlan, SpuriousCause};
pub use machine_sim::{MachineProfile, SchedPath};
pub use ruby_vm::VmConfig;
pub use workloads::Workload;
