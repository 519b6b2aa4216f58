//! Machine profiles: topology, cache geometry, HTM capacities, cycle costs.
//!
//! The two concrete profiles mirror the machines of the paper's §2.2 /
//! §5.2. Absolute cycle numbers are a scaled model (the authors' testbeds
//! are unavailable); what matters for reproducing the figures is the
//! *relative* cost structure — e.g. that beginning a transaction costs a few
//! dozen cycles, that a GIL handoff is far more expensive than that, and
//! that blocking I/O dwarfs both.

use crate::Cycles;

/// Cache geometry relevant to best-effort HTM: line size and the effective
/// read-/write-set capacity budgets.
///
/// Paper §2.2: on zEC12 the read set is bounded by the 1 MB L2 and the write
/// set by the 8 KB gathering store cache; on the Xeon E3-1275 v3 the
/// measured maxima were ≈6 MB (read) and ≈19 KB (write). SMT siblings share
/// the L1, halving both budgets when the sibling hardware thread is busy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Cache-line size in bytes (256 on zEC12, 64 on the Xeon).
    pub line_bytes: usize,
    /// Maximum bytes of distinct lines a transaction may read.
    pub read_set_bytes: usize,
    /// Maximum bytes of distinct lines a transaction may write.
    pub write_set_bytes: usize,
}

impl CacheGeometry {
    /// Number of simulated words per cache line.
    pub fn line_words(&self) -> usize {
        self.line_bytes / crate::WORD_BYTES
    }

    /// `log2(line_words())` — all profile line sizes are powers of two, so
    /// address→line is a shift by this amount (as in the memory's
    /// ownership directory).
    pub fn line_shift(&self) -> u32 {
        debug_assert!(self.line_words().is_power_of_two());
        self.line_words().trailing_zeros()
    }

    /// Read-set budget expressed in whole cache lines.
    pub fn read_set_lines(&self) -> usize {
        self.read_set_bytes / self.line_bytes
    }

    /// Write-set budget expressed in whole cache lines.
    pub fn write_set_lines(&self) -> usize {
        self.write_set_bytes / self.line_bytes
    }
}

/// Behavioural quirks of a machine's HTM implementation beyond raw capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct HtmCharacteristics {
    /// Intel's undocumented "learning" behaviour (paper §5.4, Fig. 6a): the
    /// CPU eagerly aborts transactions that recently overflowed, and its
    /// confidence decays only gradually, so success ratios recover slowly
    /// after the working set shrinks.
    pub learning_predictor: bool,
    /// How many failed attempts the predictor needs to forget an overflow
    /// (controls the ~5000-iteration recovery ramp of Fig. 6a).
    pub predictor_memory: u32,
    /// `ADJUSTMENT_THRESHOLD` of the paper's Fig. 3 — aborts tolerated per
    /// `PROFILING_PERIOD` (300) transactions: 3 on zEC12, 18 on the Xeon,
    /// the paper's §5.1 target abort ratios of 1 % and 6 % — a property of
    /// the HTM implementation's abort cost, not of the application.
    pub adjustment_threshold: u32,
}

/// Cycle costs of the primitive operations the interpreter and the TLE
/// runtime execute. One simulated cycle ≈ one CPU cycle at the machine's
/// nominal clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Base cost of decoding + dispatching one bytecode instruction.
    pub dispatch: Cycles,
    /// Cost of one simulated-memory word reference (read or write).
    pub mem_ref: Cycles,
    /// `TBEGIN`/`XBEGIN` plus the surrounding bookkeeping of Fig. 1.
    pub tbegin: Cycles,
    /// `TEND`/`XEND`.
    pub tend: Cycles,
    /// Hardware cost of an abort (discard + restore), *excluding* the wasted
    /// work inside the transaction, which the simulator accounts separately.
    pub abort_penalty: Cycles,
    /// Successful compare-and-swap acquiring the GIL.
    pub gil_acquire: Cycles,
    /// Releasing the GIL (store + possible waiter wake-up).
    pub gil_release: Cycles,
    /// Bound on spinning before a waiter re-checks its retry budget.
    pub spin_bound: Cycles,
    /// `sched_yield()` system call (GIL-mode yield points only).
    pub sched_yield: Cycles,
    /// OS context switch when threads are multiplexed over cores.
    pub context_switch: Cycles,
    /// Blocked GIL waiter park/unpark round trip (futex-style).
    pub gil_wait_wakeup: Cycles,
    /// Default latency of a blocking I/O operation (socket read/write in the
    /// WEBrick/Rails models).
    pub io_latency: Cycles,
    /// Interval of CRuby's 250 ms timer thread, scaled to simulated cycles.
    /// Under the GIL a running thread only yields when the timer flag is
    /// set (paper §3.2).
    pub timer_interval: Cycles,
}

/// A complete simulated machine: topology + caches + HTM behaviour + costs.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Human-readable name used in reports ("zEC12", "Xeon E3-1275 v3").
    pub name: &'static str,
    /// Physical cores.
    pub cores: usize,
    /// Hardware threads per core (1 on zEC12, 2 on the Xeon).
    pub smt_per_core: usize,
    /// Cache/HTM capacity geometry.
    pub cache: CacheGeometry,
    /// HTM behavioural model.
    pub htm: HtmCharacteristics,
    /// Cycle cost table.
    pub cost: CostModel,
}

impl MachineProfile {
    /// Total hardware threads (cores × SMT).
    pub fn hw_threads(&self) -> usize {
        self.cores * self.smt_per_core
    }

    /// IBM zEnterprise EC12 LPAR as configured in the paper: 12 dedicated
    /// cores, no SMT, 256-byte lines, ≈8 KB write-set / ≈1 MB read-set HTM
    /// budgets, no learning predictor, 1 % target abort ratio.
    pub fn zec12() -> Self {
        MachineProfile {
            name: "zEC12",
            cores: 12,
            smt_per_core: 1,
            cache: CacheGeometry {
                line_bytes: 256,
                // Scaled capacity model: the real machine allows ~1 MB of
                // read set; the simulated heap is itself scaled down by
                // roughly the same factor as the workloads, so the budget
                // keeps the same *ratio* to per-transaction footprints.
                read_set_bytes: 128 * 1024,
                write_set_bytes: 8 * 1024,
            },
            htm: HtmCharacteristics {
                learning_predictor: false,
                predictor_memory: 0,
                adjustment_threshold: 3,
            },
            cost: CostModel::default_5ghz_class(),
        }
    }

    /// Intel Xeon E3-1275 v3 (4th Generation Core, Haswell): 4 cores × 2
    /// SMT, 64-byte lines, ≈19 KB write-set / ≈6 MB read-set budgets, the
    /// learning abort predictor of Fig. 6a, 6 % target abort ratio.
    pub fn xeon_e3_1275_v3() -> Self {
        MachineProfile {
            name: "Xeon E3-1275 v3",
            cores: 4,
            smt_per_core: 2,
            cache: CacheGeometry {
                line_bytes: 64,
                read_set_bytes: 768 * 1024,
                write_set_bytes: 19 * 1024,
            },
            htm: HtmCharacteristics {
                learning_predictor: true,
                predictor_memory: 5_000,
                adjustment_threshold: 18,
            },
            cost: CostModel::default_3ghz_class(),
        }
    }

    /// A zEC12-derived machine with FORTH-style *tiny* HTM capacities
    /// (arXiv 2510.15888 studies designs this constrained): 8 read-set
    /// lines and 4 write-set lines. Footprints that commit effortlessly on
    /// the real machines overflow here constantly, so this profile is the
    /// capacity-abort stress axis of the ablation and chaos sweeps —
    /// everything else (topology, line size, cost table, no learning
    /// predictor) matches [`MachineProfile::zec12`].
    pub fn constrained() -> Self {
        MachineProfile {
            name: "constrained",
            cache: CacheGeometry {
                line_bytes: 256,
                read_set_bytes: 2 * 1024, // 8 lines
                write_set_bytes: 1024,    // 4 lines
            },
            ..MachineProfile::zec12()
        }
    }

    /// A generic machine for unit tests and examples: `cores` single-SMT
    /// cores, 64-byte lines, small capacities so tests can trigger overflow
    /// cheaply.
    pub fn generic(cores: usize) -> Self {
        MachineProfile {
            name: "generic",
            cores,
            smt_per_core: 1,
            cache: CacheGeometry {
                line_bytes: 64,
                read_set_bytes: 16 * 1024,
                write_set_bytes: 2 * 1024,
            },
            htm: HtmCharacteristics {
                learning_predictor: false,
                predictor_memory: 0,
                adjustment_threshold: 6,
            },
            cost: CostModel::default_3ghz_class(),
        }
    }
}

impl CostModel {
    /// Cost table modelled on a 5.5 GHz-class mainframe core (zEC12).
    /// zEC12's `TBEGIN` is comparatively expensive, and z/OS GIL handoffs
    /// (Pthread mutex + condvar under USS) are slow — the paper leans on
    /// both facts.
    pub fn default_5ghz_class() -> Self {
        CostModel {
            dispatch: 12,
            mem_ref: 2,
            tbegin: 80,
            tend: 40,
            abort_penalty: 250,
            gil_acquire: 200,
            gil_release: 150,
            spin_bound: 3_000,
            sched_yield: 1_500,
            context_switch: 4_000,
            gil_wait_wakeup: 4_000,
            io_latency: 8_000,
            timer_interval: 600_000,
        }
    }

    /// Cost table modelled on a 3.5 GHz Haswell core. `XBEGIN`/`XEND` are
    /// cheaper than zEC12's `TBEGIN`/`TEND`; aborts cost roughly a cache
    /// miss plus pipeline restart.
    pub fn default_3ghz_class() -> Self {
        CostModel {
            dispatch: 10,
            mem_ref: 2,
            tbegin: 45,
            tend: 25,
            abort_penalty: 180,
            gil_acquire: 150,
            gil_release: 100,
            spin_bound: 2_500,
            sched_yield: 1_200,
            context_switch: 3_000,
            gil_wait_wakeup: 3_000,
            io_latency: 8_000,
            timer_interval: 500_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zec12_matches_paper_geometry() {
        let m = MachineProfile::zec12();
        assert_eq!(m.cores, 12);
        assert_eq!(m.smt_per_core, 1);
        assert_eq!(m.hw_threads(), 12);
        assert_eq!(m.cache.line_bytes, 256);
        assert_eq!(m.cache.write_set_bytes, 8 * 1024);
        assert!(!m.htm.learning_predictor);
        // 3 aborts / 300 transactions = 1 %.
        assert_eq!(m.htm.adjustment_threshold, 3);
    }

    #[test]
    fn xeon_matches_paper_geometry() {
        let m = MachineProfile::xeon_e3_1275_v3();
        assert_eq!(m.cores, 4);
        assert_eq!(m.smt_per_core, 2);
        assert_eq!(m.hw_threads(), 8);
        assert_eq!(m.cache.line_bytes, 64);
        assert_eq!(m.cache.write_set_bytes, 19 * 1024);
        assert!(m.htm.learning_predictor);
        // 18 aborts / 300 transactions = 6 %.
        assert_eq!(m.htm.adjustment_threshold, 18);
    }

    #[test]
    fn line_arithmetic() {
        let g = CacheGeometry { line_bytes: 64, read_set_bytes: 1024, write_set_bytes: 256 };
        assert_eq!(g.line_words(), 8);
        assert_eq!(g.line_shift(), 3);
        assert_eq!(g.read_set_lines(), 16);
        assert_eq!(g.write_set_lines(), 4);
        assert_eq!(MachineProfile::zec12().cache.line_shift(), 5); // 256 B / 8 B words
    }

    #[test]
    fn constrained_profile_is_zec12_with_tiny_capacities() {
        let c = MachineProfile::constrained();
        let z = MachineProfile::zec12();
        assert_eq!(c.name, "constrained");
        assert_eq!(c.cache.read_set_lines(), 8);
        assert_eq!(c.cache.write_set_lines(), 4);
        assert_eq!(c.cache.line_bytes, z.cache.line_bytes, "same line size as zEC12");
        assert_eq!((c.cores, c.smt_per_core), (z.cores, z.smt_per_core));
        assert_eq!(c.cost, z.cost, "cost table must match zEC12 — capacity is the only axis");
        assert_eq!(c.htm, z.htm);
    }

    #[test]
    fn zec12_write_budget_smaller_than_read_budget() {
        // The defining asymmetry the paper exploits: store overflows, not
        // load overflows, dominate, so write budgets must be far smaller.
        for m in [MachineProfile::zec12(), MachineProfile::xeon_e3_1275_v3()] {
            assert!(m.cache.write_set_bytes * 4 <= m.cache.read_set_bytes);
        }
    }

    #[test]
    fn io_dwarfs_gil_ops_which_dwarf_tbegin() {
        for m in [MachineProfile::zec12(), MachineProfile::xeon_e3_1275_v3()] {
            assert!(m.cost.tbegin < m.cost.gil_acquire);
            assert!(m.cost.gil_acquire < m.cost.sched_yield);
            assert!(m.cost.sched_yield < m.cost.io_latency);
        }
    }
}
