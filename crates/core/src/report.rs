//! Run results: throughput, cycle breakdowns, abort attribution.

use std::collections::HashMap;

use htm_sim::HtmStats;
use machine_sim::Cycles;

use crate::json::Json;

/// Where in the VM address space a conflicting line lives, by the VM's
/// line→owner registration ([`ruby_vm::layout::AttributionMap`]) — the
/// paper's §5.6 attribution ("more than 50 % of those read-set conflicts
/// occurred at the time of object allocation").
pub use ruby_vm::layout::LineOwner as ConflictSite;

/// The categories of the paper's Fig. 8. Every cycle on a thread's clock
/// (`Scheduler::busy`) is booked to exactly one; a parked or sleeping
/// thread spends none, so waiting books only what it charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// `TBEGIN`/`TEND`, the GIL subscription read, the running-thread write.
    TxBeginEnd,
    /// Work in transactions that committed (all work where no GIL runs).
    TxSuccess,
    /// Work under the GIL (fallback or GIL mode), yield checks, the release.
    GilHeld,
    /// Work discarded by aborts, plus the hardware abort penalty.
    Aborted,
    /// Waiting for the GIL: the `spin_bound` spin, acquire, timer yield.
    GilWait,
    /// Context switches and the fine-grained mode's allocation lock.
    Other,
}

impl Category {
    /// The one list of categories, in Fig. 8 order: each with its JSON key
    /// and its Fig. 8 label.
    pub const TABLE: [(Category, &'static str, &'static str); 6] = [
        (Category::TxBeginEnd, "tx_begin_end", "tx-begin/end"),
        (Category::TxSuccess, "tx_success", "successful-tx"),
        (Category::GilHeld, "gil_held", "gil-held"),
        (Category::Aborted, "aborted", "aborted-tx"),
        (Category::GilWait, "gil_wait", "gil-wait"),
        (Category::Other, "other", "other"),
    ];
}

/// Cycle breakdown in the paper's Fig. 8 categories, indexed by [`Category`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleBreakdown(pub [Cycles; Category::TABLE.len()]);

impl std::ops::Index<Category> for CycleBreakdown {
    type Output = Cycles;
    fn index(&self, c: Category) -> &Cycles {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<Category> for CycleBreakdown {
    fn index_mut(&mut self, c: Category) -> &mut Cycles {
        &mut self.0[c as usize]
    }
}

impl CycleBreakdown {
    pub fn total(&self) -> Cycles {
        self.0.iter().sum()
    }

    /// Category shares in percent, by Fig. 8 label, in Fig. 8 order.
    pub fn shares_pct(&self) -> [(&'static str, f64); Category::TABLE.len()] {
        let t = self.total().max(1) as f64;
        Category::TABLE.map(|(c, _, label)| (label, 100.0 * self[c] as f64 / t))
    }
}

/// Everything a figure harness needs from one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub mode_label: String,
    /// GIL-subscription policy the run executed under (DESIGN.md §15).
    /// Surfaced in the JSON only when it deviates from `Eager`, keeping
    /// default-policy reports byte-identical to the pre-knob schema.
    pub subscription: crate::tle::SubscriptionPolicy,
    pub machine: &'static str,
    pub threads_used: usize,
    /// Wall-clock of the run: max thread clock.
    pub elapsed_cycles: Cycles,
    /// Bytecodes whose effects committed (work metric).
    pub committed_insns: u64,
    /// Bytecodes rolled back with aborted transactions.
    pub wasted_insns: u64,
    pub breakdown: CycleBreakdown,
    pub htm: HtmStats,
    pub gil_acquisitions: u64,
    /// Read-set conflicts attributed to VM regions (line classification).
    pub conflict_sites: HashMap<ConflictSite, u64>,
    /// Dynamic-adjustment outcome: share of active yield points that ended
    /// at length 1, and total shrink events.
    pub share_length_one: f64,
    pub length_adjustments: u64,
    /// Livelock-watchdog escalations: times a thread's consecutive-abort
    /// streak forced it onto the GIL for a cooldown.
    pub watchdog_escalations: u64,
    /// Per-yield-point observability profiles (attempts, aborts by
    /// reason, current length), pc-ordered; empty outside HTM modes.
    pub yield_point_profiles: Vec<crate::tle::SiteProfile>,
    /// Structured-trace accounting: events seen and events evicted from
    /// the ring buffer. Both 0 when tracing was off.
    pub trace_events_recorded: u64,
    pub trace_events_dropped: u64,
    /// From the VM: allocation count and GC runs.
    pub allocations: u64,
    pub gc_runs: u64,
    /// Program output (correctness oracle across modes).
    pub stdout: String,
    /// Task-latency section — present only when the program emitted
    /// `srv_mark` lifecycle events (the taskserver scenario).
    pub task_latency: Option<crate::latency::TaskLatencyReport>,
}

impl RunReport {
    /// Work per cycle — the throughput measure normalized by the figure
    /// harnesses. For fixed-work workloads, relative speedup equals the
    /// inverse ratio of `elapsed_cycles`.
    pub fn throughput(&self) -> f64 {
        self.committed_insns as f64 / self.elapsed_cycles.max(1) as f64
    }

    /// Abort ratio in percent (aborts / begins).
    pub fn abort_ratio_pct(&self) -> f64 {
        self.htm.abort_ratio_pct()
    }

    /// Structured JSON view of the full report (hand-rolled serializer —
    /// see [`crate::json`]); the payload behind every bench binary's
    /// `--report-json` flag.
    pub fn to_json(&self) -> Json {
        let breakdown = Category::TABLE
            .into_iter()
            .fold(Json::obj(), |acc, (c, key, _)| acc.field(key, self.breakdown[c]))
            .field("total", self.breakdown.total());
        // Derived from the canonical AbortReason table, so a new variant
        // shows up here without this file changing.
        let aborts = self
            .htm
            .abort_breakdown()
            .into_iter()
            .fold(Json::obj(), |acc, (label, n)| acc.field(label, n))
            .field("total", self.htm.total_aborts());
        let htm = Json::obj()
            .field("begins", self.htm.begins)
            .field("commits", self.htm.commits)
            .field("aborts", aborts)
            .field("abort_ratio_pct", self.htm.abort_ratio_pct())
            .field("read_conflict_share_pct", self.htm.read_conflict_share_pct())
            .field("nontx_dooms", self.htm.nontx_dooms)
            .field("mem_reads", self.htm.reads)
            .field("mem_writes", self.htm.writes)
            .field("lease_hits", self.htm.lease_hits)
            .field("lease_misses", self.htm.lease_misses)
            .field("epoch_bumps", self.htm.epoch_bumps);
        // Conflict attribution, in address-map order (ConflictSite: Ord).
        let mut sites: Vec<(ConflictSite, u64)> =
            self.conflict_sites.iter().map(|(&s, &n)| (s, n)).collect();
        sites.sort();
        let conflict_sites =
            sites.into_iter().fold(Json::obj(), |acc, (site, n)| acc.field(site.label(), n));
        let profiles = self
            .yield_point_profiles
            .iter()
            .map(|p| {
                let aborts = p
                    .abort_breakdown()
                    .into_iter()
                    .fold(Json::obj(), |acc, (label, n)| acc.field(label, n));
                Json::obj()
                    .field("pc", p.pc)
                    .field("attempts", p.attempts)
                    .field("aborts", aborts)
                    .field("total_aborts", p.total_aborts())
                    .field("length", p.length)
            })
            .collect::<Vec<Json>>();
        let report = Json::obj()
            .field("schema", "htm-gil-run-report/v1")
            .field("mode", self.mode_label.as_str());
        let report = if self.subscription == crate::tle::SubscriptionPolicy::Eager {
            report
        } else {
            report.field("subscription", self.subscription.label())
        };
        let report = report
            .field("machine", self.machine)
            .field("threads", self.threads_used)
            .field("elapsed_cycles", self.elapsed_cycles)
            .field("committed_insns", self.committed_insns)
            .field("wasted_insns", self.wasted_insns)
            .field("throughput", self.throughput())
            .field("breakdown", breakdown)
            .field("htm", htm)
            .field("gil_acquisitions", self.gil_acquisitions)
            .field("conflict_sites", conflict_sites)
            .field("allocator_conflict_share_pct", self.allocator_conflict_share_pct())
            .field("share_length_one", self.share_length_one)
            .field("length_adjustments", self.length_adjustments)
            .field("watchdog_escalations", self.watchdog_escalations)
            .field("yield_point_profiles", Json::Arr(profiles))
            .field(
                "trace",
                Json::obj()
                    .field("recorded", self.trace_events_recorded)
                    .field("dropped", self.trace_events_dropped),
            )
            .field("allocations", self.allocations)
            .field("gc_runs", self.gc_runs);
        // Emitted only when present, so reports from non-server runs are
        // byte-identical to the pre-taskserver schema.
        match &self.task_latency {
            Some(tl) => report.field("task_latency", tl.to_json()),
            None => report,
        }
    }

    /// Share of read-set conflicts that hit the allocator (paper §5.6).
    pub fn allocator_conflict_share_pct(&self) -> f64 {
        let total: u64 = self.conflict_sites.values().sum();
        if total == 0 {
            return 0.0;
        }
        let alloc = self.conflict_sites.get(&ConflictSite::Allocator).copied().unwrap_or(0)
            + self.conflict_sites.get(&ConflictSite::HeapSlots).copied().unwrap_or(0);
        100.0 * alloc as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shares_sum_to_100() {
        let b = CycleBreakdown([10, 40, 20, 15, 10, 5]);
        let sum: f64 = b.shares_pct().iter().map(|(_, v)| v).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert_eq!(b.total(), 100);
    }

    #[test]
    fn throughput_is_work_per_cycle() {
        let r = RunReport {
            mode_label: "HTM-16".into(),
            subscription: crate::tle::SubscriptionPolicy::Eager,
            machine: "zEC12",
            threads_used: 4,
            elapsed_cycles: 1_000,
            committed_insns: 500,
            wasted_insns: 50,
            breakdown: CycleBreakdown::default(),
            htm: HtmStats::default(),
            gil_acquisitions: 0,
            conflict_sites: HashMap::new(),
            share_length_one: 0.0,
            length_adjustments: 0,
            watchdog_escalations: 0,
            yield_point_profiles: Vec::new(),
            trace_events_recorded: 0,
            trace_events_dropped: 0,
            allocations: 0,
            gc_runs: 0,
            stdout: String::new(),
            task_latency: None,
        };
        assert!((r.throughput() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn to_json_roundtrips_and_exposes_breakdowns() {
        let mut sites = HashMap::new();
        sites.insert(ConflictSite::Allocator, 7);
        sites.insert(ConflictSite::Gil, 2);
        let htm = HtmStats {
            begins: 100,
            commits: 90,
            conflicts_read: 8,
            conflicts_write: 2,
            lease_hits: 4_000,
            lease_misses: 250,
            epoch_bumps: 310,
            ..HtmStats::default()
        };
        let r = RunReport {
            mode_label: "HTM-dynamic".into(),
            subscription: crate::tle::SubscriptionPolicy::Eager,
            machine: "zEC12",
            threads_used: 4,
            elapsed_cycles: 10_000,
            committed_insns: 5_000,
            wasted_insns: 120,
            breakdown: CycleBreakdown([0, 9_000, 0, 1_000, 0, 0]),
            htm,
            gil_acquisitions: 3,
            conflict_sites: sites,
            share_length_one: 0.25,
            length_adjustments: 12,
            watchdog_escalations: 2,
            yield_point_profiles: vec![{
                let mut p = crate::tle::SiteProfile {
                    pc: 42,
                    attempts: 50,
                    length: 191,
                    ..Default::default()
                };
                p.aborts[htm_sim::AbortReason::ConflictRead { with: 0, line: 0 }.kind_index()] = 5;
                p
            }],
            trace_events_recorded: 1_000,
            trace_events_dropped: 10,
            allocations: 77,
            gc_runs: 1,
            stdout: String::new(),
            task_latency: None,
        };
        let j = r.to_json();
        let parsed = crate::json::Json::parse(&j.to_pretty()).unwrap();
        assert_eq!(parsed.get("mode").unwrap().as_str(), Some("HTM-dynamic"));
        let breakdown = parsed.get("breakdown").unwrap();
        assert_eq!(breakdown.get("tx_success").unwrap().as_u64(), Some(9_000));
        assert_eq!(breakdown.get("aborted").unwrap().as_u64(), Some(1_000));
        assert_eq!(breakdown.get("total").unwrap().as_u64(), Some(10_000));
        assert_eq!(
            parsed
                .get("htm")
                .unwrap()
                .get("aborts")
                .unwrap()
                .get("conflict-read")
                .unwrap()
                .as_u64(),
            Some(8)
        );
        assert_eq!(
            parsed.get("conflict_sites").unwrap().get("allocator").unwrap().as_u64(),
            Some(7)
        );
        let profiles = parsed.get("yield_point_profiles").unwrap().as_array().unwrap();
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0].get("pc").unwrap().as_u64(), Some(42));
        assert_eq!(profiles[0].get("length").unwrap().as_u64(), Some(191));
        assert_eq!(
            profiles[0].get("aborts").unwrap().get("conflict-read").unwrap().as_u64(),
            Some(5)
        );
        assert_eq!(
            profiles[0].get("aborts").unwrap().get("spurious").unwrap().as_u64(),
            Some(0),
            "new reason kinds flow into profile JSON automatically"
        );
        assert_eq!(
            parsed.get("htm").unwrap().get("aborts").unwrap().get("spurious").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(parsed.get("watchdog_escalations").unwrap().as_u64(), Some(2));
        assert_eq!(parsed.get("trace").unwrap().get("dropped").unwrap().as_u64(), Some(10));
        let htm_json = parsed.get("htm").unwrap();
        assert_eq!(htm_json.get("lease_hits").unwrap().as_u64(), Some(4_000));
        assert_eq!(htm_json.get("lease_misses").unwrap().as_u64(), Some(250));
        assert_eq!(htm_json.get("epoch_bumps").unwrap().as_u64(), Some(310));
        assert!(parsed.get("subscription").is_none(), "eager runs keep the pre-knob schema");
        let mut lazy = r.clone();
        lazy.subscription = crate::tle::SubscriptionPolicy::Lazy;
        let lp = crate::json::Json::parse(&lazy.to_json().to_pretty()).unwrap();
        assert_eq!(lp.get("subscription").unwrap().as_str(), Some("lazy"));
    }

    #[test]
    fn allocator_share_combines_metadata_and_slots() {
        let mut sites = HashMap::new();
        sites.insert(ConflictSite::Allocator, 30);
        sites.insert(ConflictSite::HeapSlots, 30);
        sites.insert(ConflictSite::InlineCache, 40);
        let r = RunReport {
            mode_label: String::new(),
            subscription: crate::tle::SubscriptionPolicy::Eager,
            machine: "x",
            threads_used: 1,
            elapsed_cycles: 1,
            committed_insns: 0,
            wasted_insns: 0,
            breakdown: CycleBreakdown::default(),
            htm: HtmStats::default(),
            gil_acquisitions: 0,
            conflict_sites: sites,
            share_length_one: 0.0,
            length_adjustments: 0,
            watchdog_escalations: 0,
            yield_point_profiles: Vec::new(),
            trace_events_recorded: 0,
            trace_events_dropped: 0,
            allocations: 0,
            gc_runs: 0,
            stdout: String::new(),
            task_latency: None,
        };
        assert!((r.allocator_conflict_share_pct() - 60.0).abs() < 1e-9);
    }
}
