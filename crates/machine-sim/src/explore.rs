//! Schedule-space exploration: branch encoding and replay control.
//!
//! The deterministic scheduler runs exactly one interleaving per
//! configuration. This module turns every *scheduler decision point* —
//! a yield-point preemption choice, an interrupt/commit kill slot, a
//! wake-order pick — into a branch in a decision tree, encoded as a
//! compact **path**: one byte per branch, consumed in decision order.
//! Replaying the same path replays the same interleaving, byte for
//! byte; flipping a byte diverges the execution at exactly that branch
//! and nowhere earlier (the prefix consults the same decisions in the
//! same order).
//!
//! The encoding is deliberately forgiving, loom/syncbox-style:
//!
//! * a byte beyond the end of the path reads as `0` — choice 0 is
//!   always "do what the unexplored scheduler would have done", so an
//!   empty path reproduces the natural schedule exactly;
//! * a byte is reduced modulo the decision's arity, so random byte
//!   strings are always valid paths and shrinking can lower bytes
//!   freely.
//!
//! [`ExploreCtl`] lives inside the [`crate::Scheduler`] and records the
//! *trail* (taken choice, arity, kind per decision) so searches can
//! enumerate siblings and failure dumps can show the last branches.

/// What kind of scheduler decision a branch was (trail diagnostics and
/// search heuristics; the path encoding itself is kind-agnostic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Yield-point preemption: choice 0 runs the natural schedule,
    /// choice k pins the k-th alternate runnable thread.
    Sched,
    /// Interrupt delivery at a yield point: choice 1 kills the open
    /// transaction (§5.6 timer-interrupt model, exploration-steered).
    Interrupt,
    /// Interrupt delivery in the commit window: choice 1 kills the
    /// transaction right before `TEND`.
    Commit,
    /// Wake order: choice k rotates the waiter list by k and staggers
    /// the unpark times; choice 0 is the exact legacy publish.
    Wake,
}

impl DecisionKind {
    /// One-character tag used in trails: `S`, `I`, `C`, `W`.
    pub fn tag(self) -> char {
        match self {
            DecisionKind::Sched => 'S',
            DecisionKind::Interrupt => 'I',
            DecisionKind::Commit => 'C',
            DecisionKind::Wake => 'W',
        }
    }
}

/// A compact schedule path: one choice byte per decision point, in the
/// order the execution consults them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SchedPath {
    bytes: Vec<u8>,
}

impl SchedPath {
    /// The empty path: every decision takes choice 0 (the natural
    /// schedule).
    pub fn empty() -> SchedPath {
        SchedPath { bytes: Vec::new() }
    }

    pub fn new(bytes: Vec<u8>) -> SchedPath {
        SchedPath { bytes }
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Number of non-zero choice bytes — the forced-deviation count the
    /// preemption bound limits (every `0` is the natural schedule).
    pub fn deviations(&self) -> usize {
        self.bytes.iter().filter(|&&b| b != 0).count()
    }

    /// Copy with trailing zero bytes removed: trailing naturals are
    /// implied by the beyond-the-end rule, so the trimmed path replays
    /// identically.
    pub fn trimmed(&self) -> SchedPath {
        let end = self.bytes.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        SchedPath { bytes: self.bytes[..end].to_vec() }
    }

    /// The child path whose first `at` decisions replay this path's
    /// prefix and whose decision `at` takes `choice`.
    pub fn child(&self, at: usize, choice: u8) -> SchedPath {
        let mut bytes: Vec<u8> = self.bytes.iter().copied().take(at).collect();
        bytes.resize(at, 0);
        bytes.push(choice);
        SchedPath { bytes }
    }

    /// Hex encoding (two lowercase digits per byte; empty path → "").
    pub fn to_hex(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(self.bytes.len() * 2);
        for b in &self.bytes {
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// Parse the [`SchedPath::to_hex`] encoding.
    pub fn from_hex(hex: &str) -> Result<SchedPath, String> {
        let hex = hex.trim();
        if !hex.len().is_multiple_of(2) {
            return Err(format!("odd-length hex path ({} digits)", hex.len()));
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for i in (0..hex.len()).step_by(2) {
            let pair = &hex[i..i + 2];
            bytes.push(
                u8::from_str_radix(pair, 16).map_err(|e| format!("bad hex pair {pair:?}: {e}"))?,
            );
        }
        Ok(SchedPath { bytes })
    }
}

/// Replay controller installed into the [`crate::Scheduler`]: serves the
/// path's choice bytes at each decision point and records the trail.
#[derive(Debug, Clone)]
pub struct ExploreCtl {
    path: SchedPath,
    cursor: usize,
    /// Enables the [`DecisionKind::Interrupt`] / [`DecisionKind::Commit`]
    /// kill decisions (off, those windows consume no path bytes).
    pub interrupts: bool,
    taken: Vec<u8>,
    arities: Vec<u8>,
    kinds: Vec<DecisionKind>,
    preemptions: u64,
}

impl ExploreCtl {
    pub fn new(path: SchedPath, interrupts: bool) -> ExploreCtl {
        ExploreCtl {
            path,
            cursor: 0,
            interrupts,
            taken: Vec::new(),
            arities: Vec::new(),
            kinds: Vec::new(),
            preemptions: 0,
        }
    }

    /// Consume one decision of the given arity (≥ 1) and return the
    /// choice in `0..arity`. Bytes beyond the path read as 0; the byte
    /// is reduced modulo the arity, so any byte string is a valid path.
    pub fn decide(&mut self, kind: DecisionKind, arity: u8) -> u8 {
        debug_assert!(arity >= 1, "decision with no choices");
        let byte = self.path.as_bytes().get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        let choice = byte % arity.max(1);
        self.taken.push(choice);
        self.arities.push(arity);
        self.kinds.push(kind);
        if choice != 0 {
            self.preemptions += 1;
        }
        choice
    }

    /// Decisions consulted so far.
    pub fn decisions(&self) -> usize {
        self.taken.len()
    }

    /// Choices actually taken (bytes already reduced modulo arity).
    pub fn taken(&self) -> &[u8] {
        &self.taken
    }

    /// Arity of each consulted decision, in consult order.
    pub fn arities(&self) -> &[u8] {
        &self.arities
    }

    /// Kind of each consulted decision, in consult order.
    pub fn kinds(&self) -> &[DecisionKind] {
        &self.kinds
    }

    /// Non-zero choices taken — forced schedule deviations.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Human-readable tail of the decision trail, e.g. `S0 S2 I1 W0`
    /// (last `n` decisions) — livelock dumps append this so a stuck
    /// explored run is diagnosable without a rerun.
    pub fn trail_tail(&self, n: usize) -> String {
        let start = self.taken.len().saturating_sub(n);
        let mut out = String::new();
        for i in start..self.taken.len() {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push(self.kinds[i].tag());
            out.push_str(&self.taken[i].to_string());
        }
        if start > 0 {
            format!("… {out} ({} total)", self.taken.len())
        } else {
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrips() {
        let p = SchedPath::new(vec![0, 1, 255, 16]);
        assert_eq!(p.to_hex(), "0001ff10");
        assert_eq!(SchedPath::from_hex("0001ff10").unwrap(), p);
        assert_eq!(SchedPath::from_hex("").unwrap(), SchedPath::empty());
        assert!(SchedPath::from_hex("abc").is_err());
        assert!(SchedPath::from_hex("zz").is_err());
    }

    #[test]
    fn trimming_drops_trailing_naturals_only() {
        assert_eq!(SchedPath::new(vec![0, 2, 0, 0]).trimmed(), SchedPath::new(vec![0, 2]));
        assert_eq!(SchedPath::new(vec![0, 0]).trimmed(), SchedPath::empty());
        assert_eq!(SchedPath::new(vec![1]).trimmed(), SchedPath::new(vec![1]));
    }

    #[test]
    fn child_extends_the_executed_prefix() {
        let p = SchedPath::new(vec![1, 0, 2]);
        assert_eq!(p.child(3, 1), SchedPath::new(vec![1, 0, 2, 1]));
        // Children past the path's own length pad with naturals.
        assert_eq!(p.child(5, 3), SchedPath::new(vec![1, 0, 2, 0, 0, 3]));
        // Children inside the prefix replace the tail entirely.
        assert_eq!(p.child(1, 2), SchedPath::new(vec![1, 2]));
    }

    #[test]
    fn decide_clamps_and_records() {
        let mut c = ExploreCtl::new(SchedPath::new(vec![5, 1, 0]), true);
        assert_eq!(c.decide(DecisionKind::Sched, 4), 1); // 5 % 4
        assert_eq!(c.decide(DecisionKind::Interrupt, 2), 1);
        assert_eq!(c.decide(DecisionKind::Wake, 3), 0);
        assert_eq!(c.decide(DecisionKind::Commit, 2), 0); // beyond end
        assert_eq!(c.taken(), &[1, 1, 0, 0]);
        assert_eq!(c.arities(), &[4, 2, 3, 2]);
        assert_eq!(c.preemptions(), 2);
        assert_eq!(c.trail_tail(8), "S1 I1 W0 C0");
        assert_eq!(c.trail_tail(2), "… W0 C0 (4 total)");
    }

    #[test]
    fn deviations_count_nonzero_bytes() {
        assert_eq!(SchedPath::empty().deviations(), 0);
        assert_eq!(SchedPath::new(vec![0, 3, 0, 1]).deviations(), 2);
    }
}
