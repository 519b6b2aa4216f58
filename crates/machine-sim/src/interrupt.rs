//! Per-hardware-thread timer-interrupt model.
//!
//! Paper §5.6: OS timer interrupts (and the TLB shootdowns / page faults
//! they stand in for) abort any transaction that is in flight on the
//! interrupted hardware thread — a best-effort HTM never survives a
//! privilege-level change. The executor polls [`InterruptTimer::due`]
//! before running a thread and kills its open transaction when the
//! thread's deadline has passed.
//!
//! Each simulated thread carries its own cycle clock, so deadlines are
//! tracked per thread: thread `t` takes an interrupt every `interval`
//! cycles of *its own* simulated time. The model is deterministic — the
//! same run always interrupts at the same points.

use crate::{Cycles, ThreadId};

/// Deterministic per-thread interrupt clock. An `interval` of 0 disables
/// the model entirely (`due` never fires).
#[derive(Debug, Clone)]
pub struct InterruptTimer {
    interval: Cycles,
    /// Next deadline per thread, grown lazily as threads spawn.
    next: Vec<Cycles>,
}

impl InterruptTimer {
    pub fn new(interval: Cycles) -> Self {
        InterruptTimer { interval, next: Vec::new() }
    }

    /// A disabled timer (interval 0) never fires.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    pub fn is_enabled(&self) -> bool {
        self.interval != 0
    }

    pub fn interval(&self) -> Cycles {
        self.interval
    }

    /// Local time at which [`Self::due`] next fires for `t`: never when
    /// disabled, at once for a thread `due` has not seen yet.
    pub fn deadline(&self, t: ThreadId) -> Cycles {
        match self.interval {
            0 => Cycles::MAX,
            _ => self.next.get(t).copied().unwrap_or(0),
        }
    }

    /// Has thread `t` crossed its interrupt deadline at local time `now`?
    /// On true, the deadline advances past `now` (one interrupt is
    /// delivered no matter how far the clock jumped — coalescing, like a
    /// real one-shot timer re-armed by its handler).
    pub fn due(&mut self, t: ThreadId, now: Cycles) -> bool {
        if self.interval == 0 {
            return false;
        }
        if self.next.len() <= t {
            // First sighting of this thread: arm its timer one interval
            // after its current clock (spawn time).
            self.next.resize(t + 1, 0);
        }
        if self.next[t] == 0 {
            self.next[t] = now + self.interval;
            return false;
        }
        if now < self.next[t] {
            return false;
        }
        let periods = (now - self.next[t]) / self.interval + 1;
        self.next[t] += periods * self.interval;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timer_never_fires() {
        let mut it = InterruptTimer::disabled();
        assert!(!it.is_enabled());
        for now in [0, 1, 1_000_000, u64::MAX] {
            assert!(!it.due(0, now));
        }
    }

    #[test]
    fn fires_once_per_interval() {
        let mut it = InterruptTimer::new(100);
        assert!(it.is_enabled());
        assert!(!it.due(0, 5), "first call arms the timer");
        assert!(!it.due(0, 50));
        assert!(it.due(0, 105), "deadline 105 crossed");
        assert!(!it.due(0, 110), "re-armed to 205");
        assert!(it.due(0, 205));
    }

    #[test]
    fn coalesces_large_clock_jumps() {
        let mut it = InterruptTimer::new(100);
        assert!(!it.due(0, 0)); // armed at 100
                                // The thread slept for many intervals: exactly one interrupt is
                                // delivered, and the deadline lands past `now`.
        assert!(it.due(0, 950));
        assert!(!it.due(0, 999), "next deadline must be 1000");
        assert!(it.due(0, 1000));
    }

    #[test]
    fn threads_have_independent_deadlines() {
        let mut it = InterruptTimer::new(100);
        assert!(!it.due(0, 0)); // t0 armed at 100
        assert!(!it.due(3, 500)); // t3 armed lazily at 600
        assert!(it.due(0, 150));
        assert!(!it.due(3, 599));
        assert!(it.due(3, 600));
    }
}
