//! Structured transaction-event tracing.
//!
//! A memory that traces ([`crate::TxMemory::set_trace`]) records one
//! [`TraceEvent`] per transaction begin, commit, and abort into the
//! [`RingBufferSink`] it owns ([`crate::TxMemory::trace`]), stamped with
//! the owning thread and the current simulated cycle
//! ([`crate::TxMemory::set_now`] — the executor advances it as it charges
//! cycle costs). Abort events carry the structured [`AbortReason`] plus
//! the faulting cache line where one exists (conflicts and footprint
//! overflows), which is what the attribution layer upstairs maps back to
//! VM data structures.
//!
//! Tracing is **off by default** and costs one `Option` discriminant test
//! per event site when disabled; no event is constructed unless the ring
//! is present.

use std::collections::VecDeque;

use machine_sim::ThreadId;

use crate::abort::AbortReason;

/// One transaction life-cycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `TBEGIN`/`XBEGIN` succeeded and a transaction is now active.
    Begin { thread: ThreadId, cycle: u64 },
    /// `TEND`/`XEND` succeeded; footprint at commit time in cache lines.
    Commit { thread: ThreadId, cycle: u64, read_lines: usize, write_lines: usize },
    /// The transaction died — at begin (eager prediction), at an access
    /// (conflict, overflow), or by explicit software abort. `line` is the
    /// faulting cache line when the abort has one (conflicts, overflows).
    Abort { thread: ThreadId, cycle: u64, reason: AbortReason, line: Option<usize> },
}

impl TraceEvent {
    /// Thread the event belongs to.
    pub fn thread(&self) -> ThreadId {
        match *self {
            TraceEvent::Begin { thread, .. }
            | TraceEvent::Commit { thread, .. }
            | TraceEvent::Abort { thread, .. } => thread,
        }
    }

    /// Simulated cycle the event was stamped with.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Begin { cycle, .. }
            | TraceEvent::Commit { cycle, .. }
            | TraceEvent::Abort { cycle, .. } => cycle,
        }
    }
}

/// Bounded in-memory sink: keeps the most recent `capacity` events and
/// counts how many older ones were evicted.
#[derive(Debug, Default)]
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingBufferSink {
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            events: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            dropped: 0,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Keep `event`, evicting the oldest one when the buffer is full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(thread: ThreadId, cycle: u64) -> TraceEvent {
        TraceEvent::Begin { thread, cycle }
    }

    #[test]
    fn ring_buffer_keeps_newest_and_counts_drops() {
        let mut sink = RingBufferSink::new(3);
        assert!(sink.is_empty());
        for c in 0..5 {
            sink.record(begin(0, c));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let cycles: Vec<u64> = sink.events().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }
}
