//! The Giant VM Lock itself.
//!
//! The GIL state is one word of simulated memory (`layout.gil`): writing
//! it non-transactionally on acquisition dooms every active transaction —
//! that is the TLE subscription mechanism keeping the fallback safe (every
//! transaction reads the GIL word right after `TBEGIN`, paper Fig. 1
//! line 15). The waiter queue and timer bookkeeping are executor-side
//! metadata, like CRuby's `gvl` struct.

use htm_sim::AbortReason;
use machine_sim::{Cycles, ThreadId};
use ruby_vm::{Vm, Word};

/// GIL runtime state.
#[derive(Debug, Clone)]
pub struct GilState {
    pub holder: Option<ThreadId>,
    /// Parked waiters, in arrival order. What a woken one does next — take
    /// the GIL or retry its transaction — is its own `TleThread` state.
    pub waiters: Vec<ThreadId>,
    /// Total acquisitions (report statistic).
    pub acquisitions: u64,
    /// Next 250 ms-timer deadline (GIL mode only).
    pub next_timer: Cycles,
}

impl GilState {
    pub fn new(first_timer: Cycles) -> Self {
        GilState { holder: None, waiters: Vec::new(), acquisitions: 0, next_timer: first_timer }
    }

    /// Acquire the GIL for `t`. Caller must have checked it is free.
    /// The memory write dooms all subscribed transactions; like any plain
    /// access it fails only on a broken memory invariant.
    pub fn acquire(
        &mut self,
        vm: &mut Vm,
        t: ThreadId,
        tls_running_thread: bool,
    ) -> Result<(), AbortReason> {
        debug_assert!(self.holder.is_none(), "GIL already held");
        self.holder = Some(t);
        self.acquisitions += 1;
        vm.mem.write(t, vm.layout.gil, Word::Int(1))?;
        if !tls_running_thread {
            // §4.4 #1 ablation: the running-thread global gets rewritten on
            // every acquisition — "the most severe conflicts".
            vm.mem.write(t, vm.layout.running_thread, Word::Int(t as i64))?;
        }
        Ok(())
    }

    /// Release the GIL held by `t`. Returns the waiters to wake, drained
    /// in arrival order out of the queue, which keeps its capacity.
    pub fn release(
        &mut self,
        vm: &mut Vm,
        t: ThreadId,
    ) -> Result<std::vec::Drain<'_, ThreadId>, AbortReason> {
        debug_assert_eq!(self.holder, Some(t), "release by non-holder");
        self.holder = None;
        vm.mem.write(t, vm.layout.gil, Word::Int(0))?;
        Ok(self.waiters.drain(..))
    }

    pub fn is_held(&self) -> bool {
        self.holder.is_some()
    }

    pub fn held_by(&self, t: ThreadId) -> bool {
        self.holder == Some(t)
    }

    /// Park `t` in the waiter queue.
    pub fn push_waiter(&mut self, t: ThreadId) {
        debug_assert!(!self.waiters.contains(&t));
        self.waiters.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_sim::MachineProfile;
    use ruby_vm::VmConfig;

    fn vm() -> Vm {
        Vm::boot("nil", VmConfig::default(), &MachineProfile::generic(2)).unwrap()
    }

    #[test]
    fn acquire_release_cycle() {
        let mut vm = vm();
        let mut g = GilState::new(1000);
        assert!(!g.is_held());
        g.acquire(&mut vm, 0, true).unwrap();
        assert!(g.held_by(0));
        assert_eq!(*vm.mem.peek(vm.layout.gil), Word::Int(1));
        g.push_waiter(1);
        let woken: Vec<_> = g.release(&mut vm, 0).unwrap().collect();
        assert!(!g.is_held());
        assert_eq!(*vm.mem.peek(vm.layout.gil), Word::Int(0));
        assert_eq!(woken, vec![1]);
        assert_eq!(g.acquisitions, 1);
    }

    #[test]
    fn acquisition_dooms_subscribed_transactions() {
        let mut vm = vm();
        let mut g = GilState::new(0);
        let budgets = htm_sim::Budgets { read_lines: 1 << 20, write_lines: 1 << 20 };
        vm.mem.begin(1, budgets).unwrap();
        // Thread 1 subscribes to the GIL word, as TLE requires.
        let gil = vm.layout.gil;
        let _ = vm.mem.read(1, gil).unwrap();
        g.acquire(&mut vm, 0, true).unwrap();
        assert!(vm.mem.poll_doomed(1).is_some(), "subscriber must be doomed");
    }

    #[test]
    fn waiter_queue_is_fifo() {
        // CRuby's gvl queue is FIFO; release must return waiters in
        // arrival order so the executor wakes them with that ordering.
        let mut vm = vm();
        let mut g = GilState::new(0);
        g.acquire(&mut vm, 0, true).unwrap();
        g.push_waiter(3);
        g.push_waiter(1);
        g.push_waiter(2);
        let woken: Vec<_> = g.release(&mut vm, 0).unwrap().collect();
        assert_eq!(woken, vec![3, 1, 2]);
        assert!(g.waiters.is_empty(), "queue drained on release");
    }

    #[test]
    fn timer_tick_forces_handoff_between_compute_threads() {
        // Two pure-compute threads under the GIL: neither ever blocks, so
        // the *only* way the second thread runs is the timer thread
        // flagging the holder at a yield point (paper §3.2). More
        // acquisitions than threads proves the handoff path fired.
        use crate::config::{ExecConfig, RuntimeMode};
        use crate::exec::Executor;
        use machine_sim::MachineProfile;
        use ruby_vm::VmConfig;
        let src = r#"
results = Array.new(2, 0)
threads = []
2.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 40000
      s += j
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results[0] + results[1])
"#;
        let profile = MachineProfile::generic(4);
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).unwrap();
        let r = ex.run().unwrap();
        assert_eq!(r.stdout, "1600040000");
        assert!(
            r.gil_acquisitions > 3,
            "timer must force handoffs: only {} acquisitions",
            r.gil_acquisitions
        );
    }

    #[test]
    fn parked_holder_releases_gil_before_blocking() {
        // The holder-parked edge case: a thread blocking on I/O while
        // holding the GIL must release it first, or the compute thread
        // deadlocks behind it. Completion of this program (with I/O
        // overlap actually observed) is the proof.
        use crate::config::{ExecConfig, RuntimeMode};
        use crate::exec::Executor;
        use machine_sim::MachineProfile;
        use ruby_vm::VmConfig;
        let src = r#"
done = Array.new(2, 0)
threads = []
threads << Thread.new() do
  j = 0
  while j < 8
    io_wait(1)
    j += 1
  end
  done[0] = 1
end
threads << Thread.new() do
  s = 0
  j = 1
  while j <= 5000
    s += j
    j += 1
  end
  done[1] = s
end
threads.each do |t|
  t.join()
end
puts(done)
"#;
        let profile = MachineProfile::generic(4);
        let io_latency = profile.cost.io_latency;
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        let mut ex = Executor::new(src, VmConfig::default(), profile, cfg).unwrap();
        let r = ex.run().unwrap();
        assert_eq!(r.stdout, "1\n12502500");
        assert!(r.elapsed_cycles >= 8 * io_latency, "I/O thread must actually block");
        assert!(r.gil_acquisitions >= 3, "GIL must change hands around the I/O parks");
    }

    #[test]
    fn running_thread_global_written_when_not_tls() {
        let mut vm = vm();
        let mut g = GilState::new(0);
        g.acquire(&mut vm, 0, false).unwrap();
        assert_eq!(*vm.mem.peek(vm.layout.running_thread), Word::Int(0));
        let _ = g.release(&mut vm, 0).unwrap();
        let mut g2 = GilState::new(0);
        g2.acquire(&mut vm, 1, true).unwrap();
        // TLS mode: the global is untouched (still 0 from before).
        assert_eq!(*vm.mem.peek(vm.layout.running_thread), Word::Int(0));
    }
}
