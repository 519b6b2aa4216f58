//! Versioned-inline-cache invalidation under every runtime mode.
//!
//! The pre-decoded dispatch path guards each send site with a packed
//! `(method_table_version, class_id)` word. These tests pin down the two
//! events that must invalidate filled caches — method *replacement* (the
//! global version bump) and object *shape mutation* (the ivar table of a
//! class growing mid-run) — and check that the observable behaviour is
//! identical across GIL, HTM-static and HTM-dynamic, both as stdout and
//! as the canonical heap digest. A chaos point at a 25 % injection rate
//! exercises the escrow: cache fills and version bumps performed inside a
//! transaction that aborts must vanish without a trace. The last two
//! tests move the redefinition into a worker thread whose transactions
//! overlap other threads' aborts and GIL tenures: the host-side half of a
//! slice (the escrowed version bump) must be as per-transaction as its
//! memory.

use htm_gil::core::{check_against_gil, oracle};
use htm_gil::{
    ExecConfig, Executor, FaultPlan, LengthPolicy, MachineProfile, RuntimeMode, VmConfig,
};

fn profile() -> MachineProfile {
    MachineProfile::generic(4)
}

/// The GIL first — the reference the others are compared with.
fn modes() -> [RuntimeMode; 5] {
    [
        RuntimeMode::Gil,
        RuntimeMode::Htm { length: LengthPolicy::Fixed(1) },
        RuntimeMode::Htm { length: LengthPolicy::Fixed(16) },
        RuntimeMode::Htm { length: LengthPolicy::Fixed(256) },
        RuntimeMode::Htm { length: LengthPolicy::Dynamic },
    ]
}

/// `C#m` is redefined twice mid-run, after four threads have filled the
/// send-site cache inside `probe` with the previous entry. Every phase
/// reuses the *same textual call site*, so a stale cache would keep
/// returning the old method's value and skew the total.
const REDEFINE_SRC: &str = r#"
class C
  def m()
    7
  end
end

def probe(o, reps)
  s = 0
  i = 0
  while i < reps
    s += o.m
    i += 1
  end
  s
end

def phase(reps)
  $slots = Array.new(4, 0)
  threads = []
  4.times do |i|
    threads << Thread.new(i) do |tid|
      $slots[tid] = probe(C.new(), reps)
    end
  end
  threads.each do |t|
    t.join()
  end
  total = 0
  j = 0
  while j < 4
    total += $slots[j]
    j += 1
  end
  total
end

$sum = phase(50)
class C
  def m()
    11
  end
end
$sum += phase(50)
class C
  def m()
    2
  end
end
$sum += phase(50)
puts($sum)
"#;

/// 200 calls per phase at 7, then 11, then 2 per call.
const REDEFINE_STDOUT: &str = "4000";

/// Class `P` starts with one ivar (`@a`); mid-run every thread grows its
/// objects with a second (`@b`), extending the class's ivar table while
/// the `geta` read sites are already cached against the one-slot shape.
const SHAPE_SRC: &str = r#"
class P
  def initialize(a)
    @a = a
  end
  def grow(b)
    @b = b
  end
  def geta()
    @a
  end
  def getb()
    @b
  end
end

def work(tid)
  objs = []
  i = 0
  while i < 8
    objs << P.new(tid + i)
    i += 1
  end
  s = 0
  objs.each do |o|
    s += o.geta
  end
  i = 0
  while i < 8
    objs[i].grow(10 * i)
    i += 1
  end
  objs.each do |o|
    s += o.geta + o.getb
  end
  s
end

$slots = Array.new(4, 0)
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    $slots[tid] = work(tid)
  end
end
threads.each do |t|
  t.join()
end
total = 0
j = 0
while j < 4
  total += $slots[j]
  j += 1
end
puts(total)
"#;

/// Per thread: Σ(tid+i) = 8·tid+28, then the same again plus Σ10i = 280.
const SHAPE_STDOUT: &str = "1440";

/// What a run leaves behind that every mode must agree on: stdout,
/// canonical heap digest, committed method-table version.
type Observed = (String, String, u32);

/// Run `src` under every mode, asserting that each HTM run leaves exactly
/// what the GIL run leaves, which is returned.
fn assert_identical_across_modes(src: &str, what: &str) -> Observed {
    let p = profile();
    let observe = |mode: RuntimeMode| -> Observed {
        let cfg = ExecConfig::new(mode, &p);
        let mut ex = Executor::new(src, VmConfig::default(), p.clone(), cfg).unwrap();
        let r = ex.run().unwrap_or_else(|e| panic!("{what}: {}: {e}", mode.label()));
        (r.stdout, oracle::heap_digest(&ex.vm), ex.vm.method_version)
    };
    let [gil, htm @ ..] = modes();
    let reference = observe(gil);
    for mode in htm {
        assert_eq!(observe(mode), reference, "{what}: {} diverged from the GIL", mode.label());
    }
    reference
}

#[test]
fn method_redefinition_invalidates_send_caches_in_all_modes() {
    let gil = assert_identical_across_modes(REDEFINE_SRC, "two redefinitions on main");
    assert_eq!(gil.0, REDEFINE_STDOUT);
}

#[test]
fn shape_mutation_invalidates_ivar_caches_in_all_modes() {
    let gil = assert_identical_across_modes(SHAPE_SRC, "ivar-table growth");
    assert_eq!(gil.0, SHAPE_STDOUT);
}

#[test]
fn redefinition_matches_the_gil_oracle_under_both_htm_policies() {
    let p = profile();
    for length in [LengthPolicy::Fixed(16), LengthPolicy::Dynamic] {
        let cfg = ExecConfig::new(RuntimeMode::Htm { length }, &p);
        let v = check_against_gil(REDEFINE_SRC, VmConfig::default(), p.clone(), cfg)
            .unwrap_or_else(|e| panic!("{length:?}: run failed: {e}"));
        assert!(v.matches(), "{length:?}: {}", v.mismatch.unwrap());
        assert_eq!(v.subject.stdout, REDEFINE_STDOUT);
    }
}

/// HTM-dynamic under 25 % spurious injection, footprint shrinks, timer
/// interrupts and the watchdog: the suite's chaos point.
fn chaos_cfg(p: &MachineProfile) -> ExecConfig {
    let mut cfg = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Dynamic }, p);
    cfg.fault_plan = Some(FaultPlan {
        seed: 0x1C_CAFE,
        spurious_rate: 0.25,
        shrink_rate: 0.05,
        restricted_rate: 0.0,
    });
    cfg.interrupt_interval = 50_000;
    cfg.watchdog = true;
    cfg
}

#[test]
fn chaos_point_at_25_percent_exercises_escrowed_cache_fills() {
    // 25 % spurious injection on the redefinition workload: transactions
    // abort while threads are filling send caches and while `class C`
    // blocks are bumping the method-table version. An aborted fill must
    // roll back with the undo log and an aborted bump must be dropped
    // from the escrow — a leak of either diverges the cache guards and,
    // with them, the observable run.
    let p = profile();
    let cfg = chaos_cfg(&p);
    let v = check_against_gil(REDEFINE_SRC, VmConfig::default(), p, cfg)
        .expect("chaos redefinition run failed");
    assert!(v.matches(), "{}", v.mismatch.unwrap());
    assert_eq!(v.subject.stdout, REDEFINE_STDOUT);
    assert!(v.subject.htm.begins > 0, "threads must speculate before the watchdog parks them");
    assert!(v.subject.htm.spurious > 0, "25 % injection must fire");
    assert!(v.subject.htm.total_aborts() > 0, "aborts must roll escrowed fills back");
}

/// Main warms `probe`'s send site against `m` → 7, thread 0 runs
/// `worker_body`, and three more threads abort each other on `$counter`
/// — under a mutex, so the final count is the same in every schedule
/// (a bare `$counter += 1` loses updates across the extended yield
/// points, under the GIL too).
fn contended(worker_body: &str, epilogue: &str) -> String {
    format!(
        r#"
class C
  def m()
    7
  end
end

def probe(o)
  o.m
end

$o = C.new()
$counter = 0
$lock = Mutex.new()
probe($o)
threads = []
threads << Thread.new(0) do |x|
{worker_body}
end
3.times do |k|
  threads << Thread.new(k) do |x|
    j = 0
    while j < 300
      $lock.lock()
      $counter += 1
      $lock.unlock()
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
{epilogue}
"#
    )
}

/// Thread 0 redefines `m` → 11 after `delay` loop iterations, inside a
/// transaction of its own, while the other threads' transactions abort
/// and fall back on the GIL around it. The redefinition commits, so the
/// version bump must too — nobody else's abort may drop it, nobody else's
/// step publish it early — or `probe` keeps answering from the stale
/// cache entry.
#[test]
fn redefinition_in_a_worker_survives_other_threads_aborts() {
    for delay in 0..120 {
        let body = format!(
            r#"
  i = 0
  while i < {delay}
    i += 1
  end
  class C
    def m()
      11
    end
  end"#
        );
        let src = contended(&body, "puts(probe($o))");
        let gil = assert_identical_across_modes(&src, &format!("delay {delay}"));
        assert_eq!((gil.0.as_str(), gil.2), ("11", 1), "delay {delay}");
    }
}

/// Forty redefinitions in the worker: every one commits exactly once, so
/// the committed version ends where the GIL run's does.
#[test]
fn repeated_redefinition_in_a_worker_commits_every_version_bump() {
    let body = r#"
  k = 0
  while k < 40
    class C
      def m()
        11
      end
    end
    k += 1
  end"#;
    let src = contended(body, "puts(probe($o))");
    let gil = assert_identical_across_modes(&src, "forty redefinitions");
    assert_eq!((gil.0.as_str(), gil.2), ("11", 40));
}
