//! End-to-end interpreter tests: parse → compile → execute Ruby programs.
//!
//! Uses a minimal cooperative driver (round-robin, no GIL, no HTM, no
//! cycle accounting) so VM *semantics* are validated independently of the
//! TLE runtime in `htm-gil-core`.

use machine_sim::MachineProfile;
use ruby_vm::{BlockOn, StepOk, Stop, Vm, VmAbort, VmConfig, Word};

/// Run a program to completion under a simple cooperative scheduler.
fn run_vm(src: &str) -> Vm {
    let mut vm = Vm::boot(src, VmConfig::default(), &MachineProfile::generic(4))
        .unwrap_or_else(|e| panic!("boot failed: {e}"));
    let mut blocked: Vec<Option<BlockOn>> = vec![None];
    let mut budget = 200_000_000u64;
    loop {
        let n = vm.threads.len();
        blocked.resize(n, None);
        let mut progressed = false;
        let mut all_done = true;
        for (t, slot) in blocked.iter_mut().enumerate().take(n) {
            if vm.threads[t].finished {
                continue;
            }
            all_done = false;
            // Re-check blocking conditions.
            if let Some(b) = *slot {
                let ready = match b {
                    BlockOn::Join(target) => vm.threads[target].finished,
                    BlockOn::Io(_) => true,
                    BlockOn::Mutex(_) | BlockOn::Barrier(_) => true, // retry
                };
                if !ready {
                    continue;
                }
                *slot = None;
            }
            // Run a bounded burst for this thread.
            for _ in 0..1000 {
                budget = budget.checked_sub(1).expect("test budget exhausted");
                match vm.step(t) {
                    Ok(StepOk::Normal) => progressed = true,
                    Ok(StepOk::Finished) => {
                        progressed = true;
                        // Publish result into the Thread object, as the
                        // real executor does.
                        let ctx = &vm.threads[t];
                        let (obj, result) = (ctx.thread_obj, ctx.result);
                        if obj != 0 {
                            vm.mem.write(t, obj + 2, Word::Int(1)).unwrap();
                            vm.mem.write(t, obj + 3, result).unwrap();
                        }
                        break;
                    }
                    Ok(StepOk::Spawned { .. }) => {
                        progressed = true;
                        break;
                    }
                    Ok(StepOk::Block(b)) => {
                        *slot = Some(b);
                        break;
                    }
                    Err(VmAbort) => match vm.take_stop() {
                        Some(Stop::Fatal(e)) => panic!("vm error: {e}"),
                        other => panic!("unexpected stop: {other:?}"),
                    },
                }
            }
        }
        if all_done {
            return vm;
        }
        if !progressed {
            // Mutex/Barrier waiters spin through their retry path; classic
            // deadlock shows up as no thread making progress while none
            // can be unblocked by another.
            let any_unfinished_runnable =
                (0..vm.threads.len()).any(|t| !vm.threads[t].finished && blocked[t].is_none());
            assert!(any_unfinished_runnable, "deadlock: all live threads blocked");
        }
    }
}

fn run(src: &str) -> String {
    run_vm(src).stdout_text()
}

#[test]
fn arithmetic_and_puts() {
    assert_eq!(run("puts(1 + 2 * 3)"), "7");
    assert_eq!(run("puts(10 / 3)\nputs(10 % 3)"), "3\n1");
    assert_eq!(run("puts(-7 / 2)"), "-4"); // Ruby floor division
    assert_eq!(run("puts(1 << 10)\nputs(0 - 7 + -1)"), "1024\n-8");
}

#[test]
fn float_arithmetic_allocates_objects() {
    let vm = run_vm("x = 1.5 + 2.25\nputs(x)");
    assert_eq!(vm.stdout_text(), "3.75");
    assert!(vm.allocations > 0, "float results are heap objects");
}

#[test]
fn string_operations() {
    assert_eq!(run(r#"puts("foo" + "bar")"#), "foobar");
    assert_eq!(run(r#"puts("Hello".length)"#), "5");
    assert_eq!(run(r#"puts("Hello".downcase)"#), "hello");
    assert_eq!(run(r#"puts("a,b,c".split(","))"#), "a\nb\nc");
    assert_eq!(run(r#"puts(Regexp.new("wor").match("hello world").nil?)"#), "false");
    assert_eq!(run(r#"puts("42abc".to_i + 1)"#), "43");
    assert_eq!(
        run(r#"s = "ab"
s << "cd"
puts(s)"#),
        "abcd"
    );
}

#[test]
fn conditionals_and_loops() {
    assert_eq!(run("if 1 < 2\nputs(\"yes\")\nelse\nputs(\"no\")\nend"), "yes");
    assert_eq!(run("x = 0\ni = 1\nwhile i <= 10\n  x += i\n  i += 1\nend\nputs(x)"), "55");
    assert_eq!(run("puts(if 5 > 3 then \"big\" else \"small\" end)"), "big");
    assert_eq!(run("i = 0\nuntil i == 7\n  i += 1\nend\nputs(i)"), "7");
    assert_eq!(
        run("s = 0\ni = 0\nwhile i < 10\n  i += 1\n  s += i unless i.odd?\nend\nputs(s)"),
        "30"
    );
    assert_eq!(run("x = 5\nputs(\"neg\") unless x > 0\nputs(\"pos\") if x > 0"), "pos");
}

#[test]
fn methods_and_recursion() {
    assert_eq!(
        run("def fib(n)\n  return n if n < 2\n  fib(n - 1) + fib(n - 2)\nend\nputs(fib(15))"),
        "610"
    );
    assert_eq!(run("def greet(name)\n  \"hi \" + name\nend\nputs(greet(\"bob\"))"), "hi bob");
}

#[test]
fn the_paper_while_microbenchmark() {
    // Fig. 4 left: the While benchmark workload body.
    let src = "def workload(num_iter)\n  x = 0\n  i = 1\n  while i <= num_iter\n    x += i\n    i += 1\n  end\n  x\nend\nputs(workload(1000))";
    assert_eq!(run(src), "500500");
}

#[test]
fn the_paper_iterator_microbenchmark() {
    // Fig. 4 right: the Iterator benchmark workload body.
    let src = "def workload(num_iter)\n  x = 0\n  (1..num_iter).each do |i|\n    x += i\n  end\n  x\nend\nputs(workload(1000))";
    assert_eq!(run(src), "500500");
}

#[test]
fn blocks_and_yield() {
    assert_eq!(
        run("def twice()\n  yield(1)\n  yield(2)\nend\ntwice() { |x| puts(x * 10) }"),
        "10\n20"
    );
    assert_eq!(run("3.times do |i|\n  puts(i)\nend"), "0\n1\n2");
    assert_eq!(run("puts((1..4).map { |x| x * x })"), "1\n4\n9\n16");
    assert_eq!(run("puts([1, 2, 3, 4].select { |x| x.even?() })"), "2\n4");
}

#[test]
fn arrays_and_hashes() {
    assert_eq!(run("a = [1, 2, 3]\na << 4\na << 5\nputs(a.length)\nputs(a[4])"), "5\n5");
    assert_eq!(run("a = Array.new(3, 7)\nputs(a)"), "7\n7\n7");
    assert_eq!(
        run("h = Hash.new()\nh[\"a\"] = 1\nh[\"b\"] = 2\nputs(h[\"b\"])\nh[\"c\"] = 3\nputs(h[\"c\"])"),
        "2\n3"
    );
    assert_eq!(run("a = [5, 3, 9]\nputs(a.select { |x| x > 4 })\nputs(a.sum)"), "5\n9\n17");
    assert_eq!(run("a = [1, 2]\na[0] = a[0] + 10\nputs(a[0])"), "11");
}

#[test]
fn classes_ivars_inheritance() {
    let src = r#"
class Animal
  def initialize(name)
    @name = name
  end
  def name()
    @name
  end
  def speak()
    "..."
  end
end
class Dog < Animal
  def speak()
    "Woof"
  end
end
d = Dog.new("Rex")
puts(d.name)
puts(d.speak)
puts(Animal.new("Tom").speak)
"#;
    assert_eq!(run(src), "Rex\nWoof\n...");
}

#[test]
fn accessors_and_class_level_state() {
    let src = r#"
$total = 0
class Counter
  def count
    @count
  end
  def count=(v)
    @count = v
  end
  def initialize()
    @count = 0
  end
  def bump()
    @count += 1
    $total += 1
  end
  def self.total()
    $total
  end
end
a = Counter.new()
b = Counter.new()
a.bump()
a.bump()
b.bump()
puts(a.count)
puts(b.count)
puts(Counter.total)
a.count = 42
puts(a.count)
"#;
    assert_eq!(run(src), "2\n1\n3\n42");
}

#[test]
fn globals_and_constants() {
    assert_eq!(run("$g = 5\n$g += 1\nputs($g)"), "6");
    assert_eq!(run("LIMIT = 10\nputs(LIMIT * 2)"), "20");
}

#[test]
fn threads_run_and_join() {
    let src = r#"
t = Thread.new(21) do |n|
  $r = n * 2
end
t.join()
puts($r)
"#;
    assert_eq!(run(src), "42");
}

#[test]
fn many_threads_with_shared_array() {
    let src = r#"
results = Array.new(4, 0)
threads = []
4.times do |i|
  threads << Thread.new(i) do |tid|
    s = 0
    j = 1
    while j <= 100
      s += j * (tid + 1)
      j += 1
    end
    results[tid] = s
  end
end
threads.each do |t|
  t.join()
end
puts(results)
"#;
    assert_eq!(run(src), "5050\n10100\n15150\n20200");
}

#[test]
fn mutex_protects_counter() {
    let src = r#"
m = Mutex.new()
count = 0
threads = []
3.times do |i|
  threads << Thread.new() do
    j = 0
    while j < 50
      m.synchronize do
        count += 1
      end
      j += 1
    end
  end
end
threads.each do |t|
  t.join()
end
puts(count)
"#;
    assert_eq!(run(src), "150");
}

#[test]
fn barrier_synchronizes_phases() {
    let src = r#"
b = Barrier.new(3)
marks = Array.new(3, 0)
sums = Array.new(3, 0)
threads = []
3.times do |i|
  threads << Thread.new(i) do |tid|
    marks[tid] = 1
    b.wait()
    # After the barrier everyone must observe everyone's phase-1 mark.
    sums[tid] = marks[0] + marks[1] + marks[2]
  end
end
threads.each do |t|
  t.join()
end
puts(sums)
"#;
    assert_eq!(run(src), "3\n3\n3");
}

#[test]
fn regexp_matching() {
    let src = r#"
r = Regexp.new("GET (.*) HTTP")
m = r.match("GET /index.html HTTP/1.1")
puts(m[1])
puts(r.match("POST /x").nil?)
"#;
    assert_eq!(run(src), "/index.html\ntrue");
}

#[test]
fn store_queries() {
    let src = r#"
books = Store.create(3)
books.insert([1, "Dune", 1965])
books.insert([2, "Neuromancer", 1984])
books.insert([3, "Count Zero", 1984])
rows = books.scan_eq(2, 1984)
puts(rows.length)
puts(rows[0][1])
puts(books.all.length)
"#;
    assert_eq!(run(src), "2\nNeuromancer\n3");
}

#[test]
fn io_wait_blocks_and_resumes() {
    assert_eq!(run("puts(\"a\")\nio_wait(1)\nputs(\"b\")"), "a\nb");
}

#[test]
fn nested_blocks_and_closures() {
    let src = r#"
total = 0
(1..3).each do |i|
  (1..3).each do |j|
    total += i * j
  end
end
puts(total)
"#;
    assert_eq!(run(src), "36");
}

#[test]
fn logical_operators_short_circuit() {
    assert_eq!(run("puts(nil || 5)"), "5");
    assert_eq!(run("puts(false && broken_call())"), "false");
    assert_eq!(run("x = nil\nx = x || 3\nx = x || 9\nputs(x)"), "3");
    assert_eq!(run("x = 1\nx = x && nil\nputs(x.nil?)"), "true");
}

#[test]
fn comparable_and_equality() {
    assert_eq!(run("puts(1 == 1.0)"), "true");
    assert_eq!(run("puts(\"a\" == \"a\")\nputs(\"a\" == \"b\")"), "true\nfalse");
    assert_eq!(run("puts(3 < 5)\nputs(\"b\" > \"a\")\nputs(\"b\" <= \"a\")"), "true\ntrue\nfalse");
}

#[test]
fn two_dimensional_arrays_via_build() {
    let src = r#"
grid = Array.build(3) { |i| Array.new(3, i) }
grid[1][2] = 9
puts(grid[1])
puts(grid[2])
"#;
    assert_eq!(run(src), "1\n1\n9\n2\n2\n2");
}

#[test]
fn gc_survives_allocation_storm() {
    // Allocate far more floats than the heap holds; GC + growth must cope
    // and the result must still be right.
    let src = r#"
s = 0.0
i = 0
while i < 20000
  s += 1.5
  i += 1
end
puts(s)
"#;
    let cfg = VmConfig { heap_slots: 2_000, max_heap_slots: 20_000, ..VmConfig::default() };
    let mut vm = Vm::boot(src, cfg, &MachineProfile::generic(2)).unwrap();
    loop {
        match vm.step(0) {
            Ok(StepOk::Finished) => break,
            Ok(_) => {}
            Err(e) => panic!("{e:?}"),
        }
    }
    assert_eq!(vm.stdout_text(), "30000.0");
    assert!(vm.gc_runs > 0, "GC must have run");
}

/// `Vm::burst` is `Vm::step` in a loop: whatever the budget and the yield
/// bit, a program retires the same bytecodes at the same cost, and every
/// burst ends for one of its four reasons.
#[test]
fn a_burst_is_its_steps_and_ends_at_the_budget_a_flagged_instruction_or_a_mark() {
    let src = "i = 0\nwhile i < 50\n  i += 1\nend\nsrv_mark(1, 7)\nputs(i)";
    // (bursts, bytecodes — one a step — and cycles) to completion.
    let drive = |budget: u64, yield_bit: u8| {
        let mut vm = Vm::boot(src, VmConfig::default(), &MachineProfile::generic(2)).unwrap();
        let mut sums = (0u64, 0u64, 0u64);
        loop {
            vm.reset_step_counters();
            let outcome = vm.burst(0, budget, yield_bit).unwrap();
            let marked = !std::mem::take(&mut vm.pending_marks).is_empty();
            sums = (sums.0 + 1, sums.1 + u64::from(vm.step_insns), sums.2 + vm.step_cost());
            match outcome {
                StepOk::Finished => break,
                StepOk::Normal => assert!(
                    marked || vm.step_cost() >= budget || vm.insn_flags(0) & yield_bit != 0,
                    "a burst of {} steps ended for no reason",
                    vm.step_insns
                ),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(vm.stdout_text(), "50");
        sums
    };
    let single = drive(0, 0);
    assert_eq!(single.0, single.1, "budget 0: one step a burst");
    let whole = drive(u64::MAX, 0);
    assert_eq!(whole.0, 2, "only the mark and the end stop a boundless burst");
    let to_yield_points = drive(u64::MAX, ruby_vm::decode::YP_ORIG);
    assert!(to_yield_points.0 > 50 && to_yield_points.0 < single.0 / 2, "{to_yield_points:?}");
    let budgeted = drive(300, 0);
    assert!(budgeted.0 > 2 && budgeted.0 < single.0 / 2, "{budgeted:?}");
    for run in [whole, to_yield_points, budgeted] {
        assert_eq!((run.1, run.2), (single.1, single.2));
    }
}

/// A failing step's `Err` is zero-sized; its reason waits in the VM for
/// whoever drives it. `"abc".split(5)` fails three calls below the
/// builtin (`bi_str_split` → `str_arg` → `recv_slot` → `Vm::fatal`),
/// here inside a transaction: the message comes up intact, it can be taken
/// once, and — it is not speculative state — aborting the transaction
/// afterwards restores the image the transaction began on.
#[test]
fn a_fatal_deep_in_a_builtin_inside_a_transaction_parks_its_message_once() {
    let src = "a = [1, 2]\na << 3\n\"abc\".split(5)\nputs(1)";
    let cfg = VmConfig { heap_slots: 2_000, malloc_words: 8_000, ..VmConfig::default() };
    let mut vm = Vm::boot(src, cfg, &MachineProfile::generic(2)).unwrap();
    let image = |vm: &Vm| (0..vm.mem.size()).map(|a| *vm.mem.peek(a)).collect::<Vec<_>>();
    let (before, registers) = (image(&vm), vm.snapshot(0));
    let roomy = htm_sim::Budgets { read_lines: 1 << 20, write_lines: 1 << 20 };
    vm.mem.begin(0, roomy).unwrap();
    let mut steps = 0;
    while vm.step(0) == Ok(StepOk::Normal) {
        steps += 1;
    }
    assert!(steps > 5, "the array was built first: {steps} steps");
    assert_ne!(image(&vm), before, "the transaction wrote");
    let msg = "receiver is not a String".to_string();
    assert_eq!(vm.take_stop(), Some(Stop::Fatal(ruby_vm::VmError { msg })));
    assert_eq!(vm.take_stop(), None, "taken once");
    assert!(vm.mem.in_tx(0), "a fatal error is not an abort");
    vm.mem.tabort(0, 1);
    vm.restore(0, registers);
    // (Free-list words the allocator wrote down on demand were `Uninit`
    // by representation only: `TxMemory::materialize` is no store.)
    let restored =
        image(&vm).iter().zip(&before).all(|(now, was)| now == was || *was == Word::Uninit);
    assert!(restored, "the rollback restores every word");
    assert_eq!(vm.stdout_text(), "");
}
