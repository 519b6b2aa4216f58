//! End-to-end coverage of the builtin library and prelude iterators
//! (single-threaded driver — semantics only).

use machine_sim::MachineProfile;
use ruby_vm::{StepOk, Vm, VmConfig};

fn run(src: &str) -> String {
    let mut vm = Vm::boot(src, VmConfig::default(), &MachineProfile::generic(2))
        .unwrap_or_else(|e| panic!("boot: {e}"));
    for _ in 0..80_000_000u64 {
        match vm.step(0) {
            Ok(StepOk::Finished) => return vm.stdout_text(),
            Ok(StepOk::Normal) => {}
            Ok(other) => panic!("unexpected {other:?}"),
            Err(e) => panic!("vm error: {e:?}\nin {src}"),
        }
    }
    panic!("did not finish");
}

#[test]
fn integer_methods() {
    assert_eq!(run("puts(5.to_f + 0.5)"), "5.5");
    assert_eq!(run("puts(4.even?())\nputs(4.odd?())\nputs(0.zero?())"), "true\nfalse\ntrue");
    assert_eq!(run("puts(6.succ)"), "7");
    assert_eq!(run("s = 0\n3.upto(5) { |i| s += i }\nputs(s)"), "12");
    assert_eq!(run("s = 0\n5.downto(3) { |i| s += i }\nputs(s)"), "12");
    assert_eq!(run("a = []\n1.step(9, 3) { |i| a << i }\nputs(a)"), "1\n4\n7");
}

#[test]
fn float_methods() {
    assert_eq!(run("puts(2.5.round)\nputs(2.2.round)"), "3\n2");
    assert_eq!(run("puts(1.5.round(0))"), "2.0");
}

#[test]
fn string_library() {
    assert_eq!(run(r#"puts("a-b-c".split("-").length)"#), "3");
    assert_eq!(run(r#"puts(" a b  c ".split().length)"#), "3");
    assert_eq!(run(r#"puts("MiXeD".downcase)"#), "mixed");
    assert_eq!(run(r#"puts(" 42abc".to_i + 1)"#), "43");
    assert_eq!(run("s = \"ab\"\nt = s.dup\nt << \"c\"\nputs(s)\nputs(t)"), "ab\nabc");
    assert_eq!(run(r#"puts("a" + 1)"#), "a1");
    assert_eq!(
        run(r#"puts("".empty?)
puts("x".empty?)"#),
        "true\nfalse"
    );
    assert_eq!(
        run(r#"puts("hi"[0])
puts("hi"[-1])"#),
        "h\ni"
    );
}

#[test]
fn array_library() {
    assert_eq!(run("puts([1, 2] + [3])"), "1\n2\n3");
    assert_eq!(run("a = Array.new(2, 7)\na << 3\nputs(a.length)\nputs(a)"), "3\n7\n7\n3");
    assert_eq!(run("puts([1, 2, 3].reverse)"), "3\n2\n1");
    assert_eq!(run("puts([1, 2, 3].each_with_index { |x, i| }.length)"), "3");
    assert_eq!(run("s = 0\n[1, 2, 3].each_index { |i| s += i }\nputs(s)"), "3");
    assert_eq!(run("puts([1, 2, 3, 4].reject { |x| x.even?() })"), "1\n3");
    assert_eq!(run("puts([5, 2, 9].find { |x| x > 4 })"), "5");
    assert_eq!(
        run("puts([1, 2].any?() { |x| x > 1 })\nputs([1, 2].all?() { |x| x > 1 })"),
        "true\nfalse"
    );
}

#[test]
fn hash_library() {
    let hash = |pairs: &str| format!("h = Hash.new()\n{pairs}\n");
    let src = hash("h[1] = \"a\"\nh[\"k\"] = 2") + "puts(h[1])\nputs(h[\"k\"])";
    assert_eq!(run(&src), "a\n2");
    assert_eq!(run(&(hash("h[\"x\"] = 5") + "puts(h[\"x\"])\nputs(h[\"y\"].nil?)")), "5\ntrue");
    assert_eq!(run(&(hash("h[1] = 10") + "h[1] = h[1] + 5\nputs(h[1])")), "15");
    assert_eq!(run(&(hash("h[2] = \"b\"\nh[1] = \"a\"") + "puts(h.keys)")), "2\n1");
    let src = hash("h[1] = 10\nh[2] = 20") + "s = 0\nh.each { |k, v| s += k + v }\nputs(s)";
    assert_eq!(run(&src), "33");
    let src = hash("h[3] = 0\nh[4] = 0") + "s = 0\nh.each_key { |k| s += k }\nputs(s)";
    assert_eq!(run(&src), "7");
}

#[test]
fn range_library() {
    assert_eq!(run("r = (2..5)\nputs(r.begin)\nputs(r.end)\nputs(r.size)"), "2\n5\n4");
    assert_eq!(run("puts((1...4).size)"), "3");
    assert_eq!(run("puts((1..10).include?(5))\nputs((1..10).include?(11))"), "true\nfalse");
    assert_eq!(run("puts((1..4).to_a)"), "1\n2\n3\n4");
    assert_eq!(run("puts((1..5).sum)"), "15");
}

#[test]
fn object_protocol() {
    assert_eq!(run("puts(Integer)\nputs(String)"), "Integer\nString");
    assert_eq!(run("puts(nil.nil?)\nputs(0.nil?)"), "true\nfalse");
    assert_eq!(run("puts(42.to_s + \"!\")"), "42!");
    assert_eq!(run("puts(nil.to_s.empty?)"), "true");
}

#[test]
fn kernel_output() {
    assert_eq!(run("puts()"), "");
    assert_eq!(run("print(\"a\")\nprint(\"b\")"), "ab");
    assert_eq!(run("puts([1, \"two\"])"), "1\ntwo");
}

#[test]
fn proc_call() {
    // Proc#call through a stored block.
    let src = r#"
def make_adder(n)
  adder = nil
  helper(n) { |x| x + n }
end
def helper(n)
  yield(10)
end
puts(make_adder(5))
"#;
    assert_eq!(run(src), "15");
}

#[test]
fn regexp_library() {
    assert_eq!(
        run(r#"r = Regexp.new("[0-9]+")
puts(r.match("abc123").nil?)
puts(r.match("abc").nil?)"#),
        "false\ntrue"
    );
    assert_eq!(
        run(r#"r = Regexp.new("([a-z]+)@([a-z.]+)")
m = r.match("mail bob@example.org now")
puts(m[1] + " at " + m[2])"#),
        "bob at example.org"
    );
}

#[test]
fn class_state_shared_across_instances_lives_in_a_constant() {
    let src = r#"
class Registry
  ITEMS = []
  def add(x)
    ITEMS << x
  end
  def self.count()
    ITEMS.length
  end
end
a = Registry.new()
b = Registry.new()
a.add(1)
b.add(2)
puts(Registry.count)
"#;
    assert_eq!(run(src), "2");
}

#[test]
fn reopening_a_class_adds_methods() {
    let src = r#"
class Thing
  def one()
    1
  end
end
class Thing
  def two()
    2
  end
end
t = Thing.new()
puts(t.one + t.two)
"#;
    assert_eq!(run(src), "3");
}

#[test]
fn operator_method_definitions() {
    // `get` is compiled before `def []` interns its name: the call still
    // binds it (the fallback selector is resolved once the text is whole).
    let src = r#"
def get(v)
  v[2]
end
class Vec
  def x
    @x
  end
  def initialize(x)
    @x = x
  end
  def +(other)
    Vec.new(@x + other.x)
  end
  def [](i)
    @x * i
  end
end
v = Vec.new(3) + Vec.new(4)
puts(v.x)
puts(v[2])
puts(get(Vec.new(3)))
"#;
    assert_eq!(run(src), "7\n14\n6");
}

#[test]
fn string_shadow_footprint_grows() {
    // White-box: a long string's shadow buffer must consume simulated
    // memory proportional to its length.
    let mut vm =
        Vm::boot("s = \"x\"\nt = s\nputs(s)", VmConfig::default(), &MachineProfile::generic(2))
            .unwrap();
    let before = vm.allocations;
    loop {
        match vm.step(0) {
            Ok(StepOk::Finished) => break,
            Ok(_) => {}
            Err(e) => panic!("{e:?}"),
        }
    }
    assert!(vm.allocations > before);
}
