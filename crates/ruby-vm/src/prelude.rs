//! The Ruby-level prelude, compiled and executed at VM boot.
//!
//! CRuby implements iteration protocols (`Integer#times`, `Range#each`,
//! `Array#each`, …) partly in Ruby, partly in C. Implementing them here *in
//! the subset itself* matters for fidelity: every `each`/`times` iteration
//! then flows through real `send`/`invokeblock`/`opt_*` bytecodes — the
//! instructions the paper adds yield points to — instead of opaque native
//! loops. The Iterator micro-benchmark of Fig. 4 specifically measures this
//! path.

use std::sync::OnceLock;

use crate::bytecode::IseqId;
use crate::compile::{compile_source, CompileError};
use crate::program::Program;

/// The program every compilation starts from — operator names interned,
/// the prelude compiled and decoded — and the prelude's top-level iseq.
/// Built once per process: the seed of [`Program::compiled`]'s memo, whose
/// entries share its iseqs and symbols.
pub fn compiled() -> Result<&'static (Program, IseqId), CompileError> {
    static COMPILED: OnceLock<Result<(Program, IseqId), CompileError>> = OnceLock::new();
    COMPILED
        .get_or_init(|| {
            let mut program = Program::default();
            // Pre-intern operator names used by generic fallbacks.
            for op in [
                "+",
                "-",
                "*",
                "/",
                "%",
                "==",
                "!=",
                "<",
                "<=",
                ">",
                ">=",
                "<<",
                "initialize",
                "new",
                "each",
                "times",
                "to_s",
            ] {
                program.intern(op);
            }
            let prelude_iseq = compile_source(PRELUDE, &mut program)?;
            program.finalize();
            program.share_decoded();
            Ok((program, prelude_iseq))
        })
        .as_ref()
        .map_err(CompileError::clone)
}

/// Prelude source (compiled before user code; defines no threads).
pub const PRELUDE: &str = r#"
class Integer
  def times
    i = 0
    while i < self
      yield(i)
      i += 1
    end
    self
  end
  def upto(limit)
    i = self
    while i <= limit
      yield(i)
      i += 1
    end
    self
  end
  def downto(limit)
    i = self
    while i >= limit
      yield(i)
      i -= 1
    end
    self
  end
  def step(limit, by)
    i = self
    while i <= limit
      yield(i)
      i += by
    end
    self
  end
  def even?()
    self % 2 == 0
  end
  def odd?()
    self % 2 == 1
  end
  def zero?()
    self == 0
  end
  def succ()
    self + 1
  end
end

class Range
  def each
    i = self.begin
    last = self.end
    if self.exclude_end?
      while i < last
        yield(i)
        i += 1
      end
    else
      while i <= last
        yield(i)
        i += 1
      end
    end
    self
  end
  def size()
    n = self.end - self.begin
    if self.exclude_end?
      n
    else
      n + 1
    end
  end
  def to_a
    a = []
    self.each do |x|
      a << x
    end
    a
  end
  def map
    a = []
    self.each do |x|
      a << yield(x)
    end
    a
  end
  def sum
    s = 0
    self.each do |x|
      s += x
    end
    s
  end
  def include?(v)
    if self.exclude_end?
      v >= self.begin && v < self.end
    else
      v >= self.begin && v <= self.end
    end
  end
end

class Array
  def each
    i = 0
    n = self.length
    while i < n
      yield(self[i])
      i += 1
    end
    self
  end
  def each_index
    i = 0
    n = self.length
    while i < n
      yield(i)
      i += 1
    end
    self
  end
  def each_with_index
    i = 0
    n = self.length
    while i < n
      yield(self[i], i)
      i += 1
    end
    self
  end
  def map
    a = []
    self.each do |x|
      a << yield(x)
    end
    a
  end
  def select
    a = []
    self.each do |x|
      if yield(x)
        a << x
      end
    end
    a
  end
  def reject
    a = []
    self.each do |x|
      unless yield(x)
        a << x
      end
    end
    a
  end
  def sum
    s = 0
    self.each do |x|
      s += x
    end
    s
  end
  def count
    self.length
  end
  def reverse
    a = []
    i = self.length - 1
    while i >= 0
      a << self[i]
      i -= 1
    end
    a
  end
  def all?()
    ok = true
    self.each do |x|
      unless yield(x)
        ok = false
      end
    end
    ok
  end
  def any?()
    ok = false
    self.each do |x|
      if yield(x)
        ok = true
      end
    end
    ok
  end
  def none?()
    ok = true
    self.each do |x|
      if yield(x)
        ok = false
      end
    end
    ok
  end
  def find
    found = nil
    hit = false
    self.each do |x|
      if hit == false
        if yield(x)
          found = x
          hit = true
        end
      end
    end
    found
  end
  def self.build(n)
    a = Array.new(n, nil)
    i = 0
    while i < n
      a[i] = yield(i)
      i += 1
    end
    a
  end
end

class Hash
  def each
    ks = self.keys()
    i = 0
    n = ks.length
    while i < n
      k = ks[i]
      yield(k, self[k])
      i += 1
    end
    self
  end
  def each_key
    ks = self.keys()
    i = 0
    n = ks.length
    while i < n
      yield(ks[i])
      i += 1
    end
    self
  end
end

class Mutex
  def synchronize
    self.lock()
    r = yield
    self.unlock()
    r
  end
end

class String
  def +(other)
    self.dup() << other
  end
end
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_parses() {
        ruby_lang::parse_program(PRELUDE).expect("prelude must parse");
    }

    #[test]
    fn prelude_compiles() {
        let mut p = crate::program::Program::default();
        crate::compile::compile_source(PRELUDE, &mut p).expect("prelude must compile");
    }
}
