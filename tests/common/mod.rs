//! Random concurrent Ruby programs for the cross-stack property tests.
//!
//! The generator composes from a small vocabulary of thread-safe
//! building blocks (per-thread accumulation, mutex-guarded shared
//! counters, disjoint array slots) so every generated program has exactly
//! one correct output.

use proptest::prelude::*;

#[derive(Debug, Clone)]
pub enum Body {
    /// Plain per-thread loop accumulating into a private local.
    PrivateSum { iters: u8 },
    /// Mutex-guarded increments of a shared counter.
    MutexCount { iters: u8 },
    /// Writes to a per-thread slot of a shared array.
    DisjointSlots { iters: u8 },
    /// Float accumulation (allocator pressure).
    FloatSum { iters: u8 },
    /// Per-thread string building (`<<`, `+`, `downcase`, `split`,
    /// `Regexp.new`): string-table pressure.
    StringChurn { iters: u8 },
}

pub fn body_strategy() -> impl Strategy<Value = Body> {
    prop_oneof![
        (1u8..40).prop_map(|iters| Body::PrivateSum { iters }),
        (1u8..12).prop_map(|iters| Body::MutexCount { iters }),
        (1u8..25).prop_map(|iters| Body::DisjointSlots { iters }),
        (1u8..20).prop_map(|iters| Body::FloatSum { iters }),
        (1u8..15).prop_map(|iters| Body::StringChurn { iters }),
    ]
}

/// Render a program: `threads` workers all running `body`, results
/// combined deterministically.
pub fn render(threads: usize, body: &Body) -> (String, String) {
    let (inner, combine, expected): (String, &str, String) = match body {
        Body::PrivateSum { iters } => (
            format!(
                "    s = 0\n    j = 1\n    while j <= {iters}\n      s += j\n      j += 1\n    end\n    out[tid] = s\n"
            ),
            "total",
            {
                let per = i64::from(*iters) * (i64::from(*iters) + 1) / 2;
                format!("{}", per * threads as i64)
            },
        ),
        Body::MutexCount { iters } => (
            format!(
                "    j = 0\n    while j < {iters}\n      m.synchronize do\n        count[0] = count[0] + 1\n      end\n      j += 1\n    end\n    out[tid] = 0\n"
            ),
            "count0",
            format!("{}", i64::from(*iters) * threads as i64),
        ),
        Body::DisjointSlots { iters } => (
            format!(
                "    j = 0\n    while j < {iters}\n      out[tid] = out[tid] + tid + 1\n      j += 1\n    end\n"
            ),
            "total",
            {
                let n = threads as i64;
                let iters = i64::from(*iters);
                // Σ_tid iters·(tid+1)
                format!("{}", iters * n * (n + 1) / 2)
            },
        ),
        Body::FloatSum { iters } => (
            format!(
                "    s = 0.0\n    j = 0\n    while j < {iters}\n      s += 0.5\n      j += 1\n    end\n    out[tid] = s.round * 2\n"
            ),
            "total",
            // round(iters·0.5)·2 per thread: a half rounds away from zero.
            format!("{}", (i64::from(*iters) + 1) / 2 * 2 * threads as i64),
        ),
        Body::StringChurn { iters } => (
            format!(
                "    s = \"t\"\n    n = 0\n    j = 0\n    while j < {iters}\n      s << \"ab\"\n      u = s + j.to_s\n      if Regexp.new(\"a(b+)\" + j.to_s).match(u)\n        n += 1\n      end\n      n += u.downcase.split(\"b\").length\n      j += 1\n    end\n    out[tid] = n\n"
            ),
            "total",
            {
                // Round j: the match hits, and "t" + "ab"·(j + 1) + digits
                // splits on "b" into j + 2 pieces.
                let iters = i64::from(*iters);
                format!("{}", (3 * iters + iters * (iters - 1) / 2) * threads as i64)
            },
        ),
    };
    let src = format!(
        r#"
m = Mutex.new()
count = Array.new(1, 0)
out = Array.new({threads}, 0)
threads = []
{threads}.times do |t|
  threads << Thread.new(t) do |tid|
{inner}
  end
end
threads.each do |t|
  t.join()
end
total = 0
out.each do |r|
  total += r
end
if "{combine}" == "count0"
  puts(count[0])
else
  puts(total)
end
"#
    );
    (src, expected)
}
