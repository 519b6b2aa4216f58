//! GIL-oracle differential checking.
//!
//! The forward-progress story is only half of robustness: a run that
//! terminates under fault injection must also have computed the *right
//! thing*. The paper's correctness argument (§4.1) is that TLE with a
//! GIL fallback is observationally equivalent to the GIL itself — so the
//! plain GIL runtime is a perfect oracle. This module runs a subject
//! configuration (any mode, any fault plan, any interrupt interval) and
//! a pristine GIL configuration over the same source, then compares
//!
//! * the complete stdout, and
//! * a canonical digest of the final global heap state.
//!
//! The digest deliberately avoids raw addresses: allocation order (and
//! therefore every `Addr`) differs across schedules, so it walks the
//! object graph hanging off the *global variables*, sorted by variable
//! name, rendering each object structurally. Hash entries are sorted
//! (insertion order is schedule-dependent but the mapping itself must
//! agree); cycles render as `<cycle>`.

use std::collections::HashSet;
use std::fmt::Write as _;

use machine_sim::MachineProfile;
use ruby_vm::{ObjKind, Vm, VmConfig, Word};

use crate::config::{ExecConfig, RuntimeMode};
use crate::exec::{Executor, RunError};
use crate::report::RunReport;

/// What a run leaves for comparison: the complete stdout and the
/// address-free digest of the final heap.
#[derive(Debug, Clone)]
pub struct Expected {
    pub stdout: String,
    pub heap: String,
}

impl Expected {
    /// What `ex`, run to its end, left behind.
    pub fn of(ex: &Executor) -> Expected {
        Expected { stdout: ex.vm.stdout_text(), heap: heap_digest(&ex.vm) }
    }

    /// The one wording of a divergence: how `subject`, a run labelled
    /// `label`, differs from this expectation; `None` when the two are
    /// observationally equivalent.
    pub fn mismatch(&self, label: &str, subject: &Expected) -> Option<String> {
        let (what, theirs, ours) = if subject.stdout != self.stdout {
            ("stdout", format!("{:?}", subject.stdout), format!("{:?}", self.stdout))
        } else if subject.heap != self.heap {
            ("final heap", subject.heap.clone(), self.heap.clone())
        } else {
            return None;
        };
        Some(format!(
            "{what} diverged from the GIL oracle\n  subject ({label}): {theirs}\n  oracle  (GIL): {ours}"
        ))
    }
}

/// The pristine GIL run of `source` (no fault plan, no interrupt model, no
/// watchdog, no controller) every subject is compared against: its report
/// and what it left.
pub fn gil_oracle(
    source: &str,
    vm_config: VmConfig,
    profile: MachineProfile,
    max_cycles: u64,
) -> Result<(RunReport, Expected), RunError> {
    let mut cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
    cfg.max_cycles = max_cycles;
    let mut ex = Executor::new(source, vm_config, profile, cfg)?;
    let report = ex.run()?;
    Ok((report, Expected::of(&ex)))
}

/// Outcome of one subject-vs-oracle comparison.
#[derive(Debug)]
pub struct OracleVerdict {
    pub subject: RunReport,
    pub oracle: RunReport,
    pub subject_heap: String,
    pub oracle_heap: String,
    /// `None` when the subject is observationally equivalent to the GIL
    /// oracle; otherwise a human-readable description of the divergence.
    pub mismatch: Option<String>,
}

impl OracleVerdict {
    pub fn matches(&self) -> bool {
        self.mismatch.is_none()
    }
}

/// Run `source` under `subject_cfg`, then under the pristine GIL
/// configuration, and compare stdout plus the final heap digest.
pub fn check_against_gil(
    source: &str,
    vm_config: VmConfig,
    profile: MachineProfile,
    subject_cfg: ExecConfig,
) -> Result<OracleVerdict, RunError> {
    let max_cycles = subject_cfg.max_cycles;
    let mut subj = Executor::new(source, vm_config.clone(), profile.clone(), subject_cfg)?;
    let subject = subj.run()?;
    let left = Expected::of(&subj);
    let (oracle, expected) = gil_oracle(source, vm_config, profile, max_cycles)?;
    let mismatch = expected.mismatch(&subject.mode_label, &left);
    Ok(OracleVerdict {
        subject,
        oracle,
        subject_heap: left.heap,
        oracle_heap: expected.heap,
        mismatch,
    })
}

/// Canonical, address-free digest of the VM's global-variable graph.
///
/// Globals are listed sorted by name (the per-run index assignment order
/// is schedule-dependent), each followed by a structural rendering of its
/// value. Two runs of the same program that ended in semantically equal
/// global state produce identical digests regardless of allocation order.
pub fn heap_digest(vm: &Vm) -> String {
    let mut gvars: Vec<(&str, usize)> =
        vm.gvar_map.iter().map(|(sym, idx)| (vm.symbols.name(*sym), *idx)).collect();
    gvars.sort();
    let mut out = String::new();
    let mut seen = HashSet::new();
    for (name, idx) in gvars {
        let _ = write!(out, "${name}=");
        render(vm, vm.mem.peek(vm.layout.gvar(idx)), &mut out, &mut seen);
        out.push('\n');
        seen.clear();
    }
    out
}

fn render(vm: &Vm, w: &Word, out: &mut String, seen: &mut HashSet<usize>) {
    match w {
        Word::Uninit | Word::Nil => out.push_str("nil"),
        Word::True => out.push_str("true"),
        Word::False => out.push_str("false"),
        Word::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Word::F64(f) => {
            let _ = write!(out, "{f:?}");
        }
        Word::Sym(s) => {
            let _ = write!(out, ":{}", vm.symbols.name(s.id()));
        }
        Word::Str(id) => match vm.strings.get(*id) {
            Some(s) => {
                let _ = write!(out, "{:?}", &**s);
            }
            None => out.push_str("<freed string>"),
        },
        Word::Hdr(_) => out.push_str("<header>"),
        Word::Obj(addr) => render_obj(vm, *addr, out, seen),
    }
}

fn peek_int(vm: &Vm, addr: usize) -> i64 {
    vm.mem.peek(addr).as_int().unwrap_or(0)
}

fn render_obj(vm: &Vm, addr: usize, out: &mut String, seen: &mut HashSet<usize>) {
    if !seen.insert(addr) {
        out.push_str("<cycle>");
        return;
    }
    let Some(kind) = vm.mem.peek(addr).as_header().and_then(|h| h.kind()) else {
        out.push_str("<corrupt>");
        return;
    };
    match kind {
        ObjKind::Float | ObjKind::String | ObjKind::Regexp => {
            render(vm, vm.mem.peek(addr + 1), out, seen);
        }
        ObjKind::Array => {
            let len = peek_int(vm, addr + 1) as usize;
            let buf = peek_int(vm, addr + 3) as usize;
            out.push('[');
            for i in 0..len {
                if i > 0 {
                    out.push(',');
                }
                render(vm, vm.mem.peek(buf + i), out, seen);
            }
            out.push(']');
        }
        ObjKind::Hash => {
            // Entry order is insertion order, which legitimately varies
            // across schedules: sort the rendered pairs.
            let n = peek_int(vm, addr + 1) as usize;
            let buf = peek_int(vm, addr + 3) as usize;
            let mut pairs = Vec::with_capacity(n);
            for i in 0..n {
                let mut p = String::new();
                render(vm, vm.mem.peek(buf + 2 * i), &mut p, seen);
                p.push_str("=>");
                render(vm, vm.mem.peek(buf + 2 * i + 1), &mut p, seen);
                pairs.push(p);
            }
            pairs.sort();
            out.push('{');
            out.push_str(&pairs.join(","));
            out.push('}');
        }
        ObjKind::Object => {
            out.push_str("#<");
            render_class_name(vm, peek_int(vm, addr + 1) as usize, out);
            // Ivar *indices* are assigned lazily per run, so render the
            // values as a sorted multiset rather than in index order.
            let buf = peek_int(vm, addr + 2) as usize;
            let nivars = peek_int(vm, addr + 3) as usize;
            let mut ivars = Vec::with_capacity(nivars);
            for i in 0..nivars {
                let mut v = String::new();
                render(vm, vm.mem.peek(buf + i), &mut v, seen);
                ivars.push(v);
            }
            ivars.sort();
            if !ivars.is_empty() {
                out.push(' ');
                out.push_str(&ivars.join(","));
            }
            out.push('>');
        }
        ObjKind::Class => {
            out.push_str("class:");
            render_class_name(vm, addr, out);
        }
        ObjKind::Range => {
            render(vm, vm.mem.peek(addr + 1), out, seen);
            out.push_str(if peek_int(vm, addr + 3) != 0 { "..." } else { ".." });
            render(vm, vm.mem.peek(addr + 2), out, seen);
        }
        ObjKind::Thread => {
            out.push_str("thread(");
            render(vm, vm.mem.peek(addr + 3), out, seen);
            out.push(')');
        }
        ObjKind::MatchData => {
            out.push_str("match");
            render(vm, vm.mem.peek(addr + 1), out, seen);
        }
        ObjKind::Table => {
            out.push_str("table");
            render(vm, vm.mem.peek(addr + 1), out, seen);
        }
        // Synchronization primitives and code objects carry no
        // user-visible *value* state worth comparing (owners are
        // transient, captured frames are addresses).
        ObjKind::Mutex => out.push_str("mutex"),
        ObjKind::Barrier => out.push_str("barrier"),
        ObjKind::Proc => out.push_str("proc"),
        ObjKind::Free => out.push_str("<free>"),
    }
}

fn render_class_name(vm: &Vm, class_slot: usize, out: &mut String) {
    match vm.mem.peek(class_slot + 6) {
        Word::Sym(s) => out.push_str(vm.symbols.name(s.id())),
        _ => out.push('?'),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LengthPolicy;

    const GLOBALS_SRC: &str = r#"
$list = Array.new(3, 0)
$sum = 0
threads = []
3.times do |i|
  threads << Thread.new(i) do |tid|
    j = 1
    acc = 0
    while j <= 50
      acc += j * (tid + 1)
      j += 1
    end
    $list[tid] = acc
  end
end
threads.each do |t|
  t.join()
end
$sum = $list[0] + $list[1] + $list[2]
puts($sum)
"#;

    #[test]
    fn digest_is_address_free_and_name_sorted() {
        let profile = MachineProfile::generic(4);
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        let mut ex = Executor::new(GLOBALS_SRC, VmConfig::default(), profile, cfg).unwrap();
        ex.run().unwrap();
        let d = heap_digest(&ex.vm);
        // $list sorts before $sum; values are structural, no addresses.
        assert_eq!(d, "$list=[1275,2550,3825]\n$sum=7650\n");
    }

    #[test]
    fn htm_subject_matches_gil_oracle() {
        let profile = MachineProfile::generic(4);
        let cfg = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Dynamic }, &profile);
        let v = check_against_gil(GLOBALS_SRC, VmConfig::default(), profile, cfg).unwrap();
        assert!(v.matches(), "{}", v.mismatch.unwrap());
        assert_eq!(v.subject.stdout, "7650");
        assert_eq!(v.subject_heap, v.oracle_heap);
    }

    #[test]
    fn divergence_is_reported() {
        // A program whose *stdout* depends on scheduling would be caught;
        // simulate that cheaply by comparing two different programs'
        // digests through the public pieces.
        let profile = MachineProfile::generic(2);
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        let mut a =
            Executor::new("$x = 1", VmConfig::default(), profile.clone(), cfg.clone()).unwrap();
        a.run().unwrap();
        let mut b = Executor::new("$x = 2", VmConfig::default(), profile, cfg).unwrap();
        b.run().unwrap();
        assert_ne!(heap_digest(&a.vm), heap_digest(&b.vm));
    }

    #[test]
    fn cyclic_graphs_digest_identically_across_modes() {
        // A self-referential array must not hang the walker, and the
        // rendered <cycle> form must agree between an HTM subject and the
        // GIL oracle (the cycle is reached at the same structural path
        // whatever the schedule or allocation order).
        let src = r#"
$a = Array.new(2, 0)
$a[0] = $a
$a[1] = 7
puts($a[1])
"#;
        let profile = MachineProfile::generic(4);
        let cfg = ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Dynamic }, &profile);
        let v = check_against_gil(src, VmConfig::default(), profile, cfg).unwrap();
        assert!(v.matches(), "{}", v.mismatch.unwrap());
        assert_eq!(v.subject_heap, "$a=[<cycle>,7]\n");
    }

    #[test]
    fn digest_ignores_allocation_addresses() {
        // Two heaps holding the same global values at different addresses
        // (a pile of garbage allocated before vs after the global) must
        // digest identically — the digest walks structure, not memory.
        let early_garbage = r#"
tmp = Array.new(24, 1)
tmp[0] = tmp[1]
$x = Array.new(2, 5)
$y = "done"
"#;
        let late_garbage = r#"
$x = Array.new(2, 5)
$y = "done"
tmp = Array.new(24, 1)
tmp[0] = tmp[1]
"#;
        let profile = MachineProfile::generic(2);
        let cfg = ExecConfig::new(RuntimeMode::Gil, &profile);
        let mut a = Executor::new(early_garbage, VmConfig::default(), profile.clone(), cfg.clone())
            .unwrap();
        a.run().unwrap();
        let mut b = Executor::new(late_garbage, VmConfig::default(), profile, cfg).unwrap();
        b.run().unwrap();
        assert_eq!(heap_digest(&a.vm), heap_digest(&b.vm));
        assert_eq!(heap_digest(&a.vm), "$x=[5,5]\n$y=\"done\"\n");
    }

    #[test]
    fn injected_run_still_matches_oracle() {
        let profile = MachineProfile::generic(4);
        let mut cfg =
            ExecConfig::new(RuntimeMode::Htm { length: LengthPolicy::Fixed(16) }, &profile);
        cfg.fault_plan = Some(htm_sim::FaultPlan::spurious(0xC0FFEE, 0.2));
        cfg.watchdog = true;
        let v = check_against_gil(GLOBALS_SRC, VmConfig::default(), profile, cfg).unwrap();
        assert!(v.matches(), "{}", v.mismatch.unwrap());
        assert!(v.subject.htm.spurious > 0, "injection must actually fire");
    }
}
