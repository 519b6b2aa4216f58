//! Property tests for the pre-decoded instruction stream: on arbitrary
//! generated programs, decoding must be 1:1 with the bytecode, preserve
//! the exact yield-point sequence of both policies index-by-index, and
//! keep branch targets inside their iseq.
//!
//! Programs are assembled from known-good source templates with random
//! parameters and random ordering, so every generated program compiles
//! and covers the hot shapes: loops (backward branches), sends, blocks,
//! class/ivar traffic and compare+branch pairs.

use proptest::prelude::*;
use ruby_vm::bytecode::InsnKind;
use ruby_vm::compile::compile_source;
use ruby_vm::decode::{Op, YP_EXT, YP_ORIG};
use ruby_vm::{Insn, Program};

/// The yield-point flag bits `kind` should carry under each policy.
fn yield_flags_of_kind(kind: InsnKind) -> u8 {
    let orig = if kind.is_original_yield_point() { YP_ORIG } else { 0 };
    orig | if kind.is_extended_yield_point() { YP_EXT } else { 0 }
}

/// One known-good source fragment, parameterised on a unique fragment
/// index (for collision-free names) and two small integers.
fn fragment(choice: u8, i: usize, n: u32, m: u32) -> String {
    match choice % 8 {
        0 => format!("a{i} = {n}\na{i} += a{i} * {m}\n"),
        1 => format!("w{i} = 0\nwhile w{i} < {n}\n  w{i} += 1\nend\n"),
        2 => format!("def m{i}(x)\n  x + {n}\nend\nr{i} = m{i}({m})\n"),
        3 => format!("t{i} = 0\n{n}.times do |j|\n  t{i} += j\nend\n"),
        4 => format!(
            "class K{i}\n  def initialize()\n    @v = {n}\n  end\n  def v()\n    @v\n  end\nend\n\
             o{i} = K{i}.new()\np{i} = o{i}.v\n"
        ),
        5 => format!("q{i} = []\nq{i} << {n}\nq{i} << q{i}[0]\n"),
        6 => format!("$g{i} = {n}\n$g{i} += {m}\n"),
        _ => format!("b{i} = {n}\nif b{i} > {m}\n  b{i} = 0\nend\n"),
    }
}

fn compile_fragments(parts: &[(u8, u32, u32)]) -> Program {
    let src: String =
        parts.iter().enumerate().map(|(i, &(c, n, m))| fragment(c, i, n, m)).collect();
    let mut prog = Program::default();
    compile_source(&src, &mut prog).unwrap_or_else(|e| panic!("template must compile: {e}\n{src}"));
    prog.finalize();
    prog
}

/// The pc sequence of yield points under a policy, read from the
/// *undecoded* bytecode via `InsnKind` classification.
fn reference_yield_pcs(prog: &Program, bit: u8) -> Vec<u32> {
    let mut pcs = Vec::new();
    for iseq in &prog.iseqs {
        let base = prog.base(iseq.id);
        for (pc, insn) in iseq.code.iter().enumerate() {
            if yield_flags_of_kind(insn.kind()) & bit != 0 {
                pcs.push(base + pc as u32);
            }
        }
    }
    pcs
}

/// The same sequence read from the decoded stream's flag bytes.
fn decoded_yield_pcs(prog: &Program, bit: u8) -> Vec<u32> {
    (0..prog.total_insns()).filter(|&gpc| prog.decoded_at(gpc as usize).flags & bit != 0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The decoded stream is 1:1 and yield-point flags agree with the
    /// `InsnKind` classification at every index, for both policies.
    #[test]
    fn decoding_preserves_the_yield_point_sequence(
        parts in proptest::collection::vec((any::<u8>(), 1u32..20, 1u32..20), 1..12),
    ) {
        let prog = compile_fragments(&parts);
        let total: usize = prog.iseqs.iter().map(|i| i.code.len()).sum();
        // (`finalize` debug-asserts the decoded stream is as long.)
        prop_assert_eq!(prog.total_insns() as usize, total, "pc numbering must be 1:1");
        prop_assert_eq!(prog.total_insns() as usize, total);

        // Index-by-index: the flag byte is exactly the kind classification.
        for iseq in &prog.iseqs {
            for (pc, insn) in iseq.code.iter().enumerate() {
                let gpc = prog.global_pc(iseq.id, pc) as usize;
                let got = prog.decoded_at(gpc).flags & (YP_ORIG | YP_EXT);
                let want = yield_flags_of_kind(insn.kind());
                prop_assert_eq!(
                    got, want,
                    "iseq {:?} pc {}: {:?} decoded flags {:#x}, kind says {:#x}",
                    iseq.id, pc, insn, got, want
                );
            }
        }

        // And as whole sequences: same yield pcs, same order, no extras.
        for bit in [YP_ORIG, YP_EXT] {
            prop_assert_eq!(
                decoded_yield_pcs(&prog, bit),
                reference_yield_pcs(&prog, bit),
                "yield-point sequence diverged for policy bit {:#x}", bit
            );
        }
    }

    /// Decoded branch targets are absolute, match `pc + offset`, and stay
    /// inside their iseq.
    #[test]
    fn decoded_branch_targets_are_absolute_and_in_bounds(
        parts in proptest::collection::vec((any::<u8>(), 1u32..20, 1u32..20), 1..12),
    ) {
        let prog = compile_fragments(&parts);
        for iseq in &prog.iseqs {
            for (pc, insn) in iseq.code.iter().enumerate() {
                let d = prog.decoded_at(prog.global_pc(iseq.id, pc) as usize);
                let off = match *insn {
                    Insn::Jump(off) | Insn::BranchIf(off) | Insn::BranchUnless(off) => off,
                    _ => continue,
                };
                prop_assert!(matches!(d.op, Op::Jump | Op::BranchIf | Op::BranchUnless));
                let want = (pc as i64 + i64::from(off)) as u64;
                prop_assert_eq!(d.a, want, "target of {:?} at pc {}", insn, pc);
                prop_assert!(
                    (d.a as usize) < iseq.code.len(),
                    "target {} escapes iseq of {} insns", d.a, iseq.code.len()
                );
                // A backward branch is exactly the original-policy yield
                // point; forward ones never are.
                prop_assert_eq!(
                    d.flags & YP_ORIG != 0,
                    insn.kind() == InsnKind::BranchBack,
                    "backward-branch classification at pc {}", pc
                );
            }
        }
    }
}
