//! Property tests for the instruction stream the compiler emits: on
//! arbitrary generated programs, every instruction carries exactly the
//! yield-point flags the paper's list gives its op (and, for a branch, its
//! direction), and every branch target stays inside its iseq.
//!
//! Programs are assembled from known-good source templates with random
//! parameters and random ordering, so every generated program compiles
//! and covers the hot shapes: loops (backward branches), sends, blocks,
//! class/ivar traffic and compare+branch pairs.

use proptest::prelude::*;
use ruby_vm::compile::compile_source;
use ruby_vm::decode::{DecodedInsn, Op, YP_EXT, YP_ORIG};
use ruby_vm::{IseqId, Program};

/// The paper's extended yield points beyond the original ones (§4.2):
/// `getlocal` (both of its ops here), `getinstancevariable`, `send`,
/// `opt_plus`, `opt_minus`, `opt_mult`, `opt_aref`. `getclassvariable` is
/// outside the subset.
const EXTENDED: [Op; 8] = [
    Op::GetLocal0,
    Op::GetLocalUp,
    Op::GetIvar,
    Op::Send,
    Op::OptPlus,
    Op::OptMinus,
    Op::OptMult,
    Op::OptAref,
];

fn is_branch(op: Op) -> bool {
    matches!(op, Op::Jump | Op::BranchIf | Op::BranchUnless)
}

/// The flags the instruction at iseq-relative `pc` should carry: CRuby's
/// original yield points are `leave` and the branches whose target lies
/// before them (loop back-edges); the extended policy adds [`EXTENDED`].
fn want_flags(d: &DecodedInsn, pc: usize) -> u8 {
    if d.op == Op::Leave || (is_branch(d.op) && (d.a as usize) < pc) {
        YP_ORIG | YP_EXT
    } else if EXTENDED.contains(&d.op) {
        YP_EXT
    } else {
        0
    }
}

/// One known-good source fragment, parameterised on a unique fragment
/// index (for collision-free names) and two small integers.
fn fragment(choice: u8, i: usize, n: u32, m: u32) -> String {
    match choice % 8 {
        0 => format!("a{i} = {n}\na{i} += a{i} * {m} - 1\n"),
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

/// Each iseq's instructions, in id order: the iseqs tile the stream.
fn iseq_code(prog: &Program) -> Vec<(usize, Vec<DecodedInsn>)> {
    let bases: Vec<u32> = (0..prog.iseqs.len()).map(|i| prog.base(IseqId(i as u32))).collect();
    let ends = bases.iter().skip(1).copied().chain([prog.total_insns()]);
    bases
        .iter()
        .zip(ends)
        .enumerate()
        .map(|(id, (&base, end))| {
            assert!(base < end, "iseq {id} is empty or out of order");
            (id, (base..end).map(|gpc| prog.decoded_at(gpc as usize)).collect())
        })
        .collect()
}

/// The eight fragments together reach every op of the list, a back-edge
/// and a forward branch, so the properties below are tested on each.
#[test]
fn the_fragments_reach_every_listed_op() {
    let prog = compile_fragments(&(0..8).map(|c| (c, 3, 2)).collect::<Vec<_>>());
    let all: Vec<(usize, DecodedInsn)> =
        iseq_code(&prog).into_iter().flat_map(|(_, code)| code.into_iter().enumerate()).collect();
    for op in EXTENDED.into_iter().chain([Op::Leave]) {
        assert!(all.iter().any(|(_, d)| d.op == op), "{op:?} is never emitted");
    }
    assert!(all.iter().any(|&(pc, d)| is_branch(d.op) && (d.a as usize) < pc), "a back-edge");
    assert!(all.iter().any(|&(pc, d)| is_branch(d.op) && (d.a as usize) > pc), "a forward branch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Index by index, the yield-point flags are exactly what the paper's
    /// list and the branch direction give, for both policies.
    #[test]
    fn yield_flags_follow_the_papers_list(
        parts in proptest::collection::vec((any::<u8>(), 1u32..20, 1u32..20), 1..12),
    ) {
        let prog = compile_fragments(&parts);
        for (id, code) in iseq_code(&prog) {
            let last = code.last().map(|d| d.op);
            prop_assert_eq!(last, Some(Op::Leave), "iseq {} ends in leave", id);
            for (pc, d) in code.iter().enumerate() {
                let (got, want) = (d.flags & (YP_ORIG | YP_EXT), want_flags(d, pc));
                prop_assert_eq!(got, want, "iseq {} pc {}: {:?}", id, pc, d);
            }
        }
    }

    /// Branch targets are iseq-relative pcs inside the branch's own iseq.
    #[test]
    fn branch_targets_stay_in_their_iseq(
        parts in proptest::collection::vec((any::<u8>(), 1u32..20, 1u32..20), 1..12),
    ) {
        let prog = compile_fragments(&parts);
        for (id, code) in iseq_code(&prog) {
            for (pc, d) in code.iter().enumerate().filter(|(_, d)| is_branch(d.op)) {
                prop_assert!(
                    (d.a as usize) < code.len() && d.a as usize != pc,
                    "iseq {} pc {}: target {} of an iseq of {} insns", id, pc, d.a, code.len()
                );
            }
        }
    }
}
