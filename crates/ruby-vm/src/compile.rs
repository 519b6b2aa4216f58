//! AST → instruction compiler: emits the stream the interpreter runs
//! ([`crate::decode`]).
//!
//! Follows YARV's compilation patterns: a scope stack resolves locals
//! (blocks see enclosing locals up to the nearest method boundary, with a
//! `depth` counting block hops), `&&`/`||` compile to dup-branch
//! sequences, and every call/operator/ivar site gets its own inline-cache
//! slot.

use ruby_lang::ast::{BinOp, BlockDef, Node, UnOp};
use ruby_lang::parse_program;

use crate::bytecode::IseqId;
use crate::decode::{DecodedInsn, Op, YP_EXT, YP_ORIG};
use crate::interp::FRAME_WORDS;
use crate::program::Program;
use crate::symbols::SymId;

/// Why a program did not boot: a parse error (with its line), a small heap, a failed prelude.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    pub msg: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compile error: {}", self.msg)
    }
}

impl std::error::Error for CompileError {}

impl From<ruby_lang::ParseError> for CompileError {
    fn from(e: ruby_lang::ParseError) -> Self {
        CompileError { msg: e.to_string() }
    }
}

/// Compile `src` into `prog`, returning the top-level iseq. Call
/// [`Program::finalize`] after the *last* compilation before running.
pub fn compile_source(src: &str, prog: &mut Program) -> Result<IseqId, CompileError> {
    let ast = parse_program(src)?;
    let mut c = Compiler { prog, scopes: Vec::new() };
    Ok(c.compile_unit("<main>", &[], &ast, false))
}

struct ScopeInfo {
    locals: Vec<String>,
    is_block: bool,
}

struct Compiler<'p> {
    prog: &'p mut Program,
    scopes: Vec<ScopeInfo>,
}

/// Per-unit emission state (one iseq being built).
struct Emit {
    code: Vec<DecodedInsn>,
    /// (position, label) pairs to patch.
    fixups: Vec<(usize, usize)>,
    /// Label id → resolved pc.
    labels: Vec<Option<usize>>,
}

impl Emit {
    fn label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn place(&mut self, label: usize) {
        self.labels[label] = Some(self.code.len());
    }

    fn emit(&mut self, op: Op, a: u64, b: u16, c: u32) {
        self.code.push(DecodedInsn::new(op, a, b, c));
    }

    /// An instruction with no operands.
    fn op(&mut self, op: Op) {
        self.emit(op, 0, 0, 0);
    }

    /// Emit a branch to `label`, to be patched later.
    fn branch(&mut self, op: Op, label: usize) {
        self.fixups.push((self.code.len(), label));
        self.op(op);
    }

    /// A local read or write, `depth` block hops up the static chain.
    fn local(&mut self, set: bool, (idx, depth): (usize, u16)) {
        match (depth, set) {
            (0, false) => self.emit(Op::GetLocal0, (FRAME_WORDS + idx) as u64, 0, 0),
            (0, true) => self.emit(Op::SetLocal0, (FRAME_WORDS + idx) as u64, 0, 0),
            (_, false) => self.emit(Op::GetLocalUp, idx as u64, depth, 0),
            (_, true) => self.emit(Op::SetLocalUp, idx as u64, depth, 0),
        }
    }

    fn send(&mut self, name: SymId, argc: usize, block: Option<IseqId>, ic: u32) {
        let a = u64::from(name.0) | u64::from(block.map_or(0, |b| b.0 + 1)) << 32;
        self.emit(Op::Send, a, count(argc), ic);
    }

    /// Write each branch's absolute target; one that jumps backwards is a
    /// loop back-edge, CRuby's original yield point.
    fn patch(&mut self) {
        for &(pos, label) in &self.fixups {
            let target = self.labels[label].expect("unplaced label");
            self.code[pos].a = target as u64;
            if target < pos {
                self.code[pos].flags |= YP_ORIG | YP_EXT;
            }
        }
    }
}

/// An argument or element count: the parser admits no list longer than
/// the `b` lane holds.
fn count(n: usize) -> u16 {
    u16::try_from(n).expect("the parser bounds every list")
}

impl<'p> Compiler<'p> {
    /// Compile one unit (method body, block, class body or main).
    fn compile_unit(
        &mut self,
        name: &str,
        params: &[String],
        body: &Node,
        is_block: bool,
    ) -> IseqId {
        self.scopes.push(ScopeInfo { locals: params.to_vec(), is_block });
        let mut e = Emit { code: Vec::new(), fixups: Vec::new(), labels: Vec::new() };
        self.node(&mut e, body);
        let scope = self.scopes.pop().expect("scope");
        e.op(Op::Leave);
        e.patch();
        self.prog.push_iseq(name.to_string(), params.len(), scope.locals.len(), is_block, &e.code)
    }

    fn sym(&mut self, s: &str) -> SymId {
        self.prog.intern(s)
    }

    /// Resolve a local: (idx, depth) walking block scopes outward.
    #[allow(clippy::explicit_counter_loop)] // depth counts block hops, not items
    fn resolve_local(&self, name: &str) -> Option<(usize, u16)> {
        let mut depth = 0;
        for scope in self.scopes.iter().rev() {
            if let Some(idx) = scope.locals.iter().position(|l| l == name) {
                return Some((idx, depth));
            }
            if !scope.is_block {
                break;
            }
            depth += 1;
        }
        None
    }

    /// Define a local in the current scope (or return the existing one).
    fn define_local(&mut self, name: &str) -> (usize, u16) {
        if let Some(found) = self.resolve_local(name) {
            return found;
        }
        let scope = self.scopes.last_mut().expect("scope");
        scope.locals.push(name.to_string());
        (scope.locals.len() - 1, 0)
    }

    // ---- node compilation -------------------------------------------------

    fn node(&mut self, e: &mut Emit, n: &Node) {
        match n {
            Node::Nil => e.op(Op::PutNil),
            Node::True => e.op(Op::PutTrue),
            Node::False => e.op(Op::PutFalse),
            Node::SelfExpr => e.op(Op::PutSelf),
            Node::Int(i) => e.emit(Op::PutInt, *i as u64, 0, 0),
            Node::Float(f) => {
                let idx = self.prog.pool_float(*f);
                e.emit(Op::PutPooled, u64::from(idx), 0, 0);
            }
            Node::Str(s) => {
                let idx = self.prog.pool_string(s);
                e.emit(Op::PutString, u64::from(idx), 0, 0);
            }
            Node::ArrayLit(elems) => {
                for el in elems {
                    self.node(e, el);
                }
                e.emit(Op::NewArray, 0, count(elems.len()), 0);
            }
            Node::Range { lo, hi, excl } => {
                self.node(e, lo);
                self.node(e, hi);
                e.emit(Op::NewRange, 0, u16::from(*excl), 0);
            }
            Node::LVar(name) => {
                if let Some(slot) = self.resolve_local(name) {
                    e.local(false, slot);
                } else {
                    // Zero-arg self-call.
                    let name = self.sym(name);
                    let ic = self.prog.new_ic_site();
                    e.op(Op::PutSelf);
                    e.send(name, 0, None, ic);
                }
            }
            Node::IVar(name) => {
                let name = self.sym(name);
                let ic = self.prog.new_ic_site();
                e.emit(Op::GetIvar, u64::from(name.0), 0, ic);
            }
            Node::GVar(name) => {
                let name = self.sym(name);
                e.emit(Op::GetGlobal, u64::from(name.0), 0, 0);
            }
            Node::Const(name) => {
                let name = self.sym(name);
                e.emit(Op::GetConst, u64::from(name.0), 0, 0);
            }
            Node::Assign { target, value } => self.assign(e, target, value),
            Node::OpAssign { target, op, value } => self.op_assign(e, target, *op, value),
            Node::BinExpr { op, l, r } => {
                self.node(e, l);
                self.node(e, r);
                self.emit_binop(e, *op);
            }
            Node::UnExpr { op: UnOp::Not, e: inner } => {
                self.node(e, inner);
                e.op(Op::OptNot);
            }
            Node::Logical { is_and, l, r } => {
                self.node(e, l);
                e.op(Op::Dup);
                let end = e.label();
                e.branch(if *is_and { Op::BranchUnless } else { Op::BranchIf }, end);
                e.op(Op::Pop);
                self.node(e, r);
                e.place(end);
            }
            Node::Index { recv, args } => {
                self.node(e, recv);
                if args.len() == 1 {
                    self.node(e, &args[0]);
                    let ic = self.prog.new_ic_site();
                    e.emit(Op::OptAref, 0, 0, ic);
                } else {
                    for a in args {
                        self.node(e, a);
                    }
                    let name = self.sym("[]");
                    let ic = self.prog.new_ic_site();
                    e.send(name, args.len(), None, ic);
                }
            }
            Node::Call { recv, name, args, block } => {
                self.call(e, recv.as_deref(), name, args, block.as_ref());
            }
            Node::Yield(args) => {
                for a in args {
                    self.node(e, a);
                }
                e.emit(Op::InvokeBlock, 0, count(args.len()), 0);
            }
            Node::If { cond, then, els } => {
                self.node(e, cond);
                let l_else = e.label();
                let l_end = e.label();
                e.branch(Op::BranchUnless, l_else);
                self.node(e, then);
                e.branch(Op::Jump, l_end);
                e.place(l_else);
                match els {
                    Some(els) => self.node(e, els),
                    None => e.op(Op::PutNil),
                }
                e.place(l_end);
            }
            Node::While { cond, body } => {
                let l_head = e.label();
                let l_done = e.label();
                e.place(l_head);
                self.node(e, cond);
                e.branch(Op::BranchUnless, l_done);
                self.node(e, body);
                e.op(Op::Pop);
                e.branch(Op::Jump, l_head);
                e.place(l_done);
                e.op(Op::PutNil);
            }
            Node::Return(value) => {
                match value {
                    Some(v) => self.node(e, v),
                    None => e.op(Op::PutNil),
                }
                e.op(Op::Leave);
            }
            Node::Seq(stmts) => {
                if stmts.is_empty() {
                    e.op(Op::PutNil);
                } else {
                    for (i, s) in stmts.iter().enumerate() {
                        self.node(e, s);
                        if i + 1 != stmts.len() {
                            e.op(Op::Pop);
                        }
                    }
                }
            }
            Node::MethodDef { name, params, body, on_self } => {
                let iseq = self.compile_unit(&name.to_string(), params, body, false);
                let name = self.sym(name);
                let a = u64::from(name.0) | u64::from(iseq.0) << 32;
                e.emit(Op::DefineMethod, a, u16::from(*on_self), 0);
                e.emit(Op::PutSym, u64::from(name.0), 0, 0);
            }
            Node::ClassDef { name, superclass, body } => {
                let body_iseq = self.compile_unit(&format!("<class:{name}>"), &[], body, false);
                let name = self.sym(name);
                let superclass = superclass.as_ref().map_or(0, |s| self.sym(s).0 + 1);
                let a = u64::from(name.0) | u64::from(body_iseq.0) << 32;
                e.emit(Op::DefineClass, a, 0, superclass);
            }
        }
    }

    /// An operator; its fallback selector is resolved at finalize.
    fn emit_binop(&mut self, e: &mut Emit, op: BinOp) {
        let op = match op {
            BinOp::Add => Op::OptPlus,
            BinOp::Sub => Op::OptMinus,
            BinOp::Mul => Op::OptMult,
            BinOp::Div => Op::OptDiv,
            BinOp::Mod => Op::OptMod,
            BinOp::Eq => Op::OptEq,
            BinOp::Ne => Op::OptNeq,
            BinOp::Lt => Op::OptLt,
            BinOp::Le => Op::OptLe,
            BinOp::Gt => Op::OptGt,
            BinOp::Ge => Op::OptGe,
            BinOp::Shl => Op::OptShl,
        };
        let ic = self.prog.new_ic_site();
        e.emit(op, 0, 0, ic);
    }

    fn assign(&mut self, e: &mut Emit, target: &Node, value: &Node) {
        match target {
            Node::LVar(name) => {
                self.node(e, value);
                let slot = self.define_local(name);
                e.op(Op::Dup);
                e.local(true, slot);
            }
            Node::IVar(name) => {
                self.node(e, value);
                let name = self.sym(name);
                let ic = self.prog.new_ic_site();
                e.op(Op::Dup);
                e.emit(Op::SetIvar, u64::from(name.0), 0, ic);
            }
            Node::GVar(name) => {
                self.node(e, value);
                let name = self.sym(name);
                e.op(Op::Dup);
                e.emit(Op::SetGlobal, u64::from(name.0), 0, 0);
            }
            Node::Const(name) => {
                self.node(e, value);
                let name = self.sym(name);
                e.op(Op::Dup);
                e.emit(Op::SetConst, u64::from(name.0), 0, 0);
            }
            Node::Index { recv, args } => {
                self.node(e, recv);
                if args.len() == 1 {
                    self.node(e, &args[0]);
                    self.node(e, value);
                    let ic = self.prog.new_ic_site();
                    e.emit(Op::OptAset, 0, 0, ic);
                } else {
                    for a in args {
                        self.node(e, a);
                    }
                    self.node(e, value);
                    let name = self.sym("[]=");
                    let ic = self.prog.new_ic_site();
                    e.send(name, args.len() + 1, None, ic);
                }
            }
            Node::Call { recv: Some(recv), name, args, block: None } if args.is_empty() => {
                // Attribute write: o.x = v → send "x="
                self.node(e, recv);
                self.node(e, value);
                let name = self.sym(&format!("{name}="));
                let ic = self.prog.new_ic_site();
                e.send(name, 1, None, ic);
            }
            other => unreachable!("the parser admits no assignment to {other:?}"),
        }
    }

    fn op_assign(&mut self, e: &mut Emit, target: &Node, op: BinOp, value: &Node) {
        match target {
            Node::LVar(name) => {
                let slot = self.define_local(name);
                e.local(false, slot);
                self.node(e, value);
                self.emit_binop(e, op);
                e.op(Op::Dup);
                e.local(true, slot);
            }
            Node::IVar(name) => {
                let name = self.sym(name);
                let get_ic = self.prog.new_ic_site();
                let set_ic = self.prog.new_ic_site();
                e.emit(Op::GetIvar, u64::from(name.0), 0, get_ic);
                self.node(e, value);
                self.emit_binop(e, op);
                e.op(Op::Dup);
                e.emit(Op::SetIvar, u64::from(name.0), 0, set_ic);
            }
            Node::GVar(name) => {
                let name = self.sym(name);
                e.emit(Op::GetGlobal, u64::from(name.0), 0, 0);
                self.node(e, value);
                self.emit_binop(e, op);
                e.op(Op::Dup);
                e.emit(Op::SetGlobal, u64::from(name.0), 0, 0);
            }
            other => unreachable!("the parser admits no `op=` on {other:?}"),
        }
    }

    fn call(
        &mut self,
        e: &mut Emit,
        recv: Option<&Node>,
        name: &str,
        args: &[Node],
        block: Option<&BlockDef>,
    ) {
        match recv {
            Some(r) => self.node(e, r),
            None => e.op(Op::PutSelf),
        }
        for a in args {
            self.node(e, a);
        }
        let block_iseq =
            block.map(|b| self.compile_unit(&format!("block in {name}"), &b.params, &b.body, true));
        let name = self.sym(name);
        let ic = self.prog.new_ic_site();
        e.send(name, args.len(), block_iseq, ic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{LOCAL, NO_SYM};

    fn compile(src: &str) -> (Program, IseqId) {
        let mut p = Program::default();
        let main = compile_source(src, &mut p).unwrap_or_else(|e| panic!("{e} in {src:?}"));
        p.finalize();
        (p, main)
    }

    /// An iseq's instructions: from its base to the next iseq's.
    fn code(p: &Program, id: IseqId) -> Vec<DecodedInsn> {
        let next = IseqId(id.0 + 1);
        let end = if next.0 as usize == p.iseqs.len() { p.total_insns() } else { p.base(next) };
        (p.base(id)..end).map(|gpc| p.decoded_at(gpc as usize)).collect()
    }

    fn main_code(src: &str) -> Vec<DecodedInsn> {
        let (p, main) = compile(src);
        code(&p, main)
    }

    fn ops(code: &[DecodedInsn]) -> Vec<Op> {
        code.iter().map(|d| d.op).collect()
    }

    /// The iseq the first instruction with `op` in `id` names in lane `a`'s
    /// high half (a method, class body or block).
    fn inner(p: &Program, id: IseqId, op: Op) -> IseqId {
        let d = code(p, id).into_iter().find(|d| d.op == op).expect("op");
        IseqId(d.a_hi() - u32::from(op == Op::Send))
    }

    #[test]
    fn literal_pushes() {
        let code = main_code("42");
        assert_eq!(ops(&code), [Op::PutInt, Op::Leave]);
        assert_eq!(code[0].a, 42);
        assert_eq!(code[1].flags, YP_ORIG | YP_EXT);
    }

    #[test]
    fn float_literals_are_pooled() {
        let (p, main) = compile("1.5 + 1.5");
        let code = code(&p, main);
        assert_eq!((code[0].op, code[0].a), (Op::PutPooled, 0));
        assert_eq!((code[1].op, code[1].a), (Op::PutPooled, 0), "same pooled object");
        assert_eq!(p.pooled.len(), 1);
    }

    #[test]
    fn local_assignment_and_use() {
        let code = main_code("x = 1\nx + 2");
        let slot = FRAME_WORDS as u64;
        assert_eq!(
            code.iter().map(|d| (d.op, d.a)).collect::<Vec<_>>(),
            [
                (Op::PutInt, 1),
                (Op::Dup, 0),
                (Op::SetLocal0, slot),
                (Op::Pop, 0),
                (Op::GetLocal0, slot),
                (Op::PutInt, 2),
                (Op::OptPlus, u64::from(NO_SYM)),
                (Op::Leave, 0)
            ]
        );
        assert_eq!(code[4].flags, YP_EXT | LOCAL);
        assert_eq!(code[6].c, 0, "the first ic site");
    }

    #[test]
    fn unknown_ident_is_self_call() {
        let code = main_code("foo");
        assert_eq!(ops(&code[..2]), [Op::PutSelf, Op::Send]);
        assert_eq!((code[1].b, code[1].a_hi(), code[1].flags), (0, 0, YP_EXT));
    }

    /// A loop's back-edge jumps to an earlier pc and is a yield point of
    /// both policies; its exit branch jumps forward and is neither.
    #[test]
    fn while_loop_back_edge_is_a_yield_point() {
        let code = main_code("i = 0\nwhile i < 3\n  i += 1\nend");
        let at = |op| code.iter().position(|d| d.op == op).expect("branch");
        let (back, exit) = (at(Op::Jump), at(Op::BranchUnless));
        assert_eq!(code[back].a, 4, "the loop head");
        assert_eq!(code[back].flags, YP_ORIG | YP_EXT | LOCAL);
        assert_eq!(code[exit].a as usize, back + 1);
        assert_eq!(code[exit].flags, LOCAL);
    }

    #[test]
    fn loop_body_keeps_stack_balanced() {
        let (p, main) = compile("i = 0\nwhile i < 1000\n  i += 1\nend");
        assert_eq!(p.max_stack(main), 16, "three words deep, under the headroom");
        let (p, main) = compile(&format!("[{}]", "1, ".repeat(20)));
        assert_eq!(p.max_stack(main), 28, "twenty elements and the headroom");
    }

    #[test]
    fn method_definition_compiles_body() {
        let (p, main) = compile("def add(a, b)\n  a + b\nend");
        let body = inner(&p, main, Op::DefineMethod);
        assert_eq!(p.iseq(body).nparams, 2);
        let slot = FRAME_WORDS as u64;
        assert_eq!(
            code(&p, body).iter().map(|d| (d.op, d.a)).collect::<Vec<_>>(),
            [
                (Op::GetLocal0, slot),
                (Op::GetLocal0, slot + 1),
                (Op::OptPlus, u64::from(NO_SYM)),
                (Op::Leave, 0)
            ]
        );
    }

    #[test]
    fn block_reads_outer_local_with_depth() {
        let (p, main) = compile("x = 0\nf() { |i| x = x + i }");
        let block = inner(&p, main, Op::Send);
        assert!(p.iseq(block).is_block);
        // x resolves one block hop up: depth 1; i is local: depth 0.
        let code = code(&p, block);
        let at = |op| code.iter().any(|d| (d.op, d.a, d.b) == (op, 0, 1));
        assert!(at(Op::GetLocalUp) && at(Op::SetLocalUp));
        assert!(code.iter().any(|d| d.op == Op::GetLocal0));
    }

    #[test]
    fn index_read_and_write_use_their_operators() {
        let code = ops(&main_code("a = [1]\na[0] = a[0] + 2"));
        assert!(code.contains(&Op::OptAref) && code.contains(&Op::OptAset));
    }

    #[test]
    fn logical_and_short_circuits() {
        let code = ops(&main_code("a = 1\na && 2"));
        assert!(code.contains(&Op::BranchUnless));
    }

    #[test]
    fn class_body_defines_its_methods() {
        let (p, main) =
            compile("class P\n  def x\n    @x\n  end\n  def x=(v)\n    @x = v\n  end\nend");
        let body = inner(&p, main, Op::DefineClass);
        let defs = code(&p, body).iter().filter(|d| d.op == Op::DefineMethod).count();
        assert_eq!(defs, 2, "reader and writer");
    }

    #[test]
    fn each_ic_site_is_unique() {
        let code = main_code("1 + 2\n3 + 4");
        let sites: Vec<u32> = code.iter().filter(|d| d.op == Op::OptPlus).map(|d| d.c).collect();
        assert_eq!(sites, [0, 1]);
    }

    #[test]
    fn return_inside_block_is_rejected_with_its_line() {
        let mut p = Program::default();
        let r = compile_source("f() { return 1 }", &mut p);
        assert!(r.is_err_and(|e| e.msg.contains("at line 1")));
    }

    #[test]
    fn while_leaves_nil() {
        let code = ops(&main_code("while false\n  1\nend"));
        assert_eq!(&code[code.len() - 2..], [Op::PutNil, Op::Leave]);
    }

    #[test]
    fn yield_compiles_to_invokeblock() {
        let (p, main) = compile("def f()\n  yield(1, 2)\nend");
        let body = inner(&p, main, Op::DefineMethod);
        assert!(code(&p, body).iter().any(|d| (d.op, d.b) == (Op::InvokeBlock, 2)));
    }

    #[test]
    fn string_literals_use_string_pool() {
        let (p, main) = compile("\"ab\" + \"ab\"");
        let code = code(&p, main);
        assert_eq!([code[0], code[1]].map(|d| (d.op, d.a)), [(Op::PutString, 0); 2]);
        assert_eq!(p.strings.len(), 1);
    }
}
