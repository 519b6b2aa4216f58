//! AST → bytecode compiler.
//!
//! Follows YARV's compilation patterns: a scope stack resolves locals
//! (blocks see enclosing locals up to the nearest method boundary, with a
//! `depth` counting block hops), `&&`/`||` compile to dup-branch
//! sequences, and every call/operator/ivar site gets its own inline-cache
//! slot.

use ruby_lang::ast::{BinOp, BlockDef, Node, UnOp};
use ruby_lang::parse_program;

use crate::bytecode::{ISeq, Insn, IseqId};
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
    code: Vec<Insn>,
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

    fn emit(&mut self, i: Insn) {
        self.code.push(i);
    }

    /// Emit a branch to `label`, to be patched later.
    fn branch(&mut self, mk: fn(i32) -> Insn, label: usize) {
        self.fixups.push((self.code.len(), label));
        self.emit(mk(0));
    }

    fn patch(&mut self) {
        for &(pos, label) in &self.fixups {
            let target = self.labels[label].expect("unplaced label") as i32;
            let off = target - pos as i32;
            match &mut self.code[pos] {
                Insn::Jump(o) | Insn::BranchIf(o) | Insn::BranchUnless(o) => *o = off,
                other => panic!("fixup on non-branch {other:?}"),
            }
        }
    }
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
        e.emit(Insn::Leave);
        e.patch();
        let iseq = ISeq {
            id: IseqId(0),
            name: name.to_string(),
            nparams: params.len(),
            nlocals: scope.locals.len(),
            code: e.code,
            is_block,
        };
        self.prog.push_iseq(iseq)
    }

    fn sym(&mut self, s: &str) -> SymId {
        self.prog.intern(s)
    }

    /// Resolve a local: (idx, depth) walking block scopes outward.
    #[allow(clippy::explicit_counter_loop)] // depth counts block hops, not items
    fn resolve_local(&self, name: &str) -> Option<(u16, u8)> {
        let mut depth = 0u8;
        for scope in self.scopes.iter().rev() {
            if let Some(idx) = scope.locals.iter().position(|l| l == name) {
                return Some((idx as u16, depth));
            }
            if !scope.is_block {
                break;
            }
            depth += 1;
        }
        None
    }

    /// Define a local in the current scope (or return the existing one).
    fn define_local(&mut self, name: &str) -> (u16, u8) {
        if let Some(found) = self.resolve_local(name) {
            return found;
        }
        let scope = self.scopes.last_mut().expect("scope");
        scope.locals.push(name.to_string());
        ((scope.locals.len() - 1) as u16, 0)
    }

    // ---- node compilation -------------------------------------------------

    fn node(&mut self, e: &mut Emit, n: &Node) {
        match n {
            Node::Nil => e.emit(Insn::PutNil),
            Node::True => e.emit(Insn::PutTrue),
            Node::False => e.emit(Insn::PutFalse),
            Node::SelfExpr => e.emit(Insn::PutSelf),
            Node::Int(i) => e.emit(Insn::PutInt(*i)),
            Node::Float(f) => {
                let idx = self.prog.pool_float(*f);
                e.emit(Insn::PutPooled(idx));
            }
            Node::Str(s) => {
                let idx = self.prog.pool_string(s);
                e.emit(Insn::PutString(idx));
            }
            Node::ArrayLit(elems) => {
                for el in elems {
                    self.node(e, el);
                }
                e.emit(Insn::NewArray { n: elems.len() as u16 });
            }
            Node::Range { lo, hi, excl } => {
                self.node(e, lo);
                self.node(e, hi);
                e.emit(Insn::NewRange { excl: *excl });
            }
            Node::LVar(name) => {
                if let Some((idx, depth)) = self.resolve_local(name) {
                    e.emit(Insn::GetLocal { idx, depth });
                } else {
                    // Zero-arg self-call.
                    let name = self.sym(name);
                    let ic = self.prog.new_ic_site();
                    e.emit(Insn::PutSelf);
                    e.emit(Insn::Send { name, argc: 0, block: None, ic });
                }
            }
            Node::IVar(name) => {
                let name = self.sym(name);
                let ic = self.prog.new_ic_site();
                e.emit(Insn::GetIvar { name, ic });
            }
            Node::GVar(name) => {
                let name = self.sym(name);
                e.emit(Insn::GetGlobal { name });
            }
            Node::Const(name) => {
                let name = self.sym(name);
                e.emit(Insn::GetConst { name });
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
                e.emit(Insn::OptNot);
            }
            Node::Logical { is_and, l, r } => {
                self.node(e, l);
                e.emit(Insn::Dup);
                let end = e.label();
                if *is_and {
                    e.branch(Insn::BranchUnless, end);
                } else {
                    e.branch(Insn::BranchIf, end);
                }
                e.emit(Insn::Pop);
                self.node(e, r);
                e.place(end);
            }
            Node::Index { recv, args } => {
                self.node(e, recv);
                if args.len() == 1 {
                    self.node(e, &args[0]);
                    let ic = self.prog.new_ic_site();
                    e.emit(Insn::OptAref { ic });
                } else {
                    for a in args {
                        self.node(e, a);
                    }
                    let name = self.sym("[]");
                    let ic = self.prog.new_ic_site();
                    e.emit(Insn::Send { name, argc: args.len() as u8, block: None, ic });
                }
            }
            Node::Call { recv, name, args, block } => {
                self.call(e, recv.as_deref(), name, args, block.as_ref());
            }
            Node::Yield(args) => {
                for a in args {
                    self.node(e, a);
                }
                e.emit(Insn::InvokeBlock { argc: args.len() as u8 });
            }
            Node::If { cond, then, els } => {
                self.node(e, cond);
                let l_else = e.label();
                let l_end = e.label();
                e.branch(Insn::BranchUnless, l_else);
                self.node(e, then);
                e.branch(Insn::Jump, l_end);
                e.place(l_else);
                match els {
                    Some(els) => self.node(e, els),
                    None => e.emit(Insn::PutNil),
                }
                e.place(l_end);
            }
            Node::While { cond, body } => {
                let l_head = e.label();
                let l_done = e.label();
                e.place(l_head);
                self.node(e, cond);
                e.branch(Insn::BranchUnless, l_done);
                self.node(e, body);
                e.emit(Insn::Pop);
                e.branch(Insn::Jump, l_head);
                e.place(l_done);
                e.emit(Insn::PutNil);
            }
            Node::Return(value) => {
                match value {
                    Some(v) => self.node(e, v),
                    None => e.emit(Insn::PutNil),
                }
                e.emit(Insn::Leave);
            }
            Node::Seq(stmts) => {
                if stmts.is_empty() {
                    e.emit(Insn::PutNil);
                } else {
                    for (i, s) in stmts.iter().enumerate() {
                        self.node(e, s);
                        if i + 1 != stmts.len() {
                            e.emit(Insn::Pop);
                        }
                    }
                }
            }
            Node::MethodDef { name, params, body, on_self } => {
                let iseq = self.compile_unit(&name.to_string(), params, body, false);
                let name = self.sym(name);
                e.emit(Insn::DefineMethod { name, iseq, on_self: *on_self });
                e.emit(Insn::PutSym(name));
            }
            Node::ClassDef { name, superclass, body } => {
                let body_iseq = self.compile_unit(&format!("<class:{name}>"), &[], body, false);
                let name = self.sym(name);
                let superclass = superclass.as_ref().map(|s| self.sym(s));
                e.emit(Insn::DefineClass { name, superclass, body: body_iseq });
            }
        }
    }

    fn emit_binop(&mut self, e: &mut Emit, op: BinOp) {
        let insn = match op {
            BinOp::Add => Insn::OptPlus { ic: self.prog.new_ic_site() },
            BinOp::Sub => Insn::OptMinus { ic: self.prog.new_ic_site() },
            BinOp::Mul => Insn::OptMult { ic: self.prog.new_ic_site() },
            BinOp::Div => Insn::OptDiv { ic: self.prog.new_ic_site() },
            BinOp::Mod => Insn::OptMod { ic: self.prog.new_ic_site() },
            BinOp::Eq => Insn::OptEq { ic: self.prog.new_ic_site() },
            BinOp::Ne => Insn::OptNeq { ic: self.prog.new_ic_site() },
            BinOp::Lt => Insn::OptLt { ic: self.prog.new_ic_site() },
            BinOp::Le => Insn::OptLe { ic: self.prog.new_ic_site() },
            BinOp::Gt => Insn::OptGt { ic: self.prog.new_ic_site() },
            BinOp::Ge => Insn::OptGe { ic: self.prog.new_ic_site() },
            BinOp::Shl => Insn::OptShl { ic: self.prog.new_ic_site() },
        };
        e.emit(insn);
    }

    fn assign(&mut self, e: &mut Emit, target: &Node, value: &Node) {
        match target {
            Node::LVar(name) => {
                self.node(e, value);
                let (idx, depth) = self.define_local(name);
                e.emit(Insn::Dup);
                e.emit(Insn::SetLocal { idx, depth });
            }
            Node::IVar(name) => {
                self.node(e, value);
                let name = self.sym(name);
                let ic = self.prog.new_ic_site();
                e.emit(Insn::Dup);
                e.emit(Insn::SetIvar { name, ic });
            }
            Node::GVar(name) => {
                self.node(e, value);
                let name = self.sym(name);
                e.emit(Insn::Dup);
                e.emit(Insn::SetGlobal { name });
            }
            Node::Const(name) => {
                self.node(e, value);
                let name = self.sym(name);
                e.emit(Insn::Dup);
                e.emit(Insn::SetConst { name });
            }
            Node::Index { recv, args } => {
                self.node(e, recv);
                if args.len() == 1 {
                    self.node(e, &args[0]);
                    self.node(e, value);
                    let ic = self.prog.new_ic_site();
                    e.emit(Insn::OptAset { ic });
                } else {
                    for a in args {
                        self.node(e, a);
                    }
                    self.node(e, value);
                    let name = self.sym("[]=");
                    let ic = self.prog.new_ic_site();
                    e.emit(Insn::Send { name, argc: (args.len() + 1) as u8, block: None, ic });
                }
            }
            Node::Call { recv: Some(recv), name, args, block: None } if args.is_empty() => {
                // Attribute write: o.x = v → send "x="
                self.node(e, recv);
                self.node(e, value);
                let name = self.sym(&format!("{name}="));
                let ic = self.prog.new_ic_site();
                e.emit(Insn::Send { name, argc: 1, block: None, ic });
            }
            other => unreachable!("the parser admits no assignment to {other:?}"),
        }
    }

    fn op_assign(&mut self, e: &mut Emit, target: &Node, op: BinOp, value: &Node) {
        match target {
            Node::LVar(name) => {
                let (idx, depth) = self.define_local(name);
                e.emit(Insn::GetLocal { idx, depth });
                self.node(e, value);
                self.emit_binop(e, op);
                e.emit(Insn::Dup);
                e.emit(Insn::SetLocal { idx, depth });
            }
            Node::IVar(name) => {
                let name = self.sym(name);
                let get_ic = self.prog.new_ic_site();
                let set_ic = self.prog.new_ic_site();
                e.emit(Insn::GetIvar { name, ic: get_ic });
                self.node(e, value);
                self.emit_binop(e, op);
                e.emit(Insn::Dup);
                e.emit(Insn::SetIvar { name, ic: set_ic });
            }
            Node::GVar(name) => {
                let name = self.sym(name);
                e.emit(Insn::GetGlobal { name });
                self.node(e, value);
                self.emit_binop(e, op);
                e.emit(Insn::Dup);
                e.emit(Insn::SetGlobal { name });
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
            None => e.emit(Insn::PutSelf),
        }
        for a in args {
            self.node(e, a);
        }
        let block_iseq =
            block.map(|b| self.compile_unit(&format!("block in {name}"), &b.params, &b.body, true));
        let name = self.sym(name);
        let ic = self.prog.new_ic_site();
        e.emit(Insn::Send { name, argc: args.len() as u8, block: block_iseq, ic });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> (Program, IseqId) {
        let mut p = Program::default();
        let main = compile_source(src, &mut p).unwrap_or_else(|e| panic!("{e} in {src:?}"));
        p.finalize();
        (p, main)
    }

    fn main_code(src: &str) -> Vec<Insn> {
        let (p, main) = compile(src);
        p.iseq(main).code.clone()
    }

    #[test]
    fn literal_pushes() {
        let code = main_code("42");
        assert_eq!(code, vec![Insn::PutInt(42), Insn::Leave]);
    }

    #[test]
    fn float_literals_are_pooled() {
        let (p, main) = compile("1.5 + 1.5");
        let code = &p.iseq(main).code;
        assert!(matches!(code[0], Insn::PutPooled(0)));
        assert!(matches!(code[1], Insn::PutPooled(0)), "same pooled object");
        assert_eq!(p.pooled.len(), 1);
    }

    #[test]
    fn local_assignment_and_use() {
        let code = main_code("x = 1\nx + 2");
        assert_eq!(
            code,
            vec![
                Insn::PutInt(1),
                Insn::Dup,
                Insn::SetLocal { idx: 0, depth: 0 },
                Insn::Pop,
                Insn::GetLocal { idx: 0, depth: 0 },
                Insn::PutInt(2),
                Insn::OptPlus { ic: 0 },
                Insn::Leave
            ]
        );
    }

    #[test]
    fn unknown_ident_is_self_call() {
        let code = main_code("foo");
        assert!(matches!(code[0], Insn::PutSelf));
        assert!(matches!(code[1], Insn::Send { argc: 0, .. }));
    }

    #[test]
    fn while_loop_back_edge_is_negative() {
        let code = main_code("i = 0\nwhile i < 3\n  i += 1\nend");
        let back = code
            .iter()
            .find_map(|i| match i {
                Insn::Jump(off) if *off < 0 => Some(*off),
                _ => None,
            })
            .expect("backward jump");
        assert!(back < 0);
    }

    #[test]
    fn loop_body_keeps_stack_balanced() {
        // Conservative static stack check over one loop round trip.
        let code = main_code("i = 0\nwhile i < 1000\n  i += 1\nend");
        // Find BranchUnless (loop exit) and the backward Jump; simulate.
        let mut depth: i32 = 0;
        let mut max_depth = 0;
        for _round in 0..3 {
            for insn in &code {
                depth += match insn {
                    Insn::PutInt(_) | Insn::GetLocal { .. } | Insn::Dup => 1,
                    Insn::Pop | Insn::SetLocal { .. } | Insn::BranchUnless(_) => -1,
                    Insn::OptPlus { .. } | Insn::OptLt { .. } => -1,
                    _ => 0,
                };
                max_depth = max_depth.max(depth);
            }
        }
        assert!(max_depth < 10, "stack must not grow per iteration");
    }

    #[test]
    fn method_definition_compiles_body() {
        let (p, main) = compile("def add(a, b)\n  a + b\nend");
        let code = &p.iseq(main).code;
        let iseq_id = code
            .iter()
            .find_map(|i| match i {
                Insn::DefineMethod { iseq, .. } => Some(*iseq),
                _ => None,
            })
            .expect("DefineMethod");
        let body = p.iseq(iseq_id);
        assert_eq!(body.nparams, 2);
        assert_eq!(
            body.code,
            vec![
                Insn::GetLocal { idx: 0, depth: 0 },
                Insn::GetLocal { idx: 1, depth: 0 },
                Insn::OptPlus { ic: 0 },
                Insn::Leave
            ]
        );
    }

    #[test]
    fn block_reads_outer_local_with_depth() {
        let (p, main) = compile("x = 0\nf() { |i| x = x + i }");
        let block_id = p
            .iseq(main)
            .code
            .iter()
            .find_map(|i| match i {
                Insn::Send { block: Some(b), .. } => Some(*b),
                _ => None,
            })
            .expect("block");
        let block = p.iseq(block_id);
        assert!(block.is_block);
        // x resolves one block hop up: depth 1; i is local: depth 0.
        assert!(block.code.iter().any(|i| matches!(i, Insn::GetLocal { idx: 0, depth: 1 })));
        assert!(block.code.iter().any(|i| matches!(i, Insn::SetLocal { idx: 0, depth: 1 })));
    }

    #[test]
    fn index_read_and_write_use_their_operators() {
        let code = main_code("a = [1]\na[0] = a[0] + 2");
        assert!(code.iter().any(|i| matches!(i, Insn::OptAref { .. })));
        assert!(code.iter().any(|i| matches!(i, Insn::OptAset { .. })));
    }

    #[test]
    fn logical_and_short_circuits() {
        let code = main_code("a = 1\na && 2");
        assert!(code.iter().any(|i| matches!(i, Insn::BranchUnless(_))));
    }

    #[test]
    fn class_body_defines_its_methods() {
        let (p, main) =
            compile("class P\n  def x\n    @x\n  end\n  def x=(v)\n    @x = v\n  end\nend");
        let body_id = p
            .iseq(main)
            .code
            .iter()
            .find_map(|i| match i {
                Insn::DefineClass { body, .. } => Some(*body),
                _ => None,
            })
            .expect("class");
        let body = p.iseq(body_id);
        let defs: Vec<_> =
            body.code.iter().filter(|i| matches!(i, Insn::DefineMethod { .. })).collect();
        assert_eq!(defs.len(), 2, "reader and writer");
    }

    #[test]
    fn each_ic_site_is_unique() {
        let (p, main) = compile("1 + 2\n3 + 4");
        let sites: Vec<u32> = p
            .iseq(main)
            .code
            .iter()
            .filter_map(|i| match i {
                Insn::OptPlus { ic } => Some(*ic),
                _ => None,
            })
            .collect();
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1]);
    }

    #[test]
    fn return_inside_block_is_rejected_with_its_line() {
        let mut p = Program::default();
        let r = compile_source("f() { return 1 }", &mut p);
        assert!(r.is_err_and(|e| e.msg.contains("at line 1")));
    }

    #[test]
    fn while_leaves_nil() {
        let code = main_code("while false\n  1\nend");
        assert_eq!(&code[code.len() - 2..], [Insn::PutNil, Insn::Leave]);
    }

    #[test]
    fn yield_compiles_to_invokeblock() {
        let (p, main) = compile("def f()\n  yield(1, 2)\nend");
        let body_id = p
            .iseq(main)
            .code
            .iter()
            .find_map(|i| match i {
                Insn::DefineMethod { iseq, .. } => Some(*iseq),
                _ => None,
            })
            .unwrap();
        assert!(p.iseq(body_id).code.iter().any(|i| matches!(i, Insn::InvokeBlock { argc: 2 })));
    }

    #[test]
    fn string_literals_use_string_pool() {
        let (p, main) = compile("\"ab\" + \"ab\"");
        let code = &p.iseq(main).code;
        assert!(matches!(code[0], Insn::PutString(0)));
        assert!(matches!(code[1], Insn::PutString(0)));
        assert_eq!(p.strings.len(), 1);
    }
}
