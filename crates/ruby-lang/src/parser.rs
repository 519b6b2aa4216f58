//! Recursive-descent parser producing [`crate::ast::Node`] trees.
//!
//! Precedence follows Ruby's operator table. `if`/`while`/`until` are
//! expressions (as in Ruby); `X if Y` / `X unless Y` statement modifiers
//! are supported. `begin/rescue`, `case/when`, `break`/`next`, hash
//! literals and unary minus on a non-literal are outside the subset and
//! produce a clear error.

use crate::ast::{BinOp, BlockDef, Node, UnOp};
use crate::lexer::Lexer;
use crate::token::{Token, TokenKind};

/// Parse failure with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub msg: String,
    pub line: u32,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The deepest tree the parser builds: brackets, argument lists, bodies,
/// `!`/`not` operands and each link of an operator or call chain count a
/// level ([`Parser::nest`], [`Parser::link`]). The parser and the compiler
/// recurse a few frames per level, so the bound keeps both on a 2 MB host
/// stack in a debug build; it is the deepest nesting the prelude, the
/// workloads, the examples and the figures reach (NPB LU's).
pub const MAX_DEPTH: usize = 22;

/// Parse a complete program.
pub fn parse_program(src: &str) -> Result<Node, ParseError> {
    let tokens = Lexer::new(src).tokenize().map_err(|e| ParseError { msg: e.msg, line: e.line })?;
    let mut p =
        Parser { toks: tokens, pos: 0, no_do_block: false, in_block: false, depth: 0, peak: 0 };
    let body = p.parse_stmts(&[TokenKind::Eof])?;
    p.expect(&TokenKind::Eof)?;
    Ok(body)
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Set while parsing a `while`/`until` condition so a trailing `do`
    /// terminates the condition instead of opening a block.
    no_do_block: bool,
    /// In a block's body, not a `def` or `class` in it: `return` is refused.
    in_block: bool,
    /// Levels of [`Parser::nest`] open.
    depth: usize,
    /// The deepest level of the subtree being built, its links included.
    peak: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        self.toks.get(self.pos + n).map(|t| &t.kind).unwrap_or(&TokenKind::Eof)
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, k: &TokenKind) -> bool {
        if self.peek() == k {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: &TokenKind) -> Result<(), ParseError> {
        if self.eat(k) {
            Ok(())
        } else {
            self.err(format!("expected {:?}, found {:?}", k, self.peek()))
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { msg: msg.into(), line: self.line() })
    }

    /// Parse one level deeper.
    fn nest<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        self.depth = self.deeper(self.depth)?;
        self.peak = self.peak.max(self.depth);
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    /// Parse a chain (`a + b + c`, `a.b.c`): its [`Parser::link`]s deepen
    /// what it built so far, not what its enclosing expression holds.
    fn chain(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Node, ParseError>,
    ) -> Result<Node, ParseError> {
        let outer = std::mem::replace(&mut self.peak, self.depth);
        let parsed = f(self);
        self.peak = self.peak.max(outer);
        parsed
    }

    /// The chain so far becomes the left operand of a new node.
    fn link(&mut self) -> Result<(), ParseError> {
        self.peak = self.deeper(self.peak)?;
        Ok(())
    }

    /// One level below `level`, or the refusal past [`MAX_DEPTH`].
    fn deeper(&self, level: usize) -> Result<usize, ParseError> {
        if level == MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(level + 1)
    }

    /// A left-associative binary chain over `operand`, its operators read
    /// by `op` and joined by `join`.
    fn binary<O>(
        &mut self,
        operand: fn(&mut Self) -> Result<Node, ParseError>,
        op: fn(&TokenKind) -> Option<O>,
        join: fn(O, Node, Node) -> Node,
    ) -> Result<Node, ParseError> {
        self.chain(|p| {
            let mut l = operand(p)?;
            while let Some(o) = op(p.peek()) {
                p.bump();
                let r = operand(p)?;
                p.link()?;
                l = join(o, l, r);
            }
            Ok(l)
        })
    }

    fn skip_terms(&mut self) {
        while matches!(self.peek(), TokenKind::Newline | TokenKind::Semi) {
            self.bump();
        }
    }

    /// Parse statements until one of `stops` (not consumed).
    fn parse_stmts(&mut self, stops: &[TokenKind]) -> Result<Node, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_terms();
            if stops.iter().any(|s| self.peek() == s) {
                break;
            }
            let stmt = self.parse_stmt()?;
            out.push(stmt);
            // A statement must be followed by a terminator or a stop token.
            if !matches!(self.peek(), TokenKind::Newline | TokenKind::Semi)
                && !stops.iter().any(|s| self.peek() == s)
            {
                return self.err(format!("expected end of statement, found {:?}", self.peek()));
            }
        }
        if out.is_empty() {
            Ok(Node::Nil)
        } else {
            Ok(Node::seq(out))
        }
    }

    fn parse_stmt(&mut self) -> Result<Node, ParseError> {
        let node = match self.peek().clone() {
            TokenKind::KwDef => self.parse_def()?,
            TokenKind::KwClass => self.parse_class()?,
            TokenKind::KwModule => return self.err("modules are outside the subset; use classes"),
            TokenKind::KwBeginK | TokenKind::KwRescue | TokenKind::KwEnsure => {
                return self.err("begin/rescue is outside the subset")
            }
            TokenKind::KwCase | TokenKind::KwWhen => {
                return self.err("case/when is outside the subset; use if/elsif")
            }
            TokenKind::KwReturn => {
                if self.in_block {
                    return self.err("return inside a block is outside the subset");
                }
                self.bump();
                let value =
                    if self.stmt_ends_here() { None } else { Some(Box::new(self.parse_expr()?)) };
                Node::Return(value)
            }
            TokenKind::KwBreak | TokenKind::KwNext => {
                return self.err("break/next are outside the subset; use the loop condition")
            }
            _ => self.parse_expr()?,
        };
        // Statement modifiers: `expr if cond`, `expr unless cond`.
        match self.peek() {
            TokenKind::KwIf => {
                self.bump();
                let cond = self.parse_expr()?;
                Ok(Node::If { cond: Box::new(cond), then: Box::new(node), els: None })
            }
            TokenKind::KwUnless => {
                self.bump();
                let cond = self.parse_expr()?;
                Ok(Node::If {
                    cond: Box::new(Node::UnExpr { op: UnOp::Not, e: Box::new(cond) }),
                    then: Box::new(node),
                    els: None,
                })
            }
            _ => Ok(node),
        }
    }

    fn stmt_ends_here(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Newline
                | TokenKind::Semi
                | TokenKind::KwEnd
                | TokenKind::Eof
                | TokenKind::KwIf
                | TokenKind::KwUnless
        )
    }

    fn parse_def(&mut self) -> Result<Node, ParseError> {
        self.expect(&TokenKind::KwDef)?;
        let mut on_self = false;
        if self.peek() == &TokenKind::KwSelf && self.peek_at(1) == &TokenKind::Dot {
            self.bump();
            self.bump();
            on_self = true;
        }
        let name = self.method_name()?;
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            while self.peek() != &TokenKind::RParen {
                match self.bump() {
                    TokenKind::Ident(n) => params.push(n),
                    other => return self.err(format!("expected parameter name, found {other:?}")),
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        } else if let TokenKind::Ident(_) = self.peek() {
            // `def foo a, b` (paren-less parameter list)
            loop {
                match self.bump() {
                    TokenKind::Ident(n) => params.push(n),
                    other => return self.err(format!("expected parameter name, found {other:?}")),
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let body = self.scope_body(false, TokenKind::KwEnd)?;
        Ok(Node::MethodDef { name, params, body: Box::new(body), on_self })
    }

    fn method_name(&mut self) -> Result<String, ParseError> {
        // Operator method definitions (`def ==(o)`) plus normal names.
        let name = match self.bump() {
            TokenKind::Ident(n) => {
                // `def x=(v)` attribute-writer definitions.
                if self.peek() == &TokenKind::Assign && self.peek_at(1) == &TokenKind::LParen {
                    self.bump();
                    format!("{n}=")
                } else {
                    n
                }
            }
            TokenKind::IdentQ(n) => n,
            TokenKind::Const(n) => n,
            // Keywords are legal method names after a dot (`r.begin`,
            // `r.end`, `x.class`).
            TokenKind::KwBeginK => "begin".into(),
            TokenKind::KwEnd => "end".into(),
            TokenKind::KwClass => "class".into(),
            TokenKind::LBracket => {
                self.expect(&TokenKind::RBracket)?;
                if self.eat(&TokenKind::Assign) {
                    "[]=".to_string()
                } else {
                    "[]".to_string()
                }
            }
            TokenKind::Plus => "+".into(),
            TokenKind::Minus => "-".into(),
            TokenKind::Star => "*".into(),
            TokenKind::Slash => "/".into(),
            TokenKind::Percent => "%".into(),
            TokenKind::Eq => "==".into(),
            TokenKind::Lt => "<".into(),
            TokenKind::Le => "<=".into(),
            TokenKind::Gt => ">".into(),
            TokenKind::Ge => ">=".into(),
            TokenKind::Shl => "<<".into(),
            other => return self.err(format!("expected method name, found {other:?}")),
        };
        Ok(name)
    }

    fn parse_class(&mut self) -> Result<Node, ParseError> {
        self.expect(&TokenKind::KwClass)?;
        let name = match self.bump() {
            TokenKind::Const(n) => n,
            other => return self.err(format!("expected class name, found {other:?}")),
        };
        let superclass = if self.eat(&TokenKind::Lt) {
            match self.bump() {
                TokenKind::Const(n) => Some(n),
                other => return self.err(format!("expected superclass name, found {other:?}")),
            }
        } else {
            None
        };
        let body = self.scope_body(false, TokenKind::KwEnd)?;
        Ok(Node::ClassDef { name, superclass, body: Box::new(body) })
    }

    // ---- expressions ----------------------------------------------------

    fn parse_expr(&mut self) -> Result<Node, ParseError> {
        self.nest(Self::parse_assignment)
    }

    fn parse_assignment(&mut self) -> Result<Node, ParseError> {
        let lhs = self.parse_keyword_logic()?;
        let op = match self.peek() {
            TokenKind::Assign => None,
            TokenKind::PlusEq => Some(BinOp::Add),
            TokenKind::MinusEq => Some(BinOp::Sub),
            TokenKind::StarEq => Some(BinOp::Mul),
            TokenKind::SlashEq => Some(BinOp::Div),
            TokenKind::PercentEq => Some(BinOp::Mod),
            TokenKind::ShlEq => Some(BinOp::Shl),
            _ => return Ok(lhs),
        };
        if !lhs.is_lvalue() {
            return self.err("left-hand side is not assignable");
        }
        if op.is_some() && !matches!(lhs, Node::LVar(_) | Node::IVar(_) | Node::GVar(_)) {
            return self.err("`op=` takes a local, @ivar or $global; write `a[i] = a[i] + v`");
        }
        self.bump();
        let value = self.parse_expr()?; // right-associative
        match op {
            None => Ok(Node::Assign { target: Box::new(lhs), value: Box::new(value) }),
            Some(op) => Ok(Node::OpAssign { target: Box::new(lhs), op, value: Box::new(value) }),
        }
    }

    /// Lowest precedence: `and` / `or` / `not` keywords.
    fn parse_keyword_logic(&mut self) -> Result<Node, ParseError> {
        if self.eat(&TokenKind::KwNot) {
            let e = self.nest(Self::parse_keyword_logic)?;
            return Ok(Node::UnExpr { op: UnOp::Not, e: Box::new(e) });
        }
        let op = |t: &TokenKind| match t {
            TokenKind::KwAnd => Some(true),
            TokenKind::KwOr => Some(false),
            _ => None,
        };
        self.binary(Self::parse_range, op, logical)
    }

    fn parse_range(&mut self) -> Result<Node, ParseError> {
        let lo = self.parse_oror()?;
        let excl = match self.peek() {
            TokenKind::DotDot => false,
            TokenKind::DotDotDot => true,
            _ => return Ok(lo),
        };
        self.bump();
        let hi = self.parse_oror()?;
        Ok(Node::Range { lo: Box::new(lo), hi: Box::new(hi), excl })
    }

    fn parse_oror(&mut self) -> Result<Node, ParseError> {
        self.binary(Self::parse_andand, |t| (t == &TokenKind::OrOr).then_some(false), logical)
    }

    fn parse_andand(&mut self) -> Result<Node, ParseError> {
        self.binary(Self::parse_equality, |t| (t == &TokenKind::AndAnd).then_some(true), logical)
    }

    fn parse_equality(&mut self) -> Result<Node, ParseError> {
        let op = |t: &TokenKind| match t {
            TokenKind::Eq => Some(BinOp::Eq),
            TokenKind::Ne => Some(BinOp::Ne),
            _ => None,
        };
        self.binary(Self::parse_comparison, op, binary)
    }

    fn parse_comparison(&mut self) -> Result<Node, ParseError> {
        let op = |t: &TokenKind| match t {
            TokenKind::Lt => Some(BinOp::Lt),
            TokenKind::Le => Some(BinOp::Le),
            TokenKind::Gt => Some(BinOp::Gt),
            TokenKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        self.binary(Self::parse_shift, op, binary)
    }

    fn parse_shift(&mut self) -> Result<Node, ParseError> {
        self.binary(Self::parse_additive, |t| (t == &TokenKind::Shl).then_some(BinOp::Shl), binary)
    }

    fn parse_additive(&mut self) -> Result<Node, ParseError> {
        let op = |t: &TokenKind| match t {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        };
        self.binary(Self::parse_multiplicative, op, binary)
    }

    fn parse_multiplicative(&mut self) -> Result<Node, ParseError> {
        let op = |t: &TokenKind| match t {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            TokenKind::Percent => Some(BinOp::Mod),
            _ => None,
        };
        self.binary(Self::parse_unary, op, binary)
    }

    fn parse_unary(&mut self) -> Result<Node, ParseError> {
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                // A minus directly before a numeric literal folds into the
                // literal *before* postfix methods apply (Ruby: `-3.abs`
                // is `(-3).abs == 3`).
                let lit = match *self.peek() {
                    TokenKind::Int(i) => Node::Int(-i),
                    TokenKind::Float(f) => Node::Float(-f),
                    _ => return self.err("unary minus takes a numeric literal; write `0 - x`"),
                };
                self.bump();
                self.chain(|p| p.parse_postfix_from(lit))
            }
            TokenKind::Bang => {
                self.bump();
                let e = self.nest(Self::parse_unary)?;
                Ok(Node::UnExpr { op: UnOp::Not, e: Box::new(e) })
            }
            _ => self.parse_postfix(),
        }
    }

    fn parse_postfix(&mut self) -> Result<Node, ParseError> {
        self.chain(|p| {
            let e = p.parse_primary()?;
            p.parse_postfix_from(e)
        })
    }

    /// Postfix continuation (`.m`, `[...]`) applied to an already-parsed
    /// base expression, inside its [`Parser::chain`].
    fn parse_postfix_from(&mut self, e: Node) -> Result<Node, ParseError> {
        let mut e = e;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    let name = self.method_name()?;
                    let args = if self.peek() == &TokenKind::LParen {
                        self.bump();
                        let args = self.parse_args(&TokenKind::RParen, u16::MAX)?;
                        self.expect(&TokenKind::RParen)?;
                        args
                    } else {
                        Vec::new()
                    };
                    let block = self.maybe_block()?;
                    self.link()?;
                    e = Node::Call { recv: Some(Box::new(e)), name, args, block };
                }
                TokenKind::LBracket => {
                    self.bump();
                    // One slot is the value's, should this be `a[…] = v`.
                    let args = self.parse_args(&TokenKind::RBracket, u16::MAX - 1)?;
                    self.expect(&TokenKind::RBracket)?;
                    self.link()?;
                    e = Node::Index { recv: Box::new(e), args };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    /// Comma-separated expressions up to `stop`, at most `most` of them:
    /// a count goes into an instruction's 16-bit lane.
    fn parse_args(&mut self, stop: &TokenKind, most: u16) -> Result<Vec<Node>, ParseError> {
        let (mut args, line) = (Vec::new(), self.line());
        self.skip_terms();
        while self.peek() != stop {
            args.push(self.parse_expr()?);
            self.skip_terms();
            if !self.eat(&TokenKind::Comma) {
                break;
            }
            self.skip_terms();
        }
        if args.len() > usize::from(most) {
            return Err(ParseError { msg: format!("a list of more than {most} items"), line });
        }
        Ok(args)
    }

    fn maybe_block(&mut self) -> Result<Option<BlockDef>, ParseError> {
        let close = match self.peek() {
            TokenKind::LBrace => TokenKind::RBrace,
            TokenKind::KwDo if !self.no_do_block => TokenKind::KwEnd,
            _ => return Ok(None),
        };
        self.bump();
        let params = self.block_params()?;
        let body = self.scope_body(true, close)?;
        Ok(Some(BlockDef { params, body: Box::new(body) }))
    }

    /// The body of a block (`in_block`), method or class, through `close`.
    fn scope_body(&mut self, in_block: bool, close: TokenKind) -> Result<Node, ParseError> {
        let outer = std::mem::replace(&mut self.in_block, in_block);
        let body = self.parse_stmts(std::slice::from_ref(&close))?;
        self.expect(&close)?;
        self.in_block = outer;
        Ok(body)
    }

    fn block_params(&mut self) -> Result<Vec<String>, ParseError> {
        self.skip_terms();
        let mut params = Vec::new();
        if self.eat(&TokenKind::Pipe) {
            while self.peek() != &TokenKind::Pipe {
                match self.bump() {
                    TokenKind::Ident(n) => params.push(n),
                    other => return self.err(format!("expected block parameter, found {other:?}")),
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::Pipe)?;
        }
        Ok(params)
    }

    fn parse_primary(&mut self) -> Result<Node, ParseError> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.bump();
                Ok(Node::Int(i))
            }
            TokenKind::Float(f) => {
                self.bump();
                Ok(Node::Float(f))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Node::Str(s))
            }
            TokenKind::KwNil => {
                self.bump();
                Ok(Node::Nil)
            }
            TokenKind::KwTrue => {
                self.bump();
                Ok(Node::True)
            }
            TokenKind::KwFalse => {
                self.bump();
                Ok(Node::False)
            }
            TokenKind::KwSelf => {
                self.bump();
                Ok(Node::SelfExpr)
            }
            TokenKind::KwYield => {
                self.bump();
                let args = if self.eat(&TokenKind::LParen) {
                    let a = self.parse_args(&TokenKind::RParen, u16::MAX)?;
                    self.expect(&TokenKind::RParen)?;
                    a
                } else {
                    Vec::new()
                };
                Ok(Node::Yield(args))
            }
            TokenKind::LParen => {
                self.bump();
                self.skip_terms();
                let e = self.parse_expr()?;
                self.skip_terms();
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBracket => {
                self.bump();
                let elems = self.parse_args(&TokenKind::RBracket, u16::MAX)?;
                self.expect(&TokenKind::RBracket)?;
                Ok(Node::ArrayLit(elems))
            }
            TokenKind::LBrace => self.err("hash literals are outside the subset; use Hash.new"),
            TokenKind::Ident(name) | TokenKind::IdentQ(name) => {
                self.bump();
                if self.peek() == &TokenKind::LParen {
                    self.bump();
                    let args = self.parse_args(&TokenKind::RParen, u16::MAX)?;
                    self.expect(&TokenKind::RParen)?;
                    let block = self.maybe_block()?;
                    return Ok(Node::Call { recv: None, name, args, block });
                }
                // `foo { … }` / `foo do … end`: zero-arg call with block.
                if self.peek() == &TokenKind::LBrace
                    || (self.peek() == &TokenKind::KwDo && !self.no_do_block)
                {
                    let block = self.maybe_block()?;
                    return Ok(Node::Call { recv: None, name, args: Vec::new(), block });
                }
                // Bare identifier: local variable or zero-arg self-call —
                // the compiler resolves which, from its scope table.
                Ok(Node::LVar(name))
            }
            TokenKind::Const(name) => {
                self.bump();
                Ok(Node::Const(name))
            }
            TokenKind::IVar(name) => {
                self.bump();
                Ok(Node::IVar(name))
            }
            TokenKind::GVar(name) => {
                self.bump();
                Ok(Node::GVar(name))
            }
            TokenKind::KwIf => self.parse_if(false),
            TokenKind::KwUnless => self.parse_if(true),
            TokenKind::KwWhile => self.parse_while(false),
            TokenKind::KwUntil => self.parse_while(true),
            other => self.err(format!("unexpected token {other:?}")),
        }
    }

    fn parse_if(&mut self, negate: bool) -> Result<Node, ParseError> {
        self.bump(); // if / unless
        let cond = self.parse_expr()?;
        let _ = self.eat(&TokenKind::KwThen);
        let then = self.parse_stmts(&[TokenKind::KwElsif, TokenKind::KwElse, TokenKind::KwEnd])?;
        let els = match self.peek() {
            TokenKind::KwElsif => Some(Box::new(self.nest(|p| p.parse_if(false))?)),
            TokenKind::KwElse => {
                self.bump();
                let e = self.parse_stmts(&[TokenKind::KwEnd])?;
                self.expect(&TokenKind::KwEnd)?;
                Some(Box::new(e))
            }
            TokenKind::KwEnd => {
                self.bump();
                None
            }
            other => return self.err(format!("expected elsif/else/end, found {other:?}")),
        };
        let cond = if negate { Node::UnExpr { op: UnOp::Not, e: Box::new(cond) } } else { cond };
        Ok(Node::If { cond: Box::new(cond), then: Box::new(then), els })
    }

    fn parse_while(&mut self, negate: bool) -> Result<Node, ParseError> {
        self.bump(); // while / until
        let saved = self.no_do_block;
        self.no_do_block = true;
        let cond = self.parse_expr();
        self.no_do_block = saved;
        let cond = cond?;
        let _ = self.eat(&TokenKind::KwDo);
        let body = self.parse_stmts(&[TokenKind::KwEnd])?;
        self.expect(&TokenKind::KwEnd)?;
        let cond = if negate { Node::UnExpr { op: UnOp::Not, e: Box::new(cond) } } else { cond };
        Ok(Node::While { cond: Box::new(cond), body: Box::new(body) })
    }
}

fn logical(is_and: bool, l: Node, r: Node) -> Node {
    Node::Logical { is_and, l: Box::new(l), r: Box::new(r) }
}

fn binary(op: BinOp, l: Node, r: Node) -> Node {
    Node::BinExpr { op, l: Box::new(l), r: Box::new(r) }
}

// parse_if consumes its own `end` in the elsif-chain case; `parse_if(false)`
// recursion treats the chain's final `end` uniformly because the nested call
// consumes it.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Node as N;

    fn parse(src: &str) -> Node {
        parse_program(src).unwrap_or_else(|e| panic!("{e} in {src:?}"))
    }

    #[test]
    fn literals() {
        assert_eq!(parse("42"), N::Int(42));
        assert_eq!(parse("4.5"), N::Float(4.5));
        assert_eq!(parse("\"hi\""), N::Str("hi".into()));
        assert_eq!(parse("nil"), N::Nil);
    }

    #[test]
    fn precedence_add_mul() {
        // 1 + 2 * 3 == 1 + (2 * 3)
        let n = parse("1 + 2 * 3");
        match n {
            N::BinExpr { op: BinOp::Add, l, r } => {
                assert_eq!(*l, N::Int(1));
                assert!(matches!(*r, N::BinExpr { op: BinOp::Mul, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_folds_literals() {
        assert_eq!(parse("-5"), N::Int(-5));
        assert_eq!(parse("-2.5"), N::Float(-2.5));
    }

    #[test]
    fn assignment_chain() {
        let n = parse("x = y = 1");
        match n {
            N::Assign { target, value } => {
                assert_eq!(*target, N::LVar("x".into()));
                assert!(matches!(*value, N::Assign { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn op_assign() {
        let n = parse("x += 2");
        assert!(matches!(n, N::OpAssign { op: BinOp::Add, .. }));
    }

    #[test]
    fn index_assignment() {
        let n = parse("a[i] = 3");
        match n {
            N::Assign { target, .. } => assert!(matches!(*target, N::Index { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attribute_assignment() {
        let n = parse("o.x = 3");
        match n {
            N::Assign { target, .. } => {
                assert!(matches!(*target, N::Call { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn method_call_with_block() {
        let n = parse("(1..3).each do |i|\n  x += i\nend");
        match n {
            N::Call { recv, name, block, .. } => {
                assert!(matches!(*recv.unwrap(), N::Range { .. }));
                assert_eq!(name, "each");
                let b = block.unwrap();
                assert_eq!(b.params, vec!["i".to_string()]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn brace_block_vs_hash() {
        // Block after call:
        let n = parse("f { |a| a }");
        assert!(matches!(n, N::Call { block: Some(_), .. }));
        // A brace in expression position would be a hash literal:
        let e = parse_program("h = { 1 => 2 }").unwrap_err();
        assert!(e.msg.contains("hash literals"), "{e}");
    }

    #[test]
    fn while_loop_with_condition_call() {
        let n = parse("while i <= n\n  i += 1\nend");
        assert!(matches!(n, N::While { .. }));
    }

    #[test]
    fn until_negates() {
        let n = parse("until done\n  x()\nend");
        match n {
            N::While { cond, .. } => assert!(matches!(*cond, N::UnExpr { op: UnOp::Not, .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_elsif_else() {
        let n = parse("if a\n1\nelsif b\n2\nelse\n3\nend");
        match n {
            N::If { els: Some(els), .. } => {
                assert!(matches!(*els, N::If { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn statement_modifier_if() {
        let n = parse("x = 1 if y");
        assert!(matches!(n, N::If { .. }));
    }

    #[test]
    fn def_with_params_and_body() {
        let n = parse("def add(a, b)\n  a + b\nend");
        match n {
            N::MethodDef { name, params, on_self, .. } => {
                assert_eq!(name, "add");
                assert_eq!(params, vec!["a".to_string(), "b".to_string()]);
                assert!(!on_self);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn def_self_and_operator_methods() {
        assert!(matches!(parse("def self.make()\n  1\nend"), N::MethodDef { on_self: true, .. }));
        assert!(matches!(parse("def ==(o)\n  true\nend"), N::MethodDef { .. }));
        match parse("def [](i)\n  i\nend") {
            N::MethodDef { name, .. } => assert_eq!(name, "[]"),
            other => panic!("{other:?}"),
        }
        match parse("def []=(i, v)\n  v\nend") {
            N::MethodDef { name, .. } => assert_eq!(name, "[]="),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn class_with_superclass() {
        let n = parse("class Foo < Bar\n  def m()\n    1\n  end\nend");
        match n {
            N::ClassDef { name, superclass, .. } => {
                assert_eq!(name, "Foo");
                assert_eq!(superclass, Some("Bar".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn yield_with_args() {
        let n = parse("def each2()\n  yield(1)\n  yield(2)\nend");
        assert!(matches!(n, N::MethodDef { .. }));
    }

    #[test]
    fn forms_outside_the_subset_are_errors_with_their_line() {
        for src in ["break", "next", "2 ** 3", "1 <=> 2", "1 >> 1", "x ||= 1", "-x", "a[0] += 1"] {
            let e = parse_program(&format!("x = 1\n{src}")).unwrap_err();
            assert_eq!(e.line, 2, "{src}: {e}");
        }
        assert!(parse_program("-x").unwrap_err().msg.contains("0 - x"));
    }

    #[test]
    fn logical_keywords_low_precedence() {
        // `a = 1 and b` parses as `(a = 1) and b` in Ruby; our statement
        // parser applies and/or above assignment inside one expression —
        // we accept the simpler `a and b` form.
        let n = parse("a and b or c");
        assert!(matches!(n, N::Logical { is_and: false, .. }));
    }

    #[test]
    fn range_literals() {
        assert!(matches!(parse("1..10"), N::Range { excl: false, .. }));
        assert!(matches!(parse("1...10"), N::Range { excl: true, .. }));
    }

    #[test]
    fn multiline_program() {
        let src = "def workload(n)\n  x = 0\n  i = 1\n  while i <= n\n    x += i\n    i += 1\n  end\n  x\nend\nworkload(10)";
        let n = parse(src);
        match n {
            N::Seq(stmts) => {
                assert_eq!(stmts.len(), 2);
                assert!(matches!(stmts[0], N::MethodDef { .. }));
                assert!(matches!(stmts[1], N::Call { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_have_lines() {
        let e = parse_program("x = \n )").unwrap_err();
        assert!(e.line >= 1);
        let e = parse_program("case x\nwhen 1\nend").unwrap_err();
        assert!(e.msg.contains("case"));
    }

    /// `return` is refused in a block's body, with its line, but not in a
    /// method or class body inside a block.
    #[test]
    fn return_inside_a_block_is_refused_but_a_def_resets_the_rule() {
        let e = parse_program("def f(a)\n  a.each do |x|\n    return x\n  end\nend").unwrap_err();
        assert_eq!((&*e.msg, e.line), ("return inside a block is outside the subset", 3));
        let e = parse_program("f { |x| x }\ng { |x|\n  return x }").unwrap_err();
        assert_eq!(e.line, 3);
        parse_program("a.each do |x|\n  def f()\n    return 1\n  end\n  class C\n    def g()\n      return 2\n    end\n  end\nend\nreturn 3").expect("a def resets the rule");
    }

    #[test]
    fn chained_calls_and_index() {
        let n = parse("a.b().c[1].d(2)");
        assert!(matches!(n, N::Call { .. }));
    }

    #[test]
    fn predicate_calls() {
        let n = parse("s.empty?");
        match n {
            N::Call { name, .. } => assert_eq!(name, "empty?"),
            other => panic!("{other:?}"),
        }
        match parse("[1, 2].any? { |x| x > 1 }") {
            N::Call { name, block: Some(b), .. } => {
                assert_eq!((&*name, b.params), ("any?", vec!["x".into()]))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paren_less_zero_arg_self_call_is_lvar_node() {
        // The parser cannot distinguish `foo` (local) from `foo` (call);
        // it emits LVar and the compiler resolves it.
        assert_eq!(parse("foo"), N::LVar("foo".into()));
    }
}
