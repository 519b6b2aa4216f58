//! Abstract syntax tree for the Ruby subset.

/// Binary operators (each compiles to its `opt_*` bytecode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Shl,
}

/// Unary operators. A minus before a numeric literal is part of the
/// literal; before anything else it is a parse error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Not,
}

/// A block literal (`do |params| body end` / `{ |params| body }`).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDef {
    pub params: Vec<String>,
    pub body: Box<Node>,
}

/// AST node. Statement sequences are [`Node::Seq`]; every node is an
/// expression (Ruby semantics).
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    Nil,
    True,
    False,
    SelfExpr,
    Int(i64),
    Float(f64),
    Str(String),
    /// `[a, b, c]`
    ArrayLit(Vec<Node>),
    /// `lo..hi` (`excl` for `...`)
    Range {
        lo: Box<Node>,
        hi: Box<Node>,
        excl: bool,
    },
    LVar(String),
    IVar(String),
    GVar(String),
    Const(String),
    /// Assignment to a local/ivar/gvar/const, an index (`a[i] = v`),
    /// or an attribute (`o.x = v`).
    Assign {
        target: Box<Node>,
        value: Box<Node>,
    },
    /// `target op= value` on a local/ivar/gvar, desugared by the compiler
    /// into read-op-write.
    OpAssign {
        target: Box<Node>,
        op: BinOp,
        value: Box<Node>,
    },
    BinExpr {
        op: BinOp,
        l: Box<Node>,
        r: Box<Node>,
    },
    UnExpr {
        op: UnOp,
        e: Box<Node>,
    },
    /// Short-circuit `&&` / `||` (also `and` / `or`).
    Logical {
        is_and: bool,
        l: Box<Node>,
        r: Box<Node>,
    },
    /// `a[i]`, `a[i, j]`
    Index {
        recv: Box<Node>,
        args: Vec<Node>,
    },
    /// Method call. `recv == None` means a self-call (or local function).
    Call {
        recv: Option<Box<Node>>,
        name: String,
        args: Vec<Node>,
        block: Option<BlockDef>,
    },
    Yield(Vec<Node>),
    If {
        cond: Box<Node>,
        then: Box<Node>,
        els: Option<Box<Node>>,
    },
    /// `while` / `until` (cond negated by the parser for `until`).
    While {
        cond: Box<Node>,
        body: Box<Node>,
    },
    Return(Option<Box<Node>>),
    /// Statement sequence; value is the last statement's value.
    Seq(Vec<Node>),
    MethodDef {
        name: String,
        params: Vec<String>,
        body: Box<Node>,
        /// `def self.name` — defined on the singleton (class-level).
        on_self: bool,
    },
    ClassDef {
        name: String,
        superclass: Option<String>,
        body: Box<Node>,
    },
}

impl Node {
    /// Convenience: wrap a list of statements, collapsing singletons.
    pub fn seq(mut stmts: Vec<Node>) -> Node {
        if stmts.len() == 1 {
            stmts.pop().unwrap()
        } else {
            Node::Seq(stmts)
        }
    }

    /// True for nodes that are valid assignment targets.
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self,
            Node::LVar(_) | Node::IVar(_) | Node::GVar(_) | Node::Const(_) | Node::Index { .. }
        ) || matches!(self, Node::Call { recv: Some(_), args, block: None, .. } if args.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_collapses_singleton() {
        assert_eq!(Node::seq(vec![Node::Nil]), Node::Nil);
        assert_eq!(Node::seq(vec![Node::Nil, Node::True]), Node::Seq(vec![Node::Nil, Node::True]));
    }

    #[test]
    fn lvalue_classification() {
        assert!(Node::LVar("x".into()).is_lvalue());
        assert!(Node::IVar("x".into()).is_lvalue());
        assert!(Node::Index { recv: Box::new(Node::LVar("a".into())), args: vec![Node::Int(0)] }
            .is_lvalue());
        assert!(!Node::Int(1).is_lvalue());
        // Attribute write target: `o.x`
        assert!(Node::Call {
            recv: Some(Box::new(Node::LVar("o".into()))),
            name: "x".into(),
            args: vec![],
            block: None
        }
        .is_lvalue());
    }
}
