//! # ruby-lang
//!
//! Front-end for the Ruby subset interpreted by `ruby-vm`: a hand-written
//! lexer, an AST, and a recursive-descent parser.
//!
//! The subset covers what CRuby 1.9.3 needs to run the paper's workloads —
//! the NAS Parallel Benchmarks port, the WEBrick model, the Rails model and
//! the micro-benchmarks of Fig. 4:
//!
//! * literals: integers, floats (a leading `-` is part of the literal),
//!   double-quoted strings (with escapes), `nil`/`true`/`false`, array
//!   literals, ranges;
//! * variables: locals, `@ivars`, `$globals`, `CONSTANTS`;
//! * operators `+ - * / % == != < <= > >= << ! && || and or not`, with
//!   Ruby precedence, and `op=` on a variable;
//! * control flow: `if`/`elsif`/`else`/`unless`, `while`/`until`, `return`;
//! * methods (`def`, `def self.`) and classes with single inheritance;
//! * blocks (`do |x| … end` and `{ |x| … }`) and `yield` — the machinery
//!   behind the paper's Iterator micro-benchmark;
//! * method calls require parentheses except for zero-argument calls
//!   (a deliberate simplification; the bundled workloads comply);
//! * nesting up to [`parser::MAX_DEPTH`] levels, and lists (arguments,
//!   array elements) of up to 65 535 items (65 534 inside `a[…]`).
//!
//! Nothing the workloads do not build is kept: the ternary, symbols (and
//! so `attr_accessor`), hash literals (`Hash.new` stays), class variables,
//! `||=`/`&&=`, `break`/`next`, the operators `** <=> >> & | ^ ~`, unary
//! minus on a non-literal and `a[i] op= v` are lex or parse errors with
//! their line, never another meaning.
//!
//! Parsing produces a [`ast::Node`] tree; compilation to YARV-like
//! bytecode lives in `ruby-vm`.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::{BinOp, BlockDef, Node, UnOp};
pub use lexer::{LexError, Lexer};
pub use parser::{parse_program, ParseError};
pub use token::{Token, TokenKind};
