//! Property tests for the front-end: the lexer/parser must never panic on
//! arbitrary input (errors are `Err`, not crashes), and valid constructs
//! round-trip structurally.

use proptest::prelude::*;
use ruby_lang::parser::MAX_DEPTH;
use ruby_lang::{parse_program, Lexer, Node};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup: must lex to Ok or Err, never panic.
    #[test]
    fn lexer_never_panics(src in "\\PC*") {
        let _ = Lexer::new(&src).tokenize();
    }

    /// Arbitrary token-ish soup: parser must never panic.
    #[test]
    fn parser_never_panics(src in "[a-z0-9+\\-*/%=<>!&|(){}\\[\\].,:;#\"'\\n @$?]*") {
        let _ = parse_program(&src);
    }

    /// Integer literals round-trip through the parser.
    #[test]
    fn integer_literals_roundtrip(n in -1_000_000i64..1_000_000) {
        let src = format!("{n}");
        match parse_program(&src) {
            Ok(Node::Int(v)) => prop_assert_eq!(v, n),
            other => prop_assert!(false, "parsed {:?}", other),
        }
    }

    /// Binary arithmetic over literals parses into the expected tree shape
    /// regardless of spacing.
    #[test]
    fn arithmetic_parses_with_random_spacing(
        a in 0i64..1000,
        b in 1i64..1000,
        s1 in " {0,3}",
        s2 in " {0,3}",
    ) {
        let src = format!("{a}{s1}+{s2}{b}");
        match parse_program(&src) {
            Ok(Node::BinExpr { .. }) => {}
            other => prop_assert!(false, "parsed {:?} from {:?}", other, src),
        }
    }

    /// Identifier-shaped names parse as lvars/self-calls, never crash the
    /// keyword gluing logic.
    #[test]
    fn identifiers_with_predicate_suffix(name in "v[a-z0-9_]{0,10}") {
        let _ = parse_program(&name);
        let _ = parse_program(&format!("x.{name}?"));
        let _ = parse_program(&format!("{name} = 1\n{name} += 2"));
    }

    /// While loops with random small bodies parse (variable names are
    /// prefixed so the generator cannot produce a keyword).
    #[test]
    fn while_loops_parse(iters in 1u32..100, var in "v[a-z]{0,3}") {
        let src = format!("{var} = 0\nwhile {var} < {iters}\n  {var} += 1\nend\n{var}");
        prop_assert!(parse_program(&src).is_ok(), "{:?}", src);
    }

    /// Method definitions with random parameter lists parse and keep their
    /// parameter count.
    #[test]
    fn defs_keep_param_count(nparams in 0usize..6) {
        let params: Vec<String> = (0..nparams).map(|i| format!("p{i}")).collect();
        let src = format!("def m({})\n  1\nend", params.join(", "));
        match parse_program(&src) {
            Ok(Node::MethodDef { params: got, .. }) => prop_assert_eq!(got.len(), nparams),
            other => prop_assert!(false, "parsed {:?}", other),
        }
    }

    /// Deeply nested parentheses neither crash nor mis-parse: within the
    /// bound (the statement is a level) they parse, past it they are
    /// refused with their line.
    #[test]
    fn nested_parens(depth in 1usize..40) {
        let src = format!("{}1{}", "(".repeat(depth), ")".repeat(depth));
        match parse_program(&src) {
            Ok(Node::Int(1)) if depth < MAX_DEPTH => {}
            Err(e) if depth >= MAX_DEPTH => prop_assert!(e.line == 1 && e.msg.contains("nesting")),
            other => prop_assert!(false, "parsed {:?}", other),
        }
    }
}
