//! Token definitions shared by the lexer and parser.

/// A lexical token with its source line (1-based) for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
}

/// All token kinds of the Ruby subset.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // Literals
    Int(i64),
    Float(f64),
    Str(String),

    // Identifier classes
    /// Lowercase/underscore identifier (local variable or method name).
    Ident(String),
    /// Identifier ending in `?` or `!` (method name only).
    IdentQ(String),
    /// Capitalized identifier (constant / class name).
    Const(String),
    /// `@name`
    IVar(String),
    /// `$name`
    GVar(String),

    // Keywords
    KwDef,
    KwEnd,
    KwIf,
    KwElsif,
    KwElse,
    KwUnless,
    KwWhile,
    KwUntil,
    KwDo,
    KwReturn,
    KwBreak,
    KwNext,
    KwNil,
    KwTrue,
    KwFalse,
    KwClass,
    KwSelf,
    KwThen,
    KwYield,
    KwAnd,
    KwOr,
    KwNot,
    KwBeginK,
    KwRescue,
    KwEnsure,
    KwCase,
    KwWhen,
    KwModule,

    // Operators and punctuation
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Eq, // ==
    Ne, // !=
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd, // &&
    OrOr,   // ||
    Bang,   // !
    Assign, // =
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    ShlEq, // <<=
    Shl,   // <<
    Pipe,  // |
    Dot,
    DotDot,    // ..
    DotDotDot, // ...
    Comma,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Semi,
    Newline,
    Eof,
}

impl TokenKind {
    /// Keyword lookup for identifier-shaped lexemes.
    pub fn keyword(s: &str) -> Option<TokenKind> {
        Some(match s {
            "def" => TokenKind::KwDef,
            "end" => TokenKind::KwEnd,
            "if" => TokenKind::KwIf,
            "elsif" => TokenKind::KwElsif,
            "else" => TokenKind::KwElse,
            "unless" => TokenKind::KwUnless,
            "while" => TokenKind::KwWhile,
            "until" => TokenKind::KwUntil,
            "do" => TokenKind::KwDo,
            "return" => TokenKind::KwReturn,
            "break" => TokenKind::KwBreak,
            "next" => TokenKind::KwNext,
            "nil" => TokenKind::KwNil,
            "true" => TokenKind::KwTrue,
            "false" => TokenKind::KwFalse,
            "class" => TokenKind::KwClass,
            "self" => TokenKind::KwSelf,
            "then" => TokenKind::KwThen,
            "yield" => TokenKind::KwYield,
            "and" => TokenKind::KwAnd,
            "or" => TokenKind::KwOr,
            "not" => TokenKind::KwNot,
            "begin" => TokenKind::KwBeginK,
            "rescue" => TokenKind::KwRescue,
            "ensure" => TokenKind::KwEnsure,
            "case" => TokenKind::KwCase,
            "when" => TokenKind::KwWhen,
            "module" => TokenKind::KwModule,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TokenKind {
        /// True for tokens that terminate a statement.
        fn is_terminator(&self) -> bool {
            matches!(self, TokenKind::Newline | TokenKind::Semi)
        }
    }

    #[test]
    fn keyword_lookup() {
        assert_eq!(TokenKind::keyword("def"), Some(TokenKind::KwDef));
        assert_eq!(TokenKind::keyword("while"), Some(TokenKind::KwWhile));
        assert_eq!(TokenKind::keyword("frobnicate"), None);
    }

    #[test]
    fn terminators() {
        assert!(TokenKind::Newline.is_terminator());
        assert!(TokenKind::Semi.is_terminator());
        assert!(!TokenKind::Comma.is_terminator());
    }
}
