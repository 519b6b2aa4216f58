//! Hand-written lexer for the Ruby subset.
//!
//! Newlines are significant (statement terminators) and are emitted as
//! tokens; the parser decides where they may be skipped. Comments run from
//! `#` to end of line. A trailing binary operator or comma suppresses the
//! following newline so expressions may wrap lines.

use crate::token::{Token, TokenKind};

/// Lexing failure with a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub msg: String,
    pub line: u32,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Streaming lexer over source text.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line: 1 }
    }

    /// Lex the entire input.
    pub fn tokenize(mut self) -> Result<Vec<Token>, LexError> {
        let mut out: Vec<Token> = Vec::new();
        loop {
            let t = self.next_token()?;
            let eof = t.kind == TokenKind::Eof;
            // Collapse runs of newlines; suppress a newline that follows a
            // continuation token (operator, comma, opening bracket…).
            if t.kind == TokenKind::Newline {
                match out.last().map(|p| &p.kind) {
                    None | Some(TokenKind::Newline) => continue,
                    Some(k) if continues_line(k) => continue,
                    _ => {}
                }
            }
            out.push(t);
            if eof {
                break;
            }
        }
        Ok(out)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LexError> {
        Err(LexError { msg: msg.into(), line: self.line })
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        c
    }

    fn tok(&self, kind: TokenKind, line: u32) -> Token {
        Token { kind, line }
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        // Skip horizontal whitespace, comments and escaped newlines.
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' => {
                    self.bump();
                }
                b'#' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.bump();
                    }
                }
                b'\\' if self.peek2() == b'\n' => {
                    self.bump();
                    self.bump();
                }
                _ => break,
            }
        }
        let line = self.line;
        let c = self.peek();
        if c == 0 {
            return Ok(self.tok(TokenKind::Eof, line));
        }
        if c == b'\n' {
            self.bump();
            return Ok(self.tok(TokenKind::Newline, line));
        }
        if c.is_ascii_digit() {
            return self.number(line);
        }
        if c == b'"' {
            return self.string(line);
        }
        if c == b'@' {
            self.bump();
            if self.peek() == b'@' {
                return self.err("class variables are outside the subset");
            }
            let name = self.ident_chars();
            if name.is_empty() {
                return self.err("expected instance-variable name after @");
            }
            return Ok(self.tok(TokenKind::IVar(name), line));
        }
        if c == b'$' {
            self.bump();
            let name = self.ident_chars();
            if name.is_empty() {
                return self.err("expected global-variable name after $");
            }
            return Ok(self.tok(TokenKind::GVar(name), line));
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let mut name = self.ident_chars();
            // A `?` or `!` right after a name ends it (`empty?`, `nil?`,
            // `sort!`), keywords included; `x!=y` is a comparison.
            if self.peek() == b'?' || (self.peek() == b'!' && self.peek2() != b'=') {
                name.push(self.bump() as char);
                return Ok(self.tok(TokenKind::IdentQ(name), line));
            }
            if let Some(kw) = TokenKind::keyword(&name) {
                return Ok(self.tok(kw, line));
            }
            let first = name.as_bytes()[0];
            if first.is_ascii_uppercase() {
                return Ok(self.tok(TokenKind::Const(name), line));
            }
            return Ok(self.tok(TokenKind::Ident(name), line));
        }
        // Operators
        self.bump();
        let kind = match c {
            b'+' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::PlusEq
                } else {
                    TokenKind::Plus
                }
            }
            b'-' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::MinusEq
                } else {
                    TokenKind::Minus
                }
            }
            b'*' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::StarEq
                } else {
                    TokenKind::Star
                }
            }
            b'/' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::SlashEq
                } else {
                    TokenKind::Slash
                }
            }
            b'%' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::PercentEq
                } else {
                    TokenKind::Percent
                }
            }
            b'=' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::Eq
                } else {
                    TokenKind::Assign
                }
            }
            b'!' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::Ne
                } else {
                    TokenKind::Bang
                }
            }
            b'<' => match self.peek() {
                b'=' => {
                    self.bump();
                    TokenKind::Le
                }
                b'<' => {
                    self.bump();
                    if self.peek() == b'=' {
                        self.bump();
                        TokenKind::ShlEq
                    } else {
                        TokenKind::Shl
                    }
                }
                _ => TokenKind::Lt,
            },
            b'>' => {
                if self.peek() == b'=' {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'&' if self.peek() == b'&' => {
                self.bump();
                TokenKind::AndAnd
            }
            b'|' => {
                if self.peek() == b'|' {
                    self.bump();
                    TokenKind::OrOr
                } else {
                    TokenKind::Pipe
                }
            }
            b'.' => {
                if self.peek() == b'.' {
                    self.bump();
                    if self.peek() == b'.' {
                        self.bump();
                        TokenKind::DotDotDot
                    } else {
                        TokenKind::DotDot
                    }
                } else {
                    TokenKind::Dot
                }
            }
            b',' => TokenKind::Comma,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b';' => TokenKind::Semi,
            other => return self.err(format!("unexpected character {:?}", other as char)),
        };
        Ok(self.tok(kind, line))
    }

    fn ident_chars(&mut self) -> String {
        let start = self.pos;
        while {
            let c = self.peek();
            c.is_ascii_alphanumeric() || c == b'_'
        } {
            self.bump();
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn number(&mut self, line: u32) -> Result<Token, LexError> {
        let start = self.pos;
        while self.peek().is_ascii_digit() || self.peek() == b'_' {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == b'.' && self.peek2().is_ascii_digit() {
            is_float = true;
            self.bump();
            while self.peek().is_ascii_digit() || self.peek() == b'_' {
                self.bump();
            }
        }
        if self.peek() == b'e' || self.peek() == b'E' {
            let save = self.pos;
            self.bump();
            if self.peek() == b'+' || self.peek() == b'-' {
                self.bump();
            }
            if self.peek().is_ascii_digit() {
                is_float = true;
                while self.peek().is_ascii_digit() {
                    self.bump();
                }
            } else {
                self.pos = save;
            }
        }
        let text: String = String::from_utf8_lossy(&self.src[start..self.pos])
            .chars()
            .filter(|&c| c != '_')
            .collect();
        if is_float {
            match text.parse::<f64>() {
                Ok(f) => Ok(self.tok(TokenKind::Float(f), line)),
                Err(_) => self.err(format!("bad float literal {text:?}")),
            }
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(self.tok(TokenKind::Int(i), line)),
                Err(_) => self.err(format!("integer literal out of range {text:?}")),
            }
        }
    }

    fn string(&mut self, line: u32) -> Result<Token, LexError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                0 => return self.err("unterminated string literal"),
                b'"' => break,
                b'\\' => {
                    let e = self.bump();
                    s.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'0' => '\0',
                        b'\\' => '\\',
                        b'"' => '"',
                        b'e' => '\x1b',
                        b's' => ' ',
                        other => other as char,
                    });
                }
                c => s.push(c as char),
            }
        }
        Ok(self.tok(TokenKind::Str(s), line))
    }
}

/// Tokens after which a newline does not terminate the statement.
fn continues_line(k: &TokenKind) -> bool {
    use TokenKind::*;
    matches!(
        k,
        Plus | Minus
            | Star
            | Slash
            | Percent
            | Eq
            | Ne
            | Lt
            | Le
            | Gt
            | Ge
            | AndAnd
            | OrOr
            | Assign
            | PlusEq
            | MinusEq
            | StarEq
            | SlashEq
            | PercentEq
            | ShlEq
            | Shl
            | Pipe
            | Dot
            | Comma
            | LParen
            | LBracket
            | KwAnd
            | KwOr
            | KwNot
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as T;

    fn kinds(src: &str) -> Vec<T> {
        Lexer::new(src).tokenize().unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn numbers() {
        assert_eq!(
            kinds("1 23 4.5 1_000 2e3"),
            vec![T::Int(1), T::Int(23), T::Float(4.5), T::Int(1000), T::Float(2000.0), T::Eof]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            kinds(r#""a\nb" "c\"d""#),
            vec![T::Str("a\nb".into()), T::Str("c\"d".into()), T::Eof]
        );
    }

    #[test]
    fn identifiers_and_keywords() {
        assert_eq!(
            kinds("def foo_1 end Bar @iv $gv"),
            vec![
                T::KwDef,
                T::Ident("foo_1".into()),
                T::KwEnd,
                T::Const("Bar".into()),
                T::IVar("iv".into()),
                T::GVar("gv".into()),
                T::Eof
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("+ - * / % == != < <= > >= && || << | .. ..."),
            vec![
                T::Plus,
                T::Minus,
                T::Star,
                T::Slash,
                T::Percent,
                T::Eq,
                T::Ne,
                T::Lt,
                T::Le,
                T::Gt,
                T::Ge,
                T::AndAnd,
                T::OrOr,
                T::Shl,
                T::Pipe,
                T::DotDot,
                T::DotDotDot,
                T::Eof
            ]
        );
    }

    #[test]
    fn op_assign() {
        assert_eq!(
            kinds("x += 1; y <<= 2"),
            vec![
                T::Ident("x".into()),
                T::PlusEq,
                T::Int(1),
                T::Semi,
                T::Ident("y".into()),
                T::ShlEq,
                T::Int(2),
                T::Eof
            ]
        );
    }

    #[test]
    fn comments_and_newlines() {
        assert_eq!(
            kinds("a # comment\nb"),
            vec![T::Ident("a".into()), T::Newline, T::Ident("b".into()), T::Eof]
        );
    }

    #[test]
    fn newline_collapsing_and_continuation() {
        // Leading newlines dropped; newline after `+` suppressed.
        assert_eq!(
            kinds("\n\na +\nb\n\nc"),
            vec![
                T::Ident("a".into()),
                T::Plus,
                T::Ident("b".into()),
                T::Newline,
                T::Ident("c".into()),
                T::Eof
            ]
        );
    }

    #[test]
    fn predicate_method_names() {
        assert_eq!(
            kinds("x.empty?\ny.key?(1)"),
            vec![
                T::Ident("x".into()),
                T::Dot,
                T::IdentQ("empty?".into()),
                T::Newline,
                T::Ident("y".into()),
                T::Dot,
                T::IdentQ("key?".into()),
                T::LParen,
                T::Int(1),
                T::RParen,
                T::Eof
            ]
        );
    }

    #[test]
    fn a_predicate_name_ends_at_its_question_mark() {
        assert_eq!(
            kinds("a.any? { |x| x }"),
            vec![
                T::Ident("a".into()),
                T::Dot,
                T::IdentQ("any?".into()),
                T::LBrace,
                T::Pipe,
                T::Ident("x".into()),
                T::Pipe,
                T::Ident("x".into()),
                T::RBrace,
                T::Eof
            ]
        );
        assert_eq!(
            kinds("x.nil?"),
            vec![T::Ident("x".into()), T::Dot, T::IdentQ("nil?".into()), T::Eof]
        );
    }

    #[test]
    fn characters_outside_the_subset_are_errors_with_their_line() {
        for src in ["a ? 1 : 2", ":s", "1 & 1", "1 ^ 1", "~1", "@@x = 1"] {
            let e = Lexer::new(&format!("\n{src}")).tokenize().unwrap_err();
            assert_eq!(e.line, 2, "{src}: {e}");
        }
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(Lexer::new("\"abc").tokenize().is_err());
    }

    #[test]
    fn line_numbers_tracked() {
        let toks = Lexer::new("a\nb\nc").tokenize().unwrap();
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn bang_ident_glued_but_not_ne() {
        assert_eq!(
            kinds("a != b"),
            vec![T::Ident("a".into()), T::Ne, T::Ident("b".into()), T::Eof]
        );
        assert_eq!(kinds("sort!()"), vec![T::IdentQ("sort!".into()), T::LParen, T::RParen, T::Eof]);
    }
}
