//! The XPath tokenizer, including the XPath 1.0 lexical disambiguation rule
//! (whether `*` is a wildcard or multiplication, and whether `and`/`or`/
//! `div`/`mod` are operators, depends on the preceding token).
//!
//! Tokens borrow their names and literals from the input, and [`Lexer`]
//! produces them one at a time, so lexing allocates nothing.

use crate::error::{XPathError, XPathResult};

/// A lexical token with its byte offset in the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    Slash,
    DoubleSlash,
    LBracket,
    RBracket,
    LParen,
    RParen,
    At,
    Dot,
    DotDot,
    Comma,
    Pipe,
    Plus,
    Minus,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `*` in operand position (name test wildcard).
    Star,
    /// `*` in operator position (multiplication).
    Multiply,
    /// `and` | `or` | `div` | `mod` in operator position.
    OperatorName(&'a str),
    /// `axisname::`
    AxisName(&'a str),
    /// A name that is immediately followed by `(` — function call or node
    /// test like `text()`.
    FunctionName(&'a str),
    /// Any other name (element/attribute test).
    Name(&'a str),
    Literal(&'a str),
    Number(f64),
    /// `$name`
    Variable(&'a str),
}

impl TokenKind<'_> {
    /// True if a `*` or operator-name following this token should be read as
    /// an *operator* (XPath 1.0 §3.7 disambiguation).
    fn ends_operand(&self) -> bool {
        !matches!(
            self,
            TokenKind::At
                | TokenKind::AxisName(_)
                | TokenKind::LParen
                | TokenKind::LBracket
                | TokenKind::Comma
                | TokenKind::Slash
                | TokenKind::DoubleSlash
                | TokenKind::Pipe
                | TokenKind::Plus
                | TokenKind::Minus
                | TokenKind::Eq
                | TokenKind::Ne
                | TokenKind::Lt
                | TokenKind::Le
                | TokenKind::Gt
                | TokenKind::Ge
                | TokenKind::Multiply
                | TokenKind::OperatorName(_)
        )
    }
}

/// Tokenizes an XPath expression into a vector (see [`Lexer`] for the
/// streaming form the parser uses).
pub fn tokenize(input: &str) -> XPathResult<Vec<Token<'_>>> {
    let mut lexer = Lexer::new(input);
    let mut tokens = Vec::new();
    while let Some(t) = lexer.next_token()? {
        tokens.push(t);
    }
    Ok(tokens)
}

/// A streaming tokenizer over one input.
#[derive(Debug, Clone)]
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    /// Whether the previous token ends an operand (false before the first).
    after_operand: bool,
}

impl<'a> Lexer<'a> {
    /// A lexer positioned at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0, after_operand: false }
    }

    /// The next token, or `None` at the end of the input. After an error
    /// the lexer stays at the end.
    pub fn next_token(&mut self) -> XPathResult<Option<Token<'a>>> {
        match self.lex() {
            Ok(Some(t)) => {
                self.after_operand = t.kind.ends_operand();
                Ok(Some(t))
            }
            other => {
                if other.is_err() {
                    self.pos = self.input.len();
                }
                other
            }
        }
    }

    fn lex(&mut self) -> XPathResult<Option<Token<'a>>> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut pos = self.pos;
        while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
            pos += 1;
        }
        if pos >= bytes.len() {
            self.pos = pos;
            return Ok(None);
        }
        let b = bytes[pos];
        let start = pos;
        let kind = match b {
            b'/' => {
                if bytes.get(pos + 1) == Some(&b'/') {
                    pos += 2;
                    TokenKind::DoubleSlash
                } else {
                    pos += 1;
                    TokenKind::Slash
                }
            }
            b'[' => { pos += 1; TokenKind::LBracket }
            b']' => { pos += 1; TokenKind::RBracket }
            b'(' => { pos += 1; TokenKind::LParen }
            b')' => { pos += 1; TokenKind::RParen }
            b'@' => { pos += 1; TokenKind::At }
            b',' => { pos += 1; TokenKind::Comma }
            b'|' => { pos += 1; TokenKind::Pipe }
            b'+' => { pos += 1; TokenKind::Plus }
            b'-' => { pos += 1; TokenKind::Minus }
            b'=' => { pos += 1; TokenKind::Eq }
            b'!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    pos += 2;
                    TokenKind::Ne
                } else {
                    return Err(XPathError::lex(pos, "expected `!=`"));
                }
            }
            b'<' => {
                if bytes.get(pos + 1) == Some(&b'=') { pos += 2; TokenKind::Le }
                else { pos += 1; TokenKind::Lt }
            }
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') { pos += 2; TokenKind::Ge }
                else { pos += 1; TokenKind::Gt }
            }
            b'.' => {
                if bytes.get(pos + 1) == Some(&b'.') {
                    pos += 2;
                    TokenKind::DotDot
                } else if bytes.get(pos + 1).is_some_and(|c| c.is_ascii_digit()) {
                    let (n, np) = lex_number(input, pos)?;
                    pos = np;
                    TokenKind::Number(n)
                } else {
                    pos += 1;
                    TokenKind::Dot
                }
            }
            b'*' => {
                pos += 1;
                if self.after_operand {
                    TokenKind::Multiply
                } else {
                    TokenKind::Star
                }
            }
            b'\'' | b'"' => {
                let quote = b;
                let mut end = pos + 1;
                while end < bytes.len() && bytes[end] != quote {
                    end += 1;
                }
                if end >= bytes.len() {
                    return Err(XPathError::lex(pos, "unterminated string literal"));
                }
                let lit = &input[pos + 1..end];
                pos = end + 1;
                TokenKind::Literal(lit)
            }
            b'$' => {
                pos += 1;
                let (name, np) = lex_name(input, pos)
                    .ok_or_else(|| XPathError::lex(pos, "expected variable name after `$`"))?;
                pos = np;
                TokenKind::Variable(name)
            }
            b'0'..=b'9' => {
                let (n, np) = lex_number(input, pos)?;
                pos = np;
                TokenKind::Number(n)
            }
            _ => {
                let (name, np) = lex_name(input, pos)
                    .ok_or_else(|| XPathError::lex(pos, format!("unexpected byte `{}`", b as char)))?;
                pos = np;
                // Operator-name disambiguation.
                if self.after_operand && matches!(name, "and" | "or" | "div" | "mod") {
                    TokenKind::OperatorName(name)
                } else {
                    // Peek past whitespace for `::` (axis) or `(` (function).
                    let mut look = pos;
                    while look < bytes.len() && bytes[look].is_ascii_whitespace() {
                        look += 1;
                    }
                    if bytes[look..].starts_with(b"::") {
                        pos = look + 2;
                        TokenKind::AxisName(name)
                    } else if bytes.get(look) == Some(&b'(') {
                        TokenKind::FunctionName(name)
                    } else {
                        TokenKind::Name(name)
                    }
                }
            }
        };
        self.pos = pos;
        Ok(Some(Token { kind, offset: start }))
    }
}

fn lex_name(input: &str, start: usize) -> Option<(&str, usize)> {
    let bytes = input.as_bytes();
    let mut pos = start;
    while pos < bytes.len() {
        let b = bytes[pos];
        let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.') || b >= 0x80;
        // A leading character must not be a digit, '-' or '.'.
        if pos == start && (b.is_ascii_digit() || b == b'-' || b == b'.') {
            return None;
        }
        if ok {
            pos += 1;
        } else {
            break;
        }
    }
    if pos == start {
        None
    } else {
        Some((&input[start..pos], pos))
    }
}

fn lex_number(input: &str, start: usize) -> XPathResult<(f64, usize)> {
    let bytes = input.as_bytes();
    let mut pos = start;
    while pos < bytes.len() && bytes[pos].is_ascii_digit() {
        pos += 1;
    }
    if pos < bytes.len() && bytes[pos] == b'.' {
        pos += 1;
        while pos < bytes.len() && bytes[pos].is_ascii_digit() {
            pos += 1;
        }
    }
    input[start..pos]
        .parse::<f64>()
        .map(|n| (n, pos))
        .map_err(|_| XPathError::lex(start, "malformed number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(s: &str) -> Vec<TokenKind<'_>> {
        tokenize(s).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_path_tokens() {
        assert_eq!(
            kinds("/a//b[@id='x']"),
            vec![
                TokenKind::Slash,
                TokenKind::Name("a"),
                TokenKind::DoubleSlash,
                TokenKind::Name("b"),
                TokenKind::LBracket,
                TokenKind::At,
                TokenKind::Name("id"),
                TokenKind::Eq,
                TokenKind::Literal("x"),
                TokenKind::RBracket,
            ]
        );
    }

    #[test]
    fn star_disambiguation() {
        // Wildcard after slash; multiply after an operand.
        assert_eq!(
            kinds("a/* "),
            vec![TokenKind::Name("a"), TokenKind::Slash, TokenKind::Star]
        );
        assert_eq!(
            kinds("2*3"),
            vec![TokenKind::Number(2.0), TokenKind::Multiply, TokenKind::Number(3.0)]
        );
        assert_eq!(
            kinds("@x * 2"),
            vec![
                TokenKind::At,
                TokenKind::Name("x"),
                TokenKind::Multiply,
                TokenKind::Number(2.0)
            ]
        );
    }

    #[test]
    fn operator_name_disambiguation() {
        // `and` after an operand is an operator; `div` after `/` is a name.
        assert_eq!(
            kinds("a and b"),
            vec![
                TokenKind::Name("a"),
                TokenKind::OperatorName("and"),
                TokenKind::Name("b")
            ]
        );
        assert_eq!(
            kinds("/div"),
            vec![TokenKind::Slash, TokenKind::Name("div")]
        );
        assert_eq!(
            kinds("a div b"),
            vec![
                TokenKind::Name("a"),
                TokenKind::OperatorName("div"),
                TokenKind::Name("b")
            ]
        );
    }

    #[test]
    fn axis_function_and_variable() {
        assert_eq!(
            kinds("child::a"),
            vec![TokenKind::AxisName("child"), TokenKind::Name("a")]
        );
        assert_eq!(
            kinds("count(x)"),
            vec![
                TokenKind::FunctionName("count"),
                TokenKind::LParen,
                TokenKind::Name("x"),
                TokenKind::RParen
            ]
        );
        assert_eq!(kinds("$v"), vec![TokenKind::Variable("v")]);
    }

    #[test]
    fn numbers_including_leading_dot() {
        assert_eq!(kinds("1.5"), vec![TokenKind::Number(1.5)]);
        assert_eq!(kinds(".5"), vec![TokenKind::Number(0.5)]);
        assert_eq!(kinds("42"), vec![TokenKind::Number(42.0)]);
    }

    #[test]
    fn dot_and_dotdot() {
        assert_eq!(
            kinds("./.."),
            vec![TokenKind::Dot, TokenKind::Slash, TokenKind::DotDot]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("a <= b != c >= d"),
            vec![
                TokenKind::Name("a"),
                TokenKind::Le,
                TokenKind::Name("b"),
                TokenKind::Ne,
                TokenKind::Name("c"),
                TokenKind::Ge,
                TokenKind::Name("d"),
            ]
        );
    }

    #[test]
    fn double_quoted_literal() {
        assert_eq!(kinds(r#""hi there""#), vec![TokenKind::Literal("hi there")]);
    }

    #[test]
    fn lex_errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("$ ").is_err());
    }

    #[test]
    fn offsets_recorded() {
        let toks = tokenize("  /a").unwrap();
        assert_eq!(toks[0].offset, 2);
        assert_eq!(toks[1].offset, 3);
    }
}
