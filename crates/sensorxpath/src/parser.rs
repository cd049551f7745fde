//! Recursive-descent parser for the unordered fragment of XPath 1.0.
//!
//! The parser pulls tokens from a streaming [`Lexer`] that borrows the
//! input, and builds the AST's names and literals as inline [`Name`]s, so
//! the only allocations a query's parse makes are the AST's own nodes and
//! lists. Nesting is bounded by [`MAX_NESTING`].

use std::sync::Arc;

use crate::ast::{Axis, BinOp, Expr, LocationPath, Name, NodeTest, Step};
use crate::error::{XPathError, XPathResult};
use crate::lexer::{Lexer, Token, TokenKind};

/// The deepest expression the parser accepts: parentheses, function
/// arguments, predicates, unary minus signs and chained binary or union
/// operators each count one level. Query text arrives from the network,
/// and the parser, the evaluator, `Display` and `Drop` all recurse over
/// the tree, so a deeper text is a syntax error rather than a stack
/// overflow. The same bound as the QEG walk's nesting limit.
pub const MAX_NESTING: usize = 128;

/// Parses an XPath expression.
///
/// A lexical error anywhere in the input is reported in preference to a
/// syntax error, as if the whole input were tokenized first; only a text
/// nesting too deep to parse is rejected before either.
pub fn parse(input: &str) -> XPathResult<Expr> {
    check_bracket_depth(input)?;
    let mut p = Parser::new(input);
    let result = p.parse_expr().and_then(|e| match p.cur {
        Some(t) => Err(XPathError::syntax(t.offset, "unexpected trailing tokens")),
        None => Ok(e),
    });
    if p.lex_error.is_none() && result.is_err() {
        // Scan the rest of the input for an earlier-reported lex error.
        while p.lex().is_some() {}
    }
    match p.lex_error {
        Some(e) => Err(e),
        None => result,
    }
}

fn too_deep(offset: usize) -> XPathError {
    XPathError::syntax(offset, format!("expression nests deeper than {MAX_NESTING} levels"))
}

/// Rejects text whose brackets nest well past [`MAX_NESTING`] before the
/// parser recurses into it. The parser recurses once per bracket level,
/// and it counts the levels as it goes, but by the time it has counted
/// 128 levels it holds 128 levels of frames: too many for a small thread
/// stack in an unoptimized build. This byte scan has no frames to hold.
/// It allows one level more than the limit (the `()` of `text()` inside
/// the deepest predicate), so the parser's count stays the exact bound.
fn check_bracket_depth(input: &str) -> XPathResult<()> {
    let mut depth = 0usize;
    let mut quote = None;
    for (i, &b) in input.as_bytes().iter().enumerate() {
        match quote {
            // Brackets inside a literal do not nest.
            Some(q) => {
                if b == q {
                    quote = None;
                }
            }
            None => match b {
                b'\'' | b'"' => quote = Some(b),
                b'(' | b'[' => {
                    depth += 1;
                    if depth > MAX_NESTING + 1 {
                        return Err(too_deep(i));
                    }
                }
                b')' | b']' => depth = depth.saturating_sub(1),
                _ => {}
            },
        }
    }
    Ok(())
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token; `None` at the end of the input or after a lex
    /// error.
    cur: Option<Token<'a>>,
    /// The token after `cur`, once [`Parser::peek2`] has lexed it.
    next: Option<Option<Token<'a>>>,
    /// Offset of the last token lexed (for errors at the end of input).
    last_offset: Option<usize>,
    /// The first lex error, which ends the token stream.
    lex_error: Option<XPathError>,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let mut p = Parser {
            lexer: Lexer::new(input),
            cur: None,
            next: None,
            last_offset: None,
            lex_error: None,
            depth: 0,
        };
        p.cur = p.lex();
        p
    }

    fn lex(&mut self) -> Option<Token<'a>> {
        match self.lexer.next_token() {
            Ok(t) => {
                if let Some(t) = t {
                    self.last_offset = Some(t.offset);
                }
                t
            }
            Err(e) => {
                self.lex_error.get_or_insert(e);
                None
            }
        }
    }

    fn peek(&self) -> Option<&TokenKind<'a>> {
        self.cur.as_ref().map(|t| &t.kind)
    }

    fn peek2(&mut self) -> Option<&TokenKind<'a>> {
        if self.next.is_none() {
            let t = if self.cur.is_some() { self.lex() } else { None };
            self.next = Some(t);
        }
        self.next.as_ref().and_then(|t| t.as_ref()).map(|t| &t.kind)
    }

    fn offset(&self) -> usize {
        match self.cur {
            Some(t) => t.offset,
            None => self.last_offset.map_or(0, |o| o + 1),
        }
    }

    fn bump(&mut self) -> Option<TokenKind<'a>> {
        let t = self.cur?;
        self.cur = match self.next.take() {
            Some(next) => next,
            None => self.lex(),
        };
        Some(t.kind)
    }

    fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.peek() == Some(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &str) -> XPathResult<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(XPathError::syntax(self.offset(), format!("expected {what}")))
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> XPathResult<T> {
        Err(XPathError::syntax(self.offset(), msg))
    }

    /// Enters one more nesting level; the caller restores `depth`.
    fn descend(&mut self) -> XPathResult<()> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(too_deep(self.offset()));
        }
        Ok(())
    }

    /// A parenthesized expression, function argument or predicate body:
    /// one nesting level below the current one.
    fn parse_nested(&mut self) -> XPathResult<Expr> {
        let depth = self.depth;
        self.descend()?;
        let e = self.parse_expr();
        self.depth = depth;
        e
    }

    // Expr ::= OrExpr
    fn parse_expr(&mut self) -> XPathResult<Expr> {
        self.parse_binary(BinOp::Or.precedence())
    }

    /// The binary operator at the current token, if any.
    fn peek_binop(&self) -> Option<BinOp> {
        Some(match self.peek()? {
            TokenKind::OperatorName("or") => BinOp::Or,
            TokenKind::OperatorName("and") => BinOp::And,
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::Plus => BinOp::Add,
            TokenKind::Minus => BinOp::Sub,
            TokenKind::Multiply => BinOp::Mul,
            TokenKind::OperatorName("div") => BinOp::Div,
            TokenKind::OperatorName("mod") => BinOp::Mod,
            _ => return None,
        })
    }

    /// OrExpr down to MultiplicativeExpr by precedence climbing: operators
    /// binding at least `min_prec`, left-associative.
    fn parse_binary(&mut self, min_prec: u8) -> XPathResult<Expr> {
        let depth = self.depth;
        let mut left = self.parse_unary()?;
        while let Some(op) = self.peek_binop().filter(|op| op.precedence() >= min_prec) {
            self.bump();
            self.descend()?;
            let right = self.parse_binary(op.precedence() + 1)?;
            left = Expr::Binary(op, Arc::new(left), Arc::new(right));
        }
        self.depth = depth;
        Ok(left)
    }

    fn parse_unary(&mut self) -> XPathResult<Expr> {
        let depth = self.depth;
        let mut negations = 0;
        while self.eat(&TokenKind::Minus) {
            self.descend()?;
            negations += 1;
        }
        let mut e = self.parse_union()?;
        for _ in 0..negations {
            e = Expr::Negate(Arc::new(e));
        }
        self.depth = depth;
        Ok(e)
    }

    fn parse_union(&mut self) -> XPathResult<Expr> {
        let depth = self.depth;
        let mut left = self.parse_path_expr()?;
        while self.eat(&TokenKind::Pipe) {
            self.descend()?;
            let right = self.parse_path_expr()?;
            left = Expr::Union(Arc::new(left), Arc::new(right));
        }
        self.depth = depth;
        Ok(left)
    }

    /// PathExpr ::= LocationPath | FilterExpr (('/'|'//') RelativeLocationPath)?
    fn parse_path_expr(&mut self) -> XPathResult<Expr> {
        if self.starts_filter_expr() {
            let primary = self.parse_primary()?;
            let mut predicates = Vec::new();
            while self.peek() == Some(&TokenKind::LBracket) {
                predicates.push(self.parse_predicate()?);
            }
            let mut trailing = Vec::new();
            if self.eat(&TokenKind::DoubleSlash) {
                trailing.push(Step::descendant_or_self());
                self.parse_relative_path_into(&mut trailing)?;
            } else if self.eat(&TokenKind::Slash) {
                self.parse_relative_path_into(&mut trailing)?;
            }
            if predicates.is_empty() && trailing.is_empty() {
                Ok(primary)
            } else {
                Ok(Expr::Filter {
                    primary: Arc::new(primary),
                    predicates,
                    trailing,
                })
            }
        } else {
            Ok(Expr::Path(self.parse_location_path()?))
        }
    }

    /// A primary expression starts a FilterExpr; everything else is a
    /// location path. Node-test-like names (`text(`/`node(`) start paths.
    fn starts_filter_expr(&self) -> bool {
        match self.peek() {
            Some(TokenKind::Variable(_))
            | Some(TokenKind::LParen)
            | Some(TokenKind::Literal(_))
            | Some(TokenKind::Number(_)) => true,
            Some(TokenKind::FunctionName(n)) => !matches!(*n, "text" | "node"),
            _ => false,
        }
    }

    fn parse_primary(&mut self) -> XPathResult<Expr> {
        match self.bump() {
            Some(TokenKind::Variable(name)) => Ok(Expr::Var(Name::new(name))),
            Some(TokenKind::Literal(s)) => Ok(Expr::Literal(Name::new(s))),
            Some(TokenKind::Number(n)) => Ok(Expr::Number(n)),
            Some(TokenKind::LParen) => {
                let e = self.parse_nested()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            Some(TokenKind::FunctionName(name)) => {
                if matches!(name, "position" | "last") {
                    return Err(XPathError::Ordered(format!("{name}()")));
                }
                self.expect(TokenKind::LParen, "`(`")?;
                let mut args = Vec::new();
                if self.peek() != Some(&TokenKind::RParen) {
                    loop {
                        args.push(self.parse_nested()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(Expr::Call(Name::new(name), args))
            }
            _ => self.err("expected a primary expression"),
        }
    }

    fn parse_location_path(&mut self) -> XPathResult<LocationPath> {
        let mut steps = Vec::new();
        let absolute;
        if self.eat(&TokenKind::DoubleSlash) {
            absolute = true;
            steps.push(Step::descendant_or_self());
            self.parse_relative_path_into(&mut steps)?;
        } else if self.eat(&TokenKind::Slash) {
            absolute = true;
            // `/` alone selects the root.
            if self.starts_step() {
                self.parse_relative_path_into(&mut steps)?;
            }
        } else {
            absolute = false;
            self.parse_relative_path_into(&mut steps)?;
        }
        Ok(LocationPath { absolute, steps })
    }

    fn starts_step(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                TokenKind::Name(_)
                    | TokenKind::Star
                    | TokenKind::At
                    | TokenKind::Dot
                    | TokenKind::DotDot
                    | TokenKind::AxisName(_)
                    | TokenKind::FunctionName("text" | "node")
            )
        )
    }

    fn parse_relative_path_into(&mut self, steps: &mut Vec<Step>) -> XPathResult<()> {
        steps.push(self.parse_step()?);
        loop {
            if self.eat(&TokenKind::DoubleSlash) {
                steps.push(Step::descendant_or_self());
                steps.push(self.parse_step()?);
            } else if self.eat(&TokenKind::Slash) {
                steps.push(self.parse_step()?);
            } else {
                return Ok(());
            }
        }
    }

    fn parse_step(&mut self) -> XPathResult<Step> {
        // Abbreviations first.
        if self.eat(&TokenKind::Dot) {
            return Ok(Step::bare(Axis::SelfAxis, NodeTest::Node));
        }
        if self.eat(&TokenKind::DotDot) {
            return Ok(Step::bare(Axis::Parent, NodeTest::Node));
        }
        let axis = if self.eat(&TokenKind::At) {
            Axis::Attribute
        } else if let Some(&TokenKind::AxisName(name)) = self.peek() {
            self.bump();
            match name {
                "child" => Axis::Child,
                "descendant" => Axis::Descendant,
                "descendant-or-self" => Axis::DescendantOrSelf,
                "self" => Axis::SelfAxis,
                "parent" => Axis::Parent,
                "ancestor" => Axis::Ancestor,
                "ancestor-or-self" => Axis::AncestorOrSelf,
                "attribute" => Axis::Attribute,
                "following" | "following-sibling" | "preceding" | "preceding-sibling" => {
                    return Err(XPathError::Ordered(format!("{name}::")));
                }
                other => {
                    return self.err(format!("unknown axis `{other}::`"));
                }
            }
        } else {
            Axis::Child
        };
        let test = match self.peek() {
            Some(&TokenKind::Name(n)) => {
                self.bump();
                NodeTest::Name(Name::new(n))
            }
            Some(TokenKind::Star) => {
                self.bump();
                NodeTest::Any
            }
            Some(&TokenKind::FunctionName(n @ ("text" | "node"))) => {
                self.bump();
                self.expect(TokenKind::LParen, "`(`")?;
                self.expect(TokenKind::RParen, "`)`")?;
                if n == "text" {
                    NodeTest::Text
                } else {
                    NodeTest::Node
                }
            }
            // At the end of the input the error names the last token.
            None => {
                let at = self.last_offset.unwrap_or(0);
                return Err(XPathError::syntax(at, "expected a node test"));
            }
            _ => return self.err("expected a node test"),
        };
        let mut predicates = Vec::new();
        while self.peek() == Some(&TokenKind::LBracket) {
            predicates.push(self.parse_predicate()?);
        }
        Ok(Step { axis, test, predicates, indexed_id: None })
    }

    fn parse_predicate(&mut self) -> XPathResult<Expr> {
        self.expect(TokenKind::LBracket, "`[`")?;
        // A bare number predicate is positional — order-dependent.
        if let Some(&TokenKind::Number(n)) = self.peek() {
            if self.peek2() == Some(&TokenKind::RBracket) {
                return Err(XPathError::Ordered(format!("positional predicate [{n}]")));
            }
        }
        let e = self.parse_nested()?;
        self.expect(TokenKind::RBracket, "`]`")?;
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) {
        let e1 = parse(s).unwrap_or_else(|err| panic!("parse `{s}`: {err}"));
        let printed = e1.to_string();
        let e2 = parse(&printed)
            .unwrap_or_else(|err| panic!("reparse `{printed}` (from `{s}`): {err}"));
        assert_eq!(e1, e2, "roundtrip mismatch for `{s}` -> `{printed}`");
    }

    #[test]
    fn parses_paper_query() {
        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                 /city[@id='Pittsburgh']\
                 /neighborhood[@id='Oakland' or @id='Shadyside']\
                 /block[@id='1']/parkingSpace[available='yes']";
        let e = parse(q).unwrap();
        let Expr::Path(p) = &e else { panic!("expected path") };
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 7);
        assert_eq!(p.steps[0].predicates[0].as_id_equals(), Some("NE"));
        assert_eq!(p.steps[4].predicates.len(), 1);
        assert!(p.steps[4].predicates[0].as_id_equals().is_none()); // OR of ids
        roundtrip(q);
    }

    #[test]
    fn parses_min_price_query() {
        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                 /city[@id='Pittsburgh']/neighborhood[@id='Oakland']/block[@id='1']\
                 /parkingSpace[not(price > ../parkingSpace/price)]";
        let e = parse(q).unwrap();
        roundtrip(q);
        let Expr::Path(p) = &e else { panic!() };
        let pred = &p.steps.last().unwrap().predicates[0];
        let Expr::Call(name, args) = pred else { panic!("expected not(...)") };
        assert_eq!(name, "not");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn parses_axes_and_abbreviations() {
        roundtrip("//a");
        roundtrip("/a//b");
        roundtrip(".//b");
        roundtrip("../c");
        roundtrip("./@x");
        roundtrip("ancestor::a/b");
        roundtrip("descendant::x[@id='1']");
        roundtrip("self::node()");
        roundtrip("a/text()");
        roundtrip("a/*/b");
    }

    #[test]
    fn slash_alone_is_root() {
        let e = parse("/").unwrap();
        let Expr::Path(p) = &e else { panic!() };
        assert!(p.absolute);
        assert!(p.steps.is_empty());
        roundtrip("/");
    }

    #[test]
    fn parses_expressions() {
        roundtrip("1 + 2 * 3");
        roundtrip("(1 + 2) * 3");
        roundtrip("-x");
        roundtrip("a | b | c");
        roundtrip("a and b or c");
        roundtrip("@price = '0' and available = 'yes'");
        roundtrip("count(./b/c) = 5");
        roundtrip("concat('a', 'b', string(2))");
        roundtrip("10 mod 3 div 2");
        roundtrip("boolean(//city/neighborhood[@id='Oakland'])");
        roundtrip("not(@x) and not(b)");
        roundtrip("2 > 1");
        roundtrip("'lit'");
        roundtrip("$var/a[@id='2']");
    }

    #[test]
    fn filter_expr_with_trailing_path() {
        let e = parse("(a | b)/c").unwrap();
        let Expr::Filter { trailing, .. } = &e else { panic!("expected filter") };
        assert_eq!(trailing.len(), 1);
        roundtrip("(a | b)/c");
        roundtrip("$v//x");
    }

    #[test]
    fn left_associativity_preserved() {
        // 8 - 4 - 2 must stay (8-4)-2 = 2, not 8-(4-2).
        let e = parse("8 - 4 - 2").unwrap();
        let printed = e.to_string();
        let e2 = parse(&printed).unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn ordered_constructs_rejected() {
        assert!(matches!(parse("a[position() = 1]"), Err(XPathError::Ordered(_))));
        assert!(matches!(parse("a[last()]"), Err(XPathError::Ordered(_))));
        assert!(matches!(parse("a[1]"), Err(XPathError::Ordered(_))));
        assert!(matches!(
            parse("following-sibling::a"),
            Err(XPathError::Ordered(_))
        ));
        assert!(matches!(parse("preceding::a"), Err(XPathError::Ordered(_))));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse("").is_err());
        assert!(parse("/a[").is_err());
        assert!(parse("/a]").is_err());
        assert!(parse("f(a,").is_err());
        assert!(parse("a/").is_err());
        assert!(parse("unknown-axis::a").is_err());
        assert!(parse("a b").is_err());
    }

    #[test]
    fn or_inside_predicate() {
        let e = parse("n[@id='a' or @id='b']").unwrap();
        let Expr::Path(p) = &e else { panic!() };
        let Expr::Binary(BinOp::Or, l, r) = &p.steps[0].predicates[0] else {
            panic!("expected or")
        };
        assert_eq!(l.as_id_equals(), Some("a"));
        assert_eq!(r.as_id_equals(), Some("b"));
    }

    #[test]
    fn multiple_predicates_conjunction() {
        let e = parse("parkingSpace[available='yes'][@price='0']").unwrap();
        let Expr::Path(p) = &e else { panic!() };
        assert_eq!(p.steps[0].predicates.len(), 2);
        roundtrip("parkingSpace[available='yes'][@price='0']");
    }

    #[test]
    fn consistency_predicate_shape() {
        roundtrip("block[timestamp > now() - 30]");
    }

    /// Runs `f` on a thread with a `kib` KiB stack.
    fn on_stack<T: Send + 'static>(kib: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(kib * 1024)
            .spawn(f)
            .expect("spawn a parser thread")
            .join()
            .expect("the parser thread overflowed or panicked")
    }

    fn nested(open: &str, core: &str, close: &str, n: usize) -> String {
        format!("{}{core}{}", open.repeat(n), close.repeat(n))
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let deep = 100_000;
        let texts = [
            nested("(", "1", ")", deep),
            nested("a[", "b", "]", deep),
            format!("{}1", "-".repeat(deep)),
            nested("f(", "1", ")", deep),
            vec!["1"; deep].join(" + "),
            vec!["a"; deep].join(" | "),
        ];
        for text in texts {
            let head: String = text.chars().take(12).collect();
            // An eighth of a shard thread's default stack.
            let err = on_stack(256, move || parse(&text)).unwrap_err();
            assert!(
                matches!(&err, XPathError::Syntax { message, .. } if message.contains("nests deeper")),
                "`{head}...`: {err}"
            );
        }
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        // Unoptimized builds take over a megabyte for 128 levels.
        let ok = on_stack(16 * 1024, || {
            [
                nested("(", "1", ")", MAX_NESTING),
                nested("a[", "b", "]", MAX_NESTING),
                format!("{}1", "-".repeat(MAX_NESTING)),
                vec!["1"; MAX_NESTING + 1].join(" + "),
            ]
            .iter()
            .map(|t| parse(t).map(|e| e.to_string() == parse(&e.to_string()).unwrap().to_string()))
            .collect::<Vec<_>>()
        });
        assert!(ok.iter().all(|r| matches!(r, Ok(true))), "{ok:?}");
        assert!(parse(&nested("(", "1", ")", MAX_NESTING + 1)).is_err());
        assert!(parse(&vec!["1"; MAX_NESTING + 2].join(" + ")).is_err());
    }

    #[test]
    fn lex_errors_win_over_syntax_errors() {
        // As if the whole input were tokenized first.
        assert!(matches!(parse("a ! b"), Err(XPathError::Lex { .. })));
        assert!(matches!(parse("/a[ 'x"), Err(XPathError::Lex { .. })));
        assert!(matches!(parse("position() ! 1"), Err(XPathError::Lex { .. })));
        assert!(matches!(parse("a b !"), Err(XPathError::Lex { .. })));
        assert!(matches!(parse("a b"), Err(XPathError::Syntax { offset: 2, .. })));
        // Errors at the end of the input name the last token.
        assert!(matches!(parse("a/"), Err(XPathError::Syntax { offset: 1, .. })));
        assert!(matches!(parse("/a["), Err(XPathError::Syntax { offset: 2, .. })));
    }
}

