//! The XPath abstract syntax tree.
//!
//! `Display` implementations regenerate parseable XPath text; the
//! distributed query layer uses this to print subqueries shipped to other
//! sites, so `parse(expr.to_string())` must round-trip (checked by property
//! tests in the parser module).
//!
//! Subexpressions are reference-counted (`Arc<Expr>`) and names are inline
//! [`Name`]s, so a clone shares the subexpressions below an operator
//! instead of copying them: a query plan and its predicate splits share
//! the parsed tree.

use std::fmt;
use std::sync::Arc;

pub use crate::name::Name;

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    /// Precedence level (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }

    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "div",
            BinOp::Mod => "mod",
        }
    }
}

/// Axes of the unordered fragment. The ordered axes
/// (`following-sibling::` etc.) are rejected at parse time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    SelfAxis,
    Parent,
    Ancestor,
    AncestorOrSelf,
    Attribute,
}

impl Axis {
    /// The axis name as written in the verbose syntax.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::SelfAxis => "self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Attribute => "attribute",
        }
    }
}

/// Node tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// A name test (`block`, or attribute name after `@`).
    Name(Name),
    /// The `*` wildcard.
    Any,
    /// `text()`
    Text,
    /// `node()`
    Node,
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Name(n) => write!(f, "{n}"),
            NodeTest::Any => write!(f, "*"),
            NodeTest::Text => write!(f, "text()"),
            NodeTest::Node => write!(f, "node()"),
        }
    }
}

/// One location step: axis, node test, and a (possibly empty) list of
/// predicates forming a conjunction.
#[derive(Debug, Clone)]
pub struct Step {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<Expr>,
    /// Evaluator hint: set iff this is a `child::name` step whose *first*
    /// predicate is exactly `@id = <this literal>`, which lets the
    /// evaluator answer the step from the document's sibling index instead
    /// of scanning every child and re-testing the predicate. Purely an
    /// execution hint — it never changes semantics, is invisible to
    /// `Display` (the predicate list still prints in full, so shipped
    /// subqueries round-trip), and is ignored by `PartialEq`. Set by the
    /// optimizer and by the id-path constructors; recompute with
    /// [`Step::compute_indexed_id`] after editing `predicates`.
    pub indexed_id: Option<Name>,
}

/// Equality ignores the `indexed_id` execution hint: an optimized step and
/// its unoptimized (or reparsed) twin compare equal.
impl PartialEq for Step {
    fn eq(&self, other: &Self) -> bool {
        self.axis == other.axis
            && self.test == other.test
            && self.predicates == other.predicates
    }
}

impl Step {
    /// An `axis::test` step with no predicates.
    pub fn bare(axis: Axis, test: NodeTest) -> Self {
        Step { axis, test, predicates: Vec::new(), indexed_id: None }
    }

    /// The `descendant-or-self::node()` step that encodes `//`.
    pub fn descendant_or_self() -> Self {
        Step::bare(Axis::DescendantOrSelf, NodeTest::Node)
    }

    /// A plain `child::name` step with no predicates.
    pub fn child(name: impl Into<Name>) -> Self {
        Step {
            axis: Axis::Child,
            test: NodeTest::Name(name.into()),
            predicates: Vec::new(),
            indexed_id: None,
        }
    }

    /// A `child::name[@id='id']` step, pre-marked for indexed evaluation.
    pub fn child_with_id(name: impl Into<Name>, id: impl Into<Name>) -> Self {
        let id = id.into();
        Step {
            axis: Axis::Child,
            test: NodeTest::Name(name.into()),
            predicates: vec![Expr::id_equals(id.clone())],
            indexed_id: Some(id),
        }
    }

    /// The `indexed_id` hint this step's shape supports: `Some(literal)`
    /// iff the axis is `child`, the test is a name test, and the first
    /// predicate is exactly `@id = 'literal'`.
    pub fn compute_indexed_id(&self) -> Option<Name> {
        if self.axis != Axis::Child || !matches!(self.test, NodeTest::Name(_)) {
            return None;
        }
        self.predicates.first().and_then(Expr::id_equals_literal).cloned()
    }

    /// True for the `descendant-or-self::node()` step that encodes `//`.
    pub fn is_abbrev_descendant(&self) -> bool {
        self.axis == Axis::DescendantOrSelf
            && self.test == NodeTest::Node
            && self.predicates.is_empty()
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.axis, &self.test, self.predicates.is_empty()) {
            (Axis::SelfAxis, NodeTest::Node, true) => return write!(f, "."),
            (Axis::Parent, NodeTest::Node, true) => return write!(f, ".."),
            _ => {}
        }
        match self.axis {
            Axis::Child => write!(f, "{}", self.test)?,
            Axis::Attribute => write!(f, "@{}", self.test)?,
            axis => write!(f, "{}::{}", axis.name(), self.test)?,
        }
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

/// A location path: optionally absolute, then a sequence of steps.
/// `//` is represented by an interior `descendant-or-self::node()` step.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationPath {
    pub absolute: bool,
    pub steps: Vec<Step>,
}

impl LocationPath {
    /// Builds an absolute path of id-pinned child steps — the shape of the
    /// paper's root-to-node ID paths.
    pub fn absolute_id_path<'a>(segments: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        LocationPath {
            absolute: true,
            steps: segments
                .into_iter()
                .map(|(name, id)| Step::child_with_id(name, id))
                .collect(),
        }
    }
}

impl fmt::Display for LocationPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.absolute && self.steps.is_empty() {
            return write!(f, "/");
        }
        let mut first = true;
        let mut pending_descendant = false;
        for step in &self.steps {
            if step.is_abbrev_descendant() {
                pending_descendant = true;
                continue;
            }
            if first {
                if self.absolute {
                    write!(f, "/")?;
                }
                if pending_descendant {
                    write!(f, "/")?;
                }
            } else {
                write!(f, "/")?;
                if pending_descendant {
                    write!(f, "/")?;
                }
            }
            pending_descendant = false;
            write!(f, "{step}")?;
            first = false;
        }
        if pending_descendant {
            // A trailing `//` cannot arise from the parser; print the
            // verbose form to stay parseable.
            if !first || self.absolute {
                write!(f, "/")?;
            }
            write!(f, "descendant-or-self::node()")?;
        }
        Ok(())
    }
}

/// An XPath expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Binary operation.
    Binary(BinOp, Arc<Expr>, Arc<Expr>),
    /// Unary minus.
    Negate(Arc<Expr>),
    /// Node-set union `a | b`.
    Union(Arc<Expr>, Arc<Expr>),
    /// A location path.
    Path(LocationPath),
    /// A filter expression: a primary expression with predicates and an
    /// optional trailing relative path, e.g. `$v[...]/a/b` or `(...)/c`.
    Filter {
        primary: Arc<Expr>,
        predicates: Vec<Expr>,
        /// Steps applied to the filtered node-set (empty if none).
        trailing: Vec<Step>,
    },
    /// String literal.
    Literal(Name),
    /// Numeric literal.
    Number(f64),
    /// Function call.
    Call(Name, Vec<Expr>),
    /// Variable reference `$name`.
    Var(Name),
}

impl Expr {
    /// Builds the ubiquitous `@id='value'` predicate.
    pub fn id_equals(id: impl Into<Name>) -> Expr {
        Expr::Binary(
            BinOp::Eq,
            Arc::new(Expr::Path(LocationPath {
                absolute: false,
                steps: vec![Step {
                    axis: Axis::Attribute,
                    test: NodeTest::Name("id".into()),
                    predicates: Vec::new(),
                    indexed_id: None,
                }],
            })),
            Arc::new(Expr::Literal(id.into())),
        )
    }

    /// If this expression is exactly `@id = 'literal'` (either operand
    /// order), returns the literal.
    pub fn as_id_equals(&self) -> Option<&str> {
        self.id_equals_literal().map(Name::as_str)
    }

    /// [`Expr::as_id_equals`], returning the literal's [`Name`].
    pub fn id_equals_literal(&self) -> Option<&Name> {
        let Expr::Binary(BinOp::Eq, l, r) = self else {
            return None;
        };
        let is_id_attr = |e: &Expr| {
            matches!(e, Expr::Path(LocationPath { absolute: false, steps })
                if steps.len() == 1
                    && steps[0].axis == Axis::Attribute
                    && matches!(&steps[0].test, NodeTest::Name(n) if n == "id")
                    && steps[0].predicates.is_empty())
        };
        match (&**l, &**r) {
            (e, Expr::Literal(v)) if is_id_attr(e) => Some(v),
            (Expr::Literal(v), e) if is_id_attr(e) => Some(v),
            _ => None,
        }
    }

    /// Conjunction of a list of predicates (`true()` for an empty list).
    pub fn conjunction(mut preds: Vec<Expr>) -> Expr {
        match preds.len() {
            0 => Expr::Call("true".into(), Vec::new()),
            1 => preds.pop().expect("len checked"),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, |acc, p| {
                    Expr::Binary(BinOp::And, Arc::new(acc), Arc::new(p))
                })
            }
        }
    }

    fn precedence(&self) -> u8 {
        match self {
            Expr::Binary(op, ..) => op.precedence(),
            Expr::Negate(_) => 7,
            Expr::Union(..) => 8,
            _ => 9,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Binary(op, l, r) => {
                let p = op.precedence();
                write_paren(f, l, l.precedence() < p)?;
                write!(f, " {} ", op.symbol())?;
                // Right operand needs parens at equal precedence to keep
                // left-associativity on reparse.
                write_paren(f, r, r.precedence() <= p)
            }
            Expr::Negate(e) => {
                write!(f, "-")?;
                write_paren(f, e, e.precedence() < 7)
            }
            Expr::Union(l, r) => {
                write_paren(f, l, l.precedence() < 8)?;
                write!(f, " | ")?;
                write_paren(f, r, r.precedence() <= 8)
            }
            Expr::Path(p) => write!(f, "{p}"),
            Expr::Filter { primary, predicates, trailing } => {
                let needs = !matches!(
                    **primary,
                    Expr::Call(..) | Expr::Literal(_) | Expr::Number(_) | Expr::Var(_)
                );
                write_paren(f, primary, needs)?;
                for p in predicates {
                    write!(f, "[{p}]")?;
                }
                let mut pending_descendant = false;
                for s in trailing {
                    if s.is_abbrev_descendant() {
                        pending_descendant = true;
                        continue;
                    }
                    write!(f, "/")?;
                    if pending_descendant {
                        write!(f, "/")?;
                        pending_descendant = false;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
            Expr::Literal(s) => {
                if s.contains('\'') {
                    write!(f, "\"{s}\"")
                } else {
                    write!(f, "'{s}'")
                }
            }
            Expr::Number(n) => write!(f, "{}", crate::value::number_to_string(*n)),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Var(name) => write!(f, "${name}"),
        }
    }
}

fn write_paren(f: &mut fmt::Formatter<'_>, e: &Expr, parens: bool) -> fmt::Result {
    if parens {
        write!(f, "({e})")
    } else {
        write!(f, "{e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_id_path() {
        let p = LocationPath::absolute_id_path([("usRegion", "NE"), ("state", "PA")]);
        assert_eq!(p.to_string(), "/usRegion[@id = 'NE']/state[@id = 'PA']");
    }

    #[test]
    fn as_id_equals_both_orders() {
        let e = Expr::id_equals("Oakland");
        assert_eq!(e.as_id_equals(), Some("Oakland"));
        let Expr::Binary(op, l, r) = e else { panic!() };
        let flipped = Expr::Binary(op, r, l);
        assert_eq!(flipped.as_id_equals(), Some("Oakland"));
    }

    #[test]
    fn as_id_equals_rejects_other_attrs() {
        let e = Expr::Binary(
            BinOp::Eq,
            Arc::new(Expr::Path(LocationPath {
                absolute: false,
                steps: vec![Step {
                    axis: Axis::Attribute,
                    test: NodeTest::Name("price".into()),
                    predicates: vec![],
                    indexed_id: None,
                }],
            })),
            Arc::new(Expr::Literal("0".into())),
        );
        assert_eq!(e.as_id_equals(), None);
    }

    #[test]
    fn conjunction_shapes() {
        assert_eq!(Expr::conjunction(vec![]).to_string(), "true()");
        assert_eq!(
            Expr::conjunction(vec![Expr::id_equals("a")]).to_string(),
            "@id = 'a'"
        );
        assert_eq!(
            Expr::conjunction(vec![Expr::id_equals("a"), Expr::id_equals("b")]).to_string(),
            "@id = 'a' and @id = 'b'"
        );
    }

    #[test]
    fn display_literal_with_apostrophe_uses_double_quotes() {
        assert_eq!(Expr::Literal("o'hara".into()).to_string(), "\"o'hara\"");
    }

    #[test]
    fn display_special_steps() {
        let dot = Step {
            axis: Axis::SelfAxis,
            test: NodeTest::Node,
            predicates: vec![],
            indexed_id: None,
        };
        let dotdot = Step {
            axis: Axis::Parent,
            test: NodeTest::Node,
            predicates: vec![],
            indexed_id: None,
        };
        assert_eq!(dot.to_string(), ".");
        assert_eq!(dotdot.to_string(), "..");
    }
}
