//! XPath 1.0 values and the type conversion / comparison rules.

use std::borrow::Cow;

use sensorxml::{Document, NodeId};

/// A node reference inside a node-set: either a tree node (element or text)
/// or an attribute of an element (attributes are not arena nodes, so they
/// are addressed as `(owner element, attribute index)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum XNode {
    /// The document node — the invisible parent of the root element.
    /// Absolute paths start here, so that `/usRegion` (a child step) and
    /// `//usRegion` (a descendant sweep) both reach the root element with
    /// standard axis semantics.
    Document,
    /// An element or text node.
    Node(NodeId),
    /// The `idx`-th attribute of element `NodeId`.
    Attr(NodeId, u32),
}

impl XNode {
    /// The XPath string-value of the node.
    pub fn string_value(&self, doc: &Document) -> String {
        self.string_value_cow(doc).into_owned()
    }

    /// The string-value without allocating in the common cases: attribute
    /// values and leaf elements with zero or one text child borrow from the
    /// document (via [`Document::text_content_fast`]); only mixed-content
    /// concatenation allocates. Comparison predicates — the hot path of
    /// every query — go through this.
    pub fn string_value_cow<'d>(&self, doc: &'d Document) -> Cow<'d, str> {
        let node = match *self {
            XNode::Document => match doc.root() {
                Some(r) => r,
                None => return Cow::Borrowed(""),
            },
            XNode::Node(id) => id,
            XNode::Attr(id, idx) => {
                return doc
                    .attrs(id)
                    .get(idx as usize)
                    .map(|a| Cow::Borrowed(a.value.as_str()))
                    .unwrap_or_default();
            }
        };
        match doc.text_content_fast(node) {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(doc.text_content(node)),
        }
    }

    /// The node's name: tag for elements, attribute name for attributes,
    /// empty for text and the document node.
    pub fn node_name<'d>(&self, doc: &'d Document) -> &'d str {
        match *self {
            XNode::Document => "",
            XNode::Node(id) => doc.name(id),
            XNode::Attr(id, idx) => doc
                .attrs(id)
                .get(idx as usize)
                .map(|a| a.name.as_str())
                .unwrap_or(""),
        }
    }
}

/// An XPath 1.0 value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A set of nodes (kept sorted + deduplicated; order is arbitrary but
    /// deterministic under the unordered document model).
    Nodes(Vec<XNode>),
    Bool(bool),
    Num(f64),
    Str(String),
}

impl Value {
    /// An empty node-set.
    pub fn empty() -> Value {
        Value::Nodes(Vec::new())
    }

    /// boolean() conversion (XPath 1.0 §4.3).
    pub fn boolean(&self) -> bool {
        match self {
            Value::Nodes(ns) => !ns.is_empty(),
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// number() conversion (XPath 1.0 §4.4).
    pub fn number(&self, doc: &Document) -> f64 {
        match self {
            Value::Nodes(_) => string_to_number(&self.string(doc)),
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Num(n) => *n,
            Value::Str(s) => string_to_number(s),
        }
    }

    /// string() conversion (XPath 1.0 §4.2). A node-set converts to the
    /// string-value of its first node (empty string if empty).
    pub fn string(&self, doc: &Document) -> String {
        match self {
            Value::Nodes(ns) => ns
                .first()
                .map(|n| n.string_value(doc))
                .unwrap_or_default(),
            Value::Bool(b) => if *b { "true" } else { "false" }.to_string(),
            Value::Num(n) => number_to_string(*n),
            Value::Str(s) => s.clone(),
        }
    }

    /// The node-set, if this value is one.
    pub fn as_nodes(&self) -> Option<&[XNode]> {
        match self {
            Value::Nodes(ns) => Some(ns),
            _ => None,
        }
    }
}

/// XPath number → string (XPath 1.0 §4.2): integers print without a decimal
/// point, NaN prints `NaN`, infinities print `Infinity`/`-Infinity`.
pub fn number_to_string(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// XPath string → number: leading/trailing whitespace allowed, otherwise any
/// failure yields NaN.
pub fn string_to_number(s: &str) -> f64 {
    let t = s.trim();
    if t.is_empty() {
        return f64::NAN;
    }
    t.parse::<f64>().unwrap_or(f64::NAN)
}

/// Comparison operators used by [`compare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn num(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    fn str(self, a: &str, b: &str) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            // Relational comparisons always go through numbers in XPath 1.0.
            _ => self.num(string_to_number(a), string_to_number(b)),
        }
    }

    fn is_equality(self) -> bool {
        matches!(self, CmpOp::Eq | CmpOp::Ne)
    }
}

/// Implements the XPath 1.0 comparison semantics (§3.4), including the
/// existential semantics of node-set comparisons.
pub fn compare(op: CmpOp, a: &Value, b: &Value, doc: &Document) -> bool {
    use Value::*;
    match (a, b) {
        (Nodes(na), Nodes(nb)) => na.iter().any(|x| {
            let sx = x.string_value_cow(doc);
            nb.iter().any(|y| op.str(&sx, &y.string_value_cow(doc)))
        }),
        (Nodes(ns), Num(n)) => ns
            .iter()
            .any(|x| op.num(string_to_number(&x.string_value_cow(doc)), *n)),
        (Num(n), Nodes(ns)) => ns
            .iter()
            .any(|x| op.num(*n, string_to_number(&x.string_value_cow(doc)))),
        (Nodes(ns), Str(s)) => ns.iter().any(|x| op.str(&x.string_value_cow(doc), s)),
        (Str(s), Nodes(ns)) => ns.iter().any(|x| op.str(s, &x.string_value_cow(doc))),
        (Nodes(_), Bool(bv)) => op_bool(op, a.boolean(), *bv, doc, a, b),
        (Bool(bv), Nodes(_)) => op_bool(op, *bv, b.boolean(), doc, a, b),
        _ => {
            if op.is_equality() {
                if matches!(a, Bool(_)) || matches!(b, Bool(_)) {
                    op.num(a.boolean() as i8 as f64, b.boolean() as i8 as f64)
                } else if matches!(a, Num(_)) || matches!(b, Num(_)) {
                    op.num(a.number(doc), b.number(doc))
                } else {
                    op.str(&a.string(doc), &b.string(doc))
                }
            } else {
                op.num(a.number(doc), b.number(doc))
            }
        }
    }
}

fn op_bool(op: CmpOp, a: bool, b: bool, doc: &Document, va: &Value, vb: &Value) -> bool {
    if op.is_equality() {
        op.num(a as i8 as f64, b as i8 as f64)
    } else {
        op.num(va.number(doc), vb.number(doc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorxml::parse;

    #[test]
    fn boolean_conversions() {
        let doc = parse("<a/>").unwrap();
        assert!(!Value::empty().boolean());
        assert!(Value::Nodes(vec![XNode::Node(doc.root().unwrap())]).boolean());
        assert!(!Value::Num(0.0).boolean());
        assert!(!Value::Num(f64::NAN).boolean());
        assert!(Value::Num(-1.5).boolean());
        assert!(!Value::Str(String::new()).boolean());
        assert!(Value::Str("x".into()).boolean());
    }

    #[test]
    fn number_to_string_shapes() {
        assert_eq!(number_to_string(5.0), "5");
        assert_eq!(number_to_string(-3.0), "-3");
        assert_eq!(number_to_string(1.5), "1.5");
        assert_eq!(number_to_string(f64::NAN), "NaN");
        assert_eq!(number_to_string(f64::INFINITY), "Infinity");
        assert_eq!(number_to_string(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(number_to_string(0.0), "0");
    }

    #[test]
    fn string_to_number_rules() {
        assert_eq!(string_to_number(" 42 "), 42.0);
        assert_eq!(string_to_number("-1.5"), -1.5);
        assert!(string_to_number("abc").is_nan());
        assert!(string_to_number("").is_nan());
    }

    #[test]
    fn string_value_of_nodes() {
        let doc = parse("<a p='v'><b>hi</b></a>").unwrap();
        let root = doc.root().unwrap();
        assert_eq!(XNode::Node(root).string_value(&doc), "hi");
        assert_eq!(XNode::Attr(root, 0).string_value(&doc), "v");
        assert_eq!(XNode::Attr(root, 0).node_name(&doc), "p");
    }

    #[test]
    fn nodeset_string_is_first_node() {
        let doc = parse("<a><b>one</b><b>two</b></a>").unwrap();
        let root = doc.root().unwrap();
        let kids: Vec<XNode> = doc.children(root).iter().map(|&c| XNode::Node(c)).collect();
        assert_eq!(Value::Nodes(kids).string(&doc), "one");
    }

    #[test]
    fn existential_nodeset_comparison() {
        let doc = parse("<a><p>10</p><p>25</p></a>").unwrap();
        let root = doc.root().unwrap();
        let ns: Vec<XNode> = doc.children(root).iter().map(|&c| XNode::Node(c)).collect();
        let v = Value::Nodes(ns);
        // Exists a p equal to 25.
        assert!(compare(CmpOp::Eq, &v, &Value::Num(25.0), &doc));
        // Exists a p less than 11.
        assert!(compare(CmpOp::Lt, &v, &Value::Num(11.0), &doc));
        // No p greater than 30.
        assert!(!compare(CmpOp::Gt, &v, &Value::Num(30.0), &doc));
        // String comparison.
        assert!(compare(CmpOp::Eq, &v, &Value::Str("10".into()), &doc));
        assert!(!compare(CmpOp::Eq, &v, &Value::Str("11".into()), &doc));
    }

    #[test]
    fn nodeset_vs_bool_uses_effective_boolean() {
        let doc = parse("<a><p>x</p></a>").unwrap();
        let root = doc.root().unwrap();
        let ns: Vec<XNode> = doc.children(root).iter().map(|&c| XNode::Node(c)).collect();
        assert!(compare(CmpOp::Eq, &Value::Nodes(ns), &Value::Bool(true), &doc));
        assert!(compare(CmpOp::Eq, &Value::empty(), &Value::Bool(false), &doc));
    }

    #[test]
    fn mixed_scalar_comparisons() {
        let doc = Document::new();
        // bool vs number: through booleans for equality.
        assert!(compare(CmpOp::Eq, &Value::Bool(true), &Value::Num(5.0), &doc));
        // string vs number equality goes through numbers.
        assert!(compare(CmpOp::Eq, &Value::Str("5".into()), &Value::Num(5.0), &doc));
        // relational always numeric.
        assert!(compare(CmpOp::Lt, &Value::Str("4".into()), &Value::Str("10".into()), &doc));
        // NaN compares false with everything.
        assert!(!compare(CmpOp::Le, &Value::Str("x".into()), &Value::Num(1.0), &doc));
    }
}
