//! The XPath evaluator.

use std::collections::HashMap;

use sensorxml::Document;

use crate::ast::{Axis, BinOp, Expr, LocationPath, NodeTest, Step};
use crate::error::{XPathError, XPathResult};
use crate::functions;
use crate::value::{compare, CmpOp, Value, XNode};

/// Variable bindings (`$name`), used by the XSLT layer.
pub type Vars = HashMap<String, Value>;

/// Evaluation context: the document, the context node, variable bindings and
/// the query time exposed through the `now()` extension function.
///
/// The paper's consistency predicates (`[timestamp > now - 30]`, §4) need
/// the time the query was posed; we expose it as the zero-argument function
/// `now()` and thread it through the context so the engine itself stays
/// deterministic and clock-free.
#[derive(Clone)]
pub struct EvalContext<'a> {
    pub doc: &'a Document,
    pub node: XNode,
    pub vars: &'a Vars,
    /// Value returned by `now()`. Defaults to NaN, which makes any
    /// freshness comparison false — i.e. "no tolerance information".
    pub now: f64,
}

impl<'a> EvalContext<'a> {
    /// A context positioned at `node` with no variables.
    pub fn new(doc: &'a Document, node: XNode, vars: &'a Vars) -> Self {
        EvalContext {
            doc,
            node,
            vars,
            now: f64::NAN,
        }
    }

    fn at(&self, node: XNode) -> EvalContext<'a> {
        EvalContext { node, ..self.clone() }
    }
}

/// Evaluates `expr` in `ctx`.
pub fn evaluate(expr: &Expr, ctx: &EvalContext<'_>) -> XPathResult<Value> {
    match expr {
        Expr::Literal(s) => Ok(Value::Str(s.to_string())),
        Expr::Number(n) => Ok(Value::Num(*n)),
        Expr::Var(name) => ctx
            .vars
            .get(name.as_str())
            .cloned()
            .ok_or_else(|| XPathError::UnboundVariable(name.to_string())),
        Expr::Negate(e) => {
            let v = evaluate(e, ctx)?;
            Ok(Value::Num(-v.number(ctx.doc)))
        }
        Expr::Binary(op, l, r) => eval_binary(*op, l, r, ctx),
        Expr::Union(l, r) => {
            let lv = evaluate(l, ctx)?;
            let rv = evaluate(r, ctx)?;
            match (lv, rv) {
                // An empty side contributes nothing; the other side is
                // already sorted and deduplicated, so return it as-is.
                (Value::Nodes(a), Value::Nodes(b)) if a.is_empty() => Ok(Value::Nodes(b)),
                (Value::Nodes(a), Value::Nodes(b)) if b.is_empty() => Ok(Value::Nodes(a)),
                (Value::Nodes(mut a), Value::Nodes(b)) => {
                    a.extend(b);
                    Ok(Value::Nodes(dedup(a)))
                }
                _ => Err(XPathError::Type(
                    "operands of `|` must be node-sets".into(),
                )),
            }
        }
        Expr::Path(path) => eval_path(path, ctx).map(Value::Nodes),
        Expr::Filter {
            primary,
            predicates,
            trailing,
        } => {
            let base = evaluate(primary, ctx)?;
            let Value::Nodes(nodes) = base else {
                return Err(XPathError::Type(
                    "predicates and path steps require a node-set".into(),
                ));
            };
            let mut nodes = nodes;
            for p in predicates {
                nodes = filter_nodes(nodes, p, ctx)?;
            }
            let mut cur = nodes;
            for step in trailing {
                cur = apply_step(&cur, step, ctx)?;
            }
            Ok(Value::Nodes(cur))
        }
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(evaluate(a, ctx)?);
            }
            functions::call(name, vals, ctx)
        }
    }
}

/// Convenience: evaluates `expr` with `node` as the context node and no
/// variable bindings.
pub fn evaluate_at(expr: &Expr, doc: &Document, node: XNode) -> XPathResult<Value> {
    thread_local! {
        static EMPTY: Vars = Vars::new();
    }
    EMPTY.with(|vars| {
        // SAFETY-free workaround for the lifetime: clone an empty map is
        // cheap, but we can simply evaluate inside the closure.
        let ctx = EvalContext::new(doc, node, vars);
        evaluate(expr, &ctx)
    })
}

fn eval_binary(op: BinOp, l: &Expr, r: &Expr, ctx: &EvalContext<'_>) -> XPathResult<Value> {
    match op {
        BinOp::Or => {
            if evaluate(l, ctx)?.boolean() {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(evaluate(r, ctx)?.boolean()))
        }
        BinOp::And => {
            if !evaluate(l, ctx)?.boolean() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(evaluate(r, ctx)?.boolean()))
        }
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let lv = evaluate(l, ctx)?;
            let rv = evaluate(r, ctx)?;
            let cmp = match op {
                BinOp::Eq => CmpOp::Eq,
                BinOp::Ne => CmpOp::Ne,
                BinOp::Lt => CmpOp::Lt,
                BinOp::Le => CmpOp::Le,
                BinOp::Gt => CmpOp::Gt,
                _ => CmpOp::Ge,
            };
            Ok(Value::Bool(compare(cmp, &lv, &rv, ctx.doc)))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            let a = evaluate(l, ctx)?.number(ctx.doc);
            let b = evaluate(r, ctx)?.number(ctx.doc);
            let n = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => a % b,
            };
            Ok(Value::Num(n))
        }
    }
}

/// Evaluates a location path, returning the resulting node-set.
pub fn eval_path(path: &LocationPath, ctx: &EvalContext<'_>) -> XPathResult<Vec<XNode>> {
    let mut cur: Vec<XNode> = if path.absolute {
        vec![XNode::Document]
    } else {
        vec![ctx.node]
    };
    for step in &path.steps {
        cur = apply_step(&cur, step, ctx)?;
    }
    Ok(cur)
}

/// Applies one step to every node of `input`, unioning the results.
pub fn apply_step(
    input: &[XNode],
    step: &Step,
    ctx: &EvalContext<'_>,
) -> XPathResult<Vec<XNode>> {
    if let Some(out) = apply_indexed_step(input, step, ctx)? {
        return Ok(out);
    }
    let mut out: Vec<XNode> = Vec::new();
    for &n in input {
        axis_nodes(ctx.doc, n, step.axis, &step.test, &mut out);
    }
    let out = dedup(out);
    filter_all(out, &step.predicates, ctx)
}

/// Fast path for steps carrying the optimizer's `indexed_id` hint
/// (`child::tag[@id = 'lit']...`): answers the child scan *and* the id
/// predicate from the document's sibling index instead of walking every
/// child and re-evaluating the predicate per node. Returns `None` when the
/// hint is absent or does not match the step's shape (then the caller runs
/// the general path, so a stale hint can cost time but never correctness).
fn apply_indexed_step(
    input: &[XNode],
    step: &Step,
    ctx: &EvalContext<'_>,
) -> XPathResult<Option<Vec<XNode>>> {
    let Some(idval) = step.indexed_id.as_deref() else {
        return Ok(None);
    };
    if step.axis != Axis::Child {
        return Ok(None);
    }
    let NodeTest::Name(tag) = &step.test else {
        return Ok(None);
    };
    // The hint promises the first predicate is exactly `@id = idval`; verify
    // before skipping it, since the AST fields are public.
    if step.predicates.first().and_then(|p| p.as_id_equals()) != Some(idval) {
        return Ok(None);
    }
    let mut out: Vec<XNode> = Vec::new();
    for &n in input {
        match n {
            XNode::Node(id) => {
                out.extend(
                    ctx.doc
                        .children_by_name_id(id, tag, idval)
                        .into_iter()
                        .map(XNode::Node),
                );
            }
            XNode::Document => {
                if let Some(r) = ctx.doc.root() {
                    if ctx.doc.name(r) == tag && ctx.doc.attr(r, "id") == Some(idval) {
                        out.push(XNode::Node(r));
                    }
                }
            }
            XNode::Attr(..) => {}
        }
    }
    let out = dedup(out);
    filter_all(out, &step.predicates[1..], ctx).map(Some)
}

fn filter_all(
    mut nodes: Vec<XNode>,
    predicates: &[Expr],
    ctx: &EvalContext<'_>,
) -> XPathResult<Vec<XNode>> {
    for p in predicates {
        nodes = filter_nodes(nodes, p, ctx)?;
    }
    Ok(nodes)
}

fn filter_nodes(nodes: Vec<XNode>, pred: &Expr, ctx: &EvalContext<'_>) -> XPathResult<Vec<XNode>> {
    let mut out = Vec::with_capacity(nodes.len());
    for n in nodes {
        let v = evaluate(pred, &ctx.at(n))?;
        if let Value::Num(_) = v {
            return Err(XPathError::Ordered(
                "numeric predicate (positional)".into(),
            ));
        }
        if v.boolean() {
            out.push(n);
        }
    }
    Ok(out)
}

fn axis_nodes(doc: &Document, n: XNode, axis: Axis, test: &NodeTest, out: &mut Vec<XNode>) {
    match axis {
        Axis::Child => match n {
            XNode::Node(id) => {
                for &c in doc.children(id) {
                    push_if_match(doc, XNode::Node(c), test, axis, out);
                }
            }
            XNode::Document => {
                if let Some(r) = doc.root() {
                    push_if_match(doc, XNode::Node(r), test, axis, out);
                }
            }
            XNode::Attr(..) => {}
        },
        Axis::Descendant => {
            for d in descendant_ids(doc, n) {
                push_if_match(doc, XNode::Node(d), test, axis, out);
            }
        }
        Axis::DescendantOrSelf => {
            push_if_match(doc, n, test, axis, out);
            for d in descendant_ids(doc, n) {
                push_if_match(doc, XNode::Node(d), test, axis, out);
            }
        }
        Axis::SelfAxis => push_if_match(doc, n, test, axis, out),
        Axis::Parent => {
            if let Some(p) = parent_of(doc, n) {
                push_if_match(doc, p, test, axis, out);
            }
        }
        Axis::Ancestor => {
            let mut cur = parent_of(doc, n);
            while let Some(p) = cur {
                push_if_match(doc, p, test, axis, out);
                cur = parent_of(doc, p);
            }
        }
        Axis::AncestorOrSelf => {
            push_if_match(doc, n, test, axis, out);
            let mut cur = parent_of(doc, n);
            while let Some(p) = cur {
                push_if_match(doc, p, test, axis, out);
                cur = parent_of(doc, p);
            }
        }
        Axis::Attribute => {
            if let XNode::Node(id) = n {
                for (i, a) in doc.attrs(id).iter().enumerate() {
                    let keep = match test {
                        NodeTest::Name(want) => &a.name == want,
                        NodeTest::Any | NodeTest::Node => true,
                        NodeTest::Text => false,
                    };
                    if keep {
                        out.push(XNode::Attr(id, i as u32));
                    }
                }
            }
        }
    }
}

/// Descendant element/text ids of `n` in preorder (empty for attributes).
fn descendant_ids(doc: &Document, n: XNode) -> Vec<sensorxml::NodeId> {
    match n {
        XNode::Node(id) => doc.descendants(id).collect(),
        XNode::Document => match doc.root() {
            Some(r) => std::iter::once(r).chain(doc.descendants(r)).collect(),
            None => Vec::new(),
        },
        XNode::Attr(..) => Vec::new(),
    }
}

fn parent_of(doc: &Document, n: XNode) -> Option<XNode> {
    match n {
        XNode::Node(id) => match doc.parent(id) {
            Some(p) => Some(XNode::Node(p)),
            // The root element's parent is the document node; a *detached*
            // node has no parent at all.
            None if doc.root() == Some(id) => Some(XNode::Document),
            None => None,
        },
        XNode::Attr(id, _) => Some(XNode::Node(id)),
        XNode::Document => None,
    }
}

fn push_if_match(doc: &Document, n: XNode, test: &NodeTest, axis: Axis, out: &mut Vec<XNode>) {
    if node_test_matches(doc, n, test, axis) {
        out.push(n);
    }
}

fn node_test_matches(doc: &Document, n: XNode, test: &NodeTest, axis: Axis) -> bool {
    match n {
        XNode::Document => matches!(test, NodeTest::Node),
        XNode::Attr(..) => {
            // Attribute nodes only appear on the attribute axis (handled
            // separately) and on self/ancestor-ish axes, where only
            // `node()` matches.
            matches!(test, NodeTest::Node) && !matches!(axis, Axis::Attribute)
        }
        XNode::Node(id) => match test {
            NodeTest::Name(want) => doc.is_element(id) && doc.name(id) == want,
            NodeTest::Any => doc.is_element(id),
            NodeTest::Text => doc.is_text(id),
            NodeTest::Node => true,
        },
    }
}

fn dedup(mut ns: Vec<XNode>) -> Vec<XNode> {
    // Sets of 0 or 1 nodes are trivially sorted and unique; skip the sort.
    // This is the common case for id-pinned steps, which produce one node
    // per input node.
    if ns.len() <= 1 {
        return ns;
    }
    ns.sort_unstable();
    ns.dedup();
    ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use sensorxml::parse as parse_xml;

    fn doc() -> Document {
        parse_xml(
            r#"<usRegion id="NE">
  <state id="PA">
    <county id="Allegheny">
      <city id="Pittsburgh">
        <neighborhood id="Oakland" zipcode="15213">
          <available-spaces>8</available-spaces>
          <block id="1">
            <parkingSpace id="1"><available>yes</available><price>25</price></parkingSpace>
            <parkingSpace id="2"><available>no</available><price>0</price></parkingSpace>
            <parkingSpace id="3"><available>yes</available><price>0</price></parkingSpace>
          </block>
          <block id="2">
            <parkingSpace id="1"><available>yes</available><price>50</price></parkingSpace>
          </block>
        </neighborhood>
        <neighborhood id="Shadyside">
          <block id="1">
            <parkingSpace id="1"><available>no</available><price>25</price></parkingSpace>
          </block>
        </neighborhood>
      </city>
    </county>
  </state>
</usRegion>"#,
        )
        .unwrap()
    }

    fn eval(d: &Document, q: &str) -> Value {
        let e = parse(q).unwrap();
        evaluate_at(&e, d, XNode::Node(d.root().unwrap())).unwrap()
    }

    fn count_of(d: &Document, q: &str) -> usize {
        match eval(d, q) {
            Value::Nodes(ns) => ns.len(),
            v => panic!("expected node-set, got {v:?}"),
        }
    }

    #[test]
    fn absolute_paths() {
        let d = doc();
        assert_eq!(count_of(&d, "/usRegion"), 1);
        assert_eq!(count_of(&d, "/usRegion[@id='NE']"), 1);
        assert_eq!(count_of(&d, "/usRegion[@id='SW']"), 0);
        assert_eq!(count_of(&d, "/wrong"), 0);
        assert_eq!(
            count_of(&d, "/usRegion/state/county/city/neighborhood"),
            2
        );
    }

    #[test]
    fn paper_query_returns_available_spaces() {
        let d = doc();
        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                 /city[@id='Pittsburgh']\
                 /neighborhood[@id='Oakland' or @id='Shadyside']\
                 /block[@id='1']/parkingSpace[available='yes']";
        assert_eq!(count_of(&d, q), 2); // Oakland block 1 spaces 1 and 3
    }

    #[test]
    fn min_price_query_via_not() {
        let d = doc();
        let q = "/usRegion/state/county/city/neighborhood[@id='Oakland']/block[@id='1']\
                 /parkingSpace[not(price > ../parkingSpace/price)]";
        // Cheapest spaces in block 1 are the two with price 0.
        assert_eq!(count_of(&d, q), 2);
    }

    #[test]
    fn descendant_axis() {
        let d = doc();
        assert_eq!(count_of(&d, "//parkingSpace"), 5);
        assert_eq!(count_of(&d, "//block[@id='1']"), 2);
        assert_eq!(count_of(&d, "//parkingSpace[available='yes']"), 3);
        assert_eq!(count_of(&d, "/usRegion//price"), 5);
        assert_eq!(count_of(&d, "//usRegion"), 1); // root itself in sweep
    }

    #[test]
    fn attribute_selection() {
        let d = doc();
        let v = eval(&d, "//neighborhood[@id='Oakland']/@zipcode");
        assert_eq!(v.string(&d), "15213");
        assert_eq!(count_of(&d, "//block/@id"), 3);
        assert_eq!(count_of(&d, "//block/@*"), 3);
    }

    #[test]
    fn parent_and_ancestor() {
        let d = doc();
        assert_eq!(count_of(&d, "//parkingSpace/../.."), 2); // both neighborhoods
        assert_eq!(count_of(&d, "//price/ancestor::block"), 3);
        assert_eq!(count_of(&d, "//price/ancestor-or-self::price"), 5);
    }

    #[test]
    fn text_nodes() {
        let d = doc();
        assert_eq!(count_of(&d, "//available/text()"), 5);
        let v = eval(&d, "//neighborhood[@id='Oakland']/available-spaces/text()");
        assert_eq!(v.string(&d), "8");
    }

    #[test]
    fn arithmetic_and_comparison() {
        let d = doc();
        assert_eq!(eval(&d, "1 + 2 * 3"), Value::Num(7.0));
        assert_eq!(eval(&d, "(1 + 2) * 3"), Value::Num(9.0));
        assert_eq!(eval(&d, "10 div 4"), Value::Num(2.5));
        assert_eq!(eval(&d, "10 mod 3"), Value::Num(1.0));
        assert_eq!(eval(&d, "-(5)"), Value::Num(-5.0));
        assert_eq!(eval(&d, "2 > 1"), Value::Bool(true));
        assert_eq!(eval(&d, "2 > 1 and 1 > 2"), Value::Bool(false));
        assert_eq!(eval(&d, "2 > 1 or 1 > 2"), Value::Bool(true));
    }

    #[test]
    fn numeric_predicates_on_attributes() {
        let d = doc();
        assert_eq!(count_of(&d, "//parkingSpace[price = 0]"), 2);
        assert_eq!(count_of(&d, "//parkingSpace[price > 20]"), 3);
        assert_eq!(
            count_of(&d, "//neighborhood[available-spaces > 0]"),
            1
        );
    }

    #[test]
    fn union_of_paths() {
        let d = doc();
        assert_eq!(
            count_of(&d, "//neighborhood[@id='Oakland'] | //neighborhood[@id='Shadyside']"),
            2
        );
        // Overlap deduplicates.
        assert_eq!(count_of(&d, "//block | //block[@id='1']"), 3);
    }

    #[test]
    fn union_type_error() {
        let d = doc();
        let e = parse("1 | 2").unwrap();
        assert!(matches!(
            evaluate_at(&e, &d, XNode::Node(d.root().unwrap())),
            Err(XPathError::Type(_))
        ));
    }

    #[test]
    fn variables() {
        let d = doc();
        let mut vars = Vars::new();
        vars.insert("want".into(), Value::Str("Oakland".into()));
        let e = parse("//neighborhood[@id = $want]").unwrap();
        let ctx = EvalContext::new(&d, XNode::Node(d.root().unwrap()), &vars);
        let v = evaluate(&e, &ctx).unwrap();
        assert_eq!(v.as_nodes().unwrap().len(), 1);
        // Unbound variable errors.
        let e2 = parse("$missing").unwrap();
        assert!(matches!(
            evaluate(&e2, &ctx),
            Err(XPathError::UnboundVariable(_))
        ));
    }

    #[test]
    fn relative_path_from_context_node() {
        let d = doc();
        let root = d.root().unwrap();
        let state = d.child_by_name_id(root, "state", "PA").unwrap();
        let e = parse("county/city").unwrap();
        let v = evaluate_at(&e, &d, XNode::Node(state)).unwrap();
        assert_eq!(v.as_nodes().unwrap().len(), 1);
    }

    #[test]
    fn wildcard_steps() {
        let d = doc();
        assert_eq!(count_of(&d, "/usRegion/*"), 1);
        assert_eq!(count_of(&d, "//neighborhood/*"), 4); // 3 blocks + available-spaces
        assert_eq!(count_of(&d, "//city/*/block"), 3);
    }

    #[test]
    fn filter_expr_with_trailing() {
        let d = doc();
        assert_eq!(
            count_of(&d, "(//block[@id='1'] | //block[@id='2'])/parkingSpace"),
            5
        );
    }

    #[test]
    fn empty_document_yields_empty_sets() {
        let d = Document::new();
        let e = parse("/a/b").unwrap();
        let vars = Vars::new();
        // No root: context node is irrelevant; fabricate via a fresh doc.
        let (d2, r2) = Document::with_root("x");
        let ctx = EvalContext::new(&d, XNode::Node(r2), &vars);
        let _ = d2;
        let v = evaluate(&e, &ctx).unwrap();
        assert_eq!(v, Value::Nodes(vec![]));
    }
}
