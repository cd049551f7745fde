//! Static expression optimization.
//!
//! Two transformations that matter for QEG programs (which evaluate the
//! same predicates against thousands of nodes):
//!
//! * **constant folding** — arithmetic/boolean/comparison subexpressions
//!   with no data references collapse to literals (`2 * 30` → `60`,
//!   `true() and @x = '1'` → `@x = '1'`);
//! * **predicate reordering** — within a step's predicate list, cheap
//!   id-attribute tests run before arbitrary predicates, so non-matching
//!   siblings are rejected before any subtree-touching work.
//!
//! Semantics note: reordering is sound because the unordered fragment has
//! no positional predicates (rejected at parse time) and predicate
//! evaluation here is side-effect-free.

use std::sync::Arc;

use crate::ast::{Axis, BinOp, Expr, LocationPath, Name, NodeTest, Step};
use crate::value::number_to_string;

/// Optimizes an expression tree (see module docs). Subtrees the
/// optimization leaves as they are are shared with `expr`, not copied.
pub fn optimize(expr: &Expr) -> Expr {
    fold(expr).unwrap_or_else(|| expr.clone())
}

/// The optimized form of `e`, or `None` when optimizing changes nothing.
fn fold(e: &Expr) -> Option<Expr> {
    match e {
        Expr::Binary(op, l, r) => {
            let (fl, fr) = (fold_arc(l), fold_arc(r));
            let changed = fl.is_some() || fr.is_some();
            let l = fl.unwrap_or_else(|| Arc::clone(l));
            let r = fr.unwrap_or_else(|| Arc::clone(r));
            fold_binary(*op, &l, &r).or_else(|| changed.then_some(Expr::Binary(*op, l, r)))
        }
        Expr::Negate(inner) => {
            let folded = fold_arc(inner);
            let changed = folded.is_some();
            let inner = folded.unwrap_or_else(|| Arc::clone(inner));
            if let Some(n) = as_const_num(&inner) {
                Some(Expr::Number(-n))
            } else {
                changed.then_some(Expr::Negate(inner))
            }
        }
        Expr::Union(l, r) => {
            let (fl, fr) = (fold_arc(l), fold_arc(r));
            if fl.is_none() && fr.is_none() {
                return None;
            }
            Some(Expr::Union(
                fl.unwrap_or_else(|| Arc::clone(l)),
                fr.unwrap_or_else(|| Arc::clone(r)),
            ))
        }
        Expr::Path(p) => fold_path(p).map(Expr::Path),
        Expr::Filter { primary, predicates, trailing } => {
            let fp = fold_arc(primary);
            let fpreds = fold_list(predicates, fold);
            let ftrail = fold_list(trailing, fold_step);
            if fp.is_none() && fpreds.is_none() && ftrail.is_none() {
                return None;
            }
            Some(Expr::Filter {
                primary: fp.unwrap_or_else(|| Arc::clone(primary)),
                predicates: fpreds.unwrap_or_else(|| predicates.clone()),
                trailing: ftrail.unwrap_or_else(|| trailing.clone()),
            })
        }
        Expr::Call(name, args) => {
            let folded = fold_list(args, fold);
            let folded_call = fold_call(name, folded.as_deref().unwrap_or(args));
            folded_call.or_else(|| folded.map(|args| Expr::Call(name.clone(), args)))
        }
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => None,
    }
}

fn fold_arc(e: &Arc<Expr>) -> Option<Arc<Expr>> {
    fold(e).map(Arc::new)
}

/// Folds every item of `items`: `None` when none changes, else the list
/// with the changed items replaced.
fn fold_list<T: Clone>(items: &[T], f: impl Fn(&T) -> Option<T>) -> Option<Vec<T>> {
    let mut out: Option<Vec<T>> = None;
    for (i, item) in items.iter().enumerate() {
        match (f(item), &mut out) {
            (Some(new), Some(v)) => v.push(new),
            (Some(new), None) => {
                let mut v = Vec::with_capacity(items.len());
                v.extend_from_slice(&items[..i]);
                v.push(new);
                out = Some(v);
            }
            (None, Some(v)) => v.push(item.clone()),
            (None, None) => {}
        }
    }
    out
}

fn fold_path(p: &LocationPath) -> Option<LocationPath> {
    fold_list(&p.steps, fold_step).map(|steps| LocationPath { absolute: p.absolute, steps })
}

/// Sort key of a step predicate: id-attribute tests first.
fn id_last(p: &Expr) -> usize {
    usize::from(p.as_id_equals().is_none())
}

fn fold_step(s: &Step) -> Option<Step> {
    let folded = fold_list(&s.predicates, fold);
    let preds = folded.as_deref().unwrap_or(&s.predicates);
    // Drop predicates folded to `true()`; a `false()` predicate empties
    // the step, which downstream evaluation handles naturally. Id-attribute
    // tests go first (cheap rejection).
    let in_place = !preds.iter().any(is_true_call)
        && preds.windows(2).all(|w| id_last(&w[0]) <= id_last(&w[1]));
    if folded.is_none() && in_place && s.indexed_id == s.compute_indexed_id() {
        return None;
    }
    let mut predicates = folded.unwrap_or_else(|| s.predicates.clone());
    if !in_place {
        predicates.retain(|p| !is_true_call(p));
        predicates.sort_by_key(id_last);
    }
    let mut step = Step {
        axis: s.axis,
        test: s.test.clone(),
        predicates,
        indexed_id: None,
    };
    // With the id test sorted first, `child::tag[@id = 'lit']...` steps can
    // be answered from the document's sibling index; mark them for the
    // evaluator's fast path.
    step.indexed_id = step.compute_indexed_id();
    Some(step)
}

/// The fold of `l op r` (both already folded), or `None` if it stays a
/// binary operation.
fn fold_binary(op: BinOp, l: &Arc<Expr>, r: &Arc<Expr>) -> Option<Expr> {
    use BinOp::*;
    // Boolean short-circuits with constant operands. Eliminating the
    // constant operand must not change the expression's *type*: `x and
    // true()` yields a boolean even when `x` is a node-set, so the
    // surviving operand is wrapped in `boolean()` unless it already
    // always evaluates to one (`count(x and true())` must keep erroring
    // after optimization). Discarding the left operand is always safe
    // (evaluation short-circuits before reaching the right), but
    // discarding the *right* operand also discards any error it would
    // have raised, so that fold requires an infallible left side.
    match op {
        And => {
            if is_false_call(l) {
                return Some(bool_call(false));
            }
            if is_true_call(l) {
                return Some(as_boolean(r));
            }
            if is_true_call(r) {
                return Some(as_boolean(l));
            }
            if is_false_call(r) && is_infallible(l) {
                return Some(bool_call(false));
            }
        }
        Or => {
            if is_true_call(l) {
                return Some(bool_call(true));
            }
            if is_false_call(l) {
                return Some(as_boolean(r));
            }
            if is_false_call(r) {
                return Some(as_boolean(l));
            }
            if is_true_call(r) && is_infallible(l) {
                return Some(bool_call(true));
            }
        }
        _ => {}
    }
    // Numeric constant folding.
    if let (Some(a), Some(b)) = (as_const_num(l), as_const_num(r)) {
        let out = match op {
            Add => Some(a + b),
            Sub => Some(a - b),
            Mul => Some(a * b),
            Div => Some(a / b),
            Mod => Some(a % b),
            Eq => return Some(bool_call(a == b)),
            Ne => return Some(bool_call(a != b)),
            Lt => return Some(bool_call(a < b)),
            Le => return Some(bool_call(a <= b)),
            Gt => return Some(bool_call(a > b)),
            Ge => return Some(bool_call(a >= b)),
            And | Or => None,
        };
        if let Some(n) = out {
            if n.is_finite() {
                return Some(Expr::Number(n));
            }
        }
    }
    // String constant comparisons.
    if let (Expr::Literal(a), Expr::Literal(b)) = (&**l, &**r) {
        match op {
            Eq => return Some(bool_call(a == b)),
            Ne => return Some(bool_call(a != b)),
            _ => {}
        }
    }
    None
}

/// The fold of a call of `name` on `args` (already folded), or `None` if
/// it stays a call.
fn fold_call(name: &str, args: &[Expr]) -> Option<Expr> {
    Some(match (name, args) {
        ("not", [a]) if is_true_call(a) => bool_call(false),
        ("not", [a]) if is_false_call(a) => bool_call(true),
        ("number", [Expr::Number(n)]) => Expr::Number(*n),
        ("string", [Expr::Number(n)]) => Expr::Literal(Name::from(number_to_string(*n))),
        ("string", [Expr::Literal(s)]) => Expr::Literal(s.clone()),
        ("concat", parts)
            if parts.len() >= 2 && parts.iter().all(|p| matches!(p, Expr::Literal(_))) =>
        {
            let joined: String = parts
                .iter()
                .map(|p| match p {
                    Expr::Literal(s) => s.as_str(),
                    _ => unreachable!("checked above"),
                })
                .collect();
            Expr::Literal(Name::from(joined))
        }
        _ => return None,
    })
}

fn as_const_num(e: &Expr) -> Option<f64> {
    match e {
        Expr::Number(n) => Some(*n),
        _ => None,
    }
}

fn is_true_call(e: &Expr) -> bool {
    matches!(e, Expr::Call(n, args) if n == "true" && args.is_empty())
}

fn is_false_call(e: &Expr) -> bool {
    matches!(e, Expr::Call(n, args) if n == "false" && args.is_empty())
}

fn bool_call(b: bool) -> Expr {
    Expr::Call(Name::new(if b { "true" } else { "false" }), Vec::new())
}

/// True if the expression always evaluates to a boolean value.
fn is_boolean_typed(e: &Expr) -> bool {
    use BinOp::*;
    match e {
        Expr::Binary(op, ..) => matches!(op, And | Or | Eq | Ne | Lt | Le | Gt | Ge),
        Expr::Call(name, _) => {
            matches!(name.as_str(), "true" | "false" | "not" | "boolean" | "contains" | "starts-with")
        }
        _ => false,
    }
}

/// `e` if it is already boolean-typed, else `boolean(e)` — the coercion
/// an `and`/`or` operand position would have applied.
fn as_boolean(e: &Expr) -> Expr {
    if is_boolean_typed(e) {
        e.clone()
    } else {
        Expr::Call(Name::new("boolean"), vec![e.clone()])
    }
}

/// True if evaluating the expression can never raise an error (used to
/// justify discarding it entirely). Deliberately conservative: constants
/// and the nullary boolean calls.
fn is_infallible(e: &Expr) -> bool {
    matches!(e, Expr::Number(_) | Expr::Literal(_)) || is_true_call(e) || is_false_call(e)
}

/// Applies `f` to every step in the expression tree, recursing into
/// predicates and nested paths.
fn for_each_step(e: &mut Expr, f: &mut dyn FnMut(&mut Step)) {
    fn walk_steps(steps: &mut [Step], f: &mut dyn FnMut(&mut Step)) {
        for s in steps {
            f(s);
            s.predicates.iter_mut().for_each(|p| for_each_step(p, f));
        }
    }
    match e {
        Expr::Path(p) => walk_steps(&mut p.steps, f),
        Expr::Binary(_, l, r) | Expr::Union(l, r) => {
            for_each_step(Arc::make_mut(l), f);
            for_each_step(Arc::make_mut(r), f);
        }
        Expr::Negate(i) => for_each_step(Arc::make_mut(i), f),
        Expr::Call(_, args) => args.iter_mut().for_each(|a| for_each_step(a, f)),
        Expr::Filter { primary, predicates, trailing } => {
            for_each_step(Arc::make_mut(primary), f);
            predicates.iter_mut().for_each(|p| for_each_step(p, f));
            walk_steps(trailing, f);
        }
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => {}
    }
}

/// Recomputes every step's `indexed_id` hint in place. Use after building an
/// expression outside [`optimize`] — e.g. re-parsing a printed subquery,
/// whose hints `Display` deliberately drops — to restore the indexed-lookup
/// fast path.
pub fn mark_index_hints(e: &mut Expr) {
    for_each_step(e, &mut |s| s.indexed_id = s.compute_indexed_id());
}

/// True if the expression references no document data (safe to hoist).
pub fn is_constant(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Number(_) => true,
        Expr::Binary(_, l, r) | Expr::Union(l, r) => is_constant(l) && is_constant(r),
        Expr::Negate(i) => is_constant(i),
        Expr::Call(name, args) => name != "now" && args.iter().all(is_constant),
        Expr::Path(_) | Expr::Filter { .. } | Expr::Var(_) => false,
    }
}

/// Cost hint for a step predicate: 0 = id equality, 1 = attribute-only,
/// 2 = anything touching child content.
pub fn predicate_cost(e: &Expr) -> u8 {
    if e.as_id_equals().is_some() {
        return 0;
    }
    fn touches_children(e: &Expr) -> bool {
        match e {
            Expr::Path(p) => p.steps.iter().any(|s| {
                !(s.axis == Axis::Attribute
                    || (s.axis == Axis::SelfAxis && s.test == NodeTest::Node))
            }),
            Expr::Binary(_, l, r) | Expr::Union(l, r) => {
                touches_children(l) || touches_children(r)
            }
            Expr::Negate(i) => touches_children(i),
            Expr::Call(_, args) => args.iter().any(touches_children),
            Expr::Filter { .. } => true,
            _ => false,
        }
    }
    if touches_children(e) {
        2
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn opt(s: &str) -> String {
        optimize(&parse(s).unwrap()).to_string()
    }

    #[test]
    fn index_hints_marked_but_ignored_by_eq_and_display() {
        let plain = parse("/a[@id='1']/b[@id='2'][price > 3]").unwrap();
        let e = optimize(&plain);
        let steps = match &e {
            Expr::Path(p) => &p.steps,
            other => panic!("expected path, got {other}"),
        };
        assert_eq!(steps[0].indexed_id.as_deref(), Some("1"));
        assert_eq!(steps[1].indexed_id.as_deref(), Some("2"));
        let psteps = match &plain {
            Expr::Path(p) => &p.steps,
            other => panic!("expected path, got {other}"),
        };
        assert!(psteps.iter().all(|s| s.indexed_id.is_none()));
        // The hint is an execution detail: equality and display ignore it.
        assert_eq!(plain, e);
        assert_eq!(plain.to_string(), e.to_string());
    }

    #[test]
    fn non_id_steps_get_no_hint() {
        let e = optimize(&parse("/a[@id='1']/b[price > 3]/c").unwrap());
        let steps = match &e {
            Expr::Path(p) => &p.steps,
            other => panic!("expected path, got {other}"),
        };
        assert_eq!(steps[0].indexed_id.as_deref(), Some("1"));
        assert_eq!(steps[1].indexed_id, None);
        assert_eq!(steps[2].indexed_id, None);
    }

    #[test]
    fn arithmetic_folds() {
        assert_eq!(opt("2 * 30"), "60");
        assert_eq!(opt("1 + 2 + 3"), "6");
        assert_eq!(opt("10 div 4"), "2.5");
        assert_eq!(opt("-(3 + 4)"), "-7");
        assert_eq!(opt("17 mod 5"), "2");
        // Division by zero stays unfolded (NaN/Infinity semantics must be
        // preserved at runtime).
        assert_eq!(opt("1 div 0"), "1 div 0");
    }

    #[test]
    fn comparisons_fold_to_boolean_calls() {
        assert_eq!(opt("2 > 1"), "true()");
        assert_eq!(opt("2 < 1"), "false()");
        assert_eq!(opt("'a' = 'a'"), "true()");
        assert_eq!(opt("'a' = 'b'"), "false()");
    }

    #[test]
    fn boolean_identities() {
        assert_eq!(opt("true() and @x = '1'"), "@x = '1'");
        assert_eq!(opt("@x = '1' and true()"), "@x = '1'");
        assert_eq!(opt("false() or @x = '1'"), "@x = '1'");
        assert_eq!(opt("false() and @x = '1'"), "false()");
        assert_eq!(opt("true() or @x = '1'"), "true()");
        assert_eq!(opt("not(true())"), "false()");
        assert_eq!(opt("not(1 > 2)"), "true()");
    }

    #[test]
    fn consistency_windows_fold() {
        // The common generated shape `now() - 30` keeps now() (dynamic)
        // but folds constant tolerances around it.
        assert_eq!(opt("@timestamp > now() - (15 + 15)"), "@timestamp > now() - 30");
    }

    #[test]
    fn string_functions_fold() {
        assert_eq!(opt("concat('a', 'b', 'c')"), "'abc'");
        assert_eq!(opt("string(7)"), "'7'");
        assert_eq!(opt("number(42)"), "42");
    }

    #[test]
    fn predicates_reorder_id_first_and_drop_true() {
        assert_eq!(
            opt("block[available='yes'][@id='3'][true()]"),
            "block[@id = '3'][available = 'yes']"
        );
        // Semantics unchanged: conjunction is commutative here.
    }

    #[test]
    fn folding_preserves_evaluation() {
        let doc = sensorxml::parse(
            r#"<a id="1"><b id="2"><price>10</price></b><b id="3"><price>30</price></b></a>"#,
        )
        .unwrap();
        let root = doc.root().unwrap();
        for q in [
            "/a[@id='1']/b[price > 5 * 4][@id='3']",
            "//b[2 > 1]",
            "count(//b) = 1 + 1",
            "//b[price = 10 + 20]",
        ] {
            let orig = parse(q).unwrap();
            let opt = optimize(&orig);
            let v1 = crate::eval::evaluate_at(&orig, &doc, crate::value::XNode::Node(root)).unwrap();
            let v2 = crate::eval::evaluate_at(&opt, &doc, crate::value::XNode::Node(root)).unwrap();
            assert_eq!(v1, v2, "optimization changed `{q}` -> `{opt}`");
        }
    }

    #[test]
    fn constness_analysis() {
        assert!(is_constant(&parse("1 + 2").unwrap()));
        assert!(is_constant(&parse("concat('a', 'b')").unwrap()));
        assert!(!is_constant(&parse("now()").unwrap()));
        assert!(!is_constant(&parse("@id").unwrap()));
        assert!(!is_constant(&parse("$v").unwrap()));
    }

    #[test]
    fn predicate_costs() {
        assert_eq!(predicate_cost(&parse("@id = 'x'").unwrap()), 0);
        assert_eq!(predicate_cost(&parse("@price > 5").unwrap()), 1);
        assert_eq!(predicate_cost(&parse("price > 5").unwrap()), 2);
        assert_eq!(predicate_cost(&parse("count(b) > 1").unwrap()), 2);
    }
}
