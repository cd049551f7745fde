//! Query analysis for distributed processing (paper §3.4, §3.5, Def. 3.3).
//!
//! Three analyses drive the IrisNet query processor:
//!
//! 1. **Id-pinned prefix** ([`id_prefix`]): the maximal leading run of
//!    `/name[@id='value']` child steps. Its last step is the lowest common
//!    ancestor (LCA) of the query result; the DNS-style site name is built
//!    from these ids alone, with no global information (§3.4).
//! 2. **Nesting depth** ([`nesting_depth`], Definition 3.3): the maximum
//!    predicate-nesting level at which a location path traversing IDable
//!    nodes occurs. Depth-0 queries evaluate predicates from local
//!    information only; deeper queries require pre-fetching (§4).
//! 3. **Predicate splitting** ([`split_step_predicates`]): dividing a step's
//!    conjunction `P` into `P_id` (id-attribute-only), `P_consistency`
//!    (freshness tolerances on the timestamp field) and `P_rest`, flagging
//!    when the division is not clean (§3.5, §4).

use crate::ast::{Axis, Expr, LocationPath, NodeTest, Step};

/// Returns the maximal leading sequence of id-pinned child steps of a
/// top-level path query, as `(element name, id)` pairs borrowed from it.
///
/// A step qualifies if it is `child::name` and *some* conjunct of its
/// predicate list is exactly `@id = 'literal'`. The scan stops at the first
/// step that does not qualify (a wildcard, a `//`, an OR of ids, a missing
/// id, ...). Yields nothing for non-path queries.
pub fn id_prefix(expr: &Expr) -> impl Iterator<Item = (&str, &str)> {
    let steps: &[Step] = match expr {
        Expr::Path(path) if path.absolute => &path.steps,
        _ => &[],
    };
    steps.iter().map_while(id_pinned_step)
}

/// The `(element name, id)` pair of one step of the id-pinned prefix (see
/// [`id_prefix`]): `Some` iff the step is `child::name` and some conjunct
/// of its predicate list is exactly `@id = 'literal'` (the first such
/// conjunct wins). Allocates nothing.
pub fn id_pinned_step(step: &Step) -> Option<(&str, &str)> {
    fn first_id(e: &Expr) -> Option<&str> {
        match e {
            Expr::Binary(crate::ast::BinOp::And, l, r) => first_id(l).or_else(|| first_id(r)),
            other => other.as_id_equals(),
        }
    }
    if step.axis != Axis::Child {
        return None;
    }
    let NodeTest::Name(name) = &step.test else {
        return None;
    };
    step.predicates.iter().find_map(first_id).map(|id| (name.as_str(), id))
}

/// Calls `f` on each conjunct of a predicate's top-level `and` chain, left
/// to right.
pub fn for_each_conjunct<'e>(pred: &'e Expr, f: &mut dyn FnMut(&'e Expr)) {
    if let Expr::Binary(crate::ast::BinOp::And, l, r) = pred {
        for_each_conjunct(l, f);
        for_each_conjunct(r, f);
    } else {
        f(pred);
    }
}

/// Computes the nesting depth of a query (Definition 3.3).
///
/// `is_idable` reports whether a tag name denotes IDable nodes in the
/// service schema. A location path "traverses over IDable nodes" when any
/// of its name tests is an IDable tag; per Definition 3.1 IDable-ness is
/// closed upward, so this matches the paper's examples exactly.
pub fn nesting_depth(expr: &Expr, is_idable: &dyn Fn(&str) -> bool) -> u32 {
    let mut depth = 0;
    for_each_top_level_path(expr, &mut |p| depth = depth.max(path_depth(p, is_idable)));
    depth
}

fn path_depth(path: &LocationPath, is_idable: &dyn Fn(&str) -> bool) -> u32 {
    steps_depth(&path.steps, is_idable)
}

fn steps_depth(steps: &[Step], is_idable: &dyn Fn(&str) -> bool) -> u32 {
    steps
        .iter()
        .flat_map(|s| s.predicates.iter())
        .map(|p| pred_depth(p, is_idable))
        .max()
        .unwrap_or(0)
}

fn pred_depth(pred: &Expr, is_idable: &dyn Fn(&str) -> bool) -> u32 {
    let mut depth = 0;
    for_each_top_level_path(pred, &mut |q| {
        let inner = path_depth(q, is_idable);
        if inner > 0 || traverses_idable(q, is_idable) {
            depth = depth.max(1 + inner);
        }
    });
    depth
}

fn traverses_idable(path: &LocationPath, is_idable: &dyn Fn(&str) -> bool) -> bool {
    path.steps.iter().any(|s| {
        s.axis != Axis::Attribute
            && matches!(&s.test, NodeTest::Name(n) if is_idable(n))
    })
}

/// Calls `f` on the location paths of an expression *without* descending
/// into the predicates of their steps (predicate nesting is accounted for
/// by [`nesting_depth`]'s recursion).
fn for_each_top_level_path(e: &Expr, f: &mut dyn FnMut(&LocationPath)) {
    match e {
        Expr::Path(p) => f(p),
        Expr::Binary(_, l, r) | Expr::Union(l, r) => {
            for_each_top_level_path(l, f);
            for_each_top_level_path(r, f);
        }
        Expr::Negate(inner) => for_each_top_level_path(inner, f),
        Expr::Call(_, args) => {
            for a in args {
                for_each_top_level_path(a, f);
            }
        }
        Expr::Filter { primary, predicates, .. } => {
            for_each_top_level_path(primary, f);
            for p in predicates {
                for_each_top_level_path(p, f);
            }
        }
        Expr::Literal(_) | Expr::Number(_) | Expr::Var(_) => {}
    }
}

/// What a predicate conjunct refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Refs {
    id_attr: bool,
    timestamp: bool,
    other: bool,
}

impl Refs {
    fn union(self, o: Refs) -> Refs {
        Refs {
            id_attr: self.id_attr || o.id_attr,
            timestamp: self.timestamp || o.timestamp,
            other: self.other || o.other,
        }
    }
}

fn refs_of(e: &Expr, ts_field: &str) -> Refs {
    match e {
        Expr::Path(p) => refs_of_path(p, ts_field),
        Expr::Binary(_, l, r) | Expr::Union(l, r) => {
            refs_of(l, ts_field).union(refs_of(r, ts_field))
        }
        Expr::Negate(inner) => refs_of(inner, ts_field),
        Expr::Call(name, args) => {
            // now() is a pure query-time constant, not a data reference.
            let mut r = Refs::default();
            if name != "now" {
                for a in args {
                    r = r.union(refs_of(a, ts_field));
                }
            }
            r
        }
        Expr::Filter { primary, predicates, trailing } => {
            let mut r = refs_of(primary, ts_field);
            for p in predicates {
                r = r.union(refs_of(p, ts_field));
            }
            if !trailing.is_empty() {
                r.other = true;
            }
            r
        }
        Expr::Literal(_) | Expr::Number(_) => Refs::default(),
        Expr::Var(_) => Refs { other: true, ..Refs::default() },
    }
}

fn refs_of_path(p: &LocationPath, ts_field: &str) -> Refs {
    let mut r = Refs::default();
    if p.absolute {
        r.other = true;
        return r;
    }
    // `@id` alone, possibly behind self steps.
    let mut effective =
        p.steps.iter().filter(|s| !(s.axis == Axis::SelfAxis && s.test == NodeTest::Node));
    match (effective.next(), effective.next()) {
        (Some(s), None) if s.axis == Axis::Attribute && s.predicates.is_empty() => match &s.test {
            NodeTest::Name(n) if n == "id" => r.id_attr = true,
            NodeTest::Name(n) if n == ts_field => r.timestamp = true,
            _ => r.other = true,
        },
        (Some(s), None) if s.axis == Axis::Child && s.predicates.is_empty() => match &s.test {
            NodeTest::Name(n) if n == ts_field => r.timestamp = true,
            _ => r.other = true,
        },
        _ => r.other = true,
    }
    // Predicates inside the path's own steps reference data too.
    for s in &p.steps {
        for pred in &s.predicates {
            r = r.union(refs_of(pred, ts_field));
        }
    }
    r
}

/// The result of splitting a step's predicates. See
/// [`split_step_predicates`].
#[derive(Debug, Clone, Default)]
pub struct SplitPredicates {
    /// Conjuncts referencing only the `id` attribute (`P_id`).
    pub id: Vec<Expr>,
    /// Conjuncts referencing only the timestamp/freshness field
    /// (`P_consistency`).
    pub consistency: Vec<Expr>,
    /// Everything else (`P_rest`).
    pub rest: Vec<Expr>,
    /// False when some single conjunct mixes id references with other data
    /// references, so `P != P_id && P_rest` for any clean division; the
    /// query processor must then conservatively ask a subquery (§3.5).
    pub clean: bool,
}

/// Splits a step's predicate conjunction into `P_id`, `P_consistency` and
/// `P_rest`. `timestamp_field` names the freshness field ("timestamp" in
/// the paper).
pub fn split_step_predicates(step: &Step, timestamp_field: &str) -> SplitPredicates {
    let mut out = SplitPredicates {
        clean: true,
        ..SplitPredicates::default()
    };
    // Conjunct clones share their operands with the step (`Expr`'s
    // children are reference-counted).
    for pred in &step.predicates {
        for_each_conjunct(pred, &mut |conjunct| {
            match classify_conjunct(conjunct, timestamp_field) {
                ConjunctClass::Id => out.id.push(conjunct.clone()),
                ConjunctClass::Consistency => out.consistency.push(conjunct.clone()),
                ConjunctClass::Rest => out.rest.push(conjunct.clone()),
                ConjunctClass::Mixed => {
                    // Mixed conjunct: unsplittable.
                    out.rest.push(conjunct.clone());
                    out.clean = false;
                }
            }
        });
    }
    out
}

/// Where [`split_step_predicates`] puts one conjunct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConjunctClass {
    /// References only the `id` attribute: `P_id`.
    Id,
    /// References only the timestamp field: `P_consistency`.
    Consistency,
    /// Anything else without an `id` reference: `P_rest`.
    Rest,
    /// An `id` reference mixed with other data: `P_rest`, and the split is
    /// not clean.
    Mixed,
}

/// Classifies one predicate conjunct (not an `and` chain: split it with
/// [`for_each_conjunct`] first) without copying it.
pub fn classify_conjunct(conjunct: &Expr, timestamp_field: &str) -> ConjunctClass {
    let r = refs_of(conjunct, timestamp_field);
    match (r.id_attr, r.timestamp, r.other) {
        (true, false, false) => ConjunctClass::Id,
        (false, true, false) => ConjunctClass::Consistency,
        (false, _, _) => ConjunctClass::Rest,
        (true, ..) => ConjunctClass::Mixed,
    }
}

/// Builds the relative path consisting of `path.steps[from..]` — the
/// "remaining query" shipped in a subquery once the first `from` steps have
/// been resolved.
pub fn suffix_path(path: &LocationPath, from: usize) -> LocationPath {
    LocationPath {
        absolute: false,
        steps: path.steps[from.min(path.steps.len())..].to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn idable(tag: &str) -> bool {
        matches!(
            tag,
            "usRegion" | "state" | "county" | "city" | "neighborhood" | "block" | "parkingSpace"
        )
    }

    #[test]
    fn id_prefix_of_paper_query() {
        let q = parse(
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
             /city[@id='Pittsburgh']\
             /neighborhood[@id='Oakland' or @id='Shadyside']\
             /block[@id='1']/parkingSpace[available='yes']",
        )
        .unwrap();
        let prefix: Vec<_> = id_prefix(&q).collect();
        assert_eq!(
            prefix,
            vec![("usRegion", "NE"), ("state", "PA"), ("county", "Allegheny"), ("city", "Pittsburgh")]
        );
    }

    #[test]
    fn id_prefix_stops_at_descendant_and_wildcard() {
        let q = parse("/a[@id='1']//b[@id='2']").unwrap();
        assert_eq!(id_prefix(&q).collect::<Vec<_>>(), vec![("a", "1")]);
        let q2 = parse("/a[@id='1']/*[@id='2']/c[@id='3']").unwrap();
        assert_eq!(id_prefix(&q2).collect::<Vec<_>>(), vec![("a", "1")]);
    }

    #[test]
    fn id_prefix_sees_through_extra_predicates() {
        let q = parse("/a[@id='1'][x > 0]/b[@id='2' and price='0']/c").unwrap();
        assert_eq!(id_prefix(&q).collect::<Vec<_>>(), vec![("a", "1"), ("b", "2")]);
    }

    #[test]
    fn id_prefix_empty_for_relative_or_non_path() {
        assert_eq!(id_prefix(&parse("a[@id='1']").unwrap()).count(), 0);
        assert_eq!(id_prefix(&parse("count(/a[@id='1'])").unwrap()).count(), 0);
    }

    #[test]
    fn nesting_depth_paper_examples() {
        // /a[@id=x]/b[@id=y]/c -> 0
        let q = parse("/a[@id='x']/b[@id='y']/c").unwrap();
        assert_eq!(nesting_depth(&q, &|_| true), 0);

        // /a[@id=x]//c -> 0
        let q = parse("/a[@id='x']//c").unwrap();
        assert_eq!(nesting_depth(&q, &|_| true), 0);

        // /a[./b/c]/b -> 1 if b idable else 0
        let q = parse("/a[./b/c]/b").unwrap();
        assert_eq!(nesting_depth(&q, &|t| t == "b"), 1);
        assert_eq!(nesting_depth(&q, &|_| false), 0);

        // /a[count(./b/c) = 5]/b -> 1 if b idable else 0
        let q = parse("/a[count(./b/c) = 5]/b").unwrap();
        assert_eq!(nesting_depth(&q, &|t| t == "b"), 1);
        assert_eq!(nesting_depth(&q, &|_| false), 0);

        // /a[count(./b[./c[@id='1']])] -> 2 if c idable, 1 if only b, else 0
        let q = parse("/a[count(./b[./c[@id='1']]) > 0]").unwrap();
        assert_eq!(nesting_depth(&q, &|t| t == "b" || t == "c"), 2);
        assert_eq!(nesting_depth(&q, &|t| t == "b"), 1);
        assert_eq!(nesting_depth(&q, &|_| false), 0);
    }

    #[test]
    fn nesting_depth_least_pricey_query() {
        let q = parse(
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
             /city[@id='Pittsburgh']/neighborhood[@id='Oakland']/block[@id='1']\
             /parkingSpace[not(price > ../parkingSpace/price)]",
        )
        .unwrap();
        // `../parkingSpace/price` traverses the IDable parkingSpace tag.
        assert_eq!(nesting_depth(&q, &idable), 1);
    }

    #[test]
    fn split_plain_id_predicate() {
        let q = parse("block[@id='1']").unwrap();
        let Expr::Path(p) = &q else { panic!() };
        let s = split_step_predicates(&p.steps[0], "timestamp");
        assert!(s.clean);
        assert_eq!(s.id.len(), 1);
        assert!(s.rest.is_empty());
        assert!(s.consistency.is_empty());
    }

    #[test]
    fn split_mixed_conjunction() {
        let q = parse("parkingSpace[@id='1' and available='yes']").unwrap();
        let Expr::Path(p) = &q else { panic!() };
        let s = split_step_predicates(&p.steps[0], "timestamp");
        assert!(s.clean);
        assert_eq!(s.id.len(), 1);
        assert_eq!(s.rest.len(), 1);
    }

    #[test]
    fn split_or_of_ids_is_id_only() {
        let q = parse("neighborhood[@id='Oakland' or @id='Shadyside']").unwrap();
        let Expr::Path(p) = &q else { panic!() };
        let s = split_step_predicates(&p.steps[0], "timestamp");
        assert!(s.clean);
        assert_eq!(s.id.len(), 1);
        assert!(s.rest.is_empty());
    }

    #[test]
    fn split_consistency_predicate() {
        let q = parse("block[@id='1'][timestamp > now() - 30]").unwrap();
        let Expr::Path(p) = &q else { panic!() };
        let s = split_step_predicates(&p.steps[0], "timestamp");
        assert!(s.clean);
        assert_eq!(s.id.len(), 1);
        assert_eq!(s.consistency.len(), 1);
        assert!(s.rest.is_empty());
        // Attribute-style timestamps work too.
        let q2 = parse("block[@timestamp > now() - 30]").unwrap();
        let Expr::Path(p2) = &q2 else { panic!() };
        let s2 = split_step_predicates(&p2.steps[0], "timestamp");
        assert_eq!(s2.consistency.len(), 1);
    }

    #[test]
    fn split_unclean_mixed_conjunct() {
        let q = parse("b[@id='1' or price='0']").unwrap();
        let Expr::Path(p) = &q else { panic!() };
        let s = split_step_predicates(&p.steps[0], "timestamp");
        assert!(!s.clean);
        assert!(s.id.is_empty());
        assert_eq!(s.rest.len(), 1);
    }

    #[test]
    fn suffix_path_builds_remaining_query() {
        let q = parse("/a[@id='1']/b[@id='2']/c[x='y']").unwrap();
        let Expr::Path(p) = &q else { panic!() };
        let suffix = suffix_path(p, 2);
        assert_eq!(suffix.to_string(), "c[x = 'y']");
        assert!(!suffix.absolute);
        // Out-of-range clamps to empty.
        assert!(suffix_path(p, 9).steps.is_empty());
    }
}
