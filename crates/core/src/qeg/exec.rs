//! The native QEG executor: one plan-driven walk over the site database.
//!
//! It visits exactly the nodes the status-switching stylesheet of
//! [`super::QegFactory`]'s XSLT engines visits, takes the same branch of the
//! four-way `status` switch at each, and records an ask wherever the
//! stylesheet would emit an `iris-ask` placeholder — but it builds no
//! stylesheet, renders no predicate text, writes no output document and
//! re-scans nothing. Templates map to functions:
//!
//! * a `Tag` / `Wildcard` step is `Walk::step` (subtree gate, then
//!   `owned` / `complete` / `id-complete` / otherwise);
//! * a `//` marker is `Walk::search` (ask at `incomplete`, self-apply the
//!   next step, keep searching below);
//! * everything under a final-step match is `Walk::collect`.
//!
//! Children are selected as the stylesheet's `apply-templates` selects
//! them, predicates are evaluated in the same context
//! (`EvalContext::new(doc, node, vars)` with `now` = the query's posing
//! time), nesting depth is counted as the XSLT interpreter counts it, and
//! the asks come out in the order the placeholders appear in the XSLT
//! output, so the sorted, deduplicated ask set is identical.

use sensorxml::{Document, NodeId};
use sensorxpath::{EvalContext, Expr, Value, Vars, XNode, XPathError};

use super::{Ask, AskKind, DistStep, QueryPlan, StepKind, StepTest};
use crate::error::{CoreError, CoreResult};
use crate::fragment::{SiteDatabase, Status};
use crate::idable::{IdPath, STATUS_ATTR};

/// Nesting bound of the walk, counted like the XSLT interpreter's template
/// recursion limit (one level per `apply-templates`, starting at the
/// document node), so both engines fail on the same inputs.
const MAX_WALK_DEPTH: usize = 128;

/// Runs one QEG pass natively: the asks the plan's stylesheet would emit
/// over `db` at time `now`, sorted and deduplicated like
/// [`super::extract_asks`].
pub(crate) fn execute(
    plan: &QueryPlan,
    db: &SiteDatabase,
    now: f64,
    ignore_complete: bool,
) -> CoreResult<Vec<Ask>> {
    let doc = db.doc();
    let mut walk = Walk {
        plan,
        doc,
        vars: Vars::new(),
        now,
        ignore_complete,
        raw: Vec::new(),
    };
    if let Some(root) = doc.root() {
        // Depth 1 applies templates to the document node; its built-in
        // rule applies them to the root element at depth 2.
        walk.visit(root, Mode::Step(0), 2)?;
    }
    ask_paths(doc, walk.raw)
}

/// The stylesheet mode a node is visited in.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Distribution step `i` (mode `s{i}`).
    Step(usize),
    /// Subtree collection below a final-step match (mode `c`).
    Collect,
}

struct Walk<'a> {
    plan: &'a QueryPlan,
    doc: &'a Document,
    vars: Vars,
    now: f64,
    ignore_complete: bool,
    /// `(asked node, kind, step)` in emission order.
    raw: Vec<(NodeId, AskKind, usize)>,
}

impl Walk<'_> {
    fn eval(&self, expr: &Expr, node: NodeId) -> CoreResult<Value> {
        let mut ctx = EvalContext::new(self.doc, XNode::Node(node), &self.vars);
        ctx.now = self.now;
        Ok(sensorxpath::evaluate(expr, &ctx)?)
    }

    /// A template test (`xsl:if` / `xsl:when`): any value, as a boolean.
    fn test(&self, test: &StepTest, node: NodeId) -> CoreResult<bool> {
        match test {
            StepTest::True => Ok(true),
            StepTest::IdEquals(id) => Ok(self.doc.attr(node, "id") == Some(id.as_str())),
            StepTest::Expr(e) => Ok(self.eval(e, node)?.boolean()),
        }
    }

    /// A select predicate (`tag[P_id]`): the evaluator rejects a number
    /// there as positional.
    fn filter(&self, test: &StepTest, node: NodeId) -> CoreResult<bool> {
        match test {
            StepTest::Expr(e) => match self.eval(e, node)? {
                Value::Num(_) => {
                    Err(XPathError::Ordered("numeric predicate (positional)".into()).into())
                }
                v => Ok(v.boolean()),
            },
            _ => self.test(test, node),
        }
    }

    fn status(&self, node: NodeId) -> Option<Status> {
        self.doc.attr(node, STATUS_ATTR).and_then(Status::parse)
    }

    fn ask(&mut self, node: NodeId, kind: AskKind, step: usize) {
        self.raw.push((node, kind, step));
    }

    fn visit(&mut self, node: NodeId, mode: Mode, depth: usize) -> CoreResult<()> {
        match mode {
            Mode::Collect => self.collect(node, depth),
            Mode::Step(i) => match &self.plan.dist_steps[i].kind {
                StepKind::Descendant => self.search(node, i, depth),
                StepKind::Tag(t) if self.doc.name(node) != t => {
                    // Only the first step can see a foreign tag (the root);
                    // the stylesheet's catch-all template drops it.
                    Ok(())
                }
                _ => self.step(node, i, depth),
            },
        }
    }

    /// One `apply-templates` level: bounds the depth (even when nothing is
    /// selected, as the interpreter does) and visits the selected children
    /// of `node` in document order.
    fn apply_children(&mut self, node: NodeId, mode: Mode, depth: usize) -> CoreResult<()> {
        let depth = nest(depth)?;
        let doc = self.doc;
        let tag_step = match mode {
            Mode::Step(j) => match &self.plan.dist_steps[j] {
                ds @ DistStep {
                    kind: StepKind::Tag(t),
                    ..
                } => Some((t, ds)),
                _ => None,
            },
            Mode::Collect => None,
        };
        match tag_step {
            Some((t, ds)) if ds.clean && !ds.pid.is_empty() => {
                // The `tag[P_id]` select: answered from the sibling index
                // when P_id is a single id literal.
                if let StepTest::IdEquals(id) = &ds.pid_test {
                    for c in doc.children_by_name_id(node, t, id) {
                        self.visit(c, mode, depth)?;
                    }
                } else {
                    for &c in doc.children(node) {
                        if doc.is_element(c) && doc.name(c) == t && self.filter(&ds.pid_test, c)? {
                            self.visit(c, mode, depth)?;
                        }
                    }
                }
            }
            Some((t, _)) => {
                for &c in doc.children(node) {
                    if doc.is_element(c) && doc.name(c) == t {
                        self.visit(c, mode, depth)?;
                    }
                }
            }
            // `*[@status]`: the IDable children.
            None => {
                for &c in doc.children(node) {
                    if doc.is_element(c) && doc.attr(c, STATUS_ATTR).is_some() {
                        self.visit(c, mode, depth)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The `//` search template of step `i`.
    fn search(&mut self, node: NodeId, i: usize, depth: usize) -> CoreResult<()> {
        if self.status(node) == Some(Status::Incomplete) {
            // Cannot search below an incomplete node.
            self.ask(node, AskKind::Query, i);
            return Ok(());
        }
        let matches_next = match &self.plan.dist_steps[i + 1].kind {
            StepKind::Tag(t) => self.doc.name(node) == t,
            StepKind::Wildcard | StepKind::Descendant => true,
        };
        if matches_next {
            // `apply-templates select="."` in the next step's mode.
            self.visit(node, Mode::Step(i + 1), nest(depth)?)?;
        }
        self.apply_children(node, Mode::Step(i), depth)
    }

    /// The status switch of a `Tag` / `Wildcard` step `i`.
    fn step(&mut self, node: NodeId, i: usize, depth: usize) -> CoreResult<()> {
        let plan = self.plan;
        let ds = &plan.dist_steps[i];
        let is_final = i == plan.final_step();
        let gated = plan.fetch_subtree_at == Some(i);
        if gated && self.test(&ds.pid_test, node)? && self.subtree_has_gap(node) {
            self.ask(node, AskKind::Subtree, i);
            return Ok(());
        }
        let descend = if is_final {
            Mode::Collect
        } else {
            Mode::Step(i + 1)
        };
        match self.status(node) {
            // owned: the full predicate decides; consistency is ignored.
            Some(Status::Owned) => {
                if self.test(&ds.full_test, node)? {
                    self.apply_children(node, descend, depth)?;
                }
            }
            // complete: additionally check freshness — or, when cached data
            // is administratively ignored, refresh the whole cached unit.
            Some(Status::Complete) => {
                if self.ignore_complete {
                    if self.test(&ds.pid_test, node)? {
                        self.ask(node, AskKind::Stale, usize::MAX);
                    }
                } else if self.test(&ds.full_test, node)? {
                    let fresh = match &ds.pcons_test {
                        None => true,
                        Some(pcons) => self.test(pcons, node)?,
                    };
                    if fresh {
                        self.apply_children(node, descend, depth)?;
                    } else {
                        self.ask(node, AskKind::Stale, i);
                    }
                }
            }
            // id-complete: descend without local information only when the
            // predicates are id-only, this is not the final step, and no
            // subtree gate applies.
            Some(Status::IdComplete) => {
                let id_only =
                    !is_final && ds.prest.is_empty() && ds.pcons.is_empty() && ds.clean && !gated;
                if self.test(&ds.pid_test, node)? {
                    if id_only {
                        self.apply_children(node, descend, depth)?;
                    } else {
                        self.ask(node, AskKind::Query, i + 1);
                    }
                }
            }
            // incomplete (or no status): ask if the id predicate allows.
            _ => {
                if self.test(&ds.pid_test, node)? {
                    self.ask(node, AskKind::Query, i + 1);
                }
            }
        }
        Ok(())
    }

    /// Collect mode: descend through stored local information, ask for the
    /// whole subtree of anything not stored.
    fn collect(&mut self, node: NodeId, depth: usize) -> CoreResult<()> {
        match self.status(node) {
            Some(Status::Owned | Status::Complete) => {
                self.apply_children(node, Mode::Collect, depth)
            }
            _ => {
                self.ask(node, AskKind::Subtree, usize::MAX);
                Ok(())
            }
        }
    }

    /// The subtree gate's completeness test: some element at or below
    /// `node` is `incomplete` or `id-complete`.
    fn subtree_has_gap(&self, node: NodeId) -> bool {
        let doc = self.doc;
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if matches!(
                self.status(n),
                Some(Status::Incomplete | Status::IdComplete)
            ) {
                return true;
            }
            stack.extend(
                doc.children(n)
                    .iter()
                    .copied()
                    .filter(|&c| doc.is_element(c)),
            );
        }
        false
    }
}

/// The depth of one more `apply-templates` level, or the error past the
/// bound.
fn nest(depth: usize) -> CoreResult<usize> {
    if depth < MAX_WALK_DEPTH {
        Ok(depth + 1)
    } else {
        Err(CoreError::Query(format!(
            "QEG walk nests deeper than {MAX_WALK_DEPTH} levels"
        )))
    }
}

/// Turns the walk's raw asks into id-path asks: the asked node's tag and id
/// (an empty id when it has none) under its ancestors' `(tag, id)` chain,
/// then sorts and deduplicates exactly as [`super::extract_asks`] does, so
/// equal-path asks keep their emission order.
fn ask_paths(doc: &Document, raw: Vec<(NodeId, AskKind, usize)>) -> CoreResult<Vec<Ask>> {
    let mut asks = Vec::with_capacity(raw.len());
    let mut rev: Vec<(String, String)> = Vec::new();
    for (node, kind, step) in raw {
        rev.clear();
        rev.push((
            doc.name(node).to_string(),
            doc.attr(node, "id").unwrap_or("").to_string(),
        ));
        let mut cur = doc.parent(node);
        while let Some(a) = cur {
            let id = doc
                .attr(a, "id")
                .ok_or_else(|| CoreError::Protocol("asked node's ancestor has no id".into()))?;
            rev.push((doc.name(a).to_string(), id.to_string()));
            cur = doc.parent(a);
        }
        let path = IdPath::from_pairs(rev.drain(..).rev());
        asks.push(Ask { path, kind, step });
    }
    asks.sort_by(|a, b| (&a.path, a.kind.as_str()).cmp(&(&b.path, b.kind.as_str())));
    asks.dedup();
    Ok(asks)
}
