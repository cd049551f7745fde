//! Query-Evaluate-Gather (§3.5, §4).
//!
//! Given an XPATH query, a site must detect (1) which locally stored data
//! is part of the result and (2) how to gather the missing parts. XPATH
//! itself cannot express this over the status-tagged fragment, so
//! [`plan_query`] splits the query into distribution steps, each with its
//! id / rest / consistency predicates, and a QEG pass switches on every
//! visited node's `status` attribute: descend, or *ask* for the node from
//! its owner ([`Ask`]).
//!
//! The paper builds each pass as an XSLT program whose templates emit
//! placeholders for the asks, created cheaply from a compiled skeleton per
//! query shape (§4). This crate runs the pass as a native plan-driven walk
//! instead ([`NativeWalk`], `exec::execute`): it visits the nodes that
//! program visits, takes the same branch of the status switch at each and
//! returns the asks directly — no program, no output document, no re-scan.
//! A [`QegFactory`] runs passes through the [`PassEngine`] seam; the
//! paper's XSLT program lives outside the runtime, in the
//! `irisnet-xslt-oracle` crate, which implements the seam for naive and
//! fast creation as the walk's differential oracle
//! (`tests/qeg_native_prop.rs`: equal asks and errors, byte-equal answers
//! and trace digests) and as the arms of the Fig. 11 creation ablation
//! (`exp_micro`).
//!
//! The gather phase differs from the paper in one mechanical respect,
//! documented in DESIGN.md: instead of splicing subquery answers into the
//! annotated output, the agent *merges* answer fragments into its site
//! database (the cache-fill of §3.3) and re-runs the QEG pass until no
//! asks remain; the final answer is then extracted from the now sufficient
//! fragment. This is behaviourally equivalent and makes partial-match
//! caching and answer assembly one mechanism.
//!
//! A site answering a subquery ships what it matched as a fragment:
//! `matched_final_nodes` evaluates the distribution path with its
//! consistency conjuncts stripped (copying only the steps stripping
//! changes) and hands the matched arena nodes on to the fragment layer,
//! which coalesces and exports them without building an id path per
//! match.
//! [`matched_final_paths`] is the id-path form it replaced, kept as the
//! tests' reference.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use sensorxml::{Document, NodeId};
use sensorxpath::analysis::{
    classify_conjunct, split_step_predicates, ConjunctClass, SplitPredicates,
};
use sensorxpath::eval::apply_step;
use sensorxpath::{Axis, BinOp, Expr, LocationPath, Name, NodeTest, Step, Value, XNode};

use crate::error::{CoreError, CoreResult};
use crate::fragment::SiteDatabase;
use crate::idable::{IdPath, PathTarget};
use crate::service::Service;

mod exec;

/// How one distribution step selects children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepKind {
    /// `child::tag` over an IDable tag.
    Tag(Name),
    /// `child::*` (IDable children of any tag).
    Wildcard,
    /// The `//` marker: search IDable descendants for the next step.
    Descendant,
}

/// One step of the distribution prefix, with its predicate split.
#[derive(Debug, Clone)]
pub struct DistStep {
    pub kind: StepKind,
    /// `P_id` conjuncts (id-attribute only).
    pub pid: Vec<Expr>,
    /// `P_rest` conjuncts (everything but id and consistency).
    pub prest: Vec<Expr>,
    /// `P_consistency` conjuncts (freshness tolerances).
    pub pcons: Vec<Expr>,
    /// False when some conjunct mixes id and non-id references, so `P_id`
    /// cannot be trusted as a pre-filter (§3.5 fallback).
    pub clean: bool,
    /// The native executor's `P_id` test (`True` when not clean).
    pub pid_test: StepTest,
    /// The native executor's `P_id ∧ P_rest` test.
    pub full_test: StepTest,
    /// The native executor's `P_consistency` test (`None` when there is
    /// none).
    pub pcons_test: Option<StepTest>,
}

/// A conjunction of step predicates, compiled once per plan for the native
/// executor. It evaluates exactly like the optimized conjunction the XSLT
/// program embeds as text.
#[derive(Debug, Clone, PartialEq)]
pub enum StepTest {
    /// No conjuncts: `true()`.
    True,
    /// Exactly `@id = 'literal'`: one attribute comparison, no evaluator.
    IdEquals(Name),
    /// Anything else: the optimized conjunction, for the XPath evaluator.
    Expr(Expr),
}

impl StepTest {
    fn of(preds: &[Expr]) -> StepTest {
        match preds {
            [] => StepTest::True,
            [one] => match one.id_equals_literal() {
                Some(id) => StepTest::IdEquals(id.clone()),
                None => StepTest::Expr(sensorxpath::optimize(one)),
            },
            many => StepTest::Expr(sensorxpath::optimize(&Expr::conjunction(many.to_vec()))),
        }
    }
}

impl DistStep {
    fn from_step(step: &Step, kind: StepKind, ts_field: &str) -> DistStep {
        let SplitPredicates { id, consistency, rest, clean } =
            split_step_predicates(step, ts_field);
        let pid_test = StepTest::of(if clean { &id } else { &[] });
        let full_test = match (id.is_empty(), rest.is_empty()) {
            (_, true) => StepTest::of(&id),
            (true, false) => StepTest::of(&rest),
            (false, false) => StepTest::of(&[id.as_slice(), rest.as_slice()].concat()),
        };
        let pcons_test = (!consistency.is_empty()).then(|| StepTest::of(&consistency));
        DistStep {
            kind,
            pid: id,
            prest: rest,
            pcons: consistency,
            clean,
            pid_test,
            full_test,
            pcons_test,
        }
    }

}

/// A distributable query plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// The original parsed query.
    pub expr: Expr,
    /// The distribution prefix (child steps over the IDable hierarchy,
    /// wildcards, `//` markers).
    pub dist_steps: Vec<DistStep>,
    /// Steps past the distribution prefix; they select *within* the local
    /// information of the final distribution nodes, so they never cause
    /// network traffic.
    pub suffix_len: usize,
    /// Earliest step index that must see its whole subtree locally before
    /// predicates can be evaluated (None for nesting depth 0). See §4
    /// "Larger nesting depths".
    pub fetch_subtree_at: Option<usize>,
    /// Query nesting depth (Definition 3.3).
    pub nesting_depth: u32,
}

impl QueryPlan {
    /// Index of the final distribution step.
    pub fn final_step(&self) -> usize {
        self.dist_steps.len().saturating_sub(1)
    }
}

/// Analyzes a query for distributed execution.
///
/// Any *absolute path* query is distributable. Other top-level expression
/// shapes (`count(/...)`, unions, ...) are handled by the agent with a
/// root-anchored whole-document gather — supported, but not planned here.
pub fn plan_query(expr: &Expr, service: &Service) -> CoreResult<QueryPlan> {
    let Expr::Path(path) = expr else {
        return Err(CoreError::Query(
            "only top-level path queries have a distribution plan".into(),
        ));
    };
    if !path.absolute {
        return Err(CoreError::Query("distributed queries must be absolute".into()));
    }
    let schema = &service.schema;
    let ts_field = &service.timestamp_field;

    let mut dist_steps: Vec<DistStep> = Vec::with_capacity(path.steps.len());
    let mut consumed = 0usize;
    for step in &path.steps {
        let kind = if step.is_abbrev_descendant() {
            Some(StepKind::Descendant)
        } else if step.axis == Axis::Child {
            match &step.test {
                NodeTest::Name(tag) if schema.is_idable(tag) => Some(StepKind::Tag(tag.clone())),
                NodeTest::Any => Some(StepKind::Wildcard),
                _ => None,
            }
        } else {
            None
        };
        match kind {
            Some(k) => {
                dist_steps.push(DistStep::from_step(step, k, ts_field));
                consumed += 1;
            }
            None => break,
        }
    }
    // A trailing `//` marker with no following distribution step belongs to
    // the suffix (it cannot be planned without a next step).
    if matches!(dist_steps.last().map(|s| &s.kind), Some(StepKind::Descendant)) {
        dist_steps.pop();
        consumed -= 1;
    }
    if dist_steps.is_empty() {
        return Err(CoreError::Query(
            "query has no distributable prefix (root-anchored gather required)".into(),
        ));
    }
    let suffix_len = path.steps.len() - consumed;

    // Nesting depth and subtree pre-fetch anchor (§4).
    let is_idable = |t: &str| schema.is_idable(t);
    let nesting_depth = sensorxpath::analysis::nesting_depth(expr, &is_idable);
    let fetch_subtree_at = if nesting_depth == 0 {
        None
    } else {
        Some(fetch_anchor(&path.steps, consumed, &is_idable))
    };

    // The plan's copy of the query carries the evaluator's sibling-index
    // hints on its distribution prefix, which `matched_final_nodes`
    // evaluates as is.
    let mut expr = expr.clone();
    if let Expr::Path(p) = &mut expr {
        for step in &mut p.steps[..consumed] {
            step.indexed_id = step.compute_indexed_id();
        }
    }
    Ok(QueryPlan {
        expr,
        dist_steps,
        suffix_len,
        fetch_subtree_at,
        nesting_depth,
    })
}

/// Finds the earliest distribution step at which the whole subtree must be
/// local: for each step whose predicates traverse IDable nodes, upward
/// references (`..`) pull the anchor toward the root (the paper's "earliest
/// tag that is referred to in such a nested predicate").
fn fetch_anchor(steps: &[Step], dist_len: usize, is_idable: &dyn Fn(&str) -> bool) -> usize {
    let mut anchor = dist_len.saturating_sub(1);
    let mut found = false;
    for (i, step) in steps.iter().enumerate().take(dist_len) {
        for pred in &step.predicates {
            if let Some(ups) = nested_pred_upward(pred, is_idable) {
                let a = i.saturating_sub(ups);
                if !found || a < anchor {
                    anchor = a;
                    found = true;
                }
            }
        }
    }
    if found {
        anchor
    } else {
        dist_len.saturating_sub(1)
    }
}

/// If `pred` contains a location path traversing IDable nodes, returns the
/// maximum number of leading `..` steps among such paths (0 if none).
fn nested_pred_upward(pred: &Expr, is_idable: &dyn Fn(&str) -> bool) -> Option<usize> {
    let mut best: Option<usize> = None;
    collect_paths(pred, &mut |p: &LocationPath| {
        let traverses = p.steps.iter().any(|s| {
            s.axis != Axis::Attribute && matches!(&s.test, NodeTest::Name(t) if is_idable(t))
        });
        if traverses {
            let ups = p
                .steps
                .iter()
                .take_while(|s| s.axis == Axis::Parent && s.test == NodeTest::Node)
                .count();
            best = Some(best.map_or(ups, |b: usize| b.max(ups)));
        }
    });
    best
}

fn collect_paths(e: &Expr, f: &mut dyn FnMut(&LocationPath)) {
    match e {
        Expr::Path(p) => {
            f(p);
            for s in &p.steps {
                for pred in &s.predicates {
                    collect_paths(pred, f);
                }
            }
        }
        Expr::Binary(_, l, r) | Expr::Union(l, r) => {
            collect_paths(l, f);
            collect_paths(r, f);
        }
        Expr::Negate(inner) => collect_paths(inner, f),
        Expr::Call(_, args) => args.iter().for_each(|a| collect_paths(a, f)),
        Expr::Filter { primary, predicates, .. } => {
            collect_paths(primary, f);
            predicates.iter().for_each(|p| collect_paths(p, f));
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Asks (gather requests)
// ---------------------------------------------------------------------

/// Why a node must be fetched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AskKind {
    /// The node (or data below it) is missing: continue the query there.
    Query,
    /// Cached data failed a consistency predicate: refresh from the owner.
    Stale,
    /// A nested predicate needs the node's entire subtree locally (§4).
    Subtree,
}

impl AskKind {
    /// Stable label, used in subquery wire text and span details.
    pub fn as_str(self) -> &'static str {
        match self {
            AskKind::Query => "query",
            AskKind::Stale => "stale",
            AskKind::Subtree => "subtree",
        }
    }
}

/// A gather request produced by a QEG run: fetch `path` from its owner.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ask {
    pub path: IdPath,
    pub kind: AskKind,
    /// Index of the first *remaining* distribution step below the asked
    /// node (`usize::MAX` marks asks that carry no remaining steps, e.g.
    /// collect-mode subtree fetches).
    pub step: usize,
}

/// Renders the **generalized subquery** (§3.3) for an ask: the node's id
/// path plus the remaining distribution steps with *only their id
/// predicates* retained, so the fetched superset is query-independent and
/// later queries with different value predicates hit the cache.
pub fn generalized_subquery(plan: &QueryPlan, ask: &Ask) -> String {
    let mut q = ask.path.to_xpath();
    if ask.kind == AskKind::Query && ask.step != usize::MAX {
        let mut pending_descendant = false;
        for ds in plan.dist_steps.iter().skip(ask.step) {
            match &ds.kind {
                StepKind::Descendant => pending_descendant = true,
                StepKind::Tag(t) => {
                    q.push('/');
                    if pending_descendant {
                        q.push('/');
                        pending_descendant = false;
                    }
                    q.push_str(t);
                    push_id_preds(&mut q, ds);
                }
                StepKind::Wildcard => {
                    q.push('/');
                    if pending_descendant {
                        q.push('/');
                        pending_descendant = false;
                    }
                    q.push('*');
                    push_id_preds(&mut q, ds);
                }
            }
        }
    }
    q
}

fn push_id_preds(q: &mut String, ds: &DistStep) {
    if ds.clean {
        for p in &ds.pid {
            q.push('[');
            q.push_str(&p.to_string());
            q.push(']');
        }
    }
}

/// Renders the *non-generalized* subquery for an ask: remaining steps keep
/// their full value predicates (consistency predicates stripped), so the
/// owner ships only the exact matches. This is the ablation arm of the
/// paper's §3.3 generalization claim — cached data then fails to serve
/// later queries with different predicates.
pub fn literal_subquery(plan: &QueryPlan, ask: &Ask) -> String {
    let mut q = ask.path.to_xpath();
    if ask.kind == AskKind::Query && ask.step != usize::MAX {
        let mut pending_descendant = false;
        for ds in plan.dist_steps.iter().skip(ask.step) {
            match &ds.kind {
                StepKind::Descendant => pending_descendant = true,
                StepKind::Tag(_) | StepKind::Wildcard => {
                    q.push('/');
                    if pending_descendant {
                        q.push('/');
                        pending_descendant = false;
                    }
                    match &ds.kind {
                        StepKind::Tag(t) => q.push_str(t),
                        _ => q.push('*'),
                    }
                    if ds.clean {
                        for p in ds.pid.iter().chain(ds.prest.iter()) {
                            q.push('[');
                            q.push_str(&p.to_string());
                            q.push(']');
                        }
                    }
                }
            }
        }
    }
    q
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/// One QEG pass's asks and its create/execute split (seconds).
#[derive(Debug)]
pub struct QegPass {
    pub asks: Vec<Ask>,
    /// Program creation time (0 for the native walk, which creates none).
    pub create_s: f64,
    /// Execution time, ask extraction included.
    pub exec_s: f64,
}

/// How a site runs one QEG pass. [`NativeWalk`] is the only engine in this
/// crate; the paper's XSLT program implements the seam in the
/// `irisnet-xslt-oracle` crate. An engine is shared by every agent built
/// from one [`crate::OaConfig`] and by their read workers.
pub trait PassEngine: fmt::Debug + Send + Sync {
    /// Runs one pass over `db` for a query posed at `now`: the asks, sorted
    /// by path and deduplicated. With `ignore_complete` cached (`complete`)
    /// data is treated as stale.
    fn run(
        &self,
        plan: &QueryPlan,
        db: &SiteDatabase,
        now: f64,
        ignore_complete: bool,
    ) -> CoreResult<QegPass>;
}

/// The native pass: `exec::execute` walks the site database by plan;
/// nothing is created per query.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeWalk;

impl PassEngine for NativeWalk {
    fn run(
        &self,
        plan: &QueryPlan,
        db: &SiteDatabase,
        now: f64,
        ignore_complete: bool,
    ) -> CoreResult<QegPass> {
        let t0 = Instant::now();
        let asks = exec::execute(plan, db, now, ignore_complete)?;
        Ok(QegPass { asks, create_s: 0.0, exec_s: t0.elapsed().as_secs_f64() })
    }
}

/// The error a pass returns past its nesting bound: 128 levels, counted
/// like the XSLT interpreter's template recursion (one per
/// `apply-templates`, starting at the document node).
pub fn too_deep() -> CoreError {
    CoreError::Query(format!("QEG walk nests deeper than {} levels", exec::MAX_WALK_DEPTH))
}

/// Runs a site's QEG passes with its configured [`PassEngine`]; shared
/// across the site's read workers (`Arc<QegFactory>`).
#[derive(Debug)]
pub struct QegFactory {
    engine: Arc<dyn PassEngine>,
}

impl QegFactory {
    /// A factory running passes with `engine`.
    pub fn new(engine: Arc<dyn PassEngine>) -> QegFactory {
        QegFactory { engine }
    }

    /// Runs one QEG pass (see [`PassEngine::run`]).
    pub fn run(
        &self,
        plan: &QueryPlan,
        db: &SiteDatabase,
        now: f64,
        ignore_complete: bool,
    ) -> CoreResult<QegPass> {
        self.engine.run(plan, db, now, ignore_complete)
    }

    /// Always 0: the runtime keeps no XSLT skeleton cache. `benchmark/`
    /// reads this for `qeg.skeleton_hit_ratio` until ROADMAP item 1b(iv)
    /// removes that read; delete it then.
    pub fn skeleton_hits(&self) -> u64 {
        0
    }

    /// Always 0; kept for `benchmark/` like [`QegFactory::skeleton_hits`].
    pub fn skeleton_misses(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------
// Answer extraction
// ---------------------------------------------------------------------

/// Rewrites a query with its consistency predicates removed: freshness was
/// already enforced (or best-effort satisfied) during gathering, and the
/// paper's semantics return the freshest available data even when older
/// than the tolerance.
pub fn strip_consistency(expr: &Expr, ts_field: &str) -> Expr {
    match expr {
        Expr::Path(p) => Expr::Path(strip_path(p, ts_field)),
        Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Arc::new(strip_consistency(l, ts_field)),
            Arc::new(strip_consistency(r, ts_field)),
        ),
        Expr::Union(l, r) => Expr::Union(
            Arc::new(strip_consistency(l, ts_field)),
            Arc::new(strip_consistency(r, ts_field)),
        ),
        Expr::Negate(e) => Expr::Negate(Arc::new(strip_consistency(e, ts_field))),
        Expr::Call(n, args) => Expr::Call(
            n.clone(),
            args.iter().map(|a| strip_consistency(a, ts_field)).collect(),
        ),
        Expr::Filter { primary, predicates, trailing } => Expr::Filter {
            primary: Arc::new(strip_consistency(primary, ts_field)),
            predicates: strip_pred_list(predicates, ts_field),
            trailing: trailing.iter().map(|s| strip_step(s, ts_field)).collect(),
        },
        other => other.clone(),
    }
}

fn strip_path(p: &LocationPath, ts_field: &str) -> LocationPath {
    LocationPath {
        absolute: p.absolute,
        steps: p.steps.iter().map(|s| strip_step(s, ts_field)).collect(),
    }
}

/// Drops a step's pure consistency conjuncts and keeps the others, one
/// predicate each, the `P_id` conjuncts first. An unclean split changes
/// nothing here: its mixed conjuncts are in `P_rest` and stay.
fn strip_step(s: &Step, ts_field: &str) -> Step {
    let split = split_step_predicates(s, ts_field);
    let predicates = split
        .id
        .iter()
        .chain(&split.rest)
        .map(|p| strip_consistency(p, ts_field))
        .collect();
    let mut step = Step {
        axis: s.axis,
        test: s.test.clone(),
        predicates,
        indexed_id: None,
    };
    // The id predicate (if any) is first after the split; re-mark the step
    // so stripped distribution paths keep the indexed-lookup fast path.
    step.indexed_id = step.compute_indexed_id();
    step
}

fn strip_pred_list(preds: &[Expr], ts_field: &str) -> Vec<Expr> {
    preds.iter().map(|p| strip_consistency(p, ts_field)).collect()
}

/// True when [`strip_consistency`] gives `e` back unchanged (index hints
/// aside), so it can be evaluated as is.
fn strip_keeps(e: &Expr, ts_field: &str) -> bool {
    match e {
        Expr::Path(p) => p.steps.iter().all(|s| strip_keeps_step(s, ts_field)),
        Expr::Binary(_, l, r) | Expr::Union(l, r) => {
            strip_keeps(l, ts_field) && strip_keeps(r, ts_field)
        }
        Expr::Negate(e) => strip_keeps(e, ts_field),
        Expr::Call(_, args) => args.iter().all(|a| strip_keeps(a, ts_field)),
        Expr::Filter { primary, predicates, trailing } => {
            strip_keeps(primary, ts_field)
                && predicates.iter().all(|p| strip_keeps(p, ts_field))
                && trailing.iter().all(|s| strip_keeps_step(s, ts_field))
        }
        _ => true,
    }
}

/// [`strip_keeps`] for [`strip_step`]: no `and` chain to split, no
/// consistency conjunct to drop, no `P_id` conjunct after a `P_rest` one
/// to move forward, and nothing nested to strip.
fn strip_keeps_step(s: &Step, ts_field: &str) -> bool {
    let mut rest_seen = false;
    s.predicates.iter().all(|p| {
        let in_place = match classify_conjunct(p, ts_field) {
            _ if matches!(p, Expr::Binary(BinOp::And, ..)) => false,
            ConjunctClass::Consistency => false,
            ConjunctClass::Id => !rest_seen,
            ConjunctClass::Rest | ConjunctClass::Mixed => {
                rest_seen = true;
                true
            }
        };
        in_place && strip_keeps(p, ts_field)
    })
}

/// The stored nodes a subquery answer ships: the evaluator's node set for
/// the plan's *distribution path* (consistency stripped) over the site
/// fragment, kept where the whole root path has ids, each replaced by the
/// node its [`IdPath`] resolves to ([`PathTarget`]), deduplicated, in
/// arena order ([`crate::fragment::SiteDatabase::coalesce_covering_nodes`]
/// puts its result in [`IdPath`] order). These are exactly the nodes
/// [`matched_final_paths`] names, found without building a path per
/// match; a match whose path resolves nowhere is the error exporting that
/// path gives.
///
/// Steps that stripping would change are stripped one by one; the others
/// (all of them for a generalized subquery) are evaluated from the plan,
/// whose distribution prefix [`plan_query`] has hinted for the sibling
/// index.
pub(crate) fn matched_final_nodes(
    plan: &QueryPlan,
    db: &SiteDatabase,
    now: f64,
) -> CoreResult<Vec<NodeId>> {
    let Expr::Path(orig) = &plan.expr else {
        return Err(CoreError::Query("non-path plan".into()));
    };
    let ts_field = &db.service().timestamp_field;
    let doc = db.doc();
    let vars = sensorxpath::Vars::new();
    let root = doc.root().map(XNode::Node).unwrap_or(XNode::Document);
    let mut ctx = sensorxpath::EvalContext::new(doc, root, &vars);
    ctx.now = now;
    // From the document node: the distribution path counts as absolute.
    let mut matched = vec![XNode::Document];
    for step in &orig.steps[..orig.steps.len() - plan.suffix_len] {
        matched = if strip_keeps_step(step, ts_field) {
            apply_step(&matched, step, &ctx)?
        } else {
            apply_step(&matched, &strip_step(step, ts_field), &ctx)?
        };
    }
    let mut out = Vec::with_capacity(matched.len());
    // Matches are mostly siblings: their parent's target is looked up once.
    let mut last_parent: Option<(NodeId, PathTarget)> = None;
    for n in matched {
        let XNode::Node(n) = n else { continue };
        let target = match doc.parent(n) {
            None => PathTarget::of(doc, n),
            Some(p) => {
                let pt = match last_parent {
                    Some((q, t)) if q == p => t,
                    _ => PathTarget::of(doc, p),
                };
                last_parent = Some((p, pt));
                pt.child(doc, n)
            }
        };
        match target {
            PathTarget::Unpinned => {}
            PathTarget::At(t) => out.push(t),
            PathTarget::Hidden => {
                let path = IdPath::of_node(doc, n).unwrap_or_default();
                return Err(CoreError::Protocol(format!("export: no node at {path}")));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// The id paths of the nodes `matched_final_nodes` returns, built per
/// match: the reference implementation the sub-answer tests compare the
/// node-id pipeline against.
pub fn matched_final_paths(
    plan: &QueryPlan,
    db: &SiteDatabase,
    now: f64,
) -> CoreResult<Vec<IdPath>> {
    let Expr::Path(orig) = &plan.expr else {
        return Err(CoreError::Query("non-path plan".into()));
    };
    let dist_len = orig.steps.len() - plan.suffix_len;
    let dist_path = LocationPath {
        absolute: true,
        steps: orig.steps[..dist_len].to_vec(),
    };
    let stripped = strip_consistency(&Expr::Path(dist_path), &db.service().timestamp_field);
    let nodes = eval_nodes(&stripped, db.doc(), now)?;
    let mut out = Vec::new();
    for n in nodes {
        if let XNode::Node(id) = n {
            if let Some(p) = IdPath::of_node(db.doc(), id) {
                out.push(p);
            }
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Evaluates the full original query (consistency stripped) over the site
/// fragment and builds the user-facing answer: a `<result>` document with
/// deep copies of the selected subtrees (internal attributes removed), or
/// a `<value>` element for scalar-valued queries like `count(...)`.
pub fn extract_user_answer(plan: &QueryPlan, db: &SiteDatabase, now: f64) -> CoreResult<Document> {
    let stripped = strip_consistency(&plan.expr, &db.service().timestamp_field);
    let vars = sensorxpath::Vars::new();
    let mut ctx = sensorxpath::EvalContext::new(
        db.doc(),
        db.doc().root().map(XNode::Node).unwrap_or(XNode::Document),
        &vars,
    );
    ctx.now = now;
    let value = sensorxpath::evaluate(&stripped, &ctx)?;
    let nodes = match value {
        Value::Nodes(ns) => ns,
        scalar => {
            // Scalar answer (count(), boolean(), arithmetic, ...).
            let (mut out, root) = Document::with_root("result");
            let v = out.create_element("value");
            out.append_child(root, v);
            out.set_text_content(v, scalar.string(db.doc()));
            return Ok(out);
        }
    };
    let (mut out, root) = Document::with_root("result");
    for n in nodes {
        match n {
            XNode::Node(id) => {
                let copied = db.doc().deep_copy_into(id, &mut out);
                out.append_child(root, copied);
            }
            XNode::Attr(id, idx) => {
                if let Some(a) = db.doc().attrs(id).get(idx as usize) {
                    let e = out.create_element("attribute");
                    out.set_attr(e, "name", a.name.clone());
                    out.set_attr(e, "value", a.value.clone());
                    out.append_child(root, e);
                }
            }
            XNode::Document => {}
        }
    }
    crate::fragment::strip_internal_attrs(&mut out, &db.service().timestamp_field);
    Ok(out)
}

fn eval_nodes(expr: &Expr, doc: &Document, now: f64) -> CoreResult<Vec<XNode>> {
    let vars = sensorxpath::Vars::new();
    let mut ctx = sensorxpath::EvalContext::new(
        doc,
        doc.root().map(XNode::Node).unwrap_or(XNode::Document),
        &vars,
    );
    ctx.now = now;
    match sensorxpath::evaluate(expr, &ctx)? {
        Value::Nodes(ns) => Ok(ns),
        _ => Err(CoreError::Query("query does not select nodes".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::SiteDatabase;
    use crate::service::Service;
    use sensorxml::parse;

    fn master() -> Document {
        parse(
            r#"<usRegion id="NE"><state id="PA"><county id="Allegheny"><city id="Pittsburgh">
                 <neighborhood id="Oakland" zipcode="15213">
                   <available-spaces>8</available-spaces>
                   <block id="1">
                     <parkingSpace id="1"><available>yes</available><price>25</price></parkingSpace>
                     <parkingSpace id="2"><available>no</available><price>0</price></parkingSpace>
                   </block>
                   <block id="2">
                     <parkingSpace id="1"><available>yes</available><price>0</price></parkingSpace>
                   </block>
                 </neighborhood>
                 <neighborhood id="Shadyside">
                   <block id="1">
                     <parkingSpace id="1"><available>yes</available><price>25</price></parkingSpace>
                   </block>
                 </neighborhood>
               </city></county></state></usRegion>"#,
        )
        .unwrap()
    }

    fn pgh() -> IdPath {
        IdPath::from_pairs([
            ("usRegion", "NE"),
            ("state", "PA"),
            ("county", "Allegheny"),
            ("city", "Pittsburgh"),
        ])
    }

    const Q_PAPER: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
        /city[@id='Pittsburgh']/neighborhood[@id='Oakland' or @id='Shadyside']\
        /block[@id='1']/parkingSpace[available='yes']";

    fn plan(q: &str) -> QueryPlan {
        let e = sensorxpath::parse(q).unwrap();
        plan_query(&e, &Service::parking()).unwrap()
    }

    #[test]
    fn plan_shapes() {
        let p = plan(Q_PAPER);
        assert_eq!(p.dist_steps.len(), 7);
        assert_eq!(p.suffix_len, 0);
        assert_eq!(p.nesting_depth, 0);
        assert!(p.fetch_subtree_at.is_none());
        assert!(matches!(&p.dist_steps[6].kind, StepKind::Tag(t) if t == "parkingSpace"));
        assert_eq!(p.dist_steps[6].prest.len(), 1); // available='yes'
        assert!(p.dist_steps[6].pid.is_empty());
    }

    #[test]
    fn plan_detects_nesting_and_anchor() {
        let p = plan(
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
             /neighborhood[@id='O']/block[@id='1']\
             /parkingSpace[not(price > ../parkingSpace/price)]",
        );
        assert_eq!(p.nesting_depth, 1);
        // `..` pulls the anchor from parkingSpace (6) to block (5).
        assert_eq!(p.fetch_subtree_at, Some(5));
    }

    #[test]
    fn plan_suffix_split() {
        let p = plan("/usRegion[@id='NE']/state[@id='PA']//parkingSpace/available");
        // usRegion, state, //, parkingSpace are distribution; available is suffix.
        assert_eq!(p.dist_steps.len(), 4);
        assert_eq!(p.suffix_len, 1);
        assert!(matches!(p.dist_steps[2].kind, StepKind::Descendant));
    }

    #[test]
    fn plan_rejects_relative_and_non_path() {
        let svc = Service::parking();
        let e = sensorxpath::parse("a/b").unwrap();
        assert!(plan_query(&e, &svc).is_err());
        let e2 = sensorxpath::parse("count(/usRegion)").unwrap();
        assert!(plan_query(&e2, &svc).is_err());
    }

    fn owned_all() -> SiteDatabase {
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &IdPath::from_pairs([("usRegion", "NE")]), true)
            .unwrap();
        db
    }

    #[test]
    fn qeg_complete_data_produces_no_asks() {
        let db = owned_all();
        let p = plan(Q_PAPER);
        let asks = exec::execute(&p, &db, 0.0, false).unwrap();
        assert!(asks.is_empty(), "asks: {asks:?}");
        // And extraction matches the expected two available spaces.
        let matched = matched_final_paths(&p, &db, 0.0).unwrap();
        assert_eq!(matched.len(), 2);
        let answer = extract_user_answer(&p, &db, 0.0).unwrap();
        let root = answer.root().unwrap();
        assert_eq!(answer.child_elements(root).count(), 2);
        for c in answer.child_elements(root) {
            assert_eq!(answer.name(c), "parkingSpace");
            assert!(answer.attr(c, "status").is_none());
        }
    }

    #[test]
    fn qeg_detects_missing_neighborhood() {
        // Site owns Oakland subtree only; Shadyside is an incomplete stub.
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &pgh().child("neighborhood", "Oakland"), true)
            .unwrap();
        let p = plan(Q_PAPER);
        let asks = exec::execute(&p, &db, 0.0, false).unwrap();
        assert_eq!(asks.len(), 1);
        let ask = &asks[0];
        assert_eq!(ask.kind, AskKind::Query);
        assert_eq!(ask.path, pgh().child("neighborhood", "Shadyside"));
        assert_eq!(ask.step, 5);
        // Generalized subquery keeps only id predicates downstream.
        let sub = generalized_subquery(&p, ask);
        assert_eq!(
            sub,
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
             /city[@id='Pittsburgh']/neighborhood[@id='Shadyside']/block[@id = '1']/parkingSpace"
        );
    }

    #[test]
    fn qeg_id_mismatch_prunes_subqueries() {
        // Owning only Oakland, a query for Oakland alone needs no gather.
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &pgh().child("neighborhood", "Oakland"), true)
            .unwrap();
        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                 /city[@id='Pittsburgh']/neighborhood[@id='Oakland']\
                 /block[@id='2']/parkingSpace";
        let p = plan(q);
        assert!(exec::execute(&p, &db, 0.0, false).unwrap().is_empty());
        let matched = matched_final_paths(&p, &db, 0.0).unwrap();
        assert_eq!(matched.len(), 1);
    }

    #[test]
    fn qeg_descendant_query() {
        let db = owned_all();
        let p = plan("/usRegion[@id='NE']//parkingSpace[price='0']");
        let asks = exec::execute(&p, &db, 0.0, false).unwrap();
        assert!(asks.is_empty(), "asks: {asks:?}");
        let matched = matched_final_paths(&p, &db, 0.0).unwrap();
        assert_eq!(matched.len(), 2);
    }

    #[test]
    fn qeg_descendant_with_missing_data_asks() {
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &pgh().child("neighborhood", "Oakland"), true)
            .unwrap();
        let p = plan("/usRegion[@id='NE']//parkingSpace[price='0']");
        let asks = exec::execute(&p, &db, 0.0, false).unwrap();
        // Shadyside (incomplete) must be asked for.
        assert!(asks
            .iter()
            .any(|a| a.path == pgh().child("neighborhood", "Shadyside")));
    }

    #[test]
    fn qeg_nested_predicate_gate() {
        // Cache has Oakland id-complete only: the min-price query (nesting
        // depth 1, anchored at block) must fetch the block subtree.
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &pgh(), false).unwrap();
        // city owned, neighborhoods incomplete.
        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                 /city[@id='Pittsburgh']/neighborhood[@id='Oakland']/block[@id='1']\
                 /parkingSpace[not(price > ../parkingSpace/price)]";
        let p = plan(q);
        assert_eq!(p.fetch_subtree_at, Some(5));
        let asks = exec::execute(&p, &db, 0.0, false).unwrap();
        assert!(!asks.is_empty());
        // With the whole document owned, the same query runs locally.
        let db_full = owned_all();
        let asks2 = exec::execute(&p, &db_full, 0.0, false).unwrap();
        assert!(asks2.is_empty(), "asks: {asks2:?}");
        let matched = matched_final_paths(&p, &db_full, 0.0).unwrap();
        assert_eq!(matched.len(), 1); // the price-0 space in block 1
    }

    #[test]
    fn qeg_consistency_stale_ask() {
        // A cached (complete) block with an old timestamp fails the
        // freshness predicate and produces a Stale ask.
        let m = master();
        let mut owner = SiteDatabase::new(Service::parking());
        owner
            .bootstrap_owned(&m, &pgh().child("neighborhood", "Oakland"), true)
            .unwrap();
        let sp = pgh()
            .child("neighborhood", "Oakland")
            .child("block", "1")
            .child("parkingSpace", "1");
        owner
            .apply_update(&sp, &[("available".into(), "yes".into())], 100.0)
            .unwrap();
        let frag = owner
            .export_subtrees(&[pgh().child("neighborhood", "Oakland").child("block", "1")])
            .unwrap();
        let mut cache = SiteDatabase::new(Service::parking());
        cache.merge_fragment(&frag).unwrap();

        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                 /city[@id='Pittsburgh']/neighborhood[@id='Oakland']/block[@id='1']\
                 /parkingSpace[available='yes'][@timestamp > now() - 30]";
        let p = plan(q);
        // Query posed at t=200: data from t=100 is 100s old, tolerance 30s.
        let asks = exec::execute(&p, &cache, 200.0, false).unwrap();
        assert!(asks.iter().any(|a| a.kind == AskKind::Stale));
        // Fresh enough at t=110.
        let asks2 = exec::execute(&p, &cache, 110.0, false).unwrap();
        assert!(asks2.is_empty(), "asks: {asks2:?}");
        // The owner itself ignores consistency predicates.
        let asks3 = exec::execute(&p, &owner, 200.0, false).unwrap();
        assert!(asks3.is_empty(), "asks: {asks3:?}");
    }

    #[test]
    fn native_engine_runs_without_programs() {
        let db = owned_all();
        let native = QegFactory::new(Arc::new(NativeWalk));
        let pass = native.run(&plan(Q_PAPER), &db, 0.0, false).unwrap();
        assert!(pass.asks.is_empty());
        assert_eq!(pass.create_s, 0.0);
        assert_eq!(native.skeleton_hits() + native.skeleton_misses(), 0);
    }

    #[test]
    fn strip_consistency_removes_only_freshness() {
        let e = sensorxpath::parse(
            "/a[@id='1']/b[@timestamp > now() - 30][price > 0]",
        )
        .unwrap();
        let stripped = strip_consistency(&e, "timestamp");
        let text = stripped.to_string();
        assert!(!text.contains("now()"));
        assert!(text.contains("price > 0"));
        assert!(text.contains("@id = '1'"));
    }
}
