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
//! A [`QegFactory`] runs passes with one of three engines ([`QegEngine`]):
//!
//! * [`QegEngine::Native`] (the default) — `exec::execute` walks the site
//!   database by plan and returns the asks directly: no program, no output
//!   document, no re-scan;
//! * [`QegEngine::XsltFast`] — the paper's technique: the plan compiled into
//!   an XSLT program whose templates emit `iris-ask` placeholders, created
//!   from a compiled skeleton per query *shape* with only the
//!   query-dependent XPath slots patched
//!   ([`sensorxslt::Compiled::patch_slots`], the §4 optimization), then
//!   executed and scanned by [`extract_asks`];
//! * [`QegEngine::XsltNaive`] — the same program rendered to XSLT *text*,
//!   then parsed and compiled from scratch (what the unoptimized prototype
//!   did through standard interfaces).
//!
//! The two XSLT engines are the native walk's differential oracle
//! (`tests/qeg_native_prop.rs`: equal asks and errors) and the two arms of
//! the paper's Fig. 11 creation ablation (`exp_micro`).
//!
//! The gather phase differs from the paper in one mechanical respect,
//! documented in DESIGN.md: instead of splicing subquery answers into the
//! annotated output, the agent *merges* answer fragments into its site
//! database (the cache-fill of §3.3) and re-runs the QEG pass until no
//! asks remain; the final answer is then extracted from the now sufficient
//! fragment. This is behaviourally equivalent and makes partial-match
//! caching and answer assembly one mechanism.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use irisobs::Counter;
use parking_lot::Mutex;
use sensorxml::Document;
use sensorxpath::analysis::{split_step_predicates, SplitPredicates};
use sensorxpath::{Axis, Expr, LocationPath, NodeTest, Step, Value, XNode};
use sensorxslt::{
    compile, AttrPart, Compiled, ExecOptions, ExprSlot, Instruction, Pattern, PatternStep,
    Stylesheet, Template,
};

use crate::error::{CoreError, CoreResult};
use crate::fragment::SiteDatabase;
use crate::idable::IdPath;
use crate::service::Service;

mod exec;

/// How one distribution step selects children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepKind {
    /// `child::tag` over an IDable tag.
    Tag(String),
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
    IdEquals(String),
    /// Anything else: the optimized conjunction, for the XPath evaluator.
    Expr(Expr),
}

impl StepTest {
    fn of(preds: &[Expr]) -> StepTest {
        match preds {
            [] => StepTest::True,
            [one] => match one.as_id_equals() {
                Some(id) => StepTest::IdEquals(id.to_string()),
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
        let full_test = if rest.is_empty() {
            StepTest::of(&id)
        } else {
            StepTest::of(&[id.as_slice(), rest.as_slice()].concat())
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

    fn pid_source(&self) -> String {
        if !self.clean {
            return "true()".to_string();
        }
        sensorxpath::optimize(&Expr::conjunction(self.pid.clone())).to_string()
    }

    fn full_source(&self) -> String {
        let mut all = self.pid.clone();
        all.extend(self.prest.clone());
        sensorxpath::optimize(&Expr::conjunction(all)).to_string()
    }

    fn pcons_source(&self) -> String {
        sensorxpath::optimize(&Expr::conjunction(self.pcons.clone())).to_string()
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

    let mut dist_steps: Vec<DistStep> = Vec::new();
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

    Ok(QueryPlan {
        expr: expr.clone(),
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

    fn parse(s: &str) -> Option<AskKind> {
        match s {
            "query" => Some(AskKind::Query),
            "stale" => Some(AskKind::Stale),
            "subtree" => Some(AskKind::Subtree),
            _ => None,
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
// Stylesheet generation
// ---------------------------------------------------------------------

/// Shape key for the fast-path skeleton cache: everything that determines
/// template structure (but not the predicate contents).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShapeKey {
    steps: Vec<(u8, Option<String>, bool, bool, bool, bool)>,
    fetch_at: Option<usize>,
    ignore_complete: bool,
}

impl ShapeKey {
    fn of(plan: &QueryPlan, ignore_complete: bool) -> ShapeKey {
        ShapeKey {
            ignore_complete,
            steps: plan
                .dist_steps
                .iter()
                .map(|s| {
                    let (d, tag) = match &s.kind {
                        StepKind::Tag(t) => (0u8, Some(t.clone())),
                        StepKind::Wildcard => (1, None),
                        StepKind::Descendant => (2, None),
                    };
                    (
                        d,
                        tag,
                        s.pid.is_empty(),
                        s.prest.is_empty(),
                        s.pcons.is_empty(),
                        s.clean,
                    )
                })
                .collect(),
            fetch_at: plan.fetch_subtree_at,
        }
    }
}

/// The query-dependent slots of a generated stylesheet, for patching.
#[derive(Debug, Clone, Default)]
struct StepSlots {
    pid: Option<ExprSlot>,
    full: Option<ExprSlot>,
    pcons: Option<ExprSlot>,
    gate: Option<ExprSlot>,
    /// The descend select when it embeds the *next* step's id predicate
    /// (`tag[@id = 'x']`); query-dependent, so patched alongside the rest.
    next_sel: Option<ExprSlot>,
}

/// A ready-to-run XSLT QEG program (the two XSLT engines).
#[derive(Debug, Clone)]
pub struct QegProgram {
    pub compiled: Compiled,
    start_mode: String,
}

impl QegProgram {
    /// Runs the program against a site database, returning the annotated
    /// output and the extracted asks.
    pub fn execute(&self, db: &SiteDatabase, now: f64) -> CoreResult<QegOutcome> {
        let output = sensorxslt::apply_with_options(
            &self.compiled,
            db.doc(),
            ExecOptions {
                now,
                start_mode: Some(self.start_mode.clone()),
                ..ExecOptions::default()
            },
        )?;
        let asks = extract_asks(&output)?;
        Ok(QegOutcome { output, asks })
    }
}

/// Result of one XSLT QEG run.
#[derive(Debug)]
pub struct QegOutcome {
    /// The annotated XSLT output (copied id skeleton + `iris-ask`
    /// placeholders).
    pub output: Document,
    /// The gather requests found in the output.
    pub asks: Vec<Ask>,
}

impl QegOutcome {
    /// True when the local fragment sufficed.
    pub fn is_complete(&self) -> bool {
        self.asks.is_empty()
    }
}

/// Walks a QEG output document and collects the `iris-ask` placeholders,
/// reconstructing each target's id path from the placeholder's copied
/// ancestors.
pub fn extract_asks(output: &Document) -> CoreResult<Vec<Ask>> {
    let Some(root) = output.root() else {
        return Ok(Vec::new());
    };
    let mut asks = Vec::new();
    for n in output.descendants(root) {
        if output.name(n) != "iris-ask" {
            continue;
        }
        let tag = output
            .attr(n, "tag")
            .ok_or_else(|| CoreError::Protocol("iris-ask without tag".into()))?;
        let id = output
            .attr(n, "id")
            .ok_or_else(|| CoreError::Protocol("iris-ask without id".into()))?;
        let kind = output
            .attr(n, "kind")
            .and_then(AskKind::parse)
            .ok_or_else(|| CoreError::Protocol("iris-ask with bad kind".into()))?;
        let step = output
            .attr(n, "step")
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(usize::MAX);
        // Ancestors: every element between the placeholder and the <result>
        // wrapper is a copied IDable node carrying its id.
        let mut rev: Vec<(String, String)> = vec![(tag.to_string(), id.to_string())];
        for a in output.ancestors(n) {
            if a == root {
                break;
            }
            let a_id = output.attr(a, "id").ok_or_else(|| {
                CoreError::Protocol("iris-ask ancestor without id".into())
            })?;
            rev.push((output.name(a).to_string(), a_id.to_string()));
        }
        rev.reverse();
        let mut dedup_path = IdPath::root();
        for (t, i) in rev {
            dedup_path = dedup_path.child(t, i);
        }
        asks.push(Ask { path: dedup_path, kind, step });
    }
    // The same node can be asked for via several branches; deduplicate.
    asks.sort_by(|a, b| (&a.path, a.kind.as_str()).cmp(&(&b.path, b.kind.as_str())));
    asks.dedup();
    Ok(asks)
}

/// How a site runs its QEG passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QegEngine {
    /// Walk the site database by plan (`exec::execute`); nothing is
    /// created per query.
    #[default]
    Native,
    /// The paper's XSLT program, created fast: reuse a compiled skeleton
    /// per query shape and re-parse only the query-dependent predicate
    /// slots (§4).
    XsltFast,
    /// The paper's XSLT program, created naively: render → parse → compile
    /// the full stylesheet per query (Fig. 11's unoptimized arm).
    XsltNaive,
}

/// One QEG pass's asks and its create/execute split (seconds).
#[derive(Debug)]
pub struct QegPass {
    pub asks: Vec<Ask>,
    /// Program creation time (≈ 0 for [`QegEngine::Native`]).
    pub create_s: f64,
    /// Execution time, ask extraction included.
    pub exec_s: f64,
}

/// Upper bound on distinct query shapes kept by the fast-path skeleton
/// cache; beyond this the least-recently-used shape is evicted.
pub const SKELETON_CACHE_CAP: usize = 64;

/// One cached compiled skeleton plus the bookkeeping for LRU eviction.
#[derive(Debug)]
struct SkeletonEntry {
    compiled: Compiled,
    slots: Vec<StepSlots>,
    start_mode: String,
    last_used: u64,
}

/// The bounded skeleton cache: shape -> compiled skeleton, with a logical
/// clock driving least-recently-used eviction.
#[derive(Debug, Default)]
struct SkeletonCache {
    map: HashMap<ShapeKey, SkeletonEntry>,
    clock: u64,
}

impl SkeletonCache {
    fn touch(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evicts least-recently-used entries until the cache fits `cap`.
    /// Returns how many entries were dropped.
    fn enforce_cap(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.map.len() > cap {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

/// Runs QEG passes with the configured [`QegEngine`], and creates the XSLT
/// programs of the two XSLT engines.
///
/// The factory is shared across read workers (`Arc<QegFactory>` in the
/// sharded runtime): creation takes `&self`, the skeleton cache sits behind
/// a mutex held only for lookup/insert (never across a compile), and the
/// counters are atomics. Fast-path cache *hits* therefore stay cheap and
/// concurrent — a miss compiles outside the lock, so a burst of new shapes
/// doesn't serialize the pool either. The native engine touches neither
/// the cache nor the counters: `qeg.created` and the skeleton series read
/// 0 under it.
#[derive(Debug)]
pub struct QegFactory {
    /// The service this factory generates programs for (kept for
    /// diagnostics; codegen itself is schema-independent).
    pub service: Arc<Service>,
    engine: QegEngine,
    skeletons: Mutex<SkeletonCache>,
    // Counters are `Arc<irisobs::Counter>` so the observability plane can
    // adopt the *same storage* as named series (no double counting, no
    // second update on the hot path).
    created: Arc<Counter>,
    skeleton_hits: Arc<Counter>,
    skeleton_misses: Arc<Counter>,
    skeleton_evictions: Arc<Counter>,
}

impl QegFactory {
    /// A factory for `service` running the given engine.
    pub fn new(service: Arc<Service>, engine: QegEngine) -> QegFactory {
        QegFactory {
            service,
            engine,
            skeletons: Mutex::new(SkeletonCache::default()),
            created: Arc::new(Counter::new()),
            skeleton_hits: Arc::new(Counter::new()),
            skeleton_misses: Arc::new(Counter::new()),
            skeleton_evictions: Arc::new(Counter::new()),
        }
    }

    /// The factory's counters as `(series name, shared storage)` pairs, for
    /// adoption into a metrics registry.
    pub fn counter_handles(&self) -> [(&'static str, Arc<Counter>); 4] {
        [
            ("qeg.created", self.created.clone()),
            ("qeg.skeleton_hits", self.skeleton_hits.clone()),
            ("qeg.skeleton_misses", self.skeleton_misses.clone()),
            ("qeg.skeleton_evictions", self.skeleton_evictions.clone()),
        ]
    }

    /// The configured engine.
    pub fn engine(&self) -> QegEngine {
        self.engine
    }

    /// Runs one QEG pass over `db` for a query posed at `now`; with
    /// `ignore_complete` cached (`complete`) data is treated as stale.
    pub fn run(
        &self,
        plan: &QueryPlan,
        db: &SiteDatabase,
        now: f64,
        ignore_complete: bool,
    ) -> CoreResult<QegPass> {
        let t0 = Instant::now();
        if self.engine == QegEngine::Native {
            let asks = exec::execute(plan, db, now, ignore_complete)?;
            return Ok(QegPass { asks, create_s: 0.0, exec_s: t0.elapsed().as_secs_f64() });
        }
        let program = self.create_with(plan, ignore_complete)?;
        let create_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let asks = program.execute(db, now)?.asks;
        Ok(QegPass { asks, create_s, exec_s: t1.elapsed().as_secs_f64() })
    }

    /// XSLT programs created.
    pub fn created(&self) -> u64 {
        self.created.get()
    }

    /// Fast-path skeleton cache hits.
    pub fn skeleton_hits(&self) -> u64 {
        self.skeleton_hits.get()
    }

    /// Fast-path skeleton cache misses (shape not cached; full compile).
    pub fn skeleton_misses(&self) -> u64 {
        self.skeleton_misses.get()
    }

    /// Skeletons dropped by the LRU bound ([`SKELETON_CACHE_CAP`]).
    pub fn skeleton_evictions(&self) -> u64 {
        self.skeleton_evictions.get()
    }

    /// Distinct shapes currently cached (≤ [`SKELETON_CACHE_CAP`]).
    pub fn skeleton_cache_len(&self) -> usize {
        self.skeletons.lock().map.len()
    }

    /// Builds the XSLT QEG program for a plan.
    pub fn create(&self, plan: &QueryPlan) -> CoreResult<QegProgram> {
        self.create_with(plan, false)
    }

    /// Builds an XSLT QEG program — naively under [`QegEngine::XsltNaive`],
    /// from the skeleton cache otherwise (a native factory asked for its
    /// oracle program uses the fast path). With `ignore_complete` the
    /// generated program treats cached (`complete`) data as stale and
    /// always refreshes from the owner — the lever behind the paper's
    /// controlled cache-hit-rate experiments (Fig. 10's "caching with no
    /// hits").
    pub fn create_with(
        &self,
        plan: &QueryPlan,
        ignore_complete: bool,
    ) -> CoreResult<QegProgram> {
        self.created.inc();
        match self.engine {
            QegEngine::XsltNaive => {
                // Full round trip through stylesheet *text*, like the
                // unoptimized prototype.
                let (sheet, _slots, start_mode) =
                    generate_stylesheet(plan, ignore_complete);
                let text = sheet.to_xml_text();
                let reparsed = sensorxslt::parse_stylesheet(&text)?;
                let compiled = compile(reparsed)?;
                Ok(QegProgram { compiled, start_mode })
            }
            QegEngine::XsltFast | QegEngine::Native => {
                let key = ShapeKey::of(plan, ignore_complete);
                let hit = {
                    let mut cache = self.skeletons.lock();
                    let stamp = cache.touch();
                    cache.map.get_mut(&key).map(|entry| {
                        entry.last_used = stamp;
                        (entry.compiled.clone(), slot_updates(plan, &entry.slots),
                         entry.start_mode.clone())
                    })
                };
                if let Some((mut compiled, updates, start_mode)) = hit {
                    self.skeleton_hits.inc();
                    compiled.patch_slots(&updates)?;
                    return Ok(QegProgram { compiled, start_mode });
                }
                self.skeleton_misses.inc();
                // Compile outside the lock; a racing worker compiling the
                // same shape just overwrites with an identical skeleton.
                let (sheet, slots, start_mode) = generate_stylesheet(plan, ignore_complete);
                let compiled = compile(sheet)?;
                let evicted = {
                    let mut cache = self.skeletons.lock();
                    let stamp = cache.touch();
                    cache.map.insert(
                        key,
                        SkeletonEntry {
                            compiled: compiled.clone(),
                            slots,
                            start_mode: start_mode.clone(),
                            last_used: stamp,
                        },
                    );
                    cache.enforce_cap(SKELETON_CACHE_CAP)
                };
                if evicted > 0 {
                    self.skeleton_evictions.add(evicted);
                }
                Ok(QegProgram { compiled, start_mode })
            }
        }
    }
}

/// The pid-narrowed descend select for a tag step: `tag[P_id]`.
fn narrowed_select(tag: &str, ds: &DistStep) -> String {
    format!("{tag}[{}]", ds.pid_source())
}

fn slot_updates(plan: &QueryPlan, slots: &[StepSlots]) -> Vec<(ExprSlot, String)> {
    let mut updates = Vec::new();
    for (i, (ds, ss)) in plan.dist_steps.iter().zip(slots).enumerate() {
        if let Some(slot) = ss.pid {
            updates.push((slot, ds.pid_source()));
        }
        if let Some(slot) = ss.full {
            updates.push((slot, ds.full_source()));
        }
        if let Some(slot) = ss.pcons {
            updates.push((slot, ds.pcons_source()));
        }
        // Gate tests embed P_id; regenerate them too.
        if let Some(slot) = ss.gate {
            updates.push((slot, gate_source(ds)));
        }
        // Descend selects embed the *next* step's P_id.
        if let Some(slot) = ss.next_sel {
            let nds = &plan.dist_steps[i + 1];
            if let StepKind::Tag(t) = &nds.kind {
                updates.push((slot, narrowed_select(t, nds)));
            }
        }
    }
    updates
}

/// Test used at the subtree pre-fetch step: the id predicate holds but the
/// subtree is not fully local.
fn gate_source(ds: &DistStep) -> String {
    format!(
        "({}) and count(descendant-or-self::*[@status='incomplete' or @status='id-complete']) > 0",
        ds.pid_source()
    )
}

/// Generates the QEG stylesheet for a plan. Returns the stylesheet, the
/// per-step query-dependent slots (for fast-path patching), and the start
/// mode.
fn generate_stylesheet(
    plan: &QueryPlan,
    ignore_complete: bool,
) -> (Stylesheet, Vec<StepSlots>, String) {
    let mut sheet = Stylesheet::new();
    let mut slots: Vec<StepSlots> = Vec::with_capacity(plan.dist_steps.len());

    // Shared slots.
    let sel_idable = sheet.slot("*[@status]");
    let sel_id_attr = sheet.slot("@id");
    let sel_name = sheet.slot("name()");
    let final_idx = plan.final_step();

    for (i, ds) in plan.dist_steps.iter().enumerate() {
        let mode = format!("s{i}");
        match &ds.kind {
            StepKind::Descendant => {
                slots.push(StepSlots::default());
                // The descendant search template lives in mode s{i} and
                // matches every IDable element; it tries the next step on
                // the node itself and keeps searching below.
                let next_mode = format!("s{}", i + 1);
                let next_ds = plan
                    .dist_steps
                    .get(i + 1)
                    .expect("descendant marker is never last");
                let name_test = match &next_ds.kind {
                    StepKind::Tag(t) => format!("name() = '{t}'"),
                    _ => "true()".to_string(),
                };
                let t_name = sheet.slot(name_test);
                let t_missing = sheet.slot("@status='incomplete'");
                let self_sel = sheet.slot(".");
                sheet.add_template(Template {
                    pattern: Pattern::any_element(),
                    mode: Some(mode.clone()),
                    priority: None,
                    body: vec![Instruction::Choose {
                        branches: vec![(
                            t_missing,
                            // Cannot search below an incomplete node.
                            vec![ask_instruction(AskKind::Query, i, sel_id_attr, sel_name)],
                        )],
                        otherwise: vec![
                            Instruction::If {
                                test: t_name,
                                body: vec![Instruction::ApplyTemplates {
                                    select: Some(self_sel),
                                    mode: Some(next_mode),
                                }],
                            },
                            // Keep searching inside a copied shell so that
                            // deeper asks carry their ancestry.
                            Instruction::Copy(vec![
                                Instruction::CopyOf(sel_id_attr),
                                Instruction::ApplyTemplates {
                                    select: Some(sel_idable),
                                    mode: Some(mode.clone()),
                                },
                            ]),
                        ],
                    }],
                });
            }
            StepKind::Tag(_) | StepKind::Wildcard => {
                let is_final = i == final_idx;
                let pid = sheet.slot(ds.pid_source());
                let full = sheet.slot(ds.full_source());
                let pcons = if ds.pcons.is_empty() {
                    None
                } else {
                    Some(sheet.slot(ds.pcons_source()))
                };
                let gate = if plan.fetch_subtree_at == Some(i) {
                    Some(sheet.slot(gate_source(ds)))
                } else {
                    None
                };

                // Descend select for the next step. When the next step has a
                // clean id predicate, embed it in the select
                // (`tag[@id = 'x']`) so the evaluator's sibling-index fast
                // path finds the child in O(1) instead of applying templates
                // to every same-tag sibling. Semantically equivalent: every
                // branch of the next step's template is gated on its P_id,
                // so a node failing the select predicate contributes
                // nothing. The embedded id makes the slot query-dependent;
                // it is recorded in `StepSlots` and patched like the rest.
                let next_sel = (!is_final).then(|| match &plan.dist_steps[i + 1].kind {
                    StepKind::Tag(t) => {
                        let nds = &plan.dist_steps[i + 1];
                        if nds.clean && !nds.pid.is_empty() {
                            (sheet.slot(narrowed_select(t, nds)), true)
                        } else {
                            (sheet.slot(t.clone()), false)
                        }
                    }
                    StepKind::Wildcard | StepKind::Descendant => (sel_idable, false),
                });
                slots.push(StepSlots {
                    pid: Some(pid),
                    full: Some(full),
                    pcons,
                    gate,
                    next_sel: next_sel
                        .and_then(|(slot, patched)| patched.then_some(slot)),
                });

                // What to do once the node qualifies.
                let descend = if is_final {
                    // Collect the whole subtree: recurse in collect mode.
                    vec![Instruction::Copy(vec![
                        Instruction::CopyOf(sel_id_attr),
                        Instruction::ApplyTemplates {
                            select: Some(sel_idable),
                            mode: Some("c".to_string()),
                        },
                    ])]
                } else {
                    let next_mode = format!("s{}", i + 1);
                    let (sel, _) = next_sel.expect("non-final step has a next select");
                    vec![Instruction::Copy(vec![
                        Instruction::CopyOf(sel_id_attr),
                        Instruction::ApplyTemplates {
                            select: Some(sel),
                            mode: Some(next_mode),
                        },
                    ])]
                };

                let mut branches: Vec<(ExprSlot, Vec<Instruction>)> = Vec::new();
                if let Some(g) = gate {
                    branches.push((
                        g,
                        vec![ask_instruction(AskKind::Subtree, i, sel_id_attr, sel_name)],
                    ));
                }
                // owned: full predicate decides; consistency ignored.
                let owned_test = sheet.slot("@status='owned'");
                branches.push((
                    owned_test,
                    vec![Instruction::If { test: full, body: descend.clone() }],
                ));
                // complete: additionally check freshness (or, when cached
                // data is administratively ignored, always refresh).
                let complete_test = sheet.slot("@status='complete'");
                let complete_body = if ignore_complete {
                    // Refresh the *whole cached unit* from its owner (one
                    // subtree fetch) instead of descending and asking per
                    // leaf: the cache fills in subtree units, so it
                    // refreshes in subtree units too.
                    vec![Instruction::If {
                        test: pid,
                        body: vec![ask_instruction(
                            AskKind::Stale,
                            usize::MAX,
                            sel_id_attr,
                            sel_name,
                        )],
                    }]
                } else {
                    match pcons {
                        None => vec![Instruction::If { test: full, body: descend.clone() }],
                        Some(pc) => vec![Instruction::If {
                            test: full,
                            body: vec![Instruction::Choose {
                                branches: vec![(pc, descend.clone())],
                                otherwise: vec![ask_instruction(
                                    AskKind::Stale,
                                    i,
                                    sel_id_attr,
                                    sel_name,
                                )],
                            }],
                        }],
                    }
                };
                branches.push((complete_test, complete_body));
                // id-complete: recurse without local info only when the
                // predicates are id-only, this is not the final step, and
                // no subtree gate applies.
                let idc_test = sheet.slot("@status='id-complete'");
                let idc_body = if !is_final
                    && ds.prest.is_empty()
                    && ds.pcons.is_empty()
                    && ds.clean
                    && plan.fetch_subtree_at != Some(i)
                {
                    vec![Instruction::If { test: pid, body: descend.clone() }]
                } else {
                    vec![Instruction::If {
                        test: pid,
                        body: vec![ask_instruction(
                            AskKind::Query,
                            i + 1,
                            sel_id_attr,
                            sel_name,
                        )],
                    }]
                };
                branches.push((idc_test, idc_body));
                // otherwise = incomplete: ask if the id predicate allows.
                let otherwise = vec![Instruction::If {
                    test: pid,
                    body: vec![ask_instruction(
                        AskKind::Query,
                        i + 1,
                        sel_id_attr,
                        sel_name,
                    )],
                }];

                let pattern = match &ds.kind {
                    StepKind::Tag(t) if i == 0 => Pattern {
                        absolute: true,
                        steps: vec![PatternStep {
                            test: NodeTest::Name(t.clone()),
                            predicates: vec![],
                        }],
                    },
                    StepKind::Tag(t) => Pattern::element(t.clone()),
                    _ => Pattern::any_element(),
                };
                sheet.add_template(Template {
                    pattern,
                    mode: Some(mode.clone()),
                    priority: None,
                    body: vec![Instruction::Choose { branches, otherwise }],
                });
                if i == 0 {
                    // Catch-all: stop built-in recursion below non-matching
                    // roots (an absolute first step matches the root only).
                    sheet.add_template(Template {
                        pattern: Pattern::any_element(),
                        mode: Some(mode.clone()),
                        priority: Some(-10.0),
                        body: Vec::new(),
                    });
                }
            }
        }
    }

    // Collect mode: gather entire stored subtrees under final-step matches,
    // asking for anything not complete (LOCAL-INFO-REQUIRED covers every
    // IDable tag below the final step).
    let c_have = sheet.slot("@status='owned' or @status='complete'");
    sheet.add_template(Template {
        pattern: Pattern::any_element(),
        mode: Some("c".to_string()),
        priority: None,
        body: vec![Instruction::Choose {
            branches: vec![(
                c_have,
                vec![Instruction::Copy(vec![
                    Instruction::CopyOf(sel_id_attr),
                    Instruction::ApplyTemplates {
                        select: Some(sel_idable),
                        mode: Some("c".to_string()),
                    },
                ])],
            )],
            otherwise: vec![ask_instruction(
                AskKind::Subtree,
                usize::MAX,
                sel_id_attr,
                sel_name,
            )],
        }],
    });

    let start_mode = "s0".to_string();
    (sheet, slots, start_mode)
}

/// Builds the `iris-ask` placeholder emission.
fn ask_instruction(
    kind: AskKind,
    step: usize,
    sel_id_attr: ExprSlot,
    sel_name: ExprSlot,
) -> Instruction {
    let step_text = if step == usize::MAX {
        "max".to_string()
    } else {
        step.to_string()
    };
    Instruction::Element {
        name: "iris-ask".to_string(),
        attrs: vec![
            ("tag".to_string(), vec![AttrPart::Expr(sel_name)]),
            ("id".to_string(), vec![AttrPart::Expr(sel_id_attr)]),
            ("kind".to_string(), vec![AttrPart::Literal(kind.as_str().to_string())]),
            ("step".to_string(), vec![AttrPart::Literal(step_text)]),
        ],
        body: Vec::new(),
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
            Box::new(strip_consistency(l, ts_field)),
            Box::new(strip_consistency(r, ts_field)),
        ),
        Expr::Union(l, r) => Expr::Union(
            Box::new(strip_consistency(l, ts_field)),
            Box::new(strip_consistency(r, ts_field)),
        ),
        Expr::Negate(e) => Expr::Negate(Box::new(strip_consistency(e, ts_field))),
        Expr::Call(n, args) => Expr::Call(
            n.clone(),
            args.iter().map(|a| strip_consistency(a, ts_field)).collect(),
        ),
        Expr::Filter { primary, predicates, trailing } => Expr::Filter {
            primary: Box::new(strip_consistency(primary, ts_field)),
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

fn strip_step(s: &Step, ts_field: &str) -> Step {
    let split = split_step_predicates(s, ts_field);
    let mut predicates = Vec::new();
    if split.clean {
        predicates.extend(split.id);
        predicates.extend(split.rest);
    } else {
        // Unsplittable: keep everything except recognized pure consistency
        // conjuncts.
        predicates.extend(split.id);
        predicates.extend(split.rest);
    }
    let predicates = predicates
        .into_iter()
        .map(|p| strip_consistency(&p, ts_field))
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

/// Evaluates the plan's *distribution path* (consistency stripped) over the
/// site fragment and returns the id paths of the matched final-step nodes.
/// Used to build subquery answers via
/// [`crate::fragment::SiteDatabase::export_subtrees`].
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
        let f = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        let prog = f.create(&p).unwrap();
        let out = prog.execute(&db, 0.0).unwrap();
        assert!(out.is_complete(), "asks: {:?}", out.asks);
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
        let f = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        let prog = f.create(&p).unwrap();
        let out = prog.execute(&db, 0.0).unwrap();
        assert_eq!(out.asks.len(), 1);
        let ask = &out.asks[0];
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
        let f = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        let out = f.create(&p).unwrap().execute(&db, 0.0).unwrap();
        assert!(out.is_complete());
        let matched = matched_final_paths(&p, &db, 0.0).unwrap();
        assert_eq!(matched.len(), 1);
    }

    #[test]
    fn qeg_descendant_query() {
        let db = owned_all();
        let p = plan("/usRegion[@id='NE']//parkingSpace[price='0']");
        let f = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        let out = f.create(&p).unwrap().execute(&db, 0.0).unwrap();
        assert!(out.is_complete(), "asks: {:?}", out.asks);
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
        let f = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        let out = f.create(&p).unwrap().execute(&db, 0.0).unwrap();
        assert!(!out.is_complete());
        // Shadyside (incomplete) must be asked for.
        assert!(out
            .asks
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
        let f = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        let out = f.create(&p).unwrap().execute(&db, 0.0).unwrap();
        assert!(!out.is_complete());
        // With the whole document owned, the same query runs locally.
        let db_full = owned_all();
        let out2 = f.create(&p).unwrap().execute(&db_full, 0.0).unwrap();
        assert!(out2.is_complete(), "asks: {:?}", out2.asks);
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
        let f = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        // Query posed at t=200: data from t=100 is 100s old, tolerance 30s.
        let out = f.create(&p).unwrap().execute(&cache, 200.0).unwrap();
        assert!(out.asks.iter().any(|a| a.kind == AskKind::Stale));
        // Fresh enough at t=110.
        let out2 = f.create(&p).unwrap().execute(&cache, 110.0).unwrap();
        assert!(out2.is_complete(), "asks: {:?}", out2.asks);
        // The owner itself ignores consistency predicates.
        let out3 = f.create(&p).unwrap().execute(&owner, 200.0).unwrap();
        assert!(out3.is_complete(), "asks: {:?}", out3.asks);
    }

    #[test]
    fn naive_and_fast_agree() {
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &pgh().child("neighborhood", "Oakland"), true)
            .unwrap();
        let p = plan(Q_PAPER);
        let naive = QegFactory::new(Service::parking(), QegEngine::XsltNaive);
        let fast = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        let o1 = naive.create(&p).unwrap().execute(&db, 0.0).unwrap();
        let o2 = fast.create(&p).unwrap().execute(&db, 0.0).unwrap();
        assert_eq!(o1.asks, o2.asks);
        assert_eq!(exec::execute(&p, &db, 0.0, false).unwrap(), o1.asks);
        assert!(sensorxml::unordered_eq(
            &o1.output,
            o1.output.root().unwrap(),
            &o2.output,
            o2.output.root().unwrap()
        ));
    }

    #[test]
    fn native_engine_runs_without_programs() {
        let db = owned_all();
        let native = QegFactory::new(Service::parking(), QegEngine::Native);
        let pass = native.run(&plan(Q_PAPER), &db, 0.0, false).unwrap();
        assert!(pass.asks.is_empty());
        assert_eq!(pass.create_s, 0.0);
        assert_eq!(native.created(), 0);
        assert_eq!(native.skeleton_hits() + native.skeleton_misses(), 0);
    }

    #[test]
    fn native_walk_depth_is_bounded_like_xslt() {
        // A self-nesting IDable tag lets `//` search arbitrarily deep: both
        // engines must refuse past the same bound instead of overflowing.
        let svc = Arc::new(Service::new(
            "deep",
            "deep.example",
            crate::service::Schema::new("n", [("n".to_string(), vec!["n".to_string()])]),
        ));
        let chain = |levels: usize| {
            let mut xml = String::new();
            for i in 0..levels {
                xml.push_str(&format!("<n id=\"{i}\">"));
            }
            xml.push_str(&"</n>".repeat(levels));
            let master = parse(&xml).unwrap();
            let mut db = SiteDatabase::new(svc.clone());
            db.bootstrap_owned(&master, &IdPath::from_pairs([("n", "0")]), true).unwrap();
            db
        };
        let e = sensorxpath::parse("/n[@id='0']//n[@id='none']").unwrap();
        let p = plan_query(&e, &svc).unwrap();
        // Searching element k (root = 0) applies templates at depth 3 + k,
        // so a chain of 126 elements peaks at exactly 128 and 127 overrun.
        let shallow = chain(126);
        let deep = chain(127);
        assert!(exec::execute(&p, &shallow, 0.0, false).unwrap().is_empty());
        assert!(matches!(
            exec::execute(&p, &deep, 0.0, false),
            Err(CoreError::Query(m)) if m.contains("deeper than")
        ));
        // The XSLT interpreter spends several frames per level; give it
        // room in debug builds.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || {
                let fast = QegFactory::new(svc, QegEngine::XsltFast);
                assert!(fast.run(&p, &shallow, 0.0, false).unwrap().asks.is_empty());
                assert!(matches!(
                    fast.run(&p, &deep, 0.0, false),
                    Err(CoreError::Xslt(sensorxslt::XsltError::RecursionLimit))
                ));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn fast_skeleton_cache_hits_on_same_shape() {
        let fast = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        let p1 = plan(Q_PAPER);
        // Same shape, different ids/predicates.
        let p2 = plan(
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
             /city[@id='Pittsburgh']/neighborhood[@id='Oakland' or @id='Etna']\
             /block[@id='2']/parkingSpace[available='no']",
        );
        fast.create(&p1).unwrap();
        assert_eq!(fast.skeleton_hits(), 0);
        assert_eq!(fast.skeleton_misses(), 1);
        fast.create(&p2).unwrap();
        assert_eq!(fast.skeleton_hits(), 1);
        // Different shape misses.
        let p3 = plan("/usRegion[@id='NE']//parkingSpace");
        fast.create(&p3).unwrap();
        assert_eq!(fast.skeleton_hits(), 1);
        assert_eq!(fast.skeleton_misses(), 2);
        assert_eq!(fast.skeleton_evictions(), 0);
        // And the patched program still behaves correctly.
        let db = owned_all();
        let out = fast.create(&p2).unwrap().execute(&db, 0.0).unwrap();
        assert!(out.is_complete());
        let matched = matched_final_paths(&p2, &db, 0.0).unwrap();
        assert!(matched.is_empty()); // Oakland block 2's only space is available
    }

    #[test]
    fn skeleton_cache_lru_bounds_shapes() {
        let fast = QegFactory::new(Service::parking(), QegEngine::XsltFast);
        let tags = ["usRegion", "state", "county", "city", "neighborhood", "block"];
        let ids = ["NE", "PA", "Allegheny", "Pittsburgh", "Oakland", "1"];
        // Distinct shapes: which steps carry a rest predicate is part of the
        // shape key, as is `ignore_complete` — 2^7 combinations available.
        let shape_query = |i: usize| {
            let mut q = String::new();
            for j in 0..tags.len() {
                q.push_str(&format!("/{}[@id='{}']", tags[j], ids[j]));
                if i & (1 << j) != 0 {
                    q.push_str("[price > 0]");
                }
            }
            q.push_str("/parkingSpace");
            q
        };
        let n = SKELETON_CACHE_CAP + 8;
        for i in 0..n {
            fast.create_with(&plan(&shape_query(i)), i >= 64).unwrap();
        }
        assert_eq!(fast.created(), n as u64);
        assert_eq!(fast.skeleton_misses(), n as u64);
        assert_eq!(fast.skeleton_hits(), 0);
        assert_eq!(fast.skeleton_cache_len(), SKELETON_CACHE_CAP);
        assert_eq!(fast.skeleton_evictions(), (n - SKELETON_CACHE_CAP) as u64);
        // The newest shape is still resident: re-creating it hits...
        fast.create_with(&plan(&shape_query(n - 1)), true).unwrap();
        assert_eq!(fast.skeleton_hits(), 1);
        // ...while the oldest was evicted: re-creating it misses again.
        fast.create_with(&plan(&shape_query(0)), false).unwrap();
        assert_eq!(fast.skeleton_misses(), n as u64 + 1);
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

    #[test]
    fn extract_asks_reconstructs_paths() {
        let out = parse(
            r#"<result><usRegion id="NE"><state id="PA">
                 <iris-ask tag="county" id="Allegheny" kind="query" step="2"/>
               </state></usRegion></result>"#,
        )
        .unwrap();
        let asks = extract_asks(&out).unwrap();
        assert_eq!(asks.len(), 1);
        assert_eq!(
            asks[0].path,
            IdPath::from_pairs([("usRegion", "NE"), ("state", "PA"), ("county", "Allegheny")])
        );
        assert_eq!(asks[0].step, 2);
    }
}
