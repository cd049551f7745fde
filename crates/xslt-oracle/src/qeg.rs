//! The paper's QEG pass as an XSLT program (§3.5), with naive and fast
//! creation (§4).
//!
//! [`XsltQeg`] compiles a [`QueryPlan`] into a stylesheet whose templates
//! switch on every visited node's `status` attribute and emit an
//! `iris-ask` placeholder wherever data must be gathered; [`extract_asks`]
//! scans the output for them. Creation comes in two variants
//! ([`Creation`]):
//!
//! * fast — a compiled skeleton is cached per query *shape* and only the
//!   query-dependent XPath slots are patched
//!   ([`sensorxslt::Compiled::patch_slots`], the §4 optimization);
//! * naive — the stylesheet is rendered to XSLT *text*, then parsed and
//!   compiled from scratch (what the unoptimized prototype did through
//!   standard interfaces).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use irisnet_core::fragment::SiteDatabase;
use irisnet_core::qeg::{
    too_deep, Ask, AskKind, DistStep, PassEngine, QegPass, QueryPlan, StepKind,
};
use irisnet_core::{CoreError, CoreResult, IdPath};
use sensorxml::Document;
use sensorxpath::{Expr, Name, NodeTest};
use sensorxslt::{
    compile, AttrPart, Compiled, ExecOptions, ExprSlot, Instruction, Pattern, PatternStep,
    Stylesheet, Template, XsltError,
};

/// Maps an XSLT error to the error the native walk returns for the same
/// input: predicate failures are XPath errors, a template recursion
/// overrun is the walk's depth error.
fn core_error(e: XsltError) -> CoreError {
    match e {
        XsltError::XPath(x) => CoreError::XPath(x),
        XsltError::RecursionLimit => too_deep(),
        XsltError::Xml(x) => CoreError::Xml(x),
        other => CoreError::Query(format!("generated QEG program: {other}")),
    }
}

fn parse_kind(s: &str) -> Option<AskKind> {
    [AskKind::Query, AskKind::Stale, AskKind::Subtree]
        .into_iter()
        .find(|k| k.as_str() == s)
}

/// `P_id` as XPath text (`true()` when it cannot be trusted as a
/// pre-filter).
fn pid_source(ds: &DistStep) -> String {
    if !ds.clean {
        return "true()".to_string();
    }
    sensorxpath::optimize(&Expr::conjunction(ds.pid.clone())).to_string()
}

/// `P_id ∧ P_rest` as XPath text.
fn full_source(ds: &DistStep) -> String {
    let mut all = ds.pid.clone();
    all.extend(ds.prest.clone());
    sensorxpath::optimize(&Expr::conjunction(all)).to_string()
}

/// `P_consistency` as XPath text.
fn pcons_source(ds: &DistStep) -> String {
    sensorxpath::optimize(&Expr::conjunction(ds.pcons.clone())).to_string()
}

/// Shape key for the fast-path skeleton cache: everything that determines
/// template structure (but not the predicate contents).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShapeKey {
    steps: Vec<(u8, Option<Name>, bool, bool, bool, bool)>,
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

/// A ready-to-run XSLT QEG program.
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
        )
        .map_err(core_error)?;
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
            .and_then(parse_kind)
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
                CoreError::Protocol("asked node's ancestor has no id".into())
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

/// How an [`XsltQeg`] creates its programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Creation {
    /// Render → parse → compile the full stylesheet per query (Fig. 11's
    /// unoptimized arm).
    Naive,
    /// Reuse a compiled skeleton per query shape and re-parse only the
    /// query-dependent predicate slots (§4).
    Fast,
}

/// Creates and runs XSLT QEG programs; as a [`PassEngine`] it creates one
/// program per pass.
///
/// Every agent built from one `OaConfig` shares its engine, so one
/// skeleton cache serves all of them and their read workers: creation
/// takes `&self`, the skeleton cache
/// sits behind a mutex held only for lookup/insert (never across a
/// compile), and the counters are atomics. A fast-creation miss compiles
/// outside the lock, so a burst of new shapes doesn't serialize the pool.
#[derive(Debug)]
pub struct XsltQeg {
    creation: Creation,
    skeletons: Mutex<SkeletonCache>,
    created: AtomicU64,
    skeleton_hits: AtomicU64,
    skeleton_misses: AtomicU64,
    skeleton_evictions: AtomicU64,
}

impl XsltQeg {
    /// An engine creating its programs by `creation`.
    pub fn new(creation: Creation) -> XsltQeg {
        XsltQeg {
            creation,
            skeletons: Mutex::new(SkeletonCache::default()),
            created: AtomicU64::new(0),
            skeleton_hits: AtomicU64::new(0),
            skeleton_misses: AtomicU64::new(0),
            skeleton_evictions: AtomicU64::new(0),
        }
    }

    /// XSLT programs created.
    pub fn created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    /// Fast-path skeleton cache hits.
    pub fn skeleton_hits(&self) -> u64 {
        self.skeleton_hits.load(Ordering::Relaxed)
    }

    /// Fast-path skeleton cache misses (shape not cached; full compile).
    pub fn skeleton_misses(&self) -> u64 {
        self.skeleton_misses.load(Ordering::Relaxed)
    }

    /// Skeletons dropped by the LRU bound ([`SKELETON_CACHE_CAP`]).
    pub fn skeleton_evictions(&self) -> u64 {
        self.skeleton_evictions.load(Ordering::Relaxed)
    }

    /// Locks the skeleton cache. Poison is tolerated: a worker that
    /// panicked mid-lookup left a cache of whole entries.
    fn skeletons(&self) -> MutexGuard<'_, SkeletonCache> {
        self.skeletons.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Distinct shapes currently cached (≤ [`SKELETON_CACHE_CAP`]).
    pub fn skeleton_cache_len(&self) -> usize {
        self.skeletons().map.len()
    }

    /// Builds the XSLT QEG program for a plan.
    pub fn create(&self, plan: &QueryPlan) -> CoreResult<QegProgram> {
        self.create_with(plan, false)
    }

    /// Builds an XSLT QEG program by the configured [`Creation`]. With
    /// `ignore_complete` the generated program treats cached (`complete`)
    /// data as stale and always refreshes from the owner — the lever
    /// behind the paper's controlled cache-hit-rate experiments (Fig. 10's
    /// "caching with no hits").
    pub fn create_with(
        &self,
        plan: &QueryPlan,
        ignore_complete: bool,
    ) -> CoreResult<QegProgram> {
        self.created.fetch_add(1, Ordering::Relaxed);
        match self.creation {
            Creation::Naive => {
                // Full round trip through stylesheet *text*, like the
                // unoptimized prototype.
                let (sheet, _slots, start_mode) =
                    generate_stylesheet(plan, ignore_complete);
                let text = sheet.to_xml_text();
                let reparsed = sensorxslt::parse_stylesheet(&text).map_err(core_error)?;
                let compiled = compile(reparsed).map_err(core_error)?;
                Ok(QegProgram { compiled, start_mode })
            }
            Creation::Fast => {
                let key = ShapeKey::of(plan, ignore_complete);
                let hit = {
                    let mut cache = self.skeletons();
                    let stamp = cache.touch();
                    cache.map.get_mut(&key).map(|entry| {
                        entry.last_used = stamp;
                        (entry.compiled.clone(), slot_updates(plan, &entry.slots),
                         entry.start_mode.clone())
                    })
                };
                if let Some((mut compiled, updates, start_mode)) = hit {
                    self.skeleton_hits.fetch_add(1, Ordering::Relaxed);
                    compiled.patch_slots(&updates).map_err(core_error)?;
                    return Ok(QegProgram { compiled, start_mode });
                }
                self.skeleton_misses.fetch_add(1, Ordering::Relaxed);
                // Compile outside the lock; a racing worker compiling the
                // same shape just overwrites with an identical skeleton.
                let (sheet, slots, start_mode) = generate_stylesheet(plan, ignore_complete);
                let compiled = compile(sheet).map_err(core_error)?;
                let evicted = {
                    let mut cache = self.skeletons();
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
                    self.skeleton_evictions.fetch_add(evicted, Ordering::Relaxed);
                }
                Ok(QegProgram { compiled, start_mode })
            }
        }
    }
}

impl PassEngine for XsltQeg {
    fn run(
        &self,
        plan: &QueryPlan,
        db: &SiteDatabase,
        now: f64,
        ignore_complete: bool,
    ) -> CoreResult<QegPass> {
        let t0 = Instant::now();
        let program = self.create_with(plan, ignore_complete)?;
        let create_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let asks = program.execute(db, now)?.asks;
        Ok(QegPass { asks, create_s, exec_s: t1.elapsed().as_secs_f64() })
    }
}

/// The pid-narrowed descend select for a tag step: `tag[P_id]`.
fn narrowed_select(tag: &str, ds: &DistStep) -> String {
    format!("{tag}[{}]", pid_source(ds))
}

fn slot_updates(plan: &QueryPlan, slots: &[StepSlots]) -> Vec<(ExprSlot, String)> {
    let mut updates = Vec::new();
    for (i, (ds, ss)) in plan.dist_steps.iter().zip(slots).enumerate() {
        if let Some(slot) = ss.pid {
            updates.push((slot, pid_source(ds)));
        }
        if let Some(slot) = ss.full {
            updates.push((slot, full_source(ds)));
        }
        if let Some(slot) = ss.pcons {
            updates.push((slot, pcons_source(ds)));
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
        pid_source(ds)
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
                let pid = sheet.slot(pid_source(ds));
                let full = sheet.slot(full_source(ds));
                let pcons = if ds.pcons.is_empty() {
                    None
                } else {
                    Some(sheet.slot(pcons_source(ds)))
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
                            (sheet.slot(t.to_string()), false)
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use irisnet_core::qeg::{
        extract_user_answer, generalized_subquery, matched_final_paths, plan_query, NativeWalk,
    };
    use irisnet_core::Service;
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
        let f = XsltQeg::new(Creation::Fast);
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
        let f = XsltQeg::new(Creation::Fast);
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
        let f = XsltQeg::new(Creation::Fast);
        let out = f.create(&p).unwrap().execute(&db, 0.0).unwrap();
        assert!(out.is_complete());
        let matched = matched_final_paths(&p, &db, 0.0).unwrap();
        assert_eq!(matched.len(), 1);
    }

    #[test]
    fn qeg_descendant_query() {
        let db = owned_all();
        let p = plan("/usRegion[@id='NE']//parkingSpace[price='0']");
        let f = XsltQeg::new(Creation::Fast);
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
        let f = XsltQeg::new(Creation::Fast);
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
        let f = XsltQeg::new(Creation::Fast);
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
        let f = XsltQeg::new(Creation::Fast);
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
        let naive = XsltQeg::new(Creation::Naive);
        let fast = XsltQeg::new(Creation::Fast);
        let o1 = naive.create(&p).unwrap().execute(&db, 0.0).unwrap();
        let o2 = fast.create(&p).unwrap().execute(&db, 0.0).unwrap();
        assert_eq!(o1.asks, o2.asks);
        assert_eq!(NativeWalk.run(&p, &db, 0.0, false).unwrap().asks, o1.asks);
        assert!(sensorxml::unordered_eq(
            &o1.output,
            o1.output.root().unwrap(),
            &o2.output,
            o2.output.root().unwrap()
        ));
    }

    #[test]
    fn native_walk_depth_is_bounded_like_xslt() {
        // A self-nesting IDable tag lets `//` search arbitrarily deep: both
        // engines must refuse past the same bound, with the same error,
        // instead of overflowing.
        let svc = Arc::new(Service::new(
            "deep",
            "deep.example",
            irisnet_core::Schema::new("n", [("n".to_string(), vec!["n".to_string()])]),
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
        assert!(NativeWalk.run(&p, &shallow, 0.0, false).unwrap().asks.is_empty());
        assert_eq!(NativeWalk.run(&p, &deep, 0.0, false).unwrap_err(), too_deep());
        // The XSLT interpreter spends several frames per level; give it
        // room in debug builds.
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || {
                let fast = XsltQeg::new(Creation::Fast);
                assert!(fast.run(&p, &shallow, 0.0, false).unwrap().asks.is_empty());
                assert_eq!(fast.run(&p, &deep, 0.0, false).unwrap_err(), too_deep());
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn fast_skeleton_cache_hits_on_same_shape() {
        let fast = XsltQeg::new(Creation::Fast);
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
        let fast = XsltQeg::new(Creation::Fast);
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
