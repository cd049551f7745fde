//! One-pass fragment export: subquery answers and migration payloads are
//! written as XML text straight from the site database's arena.
//!
//! A wire fragment for a set of target nodes is the smallest superset of
//! them satisfying the cache conditions C1/C2 (§3.3): each target's stored
//! subtree, plus the local ID information of every ancestor (status
//! `id-complete`, sibling stubs `incomplete`); `owned` is shipped as
//! `complete`. [`FragmentExport`] first lays that out as a *plan* — one
//! small record per ancestor, stub and target, pointing at database nodes,
//! copying nothing — and [`FragmentExport::xml`] then writes the text in a
//! single walk.
//!
//! Targets are stored nodes ([`SiteDatabase::plan_export_nodes`]): a
//! subquery answer plans straight from the coalesced matches of
//! `qeg::matched_final_nodes`, and [`SiteDatabase::plan_export`]
//! resolves id paths (migration's targets) and plans the same way.
//!
//! The element order of the text is part of the format (answers and
//! digests are compared byte for byte across runtimes), and it follows
//! from how targets are added: an ancestor takes the place of the sibling
//! stub that stood for it, a target is moved to the end of its parent.
//! IDable siblings are assumed unique by `(tag, id)` (Definition 3.1);
//! where a document still holds duplicates, each keeps its own stub.

use sensorxml::serialize::{own_value, push_attr, serialize_mapped};
use sensorxml::{Attr, Document, NodeId, NodeKind, XmlError};

use super::{SiteDatabase, Status};
use crate::error::{CoreError, CoreResult};
use crate::idable::{IdPath, STATUS_ATTR};

/// What a plan node writes for its database node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// `<tag id=".." status="incomplete"/>`.
    Stub,
    /// Local ID information: `id`, status `id-complete`, the planned
    /// children (stubs unless replaced).
    IdInfo,
    /// The stored subtree verbatim, `owned` written as `complete` if
    /// `clamp`.
    Subtree { clamp: bool },
    /// The node's own attributes (`owned` clamped; the status attribute
    /// written as `status` when given, appended if the node has none) over
    /// the planned children: a copied subtree one of whose children was
    /// replaced, or the local information of a node.
    Element { status: Option<Status> },
}

#[derive(Debug)]
struct PlanNode {
    db: NodeId,
    kind: Kind,
    /// Replaced by a later node for the same database node; not written.
    dead: bool,
    children: Vec<u32>,
}

/// The layout of one wire fragment over a site database; see the module
/// docs. Build with [`SiteDatabase::plan_export_nodes`],
/// [`SiteDatabase::plan_export`] or [`SiteDatabase::plan_local_info`],
/// then write with [`FragmentExport::xml`].
#[derive(Debug)]
pub struct FragmentExport<'a> {
    db: &'a SiteDatabase,
    nodes: Vec<PlanNode>,
    root: Option<u32>,
}

fn clamped(a: &Attr) -> &str {
    if a.name == STATUS_ATTR && a.value == Status::Owned.as_str() {
        Status::Complete.as_str()
    } else {
        &a.value
    }
}

impl<'a> FragmentExport<'a> {
    fn new(db: &'a SiteDatabase) -> Self {
        FragmentExport { db, nodes: Vec::new(), root: None }
    }

    fn doc(&self) -> &'a Document {
        &self.db.doc
    }

    fn is_idable(&self, node: NodeId) -> bool {
        self.doc().is_element(node) && self.db.service.schema.is_idable(self.doc().name(node))
    }

    /// The database nodes above `node`, root first.
    fn ancestors(&self, node: NodeId) -> Vec<NodeId> {
        let mut chain: Vec<NodeId> = self.doc().ancestors(node).collect();
        chain.reverse();
        chain
    }

    /// A detached plan node.
    fn push(&mut self, db: NodeId, kind: Kind) -> u32 {
        self.nodes.push(PlanNode { db, kind, dead: false, children: Vec::new() });
        (self.nodes.len() - 1) as u32
    }

    /// Appends a fresh plan node for `db` under `parent`.
    fn push_child(&mut self, parent: u32, db: NodeId, kind: Kind) {
        let c = self.push(db, kind);
        self.nodes[parent as usize].children.push(c);
    }

    /// Appends stubs for the IDable children of `idx`'s database node.
    fn push_id_stubs(&mut self, idx: u32, require_id: bool) {
        let doc = self.doc();
        for c in doc.child_elements(self.nodes[idx as usize].db) {
            if self.is_idable(c) && (!require_id || doc.attr(c, "id").is_some()) {
                self.push_child(idx, c, Kind::Stub);
            }
        }
    }

    /// A detached local-ID-information node for `db`.
    fn id_info(&mut self, db: NodeId) -> u32 {
        let n = self.push(db, Kind::IdInfo);
        self.push_id_stubs(n, false);
        n
    }

    /// Makes the children of a verbatim subtree explicit, so that one of
    /// them can be replaced or descended into.
    fn expand(&mut self, idx: u32) {
        if let Kind::Subtree { clamp } = self.nodes[idx as usize].kind {
            self.nodes[idx as usize].kind = Kind::Element { status: None };
            for &c in self.doc().children(self.nodes[idx as usize].db) {
                self.push_child(idx, c, Kind::Subtree { clamp });
            }
        }
    }

    /// The plan node standing for `db` under `cursor` (the root when
    /// `cursor` is `None`): its last child for `db` that was not replaced.
    /// A plan node's children mirror one stored node's children (plus the
    /// nodes they replaced), so the scan stays short.
    fn child(&mut self, cursor: Option<u32>, db: NodeId) -> Option<u32> {
        let Some(p) = cursor else { return self.root };
        self.expand(p);
        let nodes = &self.nodes;
        nodes[p as usize].children.iter().rev().copied().find(|&c| {
            let n = &nodes[c as usize];
            n.db == db && !n.dead
        })
    }

    /// Attaches `idx` (standing for `db`) under `cursor`, at the end; a
    /// node already standing for `db` there is dropped.
    fn attach(&mut self, cursor: Option<u32>, db: NodeId, idx: u32) -> CoreResult<()> {
        match cursor {
            None => {
                if self.root.is_some() {
                    return Err(XmlError::MultipleRoots.into());
                }
                self.root = Some(idx);
            }
            Some(p) => {
                if let Some(old) = self.child(cursor, db) {
                    self.nodes[old as usize].dead = true;
                }
                self.nodes[p as usize].children.push(idx);
            }
        }
        Ok(())
    }

    fn add_target(&mut self, target: NodeId) -> CoreResult<()> {
        let mut cursor = None;
        for db in self.ancestors(target) {
            let anc = match self.child(cursor, db) {
                Some(e) => {
                    // A sibling stub is about to get children: upgrade it
                    // to local ID information in place (C2). Stored
                    // `incomplete` nodes have no children, so inside a
                    // copied subtree no path descends through one.
                    if self.nodes[e as usize].kind == Kind::Stub {
                        self.nodes[e as usize].kind = Kind::IdInfo;
                        self.push_id_stubs(e, true);
                    }
                    e
                }
                None => {
                    let n = self.id_info(db);
                    self.attach(cursor, db, n)?;
                    n
                }
            };
            cursor = Some(anc);
        }
        let sub = self.push(target, Kind::Subtree { clamp: true });
        self.attach(cursor, target, sub)
    }

    /// True when the plan holds no node (no target was given): the
    /// fragment is the empty string.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Writes the fragment text.
    pub fn xml(&self) -> String {
        let mut out = String::new();
        if let Some(root) = self.root {
            self.write(root, &mut out);
        }
        out
    }

    fn write(&self, idx: u32, out: &mut String) {
        let n = &self.nodes[idx as usize];
        let doc = self.doc();
        let el = match (n.kind, doc.kind(n.db)) {
            (Kind::Subtree { clamp: true }, _) => return serialize_mapped(doc, n.db, out, &clamped),
            (Kind::Subtree { clamp: false }, _) | (_, NodeKind::Text(_)) => {
                return serialize_mapped(doc, n.db, out, &own_value)
            }
            (_, NodeKind::Element(el)) => el,
        };
        out.push('<');
        out.push_str(&el.name);
        match n.kind {
            Kind::Element { status } => {
                let mut status = status.map(Status::as_str);
                for a in &el.attrs {
                    let given = if a.name == STATUS_ATTR { status.take() } else { None };
                    push_attr(out, &a.name, given.unwrap_or_else(|| clamped(a)));
                }
                if let Some(s) = status {
                    push_attr(out, STATUS_ATTR, s);
                }
            }
            _ => {
                if let Some(id) = doc.attr(n.db, "id") {
                    push_attr(out, "id", id);
                }
                let s = if n.kind == Kind::Stub { Status::Incomplete } else { Status::IdComplete };
                push_attr(out, STATUS_ATTR, s.as_str());
            }
        }
        let mut live = n.children.iter().filter(|&&c| !self.nodes[c as usize].dead).peekable();
        if live.peek().is_none() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for &c in live {
            self.write(c, out);
        }
        out.push_str("</");
        out.push_str(&el.name);
        out.push('>');
    }
}

impl SiteDatabase {
    /// Plans a wire fragment containing, for each target path: the target
    /// node's full stored subtree, plus the local ID information of every
    /// ancestor (status `id-complete`, children stubs `incomplete`) — the
    /// smallest superset satisfying C1/C2 (§3.3). `owned` statuses are
    /// exported as `complete`.
    pub fn plan_export(&self, targets: &[IdPath]) -> CoreResult<FragmentExport<'_>> {
        let mut plan = FragmentExport::new(self);
        for path in targets {
            plan.add_target(self.resolve_for_export(path)?)?;
        }
        Ok(plan)
    }

    /// [`SiteDatabase::plan_export`] over stored nodes, each standing for
    /// its id path: the plan the subquery answer of a site is written from.
    pub fn plan_export_nodes(&self, targets: &[NodeId]) -> CoreResult<FragmentExport<'_>> {
        let mut plan = FragmentExport::new(self);
        for &node in targets {
            plan.add_target(node)?;
        }
        Ok(plan)
    }

    fn resolve_for_export(&self, path: &IdPath) -> CoreResult<NodeId> {
        path.resolve(&self.doc)
            .ok_or_else(|| CoreError::Protocol(format!("export: no node at {path}")))
    }

    /// Plans a wire fragment carrying only the *local information* of the
    /// node at `path` (plus ancestor ID chains): the smallest C1/C2 unit
    /// proving which IDable children exist. Used as negative evidence when
    /// a subquery matches nothing — the requester learns that a cached
    /// child was deleted.
    pub fn plan_local_info(&self, path: &IdPath) -> CoreResult<FragmentExport<'_>> {
        self.plan_local_info_node(self.resolve_for_export(path)?)
    }

    /// [`SiteDatabase::plan_local_info`] of a stored node.
    pub(crate) fn plan_local_info_node(&self, target: NodeId) -> CoreResult<FragmentExport<'_>> {
        let mut plan = FragmentExport::new(self);
        let mut cursor = None;
        for db in plan.ancestors(target) {
            let n = plan.id_info(db);
            plan.attach(cursor, db, n)?;
            cursor = Some(n);
        }
        // The claimed status must reflect what we store.
        let st = self.status_of(target).unwrap_or(Status::Incomplete).min(Status::Complete);
        let li = plan.push(target, Kind::Element { status: Some(st) });
        for &c in self.doc.children(target) {
            let kind = if plan.is_idable(c) { Kind::Stub } else { Kind::Subtree { clamp: false } };
            plan.push_child(li, c, kind);
        }
        plan.attach(cursor, target, li)?;
        Ok(plan)
    }

    /// The fragment of [`SiteDatabase::plan_export`] as the receiving site
    /// sees it: written to text and parsed back.
    pub fn export_subtrees(&self, targets: &[IdPath]) -> CoreResult<Document> {
        let plan = self.plan_export(targets)?;
        if plan.is_empty() {
            return Ok(Document::new());
        }
        Ok(sensorxml::parse(&plan.xml())?)
    }
}
