//! Per-site fragment databases: statuses, invariants, merging, eviction.
//!
//! Each site stores a *fragment* of the single logical document. The data
//! stored is a union of local informations / local ID informations
//! (Definition 3.2) subject to the invariants of §3.2:
//!
//! * **I1** — the site stores the local information of every node it owns;
//! * **I2** — if (at least) the ID of a node is stored, the local ID
//!   information of its parent is stored too (hence of all ancestors).
//!
//! Each IDable node carries a `status` attribute — `owned`, `complete`,
//! `id-complete` or `incomplete` — summarizing what the site knows about
//! it. Cached fragments arriving from other sites are merged under the
//! cache conditions **C1/C2** (§3.3), which are shape-identical to I1/I2,
//! so merging preserves the invariants by construction.

mod export;

use std::sync::Arc;

use sensorxml::{Document, NodeId};

pub use export::FragmentExport;

use crate::error::{CoreError, CoreResult};
use crate::idable::{cmp_by_id_path, copy_local_id_information, IdPath, STATUS_ATTR};
use crate::service::Service;
use crate::storage::{RecoveredState, RecoveryStats, SiteWal, WalRecord};

/// Knowledge level for an IDable node at a site (§3.2).
///
/// Ordering is by information content: `Incomplete < IdComplete < Complete
/// < Owned`; merging never downgrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    /// Only the node's ID is stored.
    Incomplete,
    /// Local ID information stored (own ID + all IDable children IDs), but
    /// not the full local information.
    IdComplete,
    /// Full local information stored, but the node is owned elsewhere
    /// (i.e. this is a cache copy).
    Complete,
    /// This site owns the node (and by I1 stores its local information).
    Owned,
}

impl Status {
    /// The attribute value used in the database.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Incomplete => "incomplete",
            Status::IdComplete => "id-complete",
            Status::Complete => "complete",
            Status::Owned => "owned",
        }
    }

    /// Parses an attribute value.
    pub fn parse(s: &str) -> Option<Status> {
        match s {
            "incomplete" => Some(Status::Incomplete),
            "id-complete" => Some(Status::IdComplete),
            "complete" => Some(Status::Complete),
            "owned" => Some(Status::Owned),
            _ => None,
        }
    }

    /// True if the full local information of the node is present
    /// (`complete` or `owned`).
    pub fn has_local_info(self) -> bool {
        self >= Status::Complete
    }
}

/// A site's fragment database.
#[derive(Debug)]
pub struct SiteDatabase {
    service: Arc<Service>,
    doc: Document,
    /// Write-ahead log handle; when attached, every mutation method
    /// appends a [`WalRecord`] after it succeeds.
    wal: Option<Arc<SiteWal>>,
}

/// Clones never carry the durability handle: the agent clones the
/// database into ephemeral scratch overlays for query evaluation, and
/// those merges must not reach the owner's log.
impl Clone for SiteDatabase {
    fn clone(&self) -> SiteDatabase {
        SiteDatabase { service: self.service.clone(), doc: self.doc.clone(), wal: None }
    }
}

impl SiteDatabase {
    /// An empty database for `service`.
    pub fn new(service: Arc<Service>) -> SiteDatabase {
        SiteDatabase { service, doc: Document::new(), wal: None }
    }

    // ------------------------------------------------------------------
    // Durability (core::storage)
    // ------------------------------------------------------------------

    /// Attaches a write-ahead log: from now on every successful mutation
    /// appends a record to it. The caller should snapshot right after
    /// attaching (state present *before* the log opened is not in it).
    pub fn attach_wal(&mut self, wal: Arc<SiteWal>) {
        self.wal = Some(wal);
    }

    /// Detaches and returns the log handle, if any.
    pub fn detach_wal(&mut self) -> Option<Arc<SiteWal>> {
        self.wal.take()
    }

    /// The attached log handle, if any.
    pub fn wal(&self) -> Option<&Arc<SiteWal>> {
        self.wal.as_ref()
    }

    fn log(&self, rec: WalRecord) {
        if let Some(w) = &self.wal {
            w.append(&rec);
        }
    }

    fn mark_dirty(&self) {
        if let Some(w) = &self.wal {
            w.mark_dirty();
        }
    }

    /// The full database state, serialized with internal status/timestamp
    /// attributes — the payload of a snapshot segment. The empty database
    /// serializes to `""`.
    pub fn snapshot_xml(&self) -> String {
        self.doc
            .root()
            .map(|r| sensorxml::serialize(&self.doc, r))
            .unwrap_or_default()
    }

    /// A canonical digest of the database state (attribute-order
    /// independent); two databases with equal digests hold identical
    /// fragments. Used by the compaction proptests for state equality.
    pub fn state_digest(&self) -> String {
        self.doc
            .root()
            .map(|r| sensorxml::canonical_string(&self.doc, r))
            .unwrap_or_default()
    }

    /// Rebuilds this (empty) database from recovered durable state: the
    /// snapshot becomes the base document and the WAL tail replays through
    /// the same mutation methods that produced it. Logging is suppressed
    /// during replay; on success the recovery is reported to the attached
    /// wal (if any).
    pub fn restore_from(&mut self, recovered: &RecoveredState) -> CoreResult<RecoveryStats> {
        if self.doc.root().is_some() {
            return Err(CoreError::Storage(
                "restore_from requires an empty database".into(),
            ));
        }
        let started = std::time::Instant::now();
        let wal = self.wal.take(); // suppress re-logging while replaying
        let mut stats = RecoveryStats {
            snapshot_loaded: false,
            records_replayed: 0,
            torn_bytes: recovered.torn_bytes,
            replay_ms: 0.0,
        };
        let result = (|| -> CoreResult<()> {
            if let Some(xml) = &recovered.snapshot_xml {
                if !xml.is_empty() {
                    self.doc = sensorxml::parse(xml)?;
                }
                stats.snapshot_loaded = true;
            }
            for rec in &recovered.records {
                match rec {
                    WalRecord::Update { path, fields, ts } => {
                        self.apply_update(path, fields, *ts)?;
                    }
                    WalRecord::Merge { fragment_xml } => {
                        let frag = sensorxml::parse(fragment_xml)?;
                        self.merge_fragment(&frag)?;
                    }
                    WalRecord::Evict { path } => self.evict(path)?,
                    WalRecord::SetStatus { path, status, subtree } => {
                        if *subtree {
                            self.set_status_subtree(path, *status)?;
                        } else {
                            self.set_status(path, *status)?;
                        }
                    }
                    WalRecord::Snapshot { .. } => {
                        return Err(CoreError::Storage(
                            "snapshot record inside a WAL segment".into(),
                        ));
                    }
                }
                stats.records_replayed += 1;
            }
            Ok(())
        })();
        self.wal = wal;
        result?;
        stats.replay_ms = started.elapsed().as_secs_f64() * 1e3;
        if let Some(w) = &self.wal {
            w.note_recovery(&stats);
        }
        Ok(stats)
    }

    /// The underlying fragment document (with `status`/timestamp
    /// attributes).
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// Mutable access for in-crate surgery (schema changes); invariants
    /// remain the caller's responsibility. Raw surgery is not expressible
    /// as a WAL record, so the log is marked dirty: the next quiescent
    /// point snapshots the whole state instead.
    pub(crate) fn doc_mut(&mut self) -> &mut Document {
        self.mark_dirty();
        &mut self.doc
    }

    /// The service this database belongs to.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// The status of the node at `path` (`None` if the node is not stored).
    pub fn status_at(&self, path: &IdPath) -> Option<Status> {
        let n = path.resolve(&self.doc)?;
        self.status_of(n)
    }

    /// The status of a stored node (climbing to the nearest IDable ancestor
    /// for non-IDable nodes, per §3.2).
    pub fn status_of(&self, node: NodeId) -> Option<Status> {
        let mut cur = Some(node);
        while let Some(n) = cur {
            if let Some(s) = self.doc.attr(n, STATUS_ATTR) {
                return Status::parse(s);
            }
            cur = self.doc.parent(n);
        }
        None
    }

    /// Sets the status attribute of the node at `path`.
    pub fn set_status(&mut self, path: &IdPath, status: Status) -> CoreResult<()> {
        let n = path
            .resolve(&self.doc)
            .ok_or_else(|| CoreError::Protocol(format!("no node at {path}")))?;
        self.doc.set_attr(n, STATUS_ATTR, status.as_str());
        self.log(WalRecord::SetStatus { path: path.clone(), status, subtree: false });
        Ok(())
    }

    /// Sets the status of the node at `path` and every stored IDable
    /// descendant (used by ownership transfer, where whole subtrees change
    /// hands atomically).
    pub fn set_status_subtree(&mut self, path: &IdPath, status: Status) -> CoreResult<()> {
        let n = path
            .resolve(&self.doc)
            .ok_or_else(|| CoreError::Protocol(format!("no node at {path}")))?;
        let mut nodes: Vec<NodeId> = vec![n];
        nodes.extend(self.doc.descendants(n).filter(|&d| {
            self.doc.is_element(d) && self.doc.attr(d, STATUS_ATTR).is_some()
        }));
        for node in nodes {
            // Only nodes whose local information is actually stored may
            // claim `owned`/`complete`; stubs and ID-only nodes keep their
            // weaker status (claiming more would violate I1's meaning).
            let cur = self
                .doc
                .attr(node, STATUS_ATTR)
                .and_then(Status::parse)
                .unwrap_or(Status::Incomplete);
            if status >= Status::Complete && cur < Status::Complete {
                continue;
            }
            self.doc.set_attr(node, STATUS_ATTR, status.as_str());
        }
        self.log(WalRecord::SetStatus { path: path.clone(), status, subtree: true });
        Ok(())
    }

    /// True if a node is stored at `path` (any status).
    pub fn contains(&self, path: &IdPath) -> bool {
        path.resolve(&self.doc).is_some()
    }

    /// Freshness timestamp of the node at `path` (0.0 when absent).
    pub fn timestamp_at(&self, path: &IdPath) -> f64 {
        path.resolve(&self.doc)
            .and_then(|n| self.doc.attr(n, &self.service.timestamp_field))
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    }

    // ------------------------------------------------------------------
    // Bootstrapping from a master document
    // ------------------------------------------------------------------

    /// Installs ownership of the node at `path` (and **all** its IDable
    /// descendants when `subtree` is true), copying data from the master
    /// document. Ancestors are stored as local ID information
    /// (`id-complete`), satisfying I1 + I2.
    pub fn bootstrap_owned(
        &mut self,
        master: &Document,
        path: &IdPath,
        subtree: bool,
    ) -> CoreResult<()> {
        let target = path.resolve(master).ok_or_else(|| {
            CoreError::Protocol(format!("master document has no node at {path}"))
        })?;
        // Ensure the ancestor ID chain (with sibling IDs) exists.
        self.ensure_ancestor_chain(master, path)?;
        // Copy the node itself. Bootstrapping is setup-time state the WAL
        // cannot express; the dirty flag forces a snapshot to capture it.
        self.install_from_master(master, target, path, subtree, Status::Owned)?;
        self.mark_dirty();
        Ok(())
    }

    /// Caches the node at `path` from the master document with status
    /// `complete` (test/setup convenience; production caching goes through
    /// [`SiteDatabase::merge_fragment`]).
    pub fn bootstrap_cached(
        &mut self,
        master: &Document,
        path: &IdPath,
        subtree: bool,
    ) -> CoreResult<()> {
        let target = path.resolve(master).ok_or_else(|| {
            CoreError::Protocol(format!("master document has no node at {path}"))
        })?;
        self.ensure_ancestor_chain(master, path)?;
        self.install_from_master(master, target, path, subtree, Status::Complete)?;
        self.mark_dirty();
        Ok(())
    }

    /// Makes sure every strict ancestor of `path` is present with at least
    /// local ID information (status `id-complete`), copying IDs from the
    /// master (I2).
    fn ensure_ancestor_chain(&mut self, master: &Document, path: &IdPath) -> CoreResult<()> {
        let mut cur = IdPath::root();
        for (tag, id) in &path.segments()[..path.len().saturating_sub(1)] {
            cur = cur.child(tag.clone(), id.clone());
            let m_node = cur.resolve(master).ok_or_else(|| {
                CoreError::Protocol(format!("master document has no node at {cur}"))
            })?;
            match cur.resolve(&self.doc) {
                Some(existing) => {
                    // Upgrade incomplete to id-complete by adding child stubs.
                    let st = self.status_of(existing).unwrap_or(Status::Incomplete);
                    if st < Status::IdComplete {
                        self.add_missing_id_stubs(master, m_node, existing);
                        self.doc
                            .set_attr(existing, STATUS_ATTR, Status::IdComplete.as_str());
                    }
                }
                None => {
                    let mut tmp = Document::new();
                    let li = copy_local_id_information(master, m_node, &self.service.schema, &mut tmp);
                    tmp.set_attr(li, STATUS_ATTR, Status::IdComplete.as_str());
                    for c in tmp.child_elements(li).collect::<Vec<_>>() {
                        tmp.set_attr(c, STATUS_ATTR, Status::Incomplete.as_str());
                    }
                    self.graft(&tmp, li, &cur)?;
                }
            }
        }
        Ok(())
    }

    /// Adds ID stubs (status `incomplete`) for IDable children of
    /// `m_node` (in master) missing under `ours`.
    fn add_missing_id_stubs(&mut self, master: &Document, m_node: NodeId, ours: NodeId) {
        let kids: Vec<NodeId> = master
            .child_elements(m_node)
            .filter(|&c| self.service.schema.is_idable(master.name(c)))
            .collect();
        for k in kids {
            let tag = master.name(k).to_string();
            let Some(id) = master.attr(k, "id").map(str::to_string) else {
                continue;
            };
            if self.doc.child_by_name_id(ours, &tag, &id).is_none() {
                let stub = self.doc.create_element(tag);
                self.doc.set_attr(stub, "id", id);
                self.doc
                    .set_attr(stub, STATUS_ATTR, Status::Incomplete.as_str());
                self.doc.append_child(ours, stub);
            }
        }
    }

    /// Copies `m_node` (at `path`) from master into this database with the
    /// given status, recursing over IDable descendants if `subtree`.
    fn install_from_master(
        &mut self,
        master: &Document,
        m_node: NodeId,
        path: &IdPath,
        subtree: bool,
        status: Status,
    ) -> CoreResult<()> {
        // Build the local information in a scratch doc.
        let mut tmp = Document::new();
        let li = crate::idable::copy_local_information(
            master,
            m_node,
            &self.service.schema,
            &mut tmp,
        );
        tmp.set_attr(li, STATUS_ATTR, status.as_str());
        // Bootstrap data is "created at the epoch": stamping it lets
        // freshness predicates evaluate deterministically (missing
        // timestamps would read as never-fresh and force spurious
        // owner refreshes).
        let ts_field = self.service.timestamp_field.clone();
        if tmp.attr(li, &ts_field).is_none() {
            tmp.set_attr(li, ts_field, "0");
        }
        for c in tmp.child_elements(li).collect::<Vec<_>>() {
            if self.service.schema.is_idable(tmp.name(c)) {
                tmp.set_attr(c, STATUS_ATTR, Status::Incomplete.as_str());
            }
        }
        self.graft(&tmp, li, path)?;
        // The merge path of `graft` clamps foreign `owned` claims; bootstrap
        // is the one legitimate source of ownership, so restamp explicitly.
        let installed = path
            .resolve(&self.doc)
            .expect("freshly grafted node resolves");
        self.doc.set_attr(installed, STATUS_ATTR, status.as_str());
        if subtree {
            let kids: Vec<NodeId> = master
                .child_elements(m_node)
                .filter(|&c| self.service.schema.is_idable(master.name(c)))
                .collect();
            for k in kids {
                let Some(id) = master.attr(k, "id").map(str::to_string) else {
                    continue;
                };
                let kid_path = path.child(master.name(k).to_string(), id);
                self.install_from_master(master, k, &kid_path, true, status)?;
            }
        }
        Ok(())
    }

    /// Replaces (or inserts) the node at `path` with the subtree `src_root`
    /// from `src`, keeping a higher existing status and merging children
    /// we already know more about.
    fn graft(&mut self, src: &Document, src_root: NodeId, path: &IdPath) -> CoreResult<()> {
        match path.parent() {
            None => Err(CoreError::Protocol("cannot graft at document node".into())),
            Some(parent_path) if parent_path.is_empty() => {
                // Root element.
                match self.doc.root() {
                    None => {
                        let copied = src.deep_copy_into(src_root, &mut self.doc);
                        self.doc.set_root(copied)?;
                        Ok(())
                    }
                    Some(root) => {
                        self.merge_nodes(&self.service.clone(), src, src_root, root);
                        Ok(())
                    }
                }
            }
            Some(parent_path) => {
                let parent = parent_path.resolve(&self.doc).ok_or_else(|| {
                    CoreError::Invariant(format!(
                        "graft at {path} without ancestor chain (violates I2)"
                    ))
                })?;
                let (tag, id) = path.last().expect("non-empty path");
                match self.doc.child_by_name_id(parent, tag, id) {
                    None => {
                        let copied = src.deep_copy_into(src_root, &mut self.doc);
                        self.doc.append_child(parent, copied);
                        Ok(())
                    }
                    Some(existing) => {
                        self.merge_nodes(&self.service.clone(), src, src_root, existing);
                        Ok(())
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fragment merging (cache fill, C1/C2)
    // ------------------------------------------------------------------

    /// Merges an incoming wire fragment (rooted at the document root, every
    /// node carrying a `status` attribute from the receiver's perspective)
    /// into this database. This is the *cache fill* operation of §3.3: the
    /// fragment must satisfy C1/C2, which every fragment built by
    /// [`SiteDatabase::export_subtrees`] does.
    pub fn merge_fragment(&mut self, frag: &Document) -> CoreResult<()> {
        let Some(frag_root) = frag.root() else {
            return Ok(()); // empty fragment: nothing to merge
        };
        match self.doc.root() {
            None => {
                let copied = frag.deep_copy_into(frag_root, &mut self.doc);
                self.doc.set_root(copied)?;
            }
            Some(root) => {
                if self.doc.name(root) != frag.name(frag_root)
                    || self.doc.attr(root, "id") != frag.attr(frag_root, "id")
                {
                    return Err(CoreError::Invariant(
                        "fragment root does not match database root".into(),
                    ));
                }
                self.merge_nodes(&self.service.clone(), frag, frag_root, root);
            }
        }
        if self.wal.is_some() {
            // Serialized only when a log is attached; replay re-merges the
            // identical fragment (merging is deterministic).
            self.log(WalRecord::Merge {
                fragment_xml: sensorxml::serialize(frag, frag_root),
            });
        }
        Ok(())
    }

    /// Recursive merge of `theirs` (in `frag`) into `ours`. `service` is
    /// this database's own, handed down so the recursion borrows it instead
    /// of cloning its strings per node.
    fn merge_nodes(&mut self, service: &Service, frag: &Document, theirs: NodeId, ours: NodeId) {
        let our_status = self.status_of(ours).unwrap_or(Status::Incomplete);
        let their_status = frag
            .attr(theirs, STATUS_ATTR)
            .and_then(Status::parse)
            .unwrap_or(Status::Incomplete);
        // An exported fragment never claims `owned`; clamp defensively so a
        // buggy peer cannot steal ownership.
        let their_status = their_status.min(Status::Complete);

        let ts_field = &service.timestamp_field;
        let our_ts = self
            .doc
            .attr(ours, ts_field)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0);
        let their_ts = frag
            .attr(theirs, ts_field)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0);

        let take_their_content = their_status.has_local_info()
            && our_status != Status::Owned
            && (!our_status.has_local_info() || their_ts > our_ts);

        if take_their_content {
            // A fresher *complete* copy carries the authoritative child-ID
            // set: IDable children of ours that the sender no longer lists
            // were deleted at the owner (§4 schema changes) — drop them,
            // unless they hold owned data.
            let stale_children: Vec<NodeId> = self
                .doc
                .child_elements(ours)
                .filter(|&c| {
                    service.schema.is_idable(self.doc.name(c))
                        && !self.subtree_contains_owned(c)
                        && match self.doc.attr(c, "id") {
                            Some(id) => frag
                                .child_by_name_id(theirs, self.doc.name(c), id)
                                .is_none(),
                            None => false,
                        }
                })
                .collect();
            for c in stale_children {
                self.doc.detach(c);
            }
            // Replace our non-IDable children and scalar attributes with
            // theirs; IDable children are merged structurally below.
            let ours_non_idable: Vec<NodeId> = self
                .doc
                .children(ours)
                .iter()
                .copied()
                .filter(|&c| {
                    !(self.doc.is_element(c) && service.schema.is_idable(self.doc.name(c)))
                })
                .collect();
            for c in ours_non_idable {
                self.doc.detach(c);
            }
            for a in frag.attrs(theirs) {
                if a.name != STATUS_ATTR {
                    self.doc.set_attr(ours, a.name.clone(), a.value.clone());
                }
            }
            let their_kids: Vec<NodeId> = frag.children(theirs).to_vec();
            for c in their_kids {
                let is_idable_child =
                    frag.is_element(c) && service.schema.is_idable(frag.name(c));
                if !is_idable_child {
                    let copied = frag.deep_copy_into(c, &mut self.doc);
                    self.doc.append_child(ours, copied);
                }
            }
        }

        // Status: never downgrade.
        let new_status = our_status.max(their_status);
        self.doc.set_attr(ours, STATUS_ATTR, new_status.as_str());

        // Merge IDable children structurally.
        let their_idable: Vec<NodeId> = frag
            .child_elements(theirs)
            .filter(|&c| service.schema.is_idable(frag.name(c)))
            .collect();
        for tc in their_idable {
            let Some(id) = frag.attr(tc, "id") else {
                continue;
            };
            match self.doc.child_by_name_id(ours, frag.name(tc), id) {
                Some(oc) => self.merge_nodes(service, frag, tc, oc),
                None => {
                    let copied = frag.deep_copy_into(tc, &mut self.doc);
                    self.doc.append_child(ours, copied);
                    self.clamp_owned(copied);
                }
            }
        }
    }

    /// Clamps any `owned` status in a freshly copied foreign subtree down
    /// to `complete`.
    fn clamp_owned(&mut self, node: NodeId) {
        if self.doc.attr(node, STATUS_ATTR) == Some(Status::Owned.as_str()) {
            self.doc
                .set_attr(node, STATUS_ATTR, Status::Complete.as_str());
        }
        let kids: Vec<NodeId> = self.doc.child_elements(node).collect();
        for k in kids {
            self.clamp_owned(k);
        }
    }

    // ------------------------------------------------------------------
    // Exporting fragments (subquery answers / migration)
    // ------------------------------------------------------------------

    /// Coalesces a set of matched stored nodes upward: whenever *all*
    /// stored IDable children of a parent whose local information is
    /// present (status ≥ `complete`) are in the set, the children are
    /// replaced by the parent, and a member's children leave the set.
    /// Exporting the coalesced set ships whole cached units (the paper's
    /// subsumption observation, §3.3) — e.g. a subquery matching every
    /// parking space of a block ships the block subtree, which the
    /// receiver caches as a `complete` block.
    ///
    /// `nodes` must be distinct and in arena order (a duplicate counts as
    /// another child), and each the node its own id path resolves to, as
    /// a sub-answer's matches are (`qeg::matched_final_nodes`). The result
    /// is in [`IdPath`] order, the order targets are exported in.
    pub fn coalesce_covering_nodes(&self, nodes: &[NodeId]) -> Vec<NodeId> {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "distinct, in arena order");
        let doc = &self.doc;
        let mut set = nodes.to_vec();
        loop {
            // A round decides every parent from the set as it stood when
            // the round began: no decision depends on another made in the
            // same round. Members grouped by parent:
            let mut kids: Vec<(NodeId, NodeId)> =
                set.iter().filter_map(|&n| doc.parent(n).map(|p| (p, n))).collect();
            kids.sort_unstable();
            let mut next: Vec<NodeId> =
                set.iter().copied().filter(|&n| doc.parent(n).is_none()).collect();
            let mut changed = false;
            for group in kids.chunk_by(|a, b| a.0 == b.0) {
                let parent = group[0].0;
                let covered = set.binary_search(&parent).is_ok() || {
                    // All stored IDable children of a parent whose local
                    // information is present: the parent stands for them.
                    self.status_of(parent).is_some_and(Status::has_local_info)
                        && group.len()
                            == doc
                                .child_elements(parent)
                                .filter(|&c| self.service.schema.is_idable(doc.name(c)))
                                .count()
                };
                if covered {
                    next.push(parent);
                    changed = true;
                } else {
                    next.extend(group.iter().map(|&(_, k)| k));
                }
            }
            next.sort_unstable();
            next.dedup();
            set = next;
            if !changed {
                break;
            }
        }
        set.sort_by(|&a, &b| cmp_by_id_path(doc, a, b));
        set
    }

    // ------------------------------------------------------------------
    // Updates and eviction
    // ------------------------------------------------------------------

    /// Applies a sensor update at `path`: sets each `(field, value)` child
    /// element's text and stamps the node's timestamp. The caller (the
    /// organizing agent) is responsible for only applying updates to owned
    /// nodes.
    pub fn apply_update(
        &mut self,
        path: &IdPath,
        fields: &[(String, String)],
        ts: f64,
    ) -> CoreResult<()> {
        let node = path
            .resolve(&self.doc)
            .ok_or_else(|| CoreError::Protocol(format!("update: no node at {path}")))?;
        for (field, value) in fields {
            let child = match self.doc.child_by_name(node, field) {
                Some(c) => c,
                None => {
                    let c = self.doc.create_element(field.clone());
                    self.doc.append_child(node, c);
                    c
                }
            };
            self.doc.set_text_content(child, value.clone());
        }
        let ts_field = self.service.timestamp_field.clone();
        self.doc.set_attr(node, ts_field, format_ts(ts));
        self.log(WalRecord::Update { path: path.clone(), fields: fields.to_vec(), ts });
        Ok(())
    }

    /// Evicts the cached local information at `path`, demoting the node to
    /// an `incomplete` ID stub (its subtree is dropped, as C2 requires).
    /// Refuses when the node or any descendant is owned.
    pub fn evict(&mut self, path: &IdPath) -> CoreResult<()> {
        let node = path
            .resolve(&self.doc)
            .ok_or_else(|| CoreError::Protocol(format!("evict: no node at {path}")))?;
        if self.subtree_contains_owned(node) {
            return Err(CoreError::Invariant(format!(
                "cannot evict {path}: subtree contains owned data (I1)"
            )));
        }
        let kids: Vec<NodeId> = self.doc.children(node).to_vec();
        for k in kids {
            self.doc.detach(k);
        }
        let keep_id = self.doc.attr(node, "id").map(str::to_string);
        let attrs: Vec<String> = self.doc.attrs(node).iter().map(|a| a.name.clone()).collect();
        for a in attrs {
            self.doc.remove_attr(node, &a);
        }
        if let Some(id) = keep_id {
            self.doc.set_attr(node, "id", id);
        }
        self.doc
            .set_attr(node, STATUS_ATTR, Status::Incomplete.as_str());
        self.log(WalRecord::Evict { path: path.clone() });
        Ok(())
    }

    fn subtree_contains_owned(&self, node: NodeId) -> bool {
        if self.doc.attr(node, STATUS_ATTR) == Some(Status::Owned.as_str()) {
            return true;
        }
        self.doc
            .descendants(node)
            .any(|d| self.doc.attr(d, STATUS_ATTR) == Some(Status::Owned.as_str()))
    }

    /// Compacts the arena after heavy churn; all outstanding [`NodeId`]s
    /// are invalidated (paths still resolve).
    pub fn compact(&mut self) -> usize {
        self.doc.compact()
    }

    /// Storage cost of the cached unit rooted at `path`, in the units the
    /// cache budget is denominated in: stored nodes and approximate bytes
    /// (tag names, attributes, text, plus per-node overhead). Walking the
    /// unit is O(unit size) — the same order as the merge that created it,
    /// so admission-time accounting never changes a code path's complexity
    /// class. Returns `None` when no node is stored at `path`.
    pub fn unit_cost(&self, path: &IdPath) -> Option<UnitCost> {
        let node = path.resolve(&self.doc)?;
        let mut cost = UnitCost { nodes: 1, bytes: self.node_bytes(node) };
        for d in self.doc.descendants(node) {
            cost.nodes += 1;
            cost.bytes += self.node_bytes(d);
        }
        Some(cost)
    }

    fn node_bytes(&self, node: NodeId) -> usize {
        // Arena slot + child-vec overhead, then the actual payload.
        let mut b = 16 + self.doc.name(node).len();
        for a in self.doc.attrs(node) {
            b += a.name.len() + a.value.len() + 2;
        }
        if let Some(t) = self.doc.text(node) {
            b += t.len();
        }
        b
    }

    // ------------------------------------------------------------------
    // Invariant checking (used heavily by tests)
    // ------------------------------------------------------------------

    /// Verifies the structural invariants of §3.2 against the master
    /// document:
    ///
    /// * every stored IDable node carries a valid status attribute (I2
    ///   implies the parent chain carries them too);
    /// * a node with status ≥ `id-complete` stores exactly the master's set
    ///   of IDable children (the definition of local ID information);
    /// * a node with status `incomplete` stores no children;
    /// * every stored node exists in the master document (no phantoms).
    pub fn check_invariants(&self, master: &Document) -> CoreResult<()> {
        // The sibling index must agree with the child lists after every
        // mutation path (merge, eviction, schema change); a divergence here
        // would silently corrupt id-path resolution.
        self.doc
            .check_sibling_index()
            .map_err(CoreError::Invariant)?;
        let Some(root) = self.doc.root() else {
            return Ok(()); // empty database is trivially consistent
        };
        let m_root = master
            .require_root()
            .map_err(|_| CoreError::Invariant("master has no root".into()))?;
        if self.doc.name(root) != master.name(m_root)
            || self.doc.attr(root, "id") != master.attr(m_root, "id")
        {
            return Err(CoreError::Invariant("root mismatch with master".into()));
        }
        self.check_node(root, master, m_root, &IdPath::root())
    }

    fn check_node(
        &self,
        ours: NodeId,
        master: &Document,
        theirs: NodeId,
        parent_path: &IdPath,
    ) -> CoreResult<()> {
        let tag = self.doc.name(ours).to_string();
        let id = self.doc.attr(ours, "id").unwrap_or("").to_string();
        let path = parent_path.child(tag.clone(), id.clone());
        let status = self
            .doc
            .attr(ours, STATUS_ATTR)
            .and_then(Status::parse)
            .ok_or_else(|| {
                CoreError::Invariant(format!("stored IDable node {path} lacks a valid status"))
            })?;

        let our_idable: Vec<(String, String)> = self
            .doc
            .child_elements(ours)
            .filter(|&c| self.service.schema.is_idable(self.doc.name(c)))
            .map(|c| {
                (
                    self.doc.name(c).to_string(),
                    self.doc.attr(c, "id").unwrap_or("").to_string(),
                )
            })
            .collect();

        match status {
            Status::Incomplete => {
                if !self.doc.children(ours).is_empty() {
                    return Err(CoreError::Invariant(format!(
                        "incomplete node {path} stores children"
                    )));
                }
            }
            _ => {
                // Local ID information: exactly the master's IDable child set.
                let mut master_idable: Vec<(String, String)> = master
                    .child_elements(theirs)
                    .filter(|&c| self.service.schema.is_idable(master.name(c)))
                    .map(|c| {
                        (
                            master.name(c).to_string(),
                            master.attr(c, "id").unwrap_or("").to_string(),
                        )
                    })
                    .collect();
                let mut ours_sorted = our_idable.clone();
                ours_sorted.sort();
                master_idable.sort();
                if ours_sorted != master_idable {
                    return Err(CoreError::Invariant(format!(
                        "node {path} (status {}) stores IDable children {ours_sorted:?}, master has {master_idable:?}",
                        status.as_str()
                    )));
                }
            }
        }

        // Recurse: every stored IDable child must exist in master (checked
        // above via the set equality) — still verify subtree pairing.
        for (ctag, cid) in &our_idable {
            let oc = self
                .doc
                .child_by_name_id(ours, ctag, cid)
                .expect("listed child resolves");
            let mc = master.child_by_name_id(theirs, ctag, cid).ok_or_else(|| {
                CoreError::Invariant(format!("phantom node {path}/{ctag}={cid}"))
            })?;
            self.check_node(oc, master, mc, &path)?;
        }
        Ok(())
    }
}

/// A snapshot of what a site database holds, by status (used by load
/// balancers, eviction policies and operators).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FragmentStats {
    pub owned: usize,
    pub complete: usize,
    pub id_complete: usize,
    pub incomplete: usize,
    /// Total stored nodes (elements + text), i.e. the document size the
    /// engines walk.
    pub stored_nodes: usize,
}

impl FragmentStats {
    /// IDable nodes with any status attribute.
    pub fn idable_total(&self) -> usize {
        self.owned + self.complete + self.id_complete + self.incomplete
    }
}

/// Size of one cached unit in the denominations a cache budget uses
/// (see [`SiteDatabase::unit_cost`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitCost {
    /// Stored nodes (elements + text) in the unit's subtree.
    pub nodes: usize,
    /// Approximate heap bytes the subtree occupies.
    pub bytes: usize,
}

impl SiteDatabase {
    /// Computes status statistics over the stored fragment.
    pub fn stats(&self) -> FragmentStats {
        let mut s = FragmentStats::default();
        let Some(root) = self.doc.root() else { return s };
        s.stored_nodes = self.doc.reachable_count();
        for n in std::iter::once(root).chain(self.doc.descendants(root)) {
            match self.doc.attr(n, STATUS_ATTR).and_then(Status::parse) {
                Some(Status::Owned) => s.owned += 1,
                Some(Status::Complete) => s.complete += 1,
                Some(Status::IdComplete) => s.id_complete += 1,
                Some(Status::Incomplete) => s.incomplete += 1,
                None => {}
            }
        }
        s
    }
}

/// Formats a timestamp attribute value.
pub fn format_ts(ts: f64) -> String {
    // Timestamps are seconds; keep them compact and parseable.
    if ts == ts.trunc() {
        format!("{}", ts as i64)
    } else {
        format!("{ts}")
    }
}

/// Strips internal attributes (`status`, the timestamp field) from a whole
/// document, producing the user-facing view.
pub fn strip_internal_attrs(doc: &mut Document, ts_field: &str) {
    let Some(root) = doc.root() else { return };
    let nodes: Vec<NodeId> = std::iter::once(root).chain(doc.descendants(root)).collect();
    for n in nodes {
        doc.remove_attr(n, STATUS_ATTR);
        doc.remove_attr(n, ts_field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;
    use sensorxml::parse;

    fn master() -> Document {
        parse(
            r#"<usRegion id="NE">
              <state id="PA">
                <county id="Allegheny">
                  <city id="Pittsburgh">
                    <neighborhood id="Oakland" zipcode="15213">
                      <available-spaces>8</available-spaces>
                      <block id="1">
                        <parkingSpace id="1"><available>yes</available><price>25</price></parkingSpace>
                        <parkingSpace id="2"><available>no</available><price>0</price></parkingSpace>
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

    fn oakland() -> IdPath {
        IdPath::from_pairs([
            ("usRegion", "NE"),
            ("state", "PA"),
            ("county", "Allegheny"),
            ("city", "Pittsburgh"),
            ("neighborhood", "Oakland"),
        ])
    }

    fn shadyside() -> IdPath {
        IdPath::from_pairs([
            ("usRegion", "NE"),
            ("state", "PA"),
            ("county", "Allegheny"),
            ("city", "Pittsburgh"),
            ("neighborhood", "Shadyside"),
        ])
    }

    #[test]
    fn status_ordering() {
        assert!(Status::Incomplete < Status::IdComplete);
        assert!(Status::IdComplete < Status::Complete);
        assert!(Status::Complete < Status::Owned);
        for s in [Status::Incomplete, Status::IdComplete, Status::Complete, Status::Owned] {
            assert_eq!(Status::parse(s.as_str()), Some(s));
        }
        assert_eq!(Status::parse("bogus"), None);
    }

    #[test]
    fn bootstrap_owned_subtree_satisfies_invariants() {
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &oakland(), true).unwrap();
        db.check_invariants(&m).unwrap();
        assert_eq!(db.status_at(&oakland()), Some(Status::Owned));
        assert_eq!(
            db.status_at(&oakland().child("block", "1")),
            Some(Status::Owned)
        );
        // Ancestors are id-complete, the sibling neighborhood incomplete.
        assert_eq!(
            db.status_at(&oakland().parent().unwrap()),
            Some(Status::IdComplete)
        );
        assert_eq!(db.status_at(&shadyside()), Some(Status::Incomplete));
    }

    #[test]
    fn bootstrap_non_subtree_keeps_children_incomplete() {
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &oakland(), false).unwrap();
        db.check_invariants(&m).unwrap();
        assert_eq!(db.status_at(&oakland()), Some(Status::Owned));
        assert_eq!(
            db.status_at(&oakland().child("block", "1")),
            Some(Status::Incomplete)
        );
    }

    #[test]
    fn export_and_merge_cache_fill() {
        let m = master();
        let mut owner = SiteDatabase::new(Service::parking());
        owner.bootstrap_owned(&m, &oakland(), true).unwrap();

        // Owner exports Oakland block 1; a city-level cache merges it.
        let frag = owner
            .export_subtrees(&[oakland().child("block", "1")])
            .unwrap();
        let mut cache = SiteDatabase::new(Service::parking());
        cache
            .bootstrap_owned(&m, &shadyside(), true)
            .unwrap();
        cache.merge_fragment(&frag).unwrap();
        cache.check_invariants(&m).unwrap();

        // The cache now has the block as complete (not owned).
        let bp = oakland().child("block", "1");
        assert_eq!(cache.status_at(&bp), Some(Status::Complete));
        assert_eq!(
            cache.status_at(&bp.child("parkingSpace", "1")),
            Some(Status::Complete)
        );
        // Oakland itself is only id-complete (ancestor chain).
        assert_eq!(cache.status_at(&oakland()), Some(Status::IdComplete));
        // And its own data is untouched.
        assert_eq!(cache.status_at(&shadyside()), Some(Status::Owned));
    }

    #[test]
    fn merge_is_idempotent_and_order_insensitive() {
        let m = master();
        let mut owner = SiteDatabase::new(Service::parking());
        owner.bootstrap_owned(&m, &oakland(), true).unwrap();
        let f1 = owner.export_subtrees(&[oakland().child("block", "1")]).unwrap();
        let f2 = owner.export_subtrees(&[oakland().child("block", "2")]).unwrap();

        let mut a = SiteDatabase::new(Service::parking());
        a.merge_fragment(&f1).unwrap();
        a.merge_fragment(&f2).unwrap();
        a.merge_fragment(&f1).unwrap(); // idempotent re-merge

        let mut b = SiteDatabase::new(Service::parking());
        b.merge_fragment(&f2).unwrap();
        b.merge_fragment(&f1).unwrap();

        a.check_invariants(&m).unwrap();
        b.check_invariants(&m).unwrap();
        assert!(sensorxml::unordered_eq(
            a.doc(),
            a.doc().root().unwrap(),
            b.doc(),
            b.doc().root().unwrap()
        ));
    }

    #[test]
    fn merge_never_downgrades_owned() {
        let m = master();
        let mut owner = SiteDatabase::new(Service::parking());
        owner.bootstrap_owned(&m, &oakland(), true).unwrap();
        // Another site exports a *stale* copy of Oakland block 1 back at us.
        let frag = owner.export_subtrees(&[oakland().child("block", "1")]).unwrap();
        owner.merge_fragment(&frag).unwrap();
        owner.check_invariants(&m).unwrap();
        assert_eq!(
            owner.status_at(&oakland().child("block", "1")),
            Some(Status::Owned)
        );
    }

    #[test]
    fn newer_timestamp_wins_in_cache() {
        let m = master();
        let mut owner = SiteDatabase::new(Service::parking());
        owner.bootstrap_owned(&m, &oakland(), true).unwrap();
        let sp = oakland().child("block", "1").child("parkingSpace", "1");

        owner.apply_update(&sp, &[("available".into(), "no".into())], 100.0).unwrap();
        let newer = owner.export_subtrees(std::slice::from_ref(&sp)).unwrap();

        let mut cache = SiteDatabase::new(Service::parking());
        // Cache receives fresh data first, then a stale replay.
        cache.merge_fragment(&newer).unwrap();
        let mut owner2 = SiteDatabase::new(Service::parking());
        owner2.bootstrap_owned(&m, &oakland(), true).unwrap();
        owner2.apply_update(&sp, &[("available".into(), "yes".into())], 50.0).unwrap();
        let stale = owner2.export_subtrees(std::slice::from_ref(&sp)).unwrap();
        cache.merge_fragment(&stale).unwrap();

        let n = sp.resolve(cache.doc()).unwrap();
        let avail = cache.doc().child_by_name(n, "available").unwrap();
        assert_eq!(cache.doc().text_content(avail), "no"); // ts 100 kept
        assert_eq!(cache.timestamp_at(&sp), 100.0);
    }

    #[test]
    fn apply_update_sets_fields_and_timestamp() {
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &oakland(), true).unwrap();
        let sp = oakland().child("block", "1").child("parkingSpace", "2");
        db.apply_update(
            &sp,
            &[("available".into(), "yes".into()), ("price".into(), "10".into())],
            42.5,
        )
        .unwrap();
        let n = sp.resolve(db.doc()).unwrap();
        assert_eq!(
            db.doc().text_content(db.doc().child_by_name(n, "available").unwrap()),
            "yes"
        );
        assert_eq!(
            db.doc().text_content(db.doc().child_by_name(n, "price").unwrap()),
            "10"
        );
        assert_eq!(db.timestamp_at(&sp), 42.5);
        db.check_invariants(&m).unwrap();
        // Updating a missing node errors.
        assert!(db
            .apply_update(&oakland().child("block", "99"), &[], 1.0)
            .is_err());
    }

    #[test]
    fn evict_demotes_to_incomplete_stub() {
        let m = master();
        let mut owner = SiteDatabase::new(Service::parking());
        owner.bootstrap_owned(&m, &oakland(), true).unwrap();
        let frag = owner.export_subtrees(&[oakland().child("block", "1")]).unwrap();
        let mut cache = SiteDatabase::new(Service::parking());
        cache.merge_fragment(&frag).unwrap();

        let bp = oakland().child("block", "1");
        cache.evict(&bp).unwrap();
        assert_eq!(cache.status_at(&bp), Some(Status::Incomplete));
        cache.check_invariants(&m).unwrap();
        // Owned data refuses eviction.
        assert!(owner.evict(&bp).is_err());
        assert!(owner.evict(&oakland()).is_err()); // descendant owned
    }

    #[test]
    fn check_invariants_catches_violations() {
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &oakland(), true).unwrap();
        // Manually corrupt: drop a sibling stub from the city's ID info.
        let city = oakland().parent().unwrap();
        let city_node = city.resolve(db.doc()).unwrap();
        let shady = db.doc().child_by_name_id(city_node, "neighborhood", "Shadyside").unwrap();
        // Reach inside (test-only) to violate local ID information.
        dbmut(&mut db).detach(shady);
        assert!(db.check_invariants(&m).is_err());
    }

    /// Test-only access to the inner document.
    fn dbmut(db: &mut SiteDatabase) -> &mut Document {
        &mut db.doc
    }

    #[test]
    fn stats_count_statuses() {
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        assert_eq!(db.stats(), FragmentStats::default());
        db.bootstrap_owned(&m, &oakland(), true).unwrap();
        let s = db.stats();
        // Oakland + 2 blocks + 3 spaces owned.
        assert_eq!(s.owned, 6);
        // Ancestors id-complete: usRegion/state/county/city.
        assert_eq!(s.id_complete, 4);
        // Shadyside stub incomplete.
        assert_eq!(s.incomplete, 1);
        assert_eq!(s.complete, 0);
        assert!(s.stored_nodes > s.idable_total());
    }

    #[test]
    fn strip_internal_attrs_cleans_answers() {
        let m = master();
        let mut db = SiteDatabase::new(Service::parking());
        db.bootstrap_owned(&m, &oakland(), true).unwrap();
        let mut frag = db.export_subtrees(&[oakland()]).unwrap();
        strip_internal_attrs(&mut frag, "timestamp");
        let root = frag.root().unwrap();
        let all: Vec<_> = std::iter::once(root).chain(frag.descendants(root)).collect();
        for n in all {
            assert!(frag.attr(n, STATUS_ATTR).is_none());
            assert!(frag.attr(n, "timestamp").is_none());
        }
    }

    #[test]
    fn export_multiple_targets_shares_ancestors() {
        let m = master();
        let mut owner = SiteDatabase::new(Service::parking());
        owner.bootstrap_owned(&m, &oakland(), true).unwrap();
        let frag = owner
            .export_subtrees(&[
                oakland().child("block", "1"),
                oakland().child("block", "2"),
            ])
            .unwrap();
        let root = frag.root().unwrap();
        assert_eq!(frag.name(root), "usRegion");
        let oak = oakland().resolve(&frag).unwrap();
        // Both blocks present under a single Oakland ancestor.
        assert!(frag.child_by_name_id(oak, "block", "1").is_some());
        assert!(frag.child_by_name_id(oak, "block", "2").is_some());
        assert_eq!(
            frag.attr(oak, STATUS_ATTR),
            Some(Status::IdComplete.as_str())
        );
    }
}
