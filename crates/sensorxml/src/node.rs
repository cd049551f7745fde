//! The arena-based document model.
//!
//! A [`Document`] owns all of its nodes in one `Vec` arena; a [`NodeId`] is a
//! plain index into that arena. Tree edits are O(1) pointer updates plus the
//! usual `Vec` child-list operations, and copying a subtree between two
//! documents (the bread-and-butter operation of a caching site) is a single
//! preorder walk with no reference-counting traffic.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::error::{XmlError, XmlResult};

/// FNV-1a, the hasher for the sibling-index maps. Keys are short tag names
/// and id values (rarely past 16 bytes), where FNV beats the default
/// SipHash 2-3x; the index is internal, so SipHash's flood resistance buys
/// nothing.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;

/// Number of children at which an element materializes its sibling index.
///
/// Below this, a linear scan beats hashing and the index would only cost
/// memory; at or above it, `child_by_name_id` lookups go through the index.
/// Sensor hierarchies are exactly the shape that needs this: interior nodes
/// (blocks, neighborhoods) fan out to tens of id-distinguished children
/// while leaf readings stay tiny.
const INDEX_THRESHOLD: usize = 8;

/// Per-id-value entry of a [`TagEntry`]: the first matching child in
/// document order plus how many children share the `(tag, id)` key (XML
/// does not forbid duplicates; the fragment layer treats them as
/// non-IDable, but the index must stay exact anyway).
#[derive(Debug, Clone, Copy)]
struct IdEntry {
    first: NodeId,
    count: u32,
}

/// Per-tag entry of a [`ChildIndex`]: first element child with this tag,
/// how many share it, and the nested `id`-attribute map.
#[derive(Debug, Clone)]
struct TagEntry {
    first: NodeId,
    count: u32,
    by_id: FnvMap<String, IdEntry>,
}

/// The sibling index of one element: `tag → first child` and
/// `(tag, id) → first child` with exact document-order `first` and exact
/// multiplicity counts, maintained through every mutation.
#[derive(Debug, Clone, Default)]
struct ChildIndex {
    tags: FnvMap<String, TagEntry>,
}

/// Identifier of a node within one [`Document`] arena.
///
/// `NodeId`s are only meaningful for the document that produced them; using
/// one against another document is either caught ([`Document::compact`]
/// invalidates ids) or yields an arbitrary node of the other arena. The
/// higher layers (site databases) never mix arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single `name="value"` attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    pub name: String,
    pub value: String,
}

/// The element payload of a node: tag name, attributes, child list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    pub name: String,
    pub attrs: Vec<Attr>,
    pub children: Vec<NodeId>,
}

/// What a node is: an element or a text run.
///
/// Comments and processing instructions are dropped at parse time; sensor
/// documents never carry meaning in them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    Element(Element),
    Text(String),
}

#[derive(Debug, Clone)]
struct Node {
    parent: Option<NodeId>,
    kind: NodeKind,
    /// Lazily materialized sibling index (elements with many children only).
    index: Option<Box<ChildIndex>>,
}

/// An XML document: an arena of nodes plus an optional root element.
///
/// The document may be *empty* (no root) — freshly initialised site caches
/// start that way and acquire a root on the first fragment merge.
#[derive(Debug, Clone, Default)]
pub struct Document {
    nodes: Vec<Node>,
    root: Option<NodeId>,
}

impl Document {
    /// Creates an empty document with no root.
    pub fn new() -> Self {
        Document::default()
    }

    /// Creates a document with a root element of the given name and returns
    /// the document together with the root id.
    pub fn with_root(name: impl Into<String>) -> (Self, NodeId) {
        let mut doc = Document::new();
        let root = doc.create_element(name);
        doc.root = Some(root);
        (doc, root)
    }

    /// The root element, if any.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// The root element, or an error for empty documents.
    pub fn require_root(&self) -> XmlResult<NodeId> {
        self.root.ok_or(XmlError::NoRoot)
    }

    /// Total number of arena slots (including detached/garbage nodes).
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from the root.
    pub fn reachable_count(&self) -> usize {
        match self.root {
            None => 0,
            Some(r) => 1 + self.descendants(r).count(),
        }
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Allocates a detached element node.
    pub fn create_element(&mut self, name: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Element(Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }))
    }

    /// Allocates a detached text node.
    pub fn create_text(&mut self, text: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Text(text.into()))
    }

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { parent: None, kind, index: None });
        id
    }

    /// Makes `id` the document root. Fails if a different root is already set.
    pub fn set_root(&mut self, id: NodeId) -> XmlResult<()> {
        match self.root {
            Some(r) if r != id => Err(XmlError::MultipleRoots),
            _ => {
                self.root = Some(id);
                Ok(())
            }
        }
    }

    /// Appends `child` (which must be detached) under `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(self.node(child).parent.is_none(), "child must be detached");
        self.node_mut(child).parent = Some(parent);
        let len = match &mut self.node_mut(parent).kind {
            NodeKind::Element(el) => {
                el.children.push(child);
                el.children.len()
            }
            NodeKind::Text(_) => panic!("cannot append children to a text node"),
        };
        if self.node(parent).index.is_some() {
            self.index_append(parent, child);
        } else if len >= INDEX_THRESHOLD {
            self.build_index(parent);
        }
    }

    /// Unlinks `id` from its parent (or clears the root if `id` is the root).
    /// The subtree remains in the arena until [`Document::compact`].
    pub fn detach(&mut self, id: NodeId) {
        if self.root == Some(id) {
            self.root = None;
        }
        let parent = self.node_mut(id).parent.take();
        if let Some(p) = parent {
            if let NodeKind::Element(el) = &mut self.node_mut(p).kind {
                el.children.retain(|&c| c != id);
            }
            if self.node(p).index.is_some() {
                self.index_detach(p, id);
            }
        }
    }

    /// The parent of a node, if attached.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    /// The node kind.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.node(id).kind
    }

    /// True if the node is an element.
    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, NodeKind::Element(_))
    }

    /// True if the node is a text node.
    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.node(id).kind, NodeKind::Text(_))
    }

    /// Element tag name, or `""` for text nodes.
    pub fn name(&self, id: NodeId) -> &str {
        match &self.node(id).kind {
            NodeKind::Element(el) => &el.name,
            NodeKind::Text(_) => "",
        }
    }

    /// The element payload, or an error for text nodes.
    pub fn element(&self, id: NodeId) -> XmlResult<&Element> {
        match &self.node(id).kind {
            NodeKind::Element(el) => Ok(el),
            NodeKind::Text(_) => Err(XmlError::NotAnElement),
        }
    }

    /// Text-node content (not to be confused with [`Document::text_content`]).
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Text(t) => Some(t),
            NodeKind::Element(_) => None,
        }
    }

    /// Attribute lookup on an element; `None` for missing attributes and for
    /// text nodes.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element(el) => el
                .attrs
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_str()),
            NodeKind::Text(_) => None,
        }
    }

    /// All attributes of an element (empty slice for text nodes).
    pub fn attrs(&self, id: NodeId) -> &[Attr] {
        match &self.node(id).kind {
            NodeKind::Element(el) => &el.attrs,
            NodeKind::Text(_) => &[],
        }
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, id: NodeId, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        let track_id = name == "id" && self.is_element(id);
        let old = if track_id { self.attr(id, "id").map(str::to_string) } else { None };
        let new = if track_id { Some(value.clone()) } else { None };
        if let NodeKind::Element(el) = &mut self.node_mut(id).kind {
            if let Some(a) = el.attrs.iter_mut().find(|a| a.name == name) {
                a.value = value;
            } else {
                el.attrs.push(Attr { name, value });
            }
        }
        if track_id && old != new {
            self.reindex_id_attr(id, old, new);
        }
    }

    /// Removes an attribute; returns the old value if present.
    pub fn remove_attr(&mut self, id: NodeId, name: &str) -> Option<String> {
        if let NodeKind::Element(el) = &mut self.node_mut(id).kind {
            if let Some(pos) = el.attrs.iter().position(|a| a.name == name) {
                let old = el.attrs.remove(pos).value;
                if name == "id" {
                    self.reindex_id_attr(id, Some(old.clone()), None);
                }
                return Some(old);
            }
        }
        None
    }

    /// Child list of an element (empty for text nodes).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match &self.node(id).kind {
            NodeKind::Element(el) => &el.children,
            NodeKind::Text(_) => &[],
        }
    }

    /// Iterator over the element children only.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .iter()
            .copied()
            .filter(move |&c| self.is_element(c))
    }

    /// Finds a child element with the given tag name and `id` attribute value.
    ///
    /// This is the fundamental lookup of the IrisNet fragment model, where a
    /// node's identity among same-named siblings is its `id` attribute. For
    /// elements past [`INDEX_THRESHOLD`] children it is an O(1) hash lookup
    /// in the sibling index; smaller elements use the linear scan.
    pub fn child_by_name_id(&self, parent: NodeId, name: &str, idval: &str) -> Option<NodeId> {
        if let Some(idx) = self.node(parent).index.as_deref() {
            return idx.tags.get(name).and_then(|t| t.by_id.get(idval)).map(|e| e.first);
        }
        self.child_by_name_id_linear(parent, name, idval)
    }

    /// The unindexed sibling scan behind [`Document::child_by_name_id`];
    /// kept public as the benchmark baseline and test oracle.
    pub fn child_by_name_id_linear(
        &self,
        parent: NodeId,
        name: &str,
        idval: &str,
    ) -> Option<NodeId> {
        self.child_elements(parent)
            .find(|&c| self.name(c) == name && self.attr(c, "id") == Some(idval))
    }

    /// Finds the first child element with the given tag name.
    pub fn child_by_name(&self, parent: NodeId, name: &str) -> Option<NodeId> {
        if let Some(idx) = self.node(parent).index.as_deref() {
            return idx.tags.get(name).map(|t| t.first);
        }
        self.child_by_name_linear(parent, name)
    }

    /// The unindexed scan behind [`Document::child_by_name`].
    pub fn child_by_name_linear(&self, parent: NodeId, name: &str) -> Option<NodeId> {
        self.child_elements(parent).find(|&c| self.name(c) == name)
    }

    /// All child elements matching `(name, idval)` in document order.
    ///
    /// This is the node-set the XPath step `child::name[@id = 'idval']`
    /// selects. In the overwhelmingly common case the index proves the match
    /// unique (or absent) in O(1); only genuine duplicates fall back to the
    /// scan.
    pub fn children_by_name_id(&self, parent: NodeId, name: &str, idval: &str) -> Vec<NodeId> {
        if let Some(idx) = self.node(parent).index.as_deref() {
            match idx.tags.get(name).and_then(|t| t.by_id.get(idval)) {
                None => return Vec::new(),
                Some(e) if e.count == 1 => return vec![e.first],
                Some(_) => {}
            }
        }
        self.child_elements(parent)
            .filter(|&c| self.name(c) == name && self.attr(c, "id") == Some(idval))
            .collect()
    }

    /// True if `id` currently holds a materialized sibling index.
    pub fn has_sibling_index(&self, id: NodeId) -> bool {
        self.node(id).index.is_some()
    }

    /// Concatenated text of all descendant text nodes (the XPath
    /// string-value of an element).
    pub fn text_content(&self, id: NodeId) -> String {
        if let Some(t) = self.text_content_fast(id) {
            return t.to_string();
        }
        let mut out = String::new();
        self.collect_text(id, &mut out);
        out
    }

    /// Borrowed string-value for the common leaf shapes — a text node, an
    /// empty element, or an element whose single child is a text node (every
    /// sensor reading looks like `<available>yes</available>`). Returns
    /// `None` for mixed/nested content, where the caller needs the
    /// concatenating [`Document::text_content`].
    pub fn text_content_fast(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Text(t) => Some(t),
            NodeKind::Element(el) => match el.children.as_slice() {
                [] => Some(""),
                [only] => self.text(*only),
                _ => None,
            },
        }
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.node(id).kind {
            NodeKind::Text(t) => out.push_str(t),
            NodeKind::Element(el) => {
                for &c in &el.children {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Replaces the children of `id` with a single text node (the way sensor
    /// updates overwrite a reading such as `<available>yes</available>`).
    ///
    /// When the only child already is a text node its string is overwritten
    /// in place — no new slot, and the text node keeps its [`NodeId`] — so a
    /// stream of readings does not grow the arena. Any other shape detaches
    /// the old children (garbage until [`Document::compact`]) and appends a
    /// fresh text node.
    pub fn set_text_content(&mut self, id: NodeId, text: impl Into<String>) {
        if let &[only] = self.children(id) {
            if let NodeKind::Text(t) = &mut self.node_mut(only).kind {
                *t = text.into();
                return;
            }
        }
        let old: Vec<NodeId> = self.children(id).to_vec();
        for c in old {
            self.detach(c);
        }
        let t = self.create_text(text);
        self.append_child(id, t);
    }

    /// Preorder iterator over strict descendants of `id`.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            stack: self.children(id).iter().rev().copied().collect(),
        }
    }

    /// Iterator over ancestors, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors {
            doc: self,
            cur: self.parent(id),
        }
    }

    /// Depth of `id` (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.ancestors(id).count()
    }

    /// Deep-copies the subtree rooted at `src` (in `self`) into `dst`,
    /// returning the new detached root id in `dst`'s arena.
    pub fn deep_copy_into(&self, src: NodeId, dst: &mut Document) -> NodeId {
        let new = match &self.node(src).kind {
            NodeKind::Text(t) => dst.create_text(t.clone()),
            NodeKind::Element(el) => {
                let e = dst.create_element(el.name.clone());
                for a in &el.attrs {
                    dst.set_attr(e, a.name.clone(), a.value.clone());
                }
                e
            }
        };
        for &c in self.children(src) {
            let cc = self.deep_copy_into(c, dst);
            dst.append_child(new, cc);
        }
        new
    }

    /// Copies only the element itself (name + attributes), no children.
    pub fn shallow_copy_into(&self, src: NodeId, dst: &mut Document) -> NodeId {
        match &self.node(src).kind {
            NodeKind::Text(t) => dst.create_text(t.clone()),
            NodeKind::Element(el) => {
                let e = dst.create_element(el.name.clone());
                for a in &el.attrs {
                    dst.set_attr(e, a.name.clone(), a.value.clone());
                }
                e
            }
        }
    }

    // ---- sibling-index maintenance ----
    //
    // Invariants (checked by `check_sibling_index`, relied on by the
    // lookup fast paths):
    //   X1. An index, if present, covers exactly the element children of
    //       its owner: `tags[t].count` children have tag `t`, and
    //       `tags[t].by_id[v].count` of those carry `id="v"`.
    //   X2. Every `first` is the first match in document order, so indexed
    //       lookups agree with the linear scan even under duplicate keys.
    //   X3. Absence is exact: a key missing from a present index means no
    //       child matches (lookups return `None` without scanning).

    /// Builds the sibling index of `parent` from its current children.
    fn build_index(&mut self, parent: NodeId) {
        let entries: Vec<(NodeId, String, Option<String>)> = self
            .child_elements(parent)
            .map(|c| (c, self.name(c).to_string(), self.attr(c, "id").map(str::to_string)))
            .collect();
        let mut idx = ChildIndex::default();
        for (c, name, idval) in entries {
            let tag = idx.tags.entry(name).or_insert_with(|| TagEntry {
                first: c,
                count: 0,
                by_id: FnvMap::default(),
            });
            tag.count += 1;
            if let Some(v) = idval {
                let e = tag.by_id.entry(v).or_insert(IdEntry { first: c, count: 0 });
                e.count += 1;
            }
        }
        self.node_mut(parent).index = Some(Box::new(idx));
    }

    /// Index update for a child appended at the end of the child list: the
    /// existing `first` entries stay correct, counts grow.
    fn index_append(&mut self, parent: NodeId, child: NodeId) {
        if !self.is_element(child) {
            return;
        }
        let name = self.name(child).to_string();
        let idval = self.attr(child, "id").map(str::to_string);
        let Some(idx) = self.node_mut(parent).index.as_deref_mut() else {
            return;
        };
        let tag = idx.tags.entry(name).or_insert_with(|| TagEntry {
            first: child,
            count: 0,
            by_id: FnvMap::default(),
        });
        tag.count += 1;
        if let Some(v) = idval {
            let e = tag.by_id.entry(v).or_insert(IdEntry { first: child, count: 0 });
            e.count += 1;
        }
    }

    /// Index update after `child` was removed from `parent`'s child list
    /// (the node itself is still in the arena, so its keys are readable).
    /// Only a removal of the current `first` needs a rescan, and `detach`
    /// is already O(children) from the `retain`.
    fn index_detach(&mut self, parent: NodeId, child: NodeId) {
        if !self.is_element(child) {
            return;
        }
        let name = self.name(child).to_string();
        let idval = self.attr(child, "id").map(str::to_string);

        let Some(idx) = self.node(parent).index.as_deref() else {
            return;
        };
        let Some(tag) = idx.tags.get(&name) else {
            debug_assert!(false, "detached element child missing from sibling index");
            return;
        };
        // Decide on rescans with the shared borrow, then apply mutably.
        let remove_tag = tag.count == 1;
        let new_tag_first = (!remove_tag && tag.first == child)
            .then(|| self.scan_first_count(parent, &name, None).expect("count > 1").0);
        let mut remove_id = false;
        let mut new_id_entry = None;
        if let Some(v) = idval.as_deref() {
            if let Some(e) = tag.by_id.get(v) {
                remove_id = e.count == 1;
                if !remove_id && e.first == child {
                    new_id_entry = self.scan_first_count(parent, &name, Some(v));
                }
            } else {
                debug_assert!(false, "detached element id missing from sibling index");
            }
        }

        let idx = self.node_mut(parent).index.as_deref_mut().expect("checked above");
        if remove_tag {
            idx.tags.remove(&name);
            return;
        }
        let tag = idx.tags.get_mut(&name).expect("checked above");
        tag.count -= 1;
        if let Some(f) = new_tag_first {
            tag.first = f;
        }
        if let Some(v) = idval {
            if remove_id {
                tag.by_id.remove(&v);
            } else if let Some(e) = tag.by_id.get_mut(&v) {
                e.count -= 1;
                if let Some((f, _)) = new_id_entry {
                    e.first = f;
                }
            }
        }
    }

    /// Recomputes the `(tag, id)` entries touched by an `id` attribute
    /// change on an attached child of an indexed parent. The tag entry
    /// itself is unaffected (the element kept its name and position).
    fn reindex_id_attr(&mut self, node: NodeId, old: Option<String>, new: Option<String>) {
        let Some(parent) = self.parent(node) else {
            return;
        };
        if self.node(parent).index.is_none() {
            return;
        }
        let name = self.name(node).to_string();
        for key in [old, new].into_iter().flatten() {
            let fresh = self.scan_first_count(parent, &name, Some(&key));
            let Some(idx) = self.node_mut(parent).index.as_deref_mut() else {
                return;
            };
            let Some(tag) = idx.tags.get_mut(&name) else {
                debug_assert!(false, "attached element missing from sibling index");
                return;
            };
            match fresh {
                Some((first, count)) => {
                    tag.by_id.insert(key, IdEntry { first, count });
                }
                None => {
                    tag.by_id.remove(&key);
                }
            }
        }
    }

    /// First matching element child and match count, by linear scan.
    fn scan_first_count(
        &self,
        parent: NodeId,
        name: &str,
        idval: Option<&str>,
    ) -> Option<(NodeId, u32)> {
        let mut first = None;
        let mut count = 0;
        for c in self.child_elements(parent) {
            if self.name(c) == name
                && idval.is_none_or(|v| self.attr(c, "id") == Some(v))
            {
                first.get_or_insert(c);
                count += 1;
            }
        }
        first.map(|f| (f, count))
    }

    /// Verifies invariants X1–X3 for every materialized index in the arena
    /// (including detached subtrees). Test/debug helper: O(arena size).
    pub fn check_sibling_index(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let Some(idx) = node.index.as_deref() else {
                continue;
            };
            let id = NodeId(i as u32);
            let mut want = ChildIndex::default();
            for c in self.child_elements(id) {
                let tag = want.tags.entry(self.name(c).to_string()).or_insert_with(|| {
                    TagEntry { first: c, count: 0, by_id: FnvMap::default() }
                });
                tag.count += 1;
                if let Some(v) = self.attr(c, "id") {
                    let e = tag
                        .by_id
                        .entry(v.to_string())
                        .or_insert(IdEntry { first: c, count: 0 });
                    e.count += 1;
                }
            }
            if idx.tags.len() != want.tags.len() {
                return Err(format!(
                    "node {i}: index has {} tags, children have {}",
                    idx.tags.len(),
                    want.tags.len()
                ));
            }
            for (name, w) in &want.tags {
                let Some(g) = idx.tags.get(name) else {
                    return Err(format!("node {i}: tag {name:?} missing from index"));
                };
                if (g.first, g.count) != (w.first, w.count) {
                    return Err(format!(
                        "node {i}, tag {name:?}: index has ({:?}, {}), children have ({:?}, {})",
                        g.first, g.count, w.first, w.count
                    ));
                }
                if g.by_id.len() != w.by_id.len() {
                    return Err(format!(
                        "node {i}, tag {name:?}: index has {} ids, children have {}",
                        g.by_id.len(),
                        w.by_id.len()
                    ));
                }
                for (v, we) in &w.by_id {
                    match g.by_id.get(v) {
                        Some(ge) if (ge.first, ge.count) == (we.first, we.count) => {}
                        other => {
                            return Err(format!(
                                "node {i}, key ({name:?}, {v:?}): index has {other:?}, \
                                 children have ({:?}, {})",
                                we.first, we.count
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the arena keeping only nodes reachable from the root.
    ///
    /// All previously handed out [`NodeId`]s are invalidated; long-lived
    /// holders must re-resolve paths afterwards. Returns the number of
    /// reclaimed slots.
    pub fn compact(&mut self) -> usize {
        let before = self.nodes.len();
        let mut fresh = Document::new();
        if let Some(r) = self.root {
            let nr = self.deep_copy_into(r, &mut fresh);
            fresh.root = Some(nr);
        }
        *self = fresh;
        before - self.nodes.len()
    }
}

/// Preorder descendant iterator. See [`Document::descendants`].
pub struct Descendants<'d> {
    doc: &'d Document,
    stack: Vec<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        for &c in self.doc.children(id).iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

/// Ancestor iterator, nearest first. See [`Document::ancestors`].
pub struct Ancestors<'d> {
    doc: &'d Document,
    cur: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.doc.parent(id);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_doc() -> (Document, NodeId, NodeId, NodeId) {
        let (mut doc, root) = Document::with_root("city");
        let n = doc.create_element("neighborhood");
        doc.set_attr(n, "id", "Oakland");
        doc.append_child(root, n);
        let b = doc.create_element("block");
        doc.set_attr(b, "id", "1");
        doc.append_child(n, b);
        (doc, root, n, b)
    }

    #[test]
    fn build_and_navigate() {
        let (doc, root, n, b) = small_doc();
        assert_eq!(doc.root(), Some(root));
        assert_eq!(doc.name(root), "city");
        assert_eq!(doc.parent(n), Some(root));
        assert_eq!(doc.parent(b), Some(n));
        assert_eq!(doc.attr(n, "id"), Some("Oakland"));
        assert_eq!(doc.children(root), &[n]);
        assert_eq!(doc.depth(b), 2);
        let anc: Vec<_> = doc.ancestors(b).collect();
        assert_eq!(anc, vec![n, root]);
    }

    #[test]
    fn set_attr_replaces_existing() {
        let (mut doc, _, n, _) = small_doc();
        doc.set_attr(n, "id", "Shadyside");
        assert_eq!(doc.attr(n, "id"), Some("Shadyside"));
        assert_eq!(doc.attrs(n).len(), 1);
    }

    #[test]
    fn remove_attr_returns_old_value() {
        let (mut doc, _, n, _) = small_doc();
        assert_eq!(doc.remove_attr(n, "id"), Some("Oakland".to_string()));
        assert_eq!(doc.remove_attr(n, "id"), None);
        assert_eq!(doc.attr(n, "id"), None);
    }

    #[test]
    fn text_content_concatenates_descendants() {
        let (mut doc, _, _, b) = small_doc();
        let sp = doc.create_element("parkingSpace");
        doc.append_child(b, sp);
        let avail = doc.create_element("available");
        doc.append_child(sp, avail);
        doc.set_text_content(avail, "yes");
        assert_eq!(doc.text_content(b), "yes");
        assert_eq!(doc.text_content(avail), "yes");
    }

    #[test]
    fn set_text_content_replaces_children() {
        let (mut doc, _, n, _) = small_doc();
        doc.set_text_content(n, "first");
        doc.set_text_content(n, "second");
        assert_eq!(doc.text_content(n), "second");
        assert_eq!(doc.children(n).len(), 1);
    }

    #[test]
    fn set_text_content_overwrites_a_single_text_child_in_place() {
        let (mut doc, _, _, b) = small_doc();
        let avail = doc.create_element("available");
        doc.append_child(b, avail);
        doc.set_text_content(avail, "yes");
        let text = doc.children(avail)[0];
        let slots = doc.arena_len();
        for i in 0..100 {
            doc.set_text_content(avail, if i % 2 == 0 { "no" } else { "yes" });
            assert_eq!(doc.arena_len(), slots, "overwrite {i} allocated a slot");
            assert_eq!(doc.children(avail), &[text], "overwrite {i} moved the text node");
        }
        assert_eq!(doc.text(text), Some("yes"));
        assert_eq!(doc.text_content(b), "yes");
    }

    #[test]
    fn set_text_content_other_shapes_end_with_one_text_child() {
        for (label, xml) in [
            ("empty", "<r><e/></r>"),
            ("element child", "<r><e><c/></e></r>"),
            ("mixed content", "<r><e>before<c/></e></r>"),
        ] {
            let mut doc = crate::parse(xml).unwrap();
            let e = doc.children(doc.root().unwrap())[0];
            doc.set_text_content(e, "v");
            let kids = doc.children(e);
            assert_eq!(kids.len(), 1, "{label}");
            assert_eq!(doc.text(kids[0]), Some("v"), "{label}");
            assert_eq!(doc.reachable_count(), 3, "{label}: root, e, text");
        }
    }

    #[test]
    fn detach_unlinks_subtree() {
        let (mut doc, root, n, b) = small_doc();
        doc.detach(n);
        assert!(doc.children(root).is_empty());
        assert_eq!(doc.parent(n), None);
        // The subtree stays intact below the detachment point.
        assert_eq!(doc.parent(b), Some(n));
    }

    #[test]
    fn detach_root_clears_root() {
        let (mut doc, root, ..) = small_doc();
        doc.detach(root);
        assert_eq!(doc.root(), None);
        assert_eq!(doc.reachable_count(), 0);
    }

    #[test]
    fn child_by_name_id_distinguishes_siblings() {
        let (mut doc, _, n, b1) = small_doc();
        let b2 = doc.create_element("block");
        doc.set_attr(b2, "id", "2");
        doc.append_child(n, b2);
        assert_eq!(doc.child_by_name_id(n, "block", "1"), Some(b1));
        assert_eq!(doc.child_by_name_id(n, "block", "2"), Some(b2));
        assert_eq!(doc.child_by_name_id(n, "block", "3"), None);
        assert_eq!(doc.child_by_name_id(n, "street", "1"), None);
    }

    #[test]
    fn deep_copy_into_other_document() {
        let (doc, _, n, _) = small_doc();
        let mut dst = Document::new();
        let copied = doc.deep_copy_into(n, &mut dst);
        dst.set_root(copied).unwrap();
        assert_eq!(dst.name(copied), "neighborhood");
        assert_eq!(dst.attr(copied, "id"), Some("Oakland"));
        assert_eq!(dst.child_elements(copied).count(), 1);
    }

    #[test]
    fn shallow_copy_skips_children() {
        let (doc, _, n, _) = small_doc();
        let mut dst = Document::new();
        let copied = doc.shallow_copy_into(n, &mut dst);
        assert_eq!(dst.attr(copied, "id"), Some("Oakland"));
        assert!(dst.children(copied).is_empty());
    }

    #[test]
    fn compact_reclaims_garbage() {
        let (mut doc, _, n, _) = small_doc();
        doc.detach(n);
        let before = doc.arena_len();
        let reclaimed = doc.compact();
        assert!(reclaimed > 0);
        assert!(doc.arena_len() < before);
        assert_eq!(doc.reachable_count(), 1); // just the root
    }

    #[test]
    fn descendants_preorder() {
        let (doc, root, n, b) = small_doc();
        let d: Vec<_> = doc.descendants(root).collect();
        assert_eq!(d, vec![n, b]);
    }

    #[test]
    fn multiple_roots_rejected() {
        let (mut doc, _root) = Document::with_root("a");
        let other = doc.create_element("b");
        assert_eq!(doc.set_root(other), Err(XmlError::MultipleRoots));
    }

    /// A block with enough id-distinguished children to cross the index
    /// threshold.
    fn indexed_block(n: usize) -> (Document, NodeId, Vec<NodeId>) {
        let (mut doc, root) = Document::with_root("block");
        let kids = (0..n)
            .map(|i| {
                let sp = doc.create_element("parkingSpace");
                doc.set_attr(sp, "id", (i + 1).to_string());
                doc.append_child(root, sp);
                sp
            })
            .collect();
        (doc, root, kids)
    }

    #[test]
    fn index_materializes_at_threshold() {
        let (doc, root, _) = indexed_block(INDEX_THRESHOLD - 1);
        assert!(!doc.has_sibling_index(root));
        let (doc, root, kids) = indexed_block(INDEX_THRESHOLD);
        assert!(doc.has_sibling_index(root));
        doc.check_sibling_index().unwrap();
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "3"), Some(kids[2]));
        assert_eq!(doc.child_by_name(root, "parkingSpace"), Some(kids[0]));
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "99"), None);
        assert_eq!(doc.child_by_name_id(root, "block", "3"), None);
    }

    #[test]
    fn indexed_lookup_matches_linear() {
        let (doc, root, _) = indexed_block(20);
        for idv in ["1", "10", "20", "21", ""] {
            assert_eq!(
                doc.child_by_name_id(root, "parkingSpace", idv),
                doc.child_by_name_id_linear(root, "parkingSpace", idv),
            );
        }
        assert_eq!(
            doc.child_by_name(root, "parkingSpace"),
            doc.child_by_name_linear(root, "parkingSpace"),
        );
    }

    #[test]
    fn detach_keeps_index_coherent() {
        let (mut doc, root, kids) = indexed_block(10);
        doc.detach(kids[0]); // removes the current `first` of both maps
        doc.check_sibling_index().unwrap();
        assert_eq!(doc.child_by_name(root, "parkingSpace"), Some(kids[1]));
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "1"), None);
        doc.detach(kids[5]);
        doc.check_sibling_index().unwrap();
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "6"), None);
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "7"), Some(kids[6]));
        // Draining every child must leave an empty but coherent index.
        for &k in &kids {
            doc.detach(k);
        }
        doc.check_sibling_index().unwrap();
        assert_eq!(doc.child_by_name(root, "parkingSpace"), None);
    }

    #[test]
    fn id_attr_changes_reindex() {
        let (mut doc, root, kids) = indexed_block(10);
        doc.set_attr(kids[3], "id", "forty");
        doc.check_sibling_index().unwrap();
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "4"), None);
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "forty"), Some(kids[3]));
        doc.remove_attr(kids[3], "id");
        doc.check_sibling_index().unwrap();
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "forty"), None);
        // Non-id attributes (the status flips of the fragment layer) must
        // not touch the index.
        doc.set_attr(kids[4], "status", "complete");
        doc.check_sibling_index().unwrap();
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "5"), Some(kids[4]));
    }

    #[test]
    fn duplicate_keys_keep_first_match_semantics() {
        let (mut doc, root, kids) = indexed_block(9);
        // Make kids[6] a duplicate of kids[2]'s (tag, id) key.
        doc.set_attr(kids[6], "id", "3");
        doc.check_sibling_index().unwrap();
        assert_eq!(
            doc.child_by_name_id(root, "parkingSpace", "3"),
            doc.child_by_name_id_linear(root, "parkingSpace", "3"),
        );
        assert_eq!(
            doc.children_by_name_id(root, "parkingSpace", "3"),
            vec![kids[2], kids[6]],
        );
        // Removing the first duplicate promotes the second.
        doc.detach(kids[2]);
        doc.check_sibling_index().unwrap();
        assert_eq!(doc.child_by_name_id(root, "parkingSpace", "3"), Some(kids[6]));
        assert_eq!(doc.children_by_name_id(root, "parkingSpace", "3"), vec![kids[6]]);
    }

    #[test]
    fn clone_and_compact_preserve_coherence() {
        let (mut doc, root, kids) = indexed_block(12);
        let cloned = doc.clone();
        cloned.check_sibling_index().unwrap();
        assert_eq!(cloned.child_by_name_id(root, "parkingSpace", "8"), Some(kids[7]));
        doc.detach(kids[1]);
        doc.compact();
        doc.check_sibling_index().unwrap();
        let root = doc.root().unwrap();
        assert!(doc.has_sibling_index(root));
        assert!(doc.child_by_name_id(root, "parkingSpace", "2").is_none());
        assert!(doc.child_by_name_id(root, "parkingSpace", "3").is_some());
    }

    #[test]
    fn text_content_fast_leaf_shapes() {
        let (mut doc, _, n, _) = small_doc();
        doc.set_text_content(n, "yes");
        assert_eq!(doc.text_content_fast(n), Some("yes"));
        let t = doc.children(n)[0];
        assert_eq!(doc.text_content_fast(t), Some("yes"));
        let empty = doc.create_element("empty");
        assert_eq!(doc.text_content_fast(empty), Some(""));
        // Nested content falls back to the concatenating path.
        let (doc2, root2, _, b2) = small_doc();
        assert_eq!(doc2.text_content_fast(root2), None);
        assert_eq!(doc2.text_content_fast(b2), Some(""));
        assert_eq!(doc2.text_content(root2), "");
    }
}
