//! IDable nodes, ID paths, and local information (Definitions 3.1 / 3.2).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use sensorxml::{Document, NodeId};

use crate::service::Schema;

/// A root-to-node sequence of `(element name, id)` pairs — the globally
/// addressable identity of an IDable node ("each IDable node can be
/// uniquely identified by the sequence of IDs on the path from the root").
///
/// The segments are immutable and shared: `clone` is a reference-count
/// bump, which matters because one path is copied into every reading,
/// WAL record and in-flight message about that node. Every derived path
/// (`child`, `parent`, ...) builds its own segment list. Comparison,
/// hashing and `Debug` see only the segment slice, exactly as with an
/// owned `Vec`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct IdPath {
    segments: Arc<[(String, String)]>,
}

impl IdPath {
    /// An empty path (the document node).
    pub fn root() -> IdPath {
        IdPath::default()
    }

    /// Builds a path from `(tag, id)` pairs, root first.
    pub fn from_pairs<T: Into<String>, U: Into<String>>(
        pairs: impl IntoIterator<Item = (T, U)>,
    ) -> IdPath {
        IdPath {
            segments: pairs
                .into_iter()
                .map(|(t, i)| (t.into(), i.into()))
                .collect(),
        }
    }

    /// The `(tag, id)` segments, root first.
    pub fn segments(&self) -> &[(String, String)] {
        &self.segments
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True for the empty (document-node) path.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Appends a segment, returning the extended path.
    pub fn child(&self, tag: impl Into<String>, id: impl Into<String>) -> IdPath {
        let last = (tag.into(), id.into());
        IdPath {
            segments: self.segments.iter().cloned().chain(std::iter::once(last)).collect(),
        }
    }

    /// The parent path (`None` for the empty path).
    pub fn parent(&self) -> Option<IdPath> {
        if self.segments.is_empty() {
            None
        } else {
            Some(IdPath {
                segments: self.segments[..self.segments.len() - 1].into(),
            })
        }
    }

    /// The last `(tag, id)` segment.
    pub fn last(&self) -> Option<(&str, &str)> {
        self.segments.last().map(|(t, i)| (t.as_str(), i.as_str()))
    }

    /// True if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &IdPath) -> bool {
        other.segments.len() >= self.segments.len()
            && other.segments[..self.segments.len()] == self.segments[..]
    }

    /// Renders the absolute XPath selecting exactly this node:
    /// `/usRegion[@id='NE']/state[@id='PA']/...`.
    pub fn to_xpath(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (tag, id) in self.segments.iter() {
            let _ = write!(s, "/{tag}[@id='{id}']");
        }
        if s.is_empty() {
            s.push('/');
        }
        s
    }

    /// Resolves this path inside a document, walking `(tag, id)` child
    /// lookups from the root. Returns `None` if any segment is missing or
    /// the root does not match.
    pub fn resolve(&self, doc: &Document) -> Option<NodeId> {
        let root = doc.root()?;
        let mut segs = self.segments.iter();
        let (rt, ri) = segs.next()?.clone();
        if doc.name(root) != rt || doc.attr(root, "id") != Some(&ri) {
            return None;
        }
        let mut cur = root;
        for (tag, id) in segs {
            cur = doc.child_by_name_id(cur, tag, id)?;
        }
        Some(cur)
    }

    /// [`IdPath::resolve`] with every segment forced through the linear
    /// sibling scan instead of the sibling index — the pre-index baseline,
    /// kept public for benchmarks and as a property-test oracle.
    pub fn resolve_linear(&self, doc: &Document) -> Option<NodeId> {
        let root = doc.root()?;
        let mut segs = self.segments.iter();
        let (rt, ri) = segs.next()?.clone();
        if doc.name(root) != rt || doc.attr(root, "id") != Some(&ri) {
            return None;
        }
        let mut cur = root;
        for (tag, id) in segs {
            cur = doc.child_by_name_id_linear(cur, tag, id)?;
        }
        Some(cur)
    }

    /// The ID path of `node` inside `doc`, read from the `id` attributes on
    /// the root path. Returns `None` if any node on the path lacks an id.
    pub fn of_node(doc: &Document, node: NodeId) -> Option<IdPath> {
        let mut rev: Vec<(String, String)> = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            let id = doc.attr(n, "id")?;
            rev.push((doc.name(n).to_string(), id.to_string()));
            cur = doc.parent(n);
        }
        rev.reverse();
        Some(IdPath { segments: rev.into() })
    }
}

/// Where [`IdPath::of_node`] of a stored node leads back to under
/// [`IdPath::resolve`], found without building the path.
///
/// The two differ only around duplicate `(tag, id)` siblings, which
/// Definition 3.1 rules out but a document can still hold: `resolve` takes
/// the first such sibling at every level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PathTarget {
    /// Some node on the root path has no id: `of_node` gives `None`.
    Unpinned,
    /// The path resolves nowhere: an earlier duplicate hides an ancestor
    /// that has the next segment.
    Hidden,
    /// The node the path resolves to — the node itself unless an earlier
    /// duplicate stands in for it or for one of its ancestors.
    At(NodeId),
}

impl PathTarget {
    /// The target of `node`'s own id path.
    pub(crate) fn of(doc: &Document, node: NodeId) -> PathTarget {
        match doc.parent(node) {
            Some(p) => PathTarget::of(doc, p).child(doc, node),
            None => match doc.attr(node, "id") {
                None => PathTarget::Unpinned,
                Some(id) => doc
                    .root()
                    .filter(|&r| doc.name(r) == doc.name(node) && doc.attr(r, "id") == Some(id))
                    .map_or(PathTarget::Hidden, PathTarget::At),
            },
        }
    }

    /// The target of `node`'s id path, given `self`, its parent's.
    pub(crate) fn child(self, doc: &Document, node: NodeId) -> PathTarget {
        let Some(id) = doc.attr(node, "id") else {
            return PathTarget::Unpinned;
        };
        match self {
            PathTarget::At(p) => doc
                .child_by_name_id(p, doc.name(node), id)
                .map_or(PathTarget::Hidden, PathTarget::At),
            other => other,
        }
    }
}

/// Orders two nodes of one document as their [`IdPath`]s order (a prefix
/// first, then `(tag, id)` segment by segment), without building the
/// paths. Meant for id-pinned nodes that their own paths resolve to
/// ([`PathTarget::At`] of themselves): two such nodes never have
/// siblings with equal `(tag, id)` where their root paths fork.
pub(crate) fn cmp_by_id_path(doc: &Document, a: NodeId, b: NodeId) -> Ordering {
    let seg = |n: NodeId| (doc.name(n), doc.attr(n, "id").unwrap_or(""));
    if a == b {
        return Ordering::Equal;
    }
    // Siblings, the common case.
    if doc.parent(a) == doc.parent(b) {
        return seg(a).cmp(&seg(b));
    }
    let (da, db) = (doc.depth(a), doc.depth(b));
    let up = |mut n: NodeId, k: usize| {
        for _ in 0..k {
            n = doc.parent(n).expect("depth counts the ancestors");
        }
        n
    };
    let (mut x, mut y) = (up(a, da.saturating_sub(db)), up(b, db.saturating_sub(da)));
    if x == y {
        // One is an ancestor of the other.
        return da.cmp(&db);
    }
    // Climb to the distinct siblings where the root paths fork.
    while doc.parent(x) != doc.parent(y) {
        x = doc.parent(x).expect("distinct nodes below a common root");
        y = doc.parent(y).expect("distinct nodes below a common root");
    }
    seg(x).cmp(&seg(y))
}

impl fmt::Display for IdPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            return write!(f, "/");
        }
        for (tag, id) in self.segments.iter() {
            write!(f, "/{tag}={id}")?;
        }
        Ok(())
    }
}

/// Dynamic IDable check (Definition 3.1): the node has an `id` attribute
/// unique among its same-named siblings, and its parent chain up to the
/// root is IDable too. The document root is IDable by definition (but we
/// still require an id so it is addressable).
pub fn is_idable_node(doc: &Document, node: NodeId) -> bool {
    if !doc.is_element(node) {
        return false;
    }
    let Some(id) = doc.attr(node, "id") else {
        return false;
    };
    match doc.parent(node) {
        None => doc.root() == Some(node),
        Some(parent) => {
            let name = doc.name(node);
            let dups = doc
                .child_elements(parent)
                .filter(|&c| doc.name(c) == name && doc.attr(c, "id") == Some(id))
                .count();
            dups == 1 && is_idable_node(doc, parent)
        }
    }
}

/// Attributes internal to the fragment machinery, never part of user
/// answers: `status` and the freshness timestamp.
pub const STATUS_ATTR: &str = "status";

/// Copies `node`'s **local information** (Definition 3.2) from `src` into
/// `dst` as a detached element: all attributes, all non-IDable children
/// with their full subtrees, and ID-only stubs for IDable children.
///
/// IDable-ness is decided by the `schema` (tags), which is how a site can
/// extract fragments without global document knowledge.
pub fn copy_local_information(
    src: &Document,
    node: NodeId,
    schema: &Schema,
    dst: &mut Document,
) -> NodeId {
    let e = src.shallow_copy_into(node, dst);
    for c in src.children(node) {
        let c = *c;
        if src.is_element(c) && schema.is_idable(src.name(c)) {
            let stub = id_stub(src, c, dst);
            dst.append_child(e, stub);
        } else {
            let full = src.deep_copy_into(c, dst);
            dst.append_child(e, full);
        }
    }
    e
}

/// Copies `node`'s **local ID information** (Definition 3.2): the node's
/// `(name, id)` plus ID stubs for its IDable children.
pub fn copy_local_id_information(
    src: &Document,
    node: NodeId,
    schema: &Schema,
    dst: &mut Document,
) -> NodeId {
    let e = id_stub(src, node, dst);
    for c in src.child_elements(node) {
        if schema.is_idable(src.name(c)) {
            let stub = id_stub(src, c, dst);
            dst.append_child(e, stub);
        }
    }
    e
}

/// An element carrying only the name and `id` attribute of `node`.
fn id_stub(src: &Document, node: NodeId, dst: &mut Document) -> NodeId {
    let e = dst.create_element(src.name(node).to_string());
    if let Some(id) = src.attr(node, "id") {
        dst.set_attr(e, "id", id.to_string());
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Schema;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use sensorxml::parse;

    fn doc() -> Document {
        parse(
            r#"<neighborhood id="Oakland" zipcode="15213">
                 <block id="1">
                   <parkingSpace id="1"><available>yes</available></parkingSpace>
                 </block>
                 <block id="2"/>
                 <available-spaces>8</available-spaces>
               </neighborhood>"#,
        )
        .unwrap()
    }

    fn schema() -> Schema {
        Schema::chain(["neighborhood", "block", "parkingSpace"])
    }

    #[test]
    fn idpath_basics() {
        let p = IdPath::from_pairs([("a", "1"), ("b", "2")]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.last(), Some(("b", "2")));
        assert_eq!(p.to_xpath(), "/a[@id='1']/b[@id='2']");
        assert_eq!(p.to_string(), "/a=1/b=2");
        assert_eq!(p.parent().unwrap().to_string(), "/a=1");
        assert!(p.parent().unwrap().is_prefix_of(&p));
        assert!(!p.is_prefix_of(&p.parent().unwrap()));
        let c = p.child("c", "3");
        assert_eq!(c.len(), 3);
        assert!(p.is_prefix_of(&c));
    }

    fn segment() -> impl Strategy<Value = (String, String)> {
        ("[a-c]{1,2}", "[0-2]{0,2}")
    }

    fn hash_of<T: std::hash::Hash + ?Sized>(v: &T) -> u64 {
        use std::hash::{DefaultHasher, Hasher};
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Shared segments are unobservable: a path compares, hashes and
        /// derives exactly like the plain segment list it stands for, and
        /// deriving from a clone never reaches back into the original.
        #[test]
        fn shared_segments_behave_like_an_owned_list(
            a in vec(segment(), 0..5),
            b in vec(segment(), 0..5),
            last in segment(),
        ) {
            let (tag, id) = last;
            let (p, q) = (IdPath::from_pairs(a.clone()), IdPath::from_pairs(b.clone()));
            prop_assert_eq!(p.cmp(&q), a.cmp(&b));
            prop_assert_eq!(p == q, a == b);
            prop_assert_eq!(hash_of(&p), hash_of(&a));
            prop_assert_eq!(format!("{p:?}"), format!("IdPath {{ segments: {a:?} }}"));

            let child = p.child(tag.clone(), id.clone());
            prop_assert_eq!(child.parent(), Some(p.clone()));
            prop_assert!(p.is_prefix_of(&child));
            prop_assert_eq!(child.last(), Some((tag.as_str(), id.as_str())));

            let shown = p.to_string();
            let alias = p.clone();
            let from_alias = alias.child(tag, id);
            prop_assert_eq!(&from_alias, &child);
            prop_assert_eq!(p.segments(), &a[..]);
            prop_assert_eq!(p.to_string(), shown);
            prop_assert_eq!(alias, p);
        }
    }

    #[test]
    fn idpath_root_rendering() {
        assert_eq!(IdPath::root().to_xpath(), "/");
        assert_eq!(IdPath::root().to_string(), "/");
        assert!(IdPath::root().is_empty());
    }

    #[test]
    fn resolve_and_of_node_roundtrip() {
        let d = doc();
        let p = IdPath::from_pairs([
            ("neighborhood", "Oakland"),
            ("block", "1"),
            ("parkingSpace", "1"),
        ]);
        let node = p.resolve(&d).unwrap();
        assert_eq!(d.name(node), "parkingSpace");
        assert_eq!(IdPath::of_node(&d, node).unwrap(), p);
        // Missing segments fail.
        assert!(IdPath::from_pairs([("neighborhood", "Oakland"), ("block", "9")])
            .resolve(&d)
            .is_none());
        // Wrong root fails.
        assert!(IdPath::from_pairs([("city", "X")]).resolve(&d).is_none());
    }

    #[test]
    fn dynamic_idable_detection() {
        let d = doc();
        let root = d.root().unwrap();
        assert!(is_idable_node(&d, root));
        let b1 = d.child_by_name_id(root, "block", "1").unwrap();
        assert!(is_idable_node(&d, b1));
        // available-spaces has no id.
        let avail = d.child_by_name(root, "available-spaces").unwrap();
        assert!(!is_idable_node(&d, avail));
    }

    #[test]
    fn duplicate_sibling_ids_break_idability() {
        let d = parse(r#"<a id="r"><b id="1"/><b id="1"/></a>"#).unwrap();
        let root = d.root().unwrap();
        let b = d.child_by_name(root, "b").unwrap();
        assert!(!is_idable_node(&d, b));
        // ...and a child of a non-IDable parent is not IDable either.
        let d2 = parse(r#"<a id="r"><b id="1"/><b id="1"><c id="x"/></b></a>"#).unwrap();
        let root2 = d2.root().unwrap();
        let b2 = d2.child_elements(root2).nth(1).unwrap();
        let c = d2.child_by_name(b2, "c").unwrap();
        assert!(!is_idable_node(&d2, c));
    }

    #[test]
    fn local_information_matches_paper_example() {
        let d = doc();
        let mut dst = Document::new();
        let li = copy_local_information(&d, d.root().unwrap(), &schema(), &mut dst);
        dst.set_root(li).unwrap();
        // All attributes present.
        assert_eq!(dst.attr(li, "id"), Some("Oakland"));
        assert_eq!(dst.attr(li, "zipcode"), Some("15213"));
        // IDable children are bare ID stubs.
        let b1 = dst.child_by_name_id(li, "block", "1").unwrap();
        assert!(dst.children(b1).is_empty());
        assert_eq!(dst.attrs(b1).len(), 1);
        // Non-IDable children keep their subtree.
        let avail = dst.child_by_name(li, "available-spaces").unwrap();
        assert_eq!(dst.text_content(avail), "8");
    }

    #[test]
    fn local_id_information_is_a_subset() {
        let d = doc();
        let mut dst = Document::new();
        let li = copy_local_id_information(&d, d.root().unwrap(), &schema(), &mut dst);
        dst.set_root(li).unwrap();
        assert_eq!(dst.attr(li, "id"), Some("Oakland"));
        assert_eq!(dst.attr(li, "zipcode"), None); // ids only
        assert_eq!(dst.child_elements(li).count(), 2); // two block stubs
        assert!(dst.child_by_name(li, "available-spaces").is_none());
    }
}
