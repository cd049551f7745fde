//! Service definitions: the document schema and service-wide constants.
//!
//! A *service* (Parking Space Finder, coastal monitoring, ...) fixes the
//! XML document shape: which element tags are IDable (Definition 3.1),
//! how they nest, the DNS suffix under which node names are registered,
//! and the name of the freshness field used by query-based consistency.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use irisdns::{AuthoritativeDns, DnsName, SiteAddr};

use crate::idable::IdPath;

/// Static schema knowledge about the IDable hierarchy.
///
/// Only the *IDable* skeleton is declared; non-IDable content (readings,
/// GPS coordinates, prices...) is schemaless, matching the paper's
/// "constantly evolving schema" motivation — schema changes below IDable
/// nodes need no coordination (§4).
#[derive(Debug, Clone)]
pub struct Schema {
    root_tag: String,
    idable: HashSet<String>,
    /// IDable child tags per IDable tag.
    children: HashMap<String, Vec<String>>,
}

impl Schema {
    /// Builds a schema from `(tag, [idable child tags])` pairs; `root_tag`
    /// must appear among the tags.
    pub fn new(
        root_tag: impl Into<String>,
        edges: impl IntoIterator<Item = (String, Vec<String>)>,
    ) -> Schema {
        let children: HashMap<String, Vec<String>> = edges.into_iter().collect();
        let mut idable: HashSet<String> = children.keys().cloned().collect();
        for kids in children.values() {
            idable.extend(kids.iter().cloned());
        }
        let root_tag = root_tag.into();
        idable.insert(root_tag.clone());
        Schema { root_tag, idable, children }
    }

    /// A linear chain schema (each level has exactly one IDable child tag)
    /// — the shape of the paper's geographic hierarchy.
    pub fn chain<S: Into<String>>(tags: impl IntoIterator<Item = S>) -> Schema {
        let tags: Vec<String> = tags.into_iter().map(Into::into).collect();
        assert!(!tags.is_empty(), "chain schema needs at least one tag");
        let mut edges = Vec::new();
        for w in tags.windows(2) {
            edges.push((w[0].clone(), vec![w[1].clone()]));
        }
        if let Some(last) = tags.last() {
            edges.push((last.clone(), Vec::new()));
        }
        Schema::new(tags[0].clone(), edges)
    }

    /// The document root tag.
    pub fn root_tag(&self) -> &str {
        &self.root_tag
    }

    /// True if `tag` denotes IDable nodes.
    pub fn is_idable(&self, tag: &str) -> bool {
        self.idable.contains(tag)
    }

    /// IDable child tags of `tag`.
    pub fn idable_children(&self, tag: &str) -> &[String] {
        self.children.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All IDable tags at or below `tag` (including `tag` itself), i.e. the
    /// tags whose local information is part of any answer rooted at `tag`.
    pub fn idable_descendants_inclusive(&self, tag: &str) -> HashSet<String> {
        let mut out = HashSet::new();
        let mut stack = vec![tag.to_string()];
        while let Some(t) = stack.pop() {
            if !out.insert(t.clone()) {
                continue;
            }
            for c in self.idable_children(&t) {
                stack.push(c.clone());
            }
        }
        out
    }
}

/// A deployed sensor service.
#[derive(Debug, Clone)]
pub struct Service {
    /// Human name, e.g. "parking".
    pub name: String,
    /// DNS suffix under which IDable node names live, e.g.
    /// `parking.intel-iris.net`.
    pub dns_suffix: String,
    pub schema: Schema,
    /// Attribute/element name carrying per-node update timestamps
    /// ("timestamp" in the paper).
    pub timestamp_field: String,
}

impl Service {
    /// Creates a service with the conventional `timestamp` field.
    pub fn new(name: impl Into<String>, dns_suffix: impl Into<String>, schema: Schema) -> Service {
        Service {
            name: name.into(),
            dns_suffix: dns_suffix.into(),
            schema,
            timestamp_field: "timestamp".to_string(),
        }
    }

    /// The paper's Parking Space Finder service schema:
    /// usRegion → state → county → city → neighborhood → block → parkingSpace.
    pub fn parking() -> Arc<Service> {
        Arc::new(Service::new(
            "parking",
            "parking.intel-iris.net",
            Schema::chain([
                "usRegion",
                "state",
                "county",
                "city",
                "neighborhood",
                "block",
                "parkingSpace",
            ]),
        ))
    }

    /// The DNS name of an IDable node given its root-to-node id path. The
    /// empty path names the service apex (`parking.intel-iris.net`), where
    /// queries that pin no id prefix (`//parkingSpace[...]`) route.
    pub fn dns_name(&self, path: &IdPath) -> DnsName {
        let ids: Vec<&str> = path.segments().iter().map(|(_, id)| id.as_str()).collect();
        self.dns_name_of_ids(&ids)
    }

    /// [`Service::dns_name`] of the path with these ids, root first.
    pub fn dns_name_of_ids(&self, ids: &[&str]) -> DnsName {
        DnsName::from_id_path(ids, &self.dns_suffix)
    }

    /// Registers `addr` as the owner of `path` in `dns`, visible at once.
    pub fn register_owner(&self, dns: &mut AuthoritativeDns, path: &IdPath, addr: SiteAddr) {
        self.register_owner_at(dns, path, addr, f64::NEG_INFINITY);
    }

    /// Registers `addr` as the owner of `path` at time `now` (see
    /// [`AuthoritativeDns::register_at`]). The root element's owner is the
    /// LCA of every query, so it also answers for the apex: that keeps an
    /// unpinned query routable wherever the root lives, across migrations.
    pub fn register_owner_at(
        &self,
        dns: &mut AuthoritativeDns,
        path: &IdPath,
        addr: SiteAddr,
        now: f64,
    ) {
        dns.register_at(&self.dns_name(path), addr, now);
        if path.len() == 1 {
            dns.register_at(&self.dns_name(&IdPath::root()), addr, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_schema_shape() {
        let s = Schema::chain(["a", "b", "c"]);
        assert_eq!(s.root_tag(), "a");
        assert!(s.is_idable("a") && s.is_idable("b") && s.is_idable("c"));
        assert!(!s.is_idable("x"));
        assert_eq!(s.idable_children("a"), &["b".to_string()]);
        assert_eq!(s.idable_children("c"), &[] as &[String]);
    }

    #[test]
    fn idable_descendants() {
        let s = Schema::new(
            "city",
            vec![
                ("city".to_string(), vec!["neighborhood".to_string()]),
                ("neighborhood".to_string(), vec!["block".to_string(), "park".to_string()]),
                ("block".to_string(), vec![]),
                ("park".to_string(), vec![]),
            ],
        );
        let d = s.idable_descendants_inclusive("neighborhood");
        assert_eq!(d.len(), 3);
        assert!(d.contains("neighborhood") && d.contains("block") && d.contains("park"));
        let all = s.idable_descendants_inclusive("city");
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn root_owner_answers_for_the_apex() {
        let svc = Service::parking();
        let mut dns = AuthoritativeDns::new();
        let root = IdPath::from_pairs([("usRegion", "NE")]);
        let state = root.child("state", "PA");
        let apex = svc.dns_name(&IdPath::root());
        let owner = |dns: &AuthoritativeDns, path: &IdPath| {
            dns.lookup(&svc.dns_name(path)).map(|a| a.addr)
        };
        svc.register_owner(&mut dns, &state, SiteAddr(2));
        assert_eq!(dns.lookup(&apex), None, "only the root owner answers for the apex");
        svc.register_owner(&mut dns, &root, SiteAddr(1));
        assert_eq!(owner(&dns, &IdPath::root()), Some(SiteAddr(1)));
        // Migrating the root moves the apex with it.
        svc.register_owner_at(&mut dns, &root, SiteAddr(3), 5.0);
        assert_eq!(owner(&dns, &IdPath::root()), Some(SiteAddr(3)));
        assert_eq!(owner(&dns, &root), Some(SiteAddr(3)));
        assert_eq!(owner(&dns, &state), Some(SiteAddr(2)));
    }

    #[test]
    fn parking_service_dns_name() {
        let svc = Service::parking();
        let path = IdPath::from_pairs([
            ("usRegion", "NE"),
            ("state", "PA"),
            ("county", "Allegheny"),
            ("city", "Pittsburgh"),
        ]);
        assert_eq!(
            svc.dns_name(&path).to_string(),
            "pittsburgh.allegheny.pa.ne.parking.intel-iris.net"
        );
    }
}
