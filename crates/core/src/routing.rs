//! Self-starting distributed queries (§3.4).
//!
//! A query posed anywhere on the Internet is routed *directly* to the site
//! owning the lowest common ancestor (LCA) of its result, with no global
//! state: the DNS-style name of the LCA is extracted from the query text
//! itself (the maximal `/tag[@id='x']` prefix), resolved through DNS, and
//! the query is sent to the returned address.

use irisdns::DnsName;
use sensorxpath::analysis::id_prefix;
use sensorxpath::Expr;

use crate::error::{CoreError, CoreResult};
use crate::idable::IdPath;
use crate::service::Service;

/// Extracts the LCA ID path of a parsed query: the id-pinned prefix of its
/// steps (empty when the query pins nothing below the document root).
pub fn lca_id_path(query: &Expr) -> IdPath {
    IdPath::from_pairs(id_prefix(query))
}

/// Builds the DNS-style site name for a query — the paper's example yields
/// `pittsburgh.allegheny.pa.ne.parking.intel-iris.net`. Queries that pin no
/// prefix (`//parkingSpace[...]`) route to the service apex, which
/// [`Service::register_owner`] registers for the root element's owner.
pub fn lca_dns_name(query: &Expr, service: &Service) -> DnsName {
    let ids: Vec<&str> = id_prefix(query).map(|(_, id)| id).collect();
    service.dns_name_of_ids(&ids)
}

/// Parses a query string and produces `(parsed query, LCA id path, DNS
/// name)` in one go — what a front-end does for every user query.
pub fn route_query(text: &str, service: &Service) -> CoreResult<(Expr, IdPath, DnsName)> {
    let expr = sensorxpath::parse(text).map_err(CoreError::XPath)?;
    let path = lca_id_path(&expr);
    let name = service.dns_name(&path);
    Ok((expr, path, name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;

    #[test]
    fn paper_query_routes_to_pittsburgh() {
        let svc = Service::parking();
        let (_, path, name) = route_query(
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
             /city[@id='Pittsburgh']\
             /neighborhood[@id='Oakland' or @id='Shadyside']\
             /block[@id='1']/parkingSpace[available='yes']",
            &svc,
        )
        .unwrap();
        assert_eq!(path.last(), Some(("city", "Pittsburgh")));
        assert_eq!(
            name.to_string(),
            "pittsburgh.allegheny.pa.ne.parking.intel-iris.net"
        );
    }

    #[test]
    fn fully_pinned_query_routes_to_leaf() {
        let svc = Service::parking();
        let (_, path, _) = route_query(
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
             /neighborhood[@id='Oakland']/block[@id='1']",
            &svc,
        )
        .unwrap();
        assert_eq!(path.len(), 6);
        assert_eq!(path.last(), Some(("block", "1")));
    }

    #[test]
    fn unpinned_query_routes_to_apex() {
        let svc = Service::parking();
        let (_, path, name) = route_query("//parkingSpace[available='yes']", &svc).unwrap();
        assert!(path.is_empty());
        assert_eq!(name.to_string(), "parking.intel-iris.net");
    }

    #[test]
    fn bad_query_is_an_error() {
        let svc = Service::parking();
        assert!(route_query("/a[", &svc).is_err());
    }
}
