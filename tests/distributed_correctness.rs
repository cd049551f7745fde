//! Differential correctness: for randomly generated workload queries, the
//! answer produced by the *distributed* system (fragments, DNS routing,
//! QEG gathering, caching) must equal direct XPath evaluation over the
//! single master document — under every architecture and caching mode,
//! on the DES and on the sharded runtime. The generator mixes in
//! *unpinned* queries, which pin no id prefix and so route by the empty
//! LCA path (the service apex) to the root owner.

use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_bench::{build_cluster, Arch, DbParams, ParkingDb, ScaleHierarchy, Workload};
use irisnet_core::{CacheMode, Message, OaConfig, OrganizingAgent};
use sensorxml::Document;
use simnet::{CostModel, ShardConfig, ShardedCluster};

/// Evaluates `query` directly on the master document and returns the
/// multiset of canonical strings of the selected subtrees.
fn oracle(master: &Document, query: &str) -> Vec<String> {
    let expr = sensorxpath::parse(query).expect("query parses");
    let v = sensorxpath::evaluate_at(
        &expr,
        master,
        sensorxpath::XNode::Node(master.root().unwrap()),
    )
    .expect("oracle evaluation");
    let mut out: Vec<String> = v
        .as_nodes()
        .expect("node-set")
        .iter()
        .filter_map(|n| match n {
            sensorxpath::XNode::Node(id) => Some(sensorxml::canonical_string(master, *id)),
            _ => None,
        })
        .collect();
    out.sort();
    out
}

/// Parses a `<result>` answer and returns the canonical strings of its
/// child subtrees.
fn answer_set(answer_xml: &str) -> Vec<String> {
    let doc = sensorxml::parse(answer_xml).expect("answer parses");
    let root = doc.root().unwrap();
    assert_eq!(doc.name(root), "result", "unexpected answer: {answer_xml}");
    let mut out: Vec<String> = doc
        .child_elements(root)
        .map(|c| sensorxml::canonical_string(&doc, c))
        .collect();
    out.sort();
    out
}

fn smallish() -> DbParams {
    DbParams {
        cities: 2,
        neighborhoods_per_city: 3,
        blocks_per_neighborhood: 5,
        spaces_per_block: 4,
    }
}

/// The id prefix every workload query pins down to the county.
const COUNTY_PREFIX: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']";

/// An unpinned variant of workload query `q`, one of three shapes by `k`:
/// the root step without its id, a leading `//`, or every available space.
/// None pins an id prefix, so each routes by the empty LCA path.
fn unpinned(q: &str, k: usize) -> String {
    let out = match k % 3 {
        0 => q.replacen("/usRegion[@id='NE']", "/usRegion", 1),
        1 => q.replacen(COUNTY_PREFIX, "/", 1),
        _ => "//parkingSpace[available='yes']".to_string(),
    };
    let expr = sensorxpath::parse(&out).expect("unpinned query parses");
    assert!(irisnet_core::routing::lca_id_path(&expr).is_empty(), "{out} is pinned");
    out
}

/// The generator: the QW mix, each third query followed by an unpinned
/// variant of it.
fn query_stream(db: &ParkingDb, seed: u64, n: usize) -> Vec<String> {
    let mut w = Workload::qw_mix(db, seed);
    let mut out = Vec::new();
    for k in 0..n {
        let q = w.next_query();
        if k % 3 == 0 {
            out.push(unpinned(&q, k / 3));
        }
        out.push(q);
    }
    out
}

fn check_arch(arch: Arch, cache: CacheMode, seed: u64, queries: usize) {
    let db = ParkingDb::generate(smallish(), seed);
    let cfg = OaConfig { cache, ..OaConfig::default() };
    // One long-lived cluster: caches warm up across queries, so later
    // queries exercise the partial-match reuse paths too.
    let mut built = build_cluster(arch, &db, CostModel::default(), cfg, 9);
    for (k, q) in query_stream(&db, seed.wrapping_add(1), queries).iter().enumerate() {
        let expected = oracle(&db.master, q);
        let got = pose_sync(&mut built, q);
        assert_eq!(
            got, expected,
            "{arch:?} cache={cache:?}: answer mismatch for query {k}: {q}"
        );
    }
}

/// Poses one query synchronously through the DES and returns the canonical
/// answer set.
fn pose_sync(built: &mut irisnet_bench::BuiltCluster, query: &str) -> Vec<String> {
    // Drive the simulator directly: find the entry site like a client
    // would, inject, run to quiescence, intercept the reply.
    let entry = match built.sim.route_override {
        Some(s) => s,
        None => {
            let service = built
                .sim
                .site(built.sites[0])
                .expect("site exists")
                .service
                .clone();
            let (_, _, name) = irisnet_core::routing::route_query(query, &service).unwrap();
            built
                .sim
                .dns
                .lookup(&name)
                .map(|a| a.addr)
                .unwrap_or_else(|| panic!("{name} is unresolvable for {query}"))
        }
    };
    pose_at(built, entry, query)
}

/// Poses one query at `entry` through the DES and returns the canonical
/// answer set.
fn pose_at(built: &mut irisnet_bench::BuiltCluster, entry: SiteAddr, query: &str) -> Vec<String> {
    let start = built.sim.now();
    built.sim.schedule_message(
        start,
        entry,
        Message::UserQuery {
            qid: 424242,
            text: query.to_string(),
            endpoint: irisnet_core::Endpoint(9999),
        },
    );
    // Run until the queue drains; intercepting the ReplyUser requires the
    // raw outbound, so instead capture by re-handling: the DES records
    // replies only for registered clients, so use the capture hook below.
    built.sim.run_until(start + 1_000.0);
    built
        .sim
        .take_unclaimed_replies()
        .into_iter()
        .next_back()
        .map(|xml| answer_set(&xml))
        .expect("a reply was produced")
}

#[test]
fn hierarchical_matches_oracle_with_caching() {
    check_arch(Arch::Hierarchical, CacheMode::Aggressive, 1, 30);
}

#[test]
fn hierarchical_matches_oracle_without_caching() {
    check_arch(Arch::Hierarchical, CacheMode::Off, 2, 30);
}

#[test]
fn centralized_matches_oracle() {
    check_arch(Arch::Centralized, CacheMode::Aggressive, 3, 20);
}

#[test]
fn central_query_dist_update_matches_oracle() {
    check_arch(Arch::CentralQueryDistUpdate, CacheMode::Aggressive, 4, 20);
}

#[test]
fn two_level_dns_matches_oracle() {
    check_arch(Arch::TwoLevelDns, CacheMode::Aggressive, 5, 20);
}

/// A freshly joined site holds no data, so it forwards every query to the
/// apex owner; that must work for pinned and unpinned queries alike.
#[test]
fn empty_joined_site_forwards_to_the_apex_owner() {
    let db = ParkingDb::generate(smallish(), 6);
    let mut built =
        build_cluster(Arch::Hierarchical, &db, CostModel::default(), OaConfig::default(), 9);
    let joined = SiteAddr(99);
    built.sim.add_site(OrganizingAgent::new(joined, db.service.clone(), OaConfig::default()));
    for (k, q) in query_stream(&db, 7, 9).iter().enumerate() {
        let expected = oracle(&db.master, q);
        assert_eq!(pose_at(&mut built, joined, q), expected, "query {k} via the joined site: {q}");
    }
}

/// The same generator on the sharded runtime, through
/// `ShardClient::pose_query`'s self-starting routing.
#[test]
fn sharded_runtime_matches_oracle() {
    let h = ScaleHierarchy::with_sites(13, 8);
    let mut cluster = ShardedCluster::with_config(
        h.db.service.clone(),
        ShardConfig { shards: 2, workers_per_shard: 1, force_wire: false },
    );
    for (path, addr) in &h.owners {
        cluster.register_owner(path, *addr);
    }
    for a in h.make_agents(&OaConfig::default()) {
        cluster.add_site(a);
    }
    cluster.start();
    let mut client = cluster.client();
    for (k, q) in query_stream(&h.db, 9, 30).iter().enumerate() {
        let r = client
            .pose_query(q, Duration::from_secs(30))
            .unwrap_or_else(|| panic!("query {k} was not routed: {q}"));
        assert!(r.ok && !r.partial, "query {k} failed: {q}: {}", r.answer_xml);
        assert_eq!(answer_set(&r.answer_xml), oracle(&h.db.master, q), "query {k}: {q}");
    }
    cluster.shutdown();
}

#[test]
fn updates_are_visible_in_distributed_answers() {
    let db = ParkingDb::generate(smallish(), 9);
    let cfg = OaConfig::default();
    let mut built = build_cluster(Arch::Hierarchical, &db, CostModel::default(), cfg, 9);
    // Flip a specific space to "yes" and query it.
    let sp = db.space_path(0, 1, 2, 3);
    let owner = built.block_owner[&db.block_path(0, 1, 2)];
    built.sim.schedule_message(
        0.0,
        owner,
        Message::Update {
            path: sp,
            fields: vec![("available".into(), "yes".into()), ("price".into(), "99".into())],
        },
    );
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
             /city[@id='Pittsburgh']/neighborhood[@id='n2']/block[@id='3']\
             /parkingSpace[price='99']";
    built.sim.run_until(1.0);
    let got = pose_sync(&mut built, q);
    assert_eq!(got.len(), 1);
    assert!(got[0].contains("<price>99</price>"));
}
