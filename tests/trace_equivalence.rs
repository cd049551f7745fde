//! DES-vs-sharded trace-shape equivalence.
//!
//! Both substrates drive the same agent state machine, so the *structure*
//! of a query's trace — which spans exist, how they nest, which sites they
//! ran on, cache outcomes, partial flags — must be byte-identical between
//! a DES run (virtual time) and a sharded run (threads, wall time) of the
//! same workload. Only timings may differ, and the structure digest
//! deliberately strips them.
//!
//! The scenario is the acceptance case for `query explain`: a two-site
//! split of the parking hierarchy, queried twice with caching on. The
//! first query partially matches the cache (local skeleton answers the
//! Oakland half, the carved neighborhood is fetched from site 2); the
//! second is a pure cache hit answered locally.

use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{Endpoint, Message, OaConfig, OrganizingAgent, Status};
use irisobs::{
    check_well_formed, explain_tree, render_explain, structure_digest, CacheOutcome,
    Forest, MemRecorder, SpanKind,
};
use simnet::{CostModel, DesCluster, ShardConfig, ShardedCluster};

fn params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 2,
        spaces_per_block: 2,
    }
}

fn make_agents(db: &ParkingDb) -> (OrganizingAgent, OrganizingAgent) {
    let svc = db.service.clone();
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    let carved = db.neighborhood_path(0, 1);
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
    oa2.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
    (oa1, oa2)
}

/// The same T3 query twice: first fill, then hit.
fn queries(db: &ParkingDb) -> Vec<String> {
    let q = Workload::uniform(db, QueryType::T3, 11).next_query();
    vec![q.clone(), q]
}

fn des_forest(db: &ParkingDb) -> Forest {
    let mut sim = DesCluster::new(CostModel::default());
    let rec = MemRecorder::new();
    sim.set_recorder(rec.clone());
    let (oa1, oa2) = make_agents(db);
    let svc = db.service.clone();
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    svc.register_owner(&mut sim.dns, &db.neighborhood_path(0, 1), SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);
    for (i, q) in queries(db).iter().enumerate() {
        // 50 s apart: the second query runs strictly after the first
        // completed and filled the cache, mirroring the blocking poses of
        // the sharded run.
        sim.schedule_message(
            i as f64 * 50.0,
            SiteAddr(1),
            Message::UserQuery {
                qid: i as u64 + 1,
                text: q.clone(),
                endpoint: Endpoint(10_000 + i as u64),
            },
        );
    }
    sim.run_until(200.0);
    assert_eq!(sim.take_unclaimed_detailed().len(), 2);
    check_well_formed(&rec.take_spans()).expect("DES forest well-formed")
}

fn sharded_forest(db: &ParkingDb, config: ShardConfig) -> Forest {
    let mut cluster = ShardedCluster::with_config(db.service.clone(), config);
    let rec = MemRecorder::new();
    cluster.set_recorder(rec.clone());
    let (oa1, oa2) = make_agents(db);
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.register_owner(&db.neighborhood_path(0, 1), SiteAddr(2));
    cluster.add_site(oa1);
    cluster.add_site(oa2);
    cluster.start();
    for q in queries(db) {
        let r = cluster
            .pose_query_at(&q, SiteAddr(1), Duration::from_secs(10))
            .expect("sharded reply");
        assert!(r.ok, "sharded answer failed: {}", r.answer_xml);
    }
    cluster.shutdown();
    check_well_formed(&rec.take_spans()).expect("sharded forest well-formed")
}

#[test]
fn des_and_sharded_traces_are_structurally_identical() {
    // Span stitching must survive the multiplexed runtime and the wire
    // boundary: same digests at 1, 2 and 8 shards, framed or not, with
    // reads on the shard loop or on its workers.
    let db = ParkingDb::generate(params(), 42);
    let des = des_forest(&db);
    assert_eq!(des.queries.len(), 2);
    for (shards, workers_per_shard, force_wire) in
        [(1, 1, false), (2, 0, false), (2, 1, true), (8, 1, true)]
    {
        let config = ShardConfig { shards, workers_per_shard, force_wire };
        let sharded = sharded_forest(&db, config.clone());
        assert_eq!(sharded.queries.len(), 2, "at {config:?}");
        for (i, (d, s)) in des.queries.iter().zip(sharded.queries.iter()).enumerate() {
            assert_eq!(
                structure_digest(d),
                structure_digest(s),
                "query {i}: DES and sharded ({config:?}) trace shapes diverged"
            );
        }
    }
}

#[test]
fn explain_reports_cache_outcomes_per_paper_s3_2() {
    let db = ParkingDb::generate(params(), 42);
    let forest = des_forest(&db);

    // Query 1: the cached view answers the local half, site 2 supplies the
    // carved neighborhood — a partial match that crossed one site.
    let q1 = explain_tree(&forest.queries[0]);
    assert_eq!(q1.cache[&1].partial_matches, 1, "first query should partially match");
    assert!(q1.sites.contains(&1) && q1.sites.contains(&2), "sites: {:?}", q1.sites);
    assert_eq!(q1.retries, 0);
    assert_eq!(q1.partial_stubs, 0);
    assert_eq!(q1.consistency_rejections, 0);
    assert!(q1.hops >= 3, "user query + subquery + subanswer, got {}", q1.hops);

    // Query 2: pure cache hit, answered entirely on site 1.
    let q2 = explain_tree(&forest.queries[1]);
    assert_eq!(q2.cache[&1].hits, 1, "second query should hit the cache");
    assert_eq!(q2.sites.len(), 1);
    assert_eq!(q2.hops, 1, "no cross-site traffic on a hit");

    // The cache outcome also sits on the Execute span itself.
    let outcome = |t: &irisobs::TraceTree| {
        t.nodes
            .iter()
            .find(|n| n.span.kind == SpanKind::Execute)
            .and_then(|n| n.span.cache)
    };
    assert_eq!(outcome(&forest.queries[0]), Some(CacheOutcome::PartialMatch));
    assert_eq!(outcome(&forest.queries[1]), Some(CacheOutcome::Hit));

    // The human-readable report renders and names the essentials.
    let report = render_explain(&forest.queries[0]);
    assert!(report.contains("partial-match"), "report:\n{report}");
    assert!(report.contains("sites"), "report:\n{report}");
}
