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

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{boot, carve, parking_db, sharded, t3, Runtime, DES};
use irisdns::SiteAddr;
use irisnet_core::OaConfig;
use irisobs::{
    check_well_formed, explain_tree, render_explain, structure_digest, CacheOutcome, Forest,
    MemRecorder, SpanKind,
};
use simnet::Target;

/// The scenario: the same T3 query twice at site 1 (first fill, then
/// hit), each answered before the next is posed; returns the assembled,
/// well-formed trace forest.
fn traced(rt: Runtime) -> Forest {
    let db = parking_db(2);
    let rec = MemRecorder::new();
    let sites = carve(&db, OaConfig::default(), OaConfig::default());
    let mut cluster = boot(rt, &db, sites, Some(rec.clone()));
    let q = t3(&db);
    for r in cluster.pose_each(Target::Site(SiteAddr(1)), &[q.clone(), q]) {
        assert!(r.ok, "answer failed on {rt:?}: {}", r.answer_xml);
    }
    cluster.finish();
    check_well_formed(&rec.take_spans())
        .unwrap_or_else(|e| panic!("{rt:?} forest not well-formed: {e:?}"))
}

#[test]
fn des_and_sharded_traces_are_structurally_identical() {
    // Span stitching must survive the multiplexed runtime and the wire
    // boundary: same digests at 1, 2 and 8 shards, framed or not, with
    // reads on the shard loop or on its workers.
    let des = traced(DES);
    assert_eq!(des.queries.len(), 2);
    for rt in [
        sharded(1, 1, false),
        sharded(2, 0, false),
        sharded(2, 1, true),
        sharded(8, 1, true),
    ] {
        let sharded = traced(rt);
        assert_eq!(sharded.queries.len(), 2, "on {rt:?}");
        for (i, (d, s)) in des.queries.iter().zip(sharded.queries.iter()).enumerate() {
            assert_eq!(
                structure_digest(d),
                structure_digest(s),
                "query {i}: DES and {rt:?} trace shapes diverged"
            );
        }
    }
}

#[test]
fn explain_reports_cache_outcomes_per_paper_s3_2() {
    let forest = traced(DES);

    // Query 1: the cached view answers the local half, site 2 supplies the
    // carved neighborhood — a partial match that crossed one site.
    let q1 = explain_tree(&forest.queries[0]);
    assert_eq!(
        q1.cache[&1].partial_matches, 1,
        "first query should partially match"
    );
    assert!(
        q1.sites.contains(&1) && q1.sites.contains(&2),
        "sites: {:?}",
        q1.sites
    );
    assert_eq!(q1.retries, 0);
    assert_eq!(q1.partial_stubs, 0);
    assert_eq!(q1.consistency_rejections, 0);
    assert!(
        q1.hops >= 3,
        "user query + subquery + subanswer, got {}",
        q1.hops
    );

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
    assert_eq!(
        outcome(&forest.queries[0]),
        Some(CacheOutcome::PartialMatch)
    );
    assert_eq!(outcome(&forest.queries[1]), Some(CacheOutcome::Hit));

    // The human-readable report renders and names the essentials.
    let report = render_explain(&forest.queries[0]);
    assert!(report.contains("partial-match"), "report:\n{report}");
    assert!(report.contains("sites"), "report:\n{report}");
}
