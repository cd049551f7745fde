//! Graceful degradation under a permanent site crash.
//!
//! Site 2 (owner of neighborhood n2) crashes permanently after two warm-up
//! queries, under a deterministic `FaultPlan` crash window. Queries that need its subtree must complete
//! as `partial: true` answers — with `partial="true"` stub nodes marking
//! exactly the unreachable covering path — instead of hanging; queries on
//! site-1-owned data must stay byte-identical to their pre-crash answers.
//! All timing is virtual (DES), derived from the plan: nothing sleeps.

#[path = "support/cluster.rs"]
mod cluster;

use std::sync::Arc;

use cluster::{boot, canon, carve, carved, parking_db, DES};
use irisdns::SiteAddr;
use irisnet_core::{
    CacheMode, DurabilityConfig, IdPath, MemoryBackend, Message, OaConfig, OrganizingAgent,
    RetryPolicy, SiteStore,
};
use simnet::{FaultPlan, Target};

const Q_BOTH: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
    /city[@id='Pittsburgh']/neighborhood[@id='n1' or @id='n2']/block[@id='1']/parkingSpace";
const Q_LOCAL: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
    /city[@id='Pittsburgh']/neighborhood[@id='n1']/block[@id='1']/parkingSpace";
const SITE1: Target = Target::Site(SiteAddr(1));

fn config() -> OaConfig {
    OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.5, 2),
        ..OaConfig::default()
    }
}

/// Collects the `(tag, id)` ancestry of every element carrying
/// `partial="true"` in an answer document.
fn partial_paths(xml: &str) -> Vec<Vec<(String, String)>> {
    let doc = sensorxml::parse(xml).expect("answer parses");
    let mut out = Vec::new();
    fn walk(
        doc: &sensorxml::Document,
        node: sensorxml::NodeId,
        path: &mut Vec<(String, String)>,
        out: &mut Vec<Vec<(String, String)>>,
    ) {
        let seg = (
            doc.name(node).to_string(),
            doc.attr(node, "id").unwrap_or_default().to_string(),
        );
        path.push(seg);
        if doc.attr(node, "partial") == Some("true") {
            out.push(path.clone());
        }
        for &c in doc.children(node) {
            walk(doc, c, path, out);
        }
        path.pop();
    }
    let root = doc.root().unwrap();
    // Skip the <result> wrapper itself.
    for &c in doc.children(root) {
        walk(&doc, c, &mut Vec::new(), &mut out);
    }
    out
}

fn id_pairs(path: &IdPath) -> Vec<(String, String)> {
    path.segments().to_vec()
}

#[test]
fn permanent_crash_degrades_to_partial_answers() {
    let db = parking_db(2);
    let carved = carved(&db);
    let mut cluster = boot(DES, &db, carve(&db, config(), config()), None);

    // Two exact warm-ups; then site 2 crashes for good — a window open from
    // t=0, installed now — and a mix of affected and unaffected queries.
    let q = |qs: &[&str]| qs.iter().map(|q| q.to_string()).collect::<Vec<_>>();
    let mut replies = cluster.pose_each(SITE1, &q(&[Q_BOTH, Q_LOCAL]));
    cluster.set_fault_plan(FaultPlan::reliable().with_crash(SiteAddr(2), 0.0, f64::INFINITY));
    replies.extend(cluster.pose_each(SITE1, &q(&[Q_BOTH, Q_LOCAL, Q_BOTH])));
    let crash_drops = cluster.fault_counts().crash_drops;
    let s1 = cluster.finish().remove(0);

    // Pre-crash: everything exact.
    for r in &replies[..2] {
        assert!(r.ok && !r.partial, "pre-crash query not exact");
        assert!(partial_paths(&r.answer_xml).is_empty());
    }

    // Post-crash spanning queries: ok but partial, stamped with exactly
    // the crashed owner's covering path — and still carrying n1's data.
    for i in [2, 4] {
        let r = &replies[i];
        assert!(r.ok, "affected query {i} errored: {}", r.answer_xml);
        assert!(r.partial, "affected query {i} not flagged partial");
        assert_eq!(
            partial_paths(&r.answer_xml),
            vec![id_pairs(&carved)],
            "query {i}: partial stubs are not the unreachable covering node"
        );
        assert!(
            r.answer_xml.contains("parkingSpace"),
            "query {i} lost the reachable half of the answer"
        );
    }

    // Post-crash local query: unaffected, byte-identical to pre-crash.
    let r3 = &replies[3];
    assert!(r3.ok && !r3.partial, "unaffected query flagged partial");
    assert_eq!(canon(&r3.answer_xml), canon(&replies[1].answer_xml));

    // The abandonment is visible in the asker's stats, and messages to the
    // dead site were dropped at delivery.
    assert_eq!(s1.addr, SiteAddr(1));
    assert!(
        s1.stats.asks_abandoned >= 2,
        "abandoned: {}",
        s1.stats.asks_abandoned
    );
    assert!(s1.stats.retries_sent >= 2);
    assert!(s1.stats.partial_answers >= 2);
    assert!(crash_drops > 0);
}

/// A *temporary* crash (PR 8): the same degradation as above while the
/// owner is down — `partial="true"` stubs on exactly the unreachable
/// covering path — but once a replacement recovers from the durable
/// snapshot + WAL tail, spanning queries heal back to byte-identical
/// exact answers, stubs gone, including an update that only ever lived
/// in the WAL tail.
#[test]
fn temporary_crash_heals_after_restart_from_log() {
    let db = parking_db(2);
    let carved = carved(&db);
    let [oa1, mut oa2] = carve(&db, config(), config());
    let backend = Arc::new(MemoryBackend::new());
    let attach = |oa: &mut OrganizingAgent| {
        let (store, recovered) =
            SiteStore::open(Box::new(backend.clone()), DurabilityConfig::default()).unwrap();
        oa.attach_durability(store, recovered, 0.0).unwrap()
    };
    attach(&mut oa2);
    let mut cluster = boot(DES, &db, [oa1, oa2], None);

    // An update into the WAL tail (the attach snapshot predates it), then
    // one exact answer before the crash.
    cluster.send(
        SiteAddr(2),
        Message::Update {
            path: carved.child("block", "1").child("parkingSpace", "1"),
            fields: vec![("available".to_string(), "77".to_string())],
        },
    );
    let q = [Q_BOTH.to_string()];
    let pre = cluster.pose_each(SITE1, &q).remove(0);

    // Crash with amnesia: agent dropped, only the backend survives.
    drop(cluster.stop_site(SiteAddr(2)).expect("site 2 present"));
    let during = cluster.pose_each(SITE1, &q).remove(0);

    // Restart from the log; heal.
    let mut oa2b = OrganizingAgent::new(SiteAddr(2), db.service.clone(), config());
    let stats = attach(&mut oa2b);
    assert!(stats.snapshot_loaded && stats.records_replayed >= 1);
    cluster.restart_site(oa2b);
    let post = cluster.pose_each(SITE1, &q).remove(0);
    cluster.finish();

    assert!(pre.ok && !pre.partial, "pre-crash query not exact");
    assert!(partial_paths(&pre.answer_xml).is_empty());
    assert!(
        pre.answer_xml.contains("77"),
        "update not visible pre-crash"
    );

    assert!(
        during.ok && during.partial,
        "outage query should degrade, not fail"
    );
    assert_eq!(
        partial_paths(&during.answer_xml),
        vec![id_pairs(&carved)],
        "outage stubs are not the unreachable covering node"
    );

    assert!(post.ok && !post.partial, "post-restart query did not heal");
    assert!(
        partial_paths(&post.answer_xml).is_empty(),
        "stale partial stubs survived"
    );
    assert_eq!(canon(&post.answer_xml), canon(&pre.answer_xml));
}
