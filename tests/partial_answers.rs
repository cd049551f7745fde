//! Graceful degradation under a permanent site crash.
//!
//! Site 2 (owner of neighborhood n2) crashes permanently at t=100 under a
//! deterministic `FaultPlan`. Queries that need its subtree must complete
//! as `partial: true` answers — with `partial="true"` stub nodes marking
//! exactly the unreachable covering path — instead of hanging; queries on
//! site-1-owned data must stay byte-identical to their pre-crash answers.
//! All timing is virtual (DES), derived from the plan: nothing sleeps.

use std::sync::Arc;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb};
use irisnet_core::{
    CacheMode, DurabilityConfig, Endpoint, IdPath, MemoryBackend, Message, OaConfig,
    OrganizingAgent, RetryPolicy, SiteStore, Status,
};
use simnet::{CostModel, DesCluster, FaultPlan, UnclaimedReply};

const Q_BOTH: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
    /city[@id='Pittsburgh']/neighborhood[@id='n1' or @id='n2']/block[@id='1']/parkingSpace";
const Q_LOCAL: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
    /city[@id='Pittsburgh']/neighborhood[@id='n1']/block[@id='1']/parkingSpace";

fn params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 2,
        spaces_per_block: 2,
    }
}

fn config() -> OaConfig {
    OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.5, 2),
        ..OaConfig::default()
    }
}

fn canon(xml: &str) -> String {
    let doc = sensorxml::parse(xml).expect("answer parses");
    sensorxml::canonical_string(&doc, doc.root().unwrap())
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
    let db = ParkingDb::generate(params(), 42);
    let carved = db.neighborhood_path(0, 1); // n2, owned by site 2
    let svc = db.service.clone();

    let mut sim = DesCluster::new(CostModel::default());
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), config());
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), config());
    oa2.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    svc.register_owner(&mut sim.dns, &carved, SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);
    sim.set_fault_plan(FaultPlan::reliable().with_crash(SiteAddr(2), 100.0, f64::INFINITY));

    // (time, endpoint, query): two exact warm-ups, then the crash, then a
    // mix of affected and unaffected queries.
    let schedule: &[(f64, u64, &str)] = &[
        (10.0, 1, Q_BOTH),
        (20.0, 2, Q_LOCAL),
        (150.0, 3, Q_BOTH),
        (160.0, 4, Q_LOCAL),
        (200.0, 5, Q_BOTH),
    ];
    for &(at, ep, q) in schedule {
        sim.schedule_message(
            at,
            SiteAddr(1),
            Message::UserQuery { qid: ep, text: q.to_string(), endpoint: Endpoint(ep) },
        );
    }
    sim.run_until(400.0);

    let mut replies: Vec<UnclaimedReply> = sim.take_unclaimed_detailed();
    replies.sort_by_key(|r| r.endpoint.0);
    assert_eq!(replies.len(), 5, "a query hung instead of degrading");

    let by_ep =
        |ep: u64| replies.iter().find(|r| r.endpoint.0 == ep).expect("reply present");

    // Pre-crash: everything exact.
    for ep in [1, 2] {
        let r = by_ep(ep);
        assert!(r.ok && !r.partial, "pre-crash query {ep} not exact");
        assert!(partial_paths(&r.answer_xml).is_empty());
    }

    // Post-crash spanning queries: ok but partial, stamped with exactly
    // the crashed owner's covering path — and still carrying n1's data.
    for ep in [3, 5] {
        let r = by_ep(ep);
        assert!(r.ok, "affected query {ep} errored: {}", r.answer_xml);
        assert!(r.partial, "affected query {ep} not flagged partial");
        assert_eq!(
            partial_paths(&r.answer_xml),
            vec![id_pairs(&carved)],
            "query {ep}: partial stubs are not the unreachable covering node"
        );
        assert!(
            r.answer_xml.contains("parkingSpace"),
            "query {ep} lost the reachable half of the answer"
        );
    }

    // Post-crash local query: unaffected, byte-identical to pre-crash.
    let r4 = by_ep(4);
    assert!(r4.ok && !r4.partial, "unaffected query flagged partial");
    assert_eq!(canon(&r4.answer_xml), canon(&by_ep(2).answer_xml));

    // The abandonment is visible in the asker's stats, and messages to the
    // dead site were dropped at delivery.
    let s1 = sim.site(SiteAddr(1)).unwrap();
    assert!(s1.stats.asks_abandoned >= 2, "abandoned: {}", s1.stats.asks_abandoned);
    assert!(s1.stats.retries_sent >= 2);
    assert!(s1.stats.partial_answers >= 2);
    assert!(sim.fault_counts().crash_drops > 0);
}

/// A *temporary* crash (PR 8): the same degradation as above while the
/// owner is down — `partial="true"` stubs on exactly the unreachable
/// covering path — but once a replacement recovers from the durable
/// snapshot + WAL tail, spanning queries heal back to byte-identical
/// exact answers, stubs gone, including an update that only ever lived
/// in the WAL tail.
#[test]
fn temporary_crash_heals_after_restart_from_log() {
    let db = ParkingDb::generate(params(), 42);
    let carved = db.neighborhood_path(0, 1); // n2, owned by site 2
    let svc = db.service.clone();

    let mut sim = DesCluster::new(CostModel::default());
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), config());
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let mut oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), config());
    oa2.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
    let backend = Arc::new(MemoryBackend::new());
    let (store, recovered) =
        SiteStore::open(Box::new(backend.clone()), DurabilityConfig::default()).unwrap();
    oa2.attach_durability(store, recovered, 0.0).unwrap();
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    svc.register_owner(&mut sim.dns, &carved, SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);

    // An update into the WAL tail (the attach snapshot predates it), then
    // one exact answer before the crash.
    sim.schedule_message(
        5.0,
        SiteAddr(2),
        Message::Update {
            path: carved.child("block", "1").child("parkingSpace", "1"),
            fields: vec![("available".to_string(), "77".to_string())],
        },
    );
    let pose = |sim: &mut DesCluster, at: f64, ep: u64| {
        sim.schedule_message(
            at,
            SiteAddr(1),
            Message::UserQuery { qid: ep, text: Q_BOTH.to_string(), endpoint: Endpoint(ep) },
        );
    };
    pose(&mut sim, 10.0, 1);
    sim.run_until(50.0);

    // Crash with amnesia: agent dropped, only the backend survives.
    drop(sim.remove_site(SiteAddr(2)).expect("site 2 present"));
    pose(&mut sim, 60.0, 2);
    sim.run_until(150.0);

    // Restart from the log; heal.
    let mut oa2b = OrganizingAgent::new(SiteAddr(2), svc, config());
    let (store, recovered) =
        SiteStore::open(Box::new(backend), DurabilityConfig::default()).unwrap();
    let stats = oa2b.attach_durability(store, recovered, 150.0).unwrap();
    assert!(stats.snapshot_loaded && stats.records_replayed >= 1);
    sim.restart_site(oa2b);
    pose(&mut sim, 200.0, 3);
    sim.run_until(400.0);

    let mut replies = sim.take_unclaimed_detailed();
    replies.sort_by_key(|r| r.endpoint.0);
    assert_eq!(replies.len(), 3, "a query hung instead of completing");

    let pre = &replies[0];
    assert!(pre.ok && !pre.partial, "pre-crash query not exact");
    assert!(partial_paths(&pre.answer_xml).is_empty());
    assert!(pre.answer_xml.contains("77"), "update not visible pre-crash");

    let during = &replies[1];
    assert!(during.ok && during.partial, "outage query should degrade, not fail");
    assert_eq!(
        partial_paths(&during.answer_xml),
        vec![id_pairs(&carved)],
        "outage stubs are not the unreachable covering node"
    );

    let post = &replies[2];
    assert!(post.ok && !post.partial, "post-restart query did not heal");
    assert!(partial_paths(&post.answer_xml).is_empty(), "stale partial stubs survived");
    assert_eq!(canon(&post.answer_xml), canon(&pre.answer_xml));
}
