//! PR 6 regression: cache-hit user queries are pure read-path work.
//!
//! The old `CacheManager::enforce` ran a full O(tracked) scan under the
//! `SiteDatabase` write lock on *every* user query, serializing the read
//! path PR 2 parallelized. Enforcement now runs only at quiescent points
//! on the owner loop, so a cache-hit query must (a) perform zero eviction
//! work and (b) never take the write lock — proven here by holding a read
//! guard on the shared database for the whole query and requiring it to
//! complete anyway (an `RwLock` blocks a writer while any read guard is
//! held, so a write-lock attempt would hang the query past the timeout).

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use irisdns::{AuthoritativeDns, SiteAddr};
use irisnet_core::{
    CacheBudget, Endpoint, EvictionPolicy, IdPath, Message, OaConfig, OrganizingAgent, Outbound,
    Service, Status,
};

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
             <neighborhood id="n1">
               <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
               <block id="2"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .unwrap()
}

fn block_path(b: &str) -> IdPath {
    IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "A"),
        ("city", "P"),
        ("neighborhood", "n1"),
        ("block", b),
    ])
}

const Q: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
    /neighborhood[@id='n1']/block[@id='2']/parkingSpace[available='yes']";

/// Site 1 owns everything except block 2, which site 2 owns; site 1 runs
/// a budgeted LRU cache. Routes site-1 ⇄ site-2 traffic by hand.
fn two_sites() -> (OrganizingAgent, OrganizingAgent, AuthoritativeDns) {
    let svc = Service::parking();
    let root = IdPath::from_pairs([("usRegion", "NE")]);
    let carved = block_path("2");
    let cfg = OaConfig {
        eviction: EvictionPolicy::Lru { budget: CacheBudget::nodes(64) },
        ..OaConfig::default()
    };
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), cfg);
    oa1.db_mut().bootstrap_owned(&master(), &root, true).unwrap();
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
    oa2.db_mut().bootstrap_owned(&master(), &carved, true).unwrap();
    let mut dns = AuthoritativeDns::new();
    svc.register_owner(&mut dns, &root, SiteAddr(1));
    svc.register_owner(&mut dns, &carved, SiteAddr(2));
    (oa1, oa2, dns)
}

/// Drives a user query at site 1 to completion, relaying subqueries to
/// site 2 and subanswers back. Returns the reply's (ok, answer_xml).
fn pose(
    oa1: &mut OrganizingAgent,
    oa2: &mut OrganizingAgent,
    dns: &mut AuthoritativeDns,
    qid: u64,
    now: f64,
) -> (bool, String) {
    let mut inbox1 =
        vec![Message::UserQuery { qid, text: Q.into(), endpoint: Endpoint(qid) }];
    let mut inbox2: Vec<Message> = Vec::new();
    for _ in 0..16 {
        if inbox1.is_empty() && inbox2.is_empty() {
            break;
        }
        let mut out = Vec::new();
        for m in inbox1.drain(..) {
            out.extend(oa1.handle(m, dns, now));
        }
        for m in inbox2.drain(..) {
            out.extend(oa2.handle(m, dns, now));
        }
        for o in out {
            match o {
                Outbound::Send { to: SiteAddr(1), msg } => inbox1.push(msg),
                Outbound::Send { to: SiteAddr(2), msg } => inbox2.push(msg),
                Outbound::Send { to, .. } => panic!("unexpected destination {to:?}"),
                Outbound::ReplyUser { ok, answer_xml, .. } => return (ok, answer_xml),
            }
        }
    }
    panic!("query {qid} never answered");
}

#[test]
fn cache_hit_query_does_zero_eviction_work_and_takes_no_write_lock() {
    let (mut oa1, mut oa2, mut dns) = two_sites();

    // Query 1 gathers block 2 from site 2 and caches it.
    let (ok, first) = pose(&mut oa1, &mut oa2, &mut dns, 1, 0.0);
    assert!(ok, "gather failed: {first}");
    let before = oa1.cache_stats();
    assert_eq!(before.misses, 1, "first query asks at the query LCA");
    assert_eq!(before.tracked, 1, "block 2 is now a tracked cached unit");

    // Query 2 is a pure cache hit. Hold a read guard on site 1's shared
    // database for its whole lifetime: any write-lock attempt on the
    // query path deadlocks and trips the timeout.
    let shared = oa1.shared_db();
    let guard = shared.read().unwrap();
    let (tx, rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        let reply = pose(&mut oa1, &mut oa2, &mut dns, 2, 1.0);
        tx.send(()).unwrap();
        (oa1, reply)
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("cache-hit query blocked: something took the write lock");
    drop(guard);
    let (oa1, (ok, second)) = worker.join().unwrap();
    assert!(ok);
    assert_eq!(first, second, "cached answer must match the gathered one");

    // Zero eviction work on the hit: no sweeps, no scans, no demotions.
    let after = oa1.cache_stats();
    assert_eq!(after.hits, 1, "second query is a full cache hit");
    assert_eq!(after.sweeps, 0, "no enforcement sweep ran");
    assert_eq!(after.sweep_examined, 0, "no entries were examined");
    assert_eq!(after.evictions, 0, "nothing was demoted");
    assert_eq!(after.tracked, 1, "the cached unit is still resident");
}

#[test]
fn over_budget_fill_sweeps_once_quiescent_not_on_the_read_path() {
    let (_, mut oa2, mut dns) = two_sites();
    // Rebuild site 1 with a 2-node budget — below the unit's size, so the
    // fill overflows it. Admission stays on, but the very first unit is
    // always admitted into an empty cache.
    let svc = Service::parking();
    let root = IdPath::from_pairs([("usRegion", "NE")]);
    let carved = block_path("2");
    let cfg = OaConfig {
        eviction: EvictionPolicy::Lru { budget: CacheBudget::nodes(2) },
        ..OaConfig::default()
    };
    let mut oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), cfg);
    oa1.db_mut().bootstrap_owned(&master(), &root, true).unwrap();
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();

    let (ok, _) = pose(&mut oa1, &mut oa2, &mut dns, 1, 0.0);
    assert!(ok);
    // The fill overflowed the 2-node budget; the post-query quiescent
    // sweep demoted it again (budget cannot hold it), off the read path.
    let cs = oa1.cache_stats();
    assert_eq!(cs.evictions, 1, "over-budget unit demoted by the sweep");
    assert!(cs.sweeps >= 1);
    assert_eq!(cs.tracked, 0);
    // A follow-up query must still answer correctly (refill by subquery).
    let (ok, xml) = pose(&mut oa1, &mut oa2, &mut dns, 2, 1.0);
    assert!(ok);
    assert!(xml.contains("parkingSpace"), "refill answered: {xml}");
}
