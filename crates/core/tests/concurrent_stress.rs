//! Concurrency stress for the read/mutation split: reader threads execute
//! QEG programs through `perform_read` against the shared site database
//! while the owner thread interleaves updates, evictions and fragment
//! merges. At quiescence the fragment invariants must hold and every query
//! must answer byte-identically to a serial replay of the same mutation
//! sequence.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use irisdns::{AuthoritativeDns, SiteAddr};
use irisnet_core::qeg::plan_query;
use irisnet_core::{
    perform_read, Endpoint, IdPath, Message, OaConfig, OrganizingAgent, ReadResult,
    ReadTask, ReadTaskKind, Service, SiteDatabase, Status,
};

fn master() -> sensorxml::Document {
    let mut s =
        String::from(r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">"#);
    for n in 1..=2 {
        s += &format!(r#"<neighborhood id="n{n}">"#);
        for b in 1..=3 {
            s += &format!(r#"<block id="{b}">"#);
            for p in 1..=3 {
                s += &format!(
                    r#"<parkingSpace id="{p}"><available>yes</available></parkingSpace>"#
                );
            }
            s += "</block>";
        }
        s += "</neighborhood>";
    }
    s += "</city></county></state></usRegion>";
    sensorxml::parse(&s).unwrap()
}

fn pgh() -> IdPath {
    IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "A"),
        ("city", "P"),
    ])
}

const QUERIES: &[&str] = &[
    "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
     /neighborhood[@id='n1']/block[@id='1']/parkingSpace[available='yes']",
    "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
     /neighborhood[@id='n1' or @id='n2']/block[@id='2']/parkingSpace[available='yes']",
    "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
     /neighborhood[@id='n2']/block[@id='3']/parkingSpace",
];

/// The stressed site owns n1 and holds n2 as a cached (evictable) copy.
fn make_agent(svc: &Arc<Service>) -> OrganizingAgent {
    let oa = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
    oa.db_mut().bootstrap_owned(&master(), &IdPath::from_pairs([("usRegion", "NE")]), true)
        .unwrap();
    oa.db_mut()
        .set_status_subtree(&pgh().child("neighborhood", "n2"), Status::Complete)
        .unwrap();
    oa
}

/// The deterministic mutation sequence the owner loop applies: flip a space
/// in n1 every round; every 25th round evict the cached n2 subtree and
/// merge it back from a pristine export two rounds later.
fn owner_round(oa: &mut OrganizingAgent, dns: &mut AuthoritativeDns, full: &SiteDatabase, r: u64) {
    let n2 = pgh().child("neighborhood", "n2");
    match r % 25 {
        7 => {
            let _ = oa.db_mut().evict(&n2);
        }
        9 => {
            let frag = full.export_subtrees(std::slice::from_ref(&n2)).unwrap();
            oa.db_mut().merge_fragment(&frag).unwrap();
        }
        _ => {
            let path = pgh()
                .child("neighborhood", "n1")
                .child("block", format!("{}", r % 3 + 1))
                .child("parkingSpace", format!("{}", r % 3 + 1));
            let val = if r.is_multiple_of(2) { "no" } else { "yes" };
            let _ = oa.handle(
                Message::Update { path, fields: vec![("available".into(), val.into())] },
                dns,
                r as f64,
            );
        }
    }
}

fn final_answer(oa: &OrganizingAgent, svc: &Service, q: &str, pid: u64) -> String {
    let expr = sensorxpath::parse(q).unwrap();
    let plan = Arc::new(plan_query(&expr, svc).unwrap());
    let task = ReadTask {
        pid,
        posed_at: 0.0,
        kind: ReadTaskKind::FinalizeUser { plan, endpoint: Endpoint(0), qid: pid, failed: Vec::new() },
    };
    let done = {
        let db = oa.db();
        perform_read(&task, &oa.qeg(), &db)
    };
    let ReadResult::UserAnswer { answer_xml, ok, .. } = done.result else {
        panic!("expected a user answer")
    };
    assert!(ok, "final answer failed for {q}: {answer_xml}");
    answer_xml
}

#[test]
fn concurrent_reads_during_mutation_preserve_invariants() {
    const ROUNDS: u64 = 400;
    const READERS: usize = 4;

    let svc = Service::parking();
    let mut full = SiteDatabase::new(svc.clone());
    full.bootstrap_owned(&master(), &IdPath::from_pairs([("usRegion", "NE")]), true)
        .unwrap();
    let full = Arc::new(full);

    let mut oa = make_agent(&svc);
    let stop = Arc::new(AtomicBool::new(false));
    let executed = Arc::new(AtomicU64::new(0));

    let mut readers = Vec::new();
    for t in 0..READERS {
        let db = oa.shared_db();
        let qeg = oa.qeg();
        let stop = stop.clone();
        let executed = executed.clone();
        let svc = svc.clone();
        readers.push(std::thread::spawn(move || {
            let mut i = t;
            while !stop.load(Ordering::Relaxed) {
                let q = QUERIES[i % QUERIES.len()];
                i += 1;
                let expr = sensorxpath::parse(q).unwrap();
                let plan = Arc::new(plan_query(&expr, &svc).unwrap());
                let task = ReadTask {
                    pid: i as u64,
                    posed_at: 0.0,
                    kind: ReadTaskKind::Execute { plan, ignore_complete: false },
                };
                let done = {
                    let db = db.read().unwrap();
                    perform_read(&task, &qeg, &db)
                };
                // Execution never errors, whichever snapshot it saw (the
                // cached n2 subtree may be evicted or present — both are
                // valid states that at most produce fresh asks).
                match done.result {
                    ReadResult::Executed { .. } => {
                        executed.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("read failed mid-stress: {other:?}"),
                }
            }
        }));
    }

    let mut dns = AuthoritativeDns::new();
    svc.register_owner(&mut dns, &IdPath::from_pairs([("usRegion", "NE")]), SiteAddr(1));
    for r in 0..ROUNDS {
        owner_round(&mut oa, &mut dns, &full, r);
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().expect("reader thread panicked");
    }
    assert!(executed.load(Ordering::Relaxed) > 0, "readers made no progress");

    // Fragment invariants at quiescence: sibling index and I1/I2 intact.
    oa.db().doc().check_sibling_index().unwrap();
    oa.db().check_invariants(&master()).unwrap();

    // Serial replay: the same mutation sequence with no concurrent readers
    // must leave the database answering every query byte-identically.
    let mut replay = make_agent(&svc);
    let mut dns2 = AuthoritativeDns::new();
    svc.register_owner(&mut dns2, &IdPath::from_pairs([("usRegion", "NE")]), SiteAddr(1));
    for r in 0..ROUNDS {
        owner_round(&mut replay, &mut dns2, &full, r);
    }
    for (i, q) in QUERIES.iter().enumerate() {
        let stressed = final_answer(&oa, &svc, q, 1000 + i as u64);
        let serial = final_answer(&replay, &svc, q, 2000 + i as u64);
        assert_eq!(stressed, serial, "answer diverged after stress for {q}");
    }
}
