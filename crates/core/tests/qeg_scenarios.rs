//! Wider QEG scenarios: wildcard and descendant distribution steps,
//! unsplittable predicates, deeper nesting, the root-gather fallback for
//! non-path queries, and multi-hop gathering chains — all driven through
//! raw agents so every message is visible.

use std::sync::Arc;

use irisdns::{AuthoritativeDns, SiteAddr};
use irisnet_core::qeg::{generalized_subquery, matched_final_paths, plan_query, AskKind, QegFactory, StepKind};
use irisnet_core::{
    Endpoint, IdPath, Message, OaConfig, OrganizingAgent, Outbound, Service, SiteDatabase,
    QegEngine, Status,
};

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A">
             <city id="P">
               <neighborhood id="n1">
                 <block id="1">
                   <parkingSpace id="1"><available>yes</available><price>0</price></parkingSpace>
                   <parkingSpace id="2"><available>no</available><price>25</price></parkingSpace>
                 </block>
                 <block id="2">
                   <parkingSpace id="1"><available>yes</available><price>50</price></parkingSpace>
                 </block>
               </neighborhood>
               <neighborhood id="n2">
                 <block id="1">
                   <parkingSpace id="1"><available>yes</available><price>0</price></parkingSpace>
                 </block>
               </neighborhood>
             </city>
             <city id="Q">
               <neighborhood id="n1">
                 <block id="1">
                   <parkingSpace id="1"><available>no</available><price>0</price></parkingSpace>
                 </block>
               </neighborhood>
             </city>
           </county></state></usRegion>"#,
    )
    .unwrap()
}

fn service() -> Arc<Service> {
    Service::parking()
}

fn root() -> IdPath {
    IdPath::from_pairs([("usRegion", "NE")])
}

/// A two-site world: site 1 owns everything except city Q, site 2 owns Q.
fn split_world() -> (OrganizingAgent, OrganizingAgent, AuthoritativeDns) {
    let m = master();
    let svc = service();
    let q_city = root().child("state", "PA").child("county", "A").child("city", "Q");
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
    oa1.db_mut().bootstrap_owned(&m, &root(), true).unwrap();
    oa1.db_mut().set_status_subtree(&q_city, Status::Complete).unwrap();
    oa1.db_mut().evict(&q_city).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
    oa2.db_mut().bootstrap_owned(&m, &q_city, true).unwrap();
    let mut dns = AuthoritativeDns::new();
    svc.register_owner(&mut dns, &root(), SiteAddr(1));
    svc.register_owner(&mut dns, &q_city, SiteAddr(2));
    (oa1, oa2, dns)
}

/// Pumps messages between the two agents until quiescent; returns the
/// user answers produced.
fn pump(
    oa1: &mut OrganizingAgent,
    oa2: &mut OrganizingAgent,
    dns: &mut AuthoritativeDns,
    initial: Vec<(SiteAddr, Message)>,
) -> Vec<(bool, String)> {
    let mut answers = Vec::new();
    let mut inbox = initial;
    let mut steps = 0;
    while let Some((to, msg)) = inbox.pop() {
        steps += 1;
        assert!(steps < 10_000, "message storm");
        let agent = if to == SiteAddr(1) { &mut *oa1 } else { &mut *oa2 };
        for o in agent.handle(msg, dns, 0.0) {
            match o {
                Outbound::Send { to, msg } => inbox.push((to, msg)),
                Outbound::ReplyUser { answer_xml, ok, .. } => answers.push((ok, answer_xml)),
            }
        }
    }
    answers
}

fn ask_query(
    oa1: &mut OrganizingAgent,
    oa2: &mut OrganizingAgent,
    dns: &mut AuthoritativeDns,
    entry: SiteAddr,
    text: &str,
) -> String {
    let answers = pump(
        oa1,
        oa2,
        dns,
        vec![(
            entry,
            Message::UserQuery { qid: 1, text: text.to_string(), endpoint: Endpoint(1) },
        )],
    );
    assert_eq!(answers.len(), 1, "exactly one answer for {text}");
    assert!(answers[0].0, "query failed: {}", answers[0].1);
    answers[0].1.clone()
}

#[test]
fn wildcard_city_step_gathers_both_cities() {
    let (mut oa1, mut oa2, mut dns) = split_world();
    // `*` at the city level: must gather Q from site 2.
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/*\
             /neighborhood[@id='n1']/block[@id='1']/parkingSpace[price='0']";
    let a = ask_query(&mut oa1, &mut oa2, &mut dns, SiteAddr(1), q);
    // P/n1/b1/sp1 (price 0, yes) and Q/n1/b1/sp1 (price 0, no).
    assert_eq!(a.matches("<parkingSpace").count(), 2);
    assert!(oa1.stats.subqueries_sent >= 1);
}

#[test]
fn descendant_query_spans_sites() {
    let (mut oa1, mut oa2, mut dns) = split_world();
    let q = "/usRegion[@id='NE']//parkingSpace[available='yes']";
    let a = ask_query(&mut oa1, &mut oa2, &mut dns, SiteAddr(1), q);
    assert_eq!(a.matches("<parkingSpace").count(), 3);
    // And repeating it is answered locally from cache.
    let before = oa1.stats.subqueries_sent;
    let a2 = ask_query(&mut oa1, &mut oa2, &mut dns, SiteAddr(1), q);
    assert_eq!(a2.matches("<parkingSpace").count(), 3);
    assert_eq!(oa1.stats.subqueries_sent, before);
}

#[test]
fn unsplittable_predicate_falls_back_to_subquery() {
    let (mut oa1, mut oa2, mut dns) = split_world();
    // `@id='Q' or price='x'` mixes id and data references: P_id cannot be
    // split out, so the QEG must conservatively gather city Q.
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']\
             /city[@id='Q' or @zipcode='99999']/neighborhood[@id='n1']\
             /block[@id='1']/parkingSpace";
    let a = ask_query(&mut oa1, &mut oa2, &mut dns, SiteAddr(1), q);
    assert_eq!(a.matches("<parkingSpace").count(), 1);
    assert!(oa1.stats.subqueries_sent >= 1);
}

#[test]
fn nesting_depth_one_fetches_subtree_across_sites() {
    let (mut oa1, mut oa2, mut dns) = split_world();
    // Cheapest space in city Q's block — the nested predicate needs the
    // whole block locally, which lives on site 2.
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='Q']\
             /neighborhood[@id='n1']/block[@id='1']\
             /parkingSpace[not(price > ../parkingSpace/price)]";
    let e = sensorxpath::parse(q).unwrap();
    let plan = plan_query(&e, &service()).unwrap();
    assert_eq!(plan.nesting_depth, 1);
    assert!(plan.fetch_subtree_at.is_some());
    let a = ask_query(&mut oa1, &mut oa2, &mut dns, SiteAddr(1), q);
    assert_eq!(a.matches("<parkingSpace").count(), 1);
}

#[test]
fn nesting_depth_two_plans_and_answers() {
    let svc = service();
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']\
             /city[count(./neighborhood[./block[@id='1']]) > 0]\
             /neighborhood[@id='n1']/block[@id='1']/parkingSpace";
    let e = sensorxpath::parse(q).unwrap();
    let plan = plan_query(&e, &svc).unwrap();
    assert_eq!(plan.nesting_depth, 2);
    let (mut oa1, mut oa2, mut dns) = split_world();
    let a = ask_query(&mut oa1, &mut oa2, &mut dns, SiteAddr(1), q);
    // Both cities have neighborhood n1 with block 1: P has 2 spaces in
    // block 1 of n1, Q has 1.
    assert_eq!(a.matches("<parkingSpace").count(), 3);
}

#[test]
fn count_query_uses_root_gather_fallback() {
    let (mut oa1, mut oa2, mut dns) = split_world();
    let q = "count(//parkingSpace[price='0'])";
    let a = ask_query(&mut oa1, &mut oa2, &mut dns, SiteAddr(1), q);
    assert_eq!(a, "<result><value>3</value></result>");
}

#[test]
fn suffix_steps_select_within_local_information() {
    let (mut oa1, mut oa2, mut dns) = split_world();
    // `available` is not IDable: it is a suffix step served from the
    // gathered local information.
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='Q']\
             /neighborhood[@id='n1']/block[@id='1']/parkingSpace/available";
    let a = ask_query(&mut oa1, &mut oa2, &mut dns, SiteAddr(1), q);
    assert_eq!(a, "<result><available>no</available></result>");
}

#[test]
fn entry_at_remote_site_works_too() {
    // Posing the query at site 2 (which owns only city Q) for city P data
    // must gather in the other direction.
    let (mut oa1, mut oa2, mut dns) = split_world();
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
             /neighborhood[@id='n2']/block[@id='1']/parkingSpace";
    let a = ask_query(&mut oa1, &mut oa2, &mut dns, SiteAddr(2), q);
    assert_eq!(a.matches("<parkingSpace").count(), 1);
    assert!(oa2.stats.subqueries_sent >= 1);
}

#[test]
fn generalized_subqueries_strip_value_predicates() {
    let svc = service();
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
             /neighborhood[@id='n1' or @id='n2'][zipcode='15213']\
             /block[@id='1']/parkingSpace[available='yes'][price='0']";
    let e = sensorxpath::parse(q).unwrap();
    let plan = plan_query(&e, &svc).unwrap();
    let ask = irisnet_core::qeg::Ask {
        path: IdPath::from_pairs([
            ("usRegion", "NE"),
            ("state", "PA"),
            ("county", "A"),
            ("city", "P"),
            ("neighborhood", "n2"),
        ]),
        kind: AskKind::Query,
        step: 5,
    };
    let sub = generalized_subquery(&plan, &ask);
    assert!(sub.contains("block[@id = '1']"));
    assert!(sub.ends_with("/parkingSpace"), "got {sub}");
    assert!(!sub.contains("available"), "value predicates must be stripped: {sub}");
    assert!(!sub.contains("price"), "value predicates must be stripped: {sub}");
}

#[test]
fn plan_classifies_step_kinds() {
    let svc = service();
    let e = sensorxpath::parse(
        "/usRegion[@id='NE']/*[@id='PA']//block[@id='1']/parkingSpace",
    )
    .unwrap();
    let plan = plan_query(&e, &svc).unwrap();
    let kinds: Vec<&StepKind> = plan.dist_steps.iter().map(|s| &s.kind).collect();
    assert!(matches!(kinds[0], StepKind::Tag(t) if t == "usRegion"));
    assert!(matches!(kinds[1], StepKind::Wildcard));
    assert!(matches!(kinds[2], StepKind::Descendant));
    assert!(matches!(kinds[3], StepKind::Tag(t) if t == "block"));
}

#[test]
fn matched_paths_respect_distribution_prefix_only() {
    let m = master();
    let svc = service();
    let mut db = SiteDatabase::new(svc.clone());
    db.bootstrap_owned(&m, &root(), true).unwrap();
    // Suffix (`/available`) must not affect which final-step nodes match.
    let e = sensorxpath::parse(
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
         /neighborhood[@id='n1']/block[@id='1']/parkingSpace/available",
    )
    .unwrap();
    let plan = plan_query(&e, &svc).unwrap();
    assert_eq!(plan.suffix_len, 1);
    let matched = matched_final_paths(&plan, &db, 0.0).unwrap();
    assert_eq!(matched.len(), 2); // both spaces of P/n1/b1
    assert!(matched.iter().all(|p| p.last().unwrap().0 == "parkingSpace"));
}

#[test]
fn qeg_factory_shapes_do_not_collide_across_queries() {
    let svc = service();
    let f = QegFactory::new(svc.clone(), QegEngine::XsltFast);
    let queries = [
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']",
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']/neighborhood[@id='n1']",
        "/usRegion[@id='NE']//parkingSpace",
        "/usRegion[@id='NE']/*/county[@id='A']",
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']/neighborhood[zipcode='1']",
    ];
    let m = master();
    let mut db = SiteDatabase::new(svc.clone());
    db.bootstrap_owned(&m, &root(), true).unwrap();
    for q in queries {
        let e = sensorxpath::parse(q).unwrap();
        let plan = plan_query(&e, &svc).unwrap();
        let prog = f.create(&plan).unwrap();
        // All programs run cleanly on the full fragment (no asks).
        let out = prog.execute(&db, 0.0).unwrap();
        assert!(out.is_complete(), "asks for {q}: {:?}", out.asks);
    }
    // Re-creating the same queries hits the skeleton cache each time.
    let before = f.skeleton_hits();
    for q in queries {
        let e = sensorxpath::parse(q).unwrap();
        let plan = plan_query(&e, &svc).unwrap();
        f.create(&plan).unwrap();
    }
    assert_eq!(f.skeleton_hits(), before + queries.len() as u64);
}
