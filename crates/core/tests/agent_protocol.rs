//! Protocol-level agent tests: malformed input, late/duplicate answers,
//! iteration caps, forwarding, and statistics bookkeeping.

use irisdns::{AuthoritativeDns, SiteAddr};
use irisnet_core::{
    Endpoint, IdPath, Message, OaConfig, OrganizingAgent, Outbound, QegEngine, Service, Status,
};

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
             <neighborhood id="n1">
               <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .unwrap()
}

fn owner_agent(addr: u32) -> (OrganizingAgent, AuthoritativeDns) {
    owner_agent_with(addr, OaConfig::default())
}

fn owner_agent_with(addr: u32, config: OaConfig) -> (OrganizingAgent, AuthoritativeDns) {
    let svc = Service::parking();
    let oa = OrganizingAgent::new(SiteAddr(addr), svc.clone(), config);
    oa.db_mut()
        .bootstrap_owned(&master(), &IdPath::from_pairs([("usRegion", "NE")]), true)
        .unwrap();
    let mut dns = AuthoritativeDns::new();
    svc.register_owner(&mut dns, &IdPath::from_pairs([("usRegion", "NE")]), SiteAddr(addr));
    (oa, dns)
}

#[test]
fn malformed_user_query_gets_error_reply() {
    let (mut oa, mut dns) = owner_agent(1);
    let out = oa.handle(
        Message::UserQuery { qid: 1, text: "/a[".into(), endpoint: Endpoint(7) },
        &mut dns,
        0.0,
    );
    assert_eq!(out.len(), 1);
    let Outbound::ReplyUser { ok, answer_xml, qid, endpoint, .. } = &out[0] else {
        panic!("expected a reply")
    };
    assert!(!ok);
    assert!(answer_xml.contains("<error>"));
    assert_eq!(*qid, 1);
    assert_eq!(*endpoint, Endpoint(7));
}

#[test]
fn malformed_subquery_gets_empty_answer() {
    let (mut oa, mut dns) = owner_agent(1);
    let out = oa.handle(
        Message::SubQuery { qid: 9, text: "///".into(), reply_to: SiteAddr(2) },
        &mut dns,
        0.0,
    );
    assert_eq!(out.len(), 1);
    let Outbound::Send { to, msg } = &out[0] else { panic!() };
    assert_eq!(*to, SiteAddr(2));
    let Message::SubAnswer { qid, fragment_xml, .. } = msg else { panic!() };
    assert_eq!(*qid, 9);
    assert!(fragment_xml.is_empty());
}

#[test]
fn late_and_duplicate_subanswers_are_ignored() {
    let (mut oa, mut dns) = owner_agent(1);
    // No pending query: a stray answer is dropped silently.
    let out = oa.handle(
        Message::SubAnswer { qid: 4242, fragment_xml: "<usRegion id=\"NE\"/>".into(), partial: false },
        &mut dns,
        0.0,
    );
    assert!(out.is_empty());
    // A corrupt fragment for a stray id is also dropped.
    let out = oa.handle(
        Message::SubAnswer { qid: 4242, fragment_xml: "<broken".into(), partial: false },
        &mut dns,
        0.0,
    );
    assert!(out.is_empty());
}

#[test]
fn missing_data_with_no_dns_entry_answers_with_what_exists() {
    // The agent's fragment references a neighborhood that cannot be
    // resolved (no DNS entry anywhere below the root, and the root is us):
    // the ask is dropped and the query answers from available data.
    let svc = Service::parking();
    let mut oa = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
    let m = sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
             <neighborhood id="n1">
               <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
             </neighborhood>
             <neighborhood id="n2">
               <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .unwrap();
    oa.db_mut().bootstrap_owned(&m, &IdPath::from_pairs([("usRegion", "NE")]), true).unwrap();
    // n2 is evicted and its owner is unknown to DNS.
    let n2 = IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "A"),
        ("city", "P"),
        ("neighborhood", "n2"),
    ]);
    oa.db_mut().set_status_subtree(&n2, Status::Complete).unwrap();
    oa.db_mut().evict(&n2).unwrap();
    let mut dns = AuthoritativeDns::new();
    svc.register_owner(&mut dns, &IdPath::from_pairs([("usRegion", "NE")]), SiteAddr(1));

    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
             /neighborhood/block[@id='1']/parkingSpace";
    let out = oa.handle(
        Message::UserQuery { qid: 1, text: q.into(), endpoint: Endpoint(1) },
        &mut dns,
        0.0,
    );
    // The unresolvable name resolves back to ourselves via the root record
    // (self-send guard) → dropped → partial answer.
    assert_eq!(out.len(), 1);
    let Outbound::ReplyUser { ok, answer_xml, .. } = &out[0] else { panic!() };
    assert!(ok);
    assert_eq!(answer_xml.matches("<parkingSpace").count(), 1);
    assert!(oa.stats.dropped_asks >= 1);
}

#[test]
fn stats_track_phases_and_counts() {
    // The XSLT engines create a program per pass; the native walk creates
    // nothing, so its create phase stays exactly zero.
    for engine in [QegEngine::XsltFast, QegEngine::XsltNaive, QegEngine::Native] {
        let (mut oa, mut dns) = owner_agent_with(1, OaConfig { engine, ..OaConfig::default() });
        let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
                 /neighborhood[@id='n1']/block[@id='1']/parkingSpace";
        for i in 0..5 {
            let out = oa.handle(
                Message::UserQuery { qid: i, text: q.into(), endpoint: Endpoint(1) },
                &mut dns,
                i as f64,
            );
            assert_eq!(out.len(), 1);
        }
        assert_eq!(oa.stats.user_queries, 5);
        assert_eq!(oa.stats.answers_sent, 5);
        assert_eq!(oa.stats.answered_locally, 5);
        assert_eq!(oa.stats.time_create_xslt > 0.0, engine != QegEngine::Native, "{engine:?}");
        assert!(oa.stats.time_exec_xslt > 0.0);
        assert!(oa.stats.time_extract > 0.0);
        assert_eq!(oa.qeg().created() > 0, engine != QegEngine::Native, "{engine:?}");
    }
}

#[test]
fn subquery_answer_is_a_mergeable_fragment() {
    let (mut oa, mut dns) = owner_agent(1);
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
             /neighborhood[@id='n1']/block[@id='1']/parkingSpace";
    let out = oa.handle(
        Message::SubQuery { qid: 3, text: q.into(), reply_to: SiteAddr(2) },
        &mut dns,
        0.0,
    );
    let Outbound::Send { msg: Message::SubAnswer { fragment_xml, .. }, .. } = &out[0] else {
        panic!()
    };
    // The wire fragment merges cleanly into an empty cache and satisfies
    // the invariants.
    let frag = sensorxml::parse(fragment_xml).unwrap();
    let mut cache = irisnet_core::SiteDatabase::new(Service::parking());
    cache.merge_fragment(&frag).unwrap();
    cache.check_invariants(&master()).unwrap();
    // Subsumption coalescing shipped the whole block as one complete unit.
    let block = IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "A"),
        ("city", "P"),
        ("neighborhood", "n1"),
        ("block", "1"),
    ]);
    assert_eq!(cache.status_at(&block), Some(Status::Complete));
}

#[test]
fn updates_to_unknown_nodes_are_dropped() {
    let (mut oa, mut dns) = owner_agent(1);
    let bogus = IdPath::from_pairs([("usRegion", "NE"), ("state", "XX")]);
    let out = oa.handle(
        Message::Update { path: bogus, fields: vec![("x".into(), "1".into())] },
        &mut dns,
        0.0,
    );
    assert!(out.is_empty());
    assert_eq!(oa.stats.updates_applied, 0);
}

#[test]
fn delegate_to_self_is_a_no_op() {
    let (mut oa, mut dns) = owner_agent(1);
    let block = IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "A"),
        ("city", "P"),
        ("neighborhood", "n1"),
        ("block", "1"),
    ]);
    let out = oa.handle(
        Message::Delegate { path: block.clone(), to: SiteAddr(1) },
        &mut dns,
        0.0,
    );
    assert!(out.is_empty());
    assert_eq!(oa.db().status_at(&block), Some(Status::Owned));
}
