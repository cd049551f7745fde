//! Schema evolution end to end (§4 "Schema changes"): local changes at the
//! owner, transient inconsistency at caches, convergence through normal
//! refresh — plus DNS cleanup when IDable subtrees disappear.

use irisdns::{AuthoritativeDns, SiteAddr};
use irisnet_core::{
    Endpoint, IdPath, Message, OaConfig, OrganizingAgent, Outbound, Service, Status,
};

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
             <neighborhood id="n1">
               <block id="1">
                 <parkingSpace id="1"><available>yes</available></parkingSpace>
               </block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .unwrap()
}

fn block() -> IdPath {
    IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "A"),
        ("city", "P"),
        ("neighborhood", "n1"),
        ("block", "1"),
    ])
}

/// Owner on site 1, cache on site 2 (warmed via a real exchange).
fn setup() -> (OrganizingAgent, OrganizingAgent, AuthoritativeDns) {
    let svc = Service::parking();
    let owner = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
    owner
        .db_mut()
        .bootstrap_owned(&master(), &IdPath::from_pairs([("usRegion", "NE")]), true)
        .unwrap();
    let cache = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
    // Site 2 starts as a cache replica of the root's local ID information
    // (a legitimate C1/C2 cache copy), so queries posed there can walk the
    // hierarchy and gather.
    cache
        .db_mut()
        .bootstrap_cached(&master(), &IdPath::from_pairs([("usRegion", "NE")]), false)
        .unwrap();
    let mut dns = AuthoritativeDns::new();
    svc.register_owner(&mut dns, &IdPath::from_pairs([("usRegion", "NE")]), SiteAddr(1));
    (owner, cache, dns)
}

fn pump(
    owner: &mut OrganizingAgent,
    cache: &mut OrganizingAgent,
    dns: &mut AuthoritativeDns,
    entry: SiteAddr,
    text: &str,
    now: f64,
) -> String {
    let mut inbox = vec![(
        entry,
        Message::UserQuery { qid: 1, text: text.to_string(), endpoint: Endpoint(0) },
    )];
    let mut answer = None;
    while let Some((to, msg)) = inbox.pop() {
        let agent = if to == SiteAddr(1) { &mut *owner } else { &mut *cache };
        for o in agent.handle(msg, dns, now) {
            match o {
                Outbound::Send { to, msg } => inbox.push((to, msg)),
                Outbound::ReplyUser { answer_xml, ok, .. } => {
                    assert!(ok, "query failed: {answer_xml}");
                    answer = Some(answer_xml);
                }
            }
        }
    }
    answer.expect("an answer was produced")
}

const Q: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
    /neighborhood[@id='n1']/block[@id='1']/parkingSpace";

#[test]
fn new_idable_node_reaches_stale_caches_via_freshness() {
    let (mut owner, mut cache, mut dns) = setup();
    // Warm the cache at t=0: the block (one space) is cached at site 2.
    // Site 2 owns nothing; route the query there explicitly.
    let a0 = pump(&mut owner, &mut cache, &mut dns, SiteAddr(2), Q, 0.0);
    assert_eq!(a0.matches("<parkingSpace").count(), 1);
    assert_eq!(cache.db().status_at(&block()), Some(Status::Complete));

    // The owner grows a new space (§4: addition of IDable nodes is done by
    // the owner of the parent).
    owner
        .db_mut()
        .schema_add_idable_child(&block(), "parkingSpace", "2", 10.0)
        .unwrap();
    owner
        .db_mut()
        .apply_update(
            &block().child("parkingSpace", "2"),
            &[("available".into(), "no".into())],
            10.0,
        )
        .unwrap();

    // The cache is now transiently inconsistent: a plain query against it
    // still answers with one space (the paper accepts this).
    let a1 = pump(&mut owner, &mut cache, &mut dns, SiteAddr(2), Q, 11.0);
    assert_eq!(a1.matches("<parkingSpace").count(), 1);

    // A freshness-bounded query forces the refresh and converges.
    let strict = format!("{Q}[@timestamp > now() - 5]");
    let a2 = pump(&mut owner, &mut cache, &mut dns, SiteAddr(2), &strict, 12.0);
    assert_eq!(a2.matches("<parkingSpace").count(), 2, "answer: {a2}");
    // And the cache itself has converged for subsequent plain queries.
    let a3 = pump(&mut owner, &mut cache, &mut dns, SiteAddr(2), Q, 13.0);
    assert_eq!(a3.matches("<parkingSpace").count(), 2);
}

#[test]
fn removed_idable_node_disappears_after_refresh() {
    let (mut owner, mut cache, mut dns) = setup();
    let a0 = pump(&mut owner, &mut cache, &mut dns, SiteAddr(2), Q, 0.0);
    assert_eq!(a0.matches("<parkingSpace").count(), 1);

    owner
        .db_mut()
        .schema_remove_idable_child(&block(), "parkingSpace", "1", 15.0)
        .unwrap();
    // DNS cleanup for the removed subtree (no-op here because spaces have
    // no dedicated records, but the API is exercised end to end).
    let name = owner.service.dns_name(&block().child("parkingSpace", "1"));
    dns.remove_subtree(&name);

    let strict = format!("{Q}[@timestamp > now() - 5]");
    let a1 = pump(&mut owner, &mut cache, &mut dns, SiteAddr(2), &strict, 20.0);
    assert_eq!(a1.matches("<parkingSpace").count(), 0, "answer: {a1}");
}

#[test]
fn added_attribute_is_immediately_queryable_at_owner() {
    let (mut owner, mut cache, mut dns) = setup();
    let nbhd = block().parent().unwrap();
    owner
        .db_mut()
        .schema_add_attribute(&nbhd, "numberOfFreeSpots", "7", 5.0)
        .unwrap();
    // The §2 motivating query: neighborhoods with free spots.
    let q = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
             /neighborhood[@id='n1'][@numberOfFreeSpots > 0]/block[@id='1']/parkingSpace";
    let a = pump(&mut owner, &mut cache, &mut dns, SiteAddr(1), q, 6.0);
    assert_eq!(a.matches("<parkingSpace").count(), 1);
    // With the attribute failing the predicate, the answer is empty.
    owner
        .db_mut()
        .schema_add_attribute(&nbhd, "numberOfFreeSpots", "0", 7.0)
        .unwrap();
    let a2 = pump(&mut owner, &mut cache, &mut dns, SiteAddr(1), q, 8.0);
    assert_eq!(a2.matches("<parkingSpace").count(), 0);
}
