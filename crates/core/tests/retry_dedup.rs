//! Idempotency of the ask bookkeeping under duplicated and retried
//! messages, driven at the agent-message level (the regression net behind
//! the fault-injecting substrates): duplicate subquery deliveries, double
//! subquery-answer deliveries, and timer-driven resends must never
//! double-merge a fragment or corrupt the cache invariants.

use irisdns::{AuthoritativeDns, SiteAddr};
use irisnet_core::{
    CacheMode, Endpoint, IdPath, Message, OaConfig, OrganizingAgent, Outbound,
    RetryPolicy, Service, Status,
};

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
             <neighborhood id="n1">
               <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
             </neighborhood>
             <neighborhood id="n2">
               <block id="1"><parkingSpace id="1"><available>no</available></parkingSpace></block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .unwrap()
}

fn n2() -> IdPath {
    IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "A"),
        ("city", "P"),
        ("neighborhood", "n2"),
    ])
}

const Q_BOTH: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='A']/city[@id='P']\
    /neighborhood[@id='n1' or @id='n2']/block[@id='1']/parkingSpace";

/// Site 1 owns everything but n2 (evicted to a stub); site 2 owns n2.
fn two_agents(retry: RetryPolicy) -> (OrganizingAgent, OrganizingAgent, AuthoritativeDns) {
    let svc = Service::parking();
    let config = OaConfig { retry, ..OaConfig::default() };
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), config.clone());
    oa1.db_mut()
        .bootstrap_owned(&master(), &IdPath::from_pairs([("usRegion", "NE")]), true)
        .unwrap();
    oa1.db_mut().set_status_subtree(&n2(), Status::Complete).unwrap();
    oa1.db_mut().evict(&n2()).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), config);
    oa2.db_mut().bootstrap_owned(&master(), &n2(), true).unwrap();
    let mut dns = AuthoritativeDns::new();
    svc.register_owner(&mut dns, &IdPath::from_pairs([("usRegion", "NE")]), SiteAddr(1));
    svc.register_owner(&mut dns, &n2(), SiteAddr(2));
    (oa1, oa2, dns)
}

/// Extracts the single outbound `SubQuery` from a batch of outputs.
fn the_subquery(outs: &[Outbound]) -> (SiteAddr, u64, String) {
    let subs: Vec<_> = outs
        .iter()
        .filter_map(|o| match o {
            Outbound::Send { to, msg: Message::SubQuery { qid, text, .. } } => {
                Some((*to, *qid, text.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(subs.len(), 1, "expected exactly one subquery, got {outs:?}");
    subs.into_iter().next().unwrap()
}

fn the_subanswer(outs: &[Outbound]) -> (SiteAddr, Message) {
    let answers: Vec<_> = outs
        .iter()
        .filter_map(|o| match o {
            Outbound::Send { to, msg: m @ Message::SubAnswer { .. } } => {
                Some((*to, m.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(answers.len(), 1, "expected exactly one subanswer, got {outs:?}");
    answers.into_iter().next().unwrap()
}

fn the_user_reply(outs: &[Outbound]) -> (String, bool, bool) {
    let replies: Vec<_> = outs
        .iter()
        .filter_map(|o| match o {
            Outbound::ReplyUser { answer_xml, ok, partial, .. } => {
                Some((answer_xml.clone(), *ok, *partial))
            }
            _ => None,
        })
        .collect();
    assert_eq!(replies.len(), 1, "expected exactly one user reply, got {outs:?}");
    replies.into_iter().next().unwrap()
}

fn canon(xml: &str) -> String {
    let doc = sensorxml::parse(xml).expect("answer parses");
    sensorxml::canonical_string(&doc, doc.root().unwrap())
}

#[test]
fn duplicate_subanswer_is_ignored_no_double_merge() {
    let (mut oa1, mut oa2, mut dns) = two_agents(RetryPolicy::disabled());
    let outs = oa1.handle(
        Message::UserQuery { qid: 1, text: Q_BOTH.into(), endpoint: Endpoint(9) },
        &mut dns,
        0.0,
    );
    let (to, sub_qid, text) = the_subquery(&outs);
    assert_eq!(to, SiteAddr(2));

    // Site 2 answers; deliver the answer TWICE (a duplicated message).
    let outs2 = oa2.handle(
        Message::SubQuery { qid: sub_qid, text, reply_to: SiteAddr(1) },
        &mut dns,
        0.1,
    );
    let (back_to, answer) = the_subanswer(&outs2);
    assert_eq!(back_to, SiteAddr(1));

    let outs3 = oa1.handle(answer.clone(), &mut dns, 0.2);
    let (answer_xml, ok, partial) = the_user_reply(&outs3);
    assert!(ok && !partial);
    // Exactly one n2 parking space merged into the final answer.
    assert_eq!(answer_xml.matches("<parkingSpace").count(), 2);

    // The duplicate lands after completion: silently dropped, no output,
    // cache invariants intact.
    let outs4 = oa1.handle(answer, &mut dns, 0.3);
    assert!(outs4.is_empty(), "duplicate produced output: {outs4:?}");
    oa1.db().check_invariants(&master()).unwrap();
    oa2.db().check_invariants(&master()).unwrap();

    // A re-posed identical query sees the cached copy (single merge) and
    // produces the same canonical answer.
    let outs5 = oa1.handle(
        Message::UserQuery { qid: 2, text: Q_BOTH.into(), endpoint: Endpoint(9) },
        &mut dns,
        1.0,
    );
    let (again, ok2, partial2) = the_user_reply(&outs5);
    assert!(ok2 && !partial2);
    assert_eq!(canon(&again), canon(&answer_xml));
}

#[test]
fn duplicate_subquery_is_answered_idempotently() {
    let (mut oa1, mut oa2, mut dns) = two_agents(RetryPolicy::disabled());
    let outs = oa1.handle(
        Message::UserQuery { qid: 1, text: Q_BOTH.into(), endpoint: Endpoint(9) },
        &mut dns,
        0.0,
    );
    let (_, sub_qid, text) = the_subquery(&outs);

    // The same subquery arrives twice at site 2 (duplicate delivery): both
    // copies are answered — subquery evaluation is read-only — and the
    // answers are identical.
    let a1 = oa2.handle(
        Message::SubQuery { qid: sub_qid, text: text.clone(), reply_to: SiteAddr(1) },
        &mut dns,
        0.1,
    );
    let a2 = oa2.handle(
        Message::SubQuery { qid: sub_qid, text, reply_to: SiteAddr(1) },
        &mut dns,
        0.2,
    );
    let (_, m1) = the_subanswer(&a1);
    let (_, m2) = the_subanswer(&a2);
    let (Message::SubAnswer { fragment_xml: f1, .. }, Message::SubAnswer { fragment_xml: f2, .. }) =
        (&m1, &m2)
    else {
        unreachable!()
    };
    assert_eq!(f1, f2);
    oa2.db().check_invariants(&master()).unwrap();
    assert_eq!(oa2.stats.subqueries_handled, 2);

    // Site 1 merges the first answer and finishes; the second is a no-op.
    let outs3 = oa1.handle(m1, &mut dns, 0.3);
    let (answer_xml, ok, partial) = the_user_reply(&outs3);
    assert!(ok && !partial);
    assert_eq!(answer_xml.matches("<parkingSpace").count(), 2);
    let outs4 = oa1.handle(m2, &mut dns, 0.4);
    assert!(outs4.is_empty(), "duplicate subquery answer produced output: {outs4:?}");
    oa1.db().check_invariants(&master()).unwrap();
}

#[test]
fn timer_resend_reuses_sub_qid_and_late_plus_retried_answers_merge_once() {
    let (mut oa1, mut oa2, mut dns) = two_agents(RetryPolicy::bounded(1.0, 3));
    let outs = oa1.handle(
        Message::UserQuery { qid: 1, text: Q_BOTH.into(), endpoint: Endpoint(9) },
        &mut dns,
        0.0,
    );
    let (to, sub_qid, text) = the_subquery(&outs);
    assert_eq!(to, SiteAddr(2));
    assert_eq!(oa1.next_deadline(), Some(1.0));

    // Nothing arrives: ticking before the deadline is a no-op, ticking
    // after it resends the SAME sub-query id to the (re-resolved) owner.
    assert!(oa1.tick(&mut dns, 0.5).is_empty());
    let retried = oa1.tick(&mut dns, 1.5);
    let (to_r, qid_r, text_r) = the_subquery(&retried);
    assert_eq!((to_r, qid_r), (SiteAddr(2), sub_qid));
    assert_eq!(text_r, text);
    assert_eq!(oa1.stats.retries_sent, 1);
    // Backoff doubled: next deadline is 1.5 + 2.0.
    assert_eq!(oa1.next_deadline(), Some(3.5));

    // Both the original (late) and the retried copies get answered.
    let a1 = oa2.handle(
        Message::SubQuery { qid: sub_qid, text: text.clone(), reply_to: SiteAddr(1) },
        &mut dns,
        1.6,
    );
    let a2 = oa2.handle(
        Message::SubQuery { qid: sub_qid, text, reply_to: SiteAddr(1) },
        &mut dns,
        1.7,
    );
    let (_, m1) = the_subanswer(&a1);
    let (_, m2) = the_subanswer(&a2);

    // First answer completes the query and disarms the timer...
    let outs3 = oa1.handle(m1, &mut dns, 2.0);
    let (answer_xml, ok, partial) = the_user_reply(&outs3);
    assert!(ok && !partial);
    assert_eq!(answer_xml.matches("<parkingSpace").count(), 2);
    assert_eq!(oa1.next_deadline(), None);
    // ...the second is ignored, with nothing double-merged.
    let outs4 = oa1.handle(m2, &mut dns, 2.1);
    assert!(outs4.is_empty(), "retried duplicate produced output: {outs4:?}");
    oa1.db().check_invariants(&master()).unwrap();
    assert_eq!(oa1.stats.asks_abandoned, 0);
}

#[test]
fn exhausted_retries_abandon_and_degrade_to_partial() {
    let (mut oa1, _oa2, mut dns) = two_agents(RetryPolicy::bounded(1.0, 2));
    let outs = oa1.handle(
        Message::UserQuery { qid: 1, text: Q_BOTH.into(), endpoint: Endpoint(9) },
        &mut dns,
        0.0,
    );
    the_subquery(&outs);

    // Site 2 never answers. Walk the deadlines until abandonment.
    let mut outs_final = Vec::new();
    let mut guard = 0;
    while let Some(dl) = oa1.next_deadline() {
        guard += 1;
        assert!(guard < 10, "timer never quiesced");
        let outs = oa1.tick(&mut dns, dl + 0.01);
        if !outs.is_empty() && outs.iter().any(|o| matches!(o, Outbound::ReplyUser { .. })) {
            outs_final = outs;
        }
    }
    assert_eq!(oa1.stats.retries_sent, 2);
    assert_eq!(oa1.stats.asks_abandoned, 1);
    assert_eq!(oa1.stats.partial_answers, 1);
    let (answer_xml, ok, partial) = the_user_reply(&outs_final);
    assert!(ok, "partial degradation must still answer: {answer_xml}");
    assert!(partial);
    // The reachable (n1) parking data is present; the n2 stub is stamped
    // partial.
    assert_eq!(answer_xml.matches("<parkingSpace").count(), 1);
    assert!(answer_xml.contains("partial=\"true\""));
    oa1.db().check_invariants(&master()).unwrap();

    // With CacheMode::Aggressive the partial path must NOT have been
    // promoted to a complete cached copy: a later query re-asks.
    let outs = oa1.handle(
        Message::UserQuery { qid: 2, text: Q_BOTH.into(), endpoint: Endpoint(9) },
        &mut dns,
        100.0,
    );
    the_subquery(&outs);
}

#[test]
fn cache_off_retry_bookkeeping_stays_clean() {
    // Ephemeral (scratch-overlay) pendings keep their own ask bookkeeping;
    // duplicates must be inert there too.
    let svc = Service::parking();
    let config = OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(1.0, 2),
        ..OaConfig::default()
    };
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), config.clone());
    oa1.db_mut()
        .bootstrap_owned(&master(), &IdPath::from_pairs([("usRegion", "NE")]), true)
        .unwrap();
    oa1.db_mut().set_status_subtree(&n2(), Status::Complete).unwrap();
    oa1.db_mut().evict(&n2()).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), config);
    oa2.db_mut().bootstrap_owned(&master(), &n2(), true).unwrap();
    let mut dns = AuthoritativeDns::new();
    svc.register_owner(&mut dns, &IdPath::from_pairs([("usRegion", "NE")]), SiteAddr(1));
    svc.register_owner(&mut dns, &n2(), SiteAddr(2));
    let (mut oa1, mut oa2) = (oa1, oa2);

    let outs = oa1.handle(
        Message::UserQuery { qid: 1, text: Q_BOTH.into(), endpoint: Endpoint(9) },
        &mut dns,
        0.0,
    );
    let (_, sub_qid, text) = the_subquery(&outs);
    let a = oa2.handle(
        Message::SubQuery { qid: sub_qid, text, reply_to: SiteAddr(1) },
        &mut dns,
        0.1,
    );
    let (_, m) = the_subanswer(&a);
    let outs2 = oa1.handle(m.clone(), &mut dns, 0.2);
    let (answer_xml, ok, partial) = the_user_reply(&outs2);
    assert!(ok && !partial);
    assert_eq!(answer_xml.matches("<parkingSpace").count(), 2);
    assert!(oa1.handle(m, &mut dns, 0.3).is_empty());
    assert_eq!(oa1.next_deadline(), None);
    // Caching off: nothing about n2 was retained, and invariants hold.
    oa1.db().check_invariants(&master()).unwrap();
}
