//! Telemetry must be an observer, not a participant.
//!
//! Two oracles:
//!
//! * **No-perturbation**: a DES run with the full telemetry plane attached
//!   (windows, flight recorder, health FSM) must produce byte-identical
//!   canonical answers AND byte-identical trace-structure digests to the
//!   same run with a plain span recorder. Sampling happens at quiescent
//!   points and scrape handling records no spans, so the event stream
//!   cannot shift by even one message.
//!
//! * **Capture**: a chaos scenario that degrades a query to
//!   `partial="true"` must land its complete span tree in the flight
//!   recorder — retrievable via a remote scrape on both runtimes (DES
//!   virtual time, sharded event loops over the wire) — and the dead site
//!   must read `unreachable` in the health FSM.

use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{
    CacheMode, Endpoint, Message, OaConfig, OrganizingAgent, RetryPolicy, Status,
};
use irisobs::{
    check_well_formed, parse_payload, structure_digest, HealthState, MemRecorder,
    Recorder, SpanKind, TelemetryConfig, TelemetryRecorder, WHAT_ALL, WHAT_HEALTH,
};
use simnet::{CostModel, DesCluster, ShardConfig, ShardedCluster};
use std::sync::Arc;

fn params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 2,
        spaces_per_block: 2,
    }
}

/// Caching off and a tight retry budget: cross-site queries always re-ask
/// the remote owner, and asks to a dead site abandon after one resend into
/// a partial answer instead of hanging.
fn config() -> OaConfig {
    OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.25, 1),
        ..OaConfig::default()
    }
}

/// Site 1 owns the region except neighborhood (0,1), owned by site 2.
fn make_agents(db: &ParkingDb, cfg: OaConfig) -> (OrganizingAgent, OrganizingAgent) {
    let svc = db.service.clone();
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), cfg.clone());
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    let carved = db.neighborhood_path(0, 1);
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), cfg);
    oa2.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
    (oa1, oa2)
}

fn canon(xml: &str) -> String {
    let doc = sensorxml::parse(xml).expect("answer parses");
    sensorxml::canonical_string(&doc, doc.root().unwrap())
}

/// A deterministic t1/t3 mix crossing the site-1 ↔ site-2 boundary.
fn query_mix(db: &ParkingDb) -> Vec<String> {
    let mut t1 = Workload::uniform(db, QueryType::T1, 7);
    let mut t3 = Workload::uniform(db, QueryType::T3, 11);
    (0..6)
        .map(|i| if i % 2 == 0 { t3.next_query() } else { t1.next_query() })
        .collect()
}

/// One DES run of the mix under `rec`; canonical replies per endpoint.
fn des_run(db: &ParkingDb, rec: Arc<dyn Recorder>) -> Vec<(u64, String, bool, bool)> {
    let mut sim = DesCluster::new(CostModel::default());
    sim.set_recorder(rec);
    let (oa1, oa2) = make_agents(db, OaConfig::default());
    let svc = db.service.clone();
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    svc.register_owner(&mut sim.dns, &db.neighborhood_path(0, 1), SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);
    let queries = query_mix(db);
    for (i, q) in queries.iter().enumerate() {
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
    sim.run_until(queries.len() as f64 * 50.0 + 300.0);
    let mut replies = sim.take_unclaimed_detailed();
    replies.sort_by_key(|r| r.endpoint.0);
    replies
        .into_iter()
        .map(|r| (r.endpoint.0, canon(&r.answer_xml), r.ok, r.partial))
        .collect()
}

/// The no-perturbation oracle: telemetry on vs. off, same DES workload.
#[test]
fn telemetry_does_not_perturb_answers_or_trace_shapes() {
    let db = ParkingDb::generate(params(), 42);

    let plain = MemRecorder::new();
    let baseline = des_run(&db, plain.clone());
    assert_eq!(baseline.len(), 6, "baseline run dropped replies");

    let tel = TelemetryRecorder::with_config(TelemetryConfig {
        keep_spans: true,
        ..TelemetryConfig::default()
    });
    let observed = des_run(&db, tel.clone());
    assert_eq!(observed, baseline, "telemetry changed an answer byte");

    // Same spans, same shapes: digest every query tree on both sides.
    let base_forest = check_well_formed(&plain.take_spans()).expect("baseline forest");
    let tel_forest = check_well_formed(&tel.spans()).expect("telemetry forest");
    assert_eq!(base_forest.queries.len(), tel_forest.queries.len());
    for (i, (b, t)) in base_forest
        .queries
        .iter()
        .zip(tel_forest.queries.iter())
        .enumerate()
    {
        assert_eq!(
            structure_digest(b),
            structure_digest(t),
            "query {i}: telemetry perturbed the trace shape"
        );
    }

    // Non-vacuity: the plane actually sampled windows while observing.
    let delta = tel.plane().window_delta(1);
    let uq = delta
        .counters
        .get(&(1, "oa.user_queries".to_string()))
        .expect("windowed user-query series missing");
    assert_eq!(uq.total, 6, "sampling missed user queries");
    assert_eq!(uq.evicted + uq.windowed(), uq.total, "conservation law broke");
}

/// Asserts the scrape payload carries a flight-recorded `partial` trace
/// whose span tree includes the degraded finalize, and names the runtime
/// in failures.
fn assert_partial_trace(payload: &str, runtime: &str) {
    let parsed = parse_payload(payload)
        .unwrap_or_else(|e| panic!("{runtime}: scrape payload malformed: {e}\n{payload}"));
    assert!(parsed.enabled, "{runtime}: telemetry reported disabled");
    let trace = parsed
        .traces
        .iter()
        .find(|t| t.trigger.contains("partial"))
        .unwrap_or_else(|| {
            panic!(
                "{runtime}: no partial-triggered trace in flight dump \
                 (traces: {:?})",
                parsed.traces.iter().map(|t| &t.trigger).collect::<Vec<_>>()
            )
        });
    assert_eq!(trace.root_site, 1, "{runtime}: trace rooted at the wrong site");
    assert!(
        trace.spans.iter().any(|s| s.kind == SpanKind::Finalize && s.partial),
        "{runtime}: trace lacks the degraded finalize span"
    );
    assert!(
        trace.spans.iter().any(|s| s.kind == SpanKind::Ask),
        "{runtime}: trace lacks the ask that went unanswered"
    );
}

/// DES: kill site 2 mid-run, degrade a query, scrape site 1 over the
/// simulated network.
#[test]
fn des_flight_recorder_captures_partial_query_via_scrape() {
    let db = ParkingDb::generate(params(), 42);
    let tel = TelemetryRecorder::new();
    let mut sim = DesCluster::new(CostModel::default());
    sim.set_recorder(tel.clone());
    let (oa1, oa2) = make_agents(&db, config());
    let svc = db.service.clone();
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    svc.register_owner(&mut sim.dns, &db.neighborhood_path(0, 1), SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);

    let q = Workload::uniform(&db, QueryType::T3, 11).next_query();
    // Query 1 with both sites up: exact.
    sim.schedule_message(
        10.0,
        SiteAddr(1),
        Message::UserQuery { qid: 1, text: q.clone(), endpoint: Endpoint(10_000) },
    );
    sim.run_until(40.0);
    // Site 2 dies; query 2 abandons its ask and degrades.
    drop(sim.remove_site(SiteAddr(2)).expect("site 2 present"));
    sim.schedule_message(
        50.0,
        SiteAddr(1),
        Message::UserQuery { qid: 2, text: q, endpoint: Endpoint(10_001) },
    );
    sim.run_until(120.0);

    let mut replies = sim.take_unclaimed_detailed();
    replies.sort_by_key(|r| r.endpoint.0);
    assert_eq!(replies.len(), 2, "a query hung");
    assert!(replies[0].ok && !replies[0].partial, "warm query degraded");
    assert!(replies[1].partial, "dead site did not degrade the answer");

    let payload = sim.scrape(SiteAddr(1), WHAT_ALL).expect("DES scrape timed out");
    assert_partial_trace(&payload, "des");
    assert_eq!(
        tel.plane().health(2),
        HealthState::Unreachable,
        "removed site not marked unreachable"
    );
    // A scrape of the dead site never answers.
    assert!(sim.scrape(SiteAddr(2), WHAT_HEALTH).is_none());
}

/// Sharded: same scenario on real threads; the scrape request and reply
/// frames cross the wire codec. Also exercises the site-to-site reply mode
/// (`reply_to != 0`).
#[test]
fn sharded_flight_recorder_captures_partial_query_via_scrape() {
    let db = ParkingDb::generate(params(), 42);
    let tel = TelemetryRecorder::new();
    let mut cluster = ShardedCluster::with_config(
        db.service.clone(),
        ShardConfig { shards: 2, workers_per_shard: 1, force_wire: true },
    );
    cluster.set_recorder(tel.clone());
    let (oa1, oa2) = make_agents(&db, config());
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.register_owner(&db.neighborhood_path(0, 1), SiteAddr(2));
    cluster.add_site(oa1);
    cluster.add_site(oa2);
    cluster.start();

    let q = Workload::uniform(&db, QueryType::T3, 11).next_query();
    let warm = cluster.pose_query_at(&q, SiteAddr(1), Duration::from_secs(10)).unwrap();
    assert!(warm.ok && !warm.partial, "warm query degraded: {}", warm.answer_xml);

    // Site-to-site mode while both sites are up: site 2's payload lands in
    // site 1's telemetry inbox, drained from the agent after shutdown. The
    // request is queued on site 2's shard ahead of the detach below.
    cluster.send(
        SiteAddr(2),
        Message::TelemetryRequest {
            qid: 900,
            reply_to: SiteAddr(1),
            endpoint: Endpoint(0),
            what: WHAT_HEALTH,
        },
    );

    drop(cluster.stop_site(SiteAddr(2)).expect("site 2 running"));
    let degraded =
        cluster.pose_query_at(&q, SiteAddr(1), Duration::from_secs(20)).unwrap();
    assert!(degraded.partial, "dead site did not degrade: {}", degraded.answer_xml);

    let client = cluster.client();
    let payload = client
        .scrape_site(SiteAddr(1), WHAT_ALL, Duration::from_secs(10))
        .expect("sharded scrape timed out");
    assert_partial_trace(&payload, "sharded");
    assert_eq!(tel.plane().health(2), HealthState::Unreachable);
    assert!(client
        .scrape_site(SiteAddr(2), WHAT_HEALTH, Duration::from_secs(2))
        .is_none());

    let mut agents = cluster.shutdown();
    let oa1 = agents
        .iter_mut()
        .find(|a| a.addr == SiteAddr(1))
        .expect("site 1 agent returned");
    let inbox = oa1.take_telemetry_replies();
    assert_eq!(inbox.len(), 1, "site-to-site telemetry reply never arrived");
    assert_eq!(inbox[0].0, 900);
    let peer = parse_payload(&inbox[0].1).expect("inbox payload parses");
    assert_eq!(peer.site, 2, "inbox payload describes the wrong site");
}
