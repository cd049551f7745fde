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

#[path = "support/cluster.rs"]
mod cluster;

use std::sync::Arc;

use cluster::{boot, carve, flagged, mix, parking_db, sharded, t3, Runtime, DES};
use irisdns::SiteAddr;
use irisnet_core::{CacheMode, Endpoint, Message, OaConfig, RetryPolicy};
use irisobs::{
    check_well_formed, parse_payload, structure_digest, HealthState, MemRecorder, Recorder,
    SpanKind, TelemetryConfig, TelemetryRecorder, WHAT_ALL, WHAT_HEALTH,
};
use simnet::Target;

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

/// The DES run of a six-query t1/t3 mix at site 1, observed by `rec`:
/// `(canonical answer, ok, partial)` per query.
fn observed(rec: Arc<dyn Recorder>) -> Vec<(String, bool, bool)> {
    let db = parking_db(2);
    let sites = carve(&db, OaConfig::default(), OaConfig::default());
    let mut cluster = boot(DES, &db, sites, Some(rec));
    let replies = cluster.pose_each(Target::Site(SiteAddr(1)), &mix(&db, 6, 2));
    cluster.finish();
    flagged(&replies)
}

/// The no-perturbation oracle: telemetry on vs. off, same DES workload.
#[test]
fn telemetry_does_not_perturb_answers_or_trace_shapes() {
    let plain = MemRecorder::new();
    let baseline = observed(plain.clone());
    assert_eq!(baseline.len(), 6, "baseline run dropped replies");

    let tel = TelemetryRecorder::with_config(TelemetryConfig {
        keep_spans: true,
        ..TelemetryConfig::default()
    });
    assert_eq!(
        observed(tel.clone()),
        baseline,
        "telemetry changed an answer byte"
    );

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
    assert_eq!(
        uq.evicted + uq.windowed(),
        uq.total,
        "conservation law broke"
    );
}

/// Asserts the scrape payload carries a flight-recorded `partial` trace
/// whose span tree includes the degraded finalize, and names the runtime
/// in failures.
fn assert_partial_trace(payload: &str, rt: Runtime) {
    let parsed = parse_payload(payload)
        .unwrap_or_else(|e| panic!("{rt:?}: scrape payload malformed: {e}\n{payload}"));
    assert!(parsed.enabled, "{rt:?}: telemetry reported disabled");
    let trace = parsed
        .traces
        .iter()
        .find(|t| t.trigger.contains("partial"))
        .unwrap_or_else(|| {
            panic!(
                "{rt:?}: no partial-triggered trace in flight dump \
                 (traces: {:?})",
                parsed.traces.iter().map(|t| &t.trigger).collect::<Vec<_>>()
            )
        });
    assert_eq!(trace.root_site, 1, "{rt:?}: trace rooted at the wrong site");
    assert!(
        trace
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Finalize && s.partial),
        "{rt:?}: trace lacks the degraded finalize span"
    );
    assert!(
        trace.spans.iter().any(|s| s.kind == SpanKind::Ask),
        "{rt:?}: trace lacks the ask that went unanswered"
    );
}

/// The capture scenario: a warm query at site 1 is exact; site 2 is asked
/// for its health on site 1's behalf (the site-to-site reply mode,
/// `reply_to != 0`) and then dies; the same query abandons its ask and
/// degrades. A remote scrape of site 1 — over the simulated network on the
/// DES, across the wire codec on the sharded runtime — must carry the
/// degraded trace, the dead site must read `unreachable` and answer no
/// scrape, and site 2's health payload must sit in site 1's inbox.
fn flight_recorder_captures_partial_query(rt: Runtime) {
    let db = parking_db(2);
    let tel = TelemetryRecorder::new();
    let mut cluster = boot(rt, &db, carve(&db, config(), config()), Some(tel.clone()));
    let q = [t3(&db)];
    let warm = cluster.pose_each(Target::Site(SiteAddr(1)), &q).remove(0);
    assert!(
        warm.ok && !warm.partial,
        "{rt:?}: warm query degraded: {}",
        warm.answer_xml
    );

    // Queued at site 2 ahead of the stop below.
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
    let degraded = cluster.pose_each(Target::Site(SiteAddr(1)), &q).remove(0);
    assert!(
        degraded.partial,
        "{rt:?}: dead site did not degrade: {}",
        degraded.answer_xml
    );

    let payload = cluster
        .scrape(SiteAddr(1), WHAT_ALL)
        .expect("scrape timed out");
    assert_partial_trace(&payload, rt);
    assert_eq!(
        tel.plane().health(2),
        HealthState::Unreachable,
        "{rt:?}: stopped site not marked unreachable"
    );
    assert!(cluster.scrape(SiteAddr(2), WHAT_HEALTH).is_none());

    let mut agents = cluster.finish();
    assert_eq!(agents[0].addr, SiteAddr(1));
    let inbox = agents[0].take_telemetry_replies();
    assert_eq!(
        inbox.len(),
        1,
        "{rt:?}: site-to-site telemetry reply never arrived"
    );
    assert_eq!(inbox[0].0, 900);
    let peer = parse_payload(&inbox[0].1).expect("inbox payload parses");
    assert_eq!(
        peer.site, 2,
        "{rt:?}: inbox payload describes the wrong site"
    );
}

#[test]
fn des_flight_recorder_captures_partial_query_via_scrape() {
    flight_recorder_captures_partial_query(DES);
}

#[test]
fn sharded_flight_recorder_captures_partial_query_via_scrape() {
    flight_recorder_captures_partial_query(sharded(2, 1, true));
}
