//! Telemetry-plane experiment: scrape cost vs window depth and a
//! forced-fault flight-recorder capture.
//!
//! Two sections, one JSON object on stdout:
//!
//! * `scrape` — per window depth (6 / 24 / 96 buckets): mean scrape
//!   latency and payload size against a warmed two-site cluster. The
//!   depth knob is the scrape's only size driver, so this is the
//!   EXPERIMENTS.md overhead-vs-depth table.
//! * `flight` — kills the remote site, degrades a query to
//!   `partial="true"`, scrapes the root site and writes the raw payload
//!   to argv[1] for jq-level validation; reports what the parsed payload
//!   contained.

use std::sync::Arc;
use std::time::{Duration, Instant};

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{CacheMode, OaConfig, OrganizingAgent, RetryPolicy, Status};
use irisobs::{parse_payload, TelemetryConfig, TelemetryRecorder, WHAT_ALL};
use simnet::{Cluster, ShardConfig, ShardedCluster};

const SCRAPES_PER_DEPTH: usize = 50;

/// Shape for the two-site sections: one city, two neighborhoods, so the
/// uniform T3 stream reliably crosses the site-1 ↔ site-2 boundary.
fn two_site_params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 2,
        spaces_per_block: 2,
    }
}

/// A cluster of `sites` shards, one per site, with reads inline on the
/// shard loop.
fn one_shard_per_site(db: &ParkingDb, sites: usize) -> ShardedCluster {
    ShardedCluster::with_config(
        db.service.clone(),
        ShardConfig { shards: sites, workers_per_shard: 0, force_wire: false },
    )
}

/// Two-site split (site 2 owns neighborhood (0,1)); `cfg` controls cache
/// and retry policy.
fn two_site(
    db: &ParkingDb,
    rec: &Arc<TelemetryRecorder>,
    cfg: OaConfig,
) -> ShardedCluster {
    let svc = db.service.clone();
    let mut cluster = one_shard_per_site(db, 2);
    cluster.set_recorder(rec.clone());
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), cfg.clone());
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    let carved = db.neighborhood_path(0, 1);
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), cfg);
    oa2.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.register_owner(&carved, SiteAddr(2));
    cluster.add_site(oa1);
    cluster.add_site(oa2);
    cluster.start();
    cluster
}

/// Mean scrape latency (µs) and payload bytes at one window depth,
/// measured against a warmed cluster.
fn scrape_at_depth(db: &ParkingDb, depth: usize) -> (f64, usize) {
    let rec = TelemetryRecorder::with_config(TelemetryConfig {
        window_depth: depth,
        ..TelemetryConfig::default()
    });
    let mut cluster = two_site(db, &rec, OaConfig::default());
    let mut w3 = Workload::uniform(db, QueryType::T3, 11);
    for _ in 0..32 {
        let r = cluster
            .pose_query_at(&w3.next_query(), SiteAddr(1), Duration::from_secs(30))
            .expect("warm reply");
        assert!(r.ok);
    }
    // A wall-clock warm run fills one 5s bucket no matter the depth; to
    // measure depth's effect on the payload, fill every retained bucket by
    // sampling at spaced synthetic timestamps (one counter bump each).
    let reg = rec.metrics();
    for i in 0..depth {
        reg.counter(1, "oa.user_queries").add(1);
        rec.plane().sample_site(1, 10_000.0 + (i as f64) * 5.0, reg);
    }
    let mut bytes = 0usize;
    let t0 = Instant::now();
    for _ in 0..SCRAPES_PER_DEPTH {
        let p = cluster.scrape(SiteAddr(1), WHAT_ALL).expect("scrape reply");
        bytes = p.len();
    }
    let micros = t0.elapsed().as_secs_f64() * 1e6 / SCRAPES_PER_DEPTH as f64;
    cluster.shutdown();
    (micros, bytes)
}

/// Forced-fault capture: kill site 2, degrade a cross-site query, scrape
/// the flight dump and write the raw payload to `path`.
fn flight_capture(db: &ParkingDb, path: &str) -> (usize, bool, String) {
    let rec = TelemetryRecorder::new();
    let cfg = OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.25, 1),
        ..OaConfig::default()
    };
    let mut cluster = two_site(db, &rec, cfg);
    let q = Workload::uniform(db, QueryType::T3, 11).next_query();
    let warm = cluster
        .pose_query_at(&q, SiteAddr(1), Duration::from_secs(30))
        .expect("warm reply");
    assert!(warm.ok && !warm.partial, "warm query degraded");
    drop(cluster.stop_site(SiteAddr(2)).expect("site 2 running"));
    let degraded = cluster
        .pose_query_at(&q, SiteAddr(1), Duration::from_secs(30))
        .expect("degraded reply");
    assert!(degraded.partial, "dead site did not degrade the answer");
    let payload = cluster.scrape(SiteAddr(1), WHAT_ALL).expect("scrape reply");
    std::fs::write(path, &payload).expect("write payload file");
    let health2 = rec.plane().health(2).label().to_string();
    cluster.shutdown();
    let parsed = parse_payload(&payload).expect("own payload parses");
    let partial_trace = parsed.traces.iter().any(|t| t.trigger.contains("partial"));
    (parsed.traces.len(), partial_trace, health2)
}

fn main() {
    let payload_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/exp_telemetry_payload.jsonl".to_string());
    let fault_db = ParkingDb::generate(two_site_params(), 42);
    let depths = [6usize, 24, 96];
    let scraped: Vec<(usize, f64, usize)> = depths
        .iter()
        .map(|&d| {
            let (micros, bytes) = scrape_at_depth(&fault_db, d);
            (d, micros, bytes)
        })
        .collect();
    let (traces, partial_trace, health2) = flight_capture(&fault_db, &payload_path);

    println!("{{");
    println!("  \"scrape\": [");
    for (i, (d, micros, bytes)) in scraped.iter().enumerate() {
        let comma = if i + 1 < scraped.len() { "," } else { "" };
        println!(
            "    {{\"window_depth\": {d}, \"scrape_micros\": {micros:.1}, \"payload_bytes\": {bytes}}}{comma}"
        );
    }
    println!("  ],");
    println!("  \"flight\": {{");
    println!("    \"payload_file\": \"{payload_path}\",");
    println!("    \"traces\": {traces},");
    println!("    \"partial_trace_captured\": {partial_trace},");
    println!("    \"dead_site_health\": \"{health2}\"");
    println!("  }}");
    println!("}}");
}
