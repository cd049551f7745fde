//! Telemetry-plane experiment: overhead guard, scrape cost vs window
//! depth, and a forced-fault flight-recorder capture.
//!
//! Three sections, one JSON object on stdout:
//!
//! * `off_qps` / `on_qps` — a hot-site workload (8 client threads × 8
//!   queries, one owner site with inline reads) with no recorder vs the
//!   full `TelemetryRecorder` (windows + flight recorder + health FSM,
//!   spans not retained). Interleaved rounds, best-of;
//!   `scripts/telemetry_smoke.sh` holds `telemetry_cost_pct` under its
//!   budget (default 5 %).
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
use simnet::{ShardClient, ShardConfig, ShardedCluster};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 8;
const PASSES_PER_ROUND: usize = 10;
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

fn mixes(db: &ParkingDb) -> Vec<Vec<String>> {
    (0..CLIENTS)
        .map(|t| {
            let mut w1 = Workload::uniform(db, QueryType::T1, 100 + t as u64);
            let mut w3 = Workload::uniform(db, QueryType::T3, 200 + t as u64);
            (0..QUERIES_PER_CLIENT)
                .map(|i| if i % 2 == 0 { w1.next_query() } else { w3.next_query() })
                .collect()
        })
        .collect()
}

/// A cluster of `sites` shards, one per site, with reads inline on the
/// shard loop.
fn one_shard_per_site(db: &ParkingDb, sites: usize) -> ShardedCluster {
    ShardedCluster::with_config(
        db.service.clone(),
        ShardConfig { shards: sites, workers_per_shard: 0, force_wire: false },
    )
}

fn hot_site(
    db: &Arc<ParkingDb>,
    rec: Option<&Arc<TelemetryRecorder>>,
) -> (ShardedCluster, Vec<ShardClient>) {
    let mut cluster = one_shard_per_site(db, 1);
    if let Some(r) = rec {
        cluster.set_recorder(r.clone());
    }
    let oa = OrganizingAgent::new(SiteAddr(1), db.service.clone(), OaConfig::default());
    oa.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.add_site(oa);
    cluster.start();
    let clients = (0..CLIENTS).map(|_| cluster.client()).collect();
    (cluster, clients)
}

fn pass(clients: &[ShardClient], mixes: &[Vec<String>]) {
    std::thread::scope(|s| {
        for (cl, mix) in clients.iter().zip(mixes) {
            s.spawn(move || {
                for q in mix {
                    let r = cl
                        .pose_query_at(q, SiteAddr(1), Duration::from_secs(30))
                        .expect("hot-site reply");
                    assert!(r.ok, "query failed: {q}");
                }
            });
        }
    });
}

fn round(clients: &[ShardClient], mixes: &[Vec<String>]) -> f64 {
    let t0 = Instant::now();
    for _ in 0..PASSES_PER_ROUND {
        pass(clients, mixes);
    }
    (CLIENTS * QUERIES_PER_CLIENT * PASSES_PER_ROUND) as f64 / t0.elapsed().as_secs_f64()
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
    let cluster = two_site(db, &rec, OaConfig::default());
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
        let p = cluster
            .scrape_site(SiteAddr(1), WHAT_ALL, Duration::from_secs(10))
            .expect("scrape reply");
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
    let payload = cluster
        .scrape_site(SiteAddr(1), WHAT_ALL, Duration::from_secs(10))
        .expect("scrape reply");
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
    let rounds: usize = std::env::var("TELEMETRY_ROUNDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let db = Arc::new(ParkingDb::generate(DbParams::small(), 1));
    let mixes = mixes(&db);

    // Section 1: overhead A/B, interleaved rounds, best-of.
    let rec = TelemetryRecorder::new();
    let (off_cluster, off_clients) = hot_site(&db, None);
    let (on_cluster, on_clients) = hot_site(&db, Some(&rec));
    pass(&off_clients, &mixes);
    pass(&on_clients, &mixes);
    let mut off = Vec::with_capacity(rounds);
    let mut on = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        off.push(round(&off_clients, &mixes));
        on.push(round(&on_clients, &mixes));
    }
    off_cluster.shutdown();
    on_cluster.shutdown();
    let best = |v: &[f64]| v.iter().cloned().fold(f64::MIN, f64::max);
    let off_qps = best(&off);
    let on_qps = best(&on);
    let cost_pct = (off_qps / on_qps - 1.0) * 100.0;

    // Sections 2 and 3 run on the two-site topology.
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
    println!("  \"workload\": \"hot_site serial_inline: {CLIENTS} clients x {QUERIES_PER_CLIENT} queries x {PASSES_PER_ROUND} passes/round\",");
    println!("  \"rounds\": {rounds},");
    println!("  \"off_qps\": {off_qps:.1},");
    println!("  \"on_qps\": {on_qps:.1},");
    println!("  \"telemetry_cost_pct\": {cost_pct:.2},");
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
