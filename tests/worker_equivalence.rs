//! Worker-count and shard-count equivalence: neither the read-worker pool
//! nor the way sites are multiplexed onto shard event loops may change
//! *what* a site answers, only how fast. The same t1/t3 query mix, posed
//! in the same order against identically bootstrapped clusters, must
//! produce byte-identical canonical answers for worker counts 0, 1, 2 and
//! 8 at one shard per site, for shard counts 1, 2 and 8 (with and without
//! forced wire framing) — and must match the serial discrete-event
//! simulator, which doubles as the correctness oracle.

use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{Endpoint, Message, OaConfig, OrganizingAgent, Status};
use simnet::{CostModel, DesCluster, ShardConfig, ShardedCluster};

fn params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 3,
    }
}

/// A deterministic mix of fully-specified (t1) and multi-neighborhood (t3)
/// queries — the read-mostly workload the worker pool targets.
fn query_mix(db: &ParkingDb) -> Vec<String> {
    let mut t1 = Workload::uniform(db, QueryType::T1, 7);
    let mut t3 = Workload::uniform(db, QueryType::T3, 11);
    (0..24)
        .map(|i| if i % 3 == 0 { t3.next_query() } else { t1.next_query() })
        .collect()
}

/// Site 1 owns the whole region except neighborhood (0,1), which site 2
/// owns — so t3 queries force a subquery round-trip and cache fill.
fn make_agents(db: &ParkingDb) -> (OrganizingAgent, OrganizingAgent) {
    let svc = db.service.clone();
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    let carved = db.neighborhood_path(0, 1);
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
    oa2.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
    (oa1, oa2)
}

fn canon(xml: &str) -> String {
    let doc = sensorxml::parse(xml).expect("answer parses");
    sensorxml::canonical_string(&doc, doc.root().unwrap())
}

fn sharded_answers(
    db: &ParkingDb,
    shards: usize,
    workers_per_shard: usize,
    force_wire: bool,
) -> Vec<String> {
    let mut cluster = ShardedCluster::with_config(
        db.service.clone(),
        ShardConfig { shards, workers_per_shard, force_wire },
    );
    let (oa1, oa2) = make_agents(db);
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.register_owner(&db.neighborhood_path(0, 1), SiteAddr(2));
    cluster.add_site(oa1);
    cluster.add_site(oa2);
    cluster.start();
    let answers = query_mix(db)
        .iter()
        .map(|q| {
            let r = cluster.pose_query(q, Duration::from_secs(30)).expect("reply");
            assert!(
                r.ok,
                "query failed at {shards} shards (wire={force_wire}): {q}: {}",
                r.answer_xml
            );
            canon(&r.answer_xml)
        })
        .collect();
    cluster.shutdown();
    answers
}


/// The DES run of the same mix, spaced far enough apart that each query
/// drains before the next is posed (matching the sequential clients).
/// Unregistered endpoints land in the unclaimed-reply bin, in order.
fn des_answers(db: &ParkingDb) -> Vec<String> {
    let mut sim = DesCluster::new(CostModel::default());
    let (oa1, oa2) = make_agents(db);
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
    sim.run_until(queries.len() as f64 * 50.0 + 50.0);
    sim.take_unclaimed_replies().iter().map(|x| canon(x)).collect()
}

#[test]
fn answers_identical_across_worker_counts() {
    // One shard per site: each site's read workers are its own pool.
    let db = ParkingDb::generate(params(), 42);
    let serial = sharded_answers(&db, 2, 0, false);
    assert_eq!(serial.len(), 24);
    for workers in [1, 2, 8] {
        let got = sharded_answers(&db, 2, workers, false);
        assert_eq!(serial, got, "answers diverged at {workers} workers");
    }
}

#[test]
fn answers_identical_across_shard_counts() {
    let db = ParkingDb::generate(params(), 42);
    // Inline reads on the shard loop (zero workers) are the serial path.
    let serial = sharded_answers(&db, 2, 0, false);
    for shards in [1, 2, 8] {
        let got = sharded_answers(&db, shards, 1, false);
        assert_eq!(serial, got, "answers diverged at {shards} shards");
    }
    // The wire codec must be semantically invisible: frame every send,
    // including same-shard ones.
    let wired = sharded_answers(&db, 2, 1, true);
    assert_eq!(serial, wired, "answers diverged under forced wire framing");
}

#[test]
fn sharded_answers_match_des_oracle() {
    let db = ParkingDb::generate(params(), 42);
    let des = des_answers(&db);
    for (shards, workers, force_wire) in [(2, 1, true), (2, 4, false)] {
        let sharded = sharded_answers(&db, shards, workers, force_wire);
        assert_eq!(
            sharded, des,
            "answers at {shards} shards x {workers} workers (wire={force_wire}) \
             diverge from the DES oracle"
        );
    }
}
