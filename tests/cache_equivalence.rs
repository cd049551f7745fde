//! PR 6 correctness oracle: eviction policy must never change *what* the
//! system answers — only what stays resident. The same query mix, posed
//! in the same order against identically bootstrapped clusters, must
//! produce byte-identical canonical answers under every eviction policy
//! (budgeted LRU, heat-weighted, segment-age, TTL) as under
//! `KeepForever`, on the live (threaded, wall-clock) sharded runtime with
//! a multi-worker read pool and on the serial DES oracle alike. Eviction demotes to incomplete ID
//! stubs, so a post-eviction query transparently refills by subquery.

use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{
    CacheBudget, Endpoint, EvictionPolicy, Message, OaConfig, OrganizingAgent, Status,
};
use simnet::{cache_stats_total, CostModel, DesCluster, ShardConfig, ShardedCluster};

fn params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 3,
    }
}

/// t1/t3 mix with repeats: t3 queries cross into the carved neighborhood,
/// so site 1 keeps caching, re-using and (under a tight budget) evicting
/// its units.
fn query_mix(db: &ParkingDb) -> Vec<String> {
    let mut t1 = Workload::uniform(db, QueryType::T1, 7);
    let mut t3 = Workload::uniform(db, QueryType::T3, 11);
    (0..36)
        .map(|i| if i % 2 == 0 { t3.next_query() } else { t1.next_query() })
        .collect()
}

/// Site 1 owns the region except neighborhood (0,1), owned by site 2; the
/// policy under test runs at site 1 (the caching gatherer).
fn make_agents(db: &ParkingDb, policy: EvictionPolicy) -> (OrganizingAgent, OrganizingAgent) {
    let svc = db.service.clone();
    let cfg = OaConfig { eviction: policy, ..OaConfig::default() };
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), cfg);
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

/// A budget of 20 nodes holds a single block unit (13 nodes) but not two:
/// every policy is forced to evict repeatedly over the 36-query mix.
fn policies() -> Vec<(&'static str, EvictionPolicy)> {
    let tight = CacheBudget::nodes(20);
    vec![
        ("keep-forever", EvictionPolicy::KeepForever),
        ("lru-20n", EvictionPolicy::Lru { budget: tight }),
        ("heat-20n", EvictionPolicy::HeatWeighted { budget: tight }),
        (
            "segment-20n",
            EvictionPolicy::SegmentAge { budget: tight, max_age: f64::INFINITY },
        ),
        ("ttl-50ms", EvictionPolicy::Ttl { max_age: 0.05 }),
    ]
}

fn sharded_answers(
    db: &ParkingDb,
    workers: usize,
    policy: EvictionPolicy,
) -> (Vec<String>, irisnet_core::CacheStats) {
    // One shard per site, `workers` read workers each.
    let mut cluster = ShardedCluster::with_config(
        db.service.clone(),
        ShardConfig { shards: 2, workers_per_shard: workers, force_wire: false },
    );
    let (oa1, oa2) = make_agents(db, policy);
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.register_owner(&db.neighborhood_path(0, 1), SiteAddr(2));
    cluster.add_site(oa1);
    cluster.add_site(oa2);
    cluster.start();
    let answers = query_mix(db)
        .iter()
        .map(|q| {
            let r = cluster.pose_query(q, Duration::from_secs(30)).expect("reply");
            assert!(r.ok, "query failed under {policy:?}: {q}: {}", r.answer_xml);
            canon(&r.answer_xml)
        })
        .collect();
    let agents = cluster.shutdown();
    (answers, cache_stats_total(&agents))
}

fn des_answers(db: &ParkingDb, policy: EvictionPolicy) -> (Vec<String>, irisnet_core::CacheStats) {
    let mut sim = DesCluster::new(CostModel::default());
    let (oa1, oa2) = make_agents(db, policy);
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
    let answers = sim.take_unclaimed_replies().iter().map(|x| canon(x)).collect();
    (answers, sim.cache_stats_total())
}

#[test]
fn answers_byte_identical_across_policies_live_and_des() {
    let db = ParkingDb::generate(params(), 42);
    let (baseline, _) = sharded_answers(&db, 0, EvictionPolicy::KeepForever);
    assert_eq!(baseline.len(), 36);
    for (name, policy) in policies() {
        let (sharded, sharded_cs) = sharded_answers(&db, 2, policy);
        assert_eq!(baseline, sharded, "sharded answers diverged under {name}");
        let (des, des_cs) = des_answers(&db, policy);
        assert_eq!(baseline, des, "DES answers diverged under {name}");
        // Budgeted policies must actually exercise eviction in the DES
        // run (virtual time also makes the TTL fire deterministically).
        if !matches!(policy, EvictionPolicy::KeepForever) {
            assert!(
                des_cs.evictions > 0,
                "{name}: policy never evicted — test lost its teeth"
            );
        }
        // And never on the oracle's watch: evictions may differ between
        // the threaded run and DES (wall clock vs virtual time), answers
        // may not.
        let _ = sharded_cs;
    }
}

#[test]
fn enforcement_work_is_amortized_o_evicted_under_workers() {
    // Workers ≥ 2 (the PR 2 read pool), a budget that forces constant
    // churn: total entries examined by all sweeps must stay within a
    // small constant of the work actually done (evictions + admission
    // rejects + fills), not O(tracked × queries) as the old full-scan
    // enforce was.
    let db = ParkingDb::generate(params(), 42);
    let (_, cs) = sharded_answers(
        &db,
        2,
        EvictionPolicy::HeatWeighted { budget: CacheBudget::nodes(20) },
    );
    assert!(cs.evictions > 0, "no evictions — budget not tight enough");
    // Each heat-weighted eviction samples at most 8 cold-end candidates;
    // each admission reject is examined once at the next sweep; each
    // cache fill can strand at most one stale tracking entry (unit
    // re-merged or promoted) that a later sweep discards unexamined.
    let fills = cs.misses + cs.partial_matches;
    let bound = 8 * (cs.evictions + cs.admission_rejects + fills + 1);
    assert!(
        cs.sweep_examined <= bound,
        "sweeps examined {} entries for {} evictions / {} rejects / {} fills",
        cs.sweep_examined,
        cs.evictions,
        cs.admission_rejects,
        fills
    );
}
