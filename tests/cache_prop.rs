//! PR 6 property tests for the bounded cache plane.
//!
//! 1. Random interleavings of cache fills, queries, updates, merges and
//!    enforcement sweeps — under a random eviction policy — keep every
//!    site database consistent with the master (`check_invariants`,
//!    i.e. I1/I2 + C1/C2) and the manager's occupancy books exact.
//! 2. End to end on the DES: a random policy changes *residency*, never
//!    *answers* — the same query/update schedule yields canonical
//!    answers byte-identical to a `KeepForever` run.
//!
//! Replayable: run with a fixed `PROPTEST_RNG_SEED` (cache_smoke.sh
//! exports one).

use proptest::prelude::*;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{
    CacheBudget, CacheManager, Endpoint, EvictionPolicy, IdPath, Message, OaConfig,
    OrganizingAgent, SiteDatabase, Status,
};
use simnet::{CostModel, DesCluster};

fn tiny_params() -> DbParams {
    DbParams {
        cities: 2,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 2,
    }
}

/// Cacheable unit paths — blocks, i.e. pairwise-disjoint subtrees. (The
/// manager's occupancy books are per-unit snapshots, exact for disjoint
/// units; a merge *under* a tracked ancestor legitimately drifts the
/// ancestor's snapshot, so the strict end-of-run audit below uses the
/// disjoint granularity the agent caches at for block-level asks.)
fn unit_paths(db: &ParkingDb) -> Vec<IdPath> {
    let mut out = Vec::new();
    for ci in 0..db.params.cities {
        for ni in 0..db.params.neighborhoods_per_city {
            for bi in 0..db.params.blocks_per_neighborhood {
                out.push(db.block_path(ci, ni, bi));
            }
        }
    }
    out
}

fn policy_strategy() -> impl Strategy<Value = EvictionPolicy> {
    prop_oneof![
        Just(EvictionPolicy::KeepForever),
        (8usize..120).prop_map(|n| EvictionPolicy::Lru { budget: CacheBudget::nodes(n) }),
        (8usize..120)
            .prop_map(|n| EvictionPolicy::HeatWeighted { budget: CacheBudget::nodes(n) }),
        (200usize..4000)
            .prop_map(|b| EvictionPolicy::Lru { budget: CacheBudget::bytes(b) }),
        ((8usize..120), (10u32..500)).prop_map(|(n, a)| EvictionPolicy::SegmentAge {
            budget: CacheBudget::nodes(n),
            max_age: f64::from(a) / 10.0,
        }),
        (10u32..500).prop_map(|a| EvictionPolicy::Ttl { max_age: f64::from(a) / 10.0 }),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    /// Merge unit `i` from the owner and offer it to the manager.
    Fill(usize),
    /// A query whose LCA is unit `i` (touch + frequency bump).
    Query(usize),
    /// A sensor update through the owner, re-merged into the cache (the
    /// refresh path re-stamps the unit's data age).
    Update(usize, bool),
    /// Run an enforcement sweep.
    Enforce,
    /// Advance time by `dt` tenths of a second.
    Tick(u32),
}

fn op_strategy(units: usize, spaces: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..units).prop_map(Op::Fill),
        (0..units).prop_map(Op::Query),
        (0..spaces, any::<bool>()).prop_map(|(i, a)| Op::Update(i, a)),
        Just(Op::Enforce),
        (1u32..200).prop_map(Op::Tick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_evictions_and_admissions_preserve_invariants(
        policy in policy_strategy(),
        admission in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(14, 48), 1..60),
    ) {
        let db = ParkingDb::generate(tiny_params(), 5);
        let units = unit_paths(&db);
        let spaces = db.all_space_paths();

        let mut owner = SiteDatabase::new(db.service.clone());
        owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
        // The caching site owns nothing below the county: everything it
        // holds is evictable cached state.
        let mut cache = SiteDatabase::new(db.service.clone());
        cache.bootstrap_owned(&db.master, &db.root_path(), false).unwrap();
        cache
            .bootstrap_owned(&db.master, &db.root_path().child("state", "PA"), false)
            .unwrap();
        cache.bootstrap_owned(&db.master, &db.county_path(), false).unwrap();

        let mut mgr = CacheManager::new(policy);
        mgr.set_admission(admission);
        let mut now = 0.0f64;
        let mut ts = 1.0f64;

        for op in ops {
            match op {
                Op::Fill(i) => {
                    let p = &units[i % units.len()];
                    let frag = owner.export_subtrees(std::slice::from_ref(p)).unwrap();
                    cache.merge_fragment(&frag).unwrap();
                    let cost = cache.unit_cost(p).expect("merged unit resolves");
                    mgr.note_cached(p.clone(), cost, now);
                }
                Op::Query(i) => {
                    let p = &units[i % units.len()];
                    mgr.note_query(p, now);
                }
                Op::Update(i, avail) => {
                    ts += 0.25;
                    let p = &spaces[i % spaces.len()];
                    owner
                        .apply_update(
                            p,
                            &[("available".into(), if avail { "yes" } else { "no" }.into())],
                            ts,
                        )
                        .unwrap();
                    // Re-merge the enclosing block if it is cached — the
                    // refresh path (size re-accounting + age restamp).
                    let block = p.parent().unwrap();
                    if cache.status_at(&block) == Some(Status::Complete) {
                        let frag =
                            owner.export_subtrees(std::slice::from_ref(&block)).unwrap();
                        cache.merge_fragment(&frag).unwrap();
                        let cost = cache.unit_cost(&block).unwrap();
                        mgr.note_cached(block, cost, now);
                    }
                }
                Op::Enforce => {
                    mgr.enforce(&mut cache, now);
                }
                Op::Tick(dt) => {
                    now += f64::from(dt) / 10.0;
                }
            }
            owner.check_invariants(&db.master).unwrap();
            cache.check_invariants(&db.master).unwrap();
        }
        // Final sweep, then audit the occupancy books against the ground
        // truth: every tracked unit resolves, and node/byte totals match
        // a from-scratch recount.
        mgr.enforce(&mut cache, now);
        cache.check_invariants(&db.master).unwrap();
        let stats = mgr.stats();
        let mut nodes = 0usize;
        let mut bytes = 0usize;
        for p in mgr.tracked_paths() {
            let cost = cache.unit_cost(&p).expect("tracked unit must resolve");
            nodes += cost.nodes;
            bytes += cost.bytes;
        }
        prop_assert_eq!(stats.cached_nodes, nodes, "node books drifted");
        prop_assert_eq!(stats.cached_bytes, bytes, "byte books drifted");
    }

    #[test]
    fn des_answers_match_keep_forever_under_any_policy(
        policy in policy_strategy(),
        mix_seed in 0u64..500,
    ) {
        let db = ParkingDb::generate(tiny_params(), 9);
        let run = |policy: EvictionPolicy| -> Vec<String> {
            let mut sim = DesCluster::new(CostModel::default());
            let svc = db.service.clone();
            let carved = db.neighborhood_path(0, 1);
            let cfg = OaConfig { eviction: policy, ..OaConfig::default() };
            let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), cfg);
            oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
            oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
            oa1.db_mut().evict(&carved).unwrap();
            let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
            oa2.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
            svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
            svc.register_owner(&mut sim.dns, &carved, SiteAddr(2));
            sim.add_site(oa1);
            sim.add_site(oa2);

            // Queries every 40 virtual seconds; updates to site-1-owned
            // spaces (neighborhood (0,0)) in between, so cached copies of
            // site 2's data never go stale and every policy must produce
            // the same answers.
            let mut t1 = Workload::uniform(&db, QueryType::T1, mix_seed);
            let mut t3 = Workload::uniform(&db, QueryType::T3, mix_seed.wrapping_add(1));
            for i in 0..20u64 {
                let q = if i % 2 == 0 { t3.next_query() } else { t1.next_query() };
                sim.schedule_message(
                    i as f64 * 40.0,
                    SiteAddr(1),
                    Message::UserQuery { qid: i + 1, text: q, endpoint: Endpoint(500 + i) },
                );
                let sp = db.space_path(0, 0, (i as usize) % 3, (i as usize) % 2);
                sim.schedule_message(
                    i as f64 * 40.0 + 20.0,
                    SiteAddr(1),
                    Message::Update {
                        path: sp,
                        fields: vec![(
                            "available".into(),
                            if i % 3 == 0 { "yes" } else { "no" }.into(),
                        )],
                    },
                );
            }
            sim.run_until(20.0 * 40.0 + 40.0);
            sim.take_unclaimed_replies()
                .iter()
                .map(|x| {
                    let doc = sensorxml::parse(x).expect("answer parses");
                    sensorxml::canonical_string(&doc, doc.root().unwrap())
                })
                .collect()
        };
        let baseline = run(EvictionPolicy::KeepForever);
        prop_assert_eq!(baseline.len(), 20);
        let got = run(policy);
        prop_assert_eq!(baseline, got, "answers diverged under {:?}", policy);
    }
}
