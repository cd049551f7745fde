//! Differential tests: the native QEG executor against the paper's compiled
//! XSLT program (the oracle), in both creation variants.
//!
//! 1. Over random site databases — owned, cached (`complete`),
//!    `id-complete` and `incomplete` nodes, evictions, and sensor updates
//!    that give cached copies different ages — every query shape (QW-1..4,
//!    `//`, `*`, or-ed ids, the nested-predicate subtree gate, number-valued
//!    (positional) predicates, unclean and freshness predicates, suffix
//!    steps) yields the
//!    same asks (path, kind, step) or the same error under the native walk
//!    (`NativeWalk`) and the XSLT oracle's fast and naive creation
//!    (`irisnet_xslt_oracle::XsltQeg`), with `ignore_complete` both ways
//!    and `now` on both sides of every freshness tolerance.
//! 2. End to end on the DES: the `distributed_correctness` scenario gives
//!    byte-identical canonical answers and trace `structure_digest`s under
//!    each engine, plugged in through `OaConfig::engine`.
//!
//! Replayable: run with a fixed `PROPTEST_RNG_SEED`.

use proptest::prelude::*;

use irisnet_bench::{build_cluster, Arch, DbParams, ParkingDb, QueryType, Workload};
use std::sync::Arc;

use irisnet_core::qeg::{plan_query, Ask, QueryPlan};
use irisnet_core::{
    CacheMode, CoreResult, Endpoint, IdPath, Message, NativeWalk, OaConfig, PassEngine,
    SiteDatabase,
};
use irisnet_xslt_oracle::{Creation, XsltQeg};
use irisobs::{check_well_formed, structure_digest, MemRecorder};
use simnet::CostModel;

fn tiny_params() -> DbParams {
    DbParams {
        cities: 2,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 2,
    }
}

/// Every IDable path of the tiny database.
fn all_paths(db: &ParkingDb) -> Vec<IdPath> {
    let mut out = vec![
        db.root_path(),
        db.root_path().child("state", "PA"),
        db.county_path(),
    ];
    for ci in 0..db.params.cities {
        out.push(db.city_path(ci));
        for ni in 0..db.params.neighborhoods_per_city {
            out.push(db.neighborhood_path(ci, ni));
            for bi in 0..db.params.blocks_per_neighborhood {
                out.push(db.block_path(ci, ni, bi));
                for si in 0..db.params.spaces_per_block {
                    out.push(db.space_path(ci, ni, bi, si));
                }
            }
        }
    }
    out
}

#[derive(Debug, Clone)]
enum Op {
    /// Cache the subtree at path index `i` from the owner (owner export +
    /// merge: `complete` data under `id-complete` ancestors).
    Cache(usize),
    /// A sensor update at the owner `dt` tenths of a second later.
    Update(usize, bool, u32),
    /// Evict the cached node at path index `i` back to `incomplete`.
    Evict(usize),
}

fn op_strategy(paths: usize, spaces: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..paths).prop_map(Op::Cache),
        (0..spaces, any::<bool>(), 1u32..600).prop_map(|(i, a, dt)| Op::Update(i, a, dt)),
        (0..paths).prop_map(Op::Evict),
    ]
}

/// Freshness tolerances the queries use (seconds).
const TOLERANCES: [u32; 2] = [5, 40];

/// The query shapes, instantiated over the database.
fn queries(db: &ParkingDb, seed: u64) -> Vec<String> {
    let mut w = Workload::qw_mix(db, seed);
    let city = format!(
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='{}']",
        db.city_name((seed % 2) as usize)
    );
    let county = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']";
    let n = 1 + seed % 2;
    let b = 1 + seed % 3;
    let mut qs = vec![
        w.next_query_of(QueryType::T1),
        w.next_query_of(QueryType::T2),
        w.next_query_of(QueryType::T3),
        w.next_query_of(QueryType::T4),
        // `//`: a mid-path search, a leading search, and two in a row.
        "/usRegion[@id='NE']//parkingSpace[available='yes']".to_string(),
        format!("/usRegion[@id='NE']/state[@id='PA']//block[@id='{b}']/parkingSpace"),
        format!("//neighborhood[@id='n{n}']//parkingSpace[price='0']"),
        // `*` steps.
        format!("{county}/*/neighborhood[@id='n{n}']/*[@id='{b}']/parkingSpace"),
        format!("{city}/*/block[@id='{b}']/*[price > 0]"),
        // Or-ed ids and an unclean (id mixed with value) predicate.
        format!("{city}/neighborhood[@id='n1' or @id='n2']/block[@id='{b}']/parkingSpace"),
        format!("{city}/neighborhood[@id='n{n}' or @zipcode='15202']/block[@id='1']/parkingSpace"),
        // Nesting depth 1 (gate pulled up to the block) and a predicate
        // traversing IDable children (gate at the neighborhood).
        format!(
            "{city}/neighborhood[@id='n{n}']/block[@id='{b}']\
             /parkingSpace[not(price > ../parkingSpace/price)]"
        ),
        format!("{city}/neighborhood[@id='n{n}'][block/parkingSpace/available='yes']/block"),
        // Number-valued predicates — the positional form the parser admits
        // (a literal `[1]` is rejected at parse time): a template test
        // coerces them to boolean, a select filter rejects them.
        format!("{city}/neighborhood[@id='n{n}']/block[@id='{b}']/parkingSpace[price + 0]"),
        format!("{city}/neighborhood[@id='n{n}']/block[number(@id) - 1]/parkingSpace"),
        // A whole neighborhood: collect mode over everything below it.
        format!("{city}/neighborhood[@id='n{n}']"),
        // Suffix steps below the distribution prefix.
        format!("{city}/neighborhood[@id='n{n}']/block[@id='{b}']/parkingSpace/available"),
    ];
    for tol in TOLERANCES {
        qs.push(format!(
            "{city}/neighborhood[@id='n{n}']/block[@id='{b}']\
             /parkingSpace[available='yes'][@timestamp > now() - {tol}]"
        ));
        qs.push(format!(
            "{city}/neighborhood[@id='n{n}']/block[@id='{b}'][@timestamp > now() - {tol}]\
             /parkingSpace"
        ));
        qs.push(format!(
            "/usRegion[@id='NE']//parkingSpace[@timestamp > now() - {tol}]"
        ));
    }
    qs
}

/// An engine's asks for one pass, or its error.
fn outcome(
    f: &dyn PassEngine,
    plan: &QueryPlan,
    db: &SiteDatabase,
    now: f64,
    ignore_complete: bool,
) -> CoreResult<Vec<Ask>> {
    f.run(plan, db, now, ignore_complete).map(|p| p.asks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn native_asks_match_both_xslt_engines(
        own in (0usize..80, any::<bool>()),
        ops in proptest::collection::vec(op_strategy(80, 48), 0..24),
        seed in 0u64..1000,
    ) {
        let db = ParkingDb::generate(tiny_params(), 5);
        let paths = all_paths(&db);
        let spaces = db.all_space_paths();
        let mut owner = SiteDatabase::new(db.service.clone());
        owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
        let mut site = SiteDatabase::new(db.service.clone());
        site.bootstrap_owned(&db.master, &paths[own.0 % paths.len()], own.1).unwrap();
        let mut ts = 0.0f64;
        for op in &ops {
            match *op {
                Op::Cache(i) => {
                    let p = &paths[i % paths.len()];
                    let frag = owner.export_subtrees(std::slice::from_ref(p)).unwrap();
                    // Merging over owned data is refused; that's fine.
                    let _ = site.merge_fragment(&frag);
                }
                Op::Update(i, avail, dt) => {
                    ts += f64::from(dt) / 10.0;
                    let p = &spaces[i % spaces.len()];
                    let v = if avail { "yes" } else { "no" };
                    owner.apply_update(p, &[("available".into(), v.into())], ts).unwrap();
                }
                Op::Evict(i) => {
                    let _ = site.evict(&paths[i % paths.len()]);
                }
            }
        }

        let native = NativeWalk;
        let fast = XsltQeg::new(Creation::Fast);
        let naive = XsltQeg::new(Creation::Naive);
        // Each tolerance straddled: just inside and just past it, measured
        // from the newest and the oldest timestamp, plus both extremes.
        let mut nows = vec![0.0, 1e9];
        for tol in TOLERANCES {
            let tol = f64::from(tol);
            nows.extend([ts + tol - 1.0, ts + tol + 1.0, tol - 1.0, tol + 1.0]);
        }
        for q in queries(&db, seed) {
            let plan = plan_query(&sensorxpath::parse(&q).unwrap(), &db.service).unwrap();
            for ignore_complete in [false, true] {
                // Creation is independent of `now`: one naive run per
                // query suffices to pin the naive path to the fast one.
                let reference = outcome(&fast, &plan, &site, nows[2], ignore_complete);
                let n = outcome(&naive, &plan, &site, nows[2], ignore_complete);
                prop_assert_eq!(&n, &reference, "naive vs fast: {} ignore={}", q, ignore_complete);
                for &now in &nows {
                    let want = outcome(&fast, &plan, &site, now, ignore_complete);
                    let got = outcome(&native, &plan, &site, now, ignore_complete);
                    prop_assert_eq!(
                        &got, &want,
                        "native vs XSLT: {} now={} ignore={}", q, now, ignore_complete
                    );
                }
            }
        }
    }
}

/// The owner answers everything locally under every engine (no asks), and
/// a site owning only a leaf asks the same things — the two fixed corners
/// the random mixes above can miss.
#[test]
fn owner_and_leaf_site_corners_agree() {
    let db = ParkingDb::generate(tiny_params(), 5);
    let mut owner = SiteDatabase::new(db.service.clone());
    owner
        .bootstrap_owned(&db.master, &db.root_path(), true)
        .unwrap();
    let mut leaf = SiteDatabase::new(db.service.clone());
    leaf.bootstrap_owned(&db.master, &db.space_path(1, 1, 2, 1), true)
        .unwrap();
    let native = NativeWalk;
    let fast = XsltQeg::new(Creation::Fast);
    for seed in 0..6 {
        for q in queries(&db, seed) {
            let plan = plan_query(&sensorxpath::parse(&q).unwrap(), &db.service).unwrap();
            for ignore_complete in [false, true] {
                let o = outcome(&native, &plan, &owner, 100.0, ignore_complete);
                assert_eq!(
                    o,
                    outcome(&fast, &plan, &owner, 100.0, ignore_complete),
                    "{q}"
                );
                if let Ok(asks) = &o {
                    assert!(asks.is_empty(), "owner asked for {asks:?} on {q}");
                }
                assert_eq!(
                    outcome(&native, &plan, &leaf, 100.0, ignore_complete),
                    outcome(&fast, &plan, &leaf, 100.0, ignore_complete),
                    "{q}"
                );
            }
        }
    }
}

/// A fixed site mix on which the differential check provably reaches every
/// ask the status switch can emit — `query`, `stale` at a step and for a
/// whole cached unit, `subtree` at the gate and in collect mode — and an
/// error, so a branch dropped from either engine cannot go unnoticed
/// whatever seeds the random mixes above draw.
#[test]
fn fixed_mix_reaches_every_branch() {
    use irisnet_core::qeg::AskKind;
    let db = ParkingDb::generate(tiny_params(), 5);
    let mut owner = SiteDatabase::new(db.service.clone());
    owner
        .bootstrap_owned(&db.master, &db.root_path(), true)
        .unwrap();
    let fresh = db.space_path(0, 1, 0, 0);
    owner
        .apply_update(&fresh, &[("available".into(), "yes".into())], 100.0)
        .unwrap();
    // Owns neighborhood (0,0) without its blocks; caches block (0,1,0),
    // one of whose spaces was updated at t=100 (the rest date from t=0).
    let mut site = SiteDatabase::new(db.service.clone());
    site.bootstrap_owned(&db.master, &db.neighborhood_path(0, 0), false)
        .unwrap();
    let block = db.block_path(0, 1, 0);
    site.merge_fragment(&owner.export_subtrees(std::slice::from_ref(&block)).unwrap())
        .unwrap();

    let native = NativeWalk;
    let fast = XsltQeg::new(Creation::Fast);
    let mut kinds = std::collections::BTreeSet::new();
    let mut errors = 0;
    for seed in 0..6 {
        for q in queries(&db, seed) {
            let plan = plan_query(&sensorxpath::parse(&q).unwrap(), &db.service).unwrap();
            for ignore_complete in [false, true] {
                for now in [0.0, 50.0, 102.0, 200.0] {
                    let got = outcome(&native, &plan, &site, now, ignore_complete);
                    assert_eq!(
                        got,
                        outcome(&fast, &plan, &site, now, ignore_complete),
                        "{q}"
                    );
                    match got {
                        Ok(asks) => kinds
                            .extend(asks.iter().map(|a| (a.kind.as_str(), a.step == usize::MAX))),
                        Err(_) => errors += 1,
                    }
                }
            }
        }
    }
    for want in [
        (AskKind::Query.as_str(), false),
        (AskKind::Stale.as_str(), false),
        (AskKind::Stale.as_str(), true),
        (AskKind::Subtree.as_str(), false),
        (AskKind::Subtree.as_str(), true),
    ] {
        assert!(
            kinds.contains(&want),
            "no {want:?} ask reached; saw {kinds:?}"
        );
    }
    assert!(
        errors > 0,
        "no query failed, so error equality went unchecked"
    );
}

fn smallish() -> DbParams {
    DbParams {
        cities: 2,
        neighborhoods_per_city: 3,
        blocks_per_neighborhood: 5,
        spaces_per_block: 4,
    }
}

/// Runs the `distributed_correctness` hierarchical scenario (caching on,
/// one query at a time to quiescence) and returns each query's canonical
/// answer and trace digest.
fn des_run(engine: Arc<dyn PassEngine>) -> Vec<(String, String)> {
    let db = ParkingDb::generate(smallish(), 1);
    let cfg = OaConfig {
        engine,
        cache: CacheMode::Aggressive,
        ..OaConfig::default()
    };
    let mut built = build_cluster(Arch::Hierarchical, &db, CostModel::default(), cfg, 9);
    let rec = MemRecorder::new();
    built.sim.set_recorder(rec.clone());
    let mut w = Workload::qw_mix(&db, 2);
    let mut answers = Vec::new();
    for k in 0..24u64 {
        let q = w.next_query();
        let service = built.sim.site(built.sites[0]).unwrap().service.clone();
        let (_, _, name) = irisnet_core::routing::route_query(&q, &service).unwrap();
        let entry = built.sim.dns.lookup(&name).map(|a| a.addr).unwrap();
        let start = built.sim.now();
        built.sim.schedule_message(
            start,
            entry,
            Message::UserQuery {
                qid: k + 1,
                text: q,
                endpoint: Endpoint(9000 + k),
            },
        );
        built.sim.run_until(start + 1_000.0);
        let xml = built.sim.take_unclaimed_replies().pop().expect("a reply");
        let doc = sensorxml::parse(&xml).unwrap();
        answers.push(sensorxml::canonical_string(&doc, doc.root().unwrap()));
    }
    let forest = check_well_formed(&rec.take_spans()).expect("well-formed trace forest");
    assert_eq!(forest.queries.len(), answers.len());
    answers
        .into_iter()
        .zip(forest.queries.iter().map(structure_digest))
        .collect()
}

#[test]
fn des_answers_and_traces_identical_under_every_engine() {
    let native = des_run(Arc::new(NativeWalk));
    // The scenario must actually gather and cache, or it proves little.
    assert!(
        native.iter().any(|(_, d)| d.contains("sub-query")),
        "no gathering happened"
    );
    for creation in [Creation::Fast, Creation::Naive] {
        let engine = Arc::new(XsltQeg::new(creation));
        let other = des_run(engine.clone());
        assert!(engine.created() > 0, "{creation:?} never ran");
        for (i, (n, o)) in native.iter().zip(&other).enumerate() {
            assert_eq!(n.0, o.0, "query {i}: answers differ under {creation:?}");
            assert_eq!(n.1, o.1, "query {i}: trace shapes differ under {creation:?}");
        }
    }
}
