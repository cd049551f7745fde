//! Chaos equivalence: masked faults must be invisible.
//!
//! For random seeds, a DES run under `FaultPlan::masked_from_seed` —
//! per-link drops, duplicates and delays, but no crashes — with ask-level
//! retries enabled must produce canonical answers byte-identical to the
//! zero-fault run of the same workload. Every fault decision is a pure
//! function of the seed, so any failure replays exactly: the assertion
//! message carries the seed and the full plan.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{
    CacheMode, DurabilityConfig, Endpoint, MemoryBackend, Message, OaConfig,
    OrganizingAgent, RetryPolicy, SiteStore, Status,
};
use proptest::prelude::*;
use simnet::{CostModel, DesCluster, FaultPlan, ShardConfig, ShardedCluster};

fn params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 3,
    }
}

/// Caching off so every cross-site query re-asks the remote owner (more
/// traffic for the fault plan to chew on); a generous retry budget so a
/// ≤25 % drop rate cannot plausibly exhaust an ask.
fn config() -> OaConfig {
    OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.5, 10),
        ..OaConfig::default()
    }
}

/// A deterministic t1/t3 mix; the t3 queries span both neighborhoods and
/// therefore cross the faulted site-1 ↔ site-2 link every time.
fn query_mix(db: &ParkingDb) -> Vec<String> {
    let mut t1 = Workload::uniform(db, QueryType::T1, 7);
    let mut t3 = Workload::uniform(db, QueryType::T3, 11);
    (0..12)
        .map(|i| if i % 3 == 0 { t3.next_query() } else { t1.next_query() })
        .collect()
}

/// Site 1 owns the region except neighborhood (0,1), owned by site 2.
fn make_agents(db: &ParkingDb) -> (OrganizingAgent, OrganizingAgent) {
    let svc = db.service.clone();
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), config());
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    let carved = db.neighborhood_path(0, 1);
    oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
    oa1.db_mut().evict(&carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc.clone(), config());
    oa2.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
    (oa1, oa2)
}

fn canon(xml: &str) -> String {
    let doc = sensorxml::parse(xml).expect("answer parses");
    sensorxml::canonical_string(&doc, doc.root().unwrap())
}

/// One DES run; returns `(endpoint, canonical answer, ok, partial)` per
/// query, ordered by endpoint (= injection order).
fn run(db: &ParkingDb, plan: Option<FaultPlan>) -> Vec<(u64, String, bool, bool)> {
    let mut sim = DesCluster::new(CostModel::default());
    let (oa1, oa2) = make_agents(db);
    let svc = db.service.clone();
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    svc.register_owner(&mut sim.dns, &db.neighborhood_path(0, 1), SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);
    if let Some(p) = plan {
        sim.set_fault_plan(p);
    }
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
    // Generous tail: the worst retry chain (10 resends, 4 s cap) plus the
    // longest injected delay still completes well inside it.
    sim.run_until(queries.len() as f64 * 50.0 + 300.0);
    let mut replies = sim.take_unclaimed_detailed();
    replies.sort_by_key(|r| r.endpoint.0);
    replies
        .into_iter()
        .map(|r| (r.endpoint.0, canon(&r.answer_xml), r.ok, r.partial))
        .collect()
}

/// One sharded-runtime run (wall clock, forced wire framing): queries are
/// posed sequentially and blocking, so replies arrive in injection order.
/// Returns `(canonical answer, ok, partial)` per query.
fn sharded_run(
    db: &ParkingDb,
    plan: Option<FaultPlan>,
    shards: usize,
) -> Vec<(String, bool, bool)> {
    let mut cluster = ShardedCluster::with_config(
        db.service.clone(),
        ShardConfig { shards, workers_per_shard: 1, force_wire: true },
    );
    let (oa1, oa2) = make_agents(db);
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.register_owner(&db.neighborhood_path(0, 1), SiteAddr(2));
    cluster.add_site(oa1);
    cluster.add_site(oa2);
    cluster.start();
    if let Some(p) = plan {
        cluster.set_fault_plan(p);
    }
    let answers = query_mix(db)
        .iter()
        .map(|q| {
            let r = cluster.pose_query(q, Duration::from_secs(60)).expect("reply");
            (canon(&r.answer_xml), r.ok, r.partial)
        })
        .collect();
    cluster.shutdown();
    answers
}

/// Guards against the property above passing vacuously: under a plan with
/// forced drop/dup/delay rates the run must actually drop, duplicate and
/// delay messages — and the retry machinery must visibly fire — while the
/// answers still match the fault-free baseline.
#[test]
fn faults_and_retries_actually_fire() {
    let db = ParkingDb::generate(params(), 42);
    let baseline = run(&db, None);
    let plan = FaultPlan {
        drop_prob: 0.2,
        dup_prob: 0.2,
        delay_prob: 0.3,
        max_extra_delay: 1.5,
        ..FaultPlan::masked_from_seed(77)
    };

    let mut sim = DesCluster::new(CostModel::default());
    let (oa1, oa2) = make_agents(&db);
    let svc = db.service.clone();
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    svc.register_owner(&mut sim.dns, &db.neighborhood_path(0, 1), SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);
    sim.set_fault_plan(plan);
    let queries = query_mix(&db);
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

    let counts = sim.fault_counts();
    assert!(counts.dropped > 0, "no drops injected: {counts:?}");
    assert!(counts.duplicated > 0, "no duplicates injected: {counts:?}");
    assert!(counts.delayed > 0, "no delays injected: {counts:?}");
    let retries = sim.site(SiteAddr(1)).unwrap().stats.retries_sent;
    assert!(retries > 0, "drops never triggered a retry");
    assert_eq!(sim.site(SiteAddr(1)).unwrap().stats.asks_abandoned, 0);

    let mut replies = sim.take_unclaimed_detailed();
    replies.sort_by_key(|r| r.endpoint.0);
    let got: Vec<(u64, String, bool, bool)> = replies
        .into_iter()
        .map(|r| (r.endpoint.0, canon(&r.answer_xml), r.ok, r.partial))
        .collect();
    assert_eq!(got, baseline, "masked faults changed an answer");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn masked_faults_are_invisible(seed in 0u64..u64::MAX) {
        let db = ParkingDb::generate(params(), 42);
        let baseline = run(&db, None);
        prop_assert_eq!(baseline.len(), 12, "baseline run dropped replies");
        for (ep, _, ok, partial) in &baseline {
            prop_assert!(*ok && !partial, "baseline not exact at endpoint {}", ep);
        }

        let plan = FaultPlan::masked_from_seed(seed);
        let faulted = run(&db, Some(plan.clone()));
        prop_assert_eq!(
            faulted.len(),
            baseline.len(),
            "seed {seed}: reply count diverged under {plan:?}"
        );
        for (b, f) in baseline.iter().zip(faulted.iter()) {
            prop_assert!(
                f.2 && !f.3,
                "seed {}: endpoint {} not exact (ok={}, partial={}) under {:?}",
                seed, f.0, f.2, f.3, plan
            );
            prop_assert_eq!(
                b, f,
                "seed {}: answer diverged under {:?}",
                seed, plan
            );
        }
    }
}

proptest! {
    // Fewer cases than the DES sweep: each case is a wall-clock cluster
    // run. The chaos_smoke.sh seed sweeps still pin the whole set via
    // PROPTEST_RNG_SEED.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same masking property on the sharded event-loop runtime: the
    /// fault fabric wraps shard-routed sends exactly as it wraps per-site
    /// channels, so a masked plan must be invisible at 1 and 2 shards too
    /// (wall clock, every message framed). Delays are capped small to keep
    /// the blocking sequential poses fast.
    #[test]
    fn masked_faults_are_invisible_on_shards(seed in 0u64..u64::MAX) {
        let db = ParkingDb::generate(params(), 42);
        static BASELINE: OnceLock<Vec<(String, bool, bool)>> = OnceLock::new();
        let baseline = BASELINE.get_or_init(|| sharded_run(&db, None, 2));
        prop_assert_eq!(baseline.len(), 12, "baseline sharded run dropped replies");
        for (_, ok, partial) in baseline.iter() {
            prop_assert!(*ok && !partial, "sharded baseline not exact");
        }

        let plan = FaultPlan {
            max_extra_delay: 0.3,
            ..FaultPlan::masked_from_seed(seed)
        };
        for shards in [1usize, 2] {
            let faulted = sharded_run(&db, Some(plan.clone()), shards);
            prop_assert_eq!(
                &faulted, baseline,
                "seed {} at {} shards: sharded answers diverged under {:?}",
                seed, shards, plan
            );
        }
    }
}

// ---------------------------------------------------------------------
// Crash-then-restart equivalence (PR 8): recovery from the durable log
// is invisible to post-restart answers, and the restart-empty ablation
// proves the log is what does the healing.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Restart {
    /// No crash at all — the fault-free baseline.
    None,
    /// Crash with amnesia, restart recovered from snapshot + WAL tail.
    FromLog,
    /// Crash with amnesia, restart from an empty database.
    Empty,
}

/// One DES run of the standard 12-query mix with a mid-stream update on
/// site 2 (so the WAL tail is load-bearing) and, for the crash modes, a
/// site-2 outage across queries 4–6 under a masked fault plan. Returns
/// `(endpoint, canonical answer, ok, partial)` sorted by endpoint.
fn recovery_run(db: &ParkingDb, mode: Restart) -> Vec<(u64, String, bool, bool)> {
    let svc = db.service.clone();
    let carved = db.neighborhood_path(0, 1);
    let mut sim = DesCluster::new(CostModel::default());
    let (oa1, mut oa2) = make_agents(db);
    let backend = Arc::new(MemoryBackend::new());
    if mode != Restart::None {
        let (store, recovered) =
            SiteStore::open(Box::new(backend.clone()), DurabilityConfig::default())
                .unwrap();
        oa2.attach_durability(store, recovered, 0.0).unwrap();
        sim.set_fault_plan(FaultPlan::masked_from_seed(7));
    }
    svc.register_owner(&mut sim.dns, &db.root_path(), SiteAddr(1));
    svc.register_owner(&mut sim.dns, &carved, SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);

    // The update only ever exists on site 2 (and, in the crash modes, in
    // its WAL tail): post-restart answers can carry it only via replay.
    sim.schedule_message(
        25.0,
        SiteAddr(2),
        Message::Update {
            path: carved.child("block", "1").child("parkingSpace", "1"),
            fields: vec![("available".to_string(), "77".to_string())],
        },
    );
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

    if mode == Restart::None {
        sim.run_until(queries.len() as f64 * 50.0 + 300.0);
    } else {
        sim.run_until(175.0); // queries 0–3 answered
        drop(sim.remove_site(SiteAddr(2)).expect("site 2 present"));
        sim.run_until(325.0); // queries 4–6 hit the outage
        let mut oa2b = OrganizingAgent::new(SiteAddr(2), svc.clone(), config());
        if mode == Restart::FromLog {
            let (store, recovered) =
                SiteStore::open(Box::new(backend), DurabilityConfig::default())
                    .unwrap();
            let stats = oa2b.attach_durability(store, recovered, 325.0).unwrap();
            assert!(stats.snapshot_loaded, "no snapshot recovered");
            assert!(stats.records_replayed >= 1, "WAL tail not replayed");
        }
        sim.restart_site(oa2b);
        sim.run_until(queries.len() as f64 * 50.0 + 300.0);
    }

    let mut replies = sim.take_unclaimed_detailed();
    replies.sort_by_key(|r| r.endpoint.0);
    assert_eq!(replies.len(), queries.len(), "a query hung instead of completing");
    replies
        .into_iter()
        .map(|r| (r.endpoint.0, canon(&r.answer_xml), r.ok, r.partial))
        .collect()
}

/// Queries posed after the restart (7–11) must be byte-identical to the
/// fault-free, crash-free baseline when the replacement recovers from the
/// log — masked faults, a crash and a replay all invisible — and must
/// diverge when it restarts empty.
#[test]
fn crash_then_restart_from_log_is_invisible_after_recovery() {
    let db = ParkingDb::generate(params(), 42);
    let baseline = recovery_run(&db, Restart::None);
    for (ep, _, ok, partial) in &baseline {
        assert!(*ok && !partial, "baseline not exact at endpoint {ep}");
    }
    let tail = |v: &[(u64, String, bool, bool)]| {
        v.iter().filter(|r| r.0 >= 10_007).cloned().collect::<Vec<_>>()
    };

    let healed = recovery_run(&db, Restart::FromLog);
    assert_eq!(
        tail(&healed),
        tail(&baseline),
        "post-restart answers diverged from the crash-free baseline"
    );

    let amnesiac = recovery_run(&db, Restart::Empty);
    assert_ne!(
        tail(&amnesiac),
        tail(&baseline),
        "restart-empty matched the baseline — the ablation is vacuous"
    );
}
