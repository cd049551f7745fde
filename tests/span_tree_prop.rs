//! Trace well-formedness under chaos.
//!
//! Every DES run — including runs under randomized masked fault plans
//! (drops, duplicates, delays) with retries enabled — must yield a span
//! stream that assembles into well-formed trees: exactly one root per
//! user query, no orphans, every parent recorded before (and timestamped
//! no later than) its children. Faults may *reshape* a trace (extra Retry
//! spans, re-asked subqueries) but must never corrupt its causality.

use std::sync::Arc;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{
    CacheMode, Endpoint, Message, OaConfig, OrganizingAgent, RetryPolicy, Status,
};
use irisobs::{check_well_formed, Forest, MemRecorder, SpanKind};
use proptest::prelude::*;
use simnet::{CostModel, DesCluster, FaultPlan};

fn params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 3,
    }
}

/// Caching off so every cross-site query re-asks the remote owner; a
/// generous retry budget so masked drop rates cannot exhaust an ask.
fn config() -> OaConfig {
    OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.5, 10),
        ..OaConfig::default()
    }
}

fn query_mix(db: &ParkingDb) -> Vec<String> {
    let mut t1 = Workload::uniform(db, QueryType::T1, 7);
    let mut t3 = Workload::uniform(db, QueryType::T3, 11);
    (0..12)
        .map(|i| if i % 3 == 0 { t3.next_query() } else { t1.next_query() })
        .collect()
}

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

/// One DES run with a shared [`MemRecorder`]; returns the assembled,
/// invariant-checked forest plus the number of user replies delivered.
fn run_traced(db: &ParkingDb, plan: Option<FaultPlan>) -> (Forest, usize) {
    let mut sim = DesCluster::new(CostModel::default());
    let rec = MemRecorder::new();
    sim.set_recorder(rec.clone() as Arc<dyn irisobs::Recorder>);
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
    sim.run_until(queries.len() as f64 * 50.0 + 300.0);
    let replies = sim.take_unclaimed_detailed().len();
    let spans = rec.take_spans();
    let forest = check_well_formed(&spans).expect("spans form a well-formed forest");
    (forest, replies)
}

#[test]
fn fault_free_run_traces_every_query() {
    let db = ParkingDb::generate(params(), 42);
    let (forest, replies) = run_traced(&db, None);
    assert_eq!(replies, 12);
    assert_eq!(forest.queries.len(), 12, "one trace tree per user query");
    assert!(forest.transfers.is_empty(), "no migrations in this workload");
    for tree in &forest.queries {
        let kinds: Vec<SpanKind> = tree.nodes.iter().map(|n| n.span.kind).collect();
        assert_eq!(tree.nodes[0].span.kind, SpanKind::UserQuery);
        assert!(kinds.contains(&SpanKind::Execute), "query never executed");
        assert!(kinds.contains(&SpanKind::Finalize), "query never finalized");
        // Fault-free: no retries anywhere.
        assert!(!kinds.contains(&SpanKind::Retry));
        // Every Ask got exactly one SubAnswer.
        let asks = kinds.iter().filter(|k| **k == SpanKind::Ask).count();
        let answers = kinds.iter().filter(|k| **k == SpanKind::SubAnswer).count();
        assert_eq!(asks, answers, "ask/answer mismatch in fault-free run");
    }
}

#[test]
fn forced_faults_keep_traces_well_formed_and_show_retries() {
    let db = ParkingDb::generate(params(), 42);
    let plan = FaultPlan {
        drop_prob: 0.2,
        dup_prob: 0.2,
        delay_prob: 0.3,
        max_extra_delay: 1.5,
        ..FaultPlan::masked_from_seed(77)
    };
    let (forest, replies) = run_traced(&db, Some(plan));
    assert_eq!(replies, 12);
    assert_eq!(forest.queries.len(), 12);
    let retries: usize = forest
        .queries
        .iter()
        .flat_map(|t| t.nodes.iter())
        .filter(|n| n.span.kind == SpanKind::Retry)
        .count();
    assert!(retries > 0, "forced drops left no Retry spans in the traces");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any masked fault plan: traces assemble, invariants hold, and the
    /// forest still contains one tree per query with a terminal Finalize.
    #[test]
    fn chaos_traces_stay_well_formed(seed in 0u64..u64::MAX) {
        let db = ParkingDb::generate(params(), 42);
        let plan = FaultPlan::masked_from_seed(seed);
        let (forest, replies) = run_traced(&db, Some(plan.clone()));
        prop_assert_eq!(replies, 12, "seed {}: lost replies under {:?}", seed, plan);
        prop_assert_eq!(
            forest.queries.len(), 12,
            "seed {}: expected 12 trace trees under {:?}", seed, plan
        );
        for tree in &forest.queries {
            let finalizes = tree
                .nodes
                .iter()
                .filter(|n| n.span.kind == SpanKind::Finalize)
                .count();
            prop_assert!(
                finalizes >= 1,
                "seed {}: query {:?} has no Finalize span",
                seed, tree.query_key()
            );
        }
    }
}
