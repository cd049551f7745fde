//! Trace well-formedness under chaos.
//!
//! Every DES run — including runs under randomized masked fault plans
//! (drops, duplicates, delays) with retries enabled — must yield a span
//! stream that assembles into well-formed trees: exactly one root per
//! user query, no orphans, every parent recorded before (and timestamped
//! no later than) its children. Faults may *reshape* a trace (extra Retry
//! spans, re-asked subqueries) but must never corrupt its causality.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{boot, carve, mix, parking_db, DES};
use irisdns::SiteAddr;
use irisnet_core::{CacheMode, OaConfig, RetryPolicy};
use irisobs::{check_well_formed, Forest, MemRecorder, SpanKind};
use proptest::prelude::*;
use simnet::{FaultPlan, Reply, Target};

/// Caching off so every cross-site query re-asks the remote owner; a
/// generous retry budget so masked drop rates cannot exhaust an ask.
fn config() -> OaConfig {
    OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.5, 10),
        ..OaConfig::default()
    }
}

/// The 12-query mix at site 1 on the DES under `plan`, if any, with every
/// span recorded: returns the assembled, invariant-checked forest plus
/// the number of user replies delivered.
fn forest_under(plan: Option<FaultPlan>) -> (Forest, usize) {
    let db = parking_db(3);
    let rec = MemRecorder::new();
    let mut cluster = boot(DES, &db, carve(&db, config(), config()), Some(rec.clone()));
    if let Some(p) = plan {
        cluster.set_fault_plan(p);
    }
    let replies = cluster.pose_each(Target::Site(SiteAddr(1)), &mix(&db, 12, 3));
    cluster.finish();
    let delivered = replies.iter().filter(|r| **r != Reply::default()).count();
    let spans = rec.take_spans();
    let forest = check_well_formed(&spans).expect("spans form a well-formed forest");
    (forest, delivered)
}

#[test]
fn fault_free_run_traces_every_query() {
    let (forest, replies) = forest_under(None);
    assert_eq!(replies, 12);
    assert_eq!(forest.queries.len(), 12, "one trace tree per user query");
    assert!(
        forest.transfers.is_empty(),
        "no migrations in this workload"
    );
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
    let plan = FaultPlan {
        drop_prob: 0.2,
        dup_prob: 0.2,
        delay_prob: 0.3,
        max_extra_delay: 1.5,
        ..FaultPlan::masked_from_seed(77)
    };
    let (forest, replies) = forest_under(Some(plan));
    assert_eq!(replies, 12);
    assert_eq!(forest.queries.len(), 12);
    let retries: usize = forest
        .queries
        .iter()
        .flat_map(|t| t.nodes.iter())
        .filter(|n| n.span.kind == SpanKind::Retry)
        .count();
    assert!(
        retries > 0,
        "forced drops left no Retry spans in the traces"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any masked fault plan: traces assemble, invariants hold, and the
    /// forest still contains one tree per query with a terminal Finalize.
    #[test]
    fn chaos_traces_stay_well_formed(seed in 0u64..u64::MAX) {
        let plan = FaultPlan::masked_from_seed(seed);
        let (forest, replies) = forest_under(Some(plan.clone()));
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
