//! Chaos equivalence: masked faults must be invisible.
//!
//! For random seeds, a DES run under `FaultPlan::masked_from_seed` —
//! per-link drops, duplicates and delays, but no crashes — with ask-level
//! retries enabled must produce canonical answers byte-identical to the
//! zero-fault run of the same workload. Every fault decision is a pure
//! function of the seed, so any failure replays exactly: the assertion
//! message carries the seed and the full plan.

#[path = "support/cluster.rs"]
mod cluster;

use std::sync::{Arc, OnceLock};

use cluster::{boot, carve, carved, flagged, mix, parking_db, sharded, Runtime, DES};
use irisdns::SiteAddr;
use irisnet_core::{
    CacheMode, DurabilityConfig, MemoryBackend, Message, OaConfig, OrganizingAgent, RetryPolicy,
    SiteStore,
};
use proptest::prelude::*;
use simnet::{FaultCounts, FaultPlan, Target};

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

const SITE1: Target = Target::Site(SiteAddr(1));

/// What one run of the scenario leaves behind.
struct Run {
    /// `(canonical answer, ok, partial)` per query, in posing order.
    replies: Vec<(String, bool, bool)>,
    counts: FaultCounts,
    agents: Vec<OrganizingAgent>,
}

/// The scenario: the 12-query mix posed at site 1 under `plan`, if any.
/// Its t3 queries span both neighborhoods and therefore cross the faulted
/// site-1 ↔ site-2 link every time.
fn under(rt: Runtime, plan: Option<FaultPlan>) -> Run {
    let db = parking_db(3);
    let mut cluster = boot(rt, &db, carve(&db, config(), config()), None);
    if let Some(p) = plan {
        cluster.set_fault_plan(p);
    }
    let replies = flagged(&cluster.pose_each(SITE1, &mix(&db, 12, 3)));
    Run {
        replies,
        counts: cluster.fault_counts(),
        agents: cluster.finish(),
    }
}

/// Guards against the property above passing vacuously: under a plan with
/// forced drop/dup/delay rates the run must actually drop, duplicate and
/// delay messages — and the retry machinery must visibly fire — while the
/// answers still match the fault-free baseline.
#[test]
fn faults_and_retries_actually_fire() {
    let baseline = under(DES, None).replies;
    let plan = FaultPlan {
        drop_prob: 0.2,
        dup_prob: 0.2,
        delay_prob: 0.3,
        max_extra_delay: 1.5,
        ..FaultPlan::masked_from_seed(77)
    };
    let run = under(DES, Some(plan));
    let counts = run.counts;
    assert!(counts.dropped > 0, "no drops injected: {counts:?}");
    assert!(counts.duplicated > 0, "no duplicates injected: {counts:?}");
    assert!(counts.delayed > 0, "no delays injected: {counts:?}");
    let site1 = &run.agents[0];
    assert_eq!(site1.addr, SiteAddr(1));
    assert!(
        site1.stats.retries_sent > 0,
        "drops never triggered a retry"
    );
    assert_eq!(site1.stats.asks_abandoned, 0);
    assert_eq!(run.replies, baseline, "masked faults changed an answer");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn masked_faults_are_invisible(seed in 0u64..u64::MAX) {
        let baseline = under(DES, None).replies;
        prop_assert_eq!(baseline.len(), 12, "baseline run dropped replies");
        for (i, (_, ok, partial)) in baseline.iter().enumerate() {
            prop_assert!(*ok && !partial, "baseline not exact at query {}", i);
        }

        let plan = FaultPlan::masked_from_seed(seed);
        let faulted = under(DES, Some(plan.clone())).replies;
        for (i, (b, f)) in baseline.iter().zip(faulted.iter()).enumerate() {
            prop_assert!(
                f.1 && !f.2,
                "seed {}: query {} not exact (ok={}, partial={}) under {:?}",
                seed, i, f.1, f.2, plan
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
        static BASELINE: OnceLock<Vec<(String, bool, bool)>> = OnceLock::new();
        let baseline = BASELINE.get_or_init(|| under(sharded(2, 1, true), None).replies);
        prop_assert_eq!(baseline.len(), 12, "baseline sharded run dropped replies");
        for (_, ok, partial) in baseline.iter() {
            prop_assert!(*ok && !partial, "sharded baseline not exact");
        }

        let plan = FaultPlan {
            max_extra_delay: 0.3,
            ..FaultPlan::masked_from_seed(seed)
        };
        for rt in [sharded(1, 1, true), sharded(2, 1, true)] {
            let faulted = under(rt, Some(plan.clone())).replies;
            prop_assert_eq!(
                &faulted, baseline,
                "seed {} on {:?}: sharded answers diverged under {:?}",
                seed, rt, plan
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

/// One DES run of the standard 12-query mix with an update on site 2
/// after the first query (so the WAL tail is load-bearing) and, for the
/// crash modes, a site-2 outage across queries 4–6 under a masked fault
/// plan. Returns `(canonical answer, ok, partial)` in posing order.
fn recovery_run(mode: Restart) -> Vec<(String, bool, bool)> {
    let db = parking_db(3);
    let [oa1, mut oa2] = carve(&db, config(), config());
    let backend = Arc::new(MemoryBackend::new());
    let attach = |oa: &mut OrganizingAgent| {
        let (store, recovered) =
            SiteStore::open(Box::new(backend.clone()), DurabilityConfig::default()).unwrap();
        oa.attach_durability(store, recovered, 0.0).unwrap()
    };
    if mode != Restart::None {
        attach(&mut oa2);
    }
    let mut cluster = boot(DES, &db, [oa1, oa2], None);
    if mode != Restart::None {
        cluster.set_fault_plan(FaultPlan::masked_from_seed(7));
    }

    let queries = mix(&db, 12, 3);
    let mut replies = cluster.pose_each(SITE1, &queries[..1]);
    // The update only ever exists on site 2 (and, in the crash modes, in
    // its WAL tail): post-restart answers can carry it only via replay.
    cluster.send(
        SiteAddr(2),
        Message::Update {
            path: carved(&db).child("block", "1").child("parkingSpace", "1"),
            fields: vec![("available".to_string(), "77".to_string())],
        },
    );
    replies.extend(cluster.pose_each(SITE1, &queries[1..4]));
    if mode == Restart::None {
        replies.extend(cluster.pose_each(SITE1, &queries[4..]));
    } else {
        drop(cluster.stop_site(SiteAddr(2)).expect("site 2 present"));
        replies.extend(cluster.pose_each(SITE1, &queries[4..7])); // the outage
        let mut oa2b = OrganizingAgent::new(SiteAddr(2), db.service.clone(), config());
        if mode == Restart::FromLog {
            let stats = attach(&mut oa2b);
            assert!(stats.snapshot_loaded, "no snapshot recovered");
            assert!(stats.records_replayed >= 1, "WAL tail not replayed");
        }
        cluster.restart_site(oa2b);
        replies.extend(cluster.pose_each(SITE1, &queries[7..]));
    }
    cluster.finish();
    flagged(&replies)
}

/// Queries posed after the restart (7–11) must be byte-identical to the
/// fault-free, crash-free baseline when the replacement recovers from the
/// log — masked faults, a crash and a replay all invisible — and must
/// diverge when it restarts empty.
#[test]
fn crash_then_restart_from_log_is_invisible_after_recovery() {
    let baseline = recovery_run(Restart::None);
    for (i, (_, ok, partial)) in baseline.iter().enumerate() {
        assert!(*ok && !partial, "baseline not exact at query {i}");
    }
    let tail = |v: &[(String, bool, bool)]| v[7..].to_vec();

    let healed = recovery_run(Restart::FromLog);
    assert_eq!(
        tail(&healed),
        tail(&baseline),
        "post-restart answers diverged from the crash-free baseline"
    );

    let amnesiac = recovery_run(Restart::Empty);
    assert_ne!(
        tail(&amnesiac),
        tail(&baseline),
        "restart-empty matched the baseline — the ablation is vacuous"
    );
}
