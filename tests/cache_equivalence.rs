//! PR 6 correctness oracle: eviction policy must never change *what* the
//! system answers — only what stays resident. The same query mix, posed
//! in the same order against identically bootstrapped clusters, must
//! produce byte-identical canonical answers under every eviction policy
//! (budgeted LRU, heat-weighted, segment-age, TTL) as under
//! `KeepForever`, on the live (threaded, wall-clock) sharded runtime with
//! a multi-worker read pool and on the serial DES oracle alike. Eviction demotes to incomplete ID
//! stubs, so a post-eviction query transparently refills by subquery.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{boot, carve, flagged, mix, parking_db, sharded, Runtime, DES};
use irisnet_core::{CacheBudget, CacheStats, EvictionPolicy, OaConfig};
use simnet::{cache_stats_total, Target};

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
            EvictionPolicy::SegmentAge {
                budget: tight,
                max_age: f64::INFINITY,
            },
        ),
        ("ttl-50ms", EvictionPolicy::Ttl { max_age: 0.05 }),
    ]
}

/// The scenario: a 36-query t1/t3 mix with repeats (t3 at every other
/// query crosses into the carved neighborhood, so site 1 — where `policy`
/// runs — keeps caching, re-using and, under a tight budget, evicting its
/// units). Returns the canonical answers and the cluster's cache totals.
fn answers(rt: Runtime, policy: EvictionPolicy) -> (Vec<String>, CacheStats) {
    let db = parking_db(3);
    let cfg1 = OaConfig {
        eviction: policy,
        ..OaConfig::default()
    };
    let sites = carve(&db, cfg1, OaConfig::default());
    let mut cluster = boot(rt, &db, sites, None);
    let replies = cluster.pose_each(Target::Routed, &mix(&db, 36, 2));
    let stats = cache_stats_total(&cluster.finish());
    let answers = flagged(&replies)
        .into_iter()
        .map(|(answer, ok, _)| {
            assert!(ok, "query failed on {rt:?} under {policy:?}: {answer}");
            answer
        })
        .collect();
    (answers, stats)
}

#[test]
fn answers_byte_identical_across_policies_live_and_des() {
    let (baseline, _) = answers(sharded(2, 0, false), EvictionPolicy::KeepForever);
    assert_eq!(baseline.len(), 36);
    for (name, policy) in policies() {
        for rt in [sharded(2, 2, false), DES] {
            let (got, stats) = answers(rt, policy);
            assert_eq!(baseline, got, "answers on {rt:?} diverged under {name}");
            // Budgeted policies must actually exercise eviction in the DES
            // run (virtual time also makes the TTL fire deterministically).
            // Evictions may differ between the threaded run and the DES
            // (wall clock vs virtual time); answers may not.
            if rt == DES && !matches!(policy, EvictionPolicy::KeepForever) {
                assert!(
                    stats.evictions > 0,
                    "{name}: policy never evicted — test lost its teeth"
                );
            }
        }
    }
}

#[test]
fn enforcement_work_is_amortized_o_evicted_under_workers() {
    // Workers ≥ 2 (the PR 2 read pool), a budget that forces constant
    // churn: total entries examined by all sweeps must stay within a
    // small constant of the work actually done (evictions + admission
    // rejects + fills), not O(tracked × queries) as the old full-scan
    // enforce was.
    let (_, cs) = answers(
        sharded(2, 2, false),
        EvictionPolicy::HeatWeighted {
            budget: CacheBudget::nodes(20),
        },
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
