//! Worker-count and shard-count equivalence: neither the read-worker pool
//! nor the way sites are multiplexed onto shard event loops may change
//! *what* a site answers, only how fast. The same t1/t3 query mix, posed
//! in the same order against identically bootstrapped clusters, must
//! produce byte-identical canonical answers for worker counts 0, 1, 2 and
//! 8 at one shard per site, for shard counts 1, 2 and 8 (with and without
//! forced wire framing) — and must match the serial discrete-event
//! simulator, which doubles as the correctness oracle.

#[path = "support/cluster.rs"]
mod cluster;

use cluster::{boot, carve, flagged, mix, parking_db, sharded, Runtime, DES};
use irisnet_core::OaConfig;
use simnet::Target;

/// The scenario: the 24-query mix (a t3 every third query, so the carved
/// neighborhood is fetched and cached), posed through self-starting
/// routing. Every reply must be exact.
fn answers(rt: Runtime) -> Vec<String> {
    let db = parking_db(3);
    let sites = carve(&db, OaConfig::default(), OaConfig::default());
    let mut cluster = boot(rt, &db, sites, None);
    let replies = cluster.pose_each(Target::Routed, &mix(&db, 24, 3));
    cluster.finish();
    flagged(&replies)
        .into_iter()
        .zip(mix(&db, 24, 3))
        .map(|((answer, ok, partial), q)| {
            assert!(ok && !partial, "query failed on {rt:?}: {q}: {answer}");
            answer
        })
        .collect()
}

/// Every row must answer as `baseline` does.
fn assert_rows_match(baseline: &[String], rows: &[Runtime]) {
    assert_eq!(baseline.len(), 24);
    for &rt in rows {
        assert_eq!(
            baseline,
            answers(rt),
            "answers on {rt:?} diverged from the baseline"
        );
    }
}

#[test]
fn answers_identical_across_worker_counts() {
    // One shard per site: each site's read workers are its own pool.
    let serial = answers(sharded(2, 0, false));
    assert_rows_match(
        &serial,
        &[
            sharded(2, 1, false),
            sharded(2, 2, false),
            sharded(2, 8, false),
        ],
    );
}

#[test]
fn answers_identical_across_shard_counts() {
    // Inline reads on the shard loop (zero workers) are the serial path;
    // the forced-wire row frames every send, proving the codec invisible.
    let serial = answers(sharded(2, 0, false));
    assert_rows_match(
        &serial,
        &[
            sharded(1, 1, false),
            sharded(2, 1, false),
            sharded(8, 1, false),
            sharded(2, 1, true),
        ],
    );
}

#[test]
fn sharded_answers_match_des_oracle() {
    let des = answers(DES);
    assert_rows_match(&des, &[sharded(2, 1, true), sharded(2, 4, false)]);
}
