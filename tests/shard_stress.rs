//! Sharded-runtime stress.
//!
//! * Shutdown: stopping shards mid-workload must never strand a client. A
//!   stopping shard drains its queued read tasks with `SiteDown`
//!   completions and fails its still-gathering queries out loud, and
//!   surviving shards degrade to `partial="true"` answers once their
//!   retries to the dead sites abandon.
//! * Migration storm: concurrent clients hammer a multi-site hierarchy
//!   while sensing agents stream updates and the administrator bounces a
//!   block between two sites — no deadlocks, no lost queries, every answer
//!   well-formed, exactly one owner at the end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb, QueryType, Workload};
use irisnet_core::{
    CacheMode, Message, OaConfig, OrganizingAgent, RetryPolicy, SensingAgent, Status,
};
use irisobs::MemRecorder;
use simnet::{Cluster, ShardConfig, ShardedCluster};

fn params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 3,
    }
}

/// Root site 1 (odd → shard 1) owns the region skeleton; leaf sites 2 and
/// 4 (even → shard 0) own one neighborhood each, so `stop_shard(0)` kills
/// exactly the leaves. Caching is off so every cross-neighborhood query
/// re-asks the leaves, and the root's bounded retries make asks to dead
/// sites abandon into partial answers instead of hanging.
fn build(workers_per_shard: usize) -> (ShardedCluster, Arc<MemRecorder>) {
    let db = ParkingDb::generate(params(), 7);
    let svc = db.service.clone();
    let mut cluster = ShardedCluster::with_config(
        svc.clone(),
        ShardConfig { shards: 2, workers_per_shard, force_wire: false },
    );
    let recorder = MemRecorder::new();
    cluster.set_recorder(recorder.clone());
    let root_cfg = OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.25, 1),
        ..OaConfig::default()
    };
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), root_cfg);
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    for (ni, addr) in [(0usize, SiteAddr(2)), (1, SiteAddr(4))] {
        let carved = db.neighborhood_path(0, ni);
        oa1.db_mut().set_status_subtree(&carved, Status::Complete).unwrap();
        oa1.db_mut().evict(&carved).unwrap();
        let leaf = OrganizingAgent::new(addr, svc.clone(), OaConfig::default());
        leaf.db_mut().bootstrap_owned(&db.master, &carved, true).unwrap();
        cluster.register_owner(&carved, addr);
        cluster.add_site(leaf);
    }
    cluster.add_site(oa1);
    cluster.start();
    (cluster, recorder)
}

/// Shared client body: warm-up queries must all succeed exactly; racing
/// queries must all arrive promptly as real, partial, or `SiteDown`
/// answers. Returns `(ok_exact, ok_partial, down)`.
fn client_body(
    cluster: &ShardedCluster,
    seed: u64,
    barrier: Arc<Barrier>,
    races: usize,
) -> std::thread::JoinHandle<(u64, u64, u64)> {
    let mut client = cluster.client();
    let db = ParkingDb::generate(params(), 7);
    std::thread::spawn(move || {
        let mut w = Workload::qw_mix(&db, 500 + seed);
        for _ in 0..5 {
            let r = client
                .pose_query(&w.next_query_of(QueryType::T3), Duration::from_secs(20))
                .expect("pre-stop query hung");
            assert!(r.ok && !r.partial, "pre-stop query degraded: {}", r.answer_xml);
        }
        barrier.wait();
        let (mut exact, mut partial, mut down) = (0u64, 0u64, 0u64);
        for i in 0..races {
            let q = if i % 2 == 0 {
                w.next_query_of(QueryType::T3)
            } else {
                w.next_query()
            };
            let start = Instant::now();
            let r = client
                .pose_query(&q, Duration::from_secs(30))
                .expect("query stranded by shard stop");
            assert!(
                start.elapsed() < Duration::from_secs(25),
                "reply only arrived near the timeout: not a prompt answer"
            );
            if r.ok {
                let doc = sensorxml::parse(&r.answer_xml).expect("answer parses");
                assert_eq!(doc.name(doc.root().unwrap()), "result");
                if r.partial {
                    partial += 1;
                } else {
                    exact += 1;
                }
            } else {
                assert!(
                    r.answer_xml.contains("site down"),
                    "unexpected failure shape: {}",
                    r.answer_xml
                );
                down += 1;
            }
        }
        (exact, partial, down)
    })
}

#[test]
fn stopping_a_shard_mid_workload_degrades_promptly() {
    let (mut cluster, recorder) = build(2);
    const CLIENTS: u64 = 4;
    const RACES: usize = 12;
    let barrier = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| client_body(&cluster, c, barrier.clone(), RACES))
        .collect();

    barrier.wait();
    // Kill the leaf shard mid-stream. Its sites answer everything already
    // queued (with `SiteDown` where needed) before the loop exits.
    let stopped = cluster.stop_shard(0);
    let mut stopped_addrs: Vec<u32> = stopped.iter().map(|a| a.addr.0).collect();
    stopped_addrs.sort_unstable();
    assert_eq!(stopped_addrs, vec![2, 4], "shard 0 owns the even leaf sites");

    let (mut exact, mut partial, mut down) = (0u64, 0u64, 0u64);
    for h in handles {
        let (e, p, d) = h.join().unwrap();
        exact += e;
        partial += p;
        down += d;
    }
    assert_eq!(exact + partial + down, CLIENTS * RACES as u64);
    // Non-vacuity: the surviving root shard kept answering, and the dead
    // leaves were actually observed — post-stop cross-neighborhood queries
    // abandon their asks and degrade to partial.
    assert!(
        partial + down > 0,
        "no query ever observed the stopped shard (exact={exact})"
    );

    // The stopped leaves are unrouted: a scrape fails fast instead of
    // timing out, while the surviving root shard still answers one.
    assert!(
        cluster.scrape(SiteAddr(2), irisobs::WHAT_HEALTH).is_none(),
        "scrape of a stopped site must fail fast"
    );
    assert!(
        cluster.scrape(SiteAddr(1), irisobs::WHAT_HEALTH).is_some(),
        "surviving shard stopped answering scrapes"
    );

    let remaining = cluster.shutdown();
    assert_eq!(remaining.len(), 1, "only the root site should remain");
    assert_eq!(remaining[0].addr, SiteAddr(1));
    // The root abandoned its asks to the dead leaves rather than leaking
    // them; fail_pending on stop guarantees nothing is still gathering.
    assert!(
        remaining[0].stats.asks_abandoned > 0,
        "retries to dead sites never abandoned"
    );

    // The per-shard runtime series are keyed by full name — assert on the
    // `(name, snapshot)` pairs rather than positional indexing, which
    // breaks whenever a shard gains or loses a series.
    let snap = recorder.metrics().snapshot();
    for shard in 0..2usize {
        let prefix = format!("runtime.shard{shard}.");
        let series = snap.histograms_with_prefix(0, &prefix);
        let wait = series
            .iter()
            .find(|(name, _)| *name == format!("{prefix}mailbox_wait"))
            .unwrap_or_else(|| panic!("{prefix}mailbox_wait series missing"));
        assert!(wait.1.count > 0, "shard {shard} processed no messages");
        assert!(
            series.iter().any(|(name, _)| *name == format!("{prefix}mailbox_depth")),
            "{prefix}mailbox_depth series missing"
        );
    }
}

#[test]
fn full_shutdown_races_clients_without_stranding_them() {
    let (cluster, _recorder) = build(2);
    const CLIENTS: u64 = 4;
    const RACES: usize = 20;
    let barrier = Arc::new(Barrier::new(CLIENTS as usize + 1));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| client_body(&cluster, c, barrier.clone(), RACES))
        .collect();

    barrier.wait();
    let _agents = cluster.shutdown();

    let (mut exact, mut partial, mut down) = (0u64, 0u64, 0u64);
    for h in handles {
        let (e, p, d) = h.join().unwrap();
        exact += e;
        partial += p;
        down += d;
    }
    assert_eq!(exact + partial + down, CLIENTS * RACES as u64);
    // The cluster is gone by the time the dust settles, so the tail of
    // every client's stream must have hit the fail-fast path.
    assert!(down > 0, "no query ever observed the shutdown");
}

/// Seven sites — top, two cities, four neighborhoods — under six client
/// threads (one `ShardClient` each), a sensing agent streaming 300 updates
/// to the owners, and a block bounced between a neighborhood site and a
/// city site six times.
fn migration_storm(config: ShardConfig) {
    let db = ParkingDb::generate(
        DbParams { cities: 2, neighborhoods_per_city: 2, blocks_per_neighborhood: 4, spaces_per_block: 3 },
        99,
    );
    let svc = db.service.clone();
    let mut cluster = ShardedCluster::with_config(svc.clone(), config.clone());

    // Hierarchical placement.
    let top = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
    top.db_mut().bootstrap_owned(&db.master, &db.root_path(), false).unwrap();
    top.db_mut()
        .bootstrap_owned(&db.master, &db.root_path().child("state", "PA"), false)
        .unwrap();
    top.db_mut().bootstrap_owned(&db.master, &db.county_path(), false).unwrap();
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.add_site(top);
    let mut next = 2u32;
    for ci in 0..db.params.cities {
        let a = OrganizingAgent::new(SiteAddr(next), svc.clone(), OaConfig::default());
        a.db_mut().bootstrap_owned(&db.master, &db.city_path(ci), false).unwrap();
        cluster.register_owner(&db.city_path(ci), SiteAddr(next));
        cluster.add_site(a);
        next += 1;
    }
    let mut nbhd_sites = Vec::new();
    for ci in 0..db.params.cities {
        for ni in 0..db.params.neighborhoods_per_city {
            let a = OrganizingAgent::new(SiteAddr(next), svc.clone(), OaConfig::default());
            a.db_mut()
                .bootstrap_owned(&db.master, &db.neighborhood_path(ci, ni), true)
                .unwrap();
            cluster.register_owner(&db.neighborhood_path(ci, ni), SiteAddr(next));
            cluster.add_site(a);
            nbhd_sites.push(SiteAddr(next));
            next += 1;
        }
    }
    cluster.start();

    let completed = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Updater: every space flips repeatedly, each update sent to the
        // neighborhood site that owns it (segments: usRegion/state/county/
        // city/neighborhood/...).
        s.spawn(|| {
            let mut sa = SensingAgent::new(db.all_space_paths(), nbhd_sites[0], 5);
            for _ in 0..300 {
                let Some((_, msg)) = sa.next_update() else { continue };
                let Message::Update { path, .. } = &msg else { unreachable!() };
                let seg = path.segments();
                let ci = usize::from(seg[3].1 != "Pittsburgh");
                let ni = seg[4].1.trim_start_matches('n').parse::<usize>().unwrap() - 1;
                cluster.send(nbhd_sites[ci * 2 + ni], msg);
            }
        });

        // Migrator: bounce a block between its neighborhood and a city site.
        s.spawn(|| {
            let block = db.block_path(0, 0, 0);
            let owners = [nbhd_sites[0], SiteAddr(2)];
            for round in 0..6 {
                let (from, to) = (owners[round % 2], owners[(round + 1) % 2]);
                cluster.send(from, Message::Delegate { path: block.clone(), to });
                std::thread::sleep(Duration::from_millis(20));
            }
        });

        // Clients: mixed queries, one handle per thread.
        for c in 0..6u64 {
            let mut client = cluster.client();
            let (db, completed, failures) = (&db, &completed, &failures);
            s.spawn(move || {
                let mut w = Workload::qw_mix(db, 1000 + c);
                for i in 0..40 {
                    let q = if i % 7 == 0 {
                        w.next_query_of(QueryType::T4)
                    } else {
                        w.next_query()
                    };
                    match client.pose_query(&q, Duration::from_secs(20)) {
                        Some(r) if r.ok => {
                            let doc = sensorxml::parse(&r.answer_xml).expect("answer parses");
                            assert_eq!(doc.name(doc.root().unwrap()), "result");
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let failed = failures.load(Ordering::Relaxed);
    assert_eq!(failed, 0, "{failed} queries failed at {config:?}");
    assert_eq!(completed.load(Ordering::Relaxed), 240);

    let agents = cluster.shutdown();
    let updates: u64 = agents
        .iter()
        .map(|a| a.stats.updates_applied + a.stats.updates_forwarded)
        .sum();
    assert!(updates >= 300, "updates processed: {updates}");
    // The bounced block ended up owned by exactly one site.
    let block = db.block_path(0, 0, 0);
    let owners = agents
        .iter()
        .filter(|a| a.db().status_at(&block) == Some(Status::Owned))
        .count();
    assert_eq!(owners, 1, "exactly one owner after migration storm at {config:?}");
}

#[test]
fn concurrent_clients_updates_and_migrations() {
    // One shard (and read-worker pool) per site, then every site
    // multiplexed onto a single loop with inline reads.
    migration_storm(ShardConfig { shards: 7, workers_per_shard: 2, force_wire: false });
    migration_storm(ShardConfig { shards: 1, workers_per_shard: 0, force_wire: false });
}
