//! The PR 8 recovery test plane: crash → restart now replays snapshot +
//! WAL tail instead of starting empty.
//!
//! Scenarios, across both substrates:
//!
//! * **DES** — deterministic crash/restart: a site is removed mid-run
//!   (amnesia — the agent is dropped), queries degrade to
//!   `partial="true"`, then a replacement recovers from the durable
//!   backend and the same queries heal, including an update that only
//!   ever lived in the WAL tail. A restart-from-log vs restart-empty
//!   ablation pins down that it is the log doing the healing.
//! * **Sharded** — with a `File` backend a stopped site is restarted from
//!   snapshot + WAL tail through the runtime's mid-run
//!   `stop_site`/`restart_site` attach/detach envelopes,
//!   `check_invariants()` holds on the recovered database, and
//!   previously-partial answers heal byte-identically to the DES oracle.
//! * **Ablation** — durability on vs off is invisible to answers while
//!   the site is up: byte-identical replies.

use std::sync::Arc;
use std::time::Duration;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb};
use irisnet_core::{
    CacheMode, DurabilityConfig, Endpoint, FileBackend, IdPath, MemoryBackend, Message,
    OaConfig, OrganizingAgent, RecoveryStats, RetryPolicy, SiteStore, Status,
    StorageBackend,
};
use simnet::{
    CostModel, DesCluster, FaultPlan, ShardConfig, ShardedCluster, UnclaimedReply,
};

const Q_BOTH: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
    /city[@id='Pittsburgh']/neighborhood[@id='n1' or @id='n2']/block[@id='1']/parkingSpace";

fn params() -> DbParams {
    DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 2,
        spaces_per_block: 2,
    }
}

fn config() -> OaConfig {
    OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.5, 2),
        ..OaConfig::default()
    }
}

/// Threaded-runtime config: real-time retries, so partial answers arrive fast.
fn threaded_config() -> OaConfig {
    OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(0.05, 2),
        ..OaConfig::default()
    }
}

fn canon(xml: &str) -> String {
    let doc = sensorxml::parse(xml).expect("answer parses");
    sensorxml::canonical_string(&doc, doc.root().unwrap())
}

/// Site 1 owns the region with the carved neighborhood demoted + evicted;
/// site 2 owns the carved neighborhood (the standard two-site carve).
fn carve(
    db: &ParkingDb,
    carved: &IdPath,
    cfg: OaConfig,
) -> (OrganizingAgent, OrganizingAgent) {
    let svc = db.service.clone();
    let oa1 = OrganizingAgent::new(SiteAddr(1), svc.clone(), cfg.clone());
    oa1.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    oa1.db_mut().set_status_subtree(carved, Status::Complete).unwrap();
    oa1.db_mut().evict(carved).unwrap();
    let oa2 = OrganizingAgent::new(SiteAddr(2), svc, cfg);
    oa2.db_mut().bootstrap_owned(&db.master, carved, true).unwrap();
    (oa1, oa2)
}

/// A space under the carved neighborhood whose value we update mid-run:
/// recovering it proves the WAL *tail* replays, not just the snapshot.
fn carved_space(db: &ParkingDb) -> IdPath {
    db.neighborhood_path(0, 1).child("block", "1").child("parkingSpace", "1")
}

fn update_msg(path: &IdPath) -> Message {
    Message::Update {
        path: path.clone(),
        fields: vec![("available".to_string(), "77".to_string())],
    }
}

/// Opens (or re-opens) a store over `backend` and attaches it to the
/// agent, returning the recovery stats.
fn attach_backend(
    oa: &mut OrganizingAgent,
    backend: Box<dyn StorageBackend>,
    now: f64,
) -> RecoveryStats {
    let (store, recovered) =
        SiteStore::open(backend, DurabilityConfig::default()).unwrap();
    oa.attach_durability(store, recovered, now).unwrap()
}

// ---------------------------------------------------------------------
// DES: deterministic crash/restart + the restart-empty ablation
// ---------------------------------------------------------------------

/// Runs the DES crash/restart scenario over `backend`. `restart` builds
/// the replacement agent at virtual time 150 (recovered from the backend,
/// or empty for the ablation). Returns the three replies in schedule
/// order: pre-crash, during-crash, post-restart.
fn des_crash_restart(
    backend: Arc<MemoryBackend>,
    restart: impl FnOnce(&ParkingDb) -> OrganizingAgent,
) -> (UnclaimedReply, UnclaimedReply, UnclaimedReply) {
    let db = ParkingDb::generate(params(), 42);
    let carved = db.neighborhood_path(0, 1);
    let svc = db.service.clone();

    let mut sim = DesCluster::new(CostModel::default());
    let (oa1, mut oa2) = carve(&db, &carved, config());
    let stats = attach_backend(&mut oa2, Box::new(backend), 0.0);
    assert_eq!(stats, RecoveryStats::default(), "fresh backend had state");
    sim.dns.register(&svc.dns_name(&db.root_path()), SiteAddr(1));
    sim.dns.register(&svc.dns_name(&carved), SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);
    sim.set_fault_plan(FaultPlan::reliable());

    let pose = |sim: &mut DesCluster, at: f64, ep: u64| {
        sim.schedule_message(
            at,
            SiteAddr(1),
            Message::UserQuery { qid: ep, text: Q_BOTH.to_string(), endpoint: Endpoint(ep) },
        );
    };

    // Mid-run update lands in the WAL tail (after the attach snapshot).
    sim.schedule_message(5.0, SiteAddr(2), update_msg(&carved_space(&db)));
    pose(&mut sim, 10.0, 1);
    sim.run_until(50.0);

    // Crash with amnesia: the agent (and its in-memory database) is gone;
    // only the durable backend survives.
    drop(sim.remove_site(SiteAddr(2)).expect("site 2 present"));
    pose(&mut sim, 60.0, 2);
    sim.run_until(150.0);

    // Restart the replacement under test.
    sim.restart_site(restart(&db));
    pose(&mut sim, 200.0, 3);
    sim.run_until(400.0);

    let mut replies = sim.take_unclaimed_detailed();
    replies.sort_by_key(|r| r.endpoint.0);
    assert_eq!(replies.len(), 3, "a query hung instead of completing");
    let mut it = replies.into_iter();
    (it.next().unwrap(), it.next().unwrap(), it.next().unwrap())
}

#[test]
fn des_crash_restart_replays_snapshot_plus_wal_tail() {
    let backend = Arc::new(MemoryBackend::new());
    let b = backend.clone();
    let (pre, during, post) = des_crash_restart(backend, move |db| {
        let mut oa2 = OrganizingAgent::new(SiteAddr(2), db.service.clone(), config());
        let stats = attach_backend(&mut oa2, Box::new(b), 150.0);
        assert!(stats.snapshot_loaded, "no snapshot recovered");
        assert!(stats.records_replayed >= 1, "WAL tail not replayed");
        assert_eq!(stats.torn_bytes, 0);
        // The recovered database is a valid fragment of the master.
        oa2.db().check_invariants(&db.master).expect("recovered invariants");
        oa2
    });

    assert!(pre.ok && !pre.partial, "pre-crash query not exact");
    assert!(
        pre.answer_xml.contains("77"),
        "pre-crash answer missing the update: {}",
        pre.answer_xml
    );
    assert!(during.ok && during.partial, "during-crash query should degrade");
    // Healed: exact again, byte-identical to pre-crash — including the
    // update that only ever existed in the WAL tail.
    assert!(post.ok && !post.partial, "post-restart query did not heal");
    assert_eq!(canon(&post.answer_xml), canon(&pre.answer_xml));
}

/// Ablation: an empty replacement (restart-with-amnesia) does NOT heal —
/// the post-restart answer stays partial/diverged, proving the log (not
/// the restart itself) is what heals in the test above.
#[test]
fn des_restart_empty_does_not_heal() {
    let backend = Arc::new(MemoryBackend::new());
    let (pre, during, post) = des_crash_restart(backend, |db| {
        OrganizingAgent::new(SiteAddr(2), db.service.clone(), config())
    });
    assert!(pre.ok && !pre.partial);
    assert!(during.partial);
    assert_ne!(
        canon(&post.answer_xml),
        canon(&pre.answer_xml),
        "restart-empty healed — the ablation is vacuous"
    );
}

/// Durability on vs off is invisible while the site stays up: the same
/// schedule gives byte-identical answers, and the WAL visibly recorded
/// the mutation traffic.
#[test]
fn durability_on_vs_off_answers_identical() {
    let run = |durable: bool| -> (Vec<UnclaimedReply>, u64) {
        let db = ParkingDb::generate(params(), 42);
        let carved = db.neighborhood_path(0, 1);
        let svc = db.service.clone();
        let mut sim = DesCluster::new(CostModel::default());
        let (mut oa1, mut oa2) = carve(&db, &carved, config());
        let mut wals = Vec::new();
        if durable {
            for oa in [&mut oa1, &mut oa2] {
                attach_backend(oa, Box::new(MemoryBackend::new()), 0.0);
                wals.push(oa.wal().expect("wal attached"));
            }
        }
        sim.dns.register(&svc.dns_name(&db.root_path()), SiteAddr(1));
        sim.dns.register(&svc.dns_name(&carved), SiteAddr(2));
        sim.add_site(oa1);
        sim.add_site(oa2);
        sim.schedule_message(5.0, SiteAddr(2), update_msg(&carved_space(&db)));
        for (at, ep) in [(10.0, 1u64), (20.0, 2u64)] {
            sim.schedule_message(
                at,
                SiteAddr(1),
                Message::UserQuery { qid: ep, text: Q_BOTH.into(), endpoint: Endpoint(ep) },
            );
        }
        sim.run_until(100.0);
        let mut replies = sim.take_unclaimed_detailed();
        replies.sort_by_key(|r| r.endpoint.0);
        let appends = wals.iter().map(|w| w.appends()).sum();
        (replies, appends)
    };

    let (with, appends) = run(true);
    let (without, _) = run(false);
    assert_eq!(with.len(), 2);
    assert_eq!(without.len(), 2);
    for (a, b) in with.iter().zip(&without) {
        assert_eq!(a.ok, b.ok);
        assert_eq!(a.partial, b.partial);
        assert_eq!(
            canon(&a.answer_xml),
            canon(&b.answer_xml),
            "durability changed an answer"
        );
    }
    assert!(appends >= 1, "durable run logged nothing — vacuous");
}

// ---------------------------------------------------------------------
// Sharded: crash/restart through mid-run attach/detach
// ---------------------------------------------------------------------

#[test]
fn sharded_crash_restart_heals() {
    let db = ParkingDb::generate(params(), 42);
    let carved = db.neighborhood_path(0, 1);
    let svc = db.service.clone();
    let dir = std::env::temp_dir().join(format!(
        "iris-durability-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cluster = ShardedCluster::with_config(
        svc.clone(),
        ShardConfig { shards: 2, workers_per_shard: 1, force_wire: true },
    );
    let (oa1, mut oa2) = carve(&db, &carved, threaded_config());
    let stats = attach_backend(&mut oa2, Box::new(FileBackend::new(&dir).unwrap()), 0.0);
    assert_eq!(stats, RecoveryStats::default());
    cluster.register_owner(&db.root_path(), SiteAddr(1));
    cluster.register_owner(&carved, SiteAddr(2));
    cluster.add_site(oa1);
    cluster.add_site(oa2);
    cluster.start();

    // Mid-run update: in site 2's shard mailbox (hence applied and
    // WAL-logged) before the query's subquery arrives.
    cluster.send(SiteAddr(2), update_msg(&carved_space(&db)));
    let timeout = Duration::from_secs(30);
    let mut c = cluster.client();
    let pre = c.pose_query(Q_BOTH, timeout).expect("pre-crash reply");
    assert!(pre.ok && !pre.partial, "pre-crash: {}", pre.answer_xml);
    assert!(pre.answer_xml.contains("77"), "update not applied: {}", pre.answer_xml);

    // Detach the site and drop the agent: only the files survive.
    drop(cluster.stop_site(SiteAddr(2)).expect("site 2 running"));
    let during = c.pose_query(Q_BOTH, timeout).expect("during-crash reply");
    assert!(during.partial, "crash not visible: {}", during.answer_xml);

    // Restart from disk: snapshot + WAL tail.
    let mut oa2b = OrganizingAgent::new(SiteAddr(2), svc.clone(), threaded_config());
    let stats = attach_backend(&mut oa2b, Box::new(FileBackend::new(&dir).unwrap()), 0.0);
    assert!(stats.snapshot_loaded, "no snapshot on disk");
    assert!(stats.records_replayed >= 1, "WAL tail not replayed from disk");
    oa2b.db().check_invariants(&db.master).expect("recovered invariants");
    cluster.restart_site(oa2b);

    let post = c.pose_query(Q_BOTH, timeout).expect("post-restart reply");
    assert!(post.ok && !post.partial, "did not heal: {}", post.answer_xml);
    assert_eq!(canon(&post.answer_xml), canon(&pre.answer_xml));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // DES oracle: the same topology and update, no crash — the healed
    // answer must be byte-identical to the virtual-time answer.
    let mut sim = DesCluster::new(CostModel::default());
    let (oa1, oa2) = carve(&db, &carved, config());
    sim.dns.register(&svc.dns_name(&db.root_path()), SiteAddr(1));
    sim.dns.register(&svc.dns_name(&carved), SiteAddr(2));
    sim.add_site(oa1);
    sim.add_site(oa2);
    sim.schedule_message(5.0, SiteAddr(2), update_msg(&carved_space(&db)));
    sim.schedule_message(
        10.0,
        SiteAddr(1),
        Message::UserQuery { qid: 1, text: Q_BOTH.into(), endpoint: Endpoint(1) },
    );
    sim.run_until(100.0);
    let oracle = sim.take_unclaimed_detailed().pop().expect("oracle reply");
    assert!(oracle.ok && !oracle.partial);
    assert_eq!(
        canon(&post.answer_xml),
        canon(&oracle.answer_xml),
        "recovered answer diverged from the DES oracle"
    );
}
