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

#[path = "support/cluster.rs"]
mod cluster;

use std::sync::Arc;

use cluster::{boot, canon, carve, carved, parking_db, sharded, Runtime, DES};
use irisdns::SiteAddr;
use irisnet_bench::ParkingDb;
use irisnet_core::{
    CacheMode, DurabilityConfig, FileBackend, IdPath, MemoryBackend, Message, OaConfig,
    OrganizingAgent, RecoveryStats, RetryPolicy, SiteStore, StorageBackend,
};
use simnet::{FaultPlan, Reply, Target};

const Q_BOTH: &str = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
    /city[@id='Pittsburgh']/neighborhood[@id='n1' or @id='n2']/block[@id='1']/parkingSpace";

/// Caching off, two resends per ask: in virtual time on the DES, and in
/// real time (so partial answers arrive fast) on the sharded runtime.
fn config(rt: Runtime) -> OaConfig {
    let base = if rt == DES { 0.5 } else { 0.05 };
    OaConfig {
        cache: CacheMode::Off,
        retry: RetryPolicy::bounded(base, 2),
        ..OaConfig::default()
    }
}

/// A space under the carved neighborhood whose value we update mid-run:
/// recovering it proves the WAL *tail* replays, not just the snapshot.
fn carved_space(db: &ParkingDb) -> IdPath {
    carved(db).child("block", "1").child("parkingSpace", "1")
}

fn update_msg(path: &IdPath) -> Message {
    Message::Update {
        path: path.clone(),
        fields: vec![("available".to_string(), "77".to_string())],
    }
}

/// Opens (or re-opens) a store over `backend` and attaches it to the
/// agent, returning the recovery stats.
fn attach_backend(oa: &mut OrganizingAgent, backend: Box<dyn StorageBackend>) -> RecoveryStats {
    let (store, recovered) = SiteStore::open(backend, DurabilityConfig::default()).unwrap();
    oa.attach_durability(store, recovered, 0.0).unwrap()
}

/// The crash/restart scenario on `rt`: site 2 logs to `backend`, an
/// update lands in its WAL tail (after the attach snapshot) and a query
/// is answered; site 2 then crashes with amnesia — the agent and its
/// in-memory database are gone, only the backend survives — and the same
/// query is posed again; `restart` builds the replacement, which the
/// query meets last. Returns the pre-crash, during-crash and
/// post-restart replies.
fn crash_restart(
    rt: Runtime,
    backend: Box<dyn StorageBackend>,
    restart: impl FnOnce(&ParkingDb) -> OrganizingAgent,
) -> [Reply; 3] {
    let db = parking_db(2);
    let [oa1, mut oa2] = carve(&db, config(rt), config(rt));
    let stats = attach_backend(&mut oa2, backend);
    assert_eq!(stats, RecoveryStats::default(), "fresh backend had state");
    let mut cluster = boot(rt, &db, [oa1, oa2], None);
    cluster.set_fault_plan(FaultPlan::reliable());

    cluster.send(SiteAddr(2), update_msg(&carved_space(&db)));
    let q = [Q_BOTH.to_string()];
    let pre = cluster.pose_each(Target::Routed, &q).remove(0);
    drop(cluster.stop_site(SiteAddr(2)).expect("site 2 running"));
    let during = cluster.pose_each(Target::Routed, &q).remove(0);
    cluster.restart_site(restart(&db));
    let post = cluster.pose_each(Target::Routed, &q).remove(0);
    cluster.finish();
    [pre, during, post]
}

/// A replacement site 2 recovered from `backend`: the snapshot plus the
/// WAL tail replay, and the recovered database is a valid fragment of the
/// master.
fn recovered(db: &ParkingDb, rt: Runtime, backend: Box<dyn StorageBackend>) -> OrganizingAgent {
    let mut oa2 = OrganizingAgent::new(SiteAddr(2), db.service.clone(), config(rt));
    let stats = attach_backend(&mut oa2, backend);
    assert!(stats.snapshot_loaded, "{rt:?}: no snapshot recovered");
    assert!(stats.records_replayed >= 1, "{rt:?}: WAL tail not replayed");
    assert_eq!(stats.torn_bytes, 0);
    oa2.db()
        .check_invariants(&db.master)
        .expect("recovered invariants");
    oa2
}

/// Pre-crash exact with the update, during-crash degraded, post-restart
/// healed: exact again and byte-identical to pre-crash — including the
/// update that only ever existed in the WAL tail.
fn assert_heals(rt: Runtime, [pre, during, post]: &[Reply; 3]) {
    assert!(
        pre.ok && !pre.partial,
        "{rt:?} pre-crash: {}",
        pre.answer_xml
    );
    assert!(
        pre.answer_xml.contains("77"),
        "{rt:?}: update not applied: {}",
        pre.answer_xml
    );
    assert!(
        during.ok && during.partial,
        "{rt:?}: crash not visible: {}",
        during.answer_xml
    );
    assert!(
        post.ok && !post.partial,
        "{rt:?}: did not heal: {}",
        post.answer_xml
    );
    assert_eq!(canon(&post.answer_xml), canon(&pre.answer_xml));
}

/// The same topology and update with site 2 never crashing, two queries
/// at site 1; returns the replies and the WAL appends if both sites log
/// (`durable`).
fn uncrashed(durable: bool) -> (Vec<Reply>, u64) {
    let db = parking_db(2);
    let [mut oa1, mut oa2] = carve(&db, config(DES), config(DES));
    let mut wals = Vec::new();
    if durable {
        for oa in [&mut oa1, &mut oa2] {
            attach_backend(oa, Box::new(MemoryBackend::new()));
            wals.push(oa.wal().expect("wal attached"));
        }
    }
    let mut cluster = boot(DES, &db, [oa1, oa2], None);
    cluster.send(SiteAddr(2), update_msg(&carved_space(&db)));
    let replies = cluster.pose_each(Target::Site(SiteAddr(1)), &[Q_BOTH.into(), Q_BOTH.into()]);
    cluster.finish();
    (replies, wals.iter().map(|w| w.appends()).sum())
}

// ---------------------------------------------------------------------
// DES: deterministic crash/restart + the restart-empty ablation
// ---------------------------------------------------------------------

#[test]
fn des_crash_restart_replays_snapshot_plus_wal_tail() {
    let backend = Arc::new(MemoryBackend::new());
    let b = backend.clone();
    let replies = crash_restart(DES, Box::new(backend), move |db| {
        recovered(db, DES, Box::new(b))
    });
    assert_heals(DES, &replies);
}

/// Ablation: an empty replacement (restart-with-amnesia) does NOT heal —
/// the post-restart answer stays partial/diverged, proving the log (not
/// the restart itself) is what heals in the test above.
#[test]
fn des_restart_empty_does_not_heal() {
    let backend = Arc::new(MemoryBackend::new());
    let [pre, during, post] = crash_restart(DES, Box::new(backend), |db| {
        OrganizingAgent::new(SiteAddr(2), db.service.clone(), config(DES))
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
    let (with, appends) = uncrashed(true);
    let (without, _) = uncrashed(false);
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
    let rt = sharded(2, 1, true);
    let dir = std::env::temp_dir().join(format!(
        "iris-durability-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let files = || Box::new(FileBackend::new(&dir).unwrap());
    let replies = crash_restart(rt, files(), |db| recovered(db, rt, files()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_heals(rt, &replies);

    // DES oracle: the same topology and update, no crash — the healed
    // answer must be byte-identical to the virtual-time answer.
    let oracle = uncrashed(false).0.remove(0);
    assert!(oracle.ok && !oracle.partial);
    assert_eq!(
        canon(&replies[2].answer_xml),
        canon(&oracle.answer_xml),
        "recovered answer diverged from the DES oracle"
    );
}
