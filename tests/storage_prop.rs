//! Durability-format properties (PR 8 satellites).
//!
//! * **Golden bytes** — the on-disk WAL record and segment-header layouts
//!   are pinned byte by byte, exactly as `tests/wire_prop.rs` pins network
//!   frames: any byte-level change is a deliberate `STORE_VERSION` bump,
//!   never a silent re-encode.
//! * **Torn-write robustness** — truncating or bit-flipping the WAL tail
//!   at a random offset makes recovery stop cleanly at the last valid
//!   checksummed record: never a panic, never a half-applied mutation
//!   resurrected, and the recovered state equals replaying exactly the
//!   surviving record prefix.
//! * **Snapshot compaction** — a random mutation stream with interleaved
//!   snapshots and O(1) segment expiry recovers to the same
//!   `SiteDatabase` state (canonical digest) as pure WAL replay of the
//!   identical stream.
//! * **Backend equivalence** — the same stream, across a drop and a
//!   reopen, leaves a `FileBackend` directory holding exactly the
//!   `MemoryBackend`'s segment names and bytes, and both recover the same
//!   state.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use irisnet_core::storage::{
    crc32, encode_record, encode_segment_header, split_record, split_segment_header,
    SegmentHeader, SEGMENT_KIND_SNAPSHOT, SEGMENT_KIND_WAL,
};
use irisnet_core::{
    DurabilityConfig, FileBackend, IdPath, MemoryBackend, SiteDatabase, SiteStore, SiteWal,
    Status, StorageBackend, WalRecord,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn master() -> sensorxml::Document {
    sensorxml::parse(
        r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
             <neighborhood id="Oakland">
               <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace>
                           <parkingSpace id="2"><available>no</available></parkingSpace></block>
             </neighborhood>
             <neighborhood id="Shadyside">
               <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
             </neighborhood>
           </city></county></state></usRegion>"#,
    )
    .unwrap()
}

fn pgh() -> IdPath {
    IdPath::from_pairs([
        ("usRegion", "NE"),
        ("state", "PA"),
        ("county", "A"),
        ("city", "P"),
    ])
}

/// The mutable paths the random streams draw from: index < SPACES are
/// parkingSpace leaves (update targets), the rest are subtree roots
/// (demote/evict/refill targets).
fn paths() -> Vec<IdPath> {
    let oak = pgh().child("neighborhood", "Oakland");
    let shady = pgh().child("neighborhood", "Shadyside");
    vec![
        oak.child("block", "1").child("parkingSpace", "1"),
        oak.child("block", "1").child("parkingSpace", "2"),
        shady.child("block", "1").child("parkingSpace", "1"),
        oak,
        shady,
    ]
}
const SPACES: usize = 3;

/// A fresh database owning the whole region, with a durability plane over
/// `backend` and the bootstrap state captured in an initial snapshot.
fn owned_db_with_wal(
    backend: Arc<MemoryBackend>,
    config: DurabilityConfig,
) -> (SiteDatabase, Arc<SiteWal>) {
    let svc = irisnet_core::Service::parking();
    let mut db = SiteDatabase::new(svc);
    db.bootstrap_owned(&master(), &IdPath::from_pairs([("usRegion", "NE")]), true)
        .unwrap();
    let (store, recovered) = SiteStore::open(Box::new(backend), config).unwrap();
    assert!(recovered.is_empty(), "backend must start empty");
    let wal = Arc::new(SiteWal::new(store));
    db.attach_wal(wal.clone());
    wal.snapshot(&db.snapshot_xml(), 0.0);
    (db, wal)
}

/// Recovers whatever `backend` holds into a fresh database.
fn recover(backend: Arc<MemoryBackend>) -> (SiteDatabase, irisnet_core::RecoveryStats) {
    let (_, recovered) =
        SiteStore::open(Box::new(backend), DurabilityConfig::default()).unwrap();
    let mut db = SiteDatabase::new(irisnet_core::Service::parking());
    let stats = db.restore_from(&recovered).expect("recovery applies cleanly");
    (db, stats)
}

/// One random mutation; applied identically to every database under test.
/// Failing ops (e.g. evicting a subtree that still holds owned data) are
/// no-ops by construction — nothing reached the log.
#[derive(Debug, Clone)]
enum Op {
    /// Update parking space `space` (timestamped, so merges order by it).
    Update { space: usize, value: bool, ts: u32 },
    /// Demote a subtree from owned to a cached copy (migration's send
    /// half), making it evictable.
    Demote { root: usize },
    /// Evict a subtree down to an incomplete ID stub.
    Evict { root: usize },
    /// Re-fill a subtree by merging a C1/C2 fragment (cache fill).
    Refill { root: usize, ts: u32 },
}

fn op() -> Strat<Op> {
    prop_oneof![
        (0..SPACES, any::<bool>(), 1u32..1000).prop_map(|(space, value, ts)| {
            Op::Update { space, value, ts }
        }),
        (SPACES..5usize).prop_map(|root| Op::Demote { root }),
        (SPACES..5usize).prop_map(|root| Op::Evict { root }),
        (SPACES..5usize, 1u32..1000).prop_map(|(root, ts)| Op::Refill { root, ts }),
    ]
}

/// A C1/C2 cache-fill fragment for the subtree at `path`, stamped `ts`.
fn fill_fragment(path: &IdPath, ts: u32) -> sensorxml::Document {
    let mut src = SiteDatabase::new(irisnet_core::Service::parking());
    src.bootstrap_cached(&master(), path, true).unwrap();
    // Stamp the subtree root so merge freshness comparison is decisive.
    src.apply_update(path, &[], f64::from(ts)).unwrap();
    sensorxml::parse(&src.snapshot_xml()).unwrap()
}

fn apply(db: &mut SiteDatabase, op: &Op) {
    let paths = paths();
    match op {
        Op::Update { space, value, ts } => {
            let v = if *value { "yes" } else { "no" };
            let _ = db.apply_update(
                &paths[*space],
                &[("available".to_string(), v.to_string())],
                f64::from(*ts),
            );
        }
        Op::Demote { root } => {
            let _ = db.set_status_subtree(&paths[*root], Status::Complete);
        }
        Op::Evict { root } => {
            let _ = db.evict(&paths[*root]);
        }
        Op::Refill { root, ts } => {
            let _ = db.merge_fragment(&fill_fragment(&paths[*root], *ts));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncate or bit-flip the active WAL segment at a random offset:
    /// recovery stops cleanly at the last valid record — it never panics,
    /// and the recovered state equals replaying exactly the record prefix
    /// it reports, so no half-applied mutation is ever resurrected.
    #[test]
    fn torn_tail_recovers_a_clean_prefix(
        ops in vec(op(), 1..24),
        cut in any::<u32>(),
        flip in any::<bool>(),
        xor in 1u8..=u8::MAX,
    ) {
        let backend = Arc::new(MemoryBackend::new());
        let (mut db, _wal) = owned_db_with_wal(
            backend.clone(),
            DurabilityConfig { snapshot_every: 0, retain_segments: 0 },
        );
        for o in &ops {
            apply(&mut db, o);
        }

        // The active WAL segment is the newest wal- blob. If every op
        // failed (nothing was logged) there is none — recovery of the
        // intact snapshot is still checked below with n = 0.
        let mut names: Vec<String> = backend
            .list().unwrap().into_iter().filter(|n| n.starts_with("wal-")).collect();
        names.sort();
        if let Some(name) = names.last() {
            let bytes = backend.read(name).unwrap().unwrap();
            // Corrupt strictly after the segment header (header damage is
            // the separate whole-segment-ignored case).
            let lo = irisnet_core::storage::SEGMENT_HEADER_LEN;
            if bytes.len() > lo {
                let at = lo + (cut as usize) % (bytes.len() - lo);
                let mut torn = bytes.clone();
                if flip {
                    torn[at] ^= xor;
                } else {
                    torn.truncate(at);
                }
                backend.write(name, &torn).unwrap();
            }
        }

        let (recovered_db, stats) = recover(backend);
        let n = stats.records_replayed as usize;

        // Replaying the surviving prefix in a fresh store must give the
        // same state: rebuild from the initial snapshot + first n records.
        let replay_backend = Arc::new(MemoryBackend::new());
        let (mut expect_db, expect_wal) = owned_db_with_wal(
            replay_backend.clone(),
            DurabilityConfig { snapshot_every: 0, retain_segments: 0 },
        );
        let mut applied = 0usize;
        for o in &ops {
            if applied >= n { break; }
            let before = expect_wal.appends();
            apply(&mut expect_db, o);
            applied += (expect_wal.appends() - before) as usize;
        }
        prop_assert_eq!(
            applied, n,
            "recovered record count must align with an op boundary"
        );
        prop_assert_eq!(
            recovered_db.state_digest(),
            expect_db.state_digest(),
            "torn-tail recovery diverged from clean prefix replay"
        );
    }

    /// Interleaved snapshots + O(1) segment expiry recover to the same
    /// state as pure WAL replay of the identical mutation stream.
    #[test]
    fn snapshot_compaction_equals_pure_wal_replay(
        ops in vec((op(), any::<bool>()), 1..24),
    ) {
        let compacted = Arc::new(MemoryBackend::new());
        let pure = Arc::new(MemoryBackend::new());
        let (mut db_c, wal_c) = owned_db_with_wal(
            compacted.clone(),
            DurabilityConfig { snapshot_every: 0, retain_segments: 0 },
        );
        let (mut db_p, _wal_p) = owned_db_with_wal(
            pure.clone(),
            DurabilityConfig { snapshot_every: 0, retain_segments: 0 },
        );

        let mut t = 1.0;
        for (o, snap_here) in &ops {
            apply(&mut db_c, o);
            apply(&mut db_p, o);
            if *snap_here {
                // Snapshot + expiry on the compacted store only; the pure
                // store keeps its founding snapshot + full log.
                wal_c.snapshot(&db_c.snapshot_xml(), t);
            }
            t += 1.0;
        }
        prop_assert_eq!(db_c.state_digest(), db_p.state_digest(),
            "same ops must give same live state");

        let (rec_c, _) = recover(compacted);
        let (rec_p, _) = recover(pure);
        prop_assert_eq!(rec_c.state_digest(), db_c.state_digest(),
            "compacted recovery diverged from live state");
        prop_assert_eq!(rec_p.state_digest(), db_p.state_digest(),
            "pure-WAL recovery diverged from live state");
        prop_assert_eq!(rec_c.state_digest(), rec_p.state_digest(),
            "compacted and pure-WAL recovery diverged");
    }
}

/// A fresh, empty directory for one file-backed case.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iris-storage-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every segment on `backend` as sorted `(name, bytes)` pairs.
fn segments(backend: &dyn StorageBackend) -> Vec<(String, Vec<u8>)> {
    let mut names = backend.list().unwrap();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let bytes = backend.read(&n).unwrap().expect("listed segment reads");
            (n, bytes)
        })
        .collect()
}

/// One site lifetime over `backend`: open the store, bootstrap (fresh
/// store) or recover, apply `ops` with the owner loop's snapshot cadence,
/// then drop everything. Returns the live state digest at the end.
fn site_lifetime(backend: Box<dyn StorageBackend>, config: DurabilityConfig, ops: &[Op]) -> String {
    let (store, recovered) = SiteStore::open(backend, config).unwrap();
    let mut db = SiteDatabase::new(irisnet_core::Service::parking());
    let fresh = recovered.is_empty();
    if fresh {
        db.bootstrap_owned(&master(), &IdPath::from_pairs([("usRegion", "NE")]), true)
            .unwrap();
    } else {
        db.restore_from(&recovered).expect("recovery applies cleanly");
    }
    let wal = Arc::new(SiteWal::new(store));
    db.attach_wal(wal.clone());
    if fresh {
        wal.snapshot(&db.snapshot_xml(), 0.0);
    }
    for (i, o) in ops.iter().enumerate() {
        let t = 1.0 + i as f64;
        wal.note_time(t);
        apply(&mut db, o);
        if wal.should_snapshot() {
            wal.snapshot(&db.snapshot_xml(), t);
        }
    }
    assert_eq!(wal.append_errors(), 0);
    db.state_digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The file backend keeps no state of its own that changes what lands
    /// on disk: a mutation stream that rolls and expires segments, then a
    /// drop, a reopen and more mutations, leaves the same segment names
    /// and bytes on a directory as in memory, and both recover alike.
    #[test]
    fn file_backend_matches_memory_backend_byte_for_byte(
        first in vec(op(), 1..24),
        second in vec(op(), 0..16),
    ) {
        let dir = scratch_dir();
        let mem = Arc::new(MemoryBackend::new());
        let config = DurabilityConfig { snapshot_every: 3, retain_segments: 1 };
        let file = || -> Box<dyn StorageBackend> { Box::new(FileBackend::new(&dir).unwrap()) };

        for ops in [&first, &second] {
            let on_file = site_lifetime(file(), config, ops);
            let in_mem = site_lifetime(Box::new(mem.clone()), config, ops);
            prop_assert_eq!(on_file, in_mem);
            prop_assert_eq!(segments(&*file()), segments(&*mem));
        }
        let (_, from_file) = SiteStore::open(file(), config).unwrap();
        let (_, from_mem) = SiteStore::open(Box::new(mem.clone()), config).unwrap();
        prop_assert_eq!(from_file.snapshot_xml, from_mem.snapshot_xml);
        prop_assert_eq!(from_file.records, from_mem.records);
        prop_assert_eq!(from_file.torn_bytes, from_mem.torn_bytes);
        prop_assert_eq!(from_file.segments_scanned, from_mem.segments_scanned);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A long stream of sensor readings on one owned space: the owner's arena
/// must not grow (each reading overwrites its text node in place), and the
/// site recovered from the WAL must snapshot byte-identically to the live
/// one.
#[test]
fn update_stream_keeps_the_arena_flat_and_recovers_identically() {
    let backend = Arc::new(MemoryBackend::new());
    let (mut db, wal) = owned_db_with_wal(
        backend.clone(),
        DurabilityConfig { snapshot_every: 0, retain_segments: 0 },
    );
    let space = &paths()[0];
    let slots = db.doc().arena_len();
    for i in 0..1000u32 {
        let v = if i % 3 == 0 { "no" } else { "yes" };
        db.apply_update(space, &[("available".to_string(), v.to_string())], f64::from(i + 1))
            .unwrap();
    }
    assert_eq!(db.doc().arena_len(), slots, "updates grew the owner's arena");
    assert_eq!(wal.appends(), 1000);

    let (recovered, stats) = recover(backend);
    assert_eq!(stats.records_replayed, 1000);
    assert_eq!(recovered.snapshot_xml(), db.snapshot_xml());
}

/// Golden bytes: the exact on-disk layout of one representative of every
/// record variant plus both segment-header kinds, written out byte by
/// byte. If any of these assertions break, the storage format changed —
/// bump `STORE_VERSION` and migrate, don't silently re-encode.
#[test]
fn golden_record_layout() {
    // Update { path: [("a","b")], fields: [("k","v")], ts: 2.0 }
    // [ver][len u32 LE][crc u32 LE][tag][path][fields][ts f64-bits LE]
    #[rustfmt::skip]
    let payload: Vec<u8> = vec![
        1,                          // tag: Update
        1, 0, 0, 0,                 // path segment count
        1, 0, 0, 0, b'a',  1, 0, 0, 0, b'b',
        1, 0, 0, 0,                 // field count
        1, 0, 0, 0, b'k',  1, 0, 0, 0, b'v',
        0, 0, 0, 0, 0, 0, 0, 64,    // ts = 2.0 (f64 bits LE)
    ];
    let mut expected = vec![1u8];                       // STORE_VERSION
    expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    expected.extend_from_slice(&crc32(&payload).to_le_bytes());
    expected.extend_from_slice(&payload);
    let rec = WalRecord::Update {
        path: IdPath::from_pairs([("a", "b")]),
        fields: vec![("k".into(), "v".into())],
        ts: 2.0,
    };
    assert_eq!(encode_record(&rec), expected, "Update record layout changed");
    let (back, rest) = split_record(&expected).unwrap();
    assert_eq!(back, rec);
    assert!(rest.is_empty());

    // Merge { fragment_xml: "<x/>" }
    #[rustfmt::skip]
    let payload: Vec<u8> = vec![
        2,                          // tag: Merge
        4, 0, 0, 0, b'<', b'x', b'/', b'>',
    ];
    let mut expected = vec![1u8];
    expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    expected.extend_from_slice(&crc32(&payload).to_le_bytes());
    expected.extend_from_slice(&payload);
    assert_eq!(
        encode_record(&WalRecord::Merge { fragment_xml: "<x/>".into() }),
        expected,
        "Merge record layout changed"
    );

    // Evict { path: [("a","b")] }
    #[rustfmt::skip]
    let payload: Vec<u8> = vec![
        3,                          // tag: Evict
        1, 0, 0, 0,
        1, 0, 0, 0, b'a',  1, 0, 0, 0, b'b',
    ];
    let mut expected = vec![1u8];
    expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    expected.extend_from_slice(&crc32(&payload).to_le_bytes());
    expected.extend_from_slice(&payload);
    assert_eq!(
        encode_record(&WalRecord::Evict { path: IdPath::from_pairs([("a", "b")]) }),
        expected,
        "Evict record layout changed"
    );

    // SetStatus { path: [("a","b")], status: Owned, subtree: true }
    // Status bytes: Incomplete=0, IdComplete=1, Complete=2, Owned=3.
    #[rustfmt::skip]
    let payload: Vec<u8> = vec![
        4,                          // tag: SetStatus
        1, 0, 0, 0,
        1, 0, 0, 0, b'a',  1, 0, 0, 0, b'b',
        3,                          // status: Owned
        1,                          // subtree: true
    ];
    let mut expected = vec![1u8];
    expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    expected.extend_from_slice(&crc32(&payload).to_le_bytes());
    expected.extend_from_slice(&payload);
    assert_eq!(
        encode_record(&WalRecord::SetStatus {
            path: IdPath::from_pairs([("a", "b")]),
            status: Status::Owned,
            subtree: true,
        }),
        expected,
        "SetStatus record layout changed"
    );

    // Snapshot { xml: "<s/>" } — the single record of a snapshot segment.
    #[rustfmt::skip]
    let payload: Vec<u8> = vec![
        5,                          // tag: Snapshot
        4, 0, 0, 0, b'<', b's', b'/', b'>',
    ];
    let mut expected = vec![1u8];
    expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    expected.extend_from_slice(&crc32(&payload).to_le_bytes());
    expected.extend_from_slice(&payload);
    assert_eq!(
        encode_record(&WalRecord::Snapshot { xml: "<s/>".into() }),
        expected,
        "Snapshot record layout changed"
    );
}

#[test]
fn golden_segment_header_layout() {
    // WAL segment, seq 0x0102, window start t_lo = 1.5.
    #[rustfmt::skip]
    let expected: Vec<u8> = vec![
        b'I', b'R', b'S', b'G',        // magic
        1,                             // STORE_VERSION
        1,                             // kind: WAL
        0x02, 0x01, 0, 0, 0, 0, 0, 0,  // seq u64 LE
        0, 0, 0, 0, 0, 0, 0xF8, 0x3F,  // t_lo = 1.5 (f64 bits LE)
    ];
    let h = SegmentHeader { kind: SEGMENT_KIND_WAL, seq: 0x0102, t_lo: 1.5 };
    assert_eq!(encode_segment_header(&h), expected, "segment header layout changed");
    let (back, rest) = split_segment_header(&expected).unwrap();
    assert_eq!(back, h);
    assert!(rest.is_empty());

    // Snapshot kind differs only in the kind byte.
    let h = SegmentHeader { kind: SEGMENT_KIND_SNAPSHOT, seq: 0, t_lo: 0.0 };
    let bytes = encode_segment_header(&h);
    assert_eq!(bytes[5], 2, "snapshot kind byte changed");
}
