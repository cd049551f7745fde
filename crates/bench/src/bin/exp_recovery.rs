//! PR 8 — recovery-time microbenchmark for the durable storage plane.
//!
//! A single site owns the whole parking region with durability attached.
//! We push `n` sensor updates through the database (each one WAL-logged),
//! then model a crash by dropping the agent, re-open the store over the
//! surviving backend, and time `attach_durability` on a fresh agent:
//! snapshot parse + WAL-tail replay, exactly the restart path the
//! recovery tests exercise.
//!
//! Two modes per backend × tail-length cell:
//!
//! * `wal-tail`   — no snapshot after attach: all `n` records replay;
//! * `mid-snapshot` — one snapshot at `n/2`: the snapshot supersedes the
//!   first half, so only `n/2` records replay (sealed segments beyond the
//!   retention window are expired in O(1)).
//!
//! Emits a JSON report (shaped like `results/history/BENCH_PR8.json`) to
//! the path after `--out` (stdout otherwise).

use std::sync::Arc;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb};
use irisnet_core::{
    DurabilityConfig, FileBackend, MemoryBackend, OaConfig, OrganizingAgent, SiteStore,
    StorageBackend,
};

struct Row {
    backend: &'static str,
    mode: &'static str,
    updates: usize,
    wal_bytes: u64,
    records_replayed: u64,
    replay_ms: f64,
}

/// The piece that survives the crash: a shared in-memory store, or a
/// directory on disk. `open()` is the restart path.
enum Survivor {
    Mem(Arc<MemoryBackend>),
    Dir(std::path::PathBuf),
}

impl Survivor {
    fn new(kind: &str, dir: &std::path::Path) -> Survivor {
        match kind {
            "memory" => Survivor::Mem(Arc::new(MemoryBackend::new())),
            _ => Survivor::Dir(dir.to_path_buf()),
        }
    }

    fn open(&self) -> Box<dyn StorageBackend> {
        match self {
            Survivor::Mem(m) => Box::new(m.clone()),
            Survivor::Dir(d) => Box::new(FileBackend::new(d).expect("file backend")),
        }
    }
}

/// One crash/recovery cycle; `config.snapshot_every` is set beyond `n` so
/// only the explicit mid-run snapshot (if any) seals the tail.
fn cycle(db: &ParkingDb, backend: &'static str, mode: &'static str, n: usize) -> Row {
    let dir = std::env::temp_dir().join(format!("iris-exp-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config =
        DurabilityConfig { snapshot_every: u64::MAX, ..DurabilityConfig::default() };
    let survivor = Survivor::new(backend, &dir);

    let mut oa = OrganizingAgent::new(SiteAddr(1), db.service.clone(), OaConfig::default());
    oa.db_mut().bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    let (store, recovered) = SiteStore::open(survivor.open(), config).unwrap();
    oa.attach_durability(store, recovered, 0.0).unwrap();
    let wal = oa.wal().expect("wal attached");

    let spaces = db.all_space_paths();
    for i in 0..n {
        let path = &spaces[i % spaces.len()];
        let value = if i % 2 == 0 { "yes" } else { "no" };
        oa.db_mut()
            .apply_update(
                path,
                &[("available".to_string(), value.to_string())],
                i as f64,
            )
            .unwrap();
        if mode == "mid-snapshot" && i + 1 == n / 2 {
            wal.snapshot(&oa.db().snapshot_xml(), i as f64);
        }
    }
    assert_eq!(wal.appends(), n as u64, "one WAL record per update");
    let wal_bytes = wal.bytes();

    // Crash with amnesia: the agent and its in-memory database are gone.
    drop(oa);

    let (store, recovered) = SiteStore::open(survivor.open(), config).unwrap();
    let mut oa2 = OrganizingAgent::new(SiteAddr(1), db.service.clone(), OaConfig::default());
    let stats = oa2.attach_durability(store, recovered, n as f64).expect("recovery");
    assert!(stats.snapshot_loaded);
    let expected = if mode == "mid-snapshot" { n - n / 2 } else { n };
    assert_eq!(stats.records_replayed, expected as u64, "unexpected replay length");
    oa2.db().check_invariants(&db.master).expect("recovered invariants");

    let _ = std::fs::remove_dir_all(&dir);
    Row {
        backend,
        mode,
        updates: n,
        wal_bytes,
        records_replayed: stats.records_replayed,
        replay_ms: stats.replay_ms,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let params = DbParams {
        cities: 1,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 4,
        spaces_per_block: 5,
    };
    let db = ParkingDb::generate(params, 1);

    println!("== PR 8: crash-recovery time (snapshot parse + WAL-tail replay) ==\n");
    println!(
        "{:>8} {:>13} {:>8} {:>11} {:>9} {:>10} {:>11}",
        "backend", "mode", "updates", "wal_bytes", "replayed", "replay_ms", "records/s"
    );
    println!("{}", "-".repeat(76));
    let mut rows = Vec::new();
    for &backend in &["memory", "file"] {
        for &mode in &["wal-tail", "mid-snapshot"] {
            for &n in &[256usize, 1024, 4096] {
                let r = cycle(&db, backend, mode, n);
                let rate = r.records_replayed as f64 / (r.replay_ms / 1000.0).max(1e-9);
                println!(
                    "{:>8} {:>13} {:>8} {:>11} {:>9} {:>10.2} {:>11.0}",
                    r.backend, r.mode, r.updates, r.wal_bytes, r.records_replayed,
                    r.replay_ms, rate
                );
                rows.push(format!(
                    concat!(
                        "    {{\"backend\": \"{}\", \"mode\": \"{}\", \"updates\": {}, ",
                        "\"wal_bytes\": {}, \"records_replayed\": {}, ",
                        "\"replay_ms\": {:.3}, \"records_per_s\": {:.0}}}"
                    ),
                    r.backend, r.mode, r.updates, r.wal_bytes, r.records_replayed,
                    r.replay_ms, rate
                ));
            }
        }
    }

    let json = format!(
        concat!(
            "{{\n  \"generated_by\": \"exp_recovery\",\n",
            "  \"workload\": \"{} parking spaces, round-robin availability updates, ",
            "crash + attach_durability restart\",\n",
            "  \"results\": [\n{}\n  ]\n}}\n"
        ),
        params.total_spaces(),
        rows.join(",\n")
    );
    if let Some(path) = out {
        std::fs::write(&path, &json).expect("write recovery json");
        println!("\nwrote {path}");
    } else {
        println!("\n{json}");
    }
}
