//! Durability plumbing for `update_mix`: a per-process temp directory that
//! is removed on success and on failure, and a counting (optionally
//! timing) wrapper around the repository's `FileBackend`.
//!
//! Flush policy, identical on both sides of any comparison: WAL records
//! are appended with `write_all` and **no fsync** (the repository's crash
//! model is process loss), a snapshot is taken every 256 records
//! (`DurabilityConfig::default()`), superseded segments are expired at
//! snapshot time. A "crash" drops the agents; the files are what survives.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use irisnet_core::{FileBackend, StorageBackend, StorageError};

/// A directory under the build directory, unique to this process, deleted
/// when the guard drops — including during a panic's unwind. A run that is
/// killed cannot clean up after itself, so every run first removes the
/// directories of processes that no longer exist.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

const TMP_PREFIX: &str = "bench-tmp-";

/// Removes `bench-tmp-<pid>-*` under `base` whose process is gone.
fn sweep_stale(base: &Path) {
    let Ok(entries) = std::fs::read_dir(base) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix(TMP_PREFIX)) else {
            continue;
        };
        let pid = rest.split('-').next().unwrap_or("");
        if pid.parse::<u32>().is_ok() && !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

impl TempDir {
    /// Creates `<dir of the running executable>/bench-tmp-<pid>-<label>`:
    /// always inside the checkout's (ignored) build directory, because a
    /// run may write only inside its checkout.
    pub fn create(label: &str) -> std::io::Result<TempDir> {
        let exe = std::env::current_exe()?;
        let base = exe
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from("."));
        sweep_stale(&base);
        let path = base.join(format!("{TMP_PREFIX}{}-{label}", std::process::id()));
        // A stale directory of an earlier process with this pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Counters of one site's backend traffic. Shared with the driver through
/// an `Arc`, because the store owns its backend.
#[derive(Debug, Default)]
pub struct BackendCounters {
    /// Time the calls only while set (traced slices).
    pub timing: AtomicBool,
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub append_ns: AtomicU64,
    pub writes: AtomicU64,
    pub write_bytes: AtomicU64,
    pub write_ns: AtomicU64,
    pub errors: AtomicU64,
}

/// `FileBackend` with every append / whole-file write counted.
#[derive(Debug)]
pub struct CountingBackend {
    inner: FileBackend,
    counters: Arc<BackendCounters>,
}

impl CountingBackend {
    pub fn open(
        root: &Path,
        counters: Arc<BackendCounters>,
    ) -> Result<CountingBackend, StorageError> {
        Ok(CountingBackend {
            inner: FileBackend::new(root)?,
            counters,
        })
    }

    fn observe(
        &self,
        calls: &AtomicU64,
        bytes: &AtomicU64,
        ns: &AtomicU64,
        len: usize,
        op: impl FnOnce() -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let t0 = self
            .counters
            .timing
            .load(Ordering::Relaxed)
            .then(Instant::now);
        let r = op();
        if let Some(t0) = t0 {
            ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        calls.fetch_add(1, Ordering::Relaxed);
        bytes.fetch_add(len as u64, Ordering::Relaxed);
        if r.is_err() {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
}

impl StorageBackend for CountingBackend {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let c = &self.counters;
        self.observe(
            &c.appends,
            &c.append_bytes,
            &c.append_ns,
            bytes.len(),
            || self.inner.append(name, bytes),
        )
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let c = &self.counters;
        self.observe(&c.writes, &c.write_bytes, &c.write_ns, bytes.len(), || {
            self.inner.write(name, bytes)
        })
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.read(name)
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.filter_map(|e| e.ok())
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop_and_on_panic() {
        let kept;
        {
            let t = TempDir::create("drop").unwrap();
            kept = t.path().to_path_buf();
            std::fs::write(kept.join("seg"), b"x").unwrap();
            assert!(kept.exists());
        }
        assert!(!kept.exists(), "dropped guard left {kept:?}");

        let path = std::sync::Arc::new(std::sync::Mutex::new(PathBuf::new()));
        let p2 = path.clone();
        let r = std::panic::catch_unwind(move || {
            let t = TempDir::create("panic").unwrap();
            *p2.lock().unwrap() = t.path().to_path_buf();
            panic!("workload failed");
        });
        assert!(r.is_err());
        assert!(
            !path.lock().unwrap().exists(),
            "panic left the store behind"
        );
    }

    #[test]
    fn a_killed_run_is_cleaned_up_by_the_next() {
        let live = TempDir::create("live").unwrap();
        let base = live.path().parent().unwrap().to_path_buf();
        // No process has pid 0: this is what a killed run leaves behind.
        let stale = base.join(format!("{TMP_PREFIX}0-update_mix"));
        std::fs::create_dir_all(stale.join("setup4/site1")).unwrap();
        let _next = TempDir::create("next").unwrap();
        assert!(!stale.exists(), "stale store survived the sweep");
        assert!(live.path().exists(), "a live process's store was swept");
    }

    #[test]
    fn counting_backend_counts_bytes_and_calls() {
        let t = TempDir::create("count").unwrap();
        let counters = Arc::new(BackendCounters::default());
        let b = CountingBackend::open(&t.path().join("s1"), counters.clone()).unwrap();
        b.append("wal", b"12345").unwrap();
        b.append("wal", b"678").unwrap();
        b.write("snap", b"0123456789").unwrap();
        assert_eq!(counters.appends.load(Ordering::Relaxed), 2);
        assert_eq!(counters.append_bytes.load(Ordering::Relaxed), 8);
        assert_eq!(counters.writes.load(Ordering::Relaxed), 1);
        assert_eq!(
            counters.append_ns.load(Ordering::Relaxed),
            0,
            "timing is off by default"
        );
        assert_eq!(dir_bytes(&t.path().join("s1")), 18);
        assert_eq!(b.read("wal").unwrap().as_deref(), Some(&b"12345678"[..]));
    }
}
