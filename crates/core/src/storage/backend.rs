//! Storage backends: where segment bytes live.
//!
//! A [`StorageBackend`] is a flat namespace of named byte blobs (segments)
//! supporting append, whole-blob write, read, delete and listing — the
//! minimal contract the per-site store ([`crate::storage::SiteStore`])
//! needs. Two implementations ship: [`MemoryBackend`] (a mutex-guarded
//! map, the default for the DES and for tests that don't exercise real
//! I/O) and [`FileBackend`] (one file per segment under a root directory).
//!
//! Both are deliberately dumb: framing, checksums, sealing and expiry
//! policy all live a layer up, so a torn write corrupts *bytes*, never the
//! store's logic — recovery validates every record it reads regardless of
//! which backend produced it.

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A backend I/O failure (wraps the OS error text; the memory backend
/// never fails).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageError(pub String);

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "storage: {}", self.0)
    }
}

impl std::error::Error for StorageError {}

/// A flat namespace of append-able byte blobs. `&self` methods with
/// interior mutability: the store above serializes access (appends happen
/// on the owner loop only), but handles are shared across the agent and
/// its substrate.
pub trait StorageBackend: Send + Sync + std::fmt::Debug {
    /// Appends bytes to `name`, creating it if absent.
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Creates or replaces `name` with exactly `bytes`.
    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// The full contents of `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError>;

    /// Removes `name` (idempotent). This is the O(1) whole-segment expiry
    /// primitive: no content is scanned.
    fn remove(&self, name: &str) -> Result<(), StorageError>;

    /// Every segment name present, in unspecified order.
    fn list(&self) -> Result<Vec<String>, StorageError>;
}

/// Shared handles delegate: a crash/restart test keeps an
/// `Arc<MemoryBackend>` alive across the agent it kills, then hands a
/// clone to the replacement.
impl<T: StorageBackend + ?Sized> StorageBackend for std::sync::Arc<T> {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        (**self).append(name, bytes)
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        (**self).write(name, bytes)
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        (**self).read(name)
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        (**self).remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        (**self).list()
    }
}

/// In-memory backend: a mutex-guarded name → bytes map. Durable only for
/// the lifetime of the process, which is exactly what the DES and the
/// torn-write/compaction proptests need (they corrupt and re-read bytes
/// without touching a disk).
#[derive(Debug, Default)]
pub struct MemoryBackend {
    blobs: Mutex<HashMap<String, Vec<u8>>>,
}

impl MemoryBackend {
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut g = self.blobs.lock().unwrap_or_else(|e| e.into_inner());
        g.entry(name.to_string()).or_default().extend_from_slice(bytes);
        Ok(())
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut g = self.blobs.lock().unwrap_or_else(|e| e.into_inner());
        g.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        let g = self.blobs.lock().unwrap_or_else(|e| e.into_inner());
        Ok(g.get(name).cloned())
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        let mut g = self.blobs.lock().unwrap_or_else(|e| e.into_inner());
        g.remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let g = self.blobs.lock().unwrap_or_else(|e| e.into_inner());
        Ok(g.keys().cloned().collect())
    }
}

/// File backend: one file per segment under `root` (created on first use).
///
/// The segment last appended to stays open in append mode, so a WAL record
/// costs one `write(2)`: the store appends to a single active segment at a
/// time, and each mutation's record is one `append`. There is no user-space
/// buffer: every byte reaches the kernel before `append` returns, which is
/// all the crash model needs — it is process loss, not power loss, so there
/// is no fsync either (DESIGN §4i). Recovery never trusts file contents
/// anyway; every record is checksum-validated.
///
/// `write` and `remove` drop the held handle for their segment first, so a
/// removed segment is recreated by the next append instead of written
/// through an unlinked inode. A failed open or write drops it too, and the
/// next append reopens the file.
#[derive(Debug)]
pub struct FileBackend {
    root: PathBuf,
    active: Mutex<Active>,
}

/// The segment last appended to. The name buffer lives as long as the
/// backend and is rewritten in place, so rolling to a new segment
/// allocates nothing.
#[derive(Debug)]
struct Active {
    name: String,
    /// The append-mode handle of `name`; `None` when none is held.
    file: Option<fs::File>,
}

impl FileBackend {
    /// Opens (creating if needed) the segment directory at `root`.
    pub fn new(root: impl AsRef<Path>) -> Result<FileBackend, StorageError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root).map_err(|e| StorageError(e.to_string()))?;
        let active = Active { name: String::with_capacity(64), file: None };
        Ok(FileBackend { root, active: Mutex::new(active) })
    }

    /// The directory segments live in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn active(&self) -> std::sync::MutexGuard<'_, Active> {
        self.active.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Closes the held handle if it is `name`'s.
    fn release(&self, name: &str) {
        let mut active = self.active();
        if active.name == name {
            active.file = None;
        }
    }
}

impl StorageBackend for FileBackend {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut guard = self.active();
        let active = &mut *guard;
        let f = match &mut active.file {
            Some(f) if active.name == name => f,
            slot => {
                *slot = None;
                let f = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.path_of(name))
                    .map_err(|e| StorageError(e.to_string()))?;
                active.name.clear();
                active.name.push_str(name);
                slot.insert(f)
            }
        };
        if let Err(e) = f.write_all(bytes) {
            active.file = None;
            return Err(StorageError(e.to_string()));
        }
        Ok(())
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.release(name);
        fs::write(self.path_of(name), bytes).map_err(|e| StorageError(e.to_string()))
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StorageError> {
        match fs::read(self.path_of(name)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StorageError(e.to_string())),
        }
    }

    fn remove(&self, name: &str) -> Result<(), StorageError> {
        self.release(name);
        match fs::remove_file(self.path_of(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StorageError(e.to_string())),
        }
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let rd = fs::read_dir(&self.root).map_err(|e| StorageError(e.to_string()))?;
        let mut names = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| StorageError(e.to_string()))?;
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                if let Some(n) = entry.file_name().to_str() {
                    names.push(n.to_string());
                }
            }
        }
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(b: &dyn StorageBackend) {
        assert_eq!(b.read("a").unwrap(), None);
        b.append("a", b"one").unwrap();
        b.append("a", b"two").unwrap();
        assert_eq!(b.read("a").unwrap().as_deref(), Some(&b"onetwo"[..]));
        b.write("a", b"fresh").unwrap();
        assert_eq!(b.read("a").unwrap().as_deref(), Some(&b"fresh"[..]));
        b.write("b", b"x").unwrap();
        let mut names = b.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
        b.remove("a").unwrap();
        b.remove("a").unwrap(); // idempotent
        assert_eq!(b.read("a").unwrap(), None);
        assert_eq!(b.list().unwrap(), vec!["b".to_string()]);
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&MemoryBackend::new());
    }

    /// A fresh directory for one test (removed by [`TempDir`]'s drop).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "iris-store-test-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn file_backend_contract() {
        let dir = TempDir::new("contract");
        exercise(&FileBackend::new(&dir.0).unwrap());
    }

    #[test]
    fn removed_segment_is_recreated_by_the_next_append() {
        let dir = TempDir::new("remove");
        let b = FileBackend::new(&dir.0).unwrap();
        b.append("a", b"old").unwrap();
        b.remove("a").unwrap();
        assert_eq!(b.read("a").unwrap(), None);
        b.append("a", b"new").unwrap();
        assert_eq!(b.read("a").unwrap().as_deref(), Some(&b"new"[..]));
        assert_eq!(b.list().unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn append_after_write_lands_after_the_written_bytes() {
        let dir = TempDir::new("write");
        let b = FileBackend::new(&dir.0).unwrap();
        b.append("a", b"stale").unwrap();
        b.write("a", b"hdr").unwrap();
        b.append("a", b"rec").unwrap();
        assert_eq!(b.read("a").unwrap().as_deref(), Some(&b"hdrrec"[..]));
    }

    #[test]
    fn alternating_appends_land_in_their_own_segments() {
        let dir = TempDir::new("alternate");
        let b = FileBackend::new(&dir.0).unwrap();
        for i in 0..4u8 {
            b.append("a", &[b'a', b'0' + i]).unwrap();
            b.append("b", &[b'b', b'0' + i]).unwrap();
        }
        assert_eq!(b.read("a").unwrap().as_deref(), Some(&b"a0a1a2a3"[..]));
        assert_eq!(b.read("b").unwrap().as_deref(), Some(&b"b0b1b2b3"[..]));
    }

    #[test]
    fn appended_bytes_are_visible_to_another_backend_at_once() {
        // No user-space buffer: a process lost right after `append`
        // returns has already handed every byte to the kernel.
        let dir = TempDir::new("visible");
        let writer = FileBackend::new(&dir.0).unwrap();
        let reader = FileBackend::new(&dir.0).unwrap();
        let mut expected = Vec::new();
        for i in 0..16u8 {
            let rec = [i; 7];
            writer.append("wal-1.seg", &rec).unwrap();
            expected.extend_from_slice(&rec);
            assert_eq!(reader.read("wal-1.seg").unwrap(), Some(expected.clone()));
        }
    }

    #[test]
    fn failed_open_holds_no_handle_and_the_next_append_reopens() {
        let dir = TempDir::new("openfail");
        let b = FileBackend::new(&dir.0).unwrap();
        b.append("a", b"x").unwrap();
        fs::create_dir(dir.0.join("seg")).unwrap();
        assert!(b.append("seg", b"lost").is_err());
        assert!(b.active().file.is_none(), "a failed open must not keep the old handle");
        fs::remove_dir(dir.0.join("seg")).unwrap();
        b.append("seg", b"kept").unwrap();
        assert_eq!(b.read("seg").unwrap().as_deref(), Some(&b"kept"[..]));
        assert_eq!(b.read("a").unwrap().as_deref(), Some(&b"x"[..]));
    }
}
