//! Pluggable persistence for simulation artifacts.
//!
//! The [`Storage`] trait is a minimal byte-oriented key-value interface —
//! `get` / `put` / `scan` / `delete` over namespaced keys — generalised
//! out of the AEDB evaluation cache's original single disk file (now
//! `AedbProblem::with_eval_cache_storage` on a [`DiskStorage`] slot) so
//! that everything the resident simulation service persists (eval caches,
//! campaign archives) can outlive the process on *any* backend. Two backends ship today:
//!
//! * [`DiskStorage`] — one file per key under `root/namespace/key`, with
//!   atomic replace-on-write (the historical eval-cache behaviour, and
//!   the layout the service's archives use);
//! * [`MemoryStorage`] — a process-local map, for tests and ephemeral
//!   services. The backend-parity test in the service suite pins the two
//!   to identical observable behaviour.
//!
//! Values are opaque bytes: callers own their serialization (this
//! workspace hand-rolls bit-exact text formats because the vendored
//! `serde` is a no-op stand-in — see the eval-cache and campaign-archive
//! formats). Keys and namespaces are restricted to path-safe tokens so a
//! disk-backed store can map them directly to file names; see
//! [`validate_component`].
//!
//! Failure philosophy (inherited from the eval cache): persistence is an
//! optimisation, never a correctness requirement. Callers are expected to
//! treat a failed `get` like a missing key (recompute) and may treat a
//! failed `put` as best-effort; the backends themselves report real I/O
//! errors faithfully.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

/// Namespaced byte-oriented key-value persistence.
///
/// Implementations must be usable behind `Arc<dyn Storage>` from several
/// threads at once; each method is individually atomic (a concurrent
/// `get` sees either the previous value or the new one, never a torn
/// write), but no cross-key transaction is offered or needed by the
/// callers in this workspace.
pub trait Storage: Send + Sync {
    /// Returns the value stored under `(namespace, key)`, or `None`.
    fn get(&self, namespace: &str, key: &str) -> io::Result<Option<Vec<u8>>>;

    /// Stores `value` under `(namespace, key)`, replacing atomically.
    fn put(&self, namespace: &str, key: &str, value: &[u8]) -> io::Result<()>;

    /// All keys present in `namespace`, in ascending lexicographic order.
    /// A namespace nothing was ever written to scans as empty.
    fn scan(&self, namespace: &str) -> io::Result<Vec<String>>;

    /// Removes `(namespace, key)`; returns whether it existed.
    fn delete(&self, namespace: &str, key: &str) -> io::Result<bool>;
}

/// Validates a namespace or key token: ASCII letters, digits, `.`, `_`,
/// `-` only (so disk backends can use it verbatim as a file/dir name),
/// non-empty unless `allow_empty`, and not starting with `.` (dot names
/// are reserved for backend temp files and skipped by `scan`).
///
/// Namespaces additionally allow the empty string, which a disk backend
/// maps to its root directory — that is what lets the historical
/// single-file eval cache keep its exact on-disk location behind the
/// trait.
pub fn validate_component(s: &str, allow_empty: bool) -> io::Result<()> {
    if s.is_empty() {
        return if allow_empty {
            Ok(())
        } else {
            Err(io::Error::new(io::ErrorKind::InvalidInput, "empty key"))
        };
    }
    if s.starts_with('.') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("component {s:?} must not start with '.'"),
        ));
    }
    if !s
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("component {s:?} contains non path-safe characters"),
        ));
    }
    Ok(())
}

/// Disk backend: `(namespace, key)` maps to the file
/// `root/namespace/key` (or `root/key` for the empty namespace).
/// Writes go through a dot-prefixed temp file in the same directory and
/// an atomic rename, so a crash mid-`put` never leaves a torn value for
/// the next process to read — the same discipline the eval-cache flush
/// has always used.
#[derive(Debug, Clone)]
pub struct DiskStorage {
    root: PathBuf,
}

impl DiskStorage {
    /// Creates a disk store rooted at `root`. The directory is created
    /// lazily on first `put`, so constructing a store is free and a
    /// read-only consumer of a missing root just sees empty namespaces.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// The root directory of this store.
    pub fn root(&self) -> &PathBuf {
        &self.root
    }

    fn dir(&self, namespace: &str) -> PathBuf {
        if namespace.is_empty() {
            self.root.clone()
        } else {
            self.root.join(namespace)
        }
    }

    fn file(&self, namespace: &str, key: &str) -> io::Result<PathBuf> {
        validate_component(namespace, true)?;
        validate_component(key, false)?;
        Ok(self.dir(namespace).join(key))
    }
}

impl Storage for DiskStorage {
    fn get(&self, namespace: &str, key: &str) -> io::Result<Option<Vec<u8>>> {
        let path = self.file(namespace, key)?;
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn put(&self, namespace: &str, key: &str, value: &[u8]) -> io::Result<()> {
        let path = self.file(namespace, key)?;
        let dir = self.dir(namespace);
        std::fs::create_dir_all(&dir)?;
        // Dot-prefixed temp name: `scan` skips dot files and
        // `validate_component` rejects dot keys, so the temp file can
        // never shadow or collide with a real key.
        let tmp = dir.join(format!(".tmp.{key}"));
        std::fs::write(&tmp, value)?;
        std::fs::rename(&tmp, &path)
    }

    fn scan(&self, namespace: &str) -> io::Result<Vec<String>> {
        validate_component(namespace, true)?;
        let dir = self.dir(namespace);
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut keys = Vec::new();
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue; // sub-namespaces (and anything exotic)
            }
            if let Some(name) = entry.file_name().to_str() {
                // Skip temp files and anything a foreign writer left that
                // could not have been stored through this trait.
                if validate_component(name, false).is_ok() {
                    keys.push(name.to_string());
                }
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }

    fn delete(&self, namespace: &str, key: &str) -> io::Result<bool> {
        let path = self.file(namespace, key)?;
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }
}

/// In-memory backend: a mutex-guarded ordered map. `scan` order falls out
/// of the `BTreeMap` for free, matching the sorted order [`DiskStorage`]
/// produces — the two backends are behaviourally interchangeable (pinned
/// by the parity tests below and the service's two-backend suite).
#[derive(Debug, Default)]
pub struct MemoryStorage {
    map: Mutex<BTreeMap<(String, String), Vec<u8>>>,
}

impl MemoryStorage {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemoryStorage {
    fn get(&self, namespace: &str, key: &str) -> io::Result<Option<Vec<u8>>> {
        validate_component(namespace, true)?;
        validate_component(key, false)?;
        Ok(self
            .map
            .lock()
            .get(&(namespace.to_string(), key.to_string()))
            .cloned())
    }

    fn put(&self, namespace: &str, key: &str, value: &[u8]) -> io::Result<()> {
        validate_component(namespace, true)?;
        validate_component(key, false)?;
        self.map
            .lock()
            .insert((namespace.to_string(), key.to_string()), value.to_vec());
        Ok(())
    }

    fn scan(&self, namespace: &str) -> io::Result<Vec<String>> {
        validate_component(namespace, true)?;
        Ok(self
            .map
            .lock()
            .range((namespace.to_string(), String::new())..)
            .take_while(|((ns, _), _)| ns == namespace)
            .map(|((_, k), _)| k.clone())
            .collect())
    }

    fn delete(&self, namespace: &str, key: &str) -> io::Result<bool> {
        validate_component(namespace, true)?;
        validate_component(key, false)?;
        Ok(self
            .map
            .lock()
            .remove(&(namespace.to_string(), key.to_string()))
            .is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Exercises the full trait surface; both backends must pass verbatim.
    fn exercise(s: &dyn Storage) {
        assert_eq!(s.get("ns", "a").unwrap(), None);
        assert_eq!(s.scan("ns").unwrap(), Vec::<String>::new());
        s.put("ns", "b", b"beta").unwrap();
        s.put("ns", "a", b"alpha").unwrap();
        s.put("other", "a", b"elsewhere").unwrap();
        assert_eq!(s.get("ns", "a").unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(s.scan("ns").unwrap(), vec!["a", "b"]);
        assert_eq!(s.scan("other").unwrap(), vec!["a"]);
        // overwrite replaces
        s.put("ns", "a", b"alpha2").unwrap();
        assert_eq!(s.get("ns", "a").unwrap().as_deref(), Some(&b"alpha2"[..]));
        // namespaces are disjoint
        assert_eq!(
            s.get("other", "a").unwrap().as_deref(),
            Some(&b"elsewhere"[..])
        );
        // delete reports existence
        assert!(s.delete("ns", "a").unwrap());
        assert!(!s.delete("ns", "a").unwrap());
        assert_eq!(s.scan("ns").unwrap(), vec!["b"]);
        // empty namespace works (the single-file eval-cache shape)
        s.put("", "rootkey", b"r").unwrap();
        assert_eq!(s.get("", "rootkey").unwrap().as_deref(), Some(&b"r"[..]));
        assert!(s.scan("").unwrap().contains(&"rootkey".to_string()));
    }

    #[test]
    fn memory_backend_round_trips() {
        exercise(&MemoryStorage::new());
    }

    #[test]
    fn disk_backend_round_trips() {
        let root = temp_root("roundtrip");
        exercise(&DiskStorage::new(&root));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_values_survive_reopen() {
        let root = temp_root("reopen");
        DiskStorage::new(&root)
            .put("ns", "k", b"persisted")
            .unwrap();
        let reopened = DiskStorage::new(&root);
        assert_eq!(
            reopened.get("ns", "k").unwrap().as_deref(),
            Some(&b"persisted"[..])
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn invalid_components_rejected_by_both_backends() {
        let root = temp_root("invalid");
        let disk = DiskStorage::new(&root);
        let mem = MemoryStorage::new();
        for s in [&disk as &dyn Storage, &mem as &dyn Storage] {
            assert!(s.put("ns", "", b"x").is_err(), "empty key");
            assert!(s.put("ns", "a/b", b"x").is_err(), "path separator");
            assert!(s.put("..", "k", b"x").is_err(), "dotdot namespace");
            assert!(s.put("ns", ".hidden", b"x").is_err(), "dot key");
            assert!(s.get("ns", "../../etc",).is_err(), "traversal");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_scan_skips_temp_and_foreign_files() {
        let root = temp_root("scan");
        let disk = DiskStorage::new(&root);
        disk.put("ns", "real", b"x").unwrap();
        std::fs::write(root.join("ns").join(".tmp.orphan"), b"crashed").unwrap();
        std::fs::create_dir_all(root.join("ns").join("subdir")).unwrap();
        assert_eq!(disk.scan("ns").unwrap(), vec!["real"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn backends_agree_on_scan_order() {
        let root = temp_root("order");
        let disk = DiskStorage::new(&root);
        let mem = MemoryStorage::new();
        for s in [&disk as &dyn Storage, &mem as &dyn Storage] {
            for k in ["zeta", "alpha", "mid-3", "mid-10"] {
                s.put("ns", k, k.as_bytes()).unwrap();
            }
        }
        assert_eq!(disk.scan("ns").unwrap(), mem.scan("ns").unwrap());
        let _ = std::fs::remove_dir_all(&root);
    }
}
