//! Content-addressed trace store.
//!
//! Replay jobs need a recorded trace of their workload. Recording is
//! deterministic, so a trace is fully determined by its key — the
//! workload name plus the sweep fingerprint of the scale it was recorded
//! at (the same fingerprint that gates journal reuse). The store records
//! each distinct key at most once per daemon lifetime, shares the file
//! across every job that asks for it, and survives restarts: the file is
//! the cache.

use memsim_core::{sweep_fingerprint, RunOpts, Scale};
use memsim_workloads::WorkloadKind;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The store: a directory of `<workload>-<fingerprint-hash>.trace` files
/// plus an in-process lock map so concurrent jobs coalesce on one
/// recording instead of racing.
pub struct TraceStore {
    dir: PathBuf,
    // Key -> recorded? Guards the record-then-rename window; the OnceLock
    // idiom is overkill here because recording already writes to a
    // job-unique temp name and renames atomically.
    recorded: Mutex<HashMap<String, ()>>,
}

/// Short stable digest of an arbitrary string (FNV-1a 64), hex-encoded.
/// Keeps file names bounded however long the fingerprint grows.
pub fn digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl TraceStore {
    /// Open (and create) the store rooted at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<TraceStore> {
        std::fs::create_dir_all(dir)?;
        Ok(TraceStore {
            dir: dir.to_path_buf(),
            recorded: Mutex::new(HashMap::new()),
        })
    }

    /// The content key for a workload at a scale.
    pub fn key(kind: WorkloadKind, scale: &Scale) -> String {
        format!(
            "{}-{}",
            kind.name().to_ascii_lowercase(),
            digest(&sweep_fingerprint(scale, &RunOpts::default()))
        )
    }

    /// Path a key's trace lives at (whether or not it exists yet).
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.trace"))
    }

    /// Ensure the trace for `kind` at `scale` exists, recording it on
    /// first use, and return its path. Serialized per store so two jobs
    /// requesting the same key record it exactly once.
    pub fn ensure(&self, kind: WorkloadKind, scale: &Scale) -> Result<PathBuf, String> {
        let key = Self::key(kind, scale);
        let path = self.path_for(&key);
        let mut recorded = self.recorded.lock().unwrap_or_else(|e| e.into_inner());
        if recorded.contains_key(&key) || path.exists() {
            recorded.insert(key, ());
            return Ok(path);
        }
        // Record to a temp name, then rename: readers never observe a
        // partial trace, even across a crash.
        let tmp = self.dir.join(format!("{key}.trace.tmp"));
        memsim_core::record_workload(kind, scale.class, &tmp)
            .map_err(|e| format!("recording {}: {e}", kind.name()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("publishing trace: {e}"))?;
        recorded.insert(key, ());
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_distinct() {
        assert_eq!(digest("abc"), digest("abc"));
        assert_ne!(digest("abc"), digest("abd"));
        assert_eq!(digest("abc").len(), 16);
    }

    #[test]
    fn key_separates_workload_and_scale() {
        let mini = Scale::mini();
        let demo = Scale::demo();
        assert_ne!(
            TraceStore::key(WorkloadKind::Hash, &mini),
            TraceStore::key(WorkloadKind::Cg, &mini)
        );
        assert_ne!(
            TraceStore::key(WorkloadKind::Hash, &mini),
            TraceStore::key(WorkloadKind::Hash, &demo)
        );
    }

    #[test]
    fn ensure_records_once_and_reuses() {
        let dir = std::env::temp_dir().join(format!("memsim-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::open(&dir).unwrap();
        let p1 = store.ensure(WorkloadKind::Hash, &Scale::mini()).unwrap();
        assert!(p1.exists());
        let len = std::fs::metadata(&p1).unwrap().len();
        let p2 = store.ensure(WorkloadKind::Hash, &Scale::mini()).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(std::fs::metadata(&p2).unwrap().len(), len);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
