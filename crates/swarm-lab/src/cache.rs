//! Content-addressed result cache.
//!
//! A job's result is fully determined by (experiment id, quick flag,
//! code version): every experiment is seeded and deterministic, and the
//! thread count never changes results (`swarm_stats::parallel` is
//! index-ordered). So the cache key is the triple's fingerprint, with
//! the *code-version salt* standing in for "the code": by default the
//! fingerprint of the running executable itself ([`code_salt`]), which
//! changes on any rebuild that changes any code path. Cached entries are
//! the serialized [`JobOutput`] — replaying one rewrites the artifacts
//! byte-identically without running the experiment.
//!
//! Entries are written atomically (temp file + rename) so an interrupted
//! run never leaves a truncated entry, which is what makes interrupted
//! sweeps resumable: the next run replays every completed job from cache
//! and only recomputes the rest.

use crate::job::JobOutput;
use std::io;
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a over 8-byte words — not the byte-at-a-time standard
/// FNV, just a fast, stable fingerprint for cache keys and artifact
/// digests (hashing a multi-megabyte executable must be cheap).
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        // The remainder is at most 7 bytes, so slot 7 is free to carry
        // the tail length and disambiguate zero padding from real zeros.
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        tail[7] = rem.len() as u8;
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h ^ bytes.len() as u64
}

/// Code-version salt: the fingerprint of the running executable, so any
/// rebuild with different code invalidates the whole cache. Falls back
/// to the crate version when the executable cannot be read.
pub fn code_salt() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|exe| std::fs::read(exe).ok())
        .map(|bytes| format!("{:016x}", fingerprint64(&bytes)))
        .unwrap_or_else(|| format!("pkg-{}", env!("CARGO_PKG_VERSION")))
}

/// The triple that determines a cached result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey<'a> {
    /// Experiment id.
    pub id: &'a str,
    /// Quick (reduced-fidelity) mode changes every result.
    pub quick: bool,
    /// Code-version salt (see [`code_salt`]).
    pub salt: &'a str,
}

impl CacheKey<'_> {
    /// Hex digest addressing this key's cache entry.
    pub fn digest(&self) -> String {
        let mut buf = Vec::with_capacity(self.id.len() + self.salt.len() + 4);
        buf.extend_from_slice(self.id.as_bytes());
        buf.push(0);
        buf.push(self.quick as u8);
        buf.push(0);
        buf.extend_from_slice(self.salt.as_bytes());
        format!("{:016x}", fingerprint64(&buf))
    }
}

/// On-disk store of [`JobOutput`]s under `<dir>/<id>-<digest>.json`.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The entry path for `key` (the id prefix keeps the directory
    /// human-navigable; the digest does the addressing).
    pub fn entry_path(&self, key: &CacheKey<'_>) -> PathBuf {
        self.dir.join(format!("{}-{}.json", key.id, key.digest()))
    }

    /// Load the cached output for `key`, if present and well-formed.
    pub fn load(&self, key: &CacheKey<'_>) -> Option<JobOutput> {
        let raw = std::fs::read_to_string(self.entry_path(key)).ok()?;
        serde_json::from_str(&raw).ok()
    }

    /// Store `output` under `key`, atomically.
    pub fn store(&self, key: &CacheKey<'_>, output: &JobOutput) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let final_path = self.entry_path(key);
        let tmp_path = final_path.with_extension("json.tmp");
        let json = serde_json::to_string(output).map_err(io::Error::other)?;
        std::fs::write(&tmp_path, json)?;
        std::fs::rename(&tmp_path, &final_path)
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_lengths_and_content() {
        assert_ne!(fingerprint64(b"abc"), fingerprint64(b"abd"));
        assert_ne!(fingerprint64(b"abc\0"), fingerprint64(b"abc"));
        assert_ne!(fingerprint64(b""), fingerprint64(b"\0"));
        assert_eq!(fingerprint64(b"stable"), fingerprint64(b"stable"));
        // Word-aligned and unaligned inputs both hash deterministically.
        assert_eq!(fingerprint64(b"12345678"), fingerprint64(b"12345678"));
        assert_ne!(fingerprint64(b"12345678"), fingerprint64(b"123456789"));
    }

    #[test]
    fn key_digest_depends_on_every_component() {
        let base = CacheKey {
            id: "fig1",
            quick: true,
            salt: "s1",
        };
        let other_id = CacheKey {
            id: "fig2",
            ..base.clone()
        };
        let other_quick = CacheKey {
            quick: false,
            ..base.clone()
        };
        let other_salt = CacheKey {
            salt: "s2",
            ..base.clone()
        };
        assert_ne!(base.digest(), other_id.digest());
        assert_ne!(base.digest(), other_quick.digest());
        assert_ne!(base.digest(), other_salt.digest());
        assert_eq!(base.digest(), base.digest());
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("swarm-lab-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::new(&dir);
        let key = CacheKey {
            id: "x",
            quick: false,
            salt: "v1",
        };
        assert!(cache.load(&key).is_none(), "cold cache misses");
        let out = JobOutput::text_only("body").with_artifact("x.txt", "body");
        cache.store(&key, &out).expect("store");
        assert_eq!(cache.load(&key), Some(out));
        // A different salt misses even with the entry on disk.
        let salted = CacheKey {
            salt: "v2",
            ..key.clone()
        };
        assert!(cache.load(&salted).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
