//! Run manifest: the machine-checkable record of one orchestrated run.
//!
//! `repro_out/manifest.json` captures, per job: status, cache
//! disposition, start/end offsets (milliseconds since the run started —
//! overlapping intervals are the observable proof that jobs ran
//! concurrently), wall time and artifact digests. CI fails a run on any
//! `Failed` entry and archives the manifest; interrupted runs are
//! diagnosed by comparing the manifest against the registry (jobs
//! missing from the manifest never ran and will be recomputed or
//! replayed from cache on the next invocation).

use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Terminal state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobStatus {
    /// Ran (or replayed from cache) and wrote all artifacts.
    Ok,
    /// Panicked, failed an artifact write, or broke its declaration.
    Failed,
}

/// How the result cache participated in one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheDisposition {
    /// Replayed from a cached result; the job body never ran.
    Hit,
    /// Looked up, absent; computed and stored.
    Miss,
    /// `--force`: computed and re-stored without looking up.
    Refresh,
    /// `--no-cache`: computed; nothing read or written.
    Off,
}

/// One artifact written into the output directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactRecord {
    /// Path relative to the output directory.
    pub path: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Content fingerprint (hex, [`crate::cache::fingerprint64`]).
    pub digest: String,
}

/// Per-job telemetry summary recorded in the manifest: thread-budget
/// pressure attributed to the job's worker thread, and how many sink
/// events the job emitted (0 unless the run collected telemetry).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Peak concurrent threads the job held: its own worker thread plus
    /// the largest single extra-thread lease it obtained.
    pub budget_peak_leases: usize,
    /// Total milliseconds the job's lease calls spent waiting on the
    /// budget lock.
    pub budget_wait_ms: f64,
    /// Telemetry events drained into the job's `telemetry.jsonl`.
    pub telemetry_events: u64,
}

impl Default for JobMetrics {
    fn default() -> Self {
        JobMetrics {
            budget_peak_leases: 1,
            budget_wait_ms: 0.0,
            telemetry_events: 0,
        }
    }
}

/// Everything the orchestrator knows about one job after the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub id: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Cache participation.
    pub cache: CacheDisposition,
    /// Start offset, milliseconds since the run began.
    pub started_ms: u64,
    /// End offset, milliseconds since the run began.
    pub ended_ms: u64,
    /// Wall seconds spent on this job.
    pub wall_s: f64,
    /// Inner-parallelism hint the job declared.
    pub threads_hint: usize,
    /// Panic message or I/O error for `Failed` entries.
    pub error: Option<String>,
    /// Artifacts written (empty for failed jobs).
    pub artifacts: Vec<ArtifactRecord>,
    /// Telemetry summary (budget pressure, event counts).
    pub metrics: JobMetrics,
}

/// The full record of one orchestrated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Orchestrator crate version that produced this manifest.
    pub swarm_lab_version: String,
    /// Process run id ([`swarm_obs::run_id`]) — matches the header of
    /// every telemetry file this run wrote, so offline analysis can
    /// correlate a manifest with its telemetry without mtimes. Empty
    /// in manifests predating the field.
    #[serde(default)]
    pub run_id: String,
    /// Wall-clock unix-epoch milliseconds at recorder start; 0 in
    /// manifests predating the field.
    #[serde(default)]
    pub ts_unix_ms: u64,
    /// Code-version salt the cache was keyed with.
    pub salt: String,
    /// Quick (reduced-fidelity) mode.
    pub quick: bool,
    /// Concurrent job workers the pool was sized to.
    pub workers: usize,
    /// Global compute-thread budget shared by all jobs.
    pub thread_budget: usize,
    /// Total run wall seconds.
    pub wall_s: f64,
    /// Per-job records, in registry order.
    pub jobs: Vec<JobRecord>,
}

impl Manifest {
    /// Records with `status == Failed`.
    pub fn failures(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.status == JobStatus::Failed)
    }

    /// True when every job completed successfully.
    pub fn all_ok(&self) -> bool {
        self.failures().next().is_none()
    }

    /// Records whose result was replayed from cache.
    pub fn cache_hits(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.cache == CacheDisposition::Hit)
            .count()
    }

    /// Serialize to pretty JSON and write atomically to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, path)
    }

    /// Load and parse a manifest from `path`.
    pub fn load(path: &Path) -> io::Result<Self> {
        let raw = std::fs::read_to_string(path)?;
        serde_json::from_str(&raw).map_err(io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            swarm_lab_version: "0.1.0".to_string(),
            run_id: "deadbeefdeadbeef".to_string(),
            ts_unix_ms: 1_700_000_000_000,
            salt: "abc123".to_string(),
            quick: true,
            workers: 4,
            thread_budget: 8,
            wall_s: 1.25,
            jobs: vec![
                JobRecord {
                    id: "fig1".to_string(),
                    status: JobStatus::Ok,
                    cache: CacheDisposition::Miss,
                    started_ms: 0,
                    ended_ms: 900,
                    wall_s: 0.9,
                    threads_hint: 8,
                    error: None,
                    artifacts: vec![ArtifactRecord {
                        path: "fig1.txt".to_string(),
                        bytes: 42,
                        digest: "00ff".to_string(),
                    }],
                    metrics: JobMetrics {
                        budget_peak_leases: 4,
                        budget_wait_ms: 0.25,
                        telemetry_events: 17,
                    },
                },
                JobRecord {
                    id: "fig2".to_string(),
                    status: JobStatus::Failed,
                    cache: CacheDisposition::Off,
                    started_ms: 10,
                    ended_ms: 40,
                    wall_s: 0.03,
                    threads_hint: 1,
                    error: Some("panicked: boom".to_string()),
                    artifacts: vec![],
                    metrics: JobMetrics::default(),
                },
            ],
        }
    }

    #[test]
    fn accessors_reflect_contents() {
        let m = sample();
        assert!(!m.all_ok());
        assert_eq!(m.failures().count(), 1);
        assert_eq!(m.failures().next().unwrap().id, "fig2");
        assert_eq!(m.cache_hits(), 0);
    }

    #[test]
    fn manifests_predating_run_correlation_still_parse() {
        // Manifests written before run_id/ts_unix_ms existed must keep
        // loading (CI archives old ones); the fields default to empty.
        let mut v = serde_json::to_value(sample()).expect("to_value");
        match &mut v {
            serde_json::Value::Object(obj) => {
                obj.remove("run_id");
                obj.remove("ts_unix_ms");
            }
            other => panic!("expected object, got {other:?}"),
        }
        let raw = serde_json::to_string(&v).expect("to_string");
        let m: Manifest = serde_json::from_str(&raw).expect("parse without new fields");
        assert_eq!(m.run_id, "");
        assert_eq!(m.ts_unix_ms, 0);
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir =
            std::env::temp_dir().join(format!("swarm-lab-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("manifest.json");
        let m = sample();
        m.save(&path).expect("save");
        let back = Manifest::load(&path).expect("load");
        assert_eq!(back, m);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
