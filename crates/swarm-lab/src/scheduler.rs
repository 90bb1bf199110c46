//! Longest-first scheduling over a thread-budgeted worker pool, with
//! per-job panic isolation.
//!
//! The pool runs up to `workers` jobs concurrently. Jobs are dispatched
//! in descending [`JobSpec::cost_hint`] order — the classic LPT
//! (longest-processing-time) heuristic, which keeps an expensive tail
//! job from being started last and stretching the makespan. Every
//! worker owns one compute thread funded from a shared
//! [`ThreadBudget`]; when a job's inner `swarm_stats::parallel`
//! replication asks for more threads, it leases them from the same
//! budget, so total compute threads never exceed the budget no matter
//! how many jobs run at once.
//!
//! Each job body runs under `catch_unwind`: a panic becomes a `Failed`
//! manifest entry with the panic message, and every other job still
//! runs to completion. Artifact-write failures are likewise per-job
//! failures, not run aborts.
//!
//! When [`RunConfig::telemetry`] names a directory the scheduler turns
//! `swarm_obs` recording on for the duration of the run: every job
//! executes inside a [`swarm_obs::job_scope`] and a `lab.job` span, its
//! structured events are drained to `<dir>/<id>/telemetry.jsonl` next
//! to a `metrics.json` summary, and the run finishes with a global
//! `telemetry.jsonl`, a registry-delta `metrics.json`, a rendered
//! `report.txt` and — when any engine recorded windowed series — a
//! `timeseries.jsonl` drained from the process-global series registry.
//! Progress output goes through the `swarm_obs` leveled
//! logger (so `SWARM_LOG=warn` silences it) and shares its console
//! lock, which keeps multi-line job text echoes from interleaving with
//! progress lines.

use crate::cache::{fingerprint64, CacheKey, ResultCache};
use crate::job::{JobOutput, JobSpec};
use crate::manifest::{
    ArtifactRecord, CacheDisposition, JobMetrics, JobRecord, JobStatus, Manifest,
};
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;
use swarm_stats::parallel::{self, ThreadBudget};

/// How the result cache participates in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Replay hits, compute and store misses (the default).
    #[default]
    Use,
    /// `--force`: recompute everything, storing fresh entries.
    Refresh,
    /// `--no-cache`: recompute everything, touching no entries.
    Off,
}

/// Orchestrator configuration for one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Directory artifacts, the manifest and the cache live under.
    pub out_dir: PathBuf,
    /// Maximum number of jobs in flight at once.
    pub workers: usize,
    /// Global compute-thread budget shared by every job's inner
    /// parallelism (see [`ThreadBudget`]).
    pub thread_budget: usize,
    /// Quick (reduced-fidelity) mode — part of the cache key.
    pub quick: bool,
    /// Cache participation.
    pub cache: CacheMode,
    /// Code-version salt — part of the cache key (see
    /// [`crate::cache::code_salt`]).
    pub salt: String,
    /// Print live per-job progress lines to stderr.
    pub progress: bool,
    /// Print each job's rendered text to stdout as it completes.
    pub echo_text: bool,
    /// When set, enable `swarm_obs` recording for the run and write
    /// per-job and run-level telemetry under this directory.
    pub telemetry: Option<PathBuf>,
}

impl RunConfig {
    /// Defaults: as many workers as cores, a thread budget of all
    /// cores, cache on, salted by the running executable.
    pub fn new(out_dir: impl Into<PathBuf>) -> Self {
        let cores = parallel::cores();
        RunConfig {
            out_dir: out_dir.into(),
            workers: cores,
            thread_budget: cores,
            quick: false,
            cache: CacheMode::Use,
            salt: crate::cache::code_salt(),
            progress: false,
            echo_text: false,
            telemetry: None,
        }
    }
}

/// Outcome of one orchestrated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The full per-job record, already saved to `manifest.json`.
    pub manifest: Manifest,
    /// Where the manifest was written.
    pub manifest_path: PathBuf,
    /// Directory telemetry was written under, when collected.
    pub telemetry_dir: Option<PathBuf>,
    /// Rendered end-of-run telemetry table, when collected.
    pub telemetry_report: Option<String>,
}

impl RunReport {
    /// True when every job succeeded (the CLI's exit-code criterion).
    pub fn all_ok(&self) -> bool {
        self.manifest.all_ok()
    }
}

// Panic messages are reported through the manifest; while at least one
// orchestrated run is active the default all-threads panic printer is
// silenced so a poisoned job cannot garble the progress output. The
// filtering hook is installed once and delegates to the previous hook
// whenever no run is active.
static QUIET_DEPTH: AtomicUsize = AtomicUsize::new(0);
static HOOK_ONCE: Once = Once::new();

struct QuietPanics;

impl QuietPanics {
    fn engage() -> Self {
        HOOK_ONCE.call_once(|| {
            let prev = panic::take_hook();
            panic::set_hook(Box::new(move |info| {
                if QUIET_DEPTH.load(Ordering::SeqCst) == 0 {
                    prev(info);
                }
            }));
        });
        QUIET_DEPTH.fetch_add(1, Ordering::SeqCst);
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        QUIET_DEPTH.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run every job in `jobs` and write `manifest.json` under
/// `cfg.out_dir`. Always returns a report when the manifest could be
/// written — job failures are recorded in it, not bubbled up as errors.
pub fn run(jobs: &[JobSpec], cfg: &RunConfig) -> io::Result<RunReport> {
    let started = Instant::now();
    let _quiet = QuietPanics::engage();

    let prev_enabled = swarm_obs::enabled();
    if cfg.telemetry.is_some() {
        swarm_obs::set_enabled(true);
    }
    let metrics_base = swarm_obs::snapshot();
    let run_span = swarm_obs::span("lab.run");

    // Longest first (LPT); ties broken by id so the dispatch order is
    // deterministic.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[b]
            .cost_hint
            .partial_cmp(&jobs[a].cost_hint)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| jobs[a].id.cmp(&jobs[b].id))
    });

    let budget = Arc::new(ThreadBudget::new(cfg.thread_budget.max(1)));
    let workers = cfg.workers.clamp(1, budget.total()).min(jobs.len().max(1));
    // Each worker's own thread is funded from the budget up front, so
    // `workers + sum(inner leases)` can never exceed the budget.
    let own_permits: Vec<_> = (0..workers).map(|_| budget.try_lease(1)).collect();
    let prev_budget = parallel::set_global_budget(Some(Arc::clone(&budget)));

    let cache = ResultCache::new(cfg.out_dir.join(".cache"));
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let busy_ns = AtomicU64::new(0);
    let records: Vec<Mutex<Option<JobRecord>>> =
        (0..jobs.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for own in own_permits {
            let next = &next;
            let finished = &finished;
            let records = &records;
            let busy_ns = &busy_ns;
            let order = &order;
            let cache = &cache;
            scope.spawn(move || {
                let _own = own;
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= order.len() {
                        break;
                    }
                    if swarm_obs::enabled() {
                        let pending = order.len().saturating_sub(k + 1);
                        swarm_obs::gauge("lab.queue.depth").set(pending as i64);
                    }
                    let idx = order[k];
                    let spec = &jobs[idx];
                    if cfg.progress {
                        swarm_obs::log_info!(
                            "lab",
                            "start {} (est {:.1} s)",
                            spec.id,
                            spec.cost_hint
                        );
                    }
                    parallel::reset_lease_stats();
                    let job_t0 = Instant::now();
                    // The span must drop before the job scope so its
                    // closing event still carries the job tag, and both
                    // must drop before the drain below.
                    let (mut record, text) = {
                        let _job = swarm_obs::job_scope(&spec.id);
                        let _span = swarm_obs::span_labeled("lab.job", &spec.id);
                        run_one(spec, cfg, cache, started)
                    };
                    busy_ns.fetch_add(job_t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    let ls = parallel::lease_stats();
                    record.metrics = JobMetrics {
                        budget_peak_leases: 1 + ls.max_granted,
                        budget_wait_ms: ls.wait_ns as f64 / 1e6,
                        telemetry_events: 0,
                    };
                    if swarm_obs::enabled() {
                        match record.cache {
                            CacheDisposition::Hit => swarm_obs::counter("lab.cache.hit").inc(),
                            _ => swarm_obs::counter("lab.cache.miss").inc(),
                        }
                    }
                    if let Some(tdir) = cfg.telemetry.as_deref() {
                        let events = swarm_obs::drain_job(&spec.id);
                        record.metrics.telemetry_events = events.len() as u64;
                        if let Err(e) =
                            write_job_telemetry(tdir, &spec.id, &events, &record.metrics)
                        {
                            swarm_obs::log_warn!(
                                "lab",
                                "could not write telemetry for {}: {e}",
                                spec.id
                            );
                        }
                    }
                    let n_done = finished.fetch_add(1, Ordering::Relaxed) + 1;
                    if cfg.echo_text {
                        if let Some(text) = text {
                            // Hold the shared console lock so the
                            // multi-line block is not interleaved with
                            // progress lines from other workers.
                            let _io = swarm_obs::console();
                            println!("{text}");
                        }
                    }
                    if cfg.progress {
                        let cache_str = match record.cache {
                            CacheDisposition::Hit => "hit",
                            CacheDisposition::Miss => "miss",
                            CacheDisposition::Refresh => "refresh",
                            CacheDisposition::Off => "off",
                        };
                        match record.status {
                            JobStatus::Ok => swarm_obs::log_info!(
                                "lab",
                                "[{n_done:>3}/{:<3}] {:<20} ok      {:>7.2} s  cache={cache_str}",
                                order.len(),
                                record.id,
                                record.wall_s,
                            ),
                            JobStatus::Failed => swarm_obs::log_warn!(
                                "lab",
                                "[{n_done:>3}/{:<3}] {:<20} FAILED  {:>7.2} s  cache={cache_str}",
                                order.len(),
                                record.id,
                                record.wall_s,
                            ),
                        }
                    }
                    *records[idx].lock().expect("record slot") = Some(record);
                }
            });
        }
    });

    parallel::set_global_budget(prev_budget);
    drop(run_span);

    if swarm_obs::enabled() {
        let wall_ns = started.elapsed().as_nanos() as u64;
        let busy = busy_ns.load(Ordering::Relaxed);
        let capacity = wall_ns.saturating_mul(workers as u64);
        swarm_obs::counter("lab.workers.busy_ns").add(busy);
        swarm_obs::counter("lab.workers.idle_ns").add(capacity.saturating_sub(busy));
        swarm_obs::gauge("lab.budget.peak_leased").set_max(budget.peak_leased() as i64);
    }

    let manifest = Manifest {
        swarm_lab_version: env!("CARGO_PKG_VERSION").to_string(),
        run_id: swarm_obs::run_id().to_string(),
        ts_unix_ms: swarm_obs::start_unix_ms(),
        salt: cfg.salt.clone(),
        quick: cfg.quick,
        workers,
        thread_budget: budget.total(),
        wall_s: started.elapsed().as_secs_f64(),
        jobs: records
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("record slot")
                    .expect("every job produced a record")
            })
            .collect(),
    };
    let manifest_path = cfg.out_dir.join("manifest.json");
    let manifest_saved = manifest.save(&manifest_path);

    // Run telemetry is flushed even when the manifest save failed: the
    // event stream is the evidence needed to debug exactly that kind
    // of late-run failure, so it must never be lost to one.
    let mut telemetry_report = None;
    if let Some(tdir) = cfg.telemetry.as_deref() {
        let delta = swarm_obs::snapshot().delta_since(&metrics_base);
        let report = swarm_obs::render_report(&delta);
        if let Err(e) = write_run_telemetry(tdir, &delta, &report) {
            swarm_obs::log_warn!("lab", "could not write run telemetry: {e}");
        }
        telemetry_report = Some(report);
        swarm_obs::set_enabled(prev_enabled);
    }
    manifest_saved?;

    Ok(RunReport {
        manifest,
        manifest_path,
        telemetry_dir: cfg.telemetry.clone(),
        telemetry_report,
    })
}

/// Write one job's drained events and metrics summary under
/// `<dir>/<id>/`.
fn write_job_telemetry(
    dir: &Path,
    id: &str,
    events: &[swarm_obs::Event],
    metrics: &JobMetrics,
) -> io::Result<()> {
    let job_dir = dir.join(id);
    std::fs::create_dir_all(&job_dir)?;
    let mut jsonl = swarm_obs::header_line();
    jsonl.push_str(&swarm_obs::to_jsonl(events));
    std::fs::write(job_dir.join("telemetry.jsonl"), jsonl)?;
    let mut map = serde_json::Map::new();
    map.insert("id".to_string(), swarm_obs::val(id));
    map.insert(
        "metrics".to_string(),
        serde_json::to_value(metrics).map_err(io::Error::other)?,
    );
    let json =
        serde_json::to_string_pretty(&serde_json::Value::Object(map)).map_err(io::Error::other)?;
    std::fs::write(job_dir.join("metrics.json"), json)
}

/// Write the run-level residual event stream, metrics delta, rendered
/// report and (when any engine recorded one) the windowed time series
/// under `dir`.
fn write_run_telemetry(dir: &Path, delta: &swarm_obs::Snapshot, report: &str) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let events = swarm_obs::drain_all();
    let mut jsonl = swarm_obs::header_line();
    jsonl.push_str(&swarm_obs::to_jsonl(&events));
    std::fs::write(dir.join("telemetry.jsonl"), jsonl)?;
    let series = swarm_obs::drain_series();
    if !series.is_empty() {
        let mut ts = swarm_obs::header_line();
        ts.push_str(&swarm_obs::series_to_jsonl(&series));
        std::fs::write(dir.join("timeseries.jsonl"), ts)?;
    }
    let json = serde_json::to_string_pretty(delta).map_err(io::Error::other)?;
    std::fs::write(dir.join("metrics.json"), json)?;
    std::fs::write(dir.join("report.txt"), report)
}

/// Run (or replay) one job and build its manifest record. Never
/// panics: the job body is isolated with `catch_unwind` and I/O errors
/// become `Failed` records.
fn run_one(
    spec: &JobSpec,
    cfg: &RunConfig,
    cache: &ResultCache,
    run_started: Instant,
) -> (JobRecord, Option<String>) {
    let started_ms = run_started.elapsed().as_millis() as u64;
    let job_started = Instant::now();
    let key = CacheKey {
        id: &spec.id,
        quick: cfg.quick,
        salt: &cfg.salt,
    };

    let (outcome, disposition) = match cfg.cache {
        CacheMode::Use => match cache.load(&key) {
            Some(out) => (Ok(out), CacheDisposition::Hit),
            None => (execute_guarded(spec), CacheDisposition::Miss),
        },
        CacheMode::Refresh => (execute_guarded(spec), CacheDisposition::Refresh),
        CacheMode::Off => (execute_guarded(spec), CacheDisposition::Off),
    };

    let outcome = outcome.and_then(|out| check_declaration(spec, out));

    let (status, error, artifacts, text) = match outcome {
        Ok(out) => match write_artifacts(&cfg.out_dir, &out) {
            Ok(written) => {
                let computed_fresh = disposition != CacheDisposition::Hit;
                if computed_fresh && cfg.cache != CacheMode::Off {
                    if let Err(e) = cache.store(&key, &out) {
                        swarm_obs::log_warn!("lab", "could not cache {}: {e}", spec.id);
                    }
                }
                (JobStatus::Ok, None, written, Some(out.text))
            }
            Err(e) => (
                JobStatus::Failed,
                Some(format!("artifact write failed: {e}")),
                Vec::new(),
                None,
            ),
        },
        Err(msg) => (JobStatus::Failed, Some(msg), Vec::new(), None),
    };

    // A failed job leaves a marker in its own event stream: the job's
    // telemetry.jsonl then ends with the failure cause right after the
    // last pre-panic event, which is what post-mortems need. Emitted
    // inside the caller's job scope so the drain tags it correctly.
    if status == JobStatus::Failed {
        swarm_obs::emit(
            "job.failed",
            &[
                ("id", swarm_obs::val(&spec.id)),
                (
                    "error",
                    swarm_obs::val(error.as_deref().unwrap_or("unknown")),
                ),
            ],
        );
    }

    let record = JobRecord {
        id: spec.id.clone(),
        status,
        cache: disposition,
        started_ms,
        ended_ms: run_started.elapsed().as_millis() as u64,
        wall_s: job_started.elapsed().as_secs_f64(),
        threads_hint: spec.threads_hint,
        error,
        artifacts,
        metrics: JobMetrics::default(),
    };
    (record, text)
}

fn execute_guarded(spec: &JobSpec) -> Result<JobOutput, String> {
    panic::catch_unwind(AssertUnwindSafe(|| spec.execute())).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            format!("panicked: {s}")
        } else if let Some(s) = payload.downcast_ref::<String>() {
            format!("panicked: {s}")
        } else {
            "panicked: (non-string payload)".to_string()
        }
    })
}

/// A job that declares artifacts must produce exactly those names —
/// catching drift between the registry and the experiment code.
fn check_declaration(spec: &JobSpec, out: JobOutput) -> Result<JobOutput, String> {
    if spec.artifacts.is_empty() {
        return Ok(out);
    }
    let mut declared: Vec<&str> = spec.artifacts.iter().map(String::as_str).collect();
    let mut produced: Vec<&str> = out.artifacts.iter().map(|a| a.name.as_str()).collect();
    declared.sort_unstable();
    produced.sort_unstable();
    if declared == produced {
        Ok(out)
    } else {
        Err(format!(
            "artifact declaration mismatch: declared {declared:?}, produced {produced:?}"
        ))
    }
}

fn write_artifacts(out_dir: &Path, out: &JobOutput) -> io::Result<Vec<ArtifactRecord>> {
    std::fs::create_dir_all(out_dir)?;
    let mut written = Vec::with_capacity(out.artifacts.len());
    for artifact in &out.artifacts {
        let path = out_dir.join(&artifact.name);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, &artifact.contents)?;
        written.push(ArtifactRecord {
            path: artifact.name.clone(),
            bytes: artifact.contents.len() as u64,
            digest: format!("{:016x}", fingerprint64(artifact.contents.as_bytes())),
        });
    }
    Ok(written)
}
