//! `repro` — regenerate the paper's tables and figures through the
//! `swarm-lab` orchestrator.
//!
//! ```text
//! repro list                      # show available experiment ids
//! repro all [--quick]             # run everything (writes repro_out/)
//! repro fig6a [--quick]           # run one experiment
//! repro all fig1 --quick          # `all` composes anywhere; ids dedupe
//! repro all --jobs 4 --force      # 4 concurrent jobs, ignore the cache
//! repro all --dry-run             # show the dispatch plan, run nothing
//! ```
//!
//! Jobs are scheduled longest-first across a worker pool (`--jobs N`,
//! default: all cores) sharing one compute-thread budget, results are
//! replayed from a content-addressed cache under `repro_out/.cache/`
//! keyed by (id, quick, code-version) unless `--force` (recompute,
//! re-store) or `--no-cache` (recompute, touch nothing), and each job is
//! panic-isolated: failures land in `repro_out/manifest.json` and the
//! exit code, not in the other jobs. Output goes to stdout plus
//! `repro_out/<id>.{txt,json}`; `--out DIR` redirects the whole tree.
//!
//! `--telemetry[=DIR]` turns on `swarm-obs` recording for the run: each
//! job writes `telemetry.jsonl` and a `metrics.json` summary under
//! `DIR/<id>/` (default `DIR` is `<out>/telemetry`), the manifest
//! carries per-job metric summaries, and the run ends with a rendered
//! telemetry table on stdout. `--quiet` (or `SWARM_LOG=warn`) silences
//! progress logging without touching the machine-readable output.
//!
//! Three offline subcommands analyze what a telemetry run wrote
//! (implemented in `swarm-trace`):
//!
//! ```text
//! repro trace <TELEMETRY_DIR>      # availability timelines, busy
//!                                  # periods vs the closed-form model,
//!                                  # collapsed-stack profile
//! repro trace DIR --timeseries     # ... plus the windowed trend report
//! repro diff A B                   # regression-gate two runs' metrics
//! repro diff --baseline F RUN      # ... or a run against a baseline
//! repro diff --timeseries A B      # trend-gate two runs' window series
//! repro net-report <TELEMETRY_DIR> # wire-level connection timelines,
//!                                  # conservation invariants, swarm
//!                                  # health report (live engine runs)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use swarm_bench::{lab, EXPERIMENTS};
use swarm_lab::{CacheMode, JobSpec, RunConfig};
use swarm_obs::{log_error, Level};

const USAGE: &str = "usage: repro <list|all|EXPERIMENT...> \
[--quick] [--jobs N] [--force] [--no-cache] [--out DIR] [--dry-run] \
[--quiet] [--telemetry[=DIR]]
       repro trace <TELEMETRY_DIR> [--flame PATH] [--width N] [--timeseries]
       repro diff <A> <B> [--max-rel R] [--metric NAME=R] [--timeseries]
       repro diff --baseline FILE <RUN> [--write-baseline] [--timeseries]
       repro net-report <TELEMETRY_DIR> [--swimlane PATH] [--folded PATH]";

struct Args {
    ids: Vec<String>,
    list: bool,
    quick: bool,
    force: bool,
    no_cache: bool,
    dry_run: bool,
    quiet: bool,
    /// `Some(empty path)` means "default location under --out".
    telemetry: Option<PathBuf>,
    jobs: Option<usize>,
    out: PathBuf,
}

fn parse(raw: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        list: false,
        quick: false,
        force: false,
        no_cache: false,
        dry_run: false,
        quiet: false,
        telemetry: None,
        jobs: None,
        out: PathBuf::from("repro_out"),
    };
    fn flag_value(
        name: &str,
        arg: &str,
        it: &mut impl Iterator<Item = String>,
    ) -> Result<String, String> {
        match arg.split_once('=') {
            Some((_, v)) if !v.is_empty() => Ok(v.to_string()),
            Some(_) => Err(format!("{name} needs a value")),
            None => it.next().ok_or_else(|| format!("{name} needs a value")),
        }
    }
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--force" => args.force = true,
            "--no-cache" => args.no_cache = true,
            "--dry-run" => args.dry_run = true,
            "--quiet" => args.quiet = true,
            // Bare `--telemetry` takes no operand (the next word could
            // be an experiment id); an explicit dir uses `=`.
            "--telemetry" => args.telemetry = Some(PathBuf::new()),
            s if s.starts_with("--telemetry=") => {
                args.telemetry = Some(PathBuf::from(flag_value("--telemetry", s, &mut it)?));
            }
            s if s == "--jobs" || s.starts_with("--jobs=") => {
                let v = flag_value("--jobs", s, &mut it)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a positive integer, got `{v}`"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                args.jobs = Some(n);
            }
            s if s == "--out" || s.starts_with("--out=") => {
                args.out = PathBuf::from(flag_value("--out", s, &mut it)?);
            }
            s if s.starts_with("--") => return Err(format!("unknown flag: {s}")),
            "list" => args.list = true,
            // `all` expands in place, composes with explicit ids
            // anywhere in the list, and repeated ids dedupe below.
            "all" => args.ids.extend(EXPERIMENTS.iter().map(|id| id.to_string())),
            other => args.ids.push(other.to_string()),
        }
    }
    if args.force && args.no_cache {
        return Err("--force and --no-cache are mutually exclusive".to_string());
    }
    // Dedupe, keeping first occurrence so explicit ordering survives.
    let mut seen = std::collections::HashSet::new();
    args.ids.retain(|id| seen.insert(id.clone()));
    Ok(args)
}

/// Hidden test hook: a job that always panics, for exercising the
/// orchestrator's fault isolation end-to-end (not listed by `list`).
const INJECT_PANIC: &str = "inject-panic";

fn inject_panic_spec() -> JobSpec {
    JobSpec::new(
        INJECT_PANIC,
        "deliberately panicking job (fault-isolation test hook)",
        || panic!("inject-panic: deliberate failure"),
    )
    .cost_hint(0.01)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Offline analysis subcommands route straight into swarm-trace;
    // they take no orchestrator flags.
    match raw.first().map(String::as_str) {
        Some("trace") => return ExitCode::from(swarm_trace::cli::trace_main(&raw[1..]) as u8),
        Some("diff") => return ExitCode::from(swarm_trace::cli::diff_main(&raw[1..]) as u8),
        Some("net-report") => {
            return ExitCode::from(swarm_trace::cli::net_report_main(&raw[1..]) as u8)
        }
        _ => {}
    }
    let wants_help = raw.iter().any(|a| a == "help" || a == "--help");
    let args = match parse(raw) {
        Ok(args) => args,
        Err(e) => {
            log_error!("repro", "{e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.quiet {
        swarm_obs::set_log_level(Level::Warn);
    }
    if wants_help {
        eprintln!("{USAGE}");
        eprintln!("experiments: {}", EXPERIMENTS.join(", "));
        return ExitCode::SUCCESS;
    }
    if args.list {
        for id in EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if args.ids.is_empty() {
        eprintln!("{USAGE}");
        eprintln!("experiments: {}", EXPERIMENTS.join(", "));
        return ExitCode::from(2);
    }

    let mut specs = Vec::with_capacity(args.ids.len());
    for id in &args.ids {
        if id == INJECT_PANIC {
            specs.push(inject_panic_spec());
            continue;
        }
        match lab::job_spec(id, args.quick) {
            Some(spec) => specs.push(spec),
            None => {
                log_error!("repro", "unknown experiment: {id}");
                eprintln!("experiments: {}", EXPERIMENTS.join(", "));
                return ExitCode::from(2);
            }
        }
    }

    let cores = swarm_stats::parallel::cores();
    let workers = args.jobs.unwrap_or(cores);
    let cfg = RunConfig {
        workers,
        // An explicit --jobs above the core count is an instruction to
        // oversubscribe; the budget funds one thread per worker so the
        // pool is never silently clamped below what was asked for.
        thread_budget: cores.max(workers),
        quick: args.quick,
        cache: if args.force {
            CacheMode::Refresh
        } else if args.no_cache {
            CacheMode::Off
        } else {
            CacheMode::Use
        },
        progress: true,
        echo_text: true,
        telemetry: args.telemetry.as_ref().map(|dir| {
            if dir.as_os_str().is_empty() {
                args.out.join("telemetry")
            } else {
                dir.clone()
            }
        }),
        ..RunConfig::new(args.out.clone())
    };

    if args.dry_run {
        let mut plan: Vec<&JobSpec> = specs.iter().collect();
        plan.sort_by(|a, b| {
            b.cost_hint
                .partial_cmp(&a.cost_hint)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.id.cmp(&b.id))
        });
        eprintln!(
            "dry run: {} job(s), {} worker(s), thread budget {}, dispatch order:",
            plan.len(),
            cfg.workers.min(plan.len().max(1)),
            cfg.thread_budget,
        );
        for spec in plan {
            println!(
                "{:<20} est {:>5.1} s  threads<={}",
                spec.id, spec.cost_hint, spec.threads_hint
            );
        }
        return ExitCode::SUCCESS;
    }

    match swarm_lab::run(&specs, &cfg) {
        Ok(report) => {
            // The scheduler saved the manifest before returning, so by
            // the time anything below prints the run record is already
            // durable. All final reporting happens under one console
            // guard (raw writes, not the log macros — `log` takes the
            // same lock) so late worker output cannot interleave with
            // it.
            let _io = swarm_obs::console();
            let m = &report.manifest;
            if let Some(table) = &report.telemetry_report {
                if let Some(dir) = &report.telemetry_dir {
                    println!("telemetry ({}):", dir.display());
                }
                println!("{table}");
            }
            eprintln!(
                "[{} job(s) in {:.1} s — {} ok, {} failed, {} cache hit(s); manifest: {}]",
                m.jobs.len(),
                m.wall_s,
                m.jobs.len() - m.failures().count(),
                m.failures().count(),
                m.cache_hits(),
                report.manifest_path.display(),
            );
            if report.all_ok() {
                ExitCode::SUCCESS
            } else {
                for failed in m.failures() {
                    eprintln!(
                        "failed: {} — {}",
                        failed.id,
                        failed.error.as_deref().unwrap_or("(no error recorded)")
                    );
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            log_error!("repro", "could not write run manifest: {e}");
            ExitCode::FAILURE
        }
    }
}
