//! The `repro trace` / `repro diff` / `repro net-report` entry points.
//!
//! Kept in the library (not the `repro` binary) so the argument
//! parsing and rendering are testable without spawning a process.
//! All return a process exit code: 0 success, 1 regression or
//! invariant violation found (`diff` / `net-report`), 2 usage or I/O
//! error.

use crate::diff::{self, Baseline, Thresholds};
use crate::flame;
use crate::net;
use crate::timeline;
use crate::timeseries;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const TRACE_USAGE: &str = "\
usage: repro trace <TELEMETRY_DIR> [--flame PATH] [--width N] [--timeseries]

Analyze the telemetry tree a `repro ... --telemetry` run wrote:
availability timeline and busy-period table per engine run (with the
closed-form model prediction alongside), plus a collapsed-stack
profile folded from every span event.

  --flame PATH   where to write the collapsed stacks
                 (default <TELEMETRY_DIR>/flame.folded)
  --width N      timeline strip width in characters (default 72)
  --timeseries   also analyze <TELEMETRY_DIR>/timeseries.jsonl:
                 per-window rates, dip/stall episodes, and the
                 windowed-availability cross-check against the
                 event timeline
";

const DIFF_USAGE: &str = "\
usage: repro diff <A> <B> [--max-rel R] [--metric NAME=R]
       repro diff --baseline FILE <RUN> [--write-baseline [--description S]]
       repro diff --sim-vs-live <RUN>
       repro diff --timeseries <A> <B>
       repro diff --timeseries --baseline FILE <RUN> [--write-baseline]

Compare the deterministic counters of two runs' metrics.json (A, B and
RUN may be the file itself or a directory containing it). Exits 1 when
any relative delta exceeds its threshold, 2 on usage or I/O errors.

  --max-rel R        default |relative delta| bound (default 0 = exact)
  --metric NAME=R    per-metric override, repeatable
  --baseline FILE    compare RUN against a committed baseline instead
  --write-baseline   (re)write FILE from RUN's metrics and exit
  --description S    description stored with --write-baseline
  --sim-vs-live      within ONE run, require bt.<stem> == net.<stem>
                     exactly for the comparable counter stems (the
                     sim-vs-live equivalence gate)
  --timeseries       compare timeseries.jsonl windows instead of
                     metrics.json counters: exact window identity for
                     two runs, or geometry/totals/digest against a
                     committed trend baseline.
";

const NET_REPORT_USAGE: &str = "\
usage: repro net-report <TELEMETRY_DIR> [--swimlane PATH] [--folded PATH]

Reconstruct per-connection message timelines from the live engine's
lifecycle telemetry (`net.conn`/`net.req`/`net.xfer`, both endpoints
merged), check the wire-level conservation invariants, and print a
swarm health report: per-connection traffic and request->piece latency
quantiles.

Exits 0 when every invariant holds, 1 on any violation, 2 on usage or
I/O errors or when the run carried no net telemetry at all.

  --swimlane PATH  where to write the per-connection swimlanes
                   (default <TELEMETRY_DIR>/net_swimlane.txt)
  --folded PATH    where to write collapsed message-count stacks
                   (default <TELEMETRY_DIR>/net_stacks.folded)
";

/// `repro trace` — see `TRACE_USAGE`.
pub fn trace_main(args: &[String]) -> i32 {
    let mut dir: Option<PathBuf> = None;
    let mut flame_path: Option<PathBuf> = None;
    let mut width = 72usize;
    let mut with_timeseries = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--flame" => match it.next() {
                Some(p) => flame_path = Some(PathBuf::from(p)),
                None => return usage(TRACE_USAGE, "--flame needs a path"),
            },
            "--width" => match it.next().and_then(|v| v.parse().ok()) {
                Some(w) => width = w,
                None => return usage(TRACE_USAGE, "--width needs a number"),
            },
            "--timeseries" => with_timeseries = true,
            "--help" | "-h" => {
                println!("{TRACE_USAGE}");
                return 0;
            }
            _ if dir.is_none() && !arg.starts_with('-') => dir = Some(PathBuf::from(arg)),
            _ => return usage(TRACE_USAGE, &format!("unexpected argument {arg}")),
        }
    }
    let Some(dir) = dir else {
        return usage(TRACE_USAGE, "missing telemetry directory");
    };

    let files = telemetry_files(&dir);
    if files.is_empty() {
        eprintln!("error: no telemetry.jsonl under {}", dir.display());
        return 2;
    }

    let mut all_events = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {}: {e}", file.display());
                return 2;
            }
        };
        let (header, events) = match swarm_obs::parse_jsonl_with_header(&text) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("error: {}: {e}", file.display());
                return 2;
            }
        };
        let rel = file.strip_prefix(&dir).unwrap_or(file);
        match &header {
            Some(h) => println!(
                "== {} (run_id {}, started unix_ms {})",
                rel.display(),
                h.run_id,
                h.ts_unix_ms
            ),
            None => println!("== {} (no header)", rel.display()),
        }
        for trace in timeline::collect_runs(&events) {
            print_run(&trace, width);
            if trace.model_check().is_some() {
                checked += 1;
            }
        }
        all_events.extend(events);
    }

    let folded = flame::collapse_spans(&all_events);
    if !folded.is_empty() {
        let out = flame_path.unwrap_or_else(|| dir.join("flame.folded"));
        if let Err(e) = std::fs::write(&out, flame::to_folded(&folded)) {
            eprintln!("error: writing {}: {e}", out.display());
            return 2;
        }
        let mut top: Vec<_> = folded.iter().collect();
        top.sort_by_key(|line| std::cmp::Reverse(line.self_us));
        println!("\nhottest stacks (self time):");
        for line in top.iter().take(10) {
            println!("  {:>12} us  {}", line.self_us, line.stack);
        }
        println!(
            "collapsed-stack profile ({} stacks) -> {}",
            folded.len(),
            out.display()
        );
    }
    if all_events.iter().any(|e| e.kind.starts_with("net.")) {
        println!("\nnote: run `repro net-report` for the wire-level connection report");
    } else {
        println!("\nnote: no net telemetry in this run (live engine events absent)");
    }

    let mut crosscheck_failed = false;
    let ts_path = dir.join("timeseries.jsonl");
    if ts_path.is_file() {
        if with_timeseries {
            let series = match timeseries::load_timeseries(&dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            println!("\ntime series ({}):", ts_path.display());
            let traces = timeline::collect_runs(&all_events);
            for (name, rec) in &series {
                let analysis = timeseries::SeriesAnalysis::from_recorder(name, rec);
                print!("{}", analysis.render());
                if name == "bt" {
                    if let Some(check) = timeseries::availability_crosscheck(&analysis, &traces) {
                        let ok = check.ok();
                        println!(
                            "  cross-check: windowed available_ticks {} vs engine {} \
                             over {} run(s) — {}",
                            check.windowed_available,
                            check.engine_available,
                            check.runs,
                            if ok { "ok" } else { "MISMATCH" }
                        );
                        crosscheck_failed |= !ok;
                    }
                }
            }
        } else {
            println!(
                "note: timeseries.jsonl present — run `repro trace --timeseries` \
                 for the trend report"
            );
        }
    } else if with_timeseries {
        eprintln!("error: no timeseries.jsonl under {}", dir.display());
        return 2;
    }

    println!(
        "{} telemetry file(s), {} run(s) model-checked",
        files.len(),
        checked
    );
    if crosscheck_failed {
        eprintln!("error: windowed availability diverged from the engine's own figure");
        return 1;
    }
    0
}

/// `repro net-report` — see `NET_REPORT_USAGE`.
pub fn net_report_main(args: &[String]) -> i32 {
    let mut dir: Option<PathBuf> = None;
    let mut swimlane_path: Option<PathBuf> = None;
    let mut folded_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--swimlane" => match it.next() {
                Some(p) => swimlane_path = Some(PathBuf::from(p)),
                None => return usage(NET_REPORT_USAGE, "--swimlane needs a path"),
            },
            "--folded" => match it.next() {
                Some(p) => folded_path = Some(PathBuf::from(p)),
                None => return usage(NET_REPORT_USAGE, "--folded needs a path"),
            },
            "--help" | "-h" => {
                println!("{NET_REPORT_USAGE}");
                return 0;
            }
            _ if dir.is_none() && !arg.starts_with('-') => dir = Some(PathBuf::from(arg)),
            _ => return usage(NET_REPORT_USAGE, &format!("unexpected argument {arg}")),
        }
    }
    let Some(dir) = dir else {
        return usage(NET_REPORT_USAGE, "missing telemetry directory");
    };

    let files = telemetry_files(&dir);
    if files.is_empty() {
        eprintln!("error: no telemetry.jsonl under {}", dir.display());
        return 2;
    }
    let mut events = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => return fail(&format!("{}: {e}", file.display())),
        };
        match swarm_obs::parse_jsonl_with_header(&text) {
            Ok((_, parsed)) => events.extend(parsed),
            Err(e) => return fail(&format!("{}: {e}", file.display())),
        }
    }

    let runs = net::collect_net_runs(&events);
    if runs.is_empty() {
        eprintln!(
            "error: no net telemetry in this run ({} file(s) held no \
             net.conn/net.req/net.xfer events)",
            files.len()
        );
        return 2;
    }

    let mut swimlanes = String::new();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut violations = 0usize;
    for trace in &runs {
        print_net_run(trace);
        violations += trace.violations.len();
        swimlanes.push_str(&trace.swimlane());
        for line in trace.collapsed() {
            *folded.entry(line.stack).or_insert(0) += line.self_us;
        }
    }

    let lane_out = swimlane_path.unwrap_or_else(|| dir.join("net_swimlane.txt"));
    if let Err(e) = std::fs::write(&lane_out, &swimlanes) {
        return fail(&format!("writing {}: {e}", lane_out.display()));
    }
    let folded_lines: Vec<flame::FlameLine> = folded
        .into_iter()
        .map(|(stack, n)| flame::FlameLine { stack, self_us: n })
        .collect();
    let folded_out = folded_path.unwrap_or_else(|| dir.join("net_stacks.folded"));
    if let Err(e) = std::fs::write(&folded_out, flame::to_folded(&folded_lines)) {
        return fail(&format!("writing {}: {e}", folded_out.display()));
    }
    println!(
        "\nswimlanes -> {}\nmessage stacks ({}) -> {}",
        lane_out.display(),
        folded_lines.len(),
        folded_out.display()
    );
    if violations > 0 {
        eprintln!("error: {violations} conservation-invariant violation(s)");
        return 1;
    }
    println!("all conservation invariants hold ({} run(s))", runs.len());
    0
}

fn print_net_run(trace: &net::NetRunTrace) {
    println!(
        "run {:>3}: {} connection(s), {} completion(s), {} violation(s)",
        trace.run,
        trace.conns.len(),
        trace.completions(),
        trace.violations.len()
    );
    println!(
        "  {:<12} {:>6} {:>7} {:>6} {:>6} {:>6}  latency(ticks)",
        "conn", "reqs", "serves", "dones", "p50", "p90"
    );
    for ((a, b), conn) in &trace.conns {
        let q = |p: f64| {
            conn.latency_quantile(p)
                .map(|v| v.to_string())
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "  {:<12} {:>6} {:>7} {:>6} {:>6} {:>6}",
            format!("{a}<->{b}"),
            conn.requests,
            conn.serves,
            conn.dones,
            q(0.5),
            q(0.9)
        );
    }
    for v in &trace.violations {
        println!("  INVARIANT VIOLATION: {v}");
    }
}

fn print_run(trace: &timeline::BtRunTrace, width: usize) {
    let job = trace.job.as_deref().unwrap_or("-");
    match &trace.info {
        Some(info) => println!(
            "run {:>3} [{job}] K={} lambda={:.4}/s publisher={} horizon={} seed={}",
            trace.run, info.k, info.arrival_rate, info.publisher, info.horizon, info.seed
        ),
        None => println!("run {:>3} [{job}] (run.start evicted from ring)", trace.run),
    }
    println!("  avail |{}|", trace.ascii_timeline(width));
    if let Some(frac) = trace.unavailable_fraction() {
        let busy = trace.busy_periods();
        let mean_busy = trace
            .mean_busy_period()
            .map(|b| format!("{b:.1}"))
            .unwrap_or_else(|| "n/a (none completed)".into());
        println!(
            "  unavailable fraction {frac:.4}; {} completed busy period(s), mean {} ticks",
            busy.len(),
            mean_busy
        );
    }
    if let Some(end) = &trace.end {
        println!(
            "  engine: availability {:.4}, {} completion(s), last available tick {}",
            end.availability, end.completions, end.last_available_tick
        );
    }
    if let Some(check) = trace.model_check() {
        println!(
            "  model-vs-trace: P_model={:.4} P_trace={:.4} |err|={:.4}  E[B]_model={} busy_trace={}",
            check.model_unavailability,
            check.trace_unavailability,
            check.abs_error(),
            seconds(check.model_busy_period),
            check
                .trace_mean_busy_period
                .map(seconds)
                .unwrap_or_else(|| "n/a".into()),
        );
    }
}

/// A duration in seconds, scientific above 10^6 — the model's busy
/// period grows exponentially in swarm size, and a 40-digit integer
/// tells the reader less than `1.2e38s`.
fn seconds(s: f64) -> String {
    if s.abs() >= 1e6 {
        format!("{s:.2e}s")
    } else {
        format!("{s:.0}s")
    }
}

/// `repro diff` — see `DIFF_USAGE`.
pub fn diff_main(args: &[String]) -> i32 {
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut thresholds = Thresholds::default();
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut sim_vs_live = false;
    let mut with_timeseries = false;
    let mut description = String::from("repro quick suite deterministic counters");
    let mut max_rel_set = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--timeseries" => with_timeseries = true,
            "--max-rel" => match it.next().and_then(|v| v.parse().ok()) {
                Some(r) => {
                    thresholds.default_max_rel = r;
                    max_rel_set = true;
                }
                None => return usage(DIFF_USAGE, "--max-rel needs a number"),
            },
            "--metric" => match it.next().and_then(|v| parse_metric_override(v)) {
                Some((name, r)) => {
                    thresholds.per_metric.insert(name, r);
                }
                None => return usage(DIFF_USAGE, "--metric needs NAME=R"),
            },
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage(DIFF_USAGE, "--baseline needs a path"),
            },
            "--write-baseline" => write_baseline = true,
            "--sim-vs-live" => sim_vs_live = true,
            "--description" => match it.next() {
                Some(s) => description = s.clone(),
                None => return usage(DIFF_USAGE, "--description needs text"),
            },
            "--help" | "-h" => {
                println!("{DIFF_USAGE}");
                return 0;
            }
            _ if !arg.starts_with('-') => positional.push(PathBuf::from(arg)),
            _ => return usage(DIFF_USAGE, &format!("unexpected argument {arg}")),
        }
    }

    if with_timeseries {
        if sim_vs_live {
            return usage(DIFF_USAGE, "--timeseries and --sim-vs-live are exclusive");
        }
        return diff_timeseries(
            &positional,
            baseline_path.as_deref(),
            write_baseline,
            &description,
        );
    }

    if sim_vs_live {
        if baseline_path.is_some() {
            return usage(DIFF_USAGE, "--sim-vs-live and --baseline are exclusive");
        }
        let [run] = positional.as_slice() else {
            return usage(DIFF_USAGE, "--sim-vs-live mode takes exactly one RUN path");
        };
        let current = match load_run_metrics(run) {
            Ok(m) => m,
            Err(e) => return fail(&e),
        };
        let report = diff::sim_vs_live(&current);
        print!("{}", report.render(true));
        if !report.missing.is_empty() {
            eprintln!(
                "error: --sim-vs-live: missing metric(s): {} — one engine did not \
                 run, or its telemetry was not recorded",
                report.missing.join(", ")
            );
        }
        return i32::from(!report.ok());
    }

    match baseline_path {
        Some(bpath) => {
            let [run] = positional.as_slice() else {
                return usage(DIFF_USAGE, "--baseline mode takes exactly one RUN path");
            };
            let current = match load_run_metrics(run) {
                Ok(m) => m,
                Err(e) => return fail(&e),
            };
            if write_baseline {
                let max_rel = if max_rel_set {
                    thresholds.default_max_rel
                } else {
                    0.0
                };
                let baseline = Baseline::from_metrics(&current, description, true, max_rel);
                if let Err(e) = std::fs::write(&bpath, baseline.to_json() + "\n") {
                    return fail(&format!("writing {}: {e}", bpath.display()));
                }
                println!(
                    "wrote baseline {} ({} metrics, max_rel {max_rel})",
                    bpath.display(),
                    baseline.metrics.len()
                );
                return 0;
            }
            let text = match std::fs::read_to_string(&bpath) {
                Ok(t) => t,
                Err(e) => return fail(&format!("{}: {e}", bpath.display())),
            };
            let baseline = match Baseline::from_json(&text) {
                Ok(b) => b,
                Err(e) => return fail(&e),
            };
            let report = baseline.check(&current);
            print!("{}", report.render(true));
            i32::from(!report.ok())
        }
        None => {
            let [a, b] = positional.as_slice() else {
                return usage(DIFF_USAGE, "need exactly two run paths (or --baseline)");
            };
            let (ma, mb) = match (load_run_metrics(a), load_run_metrics(b)) {
                (Ok(ma), Ok(mb)) => (ma, mb),
                (Err(e), _) | (_, Err(e)) => return fail(&e),
            };
            let report = diff::diff(&ma, &mb, &thresholds);
            print!("{}", report.render(true));
            i32::from(!report.ok())
        }
    }
}

/// `repro diff --timeseries` — window identity between two runs, or
/// geometry/totals/digest against a committed trend baseline.
fn diff_timeseries(
    positional: &[PathBuf],
    baseline_path: Option<&Path>,
    write_baseline: bool,
    description: &str,
) -> i32 {
    match baseline_path {
        Some(bpath) => {
            let [run] = positional else {
                return usage(
                    DIFF_USAGE,
                    "--timeseries --baseline takes exactly one RUN path",
                );
            };
            let current = match timeseries::load_timeseries(run) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            if write_baseline {
                let baseline = timeseries::TsBaseline::from_series(&current, description);
                if let Err(e) = std::fs::write(bpath, baseline.to_json() + "\n") {
                    return fail(&format!("writing {}: {e}", bpath.display()));
                }
                println!(
                    "wrote timeseries baseline {} ({} series)",
                    bpath.display(),
                    baseline.series.len()
                );
                return 0;
            }
            let text = match std::fs::read_to_string(bpath) {
                Ok(t) => t,
                Err(e) => return fail(&format!("{}: {e}", bpath.display())),
            };
            let baseline = match timeseries::TsBaseline::from_json(&text) {
                Ok(b) => b,
                Err(e) => return fail(&e),
            };
            let problems = baseline.check(&current);
            for p in &problems {
                println!("TREND REGRESSION: {p}");
            }
            println!(
                "{} series checked against baseline, {} problem(s)",
                baseline.series.len(),
                problems.len()
            );
            i32::from(!problems.is_empty())
        }
        None => {
            let [a, b] = positional else {
                return usage(
                    DIFF_USAGE,
                    "--timeseries needs exactly two run paths (or --baseline)",
                );
            };
            let (sa, sb) = match (
                timeseries::load_timeseries(a),
                timeseries::load_timeseries(b),
            ) {
                (Ok(sa), Ok(sb)) => (sa, sb),
                (Err(e), _) | (_, Err(e)) => return fail(&e),
            };
            let problems = timeseries::diff_series(&sa, &sb);
            for p in &problems {
                println!("TREND DIVERGENCE: {p}");
            }
            println!(
                "{} series compared, {} divergence(s)",
                sa.len(),
                problems.len()
            );
            i32::from(!problems.is_empty())
        }
    }
}

fn parse_metric_override(s: &str) -> Option<(String, f64)> {
    let (name, r) = s.split_once('=')?;
    Some((name.to_string(), r.parse().ok()?))
}

fn usage(text: &str, problem: &str) -> i32 {
    eprintln!("error: {problem}\n{text}");
    2
}

fn fail(problem: &str) -> i32 {
    eprintln!("error: {problem}");
    2
}

/// Accept either a `metrics.json` file or a directory containing one.
fn load_run_metrics(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let file = if path.is_dir() {
        path.join("metrics.json")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    diff::load_metrics_json(&text).map_err(|e| format!("{}: {e}", file.display()))
}

/// `telemetry.jsonl` files under `dir`: the run-level one plus each
/// job subdirectory's, in sorted order.
fn telemetry_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let top = dir.join("telemetry.jsonl");
    if top.is_file() {
        out.push(top);
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        let mut subs: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        subs.sort();
        for sub in subs {
            let f = sub.join("telemetry.jsonl");
            if f.is_file() {
                out.push(f);
            }
        }
    }
    out
}
