//! `swarmbench` — the seeded end-to-end and per-layer benchmark of the
//! swarmsys engines. See `README.md` beside this package for workloads,
//! metrics, bounds and how to run it.
//!
//! ```text
//! swarmbench run --workload W --seed N [--seconds S] [--trace 0|1]
//!                [--trace-dir DIR] [--out FILE]
//! swarmbench compare BASE.jsonl HEAD.jsonl
//! swarmbench agree A.jsonl B.jsonl
//! swarmbench summary RUNS.jsonl...
//! ```

mod codec;
mod compare;
mod decl;
mod gen;
mod heap;
mod layers;
mod run;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{RunOpts, RunReport};
use workloads::Workload;

/// Counts heap bytes, for `call_heap_mb`.
#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str = "usage:
  swarmbench run --workload W --seed N [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]
  swarmbench compare BASE.jsonl HEAD.jsonl
  swarmbench agree A.jsonl B.jsonl
  swarmbench summary RUNS.jsonl...
workloads: bt-busy, bt-idle, catalog, net-loopback, suite-quick";

/// One measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Where runs write their records, traces and suite artifacts: beside
/// the build, under `$CARGO_TARGET_DIR` (or `target`).
fn out_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("swarmbench")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("agree") if args.len() == 3 => {
            compare::agree(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("summary") if args.len() >= 2 => {
            let paths: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
            compare::summary(&paths)
        }
        _ => Err(format!("bad arguments\n{USAGE}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("swarmbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    opts: RunOpts,
    trace_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = decl::declared().run_seconds as f64;
    let mut trace = false;
    let mut trace_dir = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a finite non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(RunArgs {
        opts: RunOpts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            size: gen::Size::Full,
            out_root: out_root(),
        },
        trace_dir,
        out,
    })
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let RunArgs {
        opts,
        trace_dir,
        out,
    } = parse_run(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let (report, tracer) = run::execute(&opts);
    let w = opts.workload.name();

    println!(
        "swarmbench {w} seed={} seconds={} trace={} threads={} passes={} calls={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        report.threads,
        report.passes,
        report.calls
    );
    for m in &report.metrics.0 {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for f in &report.checks.failures {
        println!("check failed: {f}");
    }

    if opts.trace {
        let dir = trace_dir.unwrap_or_else(|| {
            opts.out_root
                .join("trace")
                .join(format!("{w}-seed{}", opts.seed))
        });
        run::write_trace(&dir, opts.workload, &report, &tracer)
            .map_err(|e| format!("writing trace to {}: {e}", dir.display()))?;
        println!("trace written to {}", dir.display());
    }
    let out = out.unwrap_or_else(|| opts.out_root.join("runs.jsonl"));
    append_record(&out, &opts, &report).map_err(|e| format!("writing {}: {e}", out.display()))?;

    println!("{}", result_line(&opts, &report).to_json_string());
    Ok(report.checks.failed == 0)
}

/// The final stdout line: checks plus exactly the declared metrics of
/// the run's kind (end-to-end untraced, per-layer traced).
fn result_line(opts: &RunOpts, report: &RunReport) -> serde_json::Value {
    let mut metrics = serde_json::Map::new();
    for d in decl::declared().list(opts.trace) {
        let m = report
            .metrics
            .get(&d.name)
            .unwrap_or_else(|| panic!("declared metric {} was not measured", d.name));
        metrics.insert(
            d.name.clone(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        );
    }
    serde_json::json!({
        "correct": report.checks.failed == 0,
        "attempted": report.checks.attempted,
        "failed": report.checks.failed,
        "metrics": serde_json::Value::Object(metrics),
    })
}

/// Append one JSON line describing the run — every metric measured, not
/// only the declared ones — for `compare`, `agree` and `summary`.
fn append_record(path: &Path, opts: &RunOpts, report: &RunReport) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut metrics = serde_json::Map::new();
    for m in &report.metrics.0 {
        metrics.insert(
            m.name.clone(),
            serde_json::json!({"value": m.value, "unit": m.unit}),
        );
    }
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let record = serde_json::json!({
        "workload": opts.workload.name(),
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "threads": report.threads,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "unix_s": unix_s,
        "passes": report.passes,
        "calls": report.calls,
        "attempted": report.checks.attempted,
        "failed": report.checks.failed,
        "metrics": serde_json::Value::Object(metrics),
    });
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.to_json_string())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke-size pass of every workload, untraced and traced, emits
    /// exactly the metrics `BENCHMARK.json` declares, with no failed
    /// check. One test, so the process-wide telemetry switch is never
    /// toggled by two runs at once.
    #[test]
    fn smoke_runs_emit_exactly_the_declared_metrics() {
        let declared = decl::declared();
        for w in Workload::ALL {
            for trace in [false, true] {
                let opts = RunOpts {
                    workload: w,
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    size: gen::Size::Smoke,
                    out_root: out_root(),
                };
                let (report, _) = run::execute(&opts);
                let line = result_line(&opts, &report);
                let got: Vec<&String> = line["metrics"].as_object().unwrap().keys().collect();
                let mut want: Vec<&String> = declared.list(trace).iter().map(|d| &d.name).collect();
                want.sort();
                assert_eq!(got, want, "{} trace={trace}", w.name());
                for d in declared.list(trace) {
                    let m = report.metrics.get(&d.name).unwrap();
                    assert_eq!(m.unit, d.unit, "unit of {}", d.name);
                    assert!(m.value.is_finite(), "{} = {}", d.name, m.value);
                    if !trace {
                        assert!(m.value > 0.0, "end-to-end {} reads 0", d.name);
                    }
                }
                assert_eq!(
                    report.checks.failed,
                    0,
                    "{} trace={trace}: {:?}",
                    w.name(),
                    report.checks.failures
                );
                assert_eq!(report.metrics.get("error_rate").unwrap().value, 0.0);
                for m in &report.metrics.0 {
                    let ok = m
                        .name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
                    assert!(ok && !m.name.is_empty(), "metric name `{}`", m.name);
                }
                assert!(line["attempted"].as_u64().unwrap() >= 1);
            }
        }
    }

    #[test]
    fn run_arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_run(&args("--workload bt-busy --seed 3 --seconds 10 --trace 1")).is_ok());
        assert!(parse_run(&args("--workload nope --seed 3")).is_err());
        assert!(parse_run(&args("--workload bt-busy")).is_err());
        assert!(parse_run(&args("--workload bt-busy --seed 3 --trace yes")).is_err());
        assert!(parse_run(&args("--workload bt-busy --seed 3 --seconds -1")).is_err());
    }
}
