//! One benchmark run of one workload: set up, warm up, timed passes in a
//! closed loop, output checks, then metrics.
//!
//! ```text
//! setup      generate + validate the inputs, again and again for
//!            SETUP_BATCH_S
//! warmup     one untimed pass; its per-call digests are the reference
//! pass ...   every input once, each call issued when the previous returns,
//!            until --seconds have elapsed; each call's digest is checked,
//!            then another batch of setups is timed
//! check      oracle checks (dense vs fast-forward, sim vs live)
//! diag       traced run only: serial catalog walk, codec corpus
//! ```
//!
//! A traced run alternates untraced and traced passes (telemetry off /
//! on), so the per-layer counters and the tracing overhead come from the
//! same process.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use swarm_lab::Manifest;
use swarm_stats::parallel::{set_global_budget, ThreadBudget};

use crate::gen::Size;
use crate::layers::LayerInputs;
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{self, json_digest, Checks, Inputs, Output, Work, Workload};
use crate::{codec, heap, Metrics};

/// How long one batch of setups keeps setting the inputs up: several
/// setups for the slowest (the catalog's, ≈20 ms), thousands for the
/// microsecond ones. A batch measures its fastest setup, the one the host
/// disturbed least. A run times one batch before the warm-up and one after
/// every timed pass, and `setup_s` is the median over its batches. On a
/// shared host the typical setup of a batch swings by half from one 0.1 s
/// to the next and stays slow for seconds at a time, while the fastest
/// moves by a few percent.
const SETUP_BATCH_S: f64 = 0.1;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Directory for the suite's artifacts (removed afterwards).
    pub out_root: PathBuf,
}

pub struct RunReport {
    pub threads: usize,
    pub passes: usize,
    pub calls: usize,
    pub metrics: Metrics,
    pub checks: Checks,
}

/// Worker threads any workload may use: `min(2, nproc)`.
pub fn thread_cap() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Bytes in the MB of the memory metrics.
const MB: f64 = (1 << 20) as f64;

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Set the inputs of `opts` up again and again for `SETUP_BATCH_S`,
/// pushing the seconds of the fastest setup to `fastest`; return the last
/// inputs.
fn setup_batch(opts: &RunOpts, threads: usize, fastest: &mut Vec<f64>) -> Inputs {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let t0 = Instant::now();
        let inputs = workloads::setup(opts.workload, opts.seed, opts.size, threads, &opts.out_root);
        best = best.min(t0.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= SETUP_BATCH_S {
            fastest.push(best);
            break inputs;
        }
    }
}

/// Run `opts` and return its report with every span it recorded.
pub fn execute(opts: &RunOpts) -> (RunReport, Tracer) {
    let mut t = Tracer::new();
    let report = t.span("workload", None, None, |t| measure(opts, t));
    (report, t)
}

fn measure(opts: &RunOpts, t: &mut Tracer) -> RunReport {
    let w = opts.workload;
    let threads = thread_cap();
    let mut checks = Checks::default();
    let mut m = Metrics::default();

    // The catalog's shard pool leases its extra worker from a budget of
    // `threads`, which also records the lease counters.
    let prev_budget = (w == Workload::Catalog)
        .then(|| set_global_budget(Some(Arc::new(ThreadBudget::new(threads)))));

    let mut batch_fastest = Vec::new();
    let inputs = t.span("setup", None, None, |_| {
        setup_batch(opts, threads, &mut batch_fastest)
    });
    let n = inputs.len();
    let call_span = w.call_span();

    let mut work = Work::default();
    let warm: Vec<Option<u64>> = t.span("warmup", None, None, |t| {
        (0..n)
            .map(|i| {
                let out = t.span(call_span, None, Some(i), |_| inputs.call(i));
                out.check_success(&mut checks);
                work += inputs.work(i, &out);
                let digest = out.digest();
                checks.expect(digest.is_some(), || {
                    format!("warm-up call {i}: output unreadable")
                });
                digest
            })
            .collect()
    });

    let before = swarm_obs::snapshot();
    let timed = Instant::now();
    let mut passes = 0usize;
    let mut manifest: Option<Manifest> = None;
    // Per untraced pass: the mean over its calls of the heap each call
    // needed above what was live when it began.
    let mut pass_heap_mb = Vec::new();
    loop {
        let traced = opts.trace && passes % 2 == 1;
        swarm_obs::set_enabled(traced);
        let mut call_heap = Vec::with_capacity(n);
        let outs: Vec<Output> = t.span("pass", Some(passes), None, |t| {
            (0..n)
                .map(|i| {
                    t.span(call_span, Some(passes), Some(i), |_| {
                        let base = heap::reset_peak();
                        let out = inputs.call(i);
                        call_heap.push(heap::peak().saturating_sub(base));
                        out
                    })
                })
                .collect()
        });
        swarm_obs::set_enabled(false);
        if !traced {
            let bytes = call_heap.iter().sum::<usize>() as f64 / n as f64;
            pass_heap_mb.push(bytes / MB);
        }
        t.span("check.digest", Some(passes), None, |_| {
            for (i, out) in outs.iter().enumerate() {
                out.check_success(&mut checks);
                checks.expect(out.digest().is_some_and(|d| Some(d) == warm[i]), || {
                    format!("pass {passes} call {i}: output differs from warm-up")
                });
            }
        });
        if traced {
            if let Some(Output::Suite { run: Ok(run), .. }) = outs.into_iter().next() {
                manifest = Some(run);
            }
        }
        t.span("setup", Some(passes), None, |_| {
            setup_batch(opts, threads, &mut batch_fastest);
        });
        passes += 1;
        // A traced run ends on a traced pass, so both kinds are even.
        let balanced = !opts.trace || passes.is_multiple_of(2);
        if balanced && timed.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let delta = swarm_obs::snapshot().delta_since(&before);
    let setup_s = median(&batch_fastest).expect("at least one setup");

    let dense_over_ff = workloads::oracle_checks(&inputs, w, opts.seed, t, &mut checks);
    let serial_walk_us = match (&inputs, opts.trace) {
        (Inputs::Catalog { swarms, cfg }, true) => {
            Some(t.span("diag.catalog.serial_walk", None, None, |_| {
                let mut us = Vec::with_capacity(swarms.len());
                let summaries: Vec<_> = swarms
                    .iter()
                    .map(|s| {
                        let t0 = Instant::now();
                        let summary = swarm_catalog::runtime::simulate_swarm(s, cfg);
                        us.push(t0.elapsed().as_secs_f64() * 1e6);
                        summary
                    })
                    .collect();
                checks.expect(Some(json_digest(&summaries)) == warm[0], || {
                    "serial catalog walk differs from the sharded run".to_string()
                });
                us
            }))
        }
        _ => None,
    };
    let codec_ns_per_frame = match (&inputs, opts.trace) {
        (Inputs::Net(cfgs), true) => t.span("diag.net.codec", None, None, |_| {
            codec::ns_per_frame(&codec::corpus(&delta, cfgs[0].num_pieces()))
        }),
        _ => None,
    };
    if let Some(prev) = prev_budget {
        set_global_budget(prev);
    }
    if let Inputs::Suite { cfg, .. } = &inputs {
        // Best effort: a leftover directory under the output root is
        // harmless and must not fail a run whose checks passed.
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    // Run-level metrics: the end-to-end ones and the timings of the
    // untraced passes.
    let pass_s = t.pass_secs("pass", false);
    let call_s = t.pass_secs(call_span, false);
    let wall_s = median(&pass_s).expect("at least one untraced pass");
    m.push("setup_s", setup_s, "s");
    m.push("wall_s", wall_s, "s");
    let call_ms: Vec<f64> = call_s.iter().map(|s| s * 1e3).collect();
    m.push("call_ms_p50", median(&call_ms).expect("calls"), "ms");
    if let Some(p90) = tail_percentile(&call_ms, 0.9) {
        m.push("call_ms_p90", p90, "ms");
    }
    m.push(
        "call_heap_mb",
        median(&pass_heap_mb).expect("at least one untraced pass"),
        "MB",
    );
    if let Some(rss) = peak_rss_mb() {
        m.push("peak_rss_mb", rss, "MB");
    }
    m.push(
        "error_rate",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        "frac",
    );

    if opts.trace {
        let traced_pass_s = t.pass_secs("pass", true);
        LayerInputs {
            w,
            delta: &delta,
            traced_passes: traced_pass_s.len(),
            traced_call_s: t.pass_secs(call_span, true).iter().sum(),
            untraced_pass_s: wall_s,
            traced_pass_s: median(&traced_pass_s).expect("at least one traced pass"),
            work,
            threads,
            setup_s,
            manifest: manifest.as_ref(),
            dense_over_ff,
            serial_walk_us: serial_walk_us.as_deref(),
            codec_ns_per_frame,
        }
        .compute(&mut m);
    }

    RunReport {
        threads,
        passes,
        calls: passes * n,
        metrics: m,
        checks,
    }
}

/// Write `trace.jsonl` (every span) and `layers.json` (every per-layer
/// metric plus self time per span name) under `dir`.
pub fn write_trace(
    dir: &Path,
    w: Workload,
    report: &RunReport,
    tracer: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("trace.jsonl"), tracer.to_jsonl())?;
    let mut metrics = serde_json::Map::new();
    for metric in &report.metrics.0 {
        metrics.insert(
            metric.name.clone(),
            serde_json::json!({"value": metric.value, "unit": metric.unit}),
        );
    }
    let self_ms: serde_json::Map = tracer
        .self_ms()
        .into_iter()
        .map(|(k, v)| (k.to_string(), serde_json::json!(v)))
        .collect();
    let layers = serde_json::json!({
        "workload": w.name(),
        "metrics": serde_json::Value::Object(metrics),
        "self_ms": serde_json::Value::Object(self_ms),
    });
    std::fs::write(dir.join("layers.json"), layers.to_json_string_pretty())
}
