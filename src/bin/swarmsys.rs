//! `swarmsys` — the library as a command-line tool.
//!
//! ```text
//! swarmsys model   --lambda 0.0067 --size 4000 --mu 50 --r 0.0001 --u 300
//! swarmsys sweep   --lambda 0.0067 --size 4000 --mu 50 --r 0.0001 --u 300 --kmax 10
//! swarmsys plan    --mu 50 --r 0.0002 --u 300 --file 0.1:4000 --file 0.02:4000 --file 0.005:2000
//! swarmsys simulate --lambda 0.0167 --size 4000 --mu 50 --on 300 --off 900 --m 9 --horizon 100000
//! ```
//!
//! Units are kB and seconds throughout. Every subcommand prints a short
//! human-readable report; `--json` switches to machine-readable output.

use std::collections::HashMap;
use std::process::ExitCode;
use swarm_stats::parallel::cores;
use swarmsys::model::bundling::{optimal_bundle_size, sweep};
use swarmsys::model::params::{PublisherScaling, SwarmParams};
use swarmsys::model::partition::{evaluate_partition, greedy_partition, CatalogFile, Environment};
use swarmsys::model::{impatient, patient};
use swarmsys::sim::{replicate, Patience, PublisherProcess, ServiceModel, SimConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let (flags, files) = parse_flags(rest);
    let json = flags.contains_key("json");
    let result = match cmd.as_str() {
        "model" => cmd_model(&flags, json),
        "sweep" => cmd_sweep(&flags, json),
        "plan" => cmd_plan(&flags, &files, json),
        "simulate" => cmd_simulate(&flags, json),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: swarmsys <model|sweep|plan|simulate> [flags] [--json]\n\
         \n\
         model    --lambda R --size KB --mu KBPS --r R --u S\n\
         \u{20}        availability and download time of one swarm\n\
         sweep    (model flags) [--kmax N] [--scaling fixed|proportional]\n\
         \u{20}        download time vs bundle size\n\
         plan     --mu KBPS --r R --u S --file LAMBDA:SIZE [--file ...]\n\
         \u{20}        partition a catalog into bundles (greedy optimizer)\n\
         simulate --lambda R --size KB --mu KBPS --on S --off S [--m N]\n\
         \u{20}        [--horizon S] [--reps N] flow-level simulation"
    );
    ExitCode::from(2)
}

/// Parse `--key value` flags (value-less flags get "true") and repeated
/// `--file` entries.
fn parse_flags(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let mut flags = HashMap::new();
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            let value_next = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
            match (key, value_next) {
                ("file", Some(v)) => {
                    files.push(v);
                    i += 2;
                }
                (_, Some(v)) => {
                    flags.insert(key.to_string(), v);
                    i += 2;
                }
                (_, None) => {
                    flags.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    (flags, files)
}

fn need(flags: &HashMap<String, String>, key: &str) -> Result<f64, String> {
    flags
        .get(key)
        .ok_or(format!("missing --{key}"))?
        .parse()
        .map_err(|e| format!("--{key}: {e}"))
}

fn opt(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        None => Ok(default),
    }
}

fn swarm_from_flags(flags: &HashMap<String, String>) -> Result<SwarmParams, String> {
    Ok(SwarmParams {
        lambda: need(flags, "lambda")?,
        size: need(flags, "size")?,
        mu: need(flags, "mu")?,
        r: need(flags, "r")?,
        u: need(flags, "u")?,
    })
}

fn cmd_model(flags: &HashMap<String, String>, json: bool) -> Result<(), String> {
    let p = swarm_from_flags(flags)?;
    let eb = impatient::busy_period(&p);
    let unavail = impatient::unavailability(&p);
    let t = patient::download_time(&p);
    let w = patient::waiting_time(&p);
    if json {
        println!(
            "{}",
            serde_json::json!({
                "params": p,
                "busy_period": eb,
                "unavailability": unavail,
                "download_time": t,
                "waiting_time": w,
            })
        );
    } else {
        println!(
            "swarm: λ={} s={} kB μ={} kB/s r={} u={} s",
            p.lambda, p.size, p.mu, p.r, p.u
        );
        println!("  expected availability period E[B] = {eb:.1} s");
        println!("  unavailability                   P = {unavail:.6}");
        println!("  mean download time (patient)  E[T] = {t:.1} s");
        println!("    waiting component                = {w:.1} s");
    }
    Ok(())
}

fn cmd_sweep(flags: &HashMap<String, String>, json: bool) -> Result<(), String> {
    let p = swarm_from_flags(flags)?;
    let kmax = opt(flags, "kmax", 10.0)? as u32;
    let scaling = match flags.get("scaling").map(String::as_str) {
        None | Some("fixed") => PublisherScaling::Fixed,
        Some("proportional") => PublisherScaling::Proportional,
        Some(other) => return Err(format!("unknown --scaling {other}")),
    };
    let ks: Vec<u32> = (1..=kmax.max(1)).collect();
    let points = sweep(&p, scaling, &ks);
    let (k_opt, t_opt) = optimal_bundle_size(&p, scaling, kmax.max(1));
    if json {
        println!(
            "{}",
            serde_json::json!({ "points": points, "k_opt": k_opt, "t_opt": t_opt })
        );
    } else {
        println!("{:>4} {:>14} {:>14}", "K", "E[T] (s)", "P");
        for pt in &points {
            let marker = if pt.k == k_opt { " <- optimal" } else { "" };
            println!(
                "{:>4} {:>14.1} {:>14.6}{marker}",
                pt.k, pt.download_time, pt.unavailability
            );
        }
    }
    Ok(())
}

fn cmd_plan(
    flags: &HashMap<String, String>,
    file_specs: &[String],
    json: bool,
) -> Result<(), String> {
    if file_specs.is_empty() {
        return Err("need at least one --file LAMBDA:SIZE".into());
    }
    let files: Vec<CatalogFile> = file_specs
        .iter()
        .map(|s| {
            let (l, sz) = s
                .split_once(':')
                .ok_or(format!("--file must be LAMBDA:SIZE, got {s}"))?;
            Ok(CatalogFile {
                lambda: l.parse().map_err(|e| format!("--file lambda: {e}"))?,
                size: sz.parse().map_err(|e| format!("--file size: {e}"))?,
            })
        })
        .collect::<Result<_, String>>()?;
    let env = Environment {
        mu: need(flags, "mu")?,
        r: need(flags, "r")?,
        u: need(flags, "u")?,
    };
    let singletons: Vec<Vec<usize>> = (0..files.len()).map(|i| vec![i]).collect();
    let t_single = evaluate_partition(&files, &singletons, env);
    let plan = greedy_partition(&files, env);
    let t_plan = evaluate_partition(&files, &plan, env);
    if json {
        println!(
            "{}",
            serde_json::json!({
                "partition": plan,
                "weighted_download_time": t_plan,
                "no_bundling_time": t_single,
            })
        );
    } else {
        println!("no bundling: demand-weighted E[T] = {t_single:.1} s");
        println!("greedy plan: demand-weighted E[T] = {t_plan:.1} s");
        for (i, b) in plan.iter().enumerate() {
            let lam: f64 = b.iter().map(|&i| files[i].lambda).sum();
            let size: f64 = b.iter().map(|&i| files[i].size).sum();
            println!("  bundle {i}: files {b:?} (Λ={lam:.4}/s, S={size:.0} kB)");
        }
    }
    Ok(())
}

fn cmd_simulate(flags: &HashMap<String, String>, json: bool) -> Result<(), String> {
    let cfg = SimConfig {
        lambda: need(flags, "lambda")?,
        service: ServiceModel::Exponential {
            mean: need(flags, "size")? / need(flags, "mu")?,
        },
        publisher: PublisherProcess::SingleOnOff {
            on_mean: need(flags, "on")?,
            off_mean: need(flags, "off")?,
            initially_on: true,
        },
        patience: Patience::Patient,
        linger_mean: None,
        coverage_threshold: opt(flags, "m", 0.0)? as usize,
        horizon: opt(flags, "horizon", 100_000.0)?,
        warmup: opt(flags, "warmup", 2_000.0)?,
        seed: opt(flags, "seed", 42.0)? as u64,
        record_timeline: false,
    };
    let reps = opt(flags, "reps", 5.0)? as usize;
    let rep = replicate(&cfg, reps.max(1), cores());
    let ci = rep.download_time_ci(0.95);
    if json {
        println!(
            "{}",
            serde_json::json!({
                "mean_download_time": rep.pooled.mean_download_time(),
                "ci_low": ci.lo(),
                "ci_high": ci.hi(),
                "availability": rep.pooled.availability,
                "completions": rep.pooled.completions,
                "arrivals": rep.pooled.arrivals,
            })
        );
    } else {
        println!(
            "simulated {} replications: mean download {:.1} s (95% CI [{:.1}, {:.1}])",
            rep.replications,
            rep.pooled.mean_download_time(),
            ci.lo(),
            ci.hi()
        );
        println!(
            "availability {:.3}, {} completions / {} arrivals",
            rep.pooled.availability, rep.pooled.completions, rep.pooled.arrivals
        );
    }
    Ok(())
}
