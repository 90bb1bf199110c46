//! The five workloads: how each builds its inputs, makes one engine call,
//! fingerprints the call's output, and checks the output against an
//! independent oracle.

use std::path::{Path, PathBuf};
use std::time::Instant;

use swarm_bt::{BtConfig, BtResult};
use swarm_catalog::{run_catalog, CatalogRun, CatalogRunConfig};
use swarm_lab::{fingerprint64, CacheMode, JobStatus, Manifest, RunConfig};
use swarm_measurement::{generate_catalog, Swarm};
use swarm_net::{run_live, HostMode, NetResult};

use crate::gen::{self, Size};
use crate::trace::Tracer;

/// A benchmark workload. The names are stable: later changes and
/// reports cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BtBusy,
    BtIdle,
    Catalog,
    NetLoopback,
    SuiteQuick,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BtBusy,
        Workload::BtIdle,
        Workload::Catalog,
        Workload::NetLoopback,
        Workload::SuiteQuick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BtBusy => "bt-busy",
            Workload::BtIdle => "bt-idle",
            Workload::Catalog => "catalog",
            Workload::NetLoopback => "net-loopback",
            Workload::SuiteQuick => "suite-quick",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Name of the span around one engine call: the layer entry point.
    pub fn call_span(self) -> &'static str {
        match self {
            Workload::BtBusy | Workload::BtIdle => "call.bt.run",
            Workload::Catalog => "call.catalog.run_catalog",
            Workload::NetLoopback => "call.net.run_live",
            Workload::SuiteQuick => "call.lab.run",
        }
    }
}

/// Output checks: how many were made and which failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Simulated work of one call, for throughput rates.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub swarm_hours: f64,
    pub arrivals: u64,
    pub frames: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.swarm_hours += o.swarm_hours;
        self.arrivals += o.arrivals;
        self.frames += o.frames;
    }
}

/// Generated, validated inputs of one workload; one engine call per
/// element per pass.
pub enum Inputs {
    Bt(Vec<BtConfig>),
    Catalog {
        swarms: Vec<Swarm>,
        cfg: CatalogRunConfig,
    },
    Net(Vec<BtConfig>),
    Suite {
        jobs: Vec<swarm_lab::JobSpec>,
        cfg: RunConfig,
    },
}

/// What one engine call returned.
pub enum Output {
    Bt(BtResult),
    Catalog(CatalogRun),
    Net(NetResult),
    Suite {
        run: Result<Manifest, String>,
        /// Where the run wrote its artifacts.
        dir: PathBuf,
    },
}

impl Output {
    /// Fingerprint of the call's deterministic result, `None` when it
    /// cannot be read back. Telemetry-only fields are cleared first, so
    /// traced and untraced calls on one input fingerprint alike.
    pub fn digest(&self) -> Option<u64> {
        match self {
            Output::Bt(r) => Some(json_digest(r)),
            Output::Catalog(run) => Some(json_digest(&run.per_swarm)),
            Output::Net(r) => {
                let mut r = r.clone();
                r.timeseries.clear();
                Some(json_digest(&r))
            }
            Output::Suite { run, dir } => {
                let mut all = String::new();
                for job in &run.as_ref().ok()?.jobs {
                    for a in &job.artifacts {
                        let text = std::fs::read_to_string(dir.join(&a.path)).ok()?;
                        all.push_str(&a.path);
                        all.push('\n');
                        // `catalog-live.txt` reports the sharded run's
                        // wall time on a `wall:` line; every other byte
                        // of every artifact is deterministic.
                        for line in text.lines().filter(|l| !l.starts_with("wall:")) {
                            all.push_str(line);
                            all.push('\n');
                        }
                    }
                }
                Some(fingerprint64(all.as_bytes()))
            }
        }
    }

    /// Check the success the call itself reports. Only a suite run can
    /// fail inside a call: every job must end `Ok`.
    pub fn check_success(&self, checks: &mut Checks) {
        let Output::Suite { run, .. } = self else {
            return;
        };
        let failure = match run {
            Err(e) => Some(format!("suite run failed: {e}")),
            Ok(m) => {
                let bad: Vec<&str> = m
                    .jobs
                    .iter()
                    .filter(|j| j.status != JobStatus::Ok)
                    .map(|j| j.id.as_str())
                    .collect();
                (!bad.is_empty()).then(|| format!("suite jobs failed: {}", bad.join(", ")))
            }
        };
        let ok = failure.is_none();
        checks.expect(ok, || failure.unwrap_or_default());
    }
}

/// Fingerprint of a value's JSON serialization.
pub fn json_digest<T: serde::Serialize + ?Sized>(v: &T) -> u64 {
    fingerprint64(
        serde_json::to_string(v)
            .expect("engine outputs serialize")
            .as_bytes(),
    )
}

/// Generate and validate the inputs of `w`.
pub fn setup(w: Workload, seed: u64, size: Size, threads: usize, out_root: &Path) -> Inputs {
    match w {
        Workload::BtBusy | Workload::BtIdle => {
            let cfgs = if w == Workload::BtBusy {
                gen::busy_configs(seed, size)
            } else {
                gen::idle_configs(seed, size)
            };
            cfgs.iter().for_each(BtConfig::validate);
            Inputs::Bt(cfgs)
        }
        Workload::Catalog => {
            let (gen_cfg, cfg) = gen::catalog_inputs(seed, size, threads);
            let swarms = generate_catalog(&gen_cfg);
            assert!(
                swarms.iter().enumerate().all(|(i, s)| s.id == i as u64),
                "catalog ids must be dense"
            );
            Inputs::Catalog { swarms, cfg }
        }
        Workload::NetLoopback => {
            let cfgs = gen::net_configs(seed, size);
            for cfg in &cfgs {
                cfg.validate();
                assert!(
                    gen::live_eligible(cfg),
                    "generated script is not live-eligible"
                );
            }
            Inputs::Net(cfgs)
        }
        Workload::SuiteQuick => {
            let jobs = swarm_bench::lab::job_specs(gen::suite_ids(size), true)
                .expect("every suite id is registered");
            let cfg = RunConfig {
                // Per process under the output root; removed when the
                // run ends.
                out_dir: out_root.join(format!("suite-{}", std::process::id())),
                workers: threads,
                thread_budget: threads,
                quick: true,
                cache: CacheMode::Off,
                // The cache is off, so the code-version salt is never
                // read; skip fingerprinting the executable.
                salt: String::new(),
                progress: false,
                echo_text: false,
                telemetry: None,
            };
            Inputs::Suite { jobs, cfg }
        }
    }
}

impl Inputs {
    /// Engine calls per pass.
    pub fn len(&self) -> usize {
        match self {
            Inputs::Bt(c) | Inputs::Net(c) => c.len(),
            Inputs::Catalog { .. } | Inputs::Suite { .. } => 1,
        }
    }

    /// Engine call `i` of a pass.
    pub fn call(&self, i: usize) -> Output {
        match self {
            Inputs::Bt(cfgs) => Output::Bt(swarm_bt::run(&cfgs[i])),
            Inputs::Catalog { swarms, cfg } => Output::Catalog(run_catalog(swarms, cfg)),
            Inputs::Net(cfgs) => Output::Net(run_live(&cfgs[i], HostMode::SingleThread)),
            Inputs::Suite { jobs, cfg } => Output::Suite {
                run: swarm_lab::run(jobs, cfg)
                    .map(|r| r.manifest)
                    .map_err(|e| e.to_string()),
                dir: cfg.out_dir.clone(),
            },
        }
    }

    /// Simulated work done by call `i`.
    pub fn work(&self, i: usize, out: &Output) -> Work {
        match (self, out) {
            (Inputs::Bt(cfgs), Output::Bt(r)) => Work {
                swarm_hours: cfgs[i].horizon as f64 / 3600.0,
                arrivals: r.arrivals,
                frames: 0,
            },
            (Inputs::Catalog { swarms, .. }, Output::Catalog(run)) => Work {
                swarm_hours: swarms.len() as f64 * run.horizon_hours,
                arrivals: run.total_arrivals(),
                frames: 0,
            },
            (Inputs::Net(_), Output::Net(r)) => Work {
                swarm_hours: r.ticks as f64 / 3600.0,
                arrivals: r.arrivals,
                frames: r.messages,
            },
            _ => Work::default(),
        }
    }
}

/// Checks against an independent oracle, run once per process after the
/// timed passes:
/// * `bt-idle` — the dense loop's `BtResult` equals the fast-forward one
///   on the first input; returns dense over fast-forward wall time;
/// * `net-loopback` — the canonical scenarios agree exactly between the
///   block simulator and the live engine on ticks, arrivals, completions
///   and availability transitions. Not every live leecher need finish:
///   only sim-vs-live equality is asserted.
pub fn oracle_checks(
    inputs: &Inputs,
    w: Workload,
    seed: u64,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Option<f64> {
    match (w, inputs) {
        (Workload::BtIdle, Inputs::Bt(cfgs)) => {
            let cfg = &cfgs[0];
            let dense_cfg = BtConfig {
                disable_fast_forward: true,
                ..cfg.clone()
            };
            let (dense_s, dense) = timed(t, "check.bt.dense", || swarm_bt::run(&dense_cfg));
            let (ff_s, ff) = timed(t, "check.bt.fast_forward", || swarm_bt::run(cfg));
            let same = serde_json::to_string(&dense).ok() == serde_json::to_string(&ff).ok();
            checks.expect(same, || {
                format!(
                    "dense BtResult differs from fast-forward (seed {})",
                    cfg.seed
                )
            });
            Some(dense_s / ff_s)
        }
        (Workload::NetLoopback, _) => {
            for (name, cfg) in swarm_net::scenarios::all(seed) {
                t.span("check.net.sim_vs_live", None, None, |_| {
                    let (sim, sim_ticks, sim_transitions) = sim_with_counters(&cfg);
                    let live = run_live(&cfg, HostMode::SingleThread);
                    let pairs = [
                        ("ticks", sim_ticks, live.ticks),
                        ("arrivals", sim.arrivals, live.arrivals),
                        ("completions", sim.completions, live.completions),
                        (
                            "availability transitions",
                            sim_transitions,
                            live.availability_transitions,
                        ),
                    ];
                    for (what, s, l) in pairs {
                        checks.expect(s == l, || format!("{name}: sim {what} {s} != live {l}"));
                    }
                });
            }
            None
        }
        _ => None,
    }
}

fn timed<R>(t: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (f64, R) {
    t.span(name, None, None, |_| {
        let t0 = Instant::now();
        let r = f();
        (t0.elapsed().as_secs_f64(), r)
    })
}

/// Run the block simulator with telemetry on, returning its result plus
/// the ticks it covered and the availability transitions it counted —
/// the two quantities `BtResult` does not carry.
fn sim_with_counters(cfg: &BtConfig) -> (BtResult, u64, u64) {
    let was = swarm_obs::enabled();
    swarm_obs::set_enabled(true);
    let before = swarm_obs::snapshot();
    let r = swarm_bt::run(cfg);
    let d = swarm_obs::snapshot().delta_since(&before);
    swarm_obs::set_enabled(was);
    // `bt.ticks` counts fast-forwarded ticks too.
    (
        r,
        d.counter("bt.ticks"),
        d.counter("bt.availability.transitions"),
    )
}
