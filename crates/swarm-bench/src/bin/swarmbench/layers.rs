//! Per-layer metrics of a traced run, one group per workspace crate on
//! the workload's path. Counts come from the `swarm_obs` registry delta
//! over the traced passes, divided per pass; times come from the
//! benchmark's own spans around each layer's public entry point, or from
//! the program's existing `span.*` histograms where the layer is reached
//! inside another (the suite).
//!
//! Two tiers:
//! * counts and ratios, which `BENCHMARK.json` declares: emitted on every
//!   workload, reading 0 where the layer is not on the workload's path;
//! * rates and layer times (`*_per_s`, `*_ms`, `*_ns`, `*_us`, `*_s`):
//!   emitted only for the layers the workload exercises, into
//!   `layers.json`. A rate or time that read a constant 0 would look like
//!   a broken clock, so none is declared.

use swarm_lab::Manifest;
use swarm_obs::Snapshot;

use crate::stats::tail_percentile;
use crate::workloads::{Work, Workload};
use crate::Metrics;

/// Everything a traced run measured that per-layer metrics derive from.
pub struct LayerInputs<'a> {
    pub w: Workload,
    /// Registry delta over the traced passes.
    pub delta: &'a Snapshot,
    pub traced_passes: usize,
    /// Σ of benchmark-timed engine-call seconds over the traced passes.
    pub traced_call_s: f64,
    pub untraced_pass_s: f64,
    pub traced_pass_s: f64,
    /// Simulated work of one pass.
    pub work: Work,
    pub threads: usize,
    pub setup_s: f64,
    /// Last traced suite pass.
    pub manifest: Option<&'a Manifest>,
    pub dense_over_ff: Option<f64>,
    /// Per-swarm microseconds of the serial catalog walk.
    pub serial_walk_us: Option<&'a [f64]>,
    pub codec_ns_per_frame: Option<f64>,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Jobs whose wall time `layers.json` reports: the suite's long poles.
const LONG_POLE_JOBS: [&str; 6] = [
    "fig1",
    "fig6a",
    "fig6b",
    "ablation-bias",
    "table-books",
    "catalog-live",
];

impl LayerInputs<'_> {
    fn per_pass(&self, counter: &str) -> f64 {
        ratio(
            self.delta.counter(counter) as f64,
            self.traced_passes as f64,
        )
    }

    /// Sum of a program span histogram per pass, in seconds.
    fn span_s(&self, name: &str) -> f64 {
        let ns = self.delta.histograms.get(name).map_or(0, |h| h.sum);
        ratio(ns as f64 / 1e9, self.traced_passes as f64)
    }

    fn hist_q(&self, name: &str, q: f64) -> Option<f64> {
        self.delta
            .histograms
            .get(name)?
            .quantile(q)
            .map(|v| v as f64)
    }

    /// Seconds per pass the benchmark timed around `call_span`, an
    /// engine's entry point; 0 when the workload calls another engine.
    fn engine_s(&self, call_span: &str) -> f64 {
        if self.w.call_span() == call_span {
            ratio(self.traced_call_s, self.traced_passes as f64)
        } else {
            0.0
        }
    }

    /// Throughput over the untraced passes; single-engine workloads only.
    fn rate(&self, work_per_pass: f64) -> f64 {
        ratio(work_per_pass, self.untraced_pass_s)
    }

    pub fn compute(&self, m: &mut Metrics) {
        self.throughput(m);
        self.bt(m);
        self.catalog(m);
        self.net(m);
        self.lab(m);
        m.push(
            "obs.overhead_frac",
            self.traced_pass_s / self.untraced_pass_s - 1.0,
            "frac",
        );
    }

    fn throughput(&self, m: &mut Metrics) {
        // `suite-quick` has no single unit of simulated work.
        if self.w == Workload::SuiteQuick {
            return;
        }
        m.push("swarm_hours_per_s", self.rate(self.work.swarm_hours), "1/s");
        m.push(
            "arrivals_per_s",
            self.rate(self.work.arrivals as f64),
            "1/s",
        );
        if self.w == Workload::NetLoopback {
            m.push("frames_per_s", self.rate(self.work.frames as f64), "1/s");
        }
    }

    fn bt(&self, m: &mut Metrics) {
        let ticks = self.per_pass("bt.ticks");
        let elided = self.per_pass("bt.ticks_elided");
        for name in [
            "bt.ticks",
            "bt.ticks_elided",
            "bt.fastforward.jumps",
            "bt.rechoke.count",
            "bt.rechoke.churn",
            "bt.arrivals",
            "bt.completions",
            "bt.leechers.blocked_ticks",
        ] {
            m.push(name, self.per_pass(name), "count/pass");
        }
        m.push("bt.bytes_moved", self.per_pass("bt.bytes_moved"), "kB/pass");
        // `bt.ticks` counts every tick, fast-forwarded ones included.
        m.push("bt.elided_share", ratio(elided, ticks), "frac");
        m.push(
            "bt.completion_ratio",
            ratio(
                self.per_pass("bt.completions"),
                self.per_pass("bt.arrivals"),
            ),
            "frac",
        );
        let direct = self.w.call_span() == "call.bt.run";
        let run_s = if direct {
            self.engine_s("call.bt.run")
        } else {
            self.span_s("span.bt.run")
        };
        if ticks > 0.0 {
            m.push("bt.ticks_per_s", ratio(ticks, run_s), "1/s");
        }
        if let Some(x) = self.dense_over_ff {
            m.push("bt.dense_over_ff", x, "x");
        }
        if direct && ticks > 0.0 {
            m.push("bt.run_ms", run_s * 1e3, "ms/pass");
            m.push("bt.ns_per_tick", run_s * 1e9 / ticks, "ns");
            for (q, name) in [(0.5, "bt.tick_ns.p50"), (0.99, "bt.tick_ns.p99")] {
                if let Some(v) = self.hist_q("bt.tick_ns", q) {
                    m.push(name, v, "ns");
                }
            }
        }
    }

    fn catalog(&self, m: &mut Metrics) {
        let events = self.per_pass("catalog.events");
        let arrivals = self.per_pass("catalog.peers.arrived");
        m.push("catalog.events", events, "count/pass");
        m.push("catalog.arrivals", arrivals, "count/pass");
        m.push(
            "catalog.toggles",
            self.per_pass("catalog.toggles"),
            "count/pass",
        );
        let run_s = self.engine_s("call.catalog.run_catalog");
        let walk: f64 = self.serial_walk_us.map_or(0.0, |v| v.iter().sum());
        let max = self
            .serial_walk_us
            .map_or(0.0, |v| v.iter().copied().fold(0.0, f64::max));
        m.push("catalog.max_swarm_share", ratio(max, walk), "frac");
        m.push(
            "catalog.parallel_efficiency",
            ratio(walk / 1e6, self.threads as f64 * self.untraced_pass_s),
            "frac",
        );
        for name in [
            "stats.steal.count",
            "stats.catalog.shard_flushes",
            "stats.budget.shortfall",
        ] {
            m.push(name, self.per_pass(name), "count/pass");
        }
        if self.w == Workload::Catalog {
            m.push("catalog.events_per_s", ratio(events, run_s), "1/s");
            m.push("measurement.generate_catalog_ms", self.setup_s * 1e3, "ms");
            m.push("catalog.run_ms", run_s * 1e3, "ms/pass");
            m.push("catalog.ns_per_arrival", ratio(run_s * 1e9, arrivals), "ns");
            m.push("catalog.ns_per_event", ratio(run_s * 1e9, events), "ns");
            m.push(
                "stats.budget.lease_wait_ns",
                self.per_pass("stats.budget.lease_wait_ns"),
                "ns/pass",
            );
            for (q, name) in [
                (0.5, "catalog.tick_latency_ns.p50"),
                (0.99, "catalog.tick_latency_ns.p99"),
            ] {
                if let Some(v) = self.hist_q("catalog.tick_latency_ns", q) {
                    m.push(name, v, "ns");
                }
            }
        }
        if let Some(us) = self.serial_walk_us {
            m.push("catalog.walk_serial_ms", walk / 1e3, "ms");
            m.push(
                "catalog.swarm_us.p50",
                crate::stats::median(us).unwrap_or(0.0),
                "us",
            );
            if let Some(p99) = tail_percentile(us, 0.99) {
                m.push("catalog.swarm_us.p99", p99, "us");
            }
            m.push("catalog.swarm_us.max", max, "us");
        }
    }

    fn net(&self, m: &mut Metrics) {
        let frames = self.per_pass("net.messages");
        m.push("net.frames", frames, "count/pass");
        for name in [
            "net.req.sent",
            "net.xfer.completed",
            "net.choke.sent",
            "net.unchoke.sent",
            "net.pex.requests",
            "net.tracker.announces",
            "net.conn.snubs",
        ] {
            m.push(name, self.per_pass(name), "count/pass");
        }
        m.push(
            "net.req_useful_ratio",
            ratio(
                self.per_pass("net.xfer.completed"),
                self.per_pass("net.req.sent"),
            ),
            "frac",
        );
        m.push(
            "net.completion_ratio",
            ratio(
                self.per_pass("net.completions"),
                self.per_pass("net.arrivals"),
            ),
            "frac",
        );
        let run_s = self.engine_s("call.net.run_live");
        let codec = self.codec_ns_per_frame.unwrap_or(0.0);
        m.push(
            "net.codec_share",
            ratio(codec * frames, run_s * 1e9),
            "frac",
        );
        if self.w == Workload::NetLoopback {
            m.push("net.run_ms", run_s * 1e3, "ms/pass");
            m.push("net.ns_per_frame", ratio(run_s * 1e9, frames), "ns");
            m.push("net.codec_ns_per_frame", codec, "ns");
            for (q, name) in [(0.5, "net.tick_ns.p50"), (0.99, "net.tick_ns.p99")] {
                if let Some(v) = self.hist_q("stats.net.tick_ns", q) {
                    m.push(name, v, "ns");
                }
            }
        }
    }

    fn lab(&self, m: &mut Metrics) {
        let (makespan, jobs_sum, longest, workers) = match self.manifest {
            Some(man) => (
                man.wall_s,
                man.jobs.iter().map(|j| j.wall_s).sum::<f64>(),
                man.jobs.iter().map(|j| j.wall_s).fold(0.0, f64::max),
                man.workers as f64,
            ),
            None => (0.0, 0.0, 0.0, 0.0),
        };
        m.push(
            "lab.packing_efficiency",
            ratio(jobs_sum, workers * makespan),
            "frac",
        );
        let busy = self.per_pass("lab.workers.busy_ns");
        let idle = self.per_pass("lab.workers.idle_ns");
        m.push("lab.idle_share", ratio(idle, idle + busy), "frac");
        m.push("lab.long_pole_share", ratio(longest, makespan), "frac");
        // Engine spans the program already records, also as shares of
        // the suite's summed job time: which engine sets the long pole.
        // The quick suite never reaches the Monte-Carlo busy period, so
        // `suite.mc_ms` gets no share.
        let spans = [
            ("suite.bt_run_ms", "span.bt.run"),
            ("suite.sim_run_ms", "span.sim.run"),
            ("suite.mc_ms", "span.mc.mean_busy_period"),
        ];
        for (share, span) in [
            ("suite.bt_share", "span.bt.run"),
            ("suite.sim_share", "span.sim.run"),
        ] {
            m.push(share, ratio(self.span_s(span), jobs_sum), "frac");
        }
        if let Some(man) = self.manifest {
            m.push("lab.makespan_s", makespan, "s");
            m.push("lab.jobs_sum_s", jobs_sum, "s");
            for job in man
                .jobs
                .iter()
                .filter(|j| LONG_POLE_JOBS.contains(&j.id.as_str()))
            {
                m.push(&format!("lab.job.{}_s", job.id), job.wall_s, "s");
            }
            m.push(
                "stats.budget.lease_wait_ns",
                self.per_pass("stats.budget.lease_wait_ns"),
                "ns/pass",
            );
            for (ms, span) in spans {
                m.push(ms, self.span_s(span) * 1e3, "ms/pass");
            }
        }
    }
}
