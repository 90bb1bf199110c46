//! Benchmark-side spans: recorded in memory around every phase, pass,
//! engine call and check, and written out as JSONL when the run ends.
//!
//! Spans are the benchmark's only clock: pass wall times and call
//! latencies are read back from them, so the untraced and traced runs
//! time the same boundaries the same way.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `start_ns`/`end_ns` count from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub pass: Option<usize>,
    pub call: Option<usize>,
    /// Was `swarm_obs` recording on when the span opened?
    pub traced: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder with a stack of open spans; a span's parent
/// is whichever span was open when it started.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, tagged with the pass and call
    /// it belongs to.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        pass: Option<usize>,
        call: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            pass,
            call,
            traced: swarm_obs::enabled(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of the timed-pass spans named `name` whose
    /// recording state was `traced` (warm-up spans carry no pass).
    pub fn pass_secs(&self, name: &str, traced: bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.traced == traced && s.pass.is_some())
            .map(Span::secs)
            .collect()
    }

    /// Total self time per span name, in milliseconds: each span's
    /// duration minus the time its direct children cover.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or(serde_json::Value::Null, |x| serde_json::json!(x));
        let mut out = String::new();
        for s in &self.spans {
            let v = serde_json::json!({
                "name": s.name,
                "id": s.id,
                "parent": opt(s.parent),
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "pass": opt(s.pass),
                "call": opt(s.call),
                "traced": s.traced,
            });
            out.push_str(&v.to_json_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", None, None, |t| {
            t.span("inner", Some(0), Some(0), |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        assert_eq!(t.spans[1].parent, Some(0));
        let own = t.self_ms();
        assert!(own["inner"] >= 20.0);
        assert!(
            own["outer"] < own["inner"],
            "outer self time excludes inner"
        );
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }
}
