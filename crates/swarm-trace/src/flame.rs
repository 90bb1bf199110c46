//! Fold `"span"` events into collapsed-stack profiles.
//!
//! Every [`swarm_obs::span()`] guard emits, at drop, a `"span"` event
//! carrying `{name, id, parent, dur_us}` (`parent` is the enclosing
//! span on the same thread, 0 at top level). Reconstructing the call
//! tree from those ids and charging each frame its *self* time (own
//! duration minus its children's) yields the collapsed-stack format
//! popularized by Brendan Gregg's `flamegraph.pl`:
//!
//! ```text
//! lab.run;lab.job[fig6a-k4];bt.run 152340
//! ```
//!
//! one line per distinct stack, semicolon-separated frames, self-time
//! in microseconds — directly consumable by inferno or speedscope.
//! Labeled spans render as `name[label]`, so per-job frames stay
//! distinguishable in the graph.

use std::collections::{BTreeMap, HashMap};
use swarm_obs::Event;

#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    parent: u64,
    dur_us: f64,
    child_us: f64,
}

/// One aggregated stack with its total self-time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlameLine {
    /// Semicolon-separated frames, root first.
    pub stack: String,
    /// Self-time in microseconds (whole µs; sub-µs spans keep at
    /// least their rounded share so they stay visible).
    pub self_us: u64,
}

/// Collapse every span event in `events` into aggregated stacks,
/// sorted by stack string. Spans whose parent event was evicted from
/// the ring are rooted at `(orphan)` rather than dropped — the profile
/// stays complete even when the flight recorder wrapped.
pub fn collapse_spans(events: &[Event]) -> Vec<FlameLine> {
    let mut spans: HashMap<u64, SpanRec> = HashMap::new();
    for e in events {
        if e.kind != "span" {
            continue;
        }
        let get = |key: &str| e.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let (Some(name), Some(id), Some(parent), Some(dur_us)) = (
            get("name").and_then(|v| v.as_str()),
            get("id").and_then(|v| v.as_u64()),
            get("parent").and_then(|v| v.as_u64()),
            get("dur_us").and_then(|v| v.as_f64()),
        ) else {
            continue;
        };
        let frame = match get("label").and_then(|v| v.as_str()) {
            Some(label) => format!("{name}[{label}]"),
            None => name.to_string(),
        };
        spans.insert(
            id,
            SpanRec {
                name: frame,
                parent,
                dur_us,
                child_us: 0.0,
            },
        );
    }

    // Charge each span's duration to its parent as child time.
    let child_sums: Vec<(u64, f64)> = spans
        .iter()
        .filter(|(_, s)| s.parent != 0)
        .map(|(_, s)| (s.parent, s.dur_us))
        .collect();
    for (parent, dur) in child_sums {
        if let Some(p) = spans.get_mut(&parent) {
            p.child_us += dur;
        }
    }

    let mut folded: BTreeMap<String, f64> = BTreeMap::new();
    for (id, span) in &spans {
        // Walk ancestors to build the stack, root first. A missing
        // ancestor (evicted from the ring) roots the walk at a
        // sentinel frame instead of losing the sample.
        let mut frames = vec![span.name.clone()];
        let mut cursor = span.parent;
        let mut hops = 0;
        while cursor != 0 {
            match spans.get(&cursor) {
                Some(p) => {
                    frames.push(p.name.clone());
                    cursor = p.parent;
                }
                None => {
                    frames.push("(orphan)".to_string());
                    break;
                }
            }
            hops += 1;
            if hops > 1024 {
                // A cycle can only come from a corrupt file; bail out
                // rather than spin.
                break;
            }
        }
        frames.reverse();
        let self_us = (span.dur_us - span.child_us).max(0.0);
        *folded.entry(frames.join(";")).or_insert(0.0) += self_us;
        let _ = id;
    }

    folded
        .into_iter()
        .map(|(stack, us)| FlameLine {
            stack,
            self_us: us.round() as u64,
        })
        .collect()
}

/// Render collapsed stacks in the `stack self-µs` one-per-line format.
pub fn to_folded(lines: &[FlameLine]) -> String {
    let mut out = String::new();
    for l in lines {
        out.push_str(&l.stack);
        out.push(' ');
        out.push_str(&l.self_us.to_string());
        out.push('\n');
    }
    out
}
