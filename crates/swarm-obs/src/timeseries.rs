//! Tick-windowed time series: how counters evolve *during* a run.
//!
//! The rest of `swarm-obs` answers "how much, total?" — snapshot deltas
//! at end of run. This module answers "when?": a [`Recorder`]
//! accumulates counter deltas into fixed-width windows keyed by
//! **virtual ticks** (simulation time, never the wall clock), so the
//! series lives in the same deterministic domain as the engines that
//! feed it. Two runs that perform the same simulated work produce
//! bit-identical windows no matter how the work was scheduled:
//!
//! * window contents are additive `u64` deltas, so per-shard recorders
//!   [`Recorder::merge`] into the same totals regardless of shard count
//!   or worker interleaving;
//! * the downsampling stride is a pure function of the highest tick
//!   observed (see below), never of arrival order;
//! * zero-valued counters are never stored, so a fast-forwarded window
//!   (all counters flat) serializes exactly like the dense window it
//!   elides.
//!
//! # Bounded memory: power-of-two downsampling
//!
//! A recorder holds at most `cap` windows. When the observed tick range
//! outgrows `cap` windows of the base width, the stride doubles:
//! adjacent window pairs merge (their counters add) and every window
//! now covers `window * stride` ticks. The stride for a given reach is
//! `required_stride(max_tick, window, cap)` — the smallest power of two
//! `s` with `max_tick / (window * s) < cap` — so any sequence of
//! observations ending at the same `max_tick` lands on the same stride
//! and the same slots. Long catalog horizons degrade gracefully into
//! coarser windows instead of unbounded memory.
//!
//! # Serialization
//!
//! [`series_to_jsonl`] renders named series as JSONL beside the event
//! sink's `telemetry.jsonl`: one `{"kind":"ts.series",...}` line per
//! series (window, stride, capacity) followed by its
//! `{"kind":"ts.window",...}` lines. [`parse_timeseries`] round-trips
//! the format (a leading sink [`crate::Header`] line is tolerated).
//!
//! # The process-wide series registry
//!
//! Producers that outlive a single struct (engine runs, shard flushes)
//! merge their recorders into a named process-global series via
//! [`merge_series_owned`]; orchestrators collect everything at end of run
//! with [`drain_series`] (the `repro` CLI writes `timeseries.jsonl`
//! from it) or pull one series with [`take_series`]. Merging is
//! commutative and associative, so flush order cannot perturb the
//! result.

use serde::{Deserialize, Serialize};
use serde_json::{Map, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Default bound on the number of in-memory windows per recorder.
pub const DEFAULT_CAPACITY: usize = 512;

/// One serialized window: counter deltas accumulated over
/// `[start, start + len)` virtual ticks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    /// First virtual tick the window covers.
    pub start: u64,
    /// Window width in virtual ticks (`window * stride` at render time).
    pub len: u64,
    /// Counter deltas over the window. Zero-valued counters are never
    /// stored, so an all-flat window has an empty map.
    pub counters: BTreeMap<String, u64>,
}

/// A bounded, tick-windowed accumulator of counter deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recorder {
    /// Base window width in virtual ticks.
    window: u64,
    /// Maximum number of windows held in memory.
    cap: usize,
    /// Current downsampling factor (power of two; 1 = no downsampling).
    stride: u64,
    /// Highest virtual tick observed so far.
    max_tick: u64,
    /// True once any tick has been observed (distinguishes an untouched
    /// recorder from one that observed only tick 0).
    touched: bool,
    /// Slot index (`tick / (window * stride)`) → counter deltas. Keys
    /// are `Cow` so the hot path (engines adding under literal counter
    /// names) never allocates; only parsed or merged-in names own their
    /// storage.
    slots: BTreeMap<u64, BTreeMap<Cow<'static, str>, u64>>,
}

/// The smallest power-of-two stride `s` with
/// `max_tick / (window * s) < cap` — a pure function of the reach, so
/// downsampling decisions cannot depend on observation order.
fn required_stride(max_tick: u64, window: u64, cap: usize) -> u64 {
    let base_slot = max_tick / window;
    let mut s = 1u64;
    while base_slot / s >= cap as u64 {
        s <<= 1;
    }
    s
}

impl Recorder {
    /// A recorder with `window`-tick windows and the default capacity.
    pub fn new(window: u64) -> Recorder {
        Recorder::with_capacity(window, DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `cap` windows before downsampling.
    pub fn with_capacity(window: u64, cap: usize) -> Recorder {
        assert!(window > 0, "window width must be positive");
        assert!(cap >= 2, "capacity must allow at least two windows");
        Recorder {
            window,
            cap,
            stride: 1,
            max_tick: 0,
            touched: false,
            slots: BTreeMap::new(),
        }
    }

    /// Base window width in virtual ticks.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Current downsampling stride (each slot covers `window * stride`
    /// ticks).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Maximum number of windows held before the stride doubles.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// True when no tick has been observed yet.
    pub fn is_empty(&self) -> bool {
        !self.touched
    }

    fn slot_of(&self, tick: u64) -> u64 {
        tick / self.window / self.stride
    }

    /// Halve the slot resolution until the stride reaches `to`,
    /// merging adjacent windows additively.
    fn rescale_to(&mut self, to: u64) {
        debug_assert!(to.is_power_of_two() && to >= self.stride);
        if to == self.stride {
            return;
        }
        let factor = to / self.stride;
        let mut merged: BTreeMap<u64, BTreeMap<Cow<'static, str>, u64>> = BTreeMap::new();
        for (idx, counters) in std::mem::take(&mut self.slots) {
            let dst = merged.entry(idx / factor).or_default();
            for (name, v) in counters {
                *dst.entry(name).or_insert(0) += v;
            }
        }
        self.slots = merged;
        self.stride = to;
    }

    /// Note that virtual tick `tick` exists, growing the stride if the
    /// reach outgrew the capacity. Does not create a slot.
    pub fn observe(&mut self, tick: u64) {
        self.touched = true;
        if tick > self.max_tick {
            self.max_tick = tick;
            let need = required_stride(self.max_tick, self.window, self.cap);
            if need > self.stride {
                self.rescale_to(need);
            }
        }
    }

    /// Mark the window containing `tick` as materialized (an explicit
    /// flat record) without storing any counter.
    pub fn touch(&mut self, tick: u64) {
        self.observe(tick);
        let slot = self.slot_of(tick);
        self.slots.entry(slot).or_default();
    }

    /// Add `delta` to counter `name` in the window containing `tick`.
    /// The window is materialized even when `delta` is zero, but zero
    /// values are never stored — elided (fast-forwarded) and dense runs
    /// of the same schedule serialize identically. Passing a `&'static
    /// str` (the normal case) never allocates.
    pub fn add(&mut self, tick: u64, name: impl Into<Cow<'static, str>>, delta: u64) {
        self.observe(tick);
        let slot = self.slot_of(tick);
        let counters = self.slots.entry(slot).or_default();
        if delta != 0 {
            let name = name.into();
            match counters.get_mut(name.as_ref()) {
                Some(v) => *v += delta,
                None => {
                    counters.insert(name, delta);
                }
            }
        }
    }

    /// Add a whole window's counters in one call: one stride check and
    /// one slot walk for the batch instead of one per counter. This is
    /// the engines' boundary-flush fast path.
    pub fn add_batch(&mut self, tick: u64, entries: &[(&'static str, u64)]) {
        self.observe(tick);
        let slot = self.slot_of(tick);
        let counters = self.slots.entry(slot).or_default();
        for &(name, delta) in entries {
            if delta != 0 {
                match counters.get_mut(name) {
                    Some(v) => *v += delta,
                    None => {
                        counters.insert(Cow::Borrowed(name), delta);
                    }
                }
            }
        }
    }

    /// Add constant per-tick counter rates over the whole span
    /// `[from, to)` — `from` and `to` base-window-aligned — in one call:
    /// the span folds into each overlapped slot analytically
    /// (`rate × overlap`), one map walk per *slot* instead of one
    /// [`Recorder::add_batch`] per window. Reach advances to the span's
    /// last base-window start, exactly what the window-by-window replay
    /// this short-cuts would have observed, so the stride, slot layout
    /// and serialized bytes come out identical to the dense path.
    pub fn add_span(&mut self, from: u64, to: u64, entries: &[(&'static str, u64)]) {
        if to <= from {
            return;
        }
        debug_assert!(
            from.is_multiple_of(self.window) && to.is_multiple_of(self.window),
            "add_span bounds must be window-aligned"
        );
        self.observe(from);
        self.observe((to - 1) / self.window * self.window);
        let slot_span = self.window * self.stride;
        let mut t = from;
        while t < to {
            let slot = t / slot_span;
            let end = ((slot + 1) * slot_span).min(to);
            let span = end - t;
            let counters = self.slots.entry(slot).or_default();
            for &(name, rate) in entries {
                let delta = rate * span;
                if delta != 0 {
                    match counters.get_mut(name) {
                        Some(v) => *v += delta,
                        None => {
                            counters.insert(Cow::Borrowed(name), delta);
                        }
                    }
                }
            }
            t = end;
        }
    }

    /// Fold `other` into `self` additively. Both recorders must share
    /// the base window width and capacity; the result's stride is the
    /// larger of the two (grown further if the combined reach demands
    /// it), so merging is commutative and associative.
    pub fn merge(&mut self, other: &Recorder) {
        assert_eq!(self.window, other.window, "window width mismatch in merge");
        assert_eq!(self.cap, other.cap, "capacity mismatch in merge");
        if other.is_empty() {
            return;
        }
        self.observe(other.max_tick);
        if other.stride > self.stride {
            self.rescale_to(other.stride);
        }
        let factor = self.stride / other.stride;
        for (idx, counters) in &other.slots {
            let dst = self.slots.entry(idx / factor).or_default();
            for (name, v) in counters {
                *dst.entry(name.clone()).or_insert(0) += v;
            }
        }
    }

    /// The materialized windows, sorted by start tick.
    pub fn windows(&self) -> Vec<Window> {
        let span = self.window * self.stride;
        self.slots
            .iter()
            .map(|(idx, counters)| Window {
                start: idx * span,
                len: span,
                counters: counters
                    .iter()
                    .map(|(name, &v)| (name.clone().into_owned(), v))
                    .collect(),
            })
            .collect()
    }

    /// Rebuild a recorder from parsed windows (used by
    /// [`parse_timeseries`]). Windows must have the given stride's span.
    fn from_windows(window: u64, cap: usize, stride: u64, windows: &[Window]) -> Recorder {
        let mut rec = Recorder::with_capacity(window, cap);
        rec.stride = stride;
        let span = window * stride;
        for w in windows {
            rec.touched = true;
            rec.max_tick = rec.max_tick.max(w.start + w.len.saturating_sub(1));
            let slot = w.start / span;
            let counters = rec.slots.entry(slot).or_default();
            for (name, v) in &w.counters {
                if *v != 0 {
                    *counters.entry(Cow::Owned(name.clone())).or_insert(0) += v;
                }
            }
        }
        rec
    }
}

/// Render one series header line (no trailing newline):
/// `{"kind":"ts.series","series":...,"window":...,"stride":...,"cap":...}`.
fn series_header_line(name: &str, rec: &Recorder) -> String {
    let mut obj = Map::new();
    obj.insert("kind".to_string(), crate::val("ts.series"));
    obj.insert("series".to_string(), crate::val(name));
    obj.insert("window".to_string(), crate::val(rec.window()));
    obj.insert("stride".to_string(), crate::val(rec.stride()));
    obj.insert("cap".to_string(), crate::val(rec.capacity() as u64));
    serde_json::to_string(&Value::Object(obj)).expect("value serializes")
}

fn window_line(name: &str, w: &Window) -> String {
    let mut obj = Map::new();
    obj.insert("kind".to_string(), crate::val("ts.window"));
    obj.insert("series".to_string(), crate::val(name));
    obj.insert("start".to_string(), crate::val(w.start));
    obj.insert("len".to_string(), crate::val(w.len));
    obj.insert("counters".to_string(), crate::val(&w.counters));
    serde_json::to_string(&Value::Object(obj)).expect("value serializes")
}

/// Render named series as JSONL: each series' `ts.series` header line
/// followed by its `ts.window` lines, series sorted by name.
pub fn series_to_jsonl(series: &BTreeMap<String, Recorder>) -> String {
    let mut out = String::new();
    for (name, rec) in series {
        out.push_str(&series_header_line(name, rec));
        out.push('\n');
        for w in rec.windows() {
            out.push_str(&window_line(name, &w));
            out.push('\n');
        }
    }
    out
}

/// Parse what [`series_to_jsonl`] produced back into named recorders.
/// Blank lines and non-`ts.*` lines (e.g. a sink header) are skipped;
/// a `ts.window` line whose series has no `ts.series` header is an
/// error, as is a malformed JSON line.
pub fn parse_timeseries(s: &str) -> Result<BTreeMap<String, Recorder>, String> {
    struct Parsed {
        window: u64,
        cap: usize,
        stride: u64,
        windows: Vec<Window>,
    }
    let mut by_name: BTreeMap<String, Parsed> = BTreeMap::new();
    for (i, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let obj = match v.as_object() {
            Some(obj) => obj,
            None => continue,
        };
        let kind = obj.get("kind").and_then(Value::as_str).unwrap_or("");
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        match kind {
            "ts.series" => {
                let name = obj
                    .get("series")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("ts.series without a series name"))?;
                let get = |key: &str| {
                    obj.get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad(&format!("ts.series missing `{key}`")))
                };
                by_name.insert(
                    name.to_string(),
                    Parsed {
                        window: get("window")?,
                        cap: get("cap")? as usize,
                        stride: get("stride")?,
                        windows: Vec::new(),
                    },
                );
            }
            "ts.window" => {
                let name = obj
                    .get("series")
                    .and_then(Value::as_str)
                    .ok_or_else(|| bad("ts.window without a series name"))?;
                let parsed = by_name
                    .get_mut(name)
                    .ok_or_else(|| bad("ts.window before its ts.series header"))?;
                let get = |key: &str| {
                    obj.get(key)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad(&format!("ts.window missing `{key}`")))
                };
                let counters = obj
                    .get("counters")
                    .and_then(Value::as_object)
                    .ok_or_else(|| bad("ts.window missing `counters`"))?
                    .iter()
                    .map(|(k, v)| {
                        v.as_u64()
                            .map(|n| (k.clone(), n))
                            .ok_or_else(|| bad(&format!("non-integer counter `{k}`")))
                    })
                    .collect::<Result<BTreeMap<_, _>, _>>()?;
                parsed.windows.push(Window {
                    start: get("start")?,
                    len: get("len")?,
                    counters,
                });
            }
            _ => {}
        }
    }
    Ok(by_name
        .into_iter()
        .map(|(name, p)| {
            let rec = Recorder::from_windows(p.window, p.cap, p.stride, &p.windows);
            (name, rec)
        })
        .collect())
}

/// Process-wide named series, fed by engine/shard flushes.
static SERIES: Mutex<BTreeMap<String, Recorder>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Recorder>> {
    SERIES.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fold `rec` into the process-global series `name`; the first producer
/// of a name moves its slots into the registry. Commutative, so
/// concurrent producers cannot perturb the drained result.
pub fn merge_series_owned(name: &str, rec: Recorder) {
    let mut reg = registry();
    match reg.get_mut(name) {
        Some(existing) => existing.merge(&rec),
        None => {
            reg.insert(name.to_string(), rec);
        }
    }
}

/// Remove and return the global series `name`, if it exists.
pub fn take_series(name: &str) -> Option<Recorder> {
    registry().remove(name)
}

/// Remove and return every global series.
pub fn drain_series() -> BTreeMap<String, Recorder> {
    std::mem::take(&mut *registry())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(w: &Window) -> Vec<(&str, u64)> {
        w.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect()
    }

    #[test]
    fn windows_accumulate_by_tick() {
        let mut rec = Recorder::with_capacity(10, 8);
        rec.add(0, "a", 1);
        rec.add(9, "a", 2);
        rec.add(10, "a", 5);
        rec.add(25, "b", 7);
        let ws = rec.windows();
        assert_eq!(ws.len(), 3);
        assert_eq!((ws[0].start, ws[0].len), (0, 10));
        assert_eq!(counters(&ws[0]), vec![("a", 3)]);
        assert_eq!(counters(&ws[1]), vec![("a", 5)]);
        assert_eq!((ws[2].start, ws[2].len), (20, 10));
        assert_eq!(counters(&ws[2]), vec![("b", 7)]);
    }

    #[test]
    fn zero_deltas_materialize_flat_windows() {
        let mut rec = Recorder::with_capacity(10, 8);
        rec.add(5, "a", 0);
        rec.touch(15);
        let ws = rec.windows();
        assert_eq!(ws.len(), 2);
        assert!(ws.iter().all(|w| w.counters.is_empty()));
    }

    #[test]
    fn downsampling_is_reach_determined() {
        // cap 4 × window 10 → stride doubles at tick 40, again at 80.
        let mut fwd = Recorder::with_capacity(10, 4);
        for t in 0..100 {
            fwd.add(t, "n", 1);
        }
        // Same ticks, different observation order (max first).
        let mut rev = Recorder::with_capacity(10, 4);
        for t in (0..100).rev() {
            rev.add(t, "n", 1);
        }
        assert_eq!(fwd.stride(), rev.stride());
        assert_eq!(fwd.windows(), rev.windows());
        assert_eq!(fwd.stride(), required_stride(99, 10, 4));
        let total: u64 = fwd.windows().iter().map(|w| w.counters["n"]).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn merge_is_commutative_across_strides() {
        // One recorder deep enough to downsample, one shallow.
        let mut deep = Recorder::with_capacity(10, 4);
        for t in 0..100 {
            deep.add(t, "n", 1);
        }
        let mut shallow = Recorder::with_capacity(10, 4);
        shallow.add(3, "n", 10);
        shallow.add(17, "m", 2);

        let mut ab = deep.clone();
        ab.merge(&shallow);
        let mut ba = shallow.clone();
        ba.merge(&deep);
        assert_eq!(ab.windows(), ba.windows());
        assert_eq!(ab.stride(), ba.stride());

        // Split-vs-whole: summing two halves equals one pass.
        let mut whole = Recorder::with_capacity(10, 4);
        let mut lo = Recorder::with_capacity(10, 4);
        let mut hi = Recorder::with_capacity(10, 4);
        for t in 0..100 {
            whole.add(t, "n", 1);
            if t < 50 {
                lo.add(t, "n", 1);
            } else {
                hi.add(t, "n", 1);
            }
        }
        let mut merged = lo.clone();
        merged.merge(&hi);
        assert_eq!(merged.windows(), whole.windows());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut rec = Recorder::new(10);
        rec.add(5, "a", 1);
        let before = rec.windows();
        rec.merge(&Recorder::new(10));
        assert_eq!(rec.windows(), before);
        let mut empty = Recorder::new(10);
        empty.merge(&rec);
        assert_eq!(empty.windows(), before);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut bt = Recorder::with_capacity(64, 16);
        bt.add(0, "ticks", 64);
        bt.add(64, "ticks", 64);
        bt.add(64, "arrivals", 3);
        bt.touch(128);
        let mut cat = Recorder::with_capacity(168, 8);
        for t in (0..168 * 20).step_by(24) {
            cat.add(t, "on_seconds", 3600);
        }
        let mut series = BTreeMap::new();
        series.insert("bt".to_string(), bt);
        series.insert("catalog".to_string(), cat);

        let jsonl = format!("{}{}", crate::header_line(), series_to_jsonl(&series));
        let parsed = parse_timeseries(&jsonl).expect("parses");
        assert_eq!(parsed.len(), 2);
        for (name, rec) in &series {
            let got = &parsed[name];
            assert_eq!(got.window(), rec.window());
            assert_eq!(got.stride(), rec.stride());
            assert_eq!(got.windows(), rec.windows());
        }
        // Re-rendering the parsed series is byte-identical.
        assert_eq!(series_to_jsonl(&parsed), series_to_jsonl(&series));
    }

    #[test]
    fn parse_rejects_orphan_window() {
        let line = r#"{"kind":"ts.window","series":"x","start":0,"len":8,"counters":{}}"#;
        assert!(parse_timeseries(line).is_err());
    }

    #[test]
    fn registry_merge_take_drain() {
        // A name no other test uses: the registry is process-global.
        let name = "test.registry.series";
        let mut a = Recorder::new(8);
        a.add(0, "n", 1);
        let mut b = Recorder::new(8);
        b.add(8, "n", 2);
        merge_series_owned(name, a.clone());
        merge_series_owned(name, b.clone());
        let got = take_series(name).expect("series present");
        let mut want = a.clone();
        want.merge(&b);
        assert_eq!(got.windows(), want.windows());
        assert!(take_series(name).is_none());
    }
}
