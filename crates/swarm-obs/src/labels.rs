//! Labelled metric families over an interned-label registry.
//!
//! A *family* is a named group of metrics distinguished by one label:
//! `net.conn.bytes_in{2->5}` is the member of family
//! `net.conn.bytes_in` at label `2->5`. Per-connection and per-peer
//! metrics need one member per entity, and the hot path (a byte counter
//! bumped per wire frame) must not pay `format!` for the member name on
//! every observation. The split here:
//!
//! * [`label`] interns a label string once into a process-wide
//!   [`Label`] id (a `u32` index; the string is leaked, so
//!   [`Label::as_str`] is `&'static`).
//! * A family caches the `&'static` metric handle per label id in a
//!   slot vector. [`Family::with`] is an uncontended `RwLock` read plus
//!   an indexed load after the first call for a given label — the
//!   member name is formatted exactly once, at slot creation.
//!
//! Members are ordinary registry metrics named
//! `family{label}` (see [`family_metric_name`]), so they appear in
//! [`crate::snapshot`], reports and telemetry like any other metric,
//! and [`split_family_metric`] recovers `(family, label)` offline.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge};

/// Interned label id. `Copy`, cheap to store per connection/peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

#[derive(Default)]
struct LabelTable {
    by_name: BTreeMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn table() -> &'static RwLock<LabelTable> {
    static TABLE: OnceLock<RwLock<LabelTable>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(LabelTable::default()))
}

/// Intern `name` into the process-wide label table (idempotent; the
/// same string always maps to the same [`Label`]).
pub fn label(name: &str) -> Label {
    {
        let t = table().read().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = t.by_name.get(name) {
            return Label(id);
        }
    }
    let mut t = table().write().unwrap_or_else(|e| e.into_inner());
    if let Some(&id) = t.by_name.get(name) {
        return Label(id);
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    let id = u32::try_from(t.names.len()).expect("label table overflow");
    t.names.push(leaked);
    t.by_name.insert(leaked, id);
    Label(id)
}

impl Label {
    /// The interned label string.
    pub fn as_str(self) -> &'static str {
        table().read().unwrap_or_else(|e| e.into_inner()).names[self.0 as usize]
    }
}

/// The registry name of family member `label`: `family{label}`.
pub fn family_metric_name(family: &str, label: &str) -> String {
    format!("{family}{{{label}}}")
}

/// Split a member name back into `(family, label)`; `None` when `name`
/// is not of the `family{label}` shape. Inverse of
/// [`family_metric_name`] for any family name free of `{`.
pub fn split_family_metric(name: &str) -> Option<(&str, &str)> {
    let open = name.find('{')?;
    let inner = name.strip_suffix('}')?;
    Some((&name[..open], &inner[open + 1..]))
}

/// A named family of metrics of one kind, keyed by [`Label`].
#[derive(Debug)]
pub struct Family<T: 'static> {
    name: &'static str,
    intern_metric: fn(&str) -> &'static T,
    slots: RwLock<Vec<Option<&'static T>>>,
}

/// Family of [`Counter`]s.
pub type CounterFamily = Family<Counter>;
/// Family of [`Gauge`]s.
pub type GaugeFamily = Family<Gauge>;

impl<T> Family<T> {
    /// The family name (the part before `{label}`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The member at `l`, creating (and registering) it on first use.
    /// After the first call per label this is a read-lock and an
    /// indexed load — no allocation, no formatting.
    pub fn with(&self, l: Label) -> &'static T {
        let i = l.0 as usize;
        {
            let slots = self.slots.read().unwrap_or_else(|e| e.into_inner());
            if let Some(Some(m)) = slots.get(i) {
                return m;
            }
        }
        let metric = (self.intern_metric)(&family_metric_name(self.name, l.as_str()));
        let mut slots = self.slots.write().unwrap_or_else(|e| e.into_inner());
        if slots.len() <= i {
            slots.resize(i + 1, None);
        }
        // Idempotent under races: the registry interns by name, so two
        // threads resolving the same label get the same `&'static T`.
        slots[i] = Some(metric);
        metric
    }

    /// Convenience: intern `label_name` and resolve the member.
    pub fn with_name(&self, label_name: &str) -> &'static T {
        self.with(label(label_name))
    }
}

#[derive(Default)]
struct FamilyRegistry {
    counters: Mutex<BTreeMap<String, &'static CounterFamily>>,
    gauges: Mutex<BTreeMap<String, &'static GaugeFamily>>,
}

fn family_registry() -> &'static FamilyRegistry {
    static REG: OnceLock<FamilyRegistry> = OnceLock::new();
    REG.get_or_init(FamilyRegistry::default)
}

fn intern_family<T>(
    map: &Mutex<BTreeMap<String, &'static Family<T>>>,
    name: &str,
    intern_metric: fn(&str) -> &'static T,
) -> &'static Family<T> {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(f) = map.get(name) {
        return f;
    }
    let f: &'static Family<T> = Box::leak(Box::new(Family {
        name: Box::leak(name.to_string().into_boxed_str()),
        intern_metric,
        slots: RwLock::new(Vec::new()),
    }));
    map.insert(name.to_string(), f);
    f
}

/// The counter family registered under `name` (created on first use).
/// Cache the handle like a plain [`crate::counter`] handle.
pub fn counter_family(name: &str) -> &'static CounterFamily {
    intern_family(&family_registry().counters, name, crate::metrics::counter)
}

/// The gauge family registered under `name` (created on first use).
pub fn gauge_family(name: &str) -> &'static GaugeFamily {
    intern_family(&family_registry().gauges, name, crate::metrics::gauge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_intern_to_stable_ids() {
        let a = label("2->5");
        let b = label("2->5");
        let c = label("5->2");
        assert_eq!(a, b);
        assert!(a != c);
        assert_eq!(a.as_str(), "2->5");
        assert_eq!(c.as_str(), "5->2");
    }

    #[test]
    fn member_names_round_trip() {
        let name = family_metric_name("net.conn.bytes_in", "2->5");
        assert_eq!(name, "net.conn.bytes_in{2->5}");
        assert_eq!(
            split_family_metric(&name),
            Some(("net.conn.bytes_in", "2->5"))
        );
        assert_eq!(split_family_metric("net.ticks"), None);
        assert_eq!(split_family_metric("dangling{label"), None);
        // Labels containing `}` still split at the family boundary.
        assert_eq!(split_family_metric("f{a}b}"), Some(("f", "a}b")));
    }

    #[test]
    fn family_members_are_registry_metrics() {
        crate::set_enabled(true);
        let fam = counter_family("test.family.hits");
        fam.with_name("alpha").add(3);
        fam.with(label("beta")).inc();
        // Same label → same member.
        fam.with_name("alpha").inc();
        let snap = crate::snapshot();
        assert_eq!(snap.counter("test.family.hits{alpha}"), 4);
        assert_eq!(snap.counter("test.family.hits{beta}"), 1);
        crate::set_enabled(false);
    }
}
