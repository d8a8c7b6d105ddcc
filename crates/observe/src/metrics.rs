//! [`Metrics`]: a name-keyed registry of counters and gauges.
//!
//! The registry is the *aggregation* point, not the hot path: code on
//! a hot loop (the netlist event loop, a sweep worker) increments plain
//! local `u64` fields and flushes them here once, after the loop.
//! Snapshots serialize with sorted keys, so two registries built from
//! the same events produce byte-identical JSON regardless of insertion
//! order.

use crate::json::Json;
use std::collections::BTreeMap;

/// A registry of named counters (`u64`) and gauges (`f64`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of a counter (zero when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Snapshot as `{counters, gauges}` with sorted keys;
    /// empty sections are omitted.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        if !self.counters.is_empty() {
            pairs.push((
                "counters".to_owned(),
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ));
        }
        if !self.gauges.is_empty() {
            pairs.push((
                "gauges".to_owned(),
                Json::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ));
        }
        Json::Object(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.add("x", 2);
        m.add("x", 3);
        assert_eq!(m.counter("x"), 5);
    }

    #[test]
    fn snapshot_keys_are_sorted_and_deterministic() {
        let mut a = Metrics::new();
        a.add("zz", 1);
        a.add("aa", 2);
        a.gauge("mid", 0.25);
        a.gauge("mid", 0.5); // last write wins
        let mut b = Metrics::new();
        b.gauge("mid", 0.5);
        b.add("aa", 2);
        b.add("zz", 1);
        assert_eq!(a.to_json().to_compact(), b.to_json().to_compact());
        assert_eq!(
            a.to_json().to_compact(),
            r#"{"counters":{"aa":2,"zz":1},"gauges":{"mid":0.5}}"#
        );
    }

    #[test]
    fn empty_registry_serializes_to_empty_object() {
        assert_eq!(Metrics::new().to_json().to_compact(), "{}");
    }
}
