//! [`Metrics`]: a name-keyed registry of counters, gauges, and
//! log-scale histograms.
//!
//! The registry is the *aggregation* point, not the hot path: code on
//! a hot loop (the netlist event loop, a sweep worker) increments plain
//! local `u64` fields and flushes them here once, after the loop.
//! Snapshots serialize with sorted keys, so two registries built from
//! the same events produce byte-identical JSON regardless of insertion
//! order.

use crate::hist::LogHistogram;
use crate::json::Json;
use std::collections::BTreeMap;

/// A registry of named counters (`u64`), gauges (`f64`), and
/// histograms ([`LogHistogram`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LogHistogram>,
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

    /// Records one sample into the named histogram (created empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.hists
            .entry(name.to_owned())
            .or_default()
            .record(value);
    }

    /// Merges a whole histogram into the named slot.
    pub fn observe_all(&mut self, name: &str, hist: &LogHistogram) {
        self.hists.entry(name.to_owned()).or_default().merge(hist);
    }

    /// Current value of a counter (zero when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any samples were recorded.
    #[must_use]
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Folds every metric of `other` into `self`: counters add, gauges
    /// overwrite, histograms merge.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Snapshot as `{counters, gauges, histograms}` with sorted keys;
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
        if !self.hists.is_empty() {
            pairs.push((
                "histograms".to_owned(),
                Json::Object(
                    self.hists
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
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
        a.gauge("mid", 0.5);
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
        assert!(Metrics::new().is_empty());
        assert_eq!(Metrics::new().to_json().to_compact(), "{}");
    }

    #[test]
    fn merge_combines_all_three_kinds() {
        let mut a = Metrics::new();
        a.add("c", 1);
        a.observe("h", 10);
        let mut b = Metrics::new();
        b.add("c", 2);
        b.gauge("g", 9.0);
        b.observe("h", 20);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge_value("g"), Some(9.0));
        assert_eq!(a.hist("h").unwrap().count(), 2);
    }

    #[test]
    fn observed_histograms_report_percentiles() {
        let mut m = Metrics::new();
        for v in [1u64, 2, 3, 4, 100] {
            m.observe("lat", v);
        }
        let j = m.to_json();
        let lat = j.get("histograms").and_then(|h| h.get("lat")).unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_f64), Some(5.0));
        assert_eq!(lat.get("min").and_then(Json::as_f64), Some(1.0));
        assert_eq!(lat.get("max").and_then(Json::as_f64), Some(100.0));
    }
}
