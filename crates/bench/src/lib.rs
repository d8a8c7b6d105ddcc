//! Shared helpers for the experiment bodies — float formatting and
//! growth-rate annotation — plus the [`experiments`] module, where
//! every `eN` experiment body lives as a [`sim_runtime::Experiment`]
//! implementation. The `experiments` binary runs any [`registry`]
//! entry by name (`experiments e6 --fast`).
//!
//! The plain-text [`Table`] writer now lives in `sim-runtime` (so
//! [`sim_runtime::Report`] can capture tables structurally for the
//! `--json` output); it is re-exported here for compatibility.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod episode;
pub mod experiments;
pub mod grid;
pub mod regress;
pub mod timing;

pub use experiments::registry;
pub use sim_runtime::Table;

use vlsi_sync::theory::GrowthClass;

/// Formats a float with three significant decimals for table cells.
#[must_use]
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_owned()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Human label for a growth class.
#[must_use]
pub fn growth_label(class: GrowthClass) -> &'static str {
    match class {
        GrowthClass::Constant => "O(1)",
        GrowthClass::Sqrt => "O(sqrt n)",
        GrowthClass::Linear => "O(n)",
        GrowthClass::Superlinear => "omega(n)",
    }
}

/// Converts a causal skew attribution
/// ([`clock_tree::skew::SkewBreakdown`]) into a `sim-trace`
/// [`sim_observe::TraceEvent::SkewSample`] carrying the per-edge path
/// decomposition (1 model time unit = 1 ns of trace time).
#[must_use]
pub fn skew_sample_event(
    t_ps: u64,
    b: &clock_tree::skew::SkewBreakdown,
) -> sim_observe::TraceEvent {
    sim_observe::TraceEvent::SkewSample {
        t_ps,
        pair: format!("cells({},{})", b.a.index(), b.b.index()),
        skew_ps: sim_observe::ps_from_units(b.magnitude()),
        path: b
            .edges
            .iter()
            .map(|e| sim_observe::PathStep {
                edge: e.edge.clone(),
                delta_ps: (e.delta * 1000.0).round() as i64,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1.23456), "1.235");
        assert_eq!(f(42.5), "42.5");
        assert_eq!(f(12345.0), "12345");
    }

    #[test]
    fn growth_labels() {
        assert_eq!(growth_label(GrowthClass::Constant), "O(1)");
        assert_eq!(growth_label(GrowthClass::Linear), "O(n)");
    }

    #[test]
    fn table_reexport_still_works() {
        let mut t = Table::new(&["a"]);
        t.row(&["1"]);
        assert!(t.render().contains('1'));
    }
}
