//! API contracts across the workspace: thread-safety markers and
//! trait implementations that the Rust API guidelines require of
//! library types (C-SEND-SYNC, C-COMMON-TRAITS, C-GOOD-ERR).

use vlsi_sync_repro::prelude::*;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_error<T: std::error::Error>() {}

#[test]
fn core_data_types_are_send_and_sync() {
    assert_send_sync::<CommGraph>();
    assert_send_sync::<Layout>();
    assert_send_sync::<Point>();
    assert_send_sync::<ClockTree>();
    assert_send_sync::<WireDelayModel>();
    assert_send_sync::<SummationModel>();
    assert_send_sync::<DifferenceModel>();
    assert_send_sync::<NetSim>();
    assert_send_sync::<SimTime>();
    assert_send_sync::<InverterString>();
    assert_send_sync::<ClockSchedule>();
    assert_send_sync::<CellTiming>();
    assert_send_sync::<SystolicFir>();
    assert_send_sync::<SystolicMatMul>();
    assert_send_sync::<HexMatMul>();
    assert_send_sync::<HandshakeLink>();
    assert_send_sync::<HybridArray>();
    assert_send_sync::<SelfTimedArray>();
    assert_send_sync::<MetastabilityModel>();
    assert_send_sync::<AnalysisParams>();
    assert_send_sync::<SyncScheme>();
    assert_send_sync::<SchemeReport>();
}

#[test]
fn error_types_implement_error() {
    assert_error::<ValidateLayoutError>();
    assert_error::<StillActiveError>();
    assert_error::<HoldRaceError>();
}

#[test]
fn ids_have_value_semantics() {
    // Copy + Eq + Ord + Hash: usable as map keys and sortable.
    let a = CellId::new(3);
    let b = a;
    assert_eq!(a, b);
    assert!(CellId::new(1) < CellId::new(2));
    let mut set = std::collections::HashSet::new();
    set.insert(a);
    assert!(set.contains(&b));
    let n = NodeId::new(7);
    assert_eq!(format!("{n}"), "n7");
    assert_eq!(format!("{a}"), "c3");
}

#[test]
fn display_impls_are_informative() {
    assert_eq!(format!("{}", SimTime::from_ps(1500)), "1.500ns");
    let err = StillActiveError {
        limit: SimTime::from_ps(500),
    };
    assert!(format!("{err}").contains("500"));
    let layout_err = ValidateLayoutError::CellCountMismatch { layout: 3, graph: 4 };
    assert!(format!("{layout_err}").contains('3'));
}

#[test]
fn debug_impls_are_non_empty() {
    assert!(!format!("{:?}", CommGraph::linear(2)).is_empty());
    assert!(!format!("{:?}", WireDelayModel::default()).is_empty());
    assert!(!format!("{:?}", NetSim::from_netlist(Netlist::new())).is_empty());
    assert!(!format!("{:?}", SummationModel::from_delay_model(WireDelayModel::default())).is_empty());
}

#[test]
fn default_impls_are_usable() {
    let params = AnalysisParams::default();
    assert!(params.delta > 0.0);
    let model = WireDelayModel::default();
    assert!(model.nominal() > 0.0);
    let t = SimTime::default();
    assert_eq!(t, SimTime::ZERO);
}
