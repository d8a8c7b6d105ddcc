//! 2-D wavefront mesh builder: the processor-array topology at
//! netlist scale.
//!
//! The paper's arrays are rectangular meshes of cells driven from a
//! corner; what limits them is how timing uncertainty and faults
//! accumulate along the propagation wavefront. This builder emits
//! that topology as a flat netlist: cell `(0, 0)` buffers the corner
//! stimulus, edge cells buffer their single upstream neighbour, and
//! every interior cell ORs its north and west neighbours — so the
//! rising wavefront sweeps the anti-diagonals exactly like a
//! synchronization signal crossing the array, and any *cut* of
//! stuck-low cells shadows the region behind it.
//!
//! Per-cell delays are `base ± jitter` (Gaussian, seeded), the
//! bounded `m ± ε` model again. A 1000×1000 mesh is a million gates
//! and a million wires; [`MeshSpec::build`] stays allocation-lean and
//! [`WaveOutcome`] reads arrival times from the engine's per-wire
//! last-change column instead of watching a million wires.

use crate::arena::{GateKind, Netlist, SealedNetlist, WireId};
use crate::engine::{EngineStats, NetSim};
use crate::faults::{gate_fault_words, inject_fault_words, InjectionSummary};
use crate::time::SimTime;
use sim_faults::FaultPlan;
use sim_runtime::{sample_normal, SimRng};
use std::sync::Arc;

/// Geometry and delay model of a wavefront mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Rows of cells.
    pub rows: usize,
    /// Columns of cells.
    pub cols: usize,
    /// Nominal per-cell propagation delay.
    pub base_delay: SimTime,
    /// Standard deviation of the per-cell Gaussian delay jitter, in
    /// picoseconds (`ε` of the bounded model; clamped so no cell goes
    /// below 1 ps).
    pub jitter_std_ps: f64,
    /// Seed for the per-cell jitter draws.
    pub seed: u64,
}

impl MeshSpec {
    /// A square mesh with 50 ± 5 ps cells.
    #[must_use]
    pub fn square(side: usize, seed: u64) -> MeshSpec {
        MeshSpec {
            rows: side,
            cols: side,
            base_delay: SimTime::from_ps(50),
            jitter_std_ps: 5.0,
            seed,
        }
    }

    /// Cells in the mesh.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Builds the mesh and seals it. Gate `r * cols + c` drives cell
    /// `(r, c)` — gate index and cell index coincide, so a
    /// [`FaultPlan`] site maps straight onto mesh coordinates.
    ///
    /// # Panics
    ///
    /// Panics on an empty mesh.
    #[must_use]
    pub fn build(&self) -> Mesh {
        assert!(self.rows >= 1 && self.cols >= 1, "mesh must be non-empty");
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut nl = Netlist::new();
        let input = nl.add_wire();
        for i in 0..self.cells() {
            let wire = nl.add_wire();
            debug_assert_eq!(wire, cell_wire(i));
        }
        let draw = |rng: &mut SimRng| {
            let d = sample_normal(rng, self.base_delay.as_ps() as f64, self.jitter_std_ps);
            SimTime::from_ps((d.round() as i64).max(1) as u64)
        };
        for r in 0..self.rows {
            for c in 0..self.cols {
                let out = cell_wire(r * self.cols + c);
                let (rise, fall) = (draw(&mut rng), draw(&mut rng));
                match (r, c) {
                    (0, 0) => {
                        nl.add_buffer(input, out, rise, fall);
                    }
                    (0, _) => {
                        let west = cell_wire(c - 1);
                        nl.add_buffer(west, out, rise, fall);
                    }
                    (_, 0) => {
                        let north = cell_wire((r - 1) * self.cols);
                        nl.add_buffer(north, out, rise, fall);
                    }
                    _ => {
                        let north = cell_wire((r - 1) * self.cols + c);
                        let west = cell_wire(r * self.cols + c - 1);
                        nl.add_gate2(GateKind::Or2, north, west, out, rise, fall);
                    }
                }
            }
        }
        Mesh {
            spec: *self,
            input,
            sealed: Arc::new(nl.seal()),
        }
    }
}

/// The wire of cell `i = r * cols + c`: the corner stimulus is wire 0
/// and the cells follow in row-major order.
fn cell_wire(i: usize) -> WireId {
    WireId::from_index(1 + i)
}

/// A sealed mesh: the shared arena and its geometry. Clone-cheap (the
/// arena is behind an [`Arc`]), so fault sweeps build once and
/// simulate many times.
#[derive(Debug, Clone)]
pub struct Mesh {
    spec: MeshSpec,
    input: WireId,
    sealed: Arc<SealedNetlist>,
}

/// Result of one wavefront run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveOutcome {
    /// Cells whose output went (and stayed) high.
    pub reached: usize,
    /// Total cells.
    pub cells: usize,
    /// Earliest cell arrival, ps (0 when nothing arrived).
    pub first_arrival_ps: u64,
    /// Latest cell arrival, ps (0 when nothing arrived).
    pub last_arrival_ps: u64,
    /// What the fault plan injected.
    pub faults: InjectionSummary,
    /// Engine counters for the run.
    pub stats: EngineStats,
}

impl WaveOutcome {
    /// Fraction of cells the wavefront reached, in `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.reached as f64 / self.cells as f64
    }

    /// Spread between first and last arrival, ps — the wavefront's
    /// skew across the array.
    #[must_use]
    pub fn arrival_span_ps(&self) -> u64 {
        self.last_arrival_ps.saturating_sub(self.first_arrival_ps)
    }
}

impl Mesh {
    /// The sealed arena.
    #[must_use]
    pub fn sealed(&self) -> &Arc<SealedNetlist> {
        &self.sealed
    }

    /// The corner stimulus wire.
    #[must_use]
    pub fn input(&self) -> WireId {
        self.input
    }

    /// The wire of cell `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    #[must_use]
    pub fn cell(&self, r: usize, c: usize) -> WireId {
        assert!(r < self.spec.rows && c < self.spec.cols);
        cell_wire(r * self.spec.cols + c)
    }

    /// An upper bound on how long the wavefront (faulted or not) can
    /// take: every cell on the longest path at worst-case jitter and
    /// maximal delay-fault scaling, plus margin.
    #[must_use]
    pub fn settle_limit(&self) -> SimTime {
        let hops = (self.spec.rows + self.spec.cols) as u64;
        let worst_cell = self.sealed.max_delay_ps();
        // Delay faults scale up to 100x nominal; one faulted cell per
        // hop is already absurdly conservative.
        SimTime::from_ps(100 + hops * worst_cell * 100)
    }

    /// Drives a rising edge into the corner under `plan`'s faults and
    /// runs to quiescence. Deterministic in `(spec, plan)`.
    ///
    /// # Panics
    ///
    /// Panics if the mesh fails to settle within [`Mesh::settle_limit`]
    /// (cannot happen: the stimulus is monotone and the netlist
    /// acyclic, so every wire changes at most a bounded number of
    /// times).
    #[must_use]
    pub fn run_wave(&self, plan: &FaultPlan) -> WaveOutcome {
        let (mut sim, faults) = self.prepare_wave(plan);
        let _ = sim
            .run_to_quiescence(self.settle_limit())
            .unwrap_or_else(|e| panic!("mesh failed to settle: {e}"));
        self.wave_outcome(&sim, faults)
    }

    /// The simulator of one [`Mesh::run_wave`] before it runs: `plan`'s
    /// faults injected over the settle window and the corner's rising
    /// edge scheduled. Returns it with what was injected.
    #[must_use]
    pub fn prepare_wave(&self, plan: &FaultPlan) -> (NetSim, InjectionSummary) {
        let mut sim = NetSim::new(Arc::clone(&self.sealed));
        let words = gate_fault_words(plan, &self.sealed);
        let faults = inject_fault_words(&mut sim, &words, self.settle_limit());
        sim.schedule_input(self.input, SimTime::from_ps(10), true);
        (sim, faults)
    }

    /// Reads a settled wave off `sim`, a simulator from
    /// [`Mesh::prepare_wave`] run to quiescence.
    #[must_use]
    pub fn wave_outcome(&self, sim: &NetSim, faults: InjectionSummary) -> WaveOutcome {
        let mut reached = 0usize;
        let mut first = u64::MAX;
        let mut last = 0u64;
        let cells = self.spec.cells();
        for cell in (0..cells).map(cell_wire) {
            if sim.value(cell) {
                reached += 1;
                let t = sim.last_change_ps(cell);
                first = first.min(t);
                last = last.max(t);
            }
        }
        if reached == 0 {
            first = 0;
        }
        WaveOutcome {
            reached,
            cells,
            first_arrival_ps: first,
            last_arrival_ps: last,
            faults,
            stats: sim.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_faults::FaultRates;

    #[test]
    fn nominal_wave_reaches_every_cell_in_diagonal_order() {
        let mesh = MeshSpec::square(16, 42).build();
        let out = mesh.run_wave(&FaultPlan::disabled());
        assert_eq!(out.reached, out.cells);
        assert!((out.coverage() - 1.0).abs() < f64::EPSILON);
        assert_eq!(out.faults.total(), 0);
        // Wavefront order: the far corner arrives last.
        let mut sim = NetSim::new(Arc::clone(mesh.sealed()));
        sim.schedule_input(mesh.input(), SimTime::from_ps(10), true);
        let _ = sim.run_to_quiescence(mesh.settle_limit()).unwrap();
        let near = sim.last_change_ps(mesh.cell(0, 0));
        let far = sim.last_change_ps(mesh.cell(15, 15));
        assert!(near < far, "near {near} far {far}");
        assert_eq!(out.last_arrival_ps, far);
        // ~31 hops of ~50 ps each.
        assert!((1_000..4_000).contains(&far), "far corner at {far} ps");
    }

    #[test]
    fn wave_is_deterministic() {
        let mesh = MeshSpec::square(12, 7).build();
        let plan = FaultPlan::new(7, 0, FaultRates::uniform(0.02));
        let a = mesh.run_wave(&plan);
        let b = mesh.run_wave(&plan);
        assert_eq!(a, b);
    }

    #[test]
    fn stuck_low_cut_shadows_the_array() {
        // Pin the entire second anti-diagonal's cells low by hand:
        // nothing past it can rise.
        let mesh = MeshSpec::square(8, 3).build();
        let mut sim = NetSim::new(Arc::clone(mesh.sealed()));
        sim.pin_wire(mesh.cell(0, 1), false);
        sim.pin_wire(mesh.cell(1, 0), false);
        sim.schedule_input(mesh.input(), SimTime::from_ps(10), true);
        let _ = sim.run_to_quiescence(mesh.settle_limit()).unwrap();
        assert!(sim.value(mesh.cell(0, 0)));
        for r in 0..8 {
            for c in 0..8 {
                if (r, c) != (0, 0) {
                    assert!(!sim.value(mesh.cell(r, c)), "cell ({r},{c}) rose");
                }
            }
        }
    }

    #[test]
    fn faults_reduce_coverage() {
        let mesh = MeshSpec::square(24, 11).build();
        let nominal = mesh.run_wave(&FaultPlan::disabled());
        let heavy = mesh.run_wave(&FaultPlan::new(11, 1, FaultRates::uniform(0.25)));
        assert!(heavy.faults.total() > 0);
        assert!(heavy.reached < nominal.reached);
    }
}
