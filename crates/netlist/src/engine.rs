//! The event engine: [`NetSim`] runs a [`SealedNetlist`].
//!
//! A circuit is a set of boolean wires connected by gates. Value
//! changes are events; a gate reacts to changes on its inputs and
//! schedules changes on its output after its propagation delay. Two
//! properties matter for the paper's experiments:
//!
//! * **Inertial delay.** When a gate schedules an output change that
//!   conflicts with (precedes or duplicates) changes already in flight
//!   for that wire, or lands inside the driver's inertial window, the
//!   pending changes are cancelled — a pulse narrower than the gate
//!   can pass is swallowed, exactly the failure mode that limits
//!   pipelined clock rate in Section VII.
//! * **Setup/hold checking.** Registers record a [`TimingViolation`]
//!   whenever data changes too close to a sampling clock edge — the
//!   "synchronization failure" that clock skew causes (Section I).
//!
//! The machinery underneath:
//!
//! * each wire's whole state is one 32-byte `WireState` record in a
//!   flat `Vec` indexed by the wire id, and that record also carries
//!   the kind and rise/fall delays of the gate driving the wire; the
//!   inertial window is derived from them, so an event reads one
//!   record per touched wire instead of one column per field, and
//!   never a gate record;
//! * the pending-event set is a calendar wheel (O(1) push/dispatch
//!   under the bounded-delay model, singleton buckets stored inline)
//!   plus a small sorted *far list* for the rare event beyond the
//!   wheel's horizon (pre-scheduled clock edges whole periods away,
//!   delay-fault scalings past nominal);
//! * fanout propagation walks the wire's CSR row directly. Each
//!   8-byte row entry names the driven gate's output wire and its
//!   other input, so evaluating it touches the output's record (kind,
//!   delays, scheduling state) and at most one more input record;
//!   registers additionally read their side-table entry.
//!   Gate evaluation only *schedules* (a nominal delay of at least
//!   1 ps ahead) and never applies, so nothing re-enters settling
//!   mid-walk, and the distinct-input rule puts each gate in a row at
//!   most once: the row itself is the exact, duplicate-free settling
//!   work list, and no work queue is needed.
//!
//! Dispatch order is `(time, push order)`: wheel buckets and the far
//! list both preserve push order within a timestamp, upsets strike
//! before events at the same instant, and far entries (always
//! scheduled from further back in time) precede same-time wheel
//! entries. Integer time plus that order make every run
//! deterministic.
//!
//! Observability follows the workspace's one-branch `Option`
//! discipline: waveform watches (a flag bit per wire, logs in a small
//! side table) and the [`TraceBuf`] lifecycle hooks cost a
//! predictable untaken branch each when disabled.
//!
//! **Two ways a run executes.** The event loop above is one. The other
//! is a *levelized* pass, taken by [`NetSim::run_to_quiescence`] alone,
//! and only when tracing is off and the netlist is *levelizable* —
//! register-free, with each gate driving the next wire from lower
//! ones, one predicate decided once by
//! [`Netlist::seal`](crate::Netlist::seal) (see
//! [`SealedNetlist::is_levelizable`]). The pass visits each wire once
//! in wire order, starting from the simulator's current state,
//! and reproduces the event loop exactly: every wire's value and last
//! change, watched waveforms, every [`EngineStats`] field and `now`.
//! It gives up, and the event loop runs from the untouched state,
//! when the run would pass its limit or meets a same-instant tie that
//! its dispatch key cannot order and whose two orders disagree. [`NetSim::run_until`],
//! [`NetSim::run_budgeted`], traced runs, cyclic netlists (stoppable
//! clocks, Muller pipelines, the gate-element pair) and acyclic ones
//! whose gates are out of wire order always take the event loop, which
//! stays the oracle: it is pinned to the frozen reference
//! fingerprints, and the levelized pass is checked against it.

use crate::arena::{Fanout, GateKind, SealedNetlist, WireId, NONE, TWO_INPUT};
use crate::time::{SimTime, TimeOp, TimeOverflowError};
use crate::wheel::{Ev, Wheel};
use sim_observe::{TraceBuf, TraceEvent, VcdWriter};
use std::fmt;
use std::sync::Arc;

mod levelized;

/// A recorded setup or hold violation at a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingViolation {
    /// When the violation was detected.
    pub at: SimTime,
    /// The register's data wire.
    pub data_wire: WireId,
    /// Which constraint was violated.
    pub kind: ViolationKind,
}

/// The two register timing constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Data changed within the setup window before a clock edge.
    Setup,
    /// Data changed within the hold window after a clock edge.
    Hold,
}

/// Error returned by [`NetSim::run_to_quiescence`] when the circuit
/// is still active at the time limit (e.g. a free-running clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StillActiveError {
    /// The time limit that was reached.
    pub limit: SimTime,
}

impl fmt::Display for StillActiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "circuit still active at time limit {}", self.limit)
    }
}

impl std::error::Error for StillActiveError {}

/// Cumulative event-loop counters of one [`NetSim`].
///
/// Maintained as plain `u64` fields bumped inline on the event path —
/// no atomics, no locks, no allocation — so instrumentation costs a
/// handful of register increments per event. Snapshot with
/// [`NetSim::stats`]; export into a metric registry with
/// [`NetSim::record_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events pushed into the queue (including ones later cancelled).
    pub events_scheduled: u64,
    /// Events popped and applied as real wire changes.
    pub events_processed: u64,
    /// Inertial cancellations: conflicting schedules that invalidated
    /// the in-flight events of a wire (a swallowed pulse bumps this).
    pub cancellations: u64,
    /// Events popped but discarded as stale (cancelled generation) or
    /// redundant (no value change).
    pub dead_events: u64,
    /// High-water mark of the pending-event set.
    pub peak_queue_depth: u64,
    /// Total settle iterations: gate evaluations performed while
    /// propagating applied events (the fanout work the event loop did,
    /// as opposed to the events it merely dispatched).
    pub settle_iterations: u64,
    /// Faults forced into the circuit (stuck-at pins, SEU upsets,
    /// delay scalings).
    pub faults_injected: u64,
}

impl EngineStats {
    /// Writes the counters into `metrics` under
    /// `{prefix}.events_scheduled`, `{prefix}.events_processed`,
    /// `{prefix}.cancellations`, `{prefix}.dead_events`,
    /// `{prefix}.settle_iterations`, and `{prefix}.peak_queue_depth`.
    /// Adds, so stats from several simulators aggregate under one
    /// prefix.
    pub fn record(&self, metrics: &mut sim_observe::Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.events_scheduled"), self.events_scheduled);
        metrics.add(&format!("{prefix}.events_processed"), self.events_processed);
        metrics.add(&format!("{prefix}.cancellations"), self.cancellations);
        metrics.add(&format!("{prefix}.dead_events"), self.dead_events);
        metrics.add(
            &format!("{prefix}.settle_iterations"),
            self.settle_iterations,
        );
        // Peak depth aggregates as a max, not a sum.
        let key = format!("{prefix}.peak_queue_depth");
        let prev = metrics.counter(&key);
        if self.peak_queue_depth > prev {
            metrics.add(&key, self.peak_queue_depth - prev);
        }
        // Only fault-injected runs carry the fault counter, so nominal
        // runs keep their metric set (and committed baselines) intact.
        if self.faults_injected > 0 {
            metrics.add(&format!("{prefix}.faults_injected"), self.faults_injected);
        }
    }
}

/// Sim-time and event budget of a watchdog-supervised run
/// ([`NetSim::run_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// No event beyond this sim time is processed.
    pub sim_limit: SimTime,
    /// Maximum events applied (upsets included) before the watchdog
    /// halts the run — the livelock guard.
    pub max_events: u64,
}

impl RunBudget {
    /// A budget of `sim_limit` simulated time and `max_events` events.
    ///
    /// # Panics
    ///
    /// Panics if `max_events` is zero.
    #[must_use]
    pub fn new(sim_limit: SimTime, max_events: u64) -> Self {
        assert!(max_events > 0, "event budget must be positive");
        RunBudget {
            sim_limit,
            max_events,
        }
    }
}

/// How a budgeted run stopped — the watchdog's verdict. Combine with
/// the caller's completion check via
/// [`classify_run`](crate::faults::classify_run) to get a
/// `RunOutcome`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// Nothing left to do: the circuit quiesced at `at`. Whether that
    /// is success or deadlock depends on whether the workload
    /// finished — the engine cannot know, the caller does.
    Quiescent {
        /// Time of the last applied event.
        at: SimTime,
    },
    /// Pending work lies beyond the sim-time budget.
    SimLimit {
        /// Time the run stopped at.
        at: SimTime,
    },
    /// The event budget ran out — livelock or runaway oscillation.
    EventLimit {
        /// Time the run stopped at.
        at: SimTime,
    },
}

/// Outcome of one dispatch step.
enum Step {
    Did,
    Empty,
    Beyond,
}

/// Everything the engine tracks about one wire, packed into 32 bytes:
/// dispatch, scheduling, the inertial checks and the evaluation of the
/// wire's driver all read the same record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WireState {
    /// Fire time of the latest accepted schedule — the inertial
    /// window's anchor.
    last_event_ps: u64,
    /// Time of the latest value change.
    change_ps: u64,
    /// Generation counter; in-flight events carrying an older one are
    /// dead.
    gen: u32,
    /// The driving gate's rise delay (one-shots: propagation delay);
    /// zero for externally driven wires.
    d_rise: u32,
    /// The driving gate's fall delay (one-shots: pulse width); zero
    /// for externally driven wires.
    d_fall: u32,
    /// Delay-fault scale, percent of nominal; 100 on the hot path.
    delay_scale: u16,
    value: bool,
    /// `SCHEDULED`, `STUCK` and `WATCHED` bits plus the driver's kind
    /// code above `KIND_SHIFT`.
    flags: u8,
}

/// The value the wire settles at once in-flight events land.
const SCHEDULED: u8 = 1;
/// Pinned by a stuck-at fault.
const STUCK: u8 = 1 << 1;
/// Transitions are logged in `NetSim::watches`.
const WATCHED: u8 = 1 << 2;
/// The driver's [`GateKind`] code sits in the flag byte's top five
/// bits.
const KIND_SHIFT: u32 = 3;
/// Kind code of an externally driven wire (no [`GateKind`] uses it).
const UNDRIVEN: u8 = 0b01111;

impl WireState {
    fn has(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }

    fn set(&mut self, flag: u8, on: bool) {
        if on {
            self.flags |= flag;
        } else {
            self.flags &= !flag;
        }
    }

    /// The driving gate's kind code (`GateKind as u8`, or `UNDRIVEN`).
    fn kind(&self) -> u8 {
        self.flags >> KIND_SHIFT
    }

    /// The inertial window: the driver's minimum edge spacing — the
    /// pulse width for one-shots, the faster of rise and fall for the
    /// rest, zero for registers (`d_fall` 0) and for externally
    /// driven wires, whose delays are zero.
    fn inertial_window_ps(&self) -> u64 {
        let sep = if self.kind() == GateKind::OneShot as u8 {
            self.d_fall
        } else {
            self.d_rise.min(self.d_fall)
        };
        u64::from(sep)
    }
}

/// A wire before anything has happened to it.
const FRESH_WIRE: WireState = WireState {
    last_event_ps: 0,
    change_ps: 0,
    gen: 0,
    d_rise: 0,
    d_fall: 0,
    delay_scale: 100,
    value: false,
    flags: UNDRIVEN << KIND_SHIFT,
};

// The settle loop's working set is sized by this record: keep it 32 bytes.
const _: () = assert!(std::mem::size_of::<WireState>() == 32);

/// The flat-arena event-driven simulator.
///
/// Build a [`crate::Netlist`], [`seal`](crate::Netlist::seal) it,
/// and hand it (in an [`Arc`], so sweeps share one arena) to
/// [`NetSim::new`].
#[derive(Debug)]
pub struct NetSim {
    nl: Arc<SealedNetlist>,
    /// Per-wire state, indexed by wire id.
    wires: Vec<WireState>,
    /// Transition logs of watched wires, sorted by wire id.
    watches: Vec<(u32, Vec<(u64, bool)>)>,
    // ---- pending events ----
    wheel: Wheel,
    /// Events beyond the wheel horizon, sorted by fire time (stable:
    /// same-time entries keep insertion order). `far_next` is the
    /// dispatch cursor; entries before it are spent.
    far: Vec<Ev>,
    far_next: usize,
    /// Scheduled SEU upsets, sorted by `(time, wire)`.
    upsets: Vec<(u64, u32)>,
    next_upset: usize,
    /// Scratch for a wheel bucket's same-time followers (spill
    /// buffers circulate through it).
    drain: Vec<Ev>,
    // ---- clock + bookkeeping ----
    now_ps: u64,
    stats: EngineStats,
    trace: Option<Box<TraceBuf>>,
    clock_marks: Vec<(u32, String, u8)>,
    // ---- registers ----
    /// Time of each register's latest rising clock edge (hold
    /// checks), indexed like the arena's register side table.
    last_clk_rise: Vec<Option<u64>>,
    /// Setup/hold violations, in detection order.
    violations: Vec<TimingViolation>,
}

impl NetSim {
    /// A simulator over the sealed arena.
    ///
    /// The initial state replays each gate's build-time rule in gate
    /// order: externally driven wires start low; buffer/inverter
    /// outputs are set consistently with their input (so chains
    /// alternate with no spurious start-up events); a two-input gate
    /// whose output disagrees with its inputs resolves through a real
    /// scheduled event (so feedback loops such as gated ring
    /// oscillators start up); a C-element whose inputs agree starts at
    /// their value. One-shots and registers start low and wait for an
    /// edge.
    #[must_use]
    pub fn new(nl: Arc<SealedNetlist>) -> NetSim {
        let wheel = Wheel::with_horizon(nl.max_delay_ps());
        let mut sim = NetSim {
            wires: vec![FRESH_WIRE; nl.n_wires()],
            watches: Vec::new(),
            wheel,
            far: Vec::new(),
            far_next: 0,
            upsets: Vec::new(),
            next_upset: 0,
            drain: Vec::new(),
            now_ps: 0,
            stats: EngineStats::default(),
            trace: None,
            clock_marks: Vec::new(),
            last_clk_rise: vec![None; nl.registers.len()],
            violations: Vec::new(),
            nl,
        };
        let nl = Arc::clone(&sim.nl);
        for g in &nl.gates {
            let a = g.in_a as usize;
            let out = g.out as usize;
            // The output wire carries its driver: kind and delays.
            let ws = &mut sim.wires[out];
            ws.d_rise = g.d_rise;
            ws.d_fall = g.d_fall;
            ws.flags = (g.kind as u8) << KIND_SHIFT;
            match g.kind {
                GateKind::Buffer | GateKind::Inverter => {
                    let v = sim.wires[a].value ^ (g.kind == GateKind::Inverter);
                    sim.wires[out].value = v;
                    sim.wires[out].set(SCHEDULED, v);
                }
                GateKind::CElement => {
                    let v = sim.wires[a].value;
                    if v == sim.wires[g.in_b as usize].value {
                        sim.wires[out].value = v;
                        sim.wires[out].set(SCHEDULED, v);
                    }
                }
                GateKind::OneShot | GateKind::Register => {}
                kind => {
                    let v = kind.eval2(sim.wires[a].value, sim.wires[g.in_b as usize].value);
                    if sim.wires[out].value != v {
                        let delay = if v { g.d_rise } else { g.d_fall };
                        sim.schedule_output(out, u64::from(delay), v);
                    }
                }
            }
        }
        sim
    }

    /// Convenience: seal-and-simulate in one step.
    #[must_use]
    pub fn from_netlist(nl: crate::Netlist) -> NetSim {
        NetSim::new(Arc::new(nl.seal()))
    }

    /// The shared sealed arena this simulator runs.
    #[must_use]
    pub fn netlist(&self) -> &Arc<SealedNetlist> {
        &self.nl
    }

    fn check_wire(&self, w: WireId) {
        assert!((w.index()) < self.nl.n_wires(), "unknown wire {w}");
    }

    // ---- stimulus & fault API ----

    /// Schedules an externally driven change of `wire` at absolute
    /// time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the simulated past.
    pub fn schedule_input(&mut self, wire: WireId, t: SimTime, value: bool) {
        self.check_wire(wire);
        assert!(
            t.as_ps() >= self.now_ps,
            "cannot schedule input in the past"
        );
        self.schedule_change(wire.index(), t.as_ps(), value);
    }

    /// Schedules a periodic clock: rising edges at `start + k·period`,
    /// falling edges `high` later, for `cycles` cycles. Edge times are
    /// computed with the overflow-checked [`SimTime`] arithmetic, so a
    /// runaway period count fails with a structured diagnostic instead
    /// of wrapping the picosecond horizon.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < high < period`, or if an edge time
    /// overflows.
    pub fn schedule_clock(
        &mut self,
        wire: WireId,
        start: SimTime,
        period: SimTime,
        high: SimTime,
        cycles: usize,
    ) {
        assert!(
            SimTime::ZERO < high && high < period,
            "need 0 < high < period"
        );
        for k in 0..cycles {
            let rise = period
                .checked_mul(k as u64)
                .and_then(|off| start.checked_add(off))
                .unwrap_or_else(|e| panic!("clock edge {k}: {e}"));
            let fall = rise
                .checked_add(high)
                .unwrap_or_else(|e| panic!("clock edge {k}: {e}"));
            self.schedule_input(wire, rise, true);
            self.schedule_input(wire, fall, false);
        }
    }

    /// Pins `wire` to `value` for the rest of the run (stuck-at
    /// fault): forced immediately, in-flight events cancelled, later
    /// driver schedules ignored.
    pub fn pin_wire(&mut self, wire: WireId, value: bool) {
        self.check_wire(wire);
        let kind = if value { "stuck_at_1" } else { "stuck_at_0" };
        self.force_wire(wire.index(), self.now_ps, value, kind);
        self.wires[wire.index()].set(STUCK, true);
    }

    /// Schedules one transient (SEU-style) upset: at `t` the wire's
    /// value flips and the circuit reacts to the corrupted value.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the simulated past.
    pub fn schedule_upset(&mut self, wire: WireId, t: SimTime) {
        self.check_wire(wire);
        let t_ps = t.as_ps();
        assert!(t_ps >= self.now_ps, "cannot schedule an upset in the past");
        let tail = &self.upsets[self.next_upset..];
        let pos = tail.partition_point(|&(ut, uw)| (ut, uw) <= (t_ps, wire.0));
        self.upsets.insert(self.next_upset + pos, (t_ps, wire.0));
    }

    /// Applies a delay fault: every change scheduled onto `wire` from
    /// now on has its delay scaled to `percent` of nominal. Scaled
    /// fire times may exceed the wheel horizon; those events take the
    /// far-list path.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= percent <= 10_000`.
    pub fn scale_wire_delay(&mut self, wire: WireId, percent: u32) {
        self.check_wire(wire);
        assert!(
            (1..=10_000).contains(&percent),
            "delay scale must be in 1..=10000 percent"
        );
        self.wires[wire.index()].delay_scale = percent as u16;
        self.stats.faults_injected += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::FaultInjected {
                t_ps: self.now_ps,
                site: trace_site(wire.index()),
                kind: format!("delay_scale_{percent}"),
            });
        }
    }

    // ---- observability ----

    /// Starts recording value transitions on `wire`.
    pub fn watch(&mut self, wire: WireId) {
        self.check_wire(wire);
        if let Err(pos) = self.watches.binary_search_by_key(&wire.0, |e| e.0) {
            self.watches.insert(pos, (wire.0, Vec::new()));
            self.wires[wire.index()].set(WATCHED, true);
        }
    }

    /// Recorded transitions of a watched wire as raw
    /// `(time_ps, new_value)` pairs (empty for unwatched wires).
    #[must_use]
    pub fn transitions_ps(&self, wire: WireId) -> &[(u64, bool)] {
        match self.watches.binary_search_by_key(&wire.0, |e| e.0) {
            Ok(pos) => &self.watches[pos].1,
            Err(_) => &[],
        }
    }

    /// Appends a transition to a watched wire's log.
    fn log_transition(&mut self, w: usize, t_ps: u64, value: bool) {
        let pos = self
            .watches
            .binary_search_by_key(&(w as u32), |e| e.0)
            .expect("watched wire has a log");
        self.watches[pos].1.push((t_ps, value));
    }

    /// Enables event-lifecycle tracing into a bounded ring of
    /// `capacity` events (one-branch `Option` hooks when off).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(TraceBuf::new(capacity)));
    }

    /// Marks `wire` as a clock: its transitions also record
    /// `ClockEdge` trace events under `signal` / `phase`.
    pub fn mark_clock(&mut self, wire: WireId, signal: &str, phase: u8) {
        self.check_wire(wire);
        self.clock_marks.retain(|(w, _, _)| *w != wire.0);
        self.clock_marks.push((wire.0, signal.to_owned(), phase));
    }

    /// Takes the recorded trace, leaving tracing disabled.
    pub fn take_trace(&mut self) -> Option<TraceBuf> {
        self.trace.take().map(|b| *b)
    }

    /// Renders watched wires as a VCD document (1 ps timescale) under
    /// the given names. A wire's initial value is inferred as the
    /// complement of its first transition, else its current value; an
    /// unwatched wire appears with that value only.
    ///
    /// # Panics
    ///
    /// Panics on duplicate, empty, or whitespace signal names.
    #[must_use]
    pub fn export_vcd(&self, wires: &[(WireId, &str)]) -> String {
        let mut w = VcdWriter::new();
        for &(wire, name) in wires {
            let transitions = self.transitions_ps(wire);
            let initial = match transitions.first() {
                Some(&(_, first_value)) => !first_value,
                None => self.value(wire),
            };
            w.add_signal(name, initial, transitions.iter().copied());
        }
        w.render()
    }

    // ---- queries ----

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_ps(self.now_ps)
    }

    /// Current value of a wire.
    #[must_use]
    pub fn value(&self, wire: WireId) -> bool {
        self.wires[wire.index()].value
    }

    /// All setup/hold violations recorded so far, in detection order.
    #[must_use]
    pub fn violations(&self) -> &[TimingViolation] {
        &self.violations
    }

    /// Time of the wire's last value change, in picoseconds (0 if it
    /// never changed) — per-wire arrival times without per-wire
    /// transition storage, which is what million-cell wavefront
    /// analyses read.
    #[must_use]
    pub fn last_change_ps(&self, wire: WireId) -> u64 {
        self.wires[wire.index()].change_ps
    }

    /// Events waiting for dispatch (dead events included).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.wheel.len() + (self.far.len() - self.far_next)
    }

    /// Snapshot of the cumulative event-loop counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Exports counters under `{prefix}.*` (see
    /// [`EngineStats::record`]) plus the simulated time as
    /// `{prefix}.sim_time_ps`.
    pub fn record_metrics(&self, metrics: &mut sim_observe::Metrics, prefix: &str) {
        self.stats.record(metrics, prefix);
        metrics.add(&format!("{prefix}.sim_time_ps"), self.now_ps);
    }

    // ---- run loop ----

    /// Runs until the pending set is empty or the next event lies
    /// beyond `t`; the clock ends at exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        let limit = t.as_ps();
        while matches!(self.step_once(limit), Step::Did) {}
        if self.now_ps < limit {
            self.now_ps = limit;
        }
    }

    /// Runs until no events remain, up to a safety `limit`.
    ///
    /// On a levelizable netlist with tracing off this is one
    /// topological pass rather than the event loop, with identical
    /// results (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`StillActiveError`] if events or upsets remain past
    /// the limit.
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> Result<SimTime, StillActiveError> {
        if self.trace.is_none() && self.nl.is_levelizable() {
            if let Some(t) = self.run_levelized(limit.as_ps()) {
                return Ok(SimTime::from_ps(t));
            }
        }
        loop {
            match self.step_once(limit.as_ps()) {
                Step::Did => {}
                Step::Empty => return Ok(self.now()),
                Step::Beyond => return Err(StillActiveError { limit }),
            }
        }
    }

    /// The watchdog-supervised run loop: processes events until the
    /// circuit quiesces, the sim-time budget is exhausted, or the
    /// event budget is exhausted — whichever comes first. A
    /// fault-injected circuit can oscillate forever or stall forever;
    /// this always terminates with a classified [`Halt`] instead.
    pub fn run_budgeted(&mut self, budget: RunBudget) -> Halt {
        let limit = budget.sim_limit.as_ps();
        let mut applied: u64 = 0;
        loop {
            if applied >= budget.max_events {
                return Halt::EventLimit { at: self.now() };
            }
            match self.step_once(limit) {
                Step::Did => applied += 1,
                Step::Empty => return Halt::Quiescent { at: self.now() },
                Step::Beyond => return Halt::SimLimit { at: self.now() },
            }
        }
    }

    /// Dispatches the earliest pending action at or before `limit`.
    /// Tie order at one instant: upsets, then far-list entries, then
    /// the wheel bucket (see the module docs). The wheel is scanned
    /// once: the bucket found here is the one dispatched.
    fn step_once(&mut self, limit: u64) -> Step {
        let bucket = self.wheel.earliest(self.now_ps);
        let next_wheel = bucket.map(|b| self.wheel.time_at(b));
        let next_far = self.far.get(self.far_next).map(|e| e.t_ps);
        let next_ev = match (next_wheel, next_far) {
            (Some(w), Some(f)) => Some(w.min(f)),
            (w, f) => w.or(f),
        };
        let next_up = if self.next_upset < self.upsets.len() {
            Some(self.upsets[self.next_upset].0)
        } else {
            None
        };
        match (next_ev, next_up) {
            (None, None) => Step::Empty,
            (ev, Some(ut)) if ut <= limit && ev.is_none_or(|et| ut <= et) => {
                let (t, w) = self.upsets[self.next_upset];
                self.next_upset += 1;
                let flipped = !self.wires[w as usize].value;
                self.force_wire(w as usize, t, flipped, "seu_flip");
                Step::Did
            }
            (Some(et), _) if et <= limit => {
                if next_far.is_some_and(|f| f <= et) {
                    let ev = self.far[self.far_next];
                    self.far_next += 1;
                    self.apply(ev);
                } else {
                    let b = bucket.expect("wheel time implies a bucket");
                    let mut rest = std::mem::take(&mut self.drain);
                    let head = self.wheel.take(b, &mut rest);
                    // Apply sequentially: a cancellation mid-bucket must
                    // kill later same-time entries.
                    self.apply(head);
                    for ev in rest.drain(..) {
                        self.apply(ev);
                    }
                    self.drain = rest;
                }
                Step::Did
            }
            _ => Step::Beyond,
        }
    }

    /// Schedules a wire change with inertial-delay semantics: a change
    /// that lands before the latest accepted one, repeats the value the
    /// wire already settles at, or falls inside the driver's inertial
    /// window cancels everything in flight for the wire.
    fn schedule_change(&mut self, w: usize, t_ps: u64, value: bool) {
        let ws = &mut self.wires[w];
        if ws.has(STUCK) {
            return;
        }
        let t_ps = if ws.delay_scale == 100 {
            t_ps
        } else {
            let delta = t_ps.saturating_sub(self.now_ps);
            SimTime::from_ps(delta)
                .checked_mul(u64::from(ws.delay_scale))
                .and_then(|scaled| {
                    SimTime::from_ps(self.now_ps).checked_add(SimTime::from_ps(scaled.as_ps() / 100))
                })
                .unwrap_or_else(|e| panic!("{e}"))
                .as_ps()
        };
        let last = ws.last_event_ps;
        // `t - last < window` rather than `t < last + window`: the sum
        // could pass the horizon, and for `t < last` the conflict is
        // flagged either way.
        let too_close = last > 0 && t_ps.saturating_sub(last) < ws.inertial_window_ps();
        let conflict = t_ps < last || value == ws.has(SCHEDULED) || too_close;
        if conflict {
            // Cancel everything in flight for this wire.
            ws.gen = ws.gen.wrapping_add(1);
            self.stats.cancellations += 1;
            if let Some(tr) = &mut self.trace {
                tr.record(TraceEvent::EventCancelled {
                    t_ps: self.now_ps,
                    net: w as u32,
                });
            }
            if value == ws.value {
                // Settles at the current value; nothing to apply.
                ws.set(SCHEDULED, value);
                ws.last_event_ps = t_ps;
                return;
            }
        }
        ws.set(SCHEDULED, value);
        ws.last_event_ps = t_ps;
        let ev = Ev {
            t_ps,
            wire: w as u32,
            gen: ws.gen,
            value,
        };
        if self.wheel.fits(self.now_ps, t_ps) {
            self.wheel.push(ev);
        } else {
            let tail = &self.far[self.far_next..];
            let pos = tail.partition_point(|e| e.t_ps <= t_ps);
            self.far.insert(self.far_next + pos, ev);
        }
        self.stats.events_scheduled += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::EventScheduled {
                t_ps: self.now_ps,
                fire_ps: t_ps,
                net: w as u32,
                value,
            });
        }
        let depth = self.pending_events() as u64;
        if depth > self.stats.peak_queue_depth {
            self.stats.peak_queue_depth = depth;
        }
    }

    fn apply(&mut self, ev: Ev) {
        debug_assert!(ev.t_ps >= self.now_ps, "event time went backwards");
        self.now_ps = ev.t_ps;
        let w = ev.wire as usize;
        let ws = &mut self.wires[w];
        if ev.gen != ws.gen || ws.value == ev.value {
            self.stats.dead_events += 1;
            return; // cancelled or redundant
        }
        self.stats.events_processed += 1;
        ws.value = ev.value;
        ws.change_ps = ev.t_ps;
        if ws.has(WATCHED) {
            self.log_transition(w, ev.t_ps, ev.value);
        }
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::EventFired {
                t_ps: ev.t_ps,
                net: ev.wire,
                value: ev.value,
            });
            if let Some((_, signal, phase)) =
                self.clock_marks.iter().find(|(m, _, _)| *m == ev.wire)
            {
                tr.record(TraceEvent::ClockEdge {
                    t_ps: ev.t_ps,
                    signal: signal.clone(),
                    rising: ev.value,
                    phase: *phase,
                });
            }
        }
        self.settle_fanout(w, ev.value);
    }

    /// Forces a wire outside the normal driver path (pins, upsets):
    /// cancels in-flight events, applies the change, reacts.
    fn force_wire(&mut self, w: usize, t_ps: u64, value: bool, kind: &str) {
        if t_ps > self.now_ps {
            self.now_ps = t_ps;
        }
        let now = self.now_ps;
        self.stats.faults_injected += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::FaultInjected {
                t_ps: now,
                site: trace_site(w),
                kind: kind.to_owned(),
            });
        }
        let ws = &mut self.wires[w];
        ws.gen = ws.gen.wrapping_add(1); // kill in-flight events
        ws.set(SCHEDULED, value);
        ws.last_event_ps = now;
        if ws.value == value {
            return;
        }
        ws.value = value;
        ws.change_ps = now;
        if ws.has(WATCHED) {
            self.log_transition(w, now, value);
        }
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::EventFired {
                t_ps: now,
                net: w as u32,
                value,
            });
        }
        self.settle_fanout(w, value);
    }

    /// Propagates a change of wire `w` to `in_val` through its CSR
    /// fanout: the zero-delay settling pass of this timestep. Each
    /// driven gate is evaluated once, in row (gate-insertion) order,
    /// and every evaluation bumps `settle_iterations`. Walking the row directly is exact — see
    /// the module docs for why no work queue is needed.
    fn settle_fanout(&mut self, w: usize, in_val: bool) {
        let (s, e) = (
            self.nl.fanout_offsets[w] as usize,
            self.nl.fanout_offsets[w + 1] as usize,
        );
        self.stats.settle_iterations += (e - s) as u64;
        for i in s..e {
            self.eval_gate(in_val, self.nl.rows[i]);
        }
    }

    /// Evaluates one fanout entry — the gate fed by a wire now at
    /// `in_val` — and schedules its output. Kind and delays come from
    /// the output wire's record.
    fn eval_gate(&mut self, in_val: bool, entry: Fanout) {
        let out = entry.out as usize;
        let ws = self.wires[out];
        let (rise, fall) = (u64::from(ws.d_rise), u64::from(ws.d_fall));
        let kind = ws.kind();
        if kind == GateKind::OneShot as u8 {
            if in_val {
                // Rising edge: fresh pulse, rise scheduled first.
                self.schedule_output(out, rise, true);
                self.schedule_output(out, rise + fall, false);
            }
        } else if entry.other == NONE {
            let out_val = in_val ^ (kind == GateKind::Inverter as u8);
            let delay = if out_val { rise } else { fall };
            self.schedule_output(out, delay, out_val);
        } else if kind & TWO_INPUT != 0 {
            // Symmetric, so the row's wire can stand in for either
            // input; the kind code is the truth table.
            let vb = self.wires[entry.other as usize].value;
            let out_val = crate::arena::truth(kind, in_val, vb);
            if ws.has(SCHEDULED) != out_val {
                let delay = if out_val { rise } else { fall };
                self.schedule_output(out, delay, out_val);
            }
        } else if kind == GateKind::CElement as u8 {
            let vb = self.wires[entry.other as usize].value;
            if in_val == vb && ws.has(SCHEDULED) != in_val {
                self.schedule_output(out, rise, in_val);
            }
        } else {
            self.eval_register(in_val, entry, rise);
        }
    }

    /// A register fed by a wire now at `in_val`: on a rising clock edge
    /// the setup check, then the sample, driven onto `q` after
    /// `clk_to_q`; on a data change the hold check against the latest
    /// edge. A data wire that never changed cannot violate setup.
    fn eval_register(&mut self, in_val: bool, entry: Fanout, clk_to_q: u64) {
        let slot = self
            .nl
            .registers
            .binary_search_by_key(&entry.out, |r| r.q)
            .expect("every register output has a side-table entry");
        let reg = self.nl.registers[slot];
        let now = self.now_ps;
        if entry.other == reg.d {
            // The row's wire is the clock.
            if !in_val {
                return;
            }
            let d = self.wires[reg.d as usize];
            if reg.setup_ps > 0 && d.change_ps > 0 && now.saturating_sub(d.change_ps) < reg.setup_ps {
                self.violation(ViolationKind::Setup, reg.d);
            }
            self.last_clk_rise[slot] = Some(now);
            self.schedule_output(entry.out as usize, clk_to_q, d.value);
        } else if let Some(edge) = self.last_clk_rise[slot] {
            if reg.hold_ps > 0 && now.saturating_sub(edge) < reg.hold_ps {
                self.violation(ViolationKind::Hold, reg.d);
            }
        }
    }

    fn violation(&mut self, kind: ViolationKind, data: u32) {
        self.violations.push(TimingViolation {
            at: self.now(),
            data_wire: WireId(data),
            kind,
        });
    }

    /// Schedules a gate output `delay` ps from now. Gate delays are at
    /// least 1 ps (the builder rejects zero), so an evaluation never
    /// schedules into the current instant: whatever it triggers is
    /// applied by a later dispatch, never inside the row walk of
    /// [`NetSim::settle_fanout`], which therefore needs no work queue.
    ///
    /// # Panics
    ///
    /// Panics with the [`TimeOverflowError`] message if the fire time
    /// passes the `u64` picosecond horizon — one compare per scheduled
    /// event.
    fn schedule_output(&mut self, out: usize, delay: u64, value: bool) {
        debug_assert!(
            delay >= 1,
            "gate evaluation scheduled at the current instant"
        );
        let t_ps = match self.now_ps.checked_add(delay) {
            Some(t) => t,
            None => overflow(self.now_ps, delay),
        };
        self.schedule_change(out, t_ps, value);
    }
}

/// The panic of a gate output scheduled past the horizon, kept out of
/// line so the hot path carries only the compare.
#[cold]
#[inline(never)]
fn overflow(now_ps: u64, delay: u64) -> ! {
    let err = TimeOverflowError {
        op: TimeOp::Add,
        lhs_ps: now_ps,
        rhs: delay,
    };
    panic!("{err}")
}

/// A wire as the trace names a fault site: `net{index}`, matching the
/// `net=` field of the trace's event records.
fn trace_site(w: usize) -> String {
    format!("net{w}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// `(scheduled_at, fire_ps, net)` of every `EventScheduled` record.
    fn schedules(sim: &mut NetSim) -> Vec<(u64, u64, u32)> {
        let (events, dropped) = sim.take_trace().expect("tracing on").into_ordered();
        assert_eq!(dropped, 0);
        events
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::EventScheduled {
                    t_ps, fire_ps, net, ..
                } => Some((t_ps, fire_ps, net)),
                _ => None,
            })
            .collect()
    }

    /// One wire fanning out to every evaluation path: the settling
    /// pass walks the CSR row in gate-insertion order, evaluates each
    /// gate exactly once per change, and never schedules into the
    /// current instant — the invariants that replaced the work queue.
    #[test]
    fn fanout_settles_once_per_gate_in_csr_order() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let other = nl.add_wire();
        // Outputs allocated in reverse gate order, so CSR order is not
        // wire-id order.
        let (shot, or, inv, buf) = (nl.add_wire(), nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_buffer(a, buf, ps(30), ps(30));
        nl.add_inverter(a, inv, ps(20), ps(25));
        nl.add_gate2(GateKind::Or2, other, a, or, ps(10), ps(10)); // `a` as the second input
        nl.add_one_shot(a, shot, ps(5), ps(40));
        let mut sim = NetSim::from_netlist(nl);
        sim.schedule_input(a, ps(100), true);
        sim.schedule_input(a, ps(500), false);
        let fanout = 4;

        // Rising edge: every gate schedules (the one-shot twice).
        sim.enable_trace(64);
        let before = sim.stats().settle_iterations;
        sim.run_until(ps(100));
        assert_eq!(sim.stats().settle_iterations - before, fanout);
        let rise = schedules(&mut sim);
        assert_eq!(
            rise.iter().map(|s| s.2).collect::<Vec<_>>(),
            vec![buf.0, inv.0, or.0, shot.0, shot.0]
        );
        assert!(rise.iter().all(|&(t, fire, _)| t == 100 && fire > t));

        // Falling edge: the one-shot is still evaluated (and counted)
        // but schedules nothing.
        sim.enable_trace(64);
        let before = sim.stats().settle_iterations;
        sim.run_until(ps(500));
        assert_eq!(sim.stats().settle_iterations - before, fanout);
        let fall = schedules(&mut sim);
        assert_eq!(
            fall.iter().map(|s| s.2).collect::<Vec<_>>(),
            vec![buf.0, inv.0, or.0]
        );
        assert!(fall.iter().all(|&(t, fire, _)| t == 500 && fire > t));
    }

    /// The inertial window is derived from the driver fields the
    /// output wire carries: the faster edge for combinational gates,
    /// the pulse width for one-shots, nothing for undriven wires.
    #[test]
    fn inertial_window_and_delay_bound() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        let c = nl.add_wire();
        let d = nl.add_wire();
        nl.add_inverter(a, b, ps(300), ps(100));
        nl.add_one_shot(b, c, ps(50), ps(800));
        nl.add_buffer(c, d, ps(40), ps(70));
        let sim = NetSim::from_netlist(nl);
        let window = |w: WireId| sim.wires[w.index()].inertial_window_ps();
        assert_eq!(window(b), 100);
        assert_eq!(window(c), 800);
        assert_eq!(window(d), 40);
        assert_eq!(window(a), 0);
        assert_eq!(sim.wires[a.index()].kind(), UNDRIVEN);
        assert_eq!(sim.wires[c.index()].kind(), GateKind::OneShot as u8);
        assert_eq!(sim.netlist().max_delay_ps(), 850);
    }

    /// Watches live in a side table keyed by wire: several wires, a
    /// repeated `watch`, and an unwatched wire all read back right,
    /// and the VCD is unchanged by the layout.
    #[test]
    fn watched_wires_keep_separate_logs() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        let c = nl.add_wire();
        let d = nl.add_wire();
        nl.add_inverter(a, b, ps(10), ps(20));
        nl.add_buffer(b, c, ps(5), ps(5));
        nl.add_buffer(c, d, ps(5), ps(5));
        let mut sim = NetSim::from_netlist(nl);
        sim.watch(c);
        sim.watch(a);
        sim.watch(c);
        sim.schedule_input(a, ps(100), true);
        sim.schedule_input(a, ps(200), false);
        sim.run_until(ps(1_000));
        assert_eq!(sim.transitions_ps(a), &[(100, true), (200, false)]);
        assert_eq!(sim.transitions_ps(c), &[(125, false), (215, true)]);
        assert_eq!(sim.transitions_ps(b), &[]);
        assert_eq!(sim.transitions_ps(d), &[]);
        assert!(!sim.wires[b.index()].has(WATCHED));
        let vcd = sim.export_vcd(&[(a, "a"), (c, "c")]);
        let expected = {
            let mut w = VcdWriter::new();
            w.add_signal("a", false, [(100, true), (200, false)]);
            w.add_signal("c", true, [(125, false), (215, true)]);
            w.render()
        };
        assert_eq!(vcd, expected);
    }

    /// A netlist of `n` wires wired up by `build`, simulated.
    fn sim_of(n: usize, build: impl FnOnce(&mut Netlist, &[WireId])) -> (NetSim, Vec<WireId>) {
        let mut nl = Netlist::new();
        let w: Vec<WireId> = (0..n).map(|_| nl.add_wire()).collect();
        build(&mut nl, &w);
        (NetSim::from_netlist(nl), w)
    }

    /// A small circuit exercising schedules, firings, and inertial
    /// cancellations: an inverter driven by a pulse narrower than its
    /// delay plus a free-running clock. `trace` enables event tracing
    /// *before* any stimulus, so the recorded lifecycle is complete.
    fn traced_fixture(trace: bool) -> (NetSim, WireId) {
        let (mut sim, w) = sim_of(3, |nl, w| {
            nl.add_inverter(w[1], w[2], ps(100), ps(100));
        });
        let (clk, a, b) = (w[0], w[1], w[2]);
        sim.watch(b);
        if trace {
            sim.enable_trace(1 << 12);
            sim.mark_clock(clk, "clk", 0);
        }
        sim.schedule_clock(clk, ps(50), ps(400), ps(200), 4);
        sim.schedule_input(a, ps(300), true);
        // Narrow pulse: swallowed by the inverter's inertial window.
        sim.schedule_input(a, ps(600), false);
        sim.schedule_input(a, ps(640), true);
        (sim, b)
    }

    #[test]
    fn tracing_does_not_change_behavior() {
        let (mut plain, b) = traced_fixture(false);
        plain.run_until(ps(5_000));
        let (mut traced, _) = traced_fixture(true);
        assert!(traced.trace.is_some());
        traced.run_until(ps(5_000));
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(plain.transitions_ps(b), traced.transitions_ps(b));
        assert_eq!(plain.now(), traced.now());
    }

    #[test]
    fn trace_records_the_event_lifecycle() {
        let (mut sim, _) = traced_fixture(true);
        sim.run_until(ps(5_000));
        let stats = sim.stats();
        let buf = sim.take_trace().expect("tracing was enabled");
        assert!(sim.trace.is_none(), "take_trace disables tracing");
        let (events, dropped) = buf.into_ordered();
        assert_eq!(dropped, 0);
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
        assert_eq!(count("event_scheduled"), stats.events_scheduled);
        assert_eq!(count("event_fired"), stats.events_processed);
        assert_eq!(count("event_cancelled"), stats.cancellations);
        // 4 clock cycles, marked: 8 clock edges.
        assert_eq!(count("clock_edge"), 8);
        // The engine timeline satisfies the offline checker.
        let mut trace = sim_observe::Trace::new();
        let mut buf2 = TraceBuf::new(events.len());
        for ev in events {
            buf2.record(ev);
        }
        trace.add_track("engine", buf2);
        let check = sim_observe::check_trace(&trace);
        assert!(check.is_ok(), "{:?}", check.violations);
    }

    #[test]
    fn buffer_propagates_with_asymmetric_delays() {
        let (mut sim, w) = sim_of(2, |nl, w| {
            nl.add_buffer(w[0], w[1], ps(100), ps(300));
        });
        sim.watch(w[1]);
        sim.schedule_input(w[0], ps(1000), true);
        sim.schedule_input(w[0], ps(2000), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.transitions_ps(w[1]), &[(1100, true), (2300, false)]);
    }

    #[test]
    fn inverter_chain_parity() {
        let (mut sim, w) = sim_of(4, |nl, w| {
            for p in w.windows(2) {
                nl.add_inverter(p[0], p[1], ps(50), ps(50));
            }
        });
        // Initial state alternates: 0,1,0,1 — consistent, no events.
        assert_eq!(sim.pending_events(), 0);
        sim.schedule_input(w[0], ps(100), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert!(sim.value(w[0]));
        assert!(!sim.value(w[1]));
        assert!(sim.value(w[2]));
        assert!(!sim.value(w[3]));
    }

    #[test]
    fn four_inverters_pass_a_rising_edge_400_ps_later() {
        let (mut sim, w) = sim_of(5, |nl, w| {
            for p in w.windows(2) {
                nl.add_inverter(p[0], p[1], ps(100), ps(100));
            }
        });
        sim.watch(w[4]);
        sim.schedule_input(w[0], ps(10), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        // Inverted four times: a rising edge again, 400 ps later.
        assert_eq!(sim.transitions_ps(w[4]), &[(410, true)]);
    }

    #[test]
    fn chain_of_mixed_stages_settles_in_order() {
        // Buffer then one-shot: the pulse rises at 10 + 50 + 30 and
        // falls one wired-in width later.
        let (mut sim, w) = sim_of(3, |nl, w| {
            nl.add_buffer(w[0], w[1], ps(50), ps(50));
            nl.add_one_shot(w[1], w[2], ps(30), ps(200));
        });
        sim.watch(w[2]);
        sim.schedule_input(w[0], ps(10), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.transitions_ps(w[2]), &[(90, true), (290, false)]);
    }

    /// A buffer with slow rise (400) and fast fall (100), driven by a
    /// pulse from 1000 to `fall_at`.
    fn pulse_through_buffer(fall_at: u64) -> NetSim {
        let (mut sim, w) = sim_of(2, |nl, w| {
            nl.add_buffer(w[0], w[1], ps(400), ps(100));
        });
        sim.watch(w[1]);
        sim.schedule_input(w[0], ps(1000), true);
        sim.schedule_input(w[0], ps(fall_at), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        sim
    }

    #[test]
    fn narrow_pulse_is_swallowed() {
        // A 200-wide pulse ends (fall arrives at 1200 + 100 = 1300)
        // before the rise would complete (1000 + 400 = 1400) — the
        // output never moves.
        let sim = pulse_through_buffer(1200);
        let out = WireId(1);
        assert_eq!(sim.transitions_ps(out), &[]);
        assert!(!sim.value(out));
        let s = sim.stats();
        assert!(s.cancellations >= 1, "swallowed pulse cancels: {s:?}");
        assert!(s.dead_events >= 1, "cancelled event dies in queue: {s:?}");
        assert_eq!(s.events_scheduled, s.events_processed + s.dead_events);
    }

    #[test]
    fn wide_pulse_passes() {
        // Rise at 1400, fall at 1600: narrowed from 500 to 200 but
        // alive — 2 input events + 2 output events, all processed,
        // nothing cancelled.
        let sim = pulse_through_buffer(1500);
        assert_eq!(sim.transitions_ps(WireId(1)), &[(1400, true), (1600, false)]);
        let s = sim.stats();
        assert_eq!(s.events_processed, 4);
        assert_eq!(s.cancellations, 0);
        assert_eq!(s.events_scheduled, s.events_processed + s.dead_events);
        assert!(s.peak_queue_depth >= 1);
    }

    #[test]
    fn clock_source_produces_edges() {
        let (mut sim, w) = sim_of(1, |_, _| {});
        sim.watch(w[0]);
        sim.schedule_clock(w[0], ps(100), ps(1000), ps(500), 3);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        let edges = sim.transitions_ps(w[0]);
        assert_eq!(edges.len(), 6);
        assert_eq!(edges[0], (100, true));
        assert_eq!(edges[5], (2600, false));
    }

    /// A register `d, clk -> q` with the given windows, driven by
    /// `(wire index, time, value)` inputs, run to quiescence.
    fn register_run(setup: u64, hold: u64, inputs: &[(usize, u64, bool)]) -> NetSim {
        let (mut sim, w) = sim_of(3, |nl, w| {
            nl.add_register(w[0], w[1], w[2], ps(setup), ps(hold), ps(20));
        });
        sim.watch(w[2]);
        for &(k, t, v) in inputs {
            sim.schedule_input(w[k], ps(t), v);
        }
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        sim
    }

    #[test]
    fn register_samples_on_rising_edge() {
        let sim = register_run(
            50,
            50,
            &[(0, 100, true), (1, 500, true), (1, 700, false), (0, 800, false), (1, 1500, true)],
        );
        assert_eq!(sim.transitions_ps(WireId(2)), &[(520, true), (1520, false)]);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn setup_violation_detected() {
        // Data changes 30 ps before the edge: setup (100) violated.
        let sim = register_run(100, 100, &[(0, 470, true), (1, 500, true)]);
        assert_eq!(
            sim.violations(),
            &[TimingViolation {
                at: ps(500),
                data_wire: WireId(0),
                kind: ViolationKind::Setup,
            }]
        );
    }

    #[test]
    fn hold_violation_detected() {
        // Data changes 40 ps after the edge: hold (100) violated.
        let sim = register_run(100, 100, &[(1, 500, true), (0, 540, true)]);
        assert_eq!(sim.violations().len(), 1);
        assert_eq!(sim.violations()[0].kind, ViolationKind::Hold);
        assert_eq!(sim.violations()[0].at, ps(540));
    }

    #[test]
    fn clean_timing_no_violations() {
        let sim = register_run(
            100,
            100,
            &[(0, 200, true), (1, 500, true), (1, 900, false), (0, 1100, false)],
        );
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn run_to_quiescence_reports_still_active() {
        let (mut sim, w) = sim_of(1, |_, _| {});
        sim.schedule_clock(w[0], ps(0), ps(1000), ps(500), 1000);
        let err = sim.run_to_quiescence(ps(5_000)).unwrap_err();
        assert_eq!(err.limit, ps(5_000));
    }

    #[test]
    fn run_until_stops_at_time() {
        let (mut sim, w) = sim_of(2, |nl, w| {
            nl.add_buffer(w[0], w[1], ps(100), ps(100));
        });
        sim.schedule_input(w[0], ps(1000), true);
        sim.run_until(ps(1050));
        assert!(!sim.value(w[1]));
        assert_eq!(sim.now(), ps(1050));
        sim.run_until(ps(1100));
        assert!(sim.value(w[1]));
    }

    #[test]
    fn determinism_same_inputs_same_trace() {
        let build = || {
            let (mut sim, w) = sim_of(10, |nl, w| {
                for p in w.windows(2) {
                    nl.add_buffer(p[0], p[1], ps(73), ps(91));
                }
            });
            sim.watch(w[9]);
            sim.schedule_clock(w[0], ps(0), ps(400), ps(200), 20);
            sim.run_to_quiescence(ps(1_000_000)).expect("settles");
            sim.transitions_ps(w[9]).to_vec()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn c_element_follows_agreement_and_holds_disagreement() {
        let (mut sim, w) = sim_of(3, |nl, w| {
            nl.add_c_element(w[0], w[1], w[2], ps(100));
        });
        let (a, b, q) = (w[0], w[1], w[2]);
        sim.watch(q);
        // a rises alone: hold.
        sim.schedule_input(a, ps(1000), true);
        // b joins: q rises 100 later.
        sim.schedule_input(b, ps(2000), true);
        // a falls alone: hold.
        sim.schedule_input(a, ps(3000), false);
        // b falls: q falls.
        sim.schedule_input(b, ps(4000), false);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        assert_eq!(sim.transitions_ps(q), &[(2100, true), (4100, false)]);
    }

    #[test]
    fn c_element_initial_state_follows_agreeing_inputs() {
        // Inputs low, then high, at construction: the output starts at
        // their value, with no event.
        let (mut sim, w) = sim_of(3, |nl, w| {
            nl.add_c_element(w[0], w[1], w[2], ps(50));
        });
        assert!(!sim.value(w[2]));
        sim.run_to_quiescence(ps(1_000)).expect("settles");
        assert_eq!(sim.pending_events(), 0);
        let (sim, w) = sim_of(5, |nl, w| {
            nl.add_inverter(w[0], w[1], ps(10), ps(10));
            nl.add_inverter(w[0], w[2], ps(10), ps(10));
            nl.add_c_element(w[1], w[2], w[3], ps(50));
            nl.add_c_element(w[0], w[1], w[4], ps(50));
        });
        assert!(sim.value(w[3]), "agreeing high inputs");
        assert!(!sim.value(w[4]), "disagreeing inputs hold the low start");
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn c_element_rendezvous_of_two_chains() {
        // Two buffer chains of different lengths meet at a C-element:
        // the output waits for the slower chain — the rendezvous that
        // self-timed synchronization is built from.
        let (mut sim, w) = sim_of(12, |nl, w| {
            let mut fast = w[0];
            for &n in &w[1..3] {
                nl.add_buffer(fast, n, ps(100), ps(100));
                fast = n;
            }
            let mut slow = w[0];
            for &n in &w[3..11] {
                nl.add_buffer(slow, n, ps(100), ps(100));
                slow = n;
            }
            nl.add_c_element(fast, slow, w[11], ps(10));
        });
        sim.watch(w[11]);
        sim.schedule_input(w[0], ps(1000), true);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        // Slow chain arrives at 1000 + 800; C fires 10 later.
        assert_eq!(sim.transitions_ps(w[11]), &[(1810, true)]);
    }

    #[test]
    fn two_input_gates_resolve_their_start_state_through_events() {
        // Low inputs: NAND, NOR and XNOR outputs must rise — through
        // scheduled events, so the rise propagates downstream.
        let (mut sim, w) = sim_of(7, |nl, w| {
            nl.add_gate2(GateKind::Nand2, w[0], w[1], w[2], ps(30), ps(20));
            nl.add_gate2(GateKind::Nor2, w[0], w[1], w[3], ps(40), ps(20));
            nl.add_gate2(GateKind::Xnor2, w[0], w[1], w[4], ps(50), ps(20));
            nl.add_gate2(GateKind::Xor2, w[0], w[1], w[5], ps(60), ps(20));
            nl.add_buffer(w[2], w[6], ps(5), ps(5));
        });
        assert_eq!(sim.pending_events(), 3);
        sim.watch(w[6]);
        sim.run_to_quiescence(ps(1_000)).expect("settles");
        assert_eq!(
            (2..6).map(|k| sim.value(w[k])).collect::<Vec<_>>(),
            vec![true, true, true, false]
        );
        assert_eq!(sim.transitions_ps(w[6]), &[(35, true)]);
    }

    #[test]
    fn budgeted_run_stops_at_each_limit() {
        let (mut sim, w) = sim_of(1, |_, _| {});
        sim.schedule_clock(w[0], ps(0), ps(1_000), ps(500), 10);
        assert_eq!(
            sim.run_budgeted(RunBudget::new(ps(100_000), 5)),
            Halt::EventLimit { at: ps(2_000) }
        );
        assert_eq!(
            sim.run_budgeted(RunBudget::new(ps(4_200), 1_000)),
            Halt::SimLimit { at: ps(4_000) }
        );
        assert_eq!(
            sim.run_budgeted(RunBudget::new(ps(100_000), 1_000)),
            Halt::Quiescent { at: ps(9_500) }
        );
    }

    #[test]
    fn record_metrics_exports_counters() {
        let (mut sim, w) = sim_of(2, |nl, w| {
            nl.add_buffer(w[0], w[1], ps(100), ps(100));
        });
        sim.schedule_input(w[0], ps(1000), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        let mut m = sim_observe::Metrics::new();
        sim.record_metrics(&mut m, "engine");
        assert_eq!(m.counter("engine.events_processed"), 2);
        assert_eq!(m.counter("engine.sim_time_ps"), 1100);
        // Peak depth merges as a max across simulators.
        let peak = m.counter("engine.peak_queue_depth");
        sim.stats().record(&mut m, "engine");
        assert_eq!(m.counter("engine.peak_queue_depth"), peak);
    }

    #[test]
    fn vcd_export_dumps_watched_and_unwatched_wires() {
        let (mut sim, w) = sim_of(3, |nl, w| {
            nl.add_inverter(w[0], w[1], ps(20), ps(20));
        });
        sim.watch(w[0]);
        sim.watch(w[1]);
        sim.schedule_input(w[0], ps(100), true);
        sim.schedule_input(w[0], ps(200), false);
        sim.run_until(ps(1_000));
        let vcd = sim.export_vcd(&[(w[0], "req"), (w[1], "req_n"), (w[2], "idle")]);
        assert!(vcd.starts_with("$timescale 1ps $end"));
        assert!(vcd.contains("$var wire 1 ! req $end"));
        assert!(vcd.contains("$var wire 1 \" req_n $end"));
        // Initial dump: req starts 0, req_n 1 (inverter of a low
        // input), the never-watched wire at its current value.
        assert!(vcd.contains("$dumpvars\n0!\n1\"\n0#\n$end"));
        // Events at 100, 120, 200, 220.
        for t in [100, 120, 200, 220] {
            assert!(vcd.contains(&format!("#{t}\n")), "missing #{t}:\n{vcd}");
        }
    }

    #[test]
    fn recorded_and_synthetic_signals_share_one_vcd() {
        // A simulated wire next to an analytic waveform with no
        // simulator behind it, in one writer.
        let (mut sim, w) = sim_of(1, |_, _| {});
        sim.watch(w[0]);
        sim.schedule_input(w[0], ps(50), true);
        sim.run_until(ps(100));
        let mut writer = VcdWriter::new();
        writer.add_signal("real", false, sim.transitions_ps(w[0]).iter().copied());
        writer.add_signal("model", false, [(10, true), (90, false)]);
        let vcd = writer.render();
        for needle in ["$var wire 1 ! real $end", "$var wire 1 \" model $end", "#10", "#50", "#90"] {
            assert!(vcd.contains(needle), "missing {needle}:\n{vcd}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate VCD signal name")]
    fn vcd_export_rejects_duplicate_names() {
        let (sim, w) = sim_of(2, |_, _| {});
        let _ = sim.export_vcd(&[(w[0], "x"), (w[1], "x")]);
    }

    #[test]
    #[should_panic(expected = "clock edge 3: ")]
    fn clock_overflow_names_the_edge() {
        let (mut sim, w) = sim_of(1, |_, _| {});
        // Cycles 0–2 fit (the last fall lands exactly on the horizon);
        // cycle 3's rise overflows.
        sim.schedule_clock(w[0], ps(u64::MAX - 2_500), ps(1_000), ps(500), 10);
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn gate_output_past_the_horizon_panics() {
        // An input edge 10 ps before the horizon into two 100 ps
        // inverters: the first output would fire past `u64::MAX`.
        let (mut sim, w) = sim_of(3, |nl, w| {
            nl.add_inverter(w[0], w[1], ps(100), ps(100));
            nl.add_inverter(w[1], w[2], ps(100), ps(100));
        });
        sim.schedule_input(w[0], ps(u64::MAX - 10), true);
        let _ = sim.run_to_quiescence(ps(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "SimTime overflow")]
    fn scaled_delay_past_the_horizon_panics() {
        let (mut sim, w) = sim_of(2, |nl, w| {
            nl.add_buffer(w[0], w[1], ps(100), ps(100));
        });
        sim.scale_wire_delay(w[1], 10_000);
        sim.schedule_input(w[0], ps(u64::MAX - 5_000), true);
        let _ = sim.run_to_quiescence(ps(u64::MAX));
    }
}
