//! The flat event engine: [`NetSim`] runs a [`SealedNetlist`].
//!
//! Semantics are a field-for-field mirror of the reference
//! [`desim::Simulator`] — inertial cancellation, generation-counted
//! dead events, fault hooks, the same [`EngineStats`] counters — so
//! the differential suite can demand byte-identical reports from the
//! two cores. What changes is the machinery underneath:
//!
//! * each wire's whole state is one 32-byte `WireState` record in a
//!   flat `Vec` indexed by the wire id, and that record also carries
//!   the kind and rise/fall delays of the gate driving the wire; the
//!   inertial window is derived from them, so an event reads one
//!   record per touched wire instead of one column per field, and
//!   never a gate record;
//! * the pending-event set is a calendar [`Wheel`] (O(1) push/dispatch
//!   under the bounded-delay model, singleton buckets stored inline)
//!   plus a small sorted *far list* for the rare event beyond the
//!   wheel's horizon (pre-scheduled clock edges whole periods away,
//!   delay-fault scalings past nominal);
//! * fanout propagation walks the wire's CSR row directly. Each
//!   8-byte row entry names the driven gate's output wire and its
//!   other input, so evaluating it touches the output's record (kind,
//!   delays, scheduling state) and at most one more input record.
//!   Gate evaluation only *schedules* (a nominal delay of at least
//!   1 ps ahead) and never applies, so nothing re-enters settling
//!   mid-walk, and the distinct-input rule puts each gate in a row at
//!   most once: the row itself is the exact, duplicate-free settling
//!   work list, and no work queue is needed.
//!
//! Dispatch order equals the reference engine's `(time, seq)` heap
//! order: wheel buckets and the far list both preserve push order
//! within a timestamp, upsets strike before events at the same
//! instant, and far entries (always scheduled from further back in
//! time, hence with earlier sequence numbers) precede same-time wheel
//! entries.
//!
//! Observability follows the workspace's one-branch `Option`
//! discipline: waveform watches (a flag bit per wire, logs in a small
//! side table) and the [`TraceBuf`] lifecycle hooks cost a
//! predictable untaken branch each when disabled.

use crate::arena::{Fanout, GateKind, SealedNetlist, WireId, NONE};
use crate::wheel::{Ev, Wheel};
use desim::engine::{EngineStats, StillActiveError};
use desim::time::SimTime;
use desim::vcd::VcdWriter;
use sim_observe::{TraceBuf, TraceEvent};
use std::sync::Arc;

/// Outcome of one dispatch step.
enum Step {
    Did,
    Empty,
    Beyond,
}

/// Everything the engine tracks about one wire, packed into 32 bytes:
/// dispatch, scheduling, the inertial checks and the evaluation of the
/// wire's driver all read the same record.
#[derive(Debug, Clone, Copy)]
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
/// The driver's [`GateKind`] code sits in the flag byte's top bits.
const KIND_SHIFT: u32 = 3;
/// Kind code of an externally driven wire.
const UNDRIVEN: u8 = 7;

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

    /// The inertial window: the driver's minimum edge spacing, exactly
    /// as the reference engine assigns it (the pulse width for
    /// one-shots, the faster of rise and fall for the rest, zero for
    /// externally driven wires, whose delays are zero).
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
}

impl NetSim {
    /// A simulator over the sealed arena.
    ///
    /// Initial state mirrors the reference engine's build-time rules:
    /// externally driven wires start low, buffer/inverter outputs are
    /// set consistently with their input (in gate order, so chains
    /// alternate with no spurious start-up events), and a two-input
    /// gate whose inputs disagree with its output resolves through a
    /// real scheduled event.
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
                GateKind::Or2 | GateKind::And2 => {
                    let (va, vb) = (sim.wires[a].value, sim.wires[g.in_b as usize].value);
                    let v = if g.kind == GateKind::Or2 {
                        va | vb
                    } else {
                        va & vb
                    };
                    if sim.wires[out].value != v {
                        let delay = if v { g.d_rise } else { g.d_fall };
                        sim.schedule_change(out, u64::from(delay), v);
                    }
                }
                GateKind::OneShot => {}
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

    // ---- stimulus & fault API (mirrors desim::Simulator) ----

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
                site: wire.to_string(),
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

    /// Recorded transitions as `(SimTime, value)` — the reference
    /// engine's [`desim::Simulator::transitions`] shape, for
    /// differential comparison.
    #[must_use]
    pub fn transitions(&self, wire: WireId) -> Vec<(SimTime, bool)> {
        self.transitions_ps(wire)
            .iter()
            .map(|&(t, v)| (SimTime::from_ps(t), v))
            .collect()
    }

    /// Enables event-lifecycle tracing into a bounded ring of
    /// `capacity` events (one-branch `Option` hooks when off).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(TraceBuf::new(capacity)));
    }

    /// Whether event tracing is enabled.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
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

    /// Renders watched wires as a VCD document (1 ps timescale),
    /// byte-compatible with [`desim::vcd::export_vcd`] for identical
    /// waveforms: initial value inferred as the complement of the
    /// first transition, else the wire's current value.
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

    /// Exports counters under `{prefix}.*` plus `{prefix}.sim_time_ps`
    /// — the same keys the reference engine emits, so Report v2
    /// metrics from either core line up.
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
    /// # Errors
    ///
    /// Returns [`StillActiveError`] if events or upsets remain past
    /// the limit.
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> Result<SimTime, StillActiveError> {
        loop {
            match self.step_once(limit.as_ps()) {
                Step::Did => {}
                Step::Empty => return Ok(self.now()),
                Step::Beyond => return Err(StillActiveError { limit }),
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
                    // kill later same-time entries, exactly as the
                    // reference heap would.
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

    /// Schedules a wire change with inertial-delay semantics —
    /// line-for-line the reference engine's conflict rules.
    fn schedule_change(&mut self, w: usize, t_ps: u64, value: bool) {
        let ws = &mut self.wires[w];
        if ws.has(STUCK) {
            return;
        }
        let t_ps = if ws.delay_scale == 100 {
            t_ps
        } else {
            let delta = t_ps.saturating_sub(self.now_ps);
            self.now_ps + (delta * u64::from(ws.delay_scale)) / 100
        };
        let last = ws.last_event_ps;
        let too_close = last > 0 && t_ps < last + ws.inertial_window_ps();
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
                site: WireId(w as u32).to_string(),
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
    /// `in_val` — and schedules its output: the reference engine's
    /// `react`, arena-indexed. Kind and delays come from the output
    /// wire's record.
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
        } else {
            // OR and AND are symmetric, so the row's wire can stand in
            // for either input.
            let vb = self.wires[entry.other as usize].value;
            let out_val = if kind == GateKind::Or2 as u8 {
                in_val | vb
            } else {
                in_val & vb
            };
            if ws.has(SCHEDULED) != out_val {
                let delay = if out_val { rise } else { fall };
                self.schedule_output(out, delay, out_val);
            }
        }
    }

    /// Schedules a gate output `delay` ps from now. Gate delays are at
    /// least 1 ps (the builder rejects zero), so an evaluation never
    /// schedules into the current instant: whatever it triggers is
    /// applied by a later dispatch, never inside the row walk of
    /// [`NetSim::settle_fanout`], which therefore needs no work queue.
    fn schedule_output(&mut self, out: usize, delay: u64, value: bool) {
        debug_assert!(
            delay >= 1,
            "gate evaluation scheduled at the current instant"
        );
        self.schedule_change(out, self.now_ps + delay, value);
    }
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
        nl.add_or2(other, a, or, ps(10), ps(10)); // `a` as the second input
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
}
