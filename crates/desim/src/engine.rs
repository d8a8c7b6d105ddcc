//! The discrete-event simulation engine.
//!
//! A circuit is a set of boolean *nets* connected by *components*
//! (buffers, inverters, edge-triggered registers). Value changes are
//! events in a priority queue; components react to changes on their
//! input nets and schedule changes on their outputs after their
//! propagation delays.
//!
//! Two properties matter for the paper's experiments:
//!
//! * **Inertial delay.** When a component schedules an output change
//!   that conflicts with (precedes or duplicates) changes already in
//!   flight for that net, the pending changes are cancelled — a pulse
//!   narrower than the component can pass is swallowed, exactly the
//!   failure mode that limits pipelined clock rate in Section VII.
//! * **Setup/hold checking.** Registers record a [`TimingViolation`]
//!   whenever data changes too close to a sampling clock edge — the
//!   "synchronization failure" that clock skew causes (Section I).
//!
//! The engine is fully deterministic: integer time plus a sequence
//! number break all ties.

use crate::time::SimTime;
use sim_observe::{TraceBuf, TraceEvent};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of a net (a boolean signal) in a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(usize);

impl NetId {
    /// The raw dense index of this net.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// A recorded setup or hold violation at a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingViolation {
    /// When the violation was detected.
    pub at: SimTime,
    /// The register's data net.
    pub data_net: NetId,
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

/// Boolean function of a two-input gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateFn {
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
    /// Logical NAND.
    Nand,
    /// Logical NOR.
    Nor,
    /// Logical XOR.
    Xor,
    /// Logical XNOR (equivalence).
    Xnor,
}

impl GateFn {
    /// Evaluates the function.
    #[must_use]
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            GateFn::And => a && b,
            GateFn::Or => a || b,
            GateFn::Nand => !(a && b),
            GateFn::Nor => !(a || b),
            GateFn::Xor => a ^ b,
            GateFn::Xnor => a == b,
        }
    }
}

#[derive(Debug)]
struct NetState {
    value: bool,
    /// Final value after all pending events.
    scheduled_value: bool,
    /// Generation counter; events with a stale generation are dead.
    gen: u64,
    /// Time of the latest scheduled (possibly pending) change.
    last_event_time: SimTime,
    /// Time the applied value last changed.
    last_change_time: SimTime,
    /// Minimum spacing between successive changes this net's driver
    /// can produce (its inertia): changes scheduled closer than this
    /// to the previous one collapse the pulse. Zero for externally
    /// driven nets.
    min_separation: SimTime,
    /// Stuck-at fault: the net ignores every scheduled change.
    stuck: bool,
    /// Delay-fault scale in percent of nominal (100 = healthy): every
    /// delay scheduled onto this net is stretched or shrunk by it.
    delay_scale_pct: u32,
    sinks: Vec<usize>,
    trace: Option<Vec<(SimTime, bool)>>,
}

#[derive(Debug)]
enum Component {
    /// Buffer or inverter: one input, one output, separate delays for
    /// output-rising and output-falling transitions.
    Gate {
        input: NetId,
        output: NetId,
        rise: SimTime,
        fall: SimTime,
        invert: bool,
    },
    /// Positive-edge-triggered D register with setup/hold checking.
    Register {
        d: NetId,
        clk: NetId,
        q: NetId,
        setup: SimTime,
        hold: SimTime,
        clk_to_q: SimTime,
        last_clk_rise: Option<SimTime>,
    },
    /// Muller C-element: output follows the inputs when they agree and
    /// holds its state when they differ — the basic building block of
    /// self-timed control (Seitz, "System Timing").
    CElement {
        a: NetId,
        b: NetId,
        output: NetId,
        delay: SimTime,
    },
    /// Two-input combinational gate.
    Gate2 {
        a: NetId,
        b: NetId,
        output: NetId,
        func: GateFn,
        rise: SimTime,
        fall: SimTime,
    },
    /// One-shot pulse buffer: responds only to *rising* input edges,
    /// emitting a fixed-width output pulse — the Section VII proposal
    /// for making clock buffers immune to rise/fall asymmetry ("make
    /// each buffer respond only to rising edges on its input and to
    /// generate its own falling edges with a one-shot pulse
    /// generator").
    OneShot {
        input: NetId,
        output: NetId,
        delay: SimTime,
        pulse_width: SimTime,
    },
}

#[derive(Debug, PartialEq, Eq)]
struct Event {
    time: SimTime,
    seq: u64,
    net: NetId,
    value: bool,
    gen: u64,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Error returned by [`Simulator::run_to_quiescence`] when the circuit
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

/// Cumulative event-loop counters of one [`Simulator`].
///
/// Maintained as plain `u64` fields bumped inline on the event path —
/// no atomics, no locks, no allocation — so instrumentation costs a
/// handful of register increments per event. Snapshot with
/// [`Simulator::stats`]; export into a metric registry with
/// [`Simulator::record_metrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events pushed into the queue (including ones later cancelled).
    pub events_scheduled: u64,
    /// Events popped and applied as real net changes.
    pub events_processed: u64,
    /// Inertial cancellations: conflicting schedules that invalidated
    /// the in-flight events of a net (a swallowed pulse bumps this).
    pub cancellations: u64,
    /// Events popped but discarded as stale (cancelled generation) or
    /// redundant (no value change).
    pub dead_events: u64,
    /// High-water mark of the event queue.
    pub peak_queue_depth: u64,
    /// Total settle iterations: component evaluations performed while
    /// propagating applied events (the fanout work the event loop did,
    /// as opposed to the events it merely dispatched).
    pub settle_iterations: u64,
    /// Faults forced into the circuit (stuck-at pins and SEU upsets).
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
/// ([`Simulator::run_budgeted`]).
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

/// Outcome of one [`Simulator::step_once`] attempt.
enum Step {
    /// One action (event or upset) was applied.
    Did,
    /// Nothing is pending at all.
    Empty,
    /// The next pending action lies beyond the given limit.
    Beyond,
}

/// A deterministic event-driven simulator for gate-level circuits.
///
/// # Examples
///
/// A two-inverter chain settles to the input value:
///
/// ```
/// use desim::engine::Simulator;
/// use desim::time::SimTime;
///
/// let mut sim = Simulator::new();
/// let a = sim.add_net();
/// let b = sim.add_net();
/// let c = sim.add_net();
/// sim.add_inverter(a, b, SimTime::from_ps(100), SimTime::from_ps(100));
/// sim.add_inverter(b, c, SimTime::from_ps(100), SimTime::from_ps(100));
/// sim.schedule_input(a, SimTime::from_ps(10), true);
/// sim.run_until(SimTime::from_ns(1));
/// assert!(sim.value(c));
/// ```
#[derive(Debug, Default)]
pub struct Simulator {
    nets: Vec<NetState>,
    components: Vec<Component>,
    queue: BinaryHeap<Reverse<Event>>,
    now: SimTime,
    seq: u64,
    violations: Vec<TimingViolation>,
    stats: EngineStats,
    /// Clock-marked nets: `(net, signal name, phase)`. Consulted only
    /// on the traced path.
    clock_marks: Vec<(NetId, String, u8)>,
    /// Event-lifecycle trace ring. `None` (the default) keeps the hot
    /// path to a single branch per call site — no allocation, no
    /// atomics.
    trace: Option<Box<TraceBuf>>,
    /// Scheduled SEU upsets, sorted by `(time, net)`; `next_upset`
    /// indexes the first one not yet applied. Empty in nominal runs —
    /// the run loops skip the fault path with one length check.
    upsets: Vec<(SimTime, NetId)>,
    next_upset: usize,
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    #[must_use]
    pub fn new() -> Self {
        Simulator::default()
    }

    /// Adds a net, initially low (`false`).
    pub fn add_net(&mut self) -> NetId {
        let id = NetId(self.nets.len());
        self.nets.push(NetState {
            value: false,
            scheduled_value: false,
            gen: 0,
            last_event_time: SimTime::ZERO,
            last_change_time: SimTime::ZERO,
            min_separation: SimTime::ZERO,
            stuck: false,
            delay_scale_pct: 100,
            sinks: Vec::new(),
            trace: None,
        });
        id
    }

    /// Number of nets in the circuit (fault injectors iterate this to
    /// enumerate candidate sites).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Adds a non-inverting buffer from `input` to `output`.
    ///
    /// `rise`/`fall` are the delays for output-rising and
    /// output-falling transitions respectively.
    ///
    /// # Panics
    ///
    /// Panics if either delay is zero (zero-delay loops would hang the
    /// simulation) or a net id is stale.
    pub fn add_buffer(&mut self, input: NetId, output: NetId, rise: SimTime, fall: SimTime) {
        self.add_gate(input, output, rise, fall, false);
    }

    /// Adds an inverter from `input` to `output`.
    ///
    /// # Panics
    ///
    /// As for [`Simulator::add_buffer`].
    pub fn add_inverter(&mut self, input: NetId, output: NetId, rise: SimTime, fall: SimTime) {
        self.add_gate(input, output, rise, fall, true);
    }

    fn add_gate(&mut self, input: NetId, output: NetId, rise: SimTime, fall: SimTime, invert: bool) {
        assert!(
            rise > SimTime::ZERO && fall > SimTime::ZERO,
            "gate delays must be positive"
        );
        self.check_net(input);
        self.check_net(output);
        assert_ne!(input, output, "gate input and output must differ");
        let id = self.components.len();
        self.components.push(Component::Gate {
            input,
            output,
            rise,
            fall,
            invert,
        });
        self.nets[input.index()].sinks.push(id);
        // Initialise the output consistently with the current input so
        // that building a chain generates no spurious start-up events.
        let in_val = self.nets[input.index()].value;
        let out_val = if invert { !in_val } else { in_val };
        self.nets[output.index()].value = out_val;
        self.nets[output.index()].scheduled_value = out_val;
        // A gate cannot regenerate a pulse narrower than its faster
        // transition: that inertia becomes the output net's minimum
        // event separation.
        self.nets[output.index()].min_separation = rise.min(fall);
    }

    /// Adds a positive-edge-triggered D register.
    ///
    /// On each rising edge of `clk` the register samples `d` and
    /// drives `q` after `clk_to_q`. Violations of the `setup`/`hold`
    /// windows are recorded (the register still samples — possibly
    /// garbage, as in real hardware).
    ///
    /// # Panics
    ///
    /// Panics if `clk_to_q` is zero or a net id is stale.
    pub fn add_register(
        &mut self,
        d: NetId,
        clk: NetId,
        q: NetId,
        setup: SimTime,
        hold: SimTime,
        clk_to_q: SimTime,
    ) {
        assert!(clk_to_q > SimTime::ZERO, "clk-to-q delay must be positive");
        self.check_net(d);
        self.check_net(clk);
        self.check_net(q);
        let id = self.components.len();
        self.components.push(Component::Register {
            d,
            clk,
            q,
            setup,
            hold,
            clk_to_q,
            last_clk_rise: None,
        });
        self.nets[d.index()].sinks.push(id);
        self.nets[clk.index()].sinks.push(id);
    }

    /// Adds a two-input gate computing `func` with separate
    /// output-rising/falling delays.
    ///
    /// # Panics
    ///
    /// Panics if either delay is zero or a net id is stale.
    pub fn add_gate2(
        &mut self,
        func: GateFn,
        a: NetId,
        b: NetId,
        output: NetId,
        rise: SimTime,
        fall: SimTime,
    ) {
        assert!(
            rise > SimTime::ZERO && fall > SimTime::ZERO,
            "gate delays must be positive"
        );
        self.check_net(a);
        self.check_net(b);
        self.check_net(output);
        assert!(a != output && b != output, "gate output must differ from inputs");
        let id = self.components.len();
        self.components.push(Component::Gate2 {
            a,
            b,
            output,
            func,
            rise,
            fall,
        });
        self.nets[a.index()].sinks.push(id);
        self.nets[b.index()].sinks.push(id);
        self.nets[output.index()].min_separation = rise.min(fall);
        // Resolve the initial output through a real scheduled event so
        // that downstream logic — including feedback loops such as
        // gated ring oscillators — sees the change propagate.
        let (va, vb) = (self.nets[a.index()].value, self.nets[b.index()].value);
        let v = func.eval(va, vb);
        if self.nets[output.index()].value != v {
            let delay = if v { rise } else { fall };
            let t = self.now + delay;
            self.schedule_change(output, t, v);
        }
    }

    /// Adds a one-shot pulse buffer: each *rising* edge on `input`
    /// produces, after `delay`, an output pulse of exactly
    /// `pulse_width` — regardless of the input pulse's own width.
    /// Falling input edges are ignored. Rising edges arriving closer
    /// together than twice the pulse width collapse (the one-shot
    /// needs the pulse plus an equal recovery before re-firing).
    ///
    /// # Panics
    ///
    /// Panics if `delay` or `pulse_width` is zero, or a net id is
    /// stale.
    pub fn add_one_shot(
        &mut self,
        input: NetId,
        output: NetId,
        delay: SimTime,
        pulse_width: SimTime,
    ) {
        assert!(
            delay > SimTime::ZERO && pulse_width > SimTime::ZERO,
            "one-shot delay and pulse width must be positive"
        );
        self.check_net(input);
        self.check_net(output);
        assert_ne!(input, output, "one-shot input and output must differ");
        let id = self.components.len();
        self.components.push(Component::OneShot {
            input,
            output,
            delay,
            pulse_width,
        });
        self.nets[input.index()].sinks.push(id);
        self.nets[output.index()].min_separation = pulse_width;
    }

    /// Adds a Muller C-element: when inputs `a` and `b` agree, the
    /// output follows them after `delay`; when they disagree, the
    /// output holds. The canonical self-timed rendezvous gate.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is zero or a net id is stale.
    pub fn add_c_element(&mut self, a: NetId, b: NetId, output: NetId, delay: SimTime) {
        assert!(delay > SimTime::ZERO, "C-element delay must be positive");
        self.check_net(a);
        self.check_net(b);
        self.check_net(output);
        assert!(a != output && b != output, "C-element output must differ from inputs");
        let id = self.components.len();
        self.components.push(Component::CElement {
            a,
            b,
            output,
            delay,
        });
        self.nets[a.index()].sinks.push(id);
        self.nets[b.index()].sinks.push(id);
        // Consistent initial state: follow the inputs if they agree.
        let (va, vb) = (self.nets[a.index()].value, self.nets[b.index()].value);
        if va == vb {
            self.nets[output.index()].value = va;
            self.nets[output.index()].scheduled_value = va;
        }
        self.nets[output.index()].min_separation = delay;
    }

    fn check_net(&self, net: NetId) {
        assert!(net.index() < self.nets.len(), "unknown net {net}");
    }

    /// Starts recording value transitions on `net`; retrieve them with
    /// [`Simulator::transitions`].
    pub fn watch(&mut self, net: NetId) {
        self.check_net(net);
        let slot = &mut self.nets[net.index()].trace;
        if slot.is_none() {
            *slot = Some(Vec::new());
        }
    }

    /// Recorded transitions of a watched net, as `(time, new_value)`.
    ///
    /// Returns an empty slice for unwatched nets.
    #[must_use]
    pub fn transitions(&self, net: NetId) -> &[(SimTime, bool)] {
        self.nets[net.index()]
            .trace
            .as_deref()
            .unwrap_or(&[])
    }

    /// Starts recording the event lifecycle (schedules, firings,
    /// inertial cancellations, marked clock edges) into a bounded
    /// ring of at most `capacity` events; retrieve it with
    /// [`Simulator::take_trace`]. When tracing is off — the default —
    /// every hook is a single branch on an `Option`: no allocation,
    /// no atomics.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(TraceBuf::new(capacity)));
    }

    /// Whether event tracing is enabled.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Marks `net` as a clock signal: when tracing is enabled, each of
    /// its transitions additionally records a `ClockEdge` event under
    /// `signal`, tagged with `phase` (0 or 1 for a two-phase
    /// discipline).
    pub fn mark_clock(&mut self, net: NetId, signal: &str, phase: u8) {
        self.check_net(net);
        self.clock_marks.retain(|(n, _, _)| *n != net);
        self.clock_marks.push((net, signal.to_owned(), phase));
    }

    /// Takes the recorded event trace, leaving tracing disabled.
    /// Returns `None` when tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<TraceBuf> {
        self.trace.take().map(|b| *b)
    }

    /// Schedules an externally driven change of `net` to `value` at
    /// absolute time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the simulated past.
    pub fn schedule_input(&mut self, net: NetId, t: SimTime, value: bool) {
        self.check_net(net);
        assert!(t >= self.now, "cannot schedule input in the past");
        self.schedule_change(net, t, value);
    }

    /// Schedules a periodic clock on `net`: rising edges at
    /// `start, start + period, …` with falling edges `high` later, for
    /// `cycles` full cycles.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < high < period`, or with the netlist engine's
    /// `clock edge {k}: …` diagnostic if an edge time overflows.
    pub fn schedule_clock(
        &mut self,
        net: NetId,
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
            self.schedule_input(net, rise, true);
            self.schedule_input(net, fall, false);
        }
    }

    /// Pins `net` to `value` for the rest of the run (stuck-at fault):
    /// the value is forced immediately, in-flight events for the net
    /// are cancelled, and every later driver schedule is ignored.
    pub fn pin_net(&mut self, net: NetId, value: bool) {
        self.check_net(net);
        let kind = if value { "stuck_at_1" } else { "stuck_at_0" };
        self.force_net(net, self.now, value, kind);
        self.nets[net.index()].stuck = true;
    }

    /// Schedules one transient (SEU-style) upset: at time `t` the
    /// net's value flips, cancelling whatever was in flight for it,
    /// and the circuit reacts to the corrupted value.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the simulated past.
    pub fn schedule_upset(&mut self, net: NetId, t: SimTime) {
        self.check_net(net);
        assert!(t >= self.now, "cannot schedule an upset in the past");
        let tail = &self.upsets[self.next_upset..];
        let pos = tail.partition_point(|&(ut, un)| (ut, un) <= (t, net));
        self.upsets.insert(self.next_upset + pos, (t, net));
    }

    /// Applies a delay fault to `net`: every change scheduled onto it
    /// from now on has its delay scaled to `percent` of nominal.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= percent <= 10_000`.
    pub fn scale_net_delay(&mut self, net: NetId, percent: u32) {
        self.check_net(net);
        assert!(
            (1..=10_000).contains(&percent),
            "delay scale must be in 1..=10000 percent"
        );
        self.nets[net.index()].delay_scale_pct = percent;
        self.stats.faults_injected += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::FaultInjected {
                t_ps: self.now.as_ps(),
                site: net.to_string(),
                kind: format!("delay_scale_{percent}"),
            });
        }
    }

    /// Forces `net` to `value` right now, outside the normal driver
    /// path: cancels in-flight events, applies the change, records it
    /// as an injected fault, and lets the circuit react.
    fn force_net(&mut self, net: NetId, t: SimTime, value: bool, kind: &str) {
        if t > self.now {
            self.now = t;
        }
        let now = self.now;
        self.stats.faults_injected += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::FaultInjected {
                t_ps: now.as_ps(),
                site: net.to_string(),
                kind: kind.to_owned(),
            });
        }
        let state = &mut self.nets[net.index()];
        state.gen += 1; // kill anything in flight for this net
        state.scheduled_value = value;
        state.last_event_time = now;
        if state.value == value {
            return;
        }
        state.value = value;
        state.last_change_time = now;
        if let Some(trace) = &mut state.trace {
            trace.push((now, value));
        }
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::EventFired {
                t_ps: now.as_ps(),
                net: net.index() as u32,
                value,
            });
        }
        let sinks = std::mem::take(&mut self.nets[net.index()].sinks);
        self.stats.settle_iterations += sinks.len() as u64;
        for &comp in &sinks {
            self.react(comp, net, now, value);
        }
        self.nets[net.index()].sinks = sinks;
    }

    /// Schedules a net change with inertial-delay semantics: changes
    /// that conflict with pending ones cancel them (narrow pulses are
    /// swallowed).
    fn schedule_change(&mut self, net: NetId, t: SimTime, value: bool) {
        let state = &mut self.nets[net.index()];
        // Fault hooks — both compiled to one predictable branch each
        // on the nominal path (`stuck` false, scale 100).
        if state.stuck {
            return;
        }
        let t = if state.delay_scale_pct == 100 {
            t
        } else {
            let delta = t.saturating_sub(self.now).as_ps();
            self.now + SimTime::from_ps((delta * u64::from(state.delay_scale_pct)) / 100)
        };
        let state = &mut self.nets[net.index()];
        let too_close = state.last_event_time > SimTime::ZERO
            && t < state.last_event_time + state.min_separation;
        let conflict = t < state.last_event_time
            || value == state.scheduled_value
            || too_close;
        if conflict {
            // Cancel everything in flight for this net.
            state.gen += 1;
            self.stats.cancellations += 1;
            if let Some(tr) = &mut self.trace {
                tr.record(TraceEvent::EventCancelled {
                    t_ps: self.now.as_ps(),
                    net: net.index() as u32,
                });
            }
            let state = &mut self.nets[net.index()];
            if value == state.value {
                // Net settles at its current value; nothing to apply.
                state.scheduled_value = state.value;
                state.last_event_time = t;
                return;
            }
        }
        let state = &mut self.nets[net.index()];
        state.scheduled_value = value;
        state.last_event_time = t;
        let gen = state.gen;
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time: t,
            seq: self.seq,
            net,
            value,
            gen,
        }));
        self.stats.events_scheduled += 1;
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::EventScheduled {
                t_ps: self.now.as_ps(),
                fire_ps: t.as_ps(),
                net: net.index() as u32,
                value,
            });
        }
        let depth = self.queue.len() as u64;
        if depth > self.stats.peak_queue_depth {
            self.stats.peak_queue_depth = depth;
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Current value of a net.
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.nets[net.index()].value
    }

    /// All setup/hold violations recorded so far, in detection order.
    #[must_use]
    pub fn violations(&self) -> &[TimingViolation] {
        &self.violations
    }

    /// Number of events waiting in the queue (dead events included).
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Snapshot of the cumulative event-loop counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Exports this simulator's counters into `metrics` under
    /// `{prefix}.*` (see [`EngineStats::record`]) and its simulated
    /// time into the `{prefix}.sim_time_ps` counter.
    pub fn record_metrics(&self, metrics: &mut sim_observe::Metrics, prefix: &str) {
        self.stats.record(metrics, prefix);
        metrics.add(&format!("{prefix}.sim_time_ps"), self.now.as_ps());
    }

    /// Applies the earliest pending action (queued event or scheduled
    /// upset) if it lies at or before `limit`. Upsets win ties: the
    /// fault strikes before the circuit reacts at the same instant.
    fn step_once(&mut self, limit: SimTime) -> Step {
        let next_ev = self.queue.peek().map(|Reverse(e)| e.time);
        // One cheap length check on the nominal (no-upsets) path.
        let next_up = if self.next_upset < self.upsets.len() {
            Some(self.upsets[self.next_upset].0)
        } else {
            None
        };
        match (next_ev, next_up) {
            (None, None) => Step::Empty,
            (ev, Some(ut)) if ut <= limit && ev.is_none_or(|et| ut <= et) => {
                let (t, net) = self.upsets[self.next_upset];
                self.next_upset += 1;
                let flipped = !self.nets[net.index()].value;
                self.force_net(net, t, flipped, "seu_flip");
                Step::Did
            }
            (Some(et), _) if et <= limit => {
                let Reverse(ev) = self.queue.pop().expect("peeked");
                self.apply(ev);
                Step::Did
            }
            _ => Step::Beyond,
        }
    }

    /// Runs until the queue is empty or the next event lies beyond
    /// `t`; the simulation clock ends at exactly `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while matches!(self.step_once(t), Step::Did) {}
        if self.now < t {
            self.now = t;
        }
    }

    /// Runs until no events remain, up to a safety `limit`.
    ///
    /// # Errors
    ///
    /// Returns [`StillActiveError`] if events (or scheduled upsets)
    /// remain past the limit (the circuit oscillates or is driven
    /// forever).
    pub fn run_to_quiescence(&mut self, limit: SimTime) -> Result<SimTime, StillActiveError> {
        loop {
            match self.step_once(limit) {
                Step::Did => {}
                Step::Empty => return Ok(self.now),
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
        let mut applied: u64 = 0;
        loop {
            if applied >= budget.max_events {
                return Halt::EventLimit { at: self.now };
            }
            match self.step_once(budget.sim_limit) {
                Step::Did => applied += 1,
                Step::Empty => return Halt::Quiescent { at: self.now },
                Step::Beyond => return Halt::SimLimit { at: self.now },
            }
        }
    }

    fn apply(&mut self, ev: Event) {
        debug_assert!(ev.time >= self.now, "event time went backwards");
        self.now = ev.time;
        let state = &mut self.nets[ev.net.index()];
        if ev.gen != state.gen || state.value == ev.value {
            self.stats.dead_events += 1;
            return; // cancelled or redundant
        }
        self.stats.events_processed += 1;
        state.value = ev.value;
        state.last_change_time = ev.time;
        if let Some(trace) = &mut state.trace {
            trace.push((ev.time, ev.value));
        }
        if let Some(tr) = &mut self.trace {
            tr.record(TraceEvent::EventFired {
                t_ps: ev.time.as_ps(),
                net: ev.net.index() as u32,
                value: ev.value,
            });
            if let Some((_, signal, phase)) =
                self.clock_marks.iter().find(|(n, _, _)| *n == ev.net)
            {
                tr.record(TraceEvent::ClockEdge {
                    t_ps: ev.time.as_ps(),
                    signal: signal.clone(),
                    rising: ev.value,
                    phase: *phase,
                });
            }
        }
        // React sinks. Temporarily take the list to avoid aliasing
        // `self` (the sink set never changes during simulation).
        let sinks = std::mem::take(&mut self.nets[ev.net.index()].sinks);
        self.stats.settle_iterations += sinks.len() as u64;
        for &comp in &sinks {
            self.react(comp, ev.net, ev.time, ev.value);
        }
        self.nets[ev.net.index()].sinks = sinks;
    }

    fn react(&mut self, comp: usize, net: NetId, t: SimTime, value: bool) {
        // Compute the output actions first (component state and
        // violation recording use disjoint fields); then schedule,
        // which needs `&mut self` as a whole. Only the one-shot emits
        // two actions (its own falling edge).
        let mut extra: Option<(NetId, SimTime, bool)> = None;
        let action: Option<(NetId, SimTime, bool)> = match &mut self.components[comp] {
            Component::Gate {
                input,
                output,
                rise,
                fall,
                invert,
            } => {
                debug_assert_eq!(*input, net);
                let out_val = if *invert { !value } else { value };
                let delay = if out_val { *rise } else { *fall };
                Some((*output, t + delay, out_val))
            }
            Component::Register {
                d,
                clk,
                q,
                setup,
                hold,
                clk_to_q,
                last_clk_rise,
            } => {
                if net == *clk && value {
                    // Rising clock edge: setup check, then sample. A
                    // net that never changed (last_change_time still
                    // zero) cannot violate setup.
                    let d_net = *d;
                    let d_last = self.nets[d_net.index()].last_change_time;
                    if *setup > SimTime::ZERO
                        && d_last > SimTime::ZERO
                        && t.saturating_sub(d_last) < *setup
                    {
                        self.violations.push(TimingViolation {
                            at: t,
                            data_net: d_net,
                            kind: ViolationKind::Setup,
                        });
                    }
                    *last_clk_rise = Some(t);
                    let sampled = self.nets[d_net.index()].value;
                    Some((*q, t + *clk_to_q, sampled))
                } else if net == *d {
                    // Data change: hold check against the latest edge.
                    if let Some(edge) = *last_clk_rise {
                        if *hold > SimTime::ZERO && t.saturating_sub(edge) < *hold {
                            self.violations.push(TimingViolation {
                                at: t,
                                data_net: *d,
                                kind: ViolationKind::Hold,
                            });
                        }
                    }
                    None
                } else {
                    None
                }
            }
            Component::CElement {
                a,
                b,
                output,
                delay,
            } => {
                let (va, vb) = (
                    self.nets[a.index()].value,
                    self.nets[b.index()].value,
                );
                if va == vb && self.nets[output.index()].scheduled_value != va {
                    Some((*output, t + *delay, va))
                } else {
                    None
                }
            }
            Component::Gate2 {
                a,
                b,
                output,
                func,
                rise,
                fall,
            } => {
                let (va, vb) = (
                    self.nets[a.index()].value,
                    self.nets[b.index()].value,
                );
                let out_val = func.eval(va, vb);
                if self.nets[output.index()].scheduled_value != out_val {
                    let delay = if out_val { *rise } else { *fall };
                    Some((*output, t + delay, out_val))
                } else {
                    None
                }
            }
            Component::OneShot {
                input,
                output,
                delay,
                pulse_width,
            } => {
                debug_assert_eq!(*input, net);
                if value {
                    // Rising edge: fire a fresh pulse.
                    extra = Some((*output, t + *delay + *pulse_width, false));
                    Some((*output, t + *delay, true))
                } else {
                    None
                }
            }
        };
        if let Some((out, t_out, v)) = action {
            self.schedule_change(out, t_out, v);
        }
        if let Some((out, t_out, v)) = extra {
            self.schedule_change(out, t_out, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// A small circuit exercising schedules, firings, and inertial
    /// cancellations: an inverter driven by a pulse narrower than its
    /// delay plus a free-running clock. `trace` enables event tracing
    /// *before* any stimulus, so the recorded lifecycle is complete.
    fn traced_fixture(trace: bool) -> (Simulator, NetId, NetId) {
        let mut sim = Simulator::new();
        let clk = sim.add_net();
        let a = sim.add_net();
        let b = sim.add_net();
        sim.add_inverter(a, b, ps(100), ps(100));
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
        (sim, clk, b)
    }

    #[test]
    fn tracing_does_not_change_behavior() {
        let (mut plain, _, b_plain) = traced_fixture(false);
        plain.run_until(ps(5_000));
        let (mut traced, _, b_traced) = traced_fixture(true);
        assert!(traced.trace_enabled());
        traced.run_until(ps(5_000));
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(plain.transitions(b_plain), traced.transitions(b_traced));
        assert_eq!(plain.now(), traced.now());
    }

    #[test]
    fn trace_records_the_event_lifecycle() {
        let (mut sim, _, _) = traced_fixture(true);
        sim.run_until(ps(5_000));
        let stats = sim.stats();
        let buf = sim.take_trace().expect("tracing was enabled");
        assert!(!sim.trace_enabled(), "take_trace disables tracing");
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
        let mut buf2 = sim_observe::TraceBuf::new(events.len());
        for ev in events {
            buf2.record(ev);
        }
        trace.add_track("engine", buf2);
        let check = sim_observe::check_trace(&trace);
        assert!(check.is_ok(), "{:?}", check.violations);
    }

    #[test]
    fn buffer_propagates_with_asymmetric_delays() {
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        sim.add_buffer(a, b, ps(100), ps(300));
        sim.watch(b);
        sim.schedule_input(a, ps(1000), true);
        sim.schedule_input(a, ps(2000), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(
            sim.transitions(b),
            &[(ps(1100), true), (ps(2300), false)]
        );
    }

    #[test]
    fn inverter_chain_parity() {
        let mut sim = Simulator::new();
        let nets: Vec<NetId> = (0..4).map(|_| sim.add_net()).collect();
        for w in nets.windows(2) {
            sim.add_inverter(w[0], w[1], ps(50), ps(50));
        }
        // Initial state alternates: 0,1,0,1 — consistent, no events.
        sim.schedule_input(nets[0], ps(100), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert!(sim.value(nets[0]));
        assert!(!sim.value(nets[1]));
        assert!(sim.value(nets[2]));
        assert!(!sim.value(nets[3]));
    }

    #[test]
    fn narrow_pulse_is_swallowed() {
        // Buffer with slow rise (400) and fast fall (100): an input
        // pulse of width 200 ends (fall arrives at t+100+200=1300)
        // before the rise would complete (t+400=1400) — the output
        // never moves.
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        sim.add_buffer(a, b, ps(400), ps(100));
        sim.watch(b);
        sim.schedule_input(a, ps(1000), true);
        sim.schedule_input(a, ps(1200), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.transitions(b), &[]);
        assert!(!sim.value(b));
    }

    #[test]
    fn wide_pulse_passes() {
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        sim.add_buffer(a, b, ps(400), ps(100));
        sim.watch(b);
        sim.schedule_input(a, ps(1000), true);
        sim.schedule_input(a, ps(1500), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        // Rise at 1400, fall at 1600: narrowed from 500 to 200 but
        // alive.
        assert_eq!(sim.transitions(b), &[(ps(1400), true), (ps(1600), false)]);
    }

    #[test]
    fn clock_source_produces_edges() {
        let mut sim = Simulator::new();
        let clk = sim.add_net();
        sim.watch(clk);
        sim.schedule_clock(clk, ps(100), ps(1000), ps(500), 3);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        assert_eq!(sim.transitions(clk).len(), 6);
        assert_eq!(sim.transitions(clk)[0], (ps(100), true));
        assert_eq!(sim.transitions(clk)[5], (ps(2600), false));
    }

    #[test]
    fn register_samples_on_rising_edge() {
        let mut sim = Simulator::new();
        let d = sim.add_net();
        let clk = sim.add_net();
        let q = sim.add_net();
        sim.add_register(d, clk, q, ps(50), ps(50), ps(20));
        sim.watch(q);
        sim.schedule_input(d, ps(100), true);
        sim.schedule_input(clk, ps(500), true);
        sim.schedule_input(clk, ps(700), false);
        sim.schedule_input(d, ps(800), false);
        sim.schedule_input(clk, ps(1500), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.transitions(q), &[(ps(520), true), (ps(1520), false)]);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn setup_violation_detected() {
        let mut sim = Simulator::new();
        let d = sim.add_net();
        let clk = sim.add_net();
        let q = sim.add_net();
        sim.add_register(d, clk, q, ps(100), ps(100), ps(20));
        // Data changes 30 ps before the edge: setup (100) violated.
        sim.schedule_input(d, ps(470), true);
        sim.schedule_input(clk, ps(500), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.violations().len(), 1);
        assert_eq!(sim.violations()[0].kind, ViolationKind::Setup);
        assert_eq!(sim.violations()[0].at, ps(500));
    }

    #[test]
    fn hold_violation_detected() {
        let mut sim = Simulator::new();
        let d = sim.add_net();
        let clk = sim.add_net();
        let q = sim.add_net();
        sim.add_register(d, clk, q, ps(100), ps(100), ps(20));
        sim.schedule_input(clk, ps(500), true);
        // Data changes 40 ps after the edge: hold (100) violated.
        sim.schedule_input(d, ps(540), true);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert_eq!(sim.violations().len(), 1);
        assert_eq!(sim.violations()[0].kind, ViolationKind::Hold);
    }

    #[test]
    fn clean_timing_no_violations() {
        let mut sim = Simulator::new();
        let d = sim.add_net();
        let clk = sim.add_net();
        let q = sim.add_net();
        sim.add_register(d, clk, q, ps(100), ps(100), ps(20));
        sim.schedule_input(d, ps(200), true);
        sim.schedule_input(clk, ps(500), true);
        sim.schedule_input(clk, ps(900), false);
        sim.schedule_input(d, ps(1100), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn run_to_quiescence_reports_still_active() {
        let mut sim = Simulator::new();
        let clk = sim.add_net();
        sim.schedule_clock(clk, ps(0), ps(1000), ps(500), 1000);
        let err = sim.run_to_quiescence(ps(5_000)).unwrap_err();
        assert_eq!(err.limit, ps(5_000));
    }

    #[test]
    fn run_until_stops_at_time() {
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        sim.add_buffer(a, b, ps(100), ps(100));
        sim.schedule_input(a, ps(1000), true);
        sim.run_until(ps(1050));
        assert!(!sim.value(b));
        assert_eq!(sim.now(), ps(1050));
        sim.run_until(ps(1100));
        assert!(sim.value(b));
    }

    #[test]
    fn determinism_same_inputs_same_trace() {
        let build = || {
            let mut sim = Simulator::new();
            let nets: Vec<NetId> = (0..10).map(|_| sim.add_net()).collect();
            for w in nets.windows(2) {
                sim.add_buffer(w[0], w[1], ps(73), ps(91));
            }
            sim.watch(nets[9]);
            sim.schedule_clock(nets[0], ps(0), ps(400), ps(200), 20);
            sim.run_to_quiescence(ps(1_000_000)).expect("settles");
            sim.transitions(nets[9]).to_vec()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn c_element_follows_agreement_and_holds_disagreement() {
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        let q = sim.add_net();
        sim.add_c_element(a, b, q, ps(100));
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
        assert_eq!(
            sim.transitions(q),
            &[(ps(2100), true), (ps(4100), false)]
        );
    }

    #[test]
    fn c_element_initial_state_follows_agreeing_inputs() {
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        let q = sim.add_net();
        // Both inputs low at construction: output low, no event.
        sim.add_c_element(a, b, q, ps(50));
        assert!(!sim.value(q));
        sim.run_to_quiescence(ps(1_000)).expect("settles");
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn c_element_rendezvous_of_two_chains() {
        // Two buffer chains of different lengths meet at a C-element:
        // the output waits for the slower chain — the rendezvous that
        // self-timed synchronization is built from.
        let mut sim = Simulator::new();
        let src = sim.add_net();
        let mut fast = src;
        for _ in 0..2 {
            let n = sim.add_net();
            sim.add_buffer(fast, n, ps(100), ps(100));
            fast = n;
        }
        let mut slow = src;
        for _ in 0..8 {
            let n = sim.add_net();
            sim.add_buffer(slow, n, ps(100), ps(100));
            slow = n;
        }
        let q = sim.add_net();
        sim.add_c_element(fast, slow, q, ps(10));
        sim.watch(q);
        sim.schedule_input(src, ps(1000), true);
        sim.run_to_quiescence(ps(100_000)).expect("settles");
        // Slow chain arrives at 1000 + 800; C fires 10 later.
        assert_eq!(sim.transitions(q), &[(ps(1810), true)]);
    }

    #[test]
    fn stats_count_processed_and_cancelled_events() {
        // Wide pulse through a buffer: 2 input events + 2 output
        // events, all processed, nothing cancelled.
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        sim.add_buffer(a, b, ps(400), ps(100));
        sim.schedule_input(a, ps(1000), true);
        sim.schedule_input(a, ps(1500), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        let s = sim.stats();
        assert_eq!(s.events_processed, 4);
        assert_eq!(s.cancellations, 0);
        assert_eq!(s.events_scheduled, s.events_processed + s.dead_events);
        assert!(s.peak_queue_depth >= 1);

        // Narrow pulse: the swallowed output shows up as an inertial
        // cancellation, and the cancelled rise dies in the queue.
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        sim.add_buffer(a, b, ps(400), ps(100));
        sim.schedule_input(a, ps(1000), true);
        sim.schedule_input(a, ps(1200), false);
        sim.run_to_quiescence(ps(10_000)).expect("settles");
        let s = sim.stats();
        assert!(s.cancellations >= 1, "swallowed pulse cancels: {s:?}");
        assert!(s.dead_events >= 1, "cancelled event dies in queue: {s:?}");
        assert_eq!(s.events_scheduled, s.events_processed + s.dead_events);
    }

    #[test]
    fn record_metrics_exports_counters() {
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        sim.add_buffer(a, b, ps(100), ps(100));
        sim.schedule_input(a, ps(1000), true);
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
    #[should_panic(expected = "delays must be positive")]
    fn zero_delay_gate_rejected() {
        let mut sim = Simulator::new();
        let a = sim.add_net();
        let b = sim.add_net();
        sim.add_buffer(a, b, SimTime::ZERO, ps(1));
    }

    #[test]
    #[should_panic(expected = "clock edge 3: ")]
    fn clock_overflow_names_the_edge() {
        let mut sim = Simulator::new();
        let clk = sim.add_net();
        // Cycles 0–2 fit (the last fall lands exactly on the horizon);
        // cycle 3's rise overflows.
        sim.schedule_clock(clk, ps(u64::MAX - 2_500), ps(1_000), ps(500), 10);
    }
}
