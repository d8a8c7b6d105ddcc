//! The flat netlist arena: one packed record per gate and the CSR
//! fanout table.
//!
//! A [`Netlist`] is the mutable builder: wires are plain `u32`
//! indices, gates append one `Gate` record each, and registers add
//! their setup/hold windows to a side table. [`seal`] freezes it into
//! a [`SealedNetlist`]: a compressed-sparse-row fanout table
//! (`fanout_offsets` / `rows`, wire → driven gates) and the delay
//! bound the calendar-wheel scheduler sizes itself from. Each row
//! entry is self-contained — the driven gate's output wire and its
//! other input — so the engine settles a change from the row and wire
//! records alone; a gate's kind and delays travel with its output
//! wire's engine state. The gate records stay for the cold paths
//! (engine construction, fault compilation). Nothing here allocates
//! per event — everything is index math over contiguous arrays.
//!
//! [`seal`]: Netlist::seal

use crate::time::SimTime;
use std::fmt;

/// Sentinel for "no second input".
pub(crate) const NONE: u32 = u32::MAX;

/// Index of a wire in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireId(pub(crate) u32);

impl WireId {
    /// The id for dense arena index `index` (bounds-checked by every
    /// API that consumes it).
    #[must_use]
    pub fn from_index(index: usize) -> WireId {
        WireId(u32::try_from(index).expect("wire index fits u32"))
    }

    /// The wire's dense arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WireId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Index of a gate in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The id for dense arena index `index` (bounds-checked by every
    /// API that consumes it).
    #[must_use]
    pub fn from_index(index: usize) -> GateId {
        GateId(u32::try_from(index).expect("gate index fits u32"))
    }

    /// The gate's dense arena index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Kind bit of the symmetric two-input gates. Their [`GateKind`] code
/// is this bit plus the gate's truth table — bit `2a + b` holds the
/// output for inputs `(a, b)` — so evaluating one is a shift.
pub(crate) const TWO_INPUT: u8 = 1 << 4;

/// The gate kinds the engine evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum GateKind {
    /// Non-inverting buffer (`d_rise`/`d_fall` delays).
    Buffer = 0,
    /// Inverter (`d_rise`/`d_fall` delays).
    Inverter = 1,
    /// One-shot pulse buffer: fires a fixed-width pulse on each
    /// rising input edge (`d_rise` = propagation delay, `d_fall` =
    /// pulse width).
    OneShot = 2,
    /// Muller C-element: the output follows the inputs after `d_rise`
    /// (= `d_fall`) when they agree and holds when they differ — the
    /// rendezvous gate of self-timed control.
    CElement = 3,
    /// Positive-edge-triggered D register (first input `d`, second
    /// `clk`; `d_rise` = clock-to-q, `d_fall` = 0): samples `d` on each
    /// rising clock edge and checks the setup/hold windows kept in the
    /// netlist's register side table.
    Register = 4,
    /// Two-input OR (`d_rise`/`d_fall` delays).
    Or2 = TWO_INPUT | 0b1110,
    /// Two-input AND.
    And2 = TWO_INPUT | 0b1000,
    /// Two-input NAND.
    Nand2 = TWO_INPUT | 0b0111,
    /// Two-input NOR.
    Nor2 = TWO_INPUT | 0b0001,
    /// Two-input XOR.
    Xor2 = TWO_INPUT | 0b0110,
    /// Two-input XNOR (equivalence).
    Xnor2 = TWO_INPUT | 0b1001,
}

impl GateKind {
    /// Whether this is a symmetric two-input combinational kind
    /// (OR, AND, NAND, NOR, XOR, XNOR).
    #[must_use]
    pub fn is_two_input(self) -> bool {
        self as u8 & TWO_INPUT != 0
    }

    /// Output of a two-input kind for inputs `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on a kind without a truth table.
    #[must_use]
    pub fn eval2(self, a: bool, b: bool) -> bool {
        debug_assert!(self.is_two_input(), "{self:?} has no truth table");
        truth(self as u8, a, b)
    }
}

/// Bit `2a + b` of a two-input kind code: its output for `(a, b)`.
pub(crate) fn truth(code: u8, a: bool, b: bool) -> bool {
    code >> ((u8::from(a) << 1) | u8::from(b)) & 1 != 0
}

/// One gate, packed into 24 bytes: the builder's record, read when
/// the engine is constructed and by the cold paths, never per event.
/// Delays are picoseconds in `u32` (a single gate delay beyond ~4 ms
/// would be a spec bug, and the narrow fields keep a million-gate
/// arena at ~24 MB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Gate {
    pub kind: GateKind,
    pub in_a: u32,
    /// Second input, or [`NONE`] for one-input kinds.
    pub in_b: u32,
    pub out: u32,
    /// Rise delay; for one-shots the propagation delay.
    pub d_rise: u32,
    /// Fall delay; for one-shots the pulse width.
    pub d_fall: u32,
}

/// One CSR fanout entry, 8 bytes: a gate fed by the row's wire, named
/// by its output wire (which carries the gate's kind and delays in
/// the engine) and its other input ([`NONE`] for one-input kinds).
/// The row's own wire stands in for either input: combinational
/// two-input gates and C-elements are symmetric, and a register tells
/// its clock row from its data row by comparing `other` with its data
/// wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fanout {
    pub out: u32,
    pub other: u32,
}

const _: () = assert!(std::mem::size_of::<Fanout>() == 8);

/// A register's side-table entry: the timing windows its `Gate`
/// record has no room for, keyed by its output wire `q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Register {
    pub q: u32,
    pub d: u32,
    pub setup_ps: u64,
    pub hold_ps: u64,
}

/// The mutable netlist builder.
///
/// Wires carry no storage here at all — a wire is just an index the
/// engine later attaches state to. Gates are one `Gate` record each.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    wires: u32,
    /// Which wires already have a driving gate (one driver per wire).
    driven: Vec<bool>,
    /// Setup/hold windows of the registers, in gate order.
    registers: Vec<Register>,
}

fn delay_ps(t: SimTime, what: &str) -> u32 {
    let ps = t.as_ps();
    assert!(ps >= 1, "{what} must be at least 1 ps");
    assert!(
        ps <= u64::from(u32::MAX),
        "{what} of {ps} ps exceeds the u32 per-gate delay column"
    );
    ps as u32
}

impl Netlist {
    /// An empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Allocates a fresh wire.
    ///
    /// # Panics
    ///
    /// Panics if the arena exceeds `u32` wire indices.
    pub fn add_wire(&mut self) -> WireId {
        assert!(self.wires < u32::MAX, "wire arena full");
        let id = WireId(self.wires);
        self.wires += 1;
        self.driven.push(false);
        id
    }

    /// Number of wires allocated so far.
    #[must_use]
    pub fn n_wires(&self) -> usize {
        self.wires as usize
    }

    /// Number of gates added so far.
    #[must_use]
    pub fn n_gates(&self) -> usize {
        self.gates.len()
    }

    fn check_wire(&self, w: WireId) {
        assert!(w.0 < self.wires, "wire {w} is not in this netlist");
    }

    fn claim_output(&mut self, out: WireId) {
        self.check_wire(out);
        assert!(
            !self.driven[out.index()],
            "wire {out} already has a driver"
        );
        self.driven[out.index()] = true;
    }

    fn push_gate(
        &mut self,
        kind: GateKind,
        a: WireId,
        b: Option<WireId>,
        out: WireId,
        d_rise: u32,
        d_fall: u32,
    ) -> GateId {
        self.check_wire(a);
        assert_ne!(a, out, "gate input and output must differ");
        if let Some(b) = b {
            self.check_wire(b);
            assert_ne!(b, out, "gate input and output must differ");
            assert_ne!(a, b, "two-input gate needs distinct input wires");
        }
        self.claim_output(out);
        let id = GateId(u32::try_from(self.gates.len()).expect("gate arena full"));
        self.gates.push(Gate {
            kind,
            in_a: a.0,
            in_b: b.map_or(NONE, |w| w.0),
            out: out.0,
            d_rise,
            d_fall,
        });
        id
    }

    /// Adds a non-inverting buffer.
    ///
    /// # Panics
    ///
    /// Panics on zero delays, stale wire ids, or an already-driven
    /// output.
    pub fn add_buffer(&mut self, input: WireId, output: WireId, rise: SimTime, fall: SimTime) -> GateId {
        let (r, f) = (delay_ps(rise, "gate delay"), delay_ps(fall, "gate delay"));
        self.push_gate(GateKind::Buffer, input, None, output, r, f)
    }

    /// Adds an inverter.
    ///
    /// # Panics
    ///
    /// As for [`Netlist::add_buffer`].
    pub fn add_inverter(&mut self, input: WireId, output: WireId, rise: SimTime, fall: SimTime) -> GateId {
        let (r, f) = (delay_ps(rise, "gate delay"), delay_ps(fall, "gate delay"));
        self.push_gate(GateKind::Inverter, input, None, output, r, f)
    }

    /// Adds a symmetric two-input gate of `kind` (OR, AND, NAND, NOR,
    /// XOR or XNOR).
    ///
    /// # Panics
    ///
    /// As for [`Netlist::add_buffer`], plus a kind that is not a
    /// two-input one and inputs that are not distinct.
    pub fn add_gate2(
        &mut self,
        kind: GateKind,
        a: WireId,
        b: WireId,
        output: WireId,
        rise: SimTime,
        fall: SimTime,
    ) -> GateId {
        assert!(kind.is_two_input(), "{kind:?} is not a two-input gate kind");
        let (r, f) = (delay_ps(rise, "gate delay"), delay_ps(fall, "gate delay"));
        self.push_gate(kind, a, Some(b), output, r, f)
    }

    /// Adds a Muller C-element: when `a` and `b` agree the output
    /// follows them after `delay`; when they differ it holds.
    ///
    /// # Panics
    ///
    /// As for [`Netlist::add_gate2`].
    pub fn add_c_element(&mut self, a: WireId, b: WireId, output: WireId, delay: SimTime) -> GateId {
        let d = delay_ps(delay, "C-element delay");
        self.push_gate(GateKind::CElement, a, Some(b), output, d, d)
    }

    /// Adds a positive-edge-triggered D register: on each rising edge
    /// of `clk` it samples `d` and drives `q` after `clk_to_q`. A data
    /// change closer than `setup` before the edge or `hold` after it
    /// is recorded as a timing violation (see
    /// [`NetSim::violations`](crate::NetSim::violations)); the
    /// register still samples, possibly garbage, as hardware would.
    ///
    /// # Panics
    ///
    /// Panics on a zero `clk_to_q`, stale wire ids, `d == clk`, or an
    /// already-driven `q`.
    pub fn add_register(
        &mut self,
        d: WireId,
        clk: WireId,
        q: WireId,
        setup: SimTime,
        hold: SimTime,
        clk_to_q: SimTime,
    ) -> GateId {
        let c2q = delay_ps(clk_to_q, "clk-to-q delay");
        // `d_fall` 0: a register output has no inertial window.
        let id = self.push_gate(GateKind::Register, d, Some(clk), q, c2q, 0);
        self.registers.push(Register {
            q: q.0,
            d: d.0,
            setup_ps: setup.as_ps(),
            hold_ps: hold.as_ps(),
        });
        id
    }

    /// Adds a one-shot pulse buffer (rising-edge triggered, wired-in
    /// pulse width — the Section VII clock-buffer fix).
    ///
    /// # Panics
    ///
    /// As for [`Netlist::add_buffer`].
    pub fn add_one_shot(
        &mut self,
        input: WireId,
        output: WireId,
        delay: SimTime,
        pulse_width: SimTime,
    ) -> GateId {
        let (d, w) = (
            delay_ps(delay, "one-shot delay"),
            delay_ps(pulse_width, "one-shot pulse width"),
        );
        self.push_gate(GateKind::OneShot, input, None, output, d, w)
    }

    /// Freezes the arena: builds the CSR fanout rows and the
    /// scheduler's delay bound.
    #[must_use]
    pub fn seal(self) -> SealedNetlist {
        let n_wires = self.wires as usize;

        // CSR fanout: counting pass, prefix sum, fill pass. The fill
        // iterates gates in id order, so each wire's row keeps
        // gate-insertion order: a change settles its fanout in the
        // order the gates were added.
        let mut counts = vec![0u32; n_wires + 1];
        let bump = |w: u32, counts: &mut Vec<u32>| {
            counts[w as usize + 1] += 1;
        };
        for g in &self.gates {
            bump(g.in_a, &mut counts);
            if g.in_b != NONE {
                bump(g.in_b, &mut counts);
            }
        }
        for i in 1..=n_wires {
            counts[i] += counts[i - 1];
        }
        let fanout_offsets = counts;
        let mut cursor = fanout_offsets.clone();
        let vacant = Fanout {
            out: NONE,
            other: NONE,
        };
        let mut rows = vec![vacant; fanout_offsets[n_wires] as usize];
        let mut max_delay: u64 = 1;
        for g in &self.gates {
            let a = g.in_a as usize;
            rows[cursor[a] as usize] = Fanout {
                out: g.out,
                other: g.in_b,
            };
            cursor[a] += 1;
            let b = g.in_b;
            if b != NONE {
                rows[cursor[b as usize] as usize] = Fanout {
                    out: g.out,
                    other: g.in_a,
                };
                cursor[b as usize] += 1;
            }
            let reach = match g.kind {
                GateKind::OneShot => u64::from(g.d_rise) + u64::from(g.d_fall),
                _ => u64::from(g.d_rise.max(g.d_fall)),
            };
            max_delay = max_delay.max(reach);
        }

        let sources = (n_wires - self.gates.len()) as u32;
        let levelizable = self.registers.is_empty()
            && self.gates.iter().zip(sources..).all(|(g, out)| {
                g.out == out && g.in_a < out && (g.in_b == NONE || g.in_b < out)
            });
        let mut registers = self.registers;
        registers.sort_unstable_by_key(|r| r.q);
        SealedNetlist {
            gates: self.gates,
            registers,
            n_wires: n_wires as u32,
            fanout_offsets,
            rows,
            max_delay_ps: max_delay,
            levelizable,
        }
    }
}

/// The frozen, simulation-ready netlist (see [`Netlist::seal`]).
#[derive(Debug, Clone)]
pub struct SealedNetlist {
    pub(crate) gates: Vec<Gate>,
    /// The register side table, sorted by output wire.
    pub(crate) registers: Vec<Register>,
    pub(crate) n_wires: u32,
    /// CSR row offsets: wire `w` drives the gates
    /// `rows[fanout_offsets[w]..fanout_offsets[w + 1]]`.
    pub(crate) fanout_offsets: Vec<u32>,
    pub(crate) rows: Vec<Fanout>,
    /// Upper bound, in picoseconds, on how far into the future any
    /// gate schedules (delay-fault scaling excluded) — the calendar
    /// wheel's sizing input.
    pub(crate) max_delay_ps: u64,
    /// See [`SealedNetlist::is_levelizable`].
    pub(crate) levelizable: bool,
}

impl SealedNetlist {
    /// Whether the netlist is *levelizable*, so that an untraced
    /// [`NetSim::run_to_quiescence`](crate::NetSim::run_to_quiescence)
    /// evaluates each wire once in wire order instead of running the
    /// event loop. Decided once, at seal time: the netlist has no
    /// registers and is *in order* — wires `0..sources` are externally
    /// driven and gate `i` drives wire `sources + i` from lower wires,
    /// as the chain and mesh builders emit. Wire order is then a
    /// topological order, and a wire's last consumer is the last entry
    /// of its fanout row. (A register's setup/hold checks are recorded
    /// in global detection order, which a wire-by-wire pass does not
    /// reproduce.) Any other netlist runs the event loop.
    #[must_use]
    pub fn is_levelizable(&self) -> bool {
        self.levelizable
    }

    /// Number of wires.
    #[must_use]
    pub fn n_wires(&self) -> usize {
        self.n_wires as usize
    }

    /// Number of gates.
    #[must_use]
    pub fn n_gates(&self) -> usize {
        self.gates.len()
    }

    /// The scheduler's per-gate delay bound, in picoseconds.
    #[must_use]
    pub fn max_delay_ps(&self) -> u64 {
        self.max_delay_ps
    }

    /// Wire `w`'s fanout row, in gate-insertion order.
    #[cfg(test)]
    pub(crate) fn row(&self, w: usize) -> &[Fanout] {
        let (s, e) = (self.fanout_offsets[w], self.fanout_offsets[w + 1]);
        &self.rows[s as usize..e as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    fn entry(out: WireId, other: Option<WireId>) -> Fanout {
        Fanout {
            out: out.0,
            other: other.map_or(NONE, |w| w.0),
        }
    }

    #[test]
    fn csr_fanout_preserves_gate_order() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let (x, y, z) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        // Three gates all fed by `a`, added in order.
        nl.add_buffer(a, x, ps(10), ps(10));
        nl.add_inverter(a, y, ps(10), ps(10));
        let b = nl.add_gate2(GateKind::Or2, a, x, z, ps(10), ps(10));
        assert_eq!(b.index(), 2);
        let sealed = nl.seal();
        assert_eq!(
            sealed.row(a.index()),
            &[entry(x, None), entry(y, None), entry(z, Some(x))]
        );
        // `x` feeds only the OR gate, whose other input is `a`.
        assert_eq!(sealed.row(x.index()), &[entry(z, Some(a))]);
        assert_eq!(sealed.row(y.index()), &[]);
        assert_eq!(sealed.row(z.index()), &[]);
    }

    #[test]
    fn two_input_gate_sits_in_both_rows_with_the_opposite_input() {
        let mut nl = Netlist::new();
        let (a, b, c) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        let (p, q, r) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_gate2(GateKind::And2, a, b, p, ps(5), ps(6));
        nl.add_buffer(b, q, ps(5), ps(5));
        nl.add_gate2(GateKind::Or2, c, a, r, ps(7), ps(8));
        let sealed = nl.seal();
        assert_eq!(
            sealed.row(a.index()),
            &[entry(p, Some(b)), entry(r, Some(c))]
        );
        assert_eq!(sealed.row(b.index()), &[entry(p, Some(a)), entry(q, None)]);
        assert_eq!(sealed.row(c.index()), &[entry(r, Some(a))]);
        // Every input slot of every gate appears exactly once.
        assert_eq!(sealed.rows.len(), 5);
        assert_eq!(sealed.fanout_offsets.len(), sealed.n_wires() + 1);
    }

    #[test]
    #[should_panic(expected = "already has a driver")]
    fn double_driver_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        nl.add_buffer(a, b, ps(1), ps(1));
        nl.add_inverter(a, b, ps(1), ps(1));
    }

    #[test]
    #[should_panic(expected = "at least 1 ps")]
    fn zero_delay_rejected() {
        let mut nl = Netlist::new();
        let a = nl.add_wire();
        let b = nl.add_wire();
        nl.add_buffer(a, b, ps(0), ps(1));
    }

    #[test]
    fn truth_tables_match_the_boolean_functions() {
        // Outputs for inputs (0,0), (0,1), (1,0), (1,1).
        let cases = [
            (GateKind::Or2, [false, true, true, true]),
            (GateKind::And2, [false, false, false, true]),
            (GateKind::Nand2, [true, true, true, false]),
            (GateKind::Nor2, [true, false, false, false]),
            (GateKind::Xor2, [false, true, true, false]),
            (GateKind::Xnor2, [true, false, false, true]),
        ];
        for (kind, table) in cases {
            assert!(kind.is_two_input());
            for (i, (a, b)) in [(false, false), (false, true), (true, false), (true, true)]
                .into_iter()
                .enumerate()
            {
                assert_eq!(kind.eval2(a, b), table[i], "{kind:?}({a}, {b})");
            }
        }
        for kind in [
            GateKind::Buffer,
            GateKind::Inverter,
            GateKind::OneShot,
            GateKind::CElement,
            GateKind::Register,
        ] {
            assert!(!kind.is_two_input(), "{kind:?}");
        }
    }

    #[test]
    fn registers_and_c_elements_sit_in_both_input_rows() {
        let mut nl = Netlist::new();
        let (d, clk, q) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        let (a, b, c) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_register(d, clk, q, ps(60), ps(40), ps(30));
        nl.add_c_element(a, b, c, ps(25));
        let sealed = nl.seal();
        assert_eq!(sealed.row(d.index()), &[entry(q, Some(clk))]);
        assert_eq!(sealed.row(clk.index()), &[entry(q, Some(d))]);
        assert_eq!(sealed.row(a.index()), &[entry(c, Some(b))]);
        assert_eq!(
            sealed.registers,
            vec![Register {
                q: q.0,
                d: d.0,
                setup_ps: 60,
                hold_ps: 40,
            }]
        );
        // A register reaches clk-to-q ahead; its output has no
        // inertial window (`d_fall` 0).
        assert_eq!(sealed.gates[0].d_fall, 0);
        assert_eq!(sealed.max_delay_ps(), 30);
    }

    #[test]
    #[should_panic(expected = "not a two-input gate kind")]
    fn gate2_rejects_one_input_kinds() {
        let mut nl = Netlist::new();
        let (a, b, c) = (nl.add_wire(), nl.add_wire(), nl.add_wire());
        nl.add_gate2(GateKind::Inverter, a, b, c, ps(1), ps(1));
    }
}
