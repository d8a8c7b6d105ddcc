//! The levelized run: [`NetSim::run_to_quiescence`] on a levelizable
//! netlist, one topological pass instead of the event loop.
//!
//! On an acyclic, register-free netlist a wire's transitions depend
//! only on its driver's input transitions, its own pending events,
//! upsets and fault state. So the pass visits the wires in wire order
//! — the sources, then each gate's output, which an in-order netlist
//! drives from lower wires — and for each gate replays the
//! event loop's rules — inertial cancellation, one-shot pulses,
//! C-element hold, stuck pins, delay scales — on a merge of its input
//! transitions, its own in-flight events and its own upsets. A wire's
//! transitions live in a ring only until its last consumer has run.
//!
//! **Dispatch order.** The event loop dispatches same-instant work as
//! upsets (by wire), then events in push order. Events pending before
//! the run precede every push made during it, and among pushes made
//! during the run an earlier push *time* means an earlier push. So
//! each dispatch carries a tie key — upset wire, pre-run queue rank, or
//! push time — and the pass merges by `(time, key)`. Two items with
//! the same push time at the same instant are a tie the key cannot
//! order (deeper provenance is not kept). Two input changes of a
//! two-input gate whose first evaluation sees the same output either
//! way round are settled at once; any other such tie is applied in
//! both orders, and the pass goes on only if they agree on every
//! effect.
//!
//! **Counters.** Each is derived, not replayed: events scheduled,
//! processed and dead are counted per gate, settle iterations are the
//! fanout of a wire times its applied changes, `now` is the latest
//! dispatch time, and the peak queue depth is the largest running
//! sum, in dispatch order, of each dispatch step's pushes minus its
//! pops (a wheel bucket is one step, a far-list entry or an upset one
//! each). Only dispatches that do not push exactly what they pop are
//! kept for that sum, wheel ones summed per instant, and only time
//! windows that could beat the best window-end depth are looked into.
//!
//! **Giving up.** State is committed only at the end. The pass is
//! discarded, and the event loop runs from the untouched state, when
//! the run would dispatch past its limit (so the caller still gets
//! `StillActiveError` with the event loop's state), when a tie's two
//! orders disagree, or when a push would land on its own instant or
//! past the time horizon (the event loop then panics as usual).

use super::{NetSim, WireState, SCHEDULED, STUCK, WATCHED};
use crate::arena::{truth, GateKind, SealedNetlist, NONE, TWO_INPUT};
use std::collections::VecDeque;

/// The pass gave up; the event loop takes over from the saved state.
struct Bail;

type Pass<T> = Result<T, Bail>;

/// Tie-key classes, in same-instant dispatch order.
const UPSET: u8 = 0;
const PRE: u8 = 1;
const NEW: u8 = 2;

/// Dispatch-step classes of the depth sum, in same-instant order.
const STEP_UPSET: u8 = 0;
const STEP_FAR_PRE: u8 = 1;
const STEP_FAR_NEW: u8 = 2;
const STEP_WHEEL: u8 = 3;

/// Most slots of the per-instant wheel-step sums.
const BUCKET_SUMS: usize = 1 << 17;

/// The tie key of a dispatch: `(class, k)` with `k` the upset wire,
/// the pre-run queue rank, or the push time.
type Key = (u8, u64);

/// One applied change of a wire, kept until its last consumer ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tr {
    t: u64,
    k: u64,
    /// Events its consumers pushed when it was applied.
    pushes: u32,
    class: u8,
    value: bool,
    /// Dispatched from the far list rather than a wheel bucket.
    far: bool,
}

impl Tr {
    fn key(&self) -> Key {
        (self.class, self.k)
    }
}

/// An event in flight on the wire being evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Own {
    t: u64,
    k: u64,
    gen: u32,
    class: u8,
    value: bool,
    far: bool,
}

/// One `(instant, Δ depth)` entry of the peak-depth sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    t: u64,
    k: u64,
    delta: i64,
    class: u8,
}

impl Step {
    /// The step a dispatch of class `class` (`far` when from the far
    /// list) belongs to.
    fn of(t: u64, class: u8, k: u64, far: bool, delta: i64) -> Step {
        let (class, k) = match (class, far) {
            (UPSET, _) => (STEP_UPSET, k),
            (PRE, true) => (STEP_FAR_PRE, k),
            (NEW, true) => (STEP_FAR_NEW, k),
            _ => (STEP_WHEEL, 0),
        };
        Step { t, k, delta, class }
    }

    fn order(&self) -> (u64, u8, u64) {
        (self.t, self.class, self.k)
    }
}

/// The pass's counts, added to [`super::EngineStats`] on commit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    scheduled: u64,
    processed: u64,
    cancellations: u64,
    dead: u64,
    settle: u64,
    faults: u64,
}

/// The evaluated wire's state while its items are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Local {
    ws: WireState,
    va: bool,
    vb: bool,
    now: u64,
}

/// What a merged item does.
#[derive(Debug, Clone, Copy)]
enum What {
    /// An upset of the evaluated wire.
    Upset,
    /// An input change: the ring index of the transition, and whether
    /// it is the second input.
    Input { at: usize, b: bool },
    /// A dispatch of the evaluated wire's own event.
    Own(Own),
}

#[derive(Debug, Clone, Copy)]
struct Item {
    key: Key,
    what: What,
}

impl Item {
    /// Which merged stream the item came from.
    fn source(&self) -> u8 {
        match self.what {
            What::Upset => 0,
            What::Input { b: false, .. } => 1,
            What::Input { b: true, .. } => 2,
            What::Own(_) => 3,
        }
    }
}

/// What a group of same-instant items did, for comparing two orders.
#[derive(Debug, PartialEq, Eq)]
struct Effects {
    st: Local,
    counts: Counts,
    inflight: Vec<Own>,
    produced: Vec<Tr>,
    steps: Vec<Step>,
    logged: Vec<(u64, bool)>,
}

/// Where a group started, for rolling one order back.
struct Mark {
    st: Local,
    counts: Counts,
    inflight: Vec<Own>,
    ring: usize,
    steps: usize,
    logged: usize,
}

/// One levelized pass over a simulator's state.
struct Levelized<'a> {
    nl: &'a SealedNetlist,
    /// Externally driven wires `0..sources`; gate `i` drives wire
    /// `sources + i`.
    sources: usize,
    wires: &'a mut [WireState],
    watches: &'a mut [(u32, Vec<(u64, bool)>)],
    /// The wheel's horizon minus one: a push further ahead goes to the
    /// far list.
    mask: u64,
    limit: u64,
    /// Transitions of produced wires whose consumers have not all run;
    /// `ring[i]` has logical index `base + i`.
    ring: Vec<Tr>,
    base: usize,
    /// Logical start and count of the transitions of each produced,
    /// unretired wire, in wire order from `retired`.
    live: VecDeque<(u32, u32)>,
    /// Produced wires already retired, in wire order.
    retired: usize,
    /// [`Levelized::last_use`] of the oldest unretired wire,
    /// `usize::MAX` until looked up.
    head_use: usize,
    inflight: Vec<Own>,
    /// The earliest in-flight time.
    to: u64,
    /// Scratch for one instant's items.
    items: Vec<Item>,
    steps: Vec<Step>,
    /// Wheel steps summed per instant, direct-mapped by time.
    bucket_sums: Vec<(u64, i64)>,
    /// Overwritten records of wires with a history, for giving up.
    undo: Vec<(u32, WireState)>,
    /// Overwritten wires without one — never changed, cancelled or
    /// scheduled, so restored from their value alone — and which of
    /// them flipped.
    fresh: Vec<u64>,
    flipped: Vec<u64>,
    /// Events pending before the run, by wire then rank.
    pre: Vec<(u32, Own)>,
    /// Upsets not yet struck, by wire then time.
    ups: Vec<(u32, u64)>,
    /// Wires with pre-run events or upsets.
    special: Vec<u64>,
    counts: Counts,
    max_t: u64,
}

impl NetSim {
    /// Runs to quiescence in one topological pass (see the module
    /// docs). Returns the quiescence time, or `None` with the
    /// simulator untouched when the event loop must run instead.
    pub(super) fn run_levelized(&mut self, limit: u64) -> Option<u64> {
        let nl = std::sync::Arc::clone(&self.nl);
        debug_assert!(nl.is_levelizable());
        let upsets = &self.upsets[self.next_upset..];
        let depth0 = self.pending_events() as u64;
        if depth0 == 0 && upsets.is_empty() {
            return Some(self.now_ps);
        }

        // Pre-run events in dispatch order: by time, the far list
        // before a wheel bucket, each in push order.
        let far = &self.far[self.far_next..];
        let mut pending: Vec<(u64, bool, usize, super::Ev)> = far
            .iter()
            .enumerate()
            .map(|(i, &ev)| (ev.t_ps, false, i, ev))
            .collect();
        pending.extend(
            self.wheel
                .events()
                .into_iter()
                .enumerate()
                .map(|(i, ev)| (ev.t_ps, true, i, ev)),
        );
        pending.sort_unstable_by_key(|p| (p.0, p.1, p.2));
        let mut pre: Vec<(u32, Own)> = pending
            .iter()
            .enumerate()
            .map(|(rank, &(_, in_wheel, _, ev))| {
                let own = Own {
                    t: ev.t_ps,
                    k: rank as u64,
                    gen: ev.gen,
                    class: PRE,
                    value: ev.value,
                    far: !in_wheel,
                };
                (ev.wire, own)
            })
            .collect();
        pre.sort_unstable_by_key(|&(w, own)| (w, own.k));
        let mut ups: Vec<(u32, u64)> = upsets.iter().map(|&(t, w)| (w, t)).collect();
        ups.sort_by_key(|&(w, _)| w);
        let mut special = vec![0u64; nl.n_wires().div_ceil(64)];
        for w in pre.iter().map(|p| p.0).chain(ups.iter().map(|u| u.0)) {
            special[w as usize / 64] |= 1 << (w % 64);
        }

        let logged: Vec<usize> = self.watches.iter().map(|(_, log)| log.len()).collect();
        let mut pass = Levelized {
            nl: &nl,
            sources: nl.n_wires() - nl.n_gates(),
            wires: &mut self.wires,
            watches: &mut self.watches,
            mask: self.wheel.horizon_ps() - 1,
            limit,
            ring: Vec::new(),
            base: 0,
            live: VecDeque::new(),
            retired: 0,
            head_use: usize::MAX,
            inflight: Vec::new(),
            to: u64::MAX,
            items: Vec::new(),
            steps: Vec::new(),
            bucket_sums: vec![
                (u64::MAX, 0);
                (nl.n_wires() / 8)
                    .next_power_of_two()
                    .clamp(64, BUCKET_SUMS)
            ],
            undo: Vec::new(),
            fresh: vec![0; nl.n_wires().div_ceil(64)],
            flipped: vec![0; nl.n_wires().div_ceil(64)],
            pre,
            ups,
            special,
            counts: Counts::default(),
            max_t: 0,
        };
        let peak = pass
            .run()
            .and_then(|()| pass.peak(depth0, self.stats.peak_queue_depth));
        let Ok(peak) = peak else {
            for (i, &bits) in pass.fresh.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let w = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let ws = &mut pass.wires[w];
                    let v = ws.value ^ (pass.flipped[i] >> (w % 64) & 1 != 0);
                    (ws.value, ws.gen, ws.change_ps, ws.last_event_ps) = (v, 0, 0, 0);
                    ws.set(SCHEDULED, v);
                }
            }
            for &(w, ws) in pass.undo.iter().rev() {
                pass.wires[w as usize] = ws;
            }
            for ((_, log), &len) in pass.watches.iter_mut().zip(&logged) {
                log.truncate(len);
            }
            return None;
        };
        let (c, max_t) = (pass.counts, pass.max_t);
        let s = &mut self.stats;
        s.events_scheduled += c.scheduled;
        s.events_processed += c.processed;
        s.cancellations += c.cancellations;
        s.dead_events += c.dead;
        s.settle_iterations += c.settle;
        s.faults_injected += c.faults;
        s.peak_queue_depth = peak;
        self.now_ps = self.now_ps.max(max_t);
        self.wheel.clear();
        self.far.clear();
        self.far_next = 0;
        self.upsets.clear();
        self.next_upset = 0;
        Some(self.now_ps)
    }
}

impl Levelized<'_> {
    fn run(&mut self) -> Pass<()> {
        for w in 0..self.sources as u32 {
            self.wire(w, NONE, NONE)?;
        }
        for i in 0..self.nl.gates.len() {
            self.retire(i);
            let g = self.nl.gates[i];
            self.wire(g.out, g.in_a, g.in_b)?;
        }
        self.retire(usize::MAX);
        for (t, delta) in std::mem::take(&mut self.bucket_sums) {
            if t != u64::MAX {
                self.steps.push(Step::of(t, NEW, 0, false, delta));
            }
        }
        Ok(())
    }

    #[inline(always)]
    fn tr(&self, at: usize) -> Tr {
        self.ring[at - self.base]
    }

    /// Time of transition `i` of the `n` starting at ring index `s`.
    #[inline(always)]
    fn next_t(&self, s: usize, i: usize, n: usize) -> u64 {
        if i < n {
            self.ring[s + i - self.base].t
        } else {
            u64::MAX
        }
    }

    /// Time of upset `i`, the evaluated wire's last at `end - 1`.
    #[inline(always)]
    fn upset_t(&self, i: usize, end: usize) -> u64 {
        if i < end {
            self.ups[i].1
        } else {
            u64::MAX
        }
    }

    /// One past the index of the last gate reading wire `w`, 0 if
    /// nothing reads it: the last entry of its fanout row, since rows
    /// keep gate order.
    fn last_use(&self, w: usize) -> usize {
        let (start, end) = (self.nl.fanout_offsets[w], self.nl.fanout_offsets[w + 1]);
        if start == end {
            0
        } else {
            self.nl.rows[end as usize - 1].out as usize - self.sources + 1
        }
    }

    /// Retires, in wire order, every wire whose consumers all sit
    /// before gate `pos`: its transitions' depth steps are final, and
    /// the ring space is reclaimed.
    fn retire(&mut self, pos: usize) {
        let made = self.sources + pos.min(self.nl.gates.len());
        while self.retired < made {
            if self.head_use == usize::MAX {
                self.head_use = self.last_use(self.retired);
            }
            if self.head_use > pos {
                break;
            }
            self.head_use = usize::MAX;
            let (start, n) = self.live.pop_front().expect("produced wires are live");
            for at in start as usize..(start + n) as usize {
                let tr = self.tr(at);
                let pops = i64::from(tr.class != UPSET);
                let delta = i64::from(tr.pushes) - pops;
                if delta != 0 {
                    self.step(Step::of(tr.t, tr.class, tr.k, tr.far, delta));
                }
            }
            self.retired += 1;
        }
        let keep = self
            .live
            .front()
            .map_or(self.base + self.ring.len(), |l| l.0 as usize);
        let dead = keep - self.base;
        if dead > 4096 && 2 * dead > self.ring.len() {
            self.ring.drain(..dead);
            self.base = keep;
        }
    }

    /// Records a retired transition's step; wheel steps at one instant
    /// are summed before they are stored.
    fn step(&mut self, step: Step) {
        if step.class != STEP_WHEEL {
            self.steps.push(step);
            return;
        }
        let mask = self.bucket_sums.len() - 1;
        let slot = &mut self.bucket_sums[step.t as usize & mask];
        if slot.0 == step.t {
            slot.1 += step.delta;
        } else {
            let (t, delta) = std::mem::replace(slot, (step.t, step.delta));
            if t != u64::MAX {
                self.steps.push(Step::of(t, NEW, 0, false, delta));
            }
        }
    }

    /// Evaluates wire `o`, driven by the gate with inputs `a` and `b`
    /// (both [`NONE`] for a source, `b` alone for one-input kinds).
    fn wire(&mut self, o: u32, a: u32, b: u32) -> Pass<()> {
        let ow = o as usize;
        let start = self.base + self.ring.len();
        let Ok(start32) = u32::try_from(start) else {
            return Err(Bail);
        };
        let input = |w: u32| {
            if w == NONE {
                (0, 0)
            } else {
                self.live[w as usize - self.retired]
            }
        };
        let ((sa, na), (sb, nb)) = (input(a), input(b));
        let special = self.special[ow / 64] >> (ow % 64) & 1 != 0;
        if na == 0 && nb == 0 && !special {
            self.live.push_back((start32, 0));
            return Ok(());
        }
        // An input's value before its first transition.
        let before = |w: u32, s: u32, n: u32| match (w, n) {
            (NONE, _) => false,
            (_, 0) => self.wires[w as usize].value,
            _ => !self.tr(s as usize).value,
        };
        let ws = self.wires[ow];
        let mut st = Local {
            ws,
            va: before(a, sa, na),
            vb: before(b, sb, nb),
            now: 0,
        };
        self.inflight.clear();
        let (mut iu, mut u_end) = (0, 0);
        if special {
            let lo = self.pre.partition_point(|p| p.0 < o);
            let hi = self.pre.partition_point(|p| p.0 <= o);
            self.inflight.extend(self.pre[lo..hi].iter().map(|p| p.1));
            iu = self.ups.partition_point(|u| u.0 < o);
            u_end = self.ups.partition_point(|u| u.0 <= o);
        }
        let (sa, sb) = (sa as usize, sb as usize);
        let (na, nb) = (na as usize, nb as usize);
        let (mut ia, mut ib) = (0, 0);
        let mut ta = self.next_t(sa, 0, na);
        let mut tb = self.next_t(sb, 0, nb);
        let mut tu = self.upset_t(iu, u_end);
        self.to = self.inflight.iter().map(|e| e.t).min().unwrap_or(u64::MAX);
        loop {
            let t = ta.min(tb).min(tu).min(self.to);
            if t == u64::MAX {
                break;
            }
            if t > self.limit {
                return Err(Bail);
            }
            st.now = t;
            // The common case: one item at this instant.
            if ta == t {
                if tb != t && tu != t && self.to != t && self.next_t(sa, ia + 1, na) != t {
                    self.input(&mut st, sa + ia, false)?;
                    ia += 1;
                    ta = self.next_t(sa, ia, na);
                    continue;
                }
            } else if tb == t {
                if tu != t && self.to != t && self.next_t(sb, ib + 1, nb) != t {
                    self.input(&mut st, sb + ib, true)?;
                    ib += 1;
                    tb = self.next_t(sb, ib, nb);
                    continue;
                }
            } else if tu == t {
                if self.to != t && self.upset_t(iu + 1, u_end) != t {
                    self.upset(&mut st, o);
                    iu += 1;
                    tu = self.upset_t(iu, u_end);
                    continue;
                }
            } else if self.inflight.len() == 1 {
                let ev = self.inflight.pop().expect("one event in flight");
                self.to = u64::MAX;
                self.own(&mut st, o, ev);
                continue;
            } else if self.inflight.iter().filter(|e| e.t == t).count() == 1 {
                let j = self
                    .inflight
                    .iter()
                    .position(|e| e.t == t)
                    .expect("one is due");
                let ev = self.inflight.remove(j);
                self.to = self.inflight.iter().map(|e| e.t).min().unwrap_or(u64::MAX);
                self.own(&mut st, o, ev);
                continue;
            }
            let mut items = std::mem::take(&mut self.items);
            items.clear();
            while self.upset_t(iu, u_end) == t {
                items.push(Item {
                    key: (UPSET, u64::from(o)),
                    what: What::Upset,
                });
                iu += 1;
            }
            while self.next_t(sa, ia, na) == t {
                let key = self.tr(sa + ia).key();
                items.push(Item {
                    key,
                    what: What::Input {
                        at: sa + ia,
                        b: false,
                    },
                });
                ia += 1;
            }
            while self.next_t(sb, ib, nb) == t {
                let key = self.tr(sb + ib).key();
                items.push(Item {
                    key,
                    what: What::Input {
                        at: sb + ib,
                        b: true,
                    },
                });
                ib += 1;
            }
            let mut j = 0;
            while j < self.inflight.len() {
                if self.inflight[j].t == t {
                    let ev = self.inflight.remove(j);
                    items.push(Item {
                        key: (ev.class, ev.k),
                        what: What::Own(ev),
                    });
                } else {
                    j += 1;
                }
            }
            let done = self.group(&mut st, o, &mut items);
            self.items = items;
            done?;
            (ta, tb, tu) = (
                self.next_t(sa, ia, na),
                self.next_t(sb, ib, nb),
                self.upset_t(iu, u_end),
            );
            self.to = self.inflight.iter().map(|e| e.t).min().unwrap_or(u64::MAX);
        }
        self.max_t = self.max_t.max(st.now);
        let produced = self.base + self.ring.len() - start;
        let fanout = self.nl.fanout_offsets[ow + 1] - self.nl.fanout_offsets[ow];
        self.counts.settle += produced as u64 * u64::from(fanout);
        self.live.push_back((start32, produced as u32));
        if ws.gen == 0
            && ws.change_ps == 0
            && ws.last_event_ps == 0
            && ws.has(SCHEDULED) == ws.value
        {
            self.fresh[ow / 64] |= 1 << (ow % 64);
            if st.ws.value != ws.value {
                self.flipped[ow / 64] |= 1 << (ow % 64);
            }
        } else {
            self.undo.push((o, ws));
        }
        self.wires[ow] = st.ws;
        Ok(())
    }

    /// Applies same-instant items in tie-key order. Items from one
    /// stream keep their order; two items from different streams with
    /// the same push time are applied both ways round, and must agree.
    fn group(&mut self, st: &mut Local, o: u32, items: &mut [Item]) -> Pass<()> {
        items.sort_by_key(|item| item.key);
        let mut tie = None;
        let mut i = 0;
        while i < items.len() {
            let mut j = i + 1;
            while j < items.len() && items[j].key == items[i].key {
                j += 1;
            }
            let mixed = items[i..j].iter().any(|x| x.source() != items[i].source());
            if items[i].key.0 == NEW && mixed {
                if j - i != 2 || tie.is_some() {
                    return Err(Bail);
                }
                tie = Some(i);
            }
            i = j;
        }
        let Some(i) = tie else {
            for &item in items.iter() {
                self.apply(st, o, item)?;
            }
            return Ok(());
        };
        if items.len() == 2 && self.inert_input_tie(st, items[0], items[1]) {
            for &item in items.iter() {
                self.apply(st, o, item)?;
            }
            return Ok(());
        }
        let mark = Mark {
            st: *st,
            counts: self.counts,
            inflight: self.inflight.clone(),
            ring: self.ring.len(),
            steps: self.steps.len(),
            logged: self.log_len(o),
        };
        let pushes: Vec<u32> = items.iter().map(|it| self.pushes_of(it)).collect();
        for &item in items.iter() {
            self.apply(st, o, item)?;
        }
        let first = self.effects(st, o, &mark);
        let first_pushes: Vec<(usize, u32)> = items
            .iter()
            .filter_map(|it| match it.what {
                What::Input { at, .. } => Some((at, self.tr(at).pushes)),
                _ => None,
            })
            .collect();
        // Roll back, then the other order.
        *st = mark.st;
        self.counts = mark.counts;
        self.inflight.clone_from(&mark.inflight);
        self.ring.truncate(mark.ring);
        self.steps.truncate(mark.steps);
        self.truncate_log(o, mark.logged);
        for (item, &p) in items.iter().zip(&pushes) {
            self.set_pushes(item, p);
        }
        items.swap(i, i + 1);
        for &item in items.iter() {
            self.apply(st, o, item)?;
        }
        if self.effects(st, o, &mark) != first {
            return Err(Bail);
        }
        // The same pushes, or pushes moved only between dispatches of
        // one wheel bucket, which the depth sum cannot tell apart.
        for &(at, before) in &first_pushes {
            let tr = self.tr(at);
            if tr.pushes != before && (tr.far || tr.class == UPSET) {
                return Err(Bail);
            }
        }
        Ok(())
    }

    /// Whether a tie between the two inputs of a two-input kind, the
    /// instant's only items, is settled without trying both orders:
    /// when the first evaluation sees the same output either way
    /// round, both orders schedule the same changes, and only which of
    /// the two same-bucket dispatches pushed differs — which nothing
    /// observes.
    fn inert_input_tie(&self, st: &Local, x: Item, y: Item) -> bool {
        let (What::Input { at: i, b: xb }, What::Input { at: j, .. }) = (x.what, y.what) else {
            return false;
        };
        let kind = st.ws.kind();
        let (tx, ty) = (self.tr(i), self.tr(j));
        if kind & TWO_INPUT == 0 || tx.far || tx.class == UPSET {
            return false;
        }
        let (a, b) = if xb {
            (ty.value, tx.value)
        } else {
            (tx.value, ty.value)
        };
        truth(kind, a, st.vb) == truth(kind, st.va, b)
    }

    fn effects(&self, st: &Local, o: u32, mark: &Mark) -> Effects {
        Effects {
            st: *st,
            counts: self.counts,
            inflight: self.inflight.clone(),
            produced: self.ring[mark.ring..].to_vec(),
            steps: self.steps[mark.steps..].to_vec(),
            logged: self
                .log(o)
                .map_or_else(Vec::new, |log| log[mark.logged..].to_vec()),
        }
    }

    fn pushes_of(&self, item: &Item) -> u32 {
        match item.what {
            What::Input { at, .. } => self.tr(at).pushes,
            _ => 0,
        }
    }

    fn set_pushes(&mut self, item: &Item, pushes: u32) {
        if let What::Input { at, .. } = item.what {
            let base = self.base;
            self.ring[at - base].pushes = pushes;
        }
    }

    fn log(&self, o: u32) -> Option<&Vec<(u64, bool)>> {
        let pos = self.watches.binary_search_by_key(&o, |e| e.0).ok()?;
        Some(&self.watches[pos].1)
    }

    fn log_len(&self, o: u32) -> usize {
        self.log(o).map_or(0, Vec::len)
    }

    fn truncate_log(&mut self, o: u32, len: usize) {
        if let Ok(pos) = self.watches.binary_search_by_key(&o, |e| e.0) {
            self.watches[pos].1.truncate(len);
        }
    }

    /// Applies one item at instant `st.now`, exactly as the event loop
    /// would dispatch it.
    fn apply(&mut self, st: &mut Local, o: u32, item: Item) -> Pass<()> {
        match item.what {
            What::Upset => self.upset(st, o),
            What::Own(ev) => self.own(st, o, ev),
            What::Input { at, b } => self.input(st, at, b)?,
        }
        Ok(())
    }

    /// An upset of `o`: the event loop's `force_wire` with the value
    /// flipped.
    fn upset(&mut self, st: &mut Local, o: u32) {
        self.counts.faults += 1;
        let v = !st.ws.value;
        st.ws.gen = st.ws.gen.wrapping_add(1);
        st.ws.set(SCHEDULED, v);
        st.ws.last_event_ps = st.now;
        self.change(st, o, v, (UPSET, u64::from(o)), false);
    }

    /// A dispatch of `o`'s own event: the event loop's `apply`.
    #[inline(always)]
    fn own(&mut self, st: &mut Local, o: u32, ev: Own) {
        if ev.gen != st.ws.gen || st.ws.value == ev.value {
            self.counts.dead += 1;
            self.steps.push(Step::of(ev.t, ev.class, ev.k, ev.far, -1));
        } else {
            self.counts.processed += 1;
            self.change(st, o, ev.value, (ev.class, ev.k), ev.far);
        }
    }

    /// An input change, ring index `at`, reaching the driver of the
    /// evaluated wire.
    #[inline(always)]
    fn input(&mut self, st: &mut Local, at: usize, b: bool) -> Pass<()> {
        let v = self.tr(at).value;
        let other = if b {
            st.vb = v;
            st.va
        } else {
            st.va = v;
            st.vb
        };
        let pushed = self.eval(st, v, other)?;
        let base = self.base;
        self.ring[at - base].pushes += pushed;
        Ok(())
    }

    /// An applied change of `o` to `v` at `st.now` (its settle
    /// iterations are counted once per wire, in [`Levelized::wire`]).
    #[inline(always)]
    fn change(&mut self, st: &mut Local, o: u32, v: bool, key: Key, far: bool) {
        st.ws.value = v;
        st.ws.change_ps = st.now;
        if st.ws.has(WATCHED) {
            let pos = self
                .watches
                .binary_search_by_key(&o, |e| e.0)
                .expect("watched wire has a log");
            self.watches[pos].1.push((st.now, v));
        }
        self.ring.push(Tr {
            t: st.now,
            k: key.1,
            pushes: 0,
            class: key.0,
            value: v,
            far,
        });
    }

    /// The driver of `o` sees one input now at `in_val`, the other at
    /// `other`: the event loop's gate evaluation. Returns the pushes.
    #[inline(always)]
    fn eval(&mut self, st: &mut Local, in_val: bool, other: bool) -> Pass<u32> {
        let (rise, fall) = (u64::from(st.ws.d_rise), u64::from(st.ws.d_fall));
        let kind = st.ws.kind();
        let mut pushed = 0;
        if kind == GateKind::OneShot as u8 {
            if in_val {
                pushed += self.schedule(st, rise, true)?;
                pushed += self.schedule(st, rise + fall, false)?;
            }
        } else if kind == GateKind::Buffer as u8 || kind == GateKind::Inverter as u8 {
            let out = in_val ^ (kind == GateKind::Inverter as u8);
            pushed += self.schedule(st, if out { rise } else { fall }, out)?;
        } else if kind & TWO_INPUT != 0 {
            let out = truth(kind, in_val, other);
            if st.ws.has(SCHEDULED) != out {
                pushed += self.schedule(st, if out { rise } else { fall }, out)?;
            }
        } else {
            debug_assert_eq!(
                kind,
                GateKind::CElement as u8,
                "registers are not levelized"
            );
            if in_val == other && st.ws.has(SCHEDULED) != in_val {
                pushed += self.schedule(st, rise, in_val)?;
            }
        }
        Ok(pushed)
    }

    /// The event loop's `schedule_output` + `schedule_change` on the
    /// evaluated wire. Returns the pushes (0 or 1).
    #[inline(always)]
    fn schedule(&mut self, st: &mut Local, delay: u64, value: bool) -> Pass<u32> {
        let now = st.now;
        let t = now.checked_add(delay).ok_or(Bail)?;
        let ws = &mut st.ws;
        if ws.has(STUCK) {
            return Ok(0);
        }
        let t = if ws.delay_scale == 100 {
            t
        } else {
            let scaled = delay.checked_mul(u64::from(ws.delay_scale)).ok_or(Bail)?;
            now.checked_add(scaled / 100).ok_or(Bail)?
        };
        if t == now {
            return Err(Bail);
        }
        let last = ws.last_event_ps;
        let too_close = last > 0 && t.saturating_sub(last) < ws.inertial_window_ps();
        if t < last || value == ws.has(SCHEDULED) || too_close {
            ws.gen = ws.gen.wrapping_add(1);
            self.counts.cancellations += 1;
            if value == ws.value {
                ws.set(SCHEDULED, value);
                ws.last_event_ps = t;
                return Ok(0);
            }
        }
        ws.set(SCHEDULED, value);
        ws.last_event_ps = t;
        self.to = self.to.min(t);
        self.inflight.push(Own {
            t,
            k: now,
            gen: ws.gen,
            class: NEW,
            value,
            far: t - now > self.mask,
        });
        self.counts.scheduled += 1;
        Ok(1)
    }

    /// The peak queue depth: the starting `peak`, or the largest
    /// pending count at the end of a dispatch step, whichever is
    /// larger.
    fn peak(&mut self, depth0: u64, peak: u64) -> Pass<u64> {
        let mut best = peak as i64;
        window_peak(std::mem::take(&mut self.steps), depth0 as i64, &mut best)?;
        Ok(best as u64)
    }
}

/// Raises `best` to the largest depth at a step end among `steps` —
/// the steps of one stretch of time, in any order, entered at depth
/// `start`. The depth at the end of a time window does not depend on
/// the order of the steps inside it, so a stretch is cut into windows
/// and only a window whose start depth plus its positive steps could
/// beat `best` is looked into, down to a few steps or one instant,
/// which are sorted into dispatch order.
fn window_peak(mut steps: Vec<Step>, start: i64, best: &mut i64) -> Pass<()> {
    let (lo, hi) = steps
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), s| (lo.min(s.t), hi.max(s.t)));
    if steps.len() <= 64 || lo == hi {
        steps.sort_unstable_by_key(Step::order);
        let mut depth = start;
        for (i, s) in steps.iter().enumerate() {
            depth += s.delta;
            match steps.get(i + 1) {
                // One wheel bucket is one step.
                Some(n) if n.t == s.t && n.class == STEP_WHEEL && s.class == STEP_WHEEL => {}
                // Two steps the tie key cannot order: only equal
                // deltas make the order moot.
                Some(n) if n.order() == s.order() && n.delta != s.delta => return Err(Bail),
                _ => *best = (*best).max(depth),
            }
        }
        return Ok(());
    }
    let target = (steps.len() / 16) as u64;
    let shift = (64 - ((hi - lo) / target).leading_zeros()).min(63);
    let window = |t: u64| ((t - lo) >> shift) as usize;
    let n_win = window(hi) + 1;
    let (mut sum, mut up) = (vec![0i64; n_win], vec![0i64; n_win]);
    for s in &steps {
        let w = window(s.t);
        sum[w] += s.delta;
        up[w] += s.delta.max(0);
    }
    let mut depth = start;
    let mut starts = Vec::with_capacity(n_win);
    for &delta in &sum {
        starts.push(depth);
        depth += delta;
        *best = (*best).max(depth);
    }
    // Windows worth a closer look, each with its steps.
    let mut part = vec![u32::MAX; n_win];
    let mut parts: Vec<(usize, Vec<Step>)> = Vec::new();
    for w in 0..n_win {
        if starts[w] + up[w] > *best {
            part[w] = parts.len() as u32;
            parts.push((w, Vec::new()));
        }
    }
    for s in steps {
        let p = part[window(s.t)];
        if p != u32::MAX {
            parts[p as usize].1.push(s);
        }
    }
    for (w, inner) in parts {
        if starts[w] + up[w] > *best {
            window_peak(inner, starts[w], best)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Netlist;
    use crate::engine::RunBudget;
    use crate::faults::{gate_fault_words, inject_fault_words};
    use crate::inverter_string::{InverterString, InverterStringSpec};
    use crate::mesh::MeshSpec;
    use crate::time::SimTime;
    use sim_faults::{FaultPlan, FaultRates};
    use sim_runtime::{Rng, SimRng};
    use std::sync::Arc;

    fn ps(v: u64) -> SimTime {
        SimTime::from_ps(v)
    }

    /// Runs two simulators from `build`, one through the pass (which
    /// must not give up) and one through the event loop, and compares
    /// everything they expose.
    fn takes_the_pass(build: impl Fn() -> NetSim, limit: u64) {
        let (mut lev, mut ev) = (build(), build());
        let at = lev.run_levelized(limit).expect("the pass does not give up");
        let halt = ev.run_budgeted(RunBudget::new(ps(limit), u64::MAX));
        assert_eq!(halt, crate::engine::Halt::Quiescent { at: ps(at) });
        assert_eq!(lev.stats(), ev.stats());
        assert_eq!(lev.now(), ev.now());
        assert_eq!(lev.pending_events(), 0);
        for w in 0..lev.nl.n_wires() {
            let (a, b) = (lev.wires[w], ev.wires[w]);
            assert_eq!((a.value, a.change_ps), (b.value, b.change_ps), "wire {w}");
        }
    }

    /// The shapes e6 runs at a million gates — a pipelined inverter
    /// string and a mesh wave, nominal and faulted — at test size.
    #[test]
    fn e6_shaped_runs_take_the_pass() {
        let spec = InverterStringSpec {
            stages: 2_000,
            ..InverterStringSpec::paper_chip(1)
        };
        let chip = InverterString::fabricate(spec);
        let sealed = Arc::new(chip.netlist().seal());
        assert!(sealed.is_levelizable());
        assert_eq!(sealed.n_wires() - sealed.n_gates(), 1, "one source");
        let period = 2 * chip.worst_prefix_shrinkage_ps().unsigned_abs() + 8 * 8_000;
        takes_the_pass(
            || {
                let mut sim = NetSim::new(Arc::clone(&sealed));
                sim.watch(crate::WireId::from_index(2_000));
                sim.schedule_clock(
                    crate::WireId::from_index(0),
                    ps(10),
                    ps(period),
                    ps(period / 2),
                    2,
                );
                sim
            },
            u64::MAX,
        );
        let mesh = MeshSpec::square(60, 9).build();
        for rate in [0.0, 0.002, 0.02] {
            let plan = FaultPlan::new(9, 0, FaultRates::uniform(rate));
            let words = gate_fault_words(&plan, mesh.sealed());
            takes_the_pass(
                || {
                    let mut sim = NetSim::new(Arc::clone(mesh.sealed()));
                    let _ = inject_fault_words(&mut sim, &words, mesh.settle_limit());
                    sim.schedule_input(mesh.input(), ps(10), true);
                    sim
                },
                mesh.settle_limit().as_ps(),
            );
        }
    }

    /// Gates added out of wire order make an acyclic netlist that is
    /// not levelizable: `run_to_quiescence` takes the event loop and
    /// matches `run_budgeted` field for field.
    #[test]
    fn shuffled_gates_take_the_event_loop() {
        let mut nl = Netlist::new();
        let w: Vec<crate::WireId> = (0..5).map(|_| nl.add_wire()).collect();
        nl.add_inverter(w[3], w[4], ps(7), ps(9));
        nl.add_gate2(GateKind::Xor2, w[1], w[2], w[3], ps(5), ps(5));
        nl.add_buffer(w[0], w[1], ps(3), ps(4));
        nl.add_one_shot(w[0], w[2], ps(2), ps(6));
        let sealed = Arc::new(nl.seal());
        assert!(!sealed.is_levelizable(), "out-of-order gates");
        let build = || {
            let mut sim = NetSim::new(Arc::clone(&sealed));
            sim.watch(w[4]);
            for (k, t) in [10u64, 40, 70, 71].into_iter().enumerate() {
                sim.schedule_input(w[0], ps(t), k % 2 == 0);
            }
            sim
        };
        let (mut quiet, mut budgeted) = (build(), build());
        let at = quiet.run_to_quiescence(ps(10_000)).expect("quiesces");
        let halt = budgeted.run_budgeted(RunBudget::new(ps(10_000), u64::MAX));
        assert_eq!(halt, crate::engine::Halt::Quiescent { at });
        assert_eq!(quiet.stats(), budgeted.stats());
        assert_eq!(quiet.now(), budgeted.now());
        assert_eq!(quiet.transitions_ps(w[4]), budgeted.transitions_ps(w[4]));
        assert!(quiet.stats().events_processed > 0);
        for w in 0..sealed.n_wires() {
            let (a, b) = (quiet.wires[w], budgeted.wires[w]);
            assert_eq!((a.value, a.change_ps), (b.value, b.change_ps), "wire {w}");
        }
    }

    /// The windowed peak against one sort of every step.
    #[test]
    fn window_peak_matches_a_full_sort() {
        let mut rng = SimRng::seed_from_u64(3);
        for case in 0..200 {
            let n = rng.gen_range(1..2_000usize);
            let span = rng.gen_range(1..20_000u64);
            let steps: Vec<Step> = (0..n)
                .map(|_| {
                    let t = rng.gen_range(0..span) * rng.gen_range(1..4u64);
                    let delta = rng.gen_range(0..5i64) - 2;
                    Step::of(t, NEW, 0, rng.gen_bool(0.05), delta)
                })
                .collect();
            let mut sorted = steps.clone();
            sorted.sort_by_key(Step::order);
            // Far steps one by one; wheel steps summed per instant.
            let (mut depth, mut want) = (50i64, 50i64);
            for (i, s) in sorted.iter().enumerate() {
                depth += s.delta;
                let same_bucket = sorted
                    .get(i + 1)
                    .is_some_and(|n| n.t == s.t && n.class == STEP_WHEEL && s.class == STEP_WHEEL);
                if !same_bucket {
                    want = want.max(depth);
                }
            }
            let mut got = 50;
            match window_peak(steps, 50, &mut got) {
                Ok(()) => assert_eq!(got, want, "case {case}"),
                // Two far steps with one push time and different deltas.
                Err(Bail) => assert!(sorted
                    .windows(2)
                    .any(|p| p[0].order() == p[1].order() && p[0].delta != p[1].delta)),
            }
        }
    }
}
