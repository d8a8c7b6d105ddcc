//! Bucketed calendar-wheel event scheduler.
//!
//! A binary heap pays `O(log n)` per event plus allocator churn; at
//! millions of events that is the hot path. The wheel exploits the
//! bounded `m ± ε` delay model instead: every gate
//! schedules at most `max_delay` picoseconds ahead, so with a
//! power-of-two horizon `W > max_delay` all pending events live in
//! the window `[now, now + W)` and the bucket index `t & (W − 1)` is
//! collision-free *per timestamp* — two pending events can only share
//! a bucket if they share an exact fire time.
//!
//! Buckets are therefore almost always empty or singletons, and the
//! wheel stores them that way: each bucket's first event sits inline
//! in one flat `heads` array, and only a second event at the same
//! fire time spills into that bucket's side `Vec` (flagged in a
//! `spilled` bitmap, so the common path never touches it). A sparse
//! run such as the 1M-inverter string, whose handful of pending events
//! cycles through every bucket, then costs one array slot per push
//! and pop rather than a separate heap allocation per bucket.
//! Dispatch takes the next non-empty bucket whole: its head, then its
//! spilled followers in push order.
//!
//! Finding that next bucket is the only non-trivial part. Sparse
//! equipotential runs (a 1M-inverter string with 8 ns stage delays)
//! would scan thousands of empty 1 ps buckets per event, so the wheel
//! keeps a two-level occupancy bitmap: one bit per bucket, one
//! summary bit per 64-bucket word. A cyclic scan from the cursor is
//! then two or three word probes with `trailing_zeros` — O(1) for any
//! realistic horizon (a 2²⁰-bucket wheel has 16 K words and 256
//! summary bits). [`Wheel::earliest`] scans once and returns the
//! bucket index; the caller reads its time and takes it by index.
//!
//! Events beyond the horizon (pre-scheduled clock edges whole periods
//! away, delay-fault scalings past nominal) are the *caller's*
//! problem: [`Wheel::fits`] tells the engine to divert them to its
//! sorted far list.

/// One scheduled value change. `gen` is checked against the wire's
/// generation counter at dispatch; stale events are dead on arrival
/// (the wheel never removes cancelled entries — cancellation is a
/// counter bump).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ev {
    pub t_ps: u64,
    pub wire: u32,
    pub gen: u32,
    pub value: bool,
}

/// Contents of a bucket slot whose occupancy bit is clear.
const VACANT: Ev = Ev {
    t_ps: 0,
    wire: 0,
    gen: 0,
    value: false,
};

/// The calendar wheel. See the module docs for the invariants.
#[derive(Debug)]
pub(crate) struct Wheel {
    mask: u64,
    /// Each bucket's first event; meaningful only while the bucket's
    /// occupancy bit is set.
    heads: Vec<Ev>,
    /// Same-time followers of each bucket's head, in push order;
    /// non-empty only while the bucket's `spilled` bit is set.
    spill: Vec<Vec<Ev>>,
    /// Occupancy: one bit per bucket.
    words: Vec<u64>,
    /// One bit per `words` entry.
    summary: Vec<u64>,
    /// One bit per bucket holding more than its head.
    spilled: Vec<u64>,
    len: usize,
}

impl Wheel {
    /// A wheel whose horizon strictly exceeds `max_delay_ps`
    /// (rounded up to a power of two, at least 64 buckets).
    pub fn with_horizon(max_delay_ps: u64) -> Wheel {
        let capacity = (max_delay_ps + 1).next_power_of_two().max(64);
        assert!(
            capacity <= 1 << 26,
            "calendar wheel horizon {capacity} ps is implausibly large \
             for a per-gate delay bound"
        );
        let capacity = capacity as usize;
        let n_words = capacity / 64;
        Wheel {
            mask: capacity as u64 - 1,
            heads: vec![VACANT; capacity],
            spill: vec![Vec::new(); capacity],
            words: vec![0u64; n_words],
            summary: vec![0u64; n_words.div_ceil(64)],
            spilled: vec![0u64; n_words],
            len: 0,
        }
    }

    /// Horizon in picoseconds.
    #[cfg(test)]
    pub fn horizon_ps(&self) -> u64 {
        self.mask + 1
    }

    /// Whether an event firing at `t_ps` may be pushed while the
    /// clock reads `now_ps`.
    pub fn fits(&self, now_ps: u64, t_ps: u64) -> bool {
        t_ps >= now_ps && t_ps - now_ps <= self.mask
    }

    /// Pending entries (dead events included).
    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes an event. The caller must have checked [`Wheel::fits`].
    pub fn push(&mut self, ev: Ev) {
        let b = (ev.t_ps & self.mask) as usize;
        let (word, bit) = (b / 64, 1u64 << (b % 64));
        if self.words[word] & bit == 0 {
            self.heads[b] = ev;
            self.words[word] |= bit;
            self.summary[word / 64] |= 1 << (word % 64);
        } else {
            debug_assert_eq!(
                self.heads[b].t_ps, ev.t_ps,
                "bucket collision across timestamps: horizon invariant broken"
            );
            self.spill[b].push(ev);
            self.spilled[word] |= bit;
        }
        self.len += 1;
    }

    /// The bucket holding the earliest pending events at or after
    /// `now_ps`, or `None` when the wheel is empty. Read its fire
    /// time with [`Wheel::time_at`] and dispatch it with
    /// [`Wheel::take`].
    pub fn earliest(&self, now_ps: u64) -> Option<usize> {
        (self.len > 0).then(|| self.next_occupied((now_ps & self.mask) as usize))
    }

    /// Fire time shared by every event in occupied bucket `b`.
    pub fn time_at(&self, b: usize) -> u64 {
        debug_assert!(
            self.words[b / 64] & (1 << (b % 64)) != 0,
            "bucket {b} is empty"
        );
        self.heads[b].t_ps
    }

    /// Empties occupied bucket `b`: returns its head and swaps its
    /// same-time followers into `rest` (which must be empty; it stays
    /// empty for a singleton bucket). Spill buffers circulate through
    /// `rest`, so steady-state dispatch does not allocate.
    pub fn take(&mut self, b: usize, rest: &mut Vec<Ev>) -> Ev {
        debug_assert!(rest.is_empty());
        let (word, bit) = (b / 64, 1u64 << (b % 64));
        debug_assert!(self.words[word] & bit != 0, "bucket {b} is empty");
        let head = self.heads[b];
        if self.spilled[word] & bit != 0 {
            std::mem::swap(&mut self.spill[b], rest);
            self.spilled[word] &= !bit;
            debug_assert!(rest.iter().all(|e| e.t_ps == head.t_ps));
        }
        self.words[word] &= !bit;
        if self.words[word] == 0 {
            self.summary[word / 64] &= !(1 << (word % 64));
        }
        self.len -= 1 + rest.len();
        head
    }

    /// Cyclic two-level bitmap scan: the first occupied bucket at or
    /// after `start`, wrapping. Caller guarantees `len > 0`.
    fn next_occupied(&self, start: usize) -> usize {
        let w0 = start / 64;
        // Tail of the word containing `start`.
        let tail = self.words[w0] >> (start % 64);
        if tail != 0 {
            return start + tail.trailing_zeros() as usize;
        }
        // Remaining words, via the summary bitmap, wrapping once.
        let n_words = self.words.len();
        let mut w = w0 + 1;
        for _ in 0..=self.summary.len() {
            if w >= n_words {
                w = 0;
            }
            let s_idx = w / 64;
            // Summary bits for words >= w within this summary word.
            let s = self.summary[s_idx] >> (w % 64);
            if s != 0 {
                let word = w + s.trailing_zeros() as usize;
                // `word` may equal w0 after wrapping: take its head too.
                let bits = self.words[word];
                debug_assert_ne!(bits, 0);
                return word * 64 + bits.trailing_zeros() as usize;
            }
            // Jump to the next summary word boundary.
            w = (s_idx + 1) * 64;
        }
        unreachable!("wheel len > 0 but no occupied bucket found");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_runtime::{Rng, SimRng};
    use std::collections::BTreeMap;

    fn ev(t_ps: u64, wire: u32) -> Ev {
        Ev {
            t_ps,
            wire,
            gen: 0,
            value: true,
        }
    }

    /// One dispatch step as the engine performs it: a single scan for
    /// the earliest bucket, then the whole bucket (head first, then
    /// its spilled followers) appended to `out`. Returns the bucket's
    /// fire time.
    fn pop_into(w: &mut Wheel, now_ps: u64, out: &mut Vec<Ev>) -> Option<u64> {
        let b = w.earliest(now_ps)?;
        let t = w.time_at(b);
        let mut rest = Vec::new();
        out.push(w.take(b, &mut rest));
        out.append(&mut rest);
        Some(t)
    }

    #[test]
    fn horizon_rounds_to_power_of_two() {
        assert_eq!(Wheel::with_horizon(1).horizon_ps(), 64);
        assert_eq!(Wheel::with_horizon(63).horizon_ps(), 64);
        assert_eq!(Wheel::with_horizon(64).horizon_ps(), 128);
        assert_eq!(Wheel::with_horizon(8_400).horizon_ps(), 16_384);
    }

    #[test]
    fn fits_is_the_horizon_window() {
        let w = Wheel::with_horizon(100); // horizon 128
        assert!(w.fits(1_000, 1_000));
        assert!(w.fits(1_000, 1_127));
        assert!(!w.fits(1_000, 1_128));
        assert!(!w.fits(1_000, 999));
    }

    #[test]
    fn pops_in_time_order_across_wrap() {
        let mut w = Wheel::with_horizon(100); // horizon 128
        // now = 100; events at 130 and 210 wrap around the wheel.
        w.push(ev(210, 1));
        w.push(ev(130, 2));
        w.push(ev(130, 3));
        assert_eq!(w.len(), 3);
        let mut out = Vec::new();
        assert_eq!(w.earliest(100).map(|b| w.time_at(b)), Some(130));
        assert_eq!(pop_into(&mut w, 100, &mut out), Some(130));
        // Same-time events keep push order (the seq discipline).
        assert_eq!(
            out.iter().map(|e| e.wire).collect::<Vec<_>>(),
            vec![2, 3]
        );
        out.clear();
        assert_eq!(pop_into(&mut w, 130, &mut out), Some(210));
        assert_eq!(out[0].wire, 1);
        out.clear();
        assert!(w.is_empty());
        assert_eq!(pop_into(&mut w, 210, &mut out), None);
    }

    #[test]
    fn sparse_scan_crosses_summary_words() {
        // Large wheel, single event far from the cursor: the scan
        // must hop summary words, not walk buckets.
        let mut w = Wheel::with_horizon(1 << 20); // horizon 2^21
        let now = 5u64;
        let t = now + (1 << 20) + 12_345;
        w.push(ev(t, 9));
        assert_eq!(w.earliest(now).map(|b| w.time_at(b)), Some(t));
        let mut out = Vec::new();
        assert_eq!(pop_into(&mut w, now, &mut out), Some(t));
        assert_eq!(out[0].wire, 9);
    }

    #[test]
    fn dense_same_bucket_reuse_after_drain() {
        let mut w = Wheel::with_horizon(100);
        let mut out = Vec::new();
        // Drain and refill the same bucket repeatedly, alternating a
        // singleton with a spilled pair; occupancy and spill bits must
        // track exactly.
        for round in 0u64..6 {
            let t = 130 + round * 128; // same bucket index every round
            let n = 1 + (round % 2) as usize;
            for k in 0..n {
                w.push(ev(t, (round * 10) as u32 + k as u32));
            }
            assert_eq!(pop_into(&mut w, t - 5, &mut out), Some(t));
            assert_eq!(out.len(), n);
            out.clear();
            assert!(w.is_empty());
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut w = Wheel::with_horizon(1_000); // horizon 1024
        let mut out = Vec::new();
        let mut now = 0u64;
        let mut fired = Vec::new();
        w.push(ev(3, 0));
        w.push(ev(700, 1));
        while let Some(t) = pop_into(&mut w, now, &mut out) {
            assert!(t >= now);
            now = t;
            for e in out.drain(..) {
                fired.push((e.t_ps, e.wire));
                // React: schedule further ahead, within horizon.
                if e.wire < 4 {
                    w.push(ev(t + 500, e.wire + 10));
                }
            }
        }
        assert_eq!(
            fired,
            vec![(3, 0), (503, 10), (700, 1), (1_200, 11)]
        );
    }

    /// Pops one bucket and checks it against the reference: the
    /// earliest pending time, every event at it, in `seq` order.
    /// Returns `false` once both are empty.
    fn pop_checked(w: &mut Wheel, reference: &mut BTreeMap<(u64, u64), Ev>, now: &mut u64) -> bool {
        let mut out = Vec::new();
        let Some(t) = pop_into(w, *now, &mut out) else {
            assert!(reference.is_empty(), "wheel empty, reference not");
            return false;
        };
        assert_eq!(
            reference.keys().next().map(|k| k.0),
            Some(t),
            "popped {t} early"
        );
        let expect: Vec<Ev> = reference
            .range((t, 0)..=(t, u64::MAX))
            .map(|(_, e)| *e)
            .collect();
        assert_eq!(out, expect, "bucket {t} contents or order");
        reference.retain(|&(rt, _), _| rt != t);
        *now = t;
        true
    }

    /// Randomized push/pop against a `(time, seq)`-ordered reference
    /// map — a binary heap's order. The mix forces every
    /// bucket shape: singletons, spilled same-time runs, wrap-around
    /// (the clock crosses the horizon many times), and a bucket index
    /// refilled at the current instant right after it drains, where a
    /// stale inline slot or occupancy bit would surface.
    #[test]
    fn random_push_pop_matches_time_seq_reference() {
        for seed in 0..16u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut w = Wheel::with_horizon(100); // horizon 128
            let mask = w.horizon_ps() - 1;
            let mut reference = BTreeMap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            let (mut spilled, mut refilled) = (0usize, 0usize);
            for _ in 0..4_000 {
                if rng.next_u64() % 10 < 4 {
                    pop_checked(&mut w, &mut reference, &mut now);
                } else {
                    let t = match rng.next_u64() % 4 {
                        // Join a pending bucket (spills it).
                        0 if !reference.is_empty() => {
                            spilled += 1;
                            let k = rng.next_u64() % reference.len() as u64;
                            reference.keys().nth(k as usize).unwrap().0
                        }
                        // The current instant: refills the bucket the
                        // last pop drained.
                        1 => {
                            refilled += 1;
                            now
                        }
                        // Anywhere in the window, the far edge included.
                        _ => now + rng.next_u64() % (mask + 1),
                    };
                    assert!(w.fits(now, t));
                    let e = ev(t, seq as u32);
                    w.push(e);
                    reference.insert((t, seq), e);
                    seq += 1;
                }
                assert_eq!(w.len(), reference.len(), "seed {seed}");
            }
            assert!(now > 8 * (mask + 1), "seed {seed}: clock never wrapped");
            assert!(
                spilled > 100 && refilled > 100,
                "seed {seed}: shapes not covered"
            );
            while pop_checked(&mut w, &mut reference, &mut now) {}
            assert!(w.is_empty());
        }
    }
}
