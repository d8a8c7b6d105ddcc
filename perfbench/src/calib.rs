//! Host-speed calibration: a fixed reference kernel timed between
//! operations.
//!
//! The hosts this benchmark runs on are shared, and their speed drifts
//! by tens of percent over minutes as neighbours come and go. Every
//! time the benchmark reports is therefore scaled by how fast the
//! reference kernel ran around it: `t * REF_MS / kernel_ms`, the time
//! the operation would have taken on a host where the kernel takes
//! [`REF_MS`]. The kernel is the benchmark's own code on `std` alone —
//! pointer chasing through a table larger than the last-level cache,
//! hash-map and allocation churn with string formatting, a binary heap
//! and a sort — so no change to the program under test can move it.
//!
//! A time of tens of microseconds is scaled by a short cut of the same
//! kernel instead (see [`Clock::short_factor`]): a host that lends the
//! CPU to a neighbour for a few milliseconds at a time slows a 25 ms
//! kernel by the share it lends, but leaves most 50 µs stretches, like
//! most short operations, untouched.

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time (ms) that normalized times are scaled to:
/// roughly what the kernel takes on an idle 2.1 GHz x86-64 core.
pub const REF_MS: f64 = 25.0;

/// Entries in the pointer-chasing table (16 MiB of `u32`).
const TABLE: usize = 1 << 22;
/// Dependent loads per kernel run.
const CHASES: usize = 1 << 16;
/// Hash-map updates per kernel run.
const UPDATES: u64 = 1 << 17;
/// Heap pushes per kernel run.
const PUSHES: u64 = 1 << 17;
/// Keys sorted per kernel run.
const SORT: u64 = 1 << 16;

/// Short-kernel time (ms) that short times are scaled to: what the
/// short kernel takes on the host where the full one takes [`REF_MS`]
/// (measured beside it on an idle shared x86-64 host, a ratio of about
/// 1 to 730).
pub const REF_SHORT_MS: f64 = 0.034;
/// The short kernel runs every loop of the full one 2^`SHORT_SHIFT`
/// times fewer times.
const SHORT_SHIFT: u32 = 9;
/// Short-kernel runs per [`Clock::short_factor`].
const SHORT_RUNS: usize = 31;

/// Tracks host speed across a run: each [`Clock::factor`] call runs the
/// kernel once and compares it with the previous run.
pub struct Clock {
    /// A single random cycle through `TABLE` slots.
    next: Vec<u32>,
    last_ms: f64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Clock {
    /// Builds the kernel's table and runs the kernel once.
    pub fn new() -> Self {
        let mut order: Vec<u32> = (0..TABLE as u32).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in (1..TABLE).rev() {
            order.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; TABLE];
        for w in 0..TABLE {
            next[order[w] as usize] = order[(w + 1) % TABLE];
        }
        let mut clock = Clock { next, last_ms: 0.0 };
        clock.last_ms = clock.kernel_ms();
        clock
    }

    /// One run of the reference kernel, in ms.
    fn kernel_ms(&self) -> f64 {
        self.kernel_part_ms(0)
    }

    /// One run of the reference kernel with every loop count divided
    /// by `2^shift`, in ms.
    fn kernel_part_ms(&self, shift: u32) -> f64 {
        let t0 = Instant::now();
        let mut p = 0u32;
        for _ in 0..CHASES >> shift {
            p = self.next[p as usize];
        }
        let mut x = 0x2545_f491_4f6c_dd1d ^ u64::from(p);
        let mut acc = 0u64;
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        for i in 0..UPDATES >> shift {
            let key = xorshift(&mut x) % (1 << 14);
            let slot = map.entry(key).or_default();
            slot.push(i);
            if slot.len() > 4 {
                acc = acc.wrapping_add(slot.iter().sum::<u64>());
                slot.clear();
            }
            if i % 64 == 0 {
                acc = acc.wrapping_add(format!("{{\"k\":{key},\"v\":{acc}}}").len() as u64);
            }
        }
        let mut heap = BinaryHeap::with_capacity(1 << 15);
        for i in 0..PUSHES >> shift {
            heap.push(std::cmp::Reverse(xorshift(&mut x) >> 40));
            if i >= 1 << 15 {
                acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
            }
        }
        let mut keys: Vec<u64> = (0..SORT >> shift).map(|i| i.wrapping_mul(x | 1) ^ acc).collect();
        keys.sort_unstable();
        black_box(&keys);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Runs the kernel again and returns the factor that scales a time
    /// measured since the previous run to reference-host time:
    /// `REF_MS` over the mean of the two kernel times.
    pub fn factor(&mut self) -> f64 {
        let now = self.kernel_ms();
        let f = REF_MS / ((self.last_ms + now) / 2.0);
        self.last_ms = now;
        f
    }

    /// The factor that scales a time of tens of microseconds to
    /// reference-host time: [`REF_SHORT_MS`] over the median of
    /// [`SHORT_RUNS`] runs of the short kernel, taken now.
    pub fn short_factor(&self) -> f64 {
        let mut runs: Vec<f64> = (0..SHORT_RUNS)
            .map(|_| self.kernel_part_ms(SHORT_SHIFT))
            .collect();
        runs.sort_by(f64::total_cmp);
        REF_SHORT_MS / runs[SHORT_RUNS / 2]
    }
}
