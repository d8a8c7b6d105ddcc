//! TRIX-style self-stabilizing pulse propagation, plus the rigid
//! contrast model.
//!
//! The paper's Ω(n) lower bound (Theorem 6) applies to *static* clock
//! distribution: once the tree is laid out, a subtree that loses
//! pulses has no way to get them back. TRIX (PAPERS.md, arXiv
//! 2010.01415) attacks exactly that: pulses propagate through a
//! redundant layered grid, each node firing on the **median** of its
//! (width-3) predecessors' pulse times, so up to one faulty
//! in-neighbor per node is voted out and the grid re-synchronizes
//! itself after transient faults.
//!
//! [`TrixGrid`] is a tick-stepped phase-domain model of that scheme.
//! Node state is a clock *offset* (phase error against the reference,
//! in delay units); layer 0 is slaved to the reference, every later
//! node slews toward the median of its alive predecessors under a
//! per-tick slew limit (PLL-style re-lock). Faulty nodes are
//! **fail-silent**: they free-run (offset drifts) and their outputs
//! are excluded from successors' medians and from the skew
//! measurement — the containment a redundant grid buys. On repair a
//! node rejoins with whatever phase it drifted to and slews back,
//! which is where recovery latency comes from.
//!
//! [`RigidGrid`] models the no-adaptation alternative (an H-tree or
//! any passive distribution network): a faulty node's phase drifts
//! while its clock is gone and **stays displaced after repair** —
//! missed pulses are never made up, there is no mechanism to re-slew —
//! and nothing is contained, so the displaced node keeps counting
//! against the array's skew. Under the recovery harness this is the
//! scheme whose skew invariant never re-establishes.
//!
//! Determinism: all jitter and drift derive from `hash(seed, site)`
//! or `hash(seed, link, tick)` via SplitMix64
//! ([`signed_unit`](sim_runtime::signed_unit)), so a run is a pure
//! function of `(seed, fault schedule)` — byte-identical across
//! threads and query orders.
//!
//! Cost: everything that depends only on the seed and the shape — each
//! site's free-run drift and the first two hash rounds of each link's
//! jitter key ([`HashPrefix`]) — is computed once at construction. A
//! tick pays one `faulty` query per site, one hash round per live link,
//! and a median picked with integer `min`/`max` instead of a sort.

use sim_runtime::{from_total_order_key, total_order_key, HashPrefix, SplitMix64};

/// Key word of the free-run drift draws.
const DRIFT_KEY: u64 = 0x6472_6966;

/// Shape and physics of a [`TrixGrid`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrixParams {
    /// Grid rows (nodes per layer).
    pub rows: usize,
    /// Grid columns (layers); column 0 is slaved to the reference.
    pub cols: usize,
    /// Per-link, per-tick jitter half-amplitude on observed offsets.
    pub jitter: f64,
    /// Per-tick phase drift magnitude of a free-running (faulty) node.
    pub drift: f64,
    /// Largest per-tick offset correction (slew limit).
    pub max_step: f64,
}

impl TrixParams {
    /// The default physics for a `rows × cols` grid: jitter 0.02,
    /// free-run drift 0.05, slew limit 0.2 (all in delay units per
    /// tick).
    ///
    /// # Panics
    ///
    /// Panics on an empty grid.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "trix grid must be non-empty");
        TrixParams {
            rows,
            cols,
            jitter: 0.02,
            drift: 0.05,
            max_step: 0.2,
        }
    }
}

/// Free-run drift of each of `n` faulty sites: deterministic per site,
/// with magnitude in `[3·drift/4, drift]` and a site-dependent sign, so
/// concurrent outages spread the grid apart rather than marching it in
/// lockstep.
fn free_run_drifts(stream: u64, n: usize, drift: f64) -> Vec<f64> {
    let key = HashPrefix::new(stream, DRIFT_KEY);
    (0..n as u64)
        .map(|site| {
            let u = key.signed_unit(site);
            let mag = drift * (0.75 + 0.25 * u.abs());
            if u >= 0.0 {
                mag
            } else {
                -mag
            }
        })
        .collect()
}

/// Rows of row `r`'s width-3 predecessor window, clamped at the grid
/// edge.
fn window(r: usize, rows: usize) -> [usize; 3] {
    [r.saturating_sub(1), r, (r + 1).min(rows - 1)]
}

/// The value `sort_by(f64::total_cmp)` would leave at index `alive / 2`
/// of a predecessor window's `alive` (1–3) samples, given their
/// [`total_order_key`]s with each dead slot's key at `i64::MAX`: dead
/// slots sort last, so the answer is the middle key of the three for
/// two or three live samples and the smallest for one. Elements equal
/// under `total_cmp` are bit-equal, so the element picked is the sort's.
#[inline]
fn median(keys: [i64; 3], alive: usize) -> f64 {
    let [a, b, c] = keys;
    let (lo, hi) = (a.min(b), a.max(b));
    let key = if alive >= 2 { lo.max(hi.min(c)) } else { lo.min(c) };
    from_total_order_key(key)
}

/// The self-stabilizing pulse-propagation grid. See the module docs.
#[derive(Debug, Clone)]
pub struct TrixGrid {
    params: TrixParams,
    offsets: Vec<f64>,
    /// The previous tick's offsets; swapped with `offsets` every tick.
    prev: Vec<f64>,
    /// Each site's per-tick drift while it free-runs.
    free_drift: Vec<f64>,
    /// Each node's in-link jitter keys: the reference link in slot 0
    /// for layer 0, else the predecessor links of rows `r-1, r, r+1`
    /// (clamped at the grid edge).
    links: Vec<[HashPrefix; 3]>,
    /// This tick's fault snapshot, one entry per site.
    down: Vec<bool>,
    tick: u64,
}

impl TrixGrid {
    /// A grid in the synchronized state (all offsets 0), with jitter
    /// and drift streams derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an empty grid (`rows` or `cols` zero).
    #[must_use]
    pub fn new(seed: u64, params: TrixParams) -> Self {
        let TrixParams { rows, cols, .. } = params;
        assert!(rows > 0 && cols > 0, "trix grid must be non-empty");
        let stream = SplitMix64::new(seed).next_u64();
        let n = rows * cols;
        // A link is keyed by `1 + (site ^ source << 32)`; the reference
        // is source 0.
        let link = |site: usize, source: usize| {
            HashPrefix::new(
                stream,
                (site as u64 ^ ((source as u64) << 32)).wrapping_add(1),
            )
        };
        let links = (0..n)
            .map(|site| {
                let (r, c) = (site / cols, site % cols);
                if c == 0 {
                    [link(site, 0); 3]
                } else {
                    window(r, rows).map(|pr| link(site, pr * cols + c - 1))
                }
            })
            .collect();
        TrixGrid {
            params,
            offsets: vec![0.0; n],
            prev: vec![0.0; n],
            free_drift: free_run_drifts(stream, n, params.drift),
            links,
            down: vec![false; n],
            tick: 0,
        }
    }

    /// Node site id (the fault-plan site address) of `(row, col)`.
    #[must_use]
    pub fn site(&self, row: usize, col: usize) -> u64 {
        (row * self.params.cols + col) as u64
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the grid has no nodes (never true — the constructor
    /// rejects empty grids).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Current offset of node `site`.
    #[must_use]
    pub fn offset(&self, site: u64) -> f64 {
        self.offsets[site as usize]
    }

    /// Advances one tick. `faulty(site)` answers the *current* fault
    /// state (e.g. [`EpisodePlan::faulty_at`] partially applied at
    /// this tick). It is sampled exactly once per site per tick, in
    /// site order, and must be pure for that tick: the one snapshot
    /// decides both the update and the skew. Returns the post-step
    /// [`max_skew`](Self::max_skew).
    ///
    /// [`EpisodePlan::faulty_at`]: sim_faults::EpisodePlan::faulty_at
    pub fn step(&mut self, faulty: impl Fn(u64) -> bool) -> f64 {
        let TrixParams {
            rows,
            cols,
            jitter,
            max_step,
            ..
        } = self.params;
        std::mem::swap(&mut self.offsets, &mut self.prev);
        for (site, d) in self.down.iter_mut().enumerate() {
            *d = faulty(site as u64);
        }
        let tick = self.tick;
        let (prev, down) = (&self.prev, &self.down);
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if down[i] {
                    // Fail-silent: free-run; successors vote us out.
                    self.offsets[i] = prev[i] + self.free_drift[i];
                    continue;
                }
                let links = &self.links[i];
                let target = if c == 0 {
                    // Layer 0 hears the reference directly.
                    jitter * links[0].signed_unit(tick)
                } else {
                    // Median over the alive width-3 predecessor window
                    // in the previous layer.
                    let mut keys = [i64::MAX; 3];
                    let mut alive = 0;
                    let preds = window(r, rows).map(|pr| pr * cols + c - 1);
                    for ((p, link), key) in preds.into_iter().zip(links).zip(&mut keys) {
                        if !down[p] {
                            *key = total_order_key(prev[p] + jitter * link.signed_unit(tick));
                            alive += 1;
                        }
                    }
                    if alive == 0 {
                        // Every predecessor is down: hold phase.
                        prev[i]
                    } else {
                        median(keys, alive)
                    }
                };
                self.offsets[i] = prev[i] + (target - prev[i]).clamp(-max_step, max_step);
            }
        }
        self.tick += 1;
        self.max_skew(|site| self.down[site as usize])
    }

    /// Largest offset spread over the reference (phase 0) and every
    /// *alive* node — faulty nodes are contained and do not count
    /// until they rejoin.
    #[must_use]
    pub fn max_skew(&self, faulty: impl Fn(u64) -> bool) -> f64 {
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for site in 0..self.offsets.len() as u64 {
            if !faulty(site) {
                let v = self.offsets[site as usize];
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        hi - lo
    }
}

/// The no-adaptation contrast: a rigid distribution network (H-tree
/// style) in the same phase-domain model. See the module docs.
#[derive(Debug, Clone)]
pub struct RigidGrid {
    /// Each sink's per-tick drift while its clock is gone.
    free_drift: Vec<f64>,
    offsets: Vec<f64>,
}

impl RigidGrid {
    /// A rigid network over `nodes` sinks whose faulty sinks drift at
    /// per-tick magnitude `drift` (same free-run physics as
    /// [`TrixGrid`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty network.
    #[must_use]
    pub fn new(seed: u64, nodes: usize, drift: f64) -> Self {
        assert!(nodes > 0, "rigid grid must be non-empty");
        RigidGrid {
            free_drift: free_run_drifts(SplitMix64::new(seed).next_u64(), nodes, drift),
            offsets: vec![0.0; nodes],
        }
    }

    /// Number of clock sinks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the network has no sinks (never true — the constructor
    /// rejects empty networks).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Advances one tick: faulty sinks lose pulses (phase drifts),
    /// repaired sinks keep their displacement forever — a passive
    /// network has no re-slew path. `faulty` is sampled once per site
    /// per tick. Returns the post-step skew over **all** sinks (no
    /// containment either).
    pub fn step(&mut self, faulty: impl Fn(u64) -> bool) -> f64 {
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for (site, (v, drift)) in self.offsets.iter_mut().zip(&self.free_drift).enumerate() {
            if faulty(site as u64) {
                *v += drift;
            }
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_faults::{EpisodeConfig, EpisodePlan};
    use sim_runtime::{signed_unit, Rng, SimRng};
    use std::cell::Cell;

    const NONE: fn(u64) -> bool = |_| false;

    /// The pre-optimization `TrixGrid::step`, kept verbatim as the
    /// differential oracle: whole-vector clone per tick, a full
    /// three-round hash per link draw, repeated `faulty` queries, a
    /// per-tick drift re-hash and a sorting median.
    struct Reference {
        params: TrixParams,
        stream: u64,
        offsets: Vec<f64>,
        tick: u64,
    }

    fn sort_median(vals: &mut [f64]) -> f64 {
        vals.sort_by(f64::total_cmp);
        vals[vals.len() / 2]
    }

    impl Reference {
        fn new(seed: u64, params: TrixParams) -> Self {
            Reference {
                params,
                stream: SplitMix64::new(seed).next_u64(),
                offsets: vec![0.0; params.rows * params.cols],
                tick: 0,
            }
        }

        fn site(&self, row: usize, col: usize) -> u64 {
            (row * self.params.cols + col) as u64
        }

        fn free_run_drift(&self, site: u64) -> f64 {
            let u = signed_unit([self.stream, 0x64726966, site]);
            let mag = self.params.drift * (0.75 + 0.25 * u.abs());
            if u >= 0.0 {
                mag
            } else {
                -mag
            }
        }

        fn link_jitter(&self, site: u64, tick: u64) -> f64 {
            self.params.jitter * signed_unit([self.stream, site.wrapping_add(1), tick])
        }

        fn step(&mut self, faulty: impl Fn(u64) -> bool) -> f64 {
            let (rows, cols) = (self.params.rows, self.params.cols);
            let prev = self.offsets.clone();
            let tick = self.tick;
            for r in 0..rows {
                for c in 0..cols {
                    let site = self.site(r, c);
                    let i = site as usize;
                    if faulty(site) {
                        self.offsets[i] = prev[i] + self.free_run_drift(site);
                        continue;
                    }
                    let target = if c == 0 {
                        self.link_jitter(site, tick)
                    } else {
                        let mut preds = [0.0f64; 3];
                        let mut alive = 0;
                        for dr in -1i64..=1 {
                            let pr = (r as i64 + dr).clamp(0, rows as i64 - 1) as usize;
                            let psite = self.site(pr, c - 1);
                            if !faulty(psite) {
                                preds[alive] = prev[psite as usize]
                                    + self.link_jitter(site ^ (psite << 32), tick);
                                alive += 1;
                            }
                        }
                        if alive == 0 {
                            prev[i]
                        } else {
                            sort_median(&mut preds[..alive])
                        }
                    };
                    let step =
                        (target - prev[i]).clamp(-self.params.max_step, self.params.max_step);
                    self.offsets[i] = prev[i] + step;
                }
            }
            self.tick += 1;
            let mut lo = 0.0f64;
            let mut hi = 0.0f64;
            for site in 0..self.offsets.len() as u64 {
                if !faulty(site) {
                    let v = self.offsets[site as usize];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            hi - lo
        }
    }

    /// The pre-optimization `RigidGrid::step`.
    fn reference_rigid_step(stream: u64, drift: f64, offsets: &mut [f64], down: &[bool]) -> f64 {
        for site in 0..offsets.len() as u64 {
            if down[site as usize] {
                let u = signed_unit([stream, 0x64726966, site]);
                let mag = drift * (0.75 + 0.25 * u.abs());
                offsets[site as usize] += if u >= 0.0 { mag } else { -mag };
            }
        }
        let mut lo = 0.0f64;
        let mut hi = 0.0f64;
        for &v in offsets.iter() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        hi - lo
    }

    /// One tick's fault snapshot: each site down with probability
    /// `density`, plus (on odd ticks) one node whose whole predecessor
    /// window is forced down.
    fn fault_snapshot(rng: &mut SimRng, rows: usize, cols: usize, density: f64) -> Vec<bool> {
        let mut down: Vec<bool> = (0..rows * cols).map(|_| rng.gen_bool(density)).collect();
        if cols > 1 && rng.gen_bool(0.5) {
            let (r, c) = (rng.gen_range(0..rows), rng.gen_range(1..cols));
            for pr in [r.saturating_sub(1), r, (r + 1).min(rows - 1)] {
                down[pr * cols + c - 1] = true;
            }
            down[r * cols + c] = false;
        }
        down
    }

    #[test]
    fn step_matches_the_reference_kernel_bit_for_bit() {
        let shapes = [
            (1, 1),
            (1, 7),
            (7, 1),
            (2, 5),
            (5, 2),
            (3, 6),
            (6, 4),
            (4, 4),
        ];
        let mut rng = SimRng::seed_from_u64(0x7e1c);
        for (case, &(rows, cols)) in shapes.iter().enumerate() {
            for density in [0.0, 0.05, 0.3, 0.6, 0.9] {
                let seed = rng.next_u64();
                let params = TrixParams::new(rows, cols);
                let mut fast = TrixGrid::new(seed, params);
                let mut oracle = Reference::new(seed, params);
                let n = rows * cols;
                for tick in 0..200 {
                    // Outages come in bursts so nodes drift, rejoin
                    // displaced and re-slew.
                    let d = if (tick / 25) % 2 == 0 { density } else { 0.0 };
                    let down = fault_snapshot(&mut rng, rows, cols, d);
                    let calls: Vec<Cell<u32>> = (0..n).map(|_| Cell::new(0)).collect();
                    let got = fast.step(|s| {
                        calls[s as usize].set(calls[s as usize].get() + 1);
                        down[s as usize]
                    });
                    let want = oracle.step(|s| down[s as usize]);
                    let ctx = format!("case {case} {rows}x{cols} density {density} tick {tick}");
                    assert!(
                        calls.iter().all(|c| c.get() == 1),
                        "{ctx}: one query per site"
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: skew");
                    for site in 0..n {
                        assert_eq!(
                            fast.offset(site as u64).to_bits(),
                            oracle.offsets[site].to_bits(),
                            "{ctx}: offset of site {site}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rigid_step_matches_the_reference_kernel_bit_for_bit() {
        let mut rng = SimRng::seed_from_u64(0x416d);
        for nodes in [1, 2, 9, 64] {
            let seed = rng.next_u64();
            let mut fast = RigidGrid::new(seed, nodes, 0.05);
            let stream = SplitMix64::new(seed).next_u64();
            let mut offsets = vec![0.0; nodes];
            for _ in 0..300 {
                let down: Vec<bool> = (0..nodes).map(|_| rng.gen_bool(0.2)).collect();
                let calls = Cell::new(0usize);
                let got = fast.step(|s| {
                    calls.set(calls.get() + 1);
                    down[s as usize]
                });
                let want = reference_rigid_step(stream, 0.05, &mut offsets, &down);
                assert_eq!(calls.get(), nodes, "one query per sink");
                assert_eq!(got.to_bits(), want.to_bits());
                assert!(fast
                    .offsets
                    .iter()
                    .zip(&offsets)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn median_picks_what_the_sort_picks() {
        let mut rng = SimRng::seed_from_u64(5);
        // Few distinct values (ties, signed zeros) plus random ones.
        let pool = [0.0, -0.0, 1.0, -1.0, 0.5, f64::INFINITY];
        for _ in 0..20_000 {
            let len = rng.gen_range(1..=3usize);
            let vals: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            let mut keys = [i64::MAX; 3];
            for (key, &v) in keys.iter_mut().zip(&vals) {
                *key = total_order_key(v);
            }
            // Dead slots may sit anywhere in the window.
            keys.rotate_left(rng.gen_range(0..3usize));
            let mut sorted = vals.clone();
            let want = sort_median(&mut sorted).to_bits();
            assert_eq!(median(keys, len).to_bits(), want, "{vals:?}");
        }
    }

    #[test]
    #[should_panic(expected = "trix grid must be non-empty")]
    fn empty_grid_is_rejected_even_with_hand_built_params() {
        let params = TrixParams {
            rows: 0,
            ..TrixParams::new(1, 3)
        };
        let _ = TrixGrid::new(1, params);
    }

    #[test]
    #[should_panic(expected = "trix grid must be non-empty")]
    fn zero_column_grid_is_rejected() {
        let params = TrixParams {
            cols: 0,
            ..TrixParams::new(3, 1)
        };
        let _ = TrixGrid::new(1, params);
    }

    #[test]
    fn fault_free_grid_stays_locked() {
        let mut g = TrixGrid::new(3, TrixParams::new(4, 4));
        for _ in 0..200 {
            let skew = g.step(NONE);
            assert!(skew < 0.2, "nominal skew stays at jitter scale, got {skew}");
        }
    }

    #[test]
    fn steps_are_deterministic() {
        let run = || {
            let mut g = TrixGrid::new(11, TrixParams::new(4, 4));
            (0..100).map(|_| g.step(|s| s == 5)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn faulty_node_is_contained_then_recovers() {
        let params = TrixParams::new(4, 4);
        let mut g = TrixGrid::new(7, params);
        for _ in 0..50 {
            g.step(NONE);
        }
        // A 60-tick outage on an interior node: skew stays bounded
        // while the node is voted out...
        let victim = g.site(1, 2);
        for _ in 0..60 {
            let skew = g.step(|s| s == victim);
            assert!(skew < 0.2, "fail-silent containment, got {skew}");
        }
        let displaced = g.offset(victim).abs();
        assert!(displaced > 1.0, "free-run drifted the victim, got {displaced}");
        // ...the rejoin blows the invariant once...
        let skew = g.step(NONE);
        assert!(skew > 0.5, "rejoin exposes the displacement, got {skew}");
        // ...and the slew heals it in O(displacement / max_step).
        let budget = (displaced / params.max_step) as usize + 30;
        let mut healed = false;
        for _ in 0..budget {
            if g.step(NONE) < 0.2 {
                healed = true;
                break;
            }
        }
        assert!(healed, "victim must re-lock within {budget} ticks");
    }

    #[test]
    fn rigid_grid_never_heals() {
        let mut r = RigidGrid::new(7, 16, 0.05);
        for _ in 0..40 {
            r.step(|s| s == 3);
        }
        let after_outage = r.step(NONE);
        assert!(after_outage > 1.0, "outage displaced the sink");
        for _ in 0..500 {
            let skew = r.step(NONE);
            assert!(
                (skew - after_outage).abs() < 1e-12,
                "a rigid network never makes up missed pulses"
            );
        }
    }

    #[test]
    fn episode_plan_drives_the_step_closure() {
        let cfg = EpisodeConfig {
            rate: 0.4,
            min_duration: 20,
            max_duration: 40,
            horizon: 100,
        };
        let plan = EpisodePlan::new(5, 0, cfg);
        let mut g = TrixGrid::new(5, TrixParams::new(4, 4));
        for t in 0..160 {
            let skew = g.step(|s| plan.faulty_at(s, t));
            assert!(skew.is_finite());
        }
    }
}
