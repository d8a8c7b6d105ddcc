//! PALS-style offset exchange: neighbors trade local-clock offsets
//! and slew toward a fault-tolerant midpoint.
//!
//! Where TRIX propagates *pulses* through a layered grid, a PALS-style
//! scheme (physically asynchronous, logically synchronous) keeps a
//! mesh of free-running local clocks logically aligned by periodic
//! **offset exchange**: every round each node collects its neighbors'
//! current clock offsets, trims the extreme sample on each side
//! (Lynch–Welch style; its own post-drift offset is in the pool, so a
//! node never chases a single neighbor), and slews toward the midpoint
//! of the survivors under a per-round slew limit. The trim is what
//! tolerates an outlier; the midpoint — rather than a plain median —
//! is what keeps a displaced *cluster* from becoming a stable fixed
//! point that never erodes.
//!
//! PALS synchrony is *relative*: what matters is that neighboring
//! nodes agree on the round boundary, not that anyone tracks an
//! external phase. (The trim would vote out a single reference sample
//! exactly as it votes out a faulty outlier, so an absolute anchor is
//! not even expressible here — the mesh free-runs as an ensemble.)
//! The skew invariant is therefore the **internal spread**,
//! `max - min` offset over alive nodes, which grows with mesh diameter
//! the way gradient clock synchronization predicts but stays bounded
//! for a fixed size.
//!
//! Faulty nodes are fail-silent, exactly as in the TRIX model: they
//! stop exchanging (neighbors drop their samples), free-run with
//! amplified drift, and rejoin displaced on repair — after which the
//! exchange pulls them back at the slew limit while the trim keeps
//! their outlier samples from dragging healthy neighbors away. That
//! asymmetry (outliers are ignored, yet re-converge) is what makes
//! trimmed exchange self-stabilizing where plain averaging is not.
//!
//! Determinism matches the rest of the workspace: per-node drift and
//! per-link jitter derive from `hash(seed, site[, tick])`
//! ([`signed_unit`](sim_runtime::signed_unit)), so a run is a pure
//! function of `(seed, fault schedule)`.
//!
//! Cost: both per-node drifts and the first two hash rounds of each
//! exchange link's jitter key ([`HashPrefix`]) are fixed at
//! construction, so a round pays one `faulty` query per node, one hash
//! round per live link, and a trimmed midpoint picked with integer
//! `min`/`max` instead of a sort.

use sim_runtime::{from_total_order_key, total_order_key, HashPrefix, SplitMix64};

/// Shape and physics of a [`PalsMesh`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PalsParams {
    /// Mesh side: `k × k` nodes.
    pub k: usize,
    /// Healthy per-round oscillator drift half-amplitude (each node
    /// gets a fixed drift in `[-drift, drift)` per round).
    pub drift: f64,
    /// Free-run drift magnitude of a *faulty* node per round.
    pub fault_drift: f64,
    /// Per-link jitter half-amplitude on exchanged offsets.
    pub jitter: f64,
    /// Largest per-round correction (slew limit).
    pub max_slew: f64,
}

impl PalsParams {
    /// Default physics for a `k × k` mesh: healthy drift 0.005,
    /// faulty free-run 0.05, jitter 0.01, slew limit 0.2 per round —
    /// tuned so the internal spread of a healthy mesh stays under ~0.5
    /// up to `k = 16` while an episode's displacement lands well past
    /// 1.0.
    ///
    /// # Panics
    ///
    /// Panics on an empty mesh.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pals mesh must be non-empty");
        PalsParams {
            k,
            drift: 0.005,
            fault_drift: 0.05,
            jitter: 0.01,
            max_slew: 0.2,
        }
    }
}

/// Lynch–Welch style fault-tolerant midpoint of 1–5 samples: drop the
/// extreme sample on each side (when there are at least three, so the
/// trim never empties the pool), return the midpoint of what remains.
///
/// A plain median (own sample included) is *too* stubborn: a displaced
/// cluster's corner node sees two in-cluster and two out-cluster
/// samples, the median is its own value, and the cluster becomes a
/// stable fixed point that never erodes. Trimming one extreme per side
/// keeps single-outlier tolerance while the midpoint pulls minority
/// clusters back into the fold. With only two samples (a node isolated
/// down to one alive neighbor) nothing can be voted out and the
/// midpoint degrades to plain averaging — half-rate tracking beats
/// decoupling from the mesh entirely.
///
/// The survivors' ends are the two smallest and two largest samples
/// under `f64::total_cmp`, tracked with integer min/max — the same
/// elements a `total_cmp` sort would leave there (ties are bit-equal),
/// summed in the same order.
#[inline]
fn trimmed_midpoint(vals: &[f64]) -> f64 {
    let (mut lo1, mut lo2) = (i64::MAX, i64::MAX);
    let (mut hi1, mut hi2) = (i64::MIN, i64::MIN);
    for &v in vals {
        let k = total_order_key(v);
        lo2 = lo2.min(lo1.max(k));
        lo1 = lo1.min(k);
        hi2 = hi2.max(hi1.min(k));
        hi1 = hi1.max(k);
    }
    let (lo, hi) = if vals.len() >= 3 { (lo2, hi2) } else { (lo1, hi1) };
    (from_total_order_key(lo) + from_total_order_key(hi)) / 2.0
}

/// The offset-exchange mesh. See the module docs.
#[derive(Debug, Clone)]
pub struct PalsMesh {
    params: PalsParams,
    offsets: Vec<f64>,
    /// The previous round's offsets; swapped with `offsets` every round.
    prev: Vec<f64>,
    /// Each node's healthy per-round oscillator drift.
    drifts: Vec<f64>,
    /// Each node's per-round drift while it free-runs.
    free_drift: Vec<f64>,
    /// Exchange links as `(neighbor, jitter key)`, node `i`'s in
    /// `links[first[i]..first[i + 1]]` (up, down, left, right).
    links: Vec<(usize, HashPrefix)>,
    first: Vec<usize>,
    /// This round's fault snapshot, one entry per node.
    down: Vec<bool>,
    tick: u64,
}

impl PalsMesh {
    /// A mesh in the synchronized state, with per-node drifts and
    /// jitter streams derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an empty mesh (`k` zero).
    #[must_use]
    pub fn new(seed: u64, params: PalsParams) -> Self {
        let k = params.k;
        assert!(k > 0, "pals mesh must be non-empty");
        let stream = SplitMix64::new(seed).next_u64();
        let n = k * k;
        let osc = HashPrefix::new(stream, 0x6f_7363);
        let drifts = (0..n as u64)
            .map(|site| params.drift * osc.signed_unit(site))
            .collect();
        let free = HashPrefix::new(stream, 0x6472_6966);
        let free_drift = (0..n as u64)
            .map(|site| {
                let u = free.signed_unit(site);
                let mag = params.fault_drift * (0.75 + 0.25 * u.abs());
                if u >= 0.0 {
                    mag
                } else {
                    -mag
                }
            })
            .collect();
        let mut links = Vec::with_capacity(4 * n);
        let mut first = Vec::with_capacity(n + 1);
        for site in 0..n {
            first.push(links.len());
            let (r, c) = (site / k, site % k);
            let neighbors = [
                (r > 0).then(|| site - k),
                (r + 1 < k).then(|| site + k),
                (c > 0).then(|| site - 1),
                (c + 1 < k).then(|| site + 1),
            ];
            for nb in neighbors.into_iter().flatten() {
                let key = HashPrefix::new(stream, site as u64 ^ ((nb as u64) << 32));
                links.push((nb, key));
            }
        }
        first.push(links.len());
        PalsMesh {
            params,
            offsets: vec![0.0; n],
            prev: vec![0.0; n],
            drifts,
            free_drift,
            links,
            first,
            down: vec![false; n],
            tick: 0,
        }
    }

    /// Node site id of `(row, col)`.
    #[must_use]
    pub fn site(&self, row: usize, col: usize) -> u64 {
        (row * self.params.k + col) as u64
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the mesh has no nodes (never true — the constructor
    /// rejects empty meshes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Current offset of node `site`.
    #[must_use]
    pub fn offset(&self, site: u64) -> f64 {
        self.offsets[site as usize]
    }

    /// Advances one exchange round. `faulty(site)` answers the current
    /// fault state; it is sampled exactly once per node per round, in
    /// site order, and must be pure for that round: the one snapshot
    /// decides both the exchange and the skew. Returns the post-round
    /// [`max_skew`](Self::max_skew).
    pub fn step(&mut self, faulty: impl Fn(u64) -> bool) -> f64 {
        let PalsParams {
            jitter, max_slew, ..
        } = self.params;
        std::mem::swap(&mut self.offsets, &mut self.prev);
        for (site, d) in self.down.iter_mut().enumerate() {
            *d = faulty(site as u64);
        }
        let tick = self.tick;
        let (prev, down) = (&self.prev, &self.down);
        for i in 0..prev.len() {
            if down[i] {
                self.offsets[i] = prev[i] + self.free_drift[i];
                continue;
            }
            // The local oscillator ticks first...
            let mine = prev[i] + self.drifts[i];
            // ...then the exchange: own offset plus the alive
            // 4-neighbor samples.
            let mut samples = [0.0f64; 5];
            samples[0] = mine;
            let mut n = 1;
            for &(nb, key) in &self.links[self.first[i]..self.first[i + 1]] {
                if !down[nb] {
                    samples[n] = prev[nb] + jitter * key.signed_unit(tick);
                    n += 1;
                }
            }
            let target = trimmed_midpoint(&samples[..n]);
            self.offsets[i] = mine + (target - mine).clamp(-max_slew, max_slew);
        }
        self.tick += 1;
        self.max_skew(|site| self.down[site as usize])
    }

    /// Internal spread — `max - min` offset over alive nodes (0 when
    /// none are alive); faulty nodes are contained until they rejoin.
    #[must_use]
    pub fn max_skew(&self, faulty: impl Fn(u64) -> bool) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for site in 0..self.offsets.len() as u64 {
            if !faulty(site) {
                let v = self.offsets[site as usize];
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if hi >= lo {
            hi - lo
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_faults::{EpisodeConfig, EpisodePlan};
    use sim_runtime::{signed_unit, Rng, SimRng};
    use std::cell::Cell;

    const NONE: fn(u64) -> bool = |_| false;

    /// The pre-optimization `PalsMesh::step`, kept verbatim as the
    /// differential oracle: whole-vector clone per round, a full
    /// three-round hash per link draw, repeated `faulty` queries, a
    /// per-round drift re-hash and a sorting trimmed midpoint.
    struct Reference {
        params: PalsParams,
        stream: u64,
        offsets: Vec<f64>,
        drifts: Vec<f64>,
        tick: u64,
    }

    fn sort_trimmed_midpoint(vals: &mut [f64]) -> f64 {
        vals.sort_by(f64::total_cmp);
        let trim = usize::from(vals.len() >= 3);
        let inner = &vals[trim..vals.len() - trim];
        (inner[0] + inner[inner.len() - 1]) / 2.0
    }

    impl Reference {
        fn new(seed: u64, params: PalsParams) -> Self {
            let stream = SplitMix64::new(seed).next_u64();
            let n = params.k * params.k;
            let drifts = (0..n as u64)
                .map(|site| params.drift * signed_unit([stream, 0x6f7363, site]))
                .collect();
            Reference {
                params,
                stream,
                offsets: vec![0.0; n],
                drifts,
                tick: 0,
            }
        }

        fn site(&self, row: usize, col: usize) -> u64 {
            (row * self.params.k + col) as u64
        }

        fn free_run_drift(&self, site: u64) -> f64 {
            let u = signed_unit([self.stream, 0x64726966, site]);
            let mag = self.params.fault_drift * (0.75 + 0.25 * u.abs());
            if u >= 0.0 {
                mag
            } else {
                -mag
            }
        }

        fn step(&mut self, faulty: impl Fn(u64) -> bool) -> f64 {
            let k = self.params.k;
            let prev = self.offsets.clone();
            let tick = self.tick;
            for r in 0..k {
                for c in 0..k {
                    let site = self.site(r, c);
                    let i = site as usize;
                    if faulty(site) {
                        self.offsets[i] = prev[i] + self.free_run_drift(site);
                        continue;
                    }
                    let mine = prev[i] + self.drifts[i];
                    let mut samples = [0.0f64; 5];
                    let mut n = 0;
                    samples[n] = mine;
                    n += 1;
                    let neighbors = [
                        (r > 0).then(|| self.site(r - 1, c)),
                        (r + 1 < k).then(|| self.site(r + 1, c)),
                        (c > 0).then(|| self.site(r, c - 1)),
                        (c + 1 < k).then(|| self.site(r, c + 1)),
                    ];
                    for nb in neighbors.into_iter().flatten() {
                        if !faulty(nb) {
                            let jit = self.params.jitter
                                * signed_unit([self.stream, site ^ (nb << 32), tick]);
                            samples[n] = prev[nb as usize] + jit;
                            n += 1;
                        }
                    }
                    let target = sort_trimmed_midpoint(&mut samples[..n]);
                    let slew = (target - mine).clamp(-self.params.max_slew, self.params.max_slew);
                    self.offsets[i] = mine + slew;
                }
            }
            self.tick += 1;
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for site in 0..self.offsets.len() as u64 {
                if !faulty(site) {
                    let v = self.offsets[site as usize];
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            if hi >= lo {
                hi - lo
            } else {
                0.0
            }
        }
    }

    /// One round's fault snapshot: each node down with probability
    /// `density`, plus (half the time) one node whose every neighbor
    /// is forced down.
    fn fault_snapshot(rng: &mut SimRng, k: usize, density: f64) -> Vec<bool> {
        let mut down: Vec<bool> = (0..k * k).map(|_| rng.gen_bool(density)).collect();
        if rng.gen_bool(0.5) {
            let (r, c) = (rng.gen_range(0..k), rng.gen_range(0..k));
            for (nr, nc) in [
                (r.wrapping_sub(1), c),
                (r + 1, c),
                (r, c.wrapping_sub(1)),
                (r, c + 1),
            ] {
                if nr < k && nc < k {
                    down[nr * k + nc] = true;
                }
            }
            down[r * k + c] = false;
        }
        down
    }

    #[test]
    fn step_matches_the_reference_kernel_bit_for_bit() {
        let mut rng = SimRng::seed_from_u64(0x9a15);
        for k in 1..=8 {
            for density in [0.0, 0.05, 0.3, 0.6, 0.9] {
                let seed = rng.next_u64();
                let mut fast = PalsMesh::new(seed, PalsParams::new(k));
                let mut oracle = Reference::new(seed, PalsParams::new(k));
                let n = k * k;
                for tick in 0..200 {
                    // Outages come in bursts so nodes drift, rejoin
                    // displaced and re-align.
                    let d = if (tick / 25) % 2 == 0 { density } else { 0.0 };
                    let down = fault_snapshot(&mut rng, k, d);
                    let calls: Vec<Cell<u32>> = (0..n).map(|_| Cell::new(0)).collect();
                    let got = fast.step(|s| {
                        calls[s as usize].set(calls[s as usize].get() + 1);
                        down[s as usize]
                    });
                    let want = oracle.step(|s| down[s as usize]);
                    let ctx = format!("k {k} density {density} tick {tick}");
                    assert!(
                        calls.iter().all(|c| c.get() == 1),
                        "{ctx}: one query per node"
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: skew");
                    for site in 0..n {
                        assert_eq!(
                            fast.offset(site as u64).to_bits(),
                            oracle.offsets[site].to_bits(),
                            "{ctx}: offset of node {site}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn trimmed_midpoint_picks_what_the_sort_picks() {
        let mut rng = SimRng::seed_from_u64(6);
        // Few distinct values (ties, signed zeros, infinities) plus
        // random ones.
        let pool = [0.0, -0.0, 1.0, -1.0, 0.5, f64::INFINITY, f64::NEG_INFINITY];
        for _ in 0..20_000 {
            let len = rng.gen_range(1..=5usize);
            let vals: Vec<f64> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            let mut sorted = vals.clone();
            let want = sort_trimmed_midpoint(&mut sorted);
            let got = trimmed_midpoint(&vals);
            // NaN (inf + -inf) compares unequal to itself; bits agree.
            assert_eq!(got.to_bits(), want.to_bits(), "{vals:?}");
        }
    }

    #[test]
    #[should_panic(expected = "pals mesh must be non-empty")]
    fn empty_mesh_is_rejected_even_with_hand_built_params() {
        let params = PalsParams {
            k: 0,
            ..PalsParams::new(2)
        };
        let _ = PalsMesh::new(1, params);
    }

    #[test]
    fn fault_free_mesh_stays_synchronized() {
        let mut m = PalsMesh::new(3, PalsParams::new(4));
        for _ in 0..300 {
            let skew = m.step(NONE);
            assert!(skew < 0.15, "nominal spread stays bounded, got {skew}");
        }
        // The gradient property: bigger meshes spread more, but stay
        // bounded well under an episode's displacement.
        let mut big = PalsMesh::new(3, PalsParams::new(16));
        let mut worst = 0.0f64;
        for _ in 0..300 {
            worst = worst.max(big.step(NONE));
        }
        assert!(worst < 0.6, "k=16 spread bounded, got {worst}");
    }

    #[test]
    fn rounds_are_deterministic() {
        let run = || {
            let mut m = PalsMesh::new(11, PalsParams::new(4));
            (0..100).map(|_| m.step(|s| s == 5)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn outage_is_contained_and_rejoin_heals() {
        let params = PalsParams::new(4);
        let mut m = PalsMesh::new(7, params);
        for _ in 0..50 {
            m.step(NONE);
        }
        let victim = m.site(1, 2);
        for _ in 0..60 {
            let skew = m.step(|s| s == victim);
            assert!(skew < 0.15, "fail-silent containment, got {skew}");
        }
        // Displacement relative to the (ensemble-drifting) mesh.
        let displaced = (m.offset(victim) - m.offset(m.site(1, 1))).abs();
        assert!(displaced > 1.0, "free-run drifted the victim, got {displaced}");
        let skew = m.step(NONE);
        assert!(skew > 0.5, "rejoin exposes the displacement, got {skew}");
        let budget = (displaced / params.max_slew) as usize + 60;
        let mut healed = false;
        for _ in 0..budget {
            if m.step(NONE) < 0.15 {
                healed = true;
                break;
            }
        }
        assert!(healed, "victim must re-align within {budget} rounds");
    }

    #[test]
    fn trim_keeps_outliers_from_dragging_neighbors() {
        let mut m = PalsMesh::new(9, PalsParams::new(4));
        for _ in 0..50 {
            m.step(NONE);
        }
        let victim = m.site(0, 1);
        for _ in 0..80 {
            m.step(|s| s == victim);
        }
        // First rejoin round: the victim's healthy neighbors must not
        // jump toward its outlier sample.
        let nb = m.site(0, 0);
        let before = m.offset(nb);
        m.step(NONE);
        assert!(
            (m.offset(nb) - before).abs() < 0.1,
            "trimmed exchange ignores the outlier sample"
        );
    }

    #[test]
    fn episode_plan_drives_the_round_closure() {
        let cfg = EpisodeConfig {
            rate: 0.4,
            min_duration: 20,
            max_duration: 40,
            horizon: 100,
        };
        let plan = EpisodePlan::new(5, 0, cfg);
        let mut m = PalsMesh::new(5, PalsParams::new(4));
        for t in 0..160 {
            let skew = m.step(|s| plan.faulty_at(s, t));
            assert!(skew.is_finite());
        }
    }
}
