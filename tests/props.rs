//! Randomized property suite over the workspace's core invariants:
//! systolic algorithms against direct references, skew algebra on
//! random trees, layout invariants, and engine determinism.
//!
//! Formerly proptest-based; now a std-only deterministic sweep driven
//! by [`SimRng`] so the default feature set stays free of crates.io
//! dependencies. Each property runs `CASES` seeded cases; case `i` of
//! property `tag` always sees `SimRng::for_trial(tag, i)`, so failures
//! reproduce exactly. Gated behind `--features heavy-tests` (the suite
//! is the slowest in the repo).
#![cfg(feature = "heavy-tests")]

use sim_runtime::{Rng, SimRng};
use vlsi_sync_repro::prelude::*;

const CASES: u64 = 48;

/// One deterministic RNG per case of the named property.
fn cases(tag: u64) -> impl Iterator<Item = (u64, SimRng)> {
    (0..CASES).map(move |i| (i, SimRng::for_trial(tag, i)))
}

fn gen_vec(rng: &mut SimRng, len: usize, lo: i64, hi: i64) -> Vec<i64> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

// ---------------- systolic algorithms == references ----------------

#[test]
fn fir_equals_direct_convolution() {
    for (_, mut rng) in cases(1) {
        let wlen = rng.gen_range(1usize..8);
        let weights = gen_vec(&mut rng, wlen, -50, 50);
        // Ensure xs is at least as long as weights.
        let mut xs = weights.clone();
        let extra = rng.gen_range(0usize..24);
        xs.extend(gen_vec(&mut rng, extra, -50, 50));
        assert_eq!(
            SystolicFir::convolve(&weights, &xs),
            SystolicFir::reference(&weights, &xs)
        );
    }
}

#[test]
fn matvec_equals_direct_product() {
    for (_, mut rng) in cases(2) {
        let rows = rng.gen_range(1usize..6);
        let cols = rng.gen_range(1usize..6);
        let a: Vec<Vec<i64>> = (0..rows).map(|_| gen_vec(&mut rng, cols, -11, 12)).collect();
        let x = gen_vec(&mut rng, cols, -8, 9);
        assert_eq!(
            SystolicMatVec::multiply(&a, &x),
            SystolicMatVec::reference(&a, &x)
        );
    }
}

#[test]
fn matmul_equals_direct_product() {
    for (_, mut rng) in cases(3) {
        let n = rng.gen_range(1usize..5);
        let k = rng.gen_range(1usize..5);
        let m = rng.gen_range(1usize..5);
        let a: Vec<Vec<i64>> = (0..n).map(|_| gen_vec(&mut rng, k, -9, 10)).collect();
        let b: Vec<Vec<i64>> = (0..k).map(|_| gen_vec(&mut rng, m, -6, 7)).collect();
        assert_eq!(
            SystolicMatMul::multiply(&a, &b),
            SystolicMatMul::reference(&a, &b)
        );
    }
}

#[test]
fn sort_returns_sorted_permutation() {
    for (_, mut rng) in cases(4) {
        let len = rng.gen_range(1usize..24);
        let values = gen_vec(&mut rng, len, -1000, 1000);
        let sorted = OddEvenSorter::sort(&values);
        let mut expected = values.clone();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }
}

#[test]
fn tree_search_answers_membership() {
    for (_, mut rng) in cases(5) {
        let levels = rng.gen_range(1u32..5);
        let leaves = 1usize << levels;
        let offset = rng.gen_range(0i64..100);
        let keys: Vec<i64> = (0..leaves as i64).map(|i| (i * 7 + offset) % 64).collect();
        let qlen = rng.gen_range(1usize..20);
        let queries = gen_vec(&mut rng, qlen, 0, 64);
        let answers = TreeSearchMachine::search(&keys, &queries);
        for (q, found) in queries.iter().zip(&answers) {
            assert_eq!(*found, keys.contains(q), "query {q}");
        }
    }
}

// ---------------- skew algebra on random spines/trees ----------------

#[test]
fn skew_bounds_hold_on_random_linear_arrays() {
    for (_, mut rng) in cases(6) {
        let n = rng.gen_range(2usize..40);
        let eps_percent = rng.gen_range(1u32..50);
        let comm = CommGraph::linear(n);
        let layout = Layout::linear_row(&comm);
        let tree = htree(&comm, &layout);
        let model = WireDelayModel::new(1.0, f64::from(eps_percent) / 100.0);
        let rates = model.sample_rates(&tree, &mut rng);
        let arrivals = clock_tree::skew::ArrivalTimes::from_rates(&tree, &rates);
        for (a, b) in comm.communicating_pairs() {
            let observed = arrivals.skew(&tree, a, b);
            let worst = worst_case_skew(&tree, model, a, b);
            assert!(observed <= worst + 1e-9, "pair ({a},{b}): {observed} > {worst}");
        }
    }
}

#[test]
fn summation_lower_bound_below_upper_everywhere() {
    for (_, mut rng) in cases(7) {
        let rows = rng.gen_range(2usize..6);
        let cols = rng.gen_range(2usize..6);
        let comm = CommGraph::mesh(rows, cols);
        let layout = Layout::grid(&comm);
        let tree = htree(&comm, &layout);
        let model = SummationModel::from_delay_model(WireDelayModel::new(1.0, 0.2));
        for (a, b) in comm.communicating_pairs() {
            assert!(model.pair_lower(&tree, a, b) <= model.pair_upper(&tree, a, b) + 1e-9);
        }
        assert!(model.max_guaranteed_skew(&tree, &comm) <= model.max_skew(&tree, &comm) + 1e-9);
    }
}

// ---------------- layout invariants ----------------

#[test]
fn linear_layouts_validate_and_bound_wires() {
    for (_, mut rng) in cases(8) {
        let n = rng.gen_range(1usize..60);
        let tooth = rng.gen_range(1usize..12);
        let comm = CommGraph::linear(n);
        for layout in [
            Layout::linear_row(&comm),
            Layout::folded_linear(&comm),
            Layout::comb(&comm, tooth),
        ] {
            assert!(layout.validate(&comm).is_ok());
            assert!(layout.max_wire_length() <= 2.0 + 1e-9);
        }
    }
}

#[test]
fn htree_attaches_all_cells_on_any_grid() {
    for (_, mut rng) in cases(9) {
        let rows = rng.gen_range(1usize..8);
        let cols = rng.gen_range(1usize..8);
        let comm = CommGraph::mesh(rows, cols);
        let layout = Layout::grid(&comm);
        let tree = htree(&comm, &layout);
        assert!(tree.validate().is_ok());
        assert_eq!(tree.attached_cells().len(), rows * cols);
        // Equalization zeroes the difference metric for every pair.
        let tuned = tree.equalized();
        for (a, b) in comm.communicating_pairs() {
            assert!(tuned.difference_distance(a, b) < 1e-9);
        }
    }
}

#[test]
fn fold_embedding_injective_and_bounded() {
    for (_, mut rng) in cases(10) {
        let rows = rng.gen_range(1usize..5);
        let cols = rng.gen_range(1usize..40);
        let e = GridEmbedding::fold(rows, cols);
        let mut seen = std::collections::HashSet::new();
        for r in 0..rows {
            for c in 0..cols {
                assert!(seen.insert(e.image(r, c)), "collision at ({r},{c})");
            }
        }
        assert!(e.area_overhead() < 2.0 + 1e-9);
    }
}

// ---------------- more algorithms ----------------

#[test]
fn horner_equals_direct_evaluation() {
    for (_, mut rng) in cases(11) {
        let clen = rng.gen_range(1usize..7);
        let coeffs = gen_vec(&mut rng, clen, -20, 20);
        let plen = rng.gen_range(0usize..12);
        let points = gen_vec(&mut rng, plen, -10, 10);
        assert_eq!(
            SystolicHorner::evaluate(&coeffs, &points),
            SystolicHorner::reference(&coeffs, &points)
        );
    }
}

#[test]
fn priority_queue_matches_heap() {
    use std::collections::BinaryHeap;
    for (_, mut rng) in cases(12) {
        let olen = rng.gen_range(1usize..40);
        let op_codes: Vec<u8> = (0..olen).map(|_| rng.gen_range(0u8..100)).collect();
        // Derive a legal op sequence from the raw codes.
        let mut live = 0usize;
        let ops: Vec<PqOp> = op_codes
            .iter()
            .map(|&c| {
                if live > 0 && c < 45 {
                    live -= 1;
                    PqOp::ExtractMin
                } else {
                    live += 1;
                    PqOp::Insert(i64::from(c) * 7 % 50 - 25)
                }
            })
            .collect();
        let mut heap = BinaryHeap::new();
        let mut expected = Vec::new();
        for op in &ops {
            match op {
                PqOp::Insert(v) => heap.push(std::cmp::Reverse(*v)),
                PqOp::ExtractMin => expected.push(heap.pop().map(|r| r.0)),
            }
        }
        assert_eq!(SystolicPriorityQueue::run_ops(ops.len() + 1, &ops), expected);
    }
}

#[test]
fn hex_matmul_equals_direct_product() {
    for (_, mut rng) in cases(13) {
        let n = rng.gen_range(1usize..4);
        let a: Vec<Vec<i64>> = (0..n).map(|_| gen_vec(&mut rng, n, -8, 9)).collect();
        let b: Vec<Vec<i64>> = (0..n).map(|_| gen_vec(&mut rng, n, -6, 7)).collect();
        assert_eq!(HexMatMul::multiply(&a, &b), HexMatMul::reference(&a, &b));
    }
}

#[test]
fn trisolve_equals_forward_substitution() {
    for (_, mut rng) in cases(14) {
        let n = rng.gen_range(1usize..12);
        let w = rng.gen_range(1usize..5).min(n);
        let mut l = vec![vec![0i64; n]; n];
        for (i, row) in l.iter_mut().enumerate() {
            row[i] = 1;
            let lo = i.saturating_sub(w - 1);
            for cell in &mut row[lo..i] {
                *cell = rng.gen_range(-5i64..=5);
            }
        }
        let b: Vec<i64> = (0..n).map(|_| rng.gen_range(-30i64..=30)).collect();
        assert_eq!(SystolicTriSolve::solve(&l, &b, w), SystolicTriSolve::reference(&l, &b));
    }
}

#[test]
fn ring_spine_skew_constant() {
    for (_, mut rng) in cases(15) {
        let n = rng.gen_range(3usize..200);
        let comm = CommGraph::ring(n);
        let layout = Layout::folded_ring(&comm);
        let tree = spine_ring(&comm, &layout);
        let model = SummationModel::from_delay_model(WireDelayModel::new(1.0, 0.1));
        assert!(model.max_skew(&tree, &comm) <= 5.5 + 1e-9);
    }
}

#[test]
fn relayed_tree_machine_correct_for_any_spacing() {
    use systolic::relay::Relayed;
    for (_, mut rng) in cases(16) {
        let spacing_tenths = rng.gen_range(10u32..60);
        let levels = rng.gen_range(1u32..4);
        let leaves = 1usize << levels;
        let keys: Vec<i64> = (0..leaves as i64).map(|i| 2 * i).collect();
        let queries: Vec<i64> = (0..10).collect();
        let expected = TreeSearchMachine::search(&keys, &queries);
        let machine = TreeSearchMachine::new(&keys, &queries);
        let layout = Layout::htree_tree(machine.comm());
        let plan = layout.pipeline_register_plan(f64::from(spacing_tenths) / 10.0);
        let sub = machine.comm().subdivided(&plan);
        let mut exec = IdealExecutor::new(&sub.graph);
        let mut relayed = Relayed::new(machine, &sub);
        let cycles = 8 * (sub.graph.node_count() + queries.len() + 4);
        exec.run(&mut relayed, cycles);
        assert_eq!(relayed.inner().answers(), &expected[..]);
    }
}

// ---------------- simulator invariants ----------------

#[test]
fn netlist_chain_is_deterministic() {
    for (_, mut rng) in cases(17) {
        let dlen = rng.gen_range(2usize..12);
        let delays: Vec<u64> = (0..dlen).map(|_| rng.gen_range(1u64..500)).collect();
        let period = rng.gen_range(100u64..2000);
        let build = || {
            let mut nl = Netlist::new();
            let mut wires = vec![nl.add_wire()];
            for &d in &delays {
                let w = nl.add_wire();
                nl.add_buffer(
                    *wires.last().expect("non-empty"),
                    w,
                    SimTime::from_ps(d),
                    SimTime::from_ps(d.max(2) - 1),
                );
                wires.push(w);
            }
            let last = *wires.last().expect("non-empty");
            let mut sim = NetSim::from_netlist(nl);
            sim.watch(last);
            sim.schedule_clock(
                wires[0],
                SimTime::from_ps(5),
                SimTime::from_ps(period),
                SimTime::from_ps(period / 2),
                10,
            );
            sim.run_until(SimTime::from_ps(1_000_000));
            sim.transitions_ps(last).to_vec()
        };
        assert_eq!(build(), build());
    }
}

#[test]
fn inverter_string_survival_monotone() {
    for (_, mut rng) in cases(18) {
        let spec = InverterStringSpec {
            stages: 16,
            base_delay: SimTime::from_ps(500),
            bias_ps: rng.gen_range(0u64..80),
            discrepancy_std_ps: 5.0,
            seed: rng.gen_range(0u64..50),
        };
        let chip = InverterString::fabricate(spec);
        let min = chip.min_pipelined_period(3);
        // Survival is monotone in the period around the threshold.
        assert!(chip.pipelined_clock_survives(min, 3));
        assert!(chip.pipelined_clock_survives(min * 2, 3));
        if min.as_ps() > 4 {
            assert!(!chip.pipelined_clock_survives(SimTime::from_ps(min.as_ps() - 2), 3));
        }
    }
}

// ---------------- hybrid schedule invariants ----------------

#[test]
fn hybrid_schedule_skew_bounded_by_element() {
    for (_, mut rng) in cases(19) {
        let n = rng.gen_range(4usize..20);
        let e = rng.gen_range(1usize..6);
        let margin = f64::from(rng.gen_range(0u32..20)) / 100.0;
        let comm = CommGraph::mesh(n, n);
        let model = WireDelayModel::new(0.05, 0.01);
        let schedule = hybrid_schedule(&comm, e, model, margin, 10.0, 7);
        let bound = (e as f64) * model.max_rate() + margin;
        assert!(
            schedule.max_comm_skew(&comm) <= bound + 1e-9,
            "skew {} > bound {}",
            schedule.max_comm_skew(&comm),
            bound
        );
    }
}

// ---------------- period algebra ----------------

#[test]
fn min_safe_period_is_actually_safe() {
    for (_, mut rng) in cases(20) {
        let olen = rng.gen_range(2usize..10);
        let offsets: Vec<f64> = (0..olen).map(|_| rng.gen_range(0.0f64..0.5)).collect();
        let comm = CommGraph::linear(offsets.len());
        let timing = CellTiming::new(1.0, 2.0, 0.3, 0.2);
        // Offsets below delta_min - hold never race.
        let period = min_safe_period(&comm, &offsets, timing).expect("no race possible");
        let schedule = ClockSchedule::new(offsets, period.max(0.001));
        let statuses = classify_edges(&comm, &schedule, timing);
        assert!(statuses.iter().all(|&s| s == TransferStatus::Clean));
    }
}
