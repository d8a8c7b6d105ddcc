//! Allocation guard for topology construction.
//!
//! Communication graphs, layouts and clock trees store their per-cell,
//! per-edge and per-node data in flat arrays, so building one costs a
//! handful of allocations whatever its size: a few per array, plus the
//! doublings of the arrays that grow by push. This binary counts heap
//! allocations (`alloc`, `alloc_zeroed` and `realloc` calls) on the
//! building thread with a counting global allocator, for an H-tree over
//! a `k × k` mesh and a spine along a `k²`-cell linear array at
//! k = 8, 16 and 32. It asserts that the count grows no faster than
//! log n and stays within a fixed budget at k = 32. An allocation per
//! cell, edge or node would cost thousands there.
//!
//! It counts allocations, not time, so it holds on any host.

use array_layout::graph::CommGraph;
use array_layout::layout::Layout;
use clock_tree::builders::{htree, spine};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` because the allocator also serves threads that are
    // tearing down their thread-locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

fn mesh_htree(k: usize) -> u64 {
    allocations(|| {
        let comm = CommGraph::mesh(k, k);
        let layout = Layout::grid(&comm);
        let tree = htree(&comm, &layout);
        assert_eq!(tree.attached_cells().len(), k * k);
        (comm, layout, tree)
    })
}

fn linear_spine(k: usize) -> u64 {
    allocations(|| {
        let comm = CommGraph::linear(k * k);
        let layout = Layout::linear_row(&comm);
        let tree = spine(&comm, &layout);
        assert_eq!(tree.node_count(), k * k);
        (comm, layout, tree)
    })
}

/// Checks the counts at k = 8, 16, 32 (n = 64, 256, 1024 cells): each
/// doubling of k adds 2 to log2 n, and may add at most `per_log2`
/// allocations per unit of log2 n; k = 32 must fit `budget`.
fn check(what: &str, counts: [u64; 3], per_log2: u64, budget: u64) {
    eprintln!("{what}: allocations at k = 8, 16, 32: {counts:?}");
    for w in counts.windows(2) {
        assert!(
            w[1] <= w[0] + 2 * per_log2,
            "{what}: {counts:?} grows faster than log n"
        );
    }
    assert!(
        counts[2] <= budget,
        "{what}: {} allocations at k = 32, budget {budget}",
        counts[2]
    );
}

#[test]
fn topology_construction_allocates_logarithmically() {
    let mesh = [8, 16, 32].map(mesh_htree);
    let line = [8, 16, 32].map(linear_spine);
    check("mesh + grid + htree", mesh, 8, 100);
    check("linear + linear_row + spine", line, 8, 80);
}
