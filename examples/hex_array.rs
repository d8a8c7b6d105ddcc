//! The hexagonal array of Fig. 3(c), end to end: its honest offset
//! layout, the Kung–Leiserson matrix multiply it was designed
//! for, and its H-tree clocking under the difference model.
//!
//! ```sh
//! cargo run --example hex_array
//! ```

use vlsi_sync_repro::prelude::*;

fn main() {
    // Fig. 3(c) geometry: six neighbours within 1.5 pitches.
    let comm = CommGraph::hex(5, 5);
    let brick = Layout::hex_offset(&comm);
    println!(
        "hex 5x5 offset layout: interior degree {}, longest wire {:.1} (grid layout: 2.0)",
        comm.degree(comm.grid_id(2, 2)),
        brick.max_wire_length()
    );

    // The workload: the Kung-Leiserson multiply the array was drawn for.
    let n = 8;
    let a: Vec<Vec<i64>> = (0..n)
        .map(|i| (0..n).map(|k| ((i * 5 + k) % 13) as i64 - 6).collect())
        .collect();
    let b: Vec<Vec<i64>> = (0..n)
        .map(|k| (0..n).map(|j| ((k + j * 7) % 11) as i64 - 5).collect())
        .collect();
    let hm = HexMatMul::new(&a, &b);
    println!(
        "\nKung-Leiserson multiply: {n}x{n} matrices on a {}-cell hex array, \
         {} cycles, each cell busy at most one cycle in three",
        hm.comm().node_count(),
        hm.cycles_needed()
    );
    let c = HexMatMul::multiply(&a, &b);
    assert_eq!(c, HexMatMul::reference(&a, &b));
    println!("product verified against the direct reference  [OK]");

    // Clocking it: H-tree under the difference model (Theorem 2).
    let array_comm = hm.comm().clone();
    let layout = Layout::grid(&array_comm);
    let clk = htree(&array_comm, &layout).equalized();
    let dm = DifferenceModel::linear(1.0);
    println!(
        "\nH-tree clocking of the hex array: max difference-model skew {:.3} \
         (tuned to zero), {} clock buffers at spacing 1",
        dm.max_skew(&clk, &array_comm),
        clk.buffer_count(1.0)
    );
    println!("\nFig. 3(c): drawn in 1983, multiplying matrices here.");
}
