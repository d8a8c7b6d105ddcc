//! Sweep-determinism contract over the *real* design-space grid: any
//! shard partition of the (scheme × topology × size × fault-rate)
//! sweep, completed in any order, with or without a mid-range
//! interruption and resume, merges to a report byte-identical to the
//! uninterrupted single-process run.
//!
//! The sweep crate pins the same property on synthetic workloads; this
//! suite closes the loop on the production trial function
//! (`bench::grid::run_trial`), whose fault injection, panic isolation,
//! and in-order retention aggregation are exactly the parts a
//! refactor could accidentally make partition-dependent.

use bench::grid;
use sim_observe::Json;
use sim_sweep::{
    load_shards, run_shard, shard_path, vitals_path, Checkpoint, Manifest, ShardOpts, Vitals,
};

/// The shared workload: the fast grid (54 points, including the
/// quadrant/spine topology cells), 3 trials per point, checkpointing
/// every 2 trials. `shards` only changes the execution partition —
/// the manifest digest and the merged bytes must not see it.
fn manifest(shards: u64) -> Manifest {
    grid::default_manifest(7, 3, shards, 2, true).expect("fast grid manifest")
}

/// Runs one shard to completion against the real trial function.
fn run_grid_shard(m: &Manifest, shard: u64, dir: &str, opts: &ShardOpts) -> sim_sweep::ShardStatus {
    let cells = grid::build_cells(m).expect("grid cells build");
    run_shard(m, shard, dir, opts, |pi, p, t, rng| {
        grid::run_trial(&cells[pi], p, m.point_seed(pi), t, rng)
    })
    .expect("shard run succeeds")
}

fn temp_dir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!(
        "sim_sweep_determinism_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

/// The uninterrupted single-process reference, pretty-printed — the
/// byte string every partition must reproduce.
fn reference_report() -> String {
    let m = manifest(1);
    let results = grid::run_sweep_single(&m, 2).expect("single-process sweep");
    grid::sweep_report(&m, &results).to_pretty()
}

#[test]
fn any_partition_of_the_real_grid_merges_byte_identically() {
    let reference = reference_report();
    for (shards, order) in [
        (1u64, vec![0u64]),
        (4, vec![2, 0, 3, 1]),
        (7, vec![6, 1, 4, 0, 5, 2, 3]),
    ] {
        let m = manifest(shards);
        let dir = temp_dir(&format!("part{shards}"));
        for &s in &order {
            run_grid_shard(&m, s, &dir, &ShardOpts::default());
        }
        let results = load_shards(&m, &dir).expect("all shards complete");
        let merged = grid::sweep_report(&m, &results).to_pretty();
        assert_eq!(
            merged, reference,
            "{shards}-shard partition (completion order {order:?}) must merge \
             byte-identically to the single-process run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_and_resumed_shard_is_invisible_in_the_merged_bytes() {
    let reference = reference_report();
    let m = manifest(3);
    let dir = temp_dir("resume");

    // Shards 0 and 2 run to completion; shard 1 is stopped mid-range
    // by a trial budget — the on-disk state is exactly what a kill -9
    // between checkpoints leaves behind.
    run_grid_shard(&m, 0, &dir, &ShardOpts::default());
    run_grid_shard(&m, 2, &dir, &ShardOpts::default());
    let stopped = run_grid_shard(
        &m,
        1,
        &dir,
        &ShardOpts {
            stop_after: Some(5),
            ..ShardOpts::default()
        },
    );
    assert!(stopped.interrupted, "budget must interrupt the shard");
    assert!(stopped.completed < stopped.hi - stopped.lo);

    // An incomplete shard must refuse to merge, naming the problem.
    let err = load_shards(&m, &dir).expect_err("incomplete shard set");
    assert!(err.contains("incomplete"), "got: {err}");

    // A kill mid-append leaves half a result line at the end of the
    // journal: the resume must truncate it, not trip over it.
    let mut journal = std::fs::read_to_string(shard_path(&dir, 1)).expect("journal on disk");
    journal.push_str("0123456789abcdef {\"o\":\"ok\",\"r");
    std::fs::write(shard_path(&dir, 1), journal).expect("inject torn last line");

    let resumed = run_grid_shard(&m, 1, &dir, &ShardOpts::default());
    assert!(
        resumed.resumed_at > 0,
        "resume must start from the checkpoint, not from scratch"
    );
    assert!(!resumed.interrupted);

    let results = load_shards(&m, &dir).expect("complete after resume");
    let merged = grid::sweep_report(&m, &results).to_pretty();
    assert_eq!(
        merged, reference,
        "kill + resume must be invisible in the merged report bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn vitals_lines_carry_the_pinned_schema_and_track_the_shard() {
    let m = manifest(3);
    let dir = temp_dir("vitals");

    // Interrupt shard 1 mid-range: its vitals journal must hold one
    // line per checkpoint, the last with the checkpointed progress and
    // live rate fields.
    let stopped = run_grid_shard(
        &m,
        1,
        &dir,
        &ShardOpts {
            stop_after: Some(5),
            ..ShardOpts::default()
        },
    );
    assert!(stopped.interrupted);

    let vitals_file = vitals_path(&dir, 1);
    let text = std::fs::read_to_string(&vitals_file).expect("vitals exist on disk");
    let last_line = text.lines().last().expect("at least one line");
    let (_, json) = last_line.split_once(' ').expect("checksum, space, JSON");
    let doc = sim_observe::parse(json).expect("vitals line is valid JSON");

    // Schema pin: exactly these keys, in this order — operators and
    // dashboards key on them.
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "manifest_digest",
            "shard",
            "lo",
            "hi",
            "completed",
            "workers",
            "trials_per_sec",
            "eta_ms",
            "utilization",
            "wall_ms",
        ],
        "vitals line schema drifted"
    );

    // The parsed vitals agree with the checkpointed ground truth.
    let cp = Checkpoint::load(&shard_path(&dir, 1)).expect("checkpoint");
    let (last, lines) = Vitals::load(&vitals_file).expect("parses through the library");
    assert_eq!(last.manifest_digest, cp.manifest_digest);
    assert_eq!((last.shard, last.lo, last.hi), (cp.shard, cp.lo, cp.hi));
    assert_eq!(last.completed, cp.completed);
    assert_eq!(last.completed, stopped.completed);
    assert!(last.completed < last.hi - last.lo, "interrupted mid-range");
    assert!(last.trials_per_sec > 0.0, "rate is measured, not defaulted");
    assert!((0.0..=1.0).contains(&last.utilization));
    assert_eq!(lines, stopped.checkpoints, "one line per checkpoint");

    // Finishing the shard appends a line per checkpoint, the last one
    // covering the whole range, and leaves only the two journals.
    let finished = run_grid_shard(&m, 1, &dir, &ShardOpts::default());
    let (last, more) = Vitals::load(&vitals_file).expect("finished shard keeps its vitals");
    assert_eq!(more, lines + finished.checkpoints);
    assert_eq!(last.completed, last.hi - last.lo);
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .expect("shard dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["shard-1.json", "shard-1.vitals"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The realistic quadrant/spine cells (e14's topologies) ride the same
/// grid: they must be present in the workload this suite pins, and
/// their per-point bytes must be identical whether the point ran in a
/// 1-shard or a 7-shard partition — the quadrant tree construction and
/// its fault sites must not depend on execution context.
#[test]
fn quadrant_topology_cells_are_partition_invariant() {
    let single = manifest(1);
    let labels: Vec<String> = single.points.iter().map(|p| p.label()).collect();
    let quad: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains("quadrant"))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !quad.is_empty(),
        "the fast grid must include quadrant topology points"
    );

    let reference = {
        let results = grid::run_sweep_single(&single, 2).expect("single-process sweep");
        grid::sweep_report(&single, &results)
    };
    let m = manifest(7);
    let dir = temp_dir("quadrant");
    for s in 0..7 {
        run_grid_shard(&m, s, &dir, &ShardOpts::default());
    }
    let results = load_shards(&m, &dir).expect("all shards complete");
    let sharded = grid::sweep_report(&m, &results);

    let points_of = |report: &Json| -> Vec<Json> {
        report
            .get("points")
            .and_then(Json::as_array)
            .expect("points array")
            .to_vec()
    };
    let (ref_points, sh_points) = (points_of(&reference), points_of(&sharded));
    for &pi in &quad {
        assert_eq!(
            ref_points[pi].to_pretty(),
            sh_points[pi].to_pretty(),
            "quadrant point `{}` diverged between partitions",
            labels[pi]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frontier_is_deterministic_and_grouped_by_requirements() {
    let m = manifest(1);
    let results = grid::run_sweep_single(&m, 2).expect("sweep");
    let report = grid::sweep_report(&m, &results);
    let f1 = grid::sweep_frontier(&report).expect("frontier");
    let f2 = grid::sweep_frontier(&report).expect("frontier again");
    assert_eq!(f1.to_pretty(), f2.to_pretty(), "frontier must be deterministic");

    // Dominance never crosses a (size, fault_rate) requirement group:
    // every dominator shares its victim's size and fault rate.
    let points = f1.get("points").and_then(Json::as_array).expect("points");
    assert!(!points.is_empty());
    for p in points {
        let Some(by) = p.get("dominated_by").and_then(Json::as_str) else {
            continue;
        };
        let dominator = points
            .iter()
            .find(|q| q.get("label").and_then(Json::as_str) == Some(by))
            .expect("dominator is in the report");
        for key in ["size", "fault_rate"] {
            assert_eq!(
                p.get(key),
                dominator.get(key),
                "dominance crossed the `{key}` requirement boundary"
            );
        }
    }
}
