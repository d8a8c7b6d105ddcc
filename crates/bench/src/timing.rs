//! A minimal std-only timing harness for the `benches/` microbenches.
//!
//! The benches used to run under criterion; with the workspace now
//! free of crates.io dependencies they are plain `fn main()` programs
//! (`[[bench]] harness = false`) that call [`bench()`] per case. The
//! harness self-calibrates the iteration count to a ~100 ms budget and
//! prints one `name  time/iter` line — enough to spot regressions by
//! eye or diff, without statistical machinery.

use std::time::{Duration, Instant};

/// Target measurement window per benchmark case.
const TARGET: Duration = Duration::from_millis(100);

/// Iteration-count ceiling, so trivially cheap bodies terminate.
const MAX_ITERS: u128 = 100_000;

/// Times `f`, printing `name`, the mean time per iteration, and the
/// iteration count. One warm-up call calibrates how many iterations
/// fit the measurement budget.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed();
    let iters = (TARGET.as_nanos() / once.as_nanos().max(1)).clamp(1, MAX_ITERS) as u32;
    let t1 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per = t1.elapsed() / iters;
    println!("{name:<48} {:>14}  ({iters} iters)", format_per(per));
}

/// Prints a group header, mirroring criterion's `group/case` naming.
pub fn group(name: &str) {
    println!("\n[{name}]");
}

fn format_per(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns/iter")
    } else if ns < 10_000_000 {
        format!("{:.1} us/iter", ns as f64 / 1_000.0)
    } else {
        format!("{:.2} ms/iter", ns as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_scales_units() {
        assert_eq!(format_per(Duration::from_nanos(120)), "120 ns/iter");
        assert_eq!(format_per(Duration::from_micros(50)), "50.0 us/iter");
        assert_eq!(format_per(Duration::from_millis(25)), "25.00 ms/iter");
    }

    #[test]
    fn bench_runs_body_at_least_twice() {
        let mut calls = 0usize;
        bench("noop", || calls += 1);
        assert!(calls >= 2, "warm-up plus at least one timed iteration");
    }
}
