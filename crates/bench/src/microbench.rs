//! Minimal self-contained micro-benchmark harness.
//!
//! Replaces the Criterion dependency so the workspace builds with no
//! network access: each `[[bench]]` target with `harness = false` is a
//! plain binary that calls [`Group::bench`] per case and prints a
//! nanoseconds-per-iteration table.
//!
//! Methodology: warm up for a fixed wall-clock budget to size a batch,
//! then time several batches and report the fastest (the least-perturbed
//! sample — the usual estimator for tight kernels, where noise is strictly
//! additive).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget for sizing one measurement batch.
const WARMUP: Duration = Duration::from_millis(20);
/// Timed batches per benchmark; the fastest is reported.
const SAMPLES: u32 = 7;

/// A named collection of benchmark cases sharing one report table.
pub struct Group {
    name: &'static str,
    quiet: bool,
}

/// Starts a benchmark group, printing its header.
pub fn group(name: &'static str) -> Group {
    println!("\n== {name} ==");
    Group { name, quiet: false }
}

/// Starts a benchmark group that prints nothing: measurements are only
/// returned to the caller (for `--json-only` artifact regeneration).
pub fn group_quiet(name: &'static str) -> Group {
    Group { name, quiet: true }
}

impl Group {
    /// Runs one benchmark case and prints its result.
    ///
    /// `f` is the unit of work; its return value is passed through
    /// [`black_box`] so the optimizer cannot delete it.
    pub fn bench<R>(&mut self, label: &str, mut f: impl FnMut() -> R) {
        // Warm up and size the batch.
        let start = Instant::now();
        let mut batch: u64 = 0;
        while start.elapsed() < WARMUP {
            black_box(f());
            batch += 1;
        }
        let batch = batch.max(1);

        let mut best = f64::INFINITY;
        for _ in 0..SAMPLES {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let ns = t.elapsed().as_nanos() as f64 / batch as f64;
            best = best.min(ns);
        }
        if !self.quiet {
            println!("{}/{label:<36} {best:>12.1} ns/iter", self.name);
        }
    }

    /// Times `body` over `repeats` fresh states from `setup` and returns
    /// the best nanoseconds per unit of work (`body` performs `units`
    /// units — e.g. simulated cycles — per invocation).
    ///
    /// Unlike [`Group::bench`], every repeat starts from a fresh `setup()`
    /// state, so stateful workloads (a simulation that accumulates
    /// backlog) do identical work in every sample and the fastest repeat
    /// is a meaningful minimum-noise estimate.
    pub fn bench_units<T>(
        &mut self,
        label: &str,
        units: u64,
        repeats: u32,
        mut setup: impl FnMut() -> T,
        mut body: impl FnMut(&mut T),
    ) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..repeats.max(1) {
            let mut state = setup();
            let t = Instant::now();
            body(&mut state);
            let ns = t.elapsed().as_nanos() as f64 / units.max(1) as f64;
            black_box(&mut state);
            best = best.min(ns);
        }
        if !self.quiet {
            println!("{}/{label:<36} {best:>12.1} ns/unit", self.name);
        }
        best
    }
}
