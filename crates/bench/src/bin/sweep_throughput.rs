//! `sweep_throughput`: end-to-end sweep-engine throughput with and
//! without the per-worker simulation arenas of DESIGN.md §7
//! ([`Network::reset_from_config`](afc_netsim::network::Network::reset_from_config)),
//! measured as whole-sweep jobs/sec on repeated-configuration workloads
//! from 8×8 up to 64×64.
//!
//! Two modes run the *same* sweep specs:
//!
//! * `fresh`  — pool off: every job constructs its network from scratch.
//! * `pooled` — arenas on: jobs reset a pooled network in place.
//!
//! Both are byte-identical by contract (asserted here on the serialized
//! results), so the modes differ in wall-clock only.
//!
//! Honesty notes:
//!
//! * `host_cores` is recorded; on a single-core container multi-worker
//!   rows measure scheduling overhead, not speedup.
//! * `vm_hwm_kb` is the process-wide peak RSS (`VmHWM`), which is
//!   monotonic: modes run fresh → pooled precisely so that a *larger*
//!   value for the later mode is attributable to it.
//!
//! Writes machine-readable `results/BENCH_sweep.json` under the current
//! directory, like the other bench artifacts; EXPERIMENTS.md carries the
//! before/after table.

use afc_bench::sweep::{self, pool_clear, pool_stats, RunKind, RunSpec, SweepSpec};
use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::snapshot::fnv1a64;
use afc_traffic::openloop::PacketMix;
use afc_traffic::synthetic::Pattern;
use std::time::Instant;

/// One benched mesh size with a job count and per-job cycle budget sized
/// so the sweep finishes promptly while construction cost still shows.
struct MeshCase {
    mesh: u16,
    jobs: usize,
    warmup: u64,
    measure: u64,
}

/// Reads a `VmHWM`-style field (kB) from `/proc/self/status`; 0 when the
/// platform has no procfs.
fn vm_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// A repeated-configuration open-loop sweep: every job is the same AFC
/// mesh at the same rate, differing only by seed — the sweep shape the
/// arena pool is built for (and the shape real rate/seed sweeps have
/// once grouped by mechanism).
fn repeated_spec(case: &MeshCase, name: &str) -> SweepSpec {
    let net_cfg = NetworkConfig {
        width: case.mesh,
        height: case.mesh,
        ..NetworkConfig::paper_8x8()
    };
    let runs = (0..case.jobs)
        .map(|i| RunSpec {
            mechanism: MechanismId::Afc,
            seed: 0x5EED ^ (i as u64),
            kind: RunKind::OpenLoop {
                rate: 0.05,
                pattern: Pattern::UniformRandom,
                mix: PacketMix::paper(),
                warmup_cycles: case.warmup,
                measure_cycles: case.measure,
            },
        })
        .collect();
    SweepSpec {
        name: name.to_string(),
        net_cfg,
        runs,
    }
}

/// Times `attempts` executions of `spec` with the arena pool on or off,
/// returning `(seconds, serialized results)`: wall-clock is the minimum
/// over attempts (standard noise discipline for throughput numbers on
/// shared hosts), and every attempt must serialize identically or the
/// bench aborts. Arenas are cleared before each attempt, so every one
/// starts cold with respect to *this process's* pool state.
fn run_mode_best_of(
    spec: &SweepSpec,
    threads: usize,
    pool: bool,
    attempts: usize,
) -> (f64, String) {
    let mut best = f64::INFINITY;
    let mut serialized = String::new();
    for attempt in 0..attempts.max(1) {
        pool_clear();
        let start = Instant::now();
        let results = spec.execute_with_threads_tuned(threads, pool);
        best = best.min(start.elapsed().as_secs_f64());
        let s = results.serialize();
        if attempt == 0 {
            serialized = s;
        } else {
            assert_eq!(s, serialized, "{}: attempts diverged", spec.name);
        }
    }
    (best, serialized)
}

fn main() {
    let quick = sweep::HarnessArgs::from_env_or_exit(&["--quick"], &[]).has("--quick");
    let threads = sweep::threads();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Enough jobs that each worker sees several pool hits after its one
    // cold start, at every worker count up to the host's. `--quick` runs
    // fewer jobs; the per-job cycle budget is the same either way because
    // it *is* the workload under test: many short repeated measurement
    // passes (re-runs, resume, mutation neighborhoods) are the
    // regime the arena pool exists for. As measure windows grow, setup
    // amortization fades and the two modes converge — by design.
    let jobs = (threads * 6).max(if quick { 12 } else { 24 });
    let mesh_cases: Vec<MeshCase> = [8u16, 16, 32, 64]
        .iter()
        .map(|&mesh| MeshCase {
            mesh,
            jobs: if mesh >= 64 { jobs.min(12) } else { jobs },
            warmup: 20,
            measure: 30,
        })
        .collect();

    let mut rows: Vec<String> = Vec::new();
    let mut pooled_vs_fresh_32 = 0.0f64;
    for case in &mesh_cases {
        let spec = repeated_spec(case, &format!("sweep_throughput_{0}x{0}", case.mesh));
        let attempts = if quick { 1 } else { 3 };
        let (fresh_s, fresh_out) = run_mode_best_of(&spec, threads, false, attempts);
        let hwm_fresh = vm_kb("VmHWM:");
        let (pooled_s, pooled_out) = run_mode_best_of(&spec, threads, true, attempts);
        let hwm_pooled = vm_kb("VmHWM:");
        assert_eq!(
            fresh_out, pooled_out,
            "{0}x{0}: pooled sweep output diverged from fresh",
            case.mesh
        );
        let n = case.jobs as f64;
        let pooled_speedup = fresh_s / pooled_s;
        if case.mesh == 32 {
            pooled_vs_fresh_32 = pooled_speedup;
        }
        rows.push(format!(
            "    {{\"mesh\": \"{m}x{m}\", \"jobs\": {jobs}, \"threads\": {threads}, \
             \"fresh_jobs_per_s\": {fj:.2}, \"pooled_jobs_per_s\": {pj:.2}, \
             \"pooled_speedup\": {ps:.3}, \"vm_hwm_kb_fresh\": {hf}, \
             \"vm_hwm_kb_pooled\": {hp}, \
             \"results_fingerprint\": \"{fp:016x}\"}}",
            m = case.mesh,
            jobs = case.jobs,
            fj = n / fresh_s,
            pj = n / pooled_s,
            ps = pooled_speedup,
            hf = hwm_fresh,
            hp = hwm_pooled,
            fp = fnv1a64(fresh_out.as_bytes()),
        ));
        println!(
            "{0}x{0}: fresh {1:.2} j/s, pooled {2:.2} j/s ({3:.2}x)",
            case.mesh,
            n / fresh_s,
            n / pooled_s,
            pooled_speedup,
        );
    }

    let (pool_hits, pool_misses, ..) = pool_stats();
    let json = format!(
        "{{\n  \"bench\": \"sweep_throughput\",\n  \
         \"host_cores\": {host_cores},\n  \"threads\": {threads},\n  \
         \"quick\": {quick},\n  \
         \"pooled_vs_fresh_32x32\": {pooled_vs_fresh_32:.3},\n  \
         \"pool_hits\": {pool_hits},\n  \"pool_misses\": {pool_misses},\n  \
         \"note\": \"vm_hwm_kb is process-wide peak RSS and monotonic; modes run fresh->pooled\",\n  \
         \"unit\": \"jobs_per_s\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = std::path::Path::new("results").join("BENCH_sweep.json");
    sweep::write_atomic(&out, json.as_bytes()).expect("writable results dir");
    let timing = sweep::write_timing_report("sweep_throughput").expect("writable results dir");
    println!("\nwrote {} and {}", out.display(), timing.display());
}
