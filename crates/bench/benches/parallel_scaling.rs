//! `parallel_scaling`: wall-clock scaling of the intra-run parallel cycle
//! engine (DESIGN.md §12) — nanoseconds per simulated cycle at 1/2/4/8
//! worker threads, swept over mesh sizes from the paper's 8×8 up to
//! 128×128, the regime where spatial sharding must amortize its barriers.
//!
//! Results are byte-identical at every thread count (the
//! `parallel_equivalence` suite proves it), so this bench measures *only*
//! wall-clock. Honesty notes baked into the output:
//!
//! * `host_cores` records the machine's available parallelism. On a
//!   single-core container the multi-thread rows measure barrier/handoff
//!   overhead, not speedup — read them together with `host_cores`.
//! * Every row is measured twice. `ns_per_cycle` / `parallel_cycles` are
//!   the engine *forced*: the gate's floor lowered to 16 active
//!   components, so the multi-thread rows measure the engine itself.
//!   `default_ns_per_cycle` / `default_parallel_cycles` are the same run
//!   with nothing forced — what a user gets. The default gate is calibrated from these pairs: it must
//!   stay serial (`default_parallel_cycles` 0) wherever the forced row
//!   loses to 1 thread, and engage wherever it wins.
//! * At idle the floor keeps even the forced engine serial, so those rows
//!   should match the 1-thread rows to within noise.
//! * `mem_per_node_bytes` is the large-mesh leanness audit: it must stay
//!   in the same ballpark from 8×8 to 128×128 (traffic-dependent state
//!   aside), or the mesh sweep is buying speed with O(mesh²) memory.
//!
//! Writes machine-readable `results/BENCH_parallel.json` next to
//! `BENCH_step.json` so future PRs can track the scaling trajectory.

use afc_bench::microbench;
use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

/// Thread counts swept for every case.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Wall-clock budget for the whole 128×128 sweep (all mechanisms, all
/// thread counts). The acceptance bar for "a 128×128 saturation run
/// completes within the bench cycle budget".
const MESH_128_BUDGET_S: f64 = 300.0;

/// One benched configuration: a mesh size with its saturating offered
/// rate and a cycle budget scaled so the whole sweep stays tractable.
struct MeshCase {
    mesh: u16,
    /// Offered packets/node/cycle at (over)saturation for this mesh.
    /// Uniform-random bisection capacity shrinks as ~4/k flits/node/cycle,
    /// so the saturating rate drops with mesh size.
    sat_rate: f64,
    warmup: u64,
    measure: u64,
    repeats: u32,
    mechanisms: &'static [MechanismId],
    /// Extra low-load/idle rows (AFC only, 8×8 only): documents the
    /// regime the gate exists for without quadrupling the sweep.
    low_load_rows: bool,
}

/// The forced rows' gate floor (active components).
const FORCED_FLOOR: usize = 16;

const MESH_CASES: [MeshCase; 5] = [
    MeshCase {
        mesh: 8,
        sat_rate: 0.30,
        warmup: 1_000,
        measure: 3_000,
        repeats: 3,
        mechanisms: &[
            MechanismId::Backpressured,
            MechanismId::Backpressureless,
            MechanismId::Drop,
            MechanismId::Afc,
        ],
        low_load_rows: true,
    },
    MeshCase {
        mesh: 16,
        sat_rate: 0.15,
        warmup: 600,
        measure: 2_000,
        repeats: 3,
        mechanisms: &[MechanismId::Backpressured, MechanismId::Afc],
        low_load_rows: false,
    },
    MeshCase {
        mesh: 32,
        sat_rate: 0.08,
        warmup: 300,
        measure: 1_000,
        repeats: 3,
        mechanisms: &[MechanismId::Backpressured, MechanismId::Afc],
        low_load_rows: false,
    },
    MeshCase {
        mesh: 64,
        sat_rate: 0.04,
        warmup: 150,
        measure: 400,
        repeats: 2,
        mechanisms: &[MechanismId::Backpressured, MechanismId::Afc],
        low_load_rows: false,
    },
    MeshCase {
        mesh: 128,
        sat_rate: 0.02,
        warmup: 50,
        measure: 150,
        repeats: 1,
        mechanisms: &[MechanismId::Afc],
        low_load_rows: false,
    },
];

fn make_sim(
    id: MechanismId,
    mesh: u16,
    rate: f64,
    threads: usize,
    floor: Option<usize>,
    warmup: u64,
) -> Simulation<OpenLoopTraffic> {
    let cfg = NetworkConfig {
        width: mesh,
        height: mesh,
        ..NetworkConfig::paper_8x8()
    };
    let network =
        Network::new(cfg, id.mechanism().factory.as_ref(), 0xBEEF).expect("valid mesh config");
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(rate),
        Pattern::UniformRandom,
        PacketMix::paper(),
        0xBEEF,
    );
    let mut sim = Simulation::new(network, traffic);
    sim.network.set_sim_threads(threads);
    if let Some(floor) = floor {
        sim.network.set_parallel_threshold(floor);
    }
    sim.run(warmup);
    sim
}

fn main() {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut group = microbench::group("parallel_scaling");
    let mut rows: Vec<String> = Vec::new();
    let mut budget_128_used = 0.0f64;

    for case in &MESH_CASES {
        let mut loads: Vec<(&str, f64)> = vec![("sat", case.sat_rate)];
        if case.low_load_rows {
            loads.push(("low", 0.05));
            loads.push(("idle", 0.0));
        }
        for &id in case.mechanisms {
            for &(load_label, rate) in &loads {
                if load_label != "sat" && id != MechanismId::Afc {
                    continue;
                }
                let mut serial_ns = f64::NAN;
                for threads in THREADS {
                    let label = format!(
                        "{}x{}/{}/{load_label}_{rate}/x{threads}",
                        case.mesh,
                        case.mesh,
                        id.label()
                    );
                    let mut parallel_cycles = 0u64;
                    let mut mem_total = 0usize;
                    let mut mem_per_node = 0usize;
                    let t_case = std::time::Instant::now();
                    let best = group.bench_units(
                        &label,
                        case.measure,
                        case.repeats,
                        || {
                            make_sim(
                                id,
                                case.mesh,
                                rate,
                                threads,
                                Some(FORCED_FLOOR),
                                case.warmup,
                            )
                        },
                        |sim| {
                            sim.run(case.measure);
                            parallel_cycles = sim.network.parallel_cycles();
                            let fp = sim.network.memory_footprint();
                            mem_total = fp.total_bytes();
                            mem_per_node = fp.per_node_bytes();
                        },
                    );
                    // The same run under the default gate (at 1 thread the
                    // two are the same run).
                    let (mut default_ns, mut default_parallel) = (best, parallel_cycles);
                    if threads > 1 {
                        default_ns = group.bench_units(
                            &format!("{label}/default"),
                            case.measure,
                            case.repeats,
                            || make_sim(id, case.mesh, rate, threads, None, case.warmup),
                            |sim| {
                                sim.run(case.measure);
                                default_parallel = sim.network.parallel_cycles();
                            },
                        );
                    }
                    if case.mesh == 128 {
                        budget_128_used += t_case.elapsed().as_secs_f64();
                    }
                    if threads == 1 {
                        serial_ns = best;
                    }
                    rows.push(format!(
                        "    {{\"mesh\": \"{m}x{m}\", \"mechanism\": \"{}\", \
                         \"load\": \"{load_label}\", \"rate\": {rate}, \
                         \"threads\": {threads}, \"ns_per_cycle\": {best:.1}, \
                         \"speedup_vs_1t\": {:.3}, \"parallel_cycles\": {parallel_cycles}, \
                         \"default_ns_per_cycle\": {default_ns:.1}, \
                         \"default_parallel_cycles\": {default_parallel}, \
                         \"mem_total_bytes\": {mem_total}, \
                         \"mem_per_node_bytes\": {mem_per_node}}}",
                        id.label(),
                        serial_ns / best,
                        m = case.mesh,
                    ));
                }
            }
        }
    }

    let within_budget = budget_128_used <= MESH_128_BUDGET_S;
    let json = format!(
        "{{\n  \"bench\": \"parallel_scaling\",\n  \
         \"host_cores\": {host_cores},\n  \
         \"mesh_128_budget_s\": {MESH_128_BUDGET_S},\n  \
         \"mesh_128_used_s\": {budget_128_used:.1},\n  \
         \"mesh_128_within_budget\": {within_budget},\n  \
         \"unit\": \"ns_per_cycle\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    // `cargo bench` runs with cwd = the package dir; anchor the artifact
    // at the workspace root next to the other `results/` outputs.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = root.join("results").join("BENCH_parallel.json");
    afc_bench::sweep::write_atomic(&out, json.as_bytes()).expect("writable results dir");
    println!(
        "\nwrote {} (host_cores={host_cores}, 128x128 sweep {budget_128_used:.1}s / budget {MESH_128_BUDGET_S}s)",
        out.display()
    );
    assert!(
        within_budget,
        "128x128 sweep blew its wall-clock budget: {budget_128_used:.1}s > {MESH_128_BUDGET_S}s"
    );
}
