//! `step_loop`: nanoseconds per simulated cycle of the single-run hot
//! loop (`Network::try_step` plus traffic/injection plumbing), measured
//! end-to-end through [`Simulation::run`].
//!
//! Three operating points per mechanism on the paper's 8×8 mesh:
//!
//! * **idle** — zero offered load; after warmup every component is
//!   quiescent, so this isolates the per-cycle walk/bookkeeping tax.
//! * **low_0.05** — 5% uniform-random load, the regime that dominates
//!   the Figure 2 latency curves (>90% of components idle per cycle).
//! * **sat_0.30** — past saturation for every mechanism; stresses the
//!   full datapath (arbitration, ejection, NACKs for the drop router).
//!
//! A fourth family repeats the saturation point at 32×32 (shorter
//! measurement window — the per-cycle cost is ~16× the 8×8 one), so
//! hot-path wins are also observed at the sizes the parallel engine
//! scaled to.
//!
//! Every case additionally records a per-phase attribution breakdown
//! (router vs channel vs NI vs merge vs other ns/cycle) from a separate
//! pass with [`Network::set_phase_profiling`] enabled. The profiled pass
//! carries a few `Instant` reads per cycle of overhead, so phase values
//! are meaningful as *shares* and may sum slightly above `ns_per_cycle`.
//!
//! Besides the printed table, writes machine-readable
//! `results/BENCH_step.json` (with `host_cores`, like
//! `BENCH_parallel.json`) so future PRs have a perf trajectory. Passing
//! `--json-only` (after `--` under `cargo bench`) suppresses the
//! human-readable report and only regenerates the artifact.

use afc_bench::microbench;
use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

/// Cycles simulated outside the timed region to reach steady state.
const WARMUP_CYCLES: u64 = 2_000;
/// Cycles per timed repeat (the unit count for ns/cycle).
const MEASURE_CYCLES: u64 = 5_000;
/// Fresh-state repeats per case; fastest is reported.
const REPEATS: u32 = 5;
/// Cycles of the separate profiled pass feeding the phase breakdown.
const PROFILE_CYCLES: u64 = 2_000;

/// The 32×32 saturation family costs ~16× per cycle, so it runs a
/// shorter window with fewer repeats to keep the bench inside CI budgets.
const WARMUP_CYCLES_32: u64 = 1_000;
const MEASURE_CYCLES_32: u64 = 2_000;
const REPEATS_32: u32 = 3;
const PROFILE_CYCLES_32: u64 = 1_000;

/// The four mechanisms of the paper's core comparison.
const MECHANISMS: [MechanismId; 4] = [
    MechanismId::Backpressured,
    MechanismId::Backpressureless,
    MechanismId::Drop,
    MechanismId::Afc,
];

/// The three operating points: label and offered load (flits/node/cycle).
const LOADS: [(&str, f64); 3] = [("idle", 0.0), ("low_0.05", 0.05), ("sat_0.30", 0.30)];

#[derive(Clone, Copy)]
enum MeshSize {
    M8,
    M32,
}

impl MeshSize {
    fn label(self) -> &'static str {
        match self {
            MeshSize::M8 => "8x8",
            MeshSize::M32 => "32x32",
        }
    }

    fn config(self) -> NetworkConfig {
        match self {
            MeshSize::M8 => NetworkConfig::paper_8x8(),
            MeshSize::M32 => NetworkConfig {
                width: 32,
                height: 32,
                ..NetworkConfig::paper_8x8()
            },
        }
    }
}

/// Saturating offered rate at 32×32 (uniform-random bisection capacity
/// shrinks as ~4/k flits/node/cycle — same figure `parallel_scaling` uses).
const SAT_RATE_32: f64 = 0.08;

fn make_sim(
    id: MechanismId,
    rate: f64,
    mesh: MeshSize,
    warmup: u64,
) -> Simulation<OpenLoopTraffic> {
    let network =
        Network::new(mesh.config(), id.mechanism().factory.as_ref(), 0xBEEF).expect("valid config");
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(rate),
        Pattern::UniformRandom,
        PacketMix::paper(),
        0xBEEF,
    );
    let mut sim = Simulation::new(network, traffic);
    sim.run(warmup);
    sim
}

/// Runs the separate profiled pass and returns per-phase ns/cycle as
/// `(router, channel, ni, merge, other)`.
fn phase_breakdown(
    id: MechanismId,
    rate: f64,
    mesh: MeshSize,
    warmup: u64,
    cycles: u64,
) -> (f64, f64, f64, f64, f64) {
    let mut sim = make_sim(id, rate, mesh, warmup);
    sim.network.set_phase_profiling(true);
    sim.run(cycles);
    let p = sim.network.phase_profile().expect("profiling enabled");
    let per = |ns: u64| ns as f64 / p.cycles.max(1) as f64;
    (
        per(p.router_ns),
        per(p.channel_ns),
        per(p.ni_ns),
        per(p.merge_ns),
        per(p.other_ns),
    )
}

struct Case {
    mechanism: &'static str,
    mesh: MeshSize,
    load: &'static str,
    rate: f64,
    ns_per_cycle: f64,
    phases: (f64, f64, f64, f64, f64),
}

impl Case {
    fn json(&self) -> String {
        let (router, channel, ni, merge, other) = self.phases;
        format!(
            "    {{\"mechanism\": \"{}\", \"mesh\": \"{}\", \"load\": \"{}\", \
             \"rate\": {}, \"ns_per_cycle\": {:.1}, \"phases_ns_per_cycle\": \
             {{\"router\": {router:.1}, \"channel\": {channel:.1}, \"ni\": {ni:.1}, \
             \"merge\": {merge:.1}, \"other\": {other:.1}}}}}",
            self.mechanism,
            self.mesh.label(),
            self.load,
            self.rate,
            self.ns_per_cycle,
        )
    }
}

fn main() {
    let json_only = std::env::args().any(|a| a == "--json-only");
    let mut group = if json_only {
        microbench::group_quiet("step_loop")
    } else {
        microbench::group("step_loop")
    };
    let mut cases: Vec<Case> = Vec::new();

    for id in MECHANISMS {
        for (load_label, rate) in LOADS {
            let label = format!("{}/{load_label}", id.label());
            let best = group.bench_units(
                &label,
                MEASURE_CYCLES,
                REPEATS,
                || make_sim(id, rate, MeshSize::M8, WARMUP_CYCLES),
                |sim| sim.run(MEASURE_CYCLES),
            );
            cases.push(Case {
                mechanism: id.label(),
                mesh: MeshSize::M8,
                load: load_label,
                rate,
                ns_per_cycle: best,
                phases: phase_breakdown(id, rate, MeshSize::M8, WARMUP_CYCLES, PROFILE_CYCLES),
            });
        }
    }

    // Saturation at 32×32: the size the parallel engine scaled to.
    for id in MECHANISMS {
        let label = format!("{}/sat_0.08/32x32", id.label());
        let best = group.bench_units(
            &label,
            MEASURE_CYCLES_32,
            REPEATS_32,
            || make_sim(id, SAT_RATE_32, MeshSize::M32, WARMUP_CYCLES_32),
            |sim| sim.run(MEASURE_CYCLES_32),
        );
        cases.push(Case {
            mechanism: id.label(),
            mesh: MeshSize::M32,
            load: "sat_0.08",
            rate: SAT_RATE_32,
            ns_per_cycle: best,
            phases: phase_breakdown(
                id,
                SAT_RATE_32,
                MeshSize::M32,
                WARMUP_CYCLES_32,
                PROFILE_CYCLES_32,
            ),
        });
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rows: Vec<String> = cases.iter().map(Case::json).collect();
    let json = format!(
        "{{\n  \"bench\": \"step_loop\",\n  \"host_cores\": {host_cores},\n  \
         \"warmup_cycles\": {WARMUP_CYCLES},\n  \"measure_cycles\": {MEASURE_CYCLES},\n  \
         \"repeats\": {REPEATS},\n  \"measure_cycles_32x32\": {MEASURE_CYCLES_32},\n  \
         \"repeats_32x32\": {REPEATS_32},\n  \"unit\": \"ns_per_cycle\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    // `cargo bench` runs with cwd = the package dir; anchor the artifact
    // at the workspace root next to the other `results/` outputs.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let out = root.join("results").join("BENCH_step.json");
    afc_bench::sweep::write_atomic(&out, json.as_bytes()).expect("writable results dir");
    if !json_only {
        println!("\nwrote {}", out.display());
    }
}
