//! Kill-storm and kill+revive chaos soaks (DESIGN.md §13 and §15):
//! randomized seeded fault schedules across all four mechanisms and every
//! engine path.
//!
//! Every schedule is generated from its own deterministic RNG stream and
//! mixes the full `LinkSelector` vocabulary — single links, whole nodes,
//! rows, columns, and rectangular regions — including plans that partition
//! the mesh outright. The contract under test is graceful degradation:
//! every run must end in clean delivery of all reachable traffic (drained,
//! conservation audits green) or a structured error — never a hang, never
//! an audit failure. Runs rotate through the serial, parallel ({2, 4, 8}
//! worker threads) and snapshot-resume engine paths so the
//! soaks exercise each one, and cross-path goldens prove bit-identity
//! between the paths.
//!
//! The kill+revive soak adds the repair plane: every schedule heals some
//! or all of its kills (including rolling churn), each run asserts
//! cross-engine bit-identity against the serial reference — the snapshot
//! path checkpoints mid-churn so restore must reconstruct in-progress
//! dead windows — and a separate property test proves a fully healed
//! network behaves identically to one that was never faulted.

use afc_bench::Engine;
use afc_noc::prelude::*;

/// Seeded schedules in the soak. The acceptance floor is 100; raise via
/// `AFC_CHAOS_SCHEDULES` for longer local soaks. Unset means 100; any value
/// that is not an integer of at least 100 panics rather than being guessed.
fn schedule_count() -> u64 {
    let Some(raw) = std::env::var_os("AFC_CHAOS_SCHEDULES") else {
        return 100;
    };
    let raw = raw.to_string_lossy();
    match raw.parse() {
        Ok(n) if n >= 100 => n,
        _ => panic!("AFC_CHAOS_SCHEDULES={raw:?} is not an integer of at least 100"),
    }
}

const MESH_W: u16 = 4;
const MESH_H: u16 = 4;
const INJECT_CYCLES: u64 = 600;
const DRAIN_BUDGET: u64 = 40_000;

fn mechanisms() -> Vec<(&'static str, Box<dyn afc_netsim::router::RouterFactory>)> {
    vec![
        ("backpressured", Box::new(BackpressuredFactory::new())),
        ("backpressureless", Box::new(DeflectionFactory::new())),
        ("drop", Box::new(DropFactory::new())),
        ("afc", Box::new(AfcFactory::paper())),
    ]
}

/// One to three kill events drawn from every selector kind, landing between
/// cycle 150 and 650 (mid-injection through early drain).
fn random_plan(rng: &mut SimRng, mesh: &Mesh) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let events = 1 + rng.gen_index(3);
    for _ in 0..events {
        let at = 150 + rng.gen_range(500);
        let x = rng.gen_range(MESH_W as u64) as u16;
        let y = rng.gen_range(MESH_H as u64) as u16;
        let node = mesh.node_at(Coord::new(x, y)).expect("in bounds");
        plan = match rng.gen_index(5) {
            0 => {
                let dir = Direction::ALL[rng.gen_index(4)];
                plan.kill_link(node, dir, at)
            }
            1 => plan.kill_node(node, at),
            2 => plan.kill_row(y, at),
            3 => plan.kill_column(x, at),
            _ => {
                let x1 = x + rng.gen_range((MESH_W - x) as u64) as u16;
                let y1 = y + rng.gen_range((MESH_H - y) as u64) as u16;
                plan.kill_region(x, y, x1, y1, at)
            }
        };
    }
    plan
}

fn storm_config(plan: FaultPlan) -> NetworkConfig {
    NetworkConfig {
        width: MESH_W,
        height: MESH_H,
        faults: plan,
        retransmit: Some(RetransmitConfig {
            timeout: 250,
            backoff_cap: 1,
            max_attempts: 3,
        }),
        ..NetworkConfig::paper_3x3()
    }
}

fn make_sim(
    cfg: &NetworkConfig,
    factory: &dyn afc_netsim::router::RouterFactory,
    seed: u64,
) -> Simulation<OpenLoopTraffic> {
    let network = Network::new(cfg.clone(), factory, seed).expect("validated config");
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(0.2),
        Pattern::UniformRandom,
        PacketMix::paper(),
        seed ^ 0xC4A05,
    );
    Simulation::new(network, traffic)
}

/// Engine paths exercised by the soaks, in `run_one` path-index order.
const PATHS: [&str; 5] = [
    "serial",
    "threads-2",
    "threads-4",
    "threads-8",
    "snapshot-resume",
];

/// Steps through the storm on one engine path and asserts the graceful-
/// degradation contract. Returns a behavioral fingerprint for the
/// cross-path identity goldens.
fn run_one(
    cfg: &NetworkConfig,
    factory: &dyn afc_netsim::router::RouterFactory,
    seed: u64,
    path: usize,
    label: &str,
) -> (String, u64) {
    let mut sim = make_sim(cfg, factory, seed);
    if (1..=3).contains(&path) {
        // Parallel: force the sharded engine on even at 4x4 occupancy.
        sim.network.set_sim_threads(1 << path);
        sim.network.set_parallel_threshold(0);
    }
    let mut error = if path == 4 {
        // Snapshot-resume: checkpoint mid-storm (for revival plans this
        // lands inside open dead windows), then continue from the restored
        // copy instead of the original simulation.
        match sim.try_run(300) {
            Err(e) => Some(e),
            Ok(()) => {
                let snap = sim.snapshot().expect("mid-storm snapshot");
                sim = make_sim(cfg, factory, seed);
                sim.restore(&snap, "chaos soak").expect("restore");
                sim.try_run(INJECT_CYCLES - 300).err()
            }
        }
    } else {
        sim.try_run(INJECT_CYCLES).err()
    };
    if error.is_none() {
        sim.traffic.stop();
        error = sim.try_drain(DRAIN_BUDGET).err();
    }
    // The contract: audits always pass, and the run either drained or
    // surfaced a structured error. A silently exhausted drain budget is a
    // hang and fails here.
    sim.network
        .audit()
        .unwrap_or_else(|e| panic!("{label}: flit audit failed: {e}"));
    sim.network
        .credit_audit()
        .unwrap_or_else(|e| panic!("{label}: credit audit failed: {e}"));
    match &error {
        Some(e) => {
            // Structured terminations are legal outcomes for a storm that
            // (for example) severs a region mid-wormhole. They must carry
            // a cycle so reports can localize them.
            let msg = e.to_string();
            assert!(!msg.is_empty(), "{label}: error must render");
        }
        None => {
            let (in_flight, nacks, acks, busy) = sim.network.drain_residue();
            assert!(
                sim.network.is_drained(),
                "{label}: drain budget exhausted with residue \
                 (in_flight={in_flight} nacks={nacks} acks={acks} busy_nis={busy})"
            );
        }
    }
    let s = sim.network.stats();
    let fp = format!(
        "error={:?} stats={:?} faults={:?} unreachable={:?}",
        error.map(|e| e.to_string()),
        s,
        sim.network.fault_log(),
        sim.network.unreachable_packets(),
    );
    (fp, s.links_failed)
}

/// The soak: `schedule_count()` seeded kill storms, each run under all four
/// mechanisms, rotating the engine path per (schedule, mechanism) pair.
#[test]
fn kill_storm_soak_never_hangs() {
    let mesh = Mesh::new(MESH_W, MESH_H).expect("valid mesh");
    let mechs = mechanisms();
    let mut outcomes = [0u64; 2]; // [clean drains, structured errors]
    let mut detections = 0u64;
    for si in 0..schedule_count() {
        let mut rng = SimRng::seed_from(0xC4A0_5000 ^ si);
        let plan = random_plan(&mut rng, &mesh);
        let cfg = storm_config(plan);
        cfg.validate().expect("generated plans are valid");
        let kills = cfg.faults.kill_schedule(&mesh).len();
        for (mi, (name, factory)) in mechs.iter().enumerate() {
            let path = (si as usize + mi) % PATHS.len();
            let label = format!(
                "schedule {si} ({kills} killed links) x {name} path {}",
                PATHS[path],
            );
            let (fp, links_failed) = run_one(&cfg, factory.as_ref(), 0x50AC ^ si, path, &label);
            outcomes[fp.starts_with("error=Some") as usize] += 1;
            detections += links_failed;
        }
    }
    // The soak is only meaningful if both outcome classes occur across the
    // corpus: plenty of storms drain cleanly, and at least some terminate
    // with a structured error instead of hanging.
    assert!(
        outcomes[0] > 0,
        "soak produced no clean drains — storms are implausibly destructive"
    );
    assert!(
        detections > 0,
        "soak never detected a killed link — the storms are vacuous"
    );
}

/// Cross-path bit-identity on a few schedules: the serial, parallel and
/// snapshot-resume paths must agree byte-for-byte on the
/// entire behavioral fingerprint (stats, fault log, unreachable records).
#[test]
fn chaos_paths_are_bit_identical() {
    let mesh = Mesh::new(MESH_W, MESH_H).expect("valid mesh");
    let mechs = mechanisms();
    for si in 0..3u64 {
        let mut rng = SimRng::seed_from(0xC4A0_5000 ^ si);
        let cfg = storm_config(random_plan(&mut rng, &mesh));
        cfg.validate().expect("generated plans are valid");
        for (name, factory) in &mechs {
            let (base, _) = run_one(&cfg, factory.as_ref(), 0x50AC ^ si, 0, "serial ref");
            for (path, path_name) in PATHS.iter().enumerate().skip(1) {
                let label = format!("schedule {si} x {name} path {path_name}");
                let (fp, _) = run_one(&cfg, factory.as_ref(), 0x50AC ^ si, path, &label);
                assert_eq!(base, fp, "{label}: diverged from the serial path");
            }
        }
    }
}

/// Like [`random_plan`], but the repair plane is active: every schedule
/// heals some or all of its kills. A third of the schedules blanket-revive
/// every kill after a fixed delay, a third revive individual links/nodes
/// explicitly (leaving some kills permanent), and a third overlay rolling
/// churn on top of the kills.
fn random_heal_plan(rng: &mut SimRng, mesh: &Mesh) -> FaultPlan {
    let mut plan = random_plan(rng, mesh);
    match rng.gen_index(3) {
        0 => plan = plan.with_revive_after(100 + rng.gen_range(600)),
        1 => {
            for _ in 0..(1 + rng.gen_index(3)) {
                let at = 300 + rng.gen_range(600);
                let x = rng.gen_range(MESH_W as u64) as u16;
                let y = rng.gen_range(MESH_H as u64) as u16;
                let node = mesh.node_at(Coord::new(x, y)).expect("in bounds");
                plan = if rng.gen_index(2) == 0 {
                    let dir = Direction::ALL[rng.gen_index(4)];
                    plan.revive_link(node, dir, at)
                } else {
                    plan.revive_node(node, at)
                };
            }
        }
        _ => {
            let period = 120 + rng.gen_range(200);
            let duty = 0.3 + 0.4 * (rng.gen_index(5) as f64 / 4.0);
            plan = plan.with_churn(mesh, rng.gen_range(u64::MAX), period, duty, INJECT_CYCLES);
        }
    }
    plan
}

/// The repair-plane soak: `schedule_count()` seeded kill+revive schedules,
/// each run under all four mechanisms. Every (schedule, mechanism) pair is
/// run on the serial path and on one rotating alternate engine path
/// ({2, 4, 8} worker threads, or mid-churn snapshot-resume),
/// and the two behavioral fingerprints — stats, fault log, unreachable
/// records — must match byte for byte. Across the corpus every alternate
/// path is exercised against every mechanism.
#[test]
fn kill_revive_soak_cross_engine_identity() {
    let mesh = Mesh::new(MESH_W, MESH_H).expect("valid mesh");
    let mechs = mechanisms();
    let mut revivals = 0u64;
    let mut heals_seen = 0u64;
    for si in 0..schedule_count() {
        let mut rng = SimRng::seed_from(0x4EA1_0000 ^ si);
        let plan = random_heal_plan(&mut rng, &mesh);
        assert!(plan.has_revivals(), "schedule {si} generated no revivals");
        let cfg = storm_config(plan);
        cfg.validate().expect("generated plans are valid");
        revivals += cfg.faults.revive_schedule(&mesh).len() as u64;
        for (mi, (name, factory)) in mechs.iter().enumerate() {
            let alt = 1 + (si as usize + mi) % (PATHS.len() - 1);
            let label = format!("heal schedule {si} x {name} path {}", PATHS[alt]);
            let (base, _) = run_one(&cfg, factory.as_ref(), 0x4EA1 ^ si, 0, &label);
            let (fp, _) = run_one(&cfg, factory.as_ref(), 0x4EA1 ^ si, alt, &label);
            assert_eq!(base, fp, "{label}: diverged from the serial path");
            if base.contains("links_revived: 0") {
                continue;
            }
            heals_seen += 1;
        }
    }
    assert!(
        revivals > 0,
        "heal soak scheduled no revivals — the corpus is vacuous"
    );
    assert!(
        heals_seen > 0,
        "heal soak never observed a revival taking effect"
    );
}

/// The reconvergence property (DESIGN.md §15): a network whose every
/// killed link was revived — and whose gossip, credit re-sync, and
/// unreachable sweeps have all settled — behaves identically to a network
/// that was never faulted. The fault window passes while the network is
/// idle, so the subsequent identical traffic must produce byte-identical
/// delivery behavior: same stats (minus the fault-event counters that
/// record history), same latency distributions, same (empty) unreachable
/// log — on every engine.
#[test]
fn healed_network_matches_never_faulted() {
    const HEAL_SETTLE: u64 = 1_500;
    let mesh = Mesh::new(MESH_W, MESH_H).expect("valid mesh");
    let center = mesh.node_at(Coord::new(2, 2)).expect("in bounds");
    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "node kill + blanket revive",
            FaultPlan::none()
                .kill_node(center, 100)
                .with_revive_after(150),
        ),
        (
            "region kill + explicit revives",
            FaultPlan::none()
                .kill_region(0, 0, 1, 3, 120)
                .revive_region(0, 0, 1, 3, 400),
        ),
        (
            "rolling churn, fully healed",
            FaultPlan::none().with_churn(&mesh, 0xC4A5, 150, 0.5, 900),
        ),
    ];
    // Runs the same traffic on a network that idles through `plan`'s fault
    // window first, on `engine`, and returns the delivery-behavior
    // fingerprint.
    let fingerprint = |factory: &dyn afc_netsim::router::RouterFactory,
                       plan: &FaultPlan,
                       engine: Engine,
                       label: &str|
     -> String {
        let cfg = storm_config(plan.clone());
        cfg.validate().expect("valid plan");
        let mut network = Network::new(cfg, factory, 0x4EA7).expect("validated config");
        engine.apply(&mut network);
        while network.now() < HEAL_SETTLE {
            network
                .try_step()
                .unwrap_or_else(|e| panic!("{label}: idle fault window errored: {e}"));
        }
        let traffic = OpenLoopTraffic::new(
            RateSpec::Uniform(0.2),
            Pattern::UniformRandom,
            PacketMix::paper(),
            0x4EA7,
        );
        let mut sim = Simulation::new(network, traffic);
        sim.try_run(600)
            .unwrap_or_else(|e| panic!("{label}: traffic phase errored: {e}"));
        sim.traffic.stop();
        let drained = sim
            .try_drain(DRAIN_BUDGET)
            .unwrap_or_else(|e| panic!("{label}: drain errored: {e}"));
        assert!(drained, "{label}: failed to drain");
        sim.network
            .audit()
            .unwrap_or_else(|e| panic!("{label}: flit audit failed: {e}"));
        sim.network
            .credit_audit()
            .unwrap_or_else(|e| panic!("{label}: credit audit failed: {e}"));
        engine.assert_ran(&sim.network);
        let mut s = sim.network.stats().clone();
        if label.starts_with("healed") {
            assert!(s.links_failed > 0, "{label}: plan never killed a link");
            assert_eq!(
                s.links_failed, s.links_revived,
                "{label}: some kills were never revived"
            );
        }
        // The fault-event counters record that the (idle) fault window
        // happened; everything else must match the never-faulted run.
        s.links_failed = 0;
        s.links_revived = 0;
        s.fault_detection_latency = Default::default();
        format!(
            "stats={s:?} unreachable={:?}",
            sim.network.unreachable_packets()
        )
    };
    for (name, factory) in &mechanisms() {
        for engine in Engine::ALL {
            let clean = fingerprint(
                factory.as_ref(),
                &FaultPlan::none(),
                engine,
                &format!("clean x {name} x {engine:?}"),
            );
            for (desc, plan) in &plans {
                let label = format!("healed ({desc}) x {name} x {engine:?}");
                let healed = fingerprint(factory.as_ref(), plan, engine, &label);
                assert_eq!(
                    clean, healed,
                    "{label}: healed network diverged from never-faulted"
                );
            }
        }
    }
}
