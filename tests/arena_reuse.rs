//! The arena/warm-cache byte-identity wall (DESIGN.md §7): executing a
//! run on (a) a freshly constructed network, (b) a dirty pooled network
//! reinitialized in place by [`Network::reset_from_config`], and (c) a
//! fresh network fast-forwarded by restoring a cached post-warmup
//! snapshot must all be indistinguishable — pinned here by comparing
//! fingerprints of full [`Simulation::snapshot`] containers across all
//! four snapshot-capable mechanisms and three traffic patterns.
//!
//! Also pins the crash story: a warm entry that fails verification
//! (checksum or network fingerprint) is invalidated, re-warmed and
//! re-sealed — never trusted — and a sweep SIGKILLed mid-flight resumes
//! from its manifest to byte-identical results.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use afc_bench::sweep::{RunKind, RunSpec, SweepSpec};
use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_netsim::snapshot::{self, fnv1a64};
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::runner::{run, RunEnv, RunOutcome, Warm, WarmStore};
use afc_traffic::synthetic::Pattern;

const MECHANISMS: [MechanismId; 4] = [
    MechanismId::Backpressured,
    MechanismId::Backpressureless,
    MechanismId::Drop,
    MechanismId::Afc,
];

fn patterns() -> [Pattern; 3] {
    [
        Pattern::UniformRandom,
        Pattern::Transpose,
        Pattern::BitComplement,
    ]
}

fn traffic(pattern: Pattern, seed: u64) -> OpenLoopTraffic {
    OpenLoopTraffic::new(RateSpec::Uniform(0.10), pattern, PacketMix::paper(), seed)
}

/// Fingerprint of the complete simulation state (network + traffic).
fn state_fp(sim: &Simulation<OpenLoopTraffic>) -> u64 {
    fnv1a64(&sim.snapshot().expect("snapshot-capable"))
}

#[test]
fn reset_and_warm_restore_are_byte_identical_to_fresh_construction() {
    let cfg = NetworkConfig::paper_8x8();
    const SEED: u64 = 0xA11CE;
    const WARMUP: u64 = 200;
    const MEASURE: u64 = 200;
    for id in MECHANISMS {
        let mech = id.mechanism();
        let factory = mech.factory.as_ref();
        for pattern in patterns() {
            // (a) Fresh: construct, warm up, measure; fingerprint both
            // the post-warmup state and the final state.
            let net = Network::new(cfg.clone(), factory, SEED).expect("valid");
            let mut fresh = Simulation::new(net, traffic(pattern.clone(), SEED));
            fresh.run(WARMUP);
            let warm_bytes = fresh.snapshot().expect("snapshot-capable");
            let fp_warm = fnv1a64(&warm_bytes);
            fresh.run(MEASURE);
            let fp_final = state_fp(&fresh);

            // (b) Arena reset: dirty a simulation with *different* seed,
            // pattern, and duration, then reset it in place to the fresh
            // run's parameters. Every fingerprint must match (a).
            let dirty_net = Network::new(cfg.clone(), factory, 0xD1127).expect("valid");
            let mut pooled = Simulation::new(dirty_net, traffic(Pattern::UniformRandom, 0xD1127));
            pooled.run(137);
            assert!(
                pooled.reset_from_config(&cfg, factory, SEED, traffic(pattern.clone(), SEED)),
                "{}/{pattern:?}: arena-compatible reset refused",
                id.label()
            );
            pooled.run(WARMUP);
            assert_eq!(
                state_fp(&pooled),
                fp_warm,
                "{}/{pattern:?}: post-warmup state after in-place reset \
                 diverged from fresh construction",
                id.label()
            );
            pooled.run(MEASURE);
            assert_eq!(
                state_fp(&pooled),
                fp_final,
                "{}/{pattern:?}: final state after in-place reset diverged \
                 from fresh construction",
                id.label()
            );

            // (c) Warm restore: a fresh simulation fast-forwarded by the
            // cached post-warmup snapshot must land on the same final
            // state as simulating the warmup.
            let net = Network::new(cfg.clone(), factory, SEED).expect("valid");
            let mut warmed = Simulation::new(net, traffic(pattern.clone(), SEED));
            warmed
                .restore(&warm_bytes, "<warm cache>")
                .expect("self-consistent snapshot");
            warmed.run(MEASURE);
            assert_eq!(
                state_fp(&warmed),
                fp_final,
                "{}/{pattern:?}: final state after warm-restore diverged \
                 from simulating the warmup",
                id.label()
            );
        }
    }
}

#[test]
fn reset_refuses_incompatible_configurations() {
    let cfg = NetworkConfig::paper_8x8();
    let afc = MechanismId::Afc.mechanism();
    let bp = MechanismId::Backpressured.mechanism();
    let mut net = Network::new(cfg.clone(), afc.factory.as_ref(), 7).expect("valid");
    // Different mechanism: refused.
    assert!(!net.reset_from_config(&cfg, bp.factory.as_ref(), 7));
    // Different topology: refused.
    let bigger = NetworkConfig {
        width: 16,
        height: 16,
        ..cfg.clone()
    };
    assert!(!net.reset_from_config(&bigger, afc.factory.as_ref(), 7));
    // Identical config (any seed): accepted.
    assert!(net.reset_from_config(&cfg, afc.factory.as_ref(), 0xFFFF_FFFF));
}

/// A factory's private options are in neither its name nor the network
/// configuration. A same-named factory with different options must be
/// refused — or reset to exactly what it would have built: either way the
/// routers may not keep running the previous options.
#[test]
fn same_named_factory_with_other_options_never_inherits_the_old_routers() {
    use afc_core::{AfcConfig, AfcFactory, ClassThresholds};
    use afc_netsim::router::RouterFactory;
    use afc_routers::backpressured::{
        BackpressuredFactory, BackpressuredOptions, RoutingAlgorithm,
    };
    use afc_routers::deflection::RankPolicy;
    use afc_routers::drop::DropFactory;

    let eager = AfcFactory::new(AfcConfig {
        thresholds: ClassThresholds {
            corner: (0.2, 0.1),
            edge: (0.2, 0.1),
            center: (0.2, 0.1),
        },
        ..AfcConfig::paper()
    });
    let y_first = BackpressuredFactory::with_options(BackpressuredOptions {
        routing: RoutingAlgorithm::YFirst,
        ..BackpressuredOptions::default()
    });
    let oldest = DropFactory {
        policy: RankPolicy::OldestFirst,
    };
    let pairs: [(&dyn RouterFactory, &dyn RouterFactory); 3] = [
        (&AfcFactory::paper(), &eager),
        (&BackpressuredFactory::new(), &y_first),
        (&DropFactory::new(), &oldest),
    ];
    let cfg = NetworkConfig::paper_8x8();
    const SEED: u64 = 0x0B7;
    for (built_with, reset_with) in pairs {
        assert_eq!(built_with.name(), reset_with.name(), "same name by design");
        let run = |net: Network| {
            let mut sim = Simulation::new(net, traffic(Pattern::Transpose, SEED));
            sim.run(400);
            state_fp(&sim)
        };
        let fresh = run(Network::new(cfg.clone(), reset_with, SEED).expect("valid"));
        let own = run(Network::new(cfg.clone(), built_with, SEED).expect("valid"));
        assert_ne!(fresh, own, "{}: the options must matter", built_with.name());
        let mut arena = Network::new(cfg.clone(), built_with, 1).expect("valid");
        if arena.reset_from_config(&cfg, reset_with, SEED) {
            assert_eq!(
                run(arena),
                fresh,
                "{}: reset accepted a differently-configured factory and \
                 kept the old routers",
                built_with.name()
            );
        }
        // The same options are still arena-compatible.
        let mut arena = Network::new(cfg.clone(), reset_with, 1).expect("valid");
        assert!(arena.reset_from_config(&cfg, reset_with, SEED));
        assert_eq!(run(arena), fresh);
    }
}

// ---------------------------------------------------------------------------
// A warm entry that fails verification
// ---------------------------------------------------------------------------

/// An in-memory [`WarmStore`] that answers every lookup with `answer` — a
/// hit, or with none a miss asked to seal — and records what the runner
/// seals and invalidates.
struct FakeStore {
    answer: Option<Arc<Vec<u8>>>,
    sealed: Mutex<Vec<Vec<u8>>>,
    invalidated: AtomicUsize,
}

impl FakeStore {
    fn answering(answer: Option<Vec<u8>>) -> FakeStore {
        FakeStore {
            answer: answer.map(Arc::new),
            sealed: Mutex::new(Vec::new()),
            invalidated: AtomicUsize::new(0),
        }
    }
}

impl WarmStore for FakeStore {
    fn lookup(&self, _key: u64) -> Warm {
        match &self.answer {
            Some(bytes) => Warm::Hit(Arc::clone(bytes)),
            None => Warm::Cold { seal: true },
        }
    }
    fn put(&self, _key: u64, bytes: Vec<u8>) {
        self.sealed.lock().unwrap().push(bytes);
    }
    fn invalidate(&self, _key: u64) {
        self.invalidated.fetch_add(1, Ordering::Relaxed);
    }
}

/// Everything a run must reproduce: its window, statistics, counters and
/// the network's complete end state.
fn outcome_fp(out: &RunOutcome) -> (u64, String, String, u64) {
    let mut w = snapshot::SnapshotWriter::new();
    out.network.save_state(&mut w).expect("snapshot-capable");
    (
        out.measured_cycles,
        format!("{:?}", out.stats),
        format!("{:?}", out.counters),
        fnv1a64(&snapshot::seal(w)),
    )
}

/// The runner's restore-failure path: a hit whose bytes fail the
/// container checksum, pass it but belong to another mechanism's network,
/// or fail only after the network was restored, is invalidated once, the
/// warm-up is simulated on a rebuilt network and re-sealed — to the bytes
/// a clean miss seals — and the outcome is the cold run's.
#[test]
fn a_corrupt_warm_hit_is_invalidated_rewarmed_and_resealed() {
    let cfg = NetworkConfig::paper_8x8();
    let kind = RunKind::OpenLoop {
        rate: 0.10,
        pattern: Pattern::UniformRandom,
        mix: PacketMix::paper(),
        warmup_cycles: 300,
        measure_cycles: 300,
    };
    const SEED: u64 = 0x5EA1;
    let go = |id: MechanismId, store: &FakeStore| {
        let env = RunEnv {
            warm: Some(store),
            ..RunEnv::default()
        };
        let factory = id.mechanism().factory;
        outcome_fp(&run(&kind, factory.as_ref(), &cfg, SEED, env).expect("runs"))
    };
    let sealed: Vec<Vec<u8>> = MECHANISMS
        .iter()
        .map(|&id| {
            let store = FakeStore::answering(None);
            go(id, &store);
            store
                .sealed
                .into_inner()
                .unwrap()
                .pop()
                .expect("a miss asked to seal seals")
        })
        .collect();
    for (m, &id) in MECHANISMS.iter().enumerate() {
        let factory = id.mechanism().factory;
        let cold = run(&kind, factory.as_ref(), &cfg, SEED, RunEnv::default()).expect("runs");
        let cold = outcome_fp(&cold);
        let good = &sealed[m];
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0xFF;
        let foreign = sealed[(m + 1) % MECHANISMS.len()].clone();
        // Well sealed but cut short: the network restores and the traffic
        // decode fails — a partial restore. The payload sits between the
        // 20-byte header and the 8-byte checksum (DESIGN.md §11).
        let mut short = snapshot::SnapshotWriter::new();
        for &b in &good[20..good.len() - 16] {
            short.put_u8(b);
        }
        let short = snapshot::seal(short);
        for (bad, what) in [
            (flipped, "flipped byte"),
            (foreign, "another mechanism's"),
            (short, "cut short"),
        ] {
            let label = format!("{}: {what}", id.label());
            let store = FakeStore::answering(Some(bad));
            assert_eq!(go(id, &store), cold, "{label}: outcome");
            assert_eq!(store.invalidated.load(Ordering::Relaxed), 1, "{label}");
            let resealed = store.sealed.into_inner().unwrap();
            assert_eq!(resealed.len(), 1, "{label}: re-sealed once");
            snapshot::open(&resealed[0], "<re-sealed>").expect("the re-sealed entry verifies");
            assert_eq!(&resealed[0], good, "{label}: re-sealed bytes");
        }
    }
}

// ---------------------------------------------------------------------------
// SIGKILL mid-sweep, resumed from the manifest
// ---------------------------------------------------------------------------

/// The sweep used for the crash smoke: jobs long enough that a kill lands
/// mid-sweep.
fn crash_spec() -> SweepSpec {
    let runs = (0..12u64)
        .map(|i| RunSpec {
            mechanism: MechanismId::Afc,
            seed: 0xC0FFEE ^ i,
            kind: RunKind::OpenLoop {
                rate: 0.05,
                pattern: Pattern::UniformRandom,
                mix: PacketMix::paper(),
                warmup_cycles: 2_000,
                measure_cycles: 1_000,
            },
        })
        .collect();
    SweepSpec {
        name: "arena_crash_smoke".to_string(),
        net_cfg: NetworkConfig {
            width: 16,
            height: 16,
            ..NetworkConfig::paper_8x8()
        },
        runs,
    }
}

/// Child entry point: runs the resumable sweep until the parent kills it.
/// Never returns normally in the killed case.
fn crash_child(manifest: &Path) {
    let spec = crash_spec();
    spec.execute_resumable(manifest, true)
        .expect("resumable sweep");
}

#[test]
fn sigkill_mid_sweep_resumes_to_byte_identical_results() {
    if std::env::var("AFC_ARENA_CHAOS_CHILD").is_ok() {
        // Re-entered as the sacrificial child (the parent passes the
        // manifest path through the environment).
        let manifest = PathBuf::from(std::env::var("AFC_ARENA_CHAOS_MANIFEST").unwrap());
        crash_child(&manifest);
        return;
    }
    let dir = std::env::temp_dir().join(format!("afc-arena-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("crash.manifest");

    // Phase 0: the reference result, computed cold (no pool, no cache).
    let spec = crash_spec();
    let clean = spec.execute_with_threads_tuned(1, false, false).serialize();

    // Phase 1: spawn this test as a child and SIGKILL it mid-sweep, once
    // the manifest proves at least one job completed.
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe)
        .arg("sigkill_mid_sweep_resumes_to_byte_identical_results")
        .arg("--exact")
        .arg("--nocapture")
        .env("AFC_ARENA_CHAOS_CHILD", "1")
        .env("AFC_ARENA_CHAOS_MANIFEST", &manifest)
        .spawn()
        .expect("spawn child");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if manifest.exists() {
            break;
        }
        if let Ok(Some(_)) = child.try_wait() {
            break; // finished before we could kill it; resume is then a no-op
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child made no progress within 60s"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();

    // Phase 2: resume in this process from the manifest the kill left.
    let resumed = spec
        .execute_resumable(&manifest, true)
        .expect("resume after SIGKILL")
        .serialize();
    assert_eq!(
        resumed, clean,
        "results after SIGKILL + resume diverged from a clean run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
