//! Byte-level mutation of a sweep manifest (`SweepManifest`, the file
//! `open_loop --resume` reads back): every single-byte flip and every
//! truncation of a saved manifest — and a manifest in the retired JSON
//! layout — is refused by `SweepManifest::load` with an error naming the
//! file, never a panic; the untouched file loads back equal. A sweep
//! SIGKILLed mid-flight resumes from its manifest to byte-identical
//! results.

use std::path::{Path, PathBuf};
use std::process::Command;

use afc_bench::sweep::{RunKind, RunOutput, RunSpec, SweepError, SweepManifest, SweepSpec};
use afc_bench::MechanismId;
use afc_netsim::config::NetworkConfig;
use afc_traffic::openloop::PacketMix;
use afc_traffic::synthetic::Pattern;

fn spec() -> SweepSpec {
    let runs = [0.05, 0.10, 0.15, 0.20]
        .iter()
        .map(|&rate| RunSpec {
            mechanism: MechanismId::Afc,
            seed: 3,
            kind: RunKind::OpenLoop {
                rate,
                pattern: Pattern::UniformRandom,
                mix: PacketMix::single_flit(),
                warmup_cycles: 50,
                measure_cycles: 100,
            },
        })
        .collect();
    SweepSpec {
        name: "mutation".to_string(),
        net_cfg: NetworkConfig::paper_3x3(),
        runs,
    }
}

fn output(label: &str, mean_latency: Option<f64>, outcome: &str) -> RunOutput {
    RunOutput {
        label: label.to_string(),
        cycles: 100,
        packets_delivered: 42,
        flits_delivered: 42,
        injection_rate: 0.1500000000000001,
        throughput: 0.14,
        mean_latency,
        energy_pj: 1234.5678,
        backpressured_fraction: 0.25,
        mean_deflections: 0.0,
        delivered_fraction: 1.0,
        outcome: outcome.to_string(),
    }
}

/// Loads `path` holding `bytes`, requiring a refusal that names the file.
fn assert_refused(path: &Path, bytes: &[u8], what: &str) {
    std::fs::write(path, bytes).unwrap();
    match SweepManifest::load(path) {
        Ok(_) => panic!("{what}: accepted"),
        Err(err @ SweepError::Manifest { .. }) => {
            let msg = err.to_string();
            assert!(msg.contains("mutation.manifest"), "{what}: {msg}");
        }
        Err(other) => panic!("{what}: not a manifest error: {other:?}"),
    }
}

#[test]
fn every_flipped_byte_and_truncation_is_refused_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("afc-manifest-mutation-{}", std::process::id()));
    let path = dir.join("mutation.manifest");
    let mut manifest = SweepManifest::new(&spec());
    manifest.record(
        3,
        &output("afc/open@0.200@3", None, "drain budget exhausted"),
    );
    manifest.record(0, &output("afc/open@0.050@3", Some(9.5), "ok"));
    let odd = "error: a\ttab, a \"quote\"\nand a newline";
    manifest.record(1, &output("afc/open@0.100@3", Some(12.25), odd));
    manifest.save(&path).unwrap();
    let saved = std::fs::read(&path).unwrap();
    assert_eq!(SweepManifest::load(&path).unwrap(), manifest);

    for at in 0..saved.len() {
        let mut flipped = saved.clone();
        flipped[at] ^= 0xFF;
        assert_refused(&path, &flipped, &format!("byte {at} flipped"));
    }
    for len in 0..saved.len() {
        assert_refused(&path, &saved[..len], &format!("cut to {len} bytes"));
    }
    // What the previous build wrote for a sweep of this name.
    let json = "{\n  \"version\": 1,\n  \"sweep\": \"mutation\",\n  \
                \"fingerprint\": \"0123456789abcdef\",\n  \"total\": 4,\n  \
                \"checksum\": \"0123456789abcdef\",\n  \"jobs\": [\n  ]\n}\n";
    assert_refused(&path, json.as_bytes(), "JSON layout");

    std::fs::write(&path, &saved).unwrap();
    let loaded = SweepManifest::load(&path).unwrap();
    assert_eq!(loaded, manifest);
    assert_eq!(loaded.jobs[1].1.outcome, odd);
    std::fs::remove_dir_all(&dir).unwrap();
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

    // Phase 0: the reference result, computed in one uninterrupted run.
    let spec = crash_spec();
    let clean = spec.execute_with_threads(1).serialize();

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
