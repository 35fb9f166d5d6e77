//! Byte-level mutation of a sweep manifest (`SweepManifest`, the file
//! `open_loop --resume` reads back): every single-byte flip and every
//! truncation of a saved manifest — and a manifest in the retired JSON
//! layout — is refused by `SweepManifest::load` with an error naming the
//! file, never a panic; the untouched file loads back equal.

use std::path::Path;

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
