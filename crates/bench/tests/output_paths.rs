//! The fault and healing benchmarks write their `results/` files under the
//! directory they run in, like `fig2` and `open_loop` — never into the
//! checkout they were built from.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every regular file directly under `dir`, with its bytes, by path.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| e.path()).collect::<Vec<_>>())
        .unwrap_or_default()
        .into_iter()
        .filter(|p| p.is_file())
        .map(|p| {
            let bytes = std::fs::read(&p).expect("readable result file");
            (p, bytes)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn faults_and_healing_write_results_under_the_working_directory() {
    let checkout = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results");
    let before = files(&checkout);
    let cwd = std::env::temp_dir().join(format!("afc-output-paths-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp dir");
    let runs: [(&str, &[&str]); 2] = [
        (
            env!("CARGO_BIN_EXE_faults"),
            &["BENCH_degradation.json", "degradation.csv"],
        ),
        (env!("CARGO_BIN_EXE_healing"), &["BENCH_healing.json"]),
    ];
    for (bin, written) in runs {
        let out = Command::new(bin)
            .args(["--quick", "--threads", "1"])
            .current_dir(&cwd)
            .output()
            .expect("bench binary starts");
        assert!(
            out.status.success(),
            "{bin} --quick failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        for name in written {
            let path = cwd.join("results").join(name);
            let len = std::fs::metadata(&path).map_or(0, |m| m.len());
            assert!(len > 0, "{bin} did not write {}", path.display());
        }
    }
    let after = files(&checkout);
    std::fs::remove_dir_all(&cwd).expect("temp dir removable");
    assert!(
        before == after,
        "a bench binary rewrote files under {}",
        checkout.display()
    );
}
