//! DESIGN.md names source files as the place a claim is implemented or
//! proven. Every `tests/…`, `examples/…`, `crates/…` and `bench/…` path it
//! names must exist, so the per-experiment index and the proof-obligation
//! lists cannot point at files that were renamed or never written.

use std::path::Path;

#[test]
fn every_source_path_design_md_names_is_on_disk() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./-*".contains(c);
    let mut checked = 0;
    for token in design.split(|c| !is_path_char(c)) {
        if !token.ends_with(".rs") || token.contains('*') {
            continue;
        }
        // `bench/...` is shorthand for the harness crate.
        let path = match token.split('/').next() {
            Some("tests" | "examples" | "crates") => token.to_string(),
            Some("bench") => format!("crates/{token}"),
            _ => continue,
        };
        assert!(
            root.join(&path).is_file(),
            "DESIGN.md names {token}, which does not exist"
        );
        checked += 1;
    }
    assert!(
        checked >= 30,
        "only {checked} paths recognised: the scan is broken"
    );
}
