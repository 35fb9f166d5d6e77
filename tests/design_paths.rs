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

/// CI runs named test targets and name filters; a filter that matches
/// nothing passes with "0 passed". Every `--test X` in `ci.yml` must name
/// a test file, and every filter after it a `fn` in that file.
#[test]
fn every_test_target_and_filter_ci_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    let ci = ci.replace("\\\n", " ");
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/");
    let test_dirs: Vec<_> = std::iter::once(root.join("tests"))
        .chain(crates.map(|e| e.expect("entry").path().join("tests")))
        .collect();
    let mut checked = 0;
    for line in ci.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        for (i, _) in words.iter().enumerate().filter(|&(_, &w)| w == "--test") {
            let target = words[i + 1];
            let file = (test_dirs.iter().map(|d| d.join(format!("{target}.rs"))))
                .find(|f| f.is_file())
                .unwrap_or_else(|| panic!("ci.yml runs --test {target}, which does not exist"));
            let source = std::fs::read_to_string(&file).expect("test source");
            let filters = words[i + 2..]
                .iter()
                .take_while(|w| !w.starts_with('-') && !["&&", "||", ";", "|", ">"].contains(w));
            for filter in filters {
                assert!(
                    source.contains(&format!("fn {filter}(")),
                    "ci.yml filters --test {target} by {filter}, which names no fn there"
                );
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 4,
        "only {checked} --test runs found: the scan is broken"
    );
}

/// The two front-door documents stay readable in one sitting: a change that
/// documents something new replaces prose rather than piling it on.
/// EXPERIMENTS.md, the append-only lab notebook, has no cap.
#[test]
fn design_and_readme_stay_under_their_size_caps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (doc, cap) in [("DESIGN.md", 68_000), ("README.md", 20_000)] {
        let bytes = std::fs::metadata(root.join(doc)).expect(doc).len();
        assert!(bytes <= cap, "{doc} is {bytes} B, over its {cap} B cap");
    }
}
