//! The workspace's `unsafe` budget (DESIGN.md §12): at most three `unsafe`
//! tokens in the library and binary sources (`src/`, `crates/*/src/`), all
//! inside the one function of `crates/netsim/src/parallel.rs` that carries
//! `#[allow(unsafe_code)]`; every library root keeps its lint — `deny` in
//! `afc-netsim` (so that one function may opt out), `forbid` elsewhere.
//! Comments do not count.

use std::path::{Path, PathBuf};

const BUDGET: usize = 3;
const HOME: &str = "crates/netsim/src/parallel.rs";

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The line without its `//` comment (string literals holding `//` are
/// not a concern for this scan).
fn code(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at])
}

/// Occurrences of the keyword `unsafe` (not `unsafe_code`) in `code`.
fn unsafe_tokens(code: &str) -> usize {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    code.match_indices("unsafe")
        .filter(|&(at, word)| {
            let before = code[..at].chars().next_back();
            let after = code[at + word.len()..].chars().next();
            !before.is_some_and(ident) && !after.is_some_and(ident)
        })
        .count()
}

/// Every library and binary source file, relative to the workspace root.
fn sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    (files.iter())
        .map(|p| {
            let rel = p.strip_prefix(root).expect("under root");
            let text = std::fs::read_to_string(p).expect("readable source");
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .collect()
}

/// The 1-based line span of the function the only `#[allow(unsafe_code)]`
/// in `text` is attached to.
fn allowed_fn(text: &str) -> (usize, usize) {
    let lines: Vec<&str> = text.lines().collect();
    let attrs: Vec<usize> = (0..lines.len())
        .filter(|&i| code(lines[i]).contains("allow(unsafe_code)"))
        .collect();
    assert_eq!(attrs.len(), 1, "{HOME}: exactly one allow(unsafe_code)");
    let attr = attrs[0];
    assert!(
        code(lines[attr]).trim() == "#[allow(unsafe_code)]",
        "{HOME}:{}: the allow must be an item attribute, not module-wide",
        attr + 1
    );
    let item = (attr + 1..lines.len())
        .find(|&i| !code(lines[i]).trim().is_empty() && !lines[i].trim().starts_with("#["))
        .expect("an item follows the attribute");
    let head = code(lines[item]).trim_start();
    assert!(
        head.starts_with("fn ") || head.contains(" fn "),
        "{HOME}:{}: allow(unsafe_code) must sit on a function, not `{head}`",
        attr + 1
    );
    let mut depth = 0i64;
    let mut opened = false;
    for (i, line) in lines.iter().enumerate().skip(item) {
        for c in code(line).chars() {
            match c {
                '{' => (depth, opened) = (depth + 1, true),
                '}' => depth -= 1,
                _ => {}
            }
        }
        if opened && depth == 0 {
            return (attr + 1, i + 1);
        }
    }
    panic!("{HOME}: unbalanced braces after allow(unsafe_code)");
}

#[test]
fn unsafe_stays_inside_one_function_of_the_parallel_engine() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = sources(root);
    assert!(sources.len() >= 40, "only {} files scanned", sources.len());
    let mut found = Vec::new();
    for (path, text) in &sources {
        for (i, line) in text.lines().enumerate() {
            for _ in 0..unsafe_tokens(code(line)) {
                found.push((path.as_str(), i + 1));
            }
        }
        assert!(
            !text
                .lines()
                .any(|l| code(l).contains("#![allow(unsafe_code)]")),
            "{path}: module-wide allow(unsafe_code)"
        );
    }
    assert!(
        found.len() <= BUDGET,
        "{} unsafe tokens, budget {BUDGET}: {found:?}",
        found.len()
    );
    let home = &sources.iter().find(|(p, _)| p == HOME).expect(HOME).1;
    let (lo, hi) = allowed_fn(home);
    for &(path, line) in &found {
        assert!(
            path == HOME && (lo..=hi).contains(&line),
            "unsafe at {path}:{line}, outside {HOME}:{lo}-{hi}"
        );
    }
}

#[test]
fn every_library_root_keeps_its_unsafe_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src/lib.rs")];
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let lib = krate.expect("dir entry").path().join("src/lib.rs");
        if lib.is_file() {
            roots.push(lib);
        }
    }
    assert!(roots.len() >= 7, "{roots:?}");
    for lib in roots {
        let text = std::fs::read_to_string(&lib).expect("lib.rs");
        let netsim = lib.ends_with("crates/netsim/src/lib.rs");
        let want = if netsim {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert!(
            text.lines().any(|l| code(l).trim() == want),
            "{} lost `{want}`",
            lib.display()
        );
    }
}

#[test]
fn the_scan_sees_what_it_looks_for() {
    assert_eq!(unsafe_tokens("let x = unsafe { f() };"), 1);
    assert_eq!(unsafe_tokens("#![forbid(unsafe_code)]"), 0);
    assert_eq!(unsafe_tokens("unsafe impl Send for X {} unsafe fn g()"), 2);
    assert_eq!(unsafe_tokens("not_unsafe(); unsafely"), 0);
    assert_eq!(code("f(); // unsafe"), "f(); ");
    let text = "fn a() {}\n#[allow(unsafe_code)]\nfn b() {\n    { x }\n}\nfn c() {}\n";
    assert_eq!(allowed_fn(text), (2, 5));
}
