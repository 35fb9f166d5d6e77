//! Output: the contract's one-line result, the printed table,
//! `out/results.json`, and the generated `BENCHMARK.json`.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::cases::WORKLOADS;
use crate::harness::{Metric, Outcome, END_TO_END};
use crate::trace::per_layer_names;

/// `--seconds` the driver passes, and the default of `all`/`trace`/`aa`.
pub const RUN_SECONDS: u64 = 24;

/// Writes `text` to `benchmark/out/<name>`.
///
/// # Errors
///
/// The I/O error with the path it concerns.
pub fn write_out(name: &str, text: &str) -> Result<(), String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(name);
    afc_bench::sweep::write_atomic(&path, text.as_bytes()).map_err(|e| e.to_string())
}

/// Escapes `s` for use inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The contract's result object: the last line of standard output.
pub fn result_line(o: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failures.is_empty(),
        o.attempted,
        o.failed(),
        metrics_object(if trace { &o.per_layer } else { &o.end_to_end })
    )
}

/// Every metric by name with its unit, one workload per block.
pub fn print_table(o: &Outcome) {
    println!(
        "\n== {} (seed {}, {} rounds, {} of {} case-rounds failed) ==",
        o.workload,
        o.seed,
        o.host.rounds,
        o.failed(),
        o.attempted
    );
    for f in &o.failures {
        println!("  FAILED {f}");
    }
    let share = o.failed() as f64 / o.attempted.max(1) as f64;
    println!("  {:<40} {:>14.6} share", "failed_share", share);
    for m in o.end_to_end.iter().chain(&o.per_layer) {
        println!("  {:<40} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if let Some(err) = o.per_layer.iter().find(|m| m.name == "model.max_abs_error") {
        if err.value > 0.0 {
            println!(
                "  (model error vs the paper's Fig. 2 geomeans: {:.3}; a simulator-only change must leave model.* bit-identical)",
                err.value
            );
        }
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Best-effort commit id of the checkout, without running git.
fn commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// `out/results.json`: one object per workload with metrics, units, bounds,
/// sample counts, host cores and commit.
///
/// # Errors
///
/// As [`write_out`].
pub fn write_results(outcomes: &[Outcome]) -> Result<(), String> {
    let mut text = String::from("[\n");
    for (i, o) in outcomes.iter().enumerate() {
        let bounds: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _, b)| format!("\"{n}\": {b}"))
            .collect();
        let failures: Vec<String> = o
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        let _ = write!(
            text,
            "  {{\"workload\": \"{}\", \"seed\": {}, \"commit\": \"{}\", \"host_cores\": {}, \
             \"rounds\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}],\n   \
             \"bounds\": {{{}}},\n   \"end_to_end\": {},\n   \"per_layer\": {}}}{}\n",
            o.workload,
            o.seed,
            escape(&commit()),
            host_cores(),
            o.host.rounds,
            o.attempted,
            o.failed(),
            failures.join(", "),
            bounds.join(", "),
            metrics_object(&o.end_to_end),
            metrics_object(&o.per_layer),
            if i + 1 < outcomes.len() { "," } else { "" }
        );
    }
    text.push_str("]\n");
    write_out("results.json", &text)
}

/// The text of the root `BENCHMARK.json`, generated so the metric lists
/// cannot drift from what the harness emits (`manifest_is_current` checks
/// the committed file against this).
pub fn manifest() -> String {
    let mut text = String::from(
        "{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(text, "  \"run_seconds\": {RUN_SECONDS},");
    text.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            text,
            "    {{\"name\": \"{name}\", \"why\": \"{}\"}}{}",
            escape(why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    text.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, bound)) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            text,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"lower\", \"bound\": {bound}}}{}",
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    text.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer_names();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let _ = writeln!(
            text,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{}",
            if i + 1 < layers.len() { "," } else { "" }
        );
    }
    text.push_str("  ]\n}\n");
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_current() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `afc-perf manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        assert!(manifest().len() < 64 << 10);
        let layers = per_layer_names();
        assert_eq!(layers.len(), 103);
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(layers.iter().map(|m| m.0.as_str()))
            .collect();
        for n in &names {
            assert!(n.len() <= 64, "{n} too long");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n} has a character outside letters, digits, _ . -"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for (name, _, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
        assert_eq!(escape("x\"y\n"), "x\\\"y\\n");
    }
}
