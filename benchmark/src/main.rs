//! `afc-perf`: the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! afc-perf --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (BENCHMARK.json's command)
//! afc-perf all                                             every workload, traced: every metric by name
//! afc-perf trace W                                         one workload, traced
//! afc-perf aa [--handicap 1.05]                            same code in pairs: must agree (or see the handicap)
//! afc-perf pin                                             regenerate expected.json (its own PR)
//! afc-perf manifest                                        print BENCHMARK.json
//! ```
//!
//! Exit status is non-zero only on a harness error (or a failed `aa`),
//! never on a slow number or a failing case: those are reported.

mod alloc;
mod cases;
mod harness;
mod refkernel;
mod report;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use cases::{Size, WORKLOADS};
use harness::{Options, Outcome, END_TO_END};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    handicap: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".to_string(),
        workload: None,
        seed: 1,
        seconds: report::RUN_SECONDS as f64,
        trace: false,
        handicap: 1.0,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        args.command = (*first).clone();
        it.next();
        if args.command == "trace" {
            args.workload = it.next().cloned();
            args.trace = true;
        }
    }
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("{flag}: '{value}' is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: '{value}' is not a whole number"))?;
            }
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0.0,
            "--handicap" => args.handicap = number()?.max(1.0),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(args)
}

fn options(args: &Args, workload: &str, trace: bool, handicap: f64) -> Options {
    Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace,
        handicap,
        size: Size::Full,
        check_pins: true,
    }
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect()
}

fn report_failures(o: &Outcome) {
    for f in &o.failures {
        eprintln!("afc-perf: FAILED {f}");
    }
}

/// Pairs `aa` runs per workload: one pair cannot resolve 5% on a shared
/// host, the median of three can.
const AA_PAIRS: usize = 3;

/// `aa`: every workload run in pairs with the same code, alternating which
/// side runs first; the verdict is on the median ratio over the pairs.
/// Without a handicap the sides must agree within each metric's bound; with
/// one, the handicapped side's `wall_s` must rise by the handicap (within
/// 40% of it either way: 3-7% for 1.05). Pairs that differ among themselves
/// by more than the bound show neither: the metric reads as unresolved.
fn aa(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut outcomes = Vec::new();
    for w in selected(args) {
        let mut ratios = vec![Vec::new(); END_TO_END.len()];
        for pair in 0..AA_PAIRS {
            let plain = || harness::run(&options(args, w, false, 1.0));
            let other = || harness::run(&options(args, w, false, args.handicap));
            let (a, b) = if pair % 2 == 0 {
                let a = plain()?;
                (a, other()?)
            } else {
                let b = other()?;
                (plain()?, b)
            };
            for (k, (ma, mb)) in a.end_to_end.iter().zip(&b.end_to_end).enumerate() {
                ratios[k].push(mb.value / ma.value);
            }
            report_failures(&a);
            report_failures(&b);
            ok &= a.failures.is_empty() && b.failures.is_empty();
            outcomes.extend([a, b]);
        }
        println!("\n== aa {w} (seed {}, {AA_PAIRS} pairs) ==", args.seed);
        for ((name, _, bound), r) in END_TO_END.iter().zip(&ratios) {
            let ratio = stats::median(r);
            let agrees = if args.handicap == 1.0 {
                (ratio - 1.0).abs() <= *bound
            } else if *name == "wall_s" {
                let extra = args.handicap - 1.0;
                (1.0 + 0.6 * extra..=1.0 + 1.4 * extra).contains(&ratio)
            } else {
                true
            };
            let range = stats::percentile(r, 1.0) - stats::percentile(r, 0.0);
            let verdict = match (range <= *bound, agrees) {
                (false, _) => "UNRESOLVED",
                (true, true) => "ok",
                (true, false) => "DISAGREES",
            };
            ok &= verdict == "ok";
            println!(
                "  {name:<14} median ratio {ratio:.4} of {r:.4?} (bound {bound:.2}) {verdict}"
            );
        }
    }
    report::write_results(&outcomes)?;
    println!("\naa: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// `pin`: regenerates `expected.json` from seed 1. Refuses when a case
/// fails its audits or differs between rounds.
fn pin(args: &Args) -> Result<(), String> {
    let mut text = String::from("{\n");
    let mut pins = Vec::new();
    for (w, _) in WORKLOADS {
        let o = harness::run(&Options {
            seed: 1,
            seconds: 0.0,
            check_pins: false,
            ..options(args, w, false, 1.0)
        })?;
        if let Some(f) = o.failures.first() {
            return Err(format!("refusing to pin a failing case: {f}"));
        }
        pins.extend(o.fingerprints);
    }
    for (i, (name, f)) in pins.iter().enumerate() {
        let _ = writeln!(
            text,
            "  \"{name}\": \"{f:016x}\"{}",
            if i + 1 < pins.len() { "," } else { "" }
        );
    }
    text.push_str("}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    afc_bench::sweep::write_atomic(&path, text.as_bytes()).map_err(|e| e.to_string())?;
    println!("pinned {} cases in {}", pins.len(), path.display());
    Ok(())
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.command.as_str() {
        "manifest" => print!("{}", report::manifest()),
        "pin" => pin(args)?,
        "aa" => return aa(args),
        "all" | "trace" => {
            let workloads = selected(args);
            if workloads.is_empty() {
                return Err(format!("unknown workload {:?}", args.workload));
            }
            let mut outcomes = Vec::new();
            for w in workloads {
                let o = harness::run(&options(args, w, true, args.handicap))?;
                report::print_table(&o);
                outcomes.push(o);
            }
            report::write_results(&outcomes)?;
        }
        "run" => {
            let w = args
                .workload
                .as_deref()
                .ok_or("--workload is required (or a command: all, trace, aa, pin, manifest)")?;
            let o = harness::run(&options(args, w, args.trace, args.handicap))?;
            report_failures(&o);
            eprintln!(
                "afc-perf: {w} seed {}: {} rounds, raw wall {:.4} s, reference call {:.2} ms (spread {:.3})",
                o.seed, o.host.rounds, o.host.raw_wall_s, o.host.ref_ms_p50, o.host.ref_spread
            );
            let line = report::result_line(&o, args.trace);
            report::write_results(&[o])?;
            println!("{line}");
        }
        other => return Err(format!("unknown command '{other}'")),
    }
    Ok(true)
}

fn main() -> ExitCode {
    let set = harness::afc_env_vars(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if !set.is_empty() {
        eprintln!(
            "afc-perf: refusing to start with {} set: AFC_* variables change what is measured",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("afc-perf: error: {e}");
            ExitCode::from(2)
        }
    }
}
