//! The paired-rounds timing protocol and the end-to-end metrics.
//!
//! A workload is a list of cases; a case is a short deterministic segment.
//! Step cases are built once, snapshotted in memory, and every round
//! restores (untimed) then runs the identical segment (timed). Sweep cases
//! clear the arena pool and the warm cache (untimed) then time one
//! `execute_with_threads(1)`: every round is a cold sweep invocation, as a
//! CLI user pays it. Rounds interleave all cases. The reference kernel runs
//! between every two timed regions; a sample is
//! `t / mean(ref_before, ref_after) * nominal_s`, and a case's value is
//! the median of its samples. Rounds repeat identical work, so spread
//! between rounds is host noise and is reported as `harness.*`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use afc_bench::sweep::{pool_clear, warm_cache, SweepResults, SweepSpec};
use afc_energy::{EnergyModel, EnergyParams};
use afc_netsim::network::Network;
use afc_netsim::sim::Simulation;
use afc_netsim::snapshot::fnv1a64;
use afc_traffic::openloop::{OpenLoopTraffic, PacketMix, RateSpec};
use afc_traffic::synthetic::Pattern;

use crate::alloc;
use crate::cases::{self, CaseKind, CaseSpec, Size, StepSpec, MECHS};
use crate::refkernel::RefKernel;
use crate::stats::{median, spread};

/// The end-to-end metrics, in `BENCHMARK.json` order: name, unit, bound.
/// On the defining host ten 24 s runs with ten seeds spread (quartile
/// distance over median) by 2-4% in `wall_s` when the host is calm and up
/// to 6.5% when it is turbulent, 4-17% in `setup_s` and at most 1.1% in
/// `peak_heap_mb` (README, "Noise evidence"): a difference below the bound
/// but inside that spread is unresolved, not absent. `failed_share` is not
/// among them because a benchmark metric must never read 0: failures travel
/// as `failed`/`attempted` instead.
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("wall_s", "s", 0.10),
    ("setup_s", "s", 0.20),
    ("peak_heap_mb", "MB", 0.03),
];

/// Rounds a run makes even when one round outlasts `--seconds`.
const MIN_ROUNDS: usize = 3;

const EXPECTED: &str = include_str!("../expected.json");

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Busy-spin factor applied inside timed regions (1.0 = none); proves a
    /// real slowdown of that size is seen through the normalisation.
    pub handicap: f64,
    pub size: Size,
    /// Compare with `expected.json` at seed 1 (off for `pin` and smoke runs).
    pub check_pins: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    /// Empty unless `Options::trace`.
    pub per_layer: Vec<Metric>,
    /// `(case, fingerprint)` of every case, for `pin`.
    pub fingerprints: Vec<(String, u64)>,
    pub host: HostStats,
}

/// Host diagnostics of the untraced rounds: how many there were, the
/// un-normalised pass time and how the reference calls behaved (also
/// `harness.*` when traced).
#[derive(Debug, Clone, Copy)]
pub struct HostStats {
    pub rounds: usize,
    pub raw_wall_s: f64,
    pub ref_ms_p50: f64,
    pub ref_spread: f64,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// A step case ready for rounds: the live simulation and its post-warm-up
/// snapshot.
pub struct Step {
    pub spec: StepSpec,
    pub sim: Simulation<OpenLoopTraffic>,
    pub snapshot: Vec<u8>,
}

pub enum Prepared {
    Step(Box<Step>),
    Sweep(SweepSpec),
}

/// What one execution of a case produced, reduced to what is compared.
pub struct CaseRun {
    pub fingerprint: u64,
    pub problem: Option<String>,
}

/// The reference-kernel clock: every timed region goes through
/// [`Clock::timed`].
pub struct Clock {
    refk: RefKernel,
    ref_prev: f64,
    /// Every reference call's seconds, in order.
    pub refs: Vec<f64>,
    handicap: f64,
}

pub struct Bench {
    pub opts: Options,
    pub clock: Clock,
    pub names: Vec<String>,
    pub cases: Vec<Prepared>,
    /// Raw and reference-normalised seconds per case, one entry per round.
    pub raw: Vec<Vec<f64>>,
    pub norm: Vec<Vec<f64>>,
    reference: Vec<Option<u64>>,
    pinned: Vec<Option<u64>>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Allocator calls inside the timed step segments of the latest round.
    pub steady_allocs: u64,
    pub energy: EnergyModel,
}

/// Builds a step case up to its snapshot point: construct, warm up, zero
/// the metrics so stats cover the segment only, snapshot.
pub fn build_step(spec: &StepSpec) -> Result<Step, String> {
    let mechanism = MECHS[spec.mech].1.mechanism();
    let network = Network::new(spec.cfg.clone(), mechanism.factory.as_ref(), spec.seed)
        .map_err(|e| format!("invalid configuration: {e}"))?;
    let traffic = OpenLoopTraffic::new(
        RateSpec::Uniform(spec.rate),
        Pattern::UniformRandom,
        PacketMix::paper(),
        spec.seed,
    );
    let mut sim = Simulation::new(network, traffic);
    sim.try_run(spec.warmup)
        .map_err(|e| format!("warm-up: {e}"))?;
    sim.network.reset_metrics();
    let snapshot = sim.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    Ok(Step {
        spec: spec.clone(),
        sim,
        snapshot,
    })
}

fn fnv_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// Fingerprint of a step segment's results, over fields read through
/// accessors — not over serialised text, so a new stats column later does
/// not re-pin everything.
pub fn step_fingerprint(net: &Network, energy: &EnergyModel) -> u64 {
    let (s, c) = (net.stats(), net.total_counters());
    fnv_words(&[
        s.cycles,
        s.packets_delivered,
        s.flits_delivered,
        s.network_latency.sum(),
        s.flit_hops.sum(),
        c.link_traversals,
        c.deflections,
        c.drops,
        c.retransmissions + s.flits_retransmitted,
        c.mode_switches_forward + c.mode_switches_reverse + c.mode_switches_gossip,
        energy.price_network(net).total().to_bits(),
    ])
}

/// Checks and fingerprints a step segment that ran to completion.
pub fn check_step(net: &Network, energy: &EnergyModel) -> CaseRun {
    CaseRun {
        fingerprint: step_fingerprint(net, energy),
        problem: net.audit().and(net.credit_audit()).err(),
    }
}

/// Fingerprint of a sweep's flat outputs; a job that did not end in `ok`
/// or `drained` (a panic, a watchdog error, an exhausted drain budget) is
/// the case's problem.
pub fn check_sweep(results: &SweepResults) -> CaseRun {
    let mut words = Vec::with_capacity(results.outputs.len() * 7);
    let mut problem = None;
    for o in &results.outputs {
        words.extend([
            o.cycles,
            o.packets_delivered,
            o.flits_delivered,
            o.mean_latency.map_or(u64::MAX, f64::to_bits),
            o.energy_pj.to_bits(),
            o.mean_deflections.to_bits(),
            o.backpressured_fraction.to_bits(),
        ]);
        if o.outcome != "ok" && o.outcome != "drained" && problem.is_none() {
            problem = Some(format!("job {}: {}", o.label, o.outcome));
        }
    }
    CaseRun {
        fingerprint: fnv_words(&words),
        problem,
    }
}

/// Reads `expected.json`: one `"case": "16 hex digits"` pair per line, as
/// `afc-perf pin` writes it.
fn pinned_fingerprints(names: &[String]) -> Result<Vec<Option<u64>>, String> {
    let mut pins = Vec::new();
    for line in EXPECTED.lines().filter(|l| l.contains(':')) {
        let quoted: Vec<&str> = line.split('"').collect();
        match quoted[..] {
            [_, name, _, hex, _] => pins.push((
                name,
                u64::from_str_radix(hex, 16)
                    .map_err(|_| format!("expected.json: bad fingerprint for {name}"))?,
            )),
            _ => return Err(format!("expected.json: cannot read line '{line}'")),
        }
    }
    Ok(names
        .iter()
        .map(|n| pins.iter().find(|(name, _)| name == n).map(|&(_, f)| f))
        .collect())
}

impl Clock {
    /// Times `f`, then the reference kernel, and returns `f`'s result with
    /// its raw and normalised seconds. The reference call made here is the
    /// "after" of this region and the "before" of the next.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let t = Instant::now();
        let r = f();
        let work = t.elapsed().as_secs_f64();
        while t.elapsed().as_secs_f64() < work * self.handicap {
            std::hint::spin_loop();
        }
        let raw = t.elapsed().as_secs_f64();
        let after = self.refk.time();
        let norm = raw / ((self.ref_prev + after) / 2.0) * self.refk.nominal_s;
        self.ref_prev = after;
        self.refs.push(after);
        (r, raw, norm)
    }
}

impl Bench {
    /// Records one execution of case `i`: compares with the first execution
    /// of this run and, at the default seed, with the pin. Returns whether
    /// the execution was clean; only a clean one may contribute a timing.
    pub fn verify(&mut self, i: usize, context: &str, run: Result<CaseRun, String>) -> bool {
        self.attempted += 1;
        let problem = match run {
            Err(e) => Some(e),
            Ok(CaseRun {
                problem: Some(p), ..
            }) => Some(p),
            Ok(CaseRun { fingerprint, .. }) => {
                let first = *self.reference[i].get_or_insert(fingerprint);
                if fingerprint != first {
                    Some(format!(
                        "result {fingerprint:016x} differs from this run's first {first:016x}"
                    ))
                } else if self.opts.seed == 1 && self.opts.check_pins {
                    match self.pinned[i] {
                        Some(p) if p == fingerprint => None,
                        Some(p) => Some(format!(
                            "result {fingerprint:016x} differs from pinned {p:016x}"
                        )),
                        None => Some("no pinned expectation (run `afc-perf pin`)".to_string()),
                    }
                } else {
                    None
                }
            }
        };
        if let Some(p) = &problem {
            self.failures
                .push(format!("{} [{context}]: {p}", self.names[i]));
        }
        problem.is_none()
    }

    /// One timed execution of case `i` (restore or cache clearing untimed).
    fn run_case(&mut self, i: usize) -> (Result<CaseRun, String>, f64, f64) {
        match &mut self.cases[i] {
            Prepared::Step(step) => {
                let segment = step.spec.segment;
                match step.sim.restore(&step.snapshot, "<memory>") {
                    Err(e) => (Err(format!("restore: {e}")), 0.0, 0.0),
                    Ok(()) => {
                        let sim = &mut step.sim;
                        let (r, raw, norm) = self.clock.timed(|| {
                            let before = alloc::calls();
                            let r = catch_unwind(AssertUnwindSafe(|| sim.try_run(segment)));
                            (r, alloc::calls() - before)
                        });
                        let (r, allocs) = r;
                        self.steady_allocs += allocs;
                        let run = match r {
                            Err(_) => Err("panicked".to_string()),
                            Ok(Err(e)) => Err(e.to_string()),
                            Ok(Ok(())) => Ok(check_step(&step.sim.network, &self.energy)),
                        };
                        (run, raw, norm)
                    }
                }
            }
            Prepared::Sweep(spec) => {
                pool_clear();
                warm_cache().clear();
                let (results, raw, norm) = self.clock.timed(|| spec.execute_with_threads(1));
                (Ok(check_sweep(&results)), raw, norm)
            }
        }
    }

    pub fn case_medians(&self) -> Vec<f64> {
        self.norm.iter().map(|s| median(s)).collect()
    }

    pub fn raw_medians(&self) -> Vec<f64> {
        self.raw.iter().map(|s| median(s)).collect()
    }

    /// Median over cases of the between-round spread of normalised samples.
    pub fn round_spread(&self) -> f64 {
        median(&self.norm.iter().map(|s| spread(s)).collect::<Vec<_>>())
    }
}

/// Names of set `AFC_*` variables. Any of them changes what the crates do
/// (engine, thread counts, pool, cache), so the harness refuses to start.
pub fn afc_env_vars(vars: impl Iterator<Item = String>) -> Vec<String> {
    vars.filter(|k| k.starts_with("AFC_")).collect()
}

/// Runs one workload: set-up, timed rounds for `opts.seconds`, and — when
/// tracing — the traced rounds and isolated layer timings.
///
/// # Errors
///
/// Harness errors only (unknown workload, unreadable pins, a case that
/// cannot be built). A failing or slow case is an [`Outcome`], not an error.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let workload = || {
        cases::workload(&opts.workload, opts.seed, opts.size)
            .ok_or_else(|| format!("unknown workload '{}'", opts.workload))
    };
    // The kernel is chosen by the workload's largest mesh, so the specs are
    // made once to look at and once more, below, as timed set-up work.
    let largest = workload()?.iter().map(CaseSpec::nodes).max().unwrap_or(0);
    let mut refk = RefKernel::for_nodes(largest);
    refk.time(); // page in the kernel's memory before anything is divided by it
    let ref_prev = refk.time();
    let heap_base = alloc::mark();

    let t = Instant::now();
    let specs = workload()?;
    let spec_raw = t.elapsed().as_secs_f64();
    let names: Vec<String> = specs.iter().map(|c| c.name.clone()).collect();
    let n = names.len();
    let mut b = Bench {
        opts: opts.clone(),
        clock: Clock {
            refk,
            ref_prev,
            refs: vec![ref_prev],
            handicap: opts.handicap,
        },
        pinned: pinned_fingerprints(&names)?,
        names,
        cases: Vec::with_capacity(n),
        raw: vec![Vec::new(); n],
        norm: vec![Vec::new(); n],
        reference: vec![None; n],
        attempted: 0,
        failures: Vec::new(),
        steady_allocs: 0,
        energy: EnergyModel::new(EnergyParams::micro2010_70nm()),
    };

    // Set-up: everything before the first timed round. The step cases'
    // set-up (construct, warm up, snapshot, one after the other) is one
    // timed region, repeated, and its median kept; a sweep case constructs
    // and warms inside its jobs, so its set-up is the one cold first pass,
    // which also yields the outputs every later round is compared with.
    let mut setup_s = spec_raw / ref_prev * b.clock.refk.nominal_s;
    let step_specs: Vec<(&str, &StepSpec)> = specs
        .iter()
        .filter_map(|c| match &c.kind {
            CaseKind::Step(spec) => Some((c.name.as_str(), spec)),
            CaseKind::Sweep(_) => None,
        })
        .collect();
    let mut built = Vec::new();
    if !step_specs.is_empty() {
        // One 32x32 set-up costs ~1.6 s, so fewer of them.
        let reps = if largest >= 1024 { 3 } else { 7 };
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            built.clear(); // never two generations live: keeps the peak honest
            let (steps, _, norm) = b.clock.timed(|| {
                step_specs
                    .iter()
                    .map(|(name, spec)| build_step(spec).map_err(|e| format!("{name}: {e}")))
                    .collect::<Result<Vec<Step>, String>>()
            });
            built = steps?;
            samples.push(norm);
        }
        setup_s += median(&samples);
    }
    drop(step_specs);
    let mut built = built.into_iter();
    for (i, case) in specs.into_iter().enumerate() {
        match case.kind {
            CaseKind::Step(_) => {
                let step = built.next().expect("one per step spec");
                b.cases.push(Prepared::Step(Box::new(step)));
            }
            CaseKind::Sweep(spec) => {
                b.cases.push(Prepared::Sweep(spec));
                let (run, _, norm) = b.run_case(i);
                b.verify(i, "set-up pass", run);
                setup_s += norm;
            }
        }
    }

    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let start = Instant::now();
    let (mut rounds, mut longest) = (0usize, 0.0f64);
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() + longest <= budget {
        let round_start = Instant::now();
        b.steady_allocs = 0; // identical work every round: keep the last round's count
        for i in 0..n {
            let (run, raw, norm) = b.run_case(i);
            // A failed round ends early or does other work: its time would
            // make a broken case read faster.
            if b.verify(i, &format!("round {rounds}"), run) {
                b.raw[i].push(raw);
                b.norm[i].push(norm);
            }
        }
        rounds += 1;
        longest = longest.max(round_start.elapsed().as_secs_f64());
    }
    if let Some(i) = b.norm.iter().position(Vec::is_empty) {
        return Err(format!(
            "{} failed every round, so there is nothing to time: {}",
            b.names[i],
            b.failures.join("; ")
        ));
    }

    let peak_heap_mb = alloc::peak_since_mark(heap_base) as f64 / (1u64 << 20) as f64;
    let values = [b.case_medians().iter().sum(), setup_s, peak_heap_mb];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();

    let host = HostStats {
        rounds,
        raw_wall_s: b.raw_medians().iter().sum(),
        ref_ms_p50: median(&b.clock.refs) * 1e3,
        ref_spread: spread(&b.clock.refs),
    };
    let per_layer = if opts.trace {
        crate::trace::run(&mut b, &host)?
    } else {
        Vec::new()
    };
    let fingerprints = b
        .names
        .iter()
        .zip(&b.reference)
        .filter_map(|(n, f)| f.map(|f| (n.clone(), f)))
        .collect();
    Ok(Outcome {
        workload: opts.workload.clone(),
        seed: opts.seed,
        attempted: b.attempted,
        failures: b.failures,
        end_to_end,
        per_layer,
        fingerprints,
        host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_any_afc_variable() {
        let vars = [
            "PATH",
            "AFC_FULL_SCAN",
            "afc_lower",
            "AFC_SWEEP_POOL",
            "HOME",
        ];
        assert_eq!(
            afc_env_vars(vars.iter().map(|s| s.to_string())),
            vec!["AFC_FULL_SCAN", "AFC_SWEEP_POOL"]
        );
        assert!(afc_env_vars(["CARGO_TARGET_DIR".to_string()].into_iter()).is_empty());
    }

    /// Three rounds of every workload at reduced size, traced: no case
    /// fails and every metric `BENCHMARK.json` names is there and finite.
    #[test]
    fn smoke_every_workload_reports_every_named_metric() {
        let _serial = alloc::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let named = [
            END_TO_END
                .iter()
                .map(|m| m.0.to_string())
                .collect::<Vec<_>>(),
            crate::trace::per_layer_names()
                .into_iter()
                .map(|m| m.0)
                .collect(),
        ];
        for (w, _) in cases::WORKLOADS {
            let o = run(&Options {
                workload: w.to_string(),
                seed: 7,
                seconds: 0.0,
                trace: true,
                handicap: 1.0,
                size: Size::Smoke,
                check_pins: false,
            })
            .unwrap();
            assert_eq!(o.failures, Vec::<String>::new(), "{w}");
            assert_eq!(o.host.rounds, MIN_ROUNDS);
            assert!(o.attempted >= (MIN_ROUNDS * o.fingerprints.len()) as u64);
            for (metrics, named) in [&o.end_to_end, &o.per_layer].into_iter().zip(&named) {
                let got: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(&got, named, "{w}");
                for m in metrics {
                    assert!(m.value.is_finite(), "{w} {} = {}", m.name, m.value);
                }
            }
            for m in &o.end_to_end {
                assert!(m.value > 0.0, "{w} {} must never read 0", m.name);
            }
            let layer = |name: &str| o.per_layer.iter().find(|m| m.name == name).unwrap().value;
            assert!(layer(&format!("case.{}.s", o.fingerprints[0].0)) > 0.0);
            assert!(layer("router.step_ns.bp") > 0.0 && layer("channel.advance_ns") > 0.0);
            assert_eq!(layer("sweep.jobs") > 0.0, w == "paper_sweep");
            assert_eq!(layer("parallel.ns_per_cycle_2t") > 0.0, w == "mesh32_sat");
        }
    }

    #[test]
    fn every_case_has_a_pin() {
        let pins = pinned_fingerprints(&cases::all_case_names()).unwrap();
        assert_eq!(pins.len(), 31);
        assert!(pins.iter().all(Option::is_some));
        assert_eq!(pinned_fingerprints(&["nope".to_string()]).unwrap(), [None]);
    }

    #[test]
    fn fingerprint_is_order_and_value_sensitive() {
        assert_ne!(fnv_words(&[1, 2]), fnv_words(&[2, 1]));
        assert_ne!(fnv_words(&[1, 2]), fnv_words(&[1, 3]));
        assert_eq!(fnv_words(&[7, 9]), fnv_words(&[7, 9]));
    }
}
