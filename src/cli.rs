//! Argument parsing and dispatch for the `afc-noc` command-line tool.
//!
//! Kept dependency-free: flags are `--key value` pairs parsed by hand, with
//! every decision testable through [`Cli::parse`].

use crate::prelude::*;
use afc_netsim::config::MAX_SIM_THREADS;
use afc_netsim::router::RouterFactory;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Cli {
    /// `afc-noc run` — one closed-loop measurement.
    Run(RunArgs),
    /// `afc-noc inspect` — run AFC briefly and print per-router adaptive
    /// state.
    Inspect(InspectArgs),
    /// `afc-noc sweep` — open-loop latency-throughput sweep.
    Sweep(SweepArgs),
    /// `afc-noc faults` — fault-injection scenario with end-to-end recovery.
    Faults(FaultArgs),
    /// `afc-noc list` — print available mechanisms, workloads, patterns.
    List,
    /// `afc-noc help` (or parse failure, carrying the message).
    Help(Option<String>),
}

/// Arguments of the `run` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Mechanism name.
    pub mechanism: String,
    /// Workload name.
    pub workload: String,
    /// Mesh dimensions.
    pub mesh: (u16, u16),
    /// RNG seed.
    pub seed: u64,
    /// Warmup transactions.
    pub warmup: u64,
    /// Measured transactions.
    pub txns: u64,
    /// Cycles between mid-run checkpoints (0 disables them).
    pub checkpoint_every: u64,
    /// Checkpoint file (written atomically when checkpointing is active).
    pub checkpoint_file: String,
    /// Resume from this checkpoint file instead of starting fresh.
    pub resume_from: Option<String>,
    /// Worker threads for the intra-run parallel cycle engine (results are
    /// byte-identical at any value; this is purely a wall-clock knob).
    pub sim_threads: usize,
}

/// Arguments of the `inspect` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct InspectArgs {
    /// Workload name.
    pub workload: String,
    /// Mesh dimensions.
    pub mesh: (u16, u16),
    /// Cycles to run before inspecting.
    pub cycles: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Arguments of the `sweep` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Mechanism name.
    pub mechanism: String,
    /// Traffic pattern name.
    pub pattern: String,
    /// Offered rates (flits/node/cycle).
    pub rates: Vec<f64>,
    /// Mesh dimensions.
    pub mesh: (u16, u16),
    /// Measured cycles per point.
    pub cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the intra-run parallel cycle engine.
    pub sim_threads: usize,
}

/// Arguments of the `faults` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultArgs {
    /// Mechanism name.
    pub mechanism: String,
    /// Mesh dimensions.
    pub mesh: (u16, u16),
    /// Offered load (flits/node/cycle).
    pub rate: f64,
    /// Per-flit-hop transient drop probability.
    pub drop: f64,
    /// Per-flit-hop transient corruption probability.
    pub corrupt: f64,
    /// Per-credit loss probability.
    pub credit_loss: f64,
    /// Permanent link kill: `x,y:DIR:cycle` (e.g. `1,1:E:1000`).
    pub kill: Option<(u16, u16, Direction, u64)>,
    /// Whole-node kill (all four links): `x,y:cycle`.
    pub kill_node: Option<(u16, u16, u64)>,
    /// Row kill (every link touching row y): `y:cycle`.
    pub kill_row: Option<(u16, u64)>,
    /// Column kill (every link touching column x): `x:cycle`.
    pub kill_column: Option<(u16, u64)>,
    /// Rectangular-region kill: `x0,y0,x1,y1:cycle` (inclusive corners).
    pub kill_region: Option<(u16, u16, u16, u16, u64)>,
    /// Revive every killed link this many cycles after its kill.
    pub revive_after: Option<u64>,
    /// Random link churn: `seed,period,duty` (see `FaultPlan::with_churn`).
    pub fault_churn: Option<(u64, u64, f64)>,
    /// Injection cycles before sources stop.
    pub cycles: u64,
    /// Drain budget after sources stop.
    pub drain: u64,
    /// Retransmit timeout in cycles (0 disables end-to-end recovery).
    pub timeout: u64,
    /// Retransmit attempt cap (0 = retry forever).
    pub max_retransmit: u32,
    /// RNG seed.
    pub seed: u64,
}

/// Names of the available mechanisms.
pub const MECHANISMS: &[&str] = &[
    "backpressured",
    "bp-read-bypass",
    "bp-ideal-bypass",
    "bless",
    "bless-oldest",
    "drop",
    "afc",
    "afc-always-bp",
];

/// Names of the available workloads.
pub const WORKLOADS: &[&str] = &["barnes", "ocean", "water", "apache", "oltp", "specjbb"];

/// Names of the available open-loop patterns.
pub const PATTERNS: &[&str] = &[
    "uniform",
    "transpose",
    "bit-complement",
    "near-neighbor",
    "tornado",
    "shuffle",
    "rotation",
    "quadrant",
];

/// Builds the router factory for a mechanism name.
///
/// # Errors
///
/// Returns the unknown name.
pub fn mechanism_factory(name: &str) -> Result<Box<dyn RouterFactory>, String> {
    Ok(match name {
        "backpressured" => Box::new(BackpressuredFactory::new()),
        "bp-read-bypass" => Box::new(BackpressuredFactory::read_bypass()),
        // The plain network; what differs is `mechanism_accounting`.
        "bp-ideal-bypass" => Box::new(BackpressuredFactory::new()),
        "bless" => Box::new(DeflectionFactory::new()),
        "bless-oldest" => Box::new(DeflectionFactory::oldest_first()),
        "drop" => Box::new(DropFactory::new()),
        "afc" => Box::new(AfcFactory::paper()),
        "afc-always-bp" => Box::new(AfcFactory::always_backpressured()),
        other => return Err(format!("unknown mechanism {other:?} (see `afc-noc list`)")),
    })
}

/// How a mechanism name's buffer reads are charged: ideal bypass is the
/// backpressured network under another accounting, every other name is
/// priced as its routers recorded.
pub fn mechanism_accounting(name: &str) -> BufferAccounting {
    match name {
        "bp-ideal-bypass" => BufferAccounting::IdealBypass,
        _ => BufferAccounting::default(),
    }
}

/// Looks up a workload preset by name.
///
/// # Errors
///
/// Returns the unknown name.
pub fn workload_by_name(name: &str) -> Result<WorkloadParams, String> {
    workloads::all()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?} (see `afc-noc list`)"))
}

/// Looks up a pattern by name.
///
/// # Errors
///
/// Returns the unknown name.
pub fn pattern_by_name(name: &str) -> Result<Pattern, String> {
    Ok(match name {
        "uniform" => Pattern::UniformRandom,
        "transpose" => Pattern::Transpose,
        "bit-complement" => Pattern::BitComplement,
        "near-neighbor" => Pattern::NearNeighbor,
        "tornado" => Pattern::Tornado,
        "shuffle" => Pattern::Shuffle,
        "rotation" => Pattern::Rotation,
        "quadrant" => Pattern::Quadrant,
        other => return Err(format!("unknown pattern {other:?} (see `afc-noc list`)")),
    })
}

fn parse_direction(s: &str) -> Result<Direction, String> {
    Ok(match s.to_ascii_uppercase().as_str() {
        "N" | "NORTH" => Direction::North,
        "S" | "SOUTH" => Direction::South,
        "E" | "EAST" => Direction::East,
        "W" | "WEST" => Direction::West,
        other => return Err(format!("bad direction {other:?} (use N/S/E/W)")),
    })
}

/// Parses a permanent-kill spec of the form `x,y:DIR:cycle`.
fn parse_kill(s: &str) -> Result<(u16, u16, Direction, u64), String> {
    let mut parts = s.split(':');
    let coord = parts.next().ok_or_else(|| format!("bad --kill {s:?}"))?;
    let dir = parts
        .next()
        .ok_or_else(|| format!("bad --kill {s:?} (missing direction)"))?;
    let at = parts
        .next()
        .ok_or_else(|| format!("bad --kill {s:?} (missing cycle)"))?;
    if parts.next().is_some() {
        return Err(format!("bad --kill {s:?} (expected x,y:DIR:cycle)"));
    }
    let (x, y) = coord
        .split_once(',')
        .ok_or_else(|| format!("bad --kill coordinate {coord:?} (expected x,y)"))?;
    let x = x.parse().map_err(|_| format!("bad --kill x {x:?}"))?;
    let y = y.parse().map_err(|_| format!("bad --kill y {y:?}"))?;
    let dir = parse_direction(dir)?;
    let at = at.parse().map_err(|_| format!("bad --kill cycle {at:?}"))?;
    Ok((x, y, dir, at))
}

/// Parses a churn spec of the form `seed,period,duty` (e.g. `7,4000,0.75`).
fn parse_fault_churn(s: &str) -> Result<(u64, u64, f64), String> {
    let parts: Vec<&str> = s.split(',').collect();
    let [seed, period, duty] = parts.as_slice() else {
        return Err(format!(
            "bad --fault-churn {s:?} (expected seed,period,duty)"
        ));
    };
    let seed = seed
        .parse()
        .map_err(|_| format!("bad --fault-churn seed {seed:?}"))?;
    let period: u64 = period
        .parse()
        .map_err(|_| format!("bad --fault-churn period {period:?}"))?;
    if period == 0 {
        return Err("bad --fault-churn (period must be >= 1)".into());
    }
    let duty: f64 = duty
        .parse()
        .map_err(|_| format!("bad --fault-churn duty {duty:?}"))?;
    if !(0.0..=1.0).contains(&duty) {
        return Err("bad --fault-churn (duty must be in [0, 1])".into());
    }
    Ok((seed, period, duty))
}

/// Splits a kill-storm spec `body:cycle` and parses the trailing cycle.
fn split_kill_at<'a>(flag: &str, s: &'a str) -> Result<(&'a str, u64), String> {
    let (body, at) = s
        .rsplit_once(':')
        .ok_or_else(|| format!("bad --{flag} {s:?} (missing :cycle)"))?;
    let at = at
        .parse()
        .map_err(|_| format!("bad --{flag} cycle {at:?}"))?;
    Ok((body, at))
}

/// Parses a comma-separated coordinate list of exactly `n` u16 fields.
fn parse_coords(flag: &str, body: &str, n: usize) -> Result<Vec<u16>, String> {
    let fields: Vec<&str> = body.split(',').collect();
    if fields.len() != n {
        return Err(format!(
            "bad --{flag} {body:?} (expected {n} comma-separated coordinates)"
        ));
    }
    fields
        .iter()
        .map(|f| {
            f.parse()
                .map_err(|_| format!("bad --{flag} coordinate {f:?}"))
        })
        .collect()
}

/// Parses a node-kill spec of the form `x,y:cycle`.
fn parse_kill_node(s: &str) -> Result<(u16, u16, u64), String> {
    let (body, at) = split_kill_at("kill-node", s)?;
    let c = parse_coords("kill-node", body, 2)?;
    Ok((c[0], c[1], at))
}

/// Parses a row/column-kill spec of the form `i:cycle`.
fn parse_kill_line(flag: &str, s: &str) -> Result<(u16, u64), String> {
    let (body, at) = split_kill_at(flag, s)?;
    let c = parse_coords(flag, body, 1)?;
    Ok((c[0], at))
}

/// Parses a region-kill spec of the form `x0,y0,x1,y1:cycle`.
fn parse_kill_region(s: &str) -> Result<(u16, u16, u16, u16, u64), String> {
    let (body, at) = split_kill_at("kill-region", s)?;
    let c = parse_coords("kill-region", body, 4)?;
    Ok((c[0], c[1], c[2], c[3], at))
}

fn parse_threads(s: &str) -> Result<usize, String> {
    let n: usize = s.parse().map_err(|_| format!("bad --sim-threads {s:?}"))?;
    if !(1..=MAX_SIM_THREADS).contains(&n) {
        return Err(format!("--sim-threads must be in 1..={MAX_SIM_THREADS}"));
    }
    Ok(n)
}

/// Parses an injection rate (flits/node/cycle) given to `--{flag}`: any
/// finite value `>= 0`. Rates above 1 stay legal — the packet probability
/// saturates at 1 — but a negative, NaN or infinite rate would run and
/// print a meaningless offered load.
fn parse_rate(flag: &str, s: &str) -> Result<f64, String> {
    let s = s.trim();
    match s.parse::<f64>() {
        Ok(rate) if rate.is_finite() && rate >= 0.0 => Ok(rate),
        _ => Err(format!(
            "bad --{flag} {s:?} (an injection rate must be a finite number >= 0)"
        )),
    }
}

fn parse_mesh(s: &str) -> Result<(u16, u16), String> {
    let (w, h) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("mesh must look like 3x3, got {s:?}"))?;
    let w = w.parse().map_err(|_| format!("bad mesh width {w:?}"))?;
    let h = h.parse().map_err(|_| format!("bad mesh height {h:?}"))?;
    Ok((w, h))
}

/// Flags `afc-noc run` accepts.
const RUN_FLAGS: &[&str] = &[
    "mechanism",
    "workload",
    "mesh",
    "seed",
    "warmup",
    "txns",
    "checkpoint-every",
    "checkpoint-file",
    "resume-from",
    "sim-threads",
];
/// Flags `afc-noc inspect` accepts.
const INSPECT_FLAGS: &[&str] = &["workload", "mesh", "cycles", "seed"];
/// Flags `afc-noc sweep` accepts.
const SWEEP_FLAGS: &[&str] = &[
    "mechanism",
    "pattern",
    "rates",
    "mesh",
    "cycles",
    "seed",
    "sim-threads",
];
/// Flags `afc-noc faults` accepts.
const FAULT_FLAGS: &[&str] = &[
    "mechanism",
    "mesh",
    "rate",
    "drop",
    "corrupt",
    "credit-loss",
    "kill",
    "kill-node",
    "kill-row",
    "kill-column",
    "kill-region",
    "revive-after",
    "fault-churn",
    "cycles",
    "drain",
    "timeout",
    "max-retransmit",
    "seed",
];

/// A subcommand's `--key value` pairs: every key one the subcommand
/// accepts, none given twice.
struct Flags(std::collections::HashMap<&'static str, String>);

impl Flags {
    fn take(cmd: &str, args: &[String], allowed: &[&'static str]) -> Result<Flags, String> {
        let mut map = std::collections::HashMap::new();
        let mut rest = args;
        while let [key, tail @ ..] = rest {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {key:?}"))?;
            let name = allowed
                .iter()
                .find(|&&a| a == name)
                .ok_or_else(|| format!("unknown flag {key} for `afc-noc {cmd}`"))?;
            let [value, tail @ ..] = tail else {
                return Err(format!("flag {key} needs a value"));
            };
            if map.insert(*name, value.clone()).is_some() {
                return Err(format!("flag {key} given twice to `afc-noc {cmd}`"));
            }
            rest = tail;
        }
        Ok(Flags(map))
    }

    /// The value of `--key`, or `default`.
    fn get(&self, key: &str, default: &str) -> String {
        self.opt(key).map_or(default, String::as_str).to_string()
    }

    /// `--key` parsed as a number, or `default`.
    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.opt(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad --{key} {v:?}"))
        })
    }

    /// The value of `--key`, if given.
    fn opt(&self, key: &str) -> Option<&String> {
        self.0.get(key)
    }
}

impl Cli {
    /// Parses `argv[1..]`.
    pub fn parse(args: &[String]) -> Cli {
        match Cli::try_parse(args) {
            Ok(cli) => cli,
            Err(msg) => Cli::Help(Some(msg)),
        }
    }

    fn try_parse(args: &[String]) -> Result<Cli, String> {
        let Some(cmd) = args.first() else {
            return Ok(Cli::Help(None));
        };
        let flags = |allowed| Flags::take(cmd, &args[1..], allowed);
        match cmd.as_str() {
            "list" => Ok(Cli::List),
            "help" | "--help" | "-h" => Ok(Cli::Help(None)),
            "run" => {
                let f = flags(RUN_FLAGS)?;
                Ok(Cli::Run(RunArgs {
                    mechanism: f.get("mechanism", "afc"),
                    workload: f.get("workload", "apache"),
                    mesh: parse_mesh(&f.get("mesh", "3x3"))?,
                    seed: f.num("seed", 1)?,
                    warmup: f.num("warmup", 500)?,
                    txns: f.num("txns", 2_000)?,
                    checkpoint_every: f.num("checkpoint-every", 0)?,
                    checkpoint_file: f.get("checkpoint-file", "results/afc-noc.ckpt"),
                    resume_from: f.opt("resume-from").cloned(),
                    sim_threads: parse_threads(&f.get("sim-threads", "1"))?,
                }))
            }
            "inspect" => {
                let f = flags(INSPECT_FLAGS)?;
                Ok(Cli::Inspect(InspectArgs {
                    workload: f.get("workload", "ocean"),
                    mesh: parse_mesh(&f.get("mesh", "3x3"))?,
                    cycles: f.num("cycles", 20_000)?,
                    seed: f.num("seed", 1)?,
                }))
            }
            "sweep" => {
                let f = flags(SWEEP_FLAGS)?;
                let rates = f
                    .get("rates", "0.1,0.3,0.5,0.7")
                    .split(',')
                    .map(|r| parse_rate("rates", r))
                    .collect::<Result<Vec<f64>, String>>()?;
                Ok(Cli::Sweep(SweepArgs {
                    mechanism: f.get("mechanism", "afc"),
                    pattern: f.get("pattern", "uniform"),
                    rates,
                    mesh: parse_mesh(&f.get("mesh", "3x3"))?,
                    cycles: f.num("cycles", 10_000)?,
                    seed: f.num("seed", 1)?,
                    sim_threads: parse_threads(&f.get("sim-threads", "1"))?,
                }))
            }
            "faults" => {
                let f = flags(FAULT_FLAGS)?;
                Ok(Cli::Faults(FaultArgs {
                    mechanism: f.get("mechanism", "afc"),
                    mesh: parse_mesh(&f.get("mesh", "3x3"))?,
                    rate: parse_rate("rate", &f.get("rate", "0.10"))?,
                    drop: f.num("drop", 5e-4)?,
                    corrupt: f.num("corrupt", 5e-4)?,
                    credit_loss: f.num("credit-loss", 0.0)?,
                    kill: f.opt("kill").map(|s| parse_kill(s)).transpose()?,
                    kill_node: f.opt("kill-node").map(|s| parse_kill_node(s)).transpose()?,
                    kill_row: f
                        .opt("kill-row")
                        .map(|s| parse_kill_line("kill-row", s))
                        .transpose()?,
                    kill_column: f
                        .opt("kill-column")
                        .map(|s| parse_kill_line("kill-column", s))
                        .transpose()?,
                    kill_region: f
                        .opt("kill-region")
                        .map(|s| parse_kill_region(s))
                        .transpose()?,
                    revive_after: f
                        .opt("revive-after")
                        .map(|s| s.parse().map_err(|_| format!("bad --revive-after {s:?}")))
                        .transpose()?,
                    fault_churn: f
                        .opt("fault-churn")
                        .map(|s| parse_fault_churn(s))
                        .transpose()?,
                    cycles: f.num("cycles", 5_000)?,
                    drain: f.num("drain", 300_000)?,
                    timeout: f.num("timeout", 600)?,
                    max_retransmit: f.num("max-retransmit", 0)?,
                    seed: f.num("seed", 1)?,
                }))
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

/// The help text.
pub const USAGE: &str = "\
afc-noc — Adaptive Flow Control NoC simulator

USAGE:
  afc-noc run   [--mechanism M] [--workload W] [--mesh 3x3] [--seed N]
                [--warmup N] [--txns N] [--checkpoint-every N]
                [--checkpoint-file F] [--resume-from F] [--sim-threads N]
  afc-noc sweep [--mechanism M] [--pattern P] [--rates 0.1,0.3,...]
                [--mesh 3x3] [--cycles N] [--seed N] [--sim-threads N]
  afc-noc inspect [--workload W] [--mesh 3x3] [--cycles N] [--seed N]
  afc-noc faults  [--mechanism M] [--mesh 3x3] [--rate R] [--drop P]
                  [--corrupt P] [--credit-loss P] [--kill x,y:DIR:CYCLE]
                  [--kill-node x,y:CYCLE] [--kill-row Y:CYCLE]
                  [--kill-column X:CYCLE] [--kill-region x0,y0,x1,y1:CYCLE]
                  [--revive-after N] [--fault-churn SEED,PERIOD,DUTY]
                  [--cycles N] [--drain N] [--timeout N]
                  [--max-retransmit N] [--seed N]
  afc-noc list
  afc-noc help

With --checkpoint-every N, `run` writes a checksummed checkpoint of the
full simulation state to --checkpoint-file (atomically) every N cycles;
--resume-from continues an interrupted run from such a file and finishes
bit-identically to an uninterrupted run. A checkpoint records its own
workload/seed/targets and refuses to resume under different arguments.

The faults scenario injects deterministic, seed-reproducible link faults
(transient drop/corruption per flit-hop, credit loss, permanent kill) while
per-packet checksums and NI retransmission recover end to end; a stall
watchdog turns deadlock into a structured report instead of a hang.
--timeout 0 disables retransmission.

Permanent kills come in five shapes: a single directed link (--kill), a
whole node (--kill-node severs all of its links), a row or column
(--kill-row / --kill-column sever every link touching it), or an
inclusive rectangle (--kill-region). Routers detect dead links on a
deterministic schedule, gossip the fault map, and detour the remaining
traffic over the alive graph (DESIGN.md §13); packets whose destination
became unreachable are cut off after --max-retransmit attempts (0 =
retry forever) and reported as structured unreachable outcomes.

Links can also come back. --revive-after N schedules a revival of every
killed link N cycles after its kill; --fault-churn SEED,PERIOD,DUTY
kills one seed-reproducibly chosen link every PERIOD cycles and revives
it DUTY*PERIOD cycles later, a rolling wave of link outages.
Revivals propagate through the same epoch-versioned gossip as kills, a
credit re-sync handshake restores the revived link's flow control, and
a fully healed network reconverges to the exact clean fast path
(DESIGN.md §15).

--sim-threads N steps each cycle on N worker threads, 1 to 64 (spatially
sharded; see DESIGN.md §12). Results are byte-identical at any thread
count, so the flag only changes wall-clock time.

An unknown or repeated flag is an error (exit 2).
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_run_with_defaults() {
        let cli = Cli::parse(&argv("run"));
        let Cli::Run(a) = cli else {
            panic!("expected run")
        };
        assert_eq!(a.mechanism, "afc");
        assert_eq!(a.mesh, (3, 3));
        assert_eq!(a.txns, 2000);
        assert_eq!(a.checkpoint_every, 0);
        assert_eq!(a.checkpoint_file, "results/afc-noc.ckpt");
        assert_eq!(a.resume_from, None);
        assert_eq!(a.sim_threads, 1);
    }

    #[test]
    fn parses_sim_threads() {
        let Cli::Run(a) = Cli::parse(&argv("run --sim-threads 4")) else {
            panic!("expected run")
        };
        assert_eq!(a.sim_threads, 4);
        let Cli::Sweep(a) = Cli::parse(&argv("sweep --sim-threads 8")) else {
            panic!("expected sweep")
        };
        assert_eq!(a.sim_threads, 8);
        assert!(matches!(
            Cli::parse(&argv("run --sim-threads 0")),
            Cli::Help(Some(_))
        ));
        assert!(matches!(
            Cli::parse(&argv("run --sim-threads lots")),
            Cli::Help(Some(_))
        ));
        let Cli::Run(a) = Cli::parse(&argv(&format!("run --sim-threads {MAX_SIM_THREADS}"))) else {
            panic!("expected run")
        };
        assert_eq!(a.sim_threads, MAX_SIM_THREADS);
        for over in [MAX_SIM_THREADS + 1, 100_000] {
            for cmd in ["run", "sweep"] {
                assert!(matches!(
                    Cli::parse(&argv(&format!("{cmd} --sim-threads {over}"))),
                    Cli::Help(Some(_))
                ));
            }
        }
    }

    #[test]
    fn parses_run_checkpoint_flags() {
        let cli = Cli::parse(&argv(
            "run --checkpoint-every 5000 --checkpoint-file ck.bin --resume-from old.bin",
        ));
        let Cli::Run(a) = cli else {
            panic!("expected run")
        };
        assert_eq!(a.checkpoint_every, 5000);
        assert_eq!(a.checkpoint_file, "ck.bin");
        assert_eq!(a.resume_from.as_deref(), Some("old.bin"));
        assert!(matches!(
            Cli::parse(&argv("run --checkpoint-every x")),
            Cli::Help(Some(_))
        ));
    }

    #[test]
    fn parses_run_with_flags() {
        let cli = Cli::parse(&argv(
            "run --mechanism bless --workload water --mesh 5x4 --seed 9 --txns 100",
        ));
        let Cli::Run(a) = cli else {
            panic!("expected run")
        };
        assert_eq!(a.mechanism, "bless");
        assert_eq!(a.workload, "water");
        assert_eq!(a.mesh, (5, 4));
        assert_eq!(a.seed, 9);
        assert_eq!(a.txns, 100);
    }

    #[test]
    fn parses_inspect() {
        let cli = Cli::parse(&argv("inspect --workload apache --cycles 500"));
        let Cli::Inspect(a) = cli else {
            panic!("expected inspect")
        };
        assert_eq!(a.workload, "apache");
        assert_eq!(a.cycles, 500);
        assert_eq!(a.mesh, (3, 3));
    }

    #[test]
    fn parses_sweep_rates() {
        let cli = Cli::parse(&argv("sweep --rates 0.1,0.2 --pattern tornado"));
        let Cli::Sweep(a) = cli else {
            panic!("expected sweep")
        };
        assert_eq!(a.rates, vec![0.1, 0.2]);
        assert_eq!(a.pattern, "tornado");
        // Above 1 saturates rather than erring; zero offers nothing.
        let Cli::Sweep(a) = Cli::parse(&argv("sweep --rates 0,1.5")) else {
            panic!("expected sweep")
        };
        assert_eq!(a.rates, vec![0.0, 1.5]);
    }

    #[test]
    fn rejects_invalid_injection_rates() {
        for (args, flag, value) in [
            ("sweep --rates -0.1", "rates", "-0.1"),
            ("sweep --rates 0.1,nan", "rates", "nan"),
            ("sweep --rates inf", "rates", "inf"),
            ("sweep --rates 0.2,-inf", "rates", "-inf"),
            ("sweep --rates 0.1,,0.2", "rates", ""),
            ("faults --rate nan", "rate", "nan"),
            ("faults --rate -1", "rate", "-1"),
            ("faults --rate infinity", "rate", "infinity"),
        ] {
            let Cli::Help(Some(msg)) = Cli::parse(&argv(args)) else {
                panic!("{args} should be rejected")
            };
            assert!(
                msg.contains(&format!("--{flag} {value:?}")),
                "{args}: the error must name the flag and value: {msg}"
            );
        }
        let Cli::Faults(a) = Cli::parse(&argv("faults --rate 2")) else {
            panic!("expected faults")
        };
        assert_eq!(a.rate, 2.0);
    }

    #[test]
    fn parses_faults_with_defaults() {
        let cli = Cli::parse(&argv("faults"));
        let Cli::Faults(a) = cli else {
            panic!("expected faults")
        };
        assert_eq!(a.mechanism, "afc");
        assert_eq!(a.mesh, (3, 3));
        assert_eq!(a.rate, 0.10);
        assert_eq!(a.drop, 5e-4);
        assert_eq!(a.corrupt, 5e-4);
        assert_eq!(a.credit_loss, 0.0);
        assert_eq!(a.kill, None);
        assert_eq!(a.timeout, 600);
    }

    #[test]
    fn parses_faults_kill_spec() {
        let cli = Cli::parse(&argv(
            "faults --mechanism backpressured --kill 1,1:E:1000 --drop 1e-3 --timeout 0",
        ));
        let Cli::Faults(a) = cli else {
            panic!("expected faults")
        };
        assert_eq!(a.mechanism, "backpressured");
        assert_eq!(a.kill, Some((1, 1, Direction::East, 1000)));
        assert_eq!(a.drop, 1e-3);
        assert_eq!(a.timeout, 0);
        // Long direction names and lowercase are accepted too.
        let cli = Cli::parse(&argv("faults --kill 0,2:north:50"));
        let Cli::Faults(a) = cli else {
            panic!("expected faults")
        };
        assert_eq!(a.kill, Some((0, 2, Direction::North, 50)));
    }

    #[test]
    fn parses_kill_storm_flags() {
        let cli = Cli::parse(&argv(
            "faults --kill-node 2,1:500 --kill-row 3:800 --kill-column 0:900 \
             --kill-region 1,1,2,3:1200 --max-retransmit 3",
        ));
        let Cli::Faults(a) = cli else {
            panic!("expected faults")
        };
        assert_eq!(a.kill_node, Some((2, 1, 500)));
        assert_eq!(a.kill_row, Some((3, 800)));
        assert_eq!(a.kill_column, Some((0, 900)));
        assert_eq!(a.kill_region, Some((1, 1, 2, 3, 1200)));
        assert_eq!(a.max_retransmit, 3);
        // Defaults: no storm, unlimited retries.
        let Cli::Faults(a) = Cli::parse(&argv("faults")) else {
            panic!("expected faults")
        };
        assert_eq!(a.kill_node, None);
        assert_eq!(a.kill_row, None);
        assert_eq!(a.kill_column, None);
        assert_eq!(a.kill_region, None);
        assert_eq!(a.max_retransmit, 0);
    }

    #[test]
    fn parses_revival_flags() {
        let cli = Cli::parse(&argv(
            "faults --kill 1,1:E:1000 --revive-after 2000 --fault-churn 7,4000,0.75",
        ));
        let Cli::Faults(a) = cli else {
            panic!("expected faults")
        };
        assert_eq!(a.revive_after, Some(2000));
        assert_eq!(a.fault_churn, Some((7, 4000, 0.75)));
        // Defaults: kills stay permanent, no churn.
        let Cli::Faults(a) = Cli::parse(&argv("faults")) else {
            panic!("expected faults")
        };
        assert_eq!(a.revive_after, None);
        assert_eq!(a.fault_churn, None);
        for bad in [
            "faults --revive-after soon",
            "faults --fault-churn 7,4000",
            "faults --fault-churn 7,0,0.5",
            "faults --fault-churn 7,4000,1.5",
            "faults --fault-churn x,4000,0.5",
        ] {
            assert!(
                matches!(Cli::parse(&argv(bad)), Cli::Help(Some(_))),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn rejects_bad_kill_specs() {
        for bad in [
            "faults --kill 1:E:1000",
            "faults --kill 1,1:Q:1000",
            "faults --kill 1,1:E",
            "faults --kill 1,1:E:x",
            "faults --kill 1,1:E:1:2",
            "faults --kill-node 1:500",
            "faults --kill-node 1,2",
            "faults --kill-node 1,2:x",
            "faults --kill-row 1,2:500",
            "faults --kill-column x:500",
            "faults --kill-region 1,1,2:500",
            "faults --kill-region 1,1,2,3,4:500",
            "faults --max-retransmit many",
        ] {
            assert!(
                matches!(Cli::parse(&argv(bad)), Cli::Help(Some(_))),
                "{bad} should fail to parse"
            );
        }
    }

    #[test]
    fn rejects_garbage_gracefully() {
        assert!(matches!(
            Cli::parse(&argv("frobnicate")),
            Cli::Help(Some(_))
        ));
        assert!(matches!(
            Cli::parse(&argv("run --mesh banana")),
            Cli::Help(Some(_))
        ));
        assert!(matches!(
            Cli::parse(&argv("run --seed")),
            Cli::Help(Some(_))
        ));
        assert!(matches!(Cli::parse(&[]), Cli::Help(None)));
    }

    /// A value each flag accepts, for building command lines from `USAGE`.
    fn sample(flag: &str) -> &'static str {
        match flag {
            "mechanism" => "bless",
            "workload" => "water",
            "pattern" => "tornado",
            "mesh" => "4x3",
            "rates" => "0.1,0.3",
            "checkpoint-file" | "resume-from" => "run.ckpt",
            "rate" | "drop" | "corrupt" | "credit-loss" => "0.01",
            "kill" => "1,1:E:100",
            "kill-node" => "1,1:100",
            "kill-row" | "kill-column" => "1:100",
            "kill-region" => "0,0,1,1:100",
            "fault-churn" => "7,400,0.5",
            _ => "3",
        }
    }

    /// The command lines `USAGE` shows: each subcommand with every flag it
    /// lists (continuation lines joined), values filled in by [`sample`].
    fn usage_lines() -> Vec<(String, Vec<String>)> {
        let synopsis = USAGE.split("USAGE:\n").nth(1).unwrap();
        let synopsis = synopsis.split("\n\n").next().unwrap();
        let mut lines: Vec<String> = Vec::new();
        for line in synopsis.lines() {
            match line.trim_start().strip_prefix("afc-noc ") {
                Some(cmd) => lines.push(cmd.to_string()),
                None => lines.last_mut().unwrap().push_str(line),
            }
        }
        lines
            .iter()
            .map(|line| {
                let cmd = line.split_whitespace().next().unwrap().to_string();
                let flags: Vec<String> = line
                    .split("[--")
                    .skip(1)
                    .map(|g| g.split([' ', ']']).next().unwrap().to_string())
                    .collect();
                (cmd, flags)
            })
            .collect()
    }

    #[test]
    fn every_usage_line_parses_and_lists_every_accepted_flag() {
        let lines = usage_lines();
        assert_eq!(lines.len(), 6, "{lines:?}");
        for (cmd, flags) in lines {
            let allowed: &[&str] = match cmd.as_str() {
                "run" => RUN_FLAGS,
                "inspect" => INSPECT_FLAGS,
                "sweep" => SWEEP_FLAGS,
                "faults" => FAULT_FLAGS,
                _ => &[],
            };
            assert_eq!(flags, allowed, "USAGE and the parser disagree on {cmd}");
            let mut args = vec![cmd.clone()];
            for f in &flags {
                args.extend([format!("--{f}"), sample(f).to_string()]);
            }
            let cli = Cli::parse(&args);
            assert!(!matches!(cli, Cli::Help(Some(_))), "{args:?}: {cli:?}");
        }
    }

    #[test]
    fn every_subcommand_rejects_unknown_and_repeated_flags() {
        for (cmd, known) in [
            ("run", "sim-threads"),
            ("inspect", "cycles"),
            ("sweep", "sim-threads"),
            ("faults", "seed"),
        ] {
            // One letter short of a real flag.
            let typo = &known[..known.len() - 1];
            let Cli::Help(Some(msg)) = Cli::parse(&argv(&format!("{cmd} --{typo} 4"))) else {
                panic!("{cmd} --{typo} should be rejected")
            };
            assert!(
                msg.contains(&format!("--{typo} ")) && msg.contains(cmd),
                "{msg}"
            );
            let twice = format!("{cmd} --{known} 4 --{known} 2");
            let Cli::Help(Some(msg)) = Cli::parse(&argv(&twice)) else {
                panic!("{twice} should be rejected")
            };
            assert!(msg.contains("twice") && msg.contains(known), "{msg}");
        }
    }

    /// Dropping, duplicating or swapping tokens of valid command lines
    /// never panics the parser: each mutant is a command or an error.
    #[test]
    fn mutated_command_lines_never_panic() {
        let valid = [
            "run --mechanism bless --workload water --mesh 5x4 --seed 9 --txns 100",
            "run --checkpoint-every 5000 --checkpoint-file ck.bin --resume-from old.bin",
            "run --sim-threads 4 --warmup 10",
            "inspect --workload apache --cycles 500 --mesh 2x2",
            "sweep --rates 0.1,0.2 --pattern tornado --sim-threads 2",
            "faults --kill 1,1:E:1000 --drop 1e-3 --timeout 0",
            "faults --kill-node 2,1:500 --kill-region 1,1,2,3:1200 --max-retransmit 3",
            "faults --revive-after 2000 --fault-churn 7,4000,0.75 --rate 0.2",
            "list",
        ];
        let mut mutants = 0;
        for line in valid {
            let tokens = argv(line);
            assert!(!matches!(Cli::parse(&tokens), Cli::Help(_)), "{line}");
            for i in 0..tokens.len() {
                let mut dropped = tokens.clone();
                dropped.remove(i);
                let mut doubled = tokens.clone();
                doubled.insert(i, tokens[i].clone());
                let mut swapped = tokens.clone();
                if i + 1 < tokens.len() {
                    swapped.swap(i, i + 1);
                }
                for mutant in [dropped, doubled, swapped] {
                    let parsed = std::panic::catch_unwind(|| Cli::parse(&mutant));
                    assert!(parsed.is_ok(), "{mutant:?} panicked the parser");
                    mutants += 1;
                }
            }
        }
        assert!(mutants > 150, "{mutants} mutants");
    }

    #[test]
    fn lookups_cover_all_names() {
        for m in MECHANISMS {
            assert!(mechanism_factory(m).is_ok(), "{m}");
        }
        for w in WORKLOADS {
            assert!(workload_by_name(w).is_ok(), "{w}");
        }
        for p in PATTERNS {
            assert!(pattern_by_name(p).is_ok(), "{p}");
        }
        assert!(mechanism_factory("nope").is_err());
        assert!(workload_by_name("nope").is_err());
        assert!(pattern_by_name("nope").is_err());
    }
}
