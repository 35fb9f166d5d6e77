//! The traced run: per-layer metrics measured from outside the crates.
//!
//! End-to-end metrics are measured with tracing off. After those rounds,
//! this module re-runs every case twice more: once with the harness itself
//! driving `Simulation`'s three calls (`traffic.pre_cycle` ->
//! `network.try_step` -> `take_delivered_into`/`on_delivered`) and each
//! sweep job, recording spans and boundary counts in memory; once with the
//! engine's own phase profiler on, for the router/channel/NI shares. The
//! isolated router, channel, construction, snapshot and pricing timings
//! run in the same command. No tracing is added inside the crates.
//!
//! A per-layer metric a workload does not exercise reads 0 (for example
//! `sweep.*` on the mesh workloads, `parallel.*` below 32x32).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use afc_bench::experiments::geomean;
use afc_bench::sweep::{pool_clear, pool_stats, warm_cache, RunOutput, SweepResults};
use afc_netsim::channel::{Channel, Credit};
use afc_netsim::config::NetworkConfig;
use afc_netsim::flit::{Flit, PacketId, VcId, VirtualNetwork};
use afc_netsim::geom::{Coord, Direction, NodeId, PortId};
use afc_netsim::network::Network;
use afc_netsim::packet::DeliveredPacket;
use afc_netsim::rng::SimRng;
use afc_netsim::router::RouterOutputs;
use afc_netsim::sim::TrafficModel;

use crate::cases::{self, MECHS};
use crate::harness::{
    build_step, check_step, check_sweep, Bench, CaseRun, Clock, HostStats, Metric, Prepared, Step,
};
use crate::stats::{median, percentile, self_times, Span};

/// Every `SAMPLE`th cycle's call spans are written to the trace file; all
/// of them are kept in memory and counted in the self times.
const SAMPLE: u64 = 64;

/// The paper's Figure 2 geomeans recorded in EXPERIMENTS.md, in the order
/// of the `model.*` metrics: name, value, and whether the value is only an
/// upper bound (AFC's low-load energy: "within 9% of backpressureless").
const PAPER_MODEL: [(&str, f64, bool); 6] = [
    ("bpl_energy_low", 0.70, false),
    ("afc_energy_low", 0.76, true),
    ("bpl_perf_high", 0.81, false),
    ("afc_perf_high", 0.98, false),
    ("bpl_energy_high", 1.35, false),
    ("afc_energy_high", 1.02, false),
];

/// Name, unit and better-direction of every per-layer metric, in
/// `BENCHMARK.json` order.
pub fn per_layer_names() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| v.push((name, unit, better));
    for case in cases::all_case_names() {
        add(format!("case.{case}.s"), "s", "lower");
    }
    for what in [
        "step_ns_per_cycle",
        "router_share",
        "channel_share",
        "ni_share",
    ] {
        let unit = if what.ends_with("share") {
            "share"
        } else {
            "ns"
        };
        for (m, _) in MECHS {
            add(format!("network.{what}.{m}"), unit, "lower");
        }
    }
    add("network.ns_per_flit_hop".into(), "ns", "lower");
    add("network.new_ms".into(), "ms", "lower");
    add("network.reset_ms".into(), "ms", "lower");
    add("network.footprint_kb_per_node".into(), "KB", "lower");
    for (m, _) in MECHS {
        add(format!("router.step_ns.{m}"), "ns", "lower");
    }
    for count in [
        "arbitrations",
        "deflections",
        "drops",
        "credit_stall_cycles",
        "mode_switches",
        "reroutes",
    ] {
        add(format!("router.{count}"), "count", "lower");
    }
    add("channel.advance_ns".into(), "ns", "lower");
    add("channel.link_traversals".into(), "count", "lower");
    add("ni.flits_injected".into(), "count", "higher");
    add("ni.flits_delivered".into(), "count", "higher");
    add("ni.retransmit_timeouts".into(), "count", "lower");
    add("ni.reassembly_high_water".into(), "count", "lower");
    add("traffic.pre_cycle_ns_per_cycle".into(), "ns", "lower");
    add("traffic.on_delivered_ns_per_packet".into(), "ns", "lower");
    add("sweep.jobs".into(), "count", "higher");
    add("sweep.job_ms_p50".into(), "ms", "lower");
    add("sweep.job_ms_p90".into(), "ms", "lower");
    add("sweep.jobs_per_s".into(), "1/s", "higher");
    add("sweep.overhead_share".into(), "share", "lower");
    add("sweep.pool_hit_ratio".into(), "ratio", "higher");
    add("sweep.warm_hit_ratio".into(), "ratio", "higher");
    add("sweep.warm_cache_mb".into(), "MB", "lower");
    add("snapshot.save_ms".into(), "ms", "lower");
    add("snapshot.restore_ms".into(), "ms", "lower");
    add("snapshot.bytes".into(), "B", "lower");
    add("parallel.ns_per_cycle_2t".into(), "ns", "lower");
    add("parallel.speedup_2t".into(), "x", "higher");
    add("parallel.cycle_share".into(), "share", "higher");
    add("faults.links_failed".into(), "count", "lower");
    add("faults.links_revived".into(), "count", "higher");
    add("faults.packets_unreachable".into(), "count", "lower");
    add("energy.price_us".into(), "us", "lower");
    add("energy.total_pj".into(), "pJ", "lower");
    for (name, _, _) in PAPER_MODEL {
        let better = if name.contains("perf") {
            "higher"
        } else {
            "lower"
        };
        add(format!("model.{name}"), "ratio", better);
    }
    add("model.max_abs_error".into(), "ratio", "lower");
    add("harness.raw_wall_s".into(), "s", "lower");
    add("harness.ref_ms_p50".into(), "ms", "lower");
    add("harness.ref_spread".into(), "share", "lower");
    add("harness.round_spread".into(), "share", "lower");
    add("harness.rounds".into(), "count", "higher");
    add("harness.steady_allocs".into(), "count", "lower");
    add("harness.peak_rss_mb".into(), "MB", "lower");
    add("harness.trace_overhead_share".into(), "share", "lower");
    v
}

/// Per-mechanism sums from the traced step rounds.
#[derive(Default, Clone, Copy)]
struct MechSums {
    step_ns: u64,
    cycles: u64,
    router_ns: u64,
    channel_ns: u64,
    ni_ns: u64,
    profiled_ns: u64,
}

#[derive(Default)]
struct Sums {
    mech: [MechSums; 4],
    pre_ns: u64,
    deliver_ns: u64,
    packets: u64,
    flit_hops: u64,
    counts: HashMap<&'static str, u64>,
    energy_pj: f64,
    snapshot_save_s: Vec<f64>,
    snapshot_restore_s: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    price_s: Vec<f64>,
    par_s: f64,
    par_cycles: u64,
    par_engine_cycles: u64,
    par_serial_s: f64,
}

impl Sums {
    fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_default() += by;
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Ids of the spans written to the trace file.
    in_file: Vec<usize>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, case: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            case,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.in_file.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }
}

/// The harness-driven segment: `Simulation::try_step` unrolled so each of
/// its three calls gets a span. Returns `(pre_ns, step_ns, deliver_ns,
/// packets)`.
fn drive(
    step: &mut Step,
    tr: &mut Tracer,
    case: usize,
    delivered: &mut Vec<DeliveredPacket>,
) -> Result<(u64, u64, u64, u64), String> {
    let segment = tr.open("segment", case, None);
    let (mut pre, mut stp, mut del, mut packets) = (0u64, 0u64, 0u64, 0u64);
    let sim = &mut step.sim;
    for cycle in 0..step.spec.segment {
        let now = sim.network.now();
        let t0 = tr.now();
        sim.traffic.pre_cycle(now, &mut sim.network);
        let t1 = tr.now();
        sim.network.try_step().map_err(|e| e.to_string())?;
        let t2 = tr.now();
        let now = sim.network.now();
        sim.network.take_delivered_into(delivered);
        for packet in delivered.iter() {
            sim.traffic.on_delivered(packet, now, &mut sim.network);
        }
        packets += delivered.len() as u64;
        delivered.clear();
        let t3 = tr.now();
        pre += t1 - t0;
        stp += t2 - t1;
        del += t3 - t2;
        for (name, start_ns, end_ns) in [
            ("traffic.pre_cycle", t0, t1),
            ("network.try_step", t1, t2),
            ("traffic.on_delivered", t2, t3),
        ] {
            if cycle % SAMPLE == 0 {
                tr.in_file.push(tr.spans.len());
            }
            tr.spans.push(Span {
                name,
                case,
                start_ns,
                end_ns,
                parent: Some(segment),
            });
        }
    }
    tr.close(segment);
    Ok((pre, stp, del, packets))
}

/// Rounds A and B plus the per-simulation isolated timings for one step
/// case (or probe). `case` is its index in `b.names`, or `None` for a probe.
fn trace_step(
    step: &mut Step,
    case: Option<usize>,
    clock: &mut Clock,
    tr: &mut Tracer,
    sums: &mut Sums,
    energy: &afc_energy::EnergyModel,
    serial_raw_s: f64,
) -> Result<(Result<CaseRun, String>, f64), String> {
    let restore = |step: &mut Step| {
        step.sim
            .restore(&step.snapshot, "<memory>")
            .map_err(|e| format!("restore: {e}"))
    };
    let m = step.spec.mech;
    let span_case = case.unwrap_or(usize::MAX);

    // Round A: harness-driven, one span per call.
    restore(step)?;
    let mut delivered = Vec::with_capacity(256);
    tr.spans.reserve(3 * step.spec.segment as usize + 1); // no regrowth inside the timed region
    let (driven, _, norm) = clock.timed(|| {
        catch_unwind(AssertUnwindSafe(|| {
            drive(step, tr, span_case, &mut delivered)
        }))
        .unwrap_or_else(|_| Err("panicked".to_string()))
    });
    let mut run = driven.map(|(pre, stp, del, packets)| {
        sums.pre_ns += pre;
        sums.deliver_ns += del;
        sums.packets += packets;
        sums.mech[m].step_ns += stp;
        sums.mech[m].cycles += step.spec.segment;
        check_step(&step.sim.network, energy)
    });
    if run.is_ok() {
        // Boundary counts: metrics were zeroed at the snapshot point, so
        // what the accessors read now is this segment's work.
        let (s, c) = (
            step.sim.network.stats().clone(),
            step.sim.network.total_counters(),
        );
        sums.flit_hops += s.flit_hops.sum();
        for (name, by) in [
            ("router.arbitrations", c.arbitrations),
            ("router.deflections", c.deflections),
            ("router.drops", c.drops),
            ("router.credit_stall_cycles", c.credit_stall_cycles),
            (
                "router.mode_switches",
                c.mode_switches_forward + c.mode_switches_reverse + c.mode_switches_gossip,
            ),
            ("router.reroutes", c.reroutes),
            ("channel.link_traversals", c.link_traversals),
            ("ni.flits_injected", s.flits_injected),
            ("ni.flits_delivered", s.flits_delivered),
            ("ni.retransmit_timeouts", s.retransmit_timeouts),
            ("faults.links_failed", s.links_failed),
            ("faults.links_revived", s.links_revived),
            ("faults.packets_unreachable", s.packets_unreachable),
        ] {
            sums.count(name, by);
        }
        let high = sums.counts.entry("ni.reassembly_high_water").or_default();
        *high = (*high).max(s.reassembly_high_water as u64);
        sums.energy_pj += energy.price_network(&step.sim.network).total();
        let t = Instant::now();
        for _ in 0..20 {
            black_box(energy.price_network(black_box(&step.sim.network)));
        }
        sums.price_s.push(t.elapsed().as_secs_f64() / 20.0);
    }

    // Round B: the engine's own phase attribution. Reported as shares only:
    // its Instant reads make the phase sums overshoot an unprofiled total.
    restore(step)?;
    step.sim.network.set_phase_profiling(true);
    let profiled = step.sim.try_run(step.spec.segment);
    let profile = step.sim.network.phase_profile();
    step.sim.network.set_phase_profiling(false);
    if let (Ok(()), Some(p)) = (profiled, profile) {
        sums.mech[m].router_ns += p.router_ns;
        sums.mech[m].channel_ns += p.channel_ns;
        sums.mech[m].ni_ns += p.ni_ns;
        sums.mech[m].profiled_ns += p.router_ns + p.channel_ns + p.ni_ns + p.merge_ns + p.other_ns;
    }

    // Snapshot cost at this simulation's post-segment state.
    let t = Instant::now();
    let bytes = step.sim.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    sums.snapshot_save_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    step.sim
        .restore(&bytes, "<memory>")
        .map_err(|e| format!("restore: {e}"))?;
    sums.snapshot_restore_s.push(t.elapsed().as_secs_f64());
    sums.snapshot_bytes.push(bytes.len() as f64);

    // The only two-thread measurement: the parallel engine on the mesh size
    // it was built for. ROADMAP's keep-or-delete rule reads these numbers.
    if step.spec.cfg.width >= 32 {
        restore(step)?;
        step.sim.network.set_sim_threads(2);
        let before = step.sim.network.parallel_cycles();
        let t = Instant::now();
        let r = step.sim.try_run(step.spec.segment);
        sums.par_s += t.elapsed().as_secs_f64();
        sums.par_serial_s += serial_raw_s;
        sums.par_cycles += step.spec.segment;
        sums.par_engine_cycles += step.sim.network.parallel_cycles() - before;
        step.sim.network.set_sim_threads(1);
        r.map_err(|e| format!("2-thread segment: {e}"))?;
        // Any engine configuration must be byte-identical to the serial one.
        let parallel = check_step(&step.sim.network, energy).fingerprint;
        if run
            .as_ref()
            .is_ok_and(|serial| serial.fingerprint != parallel)
        {
            run = Err("2-thread result differs from the serial result".to_string());
        }
    }
    Ok((run, norm))
}

/// Isolated busy single-router step through each mechanism's factory,
/// nanoseconds per step: one flit per cycle enters from the west bound east.
fn router_step_ns(mech: usize) -> f64 {
    const STEPS: u64 = 50_000;
    let cfg = NetworkConfig::paper_3x3();
    let mesh = cfg.mesh().expect("3x3 mesh");
    let node = mesh.node_at(Coord::new(1, 1)).expect("centre");
    let east = mesh.node_at(Coord::new(2, 1)).expect("east");
    let (west_in, east_out) = (PortId::Net(Direction::West), PortId::Net(Direction::East));
    let mechanism = MECHS[mech].1.mechanism();
    // Only the credit-based baseline needs a VC on arrival and a credit
    // back for every flit that leaves; the others run backpressureless here.
    let credit_based = MECHS[mech].1 == afc_bench::MechanismId::Backpressured;
    let mut r = mechanism.factory.build(node, &mesh, &cfg);
    let mut rng = SimRng::seed_from(1);
    let mut out = RouterOutputs::new();
    let (mut now, mut sent) = (0u64, 0usize);
    let mut batches = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..STEPS {
            let mut f = Flit::test_flit(PacketId(now), NodeId::new(0), east);
            f.vnet = VirtualNetwork(0);
            f.vc = credit_based.then_some(VcId(0));
            r.receive_flit(west_in, f, now);
            out.clear();
            r.step(now, &mut rng, &mut out);
            if let (true, Some(flit)) = (credit_based, out.flits[east_out]) {
                let vc = flit.vc.expect("backpressured flits carry their VC");
                r.receive_credit(east_out, Credit::Vc(vc), now);
            }
            sent += out.flits_sent();
            now += 1;
        }
        batches.push(t.elapsed().as_secs_f64() * 1e9 / STEPS as f64);
    }
    black_box(sent);
    median(&batches)
}

/// Isolated `push_flit` + `advance` per channel-cycle, nanoseconds.
fn channel_advance_ns() -> f64 {
    const CYCLES: u64 = 200_000;
    let mut ch = Channel::new(2);
    let flit = Flit::test_flit(PacketId(1), NodeId::new(0), NodeId::new(1));
    let mut arrived = 0u64;
    let mut batches = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..CYCLES {
            ch.push_flit(black_box(flit));
            arrived += u64::from(ch.advance().flit.is_some());
        }
        batches.push(t.elapsed().as_secs_f64() * 1e9 / CYCLES as f64);
    }
    black_box(arrived);
    median(&batches)
}

/// `Network::new`, `reset_from_config` and the footprint for `cfg`, mean
/// over the four mechanisms: `(new_ms, reset_ms, kb_per_node)`.
fn construction(cfg: &NetworkConfig) -> Result<(f64, f64, f64), String> {
    let (mut new_s, mut reset_s, mut kb) = (0.0, 0.0, 0.0);
    for (_, id) in MECHS {
        let mechanism = id.mechanism();
        let factory = mechanism.factory.as_ref();
        let mut news = Vec::new();
        let mut net = None;
        for _ in 0..3 {
            drop(net.take());
            let t = Instant::now();
            let built = Network::new(cfg.clone(), factory, 1).map_err(|e| e.to_string())?;
            news.push(t.elapsed().as_secs_f64());
            net = Some(built);
        }
        let mut net = net.expect("three constructions");
        let mut resets = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let ok = net.reset_from_config(cfg, factory, 1);
            resets.push(t.elapsed().as_secs_f64());
            if !ok {
                return Err("reset_from_config refused its own configuration".to_string());
            }
        }
        new_s += median(&news);
        reset_s += median(&resets);
        kb += net.memory_footprint().per_node_bytes() as f64 / 1024.0;
    }
    let n = MECHS.len() as f64;
    Ok((new_s / n * 1e3, reset_s / n * 1e3, kb / n))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Figure 2 geomeans versus backpressured from the `fig2.*` job outputs
/// (spec order: bp, read bypass, ideal bypass, bpl, always-bp, afc).
fn model_metrics(fig2: &HashMap<String, Vec<RunOutput>>) -> Vec<(String, f64)> {
    const BP: usize = 0;
    const BPL: usize = 3;
    const AFC: usize = 5;
    let geo = |names: [&str; 3], m: usize, energy: bool| {
        geomean(names.iter().filter_map(|w| {
            let o = fig2.get(&format!("fig2.{w}"))?;
            Some(if energy {
                o[m].energy_pj / o[BP].energy_pj
            } else {
                o[BP].cycles as f64 / o[m].cycles as f64
            })
        }))
    };
    let (low, high) = (["barnes", "ocean", "water"], ["apache", "oltp", "specjbb"]);
    let values = [
        geo(low, BPL, true),
        geo(low, AFC, true),
        geo(high, BPL, false),
        geo(high, AFC, false),
        geo(high, BPL, true),
        geo(high, AFC, true),
    ];
    let mut out = Vec::new();
    let mut worst = 0.0f64;
    for (&(name, paper, upper_bound), v) in PAPER_MODEL.iter().zip(values) {
        let err = if upper_bound {
            (v - paper).max(0.0)
        } else {
            (v - paper).abs()
        };
        worst = worst.max(err);
        out.push((format!("model.{name}"), v));
    }
    out.push(("model.max_abs_error".to_string(), worst));
    out
}

fn write_trace_file(b: &Bench, tr: &Tracer, values: &HashMap<String, f64>) -> Result<(), String> {
    let own = self_times(&tr.spans);
    let mut by_name: Vec<(&'static str, u64, u64, u64)> = Vec::new(); // name, count, total, self
    for (s, own_ns) in tr.spans.iter().zip(&own) {
        let slot = match by_name.iter().position(|e| e.0 == s.name) {
            Some(i) => &mut by_name[i],
            None => {
                by_name.push((s.name, 0, 0, 0));
                by_name.last_mut().expect("just pushed")
            }
        };
        slot.1 += 1;
        slot.2 += s.end_ns - s.start_ns;
        slot.3 += own_ns;
    }
    let mut text = String::new();
    let _ = write!(
        text,
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"span_sampling\": {SAMPLE},\n  \"layers\": [\n",
        b.opts.workload,
        b.opts.seed
    );
    for (i, (name, count, total, own_ns)) in by_name.iter().enumerate() {
        let _ = writeln!(
            text,
            "    {{\"name\": \"{name}\", \"spans\": {count}, \"total_ns\": {total}, \"self_ns\": {own_ns}}}{}",
            if i + 1 < by_name.len() { "," } else { "" }
        );
    }
    text.push_str("  ],\n  \"counts\": {\n");
    let counts: Vec<(String, f64)> = per_layer_names()
        .into_iter()
        .filter(|(_, unit, _)| *unit == "count")
        .map(|(name, _, _)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v)
        })
        .collect();
    for (i, (k, v)) in counts.iter().enumerate() {
        let _ = writeln!(
            text,
            "    \"{k}\": {v}{}",
            if i + 1 < counts.len() { "," } else { "" }
        );
    }
    text.push_str("  },\n  \"spans\": [\n");
    for (k, &id) in tr.in_file.iter().enumerate() {
        let s = &tr.spans[id];
        let case = b.names.get(s.case).map_or("probe", String::as_str);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            text,
            "{}    {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"case\": \"{case}\"}}",
            if k == 0 { "" } else { ",\n" },
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    text.push_str("\n  ]\n}\n");
    crate::report::write_out(&format!("trace-{}.json", b.opts.workload), &text)
}

/// Runs the traced rounds and isolated timings; returns every per-layer
/// metric in `BENCHMARK.json` order.
///
/// # Errors
///
/// Harness errors only (a probe that cannot be built, an unwritable trace).
pub fn run(b: &mut Bench, host: &HostStats) -> Result<Vec<Metric>, String> {
    let mut values: HashMap<String, f64> = HashMap::new();
    let (case_medians, raw_medians) = (b.case_medians(), b.raw_medians());
    for (name, v) in b.names.iter().zip(&case_medians) {
        values.insert(format!("case.{name}.s"), *v);
    }
    values.insert("harness.raw_wall_s".into(), host.raw_wall_s);
    values.insert("harness.round_spread".into(), b.round_spread());
    values.insert("harness.rounds".into(), host.rounds as f64);
    values.insert("harness.steady_allocs".into(), b.steady_allocs as f64);
    values.insert("harness.ref_ms_p50".into(), host.ref_ms_p50);
    values.insert("harness.ref_spread".into(), host.ref_spread);

    let mut tr = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        in_file: Vec::new(),
    };
    let mut sums = Sums::default();
    let mut traced_norm = 0.0;
    let mut probe_cfg: Option<NetworkConfig> = None;
    let energy = b.energy;

    // Step cases (and, for paper_sweep, the grid16-shaped probes).
    for (i, &serial_raw_s) in raw_medians.iter().enumerate() {
        let Prepared::Step(step) = &mut b.cases[i] else {
            continue;
        };
        probe_cfg.get_or_insert_with(|| step.spec.cfg.clone());
        let (run, norm) = trace_step(
            step,
            Some(i),
            &mut b.clock,
            &mut tr,
            &mut sums,
            &energy,
            serial_raw_s,
        )
        .map_err(|e| format!("{}: {e}", b.names[i]))?;
        traced_norm += norm;
        b.verify(i, "traced round", run);
    }
    for spec in cases::probes(&b.opts.workload, b.opts.seed, b.opts.size) {
        probe_cfg.get_or_insert_with(|| spec.cfg.clone());
        let mut step = build_step(&spec).map_err(|e| format!("probe: {e}"))?;
        let (run, _) = trace_step(
            &mut step,
            None,
            &mut b.clock,
            &mut tr,
            &mut sums,
            &energy,
            0.0,
        )
        .map_err(|e| format!("probe: {e}"))?;
        if let Some(p) = run.map_or_else(Some, |r| r.problem) {
            b.failures
                .push(format!("probe {}: {p}", MECHS[spec.mech].0));
        }
        b.attempted += 1;
    }

    // Sweep cases: each job called in spec order, one span per job.
    let mut job_ms: Vec<f64> = Vec::new();
    let mut fig2: HashMap<String, Vec<RunOutput>> = HashMap::new();
    let (mut pool, mut warm, mut warm_bytes) = ([0u64; 2], [0u64; 2], 0usize);
    let (mut sweep_raw_s, mut sweep_jobs) = (0.0, 0usize);
    for (i, &untraced_raw_s) in raw_medians.iter().enumerate() {
        let Prepared::Sweep(spec) = &b.cases[i] else {
            continue;
        };
        pool_clear();
        warm_cache().clear();
        let before = pool_stats();
        let (outputs, _, norm) = b.clock.timed(|| {
            let case_span = tr.open("sweep.case", i, None);
            let mut outputs = Vec::with_capacity(spec.runs.len());
            for run in &spec.runs {
                let job = tr.open("sweep.job", i, Some(case_span));
                let out = catch_unwind(AssertUnwindSafe(|| run.execute(&spec.net_cfg)));
                tr.close(job);
                job_ms.push((tr.spans[job].end_ns - tr.spans[job].start_ns) as f64 / 1e6);
                outputs.push(out);
            }
            tr.close(case_span);
            outputs
        });
        let after = pool_stats();
        pool[0] += after.0 - before.0;
        pool[1] += after.1 - before.1;
        warm[0] += after.2 - before.2;
        warm[1] += after.3 - before.3;
        warm_bytes = warm_bytes.max(warm_cache().usage().1);
        sweep_raw_s += untraced_raw_s;
        sweep_jobs += spec.runs.len();
        traced_norm += norm;
        let run = outputs
            .into_iter()
            .collect::<Result<Vec<RunOutput>, _>>()
            .map_err(|_| "a job panicked".to_string())
            .map(|outputs| {
                sums.energy_pj += outputs.iter().map(|o| o.energy_pj).sum::<f64>();
                let results = SweepResults { outputs };
                let run = check_sweep(&results);
                if b.names[i].starts_with("fig2.") {
                    fig2.insert(b.names[i].clone(), results.outputs);
                }
                run
            });
        b.verify(i, "traced round", run);
    }
    pool_clear();
    warm_cache().clear();

    // Fold the sums into named metrics.
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut total_step_ns = 0u64;
    let mut total_cycles = 0u64;
    for (k, (m, _)) in MECHS.iter().enumerate() {
        let s = sums.mech[k];
        total_step_ns += s.step_ns;
        total_cycles += s.cycles;
        values.insert(
            format!("network.step_ns_per_cycle.{m}"),
            share(s.step_ns, s.cycles),
        );
        values.insert(
            format!("network.router_share.{m}"),
            share(s.router_ns, s.profiled_ns),
        );
        values.insert(
            format!("network.channel_share.{m}"),
            share(s.channel_ns, s.profiled_ns),
        );
        values.insert(
            format!("network.ni_share.{m}"),
            share(s.ni_ns, s.profiled_ns),
        );
    }
    values.insert(
        "network.ns_per_flit_hop".into(),
        share(total_step_ns, sums.flit_hops),
    );
    values.insert(
        "traffic.pre_cycle_ns_per_cycle".into(),
        share(sums.pre_ns, total_cycles),
    );
    values.insert(
        "traffic.on_delivered_ns_per_packet".into(),
        share(sums.deliver_ns, sums.packets),
    );
    for (name, v) in &sums.counts {
        values.insert((*name).to_string(), *v as f64);
    }
    values.insert("energy.total_pj".into(), sums.energy_pj);
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    values.insert("energy.price_us".into(), mean(&sums.price_s) * 1e6);
    values.insert("snapshot.save_ms".into(), mean(&sums.snapshot_save_s) * 1e3);
    values.insert(
        "snapshot.restore_ms".into(),
        mean(&sums.snapshot_restore_s) * 1e3,
    );
    values.insert("snapshot.bytes".into(), mean(&sums.snapshot_bytes));
    if sums.par_cycles > 0 {
        values.insert(
            "parallel.ns_per_cycle_2t".into(),
            sums.par_s * 1e9 / sums.par_cycles as f64,
        );
        values.insert("parallel.speedup_2t".into(), sums.par_serial_s / sums.par_s);
        values.insert(
            "parallel.cycle_share".into(),
            share(sums.par_engine_cycles, sums.par_cycles),
        );
    }
    if sweep_jobs > 0 {
        let job_s: f64 = job_ms.iter().sum::<f64>() / 1e3;
        values.insert("sweep.jobs".into(), sweep_jobs as f64);
        values.insert("sweep.job_ms_p50".into(), median(&job_ms));
        values.insert("sweep.job_ms_p90".into(), percentile(&job_ms, 0.9));
        values.insert("sweep.jobs_per_s".into(), sweep_jobs as f64 / sweep_raw_s);
        values.insert(
            "sweep.overhead_share".into(),
            (sweep_raw_s - job_s) / sweep_raw_s,
        );
        values.insert(
            "sweep.pool_hit_ratio".into(),
            share(pool[0], pool[0] + pool[1]),
        );
        values.insert(
            "sweep.warm_hit_ratio".into(),
            share(warm[0], warm[0] + warm[1]),
        );
        values.insert(
            "sweep.warm_cache_mb".into(),
            warm_bytes as f64 / (1u64 << 20) as f64,
        );
        for (name, v) in model_metrics(&fig2) {
            values.insert(name, v);
        }
    }

    // Isolated layer timings.
    for (k, (m, _)) in MECHS.iter().enumerate() {
        values.insert(format!("router.step_ns.{m}"), router_step_ns(k));
    }
    values.insert("channel.advance_ns".into(), channel_advance_ns());
    if let Some(cfg) = &probe_cfg {
        let (new_ms, reset_ms, kb) = construction(cfg)?;
        values.insert("network.new_ms".into(), new_ms);
        values.insert("network.reset_ms".into(), reset_ms);
        values.insert("network.footprint_kb_per_node".into(), kb);
    }
    values.insert("harness.peak_rss_mb".into(), peak_rss_mb());
    values.insert(
        "harness.trace_overhead_share".into(),
        traced_norm / case_medians.iter().sum::<f64>() - 1.0,
    );

    write_trace_file(b, &tr, &values)?;
    Ok(per_layer_names()
        .into_iter()
        .map(|(name, unit, _)| Metric {
            value: values.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
        })
        .collect())
}
