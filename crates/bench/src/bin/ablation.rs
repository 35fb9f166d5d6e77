//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! 1. deflection ranking policy (random vs. oldest-first),
//! 2. drop-based vs. deflection-based backpressureless routing,
//! 3. AFC contention-threshold scaling,
//! 4. AFC EWMA weight,
//! 5. AFC lazy-VC buffer sizing,
//! 6. backpressured router design options (XY vs. YX routing, atomic vs.
//!    back-to-back VC reallocation).

use afc_bench::experiments::{
    closed_loop_matrix, open_loop_grid, saturation_throughput, SweepPoint,
};
use afc_bench::mechanisms::Mechanism;
use afc_bench::report::{percent, ratio, Table};
use afc_core::{AfcConfig, AfcFactory, ClassThresholds};
use afc_netsim::config::NetworkConfig;
use afc_routers::{
    BackpressuredFactory, BackpressuredOptions, DeflectionFactory, DropFactory, RoutingAlgorithm,
};
use afc_traffic::openloop::PacketMix;
use afc_traffic::synthetic::Pattern;
use afc_traffic::workloads;

fn scaled_thresholds(scale: f64) -> ClassThresholds {
    let base = ClassThresholds::paper();
    let s = |t: (f64, f64)| (t.0 * scale, t.1 * scale);
    ClassThresholds {
        corner: s(base.corner),
        edge: s(base.edge),
        center: s(base.center),
    }
}

fn main() {
    let quick = afc_bench::sweep::HarnessArgs::from_env_or_exit(&["--quick"], &[]).has("--quick");
    let cfg = NetworkConfig::paper_3x3();
    let (warmup, measure) = if quick { (100, 400) } else { (300, 1_500) };
    let (ol_warm, ol_meas) = if quick {
        (1_000, 4_000)
    } else {
        (3_000, 12_000)
    };
    let rates = [0.1, 0.3, 0.5, 0.7];

    // 1 + 2: backpressureless variants under open-loop sweep.
    println!("Ablation 1-2: backpressureless variants (uniform random open loop)\n");
    let variants = vec![
        Mechanism::new("deflect-random", Box::new(DeflectionFactory::new())),
        Mechanism::new(
            "deflect-oldest",
            Box::new(DeflectionFactory::oldest_first()),
        ),
        Mechanism::new("drop-nack", Box::new(DropFactory::new())),
    ];
    let mut t = Table::new(vec![
        "variant", "lat@0.1", "lat@0.3", "lat@0.5", "lat@0.7", "sat thpt",
    ]);
    let latency = |p: &SweepPoint| p.latency.map_or("-".into(), |l| format!("{l:.0}"));
    let open_loop = |mechs: &[Mechanism], rates: &[f64], pattern| {
        let mix = PacketMix::paper();
        open_loop_grid(
            mechs,
            rates,
            &cfg,
            pattern,
            mix,
            ol_warm,
            ol_meas,
            1,
            |_, r, out| SweepPoint::of(r, out),
        )
    };
    let points = open_loop(&variants, &rates, Pattern::UniformRandom);
    for (m, pts) in variants.iter().zip(points.chunks(rates.len())) {
        let mut cells = vec![m.label.to_string()];
        cells.extend(pts.iter().map(latency));
        cells.push(format!("{:.2}", saturation_throughput(pts)));
        t.row(cells);
    }
    println!("{}", t.render());

    // 3-5: AFC variants, closed loop, one flat grid per workload.
    let afc = |label, tweak: &dyn Fn(&mut AfcConfig)| {
        let mut config = AfcConfig::paper();
        tweak(&mut config);
        Mechanism::new(label, Box::new(AfcFactory::new(config)))
    };
    let closed_loop = |mechs: &[Mechanism], workload| {
        closed_loop_matrix(mechs, &[workload], &cfg, warmup, measure, 50_000_000, 1)
    };

    // 3: threshold scaling on the mixed-load workload (ocean).
    println!("Ablation 3: AFC contention-threshold scaling (ocean)\n");
    let mut t = Table::new(vec![
        "threshold scale",
        "bp cycles",
        "cycles",
        "fwd switches",
    ]);
    let scales = [0.5, 1.0, 2.0];
    let mechs = scales.map(|scale| afc("afc", &|c| c.thresholds = scaled_thresholds(scale)));
    for (scale, row) in scales.iter().zip(closed_loop(&mechs, workloads::ocean())) {
        t.row(vec![
            format!("{scale:.1}x"),
            percent(row.backpressured_fraction),
            row.cycles.to_string(),
            row.mode_switches.0.to_string(),
        ]);
    }
    println!("{}", t.render());

    // 4: EWMA weight on ocean (smoothing vs. thrash).
    println!("Ablation 4: EWMA weight (ocean)\n");
    let mut t = Table::new(vec!["weight", "fwd switches", "rev switches", "cycles"]);
    let weights = [0.90, 0.99, 0.999];
    let mechs = weights.map(|weight| afc("afc", &|c| c.ewma_weight = weight));
    for (weight, row) in weights.iter().zip(closed_loop(&mechs, workloads::ocean())) {
        t.row(vec![
            format!("{weight}"),
            row.mode_switches.0.to_string(),
            row.mode_switches.1.to_string(),
            row.cycles.to_string(),
        ]);
    }
    println!("{}", t.render());

    // 5: lazy-VC buffer sizing on apache (performance/energy trade).
    println!("Ablation 5: AFC lazy-VC buffer sizing (apache, always-backpressured)\n");
    let mut t = Table::new(vec![
        "VCs (ctrl/data)",
        "flits/port",
        "cycles",
        "energy (uJ)",
    ]);
    let sizes = [(6, 8), (8, 16), (16, 32)];
    let sized = |&(control_vcs, data_vcs): &(usize, usize)| AfcConfig {
        control_vcs,
        data_vcs,
        always_backpressured: true,
        ..AfcConfig::paper()
    };
    let mechs = sizes.map(|size| afc("afc-always-bp", &|c| *c = sized(&size)));
    for (size, row) in sizes.iter().zip(closed_loop(&mechs, workloads::apache())) {
        t.row(vec![
            format!("{}/{}", size.0, size.1),
            sized(size).buffer_flits_per_port(&cfg).to_string(),
            row.cycles.to_string(),
            ratio(row.energy.total() / 1e6),
        ]);
    }
    println!("{}", t.render());

    // 6: backpressured design options under transpose traffic, where the
    // dimension order matters most.
    println!("Ablation 6: backpressured options (transpose open loop @ 0.4 flits/node/cycle)\n");
    let mut t = Table::new(vec!["options", "mean latency", "throughput"]);
    let variants: Vec<(&str, BackpressuredOptions)> = vec![
        ("xy, back-to-back", BackpressuredOptions::default()),
        (
            "yx, back-to-back",
            BackpressuredOptions {
                routing: RoutingAlgorithm::YFirst,
                ..BackpressuredOptions::default()
            },
        ),
        (
            "xy, atomic VCs",
            BackpressuredOptions {
                atomic_vc_reallocation: true,
                ..BackpressuredOptions::default()
            },
        ),
    ];
    let mechs: Vec<Mechanism> = variants
        .iter()
        .map(|(_, options)| {
            let factory = BackpressuredFactory::with_options(*options);
            Mechanism::new("backpressured", Box::new(factory))
        })
        .collect();
    let points = open_loop(&mechs, &[0.4], Pattern::Transpose);
    for ((label, _), p) in variants.iter().zip(&points) {
        t.row(vec![
            label.to_string(),
            latency(p),
            format!("{:.2}", p.throughput),
        ]);
    }
    println!("{}", t.render());
    let timing = afc_bench::sweep::write_timing_report("ablation").expect("writable results dir");
    println!("(timing: {})", timing.display());
}
