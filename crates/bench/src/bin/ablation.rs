//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! 1. deflection ranking policy (random vs. oldest-first),
//! 2. drop-based vs. deflection-based backpressureless routing,
//! 3. AFC contention-threshold scaling,
//! 4. AFC EWMA weight,
//! 5. AFC lazy-VC buffer sizing,
//! 6. backpressured router design options (XY vs. YX routing, atomic vs.
//!    back-to-back VC reallocation).

use afc_bench::experiments::{closed_loop_matrix, latency_throughput_sweep, saturation_throughput};
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
    let args: Vec<String> = std::env::args().collect();
    afc_bench::sweep::parse_threads_arg_or_exit(&args);
    let quick = args.iter().any(|a| a == "--quick");
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
    let rows = afc_bench::sweep::run_sweep("ablation-variants", &variants, |_, m| {
        let pts = latency_throughput_sweep(
            m,
            &rates,
            &cfg,
            Pattern::UniformRandom,
            PacketMix::paper(),
            ol_warm,
            ol_meas,
            1,
        );
        let mut cells = vec![m.label.to_string()];
        for p in &pts {
            cells.push(
                p.latency
                    .map(|l| format!("{l:.0}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        cells.push(format!("{:.2}", saturation_throughput(&pts)));
        cells
    });
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());

    // 3: threshold scaling on the mixed-load workload (ocean).
    println!("Ablation 3: AFC contention-threshold scaling (ocean)\n");
    let mut t = Table::new(vec![
        "threshold scale",
        "bp cycles",
        "cycles",
        "fwd switches",
    ]);
    let rows = afc_bench::sweep::run_sweep("ablation-thresholds", &[0.5, 1.0, 2.0], |_, &scale| {
        let mech = Mechanism::new(
            "afc",
            Box::new(AfcFactory::new(AfcConfig {
                thresholds: scaled_thresholds(scale),
                ..AfcConfig::paper()
            })),
        );
        let rows = closed_loop_matrix(
            std::slice::from_ref(&mech),
            &[workloads::ocean()],
            &cfg,
            warmup,
            measure,
            50_000_000,
            1,
        );
        vec![
            format!("{scale:.1}x"),
            percent(rows[0].backpressured_fraction),
            rows[0].cycles.to_string(),
            rows[0].mode_switches.0.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());

    // 4: EWMA weight on ocean (smoothing vs. thrash).
    println!("Ablation 4: EWMA weight (ocean)\n");
    let mut t = Table::new(vec!["weight", "fwd switches", "rev switches", "cycles"]);
    let rows = afc_bench::sweep::run_sweep("ablation-ewma", &[0.90, 0.99, 0.999], |_, &weight| {
        let mech = Mechanism::new(
            "afc",
            Box::new(AfcFactory::new(AfcConfig {
                ewma_weight: weight,
                ..AfcConfig::paper()
            })),
        );
        let rows = closed_loop_matrix(
            std::slice::from_ref(&mech),
            &[workloads::ocean()],
            &cfg,
            warmup,
            measure,
            50_000_000,
            1,
        );
        vec![
            format!("{weight}"),
            rows[0].mode_switches.0.to_string(),
            rows[0].mode_switches.1.to_string(),
            rows[0].cycles.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
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
    let rows = afc_bench::sweep::run_sweep("ablation-buffers", &sizes, |_, &(c, d)| {
        let afc_cfg = AfcConfig {
            control_vcs: c,
            data_vcs: d,
            always_backpressured: true,
            ..AfcConfig::paper()
        };
        let flits = afc_cfg.buffer_flits_per_port(&cfg);
        let mech = Mechanism::new("afc-always-bp", Box::new(AfcFactory::new(afc_cfg)));
        let rows = closed_loop_matrix(
            std::slice::from_ref(&mech),
            &[workloads::apache()],
            &cfg,
            warmup,
            measure,
            50_000_000,
            1,
        );
        vec![
            format!("{c}/{d}"),
            flits.to_string(),
            rows[0].cycles.to_string(),
            ratio(rows[0].energy.total() / 1e6),
        ]
    });
    for row in rows {
        t.row(row);
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
    let rows =
        afc_bench::sweep::run_sweep("ablation-bp-options", &variants, |_, &(label, options)| {
            let mech = Mechanism::new(
                "backpressured",
                Box::new(BackpressuredFactory::with_options(options)),
            );
            let pts = latency_throughput_sweep(
                &mech,
                &[0.4],
                &cfg,
                Pattern::Transpose,
                PacketMix::paper(),
                ol_warm,
                ol_meas,
                1,
            );
            vec![
                label.to_string(),
                pts[0]
                    .latency
                    .map(|l| format!("{l:.0}"))
                    .unwrap_or_else(|| "-".into()),
                format!("{:.2}", pts[0].throughput),
            ]
        });
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());
    let timing = afc_bench::sweep::write_timing_report("ablation").expect("writable results dir");
    println!("(timing: {})", timing.display());
}
