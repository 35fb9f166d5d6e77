//! Degraded-mode determinism at scale (DESIGN.md §13): a 32×32 mesh under
//! rolling link churn run serially and on four threads must give the same
//! bytes, inside a wall-clock budget. Kill storms and mid-storm snapshot
//! resume across thread counts on random configurations are the lockstep
//! harness's subject (`tests/reference_stepper.rs`).

mod common;

use afc_bench::MechanismId;
use afc_netsim::config::{NetworkConfig, RetransmitConfig};
use afc_netsim::faults::FaultPlan;
use common::{fingerprint, open_loop};

/// 32×32 under rolling link churn, serial vs 4 threads, byte-identical and
/// inside a wall-clock budget: every learned fact makes every router
/// rebuild its next-hop table and every arrival crosses the fault plane, so
/// an O(mesh²) rebuild or a per-arrival plan scan (both once the case: this
/// run took about a minute per engine) blows the budget.
#[test]
fn mesh_32x32_churn_smoke_within_budget() {
    const CYCLES: u64 = 1_200;
    let budget = std::time::Duration::from_secs(60);
    let t0 = std::time::Instant::now();
    let base = NetworkConfig {
        width: 32,
        height: 32,
        ..NetworkConfig::paper_8x8()
    };
    let mesh = base.mesh().expect("valid mesh");
    let config = NetworkConfig {
        faults: FaultPlan::none().with_churn(&mesh, 0xC0FFEE, 100, 0.5, CYCLES),
        retransmit: Some(RetransmitConfig {
            timeout: 300,
            backoff_cap: 2,
            max_attempts: 0,
        }),
        ..base
    };
    let run = |threads| {
        let id = MechanismId::Backpressured;
        let sim = open_loop(&config, id, 0.05, 0xC0FFEE, threads, CYCLES);
        let s = sim.network.stats();
        assert!(s.links_failed >= 8 && s.links_revived >= 8, "churn engaged");
        assert!(sim.network.total_counters().reroutes > 0, "detours taken");
        let parallel = sim.network.parallel_cycles();
        (fingerprint(&sim.network), sim.traffic.log.len(), parallel)
    };
    let (base_fp, delivered, base_par) = run(1);
    assert_eq!(base_par, 0);
    assert!(delivered > 0, "vacuous comparison (nothing delivered)");
    let (fp, _, parallel) = run(4);
    assert!(parallel > 0);
    assert_eq!(base_fp, fp, "32x32 churn x4: diverged");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < budget,
        "32x32 churn smoke blew its budget: {elapsed:?} > {budget:?}"
    );
}
