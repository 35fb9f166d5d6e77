//! `AFC_SWEEP_SELFCHECK=1` reaches the `experiments` grids: every member of
//! a coalesced unit is re-executed on its own network and compared. One test
//! in its own binary, because it sets the process environment before the
//! engine's one read of it and reads a process-wide counter.

use afc_bench::experiments::closed_loop_matrix;
use afc_bench::sweep::selfcheck_runs;
use afc_bench::{all_mechanisms, Mechanism};
use afc_core::AfcFactory;
use afc_netsim::config::NetworkConfig;
use afc_traffic::workloads;

#[test]
fn selfcheck_re_executes_the_coalesced_members_of_a_figure_grid() {
    std::env::set_var("AFC_SWEEP_SELFCHECK", "1");
    let cfg = NetworkConfig::paper_3x3();
    let grid = |mechanisms: &[Mechanism]| {
        let before = selfcheck_runs();
        let workloads = [workloads::water(), workloads::apache()];
        closed_loop_matrix(mechanisms, &workloads, &cfg, 50, 150, 50_000_000, 1);
        selfcheck_runs() - before
    };
    // Per workload, the three backpressured accountings share one
    // simulation; the other four mechanisms are units of one.
    assert_eq!(grid(&all_mechanisms()), 2 * 3);
    // A custom variant never shares a unit, so there is nothing to check.
    let custom = [Mechanism::new("afc", Box::new(AfcFactory::paper()))];
    assert_eq!(grid(&custom), 0);
}
