//! The lockstep harness on random configurations (DESIGN.md §8, §12): the
//! naive reference stepper, the tracked walk and the sharded engine at 2,
//! 3 and 5 threads step together on every drawn case
//! (`common::lockstep`), with a mid-run snapshot resume. Tier 1 runs 40
//! cases; the `#[ignore]`d sweep (CI's `parallel-engine` job) runs 320,
//! 8×8 and 12×12 among them.

mod common;

#[test]
fn random_configs_step_in_lockstep_with_the_reference() {
    common::lockstep::sweep(0x5EF_0001, 40, false);
}

/// The long sweep: 320 configurations, an eighth of them 8×8 and an
/// eighth 12×12.
#[test]
#[ignore = "long sweep; CI runs it with --ignored"]
fn random_configs_step_in_lockstep_with_the_reference_long() {
    common::lockstep::sweep(0x5EF_1000, 320, true);
}
