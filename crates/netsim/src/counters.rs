//! Per-router activity counters consumed by the energy model.
//!
//! Routers record *what happened* (buffer reads, crossbar traversals, link
//! traversals, cycles with buffers power-gated, ...); the `afc-energy` crate
//! converts counts into joules under a technology preset. This separation
//! lets one simulation run be re-priced under different energy parameters.

crate::stats::field_table! {
    /// Event and state counts accumulated by one router over a run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ActivityCounters {
        /// Flits written into input buffers (backpressured operation).
        pub buffer_writes: u64 = sum,
        /// Flits read out of input buffers.
        pub buffer_reads: u64 = sum,
        /// Flits written into pipeline input latches (backpressureless
        /// operation).
        pub latch_writes: u64 = sum,
        /// Flits that crossed the crossbar.
        pub crossbar_traversals: u64 = sum,
        /// Flits sent onto an outgoing link (counted at the sender).
        pub link_traversals: u64 = sum,
        /// Flits ejected to the local node interface.
        pub ejections: u64 = sum,
        /// Flits accepted from the local node interface.
        pub injections: u64 = sum,
        /// Arbitration operations performed (switch and port allocation).
        pub arbitrations: u64 = sum,
        /// Virtual-channel allocation operations (backpressured baseline only;
        /// AFC's lazy allocation is folded into the buffer write).
        pub vc_allocations: u64 = sum,
        /// Credits sent upstream.
        pub credits_sent: u64 = sum,
        /// Control-signal transitions on the credit-tracking sideband line.
        pub control_sends: u64 = sum,
        /// Flits deflected to a non-productive output port.
        pub deflections: u64 = sum,
        /// Flits dropped (drop-based backpressureless router only).
        pub drops: u64 = sum,
        /// Retransmissions of previously dropped flits.
        pub retransmissions: u64 = sum,
        /// Total cycles simulated.
        pub cycles: u64 = sum,
        /// Cycles during which the input buffers were power-gated.
        pub cycles_buffers_gated: u64 = sum,
        /// Cycles in which buffered flits were present but none could compete
        /// for the switch (all blocked on downstream credits).
        pub credit_stall_cycles: u64 = sum,
        /// Sum over cycles of buffered-flit occupancy (divide by `cycles` for
        /// the mean).
        pub buffer_occupancy_sum: u64 = sum,
        /// Forward (backpressureless -> backpressured) mode switches.
        pub mode_switches_forward: u64 = sum,
        /// Reverse (backpressured -> backpressureless) mode switches.
        pub mode_switches_reverse: u64 = sum,
        /// Forward switches forced by gossip (neighbor credit exhaustion).
        pub mode_switches_gossip: u64 = sum,
        /// Flits routed away from their dimension-ordered productive direction
        /// because a fault mask blocked it (fault-aware detours).
        pub reroutes: u64 = sum,
        /// New dead-link facts learned (locally detected or via gossip).
        pub fault_notices: u64 = sum,
    }
}

impl ActivityCounters {
    /// Fraction of cycles with buffers gated (0 if no cycles recorded).
    pub fn gated_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.cycles_buffers_gated as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = ActivityCounters {
            buffer_writes: 1,
            link_traversals: 2,
            cycles: 10,
            cycles_buffers_gated: 5,
            ..ActivityCounters::new()
        };
        let b = ActivityCounters {
            buffer_writes: 3,
            link_traversals: 4,
            cycles: 10,
            cycles_buffers_gated: 10,
            ..ActivityCounters::new()
        };
        a.merge(&b);
        assert_eq!(a.buffer_writes, 4);
        assert_eq!(a.link_traversals, 6);
        assert_eq!(a.cycles, 20);
        assert!((a.gated_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn every_counter_survives_the_field_wall() {
        let sample = ActivityCounters::wall_sample();
        assert!(sample.buffer_writes != 0 && sample.fault_notices != 0);
        assert_ne!(sample.buffer_writes, sample.fault_notices);
        crate::stats::tests::assert_field_wall(
            sample,
            ActivityCounters::merge,
            ActivityCounters::clear,
        );
    }

    #[test]
    fn gated_fraction_handles_zero_cycles() {
        assert_eq!(ActivityCounters::new().gated_fraction(), 0.0);
    }
}
