//! Converting activity counters into energy.

use crate::params::EnergyParams;
use afc_netsim::counters::ActivityCounters;
use afc_netsim::network::Network;

/// Energy of one run, split by component (all values in picojoules).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Buffer read/write dynamic energy.
    pub buffer_dynamic: f64,
    /// Buffer leakage (after power gating).
    pub buffer_static: f64,
    /// Pipeline-latch writes (backpressureless input path).
    pub latch_dynamic: f64,
    /// Link traversal energy, including credit and control wires.
    pub link: f64,
    /// Crossbar traversal energy.
    pub crossbar: f64,
    /// Arbitration energy.
    pub arbitration: f64,
    /// Non-buffer router leakage.
    pub router_static: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.buffer_dynamic
            + self.buffer_static
            + self.latch_dynamic
            + self.link
            + self.crossbar
            + self.arbitration
            + self.router_static
    }

    /// Total buffer energy (dynamic + static) — the "Buffer Energy" series
    /// of Figure 3.
    pub fn buffer(&self) -> f64 {
        self.buffer_dynamic + self.buffer_static
    }

    /// "Rest of Router Energy" in Figure 3: everything that is neither
    /// buffer nor link (crossbar, arbiters, latches, non-buffer leakage).
    pub fn rest_of_router(&self) -> f64 {
        self.latch_dynamic + self.crossbar + self.arbitration + self.router_static
    }
}

/// How reads out of the input buffers are charged — the three
/// backpressured bars of Figure 2(b). The accountings price one and the
/// same simulation: a backpressured router built with `read_bypass`
/// records every read a bypass latch could have served as a `latch_writes`
/// event and the rest as `buffer_reads` (the bypass latch is its only
/// latch), and timing does not depend on the option, so its counters are a
/// superset from which each accounting is read off by
/// [`BufferAccounting::recount`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BufferAccounting {
    /// No bypass path: a read the router served from its bypass latch is
    /// charged as the SRAM read it would have been. Only defined for
    /// backpressured networks, where no other latch exists
    /// ([`EnergyModel::price_network_as`] refuses any other).
    Sram,
    /// Wang et al.'s read bypass, and every network's own accounting:
    /// charge what the routers recorded, SRAM reads as SRAM reads and
    /// latch writes as latch writes.
    #[default]
    ReadBypass,
    /// The "ideal-bypass" lower bound: as [`BufferAccounting::Sram`] with
    /// all buffer read/write dynamic energy elided.
    IdealBypass,
}

impl BufferAccounting {
    /// `counters` as this accounting reads them.
    pub fn recount(self, counters: &ActivityCounters) -> ActivityCounters {
        match self {
            BufferAccounting::ReadBypass => *counters,
            BufferAccounting::Sram | BufferAccounting::IdealBypass => ActivityCounters {
                buffer_reads: counters.buffer_reads + counters.latch_writes,
                latch_writes: 0,
                ..*counters
            },
        }
    }
}

/// Mechanism-specific inputs to pricing that are not in the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MechanismProfile {
    /// Flit width in bits (payload + control), e.g. 41/45/49.
    pub flit_width_bits: u32,
    /// Instantiated buffer capacity per input port, in flits.
    pub buffer_flits_per_port: usize,
    /// Total buffered input ports across the network (network ports with a
    /// neighbor plus one local port per node).
    pub buffered_input_ports: usize,
    /// Number of routers.
    pub routers: usize,
    /// How buffer reads are charged.
    pub buffers: BufferAccounting,
}

impl MechanismProfile {
    /// Derives the profile from a built network, charging buffer reads as
    /// its routers recorded them.
    pub fn of(net: &Network) -> MechanismProfile {
        let mesh = net.mesh();
        let buffered_input_ports = mesh.nodes().map(|n| mesh.degree(n) + 1).sum();
        MechanismProfile {
            flit_width_bits: net.flit_width_bits(),
            buffer_flits_per_port: net.buffer_flits_per_port(),
            buffered_input_ports,
            routers: mesh.node_count(),
            buffers: BufferAccounting::default(),
        }
    }

    /// Total instantiated buffer bits.
    pub fn buffer_bits(&self) -> f64 {
        self.buffered_input_ports as f64
            * self.buffer_flits_per_port as f64
            * self.flit_width_bits as f64
    }
}

/// The energy model: prices activity counters under a parameter set.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (negative or NaN entries).
    pub fn new(params: EnergyParams) -> EnergyModel {
        assert!(params.is_valid(), "energy parameters must be valid");
        EnergyModel { params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Prices aggregated counters for a mechanism.
    ///
    /// `counters.cycles` is the sum of per-router cycles; leakage uses
    /// `cycles / routers` as the elapsed time and `cycles_buffers_gated`
    /// for the gated fraction.
    pub fn price(
        &self,
        counters: &ActivityCounters,
        profile: &MechanismProfile,
    ) -> EnergyBreakdown {
        let p = &self.params;
        let counters = &profile.buffers.recount(counters);
        let w = profile.flit_width_bits as f64;
        let buffer_dynamic = if profile.buffers == BufferAccounting::IdealBypass {
            0.0
        } else {
            // SRAM access energy grows with array size: smaller buffers
            // (AFC's 32 vs. the baseline's 64 flits per port) are cheaper
            // to read and write.
            let size_scale = if profile.buffer_flits_per_port == 0 {
                0.0
            } else {
                (profile.buffer_flits_per_port as f64 / p.buffer_access_reference_flits)
                    .powf(p.buffer_access_size_exponent)
            };
            (counters.buffer_writes as f64 * p.buffer_write_per_bit
                + counters.buffer_reads as f64 * p.buffer_read_per_bit)
                * w
                * size_scale
        };
        let latch_dynamic = counters.latch_writes as f64 * p.latch_write_per_bit * w;
        let crossbar = counters.crossbar_traversals as f64 * p.crossbar_per_bit * w;
        let link = counters.link_traversals as f64 * p.link_per_bit * w
            + counters.credits_sent as f64 * p.credit
            + counters.control_sends as f64 * p.control;
        let arbitration = counters.arbitrations as f64 * p.arbitration;

        let elapsed = if profile.routers == 0 {
            0.0
        } else {
            counters.cycles as f64 / profile.routers as f64
        };
        let gated_fraction = counters.gated_fraction();
        let leak_scale = (1.0 - gated_fraction) + gated_fraction * (1.0 - p.gating_effectiveness);
        let buffer_static =
            profile.buffer_bits() * p.buffer_leak_per_bit_cycle * elapsed * leak_scale;
        let router_static = profile.routers as f64 * p.router_leak_per_cycle * elapsed;

        EnergyBreakdown {
            buffer_dynamic,
            buffer_static,
            latch_dynamic,
            link,
            crossbar,
            arbitration,
            router_static,
        }
    }

    /// Convenience: prices a whole network run (its aggregated counters
    /// under its own mechanism profile).
    pub fn price_network(&self, net: &Network) -> EnergyBreakdown {
        self.price_network_as(net, BufferAccounting::default())
    }

    /// [`EnergyModel::price_network`] under an explicit buffer accounting:
    /// how one simulated backpressured network yields all three of its
    /// Figure 2(b) bars.
    ///
    /// # Panics
    ///
    /// Panics when `buffers` is not the default and `net` is not a
    /// backpressured network: anywhere else a latch write is a real event,
    /// and recounting it as an SRAM read would misprice the run silently.
    pub fn price_network_as(&self, net: &Network, buffers: BufferAccounting) -> EnergyBreakdown {
        assert!(
            buffers == BufferAccounting::default()
                || matches!(
                    net.mechanism(),
                    "backpressured" | "backpressured-read-bypass"
                ),
            "{buffers:?} accounting is defined for backpressured networks, not {}",
            net.mechanism()
        );
        let profile = MechanismProfile {
            buffers,
            ..MechanismProfile::of(net)
        };
        self.price(&net.total_counters(), &profile)
    }

    /// Prices each router separately (e.g. to render spatial energy maps).
    /// Per-router profiles account for each node's actual port count, so
    /// the per-router totals sum to [`EnergyModel::price_network`]'s total.
    pub fn price_per_router(&self, net: &Network) -> Vec<EnergyBreakdown> {
        let mesh = net.mesh();
        let base = MechanismProfile::of(net);
        mesh.nodes()
            .map(|node| {
                let profile = MechanismProfile {
                    buffered_input_ports: mesh.degree(node) + 1,
                    routers: 1,
                    ..base
                };
                self.price(&net.router_counters(node), &profile)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> MechanismProfile {
        MechanismProfile {
            flit_width_bits: 41,
            buffer_flits_per_port: 64,
            buffered_input_ports: 33,
            routers: 9,
            buffers: BufferAccounting::default(),
        }
    }

    #[test]
    fn zero_activity_prices_only_leakage() {
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        let counters = ActivityCounters {
            cycles: 9_000, // 1000 cycles on 9 routers
            ..ActivityCounters::new()
        };
        let e = model.price(&counters, &profile());
        assert_eq!(e.buffer_dynamic, 0.0);
        assert_eq!(e.link, 0.0);
        assert!(e.buffer_static > 0.0);
        assert!(e.router_static > 0.0);
        assert!((e.total() - e.buffer_static - e.router_static).abs() < 1e-9);
    }

    #[test]
    fn gating_removes_90_percent_of_buffer_leakage() {
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        let active = ActivityCounters {
            cycles: 9_000,
            ..ActivityCounters::new()
        };
        let gated = ActivityCounters {
            cycles: 9_000,
            cycles_buffers_gated: 9_000,
            ..ActivityCounters::new()
        };
        let e_active = model.price(&active, &profile());
        let e_gated = model.price(&gated, &profile());
        let ratio = e_gated.buffer_static / e_active.buffer_static;
        assert!((ratio - 0.10).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn ideal_bypass_zeroes_buffer_dynamic_only() {
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        let counters = ActivityCounters {
            cycles: 9_000,
            buffer_writes: 1000,
            buffer_reads: 1000,
            link_traversals: 500,
            ..ActivityCounters::new()
        };
        let normal = model.price(&counters, &profile());
        let bypass = model.price(
            &counters,
            &MechanismProfile {
                buffers: BufferAccounting::IdealBypass,
                ..profile()
            },
        );
        assert!(normal.buffer_dynamic > 0.0);
        assert_eq!(bypass.buffer_dynamic, 0.0);
        assert_eq!(bypass.buffer_static, normal.buffer_static);
        assert_eq!(bypass.link, normal.link);
    }

    #[test]
    fn read_bypass_counters_are_a_superset_of_the_other_accountings() {
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        // What one run records without and with the read bypass: 400 of
        // its 1000 reads found the flit alone in its VC.
        let plain = ActivityCounters {
            cycles: 9_000,
            buffer_writes: 1000,
            buffer_reads: 1000,
            link_traversals: 500,
            ..ActivityCounters::new()
        };
        let bypass = ActivityCounters {
            buffer_reads: 600,
            latch_writes: 400,
            ..plain
        };
        assert_eq!(BufferAccounting::Sram.recount(&bypass), plain);
        assert_eq!(BufferAccounting::ReadBypass.recount(&bypass), bypass);
        for buffers in [BufferAccounting::Sram, BufferAccounting::IdealBypass] {
            let accounted = MechanismProfile {
                buffers,
                ..profile()
            };
            assert_eq!(
                model.price(&bypass, &accounted),
                model.price(&plain, &accounted),
                "{buffers:?} must not depend on which run recorded the counters"
            );
        }
        let real = model.price(&bypass, &profile());
        let sram = model.price(&plain, &profile());
        assert!(real.buffer_dynamic < sram.buffer_dynamic);
        assert!(real.latch_dynamic > 0.0 && sram.latch_dynamic == 0.0);
    }

    #[test]
    fn wider_flits_cost_more() {
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        let counters = ActivityCounters {
            cycles: 9_000,
            link_traversals: 1000,
            crossbar_traversals: 1000,
            ..ActivityCounters::new()
        };
        let narrow = model.price(&counters, &profile());
        let wide = model.price(
            &counters,
            &MechanismProfile {
                flit_width_bits: 49,
                ..profile()
            },
        );
        let expect = 49.0 / 41.0;
        assert!((wide.link / narrow.link - expect).abs() < 1e-9);
        assert!((wide.crossbar / narrow.crossbar - expect).abs() < 1e-9);
    }

    #[test]
    fn breakdown_groups_sum_to_total() {
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        let counters = ActivityCounters {
            cycles: 9_000,
            buffer_writes: 10,
            buffer_reads: 10,
            latch_writes: 5,
            crossbar_traversals: 20,
            link_traversals: 15,
            arbitrations: 30,
            credits_sent: 10,
            control_sends: 2,
            ..ActivityCounters::new()
        };
        let e = model.price(&counters, &profile());
        let regrouped = e.buffer() + e.link + e.rest_of_router();
        assert!((regrouped - e.total()).abs() < 1e-9);
    }

    #[test]
    fn per_router_totals_sum_to_network_total() {
        use afc_netsim::config::NetworkConfig;
        use afc_netsim::network::Network;
        use afc_routers::BackpressuredFactory;
        let mut net =
            Network::new(NetworkConfig::paper_3x3(), &BackpressuredFactory::new(), 5).unwrap();
        // Drive a little traffic so dynamic energy is nonzero.
        let mesh = net.mesh().clone();
        for i in 0..8usize {
            net.offer_packet(
                afc_netsim::geom::NodeId::new(i % 9),
                afc_netsim::packet::PacketInput {
                    dest: afc_netsim::geom::NodeId::new((i + 3) % 9),
                    vnet: afc_netsim::flit::VirtualNetwork(0),
                    len: 2,
                    kind: afc_netsim::packet::PacketKind::Synthetic,
                    tag: 0,
                },
            );
        }
        for _ in 0..100 {
            net.step();
            net.take_delivered();
        }
        let _ = mesh;
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        let total = model.price_network(&net).total();
        let sum: f64 = model
            .price_per_router(&net)
            .iter()
            .map(EnergyBreakdown::total)
            .sum();
        assert!(total > 0.0);
        assert!(
            (sum - total).abs() / total < 1e-9,
            "per-router sum {sum} vs network total {total}"
        );
    }

    #[test]
    #[should_panic(expected = "Sram accounting is defined for backpressured networks")]
    fn recounting_another_mechanisms_latches_is_refused() {
        use afc_netsim::config::NetworkConfig;
        use afc_routers::DeflectionFactory;
        let cfg = NetworkConfig::paper_3x3();
        let model = EnergyModel::new(EnergyParams::micro2010_70nm());
        for ok in [BufferAccounting::Sram, BufferAccounting::IdealBypass] {
            let bp = Network::new(cfg.clone(), &afc_routers::BackpressuredFactory::new(), 5);
            model.price_network_as(&bp.unwrap(), ok);
        }
        // A deflection router's latch writes are its datapath.
        let bless = Network::new(cfg, &DeflectionFactory::new(), 5).unwrap();
        model.price_network_as(&bless, BufferAccounting::Sram);
    }

    #[test]
    #[should_panic(expected = "must be valid")]
    fn invalid_params_rejected() {
        let mut p = EnergyParams::micro2010_70nm();
        p.credit = -0.1;
        let _ = EnergyModel::new(p);
    }
}
