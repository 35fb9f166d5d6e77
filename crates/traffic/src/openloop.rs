//! Open-loop traffic: Bernoulli packet injection at a configured rate.
//!
//! Open-loop drivers inject packets regardless of network state (the source
//! queues grow without bound past saturation), which is exactly what the
//! latency-throughput sweeps of the paper's "Other results" and the
//! Section V-B spatial-variation experiment need.

use afc_netsim::flit::{Cycle, VirtualNetwork};
use afc_netsim::network::Network;
use afc_netsim::packet::{DeliveredPacket, PacketInput, PacketKind};
use afc_netsim::rng::SimRng;
use afc_netsim::sim::TrafficModel;
use afc_netsim::snapshot::{Codec, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::synthetic::Pattern;

/// Mix of packet classes injected by an open-loop source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketMix {
    /// Probability that a packet is a multi-flit data packet.
    pub data_fraction: f64,
    /// Length of a data packet in flits.
    pub data_len: u16,
    /// Virtual network for data packets.
    pub data_vnet: u8,
    /// Length of a control packet in flits.
    pub control_len: u16,
    /// Virtual network for control packets.
    pub control_vnet: u8,
}

impl PacketMix {
    /// The paper's mix: 1-flit control packets on vnet 0, 16-flit data
    /// packets (64-byte block over 32-bit flits) on vnet 2, half the
    /// packets being data.
    pub fn paper() -> PacketMix {
        PacketMix {
            data_fraction: 0.5,
            data_len: 16,
            data_vnet: 2,
            control_len: 1,
            control_vnet: 0,
        }
    }

    /// Single-flit packets only (classic open-loop network evaluation).
    pub fn single_flit() -> PacketMix {
        PacketMix {
            data_fraction: 0.0,
            data_len: 1,
            data_vnet: 2,
            control_len: 1,
            control_vnet: 0,
        }
    }

    /// Expected packet length in flits.
    pub fn mean_len(&self) -> f64 {
        self.data_fraction * self.data_len as f64
            + (1.0 - self.data_fraction) * self.control_len as f64
    }
}

impl Default for PacketMix {
    fn default() -> Self {
        PacketMix::paper()
    }
}

/// Per-node injection rates in flits/node/cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum RateSpec {
    /// Same rate at every node.
    Uniform(f64),
    /// Explicit per-node rates (length must equal the node count).
    PerNode(Vec<f64>),
}

impl RateSpec {
    /// Rate for one node.
    ///
    /// # Panics
    ///
    /// Panics if a `PerNode` vector is shorter than the node index.
    pub fn rate(&self, node: usize) -> f64 {
        match self {
            RateSpec::Uniform(r) => *r,
            RateSpec::PerNode(v) => v[node],
        }
    }
}

/// Open-loop traffic model.
#[derive(Debug, Clone)]
pub struct OpenLoopTraffic {
    rates: RateSpec,
    pattern: Pattern,
    mix: PacketMix,
    rng: SimRng,
    /// Stop offering new packets (used to drain at the end of a run).
    stopped: bool,
    delivered: u64,
}

impl OpenLoopTraffic {
    /// Creates an open-loop source.
    pub fn new(rates: RateSpec, pattern: Pattern, mix: PacketMix, seed: u64) -> OpenLoopTraffic {
        OpenLoopTraffic {
            rates,
            pattern,
            mix,
            rng: SimRng::seed_from(seed ^ 0x4F50_454E_4C4F_4F50), // "OPENLOOP"
            stopped: false,
            delivered: 0,
        }
    }

    /// Stops offering new packets (the network can then be drained).
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Packets fully delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl TrafficModel for OpenLoopTraffic {
    fn pre_cycle(&mut self, _now: Cycle, net: &mut Network) {
        if self.stopped {
            return;
        }
        let mesh = net.mesh().clone();
        let mean_len = self.mix.mean_len();
        for node in mesh.nodes() {
            let rate = self.rates.rate(node.index());
            if rate <= 0.0 {
                continue;
            }
            let p_packet = (rate / mean_len).min(1.0);
            if !self.rng.gen_bool(p_packet) {
                continue;
            }
            let Some(dest) = self.pattern.dest(node, &mesh, &mut self.rng) else {
                continue;
            };
            let data = self.rng.gen_bool(self.mix.data_fraction);
            let (len, vnet) = if data {
                (self.mix.data_len, self.mix.data_vnet)
            } else {
                (self.mix.control_len, self.mix.control_vnet)
            };
            net.offer_packet(
                node,
                PacketInput {
                    dest,
                    vnet: VirtualNetwork(vnet),
                    len,
                    kind: PacketKind::Synthetic,
                    tag: 0,
                },
            );
        }
    }

    fn on_delivered(&mut self, _packet: &DeliveredPacket, _now: Cycle, _net: &mut Network) {
        self.delivered += 1;
    }

    fn save_state(&self, w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        // Rates, pattern, and mix are construction-time configuration; only
        // the mutable injection state travels.
        self.rng.put(w);
        (self.stopped, self.delivered).put(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rng.load(r)?;
        (self.stopped, self.delivered) = Codec::get(r)?;
        Ok(())
    }
}
