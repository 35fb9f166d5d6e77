//! The simulation driver: couples a [`Network`] with a [`TrafficModel`].

use crate::error::SimError;
use crate::flit::Cycle;
use crate::network::Network;
use crate::packet::DeliveredPacket;
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};

/// A source (and, for closed-loop models, sink) of network traffic.
///
/// Implementations offer packets via [`Network::offer_packet`] during
/// [`TrafficModel::pre_cycle`] and observe completions in
/// [`TrafficModel::on_delivered`], which may itself offer new packets — this
/// is how the closed-loop memory model generates replies and how the
/// network's feedback on execution time is preserved.
pub trait TrafficModel {
    /// Called at the start of every cycle, before the network advances.
    fn pre_cycle(&mut self, now: Cycle, net: &mut Network);

    /// Called once per packet completed during the previous
    /// [`Network::step`].
    fn on_delivered(&mut self, packet: &DeliveredPacket, now: Cycle, net: &mut Network);

    /// For closed-loop models: true once the workload's transaction budget
    /// is exhausted. Open-loop models never finish on their own.
    fn is_finished(&self, _now: Cycle) -> bool {
        false
    }

    /// Serializes the model's mutable state (RNG, issue bookkeeping,
    /// completion counters) for a deterministic snapshot. See
    /// [`Router::save_state`](crate::router::Router::save_state) for the
    /// determinism contract; the default refuses.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] unless overridden.
    fn save_state(&self, _w: &mut SnapshotWriter) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported {
            what: "traffic model",
        })
    }

    /// Restores state written by [`TrafficModel::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] unless overridden; decode errors
    /// otherwise.
    fn load_state(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported {
            what: "traffic model",
        })
    }
}

/// A network plus the traffic model driving it.
///
/// # Examples
///
/// See the `afc-traffic` crate for concrete traffic models and the
/// workspace `examples/` directory for end-to-end runs.
pub struct Simulation<T> {
    /// The simulated network.
    pub network: Network,
    /// The traffic model.
    pub traffic: T,
    /// Reused per-step scratch for delivered packets: keeps the step loop
    /// free of per-cycle allocations.
    delivered_buf: Vec<DeliveredPacket>,
}

impl<T: TrafficModel> Simulation<T> {
    /// Couples a network with a traffic model.
    pub fn new(network: Network, traffic: T) -> Simulation<T> {
        Simulation {
            network,
            traffic,
            delivered_buf: Vec::new(),
        }
    }

    /// Rebuilds this simulation in place for a new run: the network is
    /// returned to its freshly constructed state via
    /// [`Network::reset_from_config`] — reusing its arena of allocations —
    /// and `traffic` replaces the previous model. Returns `false` (leaving
    /// the simulation untouched except for the dropped `traffic` argument)
    /// when the network is not arena-compatible with the requested
    /// configuration; the caller then constructs fresh.
    pub fn reset_from_config(
        &mut self,
        config: &crate::config::NetworkConfig,
        factory: &dyn crate::router::RouterFactory,
        seed: u64,
        traffic: T,
    ) -> bool {
        if !self.network.reset_from_config(config, factory, seed) {
            return false;
        }
        self.traffic = traffic;
        self.delivered_buf.clear();
        true
    }

    /// Advances one cycle: traffic generation, network step, delivery
    /// callbacks.
    pub fn step(&mut self) {
        or_panic(self.try_step(), self.network.mechanism())
    }

    /// Runs exactly `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        or_panic(self.try_run(cycles), self.network.mechanism())
    }

    /// Runs until the traffic model reports completion or `max_cycles`
    /// elapse. Returns `true` if the model finished.
    pub fn run_until_finished(&mut self, max_cycles: u64) -> bool {
        let finished = self.try_run_until_finished(max_cycles);
        or_panic(finished, self.network.mechanism())
    }

    /// Stops offering new traffic is the caller's job; this runs until every
    /// in-flight flit has been delivered or `max_cycles` elapse. Returns
    /// `true` if fully drained.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        or_panic(self.try_drain(max_cycles), self.network.mechanism())
    }

    /// Fallible [`Simulation::step`]: watchdog and protocol failures come
    /// back as structured [`SimError`]s (see [`Network::try_step`]).
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] from the network; the simulation
    /// must not be stepped further after an error.
    pub fn try_step(&mut self) -> Result<(), SimError> {
        let now = self.network.now();
        self.traffic.pre_cycle(now, &mut self.network);
        self.network.try_step()?;
        let now = self.network.now();
        let mut buf = std::mem::take(&mut self.delivered_buf);
        self.network.take_delivered_into(&mut buf);
        for packet in &buf {
            self.traffic.on_delivered(packet, now, &mut self.network);
        }
        buf.clear();
        self.delivered_buf = buf;
        Ok(())
    }

    /// Fallible [`Simulation::run`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`].
    pub fn try_run(&mut self, cycles: u64) -> Result<(), SimError> {
        for _ in 0..cycles {
            self.try_step()?;
        }
        Ok(())
    }

    /// Fallible [`Simulation::run_until_finished`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`].
    pub fn try_run_until_finished(&mut self, max_cycles: u64) -> Result<bool, SimError> {
        for _ in 0..max_cycles {
            if self.traffic.is_finished(self.network.now()) {
                return Ok(true);
            }
            self.try_step()?;
        }
        Ok(self.traffic.is_finished(self.network.now()))
    }

    /// Serializes the complete simulation state — network (routers,
    /// channels, NIs, RNG streams, stats, fault log) plus traffic model —
    /// into a sealed, checksummed snapshot container.
    ///
    /// Restoring the bytes with [`Simulation::restore`] into a simulation
    /// built from the same configuration and seed, then stepping N cycles,
    /// is byte-identical to stepping the original N cycles (pinned by the
    /// `snapshot_roundtrip` integration suite for all four mechanisms).
    ///
    /// Call between steps, never mid-step.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if the network's routers or the
    /// traffic model do not implement state capture.
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new();
        self.network.save_state(&mut w)?;
        self.traffic.save_state(&mut w)?;
        Ok(snapshot::seal(w))
    }

    /// Restores state captured by [`Simulation::snapshot`] into this
    /// simulation, which must have been constructed from the same
    /// configuration, mechanism, and seed (verified via the fingerprint
    /// embedded in the snapshot). `origin` names the byte source for error
    /// messages (a file path, or `"<memory>"`).
    ///
    /// # Errors
    ///
    /// Container errors (bad magic/version/checksum, naming `origin`),
    /// [`SnapshotError::ContextMismatch`] on a fingerprint disagreement,
    /// and decode errors on a malformed payload.
    pub fn restore(&mut self, bytes: &[u8], origin: &str) -> Result<(), SnapshotError> {
        let mut r = snapshot::open(bytes, origin)?;
        self.network.load_state(&mut r)?;
        self.traffic.load_state(&mut r)?;
        r.finish("simulation snapshot")?;
        self.delivered_buf.clear();
        Ok(())
    }

    /// Fallible [`Simulation::drain`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`].
    pub fn try_drain(&mut self, max_cycles: u64) -> Result<bool, SimError> {
        for _ in 0..max_cycles {
            if self.network.is_drained() {
                return Ok(true);
            }
            self.try_step()?;
        }
        Ok(self.network.is_drained())
    }
}

/// The panicking forms' one panic site, with [`Network::step`]'s text.
fn or_panic<R>(result: Result<R, SimError>, mechanism: &str) -> R {
    result.unwrap_or_else(|e| panic!("{e} (mechanism {mechanism})"))
}

impl<T: std::fmt::Debug> std::fmt::Debug for Simulation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("network", &self.network)
            .field("traffic", &self.traffic)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::flit::{PacketKind, VirtualNetwork};
    use crate::geom::NodeId;
    use crate::packet::PacketInput;
    use crate::testutil::FifoFactory;

    /// Offers one packet per cycle for the first `count` cycles, then goes
    /// quiet; counts deliveries.
    #[derive(Debug)]
    struct Burst {
        count: u64,
        delivered: u64,
    }

    impl TrafficModel for Burst {
        fn pre_cycle(&mut self, now: Cycle, net: &mut Network) {
            if now < self.count {
                net.offer_packet(
                    NodeId::new(0),
                    PacketInput {
                        dest: NodeId::new(8),
                        vnet: VirtualNetwork(0),
                        len: 1,
                        kind: PacketKind::Synthetic,
                        tag: now,
                    },
                );
            }
        }
        fn on_delivered(&mut self, p: &DeliveredPacket, now: Cycle, _net: &mut Network) {
            assert!(p.delivered_at <= now);
            self.delivered += 1;
        }
        fn is_finished(&self, _now: Cycle) -> bool {
            self.delivered >= self.count
        }
    }

    fn sim(count: u64) -> Simulation<Burst> {
        let net =
            Network::new(NetworkConfig::paper_3x3(), &FifoFactory::default(), 1).expect("valid");
        Simulation::new(
            net,
            Burst {
                count,
                delivered: 0,
            },
        )
    }

    #[test]
    fn run_advances_exactly_n_cycles() {
        let mut s = sim(3);
        s.run(25);
        assert_eq!(s.network.now(), 25);
        assert_eq!(s.traffic.delivered, 3);
    }

    #[test]
    fn run_until_finished_stops_at_the_target() {
        let mut s = sim(5);
        assert!(s.run_until_finished(10_000));
        assert_eq!(s.traffic.delivered, 5);
        assert!(s.network.now() < 100, "finishes promptly");
        // An unreachable target reports failure without hanging.
        let mut s = sim(u64::MAX);
        assert!(!s.run_until_finished(50));
    }

    #[test]
    fn drain_runs_until_empty() {
        let mut s = sim(4);
        s.run(4); // all offers made, flits in flight
        assert!(s.drain(1_000));
        assert!(s.network.is_drained());
        assert_eq!(s.traffic.delivered, 4);
    }
}
