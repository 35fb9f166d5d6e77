//! Network-wide configuration shared by every router implementation.

use crate::error::ConfigError;
use crate::faults::FaultPlan;
pub use crate::parallel::MAX_SIM_THREADS;
use crate::topology::Mesh;

/// Message class carried by a virtual network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VnetClass {
    /// Short control messages (coherence requests/acknowledgements).
    Control,
    /// Multi-flit data messages (cache blocks).
    Data,
}

/// Per-virtual-network buffering configuration of a router input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VnetConfig {
    /// Message class.
    pub class: VnetClass,
    /// Virtual channels per input port in this vnet.
    pub vcs: usize,
    /// Buffer depth (flits) of each VC.
    pub buffer_depth: usize,
}

impl VnetConfig {
    /// Total flit slots this vnet contributes per input port.
    pub fn flit_slots(&self) -> usize {
        self.vcs * self.buffer_depth
    }
}

/// Complete static configuration of a simulated network.
///
/// The same configuration drives all router implementations; routers that do
/// not use buffers (the backpressureless baseline) ignore the buffering
/// fields, and the AFC router reinterprets them through its lazy-VC layout
/// (see `afc-core`).
///
/// # Examples
///
/// ```
/// use afc_netsim::config::NetworkConfig;
/// let cfg = NetworkConfig::paper_3x3();
/// assert_eq!(cfg.vnets.len(), 3);
/// assert_eq!(cfg.buffer_flits_per_port(), 64); // 2*2*8 + 4*8 (Table II)
/// cfg.validate().expect("paper preset is valid");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Mesh width (columns).
    pub width: u16,
    /// Mesh height (rows).
    pub height: u16,
    /// Link latency `L` in cycles.
    pub link_latency: u64,
    /// Virtual networks, in index order.
    pub vnets: Vec<VnetConfig>,
    /// Flits the local ejection port can deliver per cycle.
    pub eject_bandwidth: usize,
    /// Watchdog: a flit older than this many cycles in the network aborts the
    /// simulation (livelock/starvation detector). `0` disables the check.
    pub max_flit_age: u64,
    /// Deadlock/livelock watchdog: if no flit makes progress (injection,
    /// delivery, or retransmission) for this many consecutive cycles while
    /// flits are still in flight, the step fails with
    /// [`SimError::Stalled`](crate::error::SimError). `0` disables the check.
    pub stall_watchdog: u64,
    /// Fault-injection schedule. [`FaultPlan::none`] (the default presets'
    /// value) injects nothing.
    pub faults: FaultPlan,
    /// End-to-end recovery: when set, network interfaces track outstanding
    /// packets and retransmit those not acknowledged before the timeout.
    pub retransmit: Option<RetransmitConfig>,
    /// Worker threads for the intra-run parallel cycle engine (DESIGN.md
    /// §12). `1` (the presets' value) steps serially; any value produces
    /// byte-identical results, so this is purely a wall-clock knob. At most
    /// [`MAX_SIM_THREADS`].
    pub sim_threads: usize,
}

/// NI-level end-to-end retransmission parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Base cycles to wait after a packet finishes injecting before
    /// retransmitting it (doubled per attempt, capped by `backoff_cap`).
    pub timeout: u64,
    /// Maximum number of doublings applied to `timeout` (capped exponential
    /// backoff).
    pub backoff_cap: u32,
    /// Retransmission attempts after which the NI gives up on a packet and
    /// records a structured per-packet `Unreachable` outcome instead of
    /// retrying forever into (say) a permanently killed link. `0` means
    /// unlimited — the pre-fault-tolerance behavior.
    pub max_attempts: u32,
}

impl Default for RetransmitConfig {
    /// A timeout comfortably above one mesh traversal on the paper meshes,
    /// with backoff capped at 16x the base timeout and unlimited attempts.
    fn default() -> Self {
        RetransmitConfig {
            timeout: 600,
            backoff_cap: 4,
            max_attempts: 0,
        }
    }
}

impl RetransmitConfig {
    /// A bounded-recovery preset for fault experiments: default timing, but
    /// give up (and record `Unreachable`) after `attempts` retransmissions.
    pub fn bounded(attempts: u32) -> RetransmitConfig {
        RetransmitConfig {
            max_attempts: attempts,
            ..RetransmitConfig::default()
        }
    }

    /// How long a partial reassembly buffer may go without a new flit
    /// before the destination NI discards it (counted as
    /// `reassemblies_expired`).
    ///
    /// Four maximally backed-off retransmit periods: longer than any quiet
    /// gap a still-retrying source can produce, so an *active* packet is
    /// never purged — only one whose source has given up (bounded
    /// retransmit) or whose remaining flits a permanent fault keeps
    /// eating. Deterministic: derived purely from the config.
    pub fn reassembly_ttl(&self) -> u64 {
        (self.timeout << self.backoff_cap.min(63)).saturating_mul(4)
    }
}

impl NetworkConfig {
    /// The paper's simulated machine (Table II): 3x3 mesh, 2-cycle links,
    /// two control vnets with 2 VCs each and one data vnet with 4 VCs, all
    /// 8 flits deep (2*2*8 + 4*8 = 64 flits per port).
    pub fn paper_3x3() -> NetworkConfig {
        NetworkConfig {
            width: 3,
            height: 3,
            link_latency: 2,
            vnets: vec![
                VnetConfig {
                    class: VnetClass::Control,
                    vcs: 2,
                    buffer_depth: 8,
                },
                VnetConfig {
                    class: VnetClass::Control,
                    vcs: 2,
                    buffer_depth: 8,
                },
                VnetConfig {
                    class: VnetClass::Data,
                    vcs: 4,
                    buffer_depth: 8,
                },
            ],
            eject_bandwidth: 1,
            max_flit_age: 200_000,
            stall_watchdog: 100_000,
            faults: FaultPlan::none(),
            retransmit: None,
            sim_threads: 1,
        }
    }

    /// The 8x8 consolidation-workload mesh of the paper's Section V-B
    /// open-loop spatial-variation experiment (same per-port buffering as
    /// [`NetworkConfig::paper_3x3`]).
    pub fn paper_8x8() -> NetworkConfig {
        NetworkConfig {
            width: 8,
            height: 8,
            ..NetworkConfig::paper_3x3()
        }
    }

    /// Builds the [`Mesh`] described by this configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyMesh`] for zero dimensions.
    pub fn mesh(&self) -> Result<Mesh, ConfigError> {
        Mesh::new(self.width, self.height)
    }

    /// Number of virtual networks.
    pub fn vnet_count(&self) -> usize {
        self.vnets.len()
    }

    /// Total VCs per input port across all vnets.
    pub fn total_vcs_per_port(&self) -> usize {
        self.vnets.iter().map(|v| v.vcs).sum()
    }

    /// Total buffer flit slots per input port across all vnets.
    pub fn buffer_flits_per_port(&self) -> usize {
        self.vnets.iter().map(|v| v.flit_slots()).sum()
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: nonzero mesh, at least one
    /// vnet, nonzero VCs/depths, at most 65 535 buffer flits per port (the
    /// buffered routers count a port's flits in 16 bits), nonzero link
    /// latency, nonzero ejection bandwidth.
    pub fn validate(&self) -> Result<(), ConfigError> {
        Mesh::new(self.width, self.height)?;
        if (self.width as u32) * (self.height as u32) < 2 {
            // A 1x1 mesh has no links: every experiment degenerates and the
            // routing invariants the engine audits are vacuous. Degenerate
            // 1xN meshes stay legal (the tier-1 suite exercises them).
            return Err(ConfigError::OutOfRange {
                what: "mesh size",
                range: ">= 2 nodes",
            });
        }
        if self.vnets.is_empty() {
            return Err(ConfigError::NoVnets);
        }
        for (i, v) in self.vnets.iter().enumerate() {
            if v.vcs == 0 {
                return Err(ConfigError::ZeroVcs { vnet: i });
            }
            if v.buffer_depth == 0 {
                return Err(ConfigError::ZeroBufferDepth { vnet: i });
            }
        }
        let flits = (self.vnets.iter()).fold(0usize, |n, v| {
            n.saturating_add(v.vcs.saturating_mul(v.buffer_depth))
        });
        if flits > u16::MAX as usize {
            return Err(ConfigError::OutOfRange {
                what: "buffer flits per port",
                range: "<= 65535",
            });
        }
        if self.link_latency == 0 {
            return Err(ConfigError::ZeroLinkLatency);
        }
        if self.eject_bandwidth == 0 {
            return Err(ConfigError::OutOfRange {
                what: "eject_bandwidth",
                range: ">= 1",
            });
        }
        if !(1..=MAX_SIM_THREADS).contains(&self.sim_threads) {
            return Err(ConfigError::OutOfRange {
                what: "sim_threads",
                range: "1..=64",
            });
        }
        self.faults.validate(self.width, self.height)?;
        if let Some(r) = &self.retransmit {
            if r.timeout == 0 {
                return Err(ConfigError::OutOfRange {
                    what: "retransmit timeout",
                    range: ">= 1",
                });
            }
        }
        Ok(())
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::paper_3x3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_table_ii() {
        let cfg = NetworkConfig::paper_3x3();
        assert_eq!(cfg.width, 3);
        assert_eq!(cfg.height, 3);
        assert_eq!(cfg.link_latency, 2);
        assert_eq!(cfg.total_vcs_per_port(), 8); // 2+2+4
        assert_eq!(cfg.buffer_flits_per_port(), 64);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = NetworkConfig::paper_3x3();
        cfg.vnets.clear();
        assert_eq!(cfg.validate(), Err(ConfigError::NoVnets));

        let mut cfg = NetworkConfig::paper_3x3();
        cfg.vnets[1].vcs = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroVcs { vnet: 1 }));

        let mut cfg = NetworkConfig::paper_3x3();
        cfg.vnets[2].buffer_depth = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroBufferDepth { vnet: 2 })
        );

        // A port's buffer flits fit 16 bits, summed over every vnet.
        let mut cfg = NetworkConfig::paper_3x3();
        let others = cfg.buffer_flits_per_port() - cfg.vnets[0].flit_slots();
        cfg.vnets[0].buffer_depth = (u16::MAX as usize - others) / cfg.vnets[0].vcs;
        assert!(cfg.validate().is_ok());
        cfg.vnets[0].buffer_depth += 1;
        assert!(cfg.buffer_flits_per_port() > u16::MAX as usize);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { .. })
        ));
        cfg.vnets[0].buffer_depth = usize::MAX;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { .. })
        ));

        let mut cfg = NetworkConfig::paper_3x3();
        cfg.link_latency = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroLinkLatency));

        let mut cfg = NetworkConfig::paper_3x3();
        cfg.eject_bandwidth = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { .. })
        ));

        // A 1x1 mesh (no links) is rejected; degenerate 1xN meshes are not.
        let mut cfg = NetworkConfig::paper_3x3();
        (cfg.width, cfg.height) = (1, 1);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::OutOfRange { .. })
        ));
        (cfg.width, cfg.height) = (1, 4);
        assert!(cfg.validate().is_ok());

        // The thread budget is bounded on both sides.
        for (threads, ok) in [(0, false), (1, true), (MAX_SIM_THREADS, true)]
            .into_iter()
            .chain([(MAX_SIM_THREADS + 1, false), (100_000, false)])
        {
            let cfg = NetworkConfig {
                sim_threads: threads,
                ..NetworkConfig::paper_3x3()
            };
            let want = Err(ConfigError::OutOfRange {
                what: "sim_threads",
                range: "1..=64",
            });
            assert_eq!(cfg.validate(), if ok { Ok(()) } else { want }, "{threads}");
        }
        assert_eq!(MAX_SIM_THREADS, 64, "the range text names the ceiling");
    }

    #[test]
    fn eight_by_eight_preset() {
        let cfg = NetworkConfig::paper_8x8();
        assert_eq!((cfg.width, cfg.height), (8, 8));
        assert_eq!(cfg.buffer_flits_per_port(), 64);
    }
}
