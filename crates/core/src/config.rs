//! AFC router configuration: thresholds, EWMA parameters, lazy-VC layout.

use afc_netsim::config::{NetworkConfig, VnetClass};
use afc_netsim::error::ConfigError;
use afc_netsim::topology::RouterClass;
use afc_routers::deflection::RankPolicy;

/// Forward/reverse contention thresholds per router class.
///
/// Routers at mesh edges and corners have fewer ports, so their thresholds
/// are scaled down (paper Section III-B); values are the paper's
/// experimentally determined ones (Section IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassThresholds {
    /// (forward, reverse) thresholds for corner routers.
    pub corner: (f64, f64),
    /// (forward, reverse) thresholds for edge routers.
    pub edge: (f64, f64),
    /// (forward, reverse) thresholds for center routers.
    pub center: (f64, f64),
}

impl ClassThresholds {
    /// The paper's thresholds: corner 1.8/1.2, edge 2.1/1.3, center 2.2/1.7.
    pub fn paper() -> ClassThresholds {
        ClassThresholds {
            corner: (1.8, 1.2),
            edge: (2.1, 1.3),
            center: (2.2, 1.7),
        }
    }

    /// Thresholds for a given router class.
    pub fn for_class(&self, class: RouterClass) -> (f64, f64) {
        match class {
            RouterClass::Corner => self.corner,
            RouterClass::Edge => self.edge,
            RouterClass::Center => self.center,
        }
    }
}

impl Default for ClassThresholds {
    fn default() -> Self {
        ClassThresholds::paper()
    }
}

/// Complete AFC configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AfcConfig {
    /// Contention thresholds per router class.
    pub thresholds: ClassThresholds,
    /// EWMA weight on the old value (paper: 0.99).
    pub ewma_weight: f64,
    /// Length of the traffic-intensity averaging window (paper: 4 cycles).
    pub load_window: usize,
    /// Gossip threshold `X`: force a forward switch when a tracked
    /// neighbor's free slots in any virtual network fall to this value.
    /// `None` derives the safe default `2L + 2` from the link latency (see
    /// the crate-level timing note).
    pub gossip_threshold: Option<u64>,
    /// One-flit lazy VCs per control virtual network (paper: 8).
    pub control_vcs: usize,
    /// One-flit lazy VCs per data virtual network (paper: 16).
    pub data_vcs: usize,
    /// Minimum cycles to dwell in backpressured mode after a forward
    /// transition completes before a reverse switch may fire. Damps
    /// gossip/reverse ping-pong during drain transients; has no effect on
    /// correctness (staying backpressured longer is always safe).
    pub reverse_dwell: u64,
    /// Pin the router to backpressured mode forever — the paper's
    /// "AFC always-backpressured" ablation.
    pub always_backpressured: bool,
    /// Deflection ranking policy in backpressureless mode.
    pub rank_policy: RankPolicy,
}

impl AfcConfig {
    /// The paper's AFC parameters (Section IV).
    pub fn paper() -> AfcConfig {
        AfcConfig {
            thresholds: ClassThresholds::paper(),
            ewma_weight: 0.99,
            load_window: 4,
            gossip_threshold: None,
            control_vcs: 8,
            data_vcs: 16,
            reverse_dwell: 64,
            always_backpressured: false,
            rank_policy: RankPolicy::Random,
        }
    }

    /// The paper preset pinned to backpressured mode (isolates the
    /// lazy-VC-allocation mechanisms from adaptivity).
    pub fn paper_always_backpressured() -> AfcConfig {
        AfcConfig {
            always_backpressured: true,
            ..AfcConfig::paper()
        }
    }

    /// Lazy VCs (= one-flit buffer slots) for a vnet of the given class.
    pub fn lazy_vcs(&self, class: VnetClass) -> usize {
        match class {
            VnetClass::Control => self.control_vcs,
            VnetClass::Data => self.data_vcs,
        }
    }

    /// Buffer slots per input port under the lazy layout.
    pub fn buffer_flits_per_port(&self, net: &NetworkConfig) -> usize {
        net.vnets.iter().map(|v| self.lazy_vcs(v.class)).sum()
    }

    /// The effective gossip threshold for a given link latency.
    pub fn effective_gossip_threshold(&self, link_latency: u64) -> u64 {
        self.gossip_threshold
            .unwrap_or(2 * link_latency + afc_netsim::channel::Channel::ROUTER_OVERHEAD)
    }

    /// The mode-transition window length (cycles between initiating a
    /// forward switch and operating backpressured).
    pub fn transition_cycles(&self, link_latency: u64) -> u64 {
        2 * link_latency + afc_netsim::channel::Channel::ROUTER_OVERHEAD
    }

    /// Validates this configuration against a network configuration.
    ///
    /// # Errors
    ///
    /// * [`ConfigError::OutOfRange`] for a bad EWMA weight, window length,
    ///   VC count (none, or more than 64 per port over all vnets: the
    ///   router keeps a port's occupancy in one 64-bit word) or threshold
    ///   ordering;
    /// * [`ConfigError::BufferTooSmallForGossip`] when a vnet's lazy
    ///   buffering cannot absorb a full transition window of in-flight
    ///   flits.
    pub fn validate(&self, net: &NetworkConfig) -> Result<(), ConfigError> {
        if !(0.0..1.0).contains(&self.ewma_weight) {
            return Err(ConfigError::OutOfRange {
                what: "ewma_weight",
                range: "[0.0, 1.0)",
            });
        }
        if self.load_window == 0 {
            return Err(ConfigError::OutOfRange {
                what: "load_window",
                range: ">= 1",
            });
        }
        if self.control_vcs == 0 || self.data_vcs == 0 {
            return Err(ConfigError::OutOfRange {
                what: "lazy VC count",
                range: ">= 1",
            });
        }
        for class in [RouterClass::Corner, RouterClass::Edge, RouterClass::Center] {
            let (hi, lo) = self.thresholds.for_class(class);
            if !(hi > lo && lo > 0.0) {
                return Err(ConfigError::OutOfRange {
                    what: "contention thresholds",
                    range: "forward > reverse > 0",
                });
            }
        }
        let x = self.effective_gossip_threshold(net.link_latency) as usize;
        for (i, v) in net.vnets.iter().enumerate() {
            let capacity = self.lazy_vcs(v.class);
            if capacity < x {
                return Err(ConfigError::BufferTooSmallForGossip {
                    vnet: i,
                    capacity,
                    required: x,
                });
            }
        }
        if self.buffer_flits_per_port(net) > 64 {
            return Err(ConfigError::OutOfRange {
                what: "lazy VCs per port, all vnets",
                range: "<= 64",
            });
        }
        Ok(())
    }
}

impl Default for AfcConfig {
    fn default() -> Self {
        AfcConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_iv() {
        let cfg = AfcConfig::paper();
        assert_eq!(cfg.thresholds.for_class(RouterClass::Corner), (1.8, 1.2));
        assert_eq!(cfg.thresholds.for_class(RouterClass::Edge), (2.1, 1.3));
        assert_eq!(cfg.thresholds.for_class(RouterClass::Center), (2.2, 1.7));
        assert_eq!(cfg.ewma_weight, 0.99);
        assert_eq!(cfg.load_window, 4);
        assert_eq!(cfg.control_vcs, 8);
        assert_eq!(cfg.data_vcs, 16);
        // 2 control vnets * 8 + 1 data vnet * 16 = 32 flits per port — half
        // the baseline's 64.
        let net = NetworkConfig::paper_3x3();
        assert_eq!(cfg.buffer_flits_per_port(&net), 32);
        cfg.validate(&net).expect("paper preset valid");
    }

    #[test]
    fn gossip_threshold_default_tracks_link_latency() {
        let cfg = AfcConfig::paper();
        assert_eq!(cfg.effective_gossip_threshold(2), 6); // 2L + 2
        assert_eq!(cfg.effective_gossip_threshold(1), 4);
        let pinned = AfcConfig {
            gossip_threshold: Some(9),
            ..AfcConfig::paper()
        };
        assert_eq!(pinned.effective_gossip_threshold(2), 9);
    }

    #[test]
    fn validation_rejects_small_buffers() {
        let net = NetworkConfig::paper_3x3(); // L = 2 => X = 6
        let cfg = AfcConfig {
            control_vcs: 4,
            ..AfcConfig::paper()
        };
        assert!(matches!(
            cfg.validate(&net),
            Err(ConfigError::BufferTooSmallForGossip {
                vnet: 0,
                capacity: 4,
                required: 6,
            })
        ));
    }

    #[test]
    fn validation_rejects_bad_params() {
        let net = NetworkConfig::paper_3x3();
        let bad_weight = AfcConfig {
            ewma_weight: 1.0,
            ..AfcConfig::paper()
        };
        assert!(bad_weight.validate(&net).is_err());
        let bad_window = AfcConfig {
            load_window: 0,
            ..AfcConfig::paper()
        };
        assert!(bad_window.validate(&net).is_err());
        let inverted = AfcConfig {
            thresholds: ClassThresholds {
                corner: (1.0, 2.0),
                ..ClassThresholds::paper()
            },
            ..AfcConfig::paper()
        };
        assert!(inverted.validate(&net).is_err());
    }

    #[test]
    fn always_backpressured_preset() {
        let cfg = AfcConfig::paper_always_backpressured();
        assert!(cfg.always_backpressured);
        assert_eq!(cfg.control_vcs, AfcConfig::paper().control_vcs);
    }
}
