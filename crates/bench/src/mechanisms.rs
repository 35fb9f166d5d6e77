//! The flow-control mechanisms under comparison.

use afc_core::AfcFactory;
use afc_energy::{BufferAccounting, EnergyBreakdown, EnergyModel};
use afc_netsim::network::Network;
use afc_netsim::router::RouterFactory;
use afc_routers::{BackpressuredFactory, DeflectionFactory, DropFactory};

/// A named mechanism: a router factory boxed for table-driven experiments.
pub struct Mechanism {
    /// Display label used in reports (matches the paper's figure legends).
    pub label: &'static str,
    /// The factory.
    pub factory: Box<dyn RouterFactory>,
    /// Which standard mechanism this is, if any — what lets a sweep plan
    /// simulate one network for several mechanisms
    /// ([`MechanismId::simulated_as`]). A custom variant has none and is
    /// always simulated on its own.
    pub id: Option<MechanismId>,
}

impl Mechanism {
    /// Creates a mechanism from a label and factory (for custom ablation
    /// variants; the standard set lives in [`MechanismId`]).
    pub fn new(label: &'static str, factory: Box<dyn RouterFactory>) -> Mechanism {
        Mechanism {
            label,
            factory,
            id: None,
        }
    }

    /// How this mechanism's buffer reads are charged.
    pub fn accounting(&self) -> BufferAccounting {
        self.id
            .map_or_else(BufferAccounting::default, MechanismId::accounting)
    }

    /// Prices a run of this mechanism: `net` is a network built by its own
    /// factory or by its [`MechanismId::simulated_as`] representative's.
    /// The one way to price a [`Mechanism`] — `EnergyModel::price_network`
    /// on the factory's network would price ideal bypass as the baseline.
    pub fn price(&self, model: &EnergyModel, net: &Network) -> EnergyBreakdown {
        model.price_network_as(net, self.accounting())
    }
}

/// The standard mechanisms, nameable without a factory in hand — sweep
/// specs ([`crate::sweep::SweepSpec`]) are plain data, so each worker
/// builds its own factory from the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismId {
    /// Credit-based virtual-channel router (the paper's baseline).
    Backpressured,
    /// Deflection (BLESS/Chaos-style) router.
    Backpressureless,
    /// AFC pinned to backpressured mode.
    AfcAlwaysBp,
    /// The adaptive AFC router.
    Afc,
    /// Backpressured with real read bypass.
    BpReadBypass,
    /// Backpressured with the ideal bypass bound.
    BpIdealBypass,
    /// Drop-based (SCARAB-style) backpressureless router.
    Drop,
}

impl MechanismId {
    /// All standard mechanisms, in [`all_mechanisms`] order.
    pub const ALL: [MechanismId; 7] = [
        MechanismId::Backpressured,
        MechanismId::Backpressureless,
        MechanismId::AfcAlwaysBp,
        MechanismId::Afc,
        MechanismId::BpReadBypass,
        MechanismId::BpIdealBypass,
        MechanismId::Drop,
    ];

    /// The four bars of Figure 2, in paper order.
    pub(crate) const FIG2: [MechanismId; 4] = [
        MechanismId::Backpressured,
        MechanismId::Backpressureless,
        MechanismId::AfcAlwaysBp,
        MechanismId::Afc,
    ];

    /// Display label (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            MechanismId::Backpressured => "backpressured",
            MechanismId::Backpressureless => "backpressureless",
            MechanismId::AfcAlwaysBp => "afc-always-bp",
            MechanismId::Afc => "afc",
            MechanismId::BpReadBypass => "bp-read-bypass",
            MechanismId::BpIdealBypass => "bp-ideal-bypass",
            MechanismId::Drop => "drop",
        }
    }

    /// The mechanism whose network a sweep simulates on this one's behalf.
    /// The three backpressured bars of Figure 2(b) are accountings of one
    /// network (timing does not depend on `read_bypass`; pinned by
    /// `crates/routers/tests/bypass_lockstep.rs`), and the read-bypass
    /// router records the superset of what all three price, so it stands
    /// for the class; every other mechanism stands for itself.
    pub fn simulated_as(self) -> MechanismId {
        match self {
            MechanismId::Backpressured | MechanismId::BpReadBypass | MechanismId::BpIdealBypass => {
                MechanismId::BpReadBypass
            }
            own => own,
        }
    }

    /// How this mechanism's buffer reads are charged, whichever member of
    /// its [`MechanismId::simulated_as`] class recorded them.
    pub fn accounting(self) -> BufferAccounting {
        match self {
            MechanismId::Backpressured => BufferAccounting::Sram,
            MechanismId::BpIdealBypass => BufferAccounting::IdealBypass,
            // Read bypass proper, and the mechanisms without the option.
            _ => BufferAccounting::ReadBypass,
        }
    }

    /// Builds the labeled mechanism. The factory builds this mechanism's
    /// own network — for ideal bypass the plain backpressured one, which
    /// differs from the baseline only in [`MechanismId::accounting`].
    pub fn mechanism(self) -> Mechanism {
        let factory: Box<dyn RouterFactory> = match self {
            MechanismId::Backpressured | MechanismId::BpIdealBypass => {
                Box::new(BackpressuredFactory::new())
            }
            MechanismId::Backpressureless => Box::new(DeflectionFactory::new()),
            MechanismId::AfcAlwaysBp => Box::new(AfcFactory::always_backpressured()),
            MechanismId::Afc => Box::new(AfcFactory::paper()),
            MechanismId::BpReadBypass => Box::new(BackpressuredFactory::read_bypass()),
            MechanismId::Drop => Box::new(DropFactory::new()),
        };
        Mechanism {
            label: self.label(),
            factory,
            id: Some(self),
        }
    }
}

impl std::fmt::Debug for Mechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mechanism")
            .field("label", &self.label)
            .finish()
    }
}

/// The four bars of Figure 2, in paper order: Backpressured,
/// Backpressureless, AFC always-backpressured, AFC.
pub fn fig2_mechanisms() -> Vec<Mechanism> {
    MechanismId::FIG2.iter().map(|id| id.mechanism()).collect()
}

/// Figure 2 mechanisms plus the buffer-energy-optimization baselines
/// (real read bypass and the ideal bound) and the drop router.
pub fn all_mechanisms() -> Vec<Mechanism> {
    MechanismId::ALL.iter().map(|id| id.mechanism()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_order_matches_paper() {
        let labels: Vec<&str> = fig2_mechanisms().iter().map(|m| m.label).collect();
        assert_eq!(
            labels,
            vec!["backpressured", "backpressureless", "afc-always-bp", "afc"]
        );
    }

    #[test]
    fn all_mechanisms_are_distinct() {
        let mut keys: Vec<(&str, BufferAccounting)> = all_mechanisms()
            .iter()
            .map(|m| (m.factory.name(), m.accounting()))
            .collect();
        keys.sort_by_key(|&(name, buffers)| (name, buffers as u8));
        keys.dedup();
        assert_eq!(keys.len(), 7, "network x accounting must tell all 7 apart");
    }

    #[test]
    fn seven_mechanisms_simulate_five_networks() {
        let mut simulated: Vec<&str> = MechanismId::ALL
            .iter()
            .map(|id| id.simulated_as().label())
            .collect();
        simulated.sort_unstable();
        simulated.dedup();
        assert_eq!(simulated.len(), 5);
        for id in MechanismId::ALL {
            // A representative stands for itself, as recorded.
            let rep = id.simulated_as();
            assert_eq!(rep.simulated_as(), rep);
            assert_eq!(rep.accounting(), BufferAccounting::default());
        }
    }
}
