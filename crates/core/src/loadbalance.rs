//! Dynamic load-balancing extension (the paper's future work, §IV).
//!
//! "Device mobility introduces unprecedented demand variability and leads to
//! research problems such as dynamic load-balancing." Aggregators have a
//! hard capacity (their TDMA slot count) and a soft electrical limit; when
//! mobile devices cluster at one grid-location, newcomers are rejected with
//! `NoFreeSlots`. This module provides a planner that, given the current
//! occupancy and demand of every network, proposes which *mobile* devices to
//! steer to which network so that slot utilisation is evened out.

use rtem_net::packet::{AggregatorAddr, DeviceId};
use std::collections::BTreeMap;

/// The load state of one network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLoad {
    /// The network's aggregator.
    pub network: AggregatorAddr,
    /// Total reporting slots.
    pub slot_capacity: u16,
    /// Devices currently registered.
    pub registered: Vec<DeviceId>,
    /// Of the registered devices, those that are mobile (relocatable).
    pub mobile: Vec<DeviceId>,
    /// Mean electrical demand of the network in mA (informational).
    pub demand_ma: f64,
}

impl NetworkLoad {
    /// Slot utilisation in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        if self.slot_capacity == 0 {
            1.0
        } else {
            self.registered.len() as f64 / f64::from(self.slot_capacity)
        }
    }
}

/// One proposed device relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Relocation {
    /// Device to steer.
    pub device: DeviceId,
    /// Network it currently occupies.
    pub from: AggregatorAddr,
    /// Network it should move to.
    pub to: AggregatorAddr,
}

/// A load-balancing plan.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancePlan {
    /// Proposed relocations, in application order.
    pub relocations: Vec<Relocation>,
    /// Peak slot utilisation before applying the plan.
    pub peak_utilisation_before: f64,
    /// Peak slot utilisation after applying the plan.
    pub peak_utilisation_after: f64,
}

impl BalancePlan {
    /// Whether the plan improves the peak utilisation.
    pub fn improves(&self) -> bool {
        self.peak_utilisation_after < self.peak_utilisation_before - 1e-9
    }
}

/// Greedy balancer: repeatedly move a mobile device from the most loaded
/// network to the least loaded one while doing so reduces the spread.
///
/// Only mobile devices are candidates — stationary devices cannot change
/// grid-location. The balancer never overfills the destination.
pub fn plan_balance(loads: &[NetworkLoad]) -> BalancePlan {
    let mut occupancy: BTreeMap<AggregatorAddr, usize> = loads
        .iter()
        .map(|l| (l.network, l.registered.len()))
        .collect();
    let capacity: BTreeMap<AggregatorAddr, u16> =
        loads.iter().map(|l| (l.network, l.slot_capacity)).collect();
    let mut movable: BTreeMap<AggregatorAddr, Vec<DeviceId>> = loads
        .iter()
        .map(|l| (l.network, l.mobile.clone()))
        .collect();

    let utilisation = |occ: &BTreeMap<AggregatorAddr, usize>, addr: AggregatorAddr| -> f64 {
        let cap = f64::from(capacity[&addr]).max(1.0);
        occ[&addr] as f64 / cap
    };
    let peak = |occ: &BTreeMap<AggregatorAddr, usize>| -> f64 {
        occ.keys().map(|&a| utilisation(occ, a)).fold(0.0, f64::max)
    };

    let before = peak(&occupancy);
    let mut relocations = Vec::new();

    if loads.len() >= 2 {
        loop {
            let most = occupancy
                .keys()
                .copied()
                .max_by(|&a, &b| {
                    utilisation(&occupancy, a)
                        .partial_cmp(&utilisation(&occupancy, b))
                        .unwrap_or(core::cmp::Ordering::Equal)
                })
                .expect("non-empty");
            let least = occupancy
                .keys()
                .copied()
                .min_by(|&a, &b| {
                    utilisation(&occupancy, a)
                        .partial_cmp(&utilisation(&occupancy, b))
                        .unwrap_or(core::cmp::Ordering::Equal)
                })
                .expect("non-empty");
            if most == least {
                break;
            }
            let gain = utilisation(&occupancy, most) - utilisation(&occupancy, least);
            // Moving one device changes each side by 1/capacity; only move if
            // the spread genuinely shrinks and the destination has room.
            let step = 1.0 / f64::from(capacity[&most]).max(1.0)
                + 1.0 / f64::from(capacity[&least]).max(1.0);
            let destination_full = occupancy[&least] >= usize::from(capacity[&least]);
            let Some(device) = movable.get_mut(&most).and_then(|v| v.pop()) else {
                break;
            };
            if gain <= step || destination_full {
                break;
            }
            *occupancy.get_mut(&most).expect("known") -= 1;
            *occupancy.get_mut(&least).expect("known") += 1;
            movable.get_mut(&least).expect("known").push(device);
            relocations.push(Relocation {
                device,
                from: most,
                to: least,
            });
        }
    }

    BalancePlan {
        relocations,
        peak_utilisation_before: before,
        peak_utilisation_after: peak(&occupancy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(network: u32, capacity: u16, devices: u64, mobile: u64) -> NetworkLoad {
        let registered: Vec<DeviceId> = (0..devices)
            .map(|i| DeviceId(u64::from(network) * 1000 + i))
            .collect();
        let mobile: Vec<DeviceId> = registered.iter().copied().take(mobile as usize).collect();
        NetworkLoad {
            network: AggregatorAddr(network),
            slot_capacity: capacity,
            registered,
            mobile,
            demand_ma: devices as f64 * 150.0,
        }
    }

    #[test]
    fn utilisation_is_fraction_of_slots() {
        assert!((load(1, 10, 5, 0).utilisation() - 0.5).abs() < 1e-12);
        assert_eq!(
            NetworkLoad {
                slot_capacity: 0,
                ..load(1, 10, 5, 0)
            }
            .utilisation(),
            1.0
        );
    }

    #[test]
    fn imbalanced_networks_produce_relocations() {
        let loads = vec![load(1, 10, 9, 6), load(2, 10, 1, 1)];
        let plan = plan_balance(&loads);
        assert!(plan.improves());
        assert!(!plan.relocations.is_empty());
        assert!(plan.relocations.iter().all(|r| r.from == AggregatorAddr(1)));
        assert!(plan.relocations.iter().all(|r| r.to == AggregatorAddr(2)));
        assert!(plan.peak_utilisation_after < 0.9);
    }

    #[test]
    fn balanced_networks_need_no_moves() {
        let loads = vec![load(1, 10, 5, 5), load(2, 10, 5, 5)];
        let plan = plan_balance(&loads);
        assert!(plan.relocations.is_empty());
        assert!(!plan.improves());
    }

    #[test]
    fn stationary_devices_are_never_moved() {
        // Network 1 is overloaded but none of its devices are mobile.
        let loads = vec![load(1, 10, 9, 0), load(2, 10, 1, 1)];
        let plan = plan_balance(&loads);
        assert!(plan.relocations.is_empty());
    }

    #[test]
    fn destination_capacity_is_respected() {
        // Network 2 is tiny: even though network 1 is fuller, only one slot
        // is available.
        let loads = vec![load(1, 20, 18, 18), load(2, 2, 1, 1)];
        let plan = plan_balance(&loads);
        assert!(plan.relocations.len() <= 1);
    }

    #[test]
    fn single_network_is_a_no_op() {
        let plan = plan_balance(&[load(1, 10, 10, 10)]);
        assert!(plan.relocations.is_empty());
        assert_eq!(plan.peak_utilisation_before, plan.peak_utilisation_after);
    }
}
