//! The [`FaultPlan`]: a validated timeline of fault events.
//!
//! A plan mirrors how `ScenarioSpec` treats topology scripts: a plain list
//! of typed events, builder helpers per family, and up-front validation
//! against the scenario's device/network population and horizon so that an
//! impossible plan fails with a typed [`FaultPlanError`] before anything
//! runs.

use crate::event::{CorruptionMode, FaultEvent, LinkTarget};
use core::fmt;
use rtem_net::link::LinkConfig;
use rtem_net::packet::{AggregatorAddr, DeviceId};
use rtem_sensors::fault::SensorFaultKind;
use rtem_sim::time::SimTime;

/// Why a [`FaultPlan`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPlanError {
    /// An event targets a device the scenario does not generate.
    UnknownDevice {
        /// The offending device id.
        device: DeviceId,
    },
    /// An event targets a network the scenario does not generate.
    UnknownNetwork {
        /// The offending network address.
        network: AggregatorAddr,
    },
    /// An event clears at or before its own injection time.
    ClearsBeforeInjection {
        /// Injection time.
        at: SimTime,
        /// Declared clear time.
        until: SimTime,
    },
    /// An event is injected after the run horizon and would never fire.
    AfterHorizon {
        /// The scheduled injection time.
        at: SimTime,
    },
    /// A byzantine event declares zero colluding voters — nothing to inject.
    ZeroByzantineVoters,
    /// A telegram-corruption event can never damage anything: zero
    /// per-telegram probability, or a bit-flip mode flipping zero bits.
    IneffectiveCorruption,
    /// An outage names itself as its own failover target.
    FailoverIsTarget {
        /// The network failing over to itself.
        network: AggregatorAddr,
    },
    /// A degraded link configuration is invalid (loss outside `[0, 1]` or a
    /// zero bandwidth).
    InvalidDegradedLink,
    /// Two link bursts on the same medium overlap in time. Each burst saves
    /// the pre-burst configuration and restores it when it ends, so an
    /// overlapping pair would capture (and later reinstate) the other's
    /// degraded quality; sequence bursts instead.
    OverlappingLinkBursts {
        /// Start of the earlier burst.
        first_at: SimTime,
        /// Start of the later, overlapping burst.
        second_at: SimTime,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::UnknownDevice { device } => {
                write!(f, "fault plan refers to unknown device {device:?}")
            }
            FaultPlanError::UnknownNetwork { network } => {
                write!(f, "fault plan refers to unknown network {network:?}")
            }
            FaultPlanError::ClearsBeforeInjection { at, until } => {
                write!(
                    f,
                    "fault clears at {until:?}, not after injection at {at:?}"
                )
            }
            FaultPlanError::AfterHorizon { at } => {
                write!(f, "fault injection at {at:?} is after the horizon")
            }
            FaultPlanError::ZeroByzantineVoters => {
                write!(f, "byzantine fault declares zero colluding voters")
            }
            FaultPlanError::IneffectiveCorruption => {
                write!(
                    f,
                    "telegram corruption declares zero probability or zero bit flips"
                )
            }
            FaultPlanError::FailoverIsTarget { network } => {
                write!(f, "outage of {network:?} fails over to itself")
            }
            FaultPlanError::InvalidDegradedLink => {
                write!(f, "degraded link config is invalid")
            }
            FaultPlanError::OverlappingLinkBursts {
                first_at,
                second_at,
            } => {
                write!(
                    f,
                    "link bursts starting at {first_at:?} and {second_at:?} overlap on the \
                     same medium"
                )
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A declarative timeline of fault injections.
///
/// ```
/// use rtem_faults::plan::FaultPlan;
/// use rtem_net::packet::{AggregatorAddr, DeviceId};
/// use rtem_sensors::fault::SensorFaultKind;
/// use rtem_sim::time::SimTime;
///
/// let plan = FaultPlan::new()
///     .sensor_stuck_at(SimTime::from_secs(20), DeviceId(1), 10.0)
///     .tamper_at(SimTime::from_secs(30), AggregatorAddr(1));
/// assert_eq!(plan.len(), 2);
/// let devices = [DeviceId(1)];
/// let networks = [AggregatorAddr(1)];
/// assert!(plan
///     .validate(&devices, &networks, SimTime::from_secs(100))
///     .is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled events, in the order they were added.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an arbitrary event.
    pub fn with(mut self, event: FaultEvent) -> FaultPlan {
        self.events.push(event);
        self
    }

    /// Appends a permanent stuck-at sensor fault.
    pub fn sensor_stuck_at(self, at: SimTime, device: DeviceId, level_ma: f64) -> FaultPlan {
        self.with(FaultEvent::SensorFault {
            at,
            until: None,
            device,
            kind: SensorFaultKind::StuckAt { level_ma },
        })
    }

    /// Appends a transient sensor fault of an arbitrary shape.
    pub fn sensor_fault_between(
        self,
        at: SimTime,
        until: SimTime,
        device: DeviceId,
        kind: SensorFaultKind,
    ) -> FaultPlan {
        self.with(FaultEvent::SensorFault {
            at,
            until: Some(until),
            device,
            kind,
        })
    }

    /// Appends a storage-tampering attack on `network`'s ledger.
    pub fn tamper_at(self, at: SimTime, network: AggregatorAddr) -> FaultPlan {
        self.with(FaultEvent::MeterTamper { at, network })
    }

    /// Appends a link-degradation burst.
    pub fn link_burst(
        self,
        at: SimTime,
        until: SimTime,
        target: LinkTarget,
        degraded: LinkConfig,
    ) -> FaultPlan {
        self.with(FaultEvent::LinkDegrade {
            at,
            until,
            target,
            degraded,
        })
    }

    /// Appends a device crash with a scheduled reboot.
    pub fn crash_between(self, at: SimTime, restart_at: SimTime, device: DeviceId) -> FaultPlan {
        self.with(FaultEvent::DeviceCrash {
            at,
            restart_at,
            device,
        })
    }

    /// Appends an aggregator outage, optionally with failover.
    pub fn outage_between(
        self,
        at: SimTime,
        until: SimTime,
        network: AggregatorAddr,
        failover: Option<AggregatorAddr>,
    ) -> FaultPlan {
        self.with(FaultEvent::AggregatorOutage {
            at,
            until,
            network,
            failover,
        })
    }

    /// Appends a byzantine-voter collusion window.
    pub fn byzantine_between(
        self,
        at: SimTime,
        until: SimTime,
        network: AggregatorAddr,
        voters: u32,
    ) -> FaultPlan {
        self.with(FaultEvent::ByzantineVoters {
            at,
            until,
            network,
            voters,
        })
    }

    /// Appends a telegram-corruption window on `device`'s uplink. Every
    /// consumption telegram the device transmits in the window is damaged
    /// per `mode` with probability `per_mille`/1000.
    pub fn telegram_corruption_between(
        self,
        at: SimTime,
        until: SimTime,
        device: DeviceId,
        mode: CorruptionMode,
        per_mille: u16,
    ) -> FaultPlan {
        self.with(FaultEvent::TelegramCorruption {
            at,
            until,
            device,
            mode,
            per_mille,
        })
    }

    /// Checks every event against the scenario population and horizon,
    /// returning the first inconsistency found.
    ///
    /// `devices` and `networks` must be sorted ascending, as
    /// `ScenarioSpec::device_ids` and `network_addrs` return them: each
    /// membership check is a binary search.
    pub fn validate(
        &self,
        devices: &[DeviceId],
        networks: &[AggregatorAddr],
        horizon: SimTime,
    ) -> Result<(), FaultPlanError> {
        debug_assert!(devices.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(networks.windows(2).all(|w| w[0] < w[1]));
        for event in &self.events {
            if let Some(device) = event.device() {
                if devices.binary_search(&device).is_err() {
                    return Err(FaultPlanError::UnknownDevice { device });
                }
            }
            if let Some(network) = event.network() {
                if networks.binary_search(&network).is_err() {
                    return Err(FaultPlanError::UnknownNetwork { network });
                }
            }
            // Events scheduled exactly at the horizon still execute (same
            // rule as topology scripts), so only strictly-later ones are
            // unreachable.
            if event.at() > horizon {
                return Err(FaultPlanError::AfterHorizon { at: event.at() });
            }
            if let Some(until) = event.clears_at() {
                if until <= event.at() {
                    return Err(FaultPlanError::ClearsBeforeInjection {
                        at: event.at(),
                        until,
                    });
                }
            }
            match *event {
                FaultEvent::ByzantineVoters { voters: 0, .. } => {
                    return Err(FaultPlanError::ZeroByzantineVoters);
                }
                FaultEvent::TelegramCorruption {
                    per_mille, mode, ..
                } if per_mille == 0 || mode == CorruptionMode::BitFlip { flips: 0 } => {
                    return Err(FaultPlanError::IneffectiveCorruption);
                }
                FaultEvent::AggregatorOutage {
                    network,
                    failover: Some(backup),
                    ..
                } if backup == network => {
                    return Err(FaultPlanError::FailoverIsTarget { network });
                }
                FaultEvent::AggregatorOutage {
                    failover: Some(backup),
                    ..
                } if networks.binary_search(&backup).is_err() => {
                    return Err(FaultPlanError::UnknownNetwork { network: backup });
                }
                FaultEvent::LinkDegrade { degraded, .. } => {
                    let loss_ok = (0.0..=1.0).contains(&degraded.loss_probability);
                    let bw_ok = degraded.bandwidth_bps.map_or(true, |bw| bw > 0);
                    if !loss_ok || !bw_ok {
                        return Err(FaultPlanError::InvalidDegradedLink);
                    }
                }
                _ => {}
            }
        }
        // Link bursts on the same medium must not overlap: each burst saves
        // and later restores the pre-burst configuration, so an overlap
        // would capture the other burst's degraded quality as "original".
        // Wi-Fi and backhaul touch disjoint links and may overlap freely.
        let bursts: Vec<(SimTime, SimTime, bool)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::LinkDegrade {
                    at, until, target, ..
                } => Some((at, until, matches!(target, LinkTarget::Backhaul))),
                _ => None,
            })
            .collect();
        for (i, &(a_at, a_until, a_backhaul)) in bursts.iter().enumerate() {
            for &(b_at, b_until, b_backhaul) in &bursts[i + 1..] {
                if a_backhaul == b_backhaul && a_at < b_until && b_at < a_until {
                    let (first_at, second_at) = if a_at <= b_at {
                        (a_at, b_at)
                    } else {
                        (b_at, a_at)
                    };
                    return Err(FaultPlanError::OverlappingLinkBursts {
                        first_at,
                        second_at,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::time::SimDuration;

    fn population() -> (Vec<DeviceId>, Vec<AggregatorAddr>) {
        (
            vec![DeviceId(1), DeviceId(2)],
            vec![AggregatorAddr(1), AggregatorAddr(2)],
        )
    }

    #[test]
    fn valid_plan_with_every_family_passes() {
        let (devices, networks) = population();
        let plan = FaultPlan::new()
            .sensor_stuck_at(SimTime::from_secs(10), DeviceId(1), 5.0)
            .tamper_at(SimTime::from_secs(20), AggregatorAddr(1))
            .link_burst(
                SimTime::from_secs(30),
                SimTime::from_secs(40),
                LinkTarget::Backhaul,
                LinkConfig::wifi(),
            )
            .crash_between(SimTime::from_secs(50), SimTime::from_secs(60), DeviceId(2))
            .outage_between(
                SimTime::from_secs(70),
                SimTime::from_secs(80),
                AggregatorAddr(1),
                Some(AggregatorAddr(2)),
            )
            .byzantine_between(
                SimTime::from_secs(85),
                SimTime::from_secs(95),
                AggregatorAddr(2),
                1,
            )
            .telegram_corruption_between(
                SimTime::from_secs(12),
                SimTime::from_secs(48),
                DeviceId(1),
                CorruptionMode::BitFlip { flips: 2 },
                800,
            );
        assert_eq!(plan.len(), 7);
        assert!(!plan.is_empty());
        assert_eq!(
            plan.validate(&devices, &networks, SimTime::from_secs(100)),
            Ok(())
        );
    }

    #[test]
    fn unknown_targets_are_rejected() {
        let (devices, networks) = population();
        let plan = FaultPlan::new().sensor_stuck_at(SimTime::from_secs(1), DeviceId(99), 5.0);
        assert_eq!(
            plan.validate(&devices, &networks, SimTime::from_secs(100)),
            Err(FaultPlanError::UnknownDevice {
                device: DeviceId(99)
            })
        );
        let plan = FaultPlan::new().tamper_at(SimTime::from_secs(1), AggregatorAddr(9));
        assert_eq!(
            plan.validate(&devices, &networks, SimTime::from_secs(100)),
            Err(FaultPlanError::UnknownNetwork {
                network: AggregatorAddr(9)
            })
        );
        // Failover targets are checked too.
        let plan = FaultPlan::new().outage_between(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            AggregatorAddr(1),
            Some(AggregatorAddr(7)),
        );
        assert_eq!(
            plan.validate(&devices, &networks, SimTime::from_secs(100)),
            Err(FaultPlanError::UnknownNetwork {
                network: AggregatorAddr(7)
            })
        );
    }

    #[test]
    fn timeline_inconsistencies_are_rejected() {
        let (devices, networks) = population();
        let horizon = SimTime::from_secs(100);
        let plan = FaultPlan::new().crash_between(
            SimTime::from_secs(10),
            SimTime::from_secs(10),
            DeviceId(1),
        );
        assert!(matches!(
            plan.validate(&devices, &networks, horizon),
            Err(FaultPlanError::ClearsBeforeInjection { .. })
        ));
        let plan = FaultPlan::new().tamper_at(SimTime::from_secs(500), AggregatorAddr(1));
        assert!(matches!(
            plan.validate(&devices, &networks, horizon),
            Err(FaultPlanError::AfterHorizon { .. })
        ));
        // Exactly at the horizon is still reachable.
        let plan = FaultPlan::new().tamper_at(horizon, AggregatorAddr(1));
        assert_eq!(plan.validate(&devices, &networks, horizon), Ok(()));
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let (devices, networks) = population();
        let horizon = SimTime::from_secs(100);
        let plan = FaultPlan::new().byzantine_between(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            AggregatorAddr(1),
            0,
        );
        assert_eq!(
            plan.validate(&devices, &networks, horizon),
            Err(FaultPlanError::ZeroByzantineVoters)
        );
        let plan = FaultPlan::new().outage_between(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            AggregatorAddr(1),
            Some(AggregatorAddr(1)),
        );
        assert_eq!(
            plan.validate(&devices, &networks, horizon),
            Err(FaultPlanError::FailoverIsTarget {
                network: AggregatorAddr(1)
            })
        );
        let plan = FaultPlan::new().telegram_corruption_between(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            DeviceId(1),
            CorruptionMode::Truncate,
            0,
        );
        assert_eq!(
            plan.validate(&devices, &networks, horizon),
            Err(FaultPlanError::IneffectiveCorruption)
        );
        let plan = FaultPlan::new().telegram_corruption_between(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            DeviceId(1),
            CorruptionMode::BitFlip { flips: 0 },
            1000,
        );
        assert_eq!(
            plan.validate(&devices, &networks, horizon),
            Err(FaultPlanError::IneffectiveCorruption)
        );
        let bad_link = LinkConfig {
            base_latency: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
            loss_probability: 1.5,
            bandwidth_bps: None,
        };
        let plan = FaultPlan::new().link_burst(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            LinkTarget::Wifi { network: None },
            bad_link,
        );
        assert_eq!(
            plan.validate(&devices, &networks, horizon),
            Err(FaultPlanError::InvalidDegradedLink)
        );
    }

    #[test]
    fn overlapping_bursts_on_one_medium_are_rejected() {
        let (devices, networks) = population();
        let horizon = SimTime::from_secs(100);
        let wifi = LinkTarget::Wifi { network: None };
        let overlap = FaultPlan::new()
            .link_burst(
                SimTime::from_secs(10),
                SimTime::from_secs(30),
                wifi,
                LinkConfig::wifi(),
            )
            .link_burst(
                SimTime::from_secs(20),
                SimTime::from_secs(40),
                wifi,
                LinkConfig::wifi(),
            );
        assert_eq!(
            overlap.validate(&devices, &networks, horizon),
            Err(FaultPlanError::OverlappingLinkBursts {
                first_at: SimTime::from_secs(10),
                second_at: SimTime::from_secs(20),
            })
        );
        // Back-to-back bursts are fine (a burst ending exactly when the
        // next starts does not overlap: restore runs before re-degrade).
        let sequenced = FaultPlan::new()
            .link_burst(
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                wifi,
                LinkConfig::wifi(),
            )
            .link_burst(
                SimTime::from_secs(20),
                SimTime::from_secs(30),
                wifi,
                LinkConfig::wifi(),
            );
        assert_eq!(sequenced.validate(&devices, &networks, horizon), Ok(()));
        // Wi-Fi and backhaul touch disjoint links: overlap allowed.
        let mixed = FaultPlan::new()
            .link_burst(
                SimTime::from_secs(10),
                SimTime::from_secs(30),
                wifi,
                LinkConfig::wifi(),
            )
            .link_burst(
                SimTime::from_secs(15),
                SimTime::from_secs(25),
                LinkTarget::Backhaul,
                LinkConfig::backhaul(),
            );
        assert_eq!(mixed.validate(&devices, &networks, horizon), Ok(()));
    }
}
