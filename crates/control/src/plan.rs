//! The [`ControlPlan`]: a validated timeline of fleet commands.
//!
//! A plan mirrors [`FaultPlan`](https://docs.rs/rtem-faults): a plain list
//! of typed events, builder helpers per command, and up-front validation
//! against the scenario's device/network population and horizon so an
//! impossible plan fails with a typed [`ControlError`] before anything
//! runs.

use crate::command::{FleetCommand, TariffHint};
use core::fmt;
use rtem_codecs::MeterKind;
use rtem_net::broker::QoS;
use rtem_net::packet::{AggregatorAddr, DeviceId};
use rtem_sim::time::{SimDuration, SimTime};

/// Who a control event is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandTarget {
    /// Every device of the scenario.
    AllDevices,
    /// One device.
    Device(DeviceId),
    /// Every device whose *home* network is the given aggregator.
    Site(AggregatorAddr),
    /// A seeded percentage of the fleet — the staged-rollout target. The
    /// cohort is drawn deterministically from the world seed and the
    /// event's plan index, so the same percentage at two times selects the
    /// same devices only by chance; rising percentages of one rollout are
    /// nested (see [`ControlPlan::staged_rollout`]).
    Cohort {
        /// Fleet percentage in `1..=100`.
        percent: u8,
    },
}

/// One scheduled fleet command: when, to whom, what, and how it travels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlEvent {
    /// When the operator publishes the command.
    pub at: SimTime,
    /// Addressed subset of the fleet.
    pub target: CommandTarget,
    /// The command itself.
    pub command: FleetCommand,
    /// MQTT quality of service the command is published at.
    pub qos: QoS,
    /// Whether the command is published retained, so devices (re)connecting
    /// later still receive it.
    pub retain: bool,
}

/// Why a [`ControlPlan`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlError {
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
    /// An event is scheduled after the run horizon and would never fire.
    AfterHorizon {
        /// The scheduled publish time.
        at: SimTime,
    },
    /// A cohort percentage outside `1..=100` selects nothing (or is
    /// malformed).
    InvalidCohort {
        /// The offending percentage.
        percent: u8,
    },
    /// A `SetMeasureInterval` command carries a zero interval, which no
    /// device firmware accepts.
    ZeroMeasureInterval {
        /// The scheduled publish time of the offending event.
        at: SimTime,
    },
    /// A tariff hint carries negative or non-finite prices, or an inverted
    /// peak window.
    InvalidTariffHint {
        /// The scheduled publish time of the offending event.
        at: SimTime,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::UnknownDevice { device } => {
                write!(f, "control plan refers to unknown device {device:?}")
            }
            ControlError::UnknownNetwork { network } => {
                write!(f, "control plan refers to unknown network {network:?}")
            }
            ControlError::AfterHorizon { at } => {
                write!(f, "command publish at {at:?} is after the horizon")
            }
            ControlError::InvalidCohort { percent } => {
                write!(f, "cohort percentage {percent} is outside 1..=100")
            }
            ControlError::ZeroMeasureInterval { at } => {
                write!(f, "command at {at:?} sets a zero measurement interval")
            }
            ControlError::InvalidTariffHint { at } => {
                write!(f, "command at {at:?} carries an invalid tariff hint")
            }
        }
    }
}

impl std::error::Error for ControlError {}

/// A declarative timeline of fleet commands.
///
/// ```
/// use rtem_control::plan::{CommandTarget, ControlPlan};
/// use rtem_net::packet::{AggregatorAddr, DeviceId};
/// use rtem_sim::time::{SimDuration, SimTime};
///
/// let plan = ControlPlan::new()
///     .set_measure_interval(
///         SimTime::from_secs(20),
///         CommandTarget::AllDevices,
///         SimDuration::from_millis(500),
///     )
///     .stop_reporting(SimTime::from_secs(40), CommandTarget::Site(AggregatorAddr(1)));
/// assert_eq!(plan.len(), 2);
/// let devices = [DeviceId(1)];
/// let networks = [AggregatorAddr(1)];
/// assert!(plan
///     .validate(&devices, &networks, SimTime::from_secs(100))
///     .is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControlPlan {
    /// The scheduled events, in the order they were added. An event's index
    /// is its command sequence number on the wire.
    pub events: Vec<ControlEvent>,
}

impl ControlPlan {
    /// An empty plan.
    pub fn new() -> ControlPlan {
        ControlPlan::default()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no command is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an arbitrary event.
    pub fn with(mut self, event: ControlEvent) -> ControlPlan {
        self.events.push(event);
        self
    }

    /// Appends a command at the default transport (QoS 1, not retained).
    pub fn command_at(
        self,
        at: SimTime,
        target: CommandTarget,
        command: FleetCommand,
    ) -> ControlPlan {
        self.command_with(at, target, command, QoS::AtLeastOnce, false)
    }

    /// Appends a command with an explicit QoS and retain flag.
    pub fn command_with(
        self,
        at: SimTime,
        target: CommandTarget,
        command: FleetCommand,
        qos: QoS,
        retain: bool,
    ) -> ControlPlan {
        self.with(ControlEvent {
            at,
            target,
            command,
            qos,
            retain,
        })
    }

    /// Appends a Tmeasure change.
    pub fn set_measure_interval(
        self,
        at: SimTime,
        target: CommandTarget,
        interval: SimDuration,
    ) -> ControlPlan {
        self.command_at(at, target, FleetCommand::SetMeasureInterval { interval })
    }

    /// Appends a tariff-hint update.
    pub fn set_tariff_hint(
        self,
        at: SimTime,
        target: CommandTarget,
        hint: TariffHint,
    ) -> ControlPlan {
        self.command_at(at, target, FleetCommand::SetTariffHint(hint))
    }

    /// Appends a meter-protocol switch.
    pub fn set_meter_kind(
        self,
        at: SimTime,
        target: CommandTarget,
        kind: MeterKind,
    ) -> ControlPlan {
        self.command_at(at, target, FleetCommand::SetMeterKind { kind })
    }

    /// Appends a reporting stop.
    pub fn stop_reporting(self, at: SimTime, target: CommandTarget) -> ControlPlan {
        self.command_at(at, target, FleetCommand::StopReporting)
    }

    /// Appends a reporting resume.
    pub fn start_reporting(self, at: SimTime, target: CommandTarget) -> ControlPlan {
        self.command_at(at, target, FleetCommand::StartReporting)
    }

    /// Appends a crash-recovery configuration change.
    pub fn crash_recovery(
        self,
        at: SimTime,
        target: CommandTarget,
        persist_store: bool,
    ) -> ControlPlan {
        self.command_at(
            at,
            target,
            FleetCommand::CrashRecoveryConfig { persist_store },
        )
    }

    /// Appends a staged rollout: the same command published to growing
    /// [`CommandTarget::Cohort`]s, one stage every `stagger`, starting at
    /// `at`. Cohorts of one rollout are nested — the 10 % stage is a subset
    /// of the 50 % stage — because the world draws every cohort of a run
    /// from one seeded fleet shuffle.
    pub fn staged_rollout(
        mut self,
        at: SimTime,
        stagger: SimDuration,
        percents: &[u8],
        command: FleetCommand,
        qos: QoS,
        retain: bool,
    ) -> ControlPlan {
        for (stage, &percent) in percents.iter().enumerate() {
            self = self.command_with(
                at + stagger * stage as u64,
                CommandTarget::Cohort { percent },
                command,
                qos,
                retain,
            );
        }
        self
    }

    /// Checks every event against the scenario population and horizon,
    /// returning the first inconsistency found.
    ///
    /// `devices` and `networks` must be sorted ascending, as
    /// `ScenarioSpec::device_ids` and `network_addrs` return them: each
    /// membership check is a binary search.
    ///
    /// # Errors
    ///
    /// Returns the first [`ControlError`] found.
    pub fn validate(
        &self,
        devices: &[DeviceId],
        networks: &[AggregatorAddr],
        horizon: SimTime,
    ) -> Result<(), ControlError> {
        debug_assert!(devices.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(networks.windows(2).all(|w| w[0] < w[1]));
        for event in &self.events {
            match event.target {
                CommandTarget::AllDevices => {}
                CommandTarget::Device(device) => {
                    if devices.binary_search(&device).is_err() {
                        return Err(ControlError::UnknownDevice { device });
                    }
                }
                CommandTarget::Site(network) => {
                    if networks.binary_search(&network).is_err() {
                        return Err(ControlError::UnknownNetwork { network });
                    }
                }
                CommandTarget::Cohort { percent } => {
                    if percent == 0 || percent > 100 {
                        return Err(ControlError::InvalidCohort { percent });
                    }
                }
            }
            // Events scheduled exactly at the horizon still execute (same
            // rule as topology scripts and fault plans), so only
            // strictly-later ones are unreachable.
            if event.at > horizon {
                return Err(ControlError::AfterHorizon { at: event.at });
            }
            match event.command {
                FleetCommand::SetMeasureInterval { interval } if interval.is_zero() => {
                    return Err(ControlError::ZeroMeasureInterval { at: event.at });
                }
                FleetCommand::SetTariffHint(hint) if !hint.is_valid() => {
                    return Err(ControlError::InvalidTariffHint { at: event.at });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> (Vec<DeviceId>, Vec<AggregatorAddr>) {
        (
            vec![DeviceId(1), DeviceId(2)],
            vec![AggregatorAddr(1), AggregatorAddr(2)],
        )
    }

    #[test]
    fn valid_plan_passes() {
        let (devices, networks) = population();
        let plan = ControlPlan::new()
            .set_measure_interval(
                SimTime::from_secs(10),
                CommandTarget::Device(DeviceId(2)),
                SimDuration::from_millis(500),
            )
            .set_meter_kind(
                SimTime::from_secs(20),
                CommandTarget::Site(AggregatorAddr(1)),
                MeterKind::ModbusRtu,
            )
            .staged_rollout(
                SimTime::from_secs(30),
                SimDuration::from_secs(5),
                &[10, 50, 100],
                FleetCommand::StopReporting,
                QoS::ExactlyOnce,
                false,
            );
        assert_eq!(plan.len(), 5);
        assert!(plan
            .validate(&devices, &networks, SimTime::from_secs(60))
            .is_ok());
        // Exactly at the horizon is still reachable.
        assert!(plan
            .validate(&devices, &networks, SimTime::from_secs(45))
            .is_ok());
    }

    #[test]
    fn unknown_targets_are_rejected() {
        let (devices, networks) = population();
        let horizon = SimTime::from_secs(100);
        let plan = ControlPlan::new()
            .stop_reporting(SimTime::from_secs(1), CommandTarget::Device(DeviceId(99)));
        assert_eq!(
            plan.validate(&devices, &networks, horizon),
            Err(ControlError::UnknownDevice {
                device: DeviceId(99)
            })
        );
        let plan = ControlPlan::new().stop_reporting(
            SimTime::from_secs(1),
            CommandTarget::Site(AggregatorAddr(9)),
        );
        assert_eq!(
            plan.validate(&devices, &networks, horizon),
            Err(ControlError::UnknownNetwork {
                network: AggregatorAddr(9)
            })
        );
    }

    #[test]
    fn horizon_cohort_and_parameter_checks() {
        let (devices, networks) = population();
        let horizon = SimTime::from_secs(50);
        let late =
            ControlPlan::new().stop_reporting(SimTime::from_secs(51), CommandTarget::AllDevices);
        assert_eq!(
            late.validate(&devices, &networks, horizon),
            Err(ControlError::AfterHorizon {
                at: SimTime::from_secs(51)
            })
        );
        for percent in [0u8, 101] {
            let plan = ControlPlan::new()
                .stop_reporting(SimTime::from_secs(1), CommandTarget::Cohort { percent });
            assert_eq!(
                plan.validate(&devices, &networks, horizon),
                Err(ControlError::InvalidCohort { percent })
            );
        }
        let zero = ControlPlan::new().set_measure_interval(
            SimTime::from_secs(1),
            CommandTarget::AllDevices,
            SimDuration::ZERO,
        );
        assert!(matches!(
            zero.validate(&devices, &networks, horizon),
            Err(ControlError::ZeroMeasureInterval { .. })
        ));
        let bad_hint = ControlPlan::new().set_tariff_hint(
            SimTime::from_secs(1),
            CommandTarget::AllDevices,
            TariffHint::flat(-1.0),
        );
        assert!(matches!(
            bad_hint.validate(&devices, &networks, horizon),
            Err(ControlError::InvalidTariffHint { .. })
        ));
    }

    #[test]
    fn staged_rollout_spaces_stages_by_the_stagger() {
        let plan = ControlPlan::new().staged_rollout(
            SimTime::from_secs(10),
            SimDuration::from_secs(4),
            &[25, 100],
            FleetCommand::StartReporting,
            QoS::AtLeastOnce,
            true,
        );
        assert_eq!(plan.events[0].at, SimTime::from_secs(10));
        assert_eq!(plan.events[1].at, SimTime::from_secs(14));
        assert!(plan.events.iter().all(|e| e.retain));
        assert_eq!(plan.events[0].target, CommandTarget::Cohort { percent: 25 });
    }
}
