//! The fleet-command vocabulary and its wire encoding.
//!
//! Commands travel as compact binary payloads on per-device MQTT command
//! topics (the same fixed-width little-endian style as the metering
//! protocol in `rtem_net::packet`, parseable by a microcontroller-class
//! device), and devices answer with a [`CommandAck`] on their status topic.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rtem_codecs::MeterKind;
use rtem_net::packet::DeviceId;
use rtem_sim::time::SimDuration;
use std::error::Error;
use std::fmt;

/// MQTT topic a device listens on for fleet commands.
pub fn command_topic(device: DeviceId) -> String {
    format!("metering/dev-{}/command", device.0)
}

/// MQTT topic a device publishes its [`CommandAck`]s on.
pub fn status_topic(device: DeviceId) -> String {
    format!("metering/dev-{}/status", device.0)
}

/// A two-rate tariff hint pushed to the device-local billing estimator —
/// the firmware-sized approximation of the operator's schedule, not the
/// aggregator's authoritative tariff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TariffHint {
    /// Price per mWh during the daily peak window.
    pub peak_price_per_mwh: f64,
    /// Price per mWh outside the peak window.
    pub off_peak_price_per_mwh: f64,
    /// Start of the daily peak window, seconds from midnight.
    pub peak_start_s: u64,
    /// End of the daily peak window, seconds from midnight.
    pub peak_end_s: u64,
}

impl TariffHint {
    /// A flat hint (same price at all hours).
    pub fn flat(price_per_mwh: f64) -> TariffHint {
        TariffHint {
            peak_price_per_mwh: price_per_mwh,
            off_peak_price_per_mwh: price_per_mwh,
            peak_start_s: 0,
            peak_end_s: 0,
        }
    }

    /// `true` when prices are finite and non-negative and the peak window
    /// is well-formed.
    pub fn is_valid(&self) -> bool {
        self.peak_price_per_mwh.is_finite()
            && self.peak_price_per_mwh >= 0.0
            && self.off_peak_price_per_mwh.is_finite()
            && self.off_peak_price_per_mwh >= 0.0
            && self.peak_start_s <= self.peak_end_s
            && self.peak_end_s <= 86_400
    }
}

/// One remote-management command an operator can address to the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetCommand {
    /// Change the reporting interval Tmeasure.
    SetMeasureInterval {
        /// The new measurement interval.
        interval: SimDuration,
    },
    /// Update the device-local billing estimator's tariff approximation.
    SetTariffHint(TariffHint),
    /// Switch the meter protocol the device frames its reports in — the
    /// simulated equivalent of a baud-rate/protocol reconfiguration.
    SetMeterKind {
        /// The protocol family to switch to.
        kind: MeterKind,
    },
    /// Resume publishing consumption reports (buffered records backfill).
    StartReporting,
    /// Stop publishing consumption reports; measurements keep accumulating
    /// in the local store for later backfill.
    StopReporting,
    /// Configure crash-recovery behavior of the local store.
    CrashRecoveryConfig {
        /// When `true`, the record buffer survives a firmware crash
        /// (battery-backed store); when `false`, a crash clears it.
        persist_store: bool,
    },
}

impl FleetCommand {
    /// Short stable label for bench CSV/JSON columns and report keys.
    pub fn label(&self) -> &'static str {
        match self {
            FleetCommand::SetMeasureInterval { .. } => "set_measure_interval",
            FleetCommand::SetTariffHint(_) => "set_tariff_hint",
            FleetCommand::SetMeterKind { .. } => "set_meter_kind",
            FleetCommand::StartReporting => "start_reporting",
            FleetCommand::StopReporting => "stop_reporting",
            FleetCommand::CrashRecoveryConfig { .. } => "crash_recovery_config",
        }
    }
}

/// Error returned when a command or ack payload cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlDecodeError {
    /// The buffer ended before the frame was complete.
    Truncated {
        /// How many bytes were needed.
        needed: usize,
        /// How many bytes were available.
        available: usize,
    },
    /// The command tag byte does not correspond to a known command.
    UnknownTag(u8),
    /// A meter-kind code is outside the known protocol families.
    UnknownMeterKind(u8),
}

impl fmt::Display for ControlDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlDecodeError::Truncated { needed, available } => {
                write!(
                    f,
                    "control frame truncated: needed {needed} bytes, had {available}"
                )
            }
            ControlDecodeError::UnknownTag(tag) => {
                write!(f, "unknown control frame tag {tag:#04x}")
            }
            ControlDecodeError::UnknownMeterKind(code) => {
                write!(f, "unknown meter kind code {code:#04x}")
            }
        }
    }
}

impl Error for ControlDecodeError {}

const TAG_SET_MEASURE_INTERVAL: u8 = 0x01;
const TAG_SET_TARIFF_HINT: u8 = 0x02;
const TAG_SET_METER_KIND: u8 = 0x03;
const TAG_START_REPORTING: u8 = 0x04;
const TAG_STOP_REPORTING: u8 = 0x05;
const TAG_CRASH_RECOVERY: u8 = 0x06;
const TAG_ACK: u8 = 0x41;

/// A command as carried on the wire: the plan-assigned sequence number
/// (echoed back in the [`CommandAck`]) plus the command itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandFrame {
    /// Sequence number of the originating [`ControlEvent`]
    /// (its index in the plan), echoed by device acks.
    ///
    /// [`ControlEvent`]: crate::plan::ControlEvent
    pub seq: u32,
    /// The command to apply.
    pub command: FleetCommand,
}

impl CommandFrame {
    /// Encodes the frame into its canonical wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32_le(self.seq);
        match self.command {
            FleetCommand::SetMeasureInterval { interval } => {
                buf.put_u8(TAG_SET_MEASURE_INTERVAL);
                buf.put_u64_le(interval.as_micros());
            }
            FleetCommand::SetTariffHint(hint) => {
                buf.put_u8(TAG_SET_TARIFF_HINT);
                buf.put_u64_le(hint.peak_price_per_mwh.to_bits());
                buf.put_u64_le(hint.off_peak_price_per_mwh.to_bits());
                buf.put_u64_le(hint.peak_start_s);
                buf.put_u64_le(hint.peak_end_s);
            }
            FleetCommand::SetMeterKind { kind } => {
                buf.put_u8(TAG_SET_METER_KIND);
                buf.put_u8(kind.code());
            }
            FleetCommand::StartReporting => buf.put_u8(TAG_START_REPORTING),
            FleetCommand::StopReporting => buf.put_u8(TAG_STOP_REPORTING),
            FleetCommand::CrashRecoveryConfig { persist_store } => {
                buf.put_u8(TAG_CRASH_RECOVERY);
                buf.put_u8(u8::from(persist_store));
            }
        }
        buf.freeze()
    }

    /// Decodes a frame from its wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`ControlDecodeError`] on truncation or unknown tags.
    pub fn decode(bytes: &Bytes) -> Result<CommandFrame, ControlDecodeError> {
        let mut buf = bytes.clone();
        let need = |n: usize, buf: &Bytes| {
            if buf.remaining() < n {
                Err(ControlDecodeError::Truncated {
                    needed: n,
                    available: buf.remaining(),
                })
            } else {
                Ok(())
            }
        };
        need(5, &buf)?;
        let seq = buf.get_u32_le();
        let tag = buf.get_u8();
        let command = match tag {
            TAG_SET_MEASURE_INTERVAL => {
                need(8, &buf)?;
                FleetCommand::SetMeasureInterval {
                    interval: SimDuration::from_micros(buf.get_u64_le()),
                }
            }
            TAG_SET_TARIFF_HINT => {
                need(32, &buf)?;
                FleetCommand::SetTariffHint(TariffHint {
                    peak_price_per_mwh: f64::from_bits(buf.get_u64_le()),
                    off_peak_price_per_mwh: f64::from_bits(buf.get_u64_le()),
                    peak_start_s: buf.get_u64_le(),
                    peak_end_s: buf.get_u64_le(),
                })
            }
            TAG_SET_METER_KIND => {
                need(1, &buf)?;
                let code = buf.get_u8();
                FleetCommand::SetMeterKind {
                    kind: MeterKind::from_code(code)
                        .ok_or(ControlDecodeError::UnknownMeterKind(code))?,
                }
            }
            TAG_START_REPORTING => FleetCommand::StartReporting,
            TAG_STOP_REPORTING => FleetCommand::StopReporting,
            TAG_CRASH_RECOVERY => {
                need(1, &buf)?;
                FleetCommand::CrashRecoveryConfig {
                    persist_store: buf.get_u8() != 0,
                }
            }
            other => return Err(ControlDecodeError::UnknownTag(other)),
        };
        Ok(CommandFrame { seq, command })
    }
}

/// A device's acknowledgment of one command, published on its status topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandAck {
    /// Acknowledging device.
    pub device: DeviceId,
    /// Sequence number of the acknowledged [`CommandFrame`].
    pub seq: u32,
    /// Whether the device applied the command (`false`: rejected, e.g. an
    /// interval of zero).
    pub applied: bool,
}

impl CommandAck {
    /// Encodes the ack into its canonical wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(14);
        buf.put_u8(TAG_ACK);
        buf.put_u64_le(self.device.0);
        buf.put_u32_le(self.seq);
        buf.put_u8(u8::from(self.applied));
        buf.freeze()
    }

    /// Decodes an ack from its wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`ControlDecodeError`] on truncation or a wrong tag.
    pub fn decode(bytes: &Bytes) -> Result<CommandAck, ControlDecodeError> {
        let mut buf = bytes.clone();
        if buf.remaining() < 14 {
            return Err(ControlDecodeError::Truncated {
                needed: 14,
                available: buf.remaining(),
            });
        }
        let tag = buf.get_u8();
        if tag != TAG_ACK {
            return Err(ControlDecodeError::UnknownTag(tag));
        }
        Ok(CommandAck {
            device: DeviceId(buf.get_u64_le()),
            seq: buf.get_u32_le(),
            applied: buf.get_u8() != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_commands() -> Vec<FleetCommand> {
        vec![
            FleetCommand::SetMeasureInterval {
                interval: SimDuration::from_millis(250),
            },
            FleetCommand::SetTariffHint(TariffHint {
                peak_price_per_mwh: 0.0004,
                off_peak_price_per_mwh: 0.0001,
                peak_start_s: 17 * 3600,
                peak_end_s: 21 * 3600,
            }),
            FleetCommand::SetMeterKind {
                kind: MeterKind::Sml,
            },
            FleetCommand::StartReporting,
            FleetCommand::StopReporting,
            FleetCommand::CrashRecoveryConfig {
                persist_store: true,
            },
        ]
    }

    #[test]
    fn command_frames_round_trip() {
        for (seq, command) in all_commands().into_iter().enumerate() {
            let frame = CommandFrame {
                seq: seq as u32,
                command,
            };
            let decoded = CommandFrame::decode(&frame.encode()).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn acks_round_trip() {
        for applied in [true, false] {
            let ack = CommandAck {
                device: DeviceId(u64::MAX),
                seq: 7,
                applied,
            };
            assert_eq!(CommandAck::decode(&ack.encode()).unwrap(), ack);
        }
    }

    #[test]
    fn truncated_and_garbage_frames_are_typed_errors() {
        let frame = CommandFrame {
            seq: 3,
            command: FleetCommand::SetTariffHint(TariffHint::flat(1.0)),
        };
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            let prefix = Bytes::from(bytes[..cut].to_vec());
            assert!(matches!(
                CommandFrame::decode(&prefix),
                Err(ControlDecodeError::Truncated { .. })
            ));
        }
        let garbage = Bytes::from(vec![0, 0, 0, 0, 0xEE]);
        assert_eq!(
            CommandFrame::decode(&garbage),
            Err(ControlDecodeError::UnknownTag(0xEE))
        );
        let bad_kind = Bytes::from(vec![0, 0, 0, 0, TAG_SET_METER_KIND, 0x77]);
        assert_eq!(
            CommandFrame::decode(&bad_kind),
            Err(ControlDecodeError::UnknownMeterKind(0x77))
        );
        assert!(CommandAck::decode(&garbage).is_err());
    }

    #[test]
    fn topics_are_per_device_and_valid() {
        assert_eq!(command_topic(DeviceId(3)), "metering/dev-3/command");
        assert_eq!(status_topic(DeviceId(3)), "metering/dev-3/status");
        assert_ne!(command_topic(DeviceId(1)), command_topic(DeviceId(2)));
    }

    #[test]
    fn tariff_hint_validity() {
        assert!(TariffHint::flat(0.5).is_valid());
        assert!(!TariffHint::flat(-0.5).is_valid());
        assert!(!TariffHint::flat(f64::NAN).is_valid());
        let inverted = TariffHint {
            peak_start_s: 10,
            peak_end_s: 5,
            ..TariffHint::flat(1.0)
        };
        assert!(!inverted.is_valid());
    }
}
