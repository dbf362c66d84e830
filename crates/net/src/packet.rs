//! Wire format of the metering protocol.
//!
//! The paper transports consumption reports over MQTT; the payload layout is
//! not specified, so this module defines a compact binary encoding used by
//! the simulated broker and by the blockchain layer when hashing records.
//! The encoding is deliberately simple (fixed-width little-endian fields, a
//! one-byte type tag, length-prefixed variable sections) so it can be parsed
//! by a microcontroller-class device.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

/// Globally unique identifier of a device (the "ID" in Fig. 3).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u64);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev-{:04}", self.0)
    }
}

/// Network address of an aggregator (the "Master/Temp Addr" in Fig. 3).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AggregatorAddr(pub u32);

impl fmt::Display for AggregatorAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agg-{:03}", self.0)
    }
}

/// Error returned when a packet cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the fixed header was complete.
    Truncated {
        /// How many bytes were needed.
        needed: usize,
        /// How many bytes were available.
        available: usize,
    },
    /// The type tag byte does not correspond to a known packet kind.
    UnknownTag(u8),
    /// A length prefix points past the end of the buffer.
    BadLength {
        /// Declared length.
        declared: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { needed, available } => {
                write!(
                    f,
                    "packet truncated: needed {needed} bytes, had {available}"
                )
            }
            DecodeError::UnknownTag(tag) => write!(f, "unknown packet tag {tag:#04x}"),
            DecodeError::BadLength {
                declared,
                remaining,
            } => write!(
                f,
                "bad length prefix: declared {declared}, only {remaining} bytes remain"
            ),
        }
    }
}

impl Error for DecodeError {}

/// One energy measurement record as carried on the wire and stored in the
/// ledger: who consumed, how much, and over which interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementRecord {
    /// Reporting device.
    pub device: DeviceId,
    /// Sequence number assigned by the device (monotonic per device).
    pub sequence: u64,
    /// Start of the measurement interval, microseconds of device-local time.
    pub interval_start_us: u64,
    /// End of the measurement interval, microseconds of device-local time.
    pub interval_end_us: u64,
    /// Average measured current over the interval, in microamps (integer so
    /// the wire format and hashes are exact).
    pub mean_current_ua: u64,
    /// Accumulated charge over the interval, in microamp-seconds.
    pub charge_uas: u64,
    /// `true` if this record was buffered in local storage and is being
    /// retransmitted after a connectivity gap (Fig. 6 backfill).
    pub backfilled: bool,
}

impl MeasurementRecord {
    /// Length of the encoded record in bytes.
    pub const ENCODED_LEN: usize = 8 + 8 + 8 + 8 + 8 + 8 + 1;

    /// Mean current in milliamps.
    pub fn mean_current_ma(&self) -> f64 {
        self.mean_current_ua as f64 / 1000.0
    }

    /// Accumulated charge in milliamp-seconds.
    pub fn charge_mas(&self) -> f64 {
        self.charge_uas as f64 / 1000.0
    }

    /// Duration of the measurement interval in seconds.
    pub fn interval_secs(&self) -> f64 {
        (self.interval_end_us.saturating_sub(self.interval_start_us)) as f64 / 1e6
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.device.0);
        buf.put_u64_le(self.sequence);
        buf.put_u64_le(self.interval_start_us);
        buf.put_u64_le(self.interval_end_us);
        buf.put_u64_le(self.mean_current_ua);
        buf.put_u64_le(self.charge_uas);
        buf.put_u8(u8::from(self.backfilled));
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self, DecodeError> {
        if buf.remaining() < Self::ENCODED_LEN {
            return Err(DecodeError::Truncated {
                needed: Self::ENCODED_LEN,
                available: buf.remaining(),
            });
        }
        Ok(MeasurementRecord {
            device: DeviceId(buf.get_u64_le()),
            sequence: buf.get_u64_le(),
            interval_start_us: buf.get_u64_le(),
            interval_end_us: buf.get_u64_le(),
            mean_current_ua: buf.get_u64_le(),
            charge_uas: buf.get_u64_le(),
            backfilled: buf.get_u8() != 0,
        })
    }

    /// Canonical byte representation used both on the wire and as the ledger
    /// hashing pre-image, so a record cannot be altered between transport and
    /// storage without changing its hash.
    pub fn canonical_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::ENCODED_LEN);
        self.encode_into(&mut buf);
        buf.freeze()
    }
}

/// Protocol messages exchanged between devices and aggregators (Fig. 3) plus
/// the aggregator-to-aggregator backhaul messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Device → aggregator: membership registration request. `master` is
    /// `None` for a first (home) registration and carries the home address
    /// when requesting a temporary membership in a foreign network.
    RegistrationRequest {
        /// Requesting device.
        device: DeviceId,
        /// Home (master) aggregator address, if the device already has one.
        master: Option<AggregatorAddr>,
    },
    /// Aggregator → device: registration accepted, with the address the
    /// device must report to and the reporting slot it was assigned.
    RegistrationAccept {
        /// Accepted device.
        device: DeviceId,
        /// Address of the accepting aggregator.
        address: AggregatorAddr,
        /// Whether the membership is the device's master or temporary one.
        membership: MembershipKind,
        /// TDMA slot index assigned for reporting.
        slot: u16,
    },
    /// Aggregator → device: registration refused (e.g. no free slots, or
    /// master verification failed).
    RegistrationReject {
        /// Rejected device.
        device: DeviceId,
        /// Reason for the rejection.
        reason: RejectReason,
    },
    /// Device → aggregator: one or more measurement records (the first entry
    /// is the live measurement; the rest are backfilled from local storage).
    ConsumptionReport {
        /// Reporting device.
        device: DeviceId,
        /// Master address the device believes it is billed through.
        master: Option<AggregatorAddr>,
        /// Measurement records, oldest first.
        records: Vec<MeasurementRecord>,
    },
    /// Aggregator → device: positive acknowledgment of a report.
    Ack {
        /// Device whose report is acknowledged.
        device: DeviceId,
        /// Sequence number of the newest record covered by this ack.
        through_sequence: u64,
    },
    /// Aggregator → device: negative acknowledgment — the device is not a
    /// member of this aggregator's network (triggers re-registration).
    Nack {
        /// Device whose report is refused.
        device: DeviceId,
    },
    /// Backhaul, foreign → home aggregator: verify that `device` claims
    /// `master` as its home network.
    MembershipVerifyRequest {
        /// Device being verified.
        device: DeviceId,
        /// Claimed home aggregator.
        master: AggregatorAddr,
        /// Aggregator asking for verification.
        requester: AggregatorAddr,
    },
    /// Backhaul, home → foreign aggregator: verification verdict.
    MembershipVerifyResponse {
        /// Device that was verified.
        device: DeviceId,
        /// Whether the home aggregator vouches for the device.
        accepted: bool,
    },
    /// Backhaul, foreign → home aggregator: consumption collected on behalf
    /// of the home network (the "cost center" forwarding of Fig. 3).
    ForwardedConsumption {
        /// Device the records belong to.
        device: DeviceId,
        /// Aggregator that collected the records.
        collector: AggregatorAddr,
        /// Records collected in the foreign network.
        records: Vec<MeasurementRecord>,
    },
    /// Backhaul: home aggregator tells a foreign aggregator that the device's
    /// membership moved (sequence 3 of Fig. 3, transfer of ownership).
    TransferMembership {
        /// Device whose ownership moves.
        device: DeviceId,
        /// The new master address.
        new_master: AggregatorAddr,
    },
    /// Home network → aggregator: remove the device entirely
    /// (loss / reset / transfer of ownership).
    RemoveDevice {
        /// Device to remove.
        device: DeviceId,
    },
    /// Device → aggregator: a consumption report encoded as a real
    /// meter-protocol telegram (see the `rtem-codecs` crate). The envelope
    /// carries the raw telegram bytes plus the codec discriminant so the
    /// aggregator knows which parser to apply; the device id is repeated
    /// here for routing and diagnostics even when the telegram body is
    /// corrupted beyond parsing.
    Telegram {
        /// Reporting device.
        device: DeviceId,
        /// Codec discriminant (`rtem_codecs::MeterKind::code`).
        codec: u8,
        /// Raw telegram bytes as produced by the device's meter codec.
        /// Shared ([`Bytes`]) so the world's wire log and the in-flight
        /// packet reference one allocation instead of cloning per delivery.
        payload: Bytes,
    },
}

/// Whether a membership is the device's permanent (master) one or a
/// temporary membership created in a foreign network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MembershipKind {
    /// Permanent home-network membership.
    Master,
    /// Temporary membership in a foreign network, billed back to the master.
    Temporary,
}

/// Why an aggregator rejected a registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// All TDMA reporting slots are occupied.
    NoFreeSlots,
    /// The claimed master aggregator did not vouch for the device.
    MasterVerificationFailed,
    /// The device is blocked (e.g. reported lost by its owner).
    Blocked,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::NoFreeSlots => write!(f, "no free reporting slots"),
            RejectReason::MasterVerificationFailed => write!(f, "master verification failed"),
            RejectReason::Blocked => write!(f, "device is blocked"),
        }
    }
}

const TAG_REG_REQUEST: u8 = 0x01;
const TAG_REG_ACCEPT: u8 = 0x02;
const TAG_REG_REJECT: u8 = 0x03;
const TAG_REPORT: u8 = 0x04;
const TAG_ACK: u8 = 0x05;
const TAG_NACK: u8 = 0x06;
const TAG_VERIFY_REQ: u8 = 0x07;
const TAG_VERIFY_RESP: u8 = 0x08;
const TAG_FORWARDED: u8 = 0x09;
const TAG_TRANSFER: u8 = 0x0A;
const TAG_REMOVE: u8 = 0x0B;
const TAG_TELEGRAM: u8 = 0x0C;

const NO_ADDR: u32 = u32::MAX;

fn put_opt_addr(buf: &mut BytesMut, addr: Option<AggregatorAddr>) {
    buf.put_u32_le(addr.map_or(NO_ADDR, |a| a.0));
}

fn get_opt_addr(buf: &mut Bytes) -> Option<AggregatorAddr> {
    let raw = buf.get_u32_le();
    if raw == NO_ADDR {
        None
    } else {
        Some(AggregatorAddr(raw))
    }
}

fn put_records(buf: &mut BytesMut, records: &[MeasurementRecord]) {
    buf.put_u16_le(records.len() as u16);
    for r in records {
        r.encode_into(buf);
    }
}

fn get_records(buf: &mut Bytes) -> Result<Vec<MeasurementRecord>, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated {
            needed: 2,
            available: buf.remaining(),
        });
    }
    let count = buf.get_u16_le() as usize;
    let needed = count * MeasurementRecord::ENCODED_LEN;
    if buf.remaining() < needed {
        return Err(DecodeError::BadLength {
            declared: needed,
            remaining: buf.remaining(),
        });
    }
    (0..count)
        .map(|_| MeasurementRecord::decode_from(buf))
        .collect()
}

impl Packet {
    /// Encodes the packet into its wire representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        match self {
            Packet::RegistrationRequest { device, master } => {
                buf.put_u8(TAG_REG_REQUEST);
                buf.put_u64_le(device.0);
                put_opt_addr(&mut buf, *master);
            }
            Packet::RegistrationAccept {
                device,
                address,
                membership,
                slot,
            } => {
                buf.put_u8(TAG_REG_ACCEPT);
                buf.put_u64_le(device.0);
                buf.put_u32_le(address.0);
                buf.put_u8(match membership {
                    MembershipKind::Master => 0,
                    MembershipKind::Temporary => 1,
                });
                buf.put_u16_le(*slot);
            }
            Packet::RegistrationReject { device, reason } => {
                buf.put_u8(TAG_REG_REJECT);
                buf.put_u64_le(device.0);
                buf.put_u8(match reason {
                    RejectReason::NoFreeSlots => 0,
                    RejectReason::MasterVerificationFailed => 1,
                    RejectReason::Blocked => 2,
                });
            }
            Packet::ConsumptionReport {
                device,
                master,
                records,
            } => {
                buf.put_u8(TAG_REPORT);
                buf.put_u64_le(device.0);
                put_opt_addr(&mut buf, *master);
                put_records(&mut buf, records);
            }
            Packet::Ack {
                device,
                through_sequence,
            } => {
                buf.put_u8(TAG_ACK);
                buf.put_u64_le(device.0);
                buf.put_u64_le(*through_sequence);
            }
            Packet::Nack { device } => {
                buf.put_u8(TAG_NACK);
                buf.put_u64_le(device.0);
            }
            Packet::MembershipVerifyRequest {
                device,
                master,
                requester,
            } => {
                buf.put_u8(TAG_VERIFY_REQ);
                buf.put_u64_le(device.0);
                buf.put_u32_le(master.0);
                buf.put_u32_le(requester.0);
            }
            Packet::MembershipVerifyResponse { device, accepted } => {
                buf.put_u8(TAG_VERIFY_RESP);
                buf.put_u64_le(device.0);
                buf.put_u8(u8::from(*accepted));
            }
            Packet::ForwardedConsumption {
                device,
                collector,
                records,
            } => {
                buf.put_u8(TAG_FORWARDED);
                buf.put_u64_le(device.0);
                buf.put_u32_le(collector.0);
                put_records(&mut buf, records);
            }
            Packet::TransferMembership { device, new_master } => {
                buf.put_u8(TAG_TRANSFER);
                buf.put_u64_le(device.0);
                buf.put_u32_le(new_master.0);
            }
            Packet::RemoveDevice { device } => {
                buf.put_u8(TAG_REMOVE);
                buf.put_u64_le(device.0);
            }
            Packet::Telegram {
                device,
                codec,
                payload,
            } => {
                buf.put_u8(TAG_TELEGRAM);
                buf.put_u64_le(device.0);
                buf.put_u8(*codec);
                buf.put_u32_le(payload.len() as u32);
                buf.put_slice(payload);
            }
        }
        buf.freeze()
    }

    /// Decodes a packet from its wire representation.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the buffer is truncated, carries an
    /// unknown tag, or declares inconsistent lengths.
    pub fn decode(bytes: &Bytes) -> Result<Packet, DecodeError> {
        let mut buf = bytes.clone();
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated {
                needed: 1,
                available: 0,
            });
        }
        let tag = buf.get_u8();
        let need = |n: usize, buf: &Bytes| -> Result<(), DecodeError> {
            if buf.remaining() < n {
                Err(DecodeError::Truncated {
                    needed: n,
                    available: buf.remaining(),
                })
            } else {
                Ok(())
            }
        };
        match tag {
            TAG_REG_REQUEST => {
                need(12, &buf)?;
                Ok(Packet::RegistrationRequest {
                    device: DeviceId(buf.get_u64_le()),
                    master: get_opt_addr(&mut buf),
                })
            }
            TAG_REG_ACCEPT => {
                need(15, &buf)?;
                Ok(Packet::RegistrationAccept {
                    device: DeviceId(buf.get_u64_le()),
                    address: AggregatorAddr(buf.get_u32_le()),
                    membership: if buf.get_u8() == 0 {
                        MembershipKind::Master
                    } else {
                        MembershipKind::Temporary
                    },
                    slot: buf.get_u16_le(),
                })
            }
            TAG_REG_REJECT => {
                need(9, &buf)?;
                let device = DeviceId(buf.get_u64_le());
                let reason = match buf.get_u8() {
                    0 => RejectReason::NoFreeSlots,
                    1 => RejectReason::MasterVerificationFailed,
                    _ => RejectReason::Blocked,
                };
                Ok(Packet::RegistrationReject { device, reason })
            }
            TAG_REPORT => {
                need(12, &buf)?;
                let device = DeviceId(buf.get_u64_le());
                let master = get_opt_addr(&mut buf);
                let records = get_records(&mut buf)?;
                Ok(Packet::ConsumptionReport {
                    device,
                    master,
                    records,
                })
            }
            TAG_ACK => {
                need(16, &buf)?;
                Ok(Packet::Ack {
                    device: DeviceId(buf.get_u64_le()),
                    through_sequence: buf.get_u64_le(),
                })
            }
            TAG_NACK => {
                need(8, &buf)?;
                Ok(Packet::Nack {
                    device: DeviceId(buf.get_u64_le()),
                })
            }
            TAG_VERIFY_REQ => {
                need(16, &buf)?;
                Ok(Packet::MembershipVerifyRequest {
                    device: DeviceId(buf.get_u64_le()),
                    master: AggregatorAddr(buf.get_u32_le()),
                    requester: AggregatorAddr(buf.get_u32_le()),
                })
            }
            TAG_VERIFY_RESP => {
                need(9, &buf)?;
                Ok(Packet::MembershipVerifyResponse {
                    device: DeviceId(buf.get_u64_le()),
                    accepted: buf.get_u8() != 0,
                })
            }
            TAG_FORWARDED => {
                need(12, &buf)?;
                let device = DeviceId(buf.get_u64_le());
                let collector = AggregatorAddr(buf.get_u32_le());
                let records = get_records(&mut buf)?;
                Ok(Packet::ForwardedConsumption {
                    device,
                    collector,
                    records,
                })
            }
            TAG_TRANSFER => {
                need(12, &buf)?;
                Ok(Packet::TransferMembership {
                    device: DeviceId(buf.get_u64_le()),
                    new_master: AggregatorAddr(buf.get_u32_le()),
                })
            }
            TAG_REMOVE => {
                need(8, &buf)?;
                Ok(Packet::RemoveDevice {
                    device: DeviceId(buf.get_u64_le()),
                })
            }
            TAG_TELEGRAM => {
                need(13, &buf)?;
                let device = DeviceId(buf.get_u64_le());
                let codec = buf.get_u8();
                let declared = buf.get_u32_le() as usize;
                if buf.remaining() < declared {
                    return Err(DecodeError::BadLength {
                        declared,
                        remaining: buf.remaining(),
                    });
                }
                // Zero-copy: the payload view shares the receive buffer.
                let payload = buf.slice(..declared);
                buf.advance(declared);
                Ok(Packet::Telegram {
                    device,
                    codec,
                    payload,
                })
            }
            other => Err(DecodeError::UnknownTag(other)),
        }
    }

    /// The device this packet is about, if any.
    pub fn device(&self) -> Option<DeviceId> {
        match self {
            Packet::RegistrationRequest { device, .. }
            | Packet::RegistrationAccept { device, .. }
            | Packet::RegistrationReject { device, .. }
            | Packet::ConsumptionReport { device, .. }
            | Packet::Ack { device, .. }
            | Packet::Nack { device }
            | Packet::MembershipVerifyRequest { device, .. }
            | Packet::MembershipVerifyResponse { device, .. }
            | Packet::ForwardedConsumption { device, .. }
            | Packet::TransferMembership { device, .. }
            | Packet::RemoveDevice { device }
            | Packet::Telegram { device, .. } => Some(*device),
        }
    }

    /// Size of the encoded packet in bytes (used for airtime accounting).
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(seq: u64) -> MeasurementRecord {
        MeasurementRecord {
            device: DeviceId(3),
            sequence: seq,
            interval_start_us: 1_000_000 + seq * 100_000,
            interval_end_us: 1_100_000 + seq * 100_000,
            mean_current_ua: 152_300,
            charge_uas: 15_230,
            backfilled: seq % 2 == 0,
        }
    }

    fn all_packets() -> Vec<Packet> {
        vec![
            Packet::RegistrationRequest {
                device: DeviceId(1),
                master: None,
            },
            Packet::RegistrationRequest {
                device: DeviceId(1),
                master: Some(AggregatorAddr(7)),
            },
            Packet::RegistrationAccept {
                device: DeviceId(1),
                address: AggregatorAddr(7),
                membership: MembershipKind::Master,
                slot: 3,
            },
            Packet::RegistrationAccept {
                device: DeviceId(1),
                address: AggregatorAddr(9),
                membership: MembershipKind::Temporary,
                slot: 12,
            },
            Packet::RegistrationReject {
                device: DeviceId(2),
                reason: RejectReason::NoFreeSlots,
            },
            Packet::RegistrationReject {
                device: DeviceId(2),
                reason: RejectReason::MasterVerificationFailed,
            },
            Packet::ConsumptionReport {
                device: DeviceId(3),
                master: Some(AggregatorAddr(1)),
                records: vec![sample_record(0), sample_record(1), sample_record(2)],
            },
            Packet::ConsumptionReport {
                device: DeviceId(3),
                master: None,
                records: vec![],
            },
            Packet::Ack {
                device: DeviceId(3),
                through_sequence: 42,
            },
            Packet::Nack {
                device: DeviceId(3),
            },
            Packet::MembershipVerifyRequest {
                device: DeviceId(4),
                master: AggregatorAddr(1),
                requester: AggregatorAddr(2),
            },
            Packet::MembershipVerifyResponse {
                device: DeviceId(4),
                accepted: true,
            },
            Packet::ForwardedConsumption {
                device: DeviceId(4),
                collector: AggregatorAddr(2),
                records: vec![sample_record(5)],
            },
            Packet::TransferMembership {
                device: DeviceId(5),
                new_master: AggregatorAddr(3),
            },
            Packet::RemoveDevice {
                device: DeviceId(6),
            },
            Packet::Telegram {
                device: DeviceId(7),
                codec: 2,
                payload: Bytes::from(vec![0x1B, 0x1B, 0x1B, 0x1B, 0x01, 0x01, 0x01, 0x01]),
            },
            Packet::Telegram {
                device: DeviceId(7),
                codec: 1,
                payload: Bytes::new(),
            },
        ]
    }

    #[test]
    fn round_trip_all_packet_kinds() {
        for packet in all_packets() {
            let encoded = packet.encode();
            let decoded = Packet::decode(&encoded).expect("decode");
            assert_eq!(decoded, packet, "round trip failed for {packet:?}");
        }
    }

    #[test]
    fn every_packet_names_its_device() {
        for packet in all_packets() {
            assert!(packet.device().is_some());
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let bytes = Bytes::from_static(&[0xFF, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(Packet::decode(&bytes), Err(DecodeError::UnknownTag(0xFF)));
    }

    #[test]
    fn decode_rejects_empty_buffer() {
        let bytes = Bytes::new();
        assert!(matches!(
            Packet::decode(&bytes),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_rejects_truncated_body() {
        let full = Packet::Ack {
            device: DeviceId(1),
            through_sequence: 7,
        }
        .encode();
        let truncated = full.slice(0..full.len() - 3);
        assert!(matches!(
            Packet::decode(&truncated),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_rejects_bad_record_count() {
        // Report header claiming 100 records but carrying none.
        let mut buf = BytesMut::new();
        buf.put_u8(0x04);
        buf.put_u64_le(1);
        buf.put_u32_le(NO_ADDR);
        buf.put_u16_le(100);
        let bytes = buf.freeze();
        assert!(matches!(
            Packet::decode(&bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn decode_rejects_bad_telegram_length() {
        // Telegram envelope declaring 50 payload bytes but carrying 2.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_TELEGRAM);
        buf.put_u64_le(7);
        buf.put_u8(3);
        buf.put_u32_le(50);
        buf.put_slice(&[0xAA, 0xBB]);
        let bytes = buf.freeze();
        assert!(matches!(
            Packet::decode(&bytes),
            Err(DecodeError::BadLength { .. })
        ));
    }

    #[test]
    fn record_helpers_convert_units() {
        let r = sample_record(0);
        assert!((r.mean_current_ma() - 152.3).abs() < 1e-9);
        assert!((r.charge_mas() - 15.23).abs() < 1e-9);
        assert!((r.interval_secs() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn canonical_bytes_are_stable_and_unique_per_record() {
        let a = sample_record(0);
        let b = sample_record(1);
        assert_eq!(a.canonical_bytes(), a.canonical_bytes());
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.canonical_bytes().len(), MeasurementRecord::ENCODED_LEN);
    }

    #[test]
    fn display_of_ids_is_compact() {
        assert_eq!(DeviceId(7).to_string(), "dev-0007");
        assert_eq!(AggregatorAddr(2).to_string(), "agg-002");
        assert!(RejectReason::Blocked.to_string().contains("blocked"));
    }

    #[test]
    fn decode_error_display_mentions_cause() {
        let err = DecodeError::Truncated {
            needed: 10,
            available: 2,
        };
        assert!(err.to_string().contains("truncated"));
        assert!(DecodeError::UnknownTag(3).to_string().contains("unknown"));
        let bad = DecodeError::BadLength {
            declared: 100,
            remaining: 4,
        };
        assert!(bad.to_string().contains("length"));
    }
}
