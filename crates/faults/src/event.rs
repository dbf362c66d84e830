//! The schedulable fault events and their lifecycle records.
//!
//! A [`FaultEvent`] is one injectable condition with an absolute injection
//! time and, for the non-instantaneous families, a clear time. The world
//! maintains one [`FaultRecord`] per scheduled event, tracking when it was
//! actually injected, cleared and — crucially — *detected*, and by which
//! [`DetectionSignal`]. Detection latency is the distance between the first
//! two of those timestamps and the last.

use core::fmt;
use rtem_net::link::LinkConfig;
use rtem_net::packet::{AggregatorAddr, DeviceId};
use rtem_sensors::fault::SensorFaultKind;
use rtem_sim::time::{SimDuration, SimTime};

/// The seven fault families the subsystem can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultFamily {
    /// A device's sensor misbehaves (stuck-at, drift, spikes).
    Sensor,
    /// A committed ledger record is forged in place (storage tampering).
    Tamper,
    /// A burst of link degradation (loss / latency ramp) on access or
    /// backhaul links.
    Link,
    /// A device's firmware crashes, losing in-flight state, then restarts.
    Crash,
    /// An aggregator goes dark, optionally failing its devices over to a
    /// backup network.
    Outage,
    /// A fraction of a network's devices vote byzantine in the device-level
    /// consensus extension.
    Byzantine,
    /// A device's outgoing meter telegrams are corrupted on the wire
    /// (bit flips, truncation, field mangling at the codec boundary).
    Corruption,
}

impl fmt::Display for FaultFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultFamily::Sensor => "sensor",
            FaultFamily::Tamper => "tamper",
            FaultFamily::Link => "link",
            FaultFamily::Crash => "crash",
            FaultFamily::Outage => "outage",
            FaultFamily::Byzantine => "byzantine",
            FaultFamily::Corruption => "corruption",
        };
        write!(f, "{name}")
    }
}

/// How a [`FaultEvent::TelegramCorruption`] fault mangles each telegram.
///
/// The corruption is applied to the encoded telegram bytes just before
/// transmission, from a seeded per-fault random stream, so a corrupted run
/// is exactly as reproducible as a clean one. Checksummed meter codecs
/// reject the damage with a typed parse error at the aggregator; the
/// internal record format has no checksum, so the same fault silently
/// lands wrong values in the ledger instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Flip `flips` random payload bits per telegram.
    BitFlip {
        /// Bits flipped per telegram (at least 1 to have any effect).
        flips: u8,
    },
    /// Cut the telegram off at a random point.
    Truncate,
    /// Overwrite a random span of the telegram with random bytes.
    MangleField,
}

impl fmt::Display for CorruptionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionMode::BitFlip { flips } => write!(f, "bitflip x{flips}"),
            CorruptionMode::Truncate => write!(f, "truncate"),
            CorruptionMode::MangleField => write!(f, "mangle"),
        }
    }
}

/// Which links a [`FaultEvent::LinkDegrade`] burst hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTarget {
    /// The device access links (Wi-Fi to the broker); `network` restricts
    /// the burst to the devices currently in one network, `None` hits all.
    Wifi {
        /// Restrict the burst to one network's devices.
        network: Option<AggregatorAddr>,
    },
    /// Every aggregator-to-aggregator backhaul link.
    Backhaul,
}

/// One schedulable fault.
///
/// Events are plain data; the world interprets them at their injection time.
/// Families with a natural duration carry an explicit clear time so a plan
/// reads like a timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// `device`'s sensor starts misbehaving at `at`; heals at `until`
    /// (`None` = never heals within the run).
    SensorFault {
        /// Injection time.
        at: SimTime,
        /// Heal time, if the fault is transient.
        until: Option<SimTime>,
        /// The affected device.
        device: DeviceId,
        /// The failure shape.
        kind: SensorFaultKind,
    },
    /// A committed record in `network`'s ledger is forged in place at `at`
    /// (the §II-A storage-tampering attack). Instantaneous: once forged, the
    /// damage persists until the audit catches it. If no record has been
    /// committed yet the forgery is applied to the first block sealed with
    /// records after `at`.
    MeterTamper {
        /// Injection time.
        at: SimTime,
        /// The network whose ledger is attacked.
        network: AggregatorAddr,
    },
    /// The targeted links degrade to `degraded` between `at` and `until`,
    /// then recover their previous configuration (offered/lost counters are
    /// preserved across both transitions).
    LinkDegrade {
        /// Burst start.
        at: SimTime,
        /// Burst end.
        until: SimTime,
        /// Which links degrade.
        target: LinkTarget,
        /// The degraded link quality during the burst.
        degraded: LinkConfig,
    },
    /// `device`'s firmware crashes at `at` — unacknowledged buffered records
    /// and registration state are lost, reporting stops (the electrical load
    /// keeps drawing) — and reboots at `restart_at`.
    DeviceCrash {
        /// Crash time.
        at: SimTime,
        /// Reboot time.
        restart_at: SimTime,
        /// The crashing device.
        device: DeviceId,
    },
    /// `network`'s aggregator goes dark between `at` and `until`: it stops
    /// sampling, sealing and acknowledging, and backhaul traffic addressed
    /// to it is queued for recovery. With `failover`, the devices currently
    /// in the network are re-plugged into the backup network for the
    /// duration, and a membership replica answers verification requests on
    /// the dark aggregator's behalf.
    AggregatorOutage {
        /// Outage start.
        at: SimTime,
        /// Recovery time.
        until: SimTime,
        /// The failing network.
        network: AggregatorAddr,
        /// Backup network adopting the devices for the duration, if any.
        failover: Option<AggregatorAddr>,
    },
    /// Between `at` and `until`, `voters` of `network`'s devices collude
    /// byzantinely in the device-level consensus extension: at each
    /// verification window one of them proposes a forged block and they
    /// approve it while honest validators reject. The forgery commits only
    /// if the byzantine voters alone reach quorum.
    ByzantineVoters {
        /// Collusion start.
        at: SimTime,
        /// Collusion end.
        until: SimTime,
        /// The network whose devices form the validator set.
        network: AggregatorAddr,
        /// Number of colluding (byzantine) validators.
        voters: u32,
    },
    /// Between `at` and `until`, each consumption telegram `device`
    /// transmits is corrupted per `mode` with probability `per_mille`/1000
    /// (seeded, deterministic). Detection happens when the aggregator-side
    /// codec rejects a malformed frame; devices speaking the internal
    /// format are silently mis-metered instead.
    TelegramCorruption {
        /// Corruption window start.
        at: SimTime,
        /// Corruption window end.
        until: SimTime,
        /// The device whose uplink is corrupted.
        device: DeviceId,
        /// The damage applied to each affected telegram.
        mode: CorruptionMode,
        /// Per-telegram corruption probability in thousandths (0–1000).
        per_mille: u16,
    },
}

impl FaultEvent {
    /// The injection time.
    pub fn at(&self) -> SimTime {
        match *self {
            FaultEvent::SensorFault { at, .. }
            | FaultEvent::MeterTamper { at, .. }
            | FaultEvent::LinkDegrade { at, .. }
            | FaultEvent::DeviceCrash { at, .. }
            | FaultEvent::AggregatorOutage { at, .. }
            | FaultEvent::ByzantineVoters { at, .. }
            | FaultEvent::TelegramCorruption { at, .. } => at,
        }
    }

    /// The clear time, for the families that have one.
    pub fn clears_at(&self) -> Option<SimTime> {
        match *self {
            FaultEvent::SensorFault { until, .. } => until,
            FaultEvent::MeterTamper { .. } => None,
            FaultEvent::LinkDegrade { until, .. } => Some(until),
            FaultEvent::DeviceCrash { restart_at, .. } => Some(restart_at),
            FaultEvent::AggregatorOutage { until, .. } => Some(until),
            FaultEvent::ByzantineVoters { until, .. } => Some(until),
            FaultEvent::TelegramCorruption { until, .. } => Some(until),
        }
    }

    /// The family the event belongs to.
    pub fn family(&self) -> FaultFamily {
        match self {
            FaultEvent::SensorFault { .. } => FaultFamily::Sensor,
            FaultEvent::MeterTamper { .. } => FaultFamily::Tamper,
            FaultEvent::LinkDegrade { .. } => FaultFamily::Link,
            FaultEvent::DeviceCrash { .. } => FaultFamily::Crash,
            FaultEvent::AggregatorOutage { .. } => FaultFamily::Outage,
            FaultEvent::ByzantineVoters { .. } => FaultFamily::Byzantine,
            FaultEvent::TelegramCorruption { .. } => FaultFamily::Corruption,
        }
    }

    /// The device the event targets, for the device-scoped families.
    pub fn device(&self) -> Option<DeviceId> {
        match *self {
            FaultEvent::SensorFault { device, .. }
            | FaultEvent::DeviceCrash { device, .. }
            | FaultEvent::TelegramCorruption { device, .. } => Some(device),
            _ => None,
        }
    }

    /// The network the event targets, for the network-scoped families.
    pub fn network(&self) -> Option<AggregatorAddr> {
        match *self {
            FaultEvent::MeterTamper { network, .. }
            | FaultEvent::AggregatorOutage { network, .. }
            | FaultEvent::ByzantineVoters { network, .. } => Some(network),
            FaultEvent::LinkDegrade {
                target: LinkTarget::Wifi { network },
                ..
            } => network,
            _ => None,
        }
    }
}

/// The observable evidence by which an injected fault was recognized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionSignal {
    /// The aggregator's complementary system-level measurement disagreed
    /// with the devices' reported sum (a `WindowVerdict` flagged anomalous).
    AnomalousWindow,
    /// The hash-chain audit localized an inconsistency.
    ChainAudit {
        /// Height of the flagged block.
        block_index: u64,
    },
    /// The device-level consensus round rejected a forged proposal.
    ConsensusRejected {
        /// Rejections collected when the round died.
        rejections: usize,
    },
    /// The first block sealed after a recovery contained records backfilled
    /// from device-local storage — evidence that an outage happened and that
    /// the consumption data collected during it survived.
    RecoveryBackfill {
        /// Number of backfilled records in the recovery block.
        records: usize,
    },
    /// The aggregator-side meter codec rejected a malformed telegram with a
    /// typed parse error — only possible for checksummed meter protocols;
    /// the internal record format misses the same corruption silently.
    TelegramRejected {
        /// Codec discriminant of the rejected telegram's meter protocol.
        codec: u8,
    },
    /// Per-link delivery accounting flagged a loss rate far above the
    /// medium's ambient expectation at window seal — the signature of a
    /// degradation burst whose drops the QoS retries otherwise absorb
    /// without ever producing an anomalous verification window.
    LinkDegraded {
        /// Packets lost on the watched links since the burst began.
        lost: u64,
        /// Packets offered to the watched links since the burst began.
        offered: u64,
    },
    /// Peer aggregators cross-checked a quorum-committed block at window
    /// seal and refused to vouch for its records — the signature of a
    /// colluding byzantine quorum whose forgery no honest validator inside
    /// the network could reject.
    LedgerCrossCheck {
        /// Peer aggregators that flagged the committed records as forged.
        peers: usize,
    },
}

/// Lifecycle record of one scheduled fault, maintained by the world.
///
/// `id` is the index the world assigned at scheduling time; `injected_at`
/// is set when the fault actually takes effect (for [`FaultEvent::MeterTamper`]
/// this can be later than the scheduled time if no record was committed yet).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    /// Index assigned when the fault was scheduled.
    pub id: usize,
    /// The fault's family.
    pub family: FaultFamily,
    /// When injection was scheduled.
    pub scheduled_at: SimTime,
    /// When the fault actually took effect, if it did.
    pub injected_at: Option<SimTime>,
    /// When the fault was cleared / healed, if it was.
    pub cleared_at: Option<SimTime>,
    /// When the system first recognized the fault, if it did.
    pub detected_at: Option<SimTime>,
    /// The evidence that triggered detection.
    pub signal: Option<DetectionSignal>,
    /// For tamper faults: the height of the forged block.
    pub tampered_block: Option<u64>,
}

impl FaultRecord {
    /// Creates the pre-injection record for a scheduled event.
    pub fn scheduled(id: usize, event: &FaultEvent) -> FaultRecord {
        FaultRecord {
            id,
            family: event.family(),
            scheduled_at: event.at(),
            injected_at: None,
            cleared_at: None,
            detected_at: None,
            signal: None,
            tampered_block: None,
        }
    }

    /// `true` once the fault has taken effect.
    pub fn injected(&self) -> bool {
        self.injected_at.is_some()
    }

    /// `true` once the system recognized the fault.
    pub fn detected(&self) -> bool {
        self.detected_at.is_some()
    }

    /// Time from injection to detection, if both happened.
    pub fn detection_latency(&self) -> Option<SimDuration> {
        match (self.injected_at, self.detected_at) {
            (Some(injected), Some(detected)) => Some(detected.saturating_duration_since(injected)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash() -> FaultEvent {
        FaultEvent::DeviceCrash {
            at: SimTime::from_secs(10),
            restart_at: SimTime::from_secs(20),
            device: DeviceId(3),
        }
    }

    #[test]
    fn accessors_cover_every_family() {
        let sensor = FaultEvent::SensorFault {
            at: SimTime::from_secs(1),
            until: None,
            device: DeviceId(1),
            kind: SensorFaultKind::StuckAt { level_ma: 5.0 },
        };
        assert_eq!(sensor.family(), FaultFamily::Sensor);
        assert_eq!(sensor.device(), Some(DeviceId(1)));
        assert_eq!(sensor.network(), None);
        assert_eq!(sensor.clears_at(), None);

        let tamper = FaultEvent::MeterTamper {
            at: SimTime::from_secs(2),
            network: AggregatorAddr(1),
        };
        assert_eq!(tamper.family(), FaultFamily::Tamper);
        assert_eq!(tamper.network(), Some(AggregatorAddr(1)));
        assert_eq!(tamper.clears_at(), None);

        let crash = crash();
        assert_eq!(crash.family(), FaultFamily::Crash);
        assert_eq!(crash.clears_at(), Some(SimTime::from_secs(20)));

        let link = FaultEvent::LinkDegrade {
            at: SimTime::from_secs(3),
            until: SimTime::from_secs(6),
            target: LinkTarget::Wifi {
                network: Some(AggregatorAddr(2)),
            },
            degraded: LinkConfig::wifi(),
        };
        assert_eq!(link.family(), FaultFamily::Link);
        assert_eq!(link.network(), Some(AggregatorAddr(2)));

        let outage = FaultEvent::AggregatorOutage {
            at: SimTime::from_secs(4),
            until: SimTime::from_secs(8),
            network: AggregatorAddr(1),
            failover: Some(AggregatorAddr(2)),
        };
        assert_eq!(outage.family(), FaultFamily::Outage);

        let byz = FaultEvent::ByzantineVoters {
            at: SimTime::from_secs(5),
            until: SimTime::from_secs(9),
            network: AggregatorAddr(1),
            voters: 2,
        };
        assert_eq!(byz.family(), FaultFamily::Byzantine);
        assert_eq!(format!("{}", byz.family()), "byzantine");

        let corruption = FaultEvent::TelegramCorruption {
            at: SimTime::from_secs(6),
            until: SimTime::from_secs(12),
            device: DeviceId(2),
            mode: CorruptionMode::BitFlip { flips: 3 },
            per_mille: 1000,
        };
        assert_eq!(corruption.family(), FaultFamily::Corruption);
        assert_eq!(corruption.device(), Some(DeviceId(2)));
        assert_eq!(corruption.network(), None);
        assert_eq!(corruption.clears_at(), Some(SimTime::from_secs(12)));
        assert_eq!(format!("{}", corruption.family()), "corruption");
        assert_eq!(
            format!("{}", CorruptionMode::BitFlip { flips: 3 }),
            "bitflip x3"
        );
    }

    #[test]
    fn record_latency_needs_injection_and_detection() {
        let mut record = FaultRecord::scheduled(0, &crash());
        assert!(!record.injected());
        assert!(!record.detected());
        assert_eq!(record.detection_latency(), None);
        record.injected_at = Some(SimTime::from_secs(10));
        record.detected_at = Some(SimTime::from_secs(25));
        assert_eq!(record.detection_latency(), Some(SimDuration::from_secs(15)));
    }
}
