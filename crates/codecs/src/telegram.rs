//! The protocol-neutral telegram model and the typed codec error.

use rtem_net::packet::{AggregatorAddr, DeviceId, MeasurementRecord};
use std::fmt;

/// Which meter protocol family a device speaks on its access link.
///
/// `Internal` is the simulator's native binary packet format — the default,
/// preserving byte-identical behavior with every earlier revision of the
/// testbed. The other four kinds route consumption reports through the
/// corresponding encoder before transmission and the parser on the
/// aggregator side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MeterKind {
    /// The simulator's native record encoding; no telegram framing.
    Internal,
    /// IEC 62056-21 Mode C/D ASCII telegram with OBIS data lines and BCC.
    Iec62056,
    /// Smart Message Language binary TL-field lists with CRC-16/X-25.
    Sml,
    /// Modbus RTU function-0x03 register frames with CRC-16/MODBUS.
    ModbusRtu,
    /// OMS / wireless M-Bus frame format A with per-block CRC-16/EN-13757.
    WirelessMbus,
}

impl MeterKind {
    /// Every kind, `Internal` first.
    pub const ALL: [MeterKind; 5] = [
        MeterKind::Internal,
        MeterKind::Iec62056,
        MeterKind::Sml,
        MeterKind::ModbusRtu,
        MeterKind::WirelessMbus,
    ];

    /// The four real protocol families (everything but `Internal`).
    pub const REAL: [MeterKind; 4] = [
        MeterKind::Iec62056,
        MeterKind::Sml,
        MeterKind::ModbusRtu,
        MeterKind::WirelessMbus,
    ];

    /// Stable one-byte discriminant used in the transport envelope.
    pub fn code(self) -> u8 {
        match self {
            MeterKind::Internal => 0,
            MeterKind::Iec62056 => 1,
            MeterKind::Sml => 2,
            MeterKind::ModbusRtu => 3,
            MeterKind::WirelessMbus => 4,
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: u8) -> Option<MeterKind> {
        MeterKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Short lowercase label, stable for bench CSV/JSON columns.
    pub fn label(self) -> &'static str {
        match self {
            MeterKind::Internal => "internal",
            MeterKind::Iec62056 => "iec62056",
            MeterKind::Sml => "sml",
            MeterKind::ModbusRtu => "modbus_rtu",
            MeterKind::WirelessMbus => "wmbus",
        }
    }
}

impl fmt::Display for MeterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One consumption report in protocol-neutral form: the batch of
/// measurement records a device pushes upstream, addressed to its current
/// collector.
#[derive(Debug, Clone, PartialEq)]
pub struct Telegram {
    /// The reporting device.
    pub device: DeviceId,
    /// The collector the report is addressed to, when the device knows it.
    pub master: Option<AggregatorAddr>,
    /// The buffered measurement records, oldest first.
    pub records: Vec<MeasurementRecord>,
}

impl Telegram {
    /// Assembles a telegram.
    pub fn new(
        device: DeviceId,
        master: Option<AggregatorAddr>,
        records: Vec<MeasurementRecord>,
    ) -> Self {
        Telegram {
            device,
            master,
            records,
        }
    }
}

/// Why a telegram failed to parse, by failure layer.
///
/// The three variants are ordered by how much of the frame the parser got
/// through: `Framing` means the structure broke before a checksum could be
/// located, `Checksum` means the frame was structurally whole but its block
/// check failed, and `Semantic` means every checksum passed yet the content
/// is inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Frame structure is broken (bad start/stop bytes, truncated frame,
    /// impossible length field); no checksum could be verified.
    Framing(&'static str),
    /// A block check (BCC or CRC-16) did not match the received bytes.
    Checksum {
        /// The checksum recomputed over the received frame.
        expected: u16,
        /// The checksum carried in the frame.
        found: u16,
    },
    /// The frame and its checksums are intact but the decoded content is
    /// inconsistent (field counts, record counts, cross-frame identity).
    Semantic(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Framing(detail) => write!(f, "framing error: {detail}"),
            CodecError::Checksum { expected, found } => write!(
                f,
                "checksum mismatch: computed {expected:#06x}, frame carries {found:#06x}"
            ),
            CodecError::Semantic(detail) => write!(f, "semantic error: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The payload-free classification of a [`CodecError`] — what telemetry
/// tables count by, without carrying each error's detail string or checksum
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecErrorKind {
    /// Frame structure broken before any checksum could be verified.
    Framing,
    /// Block check (BCC or CRC-16) mismatch.
    Checksum,
    /// Structurally intact frame with inconsistent content.
    Semantic,
}

impl CodecErrorKind {
    /// Number of kinds.
    pub const COUNT: usize = 3;

    /// Every kind, in [`index`](CodecErrorKind::index) order.
    pub const ALL: [CodecErrorKind; CodecErrorKind::COUNT] = [
        CodecErrorKind::Framing,
        CodecErrorKind::Checksum,
        CodecErrorKind::Semantic,
    ];

    /// Dense index into [`ALL`](CodecErrorKind::ALL), usable as a table
    /// column.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label.
    pub const fn label(self) -> &'static str {
        match self {
            CodecErrorKind::Framing => "framing",
            CodecErrorKind::Checksum => "checksum",
            CodecErrorKind::Semantic => "semantic",
        }
    }
}

impl fmt::Display for CodecErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl CodecError {
    /// This error's payload-free [`CodecErrorKind`].
    pub const fn kind(&self) -> CodecErrorKind {
        match self {
            CodecError::Framing(_) => CodecErrorKind::Framing,
            CodecError::Checksum { .. } => CodecErrorKind::Checksum,
            CodecError::Semantic(_) => CodecErrorKind::Semantic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_internal_is_zero() {
        assert_eq!(MeterKind::Internal.code(), 0);
        for kind in MeterKind::ALL {
            assert_eq!(MeterKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(MeterKind::from_code(200), None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<&str> =
            MeterKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), MeterKind::ALL.len());
    }

    #[test]
    fn errors_render_their_layer() {
        assert!(CodecError::Framing("x").to_string().contains("framing"));
        assert!(CodecError::Checksum {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("checksum"));
        assert!(CodecError::Semantic("x").to_string().contains("semantic"));
    }
}
