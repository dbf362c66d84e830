//! Metrics extracted from a simulated run.
//!
//! The evaluation needs three kinds of numbers: the per-window comparison of
//! device-reported consumption against the aggregator's own measurement
//! (Fig. 5), the mobility trace and Thandshake statistics (Fig. 6 and the
//! text of §III-B), and general health counters (blocks sealed, anomalies,
//! Nacks) used by the extended experiments.

use crate::simulation::World;
use rtem_device::network_mgmt::HandshakeBreakdown;
use rtem_net::packet::{AggregatorAddr, DeviceId};
use rtem_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One verification window of the Fig. 5 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyWindow {
    /// Window index (0-based).
    pub index: usize,
    /// Start of the window.
    pub start: SimTime,
    /// Charge reported by each device in the window, in mA·s.
    pub per_device_mas: BTreeMap<u64, f64>,
    /// Sum of the device-reported charge, in mA·s.
    pub devices_total_mas: f64,
    /// Charge measured by the aggregator's own meter over the window, mA·s.
    pub aggregator_mas: f64,
}

impl AccuracyWindow {
    /// Relative excess of the aggregator measurement over the device sum, in
    /// percent (the paper reports 0.9–8.2 %).
    pub fn overhead_percent(&self) -> f64 {
        if self.devices_total_mas <= f64::EPSILON {
            0.0
        } else {
            (self.aggregator_mas - self.devices_total_mas) / self.devices_total_mas * 100.0
        }
    }
}

/// Computes the Fig. 5 windows for one network: device-reported charge
/// (from the ledger) versus the aggregator's own integrated measurement.
pub fn accuracy_windows(
    world: &World,
    network: AggregatorAddr,
    window: SimDuration,
    horizon: SimTime,
) -> Vec<AccuracyWindow> {
    accuracy_windows_from(world, network, window, 0, horizon)
}

/// Like [`accuracy_windows`], but starting at window index `first_index` —
/// the building block for callers that extend a cached prefix incrementally
/// instead of recomputing the whole history (e.g. live progress snapshots).
pub fn accuracy_windows_from(
    world: &World,
    network: AggregatorAddr,
    window: SimDuration,
    first_index: usize,
    horizon: SimTime,
) -> Vec<AccuracyWindow> {
    let Some(aggregator) = world.aggregator(network) else {
        return Vec::new();
    };
    let entries = aggregator.ledger().all_entries();
    let series = aggregator.network_series();

    // How many whole windows fit between `first_index` and the horizon.
    let first_start = SimTime::ZERO + window * first_index as u64;
    let mut count = 0usize;
    while first_start + window * (count as u64 + 1) <= horizon {
        count += 1;
    }
    if count == 0 {
        return Vec::new();
    }

    // Bucket the ledger entries by window in one pass instead of rescanning
    // the whole ledger once per window (windows and entries both grow with
    // the run, so the rescan was quadratic in the horizon). Entry order —
    // and therefore floating-point accumulation order — per (window,
    // device) bucket is unchanged.
    //
    // Under a bounded retention policy the aggregator evicted old ledger
    // blocks, folding their entries into sealed per-window accumulators in
    // the same commit order a full scan would have used — seed each bucket
    // from those, then fold the resident entries on top. Keep-all runs have
    // no sealed state and start from empty buckets as before.
    let window_us = window.as_micros();
    let mut per_window: Vec<BTreeMap<u64, f64>> = (0..count)
        .map(|bucket| {
            aggregator
                .sealed_accuracy_per_device((first_index + bucket) as u64)
                .cloned()
                .unwrap_or_default()
        })
        .collect();
    for entry in &entries {
        if entry.interval_end_us < first_start.as_micros() {
            continue;
        }
        let bucket = ((entry.interval_end_us - first_start.as_micros()) / window_us) as usize;
        if let Some(per_device) = per_window.get_mut(bucket) {
            *per_device.entry(entry.device_id).or_default() += entry.charge_mas();
        }
    }

    let mut windows = Vec::with_capacity(count);
    let mut start = first_start;
    for (offset, per_device) in per_window.into_iter().enumerate() {
        let end = start + window;
        let devices_total: f64 = per_device.values().sum();
        // Windows whose series samples were pruned carry a pre-integrated
        // charge sealed before the samples were dropped; live windows
        // integrate the resident samples exactly as before.
        let aggregator_mas = aggregator
            .sealed_window_mas((first_index + offset) as u64)
            .unwrap_or_else(|| series.window(start, end).integrate());
        windows.push(AccuracyWindow {
            index: first_index + offset,
            start,
            per_device_mas: per_device,
            devices_total_mas: devices_total,
            aggregator_mas,
        });
        start = end;
    }
    windows
}

/// Summary statistics over a set of handshake durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandshakeStats {
    /// Number of handshakes measured.
    pub count: usize,
    /// Mean duration in seconds.
    pub mean_s: f64,
    /// Minimum duration in seconds.
    pub min_s: f64,
    /// Maximum duration in seconds.
    pub max_s: f64,
    /// Population standard deviation in seconds.
    pub std_dev_s: f64,
}

impl HandshakeStats {
    /// Computes statistics from individual handshake breakdowns.
    pub fn from_breakdowns(breakdowns: &[HandshakeBreakdown]) -> Option<HandshakeStats> {
        if breakdowns.is_empty() {
            return None;
        }
        let durations: Vec<f64> = breakdowns.iter().map(|b| b.total().as_secs_f64()).collect();
        Some(HandshakeStats::from_durations(&durations))
    }

    /// Computes statistics from raw durations in seconds.
    pub fn from_durations(durations: &[f64]) -> HandshakeStats {
        let count = durations.len();
        let mean = durations.iter().sum::<f64>() / count as f64;
        let min = durations.iter().copied().fold(f64::INFINITY, f64::min);
        let max = durations.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let var = durations.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / count as f64;
        HandshakeStats {
            count,
            mean_s: mean,
            min_s: min,
            max_s: max,
            std_dev_s: var.sqrt(),
        }
    }
}

/// Per-network summary of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSummary {
    /// The network's aggregator.
    pub network: AggregatorAddr,
    /// Devices currently registered (master + temporary).
    pub members: usize,
    /// Reports accepted.
    pub reports_accepted: u64,
    /// Nacks sent to non-members.
    pub nacks_sent: u64,
    /// Blocks sealed in the ledger.
    pub blocks: usize,
    /// Ledger entries committed.
    pub ledger_entries: usize,
    /// Anomalous verification windows.
    pub anomalous_windows: u64,
    /// Mean of the aggregator's own network measurement, mA.
    pub mean_network_current_ma: f64,
}

/// Whole-world summary of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldMetrics {
    /// Simulated time at collection.
    pub now: SimTime,
    /// Per-network summaries.
    pub networks: Vec<NetworkSummary>,
    /// Handshake timing of every device that completed at least one.
    pub handshakes: BTreeMap<u64, HandshakeBreakdown>,
}

impl WorldMetrics {
    /// Collects the metrics from a world.
    pub fn collect(world: &World) -> WorldMetrics {
        let networks = world
            .networks()
            .filter_map(|addr| {
                let agg = world.aggregator(addr)?;
                Some(NetworkSummary {
                    network: addr,
                    members: agg.registry().len(),
                    reports_accepted: agg.reports_accepted(),
                    nacks_sent: agg.nacks_sent(),
                    blocks: agg.ledger().chain().len(),
                    ledger_entries: agg.ledger().chain().total_records(),
                    anomalous_windows: agg.verdicts().iter().filter(|v| v.anomalous).count() as u64,
                    mean_network_current_ma: agg.network_series().stats().mean,
                })
            })
            .collect();
        let handshakes = world
            .devices()
            .filter_map(|(id, device)| device.last_handshake().map(|h| (id.0, h)))
            .collect();
        WorldMetrics {
            now: world.now(),
            networks,
            handshakes,
        }
    }

    /// Thandshake statistics over every completed handshake in the world.
    pub fn handshake_stats(&self) -> Option<HandshakeStats> {
        let breakdowns: Vec<HandshakeBreakdown> = self.handshakes.values().copied().collect();
        HandshakeStats::from_breakdowns(&breakdowns)
    }

    /// The summary for one network.
    pub fn network(&self, addr: AggregatorAddr) -> Option<&NetworkSummary> {
        self.networks.iter().find(|n| n.network == addr)
    }

    /// Total ledger entries across all networks.
    pub fn total_ledger_entries(&self) -> usize {
        self.networks.iter().map(|n| n.ledger_entries).sum()
    }
}

/// Per-device consumption trace seen by one aggregator, in a plottable form
/// (the data behind Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceTrace {
    /// The device.
    pub device: DeviceId,
    /// The aggregator whose view this is.
    pub network: AggregatorAddr,
    /// `(time_s, current_ma)` samples in arrival order.
    pub points: Vec<(f64, f64)>,
}

/// Extracts the consumption trace of `device` as seen by `network`.
pub fn device_trace(
    world: &World,
    network: AggregatorAddr,
    device: DeviceId,
) -> Option<DeviceTrace> {
    let aggregator = world.aggregator(network)?;
    let series = aggregator.device_series(device)?;
    Some(DeviceTrace {
        device,
        network,
        points: series.iter().map(|(t, v)| (t.as_secs_f64(), v)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::time::SimDuration;

    #[test]
    fn handshake_stats_from_durations() {
        let stats = HandshakeStats::from_durations(&[5.5, 6.0, 6.5]);
        assert_eq!(stats.count, 3);
        assert!((stats.mean_s - 6.0).abs() < 1e-9);
        assert_eq!(stats.min_s, 5.5);
        assert_eq!(stats.max_s, 6.5);
        assert!(stats.std_dev_s > 0.0);
    }

    #[test]
    fn handshake_stats_empty_is_none() {
        assert!(HandshakeStats::from_breakdowns(&[]).is_none());
    }

    #[test]
    fn overhead_percent_handles_zero_reported() {
        let w = AccuracyWindow {
            index: 0,
            start: SimTime::ZERO,
            per_device_mas: BTreeMap::new(),
            devices_total_mas: 0.0,
            aggregator_mas: 5.0,
        };
        assert_eq!(w.overhead_percent(), 0.0);
    }

    #[test]
    fn overhead_percent_matches_definition() {
        let w = AccuracyWindow {
            index: 0,
            start: SimTime::ZERO,
            per_device_mas: BTreeMap::from([(1, 100.0), (2, 100.0)]),
            devices_total_mas: 200.0,
            aggregator_mas: 210.0,
        };
        assert!((w.overhead_percent() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn handshake_breakdown_total_is_sum_of_phases() {
        let b = HandshakeBreakdown {
            scan: SimDuration::from_millis(3200),
            association: SimDuration::from_millis(1700),
            broker_connect: SimDuration::from_millis(950),
            registration: SimDuration::from_millis(150),
            membership: rtem_net::packet::MembershipKind::Temporary,
        };
        assert_eq!(b.total(), SimDuration::from_millis(6000));
        let stats = HandshakeStats::from_breakdowns(&[b]).unwrap();
        assert!((stats.mean_s - 6.0).abs() < 1e-9);
    }
}
