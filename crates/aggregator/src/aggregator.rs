//! The aggregator unit.
//!
//! One aggregator per network (WAN in Fig. 1). It registers devices, hands
//! out reporting slots, verifies reports against its own system-level
//! measurement, seals verified records into the permissioned hash chain,
//! liaises with other aggregators for roaming devices (temporary
//! memberships, verification, forwarding) and bills the devices whose master
//! membership it holds.

use crate::billing::{BillingEngine, CollectionOrigin, Tariff};
use crate::membership::{MembershipError, MembershipRegistry};
use crate::verify::{EntropyDetector, VerifierConfig, WindowVerdict, WindowVerifier};
use rtem_chain::ledger::{LedgerEntry, MeteringLedger};
use rtem_chain::sha256::Digest;
use rtem_net::packet::{
    AggregatorAddr, DeviceId, MeasurementRecord, MembershipKind, Packet, RejectReason,
};
use rtem_net::tdma::SlotTable;
use rtem_sensors::energy::{Milliamps, Millivolts};
use rtem_sensors::ina219::{Ina219Config, Ina219Model};
use rtem_sim::rng::SimRng;
use rtem_sim::time::{SimDuration, SimTime};
use rtem_sim::trace::TimeSeries;
use std::collections::BTreeMap;

/// Packets produced while handling an input.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct AggregatorOutput {
    /// Packets to publish to devices in this aggregator's network.
    pub to_devices: Vec<Packet>,
    /// Packets to send to other aggregators over the backhaul.
    pub to_aggregators: Vec<(AggregatorAddr, Packet)>,
}

impl AggregatorOutput {
    fn merge(&mut self, other: AggregatorOutput) {
        self.to_devices.extend(other.to_devices);
        self.to_aggregators.extend(other.to_aggregators);
    }
}

/// How much run history an aggregator keeps resident.
///
/// The default keeps everything, which is what post-hoc analysis at
/// arbitrary granularity needs and what every result before streaming
/// compaction implicitly assumed. Bounded mode caps resident state at the
/// active verification windows: older ledger blocks are sealed behind the
/// chain's [`EvictedPrefix`](rtem_chain::chain::EvictedPrefix) digest and
/// evicted, their accuracy contributions fold into sealed per-window
/// summaries, and the measurement series prune to the same horizon — all in
/// the exact float-accumulation order of a full-history scan, so the run
/// report stays bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetentionPolicy {
    /// Keep the whole run resident (the default).
    #[default]
    KeepAll,
    /// Keep the last `n` verification windows resident; seal and evict
    /// everything older. `n` is clamped to at least 2 so the previous
    /// window stays available to backfill attribution and cross-checks.
    ActiveWindows(usize),
}

impl RetentionPolicy {
    /// The horizon a window seal at `now` prunes resident history to:
    /// samples and blocks older than the returned time may go. `None` under
    /// [`KeepAll`](Self::KeepAll) and while the run is younger than the
    /// active windows. `window` is the verification-window length.
    /// [`Aggregator::compact`] and the world's device-series pruning both
    /// cut here, so every bounded store keeps the same horizon.
    pub fn cutoff(self, now: SimTime, window: SimDuration) -> Option<SimTime> {
        let RetentionPolicy::ActiveWindows(keep) = self else {
            return None;
        };
        let keep_us = window.as_micros().max(1).saturating_mul(keep.max(2) as u64);
        let cutoff_us = now.as_micros().checked_sub(keep_us)?;
        (cutoff_us > 0).then(|| SimTime::from_micros(cutoff_us))
    }
}

/// Configuration of an aggregator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatorConfig {
    /// The aggregator's backhaul address.
    pub address: AggregatorAddr,
    /// Slot table handed out to registering devices.
    pub slots: SlotTable,
    /// Verification tolerances.
    pub verifier: VerifierConfig,
    /// Sensor model for the aggregator's own system-level measurement.
    pub sensor: Ina219Config,
    /// Tariff applied to every billed record.
    pub tariff: Tariff,
}

impl AggregatorConfig {
    /// Configuration matching the paper's testbed Raspberry Pi aggregators.
    pub fn testbed(address: AggregatorAddr) -> Self {
        AggregatorConfig {
            address,
            slots: SlotTable::testbed(),
            verifier: VerifierConfig::default(),
            sensor: Ina219Config::testbed(),
            tariff: Tariff::flat(1.0),
        }
    }
}

/// The aggregator state machine.
pub struct Aggregator {
    address: AggregatorAddr,
    registry: MembershipRegistry,
    ledger: MeteringLedger,
    verifier: WindowVerifier,
    entropy: EntropyDetector,
    billing: BillingEngine,
    sensor: Ina219Model,
    pending_temporary: BTreeMap<DeviceId, AggregatorAddr>,
    /// Highest sequence processed at this aggregator, per device, across
    /// every path that stages or bills a record: direct master reports,
    /// temporary-member (collector) reports, and roaming forwards. Guards
    /// each path against the others and against itself across
    /// re-registrations: a device that missed its last ack retransmits
    /// already-processed records — at a foreign collector (whose forward
    /// would re-bill them at home), back at home (where re-registration
    /// resets `last_acked_sequence`), or at the same collector again
    /// (which would double-stage them and double-count the verification
    /// window). Device sequences are monotone for life (crashes do not
    /// reset them), and a sequence at or below this mark was either
    /// processed or cumulatively acked away, so skipping it is exact.
    processed_through: BTreeMap<DeviceId, u64>,
    // Traces for the evaluation figures.
    network_series: TimeSeries,
    reported_series: TimeSeries,
    device_series: BTreeMap<DeviceId, TimeSeries>,
    // Current verification window accumulators.
    window_reported_sum_mas: f64,
    window_measured: Vec<f64>,
    window_started_at: SimTime,
    verdicts: Vec<WindowVerdict>,
    // Streaming-compaction summaries (empty under RetentionPolicy::KeepAll).
    /// Per accuracy-window, per-device charge folded out of evicted ledger
    /// entries, in commit order — the seed the accuracy computation starts
    /// from so bounded runs reproduce full-history windows bit-exactly.
    sealed_per_device: BTreeMap<u64, BTreeMap<u64, f64>>,
    /// Pre-integrated own-measurement charge (mA·s) of fully-pruned
    /// accuracy windows, computed before the series samples were dropped.
    sealed_window_mas: BTreeMap<u64, f64>,
    /// Accuracy windows whose series samples are already sealed (next
    /// window index to pre-integrate).
    series_sealed_windows: u64,
    nacks_sent: u64,
    reports_accepted: u64,
    records_accepted: u64,
    records_duplicate_filtered: u64,
}

impl core::fmt::Debug for Aggregator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Aggregator")
            .field("address", &self.address)
            .field("members", &self.registry.len())
            .field("blocks", &self.ledger.chain().len())
            .finish()
    }
}

impl Aggregator {
    /// Creates an aggregator from its configuration.
    pub fn new(config: AggregatorConfig, rng: SimRng) -> Self {
        let mut ledger = MeteringLedger::new(config.address.0, 0);
        ledger.register_writer(config.address.0);
        Aggregator {
            address: config.address,
            registry: MembershipRegistry::new(config.slots),
            ledger,
            verifier: WindowVerifier::new(config.verifier),
            entropy: EntropyDetector::testbed(),
            billing: BillingEngine::new(config.tariff, Millivolts::usb_bus()),
            sensor: Ina219Model::new(config.sensor, rng.derive(0xA66)),
            pending_temporary: BTreeMap::new(),
            processed_through: BTreeMap::new(),
            network_series: TimeSeries::new(format!("{} network current (mA)", config.address)),
            reported_series: TimeSeries::new(format!("{} reported sum (mA)", config.address)),
            device_series: BTreeMap::new(),
            window_reported_sum_mas: 0.0,
            window_measured: Vec::new(),
            window_started_at: SimTime::ZERO,
            verdicts: Vec::new(),
            sealed_per_device: BTreeMap::new(),
            sealed_window_mas: BTreeMap::new(),
            series_sealed_windows: 0,
            nacks_sent: 0,
            reports_accepted: 0,
            records_accepted: 0,
            records_duplicate_filtered: 0,
        }
    }

    /// The aggregator's backhaul address.
    pub fn address(&self) -> AggregatorAddr {
        self.address
    }

    /// The membership registry.
    pub fn registry(&self) -> &MembershipRegistry {
        &self.registry
    }

    /// The tamper-evident ledger.
    pub fn ledger(&self) -> &MeteringLedger {
        &self.ledger
    }

    /// Mutable ledger access for the tamper-injection experiments.
    pub fn ledger_mut_for_experiment(&mut self) -> &mut MeteringLedger {
        &mut self.ledger
    }

    /// The consolidated billing engine (devices whose master membership this
    /// aggregator holds).
    pub fn billing(&self) -> &BillingEngine {
        &self.billing
    }

    /// Per-window verification verdicts so far.
    pub fn verdicts(&self) -> &[WindowVerdict] {
        &self.verdicts
    }

    /// The entropy-based per-device detector.
    pub fn entropy_detector(&self) -> &EntropyDetector {
        &self.entropy
    }

    /// Time series of the aggregator's own network-level measurements.
    pub fn network_series(&self) -> &TimeSeries {
        &self.network_series
    }

    /// Time series of the per-report device sums received.
    pub fn reported_series(&self) -> &TimeSeries {
        &self.reported_series
    }

    /// Per-device consumption series as known to this aggregator (local
    /// reports plus records forwarded from foreign networks) — the data
    /// behind Fig. 6.
    pub fn device_series(&self, device: DeviceId) -> Option<&TimeSeries> {
        self.device_series.get(&device)
    }

    /// Number of Nacks sent (reports from non-members).
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Number of consumption reports accepted.
    pub fn reports_accepted(&self) -> u64 {
        self.reports_accepted
    }

    /// Number of individual measurement records accepted (staged, billed or
    /// forwarded), after duplicate filtering, including roaming forwards
    /// billed here as the home network.
    pub fn records_accepted(&self) -> u64 {
        self.records_accepted
    }

    /// Number of individual measurement records discarded as duplicates
    /// (retransmissions below the ack watermark or the processed-through
    /// mark, locally or in a roaming forward).
    pub fn records_duplicate_filtered(&self) -> u64 {
        self.records_duplicate_filtered
    }

    /// Registers a device administratively (e.g. pre-provisioned at
    /// manufacturing time). Normal registration goes through
    /// [`handle_device_packet`](Self::handle_device_packet).
    pub fn register_master(
        &mut self,
        device: DeviceId,
        now: SimTime,
    ) -> Result<u16, MembershipError> {
        self.registry
            .register(device, MembershipKind::Master, None, now)
            .map(|m| m.slot)
    }

    /// Handles a packet published by a device in this aggregator's network.
    pub fn handle_device_packet(&mut self, packet: &Packet, now: SimTime) -> AggregatorOutput {
        match packet {
            Packet::RegistrationRequest { device, master } => {
                self.handle_registration(*device, *master, now)
            }
            Packet::ConsumptionReport {
                device,
                master,
                records,
            } => self.handle_report(*device, *master, records, now),
            _ => AggregatorOutput::default(),
        }
    }

    fn handle_registration(
        &mut self,
        device: DeviceId,
        master: Option<AggregatorAddr>,
        now: SimTime,
    ) -> AggregatorOutput {
        let mut out = AggregatorOutput::default();
        if self.registry.is_blocked(device) {
            out.to_devices.push(Packet::RegistrationReject {
                device,
                reason: RejectReason::Blocked,
            });
            return out;
        }
        match master {
            // First registration, or the device's home network is this one.
            None => {
                out.merge(self.complete_registration(device, MembershipKind::Master, None, now));
            }
            Some(home) if home == self.address => {
                out.merge(self.complete_registration(device, MembershipKind::Master, None, now));
            }
            // Roaming device: verify with its home aggregator first.
            Some(home) => {
                self.pending_temporary.insert(device, home);
                out.to_aggregators.push((
                    home,
                    Packet::MembershipVerifyRequest {
                        device,
                        master: home,
                        requester: self.address,
                    },
                ));
            }
        }
        out
    }

    fn complete_registration(
        &mut self,
        device: DeviceId,
        kind: MembershipKind,
        home: Option<AggregatorAddr>,
        now: SimTime,
    ) -> AggregatorOutput {
        let mut out = AggregatorOutput::default();
        match self.registry.register(device, kind, home, now) {
            Ok(membership) => out.to_devices.push(Packet::RegistrationAccept {
                device,
                address: self.address,
                membership: kind,
                slot: membership.slot,
            }),
            Err(MembershipError::NoFreeSlots) => out.to_devices.push(Packet::RegistrationReject {
                device,
                reason: RejectReason::NoFreeSlots,
            }),
            Err(MembershipError::Blocked(_)) => out.to_devices.push(Packet::RegistrationReject {
                device,
                reason: RejectReason::Blocked,
            }),
            Err(MembershipError::NotAMember(_)) => {}
        }
        out
    }

    fn handle_report(
        &mut self,
        device: DeviceId,
        master: Option<AggregatorAddr>,
        records: &[MeasurementRecord],
        now: SimTime,
    ) -> AggregatorOutput {
        let mut out = AggregatorOutput::default();
        let Some(membership) = self.registry.membership(device).copied() else {
            // Not a member: negative acknowledgment (Fig. 3, sequence 2).
            self.nacks_sent += 1;
            out.to_devices.push(Packet::Nack { device });
            return out;
        };
        if records.is_empty() {
            return out;
        }
        self.reports_accepted += 1;
        let billed_by = match membership.kind {
            MembershipKind::Master => self.address,
            MembershipKind::Temporary => membership.home.unwrap_or(self.address),
        };
        let last_sequence = records.iter().map(|r| r.sequence).max().unwrap_or(0);
        let already_acked = membership.last_acked_sequence;

        let mut report_sum_ma = 0.0;
        let mut fresh_for_home: Vec<MeasurementRecord> = Vec::new();
        for record in records {
            // Ignore duplicates the device retransmitted before seeing our ack.
            if already_acked.is_some_and(|acked| record.sequence <= acked) {
                self.records_duplicate_filtered += 1;
                continue;
            }
            // Ignore records this aggregator already processed under an
            // *earlier* membership — re-registration resets the ack filter
            // above, so a device that missed its final ack before
            // unplugging replays already-staged records here.
            if self
                .processed_through
                .get(&device)
                .is_some_and(|&mark| record.sequence <= mark)
            {
                self.records_duplicate_filtered += 1;
                continue;
            }
            if membership.kind == MembershipKind::Temporary {
                fresh_for_home.push(*record);
            }
            self.records_accepted += 1;
            report_sum_ma += record.mean_current_ma();
            self.entropy.observe(device, record.mean_current_ma());
            self.stage_entry(device, billed_by, record);
            let series = self
                .device_series
                .entry(device)
                .or_insert_with(|| TimeSeries::new(format!("{device} @ {}", self.address)));
            series.push(now, record.mean_current_ma());
            match membership.kind {
                MembershipKind::Master => {
                    self.billing.bill_record(
                        device,
                        record.charge_uas,
                        record.interval_start_us,
                        record.interval_end_us,
                        record.backfilled,
                        CollectionOrigin::Home,
                    );
                }
                MembershipKind::Temporary => {
                    // Forward on behalf of the home network (cost centre).
                }
            }
            let mark = self.processed_through.entry(device).or_insert(0);
            *mark = (*mark).max(record.sequence);
            self.window_reported_sum_mas += record.charge_mas();
        }

        // Forward roaming consumption to the home aggregator — only the
        // records that survived duplicate filtering. Forwarding the raw
        // report would re-forward retransmitted records (device missed our
        // ack) and the home network, which bills forwards unconditionally,
        // would double-bill them.
        if membership.kind == MembershipKind::Temporary && !fresh_for_home.is_empty() {
            if let Some(home) = membership.home {
                out.to_aggregators.push((
                    home,
                    Packet::ForwardedConsumption {
                        device,
                        collector: self.address,
                        records: fresh_for_home,
                    },
                ));
            }
        }
        let _ = master;
        if report_sum_ma > 0.0 || !records.is_empty() {
            self.reported_series.push(now, report_sum_ma);
        }
        self.registry.note_ack(device, last_sequence);
        out.to_devices.push(Packet::Ack {
            device,
            through_sequence: last_sequence,
        });
        out
    }

    fn stage_entry(
        &mut self,
        device: DeviceId,
        billed_by: AggregatorAddr,
        record: &MeasurementRecord,
    ) {
        self.ledger.stage(LedgerEntry {
            device_id: device.0,
            collected_by: self.address.0,
            billed_by: billed_by.0,
            sequence: record.sequence,
            interval_start_us: record.interval_start_us,
            interval_end_us: record.interval_end_us,
            charge_uas: record.charge_uas,
            backfilled: record.backfilled,
        });
    }

    /// Handles a packet arriving over the aggregator backhaul.
    pub fn handle_backhaul(
        &mut self,
        from: AggregatorAddr,
        packet: &Packet,
        now: SimTime,
    ) -> AggregatorOutput {
        let mut out = AggregatorOutput::default();
        match packet {
            Packet::MembershipVerifyRequest {
                device, requester, ..
            } => {
                // We are the claimed home network: vouch for the device only
                // if we hold (and have not revoked) its master membership.
                let accepted = self
                    .registry
                    .membership(*device)
                    .is_some_and(|m| m.kind == MembershipKind::Master)
                    && !self.registry.is_blocked(*device);
                out.to_aggregators.push((
                    *requester,
                    Packet::MembershipVerifyResponse {
                        device: *device,
                        accepted,
                    },
                ));
            }
            Packet::MembershipVerifyResponse { device, accepted } => {
                if let Some(home) = self.pending_temporary.remove(device) {
                    if *accepted {
                        out.merge(self.complete_registration(
                            *device,
                            MembershipKind::Temporary,
                            Some(home),
                            now,
                        ));
                    } else {
                        out.to_devices.push(Packet::RegistrationReject {
                            device: *device,
                            reason: RejectReason::MasterVerificationFailed,
                        });
                    }
                }
            }
            Packet::ForwardedConsumption {
                device,
                collector,
                records,
            } => {
                // We are the home network: bill the roaming consumption and
                // commit it to our ledger as well.
                for record in records {
                    // Skip records already processed here (billed directly,
                    // or billed via an earlier forward) — retransmitted
                    // after a lost ack and collected anew by the foreign
                    // network.
                    if self
                        .processed_through
                        .get(device)
                        .is_some_and(|&mark| record.sequence <= mark)
                    {
                        self.records_duplicate_filtered += 1;
                        continue;
                    }
                    self.records_accepted += 1;
                    self.billing.bill_record(
                        *device,
                        record.charge_uas,
                        record.interval_start_us,
                        record.interval_end_us,
                        record.backfilled,
                        CollectionOrigin::Roaming {
                            collector: *collector,
                        },
                    );
                    let mark = self.processed_through.entry(*device).or_insert(0);
                    *mark = (*mark).max(record.sequence);
                    self.stage_entry(*device, self.address, record);
                    let series = self
                        .device_series
                        .entry(*device)
                        .or_insert_with(|| TimeSeries::new(format!("{device} @ {}", self.address)));
                    series.push(now, record.mean_current_ma());
                }
            }
            Packet::TransferMembership { device, new_master }
                // Ownership of the device moved to another network.
                if *new_master != self.address => {
                    let _ = self.registry.remove(*device);
                }
            Packet::RemoveDevice { device } => {
                let _ = self.registry.remove(*device);
                self.registry.block(*device);
            }
            _ => {}
        }
        let _ = from;
        out
    }

    /// Feeds the aggregator's own system-level measurement: `true_total` is
    /// the ground-truth current entering the network (device loads plus
    /// losses), which the aggregator observes through its own INA219.
    pub fn observe_upstream(&mut self, now: SimTime, true_total: Milliamps) -> Milliamps {
        let measured = self.sensor.measure(true_total);
        self.network_series.push(now, measured.value());
        self.window_measured.push(measured.value());
        measured
    }

    /// Ends the current verification window: compares the devices' reported
    /// consumption with the aggregator's own measurement, seals the verified
    /// records into a ledger block and returns the verdict.
    pub fn end_window(&mut self, now: SimTime) -> Option<WindowVerdict> {
        let elapsed_s = now
            .saturating_duration_since(self.window_started_at)
            .as_secs_f64();
        let verdict = if self.window_measured.is_empty() || elapsed_s <= 0.0 {
            None
        } else {
            let measured_mean: f64 =
                self.window_measured.iter().sum::<f64>() / self.window_measured.len() as f64;
            // Mean concurrent current reported by the devices over the
            // window: total reported charge divided by the window length.
            let reported_mean = self.window_reported_sum_mas / elapsed_s;
            let verdict = self.verifier.check(
                Milliamps::new(reported_mean.max(0.0)),
                Milliamps::new(measured_mean.max(0.0)),
            );
            self.verdicts.push(verdict.clone());
            Some(verdict)
        };
        self.window_reported_sum_mas = 0.0;
        self.window_measured.clear();
        self.window_started_at = now;
        // Seal everything verified in this window into the chain.
        let _ = self.ledger.commit_block(self.address.0, now.as_micros());
        verdict
    }

    /// Head digest of the aggregator's ledger (published as the audit anchor).
    pub fn ledger_anchor(&self) -> Digest {
        self.ledger.chain().head_hash()
    }

    /// Applies a [`RetentionPolicy`] after a window seal: evicts ledger
    /// blocks, seals their accuracy contributions and prunes the
    /// measurement series down to the policy's active horizon. `window` is
    /// the verification-window length the run seals on (accuracy windows
    /// share its grid). A [`RetentionPolicy::KeepAll`] call is free.
    ///
    /// Everything folded here happens in the same order a full-history scan
    /// would visit it, so bounded and keep-all runs produce bit-identical
    /// reports (see the sealed-summary fields and
    /// [`TimeSeries::prune_before`]).
    pub fn compact(&mut self, policy: RetentionPolicy, now: SimTime, window: SimDuration) {
        let Some(cutoff) = policy.cutoff(now, window) else {
            return;
        };
        let window_us = window.as_micros().max(1);
        let cutoff_us = cutoff.as_micros();
        // Ledger: evict sealed blocks, folding each evicted entry into its
        // accuracy window's sealed per-device accumulator in commit order.
        let sealed = &mut self.sealed_per_device;
        self.ledger.evict_before(cutoff_us, |entry| {
            let bucket = entry.interval_end_us / window_us;
            *sealed
                .entry(bucket)
                .or_default()
                .entry(entry.device_id)
                .or_default() += entry.charge_mas();
        });
        // Series: pre-integrate the accuracy windows that fall entirely
        // below the cutoff, then drop their samples.
        for w in self.series_sealed_windows..cutoff_us / window_us {
            let start = SimTime::from_micros(w * window_us);
            let end = SimTime::from_micros((w + 1) * window_us);
            let mas = self.network_series.window(start, end).integrate();
            self.sealed_window_mas.insert(w, mas);
        }
        self.series_sealed_windows = cutoff_us / window_us;
        self.network_series.prune_before(cutoff);
        self.reported_series.prune_before(cutoff);
        for series in self.device_series.values_mut() {
            series.prune_before(cutoff);
        }
    }

    /// The sealed per-device accuracy contributions of window `index`
    /// (charge in mA·s), when compaction evicted entries belonging to it.
    pub fn sealed_accuracy_per_device(&self, index: u64) -> Option<&BTreeMap<u64, f64>> {
        self.sealed_per_device.get(&index)
    }

    /// The pre-integrated own-measurement charge (mA·s) of accuracy window
    /// `index`, when compaction pruned its series samples.
    pub fn sealed_window_mas(&self, index: u64) -> Option<f64> {
        self.sealed_window_mas.get(&index).copied()
    }

    /// Resident-state footprint: ledger blocks and series samples still in
    /// memory. The scale bench's bounded-memory cells assert this stays
    /// O(active window) while [`MeteringLedger::chain`]'s `len()` keeps
    /// counting the full history.
    pub fn resident_footprint(&self) -> (usize, usize) {
        let samples = self.network_series.retained_len()
            + self.reported_series.retained_len()
            + self
                .device_series
                .values()
                .map(rtem_sim::trace::TimeSeries::retained_len)
                .sum::<usize>();
        (self.ledger.chain().retained_len(), samples)
    }

    /// Cross-checks a block's record bytes proposed by a *peer* network's
    /// consensus group, returning how many records this aggregator refuses
    /// to vouch for.
    ///
    /// A record is flagged when it is not a well-formed
    /// [`LedgerEntry`] at all, or when it
    /// names this aggregator as collector or billing authority without a
    /// matching committed or staged entry in this aggregator's own ledger —
    /// either way no honest site produced it. A colluding quorum can commit
    /// a forgery inside its own network, but the cross-check at window seal
    /// means the forgery cannot survive contact with any honest peer.
    pub fn cross_check_records(&self, records: &[Vec<u8>]) -> usize {
        records
            .iter()
            .filter(|bytes| match LedgerEntry::from_bytes(bytes) {
                None => true,
                Some(entry) => {
                    let names_us =
                        entry.collected_by == self.address.0 || entry.billed_by == self.address.0;
                    names_us && !self.vouches_for(&entry)
                }
            })
            .count()
    }

    /// `true` when this aggregator's own ledger (committed or staged)
    /// contains an entry matching `(device, sequence, charge)`.
    fn vouches_for(&self, entry: &LedgerEntry) -> bool {
        let matches = |e: &LedgerEntry| {
            e.device_id == entry.device_id
                && e.sequence == entry.sequence
                && e.charge_uas == entry.charge_uas
        };
        self.ledger.staged_entries().iter().any(matches)
            || self.ledger.all_entries().iter().any(matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtem_sim::time::SimDuration;

    fn aggregator(addr: u32) -> Aggregator {
        Aggregator::new(
            AggregatorConfig::testbed(AggregatorAddr(addr)),
            SimRng::seed_from_u64(addr as u64),
        )
    }

    fn record(device: DeviceId, seq: u64, current_ma: f64) -> MeasurementRecord {
        MeasurementRecord {
            device,
            sequence: seq,
            interval_start_us: seq * 100_000,
            interval_end_us: (seq + 1) * 100_000,
            mean_current_ua: (current_ma * 1000.0) as u64,
            charge_uas: (current_ma * 100.0) as u64, // current * 0.1 s
            backfilled: false,
        }
    }

    #[test]
    fn home_registration_accepts_and_assigns_slot() {
        let mut agg = aggregator(1);
        let out = agg.handle_device_packet(
            &Packet::RegistrationRequest {
                device: DeviceId(1),
                master: None,
            },
            SimTime::ZERO,
        );
        assert_eq!(out.to_devices.len(), 1);
        assert!(matches!(
            out.to_devices[0],
            Packet::RegistrationAccept {
                membership: MembershipKind::Master,
                ..
            }
        ));
        assert!(agg.registry().is_member(DeviceId(1)));
    }

    #[test]
    fn registration_rejected_when_full() {
        let mut agg = Aggregator::new(
            AggregatorConfig {
                slots: SlotTable::new(SimDuration::from_millis(10), 1),
                ..AggregatorConfig::testbed(AggregatorAddr(1))
            },
            SimRng::seed_from_u64(1),
        );
        agg.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        let out = agg.handle_device_packet(
            &Packet::RegistrationRequest {
                device: DeviceId(2),
                master: None,
            },
            SimTime::ZERO,
        );
        assert!(matches!(
            out.to_devices[0],
            Packet::RegistrationReject {
                reason: RejectReason::NoFreeSlots,
                ..
            }
        ));
    }

    #[test]
    fn report_from_member_is_acked_and_committed() {
        let mut agg = aggregator(1);
        agg.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        let out = agg.handle_device_packet(
            &Packet::ConsumptionReport {
                device: DeviceId(1),
                master: Some(AggregatorAddr(1)),
                records: vec![record(DeviceId(1), 0, 150.0), record(DeviceId(1), 1, 149.0)],
            },
            SimTime::from_millis(200),
        );
        assert!(matches!(
            out.to_devices[0],
            Packet::Ack {
                through_sequence: 1,
                ..
            }
        ));
        assert_eq!(agg.reports_accepted(), 1);
        agg.end_window(SimTime::from_secs(1));
        assert_eq!(agg.ledger().account(1).unwrap().entries, 2);
        assert!(agg.billing().bill(DeviceId(1)).is_some());
        assert!(agg.device_series(DeviceId(1)).is_some());
    }

    #[test]
    fn duplicate_records_are_not_double_billed() {
        let mut agg = aggregator(1);
        agg.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        let report = Packet::ConsumptionReport {
            device: DeviceId(1),
            master: Some(AggregatorAddr(1)),
            records: vec![record(DeviceId(1), 0, 100.0)],
        };
        agg.handle_device_packet(&report, SimTime::from_millis(100));
        // The device retransmits the same record (ack lost).
        agg.handle_device_packet(&report, SimTime::from_millis(200));
        agg.end_window(SimTime::from_secs(1));
        assert_eq!(agg.ledger().account(1).unwrap().entries, 1);
        assert_eq!(agg.billing().bill(DeviceId(1)).unwrap().records, 1);
    }

    #[test]
    fn report_from_non_member_gets_nack() {
        let mut agg = aggregator(2);
        let out = agg.handle_device_packet(
            &Packet::ConsumptionReport {
                device: DeviceId(1),
                master: Some(AggregatorAddr(1)),
                records: vec![record(DeviceId(1), 5, 120.0)],
            },
            SimTime::from_secs(10),
        );
        assert_eq!(
            out.to_devices,
            vec![Packet::Nack {
                device: DeviceId(1)
            }]
        );
        assert_eq!(agg.nacks_sent(), 1);
    }

    #[test]
    fn temporary_registration_requires_home_verification() {
        let mut home = aggregator(1);
        let mut foreign = aggregator(2);
        home.register_master(DeviceId(1), SimTime::ZERO).unwrap();

        // Device asks the foreign aggregator for a temporary membership.
        let out = foreign.handle_device_packet(
            &Packet::RegistrationRequest {
                device: DeviceId(1),
                master: Some(AggregatorAddr(1)),
            },
            SimTime::from_secs(10),
        );
        assert!(out.to_devices.is_empty(), "no accept before verification");
        let (to, verify) = &out.to_aggregators[0];
        assert_eq!(*to, AggregatorAddr(1));

        // Home aggregator vouches for the device.
        let home_out = home.handle_backhaul(AggregatorAddr(2), verify, SimTime::from_secs(10));
        let (back_to, response) = &home_out.to_aggregators[0];
        assert_eq!(*back_to, AggregatorAddr(2));
        assert!(matches!(
            response,
            Packet::MembershipVerifyResponse { accepted: true, .. }
        ));

        // Foreign aggregator completes the temporary registration.
        let final_out =
            foreign.handle_backhaul(AggregatorAddr(1), response, SimTime::from_secs(10));
        assert!(matches!(
            final_out.to_devices[0],
            Packet::RegistrationAccept {
                membership: MembershipKind::Temporary,
                ..
            }
        ));
        assert!(foreign.registry().is_member(DeviceId(1)));
    }

    #[test]
    fn unknown_device_fails_home_verification() {
        let mut home = aggregator(1);
        let mut foreign = aggregator(2);
        let out = foreign.handle_device_packet(
            &Packet::RegistrationRequest {
                device: DeviceId(42),
                master: Some(AggregatorAddr(1)),
            },
            SimTime::ZERO,
        );
        let (_, verify) = &out.to_aggregators[0];
        let home_out = home.handle_backhaul(AggregatorAddr(2), verify, SimTime::ZERO);
        let (_, response) = &home_out.to_aggregators[0];
        assert!(matches!(
            response,
            Packet::MembershipVerifyResponse {
                accepted: false,
                ..
            }
        ));
        let final_out = foreign.handle_backhaul(AggregatorAddr(1), response, SimTime::ZERO);
        assert!(matches!(
            final_out.to_devices[0],
            Packet::RegistrationReject {
                reason: RejectReason::MasterVerificationFailed,
                ..
            }
        ));
        assert!(!foreign.registry().is_member(DeviceId(42)));
    }

    #[test]
    fn roaming_consumption_is_forwarded_and_billed_at_home() {
        let mut home = aggregator(1);
        let mut foreign = aggregator(2);
        home.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        // Temporary membership at the foreign aggregator (administratively,
        // skipping the verification round trip already covered above).
        foreign
            .registry
            .register(
                DeviceId(1),
                MembershipKind::Temporary,
                Some(AggregatorAddr(1)),
                SimTime::from_secs(10),
            )
            .unwrap();

        let out = foreign.handle_device_packet(
            &Packet::ConsumptionReport {
                device: DeviceId(1),
                master: Some(AggregatorAddr(1)),
                records: vec![record(DeviceId(1), 0, 200.0)],
            },
            SimTime::from_secs(11),
        );
        // Ack to the device plus a forward to the home aggregator.
        assert!(matches!(out.to_devices[0], Packet::Ack { .. }));
        let (to, forwarded) = &out.to_aggregators[0];
        assert_eq!(*to, AggregatorAddr(1));

        home.handle_backhaul(AggregatorAddr(2), forwarded, SimTime::from_secs(11));
        let bill = home.billing().bill(DeviceId(1)).unwrap();
        assert_eq!(bill.roaming_charge_uas, bill.charge_uas);
        assert!(home.device_series(DeviceId(1)).is_some());
        // The foreign aggregator does not bill the roaming device itself.
        assert!(foreign.billing().bill(DeviceId(1)).is_none());
    }

    #[test]
    fn forwarded_records_already_billed_directly_are_skipped() {
        // The device was home for seqs 0..=1 (billed directly), missed the
        // final ack, unplugged, and retransmitted at a foreign collector,
        // whose forward carries the stale seq 1 plus the fresh seq 2.
        let mut home = aggregator(1);
        home.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        home.handle_device_packet(
            &Packet::ConsumptionReport {
                device: DeviceId(1),
                master: Some(AggregatorAddr(1)),
                records: vec![record(DeviceId(1), 0, 100.0), record(DeviceId(1), 1, 100.0)],
            },
            SimTime::from_secs(1),
        );
        assert_eq!(home.billing().bill(DeviceId(1)).unwrap().records, 2);
        home.handle_backhaul(
            AggregatorAddr(2),
            &Packet::ForwardedConsumption {
                device: DeviceId(1),
                collector: AggregatorAddr(2),
                records: vec![record(DeviceId(1), 1, 100.0), record(DeviceId(1), 2, 100.0)],
            },
            SimTime::from_secs(20),
        );
        let bill = home.billing().bill(DeviceId(1)).unwrap();
        assert_eq!(bill.records, 3, "seq 1 must not be billed twice");
        assert_eq!(bill.charge_uas, 30_000);
        assert_eq!(bill.roaming_charge_uas, 10_000, "only seq 2 roamed");
        // The ledger saw each sequence exactly once too.
        home.end_window(SimTime::from_secs(30));
        assert_eq!(home.ledger().account(1).unwrap().entries, 3);
    }

    #[test]
    fn rebilling_guard_survives_reregistration_in_both_directions() {
        let mut home = aggregator(1);
        home.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        // Direction 1: roaming-billed records replayed directly at home.
        // Seqs 0..=1 arrive as a foreign forward and are billed as roaming.
        home.handle_backhaul(
            AggregatorAddr(2),
            &Packet::ForwardedConsumption {
                device: DeviceId(1),
                collector: AggregatorAddr(2),
                records: vec![record(DeviceId(1), 0, 100.0), record(DeviceId(1), 1, 100.0)],
            },
            SimTime::from_secs(5),
        );
        // The device comes home, re-registers (fresh membership: the ack
        // filter is reset) and retransmits the never-acked seqs 0..=1 plus
        // a fresh seq 2.
        home.registry.remove(DeviceId(1)).unwrap();
        home.register_master(DeviceId(1), SimTime::from_secs(10))
            .unwrap();
        home.handle_device_packet(
            &Packet::ConsumptionReport {
                device: DeviceId(1),
                master: Some(AggregatorAddr(1)),
                records: vec![
                    record(DeviceId(1), 0, 100.0),
                    record(DeviceId(1), 1, 100.0),
                    record(DeviceId(1), 2, 100.0),
                ],
            },
            SimTime::from_secs(11),
        );
        let bill = home.billing().bill(DeviceId(1)).unwrap();
        assert_eq!(bill.records, 3, "roaming-billed seqs re-billed directly");
        assert_eq!(bill.charge_uas, 30_000);

        // Direction 2: home-billed records replayed after an unplug/replug
        // at home (another fresh membership).
        home.registry.remove(DeviceId(1)).unwrap();
        home.register_master(DeviceId(1), SimTime::from_secs(20))
            .unwrap();
        home.handle_device_packet(
            &Packet::ConsumptionReport {
                device: DeviceId(1),
                master: Some(AggregatorAddr(1)),
                records: vec![record(DeviceId(1), 2, 100.0), record(DeviceId(1), 3, 100.0)],
            },
            SimTime::from_secs(21),
        );
        let bill = home.billing().bill(DeviceId(1)).unwrap();
        assert_eq!(bill.records, 4, "home-billed seq 2 re-billed after replug");
        assert_eq!(bill.charge_uas, 40_000);
        // The ledger matches: one entry per sequence.
        home.end_window(SimTime::from_secs(30));
        assert_eq!(home.ledger().account(1).unwrap().entries, 4);
    }

    #[test]
    fn retransmitted_roaming_report_is_not_reforwarded() {
        let mut home = aggregator(1);
        let mut foreign = aggregator(2);
        home.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        foreign
            .registry
            .register(
                DeviceId(1),
                MembershipKind::Temporary,
                Some(AggregatorAddr(1)),
                SimTime::from_secs(10),
            )
            .unwrap();
        let report = Packet::ConsumptionReport {
            device: DeviceId(1),
            master: Some(AggregatorAddr(1)),
            records: vec![record(DeviceId(1), 0, 200.0)],
        };
        // First delivery forwards once; the device misses the ack and
        // retransmits the identical report.
        let first = foreign.handle_device_packet(&report, SimTime::from_secs(11));
        assert_eq!(first.to_aggregators.len(), 1);
        let second = foreign.handle_device_packet(&report, SimTime::from_secs(12));
        assert!(
            second.to_aggregators.is_empty(),
            "retransmitted duplicates must not be re-forwarded (home would double-bill)"
        );
        // Home bills the single forward exactly once.
        let (_, forwarded) = &first.to_aggregators[0];
        home.handle_backhaul(AggregatorAddr(2), forwarded, SimTime::from_secs(11));
        let bill = home.billing().bill(DeviceId(1)).unwrap();
        assert_eq!(bill.records, 1);
        assert_eq!(bill.charge_uas, 20_000);
    }

    #[test]
    fn remove_device_blocks_future_registration() {
        let mut agg = aggregator(1);
        agg.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        agg.handle_backhaul(
            AggregatorAddr(1),
            &Packet::RemoveDevice {
                device: DeviceId(1),
            },
            SimTime::from_secs(1),
        );
        assert!(!agg.registry().is_member(DeviceId(1)));
        let out = agg.handle_device_packet(
            &Packet::RegistrationRequest {
                device: DeviceId(1),
                master: None,
            },
            SimTime::from_secs(2),
        );
        assert!(matches!(
            out.to_devices[0],
            Packet::RegistrationReject {
                reason: RejectReason::Blocked,
                ..
            }
        ));
    }

    #[test]
    fn verification_window_flags_under_reporting() {
        let mut agg = aggregator(1);
        agg.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        // Device reports 100 mA over one second...
        agg.handle_device_packet(
            &Packet::ConsumptionReport {
                device: DeviceId(1),
                master: Some(AggregatorAddr(1)),
                records: (0..10)
                    .map(|i| MeasurementRecord {
                        device: DeviceId(1),
                        sequence: i,
                        interval_start_us: i * 100_000,
                        interval_end_us: (i + 1) * 100_000,
                        mean_current_ua: 100_000,
                        charge_uas: 10_000,
                        backfilled: false,
                    })
                    .collect(),
            },
            SimTime::from_secs(1),
        );
        // ...but the aggregator's meter sees 250 mA flowing.
        for i in 0..10 {
            agg.observe_upstream(SimTime::from_millis(100 * i), Milliamps::new(250.0));
        }
        let verdict = agg.end_window(SimTime::from_secs(1)).unwrap();
        assert!(verdict.anomalous);
        // Honest window afterwards passes.
        agg.handle_device_packet(
            &Packet::ConsumptionReport {
                device: DeviceId(1),
                master: Some(AggregatorAddr(1)),
                records: (10..20)
                    .map(|i| MeasurementRecord {
                        device: DeviceId(1),
                        sequence: i,
                        interval_start_us: i * 100_000,
                        interval_end_us: (i + 1) * 100_000,
                        mean_current_ua: 240_000,
                        charge_uas: 24_000,
                        backfilled: false,
                    })
                    .collect(),
            },
            SimTime::from_secs(2),
        );
        for i in 10..20 {
            agg.observe_upstream(SimTime::from_millis(100 * i), Milliamps::new(250.0));
        }
        let verdict = agg.end_window(SimTime::from_secs(2)).unwrap();
        assert!(!verdict.anomalous, "residual {}", verdict.residual_ma);
    }

    #[test]
    fn ledger_audits_clean_after_operation() {
        let mut agg = aggregator(1);
        agg.register_master(DeviceId(1), SimTime::ZERO).unwrap();
        for w in 0..5u64 {
            agg.handle_device_packet(
                &Packet::ConsumptionReport {
                    device: DeviceId(1),
                    master: Some(AggregatorAddr(1)),
                    records: vec![record(DeviceId(1), w, 100.0)],
                },
                SimTime::from_secs(w + 1),
            );
            agg.observe_upstream(SimTime::from_secs(w + 1), Milliamps::new(105.0));
            agg.end_window(SimTime::from_secs(w + 1));
        }
        let report =
            rtem_chain::audit::audit_chain(agg.ledger().chain(), Some(agg.ledger_anchor()));
        assert!(report.is_clean());
        assert!(agg.ledger().chain().len() >= 6);
    }
}
